"""The CLI's text output and help, pinned byte for byte to tests/data/cli.

The files hold stdout at an 80-column terminal. argparse heads the
option list "optional arguments:" on Python 3.10 and "options:" from
3.11 on; the files use the later heading.
"""

from pathlib import Path

import pytest

from radixmul import cli

GOLDEN = Path(__file__).parent / "data" / "cli"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name,argv", [
    ("sweep_n16_k1-4.txt", ["sweep", "--n", "16", "--k", "1..4"]),
    ("compare_ffff_ffff.txt", ["compare", "--a", "0xFFFF", "--b", "0xFFFF"]),
    ("mul_13x63_n6.txt", ["mul", "--a", "bin:001101", "--b", "bin:111111", "--n", "6"]),
    ("verify_n6_exhaustive.txt", ["verify", "--n", "6", "--exhaustive"]),
])
def test_output_matches_golden(capsys, name, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == golden(name)
    assert captured.err == ""


@pytest.mark.parametrize("command", ["mul", "verify", "sweep", "compare"])
def test_help_matches_golden(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.replace("optional arguments:", "options:")
    assert out == golden(f"help_{command}.txt")
