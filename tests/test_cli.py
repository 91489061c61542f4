import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from radixmul import baseline, cli, engine
from radixmul.baseline import ProductMismatchError
from radixmul.engine import verify_trace_dict

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def one_cycle_too_many(monkeypatch):
    # a cycle loop that gets every product right and every cycle count wrong
    def broken_run(a, b, cfg, trace):
        product, cycles = engine._run(a, b, cfg, trace)
        return product, cycles + 1

    monkeypatch.setattr(baseline, "_run", broken_run)


@pytest.fixture
def residue_past_bound(monkeypatch):
    # a central adder whose every residue is 2^7, past n=6's 2^n bound
    def broken_step(residue, pp, k):
        return 0, 1 << 7

    monkeypatch.setattr(engine, "_central_step", broken_step)


@pytest.fixture
def ladder_past_width(monkeypatch):
    # an initial-adder ladder whose entry 1 is 2^9, past n=6 k=3's n + k bits
    def broken_ladder(base, k):
        return {1: 1 << 9}

    monkeypatch.setattr(engine, "_ladder", broken_ladder)


class TestMul:
    def test_worked_example(self, capsys):
        code, out, err = run(capsys, "mul", "--a", "bin:001101",
                             "--b", "bin:111111", "--n", "6")
        assert code == 0
        assert "product (bin) 001100110011" in out
        assert "product (dec) 819" in out
        assert "product (hex) 0x333" in out
        assert "cycles        4" in out
        assert "total_time_ns 190" in out

    def test_reference_defaults(self, capsys):
        code, out, _ = run(capsys, "mul", "--a", "0xFFFF", "--b", "0xFFFF")
        assert code == 0
        assert "cycles        11" in out
        assert "total_time_ns 470" in out
        assert "product (dec) 4294836225" in out

    def test_zero_operands_full_width(self, capsys):
        code, out, _ = run(capsys, "mul", "--a", "0", "--b", "0", "--n", "16")
        assert code == 0
        assert "product (dec) 0" in out
        assert "cycles        11" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "mul", "--a", "13", "--b", "63",
                           "--n", "6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["product"] == "0x333"
        verify_trace_dict(doc)

    def test_trace_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, _, _ = run(capsys, "mul", "--a", "13", "--b", "63", "--n", "6",
                         "--flush", "early_stop", "--trace", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["config"] == {"n": 6, "k": 3, "adder_width": 15,
                                 "clock_period_ns": 40.0,
                                 "load_delay_ns": 30.0,
                                 "flush_policy": "early_stop"}
        verify_trace_dict(doc)

    def test_trace_is_serialised_only_when_asked(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "to_trace_json", lambda result: calls.append(result) or "{}")
        code, out, _ = run(capsys, "mul", "--a", "13", "--b", "63", "--n", "6")
        assert code == 0 and "product (dec) 819" in out
        assert calls == []
        run(capsys, "mul", "--a", "13", "--b", "63", "--n", "6", "--json")
        run(capsys, "mul", "--a", "13", "--b", "63", "--n", "6",
            "--trace", str(tmp_path / "trace.json"))
        assert len(calls) == 2

    def test_bad_operand_text(self, capsys):
        code, _, err = run(capsys, "mul", "--a", "zz", "--b", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["zz", "1__2", "12a", "0x"])
    def test_malformed_literal_is_echoed(self, capsys, text):
        assert run(capsys, "mul", "--a", text, "--b", "1") == (
            2, "", f"error: not an operand literal: {text!r}\n")

    def test_operand_too_wide(self, capsys):
        code, _, err = run(capsys, "mul", "--a", "0x1FFFF", "--b", "1",
                           "--n", "16")
        assert code == 2
        assert "does not fit" in err

    def test_bad_config(self, capsys):
        code, _, err = run(capsys, "mul", "--a", "1", "--b", "1",
                           "--n", "2", "--k", "3")
        assert code == 2
        assert "error" in err

    def test_digit_wider_than_sixteen_bits(self, capsys):
        code, out, err = run(capsys, "mul", "--a", "3", "--b", "5",
                             "--n", "64", "--k", "17")
        assert code == 2
        assert out == ""
        assert err == "error: k 17 above the maximum digit width 16\n"

    def test_non_finite_clock(self, capsys):
        code, out, err = run(capsys, "mul", "--a", "3", "--b", "5",
                             "--clock-ns", "nan")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "clock_period_ns" in err


class TestVerify:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--k", "3",
                           "--exhaustive")
        assert code == 0
        assert "4096 pairs, 0 failures" in out

    def test_exhaustive_k1(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "1",
                           "--exhaustive")
        assert code == 0
        assert "256 pairs, 0 failures" in out

    def test_exhaustive_capped(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "16", "--exhaustive")
        assert code == 2
        assert "n <= 10" in err

    def test_random_seeded(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "16", "--random", "300",
                           "--seed", "42")
        assert code == 0
        assert "300 pairs, 0 failures (seed 42)" in out

    def test_wrong_cycle_count_is_a_failure(self, capsys, one_cycle_too_many):
        code, out, err = run(capsys, "verify", "--n", "6", "--exhaustive",
                             "--flush", "early_stop")
        assert code == 1
        assert "4096 pairs, 4096 failures" in out
        assert err == ("MISMATCH a=0x0 b=0x0: reformed cycles 3, "
                       "cycle_count_model gives 2\n")

    def test_simulator_fault_is_a_failure(self, capsys, residue_past_bound):
        # a fault inside the simulator names the pair and the run goes on
        code, out, err = run(capsys, "verify", "--n", "6", "--exhaustive")
        assert code == 1
        assert out == "verify n=6 k=3 exhaustive: 4096 pairs, 4096 failures\n"
        assert err == "MISMATCH a=0x0 b=0x0: residue 128 breaks the 2^n bound\n"

    def test_ladder_fault_is_a_failure(self, capsys, ladder_past_width):
        code, out, err = run(capsys, "verify", "--n", "6", "--exhaustive")
        assert code == 1
        assert out == "verify n=6 k=3 exhaustive: 4096 pairs, 4096 failures\n"
        assert err == "MISMATCH a=0x0 b=0x0: ladder entry 512 does not fit in 9 bits\n"

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_random_count_must_be_positive(self, capsys, count):
        code, out, err = run(capsys, "verify", "--random", count,
                             "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--random" in err

    def test_random_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "16", "--random", "50",
                           "--seed", "7", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 16, "k": 3, "mode": "random 50", "seed": 7,
                       "pairs": 50, "failures": 0, "first_failure": None}

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["entropy", "flag"])
    def test_seed_environment_variable_is_ignored(self, capsys, monkeypatch, seed):
        # the seed is --seed or else OS entropy; RADIXMUL_SEED is not read
        monkeypatch.setenv("RADIXMUL_SEED", "nope")
        code, out, err = run(capsys, "verify", "--random", "5", *seed)
        assert code == 0
        assert "5 pairs, 0 failures" in out
        assert err == ""

    def test_seed_with_exhaustive_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "4", "--exhaustive",
                             "--seed", "3")
        assert code == 2
        assert out == ""
        assert err == "error: --seed applies only to --random\n"

    def test_wide_random_needs_no_timing(self, capsys):
        # verify reports no time; its config takes the default timing
        code, out, err = run(capsys, "verify", "--random", "3", "--seed", "1",
                             "--n", "64", "--k", "1")
        assert code == 0
        assert out == "verify n=64 k=1 random 3: 3 pairs, 0 failures (seed 1)\n"
        assert err == ""

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        def broken_compare(a, b, cfg):
            raise ProductMismatchError("forced")

        monkeypatch.setattr(cli, "compare", broken_compare)
        code, out, err = run(capsys, "verify", "--n", "4", "--exhaustive")
        assert code == 1
        assert "256 pairs, 256 failures" in out
        assert "forced" in err


class TestSweep:
    def test_digit_cycles_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "16", "--k", "1..4",
                           "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["digit_cycles"] for r in rows] == [16, 8, 6, 4]
        assert [r["cycles_full_width"] for r in rows] == [32, 16, 11, 8]
        assert [r["table_size"] for r in rows] == [1, 2, 4, 8]
        assert [r["adder_width"] for r in rows] == [19, 22, 25, 28]
        assert [list(r) for r in rows] == [[
            "k", "digit_cycles", "cycles_full_width", "adder_width", "table_size",
        ]] * 4

    def test_single_k(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "16", "--k", "3", "--json")
        rows = json.loads(out)
        assert code == 0
        assert len(rows) == 1
        assert rows[0]["table_size"] == 4
        assert rows[0]["adder_width"] == 25

    def test_small_n(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "6", "--k", "3", "--json")
        assert code == 0
        assert json.loads(out)[0]["digit_cycles"] == 2

    def test_table_rendering(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "16", "--k", "1..4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["k", "digit_cycles", "cycles_full_width",
                                    "adder_width", "table_size"]
        assert len(lines) == 5

    def test_k_out_of_range(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "16", "--k", "0..4")
        assert code == 2
        assert out == ""
        assert err == "error: need 1 <= k <= n, got n=16 k=0\n"

    def test_k_runs_to_sixteen_as_in_mul(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "16", "--k", "9..16", "--json")
        assert code == 0
        assert [r["table_size"] for r in json.loads(out)] == [
            256, 512, 1024, 2048, 4096, 8192, 16384, 32768]

    def test_k_above_sixteen_is_simconfigs_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "32", "--k", "17")
        assert code == 2
        assert out == ""
        assert err == "error: k 17 above the maximum digit width 16\n"

    @pytest.mark.parametrize("text", ["1..", "..3", "x", "4..2"])
    def test_unparsable_k_names_the_range(self, capsys, text):
        code, out, err = run(capsys, "sweep", "--n", "16", "--k", text)
        assert code == 2
        assert out == ""
        assert err == f"error: k range must be K or LO..HI, got {text!r}\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_blamed_on_n(self, capsys, n):
        code, out, err = run(capsys, "sweep", "--n", n, "--k", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: need 1 <= k <= n, got n={n} k=1\n"

    def test_wide_n_is_closed_form(self):
        # no column multiplies n-bit operands, so n = 10^8 takes no longer than n = 16
        path = [str(SRC), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "radixmul", "sweep", "--n", "100000000", "--k", "1",
             "--json"],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            '[{"k": 1, "digit_cycles": 100000000, "cycles_full_width": 200000000, '
            '"adder_width": 100000003, "table_size": 1}]\n')


class TestCompare:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "compare", "--a", "bin:001101",
                           "--b", "bin:111111", "--n", "6",
                           "--flush", "early_stop")
        assert code == 0
        assert "baseline cycles       = 6" in out
        assert "reformed digit cycles = 2" in out
        assert "reformed total cycles = 4" in out
        assert "1.50x" in out

    def test_sixteen_bit_reference(self, capsys):
        code, out, _ = run(capsys, "compare", "--a", "0xFFFF",
                           "--b", "0xFFFF", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["baseline_cycles"] == 16
        assert doc["reformed_cycles"] == 11

    def test_zero_operand(self, capsys):
        code, out, _ = run(capsys, "compare", "--a", "5", "--b", "0",
                           "--n", "8", "--json")
        assert code == 0
        assert json.loads(out)["product"] == "0x0"

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        def broken_compare(a, b, cfg):
            raise ProductMismatchError("forced")

        monkeypatch.setattr(cli, "compare", broken_compare)
        code, _, err = run(capsys, "compare", "--a", "1", "--b", "1")
        assert code == 1
        assert "forced" in err

    def test_wrong_cycle_count_exits_one(self, capsys, one_cycle_too_many):
        code, out, err = run(capsys, "compare", "--a", "13", "--b", "63", "--n", "6",
                             "--flush", "early_stop")
        assert code == 1
        assert out == ""
        assert err == ("error: a=0xd b=0x3f: reformed cycles 5, "
                       "cycle_count_model gives 4\n")

    def test_simulator_fault_exits_one(self, capsys, residue_past_bound):
        code, out, err = run(capsys, "compare", "--a", "63", "--b", "63", "--n", "6")
        assert code == 1
        assert out == ""
        assert err == "error: a=0x3f b=0x3f: residue 128 breaks the 2^n bound\n"

    def test_ladder_fault_exits_one(self, capsys, ladder_past_width):
        code, out, err = run(capsys, "compare", "--a", "63", "--b", "63", "--n", "6")
        assert code == 1
        assert out == ""
        assert err == "error: a=0x3f b=0x3f: ladder entry 512 does not fit in 9 bits\n"


WIDE_N = 8000
WIDE = (1 << WIDE_N) - 1  # its square has 16000 bits, 4817 decimal digits


@pytest.fixture(params=["default limit", "no limit"])
def digit_limit(request):
    # the interpreter's limit on int-to-decimal conversion (0 for none), at
    # its shipped default or lifted, as on builds that predate the limit
    if not hasattr(sys, "set_int_max_str_digits"):
        yield 0
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300 if request.param == "default limit" else 0)
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(old)


class TestWideDecimal:
    # a product past the decimal digit limit is a valid result: its decimal
    # names the limit, and its hex line holds every digit
    @staticmethod
    def decimal(value, limit):
        return f"(more than {limit} digits; see hex)" if limit else str(value)

    def test_mul(self, capsys, digit_limit):
        code, out, err = run(capsys, "mul", "--a", hex(WIDE), "--b", hex(WIDE),
                             "--n", str(WIDE_N), "--k", "16")
        product = WIDE * WIDE
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"product (bin) {product:016000b}",
            f"product (dec) {self.decimal(product, digit_limit)}",
            f"product (hex) {product:#x}",
            "cycles        1000",
            "total_time_ns 40030",
        ]

    def test_compare(self, capsys, digit_limit):
        code, out, err = run(capsys, "compare", "--a", hex(WIDE), "--b", hex(WIDE),
                             "--n", str(WIDE_N), "--k", "16")
        product = WIDE * WIDE
        assert (code, err) == (0, "")
        operand = f"{WIDE} ({WIDE:#x}, bin {'1' * WIDE_N})"
        assert out.splitlines() == [
            f"a = {operand}",
            f"b = {operand}",
            f"product               = {self.decimal(product, digit_limit)} ({product:#x})",
            "baseline cycles       = 8000 (shift-and-add, one per multiplier bit)",
            "reformed digit cycles = 500 (16 bits per cycle)",
            "reformed total cycles = 1000 (flush included)",
            "speedup (total)       = 8.00x",
        ]

    def test_decimal_operand(self, capsys, digit_limit):
        # a decimal operand past the limit fits n bits but cannot be read:
        # it is refused by name, without echoing its digits
        nines = "9" * 4400
        code, out, err = run(capsys, "mul", "--a", nines, "--b", "1",
                             "--n", "16000", "--k", "8")
        if digit_limit:
            assert (code, out) == (2, "")
            assert err == ("error: decimal operand of 4400 digits is past the "
                           "interpreter's 4300-digit limit; give it as 0x or bin:\n")
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[2] == f"product (hex) {int(nines):#x}"


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--random", "3", "--seed", "1", "--clock-ns", "1"],
        ["verify", "--random", "3", "--seed", "1", "--load-ns", "1"],
        ["compare", "--a", "3", "--b", "5", "--clock-ns", "1"],
        ["verify", "--random", "3", "--seed", "1", "--n", "64", "--k", "1",
         "--clock-ns", "1e308"],
        ["compare", "--a", "3", "--b", "5", "--clock-ns", "1e308"],
    ], ids=["verify-clock", "verify-load", "compare-clock",
            "verify-overflowing-clock", "compare-overflowing-clock"])
    def test_timing_flags_only_on_mul(self, capsys, argv):
        # only mul reports a time, so only mul takes the timing flags
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_unknown_flush_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mul", "--a", "1", "--b", "1", "--flush", "never"])
        assert exc.value.code == 2
