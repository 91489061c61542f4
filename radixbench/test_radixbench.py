"""Tests of the benchmark itself.

    python3 -m pytest radixbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from bench_trace import Span, Tracer, self_times
from bench_workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """Shorter set-up and model pass, so a run takes about two seconds."""
    monkeypatch.setattr(run, "WARMUP_S", 0.05)
    for name, w in WORKLOADS.items():
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(w, model_pairs=64))
    return tmp_path


def run_main(argv, out_dir, capsys) -> tuple[int, dict, str]:
    code = run.main(argv, out_dir)
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "radixbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace, quick, capsys):
    code, result, out = run_main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        quick, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
    assert "provenance " in out and "digest" in out


def test_model_statistics_hit_the_paper_anchor(quick, capsys):
    _, result, _ = run_main(["--workload", "verify16_random", "--seconds", "1"], quick, capsys)
    assert result["metrics"]["sim_cycles_per_op"]["value"] == 11.0
    _, result, _ = run_main(["--workload", "trace64_wide", "--seconds", "1"], quick, capsys)
    assert result["metrics"]["sim_cycles_per_op"]["value"] == 22.0


@pytest.mark.parametrize("workload", ["verify16_random", "trace64_wide"])
def test_wrong_simulate_fails_every_op(workload, quick, monkeypatch, capsys):
    real_import = run.import_radixmul

    def import_broken():
        lib = real_import()
        simulate = lib.engine.simulate

        def wrong(a, b, cfg):
            result = simulate(a, b, cfg)
            result.product = lib.word.Word(result.product.value ^ 1, result.product.width)
            return result

        lib.engine.simulate = lib.baseline.simulate = wrong
        return lib

    monkeypatch.setattr(run, "import_radixmul", import_broken)
    code, result, out = run_main(["--workload", workload, "--seconds", "1"], quick, capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    assert "fail_ratio 1.0" in out
    assert result["metrics"]["pass_ratio"]["value"] == 0.0


def test_self_time_is_span_minus_children():
    spans = [
        Span("root", 0, 100, -1, 7),
        Span("a", 10, 40, 0, 7),
        Span("leaf", 15, 25, 1, 7),
        Span("b", 50, 90, 0, 7),
        Span("leaf", 60, 65, 3, 7),
    ]
    totals = self_times(spans)
    assert totals == {"root": [1, 30], "a": [1, 20], "leaf": [2, 15], "b": [1, 35]}
    assert sum(ns for _, ns in totals.values()) == 100


def test_one_block_of_slow_ops_does_not_set_the_p99(monkeypatch):
    monkeypatch.setattr(run, "SLOW_SHARE", 1.0)  # every block counts
    timed = run.OpStats()
    for j in range(10):
        # 100 ops of 1 us; block 0 has 10 of 9 us, the others 0 to 2.
        slow = 10 if j == 0 else j % 3
        latencies = [1000] * (100 - slow) + [9000] * slow
        timed.blocks.append(run.Block(100, 100, sum(latencies), len(timed.latencies_ns), 0))
        timed.latencies_ns.extend(latencies)
    metrics, samples = run.host_metrics(timed)
    assert samples["blocks_used"] == 10 and samples["op_us_p99"] == 1000
    assert metrics["op_us_p99"] == 1.0  # pooled over the blocks it would read 9.0
    assert metrics["op_us_p50"] == 1.0


def test_tracer_nests_counts_and_restores():
    lib = run.import_radixmul()
    original = lib.engine.simulate
    cfg = lib.engine.SimConfig(n=16)
    tracer = Tracer(lib)
    tracer.install()
    try:
        tracer.begin_op(0)
        lib.baseline.compare(lib.word.Word(0xFFFF, 16), lib.word.Word(0xFFFF, 16), cfg)
        records = tracer.records
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert lib.engine.simulate is original and lib.baseline.simulate is original
    names = [r[0] for r in records]
    assert names[0] == "baseline.compare"
    assert names.count("datapath.central_adder_step") == 11
    simulate_at = names.index("engine.simulate")
    adder = records[names.index("datapath.central_adder_step")]
    assert adder[3] == simulate_at and records[simulate_at][3] == 0
    assert tracer.totals["engine.simulate"][0] == 1
    assert tracer.constructed["word.Word"] > 0 and tracer.constructed["word.Digit"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "radixbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "radixbench/run.py", "--workload", "verify16_random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
