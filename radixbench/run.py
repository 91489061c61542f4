"""radixmul benchmark: one workload, one seed, one run.

    python3 radixbench/run.py --workload verify16_random --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics from a
traced run, which also measures an untraced reference to give the
tracing overhead. Human-readable lines come first and the last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exit codes: 0 when every op was checked and correct, 1 when an op
failed or none ran, 2 when the library cannot be loaded or the
arguments are bad.
"""

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns, thread_time_ns
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_trace import LAYERS, ROOT_SPAN, Tracer  # noqa: E402
from bench_workloads import WORKLOADS, model_pass  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WARMUP_S = 0.5
BLOCKS = 80
SLOW_SHARE = 0.1
SETUP_EVERY = 8  # blocks between repeated set-ups

# name -> (unit, what it measures). Host time is what the simulator
# takes to run; simulated time is what the modelled multiplier takes.
END_TO_END = {
    "ops_per_s": ("1/s", "host CPU: checked ops per second, slowest tenth of blocks"),
    "op_us_p50": ("us", "host CPU: median time of one checked op, slowest tenth"),
    "op_us_p99": ("us", "host CPU: median of the slowest tenth's per-block 99th percentiles"),
    "sim_cycles_per_host_s": ("1/s", "host CPU: simulated cycles per second, slowest tenth"),
    "sim_cycles_per_op": ("cycles", "simulated: clock cycles per op over the model pairs"),
    "setup_s": ("s", "host CPU: import, config and input generation, median of repeats"),
    "peak_rss_mb": ("MB", "host: peak resident memory before the timed ops"),
    "pass_ratio": ("ratio", "checked-correct ops / attempted ops"),
}

SELF_TIMED = (
    "datapath.central_adder_step", "datapath.csa", "datapath.rca",
    "datapath.build_multiple_table", "datapath.decompose_digit",
    "datapath.mux_select", "datapath.barrel_shift",
    "word.split_digits", "word.resize", "word.shift_left", "word.add",
    "engine.simulate", "engine.assemble_product", "engine.to_trace_json",
    "engine.from_trace_dict", "engine.verify_trace_dict",
    "baseline.compare", "baseline.shift_add_multiply", "baseline.oracle_multiply",
    ROOT_SPAN,
)
PER_LAYER = {
    "datapath.central_adder_step.calls_per_op": ("count", "calls per traced op"),
    "datapath.build_multiple_table.calls_per_op": ("count", "ladder builds per traced op"),
    "datapath.ladder_reuse_ratio": ("ratio", "multiplicand changes / ladder builds"),
    "datapath.zero_pp_share": ("ratio", "simulated: cycles with a zero partial product / all cycles"),
    "engine.flush_share": ("ratio", "simulated: flush cycles / all cycles"),
    "word.Word.new_per_op": ("count", "Word constructions per traced op"),
    "word.Digit.new_per_op": ("count", "Digit constructions per traced op"),
    **{f"{name}.self_us_per_op": ("us", "host: self time per traced op")
       for name in SELF_TIMED},
    "cli.main.self_us_per_op": ("us", "host: cli.main self time per pair of its CLI run"),
    "trace.overhead_ratio": ("ratio", "traced ops/s / untraced ops/s, by op time"),
    "trace.accounted_share": ("ratio", "sum of self times / traced op time"),
}


class SetupError(Exception):
    """The library could not be loaded from the checkout."""


def import_radixmul() -> SimpleNamespace:
    """Import radixmul afresh from this checkout's src directory."""
    if not (SRC / "radixmul" / "__init__.py").is_file():
        raise SetupError(f"no radixmul package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "radixmul" or m.startswith("radixmul.")]:
        del sys.modules[name]
    package = importlib.import_module("radixmul")
    if Path(package.__file__).resolve().parent != SRC / "radixmul":
        raise SetupError(f"radixmul imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        package=package,
        **{short: importlib.import_module(f"radixmul.{short}") for short in LAYERS},
    )


def setup(workload, seed: int):
    """Import, config and input generation: everything before the first op.

    Timed in CPU time of this thread, like the end-to-end ops.
    """
    start = thread_time_ns()
    lib = import_radixmul()
    cfg = workload.config(lib)
    inputs = workload.make_inputs(seed)
    return (thread_time_ns() - start) / 1e9, lib, cfg, inputs


class Block(NamedTuple):
    """One stretch of back-to-back ops: counts, host time, and where it lies."""

    ops: int
    cycles: int
    ns: int
    first_latency: int  # index of its first op in OpStats.latencies_ns
    first_input: int  # index of its first op's pair in the input sequence


@dataclass
class OpStats:
    """Checked ops timed one by one and grouped into blocks."""

    ops: int = 0
    failed: int = 0
    first_failure: str | None = None
    latencies_ns: array = field(default_factory=lambda: array("q"))
    blocks: list[Block] = field(default_factory=list)

    def slowest_blocks(self, share: float) -> list[Block]:
        """The given share of blocks with the fewest ops per second."""
        count = max(1, math.ceil(len(self.blocks) * share))
        return sorted(self.blocks, key=lambda b: b.ops / b.ns)[:count]


def run_block(stats: OpStats, op, inputs, start: int, seconds: float,
              tracer=None, clock=perf_counter_ns) -> int:
    """Run ops from inputs[start] on for `seconds` of wall time.

    Op latencies and the block's duration are read from `clock`.
    Returns the next input index.
    """
    lat = stats.latencies_ns
    size = len(inputs)
    i = start
    ops = cycles = 0
    first_latency = len(lat)
    b_end = perf_counter_ns() + int(seconds * 1e9)
    b_start = clock()
    while True:
        a, b = inputs[i]
        i = i + 1 if i + 1 < size else 0
        if tracer is not None:
            tracer.begin_op(stats.ops + ops)
        t0 = clock()
        try:
            c = op(a, b)
        except Exception as exc:  # a failing op is counted, never fatal
            c = 0
            stats.failed += 1
            if stats.first_failure is None:
                stats.first_failure = f"{a:#x} * {b:#x}: {exc!r}"
        t = clock()
        if tracer is not None:
            tracer.end_op()
        lat.append(t - t0)
        ops += 1
        cycles += c
        if perf_counter_ns() >= b_end:
            break
    stats.blocks.append(Block(ops, cycles, clock() - b_start, first_latency, start))
    stats.ops += ops
    return i


def multiplicand_changes(inputs, start: int, count: int) -> int:
    """Ops whose multiplicand differs from that of the op run before.

    These are the ladder builds that reusing a ladder across equal
    multiplicands would still need.
    """
    size = len(inputs)
    return sum(1 for j in range(start, start + count)
               if j == 0 or inputs[j % size][0] != inputs[(j - 1) % size][0])


def run_cli(lib, argvs, tracer) -> tuple[int, int, int]:
    """Traced `radixmul.cli.main` runs; returns (pairs, failed, cli.main self ns)."""
    pairs = failed = 0
    tracer.reset()
    for j, argv in enumerate(argvs):
        out = io.StringIO()
        tracer.begin_op(-1 - j)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = lib.cli.main(argv)
        finally:
            tracer.end_op()
        try:
            doc = json.loads(out.getvalue())
            if argv[0] == "verify":
                count, bad = doc["pairs"], doc["failures"]
                if code != 0 or count < 1:
                    bad = max(bad, 1)
            else:
                count = 1
                lib.engine.verify_trace_dict(doc)
                product = int(doc["a"], 16) * int(doc["b"], 16)
                bad = int(code != 0 or int(doc["product"], 16) != product)
        except (ValueError, KeyError, TypeError):
            count, bad = 1, 1
        pairs += count
        failed += bad
    return pairs, failed, tracer.totals.get("cli.main", [0, 0])[1]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def host_metrics(timed: OpStats) -> tuple[dict, dict]:
    """End-to-end host-time metrics from the slowest tenth of the blocks.

    Times are CPU time of this thread, so time the virtual machine's CPU
    is taken away (steal) does not count. Other tenants still slow the
    CPU by up to 2x for seconds at a time; read over a whole run,
    throughput swings between the slowed and the free state from run to
    run, while the slowest tenth of the blocks reads the slowed state
    whenever it covers a tenth of the run. The 99th percentile is taken
    in each of those blocks and their median reported, so that one
    block with a burst of slow ops cannot set it on its own.
    """
    chosen = timed.slowest_blocks(SLOW_SHARE)
    ns = sum(b.ns for b in chosen)
    lat = timed.latencies_ns
    per_block = [sorted(lat[b.first_latency:b.first_latency + b.ops]) for b in chosen]
    pooled = sorted(x for block in per_block for x in block)
    metrics = {
        "ops_per_s": sum(b.ops for b in chosen) * 1e9 / ns,
        "op_us_p50": statistics.median(pooled) / 1000,
        "op_us_p99": statistics.median(percentile(block, 99) for block in per_block) / 1000,
        "sim_cycles_per_host_s": sum(b.cycles for b in chosen) * 1e9 / ns,
    }
    samples = {"op_us_p50": len(pooled), "op_us_p99": len(pooled),
               "beyond_p99": sum(len(block) - math.ceil(len(block) * 0.99)
                                 for block in per_block),
               "p99_block_ops_min": min(len(block) for block in per_block),
               "blocks_used": len(chosen), "blocks": len(timed.blocks),
               "ops_timed": timed.ops}
    return metrics, samples


def layer_metrics(tracer: Tracer, reference: OpStats, traced: OpStats, inputs) -> dict:
    """Per-layer metrics from the traced blocks, normalised per traced op."""
    totals = tracer.totals
    per_op = max(traced.ops, 1)
    traced_ns = sum(traced.latencies_ns)

    def calls(name: str) -> int:
        return totals.get(name, [0, 0])[0]

    builds = calls("datapath.build_multiple_table")
    changes = sum(multiplicand_changes(inputs, b.first_input, b.ops) for b in traced.blocks)
    metrics = {f"{name}.self_us_per_op": totals.get(name, [0, 0])[1] / per_op / 1000
               for name in SELF_TIMED}
    metrics.update({
        "datapath.central_adder_step.calls_per_op": calls("datapath.central_adder_step") / per_op,
        "datapath.build_multiple_table.calls_per_op": builds / per_op,
        "datapath.ladder_reuse_ratio": changes / builds if builds else 0.0,
        "word.Word.new_per_op": tracer.constructed["word.Word"] / per_op,
        "word.Digit.new_per_op": tracer.constructed["word.Digit"] / per_op,
        "trace.overhead_ratio":
            (sum(reference.latencies_ns) / max(reference.ops, 1)) / (traced_ns / per_op),
        "trace.accounted_share": sum(ns for _, ns in totals.values()) / traced_ns,
    })
    return metrics


def run(args, out_dir: Path = OUT_DIR) -> dict:
    workload = WORKLOADS[args.workload]
    seconds, lib, cfg, inputs = setup(workload, args.seed)
    setup_times = [seconds]
    gc.collect()
    gc.freeze()

    op = workload.make_op(lib, cfg)
    block_s = args.seconds / BLOCKS
    warm = OpStats()
    index = run_block(warm, op, inputs, 0, WARMUP_S)
    stats = [warm]
    report = {}
    model = model_pass(lib, cfg, inputs[:workload.model_pairs])
    # Read before the timed ops, whose latency records grow with speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        # Set-up is repeated between blocks, so its median spans the
        # run's host conditions instead of one moment before it.
        timed = OpStats()
        for j in range(1, BLOCKS + 1):
            index = run_block(timed, op, inputs, index, block_s, clock=thread_time_ns)
            if j % SETUP_EVERY == 0:
                setup_times.append(setup(workload, args.seed)[0])
                gc.collect()
        stats.append(timed)
        metrics, samples = host_metrics(timed)
        metrics["setup_s"] = statistics.median(setup_times)
    else:
        # Untraced and traced blocks alternate, so both see the same
        # host conditions and their ratio is the tracing overhead.
        reference, traced = OpStats(), OpStats()
        tracer = Tracer(lib)
        traced_op = tracer.wrap(ROOT_SPAN, op)
        for _ in range(BLOCKS // 2):
            index = run_block(reference, op, inputs, index, block_s)
            tracer.install()
            try:
                index = run_block(traced, traced_op, inputs, index, block_s, tracer)
            finally:
                tracer.uninstall()
        stats += [reference, traced]
        metrics = layer_metrics(tracer, reference, traced, inputs)
        report["layers"] = {name: {"calls": calls, "self_us": ns / 1000}
                            for name, (calls, ns) in sorted(tracer.totals.items())}
        tracer.install()
        try:
            cli_pairs, cli_failed, cli_main_ns = run_cli(
                lib, workload.cli_argv(args.seed, inputs), tracer)
        finally:
            tracer.uninstall()
        metrics["cli.main.self_us_per_op"] = cli_main_ns / max(cli_pairs, 1) / 1000
        samples = {"traced_ops": traced.ops, "reference_ops": reference.ops,
                   "cli_pairs": cli_pairs}
        report["spans_file"] = write_spans(out_dir, args, tracer.kept)
    samples["setup_repeats"] = len(setup_times)

    attempted = sum(s.ops for s in stats) + model.pairs
    failed = sum(s.failed for s in stats) + model.failures
    if args.trace:
        attempted += cli_pairs
        failed += cli_failed
        metrics["engine.flush_share"] = model.flush_share
        metrics["datapath.zero_pp_share"] = model.zero_pp_share
    else:
        metrics["sim_cycles_per_op"] = model.cycles_per_op
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["pass_ratio"] = (attempted - failed) / attempted
    gc.unfreeze()

    units = PER_LAYER if args.trace else END_TO_END
    report.update(
        provenance=provenance(args, samples),
        model={"pairs": model.pairs, "digest": model.digest,
               "sim_cycles_per_op": model.cycles_per_op,
               "engine.flush_share": model.flush_share,
               "datapath.zero_pp_share": model.zero_pp_share},
        fail_ratio=failed / attempted,
        first_failure=next((s.first_failure for s in stats if s.first_failure), None),
        result={
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                        for name in units},
        },
    )
    return report


def write_spans(out_dir: Path, args, spans) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                   "spans": [list(s) for s in spans]}, f)
    return str(path)


def print_report(report: dict, units: dict) -> None:
    prov = report["provenance"]
    print(f"radixbench {prov['workload']} seed={prov['seed']} trace={prov['trace']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("model " + json.dumps(report["model"], sort_keys=True))
    for name, entry in report["result"]["metrics"].items():
        print(f"  {name:44s} {entry['value']:>14.6g} {entry['unit']:7s} {units[name][1]}")
    for name, layer in report.get("layers", {}).items():
        print(f"  layer {name:38s} calls {layer['calls']:>9d}  self_us {layer['self_us']:>12.1f}")
    if "spans_file" in report:
        print(f"spans written to {report['spans_file']}")
    result = report["result"]
    print(f"fail_ratio {report['fail_ratio']} ({result['failed']} of {result['attempted']})")
    if report["first_failure"]:
        print(f"first failure: {report['first_failure']}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="radixmul benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None, out_dir: Path = OUT_DIR) -> int:
    args = parse_args(argv)
    try:
        report = run(args, out_dir)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps(report["result"]))
    result = report["result"]
    return 0 if result["attempted"] > 0 and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
