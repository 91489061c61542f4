"""Repeat the benchmark over seeds and summarise each metric.

    python3 radixbench/spread.py --workload verify16_random --seeds 10
    python3 radixbench/spread.py --workload verify16_random --seeds 10 \\
        --checkout ../parent --checkout .

With one checkout it prints, per metric, the median, the quartiles and
the spread (third minus first quartile, as a share of the median), next
to the metric's bound from BENCHMARK.json. With two checkouts (parent
first, change second) it runs them in pairs on the same seed,
alternating which side goes first, and also prints the change of the
median as a share of the parent's, where a positive share is worse, and
how many pairs the change won, and on how many seeds the two model
digests are identical. Runs are sequential, one process at a time,
each waited for.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, str | None]:
    """One run; returns its result line and the model digest it printed."""
    cmd = [sys.executable, "radixbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    digest = next((json.loads(line[len("model "):])["digest"]
                   for line in lines if line.startswith("model ")), None)
    return json.loads(lines[-1]), digest


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10, help="runs per checkout, seeds 1..N")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append", type=Path,
                   help="checkout to run in; give twice (parent, change) to compare")
    args = p.parse_args(argv)
    checkouts = args.checkout or [HERE.parent]
    if len(checkouts) > 2:
        p.error("at most two checkouts")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    values: list[dict[str, list[float]]] = [{} for _ in checkouts]
    digests: list[list[str | None]] = [[] for _ in checkouts]
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = range(len(checkouts)) if i % 2 == 0 else reversed(range(len(checkouts)))
        for side in order:
            result, digest = run_once(checkouts[side], args.workload, seed, seconds,
                                      args.trace)
            digests[side].append(digest)
            for name, entry in result["metrics"].items():
                values[side].setdefault(name, []).append(entry["value"])
            print(f"seed {seed} checkout {side}: " + " ".join(
                f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()),
                file=sys.stderr)

    for name in values[0]:
        meta = declared.get(name, {})
        better, bound = meta.get("better", "?"), meta.get("bound")
        rows = [summary(side[name]) for side in values]
        line = f"{name:44s} {better:6s} bound {bound!s:5s}"
        for med, q1, q3, spread in rows:
            line += f" | median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}"
        if len(rows) == 2 and rows[0][0]:
            change = (rows[1][0] - rows[0][0]) / rows[0][0]
            worse = change if better == "lower" else -change
            wins = sum((b < a) if better == "lower" else (b > a)
                       for a, b in zip(values[0][name], values[1][name]))
            line += f" | worse by {worse:+.4f}, change won {wins}/{args.seeds}"
        print(line)
    if len(checkouts) == 2:
        same = sum(a == b for a, b in zip(*digests))
        print(f"model digests identical on {same} of {args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
