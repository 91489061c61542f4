"""The benchmark's workloads: inputs, the checked op, and the model pass.

One op is one operand pair, processed through the library's public
functions and checked: the product against native ``a * b`` and the
cycle count against ``cycle_count_model``. An op returns its simulated
cycle count, or raises when a check or the library fails.

Every workload runs in one process with no extra threads.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable


class CheckError(Exception):
    """An op produced a wrong product, cycle count or trace."""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    flush: str
    make_inputs: Callable[[int], list[tuple[int, int]]]
    make_op: Callable
    # Leading input pairs the model pass simulates; a fixed count, so
    # the digest and model statistics do not depend on host speed.
    model_pairs: int
    cli_argv: Callable[[int, list[tuple[int, int]]], list[list[str]]]

    def config(self, lib):
        return lib.engine.SimConfig(n=self.n, k=self.k, flush_policy=self.flush)


def _random_pairs(bits: int, count: int) -> Callable[[int], list[tuple[int, int]]]:
    def make(seed: int) -> list[tuple[int, int]]:
        rng = random.Random(seed)
        return [(rng.getrandbits(bits), rng.getrandbits(bits)) for _ in range(count)]
    return make


def _all_pairs(bits: int) -> Callable[[int], list[tuple[int, int]]]:
    # Multiplicand outer, as `radixmul verify --exhaustive` walks them.
    def make(seed: int) -> list[tuple[int, int]]:
        size = 1 << bits
        return [(a, b) for a in range(size) for b in range(size)]
    return make


def verify_op(lib, cfg):
    """The `verify` path: oracle, shift-and-add and simulate via compare."""
    Word = lib.word.Word
    baseline, engine = lib.baseline, lib.engine
    n = cfg.n

    def op(a: int, b: int) -> int:
        wa, wb = Word(a, n), Word(b, n)
        report = baseline.compare(wa, wb, cfg)
        if report.product.value != a * b:
            raise CheckError(f"product {report.product.value:#x} != {a:#x} * {b:#x}")
        expected = engine.cycle_count_model(wa, wb, cfg)
        if report.reformed_cycles != expected:
            raise CheckError(f"{report.reformed_cycles} cycles, model says {expected}")
        return report.reformed_cycles

    return op


def trace_op(lib, cfg):
    """The `mul --json` path plus the trace checker on the re-parsed JSON."""
    Word = lib.word.Word
    engine = lib.engine
    n = cfg.n

    def op(a: int, b: int) -> int:
        wa, wb = Word(a, n), Word(b, n)
        result = engine.simulate(wa, wb, cfg)
        doc = json.loads(engine.to_trace_json(result))
        engine.verify_trace_dict(doc)
        product = a * b
        if result.product.value != product or int(doc["product"], 16) != product:
            raise CheckError(f"product mismatch for {a:#x} * {b:#x}")
        expected = engine.cycle_count_model(wa, wb, cfg)
        if result.cycles != expected:
            raise CheckError(f"{result.cycles} cycles, model says {expected}")
        return result.cycles

    return op


def _cli_verify_random(count: int, n: int, k: int):
    def argv(seed: int, pairs) -> list[list[str]]:
        return [["verify", "--random", str(count), "--seed", str(seed),
                 "--n", str(n), "--k", str(k), "--json"]]
    return argv


def _cli_verify_exhaustive(n: int, k: int, flush: str):
    # n=8 exhaustive is 65 536 pairs, too many to trace in a run; the
    # same exhaustive code path at n=4 is 256 pairs.
    def argv(seed: int, pairs) -> list[list[str]]:
        return [["verify", "--exhaustive", "--n", str(n), "--k", str(k),
                 "--flush", flush, "--json"]]
    return argv


def _cli_mul(count: int, n: int, k: int):
    def argv(seed: int, pairs) -> list[list[str]]:
        return [["mul", "--a", hex(a), "--b", hex(b), "--n", str(n), "--k", str(k),
                 "--json"] for a, b in pairs[:count]]
    return argv


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="verify16_random",
            # `verify --random` at the paper's reference point; consecutive
            # multiplicands almost never repeat, so the per-cycle central
            # adder dominates.
            n=16, k=3, flush="full_width",
            make_inputs=_random_pairs(16, 1 << 17),
            make_op=verify_op,
            model_pairs=4096,
            cli_argv=_cli_verify_random(256, 16, 3),
        ),
        Workload(
            name="exhaustive8_early",
            # Each multiplicand repeats for 256 ops, so ladder reuse can
            # show; ops are short and flush length depends on the data.
            n=8, k=3, flush="early_stop",
            make_inputs=_all_pairs(8),
            make_op=verify_op,
            model_pairs=1 << 16,
            cli_argv=_cli_verify_exhaustive(4, 3, "early_stop"),
        ),
        Workload(
            name="trace64_wide",
            # `mul --json` plus the trace checker: wide ladder and adder,
            # and JSON serialisation is about half of each op.
            n=64, k=6, flush="full_width",
            make_inputs=_random_pairs(64, 1 << 15),
            make_op=trace_op,
            model_pairs=1024,
            cli_argv=_cli_mul(16, 64, 6),
        ),
    )
}


@dataclass
class ModelStats:
    """Simulated (not host) statistics over a fixed set of input pairs."""

    pairs: int
    cycles: int
    flush_cycles: int
    zero_pp_cycles: int
    failures: int
    digest: str

    @property
    def cycles_per_op(self) -> float:
        checked = self.pairs - self.failures
        return self.cycles / checked if checked else 0.0

    @property
    def flush_share(self) -> float:
        return self.flush_cycles / self.cycles if self.cycles else 0.0

    @property
    def zero_pp_share(self) -> float:
        return self.zero_pp_cycles / self.cycles if self.cycles else 0.0


def model_pass(lib, cfg, pairs) -> ModelStats:
    """Simulate each pair and digest what the modelled multiplier did.

    The sha256 covers (a, b, product, cycles, emitted digits) of every
    pair, so a change that only speeds up the simulator must leave it
    byte-identical. A wrong product or a library error counts as a
    failure and is left out of the digest.
    """
    Word = lib.word.Word
    simulate = lib.engine.simulate
    n = cfg.n
    digest = hashlib.sha256()
    cycles = flush = zero_pp = failures = 0
    for a, b in pairs:
        try:
            result = simulate(Word(a, n), Word(b, n), cfg)
            if result.product.value != a * b:
                raise CheckError(f"product mismatch for {a:#x} * {b:#x}")
        except Exception:
            failures += 1
            continue
        emitted = ".".join(format(r.emitted, "x") for r in result.trace)
        digest.update(
            f"{a:x},{b:x},{result.product.value:x},{result.cycles},{emitted}\n".encode()
        )
        cycles += result.cycles
        flush += sum(1 for r in result.trace if r.digit is None)
        zero_pp += sum(1 for r in result.trace if r.pp == 0)
    return ModelStats(len(pairs), cycles, flush, zero_pp, failures, digest.hexdigest())
