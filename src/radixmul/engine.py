"""Cycle-accurate simulation loop, configuration, and trace machinery.

The engine wires the datapath blocks into the per-cycle schedule: the
multiplier register chain streams one k-bit digit per clock, each digit
is decomposed into mux and shifter controls, the resulting partial
product runs through the central adder, k product bits are emitted, and
the remainder feeds back. Once the digits run out, flush cycles with a
zero partial product drain the residue into the output registers.
"""

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .datapath import (
    AdderSizingError,
    barrel_shift,
    build_multiple_table,
    central_adder_step,
    decompose_digit,
    mux_select,
)
from .word import Word, split_digits


class ConfigError(ValueError):
    """A simulation configuration the datapath cannot support."""


class FlushPolicy(Enum):
    """How post-digit cycles drain the residue.

    FULL_WIDTH always runs enough cycles to emit all 2n product bits,
    making the cycle count operand-independent. EARLY_STOP stops as
    soon as the digits are consumed and the residue is empty, making
    runtime depend on the multiplier.
    """

    FULL_WIDTH = "full_width"
    EARLY_STOP = "early_stop"


DEFAULT_DIGIT_BITS = 3
DEFAULT_CLOCK_PERIOD_NS = 40.0
DEFAULT_LOAD_DELAY_NS = 30.0


@dataclass
class SimConfig:
    """Datapath geometry and timing parameters.

    adder_width defaults to n + 3k (25 input lines for the 16-bit,
    3-bit-digit reference design); it must leave room for residue plus
    partial product, i.e. at least n + k + 2 bits, because the residue
    stays below 2^(n+1) in steady state.
    """

    n: int
    k: int = DEFAULT_DIGIT_BITS
    adder_width: int | None = None
    clock_period_ns: float = DEFAULT_CLOCK_PERIOD_NS
    load_delay_ns: float = DEFAULT_LOAD_DELAY_NS
    flush_policy: FlushPolicy = FlushPolicy.FULL_WIDTH

    def __post_init__(self):
        if self.adder_width is None:
            self.adder_width = self.n + 3 * self.k
        if isinstance(self.flush_policy, str):
            try:
                self.flush_policy = FlushPolicy(self.flush_policy)
            except ValueError:
                raise ConfigError(
                    f"unknown flush policy {self.flush_policy!r}"
                ) from None
        if self.n < 1 or not 1 <= self.k <= self.n:
            raise ConfigError(f"need 1 <= k <= n, got n={self.n} k={self.k}")
        if self.adder_width < self.n + self.k + 2:
            raise ConfigError(
                f"adder_width {self.adder_width} below minimum "
                f"{self.n + self.k + 2} for n={self.n} k={self.k}"
            )
        if not (math.isfinite(self.clock_period_ns) and self.clock_period_ns > 0):
            raise ConfigError("clock_period_ns must be positive and finite")
        if not (math.isfinite(self.load_delay_ns) and self.load_delay_ns >= 0):
            raise ConfigError("load_delay_ns must be non-negative and finite")

    @property
    def digit_cycles(self) -> int:
        """Digit-consuming cycles: one per k-bit chunk of the padded multiplier."""
        return -(-self.n // self.k)


class CycleRecord(NamedTuple):
    """What one clock cycle did; flush cycles carry digit=None."""

    cycle: int
    digit: int | None
    odd_core: int
    shift: int
    pp: int
    residue_before: int
    residue_after: int
    emitted: int


@dataclass
class SimResult:
    """Product, cycle/time accounting, and the full per-cycle trace."""

    a: Word
    b: Word
    config: SimConfig
    product: Word
    cycles: int
    total_time_ns: float
    trace: list[CycleRecord] = field(repr=False)

    @property
    def digit_cycles(self) -> int:
        return sum(1 for r in self.trace if r.digit is not None)


def simulate(a: Word, b: Word, cfg: SimConfig) -> SimResult:
    """Run the digit-serial multiplier cycle by cycle.

    Per cycle: take the next k-bit digit of b (LSB digits first), factor
    it into an odd core and a shift, select the precomputed multiple,
    barrel-shift it into the final partial product, and push it through
    the central adder, which emits the k low bits and feeds the rest
    back. Once the digits run out, flush cycles feed a zero partial
    product until the flush policy is met. A residue that reaches
    2^(n+1), the bound that justifies the default adder sizing, raises
    AdderSizingError.
    """
    if a.width != cfg.n or b.width != cfg.n:
        raise ConfigError(
            f"operand widths ({a.width}, {b.width}) do not match n={cfg.n}"
        )
    k = cfg.k
    adder_width = cfg.adder_width
    table = build_multiple_table(a, k)
    digits = split_digits(b, k)
    early_stop = cfg.flush_policy is FlushPolicy.EARLY_STOP
    target = _full_width_cycles(cfg)
    residue = Word(0, adder_width)
    residue_bound = 1 << (cfg.n + 1)
    trace: list[CycleRecord] = []

    cycle = 0
    while cycle < len(digits) or (residue.value if early_stop else cycle < target):
        if cycle < len(digits):
            digit = digits[cycle]
            odd_core, shift = decompose_digit(digit)
            pp = barrel_shift(mux_select(table, odd_core), shift, k)
            digit_value = digit.value
        else:
            digit_value, odd_core, shift, pp = None, 0, 0, table.zero
        before = residue.value
        emitted, residue = central_adder_step(residue, pp, k, adder_width)
        after = residue.value
        if after >= residue_bound:
            raise AdderSizingError(f"residue {after} breaks the 2^(n+1) bound")
        trace.append(CycleRecord(cycle, digit_value, odd_core, shift, pp.value,
                                 before, after, emitted.value))
        cycle += 1

    product = assemble_product(trace, cfg.n, k)
    total_time_ns = cfg.load_delay_ns + cycle * cfg.clock_period_ns
    return SimResult(a, b, cfg, product, cycle, total_time_ns, trace)


def assemble_product(records: list[CycleRecord], n: int, k: int) -> Word:
    """Stitch per-cycle emissions into the 2n-bit product register.

    Emission i lands at bit offset i*k, modeling the output registers
    that shift each k-bit group into place.
    """
    if not records:
        raise ValueError("no cycles recorded")
    value = 0
    for i, rec in enumerate(records):
        value |= rec.emitted << (i * k)
    if value >> (2 * n):
        raise AdderSizingError(
            f"emitted bits exceed the {2 * n}-bit product register"
        )
    return Word(value, 2 * n)


def _full_width_cycles(cfg: SimConfig) -> int:
    # emission slots for all 2n product bits; never fewer than digit_cycles
    return -(-2 * cfg.n // cfg.k)


def cycle_count_model(a: Word, b: Word, cfg: SimConfig) -> int:
    """Closed-form cycle count that the simulation must reproduce.

    FULL_WIDTH needs every emission slot for 2n product bits; EARLY_STOP
    needs the digit cycles plus however many k-bit chunks of product
    remain above the bits already emitted.
    """
    if cfg.flush_policy is FlushPolicy.FULL_WIDTH:
        return _full_width_cycles(cfg)
    d = cfg.digit_cycles
    product_bits = (a.value * b.value).bit_length()
    extra = product_bits - cfg.k * d
    return d + (-(-extra // cfg.k) if extra > 0 else 0)


def to_trace_dict(result: SimResult) -> dict:
    """JSON document for one run; multi-bit values as 0x-hex strings."""
    cfg = result.config
    return {
        "config": {
            "n": cfg.n,
            "k": cfg.k,
            "adder_width": cfg.adder_width,
            "clock_period_ns": cfg.clock_period_ns,
            "load_delay_ns": cfg.load_delay_ns,
            "flush_policy": cfg.flush_policy.value,
        },
        "a": hex(result.a.value),
        "b": hex(result.b.value),
        "product": hex(result.product.value),
        "cycles": result.cycles,
        "total_time_ns": result.total_time_ns,
        "trace": [
            {
                "cycle": r.cycle,
                "digit": None if r.digit is None else hex(r.digit),
                "odd_core": hex(r.odd_core),
                "shift": r.shift,
                "pp": hex(r.pp),
                "residue_before": hex(r.residue_before),
                "residue_after": hex(r.residue_after),
                "emitted": hex(r.emitted),
            }
            for r in result.trace
        ],
    }


def to_trace_json(result: SimResult, indent: int | None = 2) -> str:
    return json.dumps(to_trace_dict(result), indent=indent)


def from_trace_dict(doc: dict) -> SimResult:
    """Rebuild a SimResult from its JSON document (inverse of to_trace_dict).

    A document with missing keys or wrongly typed values raises
    ValueError.
    """
    try:
        c = doc["config"]
        cfg = SimConfig(
            n=c["n"],
            k=c["k"],
            adder_width=c["adder_width"],
            clock_period_ns=c["clock_period_ns"],
            load_delay_ns=c["load_delay_ns"],
            flush_policy=FlushPolicy(c["flush_policy"]),
        )
        trace = [
            CycleRecord(
                r["cycle"],
                None if r["digit"] is None else int(r["digit"], 16),
                int(r["odd_core"], 16),
                r["shift"],
                int(r["pp"], 16),
                int(r["residue_before"], 16),
                int(r["residue_after"], 16),
                int(r["emitted"], 16),
            )
            for r in doc["trace"]
        ]
        return SimResult(
            a=Word(int(doc["a"], 16), cfg.n),
            b=Word(int(doc["b"], 16), cfg.n),
            config=cfg,
            product=Word(int(doc["product"], 16), 2 * cfg.n),
            cycles=doc["cycles"],
            total_time_ns=doc["total_time_ns"],
            trace=trace,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace document: {exc!r}") from None


def verify_trace_dict(doc: dict) -> None:
    """Re-check a serialized trace's invariants, raising on the first violation.

    Checks per-cycle conservation (emitted + 2^k * residue_after equals
    residue_before + pp), residue chaining between cycles, product
    reassembly, the cycle count, and the timing identity.
    """
    res = from_trace_dict(doc)
    k = res.config.k
    weight = 1 << k
    prev_after = 0
    product = 0
    for i, r in enumerate(res.trace):
        if r.cycle != i:
            raise ValueError(f"cycle index {r.cycle} at position {i}")
        if r.residue_before != prev_after:
            raise ValueError(f"cycle {i}: residue chain broken")
        if r.emitted + weight * r.residue_after != r.residue_before + r.pp:
            raise ValueError(f"cycle {i}: conservation violated")
        product |= r.emitted << (i * k)
        prev_after = r.residue_after
    if res.cycles != len(res.trace):
        raise ValueError(f"cycles field {res.cycles} != {len(res.trace)} records")
    if product != res.product.value:
        raise ValueError("product does not match the emitted digits")
    expected = res.config.load_delay_ns + res.cycles * res.config.clock_period_ns
    if res.total_time_ns != expected:
        raise ValueError(
            f"total_time_ns {res.total_time_ns} != {expected}"
        )
