"""Reference multipliers and side-by-side comparison.

Two independent routes check the digit-serial simulator: the classical
one-bit-per-cycle shift-and-add multiplier, run on plain ints and
sharing no code with the datapath (only the product is a Word), and a
native wide-integer oracle. All three must agree on every product, and
the simulator's cycle count must equal cycle_count_model's. compare
runs the simulator's cycle loop, engine._run, without records: it
reads only the product and the cycle count, and only simulate keeps a
record per cycle.
"""

from dataclasses import dataclass, fields

from .datapath import AdderSizingError, ControlError
from .engine import SimConfig, _run, cycle_count_model
from .word import Word, WidthMismatchError

__all__ = [
    "ComparisonReport",
    "ProductMismatchError",
    "compare",
    "oracle_multiply",
    "shift_add_multiply",
]


class ProductMismatchError(RuntimeError):
    """Two multiplier routes disagreed on a product or a cycle count; a
    correctness bug, not an input error."""


def shift_add_multiply(a: Word, b: Word) -> tuple[Word, int]:
    """Classical shift-and-add: one cycle per multiplier bit, no flush phase.

    Each multiplier bit contributes either a copy of the multiplicand
    shifted by the bit's index or zero, accumulated as it goes. The
    loop runs on plain ints with native addition, sharing no code with
    the datapath; only the product is a Word, whose constructor checks
    that it fits 2n bits.
    """
    if a.width != b.width:
        raise WidthMismatchError(
            f"operand widths differ: {a.width}, {b.width}"
        )
    n = a.width
    x, y = a.value, b.value
    acc = 0
    for i in range(n):
        if (y >> i) & 1:
            acc += x << i
    return Word(acc, 2 * n), n


def oracle_multiply(a: Word, b: Word) -> Word:
    """Ground truth by native wide-integer multiplication."""
    return Word(a.value * b.value, a.width + b.width)


@dataclass
class ComparisonReport:
    """Cycle counts of both multipliers on one operand pair.

    The reformed side reports both the digit-consuming cycles (one per
    k-bit chunk) and the total including flush, so either comparison
    basis is available; speedup uses the total.
    """

    a: Word
    b: Word
    product: Word
    baseline_cycles: int
    reformed_cycles: int
    reformed_digit_cycles: int
    speedup: float

    def to_dict(self) -> dict:
        """One key per field, in field order; each Word as 0x-hex."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: hex(v.value) if isinstance(v, Word) else v
                for name, v in values.items()}


def compare(a: Word, b: Word, cfg: SimConfig) -> ComparisonReport:
    """Run oracle, shift-and-add, and the digit-serial cycle loop.

    The cycle loop is engine._run, the kernel simulate runs, handed no
    record list: compare reads only its product and cycle count, so no
    CycleRecord is built. Any disagreement between the three products
    raises, and so does a simulated cycle count that differs from
    cycle_count_model; the report carries the agreed product and both
    cycle counts, the digit cycles being cfg.digit_cycles. An
    AdderSizingError inside the simulator (a ladder entry, residue or
    product that its register cannot hold, which the sizing rules say
    cannot happen) or a ControlError (a decoder-table selection the mux
    has no input for) is a fault of the simulator on this pair and
    raises ProductMismatchError too, with that error as its cause;
    operands that do not match each other or cfg.n stay input errors.
    """
    expected = oracle_multiply(a, b)
    sa_product, sa_cycles = shift_add_multiply(a, b)
    try:
        product, cycles = _run(a, b, cfg, None)
    except (AdderSizingError, ControlError) as exc:
        raise ProductMismatchError(f"a={a.to_hex()} b={b.to_hex()}: {exc}") from exc
    if not (expected.value == sa_product.value == product):
        raise ProductMismatchError(
            f"a={a.to_hex()} b={b.to_hex()}: oracle={expected.to_hex()} "
            f"shift_add={sa_product.to_hex()} reformed={product:#x}"
        )
    model_cycles = cycle_count_model(a, b, cfg)
    if cycles != model_cycles:
        raise ProductMismatchError(
            f"a={a.to_hex()} b={b.to_hex()}: reformed cycles {cycles}, "
            f"cycle_count_model gives {model_cycles}"
        )
    return ComparisonReport(
        a=a,
        b=b,
        product=expected,
        baseline_cycles=sa_cycles,
        reformed_cycles=cycles,
        reformed_digit_cycles=cfg.digit_cycles,
        speedup=sa_cycles / cycles,
    )
