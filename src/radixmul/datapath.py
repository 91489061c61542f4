"""Behavioral models of the multiplier's hardware blocks.

Covers the initial-adder ladder that precomputes odd multiples of the
multiplicand, the digit decomposition that drives the multiplexer and
barrel-shifter controls (held, as a decoder holds it, in one fixed
table per digit width), the 3:2 carry-save compression, the
ripple-carry completion, and the composed central-adder step that
emits k product bits per cycle and feeds the rest back. The central
adder has one implementation, on plain ints (_central_step), which the
simulator runs every cycle; the decoder, ladder, mux, shifter, CSA and
RCA keep Word-level views as well. The integer blocks (_ladder, _csa,
_ripple, _central_step) are pure combinational logic with no error
path. The adder's width is checked once, at config time (SimConfig's
floor), and the engine's 2^n residue bound implies on every cycle that
each sum fits it; the engine owns every register bound.

No native multiplication happens anywhere in this module: multiples
come only from shifting and adding, exactly as the modeled circuit
builds them.
"""

from functools import lru_cache
from typing import NamedTuple

from .word import Digit, Word, WidthMismatchError, WidthOverflowError

__all__ = [
    "AdderSizingError",
    "ControlError",
    "CsaResult",
    "DigitDecomposition",
    "barrel_shift",
    "build_multiple_table",
    "csa",
    "decompose_digit",
    "mux_select",
    "rca",
]


class ControlError(ValueError):
    """Mux or shifter control inputs that no digit can legally produce.

    A run raises it when the decoder's control table selects a mux line
    the ladder has no entry for; a correctness fault of the simulator,
    as compare and the CLI treat it, not an input error."""


class AdderSizingError(WidthOverflowError):
    """A datapath register cannot hold its value: a ladder entry outside
    n + k bits, a residue outside n bits, or emitted bits past the 2n-bit
    product register. The registers are unsigned, so a negative value is
    outside every width."""


class DigitDecomposition(NamedTuple):
    """A digit factored as odd_core * 2^shift.

    odd_core is the mux selection (0 picks the constant-zero line) and
    shift is the barrel-shifter count; for 3-bit digits this reproduces
    the selection/shift table verbatim: 6 selects the 3x entry shifted
    once, 4 selects the 1x entry shifted twice, odd digits shift by 0.
    """

    odd_core: int
    shift: int


def _odd_shift(value: int) -> tuple[int, int]:
    # factor value = core << shift with core odd; 0 stays (0, 0)
    if value == 0:
        return 0, 0
    shift = (value & -value).bit_length() - 1
    return value >> shift, shift


# the widest digit accepted: the ladder builds 2^(k-1) odd multiples per
# multiplicand and the decoder's control table holds 2^k entries, so each
# further bit doubles both the time and the memory of a run
_MAX_K = 16


@lru_cache(maxsize=8)
def _controls(k: int) -> tuple[tuple[int, int], ...]:
    # the decoder's fixed control table for k-bit digits: entry d is d's
    # (mux selection, shifter count), so d == core << shift as _odd_shift
    # factors it; built once per k and shared by the ladder's wiring, the
    # digit decode and the trace checker
    if k > _MAX_K:
        raise ValueError(f"k {k} above the maximum digit width {_MAX_K}")
    return tuple(_odd_shift(d) for d in range(1 << k))


def decompose_digit(d: Digit) -> DigitDecomposition:
    """Split a digit into its odd core and trailing-zero shift count."""
    core, shift = _odd_shift(d.value)
    return DigitDecomposition(core, shift)


def _ladder(base: int, k: int) -> dict[int, int]:
    # the initial adders on plain ints: each odd multiple m of base is the
    # even multiple m - 1, a smaller odd entry shifted as the control table
    # wires it, plus base; returns the odd multiples 1..2^k - 1 (that no
    # step multiplies is checked on the source, tests/test_modelling_rules.py)
    controls = _controls(k)
    odd = {1: base}
    for m in range(3, 1 << k, 2):
        core, s = controls[m - 1]
        odd[m] = (odd[core] << s) + base
    return odd


def build_multiple_table(a: Word, k: int) -> dict[int, Word]:
    """Run the initial-adder ladder over the multiplicand.

    Even multiples are shifts of smaller entries and each odd multiple
    is the preceding even one plus A, so for k=3 the order is exactly
    2A = A<<1, 3A = 2A+A, 4A = A<<2, 5A = 4A+A, 6A = 3A<<1, 7A = 6A+A.
    Which smaller entry each step shifts, and by how much, is read from
    the decoder's per-k control table (the factoring of the even
    multiple's index). The ladder runs on plain integers with one shift
    and one add per step, never a multiplication; that rule is checked
    on the source by tests/test_modelling_rules.py.
    Only odd multiples are kept, keyed by multiple: every even multiple
    is an odd entry shifted left, which the barrel shifter supplies
    later. Each is wrapped once in a Word of width(A) + k bits, enough
    for any multiple up to (2^k - 1)*A. A k above 16, which SimConfig
    refuses too, raises ValueError: the ladder and the control table
    grow as 2^k.
    """
    if k < 1:
        raise ValueError(f"digit width must be positive, got {k}")
    return {m: Word(v, a.width + k) for m, v in _ladder(a.value, k).items()}


def mux_select(table: dict[int, Word], odd_core: int) -> Word:
    """Pick the precomputed multiple for a decomposed digit.

    Selection 0 routes the mux's own constant-zero line, as wide as the
    entries (entry 1, the multiplicand itself, is in every table);
    anything even or outside the table indicates broken control logic,
    not a data condition.
    """
    if odd_core == 0:
        return Word(0, table[1].width)
    try:
        return table[odd_core]
    except KeyError:
        raise ControlError(f"no mux input for selection {odd_core}") from None


def barrel_shift(w: Word, shift: int, k: int) -> Word:
    """Shift left by up to k-1 positions in a single step, widening to match."""
    if not 0 <= shift < k:
        raise ControlError(f"shift {shift} out of range for {k}-bit digits")
    return Word(w.value << shift, w.width + k - 1)


class CsaResult(NamedTuple):
    """Redundant-form output of one 3:2 compression."""

    sum: Word
    carry: Word


def _csa(x: int, y: int, z: int) -> tuple[int, int]:
    # bitwise sum and majority carry; sum + 2*carry == x + y + z
    return x ^ y ^ z, (x & y) | (y & z) | (x & z)


def _ripple(x: int, y: int, carry_in: int) -> int:
    # the carry out is kept above the operands' top bit
    s = x ^ y ^ carry_in
    carry = ((x & y) | (carry_in & (x | y))) << 1
    while carry:
        s, carry = s ^ carry, (s & carry) << 1
    return s


def _central_step(residue: int, pp: int, k: int) -> tuple[int, int]:
    # one central-adder cycle on plain integers: (emitted bits, next residue);
    # the adder's width is sized once, by SimConfig's floor of n + k + 2
    # lines, and the engine's 2^n bound on the next residue shows on every
    # cycle that the sum fit: one of 2^(n+k+2) or more leaves 2^(n+2)
    s, c = _csa(residue, pp, 0)
    total = _ripple(s, c << 1, 0)
    return total & ((1 << k) - 1), total >> k


def csa(x: Word, y: Word, z: Word) -> CsaResult:
    """Carry-save 3:2 compression: bitwise sum and majority carry.

    No carry propagates; the identity sum + 2*carry = x + y + z holds
    exactly.
    """
    if not (x.width == y.width == z.width):
        raise WidthMismatchError(
            f"csa widths differ: {x.width}, {y.width}, {z.width}"
        )
    s, c = _csa(x.value, y.value, z.value)
    return CsaResult(Word(s, x.width), Word(c, x.width))


def rca(x: Word, y: Word, carry_in: int = 0) -> tuple[Word, int]:
    """Ripple-carry addition resolving a redundant form into one word.

    Carries advance one bit position per loop iteration until none
    remain, which is the ripple behavior; only boolean operations are
    used, never a native addition, so the oracle tests against integer
    arithmetic are meaningful.
    """
    if x.width != y.width:
        raise WidthMismatchError(f"rca widths differ: {x.width}, {y.width}")
    if carry_in not in (0, 1):
        raise ValueError(f"carry_in must be a bit, got {carry_in}")
    width = x.width
    total = _ripple(x.value, y.value, carry_in)
    return Word(total & ((1 << width) - 1), width), total >> width

