"""Fixed-width unsigned bit vectors.

Every operand and product of the simulator is a Word: an unsigned
value pinned to an explicit bit width, with bit 0 being the rightmost
(least significant) bit. So is every multiple, partial product, sum
and carry handed out by datapath's Word-level views of the ladder, mux,
shifter, CSA and RCA, and the decoder's view reads a Digit. Overflow is
always a hard error, never a silent wraparound, so that sizing bugs in
the modeled datapath surface immediately instead of being masked. The
Word and Digit constructors hold that check; the views shift and add on
plain ints and wrap each result in a new Word, which checks it. The
simulator's cycle loop runs on the ints alone and makes the same checks
on them (engine's module docstring lists them).

Binary text is printed and parsed MSB-first, matching how humans write
binary literals.
"""

import re
import sys

__all__ = [
    "Digit",
    "WidthMismatchError",
    "WidthOverflowError",
    "Word",
    "parse_binary",
    "parse_uint",
    "parse_word",
]


class WidthOverflowError(ValueError):
    """A value does not fit the declared bit width."""


class WidthMismatchError(ValueError):
    """Operands of different widths were combined."""


class Word:
    """Unsigned value pinned to a bit width; treat instances as immutable."""

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if value < 0 or value >> width:
            raise WidthOverflowError(f"value {value} does not fit in {width} bits")
        self.value = value
        self.width = width

    def to_bin(self) -> str:
        """MSB-first binary string, zero-padded to the full width."""
        return format(self.value, f"0{self.width}b")

    def to_hex(self) -> str:
        return f"0x{self.value:x}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.value == other.value and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        return f"Word(0b{self.to_bin()}, width={self.width})"


class Digit:
    """A k-bit chunk of the multiplier, consumed one per clock cycle."""

    __slots__ = ("value", "k")

    def __init__(self, value: int, k: int):
        if k < 1:
            raise ValueError(f"digit width must be positive, got {k}")
        if value < 0 or value >> k:
            raise WidthOverflowError(f"digit value {value} does not fit in {k} bits")
        self.value = value
        self.k = k

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digit):
            return NotImplemented
        return self.value == other.value and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.value, self.k))

    def __repr__(self) -> str:
        return f"Digit(0b{format(self.value, f'0{self.k}b')}, k={self.k})"


def parse_binary(text: str) -> int:
    """MSB-first '0'/'1' string to an unsigned value (underscores allowed)."""
    t = text.strip().replace("_", "")
    if not t or any(c not in "01" for c in t):
        raise ValueError(f"not a binary string: {text!r}")
    return int(t, 2)


# a decimal literal as int() reads it: a sign, then digits with single underscores
_DECIMAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def parse_uint(text: str) -> int:
    """Operand literal: 'bin:' MSB-first binary, '0x' hexadecimal, else decimal.

    A decimal literal longer than the interpreter's int-from-decimal digit
    limit (a guard against its quadratic time) is refused by name, without
    echoing its digits; hex and binary have no such limit.
    """
    t = text.strip()
    if t.lower().startswith("bin:"):
        return parse_binary(t[4:])
    try:
        value = int(t, 16) if t.lower().startswith("0x") else int(t, 10)
    except ValueError:
        if _DECIMAL.fullmatch(t):
            digits = len(t.lstrip("+-").replace("_", ""))
            raise ValueError(
                f"decimal operand of {digits} digits is past the interpreter's "
                f"{sys.get_int_max_str_digits()}-digit limit; give it as 0x or bin:"
            ) from None
        raise ValueError(f"not an operand literal: {text!r}") from None
    if value < 0:
        raise ValueError(f"operand must be unsigned: {text!r}")
    return value


def parse_word(text: str, width: int) -> Word:
    """Parse an operand literal and pin it to a width.

    Binary literals shorter than the width are zero-extended; values
    that exceed the width are rejected.
    """
    return Word(parse_uint(text), width)
