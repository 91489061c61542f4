import pytest
from hypothesis import given, strategies as st

from radixmul.word import (
    Digit,
    WidthOverflowError,
    Word,
    parse_binary,
    parse_uint,
    parse_word,
)


class TestWordConstruction:
    def test_zero(self):
        w = Word(0, 8)
        assert w.value == 0 and w.width == 8

    def test_value_too_wide(self):
        with pytest.raises(WidthOverflowError):
            Word(256, 8)

    def test_negative_value(self):
        with pytest.raises(WidthOverflowError):
            Word(-1, 8)

    def test_zero_width(self):
        with pytest.raises(ValueError):
            Word(0, 0)

    def test_equality_includes_width(self):
        assert Word(5, 4) == Word(5, 4)
        assert Word(5, 4) != Word(5, 5)
        assert hash(Word(5, 4)) == hash(Word(5, 4))
        assert Word(5, 4).__eq__(5) is NotImplemented
        assert Word(5, 4) != 5

    def test_formatting(self):
        w = Word(13, 6)
        assert w.to_bin() == "001101"
        assert w.to_hex() == "0xd"
        assert repr(w) == "Word(0b001101, width=6)"

    def test_wide_words_supported(self):
        # widths well past 128 bits work; Python ints impose no ceiling
        value = ((1 << 128) - 1) << 12
        assert Word(value, 140).value == value
        with pytest.raises(WidthOverflowError):
            Word(value, 139)


class TestDigit:
    def test_in_range(self):
        d = Digit(5, 3)
        assert d.value == 5 and d.k == 3
        assert repr(d) == "Digit(0b101, k=3)"

    def test_out_of_range(self):
        with pytest.raises(WidthOverflowError):
            Digit(8, 3)
        with pytest.raises(WidthOverflowError):
            Digit(-1, 3)

    def test_zero_width(self):
        with pytest.raises(ValueError, match="^digit width must be positive, got 0$"):
            Digit(0, 0)

    def test_equality(self):
        assert Digit(5, 3) == Digit(5, 3)
        assert Digit(1, 1) != Digit(1, 2)
        assert Digit(1, 1).__eq__(1) is NotImplemented
        assert Digit(1, 1) != 1


class TestParsing:
    def test_binary_msb_first(self):
        assert parse_binary("001101") == 13
        assert parse_binary("111111") == 63

    def test_binary_rejects_junk(self):
        for bad in ["", "10x1", "2", " "]:
            with pytest.raises(ValueError):
                parse_binary(bad)

    def test_uint_formats(self):
        assert parse_uint("13") == 13
        assert parse_uint("0xffff") == 65535
        assert parse_uint("0XFF") == 255
        assert parse_uint("bin:111111") == 63

    def test_uint_rejects_negative_and_junk(self):
        for bad in ["-5", "zz", "0x", "bin:", "bin:12"]:
            with pytest.raises(ValueError):
                parse_uint(bad)

    def test_word_zero_extends_short_binary(self):
        # shorter printed strings are zero-extended to the declared width
        w = parse_word("bin:01010101010101", 16)
        assert w.width == 16
        assert w.value == int("01010101010101", 2)

    def test_word_range_checked(self):
        with pytest.raises(WidthOverflowError):
            parse_word("0x1ffff", 16)

    @given(st.integers(1, 64).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(0, 2**w - 1))))
    def test_bin_round_trip(self, width_value):
        width, value = width_value
        w = Word(value, width)
        assert parse_word("bin:" + w.to_bin(), width) == w
