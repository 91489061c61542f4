import pytest
from hypothesis import given, strategies as st

from radixmul.datapath import (
    ControlError,
    _central_step,
    _controls,
    _ladder,
    barrel_shift,
    build_multiple_table,
    csa,
    decompose_digit,
    mux_select,
    rca,
)
from radixmul.word import Digit, WidthMismatchError, Word

# selection/shift pairs for every 3-bit digit: even digits are odd
# multiples shifted by their trailing-zero count
DIGIT_CONTROLS_K3 = {
    0b000: (0, 0),
    0b001: (1, 0),
    0b010: (1, 1),
    0b011: (3, 0),
    0b100: (1, 2),
    0b101: (5, 0),
    0b110: (3, 1),
    0b111: (7, 0),
}


class TestDecomposeDigit:
    @pytest.mark.parametrize("digit,expected", sorted(DIGIT_CONTROLS_K3.items()))
    def test_three_bit_table(self, digit, expected):
        assert tuple(decompose_digit(Digit(digit, 3))) == expected

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sound_for_every_digit(self, k):
        for value in range(1 << k):
            core, shift = decompose_digit(Digit(value, k))
            assert core << shift == value
            assert core == 0 or core % 2 == 1
            assert 0 <= shift < k
            if value == 0:
                assert (core, shift) == (0, 0)


class TestControlTable:
    # checked against the definition d == core << shift, not against the
    # _odd_shift factoring the table is built from
    @pytest.mark.parametrize("k", range(1, 11))
    def test_every_entry_factors_its_digit(self, k):
        controls = _controls(k)
        assert len(controls) == 1 << k
        assert controls[0] == (0, 0)
        for d in range(1, 1 << k):
            core, shift = controls[d]
            assert core << shift == d
            assert core & 1 == 1
            assert 0 <= shift < k

    def test_three_bit_ladder_wiring(self):
        # 2A = A<<1, 4A = A<<2, 6A = 3A<<1: the entries the k=3 ladder reads
        controls = _controls(3)
        assert (controls[2], controls[4], controls[6]) == ((1, 1), (1, 2), (3, 1))
        assert dict(enumerate(controls)) == DIGIT_CONTROLS_K3


class TestMultipleTable:
    def test_example_multiplicand(self):
        table = build_multiple_table(Word(13, 6), 3)
        assert {m: w.value for m, w in table.items()} == \
            {1: 13, 3: 39, 5: 65, 7: 91}

    def test_zero_multiplicand(self):
        table = build_multiple_table(Word(0, 6), 3)
        assert {m: w.value for m, w in table.items()} == \
            {1: 0, 3: 0, 5: 0, 7: 0}

    def test_unit_multiplicand(self):
        table = build_multiple_table(Word(1, 6), 3)
        assert {m: w.value for m, w in table.items()} == \
            {1: 1, 3: 3, 5: 5, 7: 7}

    def test_entry_widths_uniform(self):
        table = build_multiple_table(Word(13, 6), 3)
        assert all(w.width == 9 for w in table.values())

    def test_ladder_operation_counts(self):
        # one odd multiple per ladder step, plus the multiplicand itself
        for k in range(1, 6):
            table = build_multiple_table(Word(21, 8), k)
            assert len(table) == 1 << (k - 1)

    def test_refuses_a_digit_wider_than_sixteen_bits(self):
        # SimConfig's bound, kept at the public entry: k=18 would build
        # 2^17 entries and peak near 100 MB
        with pytest.raises(ValueError, match="^k 17 above the maximum digit width 16$"):
            build_multiple_table(Word(1, 8), 17)

    @given(st.integers(0, 2**16 - 1), st.integers(1, 8))
    def test_entries_are_exact_multiples(self, a, k):
        table = build_multiple_table(Word(a, 16), k)
        for m, w in table.items():
            assert w.value == m * a


class TestLadder:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("a", [0, 1, 13, 0xB5A3, 0xFFFF])
    def test_integer_core_matches_table_and_native_multiply(self, a, k):
        odd = _ladder(a, k)
        table = build_multiple_table(Word(a, 16), k)
        assert odd == {m: w.value for m, w in table.items()}
        assert odd == {m: m * a for m in range(1, 1 << k, 2)}
        assert build_multiple_table(Word(a, 16), k) == \
            {m: Word(m * a, 16 + k) for m in range(1, 1 << k, 2)}


class TestMuxSelect:
    def test_selects_entries(self):
        table = build_multiple_table(Word(13, 6), 3)
        assert mux_select(table, 7).value == 91
        assert mux_select(table, 1).value == 13

    def test_zero_line(self):
        table = build_multiple_table(Word(13, 6), 3)
        out = mux_select(table, 0)
        assert out.value == 0 and out.width == 9

    @pytest.mark.parametrize("bad", [2, 4, 6, 9, -1])
    def test_rejects_illegal_selection(self, bad):
        table = build_multiple_table(Word(13, 6), 3)
        with pytest.raises(ControlError):
            mux_select(table, bad)


class TestBarrelShift:
    def test_zero_shift_widens(self):
        out = barrel_shift(Word(13, 9), 0, 3)
        assert out.value == 13 and out.width == 11

    def test_shift_two(self):
        assert barrel_shift(Word(13, 9), 2, 3).value == 52

    def test_shift_one_of_triple(self):
        assert barrel_shift(Word(39, 9), 1, 3).value == 78

    def test_rejects_shift_at_k(self):
        with pytest.raises(ControlError):
            barrel_shift(Word(13, 9), 3, 3)


class TestSelectionReproducesEveryDigit:
    """Composing decompose -> mux -> shift must produce digit * A."""

    @given(st.integers(0, 2**16 - 1))
    def test_all_digits_times_random_a(self, a):
        table = build_multiple_table(Word(a, 16), 3)
        for digit, (core, shift) in DIGIT_CONTROLS_K3.items():
            dec = decompose_digit(Digit(digit, 3))
            assert tuple(dec) == (core, shift)
            pp = barrel_shift(mux_select(table, dec.odd_core), dec.shift, 3)
            assert pp.value == digit * a

    @given(st.integers(0, 2**12 - 1), st.integers(1, 6))
    def test_generalizes_over_k(self, a, k):
        table = build_multiple_table(Word(a, 12), k)
        for digit in range(1 << k):
            dec = decompose_digit(Digit(digit, k))
            pp = barrel_shift(mux_select(table, dec.odd_core), dec.shift, k)
            assert pp.value == digit * a


class TestCsa:
    def test_zero(self):
        out = csa(Word(0, 4), Word(0, 4), Word(0, 4))
        assert (out.sum.value, out.carry.value) == (0, 0)

    def test_single_bit_all_ones(self):
        out = csa(Word(1, 1), Word(1, 1), Word(1, 1))
        assert (out.sum.value, out.carry.value) == (1, 1)

    def test_three_words(self):
        out = csa(Word(5, 3), Word(3, 3), Word(6, 3))
        assert (out.sum.value, out.carry.value) == (0, 7)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            csa(Word(1, 3), Word(1, 4), Word(1, 3))

    @given(st.tuples(st.integers(1, 48)).flatmap(
        lambda t: st.tuples(*(st.integers(0, 2**t[0] - 1),) * 3 + (st.just(t[0]),))))
    def test_identity(self, xyzw):
        x, y, z, w = xyzw
        out = csa(Word(x, w), Word(y, w), Word(z, w))
        assert out.sum.value + 2 * out.carry.value == x + y + z


class TestRca:
    def test_identity(self):
        out, carry = rca(Word(42, 8), Word(0, 8), 0)
        assert (out.value, carry) == (42, 0)

    def test_residue_addition(self):
        out, carry = rca(Word(11, 8), Word(91, 8), 0)
        assert (out.value, carry) == (102, 0)

    def test_carry_out(self):
        out, carry = rca(Word(255, 8), Word(1, 8), 0)
        assert (out.value, carry) == (0, 1)

    def test_carry_in_and_out(self):
        out, carry = rca(Word(255, 8), Word(255, 8), 1)
        assert (out.value, carry) == (255, 1)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            rca(Word(1, 3), Word(1, 4))

    def test_bad_carry_in(self):
        with pytest.raises(ValueError):
            rca(Word(1, 3), Word(1, 3), 2)

    @given(st.tuples(st.integers(1, 48)).flatmap(
        lambda t: st.tuples(st.integers(0, 2**t[0] - 1),
                            st.integers(0, 2**t[0] - 1),
                            st.integers(0, 1),
                            st.just(t[0]))))
    def test_matches_integer_addition(self, xycw):
        x, y, cin, w = xycw
        out, carry = rca(Word(x, w), Word(y, w), cin)
        assert out.value + (carry << w) == x + y + cin


class TestCentralAdderStep:
    # the central adder's one implementation, on plain ints, with no error
    # path: _central_step(residue, pp, k) -> (emitted bits, next residue)
    def test_first_cycle_of_worked_example(self):
        assert _central_step(0, 91, 3) == (0b011, 11)

    def test_second_cycle_of_worked_example(self):
        assert _central_step(11, 91, 3) == (0b110, 12)

    def test_idle_cycle(self):
        assert _central_step(0, 0, 3) == (0, 0)

    @given(st.integers(0, 2**17 - 1), st.integers(0, 2**19 - 1),
           st.integers(1, 4))
    def test_conservation(self, residue, pp, k):
        emitted, new_residue = _central_step(residue, pp, k)
        assert 0 <= emitted < 1 << k
        assert emitted + (new_residue << k) == residue + pp

    @pytest.mark.parametrize("w", range(1, 6))
    def test_is_exact_on_every_small_sum(self, w):
        # every residue and partial product below 2^(w+2), k <= w
        span = 1 << (w + 2)
        for k in range(1, w + 1):
            for residue in range(span):
                for pp in range(span):
                    emitted, rest = _central_step(residue, pp, k)
                    assert emitted < 1 << k
                    assert emitted + (rest << k) == residue + pp
