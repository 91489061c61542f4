import itertools
import random

import pytest

from radixmul import baseline, datapath, engine
from radixmul.baseline import (
    ProductMismatchError,
    compare,
    oracle_multiply,
    shift_add_multiply,
)
from radixmul.datapath import AdderSizingError
from radixmul.engine import FlushPolicy, SimConfig
from radixmul.word import WidthMismatchError, WidthOverflowError, Word


class TestShiftAddMultiply:
    def test_worked_example(self):
        product, cycles = shift_add_multiply(Word(13, 6), Word(63, 6))
        assert product == Word(819, 12)
        assert cycles == 6

    def test_zero_multiplier_still_costs_n_cycles(self):
        product, cycles = shift_add_multiply(Word(9, 8), Word(0, 8))
        assert product.value == 0
        assert cycles == 8

    def test_unit_multiplicand(self):
        product, cycles = shift_add_multiply(Word(1, 8), Word(200, 8))
        assert product.value == 200
        assert cycles == 8

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            shift_add_multiply(Word(1, 4), Word(1, 5))

    def test_exhaustive_small(self):
        for a in range(32):
            for b in range(32):
                product, cycles = shift_add_multiply(Word(a, 5), Word(b, 5))
                assert product.value == a * b
                assert cycles == 5

    @pytest.mark.parametrize("n", [64, 128, 160])
    def test_wide_widths(self, n):
        rng = random.Random(n)
        ones = (1 << n) - 1
        pairs = [(ones, ones)] + [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(50)]
        for a, b in pairs:
            product, cycles = shift_add_multiply(Word(a, n), Word(b, n))
            assert product == Word(a * b, 2 * n)
            assert cycles == n

    def test_builds_only_the_product_word(self, monkeypatch):
        widths = []
        init = Word.__init__

        def counting_init(self, value, width):
            widths.append(width)
            init(self, value, width)

        a, b = Word(13, 6), Word(63, 6)
        monkeypatch.setattr(Word, "__init__", counting_init)
        product, _ = shift_add_multiply(a, b)
        assert widths == [12]
        assert product.value == 819


class TestOracleMultiply:
    def test_values(self):
        assert oracle_multiply(Word(13, 6), Word(63, 6)) == Word(819, 12)
        assert oracle_multiply(Word(0, 4), Word(0, 4)).value == 0
        assert oracle_multiply(Word(65535, 16), Word(65535, 16)).value == \
            4294836225


class TestCompare:
    def test_worked_example_report(self):
        cfg = SimConfig(n=6, k=3, flush_policy=FlushPolicy.EARLY_STOP)
        report = compare(Word(13, 6), Word(63, 6), cfg)
        assert report.product.value == 819
        assert report.baseline_cycles == 6
        assert report.reformed_digit_cycles == 2
        assert report.reformed_cycles == 4
        assert report.speedup == pytest.approx(1.5)

    def test_sixteen_bit_cycle_counts(self):
        report = compare(Word(0x1234, 16), Word(0xABCD, 16), SimConfig(n=16))
        assert report.baseline_cycles == 16
        assert report.reformed_cycles == 11
        assert report.reformed_digit_cycles == 6

    def test_zero_operand(self):
        report = compare(Word(5, 8), Word(0, 8), SimConfig(n=8))
        assert report.product.value == 0

    def test_three_way_agreement_random(self):
        rng = random.Random(7)
        cfg = SimConfig(n=16)
        for _ in range(1000):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            report = compare(Word(a, 16), Word(b, 16), cfg)
            assert report.product.value == a * b

    def test_mismatch_raises(self, monkeypatch):
        def broken_run(a, b, config, trace):
            product, cycles = engine._run(a, b, config, trace)
            return product ^ 1, cycles

        monkeypatch.setattr(baseline, "_run", broken_run)
        with pytest.raises(ProductMismatchError) as exc:
            compare(Word(13, 6), Word(63, 6), SimConfig(n=6, k=3))
        assert str(exc.value) == (
            "a=0xd b=0x3f: oracle=0x333 shift_add=0x333 reformed=0x332")

    def test_cycle_count_mismatch_raises(self, monkeypatch):
        def one_cycle_too_many(a, b, config, trace):
            product, cycles = engine._run(a, b, config, trace)
            return product, cycles + 1

        monkeypatch.setattr(baseline, "_run", one_cycle_too_many)
        cfg = SimConfig(n=6, k=3, flush_policy=FlushPolicy.EARLY_STOP)
        with pytest.raises(ProductMismatchError) as exc:
            compare(Word(13, 6), Word(63, 6), cfg)
        assert str(exc.value) == (
            "a=0xd b=0x3f: reformed cycles 5, cycle_count_model gives 4")

    def test_simulator_fault_raises_mismatch(self, monkeypatch):
        # a residue past the 2^n bound is the simulator's fault on this
        # pair, not an input error
        def broken_step(residue, pp, k, adder_width):
            return 0, 1 << 7

        monkeypatch.setattr(engine, "_central_step", broken_step)
        with pytest.raises(ProductMismatchError) as exc:
            compare(Word(63, 6), Word(63, 6), SimConfig(n=6, k=3))
        assert str(exc.value) == "a=0x3f b=0x3f: residue 128 breaks the 2^n bound"
        assert isinstance(exc.value.__cause__, AdderSizingError)

    def test_ladder_fault_raises_mismatch(self, monkeypatch):
        # a ladder entry too wide for the barrel shifter is the simulator's
        # fault on this pair too
        monkeypatch.setattr(engine, "_ladder", lambda base, k: {1: 1 << 9})
        with pytest.raises(ProductMismatchError) as exc:
            compare(Word(63, 6), Word(63, 6), SimConfig(n=6, k=3))
        assert str(exc.value) == "a=0x3f b=0x3f: ladder entry 512 does not fit in 9 bits"
        assert type(exc.value.__cause__) is WidthOverflowError

    def test_a_residue_left_after_the_last_cycle_raises_mismatch(self, monkeypatch):
        # n = 4, k = 3 runs 3 full-width cycles; a residue of 8 handed on
        # after cycle 1 drains to 1 in cycle 2, past the 8-bit register
        real_step = engine._central_step
        cycle = itertools.count()

        def residue_eight_after_cycle_one(residue, pp, k, adder_width):
            emitted, after = real_step(residue, pp, k, adder_width)
            return emitted, (8 if next(cycle) == 1 else after)

        monkeypatch.setattr(engine, "_central_step", residue_eight_after_cycle_one)
        with pytest.raises(ProductMismatchError) as exc:
            compare(Word(0, 4), Word(0, 4), SimConfig(n=4, k=3))
        assert str(exc.value) == (
            "a=0x0 b=0x0: emitted bits exceed the 8-bit product register")
        assert isinstance(exc.value.__cause__, AdderSizingError)

    def test_zero_line_fault_raises_mismatch(self, monkeypatch):
        # digit-0 and flush cycles select the mux's zero line through the
        # decoder's table like any digit; entry 0 wired to the multiplicand
        # adds it on each of the 3 cycles after the one digit 7
        monkeypatch.setattr(engine, "_controls",
                            lambda k: ((1, 0),) + datapath._controls(k)[1:])
        with pytest.raises(ProductMismatchError) as exc:
            compare(Word(1, 6), Word(7, 6), SimConfig(n=6))
        assert str(exc.value) == "a=0x1 b=0x7: oracle=0x7 shift_add=0x7 reformed=0x24f"

    def test_builds_no_cycle_record(self, monkeypatch):
        # compare reads only the product and the cycle count, so its run
        # keeps no records; simulate shows that the patch bites
        class NoRecord:
            def __new__(cls, *fields):
                raise AssertionError("a CycleRecord was built")

        monkeypatch.setattr(engine, "CycleRecord", NoRecord)
        a = b = Word(0xFFFF, 16)
        for policy in FlushPolicy:
            report = compare(a, b, SimConfig(n=16, flush_policy=policy))
            assert (report.product.value, report.reformed_cycles) == (0xFFFF * 0xFFFF, 11)
        with pytest.raises(AssertionError, match="a CycleRecord was built"):
            engine.simulate(a, b, SimConfig(n=16))

    def test_report_serialization(self):
        cfg = SimConfig(n=6, k=3, flush_policy=FlushPolicy.EARLY_STOP)
        doc = compare(Word(13, 6), Word(63, 6), cfg).to_dict()
        assert doc == {
            "a": "0xd",
            "b": "0x3f",
            "product": "0x333",
            "baseline_cycles": 6,
            "reformed_cycles": 4,
            "reformed_digit_cycles": 2,
            "speedup": 1.5,
        }
