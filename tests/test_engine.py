import dataclasses
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from radixmul import datapath, engine
from radixmul.datapath import (
    AdderSizingError,
    barrel_shift,
    build_multiple_table,
    decompose_digit,
    mux_select,
)
from radixmul.engine import (
    ConfigError,
    FlushPolicy,
    SimConfig,
    cycle_count_model,
    simulate,
    to_trace_dict,
    to_trace_json,
    verify_trace_dict,
)
from radixmul.word import Digit, Word, WidthOverflowError

DATA = Path(__file__).parent / "data"


def cfg6(policy=FlushPolicy.FULL_WIDTH):
    return SimConfig(n=6, k=3, flush_policy=policy)


def respellings(text):
    # other spellings of a 0x-hex field's value: upper case, an upper-case
    # prefix, unprefixed, zero-padded and space-padded
    digits = text[2:]
    variants = ("0x" + digits.upper(), "0X" + digits, digits, "0x0" + digits, f" {text} ")
    return [variant for variant in variants if variant != text]


def hex_forgeries(text):
    # a 0x-hex field's neighbours by -1 and +1, then its respellings
    number = int(text, 16)
    return [hex(number - 1), hex(number + 1), *respellings(text)]


def int_forgeries(value):
    # an int field's neighbours, True, then its value as a float and a string
    return [value - 1, value + 1, True, float(value), str(value)]


def single_field_forgeries(row):
    # shallow copies of one trace record, each with one field changed (a null
    # digit to "0x0") or deleted, then one with an extra key
    for key, value in row.items():
        if isinstance(value, str):
            variants = hex_forgeries(value)
        elif value is None:
            variants = ["0x0"]
        else:
            variants = int_forgeries(value)
        for variant in variants:
            yield {**row, key: variant}
        yield {name: v for name, v in row.items() if name != key}
    yield {**row, "note": ""}


def header_forgeries(doc):
    # shallow copies of a whole document, each with one field outside the
    # records changed: a and b respelt (another value is another run's
    # input), product as a hex field, cycles as an int, an int total_time_ns
    # under a float config, a null adder_width, or an extra key at the top
    # level or in the config
    for key in ("a", "b"):
        for variant in respellings(doc[key]):
            yield {**doc, key: variant}
    for variant in hex_forgeries(doc["product"]):
        yield {**doc, "product": variant}
    for variant in int_forgeries(doc["cycles"]):
        yield {**doc, "cycles": variant}
    assert type(doc["total_time_ns"]) is float
    yield {**doc, "total_time_ns": int(doc["total_time_ns"])}
    yield {**doc, "config": {**doc["config"], "adder_width": None}}
    yield {**doc, "config": {**doc["config"], "note": ""}}
    yield {**doc, "note": ""}


def small_documents(policy):
    # the trace document of every pair at n <= 3, for every k and both the
    # default and the minimum adder width
    for n in range(1, 4):
        for k in range(1, n + 1):
            for adder_width in (None, n + k + 2):
                cfg = SimConfig(n=n, k=k, adder_width=adder_width, flush_policy=policy)
                for a, b in itertools.product(range(1 << n), repeat=2):
                    yield to_trace_dict(simulate(Word(a, n), Word(b, n), cfg))


def accepts(doc):
    try:
        verify_trace_dict(doc)
    except ValueError:
        return False
    return True


class TestSimConfig:
    def test_reference_defaults(self):
        cfg = SimConfig(n=16)
        assert cfg.k == 3
        assert cfg.adder_width == 25
        assert cfg.clock_period_ns == 40.0
        assert cfg.load_delay_ns == 30.0
        assert cfg.flush_policy is FlushPolicy.FULL_WIDTH
        assert cfg.digit_cycles == 6

    def test_the_default_config_is_the_reference_design(self):
        assert SimConfig() == SimConfig(n=16)
        assert SimConfig().adder_width == 25

    def test_string_policy_accepted(self):
        assert SimConfig(n=8, flush_policy="early_stop").flush_policy \
            is FlushPolicy.EARLY_STOP

    def test_rejects_bad_policy_string(self):
        for bad in ("sometimes", 5):
            with pytest.raises(ConfigError):
                SimConfig(n=8, flush_policy=bad)

    def test_rejects_k_above_n(self):
        with pytest.raises(ConfigError):
            SimConfig(n=2, k=3)

    def test_rejects_undersized_adder(self):
        with pytest.raises(ConfigError):
            SimConfig(n=16, k=3, adder_width=20)

    def test_undersized_adder_message_names_the_minimum(self):
        with pytest.raises(ConfigError, match="below minimum 21 "):
            SimConfig(n=16, k=3, adder_width=20)

    def test_rejects_bad_timing(self):
        with pytest.raises(ConfigError):
            SimConfig(n=8, clock_period_ns=0)
        with pytest.raises(ConfigError):
            SimConfig(n=8, load_delay_ns=-1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                SimConfig(n=8, clock_period_ns=bad)
            with pytest.raises(ConfigError):
                SimConfig(n=8, load_delay_ns=bad)

    @pytest.mark.parametrize("field,value", [
        ("n", 16.0), ("n", True), ("n", "16"), ("k", True), ("k", 3.0),
        ("adder_width", 25.0), ("adder_width", True),
        ("clock_period_ns", True), ("clock_period_ns", "40"),
        ("load_delay_ns", False), ("load_delay_ns", None),
    ])
    def test_rejects_wrong_field_types(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} is"):
            SimConfig(**{"n": 16, field: value})

    def test_rejects_a_total_time_that_overflows(self):
        # every total_time_ns is then finite, which the trace JSON relies on
        SimConfig(n=6, clock_period_ns=1e307)
        with pytest.raises(ConfigError, match="overflows"):
            SimConfig(n=6, clock_period_ns=1e308)

    def test_rejects_a_digit_wider_than_sixteen_bits(self):
        # the ladder and the control table grow as 2^k, so k=40 would
        # exhaust memory instead of failing
        with pytest.raises(ConfigError, match="^k 17 above the maximum digit width 16$"):
            SimConfig(n=64, k=17)

    def test_sixteen_bit_digits_still_multiply(self):
        res = simulate(Word(0xFFFF, 16), Word(0xFFFF, 16), SimConfig(n=16, k=16))
        assert res.product.value == 0xFFFF * 0xFFFF
        assert res.cycles == 2

    @pytest.mark.parametrize("kwargs", [
        {"n": 4, "clock_period_ns": 10**400},
        {"n": 4, "load_delay_ns": 10**400},
        {"n": 1, "k": 1, "clock_period_ns": 10**308},
    ], ids=["clock", "load", "total"])
    def test_an_int_timing_that_overflows_a_float_is_a_config_error(self, kwargs):
        # the first two do not convert to a float; the third does, but
        # 30.0 + 2 * 10**308 does not
        with pytest.raises(ConfigError, match="overflows a float"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("n", 6), ("k", 0), ("adder_width", 5), ("clock_period_ns", 1.0),
        ("load_delay_ns", 0.0), ("flush_policy", "early_stop"),
    ])
    def test_a_config_cannot_be_changed_after_its_checks(self, name, value):
        # the checks run once, at construction, so no field may change after them
        cfg = SimConfig(n=6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert cfg == SimConfig(n=6)
        assert simulate(Word(13, 6), Word(1, 6), cfg).cycles == 4

    def test_a_replaced_config_goes_through_the_checks(self):
        cfg = SimConfig(n=6)
        with pytest.raises(ConfigError, match="need 1 <= k <= n"):
            dataclasses.replace(cfg, k=0)
        early = dataclasses.replace(cfg, flush_policy="early_stop")
        assert early.flush_policy is FlushPolicy.EARLY_STOP
        assert simulate(Word(13, 6), Word(1, 6), early).cycles == 2

    def test_equal_configs_hash_alike(self):
        assert hash(SimConfig(n=16)) == hash(SimConfig())
        assert len({SimConfig(), SimConfig(n=16, adder_width=25)}) == 1


class TestWorkedExample:
    """13 x 63 at n=6, k=3: the fully hand-checked trace."""

    @pytest.mark.parametrize("policy", list(FlushPolicy))
    def test_trace(self, policy):
        res = simulate(Word(13, 6), Word(63, 6), cfg6(policy))
        assert res.product == Word(819, 12)
        assert res.cycles == 4
        assert [r.emitted for r in res.trace] == [0b011, 0b110, 0b100, 0b001]
        assert [r.residue_after for r in res.trace] == [11, 12, 1, 0]
        assert [r.digit for r in res.trace] == [7, 7, None, None]
        assert [r.pp for r in res.trace] == [91, 91, 0, 0]
        assert res.digit_cycles == 2
        assert res.total_time_ns == 30.0 + 4 * 40.0

    def test_product_binary_rendering(self):
        res = simulate(Word(13, 6), Word(63, 6), cfg6())
        assert res.product.to_bin() == "001100110011"


class TestSixteenBitAnchors:
    def test_full_width_cycles_and_time(self):
        res = simulate(Word(0xFFFF, 16), Word(0xFFFF, 16), SimConfig(n=16))
        assert res.product.value == 0xFFFF * 0xFFFF == 4294836225
        assert res.cycles == 11
        assert res.total_time_ns == 470.0

    def test_early_stop_same_cycle_count(self):
        res = simulate(Word(0xFFFF, 16), Word(0xFFFF, 16),
                       SimConfig(n=16, flush_policy=FlushPolicy.EARLY_STOP))
        assert res.cycles == 11
        assert res.digit_cycles == 6

    def test_zero_multiplier(self):
        full = simulate(Word(123, 16), Word(0, 16), SimConfig(n=16))
        assert full.product.value == 0
        assert full.cycles == 11
        early = simulate(Word(123, 16), Word(0, 16),
                         SimConfig(n=16, flush_policy=FlushPolicy.EARLY_STOP))
        assert early.product.value == 0
        assert early.cycles == 6

    def test_operand_width_must_match_config(self):
        with pytest.raises(ConfigError):
            simulate(Word(1, 8), Word(1, 16), SimConfig(n=16))


class TestCorrectnessSweep:
    """The central property: the simulator multiplies exactly."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exhaustive_small_widths(self, n):
        for k in range(1, min(4, n) + 1):
            cfg = SimConfig(n=n, k=k)
            for a in range(1 << n):
                wa = Word(a, n)
                for b in range(1 << n):
                    res = simulate(wa, Word(b, n), cfg)
                    assert res.product.value == a * b, (n, k, a, b)

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_random_large_widths(self, n):
        import random
        rng = random.Random(1000 + n)
        for policy in FlushPolicy:
            cfg = SimConfig(n=n, flush_policy=policy)
            for _ in range(3000):
                a, b = rng.getrandbits(n), rng.getrandbits(n)
                res = simulate(Word(a, n), Word(b, n), cfg)
                assert res.product.value == a * b, (n, policy, a, b)

    def test_single_bit_operands(self):
        for a in (0, 1):
            for b in (0, 1):
                res = simulate(Word(a, 1), Word(b, 1), SimConfig(n=1, k=1))
                assert res.product.value == a * b
                assert res.product.width == 2

    def test_k1_reduces_to_shift_and_add_selection(self):
        # with one-bit digits the partial product is A or 0, never shifted
        cfg = SimConfig(n=4, k=1, flush_policy=FlushPolicy.FULL_WIDTH)
        for a in range(16):
            for b in range(16):
                res = simulate(Word(a, 4), Word(b, 4), cfg)
                assert res.product.value == a * b
                for r in res.trace:
                    assert r.shift == 0
                    assert r.odd_core in (0, 1)
                    if r.digit is not None:
                        assert r.pp == (a if r.digit else 0)

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(0, 2**n - 1),
        st.integers(0, 2**n - 1),
        st.integers(1, min(n, 8)),
        st.sampled_from(list(FlushPolicy)))))
    @settings(max_examples=200)
    def test_random_shapes(self, case):
        n, a, b, k, policy = case
        res = simulate(Word(a, n), Word(b, n), SimConfig(n=n, k=k, flush_policy=policy))
        assert res.product.value == a * b


class TestCycleInvariants:
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
           st.sampled_from(list(FlushPolicy)))
    @settings(max_examples=100)
    def test_conservation_and_residue_bound(self, a, b, policy):
        cfg = SimConfig(n=16, flush_policy=policy)
        res = simulate(Word(a, 16), Word(b, 16), cfg)
        prev = 0
        for r in res.trace:
            assert r.residue_before == prev
            assert r.emitted + (r.residue_after << cfg.k) == r.residue_before + r.pp
            assert r.residue_after < 1 << 16
            prev = r.residue_after

    def test_residue_bound_is_a_typed_error(self, monkeypatch):
        cfg = SimConfig(n=4, k=2)

        def oversized(residue, pp, k, adder_width):
            return 0, 1 << (cfg.n + 1)

        monkeypatch.setattr(engine, "_central_step", oversized)
        with pytest.raises(AdderSizingError, match="bound"):
            simulate(Word(1, 4), Word(1, 4), cfg)

    @pytest.mark.parametrize("offset,raises", [(-1, False), (0, True)])
    def test_residue_bound_is_two_to_the_n(self, monkeypatch, offset, raises):
        # b = 2 selects ladder entry 1 shifted once, so an entry of
        # (2^n + offset) << 1 leaves a first residue of exactly 2^n + offset,
        # which the real adder then drains
        cfg = SimConfig(n=4, k=2)
        entry = ((1 << cfg.n) + offset) << 1
        monkeypatch.setattr(engine, "_ladder", lambda base, k: {1: entry, 3: 3 * base})
        if raises:
            with pytest.raises(AdderSizingError, match="^residue 16 breaks the 2\\^n bound$"):
                simulate(Word(1, 4), Word(2, 4), cfg)
        else:
            res = simulate(Word(1, 4), Word(2, 4), cfg)
            assert res.trace[0].residue_after == (1 << cfg.n) - 1
            assert res.cycles == cfg.full_width_cycles

    @pytest.mark.parametrize("offset,raises", [(-1, False), (0, True)])
    def test_ladder_entries_must_fit_n_plus_k_bits(self, monkeypatch, offset, raises):
        # every partial product is a ladder entry shifted by at most k - 1, so
        # entries below 2^(n+k) keep it in the barrel shifter's n + 2k - 1
        # bits; the check covers every entry, selected by a digit or not
        cfg = SimConfig(n=4, k=2)
        monkeypatch.setattr(engine, "_ladder",
                            lambda base, k: {1: base, 3: (1 << (cfg.n + k)) + offset})
        if raises:
            with pytest.raises(WidthOverflowError,
                               match="^ladder entry 64 does not fit in 6 bits$"):
                simulate(Word(1, 4), Word(1, 4), cfg)
        else:
            assert simulate(Word(1, 4), Word(1, 4), cfg).product.value == 1

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 8)
                                     for k in range(1, n + 1)])
    @given(st.integers(0, 127), st.integers(0, 127),
           st.sampled_from(list(FlushPolicy)))
    @example(127, 127, FlushPolicy.FULL_WIDTH)
    @example(127, 127, FlushPolicy.EARLY_STOP)
    def test_minimum_adder_width(self, n, k, a, b, policy):
        # operands are drawn as 7-bit values and cut to n bits
        wa, wb = Word(a % (1 << n), n), Word(b % (1 << n), n)
        cfg = SimConfig(n=n, k=k, adder_width=n + k + 2, flush_policy=policy)
        res = simulate(wa, wb, cfg)
        assert res.product.value == wa.value * wb.value
        assert res.cycles == cycle_count_model(wa, wb, cfg)

    def test_digit_cycle_count_is_padded_width_over_k(self):
        for b in [0, 1, 0x8000, 0xFFFF, 0x1234]:
            res = simulate(Word(3, 16), Word(b, 16), SimConfig(n=16))
            assert res.digit_cycles == 6


def assert_decode_matches_reference(res, table):
    # every record equals the one the native model gives (digit * a by
    # multiplication, the adder as + and shifts), and its decode, mux and
    # shift are what the Word-level views give; a flush record is a digit-0
    # cycle, so it carries the zero line
    cfg = res.config
    native = engine._native_records(res.a, res.b, cfg, cycle_count_model(res.a, res.b, cfg))
    assert res.trace == list(native)
    for r in res.trace:
        digit = Digit(0 if r.digit is None else r.digit, cfg.k)
        assert tuple(decompose_digit(digit)) == (r.odd_core, r.shift)
        assert barrel_shift(mux_select(table, r.odd_core), r.shift, cfg.k).value == r.pp


class TestDecodeMatchesReferenceBlocks:
    @pytest.mark.parametrize("policy", list(FlushPolicy))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_pair(self, n, policy):
        for k in range(1, n + 1):
            cfg = SimConfig(n=n, k=k, flush_policy=policy)
            for a in range(1 << n):
                wa = Word(a, n)
                table = build_multiple_table(wa, k)
                for b in range(1 << n):
                    assert_decode_matches_reference(simulate(wa, Word(b, n), cfg), table)

    @pytest.mark.parametrize("policy", list(FlushPolicy))
    @pytest.mark.parametrize("n,k", [(16, 3), (16, 8), (64, 6)])
    def test_random_pairs(self, n, k, policy):
        rng = random.Random(n * 100 + k)
        cfg = SimConfig(n=n, k=k, flush_policy=policy)
        pairs = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(300)]
        for a, b in pairs + [((1 << n) - 1, (1 << n) - 1)]:
            wa = Word(a, n)
            res = simulate(wa, Word(b, n), cfg)
            assert_decode_matches_reference(res, build_multiple_table(wa, k))
            assert res.product.value == a * b

    def test_interleaved_digit_widths_give_the_same_traces(self):
        # the per-k control table is memoised; switching k and back must
        # not hand simulate a table built for another width
        a, b = Word(0xB5A3, 16), Word(0x6C1F, 16)
        first = simulate(a, b, SimConfig(n=16, k=3))
        wider = simulate(a, b, SimConfig(n=16, k=4))
        again = simulate(a, b, SimConfig(n=16, k=3))
        assert again.trace == first.trace
        assert wider.trace != first.trace
        assert first.product.value == wider.product.value == 0xB5A3 * 0x6C1F
        assert_decode_matches_reference(first, build_multiple_table(a, 3))
        assert_decode_matches_reference(wider, build_multiple_table(a, 4))

    def test_allocation_budget(self, monkeypatch):
        # all-ones n=16 k=3: the loop runs on ints, so the product is the
        # one Word built and no Digit is
        built = {Word: 0, Digit: 0}

        def count(cls):
            init = cls.__init__

            def counting_init(self, value, width):
                built[cls] += 1
                init(self, value, width)

            monkeypatch.setattr(cls, "__init__", counting_init)

        a = b = Word(0xFFFF, 16)
        cfg = SimConfig(n=16)
        count(Word)
        count(Digit)
        res = simulate(a, b, cfg)
        assert res.cycles == 11 and res.product.value == 0xFFFF * 0xFFFF
        assert built[Word] == 1
        assert built[Digit] == 0


class TestRecordFreeRun:
    # compare runs the cycle loop with no record list; it must give the
    # product and the cycle count that simulate's records give
    @pytest.mark.parametrize("policy", list(FlushPolicy))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_pair_matches_simulate(self, n, policy):
        for k in range(1, n + 1):
            for adder_width in (None, n + k + 2):
                cfg = SimConfig(n=n, k=k, adder_width=adder_width, flush_policy=policy)
                for a, b in itertools.product(range(1 << n), repeat=2):
                    wa, wb = Word(a, n), Word(b, n)
                    res = simulate(wa, wb, cfg)
                    assert engine._run(wa, wb, cfg, None) == (res.product.value, res.cycles)


class TestCycleCountModel:
    def test_full_width_is_operand_independent(self):
        cfg = SimConfig(n=16)
        for a, b in [(0, 0), (1, 1), (0xFFFF, 0xFFFF)]:
            assert cycle_count_model(Word(a, 16), Word(b, 16), cfg) == 11

    def test_early_stop_all_ones(self):
        cfg = SimConfig(n=16, flush_policy=FlushPolicy.EARLY_STOP)
        w = Word(0xFFFF, 16)
        assert cycle_count_model(w, w, cfg) == 11

    def test_early_stop_zero_multiplier(self):
        cfg = SimConfig(n=16, flush_policy=FlushPolicy.EARLY_STOP)
        assert cycle_count_model(Word(5, 16), Word(0, 16), cfg) == 6

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(0, 2**n - 1),
        st.integers(0, 2**n - 1),
        st.integers(1, min(n, 8)),
        st.sampled_from(list(FlushPolicy)))))
    @settings(max_examples=200)
    def test_agrees_with_simulation(self, case):
        n, a, b, k, policy = case
        cfg = SimConfig(n=n, k=k, flush_policy=policy)
        assert cycle_count_model(Word(a, n), Word(b, n), cfg) == \
            simulate(Word(a, n), Word(b, n), cfg).cycles


class TestProductRegister:
    def test_overflowing_emissions_are_sizing_error(self, monkeypatch):
        # n = 5, k = 3 runs 4 full-width cycles, 12 emitted bits for a
        # 10-bit register; a last emission of 0b111 lands on bits 9-11
        real_step = engine._central_step
        cycle = iter(range(4))

        def last_emits_seven(residue, pp, k, adder_width):
            emitted, after = real_step(residue, pp, k, adder_width)
            return (0b111 if next(cycle) == 3 else emitted), after

        monkeypatch.setattr(engine, "_central_step", last_emits_seven)
        with pytest.raises(AdderSizingError) as exc:
            simulate(Word(0, 5), Word(0, 5), SimConfig(n=5, k=3))
        assert str(exc.value) == "emitted bits exceed the 10-bit product register"

    def test_a_residue_left_after_the_last_cycle_is_sizing_error(self, monkeypatch):
        # n = 4, k = 3 runs 3 full-width cycles; a residue of 8 after cycle 1
        # drains to 1 in cycle 2, which lands on bit 9 of an 8-bit register
        real_step = engine._central_step
        cycle = itertools.count()

        def residue_eight_after_cycle_one(residue, pp, k, adder_width):
            emitted, after = real_step(residue, pp, k, adder_width)
            return emitted, (8 if next(cycle) == 1 else after)

        monkeypatch.setattr(engine, "_central_step", residue_eight_after_cycle_one)
        with pytest.raises(AdderSizingError,
                           match="^emitted bits exceed the 8-bit product register$"):
            simulate(Word(0, 4), Word(0, 4), SimConfig(n=4, k=3))

    def test_an_early_stop_run_ends_at_the_full_width(self, monkeypatch):
        # an adder stuck on a nonzero residue never lets early_stop's
        # residue test end the run; the full-width budget does, and the
        # residue left over overflows the register
        cfg = SimConfig(n=4, k=2, flush_policy=FlushPolicy.EARLY_STOP)
        calls = []

        def stuck(residue, pp, k, adder_width):
            calls.append(residue)
            if len(calls) > 1000:
                raise RuntimeError("the run did not end")
            return 0, 15

        monkeypatch.setattr(engine, "_central_step", stuck)
        with pytest.raises(AdderSizingError,
                           match="^emitted bits exceed the 8-bit product register$"):
            simulate(Word(1, 4), Word(1, 4), cfg)
        assert len(calls) == cfg.full_width_cycles


class TestZeroLine:
    # digit-0 and flush cycles run the same path as any digit, so a fault
    # on the zero line's selection shows in the records and the product
    def test_a_wrong_zero_selection_reaches_the_product(self, monkeypatch):
        # digit 0 wired to the multiplicand instead of the zero line
        monkeypatch.setattr(engine, "_controls",
                            lambda k: ((1, 0),) + datapath._controls(k)[1:])
        res = simulate(Word(1, 6), Word(7, 6), SimConfig(n=6))
        assert [r.pp for r in res.trace] == [7, 1, 1, 1]
        assert [r.odd_core for r in res.trace] == [7, 1, 1, 1]
        assert res.product.value == 0x24F


class TestTraceSerialization:
    def make_result(self):
        return simulate(Word(13, 6), Word(63, 6), cfg6(FlushPolicy.EARLY_STOP))

    def test_document_shape(self):
        doc = to_trace_dict(self.make_result())
        assert list(doc) == ["config", "a", "b", "product", "cycles",
                             "total_time_ns", "trace"]
        assert list(doc["config"]) == ["n", "k", "adder_width",
                                       "clock_period_ns", "load_delay_ns",
                                       "flush_policy"]
        assert doc["a"] == "0xd"
        assert doc["b"] == "0x3f"
        assert doc["product"] == "0x333"
        assert doc["cycles"] == 4
        assert doc["config"]["flush_policy"] == "early_stop"
        row = doc["trace"][0]
        assert list(row) == ["cycle", "digit", "odd_core", "shift", "pp",
                             "residue_before", "residue_after", "emitted"]
        assert row == {"cycle": 0, "digit": "0x7", "odd_core": "0x7",
                       "shift": 0, "pp": "0x5b", "residue_before": "0x0",
                       "residue_after": "0xb", "emitted": "0x3"}

    def test_flush_cycles_have_null_digit(self):
        doc = to_trace_dict(self.make_result())
        assert doc["trace"][2]["digit"] is None

    def test_hex_is_lowercase(self):
        res = simulate(Word(0xABCD, 16), Word(0xEF01, 16), SimConfig(n=16))
        text = to_trace_json(res)
        assert "0xabcd" in text and "0xef01" in text
        payload = json.loads(text)
        for row in payload["trace"]:
            for key in ("odd_core", "pp", "residue_before", "residue_after",
                        "emitted"):
                assert row[key] == row[key].lower()

    def test_round_trip(self):
        res = self.make_result()
        doc = json.loads(to_trace_json(res))
        assert verify_trace_dict(doc) == res

    def test_verify_catches_tampering(self):
        doc = to_trace_dict(self.make_result())
        doc["trace"][1]["pp"] = "0x0"
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == "trace[1].pp is '0x0', the run gives '0x5b'"

    def test_verify_catches_wrong_product(self):
        doc = to_trace_dict(self.make_result())
        doc["product"] = "0x334"
        with pytest.raises(ValueError, match="product"):
            verify_trace_dict(doc)

    @staticmethod
    def raise_first_pp(doc):
        # pp of cycle 0 raised by 8, with the residue chain, emissions and
        # product recomputed so that every conservation law still holds
        doc["trace"][0]["pp"] = hex(int(doc["trace"][0]["pp"], 16) + 8)
        k = doc["config"]["k"]
        before = product = 0
        for i, row in enumerate(doc["trace"]):
            total = before + int(row["pp"], 16)
            emitted = total & ((1 << k) - 1)
            row["residue_before"] = hex(before)
            before = total >> k
            row["emitted"], row["residue_after"] = hex(emitted), hex(before)
            product |= emitted << (i * k)
        doc["product"] = hex(product)
        assert product == 827

    @staticmethod
    def zero_b(doc):
        doc["b"] = "0x0"

    @staticmethod
    def string_shift(doc):
        doc["trace"][0]["shift"] = "0"

    @pytest.mark.parametrize("tamper,match", [
        ("raise_first_pp", r"^trace\[0\]\.pp is '0x63', the run gives '0x5b'$"),
        ("zero_b", "digit"),
        ("string_shift",
         r"^malformed trace document: trace\[0\]\.shift is '0' \(str\), need int$"),
    ])
    def test_verify_checks_the_trace_multiplies_a_by_b(self, tamper, match):
        doc = to_trace_dict(self.make_result())
        getattr(self, tamper)(doc)
        with pytest.raises(ValueError, match=match):
            verify_trace_dict(doc)

    def test_verify_rejects_an_emission_wider_than_k_bits(self):
        # the real 2 x 4 trace emits (0, residue 1) then (1, residue 0); the
        # forgery emits all 4 product bits at once, which keeps conservation,
        # the chain, the reassembled product and the cycle count intact; its
        # first field to differ is cycle 0's residue_after
        doc = to_trace_dict(simulate(Word(2, 6), Word(4, 6), cfg6(FlushPolicy.EARLY_STOP)))
        first, second = doc["trace"]
        assert (first["emitted"], first["residue_after"]) == ("0x0", "0x1")
        assert (second["emitted"], second["residue_after"]) == ("0x1", "0x0")
        first.update(emitted="0x8", residue_after="0x0")
        second.update(residue_before="0x0", emitted="0x0")
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == "trace[0].residue_after is '0x0', the run gives '0x1'"

    def test_verify_rejects_an_empty_trace(self):
        doc = to_trace_dict(self.make_result())
        doc.update(trace=[], cycles=0, product="0x0", total_time_ns=30.0)
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == "trace has 0 entries, the run gives 4"

    @pytest.mark.parametrize("policy", list(FlushPolicy))
    def test_verify_accepts_every_small_trace(self, policy):
        for k in range(1, 5):
            for adder_width in (None, 4 + k + 2):
                cfg = SimConfig(n=4, k=k, adder_width=adder_width, flush_policy=policy)
                for a in range(16):
                    for b in range(16):
                        res = simulate(Word(a, 4), Word(b, 4), cfg)
                        assert verify_trace_dict(to_trace_dict(res)) == res

    @pytest.mark.parametrize("policy", list(FlushPolicy))
    def test_every_single_field_forgery_is_rejected(self, policy):
        accepted = []
        for doc in small_documents(policy):
            rows = doc["trace"]
            for i, row in enumerate(rows):
                for forged in single_field_forgeries(row):
                    rows[i] = forged
                    if accepts(doc):
                        accepted.append((doc["config"], doc["a"], doc["b"], forged))
                rows[i] = row
        assert accepted == []

    @pytest.mark.parametrize("policy", list(FlushPolicy))
    def test_every_header_forgery_is_rejected(self, policy):
        accepted = [forged for doc in small_documents(policy)
                    for forged in header_forgeries(doc) if accepts(forged)]
        assert accepted == []

    def test_the_forgeries_include_the_respellings(self):
        row = to_trace_dict(self.make_result())["trace"][0]
        forgeries = [forged for forged in single_field_forgeries(row)
                     if forged.keys() == row.keys()]
        assert [forged["pp"] for forged in forgeries if forged["pp"] != row["pp"]] == \
            ["0x5a", "0x5c", "0x5B", "0X5b", "5b", "0x05b", " 0x5b "]
        assert [forged["shift"] for forged in forgeries
                if forged["shift"] is not row["shift"]] == [-1, 1, True, 0.0, "0"]

    def test_the_first_defect_in_document_order_is_reported(self):
        # a forged pp in cycle 1 comes before a mistyped shift in the last record
        doc = to_trace_dict(self.make_result())
        doc["trace"][1]["pp"] = "0x0"
        doc["trace"][-1]["shift"] = 4.0
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == "trace[1].pp is '0x0', the run gives '0x5b'"

    @pytest.mark.parametrize("field,value,error,message", [
        ("a", "0x40", WidthOverflowError, "value 64 does not fit in 6 bits"),
        ("b", "-0x1", WidthOverflowError, "value -1 does not fit in 6 bits"),
        ("product", "0x1000", ValueError, "product is '0x1000', the run gives '0x333'"),
        ("a", "zz", ValueError, "invalid literal for int() with base 16: 'zz'"),
    ], ids=["a-too-wide", "b-negative", "product-too-wide", "a-not-hex"])
    def test_header_values_are_read_as_words(self, field, value, error, message):
        # a and b are the run's inputs; product is only compared with the run's
        doc = to_trace_dict(self.make_result())
        doc[field] = value
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert (type(info.value), str(info.value)) == (error, message)

    def test_malformed_documents_are_value_errors(self):
        empty_record = to_trace_dict(self.make_result())
        empty_record["trace"][0] = {}
        for doc in ({}, {"config": 5}, empty_record):
            with pytest.raises(ValueError, match="malformed"):
                verify_trace_dict(doc)

    def test_verify_catches_wrong_time(self):
        doc = to_trace_dict(self.make_result())
        doc["total_time_ns"] = 999.0
        with pytest.raises(ValueError, match="total_time_ns"):
            verify_trace_dict(doc)

    @pytest.mark.parametrize("field,value", [("shift", "0"), ("cycle", True)])
    def test_record_counts_must_be_ints(self, field, value):
        doc = to_trace_dict(self.make_result())
        doc["trace"][0][field] = value
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == (f"malformed trace document: trace[0].{field} is "
                                   f"{value!r} ({type(value).__name__}), need int")

    @pytest.mark.parametrize("field,value", [("cycles", 4.0), ("cycles", True),
                                             ("total_time_ns", "190.0")])
    def test_header_numbers_are_typed(self, field, value):
        doc = to_trace_dict(self.make_result())
        doc[field] = value
        with pytest.raises(ValueError, match=f"malformed trace document: {field}"):
            verify_trace_dict(doc)

    @pytest.mark.parametrize("field,value", [("k", True), ("n", 6.0),
                                             ("clock_period_ns", True),
                                             ("load_delay_ns", False)])
    def test_config_values_are_typed(self, field, value):
        # at k=1 a JSON true would otherwise act as the digit width 1
        doc = to_trace_dict(simulate(Word(13, 6), Word(63, 6), SimConfig(n=6, k=1)))
        doc["config"][field] = value
        with pytest.raises(ConfigError, match=f"^{field} is"):
            verify_trace_dict(doc)

    def test_int_total_time_loads(self):
        doc = to_trace_dict(simulate(Word(13, 6), Word(63, 6),
                                     SimConfig(n=6, clock_period_ns=40, load_delay_ns=30)))
        assert doc["total_time_ns"] == 190 and type(doc["total_time_ns"]) is int
        verify_trace_dict(doc)

    def test_a_load_delay_too_large_for_a_float_is_a_config_error(self):
        text = (DATA / "mul_13x63_n6_early_stop.json").read_text(encoding="utf-8")
        assert '"load_delay_ns": 30.0' in text
        doc = json.loads(text.replace('"load_delay_ns": 30.0',
                                      '"load_delay_ns": 1' + "0" * 399))
        assert len(str(doc["config"]["load_delay_ns"])) == 400
        with pytest.raises(ConfigError, match="overflows a float"):
            verify_trace_dict(doc)


class TestWideTraceChecker:
    """Forgeries of cycle 9 of the 11 digit cycles of the n=64, k=6 golden trace.

    Each forgery re-balances the residue chain, the emissions and the
    product from the forged record on, as a careful forger would; each
    asserts the checker's exact message, which names cycle 9 and the
    first of its fields to differ from the run.
    """

    A = 0xFEDCBA9876543210

    @staticmethod
    def load():
        return json.loads((DATA / "mul_n64_k6.json").read_text(encoding="utf-8"))

    @staticmethod
    def rechain(doc, first):
        # recompute residues and emissions from record `first` on, and the
        # product from every emission as simulate folds it
        rows = doc["trace"]
        k = doc["config"]["k"]
        before = int(rows[first - 1]["residue_after"], 16) if first else 0
        for row in rows[first:]:
            total = before + int(row["pp"], 16)
            row["residue_before"] = hex(before)
            before = total >> k
            row["emitted"], row["residue_after"] = hex(total & ((1 << k) - 1)), hex(before)
        product = 0
        for i, row in enumerate(rows):
            product |= int(row["emitted"], 16) << (i * k)
        doc["product"] = hex(product)

    def forge_digit(self, doc):
        row = doc["trace"][9]
        row.update(digit="0x3d", odd_core="0x3d", shift=0, pp=hex(0x3D * self.A))
        self.rechain(doc, 9)

    def forge_factoring(self, doc):
        # 0x3c is 0xf << 2; 0x1e << 1 has the same value but an even core
        row = doc["trace"][9]
        assert (row["digit"], row["odd_core"], row["shift"]) == ("0x3c", "0xf", 2)
        row.update(odd_core="0x1e", shift=1)

    def forge_pp(self, doc):
        row = doc["trace"][9]
        row["pp"] = hex(int(row["pp"], 16) + 8)
        self.rechain(doc, 9)

    def forge_cycle(self, doc):
        doc["trace"][9]["cycle"] = 10

    def forge_emitted(self, doc):
        # move one unit of the residue into the emission: 0x2a + 2^6; the
        # record's residue_after comes before its emitted
        row = doc["trace"][9]
        row["emitted"] = hex(int(row["emitted"], 16) + 64)
        row["residue_after"] = hex(int(row["residue_after"], 16) - 1)
        self.rechain(doc, 10)

    @pytest.mark.parametrize("forge,message", [
        ("forge_digit", "trace[9].digit is '0x3d', the run gives '0x3c'"),
        ("forge_factoring", "trace[9].odd_core is '0x1e', the run gives '0xf'"),
        ("forge_pp", f"trace[9].pp is '{60 * A + 8:#x}', the run gives '{60 * A:#x}'"),
        ("forge_cycle", "trace[9].cycle is 10, the run gives 9"),
        ("forge_emitted", "trace[9].residue_after is '0xf0cf9d5a05a02998', "
                          "the run gives '0xf0cf9d5a05a02999'"),
    ], ids=["digit", "factoring", "pp", "cycle", "emitted"])
    def test_a_forged_ninth_cycle_is_named(self, forge, message):
        doc = self.load()
        verify_trace_dict(doc)
        getattr(self, forge)(doc)
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("field,value", [("cycle", True), ("shift", 4.0)])
    def test_a_mistyped_last_record_is_malformed(self, field, value):
        doc = self.load()
        doc["trace"][-1][field] = value
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == (f"malformed trace document: trace[21].{field} is "
                                   f"{value!r} ({type(value).__name__}), need int")


class TestCheckerWorkIsBoundedByTheDocument:
    """A document of a few hundred bytes can name a run of 10^7 cycles.

    The checker draws the native model's records one at a time and stops
    at the first that differs, so each test counts the records drawn.
    """

    @staticmethod
    def header(n, k, **changes):
        cfg = SimConfig(n=n, k=k)
        doc = {"config": engine._config_doc(cfg), "a": "0x1", "b": "0x1",
               "product": "0x1", "cycles": cfg.full_width_cycles,
               "total_time_ns": cfg.total_time_ns(cfg.full_width_cycles), "trace": []}
        return doc | changes

    @pytest.fixture
    def drawn(self, monkeypatch):
        # a one-item list: how many records the native model has yielded
        count = [0]
        native = engine._native_records

        def counted(*args):
            for record in native(*args):
                count[0] += 1
                yield record
        monkeypatch.setattr(engine, "_native_records", counted)
        return count

    def test_a_short_trace_is_refused_without_building_the_run(self, drawn):
        with pytest.raises(ValueError) as info:
            verify_trace_dict(self.header(10**7, 1))
        assert str(info.value) == "trace has 0 entries, the run gives 20000000"
        assert drawn == [0]

    @pytest.mark.parametrize("changes,message", [
        ({"extra": 0}, "malformed trace document: the document has keys ['config', 'a', "
                       "'b', 'product', 'cycles', 'total_time_ns', 'trace', 'extra'], need "
                       "['config', 'a', 'b', 'trace', 'product', 'cycles', 'total_time_ns']"),
        ({"a": "0X1"}, "a is '0X1', the run gives '0x1'"),
        ({"b": "0x01"}, "b is '0x01', the run gives '0x1'"),
        ({"trace": {}}, "malformed trace document: trace is {} (dict), need list"),
        ({"trace": [None] * 3}, "trace has 3 entries, the run gives 200"),
    ], ids=["keys", "a", "b", "type", "length"])
    def test_the_header_is_searched_first(self, drawn, changes, message):
        with pytest.raises(ValueError) as info:
            verify_trace_dict(self.header(100, 1, **changes))
        assert str(info.value) == message
        assert drawn == [0]

    def test_a_bad_config_value_is_named_before_the_length(self, drawn):
        doc = self.header(100, 1)
        doc["config"] = doc["config"] | {"adder_width": None}
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == ("malformed trace document: config.adder_width "
                                   "is None (NoneType), need int")
        assert drawn == [0]

    def test_a_wide_run_of_null_records_is_refused_at_its_first(self, drawn):
        # 32000 records of a 16000-bit all-ones run, every one null: about
        # 200 KB of JSON, refused after one native record
        ones = hex((1 << 16000) - 1)
        doc = self.header(16000, 1, a=ones, b=ones, trace=[None] * 32000)
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == ("malformed trace document: trace[0] is None "
                                   "(NoneType), need dict")
        assert drawn[0] <= 1

    def test_records_are_drawn_up_to_the_first_that_differs(self, drawn):
        doc = json.loads((DATA / "mul_n64_k6.json").read_text(encoding="utf-8"))
        doc["trace"][9] = None
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == ("malformed trace document: trace[9] is None "
                                   "(NoneType), need dict")
        assert drawn == [10]

    def test_a_short_trace_is_named_before_a_bad_record(self):
        doc = to_trace_dict(simulate(Word(13, 6), Word(63, 6), cfg6()))
        doc["trace"][0]["pp"] = "0x5c"
        del doc["trace"][-1]
        with pytest.raises(ValueError) as info:
            verify_trace_dict(doc)
        assert str(info.value) == "trace has 3 entries, the run gives 4"


def oracle_json(result):
    return json.dumps(to_trace_dict(result), indent=2)


class TestTraceJsonText:
    """to_trace_json writes the oracle's text without building the dict."""

    @pytest.mark.parametrize("policy", list(FlushPolicy))
    def test_every_small_pair(self, policy):
        for n in range(1, 5):
            for k in range(1, n + 1):
                for adder_width in (None, n + k + 2):
                    cfg = SimConfig(n=n, k=k, adder_width=adder_width,
                                    flush_policy=policy)
                    for a in range(1 << n):
                        for b in range(1 << n):
                            res = simulate(Word(a, n), Word(b, n), cfg)
                            assert to_trace_json(res) == oracle_json(res), (cfg, a, b)

    @pytest.mark.parametrize("n,k", [(32, 4), (64, 6)])
    def test_random_wide(self, n, k):
        rng = random.Random(n * 100 + k)
        for policy in FlushPolicy:
            cfg = SimConfig(n=n, k=k, flush_policy=policy)
            for _ in range(50):
                res = simulate(Word(rng.getrandbits(n), n), Word(rng.getrandbits(n), n), cfg)
                assert to_trace_json(res) == oracle_json(res)

    def test_int_timing(self):
        cfg = SimConfig(n=8, k=3, clock_period_ns=7, load_delay_ns=0)
        res = simulate(Word(200, 8), Word(77, 8), cfg)
        text = to_trace_json(res)
        assert text == oracle_json(res)
        assert '"clock_period_ns": 7,' in text and '"total_time_ns": 42,' in text

    @pytest.mark.parametrize("clock,load", [(0.1, 1e-07), (1e16, 3), (12.5, 0.0)])
    def test_float_timing_spellings(self, clock, load):
        # exponents, 17-digit floats and a trailing .0 as json.dumps spells them
        cfg = SimConfig(n=8, k=3, clock_period_ns=clock, load_delay_ns=load)
        res = simulate(Word(200, 8), Word(77, 8), cfg)
        assert to_trace_json(res) == oracle_json(res)

    def test_empty_trace(self):
        res = simulate(Word(5, 4), Word(3, 4), SimConfig(n=4))
        res.trace = []
        text = to_trace_json(res)
        assert text == oracle_json(res)
        assert '"trace": []' in text

    @pytest.mark.parametrize("n,k", [(6, 3), (64, 6)])
    def test_reserialising_the_parsed_text_gives_it_back(self, n, k):
        rng = random.Random(n)
        for policy in FlushPolicy:
            cfg = SimConfig(n=n, k=k, flush_policy=policy)
            res = simulate(Word(rng.getrandbits(n), n), Word(rng.getrandbits(n), n), cfg)
            text = to_trace_json(res)
            assert to_trace_json(verify_trace_dict(json.loads(text))) == text

    # golden files hold `radixmul mul ... --json` output written by the
    # json.dumps serialiser, so they also catch the emitter and the
    # oracle drifting together
    @pytest.mark.parametrize("name,a,b,cfg", [
        ("mul_13x63_n6_early_stop.json", 13, 63,
         SimConfig(n=6, flush_policy=FlushPolicy.EARLY_STOP)),
        ("mul_n64_k6.json", 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978,
         SimConfig(n=64, k=6)),
    ], ids=["13x63_n6_early_stop", "n64_k6"])
    def test_golden(self, name, a, b, cfg):
        res = simulate(Word(a, cfg.n), Word(b, cfg.n), cfg)
        golden = (DATA / name).read_text(encoding="utf-8")
        assert to_trace_json(res) + "\n" == golden
        assert verify_trace_dict(json.loads(golden)) == res
