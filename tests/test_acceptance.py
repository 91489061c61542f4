"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they execute. The two heavyweight campaigns
(exhaustive 6-bit, randomized 16-bit) run once in module-scoped
fixtures and feed criteria 2, 3, 8 and 9.
"""

import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from radixmul.baseline import oracle_multiply, shift_add_multiply
from radixmul.datapath import (
    barrel_shift,
    build_multiple_table,
    csa,
    decompose_digit,
    mux_select,
    rca,
)
from radixmul.engine import FlushPolicy, SimConfig, cycle_count_model, simulate
from radixmul.word import Digit, Word

SEED = 42
RANDOM_PAIRS = 100_000


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL  {label}")
        raise
    print(f"\nACCEPTANCE {num:2d} PASS  {label}")


def run_campaign(pairs, n, timed_policy=FlushPolicy.FULL_WIDTH):
    """Simulate every pair under both flush policies, collecting aggregates.

    The first (timed) pass checks products against the native oracle and
    the cycle-count model and tracks the residue peak; the second pass
    repeats that under the other flush policy, untimed.
    """
    stats = SimpleNamespace(pairs=0, mismatches=0, model_mismatches=0,
                            max_residue=0, elapsed=None)
    other_policy = (FlushPolicy.EARLY_STOP if timed_policy is FlushPolicy.FULL_WIDTH
                    else FlushPolicy.FULL_WIDTH)
    for policy, timed in ((timed_policy, True), (other_policy, False)):
        cfg = SimConfig(n=n, flush_policy=policy)
        start = time.perf_counter()
        for a, b in pairs:
            wa, wb = Word(a, n), Word(b, n)
            res = simulate(wa, wb, cfg)
            if res.product.value != a * b:
                stats.mismatches += 1
            if res.cycles != cycle_count_model(wa, wb, cfg):
                stats.model_mismatches += 1
            for rec in res.trace:
                if rec.residue_after > stats.max_residue:
                    stats.max_residue = rec.residue_after
        if timed:
            stats.elapsed = time.perf_counter() - start
    stats.pairs = len(pairs)
    return stats


@pytest.fixture(scope="module")
def exhaustive_runs():
    pairs = [(a, b) for a in range(64) for b in range(64)]
    stats = run_campaign(pairs, n=6)
    # the three-way agreement (vs shift-and-add too) is part of criterion 2
    cfg = SimConfig(n=6)
    start = time.perf_counter()
    for a, b in pairs:
        wa, wb = Word(a, 6), Word(b, 6)
        sim_product = simulate(wa, wb, cfg).product.value
        sa_product, _ = shift_add_multiply(wa, wb)
        if not (sim_product == sa_product.value == a * b):
            stats.mismatches += 1
    stats.three_way_elapsed = time.perf_counter() - start
    return stats


@pytest.fixture(scope="module")
def randomized_runs():
    rng = random.Random(SEED)
    pairs = [(rng.getrandbits(16), rng.getrandbits(16))
             for _ in range(RANDOM_PAIRS)]
    return run_campaign(pairs, n=16)


def test_criterion_1_worked_example():
    with criterion(1, "6x6 worked example: product, emitted digits, residues"):
        a, b = Word(13, 6), Word(63, 6)
        for policy in FlushPolicy:
            res = simulate(a, b, SimConfig(n=6, k=3, flush_policy=policy))
            assert res.product == oracle_multiply(a, b) == Word(819, 12)
            assert [r.emitted for r in res.trace] == [0b011, 0b110, 0b100, 0b001]
            assert [r.residue_after for r in res.trace] == [11, 12, 1, 0]
        cfg = SimConfig(n=6, k=3)
        simulate(a, b, cfg)  # warm-up
        start = time.perf_counter()
        simulate(a, b, cfg)
        assert time.perf_counter() - start < 1e-3


def test_criterion_2_exhaustive_small(exhaustive_runs):
    with criterion(2, "exhaustive n=6 three-way agreement, 4096 pairs, < 1 s"):
        assert exhaustive_runs.pairs == 4096
        assert exhaustive_runs.mismatches == 0
        assert exhaustive_runs.three_way_elapsed < 1.0


def test_criterion_3_randomized_sixteen_bit(randomized_runs):
    with criterion(3, "randomized n=16 oracle agreement, 100000 pairs, < 10 s"):
        assert randomized_runs.pairs >= 100_000
        assert randomized_runs.mismatches == 0
        assert randomized_runs.elapsed < 10.0


def test_criterion_4_selection_table_reproduction():
    with criterion(4, "selection/shift pairs and d*A for all 3-bit digits"):
        expected_controls = {
            0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (3, 0),
            4: (1, 2), 5: (5, 0), 6: (3, 1), 7: (7, 0),
        }
        rng = random.Random(SEED)
        start = time.perf_counter()
        for _ in range(100):
            a = rng.getrandbits(16)
            table = build_multiple_table(Word(a, 16), 3)
            for digit, controls in expected_controls.items():
                dec = decompose_digit(Digit(digit, 3))
                assert tuple(dec) == controls
                pp = barrel_shift(mux_select(table, dec.odd_core), dec.shift, 3)
                assert pp.value == digit * a
        assert time.perf_counter() - start < 1.0


def test_criterion_5_cycle_count_anchor():
    with criterion(5, "16x16 all-ones: 11 cycles under both flush policies"):
        w = Word(0xFFFF, 16)
        full = simulate(w, w, SimConfig(n=16))
        assert full.cycles == 11
        early = simulate(w, w, SimConfig(n=16, flush_policy=FlushPolicy.EARLY_STOP))
        assert early.cycles == 11
        assert early.digit_cycles == 6
        assert early.cycles - early.digit_cycles == 5


def test_criterion_6_timing_model():
    with criterion(6, "timing: 30 ns load + 11 x 40 ns = 470 ns total"):
        w = Word(0xFFFF, 16)
        res = simulate(w, w, SimConfig(n=16))
        assert res.total_time_ns == 470.0


def test_criterion_7_digit_cycle_anchor():
    with criterion(7, "exactly 6 digit-consuming cycles for any 16-bit multiplier"):
        rng = random.Random(SEED)
        multipliers = [0, 1, 0x8000, 0xFFFF] + [rng.getrandbits(16)
                                                for _ in range(50)]
        for policy in FlushPolicy:
            cfg = SimConfig(n=16, flush_policy=policy)
            assert cfg.digit_cycles == 6
            for b in multipliers:
                res = simulate(Word(rng.getrandbits(16), 16), Word(b, 16), cfg)
                assert res.digit_cycles == 6


def test_criterion_8_adder_sizing(exhaustive_runs, randomized_runs):
    with criterion(8, "default adder width 25; residue bound held on all cycles"):
        assert SimConfig(n=16, k=3).adder_width == 25
        # residues stay below 2^n in every recorded cycle of the
        # criterion 2 and 3 campaigns (also checked inside simulate)
        assert exhaustive_runs.max_residue < 1 << 6
        assert randomized_runs.max_residue < 1 << 16


def test_criterion_9_cycle_model_substitute(exhaustive_runs, randomized_runs):
    with criterion(9, "cycle model matches all runs; cycles monotone in k"):
        # model agreement over every criterion 2-3 input, both policies
        assert exhaustive_runs.model_mismatches == 0
        assert randomized_runs.model_mismatches == 0
        # cycle counts never increase when the digit width grows
        rng = random.Random(SEED + 1)
        for _ in range(1000):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            for policy in FlushPolicy:
                cycles = [
                    simulate(Word(a, 16), Word(b, 16),
                             SimConfig(n=16, k=k, flush_policy=policy)).cycles
                    for k in (1, 2, 3, 4)
                ]
                assert cycles == sorted(cycles, reverse=True), (a, b, policy)


def test_criterion_10_csa_rca_unit_properties():
    with criterion(10, "CSA identity and RCA exactness vs integer arithmetic"):
        rng = random.Random(SEED)
        width = 25
        top = (1 << width) - 1
        start = time.perf_counter()
        for _ in range(10_000):
            x, y, z = (rng.getrandbits(width) for _ in range(3))
            out = csa(Word(x, width), Word(y, width), Word(z, width))
            assert out.sum.value + 2 * out.carry.value == x + y + z
        boundary = [(0, 0, 0), (top, top, 1), (top, 1, 0), (0, top, 1),
                    (0x1555555, 0xAAAAAA, 1)]
        for _ in range(10_000):
            boundary.append((rng.getrandbits(width), rng.getrandbits(width),
                             rng.getrandbits(1)))
        for x, y, cin in boundary:
            out, carry_out = rca(Word(x, width), Word(y, width), cin)
            assert out.value + (carry_out << width) == x + y + cin
        assert time.perf_counter() - start < 1.0
