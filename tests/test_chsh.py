import itertools
import math
from fractions import Fraction

import pytest

from descriptorsim import (
    ALICE_ANGLES,
    BOB_ANGLES,
    BellConfig,
    DeterministicStrategy,
    all_strategies,
    chsh_win_rate,
    enumerate_classical,
    expected_win_rate,
    quantum_distribution,
    referee_demo,
    run_bell,
    run_bells,
    win_predicate,
)
from descriptorsim.chsh import INPUT_PAIRS, win_rate
from conftest import record_distribution

COS8 = math.cos(math.pi / 8) ** 2 / 2
SIN8 = math.sin(math.pi / 8) ** 2 / 2
WIN_RATE = math.cos(math.pi / 8) ** 2  # 0.8535533905932737


class TestWinPredicate:
    def test_equal_answers_win_on_product_zero(self):
        assert win_predicate(0, 0, 1, 1)
        assert win_predicate(0, 1, 0, 0)
        assert win_predicate(1, 0, 1, 1)

    def test_both_ones_need_different_answers(self):
        assert win_predicate(1, 1, 0, 1)
        assert win_predicate(1, 1, 1, 0)
        assert not win_predicate(1, 1, 1, 1)
        assert not win_predicate(1, 1, 0, 0)

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError):
            win_predicate(2, 0, 0, 0)
        with pytest.raises(ValueError):
            win_predicate(0, 0, 0, -1)

    @pytest.mark.parametrize("bits,name", [((1.0, 1, 0, 1), "x"), ((0, 0.0, 1, 1), "y"),
                                           ((1, 1, True, 0), "a"), ((0, 1, 0, "1"), "b")])
    def test_a_bit_that_is_no_integer_is_refused_by_name(self, bits, name):
        # 1.0 == 1 and True == 1, so a test for membership in (0, 1) alone lets them through
        with pytest.raises(ValueError, match=f"^{name} .* is not an integer$"):
            win_predicate(*bits)


class TestClassicalStrategies:
    def test_sixteen_strategies(self):
        assert len(all_strategies()) == 16

    def test_constant_zero_wins_three(self):
        constant = DeterministicStrategy((0, 0), (0, 0))
        assert constant.wins() == 3

    def test_best_is_exactly_three_never_four(self):
        best, maximizers = enumerate_classical()
        assert best == 3
        assert all(s.wins() == 3 for s in maximizers)
        assert all(s.wins() <= 3 for s in all_strategies())

    def test_each_strategy_is_scored_once(self, monkeypatch):
        scored, wins = [], DeterministicStrategy.wins
        monkeypatch.setattr(DeterministicStrategy, "wins", lambda s: scored.append(s) or wins(s))
        best, maximizers = enumerate_classical()
        assert sorted(scored, key=repr) == sorted(all_strategies(), key=repr)  # each of the 16 once
        assert (best, maximizers) == (3, [s for s in all_strategies() if wins(s) == 3])

    @pytest.mark.parametrize("alice,bob,name", [((0,), (0, 0), "alice"), (0, (0, 0), "alice"),
                                                (None, (0, 1), "alice"), ((0, 1), (0, 1, 1), "bob"),
                                                ((0, 1), (0, 2), "bob"), ((1.0, 0), (0, 1), "alice"),
                                                ((0, 1), (True, 0), "bob")])
    def test_a_bad_answer_table_is_refused_by_name_when_built(self, alice, bob, name):
        # not later, inside wins(), as an IndexError or TypeError
        with pytest.raises(ValueError, match=f"^{name}'s answer"):
            DeterministicStrategy(alice, bob)

    def test_uniform_mixture_of_maximizers_hits_three_quarters(self):
        _, maximizers = enumerate_classical()
        assert expected_win_rate(maximizers) == Fraction(3, 4)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            expected_win_rate([])


class TestQuantumStrategy:
    def test_row_00(self):
        dist = quantum_distribution(0, 0).branch_measures
        assert dist["00"] == pytest.approx(COS8, abs=1e-9)
        assert dist["01"] == pytest.approx(SIN8, abs=1e-9)
        assert dist["10"] == pytest.approx(SIN8, abs=1e-9)
        assert dist["11"] == pytest.approx(COS8, abs=1e-9)

    def test_row_11_flips_pattern(self):
        dist = quantum_distribution(1, 1).branch_measures
        assert dist["00"] == pytest.approx(SIN8, abs=1e-9)
        assert dist["01"] == pytest.approx(COS8, abs=1e-9)
        assert dist["10"] == pytest.approx(COS8, abs=1e-9)
        assert dist["11"] == pytest.approx(SIN8, abs=1e-9)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)])
    def test_mixed_rows_match_row_00(self, pair):
        dist = quantum_distribution(*pair).branch_measures
        reference = quantum_distribution(0, 0).branch_measures
        for key in dist:
            assert dist[key] == pytest.approx(reference[key], abs=1e-9)

    def test_rows_equal_bell_runs(self):
        for x, y in ((0, 0), (1, 1)):
            dist = quantum_distribution(x, y).branch_measures
            bell = run_bell(BellConfig(ALICE_ANGLES[x], BOB_ANGLES[y]))
            assert dist == bell.branch_measures

    def test_non_bit_inputs_rejected(self):
        with pytest.raises(ValueError):
            quantum_distribution(2, 0)

    @pytest.mark.parametrize("x,y,name", [(1.0, 0, "x"), (0, True, "y"), ((0, 1), (1, 0.0), "y")])
    def test_an_input_that_is_no_integer_is_refused_by_name(self, x, y, name):
        # an input indexes the angle tables, which take no float
        with pytest.raises(ValueError, match=f"^{name} .* is not an integer$"):
            quantum_distribution(x, y)


class TestWinRate:
    def test_optimal_angles(self):
        assert chsh_win_rate() == pytest.approx(WIN_RATE, abs=1e-9)
        assert chsh_win_rate() == pytest.approx(0.8535533906, abs=1e-9)

    def test_equal_angles_cap_at_three_quarters(self):
        rate = chsh_win_rate(alice_angles=(0.3, 0.3), bob_angles=(0.3, 0.3))
        assert rate == pytest.approx(0.75, abs=1e-9)

    def test_swapped_sign_angles_fall_below_optimum(self):
        rate = chsh_win_rate(alice_angles=(0.0, -math.pi / 2))
        assert rate < WIN_RATE - 1e-6

    def test_referee_demo_is_deterministic_and_plausible(self):
        a = referee_demo(11, rounds=800)
        b = referee_demo(11, rounds=800)
        assert a == b
        assert 0.78 < a < 0.92

    def test_referee_demo_refuses_a_float_count_of_rounds_by_name(self):
        with pytest.raises(ValueError, match="referee_demo rounds 2.5 is not an integer"):
            referee_demo(1, 2.5)

    def test_referee_demo_refuses_a_float_seed_by_name(self):
        with pytest.raises(ValueError, match="referee_demo seed 1.5 is not an integer"):
            referee_demo(1.5)

    def test_referee_demo_refuses_a_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            referee_demo(-1)

    @pytest.mark.parametrize("rounds", [0, -5])
    def test_referee_demo_needs_a_round(self, rounds):
        # a rate needs a round: 0 would divide by zero, -5 would read -0.0
        with pytest.raises(ValueError, match="rounds"):
            referee_demo(11, rounds=rounds)


def test_no_angle_table_beats_tsirelson():
    # an 8 x 8 grid of (theta, phi) on [-pi, pi), which holds the optimal
    # angles: every table of two Alice and two Bob angles from it, each
    # distribution checked against the oracle's record
    grid = [k * math.pi / 4 for k in range(-4, 4)]
    runs = dict(zip(itertools.product(grid, grid),
                    run_bells([BellConfig(a, b) for a, b in itertools.product(grid, grid)])))
    for out in runs.values():
        for key, p in record_distribution(out.network).items():
            assert abs(out.branch_measures[key] - p) < 1e-12
    pairs = list(itertools.product(grid, repeat=2))
    rates = {
        (alice, bob): win_rate({
            (x, y): runs[(alice[x], bob[y])].branch_measures for x, y in INPUT_PAIRS
        })
        for alice in pairs
        for bob in pairs
    }
    assert len(rates) == 4096
    assert max(rates.values()) <= WIN_RATE + 1e-12
    assert abs(rates[(ALICE_ANGLES, BOB_ANGLES)] - WIN_RATE) < 1e-12
