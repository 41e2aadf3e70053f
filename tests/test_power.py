"""Exact power index computations against fixtures and the permutation oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from twotier import (
    ResourceLimitError,
    WeightedVotingGame,
    banzhaf,
    enumerate_game_classes,
    penrose_decisiveness,
    shapley_permutation_oracle,
    shapley_shubik,
)
from tests.test_games import PROPERTY, games, random_game

HALF = Fraction(1, 2)
F = Fraction

def brute_force_banzhaf(game):
    m = game.num_players
    expected = []
    for i in range(m):
        swings = 0
        others = [j for j in range(m) if j != i]
        for mask in range(1 << (m - 1)):
            members = [others[k] for k in range(m - 1) if (mask >> k) & 1]
            if not game.is_winning(members) and game.is_winning(members + [i]):
                swings += 1
        expected.append(F(swings, 2 ** (m - 1)))
    return tuple(expected)


class TestShapleyShubik:
    def test_fixture_42_25_24_9(self):
        game = WeightedVotingGame((42, 25, 24, 9), HALF)
        assert shapley_shubik(game) == (F(1, 2), F(1, 6), F(1, 6), F(1, 6))

    def test_fixture_40_25_25_10(self):
        game = WeightedVotingGame((40, 25, 25, 10), HALF)
        assert shapley_shubik(game) == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))

    def test_symmetric(self):
        game = WeightedVotingGame((1, 1, 1, 1, 1), HALF)
        assert shapley_shubik(game) == (F(1, 5),) * 5

    def test_dictator_with_nulls(self):
        game = WeightedVotingGame((1, 0, 0), HALF)
        assert shapley_shubik(game) == (F(1), F(0), F(0))

    def test_efficiency_and_granularity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            game = random_game(rng)
            values = shapley_shubik(game)
            assert sum(values) == 1
            m_fact = math.factorial(game.num_players)
            assert all(v >= 0 and (v * m_fact).denominator == 1 for v in values)

    @PROPERTY
    @given(games(max_players=30))
    def test_efficiency_and_symmetry_property(self, game):
        # up to 30 players: the int64 counting path
        values = shapley_shubik(game)
        assert sum(values) == 1
        by_weight = dict(zip(game.weights, values))
        assert values == tuple(by_weight[w] for w in game.weights)

    def test_null_symmetry_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            game = random_game(rng)
            values = shapley_shubik(game)
            for i in range(game.num_players):
                if game.weights[i] == 0:
                    assert values[i] == 0
                for j in range(game.num_players):
                    if game.weights[i] == game.weights[j]:
                        assert values[i] == values[j]
                    elif game.weights[i] > game.weights[j]:
                        assert values[i] >= values[j]

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            game = random_game(rng)
            scaled = WeightedVotingGame(tuple(5 * w for w in game.weights), game.quota_ratio)
            assert shapley_shubik(game) == shapley_shubik(scaled)

    def test_budget_guard(self):
        # 3 players of total weight 3 * 10^6: past the 2 * 10^6 DP budget
        game = WeightedVotingGame((1_000_000,) * 3, HALF)
        with pytest.raises(ResourceLimitError):
            shapley_shubik(game)
        with pytest.raises(ResourceLimitError):
            banzhaf(game)

    def test_large_game_runs(self):
        # EU-scale input: 28 players, weight sum in the hundreds
        rng = np.random.default_rng(14)
        weights = tuple(int(w) for w in rng.integers(1, 30, 28))
        values = shapley_shubik(WeightedVotingGame(weights, Fraction(37, 50)))
        assert sum(values) == 1


class TestPermutationOracle:
    def test_matches_fixture(self):
        game = WeightedVotingGame((42, 25, 24, 9), HALF)
        assert shapley_permutation_oracle(game) == (F(1, 2), F(1, 6), F(1, 6), F(1, 6))

    def test_symmetric_supermajority(self):
        game = WeightedVotingGame((1, 1, 1), F(2, 3))
        assert shapley_permutation_oracle(game) == (F(1, 3),) * 3

    def test_refuses_large(self):
        with pytest.raises(ValueError):
            shapley_permutation_oracle(WeightedVotingGame((1,) * 11, HALF))

    def test_equals_dp_on_enumerated_classes(self):
        for cls in enumerate_game_classes(4, HALF, 8).classes:
            game = WeightedVotingGame(cls.representative, HALF)
            assert shapley_shubik(game) == shapley_permutation_oracle(game)

    def test_equals_dp_on_random_games(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            game = random_game(rng)
            assert shapley_shubik(game) == shapley_permutation_oracle(game)

    @PROPERTY
    @given(games())
    def test_equals_dp_property(self, game):
        assert shapley_shubik(game) == shapley_permutation_oracle(game)

    @pytest.mark.parametrize("m", [60, 62, 64, 66, 68, 70])
    @pytest.mark.parametrize("quota", [HALF, F(2, 3), F(99, 100)])
    def test_unit_weights_across_dtype_switch(self, m, quota):
        # C(m, m // 2) passes 2^62 between m = 64 and m = 66, where the DP
        # switches from int64 to Python integers
        assert math.comb(64, 32) < 2**62 <= math.comb(66, 33)
        assert shapley_shubik(WeightedVotingGame((1,) * m, quota)) == (F(1, m),) * m


class TestBanzhaf:
    def test_three_symmetric(self):
        game = WeightedVotingGame((1, 1, 1), HALF)
        assert banzhaf(game) == (F(1, 2), F(1, 2), F(1, 2))

    def test_dictator(self):
        assert banzhaf(WeightedVotingGame((1, 0), HALF)) == (F(1), F(0))

    def test_fixture(self):
        game = WeightedVotingGame((42, 25, 24, 9), HALF)
        assert banzhaf(game) == (F(3, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_brute_force_swings(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            game = random_game(rng, max_players=5)
            assert banzhaf(game) == brute_force_banzhaf(game)

    @PROPERTY
    @given(games())
    def test_brute_force_swings_property(self, game):
        assert banzhaf(game) == brute_force_banzhaf(game)

    def test_swings_past_int64(self):
        # the heavy player turns each of the 2^64 coalitions of the others
        # winning, a count past the int64 range
        game = WeightedVotingGame((70,) + (1,) * 64, HALF)
        assert banzhaf(game)[0] == 1


class TestPenrose:
    def test_single_voter(self):
        exact, _ = penrose_decisiveness(1)
        assert exact == 1

    def test_three_voters(self):
        exact, approx = penrose_decisiveness(3)
        assert exact == F(1, 2)
        assert approx == pytest.approx(math.sqrt(2 / (3 * math.pi)), abs=1e-12)
        assert approx == pytest.approx(0.4607, abs=5e-5)

    def test_n_101(self):
        exact, approx = penrose_decisiveness(101)
        assert float(exact) == pytest.approx(0.07959, abs=5e-6)
        assert approx == pytest.approx(0.07939, abs=5e-6)
        assert abs(float(exact) - approx) / float(exact) < 0.005

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            penrose_decisiveness(4)
        with pytest.raises(ValueError):
            penrose_decisiveness(0)

    def test_strictly_decreasing(self):
        values = [penrose_decisiveness(n)[0] for n in range(1, 202, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_approximation_improves(self):
        gaps = []
        for n in (11, 101, 1001):
            exact, approx = penrose_decisiveness(n)
            gaps.append(abs(float(exact) - approx) / float(exact))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.001
