"""Exact power index computations against fixtures and the permutation oracle."""

import math
import tracemalloc
from pathlib import Path
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twotier import (
    ResourceLimitError,
    WeightedVotingGame,
    banzhaf,
    enumerate_game_classes,
    penrose_decisiveness,
    shapley_permutation_oracle,
    shapley_shubik,
)
from twotier import largest_remainder, load_federation, power
from twotier.games import _bar
from twotier.power import _moduli, _pivot_counts_by_size
from tests.reference import orderings, reference_numerators, reference_permutation_oracle, reference_pivots, wins
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
            if not wins(game, members) and wins(game, members + [i]):
                swings += 1
        expected.append(F(swings, 2 ** (m - 1)))
    return tuple(expected)


def reference_table(weights, width):
    """Cumulative counts of coalitions of ``weights`` by size s (row s) and
    weight <= x for x < width, in plain Python ints: a knapsack whose row s
    packs the counts of size s by weight 0..width-1 into one int, whole
    bytes per weight with room for any count below 2^m, then a running sum
    over each row."""
    size = len(weights) // 8 + 1  # bytes per weight
    bits = 8 * size
    mask = (1 << bits * width) - 1
    rows = [1] + [0] * len(weights)
    for filled, v in enumerate(weights, 1):
        for s in range(filled, 0, -1):
            rows[s] = (rows[s] + (rows[s - 1] << v * bits)) & mask
    table = []
    for row in rows:
        packed = row.to_bytes(size * width, "little")
        table.append(list(accumulate(int.from_bytes(packed[x * size : (x + 1) * size], "little") for x in range(width))))
    return table


def game_at_bar(m, bar, values, seed):
    """A game of m players at quota 1/2 with weights drawn from ``values``,
    its last weight set so that the largest losing weight is ``bar``."""
    rng = np.random.default_rng(seed)
    weights = [int(v) for v in rng.choice(values, m - 1)]
    last = 2 * bar + 1 - sum(weights)
    assert last >= 0
    return WeightedVotingGame((*weights, last), HALF)


def reference_pass(game):
    """What ``_pivot_counts_by_size`` must give: each distinct weight's
    reference pivots and numerator."""
    numerators = reference_numerators(game)
    return {w: (pivots, numerators[w]) for w, pivots in reference_pivots(game).items()}


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

    @PROPERTY
    @given(games(max_players=7))
    @example(WeightedVotingGame((40, 25, 25, 10), HALF))  # {40, 10} sits exactly at the quota
    @example(WeightedVotingGame((3, 0, 2, 0, 0, 1), F(2, 3)))  # zero weights; {3, 1} sits at the quota
    @example(WeightedVotingGame((2**62, 2**62 - 1, 1), HALF))  # total 2^63: past int64
    @example(WeightedVotingGame((2**70, 2**69, 0, 2**69), HALF))  # total past int64; {2^70} sits at the quota
    def test_equals_scalar_reference_property(self, game):
        assert shapley_permutation_oracle(game) == reference_permutation_oracle(game)

    def test_ten_players_bounded_memory(self):
        # 10! = 3,628,800 orderings, 40,320 at a time
        game = WeightedVotingGame((9, 7, 6, 5, 5, 3, 2, 2, 1, 0), F(2, 3))
        tracemalloc.start()
        try:
            values = shapley_permutation_oracle(game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == shapley_shubik(game)
        assert peak < 16 << 20

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


class TestPivotCounts:
    @pytest.mark.parametrize(
        "m, bar, values, moduli",
        [
            (60, 300, (3, 7, 11), 0),
            (67, 400, (5, 9, 14), 0),  # C(66, 33) < 2^63: the last single-layer size
            (68, 400, (5, 9, 14), 1),
            (70, 511, (8, 13, 15), 1),  # width 512: moduli below 2^54
            (70, 512, (8, 13, 15), 1),  # width 513: moduli below 2^53
            (120, 1023, (12, 17, 19), 1),  # width 1024, one modulus below 2^53
            (120, 1024, (12, 17, 19), 2),  # width 1025: moduli below 2^52, two needed
            (120, 8000, (120, 131, 140), 2),  # weight total about 16,000
            (28, 110, (3, 7, 11), 0),  # numerators from three 33-bit limbs
            (56, 190, (3, 7, 11), 0),  # the last size with limbs
            (57, 210, (3, 7, 11), 0),  # the first size without: Python-int dot products
        ],
    )
    def test_equal_reference_at_layer_edges(self, m, bar, values, moduli):
        game = game_at_bar(m, bar, values, seed=m + bar)
        assert game.bar == bar and len(_moduli(m, bar + 1)) == moduli
        expected = reference_pass(game)
        assert dict(game._pivots) == expected  # _pivot_counts_by_size, once per game
        m_fact, swing = math.factorial(m), 2 ** (m - 1)
        assert shapley_shubik(game) == tuple(F(expected[w][1], m_fact) for w in game.weights)
        assert banzhaf(game) == tuple(F(sum(expected[w][0]), swing) for w in game.weights)
        # every cell of the whole table, those no gather reads included:
        # m zero rows (size -1 and the m - 1 below it), then layer 0 holds
        # the counts mod 2^64, each residue layer mod its modulus
        table = power._cumulative_table(game.weights, bar + 1)
        counts = reference_table(game.weights, bar + 1)
        assert table.shape[:2] == (1 + moduli, 2 * m + 1) and not table[:, :m].any()
        for layer, modulus in zip(table, (1 << 64, *_moduli(m, bar + 1))):
            assert layer[m:].astype(np.uint64).tolist() == [[c % modulus for c in row] for row in counts]

    @pytest.mark.parametrize("m, bar", [(57, 210), (70, 512)])
    def test_exact_counts_rebuilt_once_per_pass(self, m, bar, monkeypatch):
        # past 56 players the numerators are Python-int dot products, of
        # the exact counts the pass already rebuilt for banzhaf
        calls = []
        exact_counts = power._exact_counts
        monkeypatch.setattr(power, "_exact_counts", lambda *args: calls.append(1) or exact_counts(*args))
        game = game_at_bar(m, bar, (3, 7, 11), seed=m + bar)
        assert _pivot_counts_by_size(game) == reference_pass(game)
        assert len(calls) == 1

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        st.integers(60, 120),
        st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True).filter(any),
        st.sampled_from([HALF, F(2, 3), F(37, 50), F(99, 100)]),
        st.integers(0, 2**32 - 1),
    )
    def test_equal_reference_property(self, m, values, quota, seed):
        weights = np.random.default_rng(seed).choice(values, m).tolist()
        if not any(weights):
            weights[0] = max(values)
        game = WeightedVotingGame(tuple(weights), quota)
        assert _pivot_counts_by_size(game) == reference_pass(game)

    @pytest.mark.parametrize("m, moduli", [(28, 0), (70, 1), (120, 2)])
    def test_edited_tables_equal_fresh_tables(self, m, moduli):
        # residues stay reduced into [0, p) through removals and additions,
        # including players at or past the table's width
        rng = np.random.default_rng(m)
        weights = [int(w) for w in rng.integers(0, 40, m)]
        width = 1025 if m == 120 else 400
        layers = _moduli(m, width)
        assert len(layers) == moduli
        table = power._cumulative_table(weights, width)
        for i, new in [(0, 39), (1, 0), (2, 1024), (3, 7)]:
            power._remove_player(table, weights[i], layers)
            power._add_player(table, new, layers)
            weights[i] = new
            assert np.array_equal(table, power._cumulative_table(weights, width))

    @pytest.mark.parametrize("m", range(68, 73))
    @pytest.mark.parametrize("width", ["2m", 256, 257, 512, 513])
    def test_folded_every_k_players_equals_folded_every_player(self, m, width):
        # a build reduces its residue layers every k adds, k = 8 up to
        # width 256 and 9 past it, and after the last: the table must be the
        # one that reducing after every add gives, weights at and past the
        # width included
        width = 2 * m if width == "2m" else width
        layers = _moduli(m, width)
        assert len(layers) >= 1
        rng = np.random.default_rng(m * width)
        weights = [int(w) for w in rng.integers(0, 12, m)]
        weights[:3] = [width - 1, width, width + 5]
        folded = np.zeros((1 + len(layers), m + 2, width), dtype=np.int64)
        folded[:, 1] = 1
        for rows, w in enumerate(weights, 3):
            power._add_player(folded[:, :rows], w, layers)
        table = power._cumulative_table(weights, width)
        assert table.dtype == folded.dtype and table.shape == (len(folded), 2 * m + 1, width)
        assert not table[:, : m - 1].any() and table[:, m - 1 :].tobytes() == folded.tobytes()

    @pytest.mark.parametrize("m", range(68, 73))
    @pytest.mark.parametrize("width", ["2m", 256, 257, 512, 513])
    def test_gather_equals_reference_numerators(self, m, width):
        # a stack of two residue-layer tables whose games share the bar:
        # each weight's gathered counts give its reference numerator, for
        # weight 0, weight 1 (every k < m read), and one past the bar
        width = 2 * m if width == "2m" else width
        bar = width - 1
        step = 2 * bar // m
        rest = np.random.default_rng(m * width).multinomial(bar, [1 / (m - 1)] * (m - 1))
        games = [game_at_bar(m, bar, (0, 1, step, step + 1), seed=m * width), WeightedVotingGame((bar + 1, *rest), HALF)]
        assert [game.bar for game in games] == [bar, bar] and len(_moduli(m, width)) == 1
        stack = np.stack([power._cumulative_table(game.weights, width) for game in games])
        order = sorted({w for game in games for w in game.weights})
        assert order[:2] == [0, 1] and order[-1] > bar
        numerators = power._numerators(m, _moduli(m, width))(power._gather(stack, bar, order))
        for g, game in enumerate(games):
            expected = reference_numerators(game)
            assert {w: numerators[2 * j + g] for j, w in enumerate(order) if w in expected} == expected

    def test_one_pass_per_game(self, monkeypatch):
        built = []
        table = power._cumulative_table
        monkeypatch.setattr(power, "_cumulative_table", lambda weights, width: built.append(1) or table(weights, width))
        game = game_at_bar(70, 500, (1, 29), seed=3)
        twin = WeightedVotingGame(game.weights, game.quota_ratio)
        shapley_shubik(game)
        banzhaf(game)
        assert len(built) == 1
        # the cached pass is no field: equality, hash and text ignore it
        assert twin == game and hash(twin) == hash(game)
        assert repr(twin) == repr(game) and twin.to_text() == game.to_text()
        assert (shapley_shubik(twin), banzhaf(twin)) == (shapley_shubik(game), banzhaf(game))
        assert len(built) == 2


@st.composite
def dual_bar_games(draw):
    """Games of 1 to 7 players, zero weights included, whose dual bar
    T - 1 - bar is 0, 1 or 2: the quota is (T - 1 - k) / T, where it is at
    least 1/2."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=7).filter(any))
    total = sum(weights)
    k = draw(st.integers(0, 2).filter(lambda k: 2 * (total - 1 - k) >= total))
    return WeightedVotingGame(tuple(weights), F(total - 1 - k, total))


class TestDualBar:
    def test_pass_and_step_tables_reach_the_dual_bar(self, monkeypatch):
        # eu28's proportional start at q = 37/50: a pass table is T - bar
        # wide, 130 columns rather than the bar's 371, and a step table is
        # T' - bar' wide for the +1 games m weight units ahead, T' = T + 1 + m
        fed = load_federation(Path(__file__).resolve().parent.parent / "data" / "eu28.csv")
        game = WeightedVotingGame(tuple(largest_remainder(fed.shares(), 500)), F(37, 50))
        widths = []
        table = power._cumulative_table
        monkeypatch.setattr(power, "_cumulative_table", lambda weights, width: widths.append(width) or table(weights, width))
        assert dict(game._pivots) == reference_pass(game)
        assert (game.total_weight, game.bar, widths) == (500, 370, [130])
        step = power._step_table((), None, game.weights, game.quota_ratio)
        ahead = 500 + 1 + 28
        assert step.shape[2] == ahead - _bar(game.quota_ratio, ahead) == 138

    @PROPERTY
    @given(dual_bar_games())
    @example(WeightedVotingGame((3, 2, 2), F(6, 7)))  # dual bar 0: only all three win
    @example(WeightedVotingGame((0, 4, 0, 1), F(4, 5)))  # dual bar 0 with zero weights
    @example(WeightedVotingGame((5,), HALF))  # one player, dual bar 2
    @example(WeightedVotingGame((1,), F(99, 100)))  # one player, dual bar 0
    @example(WeightedVotingGame((0, 0, 7), F(999, 1000)))  # a dictator and two nulls
    @example(WeightedVotingGame((9, 7, 6, 5, 5, 3, 2, 2, 1, 0), F(41, 50)))  # ten players, dual bar 7
    def test_extreme_quotas_equal_oracles(self, game):
        assert shapley_shubik(game) == shapley_permutation_oracle(game)
        assert banzhaf(game) == brute_force_banzhaf(game)
        assert dict(game._pivots) == reference_pass(game)  # pivots by size, mirrored back


class TestRemovePlayer:
    @staticmethod
    def row_sweep(live, w, moduli):
        """The removal one size at a time, then each residue layer reduced."""
        width = live.shape[2]
        if w < width:
            for s in range(2, live.shape[1]):
                live[:, s, w:] -= live[:, s - 1, : width - w]
            for p, layer in zip(moduli, live[1:]):
                layer %= p

    @pytest.mark.parametrize("m, width", [(1, 5), (28, 131), (28, 260), (51, 300), *((m, 256 + m % 2) for m in range(68, 73))])
    def test_columns_equal_rows(self, m, width):
        # every weight from 0 (rows only) through the width (no change):
        # removals swept by columns, where that takes fewer calls, and by
        # rows are the same tables to the bit, residue layers included
        weights = [int(w) for w in np.random.default_rng(m * width).integers(0, 2 * width // m + 2, m)]
        table = power._cumulative_table(weights, width)
        moduli = _moduli(m, width)
        assert (len(moduli) > 0) == (m >= 68)
        for u in range(width + 2):
            live = table[:, -(m + 2) :].copy()
            expected = live.copy()
            power._remove_player(live, u, moduli)
            self.row_sweep(expected, u, moduli)
            assert live.tobytes() == expected.tobytes(), u


class TestNumerators:
    # m = 56 is the last player count with limbs, m = 57 the first without
    @pytest.mark.parametrize("m, bits", [(1, 62), (2, 61), (28, 33), (56, 5), (57, 0), (67, 0), (70, 0)])
    def test_limb_rule(self, m, bits):
        assert power._limb_bits(m) == bits

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 28, 56, 57]), st.data())
    def test_equal_python_dot_product(self, m, data):
        # counts up to the count bound C(m-1, (m-1)//2) at every size, a
        # whole row at the bound included: the largest sums the limb proof allows
        bound = math.comb(m - 1, (m - 1) // 2)
        rows = data.draw(st.lists(st.lists(st.integers(0, bound), min_size=m, max_size=m), min_size=1, max_size=6))
        rows.append([bound] * m)
        counts = np.array(rows, dtype=np.int64)[:, None]
        assert power._numerators(m, ())(counts) == [sum(map(mul, row, orderings(m))) for row in rows]

    def test_residue_layers_keep_python_ints(self):
        # a stack of one 70-player table with one residue layer: each
        # weight's gathered counts give its numerator, far past int64
        game = game_at_bar(70, 500, (0, 1, 29), seed=5)
        width = game.bar + 1
        order = list(dict.fromkeys(game.weights))
        stack = power._cumulative_table(game.weights, width)[None]
        counts = power._gather(stack, game.bar, order)
        assert counts.shape == (len(order), 2, 70) and not counts[order.index(0)].any()  # weight 0 gathers zeros
        numerators = power._numerators(70, _moduli(70, width))(counts)
        expected = reference_numerators(game)
        assert numerators == [expected[w] for w in order] and max(numerators) > 1 << 64


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

    @pytest.mark.parametrize("population", [True, 3.0, "3"])
    def test_rejects_non_integer(self, population):
        with pytest.raises(ValueError, match="population"):
            penrose_decisiveness(population)

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
