"""Inverse power-index solvers: distances, certified optima, hill climbing."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotier import (
    FederationSpec,
    InverseProblemSpec,
    InverseSolution,
    ResourceLimitError,
    WeightedVotingGame,
    distance,
    largest_remainder,
    load_federation,
    shapley_permutation_oracle,
    shapley_shubik,
    solve,
    solve_exhaustive,
    solve_local_search,
)
from twotier.inverse import _distance_key, _NeighbourKeys

HALF = Fraction(1, 2)
F = Fraction
DATA = Path(__file__).resolve().parent.parent / "data"


class TestDistance:
    def test_l1_fixture(self):
        ssi = (F(1, 2), F(1, 6), F(1, 6), F(1, 6))
        target = (0.42, 0.25, 0.24, 0.09)
        assert distance(ssi, target, "l1") == pytest.approx(47 / 150, abs=1e-12)

    def test_identical(self):
        assert distance((0.5, 0.5), (0.5, 0.5), "l2") == 0.0

    def test_opposite_unit_vectors(self):
        assert distance((1, 0), (0, 1), "l1") == pytest.approx(2.0)
        assert distance((1, 0), (0, 1), "linf") == pytest.approx(1.0)
        assert distance((1, 0), (0, 1), "l2") == pytest.approx(2**0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            distance((1, 0), (1, 0, 0))

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            distance((1,), (1,), "l3")


def fraction_key(values, target, norm):
    """Reference key in plain rational arithmetic."""
    diffs = [abs(v - t) for v, t in zip(values, target)]
    if norm == "l1":
        return sum(diffs, Fraction(0))
    if norm == "l2":
        return sum((d * d for d in diffs), Fraction(0))
    return max(diffs)


@st.composite
def key_cases(draw):
    """A target and two index-like vectors (multiples of 1/m!); the second
    is often a permutation of the first, so ties occur."""
    m = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m).filter(any))
    target = tuple(Fraction(t, sum(raw)) for t in raw)
    unit = math.factorial(m)
    first = draw(st.lists(st.integers(0, unit), min_size=m, max_size=m))
    second = draw(st.permutations(first) | st.lists(st.integers(0, unit), min_size=m, max_size=m))
    return target, [Fraction(v, unit) for v in first], [Fraction(v, unit) for v in second]


class TestDistanceKey:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key_cases(), st.sampled_from(["l1", "l2", "linf"]))
    def test_orders_as_rational_distance(self, case, norm):
        target, first, second = case
        key = _distance_key(target, norm)
        exact = fraction_key(first, target, norm) - fraction_key(second, target, norm)
        scaled = key(first) - key(second)
        assert (scaled > 0, scaled == 0) == (exact > 0, exact == 0)


class TestProblemSpec:
    def test_renormalizes_exactly(self):
        spec = InverseProblemSpec(target=(0.42, 0.25, 0.24, 0.09))
        assert sum(spec.target) == 1
        assert all(isinstance(t, Fraction) for t in spec.target)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            InverseProblemSpec(target=(0.5, 0.4))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InverseProblemSpec(target=(1.5, -0.5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            InverseProblemSpec(target=())

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_steps", -1),
            ("max_steps", 2.5),
            ("weight_sum_bound", 7.5),
            ("restarts", 2.5),
            ("seed", 1.5),
            ("restarts", True),
        ],
    )
    def test_rejects_bad_search_parameters(self, name, value):
        with pytest.raises(ValueError, match=name):
            InverseProblemSpec(target=(0.5, 0.5), **{name: value})

    def test_accepts_numpy_integers(self):
        spec = InverseProblemSpec(target=(0.5, 0.5), weight_sum_bound=np.int64(10), max_steps=np.int64(0))
        assert spec.weight_sum_bound == 10 and type(spec.weight_sum_bound) is int
        assert solve_local_search(spec).steps == 0


class TestLargestRemainder:
    def test_already_integral(self):
        assert largest_remainder((42, 25, 24, 9), 100) == [42, 25, 24, 9]

    def test_square_root_shares(self):
        assert largest_remainder((10.0, 20.0), 3) == [1, 2]

    def test_sums_to_total(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            shares = rng.dirichlet(np.ones(int(rng.integers(1, 8))))
            total = int(rng.integers(1, 200))
            rounded = largest_remainder(shares.tolist(), total)
            assert sum(rounded) == total
            assert all(w >= 0 for w in rounded)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            largest_remainder((0, 0), 5)


def rescan_optimum(target, quota, norm, weight_bound):
    """Independent oracle: scan the full product grid {0..weight_bound}^m and
    score each game with the permutation oracle under the sorted pairing."""
    m = len(target)
    sorted_target = sorted((Fraction(t) for t in target), reverse=True)
    best = None
    for vec in itertools.product(range(weight_bound + 1), repeat=m):
        if not any(vec) or tuple(sorted(vec, reverse=True)) != vec:
            continue
        ssi = shapley_permutation_oracle(WeightedVotingGame(vec, quota))
        key = sum(abs(s - t) for s, t in zip(ssi, sorted_target)) if norm == "l1" else max(
            abs(s - t) for s, t in zip(ssi, sorted_target)
        )
        if best is None or key < best[0]:
            best = (key, vec)
    return best


class TestSolveExhaustive:
    def test_symmetric_target_exact(self):
        spec = InverseProblemSpec(target=(F(1, 3),) * 3, weight_sum_bound=20)
        solution = solve_exhaustive(spec)
        assert solution.distance == 0.0
        assert solution.optimality_certified
        assert len(set(solution.game.weights)) == 1

    def test_target_42_25_24_9(self):
        spec = InverseProblemSpec(target=(0.42, 0.25, 0.24, 0.09), weight_sum_bound=30)
        solution = solve_exhaustive(spec)
        assert solution.ssi == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))
        assert solution.distance == pytest.approx(0.02, abs=1e-12)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_other_norms_same_optimum_here(self, norm):
        spec = InverseProblemSpec(target=(0.42, 0.25, 0.24, 0.09), weight_sum_bound=30, norm=norm)
        for solver in (solve_exhaustive, solve_local_search):
            solution = solver(spec)
            assert solution.ssi == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))
            assert solution.optimality_certified == (solver is solve_exhaustive)

    def test_target_49_33_9_9_matches_rescan_oracle(self):
        # full independent rescan certifies the optimum for this target
        target = (F(49, 100), F(33, 100), F(9, 100), F(9, 100))
        oracle_key, oracle_vec = rescan_optimum(target, HALF, "l1", 8)
        spec = InverseProblemSpec(target=target, weight_sum_bound=30)
        solution = solve_exhaustive(spec)
        assert solution.distance == pytest.approx(float(oracle_key), abs=1e-12)
        assert oracle_key == F(47, 150)
        assert oracle_vec == (2, 2, 1, 1)
        assert sorted(solution.ssi, reverse=True) == [F(1, 3), F(1, 3), F(1, 6), F(1, 6)]

    def test_rescan_oracle_on_random_targets(self):
        rng = np.random.default_rng(22)
        for _ in range(4):
            target = tuple(rng.dirichlet(np.ones(3)).tolist())
            oracle_key, _ = rescan_optimum(target, HALF, "l1", 6)
            spec = InverseProblemSpec(target=target, weight_sum_bound=18)
            solution = solve_exhaustive(spec)
            assert solution.distance == pytest.approx(float(oracle_key), abs=1e-12)

    def test_weights_aligned_to_target_order(self):
        spec = InverseProblemSpec(target=(0.09, 0.42, 0.24, 0.25), weight_sum_bound=30)
        solution = solve_exhaustive(spec)
        weights = solution.game.weights
        assert weights[1] == max(weights) and weights[0] == min(weights)

    def test_granularity_barrier(self):
        # SSI components are multiples of 1/24, so this target is unreachable
        spec = InverseProblemSpec(target=(0.42, 0.25, 0.24, 0.09), weight_sum_bound=30)
        assert solve_exhaustive(spec).distance > 0

    def test_refuses_many_players(self):
        spec = InverseProblemSpec(target=(F(1, 7),) * 7, weight_sum_bound=10)
        with pytest.raises(ValueError):
            solve_exhaustive(spec)

    def test_budget_guard(self):
        spec = InverseProblemSpec(target=(F(1, 6),) * 6, weight_sum_bound=100)
        with pytest.raises(ResourceLimitError):
            solve_exhaustive(spec)

    def test_nozick_small_group(self):
        # three equal groups plus one smaller: the small delegate gets either
        # power equal to the others' or none at all
        for large in range(1, 5):
            for small in range(0, large + 1):
                if small == 0 and large == 0:
                    continue
                game = WeightedVotingGame((large, large, large, max(small, 0)), HALF)
                values = shapley_shubik(game)
                assert values[3] == (values[0] if small == large else 0)
        spec = InverseProblemSpec(target=(0.26, 0.26, 0.26, 0.22), weight_sum_bound=20)
        solution = solve_exhaustive(spec)
        assert solution.ssi[3] in (solution.ssi[0], 0)


class TestSolveLocalSearch:
    def test_symmetric_target_exact(self):
        spec = InverseProblemSpec(target=(F(1, 4),) * 4, weight_sum_bound=40, restarts=5, seed=3)
        assert solve_local_search(spec).distance == 0.0

    def test_matches_certified_optimum_49_33_9_9(self):
        spec = InverseProblemSpec(
            target=(0.49, 0.33, 0.09, 0.09), weight_sum_bound=100, restarts=20, seed=1
        )
        local = solve_local_search(spec)
        certified = solve_exhaustive(
            InverseProblemSpec(target=(0.49, 0.33, 0.09, 0.09), weight_sum_bound=30)
        )
        assert abs(local.distance - certified.distance) <= 1e-12
        assert not local.optimality_certified

    def test_matches_exhaustive_on_four_player_targets(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            target = tuple(rng.dirichlet(np.ones(4)).tolist())
            local = solve_local_search(
                InverseProblemSpec(target=target, weight_sum_bound=60, restarts=10, seed=9)
            )
            certified = solve_exhaustive(InverseProblemSpec(target=target, weight_sum_bound=24))
            assert abs(local.distance - certified.distance) <= 1e-12

    def test_never_worse_than_proportional_init(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            target = tuple(rng.dirichlet(np.ones(5)).tolist())
            spec = InverseProblemSpec(target=target, weight_sum_bound=50, restarts=4, seed=17)
            init = tuple(largest_remainder(spec.target, spec.weight_sum_bound))
            init_distance = distance(
                shapley_shubik(WeightedVotingGame(init, spec.quota_ratio)), spec.target, spec.norm
            )
            assert solve_local_search(spec).distance <= init_distance + 1e-12

    def test_deterministic(self):
        spec = InverseProblemSpec(
            target=(0.4, 0.3, 0.2, 0.1), weight_sum_bound=80, restarts=8, seed=5
        )
        first = solve_local_search(spec)
        second = solve_local_search(spec)
        assert first.game == second.game
        assert first.distance == second.distance

    def test_skewed_federation_beats_proportional_weights(self):
        # population weights are a good default; the solver must still beat them
        fed = FederationSpec.from_sizes((520, 260, 90, 50, 40, 20, 12, 8))
        target = fed.shares()
        quota = Fraction(37, 50)
        spec = InverseProblemSpec(
            target=target, quota_ratio=quota, weight_sum_bound=120, restarts=4, seed=2
        )
        solution = solve_local_search(spec)
        proportional = WeightedVotingGame(tuple(largest_remainder(target, 120)), quota)
        proportional_distance = distance(shapley_shubik(proportional), target, "l1")
        assert solution.distance < proportional_distance

    @pytest.mark.parametrize(
        "quota, weights, steps, evaluations, l1",
        [
            (
                F(37, 50),
                (74, 63, 62, 58, 46, 39, 22, 19, 12, 12, 12, 11, 11, 11,
                 10, 8, 6, 6, 6, 5, 5, 3, 2, 2, 1, 1, 1, 0),
                34,
                1861,
                0.013066041211063171,
            ),
            (
                HALF,
                (77, 65, 64, 60, 47, 40, 21, 18, 12, 12, 11, 11, 11, 11,
                 9, 8, 6, 6, 6, 5, 5, 3, 2, 2, 1, 1, 1, 1),
                22,
                1226,
                0.01238390571319555,
            ),
        ],
        ids=["q37_50", "q1_2"],
    )
    def test_eu28_search_path_pinned(self, quota, weights, steps, evaluations, l1):
        # one restart runs only from the proportional start: the steepest
        # +-1 descent must take the same path to the same vector
        fed = load_federation(DATA / "eu28.csv")
        spec = InverseProblemSpec(
            target=fed.shares(), quota_ratio=quota, weight_sum_bound=500, restarts=1, max_steps=400
        )
        solution = solve_local_search(spec)
        assert solution.game.weights == weights
        assert solution.steps == steps
        assert solution.evaluations == evaluations
        assert solution.distance == l1


@st.composite
def neighbour_cases(draw, players=st.integers(1, 7), weights=st.integers(0, 6)):
    """A problem and a weight vector.  Half of the vectors have one player
    at the edge of the step table (the largest losing weight of the +1
    neighbours, or one above it), so that its +1 neighbour leaves the
    table or its -1 neighbour enters it."""
    m = draw(players)
    quota = draw(st.sampled_from([F(1, 2), F(2, 3), F(37, 50), F(99, 100)]))
    vec = draw(st.lists(weights, min_size=m, max_size=m))
    if draw(st.booleans()):
        rest = sum(vec) - vec[0]

        def width(h):
            return quota.numerator * (h + rest + 1) // quota.denominator + 1

        outside = next(h for h in itertools.count() if h >= width(h))
        vec[0] = outside - draw(st.integers(0, 1))
    raw = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m).filter(any))
    target = tuple(F(t, sum(raw)) for t in raw)
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    return InverseProblemSpec(target=target, quota_ratio=quota, norm=norm), tuple(vec)


def check_neighbour_keys(spec, vec):
    """Every incremental key equals the key of a fresh exact index."""
    exact = _distance_key(spec.target, spec.norm)

    def fresh(v):
        return exact(shapley_shubik(WeightedVotingGame(v, spec.quota_ratio)))

    expected = []
    for i, delta in itertools.product(range(len(vec)), (1, -1)):
        v = vec[:i] + (vec[i] + delta,) + vec[i + 1 :]
        if min(v) >= 0 and any(v):
            expected.append(v)
    keys = _NeighbourKeys(spec)
    scored = list(keys.neighbours(vec))
    assert [v for v, _ in scored] == expected
    assert [key for _, key in scored] == [fresh(v) for v in expected]
    assert keys.of(vec) == fresh(vec)
    assert len(keys.cache) == len(expected) + 1


class TestNeighbourKeys:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(neighbour_cases().filter(lambda case: any(case[1])))
    def test_equal_fresh_index_keys(self, case):
        check_neighbour_keys(*case)

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(neighbour_cases(players=st.just(66), weights=st.integers(0, 2)).filter(lambda case: any(case[1])))
    def test_equal_fresh_index_keys_object_counts(self, case):
        # past C(m, m/2) >= 2^62 the counts are Python ints
        check_neighbour_keys(*case)


class TestSolve:
    def test_auto_picks_by_player_count(self):
        small = InverseProblemSpec(target=(0.42, 0.25, 0.24, 0.09), weight_sum_bound=30, restarts=2)
        assert solve(small).method == "exhaustive"
        assert solve(small, "local").method == "local_search"
        large = InverseProblemSpec(target=(F(1, 7),) * 7, weight_sum_bound=14, restarts=1)
        assert solve(large).method == "local_search"
        assert solve(large).distance == 0.0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            solve(InverseProblemSpec(target=(F(1, 2), F(1, 2))), "annealing")


class TestInverseSolution:
    def test_distance_validated(self):
        spec = InverseProblemSpec(target=(F(1, 2), F(1, 2)))
        game = WeightedVotingGame((1, 1), HALF)
        with pytest.raises(ValueError):
            InverseSolution(
                problem=spec,
                game=game,
                ssi=shapley_shubik(game),
                distance=0.5,
                method="local_search",
                steps=0,
                restarts_used=1,
                optimality_certified=False,
            )

    def test_certification_requires_exhaustive(self):
        spec = InverseProblemSpec(target=(F(1, 2), F(1, 2)))
        game = WeightedVotingGame((1, 1), HALF)
        with pytest.raises(ValueError):
            InverseSolution(
                problem=spec,
                game=game,
                ssi=shapley_shubik(game),
                distance=0.0,
                method="local_search",
                steps=0,
                restarts_used=1,
                optimality_certified=True,
            )
