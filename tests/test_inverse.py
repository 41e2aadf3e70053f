"""Inverse power-index solvers: distances, certified optima, hill climbing."""

import itertools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
from twotier import inverse, power
from twotier import games as games_module
from twotier.inverse import _NeighbourKeys, _numerator_key
from twotier.power import _cumulative_table, _moduli
from tests.reference import reference_numerators

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

    @pytest.mark.parametrize("norm", [1, None, b"l1"])
    def test_non_string_norm_is_a_value_error(self, norm):
        # the CLI reports a ValueError as a one-line diagnostic, an AttributeError not
        with pytest.raises(ValueError, match="norm must be one of"):
            InverseProblemSpec((0.5, 0.5), norm=norm)

    @pytest.mark.parametrize(
        "values, target, name",
        [((math.nan,), (1,), "values"), ((1,), (math.inf,), "target"), ((0.5, -math.inf), (0.5, 0.5), "values")],
    )
    def test_rejects_non_finite(self, values, target, name):
        with pytest.raises(ValueError, match=name):
            distance(values, target)


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


def numerators(values):
    """Index values (multiples of 1/m!) times m!."""
    m_fact = math.factorial(len(values))
    return [v.numerator * (m_fact // v.denominator) for v in values]


class TestDistanceKey:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key_cases(), st.sampled_from(["l1", "l2", "linf"]))
    def test_orders_as_rational_distance(self, case, norm):
        target, first, second = case
        key = _numerator_key(target, norm)
        exact = fraction_key(first, target, norm) - fraction_key(second, target, norm)
        scaled = key(numerators(first)) - key(numerators(second))
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

    @pytest.mark.parametrize("target", [(math.inf, 0.5), (math.nan, 1.0), ("half", "1/2")])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValueError, match="target"):
            InverseProblemSpec(target=target)

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

    @pytest.mark.parametrize(
        "shares, total, name",
        [
            ((0.5, 0.5), 2.5, "total"),
            ((0.5, 0.5), True, "total"),
            ((0.5, 0.5), 0, "total"),
            ((math.inf, 0.5), 3, "shares"),
            ((math.nan, 0.5), 3, "shares"),
        ],
    )
    def test_rejects_bad_input(self, shares, total, name):
        with pytest.raises(ValueError, match=name):
            largest_remainder(shares, total)


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
        assert oracle_key == F(47, 150)
        assert oracle_vec == (2, 2, 1, 1)
        # every non-increasing vector with sum 1..bound is scanned; 9 classes
        for bound, scanned in ((30, 2_723), (50, 16_389)):
            solution = solve_exhaustive(InverseProblemSpec(target=target, weight_sum_bound=bound))
            assert solution.distance == pytest.approx(float(oracle_key), abs=1e-12)
            assert sorted(solution.ssi, reverse=True) == [F(1, 3), F(1, 3), F(1, 6), F(1, 6)]
            assert (solution.steps, solution.evaluations) == (scanned, 9)

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
        # the scan would visit 169,788,079 non-increasing vectors, past the
        # limit of 10^7 at 2^6 coalitions each
        spec = InverseProblemSpec(target=(F(1, 6),) * 6, weight_sum_bound=200)
        with pytest.raises(ResourceLimitError):
            solve_exhaustive(spec)

    @pytest.mark.parametrize(
        "players, max_total, cap",
        # the exhaustive-search shape, cap = max_total, then the enumeration
        # shape, max_total = players * cap
        [pytest.param(m, b, b, id=f"{m}-{b}") for m, b in [(1, 7), (2, 30), (3, 12), (4, 50), (6, 20)]]
        + [pytest.param(m, m * b, b, id=f"enumerate-{m}-{b}") for m, b in [(4, 8), (6, 6), (10, 6)]],
    )
    def test_scan_count_exact(self, players, max_total, cap, monkeypatch):
        def sorted_vectors(parts, budget, cap):  # non-increasing, sum <= budget, the zero vector included
            if parts == 0:
                return 1
            return sum(sorted_vectors(parts - 1, budget - w, w) for w in range(min(budget, cap) + 1))

        count = sorted_vectors(players, max_total, cap) - 1
        if max_total > cap:
            assert count == math.comb(cap + players, players) - 1  # 494, 923 and 8,007
        # a limit of exactly the scan runs it; one coalition less refuses it
        monkeypatch.setattr(games_module, "_SCAN_CELL_LIMIT", count << players)
        assert games_module._class_firsts(players, HALF, max_total, cap)[1] == count
        monkeypatch.setattr(games_module, "_SCAN_CELL_LIMIT", (count << players) - 1)
        with pytest.raises(ResourceLimitError):
            games_module._class_firsts(players, HALF, max_total, cap)

    def test_six_player_boundary(self):
        # weight sums up to 120 scan 9,683,838 vectors, up to 121 10,136,929:
        # the limit is 10^7 vectors of 2^6 coalitions
        assert games_module._SCAN_CELL_LIMIT == 10**7 << 6
        with mock.patch.object(games_module, "_descending_partitions", side_effect=AssertionError("scanned")):
            with pytest.raises(AssertionError, match="scanned"):
                games_module._class_firsts(6, HALF, 120, 120)
            with pytest.raises(ResourceLimitError):
                games_module._class_firsts(6, HALF, 121, 121)

    def test_guard_counts_scanned_vectors(self):
        # C(56, 6) = 32,468,436 weight vectors, but only 96,334 non-increasing ones
        spec = InverseProblemSpec(target=(0.3, 0.2, 0.2, 0.1, 0.1, 0.1), weight_sum_bound=50)
        assert solve_exhaustive(spec).steps == 96_334

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
        "quota, weights, steps, evaluations, builds, l1",
        [
            (
                F(37, 50),
                (74, 63, 62, 58, 46, 39, 22, 19, 12, 12, 12, 11, 11, 11,
                 10, 8, 6, 6, 6, 5, 5, 3, 2, 2, 1, 1, 1, 0),
                34,
                259,
                3,
                0.013066041211063171,
            ),
            (
                HALF,
                (77, 65, 64, 60, 47, 40, 21, 18, 12, 12, 11, 11, 11, 11,
                 9, 8, 6, 6, 6, 5, 5, 3, 2, 2, 1, 1, 1, 1),
                22,
                184,
                3,
                0.01238390571319555,
            ),
        ],
        ids=["q37_50", "q1_2"],
    )
    def test_eu28_search_path_pinned(self, quota, weights, steps, evaluations, builds, l1):
        # one restart runs only from the proportional start: the gap-ordered
        # batched descent reaches the vector, steps and distance that the
        # steepest +-1 descent reached, scoring about a seventh as many
        # vectors.  The steps carry their table: only the first of the 35
        # and 23 step tables is built, wide enough for the dual bar of its +1
        # games 28 weight units ahead, which the descents (sums 500 to 508
        # and 516) never pass; the pivot passes of the start and of the
        # solution build the other 2
        fed = load_federation(DATA / "eu28.csv")
        spec = InverseProblemSpec(
            target=fed.shares(), quota_ratio=quota, weight_sum_bound=500, restarts=1, max_steps=400, seed=11
        )
        with mock.patch.object(power, "_cumulative_table", wraps=power._cumulative_table) as built:
            solution = solve_local_search(spec)
        assert solution.game.weights == weights
        assert solution.steps == steps
        assert solution.evaluations == evaluations
        assert built.call_count == builds
        assert solution.distance == l1

    def test_step_takes_the_first_improving_batch(self):
        # 7 players, so no class representatives seed extra starts.  The
        # first batch of six gap-ordered moves holds an improving move, and
        # a later batch a better one: the one step takes the first batch's
        # best, after scoring only the start and that batch
        raw = (56, 37, 55, 35, 20, 20, 59)
        spec = InverseProblemSpec(target=tuple(F(r, sum(raw)) for r in raw), weight_sum_bound=43, restarts=1, max_steps=1)
        start = (9, 6, 8, 5, 3, 3, 9)
        assert tuple(largest_remainder(spec.target, 43)) == start
        neighbours = gap_order(spec, start)
        fresh = [fresh_key(spec, v) for v in neighbours]
        first = min(range(6), key=fresh.__getitem__)
        assert fresh[first] < fresh_key(spec, start)
        assert min(fresh[6:]) < fresh[first]
        solution = solve_local_search(spec)
        assert solution.game.weights == neighbours[first]
        assert (solution.steps, solution.evaluations) == (1, 7)


@st.composite
def neighbour_cases(draw, players=st.integers(1, 7), weights=st.integers(0, 6), distinct=False):
    """A problem and a weight vector (of distinct weights if ``distinct``).
    Half of the vectors have one player at the edge of the step table built
    for them (its last column, ``step_width`` - 1, or one past it), so that
    its +1 neighbour leaves the table or its -1 neighbour enters it."""
    m = draw(players)
    quota = draw(st.sampled_from([F(1, 2), F(2, 3), F(37, 50), F(99, 100)]))
    vec = draw(st.lists(weights, min_size=m, max_size=m, unique=distinct))
    if draw(st.booleans()):
        outside = next(h for h in itertools.count() if h >= step_width(quota, (h, *vec[1:])))
        vec[0] = outside - draw(st.integers(0, 1))
    raw = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m).filter(any))
    target = tuple(F(t, sum(raw)) for t in raw)
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    return InverseProblemSpec(target=target, quota_ratio=quota, norm=norm), tuple(vec)


def fresh_key(spec, vec):
    """The key of ``vec`` from reference numerators, which share no code
    with the gather and numerators of a step."""
    fresh = reference_numerators(WeightedVotingGame(vec, spec.quota_ratio))
    return _numerator_key(spec.target, spec.norm)([fresh[w] for w in vec])


def gap_order(spec, vec):
    """The +-1 neighbours of ``vec`` in the order a step scores them, from
    reference numerators and exact Fractions: by descending
    (target * m! - numerator) * delta, ties by player, +1 before -1."""
    fresh = reference_numerators(WeightedVotingGame(vec, spec.quota_ratio))
    m_fact = math.factorial(len(vec))
    gaps = [t * m_fact - fresh[w] for t, w in zip(spec.target, vec)]
    moves = sorted(itertools.product(range(len(vec)), (1, -1)), key=lambda move: (-gaps[move[0]] * move[1], move[0], -move[1]))
    neighbours = [vec[:i] + (vec[i] + delta,) + vec[i + 1 :] for i, delta in moves]
    return [v for v in neighbours if min(v) >= 0 and any(v)]


def check_neighbour_keys(spec, vec, tables=None, size=None):
    """Every incremental key equals the key of a fresh exact index, in gap
    order, ``size`` neighbours a batch (all of them at once for None), from
    one table built for the step.  With ``tables``, the stack a batch's
    moves of one direction fill holds at most that many edited tables."""
    expected = gap_order(spec, vec)
    keys = _NeighbourKeys(spec)
    numerators = keys.numerators(vec)
    size = size or len(expected)
    chunk_bytes = power._STACK_BYTES
    if tables is not None:
        chunk_bytes = tables * _cumulative_table(vec, step_width(spec.quota_ratio, vec)).nbytes
    build = mock.patch.object(power, "_cumulative_table", wraps=power._cumulative_table)
    with mock.patch.object(power, "_STACK_BYTES", chunk_bytes), mock.patch.object(inverse, "_BATCH", size), build as built:
        batches = list(keys.batches(vec, numerators))
    assert built.call_count == 1
    assert [len(batch) for batch in batches] == [len(expected[at : at + size]) for at in range(0, len(expected), size)]
    scored = [entry for batch in batches for entry in batch]
    assert [v for v, _, _ in scored] == expected
    assert [key for _, key, _ in scored] == [fresh_key(spec, v) for v in expected]
    for v, _, moved in scored:
        assert moved == reference_numerators(WeightedVotingGame(v, spec.quota_ratio))
    assert keys.of(vec) == fresh_key(spec, vec)
    assert len(keys.cache) == len(expected) + 1


def step_width(quota, vec):
    """Width of a step table built for ``vec``: it reaches the dual bar of
    the +1 neighbours m weight units ahead, or the total ahead if less."""
    return power._dual_bar(quota, sum(vec) + 1 + min(len(vec), sum(vec))) + 1


def walk_carried_table(spec, current, data, steps, restart, rise=1, sizes=st.integers(1, 6), prefixes=st.integers(1, 3)):
    """Score a prefix of each step's batches, at least one that keys a
    vector where there is one, over a walk of ``steps`` +-1 moves, ``rise``
    of +1 for each -1, with a restart from a vector drawn from ``restart``
    halfway.
    After every step the held table is bitwise a fresh table of its vector
    at its width, every key is the fresh key, and a step that scores a
    move builds no table exactly when it is one +-1 move from the held
    vector and the held table reaches the dual bar of the step's +1
    games; a table it builds is ``step_width`` wide.  Returns (held width,
    ``step_width``, built) for each step that scored a move one +-1 move
    from the held vector."""
    keys = _NeighbourKeys(spec)
    walked = []
    for step in range(steps):
        if step == steps // 2:
            current = data.draw(restart)
        vector, table = keys.held
        adjacent = sum(abs(v - w) for v, w in zip(vector, current)) == 1
        carried = adjacent and table.shape[2] > power._dual_bar(spec.quota_ratio, sum(current) + 1)
        size, taken, cached = data.draw(sizes), data.draw(prefixes), len(keys.cache)
        numerators = reference_numerators(WeightedVotingGame(current, spec.quota_ratio))
        build = mock.patch.object(power, "_cumulative_table", wraps=power._cumulative_table)
        with build as built, mock.patch.object(inverse, "_BATCH", size):
            scored = []
            for batch in keys.batches(current, numerators):  # ``taken`` batches, and on until one keys a vector
                scored += batch
                if len(scored) >= taken * size and len(keys.cache) > cached:
                    break
        assert [key for _, key, _ in scored] == [fresh_key(spec, v) for v, _, _ in scored]
        if len(keys.cache) > cached:  # the step scored a move, so it took a table
            assert (built.call_count, keys.held[0]) == (0 if carried else 1, current)
            walked += [(table.shape[2], step_width(spec.quota_ratio, current), not carried)] if adjacent else []
            if not carried:
                assert keys.held[1].shape[2] == step_width(spec.quota_ratio, current)
        else:
            assert (built.call_count, keys.held[0]) == (0, vector)
        vector, table = keys.held
        fresh = _cumulative_table(vector, table.shape[2])
        assert table.shape == fresh.shape and table.tobytes() == fresh.tobytes()
        delta = -1 if step % (rise + 1) == rise else 1
        players = [i for i, w in enumerate(current) if w + delta >= 0 and sum(current) + delta > 0]
        if players:
            i = data.draw(st.sampled_from(players))
            current = current[:i] + (current[i] + delta,) + current[i + 1 :]
    return walked


class TestNeighbourKeys:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(neighbour_cases().filter(lambda case: any(case[1])), st.sampled_from([None, 1, 2, 6]))
    def test_equal_fresh_index_keys(self, case, size):
        check_neighbour_keys(*case, size=size)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        neighbour_cases(players=st.integers(12, 20), weights=st.integers(0, 40), distinct=True),
        st.integers(1, 4),
        st.sampled_from([None, 6]),
    )
    def test_equal_fresh_index_keys_across_chunks(self, case, tables, size):
        # 12 or more distinct weights: each delta's tables span several chunks
        check_neighbour_keys(*case, tables=tables, size=size)

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(neighbour_cases(players=st.just(66), weights=st.integers(0, 2)).filter(lambda case: any(case[1])))
    def test_equal_fresh_index_keys_object_counts(self, case):
        # past C(m, m/2) >= 2^62 the counts are Python ints; one table per
        # chunk makes a delta with several weights span several chunks
        check_neighbour_keys(*case)
        check_neighbour_keys(*case, tables=1, size=6)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(
        neighbour_cases(players=st.integers(68, 72), weights=st.integers(0, 2)).filter(
            lambda case: 0 < sum(case[1]) < 1000
        )
    )
    def test_equal_fresh_index_keys_residue_layers(self, case):
        # past C(m - 1, (m - 1) // 2) >= 2^63 the tables carry residue
        # layers, which removals drive negative and map back.  The sum bound
        # drops only the 99/100 edge-of-table cases: their ~7000-column
        # tables take about 0.1 s per fresh key, over 10 s a case (the edge
        # itself is checked at small m above)
        spec, vec = case
        assert _cumulative_table(vec, sum(vec) + 1).shape[0] > 1
        check_neighbour_keys(*case, tables=1, size=6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(neighbour_cases().filter(lambda case: any(case[1])), st.integers(1, 6), st.data())
    def test_partially_cached_steps(self, case, size, data):
        # a walk of three steps: the second finds its start cached, the third
        # finds the start and some neighbours of the first step cached.  A
        # step takes a prefix of its batches, and keys only their neighbours
        spec, current = case
        keys = _NeighbourKeys(spec)
        keyed = []
        numerator_key = keys.numerator_key
        keys.numerator_key = lambda numerators: keyed.append(numerators) or numerator_key(numerators)
        numerators = keys.numerators(current)
        assert keys.of(current) == fresh_key(spec, current)
        seen = {current}
        for _ in range(3):
            taken = data.draw(st.integers(1, 3))
            with mock.patch.object(inverse, "_BATCH", size):
                scored = [entry for batch in itertools.islice(keys.batches(current, numerators), taken) for entry in batch]
            assert [v for v, _, _ in scored] == gap_order(spec, current)[: taken * size]
            assert [key for _, key, _ in scored] == [fresh_key(spec, v) for v, _, _ in scored]
            seen.update(v for v, _, _ in scored)
            current, _, moved = data.draw(st.sampled_from(scored))
            numerators = keys.numerators(current) if moved is None else moved
            assert numerators == reference_numerators(WeightedVotingGame(current, spec.quota_ratio))
        assert set(keys.cache) == seen
        assert len(keyed) == len(seen)  # each vector keyed once

    @pytest.mark.parametrize("tables", [1, 3])
    @pytest.mark.parametrize(
        "vec, quota",
        [((5, 3, 3, 2, 1, 0, 7, 7, 4), HALF), ((9, 8, 1, 1, 0, 12, 3, 6, 6, 2, 5), F(37, 50))],
    )
    def test_one_removal_per_move_and_gather_per_stack(self, vec, quota, tables):
        spec = InverseProblemSpec(target=(F(1, len(vec)),) * len(vec), quota_ratio=quota)
        width = step_width(quota, vec)
        keys = _NeighbourKeys(spec)
        numerators = keys.numerators(vec)
        calls = {
            name: mock.patch.object(power, name, wraps=getattr(power, name))
            for name in ("_remove_player", "_cumulative_table", "_gather")
        }

        def step(vec, numerators):  # the whole neighbourhood in one batch
            with calls["_remove_player"] as remove, calls["_cumulative_table"] as built, calls["_gather"] as gather:
                with mock.patch.object(inverse, "_BATCH", 2 * len(vec)):
                    (scored,) = keys.batches(vec, numerators)
            assert [key for _, key, _ in scored] == [fresh_key(spec, v) for v, _, _ in scored]
            return scored, remove.call_count, built.call_count, gather.call_count

        def stacks(moves):  # stacks each direction's distinct moves fill, ``tables`` edited tables a stack
            return sum(-(-sum(d == delta for d, _ in moves) // tables) for delta in (1, -1))

        # each direction's tables span several stacks
        with mock.patch.object(power, "_STACK_BYTES", tables * _cumulative_table(vec, width).nbytes):
            scored, removals, builds, gathers = step(vec, numerators)
            moves = {(d, u) for u in vec for d in (1, -1) if u + d >= 0}  # u = 0 has no -1 move
            assert (removals, builds, gathers) == (len(moves), 1, stacks(moves))
            # one -1 move on, the held table is wide enough: it is edited by
            # one more removal, and no table is built
            after, _, carried = next(entry for entry in scored if sum(entry[0]) < sum(vec))
            neighbours = [(after[:i] + (after[i] + d,) + after[i + 1 :], (d, after[i])) for i in range(len(vec)) for d in (1, -1)]
            pending = {move for v, move in neighbours if min(v) >= 0 and v not in keys.cache}
            assert keys.held[0] == vec
            _, removals, builds, gathers = step(after, carried)
        assert (removals, builds, gathers, keys.held[0]) == (1 + len(pending), 0, stacks(pending), after)

    def test_one_table_per_step_for_any_batches(self):
        # the first batch takes the table, for every batch; the later
        # batches only edit copies of it
        vec, quota = (9, 8, 1, 1, 0, 12, 3, 6, 6, 2, 5), F(37, 50)
        spec = InverseProblemSpec(target=(F(1, len(vec)),) * len(vec), quota_ratio=quota)
        keys = _NeighbourKeys(spec)
        numerators = keys.numerators(vec)
        with (
            mock.patch.object(power, "_cumulative_table", wraps=power._cumulative_table) as built,
            mock.patch.object(inverse, "_step_table", wraps=inverse._step_table) as taken,  # the binding the step calls
        ):
            batches = keys.batches(vec, numerators)
            first = next(batches)
            assert (built.call_count, taken.call_count, len(keys.cache)) == (1, 1, 1 + len(first))
            rest = list(batches)
        assert (built.call_count, taken.call_count, len(rest)) == (1, 1, 3)
        assert [v for batch in (first, *rest) for v, _, _ in batch] == gap_order(spec, vec)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(neighbour_cases().filter(lambda case: any(case[1])), st.integers(1, 4), st.data())
    def test_one_call_equals_split_calls(self, case, tables, data):
        # a step's moves, in any order, scored in one call or split across
        # calls of any sizes (empty ones included), ``tables`` edited tables
        # a stack: the same numerators, the fresh ones, and the table as it was
        spec, vec = case
        quota, total = spec.quota_ratio, sum(vec)
        moves = data.draw(st.permutations([(d, u) for u in vec for d in (1, -1) if u + d >= 0 and total + d > 0]))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(moves)), max_size=4)))
        table = power._step_table((), None, vec, quota)
        before = table.tobytes()
        with mock.patch.object(power, "_STACK_BYTES", tables * table.nbytes):
            whole = power._moved_pivots(vec, quota, table, moves)
            split = {}
            for low, high in zip([0, *cuts], [*cuts, len(moves)]):
                split.update(power._moved_pivots(vec, quota, table, moves[low:high]))
        assert split == whole and set(whole) == set(moves)
        assert table.tobytes() == before
        for d, u in moves:
            i = vec.index(u)
            moved = WeightedVotingGame(vec[:i] + (u + d,) + vec[i + 1 :], quota)
            assert whole[d, u] == reference_numerators(moved)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(neighbour_cases().filter(lambda case: any(case[1])), st.integers(1, 3))
    def test_step_resumed_after_a_later_step(self, case, size):
        # a later step edits the held table into its own; the earlier step,
        # read on after it, takes the table back and keys its rest afresh
        spec, vec = case
        keys = _NeighbourKeys(spec)
        with mock.patch.object(inverse, "_BATCH", size):
            first = keys.batches(vec, keys.numerators(vec))
            head = next(first)
            neighbour, _, moved = head[0]
            later = [entry for batch in keys.batches(neighbour, moved) for entry in batch]
            rest = [entry for batch in first for entry in batch]
        scored = [*head, *later, *rest]
        assert [key for _, key, _ in scored] == [fresh_key(spec, v) for v, _, _ in scored]
        assert [v for v, _, _ in head + rest] == gap_order(spec, vec)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(neighbour_cases().filter(lambda case: any(case[1])), st.integers(1, 8), st.data())
    def test_carried_table_equals_a_fresh_table(self, case, rise, data):
        spec, vec = case
        restart = st.lists(st.integers(0, 8), min_size=len(vec), max_size=len(vec)).filter(any).map(tuple)
        walk_carried_table(spec, vec, data, 8, restart, rise)

    @pytest.mark.parametrize("quota", [HALF, F(37, 50)])
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_step_table_rebuilt_when_too_narrow(self, quota, data):
        # a walk that keeps rising passes the dual bar its table was built
        # for, m weight units ahead, and only then builds a new one
        spec = InverseProblemSpec(target=(F(1, 2), F(1, 3), F(1, 6)), quota_ratio=quota)
        walked = walk_carried_table(spec, (2, 1, 1), data, 24, st.just((2, 1, 1)), rise=24, sizes=st.just(6))
        built = [built for *_, built in walked]
        assert built.count(True) >= 2 and False in built

    @pytest.mark.parametrize("quota", [HALF, F(37, 50)])
    def test_step_table_looks_ahead_at_most_the_total(self, quota):
        # 300 players of total 4 (all but three weigh 0): m weight units
        # ahead would be about 150 columns; the total ahead keeps the table
        # within the total + 1 columns that the budget check of the +1 games
        # allows
        vec = (1, 1, 2) + (0,) * 297
        table = power._step_table((), None, vec, quota)
        assert table.shape[2] == step_width(quota, vec) == power._dual_bar(quota, 9) + 1 <= sum(vec) + 1

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(st.integers(68, 72), st.data())
    def test_carried_table_equals_a_fresh_table_residue_layers(self, m, data):
        # weight totals 511 - m and 512 - m at q = 1/2 build step tables 256
        # and 257 wide, on either side of a change of moduli: a table built
        # 256 wide is carried into a step that would build one 257 wide,
        # and keeps the moduli of 256
        assert len(_moduli(m, 256)) == len(_moduli(m, 257)) == 1 and _moduli(m, 256) != _moduli(m, 257)
        raw = data.draw(st.lists(st.integers(1, 100), min_size=m, max_size=m))
        spec = InverseProblemSpec(target=tuple(F(r, sum(raw)) for r in raw))
        vectors = st.permutations((7,) * (511 - 7 * m) + (6,) * (8 * m - 511)).map(tuple)
        walked = walk_carried_table(spec, data.draw(vectors), data, 6, vectors, sizes=st.just(6), prefixes=st.just(1))
        assert (256, 257, False) in walked

    def test_budget_guard(self):
        # two players: a start of weight sum 1,000,001 needs 2,000,002 cells,
        # past the DP budget of 2 * 10^6
        with pytest.raises(ResourceLimitError):
            solve_local_search(InverseProblemSpec(target=(HALF, HALF), weight_sum_bound=1_000_001))
        # at 1,000,000 the start is within the budget and scored; its +1
        # neighbours are refused before any table is built
        keys = _NeighbourKeys(InverseProblemSpec(target=(HALF, HALF), weight_sum_bound=1_000_000))
        numerators = keys.numerators((500_000, 500_000))
        assert keys.of((500_000, 500_000)) == 0
        with mock.patch.object(power, "_cumulative_table", side_effect=AssertionError("built")):
            with pytest.raises(ResourceLimitError):
                list(keys.batches((500_000, 500_000), numerators))


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
    SPEC = InverseProblemSpec(target=(F(1, 2), F(3, 10), F(1, 5)), norm="l2", weight_sum_bound=10, restarts=2)
    FIELDS = {"problem": SPEC, "game": WeightedVotingGame((1, 1, 1), HALF), "method": "local_search", "steps": 0,
              "restarts_used": 1}

    def test_distance_validated(self):
        for solution in (solve_exhaustive(self.SPEC), solve_local_search(self.SPEC)):
            assert solution.ssi == shapley_shubik(solution.game)
            assert solution.distance == distance(solution.ssi, self.SPEC.target, "l2")
        built = InverseSolution(**self.FIELDS)
        assert built.ssi == (F(1, 3),) * 3
        assert built.distance == distance((F(1, 3),) * 3, self.SPEC.target, "l2")
        for name, value in (("ssi", (F(1, 3),) * 3), ("distance", 0.0)):
            with pytest.raises(TypeError, match=name):
                InverseSolution(**self.FIELDS, **{name: value})

    def test_certification_requires_exhaustive(self):
        solutions = [solve_exhaustive(self.SPEC), solve_local_search(self.SPEC)]
        assert [solution.method for solution in solutions] == ["exhaustive", "local_search"]
        assert [solution.optimality_certified for solution in solutions] == [True, False]
        assert not InverseSolution(**self.FIELDS).optimality_certified
        assert InverseSolution(**{**self.FIELDS, "method": "exhaustive"}).optimality_certified
        with pytest.raises(TypeError, match="optimality_certified"):
            InverseSolution(**self.FIELDS, optimality_certified=True)
