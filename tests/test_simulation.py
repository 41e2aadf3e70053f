"""Median-voter Monte Carlo: samplers, pivot estimation, fairness measures."""

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from twotier import (
    Distribution,
    FederationSpec,
    PivotEstimate,
    PreferenceModel,
    WeightedVotingGame,
    estimate_pivot_probabilities,
    fairness_deviation,
    ordering_match_rate,
    sample_median_brute,
    sample_median_shock,
    shapley_shubik,
)
from twotier import simulation
from twotier.simulation import (
    BLOCK_SIZE,
    _block_bounds,
    _block_ideals,
    _block_pivot_counts,
    _pivot_counts,
    _sorted_order,
)
from tests.reference import median_shock_variance, variance

HALF = Fraction(1, 2)
F = Fraction
UNIFORM = Distribution.uniform(-0.5, 0.5)
NORMAL = Distribution.normal(0.0, 1.0)


class TestDistribution:
    def test_uniform_ppf_and_variance(self):
        d = Distribution.uniform(-0.5, 0.5)
        assert d.ppf(0.5) == pytest.approx(0.0)
        assert d.ppf(1.0) == pytest.approx(0.5)
        assert variance(d) == pytest.approx(1 / 12)
        assert d.sample(np.random.default_rng(52), 200_000).var() == pytest.approx(variance(d), rel=0.01)

    def test_normal_ppf(self):
        d = Distribution.normal(2.0, 3.0)
        assert d.ppf(0.5) == pytest.approx(2.0)
        assert d.ppf(stats.norm.cdf(1.0)) == pytest.approx(5.0)
        assert variance(d) == pytest.approx(9.0)
        assert d.sample(np.random.default_rng(53), 200_000).var() == pytest.approx(variance(d), rel=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Distribution("cauchy", (0.0, 1.0))
        with pytest.raises(ValueError):
            Distribution.uniform(1.0, 0.0)
        with pytest.raises(ValueError):
            Distribution.normal(0.0, 0.0)

    @pytest.mark.parametrize(
        "params",
        [
            ("normal", (math.nan, 1.0)),
            ("normal", (-math.inf, 1.0)),
            ("normal", (0.0, math.inf)),
            ("uniform", (-math.inf, 0.0)),
            ("uniform", (0.0, math.inf)),
        ],
    )
    def test_rejects_non_finite_params(self, params):
        with pytest.raises(ValueError, match="finite"):
            Distribution(*params)

    @pytest.mark.parametrize("params", [(0.0,), (0.0, 1.0, 5.0), ()])
    def test_rejects_wrong_param_count(self, params):
        with pytest.raises(ValueError, match="two finite numbers"):
            Distribution("normal", params)

    def test_sample_matches_ppf_distribution(self):
        rng = np.random.default_rng(31)
        draws = NORMAL.sample(rng, 50_000)
        assert stats.kstest(draws, stats.norm.cdf).pvalue > 0.01


class TestMedianShock:
    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            sample_median_shock(0, UNIFORM, np.random.default_rng(0), 3)

    @pytest.mark.parametrize("population", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_population(self, population):
        with pytest.raises(ValueError, match="population must be an integer"):
            sample_median_shock(population, UNIFORM, np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="population must be an integer"):
            sample_median_brute(population, UNIFORM, np.random.default_rng(0), 3)

    def test_single_voter_is_plain_draw(self):
        rng = np.random.default_rng(32)
        draws = sample_median_shock(1, UNIFORM, rng, 100_000)
        assert stats.kstest(draws, stats.uniform(loc=-0.5, scale=1.0).cdf).pvalue > 0.01

    def test_three_voter_moments(self):
        # median of 3 uniforms on a unit interval: mean 0, variance 1/20
        rng = np.random.default_rng(33)
        draws = sample_median_shock(3, UNIFORM, rng, 200_000)
        assert draws.mean() == pytest.approx(0.0, abs=0.004)
        assert draws.var() == pytest.approx(1 / 20, rel=0.03)

    @pytest.mark.parametrize("population", [2, 3, 10, 11])
    @pytest.mark.parametrize("dist", [UNIFORM, NORMAL], ids=["uniform", "normal"])
    def test_shortcut_matches_brute_force(self, population, dist):
        seed = 1000 + population * 17 + (dist.name == "normal")
        shortcut = sample_median_shock(population, dist, np.random.default_rng(seed), 60_000)
        brute = sample_median_brute(population, dist, np.random.default_rng(seed + 7), 60_000)
        assert stats.ks_2samp(shortcut, brute).pvalue > 0.01

    def test_zero_uniform_draw_stays_finite(self):
        # V = 0 in the even-population shortcut would put the lower central
        # order statistic at ppf(0) = -inf; V is drawn on (0, 1] instead
        class ZeroUniform:
            def beta(self, a, b, size):
                return np.full(size, 0.7)

            def random(self, size):
                return np.zeros(size)

        expected = NORMAL.ppf(np.array([0.7]))[0]
        np.testing.assert_array_equal(sample_median_shock(10, NORMAL, ZeroUniform(), 3), np.full(3, expected))

    def test_variance_formula(self):
        assert median_shock_variance(3, UNIFORM) == pytest.approx(1 / 20)
        rng = np.random.default_rng(37)
        for population in (4, 10):
            draws = sample_median_shock(population, UNIFORM, rng, 300_000)
            assert draws.var() == pytest.approx(median_shock_variance(population, UNIFORM), rel=0.03)
        # normal uses the large-sample constant pi/2 * sigma^2 / n
        assert median_shock_variance(1001, NORMAL) == pytest.approx(math.pi / 2 / 1001)


class TestFederationAndModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FederationSpec(("A",), (0,))
        with pytest.raises(ValueError):
            FederationSpec(("A", "B"), (1,))
        with pytest.raises(ValueError):
            FederationSpec((), ())

    @pytest.mark.parametrize("bad", [1.9, 2.0, np.float64(3.0), True, "4"])
    def test_rejects_non_integer_populations(self, bad):
        with pytest.raises(ValueError, match="population must be an integer"):
            FederationSpec(("a", "b"), (5, bad))

    def test_accepts_numpy_integer_populations(self):
        fed = FederationSpec.from_sizes(np.array([7, 3]))
        assert fed.populations == (7, 3)
        assert all(type(p) is int for p in fed.populations)

    def test_shares_sum_exactly_one(self):
        fed = FederationSpec.from_sizes((42, 25, 24, 9))
        assert sum(fed.shares()) == 1
        assert fed.shares()[0] == F(42, 100)

    def test_model_rejects_negative_cohesion(self):
        with pytest.raises(ValueError):
            PreferenceModel(cohesion=-1.0)

    @pytest.mark.parametrize("cohesion", [math.nan, math.inf])
    def test_model_rejects_non_finite_cohesion(self, cohesion):
        with pytest.raises(ValueError, match="finite"):
            PreferenceModel(cohesion=cohesion)

    def test_model_rejects_bool_cohesion(self):
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="cohesion"):
                PreferenceModel(cohesion=flag)

    @pytest.mark.parametrize("name", ["idiosyncratic", "constituency"])
    @pytest.mark.parametrize("bad", ["uniform", ("normal", (0.0, 1.0)), None])
    def test_model_rejects_non_distribution(self, name, bad):
        with pytest.raises(TypeError, match=f"{name} must be a Distribution"):
            PreferenceModel(1.0, **{name: bad})

    def test_defaults(self):
        model = PreferenceModel()
        assert model.idiosyncratic == Distribution.uniform(-0.5, 0.5)
        assert model.constituency == Distribution.normal(0.0, 1e-4)


def pivot(ideals, game):
    """The delegate the pivot kernel credits for one replication."""
    (index,) = np.flatnonzero(_pivot_counts(np.array([ideals], dtype=np.float64), game))
    return int(index)


def block_pivot_counts(rows, game, chunk):
    """``_block_pivot_counts`` of one block whose positions are ``rows``
    (its noise medians, at zero cohesion), taken ``chunk`` rows a chunk."""
    columns = iter(np.array(rows, dtype=np.float64).T)
    fed = FederationSpec.from_sizes((1,) * game.num_players)
    with patch.object(simulation, "PIVOT_CHUNK", chunk), patch.object(simulation, "sample_median_shock", lambda *_: next(columns)):
        return _block_pivot_counts(fed, game, PreferenceModel(), 0, 0, len(rows))


def stable_order(row):
    return sorted(range(len(row)), key=lambda i: (row[i], i))


def fraction_pivot(row, game):
    """Pivot by definition: the first delegate, in (position, index) order,
    whose arrival lifts the coalition's weight above q * T."""
    threshold = game.quota_ratio * game.total_weight
    running = 0
    for i in stable_order(row):
        running += game.weights[i]
        if running > threshold:
            return i


@st.composite
def pivot_cases(draw):
    """Games with zero weights, rows of positions with ties, and half the
    time a quota at which a prefix of the first row weighs exactly q * T."""
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any))
    position = st.sampled_from([-1.0, 0.0, 0.25, 2.0])  # few values, so ties are common
    rows = draw(st.lists(st.lists(position, min_size=m, max_size=m), min_size=1, max_size=30))
    prefix = stable_order(rows[0])[: draw(st.integers(0, m))]
    at_quota = Fraction(sum(weights[i] for i in prefix), sum(weights))
    if draw(st.booleans()) and HALF <= at_quota < 1:
        quota = at_quota
    else:
        quota = Fraction(draw(st.integers(50, 99)), 100)
    return WeightedVotingGame(tuple(weights), quota), rows


class TestPivotalIndex:
    GAME_EQUAL = WeightedVotingGame((1, 1, 1), HALF)

    def test_unweighted_median(self):
        assert pivot((0.3, -0.2, 0.5), self.GAME_EQUAL) == 0

    def test_weight_on_last(self):
        game = WeightedVotingGame((1, 1, 3), HALF)
        assert pivot((0.3, -0.2, 0.5), game) == 2

    def test_weight_on_first(self):
        game = WeightedVotingGame((3, 1, 1), HALF)
        assert pivot((0.3, -0.2, 0.5), game) == 0

    def test_tie_breaks_to_lower_index(self):
        assert pivot((0.5, 0.5, 0.1), self.GAME_EQUAL) == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pivot_cases(), st.integers(1, 8))
    @example((WeightedVotingGame((1, 0, 1, 1, 1), HALF), [[0.0, 0.0, 0.25, 0.0, -1.0]] * 5), 2)
    def test_chunked_kernel_matches_fraction_oracle(self, case, chunk):
        game, rows = case
        expected = [fraction_pivot(row, game) for row in rows]
        assert [pivot(row, game) for row in rows] == expected
        counts = block_pivot_counts(rows, game, chunk)
        assert counts.tolist() == np.bincount(expected, minlength=game.num_players).tolist()


class TestSortedOrder:
    """``_sorted_order``: the default argsort, and a stable re-sort of only
    the rows whose sorted values do not strictly increase."""

    GAME = WeightedVotingGame((3, 1, 2, 2, 1), Fraction(3, 5))
    ROWS = [
        [0.3, -0.2, 0.5, 0.1, 0.0],  # no tie
        [0.5, 0.5, 0.1, 0.1, 0.5],  # ties
        [math.inf, -math.inf, 0.0, 1.0, -1.0],  # infinities, no tie
        [-math.inf, -math.inf, 2.0, math.inf, math.inf],  # tied infinities
        [0.0, -0.0, 0.25, -0.25, 1.0],  # -0.0 == 0.0 is a tie
        [0.9, 0.1, 0.8, 0.2, 0.7],  # no tie
        [0.2, 0.2, 0.2, 0.2, 0.2],  # all tied
    ]

    @pytest.mark.parametrize("chunk", [2, 3, 4, 7])
    def test_mixed_chunk_matches_fraction_oracle(self, chunk):
        # each chunk holds untied, tied and infinite rows, and a chunk
        # boundary falls between rows of each kind
        expected = [fraction_pivot(row, self.GAME) for row in self.ROWS]
        counts = block_pivot_counts(self.ROWS, self.GAME, chunk)
        assert counts.tolist() == np.bincount(expected, minlength=5).tolist()

    @pytest.mark.parametrize("strided", [False, True])
    def test_equals_stable_argsort_with_ties(self, strided):
        rng = np.random.default_rng(60)
        rows = rng.normal(size=(3000, 12))
        tied = rng.choice(3000, 600, replace=False)
        columns = rng.integers(0, 12, (600, 2))
        rows[tied, columns[:, 0]] = rows[tied, columns[:, 1]]  # a copied value ties two delegates
        rows[tied[:200], 3] = rng.choice([math.inf, -math.inf, math.nan, 0.0, -0.0], 200)
        if strided:
            rows = np.asfortranarray(rows)
        values = np.empty(rows.shape)
        order = _sorted_order(rows, values)
        np.testing.assert_array_equal(order, np.argsort(rows, axis=1, kind="stable"))
        np.testing.assert_array_equal(values, np.sort(rows, axis=1))

    @pytest.mark.parametrize("cohesion", [0.0, 5.0])
    def test_tie_free_block_sorts_no_row_again(self, cohesion, monkeypatch):
        # the fast path must stay fast: a tie-free block passes no row to
        # the stable sort
        fed = FederationSpec.from_sizes(tuple(1_000_001 + 2 * i for i in range(28)))
        game = WeightedVotingGame(tuple(range(1, 29)), Fraction(37, 50))
        sorted_rows = {None: 0, "stable": 0}
        argsort = np.argsort

        def recording(a, axis=-1, kind=None, **kwargs):
            sorted_rows[kind] += len(a)
            return argsort(a, axis=axis, kind=kind, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        _block_pivot_counts(fed, game, PreferenceModel(cohesion=cohesion), 61, 0, BLOCK_SIZE)
        assert sorted_rows == {None: BLOCK_SIZE, "stable": 0}


class TestBlockIdeals:
    @pytest.mark.parametrize("cohesion", [0.0, 5.0])
    def test_chunks_equal_one_whole_draw(self, cohesion):
        # the shocks drawn a chunk at a time are the rows of one whole
        # draw, and each chunk holds cohesion * shared + noise bit for bit
        fed = FederationSpec.from_sizes((1001, 500, 301, 77, 12))
        model = PreferenceModel(cohesion=cohesion, constituency=Distribution.normal(0.0, 0.3))
        count = 3 * simulation.PIVOT_CHUNK + 5
        rng = simulation._block_rng(62, 4)
        noise = np.column_stack([sample_median_shock(n, UNIFORM, rng, count) for n in fed.populations])
        shared = model.constituency.sample(rng, (count, 5))
        expected = noise + cohesion * shared if cohesion else noise
        chunks = list(_block_ideals(fed, model, 62, 4, count, shared_order=cohesion > 0))
        assert len(chunks) == 4
        np.testing.assert_array_equal(np.concatenate([c for c, _ in chunks]).view(np.int64), expected.view(np.int64))
        if cohesion:
            orders = np.concatenate([order for _, order in chunks])
            np.testing.assert_array_equal(orders, np.argsort(shared, axis=1, kind="stable"))


class TestEstimate:
    def test_counts_sum_to_replications(self):
        fed = FederationSpec.from_sizes((101, 101, 101))
        game = WeightedVotingGame((1, 1, 1), HALF)
        estimate = estimate_pivot_probabilities(fed, game, PreferenceModel(), 5000, 40)
        assert sum(estimate.counts) == 5000
        assert sum(estimate.exact_shares()) == 1

    def test_symmetric_within_monte_carlo_error(self):
        fed = FederationSpec.from_sizes((101, 101, 101))
        game = WeightedVotingGame((1, 1, 1), HALF)
        estimate = estimate_pivot_probabilities(fed, game, PreferenceModel(cohesion=3.0), 100_000, 41)
        assert np.all(np.abs(estimate.pi_hat - 1 / 3) <= 4 * estimate.std_err)

    def test_deterministic_given_seed(self):
        fed = FederationSpec.from_sizes((1001, 501))
        game = WeightedVotingGame((2, 1), HALF)
        one = estimate_pivot_probabilities(fed, game, PreferenceModel(), 40_000, 42)
        two = estimate_pivot_probabilities(fed, game, PreferenceModel(), 40_000, 42)
        assert one == two

    def test_block_order_independent(self):
        # accumulating blocks in any order reproduces the serial estimate
        fed = FederationSpec.from_sizes((1001, 501, 301))
        game = WeightedVotingGame((2, 1, 1), HALF)
        model = PreferenceModel(cohesion=1.0)
        replications = 100_000
        estimate = estimate_pivot_probabilities(fed, game, model, replications, 43)
        blocks = list(_block_bounds(replications))
        assert len(blocks) > 1
        counts = np.zeros(3, dtype=np.int64)
        for index, count in reversed(blocks):
            counts += _block_pivot_counts(fed, game, model, 43, index, count)
        assert tuple(int(c) for c in counts) == estimate.counts

    def test_std_err_formula(self):
        estimate = PivotEstimate((25, 75), 100, 0)
        assert estimate.std_err[0] == pytest.approx(math.sqrt(0.25 * 0.75 / 100))

    @pytest.mark.parametrize(
        "counts, replications, message",
        [
            ((1, 2), 0, "replications must be at least 1"),
            ((5, 7), 3, "must sum to replications"),
            ((5, -2), 3, "counts must be at least 0"),
            ((1.5, 1.5), 3, "counts must be an integer"),
            ((1, 2), 3.0, "replications must be an integer"),
        ],
    )
    def test_estimate_validates_its_fields(self, counts, replications, message):
        with pytest.raises(ValueError, match=message):
            PivotEstimate(counts, replications, 0)

    def test_estimate_stores_python_ints(self):
        estimate = PivotEstimate(tuple(np.array([2, 1])), 3, 0)
        assert estimate.counts == (2, 1) and all(type(c) is int for c in estimate.counts)
        assert estimate.exact_shares() == (Fraction(2, 3), Fraction(1, 3))

    def test_validation(self):
        fed = FederationSpec.from_sizes((10, 10))
        game = WeightedVotingGame((1, 1, 1), HALF)
        with pytest.raises(ValueError):
            estimate_pivot_probabilities(fed, game, PreferenceModel(), 10, 0)
        with pytest.raises(ValueError):
            estimate_pivot_probabilities(fed, WeightedVotingGame((1, 1), HALF), PreferenceModel(), 0, 0)

    @pytest.mark.parametrize(
        "name, value",
        [("replications", True), ("replications", 2.5), ("replications", 0), ("seed", True), ("seed", 1.5), ("seed", -1)],
    )
    def test_rejects_bad_integers(self, name, value):
        fed = FederationSpec.from_sizes((10, 10))
        model = PreferenceModel(cohesion=1.0)
        arguments = {"replications": 10, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            estimate_pivot_probabilities(fed, WeightedVotingGame((1, 1), HALF), model, **arguments)
        with pytest.raises(ValueError, match=name):
            ordering_match_rate(fed, model, **arguments)

    @pytest.mark.parametrize(
        "weights",
        [
            (2**62, 2**62, 2**62, 1),  # an int64 sum wraps and would credit the null player 4
            (2**63, 1),  # an int64 weight overflows
        ],
    )
    def test_rejects_total_weight_past_int64(self, weights):
        fed = FederationSpec.from_sizes((11,) * len(weights))
        with pytest.raises(ValueError, match="2\\^63"):
            estimate_pivot_probabilities(fed, WeightedVotingGame(weights, HALF), PreferenceModel(), 1000, 0)

    def test_single_constituency_always_pivotal(self):
        fed = FederationSpec.from_sizes((701,))
        game = WeightedVotingGame((5,), HALF)
        estimate = estimate_pivot_probabilities(fed, game, PreferenceModel(), 1000, 44)
        assert estimate.counts == (1000,)


class TestBlockThreads:
    FED = FederationSpec.from_sizes((1001, 500, 301, 77))
    GAME = WeightedVotingGame((4, 3, 2, 1), Fraction(3, 5))
    MODEL = PreferenceModel(cohesion=100.0)

    def test_results_do_not_depend_on_worker_count(self, monkeypatch):
        replications = 5 * BLOCK_SIZE + 1000
        results = []
        for cpus in (1, 3):
            monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
            results.append(
                (
                    estimate_pivot_probabilities(self.FED, self.GAME, self.MODEL, replications, 52),
                    ordering_match_rate(self.FED, self.MODEL, replications, 53),
                )
            )
        assert results[0] == results[1]

    def test_one_thread_per_cpu_and_none_for_one_block(self, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(simulation, "_available_cpus", lambda: 3)
        for replications in (BLOCK_SIZE, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE + 1):
            estimate_pivot_probabilities(self.FED, self.GAME, self.MODEL, replications, 54)
        assert sizes == [2, 3]


class TestConvergenceToPowerIndex:
    GAME = WeightedVotingGame((42, 25, 24, 9), HALF)
    SSI = np.array([float(v) for v in shapley_shubik(GAME)])

    def test_high_cohesion_matches_index(self):
        fed = FederationSpec.from_sizes((4_000_000, 2_500_000, 2_400_000, 900_000))
        estimate = estimate_pivot_probabilities(fed, self.GAME, PreferenceModel(cohesion=100.0), 100_000, 45)
        assert np.all(np.abs(estimate.pi_hat - self.SSI) <= 3 * estimate.std_err)

    def test_zero_cohesion_equal_sizes_matches_index(self):
        # i.i.d. delegate positions make every ordering equally likely
        fed = FederationSpec.from_sizes((1001,) * 4)
        estimate = estimate_pivot_probabilities(fed, self.GAME, PreferenceModel(cohesion=0.0), 100_000, 46)
        assert np.all(np.abs(estimate.pi_hat - self.SSI) <= 3 * estimate.std_err)

    def test_l1_gap_small_at_high_cohesion(self):
        fed = FederationSpec.from_sizes((10_000_000, 1_000_000, 100_000, 100_000))
        estimate = estimate_pivot_probabilities(fed, self.GAME, PreferenceModel(cohesion=100.0), 100_000, 47)
        gap = float(np.abs(estimate.pi_hat - self.SSI).sum())
        assert gap <= 4 * float(estimate.std_err.max())

    def test_small_equal_sizes_exact_by_symmetry(self):
        fed = FederationSpec.from_sizes((1000,) * 4)
        estimate = estimate_pivot_probabilities(fed, self.GAME, PreferenceModel(cohesion=100.0), 100_000, 48)
        assert np.all(np.abs(estimate.pi_hat - self.SSI) <= 4 * estimate.std_err)


class TestFairnessDeviation:
    def test_proportional_is_zero(self):
        fed = FederationSpec.from_sizes((42, 25, 24, 9))
        assert fairness_deviation(PivotEstimate((42, 25, 24, 9), 100, 0), fed) == 0.0

    def test_fixture(self):
        fed = FederationSpec.from_sizes((42, 25, 24, 9))
        value = fairness_deviation(PivotEstimate((3, 1, 1, 1), 6, 0), fed)  # (1/2, 1/6, 1/6, 1/6)
        assert value == pytest.approx(47 / 150, abs=1e-12)

    def test_dictatorship_over_half(self):
        fed = FederationSpec.from_sizes((5, 5))
        assert fairness_deviation(PivotEstimate((1, 0), 1, 0), fed) == pytest.approx(1.0)

    def test_matches_expanded_voter_level_sum(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            sizes = tuple(int(s) for s in rng.integers(1, 500, 5))
            fed = FederationSpec.from_sizes(sizes)
            counts = rng.multinomial(10_000, rng.dirichlet(np.ones(5)))
            total = fed.total_population
            expanded = sum(n * abs(c / 10_000 / n - 1 / total) for c, n in zip(counts.tolist(), sizes))
            value = fairness_deviation(PivotEstimate(tuple(counts), 10_000, 0), fed)
            assert value == pytest.approx(expanded, abs=1e-12)

    @pytest.mark.parametrize("pi", [[-1, 2], [1, 2], (F(1, 2), F(1, 2)), np.array([0.5, 0.5])])
    def test_refuses_anything_but_an_estimate(self, pi):
        # a bare vector need not hold probabilities: [-1, 2] would read 3.0
        with pytest.raises(TypeError, match="PivotEstimate"):
            fairness_deviation(pi, FederationSpec.from_sizes((1, 1)))

    def test_refuses_size_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            fairness_deviation(PivotEstimate((1, 1), 2, 0), FederationSpec.from_sizes((1, 1, 1)))


class TestOrderingMatchRate:
    def test_requires_positive_cohesion(self):
        fed = FederationSpec.from_sizes((100, 100))
        with pytest.raises(ValueError):
            ordering_match_rate(fed, PreferenceModel(cohesion=0.0), 100, 0)

    def test_matches_pairwise_normal_approximation(self):
        # two constituencies: discordance probability of two nearly normal
        # positions is arctan(shock sd ratio) / pi
        fed = FederationSpec.from_sizes((1_000_000, 1_000_000))
        for cohesion in (10.0, 50.0):
            model = PreferenceModel(cohesion=cohesion)
            rate = ordering_match_rate(fed, model, 200_000, 50)
            ratio = math.sqrt(median_shock_variance(1_000_000, UNIFORM)) / (cohesion * 1e-4)
            predicted = 1.0 - math.atan(ratio) / math.pi
            standard_error = math.sqrt(rate * (1 - rate) / 200_000)
            assert rate == pytest.approx(predicted, abs=5 * standard_error + 1e-4)

    def test_rate_increases_with_cohesion(self):
        fed = FederationSpec.from_sizes((1_000_000,) * 4)
        rates = [
            ordering_match_rate(fed, PreferenceModel(cohesion=t), 50_000, 51)
            for t in (1.0, 5.0, 25.0, 125.0)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))
