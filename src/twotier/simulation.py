"""Monte Carlo engine for a two-tier median-voter model.

Each constituency elects one delegate whose position is the median ideal
point of its voters.  A voter's ideal point is ``cohesion * shared + noise``
where ``shared`` is a constituency-level shock (one draw per constituency,
distribution H) and ``noise`` is voter-specific (distribution G).  The
assembly adopts the position of the delegate at the first spot, in
ascending position order, where the cumulative voting weight strictly
exceeds the quota.  The simulator estimates each delegate's probability of
being that pivotal member and the resulting deviation from equal influence
of all individual voters.

Sampling the median of a multi-million-voter constituency never
materializes individual voters: the sample median of n i.i.d. draws from a
continuous G equals G^-1 applied to a Beta-distributed uniform order
statistic, which is an exact identity, not an approximation.  A brute-force
sampler is kept as a test oracle.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .games import WeightedVotingGame, _integer_at_least

__all__ = [
    "Distribution",
    "FederationSpec",
    "PreferenceModel",
    "PivotEstimate",
    "sample_median_shock",
    "sample_median_brute",
    "estimate_pivot_probabilities",
    "ordering_match_rate",
    "median_shock_variance",
    "voter_influence",
    "fairness_deviation",
]

# replications per RNG substream; fixed so that results do not depend on how
# blocks are distributed across threads
BLOCK_SIZE = 1 << 15
# rows per pivot-search chunk: a quarter block keeps the sort and gather
# temporaries of each thread well below the block of positions it holds
PIVOT_CHUNK = 1 << 13


@dataclass(frozen=True)
class Distribution:
    """Continuous distribution given by name and parameters.

    Supported: ``uniform`` with params (low, high) and ``normal`` with
    params (mean, std).  Both have positive density at their median and
    finite variance, as the model requires.
    """

    name: str
    params: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.params) != 2 or not all(math.isfinite(p) for p in self.params):
            raise ValueError(f"distribution parameters must be two finite numbers, got {self.params}")
        if self.name == "uniform":
            low, high = self.params
            if not high > low:
                raise ValueError(f"uniform needs high > low, got ({low}, {high})")
        elif self.name == "normal":
            _, std = self.params
            if not std > 0:
                raise ValueError(f"normal needs std > 0, got {std}")
        else:
            raise ValueError(f"unknown distribution {self.name!r}; supported: uniform, normal")

    @classmethod
    def uniform(cls, low: float = -0.5, high: float = 0.5) -> "Distribution":
        return cls("uniform", (low, high))

    @classmethod
    def normal(cls, mean: float = 0.0, std: float = 1.0) -> "Distribution":
        return cls("normal", (mean, std))

    def ppf(self, probabilities):
        """Inverse CDF, vectorized."""
        u = np.asarray(probabilities, dtype=np.float64)
        if self.name == "uniform":
            low, high = self.params
            return low + (high - low) * u
        mean, std = self.params
        return mean + std * ndtri(u)

    def sample(self, rng: np.random.Generator, size):
        if self.name == "uniform":
            low, high = self.params
            return rng.uniform(low, high, size)
        mean, std = self.params
        return rng.normal(mean, std, size)

    @property
    def variance(self) -> float:
        if self.name == "uniform":
            low, high = self.params
            return (high - low) ** 2 / 12.0
        return self.params[1] ** 2


@dataclass(frozen=True)
class FederationSpec:
    """Named constituencies with positive integer population sizes.  Names
    are distinct, non-empty and unpadded, as a federation CSV holds them."""

    names: tuple[str, ...]
    populations: tuple[int, ...]

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        populations = tuple(_integer_at_least("population", p, 1) for p in self.populations)
        if len(names) != len(populations):
            raise ValueError("names and populations must have equal length")
        if len(populations) < 1:
            raise ValueError("a federation needs at least one constituency")
        if len(set(names)) < len(names) or not all(name and name == name.strip() for name in names):
            raise ValueError(f"constituency names must be distinct, non-empty and unpadded, got {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "populations", populations)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "FederationSpec":
        return cls(tuple(f"C{i + 1}" for i in range(len(sizes))), tuple(sizes))

    @property
    def num_constituencies(self) -> int:
        return len(self.populations)

    @property
    def total_population(self) -> int:
        return sum(self.populations)

    def shares(self) -> tuple[Fraction, ...]:
        """Exact relative population sizes; sums to exactly 1."""
        total = self.total_population
        return tuple(Fraction(p, total) for p in self.populations)


@dataclass(frozen=True)
class PreferenceModel:
    """Voter preference model: ideal point = cohesion * shared + noise.

    ``cohesion`` scales the constituency-level shock and so controls how
    similar opinions are within a constituency relative to across them.
    Defaults: voter noise uniform on [-0.5, 0.5], constituency shock normal
    with variance 1e-8.
    """

    cohesion: float = 0.0
    idiosyncratic: Distribution = field(default=Distribution.uniform(-0.5, 0.5))
    constituency: Distribution = field(default=Distribution.normal(0.0, 1e-4))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cohesion) and self.cohesion >= 0):
            raise ValueError(f"cohesion must be finite and non-negative, got {self.cohesion}")


def sample_median_shock(population: int, dist: Distribution, rng: np.random.Generator, size=None):
    """Draw from the distribution of the sample median of ``population``
    i.i.d. draws from ``dist`` via the order-statistic shortcut.

    Odd n = 2k+1: the median of n uniforms is Beta(k+1, k+1), so one Beta
    draw pushed through the inverse CDF suffices.  Even n = 2k: the upper
    central order statistic is Beta(k+1, k); conditional on it, the lower
    one is that value times V^(1/k) with V uniform, and the median is the
    midpoint of the two.  Cost is O(1) draws per sample regardless of n.
    """
    population = _integer_at_least("population", population, 1)
    count = 1 if size is None else size
    if population % 2 == 1:
        half = (population - 1) // 2
        med = dist.ppf(rng.beta(half + 1, half + 1, count))
    else:
        half = population // 2
        upper = rng.beta(half + 1, half, count)
        uniform = rng.random(count)
        uniform[uniform == 0.0] = 1.0  # V on (0, 1]: V = 0 would give ppf(0) = -inf
        lower = upper * uniform ** (1.0 / half)
        med = 0.5 * (dist.ppf(lower) + dist.ppf(upper))
    return float(med[0]) if size is None else med


def sample_median_brute(population: int, dist: Distribution, rng: np.random.Generator, size: int):
    """Median of ``population`` individual draws; oracle for the shortcut."""
    population = _integer_at_least("population", population, 1)
    draws = dist.sample(rng, (size, population))
    return np.median(draws, axis=1)


def median_shock_variance(population: int, dist: Distribution) -> float:
    """Variance of the sample median of ``population`` draws: the model's
    formula for the spread of a constituency's median shock, which the
    tests check against draws of the Beta identity in
    ``sample_median_shock``.

    Exact (from Beta order-statistic moments) for uniform distributions;
    the large-sample expression pi * sigma^2 / (2n) for normal ones.
    """
    n = _integer_at_least("population", population, 1)
    if dist.name == "uniform":
        low, high = dist.params
        scale = (high - low) ** 2
        if n % 2 == 1:
            return scale / (4.0 * (n + 2))
        half = n // 2
        denom = (n + 1) ** 2 * (n + 2)
        var_low = half * (n + 1 - half) / denom
        var_high = (half + 1) * (n - half) / denom
        cov = half * (n - half) / denom
        return scale * (var_low + var_high + 2.0 * cov) / 4.0
    return math.pi * dist.variance / (2.0 * n)


@dataclass(frozen=True)
class PivotEstimate:
    """Estimated pivot probabilities with binomial standard errors.

    Stored as integer per-constituency counts; every replication credits
    exactly one constituency, so the counts sum to the replication total
    and the estimated shares sum to exactly 1.  Construction refuses
    counts that are not non-negative integers summing to ``replications``,
    itself at least 1.
    """

    counts: tuple[int, ...]
    replications: int
    seed: int

    def __post_init__(self) -> None:
        replications = _integer_at_least("replications", self.replications, 1)
        counts = tuple(_integer_at_least("counts", c, 0) for c in self.counts)
        if sum(counts) != replications:
            raise ValueError(f"counts {counts} must sum to replications = {replications}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "replications", replications)

    @property
    def pi_hat(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=np.float64) / self.replications

    @property
    def std_err(self) -> np.ndarray:
        p = self.pi_hat
        return np.sqrt(p * (1.0 - p) / self.replications)

    def exact_shares(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.replications) for c in self.counts)


def _block_bounds(replications: int) -> list[tuple[int, int]]:
    """(block index, replication count) of every block."""
    starts = range(0, replications, BLOCK_SIZE)
    return [(index, min(BLOCK_SIZE, replications - start)) for index, start in enumerate(starts)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(replications: int, run_block) -> list:
    """``run_block(block_index, count)`` for every block, in block order.

    Blocks run on one thread per available CPU (at most one per block); the
    numpy samplers, ``ndtri`` and ``argsort`` release the interpreter lock,
    so the threads overlap.  One block runs inline.
    """
    blocks = _block_bounds(replications)
    workers = min(_available_cpus(), len(blocks))
    if workers == 1:
        return [run_block(index, count) for index, count in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_block, *zip(*blocks)))


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, block_index)))


def _block_ideals(fed, model, seed, block_index, count, shared_order=False):
    """Delegate positions for one replication block and, when asked, the
    stable row order of the unscaled shared shocks (else None).

    Draw order is fixed (noise medians per constituency, then the shared
    shock matrix) so a block's content depends only on (seed, block index).
    The positions are built in place and equal ``cohesion * shared + noise``
    bit for bit.
    """
    rng = _block_rng(seed, block_index)
    m = fed.num_constituencies
    ideals = np.empty((count, m))
    for i, population in enumerate(fed.populations):
        ideals[:, i] = sample_median_shock(population, model.idiosyncratic, rng, count)
    order = None
    if model.cohesion > 0:
        shared = model.constituency.sample(rng, (count, m))
        if shared_order:
            order = np.argsort(shared, axis=1, kind="stable")
        shared *= model.cohesion
        ideals += shared
    return ideals, order


def _pivot_counts(ideals: np.ndarray, game: WeightedVotingGame) -> np.ndarray:
    """How often each delegate is pivotal over the rows of ``ideals``
    (replications x delegates).

    A row's pivot is the original index at the first spot, in ascending
    position order, where the cumulative weight exceeds ``game.bar``.
    Exact float ties (probability zero in the model) break toward the
    lower index.  Rows are taken ``PIVOT_CHUNK`` at a time so that the
    sort and gather temporaries stay a fraction of the block.
    """
    weights = np.asarray(game.weights, dtype=np.int64)
    counts = np.zeros(game.num_players, dtype=np.int64)
    for start in range(0, len(ideals), PIVOT_CHUNK):
        order = np.argsort(ideals[start : start + PIVOT_CHUNK], axis=1, kind="stable")
        cumulative = np.take(weights, order)
        np.cumsum(cumulative, axis=1, out=cumulative)
        positions = np.argmax(cumulative > game.bar, axis=1)
        pivots = np.take_along_axis(order, positions[:, None], axis=1)
        counts += np.bincount(pivots[:, 0], minlength=game.num_players)
    return counts


def _block_pivot_counts(fed, game, model, seed, block_index, count) -> np.ndarray:
    ideals, _ = _block_ideals(fed, model, seed, block_index, count)
    return _pivot_counts(ideals, game)


def estimate_pivot_probabilities(
    fed: FederationSpec,
    game: WeightedVotingGame,
    model: PreferenceModel,
    replications: int,
    seed: int,
) -> PivotEstimate:
    """Estimate each delegate's pivot probability over independent
    replications.

    Replications are processed in blocks of ``BLOCK_SIZE``, each with its
    own RNG substream derived from (seed, block index), on one thread per
    available CPU; each thread holds about one block of positions.  The
    per-block counts are summed as integers, so the estimate is bit
    identical to a serial run whatever the CPU count.  Weight totals of
    2^63 or more, past the pivot kernel's int64 sums, are refused.
    """
    replications = _integer_at_least("replications", replications, 1)
    seed = _integer_at_least("seed", seed, 0)
    if game.num_players != fed.num_constituencies:
        raise ValueError("game and federation must have matching sizes")
    if game.total_weight >= 1 << 63:
        raise ValueError(f"total weight {game.total_weight} is not below 2^63")
    counts = np.sum(_map_blocks(replications, partial(_block_pivot_counts, fed, game, model, seed)), axis=0)
    return PivotEstimate(tuple(counts), replications, seed)


def _block_ordering_matches(fed, model, seed, block_index, count) -> int:
    ideals, shared_order = _block_ideals(fed, model, seed, block_index, count, shared_order=True)
    matches = 0
    for start in range(0, count, PIVOT_CHUNK):
        rows = slice(start, start + PIVOT_CHUNK)
        same = np.argsort(ideals[rows], axis=1, kind="stable") == shared_order[rows]
        matches += int(same.all(axis=1).sum())
    return matches


def ordering_match_rate(
    fed: FederationSpec, model: PreferenceModel, replications: int, seed: int
) -> float:
    """Fraction of replications in which the delegates' position order
    equals the order of the underlying shared shocks.  Requires positive
    cohesion (at zero the shared shocks play no role and the comparison is
    meaningless).  Blocks, substreams and threads are as in
    ``estimate_pivot_probabilities``, and so is the bit-identical result."""
    if model.cohesion <= 0:
        raise ValueError("ordering_match_rate requires cohesion > 0")
    replications = _integer_at_least("replications", replications, 1)
    seed = _integer_at_least("seed", seed, 0)
    return sum(_map_blocks(replications, partial(_block_ordering_matches, fed, model, seed))) / replications


def _pivot_values(pi) -> list:
    if isinstance(pi, PivotEstimate):
        return list(pi.exact_shares())
    return list(pi)


def voter_influence(pi, fed: FederationSpec):
    """Per-constituency influence of a single voter: pivot probability
    divided by population.  Exact fractions in, exact fractions out;
    float vectors yield a float array."""
    values = _pivot_values(pi)
    if len(values) != fed.num_constituencies:
        raise ValueError("pivot vector and federation sizes differ")
    if all(isinstance(v, (Fraction, int)) for v in values):
        return [Fraction(v) / n for v, n in zip(values, fed.populations)]
    return np.asarray(values, dtype=np.float64) / np.asarray(fed.populations, dtype=np.float64)


def fairness_deviation(pi, fed: FederationSpec) -> float:
    """L1 distance between all n voters' influence and the ideal 1/n each.

    Voters within a constituency share the same influence, so the n-term
    sum collapses to sum_i n_i * |pi_i / n_i - 1/n| = sum_i |pi_i - n_i/n|,
    which is how it is evaluated.
    """
    values = _pivot_values(pi)
    if len(values) != fed.num_constituencies:
        raise ValueError("pivot vector and federation sizes differ")
    shares = fed.shares()
    return float(sum(abs(Fraction(v) - s) for v, s in zip(values, shares)))
