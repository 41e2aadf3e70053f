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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

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
    "fairness_deviation",
]

# replications per RNG substream; fixed so that results do not depend on how
# blocks are distributed across threads
BLOCK_SIZE = 1 << 15
# rows per chunk of positions: the shocks are drawn, and the pivots sorted
# and gathered, a sixteenth of a block at a time, so each thread holds one
# block of noise medians and about a fifth of a block of temporaries
PIVOT_CHUNK = 1 << 11


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
        from scipy.special import ndtri  # imported here, so that only normal noise needs scipy

        mean, std = self.params
        return mean + std * ndtri(u)

    def sample(self, rng: np.random.Generator, size):
        if self.name == "uniform":
            low, high = self.params
            return rng.uniform(low, high, size)
        mean, std = self.params
        return rng.normal(mean, std, size)


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
    with variance 1e-8.  Construction refuses a bool, negative or non-finite
    cohesion and a noise or shock that is not a ``Distribution``.
    """

    cohesion: float = 0.0
    idiosyncratic: Distribution = field(default=Distribution.uniform(-0.5, 0.5))
    constituency: Distribution = field(default=Distribution.normal(0.0, 1e-4))

    def __post_init__(self) -> None:
        if isinstance(self.cohesion, (bool, np.bool_)) or not (math.isfinite(self.cohesion) and self.cohesion >= 0):
            raise ValueError(f"cohesion must be finite and non-negative, got {self.cohesion!r}")
        for name in ("idiosyncratic", "constituency"):
            if not isinstance(getattr(self, name), Distribution):
                raise TypeError(f"{name} must be a Distribution, got {getattr(self, name)!r}")


def sample_median_shock(population: int, dist: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` samples from the distribution of the sample median of
    ``population`` i.i.d. draws from ``dist`` via the order-statistic shortcut.

    Odd n = 2k+1: the median of n uniforms is Beta(k+1, k+1), so one Beta
    draw pushed through the inverse CDF suffices.  Even n = 2k: the upper
    central order statistic is Beta(k+1, k); conditional on it, the lower
    one is that value times V^(1/k) with V uniform, and the median is the
    midpoint of the two.  Cost is O(1) draws per sample regardless of n.
    """
    population = _integer_at_least("population", population, 1)
    if population % 2 == 1:
        half = (population - 1) // 2
        return dist.ppf(rng.beta(half + 1, half + 1, size))
    half = population // 2
    upper = rng.beta(half + 1, half, size)
    uniform = rng.random(size)
    uniform[uniform == 0.0] = 1.0  # V on (0, 1]: V = 0 would give ppf(0) = -inf
    lower = upper * uniform ** (1.0 / half)
    return 0.5 * (dist.ppf(lower) + dist.ppf(upper))


def sample_median_brute(population: int, dist: Distribution, rng: np.random.Generator, size: int):
    """Median of ``population`` individual draws; oracle for the shortcut."""
    population = _integer_at_least("population", population, 1)
    draws = dist.sample(rng, (size, population))
    return np.median(draws, axis=1)


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


_pool_thread = threading.local()  # marks the threads of a ``_threaded`` pool


def _threaded(function, calls: Sequence[tuple]) -> list:
    """``function(*call)`` for every call, in order, on one thread per
    available CPU, at most one per call (numpy's samplers and sorts release
    the interpreter lock).  One call, or calls made on a pool thread, run
    inline: pools never nest, so a thread holds one call's memory at a time."""
    workers = min(_available_cpus(), len(calls))
    if workers == 1 or getattr(_pool_thread, "active", False):
        return [function(*call) for call in calls]

    def run(call):
        _pool_thread.active = True
        return function(*call)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, calls))


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, block_index)))


def _block_ideals(fed, model, seed, block_index, count, shared_order=False):
    """Yields (positions, order) for each ``PIVOT_CHUNK`` rows of one
    replication block, order being the stable row order of the chunk's
    unscaled shared shocks when asked, else None.  Draw order is fixed
    (noise medians per constituency, then the shock matrix row by row, as
    numpy fills one whole draw) so a block depends only on (seed, block
    index).  The medians are held in one array per chunk, a row per
    constituency: a block in one array would pass the 4 MiB at which numpy
    advises huge pages.  A chunk's positions, built in its shock buffer,
    equal ``cohesion * shared + noise`` bit for bit."""
    rng = _block_rng(seed, block_index)
    starts = range(0, count, PIVOT_CHUNK)
    noise = [np.empty((fed.num_constituencies, min(PIVOT_CHUNK, count - start))) for start in starts]
    for i, population in enumerate(fed.populations):
        medians = sample_median_shock(population, model.idiosyncratic, rng, count)
        for start, piece in zip(starts, noise):
            piece[i] = medians[start : start + PIVOT_CHUNK]
    for piece in noise:
        rows = piece.T
        if model.cohesion <= 0:
            yield rows, None
            continue
        shared = model.constituency.sample(rng, rows.shape)
        order = _sorted_order(shared, np.empty_like(shared)) if shared_order else None
        shared *= model.cohesion
        shared += rows
        yield shared, order


def _sorted_order(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.argsort(rows, axis=1, kind="stable")``, with the sorted rows
    left in ``values``, a float array of their shape (the rows, copied
    there first, may be strided).  numpy's default argsort, a SIMD sort
    where the CPU has one, is several times faster than the stable one but
    orders equal values arbitrarily.  A row whose sorted values strictly
    increase has one ascending order, so only the rest, those with an
    exact tie or a NaN, are sorted again, stably."""
    np.copyto(values, rows)
    order = np.argsort(values, axis=1)
    values.sort(axis=1)
    increasing = values[:, 1:] > values[:, :-1]
    if not increasing.all():
        tied = ~increasing.all(axis=1)
        order[tied] = np.argsort(rows[tied], axis=1, kind="stable")
    return order


def _pivot_counts(ideals: np.ndarray, game: WeightedVotingGame) -> np.ndarray:
    """How often each delegate is pivotal over the rows of ``ideals``
    (replications x delegates), a chunk of ``_block_ideals``.

    A row's pivot is the original index at the first spot, in ascending
    position order, where the cumulative weight exceeds ``game.bar``.
    Exact float ties (probability zero in the model) break toward the
    lower index.  One buffer takes the sorted positions and then the
    cumulative weights.
    """
    weights = np.asarray(game.weights, dtype=np.int64)
    cumulative = np.empty(ideals.shape, dtype=np.int64)
    order = _sorted_order(ideals, cumulative.view(np.float64))
    np.take(weights, order, out=cumulative, mode="clip")
    np.cumsum(cumulative, axis=1, out=cumulative)
    positions = np.argmax(cumulative > game.bar, axis=1)
    pivots = np.take_along_axis(order, positions[:, None], axis=1)
    return np.bincount(pivots[:, 0], minlength=game.num_players)


def _block_pivot_counts(fed, game, model, seed, block_index, count) -> np.ndarray:
    return sum(_pivot_counts(positions, game) for positions, _ in _block_ideals(fed, model, seed, block_index, count))


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
    own RNG substream derived from (seed, block index), through
    ``_threaded``: on one thread per available CPU, or all on the calling
    thread when that is a pool thread, as a row of ``run_experiment`` is.
    Each thread holds about one block of noise medians.  The block counts
    are summed as integers, so the estimate is bit identical to a serial
    run whatever the CPU count.  Weight totals of 2^63 or more, past the
    pivot kernel's int64 sums, are refused.
    """
    replications = _integer_at_least("replications", replications, 1)
    seed = _integer_at_least("seed", seed, 0)
    if game.num_players != fed.num_constituencies:
        raise ValueError("game and federation must have matching sizes")
    if game.total_weight >= 1 << 63:
        raise ValueError(f"total weight {game.total_weight} is not below 2^63")
    counts = _threaded(partial(_block_pivot_counts, fed, game, model, seed), _block_bounds(replications))
    return PivotEstimate(tuple(np.sum(counts, axis=0)), replications, seed)


def _block_ordering_matches(fed, model, seed, block_index, count) -> int:
    chunks = _block_ideals(fed, model, seed, block_index, count, shared_order=True)
    return sum(int((_sorted_order(p, np.empty_like(p)) == order).all(axis=1).sum()) for p, order in chunks)


def ordering_match_rate(fed: FederationSpec, model: PreferenceModel, replications: int, seed: int) -> float:
    """Fraction of replications in which the delegates' position order
    equals the order of the underlying shared shocks.  Requires positive
    cohesion (at zero the shared shocks play no role and the comparison is
    meaningless).  Blocks, substreams and threads are as in
    ``estimate_pivot_probabilities``, and so is the bit-identical result."""
    if model.cohesion <= 0:
        raise ValueError("ordering_match_rate requires cohesion > 0")
    replications = _integer_at_least("replications", replications, 1)
    seed = _integer_at_least("seed", seed, 0)
    matches = _threaded(partial(_block_ordering_matches, fed, model, seed), _block_bounds(replications))
    return sum(matches) / replications


def fairness_deviation(estimate: PivotEstimate, fed: FederationSpec) -> float:
    """L1 distance between all n voters' influence, their constituency's
    estimated pivot probability over its population, and the ideal 1/n each.

    Voters within a constituency share the same influence, so the n-term
    sum collapses to sum_i n_i * |pi_i / n_i - 1/n| = sum_i |pi_i - n_i/n|,
    which is how it is evaluated, in exact fractions.
    """
    if not isinstance(estimate, PivotEstimate):
        raise TypeError(f"fairness_deviation takes a PivotEstimate, got {type(estimate).__name__}")
    if len(estimate.counts) != fed.num_constituencies:
        raise ValueError("estimate and federation sizes differ")
    return float(sum(abs(p - s) for p, s in zip(estimate.exact_shares(), fed.shares())))
