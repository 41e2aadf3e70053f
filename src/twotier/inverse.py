"""Inverse power-index search: find a weighted voting game whose exact
Shapley-Shubik index is as close as possible to a target share vector.

Two solvers are provided.  ``solve_exhaustive`` scans every integer weight
vector up to a weight-sum bound (small player counts only) and certifies a
global optimum over that grid.  ``solve_local_search`` runs seeded
multi-restart hill climbing with exact index evaluations and works at any
player count, but certifies nothing.  Both compare candidates with an
exact integer key so ties and optima are platform independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .games import ResourceLimitError, WeightedVotingGame, canonicalize, enumerate_game_classes, exact_quota
from .power import shapley_shubik

__all__ = [
    "InverseProblemSpec",
    "InverseSolution",
    "distance",
    "largest_remainder",
    "solve_exhaustive",
    "solve_local_search",
]

_NORMS = ("l1", "l2", "linf")


def _norm_name(norm: str) -> str:
    name = norm.lower()
    if name not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
    return name


def distance(values: Sequence, target: Sequence, norm: str = "l1") -> float:
    """Distance between two equal-length vectors under l1, l2, or linf."""
    if len(values) != len(target):
        raise ValueError(f"length mismatch: {len(values)} vs {len(target)}")
    name = _norm_name(norm)
    diffs = [abs(float(v) - float(t)) for v, t in zip(values, target)]
    if name == "l1":
        return math.fsum(diffs)
    if name == "l2":
        return math.sqrt(math.fsum(d * d for d in diffs))
    return max(diffs)


def _distance_key(target: Sequence[Fraction], norm: str) -> Callable[[Sequence[Fraction]], int]:
    """Exact comparison key against ``target`` for index vectors of its
    length: the distance itself for l1/linf, the squared distance for l2
    (same ordering, avoids irrational square roots), each scaled by
    L = lcm(m!, target denominators) so that it is an integer.  Every index
    value is a multiple of 1/m!, so the scaling is exact and the order,
    ties included, is that of the rational distance."""
    scale = math.lcm(math.factorial(len(target)), *(t.denominator for t in target))
    goal = [t.numerator * (scale // t.denominator) for t in target]

    def key(values: Sequence[Fraction]) -> int:
        diffs = [abs(v.numerator * (scale // v.denominator) - g) for v, g in zip(values, goal)]
        if norm == "l1":
            return sum(diffs)
        if norm == "l2":
            return sum(d * d for d in diffs)
        return max(diffs)

    return key


def largest_remainder(shares: Sequence, total: int) -> list[int]:
    """Round non-negative shares to integers summing exactly to ``total``.

    Each entry gets the floor of its proportional quota; leftover units go
    to the largest fractional remainders (ties to the lower index).
    """
    if total < 1:
        raise ValueError("total must be positive")
    exact = [Fraction(s) for s in shares]
    if any(s < 0 for s in exact):
        raise ValueError("shares must be non-negative")
    pool = sum(exact)
    if pool <= 0:
        raise ValueError("shares must not all be zero")
    quotas = [s * total / pool for s in exact]
    base = [int(q) for q in quotas]  # floor: quotas are non-negative
    leftover = total - sum(base)
    order = sorted(range(len(exact)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


@dataclass(frozen=True)
class InverseProblemSpec:
    """Target shares plus search parameters for the inverse problem.

    ``target`` may be given as floats summing to 1 within 1e-9; it is stored
    exactly renormalized so that the components sum to exactly 1.
    """

    target: tuple[Fraction, ...]
    quota_ratio: Fraction = field(default=Fraction(1, 2))
    norm: str = "l1"
    weight_sum_bound: int = 100
    restarts: int = 25
    max_steps: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        raw = [Fraction(t) for t in self.target]
        if len(raw) < 1:
            raise ValueError("target must have at least one component")
        if any(t < 0 for t in raw):
            raise ValueError("target components must be non-negative")
        pool = sum(raw)
        if abs(float(pool) - 1.0) > 1e-9:
            raise ValueError(f"target components must sum to 1 within 1e-9, got {float(pool)}")
        object.__setattr__(self, "target", tuple(t / pool for t in raw))
        object.__setattr__(self, "quota_ratio", exact_quota(self.quota_ratio))
        object.__setattr__(self, "norm", _norm_name(self.norm))
        if self.weight_sum_bound < 1:
            raise ValueError("weight_sum_bound must be positive")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def num_players(self) -> int:
        return len(self.target)


@dataclass(frozen=True)
class InverseSolution:
    """A game, its exact index, and the achieved distance to the target.

    The distance is recomputed from (ssi, target) at construction; a
    solution claiming certified optimality must come from exhaustive search.
    """

    problem: InverseProblemSpec
    game: WeightedVotingGame
    ssi: tuple[Fraction, ...]
    distance: float
    method: str
    steps: int
    restarts_used: int
    optimality_certified: bool

    def __post_init__(self) -> None:
        recomputed = distance(self.ssi, self.problem.target, self.problem.norm)
        if abs(recomputed - self.distance) > 1e-12:
            raise ValueError(
                f"reported distance {self.distance} disagrees with recomputed {recomputed}"
            )
        if self.optimality_certified and self.method != "exhaustive":
            raise ValueError("only exhaustive search may certify optimality")


def _descending_partitions(total: int, parts: int, cap: int | None = None):
    """Non-increasing tuples of ``parts`` non-negative ints summing to
    ``total``, in lexicographically ascending order."""
    if parts == 1:
        if cap is None or total <= cap:
            yield (total,)
        return
    first_min = -(-total // parts)  # ceil: first part carries at least its share
    first_max = total if cap is None else min(total, cap)
    for first in range(first_min, first_max + 1):
        for rest in _descending_partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _target_order(target: Sequence[Fraction]) -> list[int]:
    """Positions sorted by descending target share (stable)."""
    return sorted(range(len(target)), key=lambda i: (-target[i], i))


def _align_to_target(sorted_weights: Sequence[int], target: Sequence[Fraction]) -> tuple[int, ...]:
    """Assign descending weights to positions so that larger targets get
    larger weights; optimal for any of the supported norms because sorting
    the weights also sorts the index (weight monotonicity)."""
    out = [0] * len(target)
    for rank, pos in enumerate(_target_order(target)):
        out[pos] = int(sorted_weights[rank])
    return tuple(out)


def solve_exhaustive(spec: InverseProblemSpec, budget: int = 10_000_000) -> InverseSolution:
    """Certified optimum over all weight vectors with sum <= weight_sum_bound.

    Only canonical classes are evaluated (one exact index computation per
    class); the representative realizing the optimum follows the tie-break
    (smaller weight sum, then lexicographically smallest sorted vector),
    which the (sum, lex) scan order yields for free.
    """
    m = spec.num_players
    if m > 6:
        raise ValueError(f"exhaustive search is limited to 6 players, got {m}")
    grid_size = math.comb(spec.weight_sum_bound + m, m)
    if grid_size > budget:
        raise ResourceLimitError(
            f"grid of {grid_size} weight vectors exceeds budget {budget}; lower weight_sum_bound"
        )

    distance_key = _distance_key(sorted(spec.target, reverse=True), spec.norm)
    seen: set = set()
    best_key: int | None = None
    best_vec: tuple[int, ...] | None = None
    scanned = 0
    for total in range(1, spec.weight_sum_bound + 1):
        for vec in _descending_partitions(total, m):
            scanned += 1
            game = WeightedVotingGame(vec, spec.quota_ratio)
            signature = canonicalize(game)
            if signature in seen:
                continue
            seen.add(signature)
            key = distance_key(shapley_shubik(game))
            if best_key is None or key < best_key:
                best_key = key
                best_vec = vec

    final_weights = _align_to_target(best_vec, spec.target)
    final_game = WeightedVotingGame(final_weights, spec.quota_ratio)
    ssi = shapley_shubik(final_game)
    return InverseSolution(
        problem=spec,
        game=final_game,
        ssi=ssi,
        distance=distance(ssi, spec.target, spec.norm),
        method="exhaustive",
        steps=scanned,
        restarts_used=0,
        optimality_certified=True,
    )


@lru_cache(maxsize=64)
def _seed_class_representatives(num_players: int, quota: Fraction) -> tuple[tuple[int, ...], ...]:
    """Small-weight representatives of every game class realizable with
    entries up to 4; cheap for few players and covers knife-edge classes
    (exact weight ties, coalitions sitting exactly at the quota) that
    roundings of random simplex points hit with probability zero."""
    enumeration = enumerate_game_classes(num_players, quota, weight_bound=4)
    return enumeration.representatives()


def _initial_points(spec: InverseProblemSpec) -> Iterable[tuple[int, ...]]:
    """Restart starts: the proportional rounding of the target first, then
    (for small games) one start per enumerated game class, then roundings
    of random simplex points whose sorted entries are assigned to positions
    in target order."""
    yield tuple(largest_remainder(spec.target, spec.weight_sum_bound))
    m = spec.num_players
    if m <= 6:
        for rep in _seed_class_representatives(m, spec.quota_ratio):
            yield _align_to_target(rep, spec.target)
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.restarts - 1):
        draw = np.sort(rng.dirichlet(np.ones(m)))[::-1]
        rounded = largest_remainder(draw.tolist(), spec.weight_sum_bound)
        yield _align_to_target(rounded, spec.target)


def solve_local_search(spec: InverseProblemSpec) -> InverseSolution:
    """Multi-restart hill climbing over integer weight vectors.

    Neighborhood is +-1 on a single coordinate (weights stay non-negative,
    not all zero); each step moves to the best strictly improving neighbor,
    evaluated with the exact index.  Deterministic for a fixed seed.  The
    first start is the proportional rounding of the target, so the result
    is never worse than that initialization.
    """
    quota = spec.quota_ratio
    distance_key = _distance_key(spec.target, spec.norm)
    cache: dict[tuple[int, ...], int] = {}

    def key_of(vec: tuple[int, ...]) -> int:
        cached = cache.get(vec)
        if cached is None:
            cached = distance_key(shapley_shubik(WeightedVotingGame(vec, quota)))
            cache[vec] = cached
        return cached

    best_vec: tuple[int, ...] | None = None
    best_key: int | None = None
    total_steps = 0
    restarts_used = 0
    for start in _initial_points(spec):
        restarts_used += 1
        current = start
        current_key = key_of(current)
        for _ in range(spec.max_steps):
            candidate = None
            candidate_key = current_key
            for i in range(len(current)):
                for delta in (1, -1):
                    value = current[i] + delta
                    if value < 0:
                        continue
                    neighbor = current[:i] + (value,) + current[i + 1 :]
                    if not any(neighbor):
                        continue
                    neighbor_key = key_of(neighbor)
                    if neighbor_key < candidate_key:
                        candidate = neighbor
                        candidate_key = neighbor_key
            if candidate is None:
                break
            current, current_key = candidate, candidate_key
            total_steps += 1
        if best_key is None or current_key < best_key:
            best_key = current_key
            best_vec = current

    final_game = WeightedVotingGame(best_vec, quota)
    ssi = shapley_shubik(final_game)
    return InverseSolution(
        problem=spec,
        game=final_game,
        ssi=ssi,
        distance=distance(ssi, spec.target, spec.norm),
        method="local_search",
        steps=total_steps,
        restarts_used=restarts_used,
        optimality_certified=False,
    )
