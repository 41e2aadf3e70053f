"""Inverse power-index search: find a weighted voting game whose exact
Shapley-Shubik index is as close as possible to a target share vector.

Two solvers are provided.  ``solve_exhaustive`` scans every integer weight
vector up to a weight-sum bound (small player counts only) and certifies a
global optimum over that grid.  ``solve_local_search`` runs seeded
multi-restart hill climbing with exact index evaluations and works at any
player count, but certifies nothing.  Both compare candidates with an
exact integer key so ties and optima are platform independent.  ``solve``
picks one by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .games import WeightedVotingGame, canonicalize, enumerate_game_classes, exact_quota
from .games import _class_firsts, _integer_at_least
from .power import _moved_pivots, _step_table, shapley_shubik

__all__ = [
    "SOLVER_METHODS",
    "InverseProblemSpec",
    "InverseSolution",
    "distance",
    "largest_remainder",
    "solve",
    "solve_exhaustive",
    "solve_local_search",
]

_NORMS = ("l1", "l2", "linf")
SOLVER_METHODS = ("auto", "exhaustive", "local")
# players up to which exhaustive search runs and class representatives seed
# local search
_EXHAUSTIVE_MAX_PLAYERS = 6
# moves a local-search step scores at a time, in gap order: on eu28 at bound
# 500, 4 lands in a worse minimum with one restart and 8 with three
_BATCH = 6


def _norm_name(norm: str) -> str:
    name = norm.lower() if isinstance(norm, str) else None
    if name not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
    return name


def distance(values: Sequence, target: Sequence, norm: str = "l1") -> float:
    """Distance between two equal-length vectors under l1, l2, or linf."""
    if len(values) != len(target):
        raise ValueError(f"length mismatch: {len(values)} vs {len(target)}")
    name = _norm_name(norm)
    for label, vector in (("values", values), ("target", target)):
        if not all(math.isfinite(x) for x in vector):
            raise ValueError(f"{label} must be finite, got {list(vector)}")
    diffs = [abs(float(v) - float(t)) for v, t in zip(values, target)]
    if name == "l1":
        return math.fsum(diffs)
    if name == "l2":
        return math.sqrt(math.fsum(d * d for d in diffs))
    return max(diffs)


def _numerator_key(target: Sequence[Fraction], norm: str) -> Callable[[Sequence[int]], int]:
    """Exact comparison key against ``target`` for index numerators (index
    values times m!, m the length of ``target``): the distance itself for
    l1/linf, the squared distance for l2 (same ordering, avoids irrational
    square roots), each scaled by L = lcm(m!, target denominators) so that
    it is an integer.  The scaling is exact, so the order, ties included, is
    that of the rational distance.  The key carries its ``unit`` and
    ``goal``: goal - numerator * unit is a player's signed gap in its units."""
    m_fact = math.factorial(len(target))
    scale = math.lcm(m_fact, *(t.denominator for t in target))
    unit = scale // m_fact
    goal = [t.numerator * (scale // t.denominator) for t in target]

    def key(numerators: Sequence[int]) -> int:
        diffs = [abs(n * unit - g) for n, g in zip(numerators, goal)]
        if norm == "l1":
            return sum(diffs)
        if norm == "l2":
            return sum(d * d for d in diffs)
        return max(diffs)

    key.unit, key.goal = unit, goal
    return key


def _fractions(name: str, values: Sequence) -> list[Fraction]:
    """``values`` as exact Fractions, or ValueError naming ``name`` for a
    zero denominator or a value that is no finite number (inf, NaN, or a
    string Fraction cannot parse)."""
    try:
        return [Fraction(v) for v in values]
    except ZeroDivisionError:
        raise ValueError(f"{name} {values} has a zero denominator") from None
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be finite numbers, got {values}") from None


def largest_remainder(shares: Sequence, total: int) -> list[int]:
    """Round non-negative shares to integers summing exactly to ``total``.

    Each entry gets the floor of its proportional quota; leftover units go
    to the largest fractional remainders (ties to the lower index).
    """
    total = _integer_at_least("total", total, 1)
    exact = _fractions("shares", shares)
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


def _check_integer(owner, name: str, minimum: int) -> None:
    """Store field ``name`` of the frozen dataclass ``owner`` as an int, or
    raise ValueError naming it (see ``games._integer_at_least``)."""
    object.__setattr__(owner, name, _integer_at_least(name, getattr(owner, name), minimum))


def _check_search_parameters(owner) -> None:
    """The search fields shared by ``InverseProblemSpec`` and the solver
    options of an experiment."""
    for name, minimum in (("weight_sum_bound", 1), ("restarts", 1), ("max_steps", 0), ("seed", 0)):
        _check_integer(owner, name, minimum)


@dataclass(frozen=True)
class InverseProblemSpec:
    """Target shares plus search parameters for the inverse problem.

    ``target`` may be given as floats summing to 1 within 1e-9; it is stored
    exactly renormalized so that the components sum to exactly 1.

    ``weight_sum_bound`` is a real bound for exhaustive search.  Local
    search uses it only as the weight sum of its starts: its +-1 steps can
    leave it (eu28 at bound 500 ends at sums 508 and 516).
    """

    target: tuple[Fraction, ...]
    quota_ratio: Fraction = field(default=Fraction(1, 2))
    norm: str = "l1"
    weight_sum_bound: int = 100
    restarts: int = 25
    max_steps: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        raw = _fractions("target", self.target)
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
        _check_search_parameters(self)

    @property
    def num_players(self) -> int:
        return len(self.target)


@dataclass(frozen=True)
class InverseSolution:
    """A game, its exact index, and the achieved distance to the target.

    ``ssi``, ``distance`` and ``optimality_certified`` are computed at
    construction from the game, the problem and the method: only
    exhaustive search certifies optimality.  ``evaluations`` counts the
    exact index evaluations the search made: one per canonical class for
    exhaustive search, one per distinct weight vector scored (starts
    included) for local search.
    """

    problem: InverseProblemSpec
    game: WeightedVotingGame
    ssi: tuple[Fraction, ...] = field(init=False)
    distance: float = field(init=False)
    method: str
    steps: int
    restarts_used: int
    optimality_certified: bool = field(init=False)
    evaluations: int = 0

    def __post_init__(self) -> None:
        ssi = shapley_shubik(self.game)
        object.__setattr__(self, "ssi", ssi)
        object.__setattr__(self, "distance", distance(ssi, self.problem.target, self.problem.norm))
        object.__setattr__(self, "optimality_certified", self.method == "exhaustive")


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


def solve_exhaustive(spec: InverseProblemSpec) -> InverseSolution:
    """Certified optimum over all weight vectors with sum <= weight_sum_bound.

    The non-increasing vectors are scanned in (sum, lexicographic) order
    (``games._class_firsts``, refused past its limit: 6 players pass it at
    weight sum 121), and only the first vector of each canonical class is
    evaluated (one exact index computation per class, aligned to the
    target); the representative realizing the optimum follows the tie-break
    (smaller weight sum, then lexicographically smallest sorted vector),
    which the scan order yields for free.
    """
    m = spec.num_players
    if m > _EXHAUSTIVE_MAX_PLAYERS:
        raise ValueError(f"exhaustive search is limited to {_EXHAUSTIVE_MAX_PLAYERS} players, got {m}")
    firsts, scanned = _class_firsts(m, spec.quota_ratio, spec.weight_sum_bound, spec.weight_sum_bound)
    classes = {canonicalize(WeightedVotingGame(vec, spec.quota_ratio)): vec for vec in firsts}
    keys = _NeighbourKeys(spec)
    aligned = (_align_to_target(vec, spec.target) for vec in classes.values())
    best_vec = min(aligned, key=keys.of)  # the first of equal keys
    return InverseSolution(spec, WeightedVotingGame(best_vec, spec.quota_ratio), "exhaustive", scanned, 0, len(classes))


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
    if m <= _EXHAUSTIVE_MAX_PLAYERS:
        for rep in _seed_class_representatives(m, spec.quota_ratio):
            yield _align_to_target(rep, spec.target)
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.restarts - 1):
        draw = np.sort(rng.dirichlet(np.ones(m)))[::-1]
        rounded = largest_remainder(draw.tolist(), spec.weight_sum_bound)
        yield _align_to_target(rounded, spec.target)


class _NeighbourKeys:
    """Exact distance keys of weight vectors for one inverse problem,
    cached by vector: ``_numerator_key`` of the game's integer index
    numerators, with no Fraction built.  A vector keyed alone reads the
    numerators of its game's pivot pass (``WeightedVotingGame._pivots``).
    A descent step keys its +-1 neighbours in gap order, a batch at a time
    (``batches``), from one step table: ``held`` is a vector and its table,
    the last step's, which ``power._step_table`` edits into the next step's
    where it can.  Both come from one gather."""

    def __init__(self, spec: InverseProblemSpec):
        self.quota = spec.quota_ratio
        self.numerator_key = _numerator_key(spec.target, spec.norm)
        self.unit, self.goal = self.numerator_key.unit, self.numerator_key.goal
        self.cache: dict[tuple[int, ...], int] = {}
        self.held: tuple[tuple[int, ...], np.ndarray | None] = ((), None)

    def numerators(self, vec: tuple[int, ...]) -> dict[int, int]:
        """Numerators per weight of ``vec``'s game from its pivot pass,
        keying ``vec`` if it is not keyed yet."""
        numerators = {w: v for w, (_, v) in WeightedVotingGame(vec, self.quota)._pivots.items()}
        if vec not in self.cache:
            self.cache[vec] = self.numerator_key([numerators[w] for w in vec])
        return numerators

    def of(self, vec: tuple[int, ...]) -> int:
        """Key of one vector."""
        if vec not in self.cache:
            self.numerators(vec)
        return self.cache[vec]

    def batches(
        self, current: tuple[int, ...], numerators: dict[int, int]
    ) -> Iterator[list[tuple[tuple[int, ...], int, dict[int, int] | None]]]:
        """The +-1 neighbours of ``current`` (weights non-negative, not all
        zero), whose numerators per weight are ``numerators``, ``_BATCH`` at
        a time by descending gap * delta: first the moves that narrow a gap,
        +1 of under-powered and -1 of over-powered players interleaved by
        gap size, and last those that widen one; ties by player, +1 first.
        Each comes with its key and its game's numerators per weight, or
        None where the step scored no move to its weights.

        The first batch with moves (delta, u) not yet scored takes the step
        table into ``held`` (``power._step_table``, which refuses a new
        table past the DP budget before building it), and takes it again
        only if a later step took it since; each such batch scores those
        moves on it in one ``power._moved_pivots`` call."""
        gaps = [g - numerators[w] * self.unit for g, w in zip(self.goal, current)]
        total = sum(current)
        moves = [(i, d) for i, d in itertools.product(range(len(current)), (1, -1)) if current[i] + d >= 0 and total + d > 0]
        moves.sort(key=lambda m: (-gaps[m[0]] * m[1], m[0], -m[1]))
        table, scored = None, {}
        for at in range(0, len(moves), _BATCH):
            chunk = [(current[:i] + (current[i] + d,) + current[i + 1 :], (d, current[i])) for i, d in moves[at : at + _BATCH]]
            pending = [move for v, move in chunk if v not in self.cache and move not in scored]
            if pending:
                if self.held[1] is not table or self.held[0] != current:  # not taken yet, or a later step took it
                    table = _step_table(*self.held, current, self.quota)
                    self.held = current, table
                scored.update(_moved_pivots(current, self.quota, table, pending))
            for neighbour, move in chunk:  # one weight multiset per move: the same numerators per weight
                if neighbour not in self.cache:
                    self.cache[neighbour] = self.numerator_key([scored[move][w] for w in neighbour])
            yield [(neighbour, self.cache[neighbour], scored.get(move)) for neighbour, move in chunk]


def solve_local_search(spec: InverseProblemSpec) -> InverseSolution:
    """Multi-restart hill climbing over integer weight vectors.

    Neighborhood is +-1 on a single coordinate (weights stay non-negative,
    not all zero), evaluated with the exact index.  A step scores the moves
    in gap order, ``_BATCH`` at a time (``_NeighbourKeys.batches``), and
    moves to the best strictly improving neighbor of the first batch that
    holds one; a step with none ends the descent, so only a descent's last
    step scores every neighbor.  Deterministic for a fixed seed.  The first
    start is the proportional rounding of the target, so the result is
    never worse than that initialization.  ``weight_sum_bound`` sets only
    the weight sum of the starts: steps change the sum by one and may end
    above the bound (eu28 at bound 500 ends at 508 and 516).
    """
    keys = _NeighbourKeys(spec)
    best_vec: tuple[int, ...] | None = None
    best_key: int | None = None
    total_steps = 0
    restarts_used = 0
    for start in _initial_points(spec):
        restarts_used += 1
        current, numerators = start, keys.numerators(start)
        current_key = keys.of(current)
        for _ in range(spec.max_steps):
            for batch in keys.batches(current, numerators):
                candidate, candidate_key, moved = min(batch, key=lambda scored: scored[1])  # the first of equal keys
                if candidate_key < current_key:
                    break
            else:
                break
            current, current_key = candidate, candidate_key
            numerators = moved or keys.numerators(current)
            total_steps += 1
        if best_key is None or current_key < best_key:
            best_key = current_key
            best_vec = current

    game = WeightedVotingGame(best_vec, spec.quota_ratio)
    return InverseSolution(spec, game, "local_search", total_steps, restarts_used, len(keys.cache))


def solve(
    spec: InverseProblemSpec,
    method: str = "auto",
    *,
    local_search: Callable[[InverseProblemSpec], InverseSolution] | None = None,
) -> InverseSolution:
    """Solve the inverse problem with ``method``: "exhaustive", "local", or
    "auto", which takes exhaustive search (certified) up to
    ``_EXHAUSTIVE_MAX_PLAYERS`` (6) players and local search beyond.

    ``local_search`` stands in for ``solve_local_search``: a caller passes
    its own module's binding so that a wrapper installed on that binding
    (bench/spans.py traces ``experiments.solve_local_search``) sees the call.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"unknown solver method {method!r}; supported: {SOLVER_METHODS}")
    if method == "auto":
        method = "exhaustive" if spec.num_players <= _EXHAUSTIVE_MAX_PLAYERS else "local"
    if method == "exhaustive":
        return solve_exhaustive(spec)
    return (local_search or solve_local_search)(spec)
