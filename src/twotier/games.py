"""Weighted voting games with exact rational quota arithmetic.

A game ``[q; w_1, ..., w_m]`` assigns a non-negative integer weight to each
of ``m`` players and declares a coalition winning iff its combined weight
strictly exceeds ``q`` times the total weight.  All win/lose decisions are
made in exact integer arithmetic: a coalition sitting exactly at the quota
loses, and no floating-point rounding can flip such knife-edge cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import Iterable

import numpy as np

__all__ = [
    "WeightedVotingGame",
    "CanonicalGameSignature",
    "GameClass",
    "GameClassEnumeration",
    "ResourceLimitError",
    "exact_quota",
    "canonicalize",
    "enumerate_game_classes",
]


# players above which canonical forms (2^m coalitions) are refused
_CANONICAL_MAX_PLAYERS = 20
# grid points, (weight_bound + 1)^m, above which enumeration is refused
_ENUMERATION_GRID_LIMIT = 20_000_000


class ResourceLimitError(RuntimeError):
    """An exact computation would exceed its fixed resource limit."""


def _integer_at_least(name: str, value, minimum: int) -> int:
    """``value`` as an int, or ValueError naming ``name`` when it is not an
    integer (a bool, or a float even with an integral value) or is below
    ``minimum``."""
    # the exact-type test first: the Integral check is slow, and games are built per scanned vector
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def exact_quota(value: Fraction | str | int) -> Fraction:
    """Coerce a relative quota to an exact Fraction in [1/2, 1).

    Floats are rejected on purpose: ``0.74`` has no exact binary
    representation, and a rounded quota silently moves coalitions that sit
    exactly at the threshold.  Pass ``Fraction(74, 100)`` or the string
    ``"0.74"`` (parsed as 37/50) instead.
    """
    if isinstance(value, float):
        raise TypeError(
            "quota must be a Fraction, string, or integer ratio, not float; "
            "pass e.g. Fraction(74, 100) or '0.74' for exactness"
        )
    quota = value if type(value) is Fraction else Fraction(value)
    if not quota.denominator <= 2 * quota.numerator < 2 * quota.denominator:
        raise ValueError(f"quota must satisfy 1/2 <= q < 1, got {quota}")
    return quota


@dataclass(frozen=True)
class WeightedVotingGame:
    """Weighted voting rule: coalition wins iff weight > quota_ratio * total.

    Weights are non-negative integers (at least one positive) and the quota
    is stored as an exact rational.  The absolute quota is always derived as
    ``quota_ratio * total_weight`` and never stored separately.
    """

    weights: tuple[int, ...]
    quota_ratio: Fraction = field(default=Fraction(1, 2))

    def __post_init__(self) -> None:
        weights = tuple(_integer_at_least("weight", w, 0) for w in self.weights)
        if len(weights) < 1:
            raise ValueError("a game needs at least one player")
        if not any(weights):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quota_ratio", exact_quota(self.quota_ratio))

    @property
    def num_players(self) -> int:
        return len(self.weights)

    @cached_property
    def total_weight(self) -> int:
        return sum(self.weights)

    @cached_property
    def bar(self) -> int:
        """Largest losing coalition weight, floor(quota_ratio * total_weight):
        an integer weight wins iff it exceeds the bar."""
        quota = self.quota_ratio
        return quota.numerator * self.total_weight // quota.denominator

    def wins_weight(self, weight: int) -> bool:
        """Exact test: does a coalition of this combined weight win?"""
        return weight > self.bar

    def coalition_weight(self, members: Iterable[int]) -> int:
        weight = 0
        for idx in set(members):
            if not 0 <= idx < self.num_players:
                raise IndexError(f"player index {idx} out of range for {self.num_players} players")
            weight += self.weights[idx]
        return weight

    def is_winning(self, members: Iterable[int]) -> bool:
        return self.wins_weight(self.coalition_weight(members))

    def to_text(self) -> str:
        """Serialize as ``q_num/q_den; w1,w2,...,wm``."""
        quota = self.quota_ratio
        return f"{quota.numerator}/{quota.denominator}; " + ",".join(map(str, self.weights))

    @classmethod
    def from_text(cls, text: str) -> "WeightedVotingGame":
        head, _, tail = text.partition(";")
        if not tail:
            raise ValueError(f"expected 'q_num/q_den; w1,...,wm', got {text!r}")
        try:
            quota = Fraction(head.strip())
            weights = tuple(int(part.strip()) for part in tail.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed game record {text!r}: {exc}") from None
        return cls(weights, quota)


@dataclass(frozen=True, order=True)
class CanonicalGameSignature:
    """Minimal winning coalitions after relabeling players by weight.

    Players are reordered by non-increasing weight and the minimal winning
    family is encoded as a sorted tuple of bitmasks.  Two games get equal
    signatures iff their winning families coincide up to a player
    permutation: equal weights make players interchangeable, so any sort
    order consistent with the weights yields the same family.
    """

    num_players: int
    minimal_winning: tuple[int, ...]


def canonicalize(game: WeightedVotingGame) -> CanonicalGameSignature:
    """Canonical signature of a game, invariant under player permutation
    and under scaling all weights by a positive integer.

    With the weights sorted non-increasing, a coalition's lightest member is
    its highest set bit i, so mask ``2^i + j`` without it is mask ``j``.  A
    winning coalition is minimal iff that one loses: removing the lightest
    member leaves the most weight of any single removal.
    """
    m = game.num_players
    if m > _CANONICAL_MAX_PLAYERS:
        raise ResourceLimitError(
            f"canonical form enumerates 2^{m} coalitions, above the {_CANONICAL_MAX_PLAYERS}-player cap"
        )
    subset = np.zeros(1 << m, dtype=np.int64)  # coalition weights, indexed by bitmask
    for i, w in enumerate(sorted(game.weights, reverse=True)):
        subset[1 << i : 2 << i] = subset[: 1 << i] + w
    winning = subset > game.bar
    minimal = np.zeros(1 << m, dtype=bool)
    for i in range(m):
        np.greater(winning[1 << i : 2 << i], winning[: 1 << i], out=minimal[1 << i : 2 << i])
    return CanonicalGameSignature(m, tuple(minimal.nonzero()[0].tolist()))


@dataclass(frozen=True)
class GameClass:
    signature: CanonicalGameSignature
    representative: tuple[int, ...]


@dataclass(frozen=True)
class GameClassEnumeration:
    """Distinct game classes over a bounded integer weight grid."""

    num_players: int
    quota_ratio: Fraction
    weight_bound: int
    classes: tuple[GameClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cls.representative for cls in self.classes)


def _descending_partitions(total: int, parts: int, cap: int):
    """Non-increasing tuples of ``parts`` non-negative ints summing to
    ``total``, each at most ``cap``, in lexicographically ascending order."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(-(-total // parts), min(total, cap) + 1):  # the first part is at least its share
        for rest in _descending_partitions(total - first, parts - 1, first):
            yield (first, *rest)


def enumerate_game_classes(num_players: int, quota: Fraction | str | int, weight_bound: int) -> GameClassEnumeration:
    """Enumerate structurally distinct games with weights in {0..weight_bound}.

    Every weight vector with entries up to the bound (and at least one
    positive entry) is canonicalized; the grid has (weight_bound+1)^m
    points, refused above ``_ENUMERATION_GRID_LIMIT``.  Only non-increasing
    vectors are visited, since the signature is permutation invariant, and
    they are visited in (weight sum, lexicographic) order, so the first
    vector of each class is its representative and the classes come in the
    order of their representatives.
    """
    if num_players < 1:
        raise ValueError("need at least one player")
    if weight_bound < 1:
        raise ValueError("weight bound must be positive")
    quota = exact_quota(quota)
    grid = (weight_bound + 1) ** num_players
    if grid > _ENUMERATION_GRID_LIMIT:
        raise ResourceLimitError(f"grid of {grid} weight vectors exceeds the limit {_ENUMERATION_GRID_LIMIT}")

    representatives: dict[CanonicalGameSignature, tuple[int, ...]] = {}
    for total in range(1, num_players * weight_bound + 1):
        for vec in _descending_partitions(total, num_players, weight_bound):
            representatives.setdefault(canonicalize(WeightedVotingGame(vec, quota)), vec)
    classes = tuple(GameClass(sig, rep) for sig, rep in representatives.items())
    return GameClassEnumeration(num_players, quota, weight_bound, classes)
