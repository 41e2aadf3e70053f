"""Weighted voting games with exact rational quota arithmetic.

A game ``[q; w_1, ..., w_m]`` assigns a non-negative integer weight to each
of ``m`` players and declares a coalition winning iff its combined weight
strictly exceeds ``q`` times the total weight.  All win/lose decisions are
made in exact integer arithmetic: a coalition sitting exactly at the quota
loses, and no floating-point rounding can flip such knife-edge cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from types import MappingProxyType
from typing import Mapping

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
# scanned vectors times their 2^m coalitions above which a class scan is refused
_SCAN_CELL_LIMIT = 10**7 << 6
# bytes of coalition weights one chunk of ``_minimal_winning_rows`` or of a class scan holds
_CANONICAL_CHUNK_BYTES = 1 << 19


class ResourceLimitError(RuntimeError):
    """An exact computation would exceed its fixed resource limit."""


def _bar(quota: Fraction, total: int) -> int:
    """Largest losing coalition weight, floor(quota * total), of a game of
    weight total ``total``: an integer weight wins iff it exceeds the bar."""
    return quota.numerator * total // quota.denominator


def _integer_at_least(name: str, value, minimum: int) -> int:
    """``value`` as an int, or ValueError naming ``name`` when it is not an
    integer (a bool, or a float even with an integral value) or is below
    ``minimum``."""
    # the exact-type test first: the Integral check costs about 1 µs a value
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
    try:
        quota = value if type(value) is Fraction else Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"quota {value!r} has a zero denominator") from None
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
        """Largest losing coalition weight, ``_bar(quota_ratio, total_weight)``."""
        return _bar(self.quota_ratio, self.total_weight)

    @cached_property
    def _pivots(self) -> Mapping[int, tuple[tuple[int, ...], int]]:
        """Pivots by coalition size and Shapley-Shubik numerator for each
        distinct weight, computed once per game by
        ``power._pivot_counts_by_size`` and shared by every index that reads
        them: ``banzhaf`` the pivots, ``shapley_shubik`` and inverse search
        the numerator.  Like ``bar``, it is no dataclass field, so
        equality, hashing, ``repr`` and ``to_text`` ignore it."""
        from .power import _pivot_counts_by_size  # power imports this module

        return MappingProxyType(_pivot_counts_by_size(self))

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


def _minimal_winning_rows(weights: np.ndarray, bars: np.ndarray) -> np.ndarray:
    """Minimal-winning coalitions of a batch of games, one bool row of 2^m
    bitmasks per game: ``weights`` is (n, m), rows non-increasing, ``bars``
    the games' largest losing weights (``_bar``), both int64 or, past its
    range, Python ints, so each win/lose test is exact.

    Two passes: coalition weights by bitmask, then minimality.  With the
    weights sorted, a coalition's lightest member is its highest set bit i,
    so mask ``2^i + j`` without it is mask ``j``.  A winning coalition is
    minimal iff that one loses: removing the lightest member leaves the most
    weight of any single removal.  Arrays are coalition-major, (2^m, n), so
    each op runs along a whole row of games, ``_CANONICAL_CHUNK_BYTES`` of
    coalition weights at a time.
    """
    n, m = weights.shape
    if m > _CANONICAL_MAX_PLAYERS:
        raise ResourceLimitError(
            f"canonical form enumerates 2^{m} coalitions, above the {_CANONICAL_MAX_PLAYERS}-player cap"
        )
    minimal = np.empty((n, 1 << m), dtype=bool)
    rows = max(1, _CANONICAL_CHUNK_BYTES // (weights.itemsize << m))
    for first in range(0, n, rows):
        chunk = weights[first : first + rows]
        sums = np.zeros((1 << m, len(chunk)), dtype=weights.dtype)  # row 0, the empty coalition, stays 0
        for i in range(m):
            np.add(sums[: 1 << i], chunk[:, i], out=sums[1 << i : 2 << i])
        winning = sums > bars[first : first + rows]
        for i in reversed(range(m)):  # in place: each block reads the blocks below it before they change
            np.greater(winning[1 << i : 2 << i], winning[: 1 << i], out=winning[1 << i : 2 << i])
        minimal[first : first + rows] = winning.T
    return minimal


def canonicalize(game: WeightedVotingGame) -> CanonicalGameSignature:
    """Canonical signature of a game, invariant under player permutation
    and under scaling all weights by a positive integer: the game's row of
    ``_minimal_winning_rows`` with its weights sorted non-increasing."""
    dtype = np.int64 if game.total_weight < 1 << 63 else object
    weights = np.array([sorted(game.weights, reverse=True)], dtype=dtype)
    minimal = _minimal_winning_rows(weights, np.array([game.bar], dtype=dtype))[0]
    return CanonicalGameSignature(game.num_players, tuple(minimal.nonzero()[0].tolist()))


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


def _descending_partitions(totals: range, parts: int, cap: int) -> np.ndarray:
    """Non-increasing rows of ``parts`` non-negative ints up to ``cap``
    summing to each of ``totals``, in (sum, lexicographic) order, as an
    int64 array; built one part at a time from one empty prefix per sum,
    each prefix extended by every value its next part may take."""
    vecs = np.zeros((len(totals), 0), dtype=np.int64)
    rest = np.array(totals)  # weight left for the remaining parts of each prefix
    last = np.full(len(totals), cap)  # the bound on the next part: the prefix's last part
    for left in range(parts, 0, -1):
        low = -(-rest // left)  # the next part is at least its share of the rest
        counts = np.maximum(np.minimum(rest, last) - low + 1, 0)
        prefix = np.repeat(np.arange(len(rest)), counts)
        part = low[prefix] + np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts, counts)
        vecs = np.column_stack([vecs[prefix], part])
        rest, last = rest[prefix] - part, part
    return vecs


def _class_firsts(parts: int, quota: Fraction, max_total: int, cap: int) -> tuple[list[tuple[int, ...]], int]:
    """The first vector of each game class among the non-increasing vectors
    of ``parts`` entries up to ``cap`` with weight sum 1..``max_total``,
    scanned in (weight sum, lexicographic) order, and the number of vectors
    scanned.  Counted per weight sum first, as the Gaussian binomial
    [cap + parts, parts]_q, the vectors go to ``_minimal_winning_rows`` in
    chunks of consecutive sums of about ``_CANONICAL_CHUNK_BYTES`` of
    coalition weights; a class is new unless its packed row came earlier.

    Refused, before the scan, when its vectors times their 2^``parts``
    coalitions pass ``_SCAN_CELL_LIMIT``.  The callers scan every vector up
    to ``cap`` (``max_total = parts * cap``), C(cap + parts, parts) - 1 of
    them, or every vector of sum up to ``max_total`` (``cap = max_total``),
    the partitions of 1..max_total into at most k = ``parts`` parts: at
    least C(...) - 1 over k!.  The smaller count is exact for both, so
    partitions are counted, p(n, k) = p(n, k - 1) + p(n - k, k), only when
    those bounds straddle the limit, and only until they pass it.
    One part has a vector per weight sum, all dictator games: one class,
    returned without an int64 count per sum (from two parts on, the limit
    keeps the sums below 35,776).
    """
    limit = _SCAN_CELL_LIMIT >> parts  # vectors, none from 30 players on
    count = math.comb(cap + parts, parts) - 1 if limit else 1
    if 0 < limit < count <= limit * math.factorial(parts):
        rows, count = [[1] * (parts + 1)], 0  # rows[n][k] = p(n, k)
        for n in range(1, max_total + 1):
            rows.append([0])
            for k in range(1, parts + 1):
                rows[n].append(rows[n][k - 1] + (rows[n - k][k] if k <= n else 0))
            count += rows[n][parts]
            if count > limit:
                break
    if count > limit:
        raise ResourceLimitError(
            f"scan of more than {limit} weight vectors of 2^{parts} coalitions each exceeds the limit "
            f"of {_SCAN_CELL_LIMIT} coalitions"
        )
    if parts == 1:
        return [(1,)], min(max_total, cap)
    firsts: list[tuple[int, ...]] = []
    seen: set[bytes] = set()
    scanned = 0
    counts = np.eye(1, min(max_total, parts * cap) + 1, dtype=np.int64)[0]  # vectors by weight sum, as
    for i in range(1, parts + 1):  # the coefficients of the product of (1 - q^(cap + i)) / (1 - q^i)
        counts[cap + i :] -= counts[: max(len(counts) - cap - i, 0)]
        for r in range(i):  # dividing by 1 - q^i sums every i-th coefficient
            np.cumsum(counts[r::i], out=counts[r::i])
    chunk = counts.cumsum()[:-1] // max(1, _CANONICAL_CHUNK_BYTES >> (parts + 3))  # rows before each sum // chunk rows
    bounds = [*(np.flatnonzero(np.diff(chunk, prepend=-1)) + 1).tolist(), len(counts)]
    for low, high in zip(bounds, bounds[1:]):  # one chunk: weight sums low..high - 1
        vecs = _descending_partitions(range(low, high), parts, cap)
        scanned += len(vecs)
        bars = np.repeat([_bar(quota, total) for total in range(low, high)], counts[low:high])
        packed = np.packbits(_minimal_winning_rows(vecs, bars), axis=1)
        words = packed.view(f"u{min(packed.shape[1], 8)}")  # each packed row as one or more words
        order = np.lexsort(words.T)  # stable, so equal rows keep scan order
        new = np.append(True, (words[order][1:] != words[order][:-1]).any(axis=1))  # the first of equal rows
        for row in sorted(order[new].tolist()):
            if (key := packed[row].tobytes()) not in seen:
                seen.add(key)
                firsts.append(tuple(vecs[row].tolist()))
    return firsts, scanned


def enumerate_game_classes(num_players: int, quota: Fraction | str | int, weight_bound: int) -> GameClassEnumeration:
    """Enumerate structurally distinct games with weights in {0..weight_bound}.

    Every weight vector with entries up to the bound (and at least one
    positive entry) is covered.  Only the C(weight_bound + m, m) - 1
    non-increasing ones are scanned, since the signature is permutation
    invariant, refused past ``_SCAN_CELL_LIMIT`` / 2^m of them.  They are
    scanned in (weight sum, lexicographic) order, so the first vector of
    each class is its representative and the classes come in the order of
    their representatives.  Each class is canonicalized once, on it.
    """
    num_players = _integer_at_least("num_players", num_players, 1)
    weight_bound = _integer_at_least("weight_bound", weight_bound, 1)
    quota = exact_quota(quota)
    firsts, _ = _class_firsts(num_players, quota, num_players * weight_bound, weight_bound)
    classes = tuple(GameClass(canonicalize(WeightedVotingGame(vec, quota)), vec) for vec in firsts)
    return GameClassEnumeration(num_players, quota, weight_bound, classes)
