"""Exact power indices for weighted voting games.

Power vectors are tuples of exact ``Fraction`` values.  The Shapley-Shubik
index of an m-player game sums to 1 and every component is a multiple of
1/m!; the Banzhaf measure returned here is the raw per-player swing
probability (swings / 2^(m-1)), which does not normalize to 1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .games import ResourceLimitError, WeightedVotingGame

__all__ = [
    "shapley_shubik",
    "shapley_permutation_oracle",
    "banzhaf",
    "penrose_decisiveness",
    "DEFAULT_DP_BUDGET",
]

# cap on num_players * total_weight; the DP table holds about that many cells
DEFAULT_DP_BUDGET = 2_000_000


def _cumulative_table(weights: Sequence[int], width: int) -> np.ndarray:
    """Cumulative counts C[s][x] of coalitions of size s and weight <= x
    for x < width, below m zero rows that stand for negative sizes (so
    C[s-k] needs no bounds check): an array of shape (2m + 1, width).

    One knapsack pass over (coalition size, coalition weight) counts the
    coalitions in O(m^2 * width), and a running sum over weight makes the
    counts cumulative.  A player of weight >= width is in no coalition
    counted and is skipped, here and by ``_add_player``/``_remove_player``.
    Counts are exact: int64 while binomial coefficients fit, arbitrary
    precision objects beyond that.
    """
    m = len(weights)
    dtype = np.int64 if math.comb(m, m // 2) < 2**62 else object
    padded = np.zeros((2 * m + 1, width), dtype=dtype)
    table = padded[m:]
    table[0, 0] = 1
    filled = 0  # rows 0..filled may hold non-zero counts
    for w in weights:
        if w >= width:
            continue
        filled += 1
        # numpy buffers the overlapping operand, so this reads the old rows
        table[1 : filled + 1, w:] += table[0:filled, : width - w]
    np.cumsum(table, axis=1, out=table)
    return padded


def _add_player(padded: np.ndarray, w: int) -> None:
    """Add a player of weight w to a cumulative table in place, in
    O(m * width):  C'[s][x] = C[s][x] + C[s-1][x-w]."""
    m, width = padded.shape[0] // 2, padded.shape[1]
    if w < width:
        table = padded[m:]
        table[1:, w:] += table[:-1, : width - w]


def _remove_player(padded: np.ndarray, w: int) -> None:
    """Remove a player of weight w from a cumulative table in place, in
    O(m * width): the same recurrence solved row by row for the table
    without it,  C'[s][x] = C[s][x] - C'[s-1][x-w]."""
    m, width = padded.shape[0] // 2, padded.shape[1]
    if w < width:
        table = padded[m:]
        for s in range(1, m + 1):
            table[s, w:] -= table[s - 1, : width - w]


def _gather_pivots(
    padded: np.ndarray, weights: Sequence[int], quota: Fraction, total: int
) -> dict[int, np.ndarray]:
    """Map each distinct weight w of a game to the counts, by |S|, of
    coalitions S without one player of weight w that the player turns
    winning, read from the cumulative table of the game's players.

    The table must reach the largest losing weight cap.  Removing a player
    of weight w obeys the knapsack recurrence, so the cumulative counts
    without it are  Cw[s][x] = sum_k (-1)^k C[s-k][x-k*w]  over
    k <= min(m-1, x // w), and its pivots of size s are
    Cw[s][cap] - Cw[s][low-1]: an O(m * min(m, cap/w)) gather per distinct
    weight (Uno 2012).
    """
    m, ncols = padded.shape[0] // 2, padded.shape[1]
    q_num, q_den = quota.numerator, quota.denominator
    cap = (q_num * total) // q_den  # largest losing coalition weight
    flat = padded.ravel()
    starts = ((m + np.arange(m)) * ncols)[:, None]  # flat index of C[s][0]
    alt = (-1) ** np.arange(m)
    counts = {}
    for w in set(weights):
        if w == 0:
            counts[w] = np.zeros(m, dtype=padded.dtype)  # a null player turns no coalition winning
            continue
        low = (q_num * total - w * q_den) // q_den + 1  # lightest S that i turns winning
        k_hi = min(m, cap // w + 1)
        k_lo = min(m, (low - 1) // w + 1) if low > 0 else 0
        k = np.arange(max(k_hi, k_lo))
        step = ncols + w  # flat distance from C[s-k][x-k*w] to C[s-k-1][x-(k+1)*w]
        offsets = np.concatenate((cap - step * k[:k_hi], low - 1 - step * k[:k_lo]))
        signs = np.concatenate((alt[:k_hi], -alt[:k_lo]))
        # int64 sums may wrap midway; exact because every final count fits
        counts[w] = flat[starts + offsets] @ signs
    return counts


def _pivot_counts_by_size(game: WeightedVotingGame) -> dict[int, np.ndarray]:
    """Pivots by coalition size for each distinct weight of the game, from a
    table that reaches exactly the largest losing weight."""
    cap = (game.quota_ratio.numerator * game.total_weight) // game.quota_ratio.denominator
    table = _cumulative_table(game.weights, cap + 1)
    return _gather_pivots(table, game.weights, game.quota_ratio, game.total_weight)


def _pivot_orderings(num_players: int) -> list[int]:
    """s! * (m-1-s)! for s = 0..m-1: the orderings in which a given
    coalition of size s precedes a player and the rest follow it.  A
    player's pivots by size dotted with these is its Shapley-Shubik index
    times m!."""
    fact = [math.factorial(k) for k in range(num_players)]
    return [fact[s] * fact[num_players - 1 - s] for s in range(num_players)]


def _check_budget(num_players: int, total_weight: int, budget: int = DEFAULT_DP_BUDGET) -> None:
    cost = num_players * total_weight
    if cost > budget:
        raise ResourceLimitError(
            f"num_players * total_weight = {cost} exceeds budget {budget}"
        )


def shapley_shubik(game: WeightedVotingGame, *, budget: int = DEFAULT_DP_BUDGET) -> tuple[Fraction, ...]:
    """Exact Shapley-Shubik index via dynamic programming.

    Player i's value is the number of orderings in which i's arrival turns
    the set of predecessors winning, divided by m!.  Coalition counts by
    (size, weight) are weighted with |S|! * (m-|S|-1)! / m! in exact rational
    arithmetic, so the result carries no floating-point error.
    """
    _check_budget(game.num_players, game.total_weight, budget)
    coeff = _pivot_orderings(game.num_players)
    m_fact = math.factorial(game.num_players)
    values = {
        w: Fraction(sum(map(mul, pivots.tolist(), coeff)), m_fact)
        for w, pivots in _pivot_counts_by_size(game).items()
    }
    return tuple(values[w] for w in game.weights)


def shapley_permutation_oracle(game: WeightedVotingGame) -> tuple[Fraction, ...]:
    """Shapley-Shubik index by brute force over all m! player orderings.

    Slow reference implementation kept as an independent cross-check of the
    dynamic program; refuses games with more than 10 players.
    """
    m = game.num_players
    if m > 10:
        raise ValueError(f"permutation oracle enumerates m! orderings; {m} > 10 players refused")
    weights = game.weights
    threshold = game.quota_ratio.numerator * game.total_weight
    q_den = game.quota_ratio.denominator
    counts = [0] * m
    for perm in itertools.permutations(range(m)):
        running = 0
        for idx in perm:
            running += weights[idx]
            if running * q_den > threshold:
                counts[idx] += 1
                break
    m_fact = math.factorial(m)
    return tuple(Fraction(c, m_fact) for c in counts)


def banzhaf(game: WeightedVotingGame, *, budget: int = DEFAULT_DP_BUDGET) -> tuple[Fraction, ...]:
    """Raw Banzhaf measure: P(player i is critical) when every other player
    joins independently with probability 1/2.  Not normalized."""
    _check_budget(game.num_players, game.total_weight, budget)
    m = game.num_players
    denominator = 2 ** (m - 1)
    # summed as Python ints: a player's swings reach 2^(m-1), past int64 at m = 65
    values = {
        w: Fraction(sum(pivots.tolist()), denominator)
        for w, pivots in _pivot_counts_by_size(game).items()
    }
    return tuple(values[w] for w in game.weights)


def penrose_decisiveness(population: int) -> tuple[Fraction, float]:
    """Probability that one voter decides a simple-majority vote among
    ``population`` independent fair coin flips.

    For odd population 2k+1 the voter is decisive exactly when the other 2k
    voters split evenly, an event of probability  C(2k, k) / 4^k.  Returns
    that exact rational together with its Stirling approximation
    sqrt(2 / (pi * population)).  Even population sizes have no canonical
    tie convention and are rejected.
    """
    if population < 1 or population % 2 == 0:
        raise ValueError(f"population must be odd and positive, got {population}")
    half = (population - 1) // 2
    exact = Fraction(math.comb(2 * half, half), 4**half)
    approx = math.sqrt(2.0 / (math.pi * population))
    return exact, approx
