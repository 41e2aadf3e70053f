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
from functools import lru_cache
from operator import mul
from typing import Callable, Collection, Sequence

import numpy as np

from .games import ResourceLimitError, WeightedVotingGame, _bar, _integer_at_least

__all__ = [
    "shapley_shubik",
    "shapley_permutation_oracle",
    "banzhaf",
    "penrose_decisiveness",
]

# cap on num_players * total_weight; the DP table holds about that many cells
_DP_BUDGET = 2_000_000
# bytes of edited tables, zero rows included, that ``_moved_pivots`` holds at once, in its one stack
_STACK_BYTES = 1 << 19


def _moduli(num_players: int, width: int) -> tuple[int, ...]:
    """Moduli of the residue layers that follow layer 0 (mod 2^64, numpy's
    int64 wrap) in a cumulative table of ``num_players`` players and
    ``width`` columns.

    A pivot count of size s is at most C(m-1, s), so layer 0 alone reads
    every count exactly, as a signed int64, while C(m-1, (m-1)//2) < 2^63:
    up to m = 67.  Past that, moduli are added until 2^63 times their
    product passes that bound, and each count is rebuilt by the Chinese
    remainder theorem (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 5), which needs moduli that are odd and pairwise coprime, not prime.
    Each modulus p keeps p * max(width, 2m) < 2^63, so neither a row's
    running sum of residues, nor a removal's rows before they are reduced
    (below (m + 1) * p), nor a gather's signed sums (within m + 2 moduli
    of 0, see ``_gather``) overflows int64.
    """
    bound = math.comb(num_players - 1, (num_players - 1) // 2)
    candidate = 1 << (63 - (max(width, 2 * num_players) - 1).bit_length())
    moduli, product = [], 1 << 63
    while product <= bound:
        candidate -= 1
        if math.gcd(candidate, product) == 1:
            moduli.append(candidate)
            product *= candidate
    return tuple(moduli)


def _dual_bar(quota: Fraction, total: int) -> int:
    """Largest losing weight of the dual game (a coalition wins iff the
    others lose), total - 1 - ``games._bar``.  A player's pivots of size s
    in a game are its pivots of size m-1-s in the dual, so both have the
    same index and swing counts (Dubey & Shapley, Math. Oper. Res. 1979).
    For q >= 1/2 it is never above the bar, so every table reaches it
    instead: 130 columns rather than 371 for eu28 at total 500, q = 37/50."""
    return total - 1 - _bar(quota, total)


def _cumulative_table(weights: Sequence[int], width: int) -> np.ndarray:
    """Cumulative counts C[s][x] of coalitions of size s and weight <= x
    for x < width (callers reach the dual bar, ``_dual_bar``), below m zero
    rows (the first of them size -1), held as int64 residue layers: an
    array of shape (layers, 2m + 1, width) whose last m + 2 rows are live.  ``_gather`` reads the zero rows as C[s-k]
    for every k > s; only the allocation writes them.

    The table is the table of no players, whose one empty coalition makes
    row 0 all ones, plus one ``_add_player`` per player on the rows that
    can be non-zero so far: O(m^2 * width) per layer in all.  Layer 0 holds
    the counts mod 2^64; the layers of ``_moduli(m, width)``, none up to 67
    players, hold them mod each modulus; ``_moved_pivots`` edits a table
    with the same moduli, and ``_exact_counts`` and ``_numerators`` read
    exact values from its gathered counts.

    The adds leave the residues unreduced, and the filled rows are reduced
    every k adds and after the last: an add at most doubles a residue, so
    from [0, p) with p < 2^b, k = 63 - b adds stay below 2^63.  The moduli
    keep b <= 63 - 8 (``_moduli``), so a table is reduced at most every 8
    players, and the result is the table that reducing after every add gives.
    """
    m = len(weights)
    moduli = _moduli(m, width)
    padded = np.zeros((1 + len(moduli), 2 * m + 1, width), dtype=np.int64)
    table = padded[:, -(m + 2) :]
    table[:, 1] = 1
    headroom = 63 - max(moduli, default=1).bit_length()
    for rows, w in enumerate(weights, 3):
        _add_player(table[:, :rows], w, ())
        if (rows - 2) % headroom == 0 or rows == m + 2:
            for p, layer in zip(moduli, table[1:, :rows]):
                layer %= p
    return padded


def _add_player(padded: np.ndarray, w: int, moduli: Sequence[int]) -> None:
    """Add a player of weight w to the m + 2 live rows of a cumulative
    table in place, in O(m * width) per layer: C'[s][x] = C[s][x] +
    C[s-1][x-w], each residue layer of ``moduli`` reduced back into [0, p)
    (a table build passes none and reduces later).  A player of weight >=
    width is in no coalition counted and changes nothing, here and in
    ``_remove_player``."""
    width = padded.shape[2]
    if w < width:
        # rows 1.. of ``padded`` are sizes 0..; numpy buffers the
        # overlapping operand, so this reads the old rows
        # (a top-down row loop needs no buffer but builds tables about 3x slower)
        padded[:, 2:, w:] += padded[:, 1:-1, : width - w]
        for p, layer in zip(moduli, padded[1:]):
            layer %= p


def _remove_player(padded: np.ndarray, w: int, moduli: Sequence[int]) -> None:
    """Remove a player of weight w from the live rows of a table in place, in
    O(m * width) per layer: the recurrence of ``_add_player`` solved, all
    layers at once, for the table without it, C'[s][x] = C[s][x] -
    C'[s-1][x-w], by rows (m calls) or, where fewer calls at about 3 row
    calls each, by column blocks of width w, each reading the finished
    block before it; both give the same bits.  A residue row s stays within
    s + 1 moduli of 0, inside int64 by the bound of ``_moduli``, so each
    residue layer is reduced once, at the end."""
    rows, width = padded.shape[1:]
    if w < width:
        if w and 3 * (-(-width // w) - 1) < rows - 2:
            for x in range(w, width, w):  # sizes 1..m of block x, less sizes 0..m-1 of block x - w
                padded[:, 2:, x : x + w] -= padded[:, 1:-1, x - w : min(x, width - w)]
        else:
            for s in range(2, rows):  # sizes 1..m
                padded[:, s, w:] -= padded[:, s - 1, : width - w]
        for p, layer in zip(moduli, padded[1:]):
            layer %= p


def _gather(stack: np.ndarray, bar: int, order: Sequence[int]) -> np.ndarray:
    """Pivots by size of each weight of ``order`` in a stack of n
    cumulative tables of the same shape, (n, layers, 2m + 1, width), whose
    games have the same largest losing weight ``bar``: counts of shape
    (len(order) * n, layers, m) whose row j * n + g holds, by |S|, the
    coalitions S without one player of weight order[j] in game g that the
    player turns winning (callers pass the dual games' bar, ``_dual_bar``,
    so a count of size s is a pivot count of size m-1-s of the game);
    zeros for weight 0.  The row of a game with no player of that weight is
    meaningless.  Each count is exact mod 2^64 on layer 0, where int64 sums
    wrap, and within m + 2 moduli of 0 on a residue layer (see
    ``_moduli``).  The tables must reach the bar.

    Removing a player of weight w obeys the knapsack recurrence, so the
    cumulative counts without it are Cw[s][x] = sum_k (-1)^k C[s-k][x-k*w]
    over k <= min(m-1, x // w), and its pivots of size s are
    Cw[s][bar] - Cw[s][bar-w] (Uno 2012).  With K = min(m, bar // w) + 1
    and P[s] = sum_(k<K) (-1)^k C[s-k][bar-k*w] for s <= m, that is
    P[s] + P[s+1] - C[s+1][bar], as C[s-k][bar-w-k*w] is term k + 1 of
    P[s+1].  In a table's flat cells C[s-k][bar-k*w] lies k * (width + w)
    before C[s][bar], and C[s][bar] width after C[s-1][bar], so the terms
    of P are one strided view of the stack, (n * layers, K, m + 1), and P
    is one matmul of it with the signs: no index array, no copy.  The m
    zero rows of ``_cumulative_table`` keep the view inside the stack and
    make each C[s-k] with k > s read 0.
    """
    n, layers, rows, width = stack.shape
    m = rows // 2  # rows = 2m + 1
    signs = (-1) ** np.arange(m + 1)
    sums = np.zeros((len(order), n * layers, m + 1), dtype=np.int64)  # P
    for j, w in enumerate(order):
        if w:
            k = min(m, bar // w) + 1
            strides = (8 * rows * width, -8 * (width + w), 8 * width)  # bytes, as the tables are int64
            terms = np.ndarray((n * layers, k, m + 1), np.int64, stack, 8 * ((rows - m - 1) * width + bar), strides)
            np.matmul(signs[:k], terms, out=sums[j])
    counts = sums[:, :, :-1] + sums[:, :, 1:]
    counts -= stack[:, :, rows - m :, bar].reshape(n * layers, m)
    counts[[j for j, w in enumerate(order) if not w]] = 0
    return counts.reshape(len(order) * n, layers, m)


def _exact_counts(counts: np.ndarray, moduli: Sequence[int]) -> list[list[int]]:
    """Gathered counts of shape (n, layers, m), none negative, as n lists of
    exact Python ints.  Layer 0 is read as uint64 (mod 2^64), the others
    are reduced mod their ``moduli``, and Garner's form of the Chinese
    remainder theorem rebuilds each count from its residues."""
    n, _, m = counts.shape
    values = counts[:, 0].astype(np.uint64).ravel().tolist()
    modulus = 1 << 64
    for layer, p in enumerate(moduli, 1):
        inverse = pow(modulus, -1, p)
        residues = (counts[:, layer] % p).ravel().tolist()
        values = [v + modulus * ((r - v) * inverse % p) for v, r in zip(values, residues)]
        modulus *= p
    return [values[row * m : (row + 1) * m] for row in range(n)]


def _pivot_counts_by_size(game: WeightedVotingGame) -> dict[int, tuple[tuple[int, ...], int]]:
    """For each distinct weight of the game, its pivots by coalition size
    and its Shapley-Shubik numerator (``_numerators``), from a table that
    reaches exactly the dual bar (``_dual_bar``), refused past the DP
    budget: a stack of one table through the gather and numerators of a
    step.  The dual's pivots are mirrored back (s <-> m-1-s); the
    numerators need no mirror, as s! * (m-1-s)! is symmetric.  Every index
    reads them once per game, through ``WeightedVotingGame._pivots``."""
    m, bar = game.num_players, _dual_bar(game.quota_ratio, game.total_weight)
    _check_budget(m, game.total_weight)
    order = list(dict.fromkeys(game.weights))
    counts = _gather(_cumulative_table(game.weights, bar + 1)[None], bar, order)
    moduli = _moduli(m, bar + 1)
    pivots = _exact_counts(counts, moduli)
    return {w: (tuple(c[::-1]), v) for w, c, v in zip(order, pivots, _numerators(m, moduli)(counts, pivots))}


def _limb_bits(num_players: int) -> int:
    """Bits b of the limbs in which ``_numerators`` splits each ordering
    count s! * (m-1-s)! of m players, or 0 where it keeps the exact
    Python-int dot product.

    A pivot count of size s lies in [0, C(m-1, s)], within the count
    bound B = C(m-1, (m-1)//2), and a b-bit limb in [0, 2^b), so one int64
    sum of m products of a count and a limb lies in [0, m * B * 2^b).  The
    largest b with m * B < 2^(63 - b) keeps it below 2^63: no sum
    overflows, and joining the limb sums as Python ints,
    sum_j 2^(b*j) * sum_s count_s * limb_(s,j) = sum_s count_s * s! * (m-1-s)!,
    is exact.  Limbs pay while there are no more of them than players:
    joining L limbs takes L - 1 Python big-int steps a row, the dot product
    m products.  That holds up to m = 56 (33 bits, 3 limbs at m = 28); past
    it b shrinks to nothing, and from m = 68 (``_moduli``) B alone passes
    2^63.
    """
    bound = math.comb(num_players - 1, (num_players - 1) // 2)
    bits = 63 - (num_players * bound).bit_length()
    largest = math.factorial(num_players - 1)  # s! * (m-1-s)! at s = 0
    return bits if bits > 0 and -(-largest.bit_length() // bits) <= num_players else 0


@lru_cache(maxsize=64)
def _numerators(num_players: int, moduli: tuple[int, ...]) -> Callable[..., list[int]]:
    """The function that turns gathered pivot counts of shape
    (rows, layers, m), each row the pivots by size of one player of an
    m-player game whose table has ``moduli``, into that player's
    Shapley-Shubik numerator (its index times m!), as an exact Python int.
    A caller holding the counts' ``_exact_counts`` passes them second.

    With ``_limb_bits(m)`` = b > 0, each ordering count s! * (m-1-s)! is
    split into L b-bit limbs, and one int64 matmul of the (rows, m) counts
    by the (m, L) limbs gives each row's L limb sums, none past int64 (see
    ``_limb_bits``); Python joins them as sum_j sums_j * 2^(b*j).  So each
    row must hold a player's true counts, not a meaningless gather.
    Otherwise each row is an exact Python-int dot product of its counts
    (``_exact_counts``) with the ordering counts.  This is the one place
    that turns pivots into numerators: a game's index and a step's keys
    both read them here, through one function per (m, moduli).
    """
    fact = [math.factorial(k) for k in range(num_players)]
    # the orderings in which a given coalition of size s precedes a player and the rest follow it
    orderings = [fact[s] * fact[num_players - 1 - s] for s in range(num_players)]
    bits = _limb_bits(num_players)
    if not bits:
        return lambda counts, exact=None: [sum(map(mul, r, orderings)) for r in exact or _exact_counts(counts, moduli)]
    limbs = -(-orderings[0].bit_length() // bits)
    mask = (1 << bits) - 1
    matrix = np.array([[o >> (bits * j) & mask for j in range(limbs)] for o in orderings], dtype=np.int64)

    def join(counts: np.ndarray, exact=None) -> list[int]:
        *low, values = (counts[:, 0] @ matrix).T.tolist()
        for sums in reversed(low):
            values = [(v << bits) + x for v, x in zip(values, sums)]
        return values

    return join


def _step_table(vector: tuple[int, ...], table: np.ndarray | None, weights: tuple[int, ...], quota: Fraction) -> np.ndarray:
    """The cumulative table of ``weights`` for a step, which reads up to the
    dual bar of its +1 games (``_dual_bar``), from the last step's
    ``vector`` and ``table``: if ``weights`` is one +-1 move from that
    vector and the table reaches that bar, the table is edited in place, by
    one removal and one add with the moduli of its own width; else a new one
    is built for that bar m weight units ahead, or the total ahead if that
    is less: a rising descent rebuilds it about once per m steps, and it is
    never wider than total + 1, within the DP budget of the +1 games."""
    m, total = len(weights), sum(weights)
    moved = [(v, w) for v, w in zip(vector, weights) if v != w]
    if len(moved) == 1 and abs(moved[0][0] - moved[0][1]) == 1 and table.shape[2] > _dual_bar(quota, total + 1):
        live, moduli = table[:, -(m + 2) :], _moduli(m, table.shape[2])
        _remove_player(live, moved[0][0], moduli)
        _add_player(live, moved[0][1], moduli)
        return table
    return _cumulative_table(weights, _dual_bar(quota, total + 1 + min(m, total)) + 1)


def _moved_pivots(
    weights: tuple[int, ...], quota: Fraction, table: np.ndarray, moves: Collection[tuple[int, int]]
) -> dict[tuple[int, int], dict[int, int]]:
    """Each move (delta, u) of ``moves`` mapped to the Shapley-Shubik
    numerators (index times m!), per weight, of the game of ``weights`` with
    one player of weight u changed to u + delta (leaving some weight
    positive), scored on ``table``, the table of ``weights`` from
    ``_step_table``, which reaches the dual bar of the +1 games.

    Every distinct move is scored by one recipe, on the m + 2 live rows
    only: a copy of the table, u removed and u + delta added, in
    O(m * width) rather than O(m^2 * width) for a fresh table.  The moves
    of each direction in turn fill one stack, zeroed once per call and at
    most ``_STACK_BYTES``, a chunk at a time; each chunk (its games share
    the dual bar) is gathered once by ``_gather``, and its numerators come
    from one ``_numerators`` call, which reads the dual's counts as they
    are.
    """
    m, total = len(weights), sum(weights)
    moduli = _moduli(m, table.shape[2])
    numerators = _numerators(m, moduli)
    by_delta = {d: [u for delta, u in dict.fromkeys(moves) if delta == d] for d in (1, -1)}
    size = min(max(1, _STACK_BYTES // table.nbytes), max(map(len, by_delta.values())))  # tables the stack holds
    stack = np.zeros((size, *table.shape), dtype=np.int64)
    scored: dict[tuple[int, int], dict[int, int]] = {}
    for d, moved in by_delta.items():
        while moved:
            chunk, moved, present = moved[:size], moved[size:], []  # present: distinct weights per edited table
            for edited, u in zip(stack[:, :, -(m + 2) :], chunk):
                edited[...] = table[:, -(m + 2) :]
                _remove_player(edited, u, moduli)
                _add_player(edited, u + d, moduli)
                i = weights.index(u)
                present.append({*weights[:i], *weights[i + 1 :], u + d})
            n, order = len(chunk), list(set().union(*present))
            counts = _gather(stack[:n], _dual_bar(quota, total + d), order)
            # row j * n + g: weight order[j] in game g, 0 where the game lacks it, not its meaningless counts
            for g, ws in enumerate(present):
                counts[[j * n + g for j, w in enumerate(order) if w not in ws]] = 0
            values = numerators(counts)
            for g, (u, ws) in enumerate(zip(chunk, present)):
                scored[d, u] = {w: v for w, v in zip(order, values[g::n]) if w in ws}
    return scored


def _check_budget(num_players: int, total_weight: int) -> None:
    # m * total, though tables reach only the dual bar: the refusals stay those of a table as wide as the game
    cost = num_players * total_weight
    if cost > _DP_BUDGET:
        raise ResourceLimitError(f"num_players * total_weight = {cost} exceeds budget {_DP_BUDGET}")


def shapley_shubik(game: WeightedVotingGame) -> tuple[Fraction, ...]:
    """Exact Shapley-Shubik index via dynamic programming.

    Player i's value is the number of orderings in which i's arrival turns
    the set of predecessors winning, divided by m!.  That number, the sum
    over the coalitions S that i turns winning of |S|! * (m-|S|-1)!, is an
    exact integer from ``_numerators``, so the result carries no
    floating-point error.
    """
    m_fact = math.factorial(game.num_players)
    values = {w: Fraction(numerator, m_fact) for w, (_, numerator) in game._pivots.items()}
    return tuple(values[w] for w in game.weights)


@lru_cache(maxsize=None)
def _block_seats(m: int) -> np.ndarray:
    """A block of orderings, one int8 column of seats each: seats 0..k-1 in
    place, k = max(m - 8, 0), then every order of the others (at most 8!)."""
    k = max(m - 8, 0)
    tail = np.array(list(itertools.permutations(range(k, m))), dtype=np.int8)
    return np.vstack([np.broadcast_to(np.arange(k, dtype=np.int8)[:, None], (k, len(tail))), tail.T])


def shapley_permutation_oracle(game: WeightedVotingGame) -> tuple[Fraction, ...]:
    """Shapley-Shubik index by brute force over all m! player orderings.

    Slow reference implementation kept as an independent cross-check of the
    dynamic program; refuses games with more than 10 players.
    """
    m = game.num_players
    if m > 10:
        raise ValueError(f"permutation oracle enumerates m! orderings; {m} > 10 players refused")
    weights = np.array(game.weights, dtype=np.int64 if game.total_weight < 1 << 63 else object)
    counts = np.zeros(m, dtype=np.int64)
    for head in itertools.permutations(range(m), max(m - 8, 0)):  # one block of orderings per head
        players, seats = [*head, *(p for p in range(m) if p not in head)], _block_seats(m)
        pivot = (weights[players][seats].cumsum(axis=0) <= game.bar).sum(axis=0)  # seat index past the bar
        counts[players] += np.bincount(seats[pivot, np.arange(seats.shape[1])], minlength=m)
    return tuple(Fraction(c, math.factorial(m)) for c in counts.tolist())


def banzhaf(game: WeightedVotingGame) -> tuple[Fraction, ...]:
    """Raw Banzhaf measure: P(player i is critical) when every other player
    joins independently with probability 1/2.  Not normalized."""
    m = game.num_players
    denominator = 2 ** (m - 1)
    # summed as Python ints: a player's swings reach 2^(m-1), past int64 at m = 65
    values = {w: Fraction(sum(pivots), denominator) for w, (pivots, _) in game._pivots.items()}
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
    population = _integer_at_least("population", population, 1)
    if population % 2 == 0:
        raise ValueError(f"population must be odd and positive, got {population}")
    half = (population - 1) // 2
    exact = Fraction(math.comb(2 * half, half), 4**half)
    approx = math.sqrt(2.0 / (math.pi * population))
    return exact, approx
