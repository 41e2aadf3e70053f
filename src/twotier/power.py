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
from typing import Callable, Collection, Iterable, Iterator, Sequence

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
# bytes of edited tables that ``_moved_pivots`` holds at once, its +1 and -1 stacks together
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
    (below (m + 1) * p), nor a gather of up to 2m signed residues
    overflows int64.
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


def _fold(layers: np.ndarray, moduli: Sequence[int]) -> None:
    """Map residues that a sum left in [0, 2p) back into [0, p), in place,
    layer by layer.  Read as uint64, x - p wraps past 2^63 when x < p, so
    the smaller of x and x - p is the residue (faster than ``%``)."""
    for p, layer in zip(moduli, layers):  # moduli first: with none, zip never steps into the array
        u = layer.view(np.uint64)
        np.minimum(u, u - np.uint64(p), out=u)


def _cumulative_table(weights: Sequence[int], width: int) -> np.ndarray:
    """Cumulative counts C[s][x] of coalitions of size s and weight <= x
    for x < width, below one zero row that stands for size -1, held as
    int64 residue layers: an array of shape (layers, m + 2, width).
    ``_gather`` clips a flat index below that row to its first cell, so
    C[s-k] reads 0 for every k > s.

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
    padded = np.zeros((1 + len(moduli), m + 2, width), dtype=np.int64)
    padded[:, 1] = 1
    headroom = 63 - max(moduli, default=1).bit_length()
    for rows, w in enumerate(weights, 3):
        _add_player(padded[:, :rows], w, ())
        if (rows - 2) % headroom == 0 or rows == m + 2:
            for p, layer in zip(moduli, padded[1:, :rows]):
                layer %= p
    return padded


def _add_player(padded: np.ndarray, w: int, moduli: Sequence[int]) -> None:
    """Add a player of weight w to a cumulative table in place, in
    O(m * width) per layer:  C'[s][x] = C[s][x] + C[s-1][x-w], each
    residue layer of ``moduli`` folded back into [0, p) (a table build
    passes none and reduces later).  A player of weight >= width is
    in no coalition counted and changes nothing, here and in
    ``_remove_player``."""
    width = padded.shape[2]
    if w < width:
        # rows 1.. of ``padded`` are sizes 0..; numpy buffers the
        # overlapping operand, so this reads the old rows
        padded[:, 2:, w:] += padded[:, 1:-1, : width - w]
        _fold(padded[1:, 2:, w:], moduli)


def _remove_player(padded: np.ndarray, w: int, moduli: Sequence[int]) -> None:
    """Remove a player of weight w from a cumulative table in place, in
    O(m * width) per layer: the recurrence of ``_add_player`` solved row by
    row, all layers at once, for the table without it,
    C'[s][x] = C[s][x] - C'[s-1][x-w].  A residue row s stays within s + 1
    moduli of 0, inside int64 by the bound of ``_moduli``, so each residue
    layer is reduced once, at the end."""
    width = padded.shape[2]
    if w < width:
        for s in range(2, padded.shape[1]):  # sizes 1..m
            padded[:, s, w:] -= padded[:, s - 1, : width - w]
        for p, layer in zip(moduli, padded[1:]):
            layer %= p


def _gather_plan(
    weights: Iterable[int], bar: int, rows: int, ncols: int
) -> dict[int, tuple[np.ndarray, np.ndarray] | None]:
    """The gather of ``_gather`` for each weight w in ``weights``,
    planned once for every stack of cumulative tables of ``rows`` rows
    (m + 2) and ``ncols`` columns whose games have the same largest losing
    weight ``bar`` (``games._bar``): the flat indices, shape (k, m), and the
    signs, shape (k,), that give w's pivots by size; None for w = 0, whose
    player turns no coalition winning.

    Removing a player of weight w obeys the knapsack recurrence, so the
    cumulative counts without it are
    Cw[s][x] = sum_k (-1)^k C[s-k][x-k*w]  over
    k <= min(m-1, x // w), and its pivots of size s are
    Cw[s][bar] - Cw[s][low-1]: an O(m * min(m, bar/w)) gather per distinct
    weight (Uno 2012).  The tables must reach the bar.  Every weight's
    indices come from one outer sum, of its offsets with each size's row.
    """
    m = rows - 2
    alt = (-1) ** np.arange(m)
    # signs[m - k_lo : m + k_hi]: -(-1)^k for k = k_lo-1 down to 0, then (-1)^k for k < k_hi
    signs = np.concatenate((-alt[::-1], alt))
    distinct = set(weights)
    spans, offsets = {}, []
    for w in distinct - {0}:
        low = bar - w + 1  # lightest S that i turns winning: floor(q*T - w) + 1, w an integer
        k_hi = min(m, bar // w + 1)
        k_lo = min(m, (low - 1) // w + 1) if low > 0 else 0
        step = ncols + w  # flat distance from C[s-k][x-k*w] to C[s-k-1][x-(k+1)*w]
        spans[w] = len(offsets), k_lo, k_hi
        # C[s-k][low-1-k*w] for k = k_lo-1 down to 0, then C[s-k][bar-k*w] for k < k_hi
        offsets += [*range(low - 1 - step * (k_lo - 1), low, step), *range(bar, bar - step * k_hi, -step)]
    index = np.add.outer(offsets, (1 + np.arange(m)) * ncols)  # rows start at C[s][0]
    plan = {w: (index[at : at + k_lo + k_hi], signs[m - k_lo : m + k_hi]) for w, (at, k_lo, k_hi) in spans.items()}
    plan.update(dict.fromkeys(distinct & {0}))
    return plan


def _gather(stack: np.ndarray, plan: dict[int, tuple[np.ndarray, np.ndarray] | None], order: Sequence[int]) -> np.ndarray:
    """Apply a ``_gather_plan`` to a stack of n cumulative tables of the same
    shape, (n, layers, m + 2, width), for each weight of ``order`` in turn:
    counts of shape (len(order) * n, layers, m) whose row j * n + g holds,
    by |S|, the coalitions S without one player of weight order[j] in game
    g that the player turns winning, zeros for a weight planned as None.
    The row of a game with no player of that weight is meaningless.  Each
    count is exact mod 2^64 on layer 0, where int64 sums wrap, and within
    2m moduli of 0 on a residue layer (see ``_moduli``).  The layers are
    gathered as extra tables."""
    n, layers, rows, width = stack.shape
    flat = stack.reshape(n * layers, rows * width)
    counts = np.zeros((len(order), n * layers, rows - 2), dtype=stack.dtype)
    for j, w in enumerate(order):
        if plan[w] is not None:
            index, signs = plan[w]
            counts[j] = signs @ flat.take(index, axis=1, mode="clip")
    return counts.reshape(len(order) * n, layers, rows - 2)


def _exact_counts(counts: np.ndarray, moduli: Sequence[int]) -> list[list[int]]:
    """Gathered counts of shape (n, layers, m) as n lists of exact Python
    ints.  One layer is read as int64 as it is; past it, layer 0 is read as
    uint64 (mod 2^64), the others are reduced mod their ``moduli``, and
    Garner's form of the Chinese remainder theorem rebuilds each count from
    its residues."""
    if not moduli:
        return counts[:, 0].tolist()
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
    reaches exactly the largest losing weight, refused past the DP budget:
    a stack of one table through the gather and numerators of a step.
    Every index reads them once per game, through
    ``WeightedVotingGame._pivots``."""
    m, width = game.num_players, game.bar + 1
    _check_budget(m, game.total_weight)
    order = list(dict.fromkeys(game.weights))
    counts = _gather(_cumulative_table(game.weights, width)[None], _gather_plan(order, game.bar, m + 2, width), order)
    moduli = _moduli(m, width)
    pivots = _exact_counts(counts, moduli)
    return {w: (tuple(c), v) for w, c, v in zip(order, pivots, _numerators(m, moduli)(counts, pivots))}


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


def _moved_pivots(
    weights: Sequence[int], quota: Fraction, batches: Sequence[Collection[tuple[int, int]]]
) -> Iterator[dict[tuple[int, int], dict[int, int]]]:
    """For each batch of ``batches`` in turn, scored only when the caller
    asks for it, the moves (delta, u) scored so far, each mapped to the
    Shapley-Shubik numerators (index times m!), per weight, of the game of
    ``weights`` with one player of weight u changed to u + delta.  A move
    pairs delta = +-1 with a weight u of ``weights`` and leaves some weight
    positive; one scored for an earlier batch is not scored again.

    Both directions' totals pass the DP budget before the table of
    ``weights`` is built.  The table, wide enough for the bar of the +1
    games, and each direction's gather plan, for the moves of every batch,
    are built once, for the first batch that holds a move.  In a batch,
    each moved weight u is removed once, from a copy of that table, in
    O(m * width) rather than O(m^2 * width) for a fresh table; the u + 1
    and u - 1 tables are copies of that one with u + delta added.  The
    games of one delta share the bar and so every gather offset.  The
    tables are made for a chunk of u's at a time, the +1 and the -1 stacks
    together at most ``_STACK_BYTES``; each stack is gathered once per
    weight by ``_gather``, the game pass's gather, and its numerators come
    from one ``_numerators`` call.
    """
    m, total = len(weights), sum(weights)
    deltas = [d for d in (1, -1) if any(move[0] == d for batch in batches for move in batch)]
    for delta in deltas:
        _check_budget(m, total + delta)
    width = _bar(quota, total + 1) + 1
    moduli = _moduli(m, width)
    numerators = _numerators(m, moduli)
    shape = (1 + len(moduli), m + 2, width)
    size = max(1, _STACK_BYTES // (2 * 8 * math.prod(shape)))  # int64 tables a stack holds
    table = None
    scored: dict[tuple[int, int], dict[int, int]] = {}
    for batch in batches:
        batch = [move for move in batch if move not in scored]
        moved = list(dict.fromkeys(u for _, u in batch))
        if moved and table is None:
            table = _cumulative_table(weights, width)
            plans = {
                d: _gather_plan({*weights, *(u + e for b in batches for e, u in b if e == d)}, _bar(quota, total + d), m + 2, width)
                for d in deltas
            }
        stacks = {d: np.empty((min(size, len(moved)), *shape), dtype=np.int64) for d in deltas}  # reused by every chunk
        for first in range(0, len(moved), size):
            games: dict[int, list[tuple[int, set[int]]]] = {1: [], -1: []}  # (u, distinct weights) per edited table
            for u in moved[first : first + size]:
                edits = [(stacks[d][len(games[d])], d) for d in deltas if (d, u) in batch]
                removed = edits[0][0]
                removed[...] = table
                _remove_player(removed, u, moduli)
                i = weights.index(u)
                rest = {*weights[:i], *weights[i + 1 :]}
                for edited, _ in edits[1:]:
                    edited[...] = removed
                for edited, d in edits:
                    _add_player(edited, u + d, moduli)
                    games[d].append((u, rest | {u + d}))
            for d in deltas:
                n = len(games[d])
                if not n:
                    continue
                present = [ws for _, ws in games[d]]
                order = list(set().union(*present))
                counts = _gather(stacks[d][:n], plans[d], order)
                # row j * n + g: weight order[j] in game g, 0 where the game lacks it, not its meaningless counts
                for g, ws in enumerate(present):
                    counts[[j * n + g for j, w in enumerate(order) if w not in ws]] = 0
                values = numerators(counts)
                for g, (u, ws) in enumerate(games[d]):
                    scored[d, u] = {w: v for w, v in zip(order, values[g::n]) if w in ws}
        yield scored


def _check_budget(num_players: int, total_weight: int) -> None:
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
