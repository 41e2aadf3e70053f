"""Slow, independent oracles for pivot counts and Shapley-Shubik numerators,
in plain Python ints: no tables, residues, deconvolution or limbs, so the
fast paths of ``twotier.power`` are checked against code they do not share;
the win/lose decision by the quota's definition, with no ``bar``; the
Shapley-Shubik index one ordering and one player at a time; a class scan
one weight sum and one canonical form at a time; and the closed-form
spreads of a distribution and of a sample median, against which the draws
of ``twotier.simulation`` are checked."""

import itertools
import math
from fractions import Fraction

from twotier import WeightedVotingGame, canonicalize


def wins(game, members):
    """Does the coalition of player indices ``members`` (each counted once)
    win ``game``?  By the quota's definition in integers: its weight w wins
    iff w / total > q, that is w * q.denominator > q.numerator * total."""
    quota = game.quota_ratio
    weight = sum(game.weights[i] for i in set(members))
    return weight * quota.denominator > quota.numerator * sum(game.weights)


def reference_pivots(game):
    """Pivots by size for each distinct weight w: the coalitions S of the
    other players, counted by |S|, with bar - w < w(S) <= bar.  A knapsack
    over the other players, run again for each distinct weight, in plain
    Python ints with no residues and no deconvolution: row s packs the
    counts of size s by weight 0..bar into one int, m + 1 bits per weight.
    The counts of size s sum to at most C(m-1, s) < 2^(m+1) - 1, so the
    slots of weights bar - w + 1..bar, read mod 2^(m+1) - 1, give their sum
    (as the digits of a decimal number sum to it mod 9)."""
    m, bar = game.num_players, game.bar
    bits = m + 1
    mask = (1 << bits * (bar + 1)) - 1
    pivots = {}
    for w in set(game.weights):
        others = list(game.weights)
        others.remove(w)
        rows = [1] + [0] * (m - 1)
        for filled, v in enumerate(others, 1):
            for s in range(filled, 0, -1):
                rows[s] = (rows[s] + (rows[s - 1] << v * bits)) & mask
        low = min(max(bar - w + 1, 0), bar + 1)
        pivots[w] = tuple((row >> low * bits) % ((1 << bits) - 1) for row in rows)
    return pivots


def orderings(m):
    """s! * (m-1-s)! for s = 0..m-1: the orderings of m players in which a
    given coalition of size s precedes a player and the rest follow it."""
    return [math.factorial(s) * math.factorial(m - 1 - s) for s in range(m)]


def reference_numerators(game):
    """Shapley-Shubik numerators (index times m!) for each distinct weight:
    its ``reference_pivots`` dotted with ``orderings``."""
    weights = orderings(game.num_players)
    return {w: sum(c * o for c, o in zip(pivots, weights)) for w, pivots in reference_pivots(game).items()}


def reference_permutation_oracle(game):
    """Shapley-Shubik index by its definition: over every ordering of the
    players, the first one whose arrival takes the running weight w past the
    quota (w * q.denominator > q.numerator * total) is pivotal."""
    m = game.num_players
    threshold = game.quota_ratio.numerator * game.total_weight
    counts = [0] * m
    for perm in itertools.permutations(range(m)):
        running = 0
        for idx in perm:
            running += game.weights[idx]
            if running * game.quota_ratio.denominator > threshold:
                counts[idx] += 1
                break
    return tuple(Fraction(c, math.factorial(m)) for c in counts)


def descending_vectors(total, parts, cap):
    """Non-increasing tuples of ``parts`` ints in 0..cap summing to
    ``total``, in lexicographically ascending order, by recursion."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(-(-total // parts), min(total, cap) + 1):
        for rest in descending_vectors(total - first, parts - 1, first):
            yield (first, *rest)


def reference_class_firsts(parts, quota, max_total, cap):
    """The first vector of each game class, and the number of vectors
    scanned, scanning the non-increasing vectors of ``parts`` entries up to
    ``cap`` one weight sum 1..max_total at a time, in (sum, lexicographic)
    order, with one ``canonicalize`` per vector."""
    firsts, seen, scanned = [], set(), 0
    for total in range(1, max_total + 1):
        for vec in descending_vectors(total, parts, cap):
            scanned += 1
            signature = canonicalize(WeightedVotingGame(vec, quota))
            if signature not in seen:
                seen.add(signature)
                firsts.append(vec)
    return firsts, scanned


def variance(dist):
    """Variance of a ``twotier.simulation.Distribution``: (high - low)^2 / 12
    for uniform, std^2 for normal."""
    if dist.name == "uniform":
        low, high = dist.params
        return (high - low) ** 2 / 12.0
    return dist.params[1] ** 2


def median_shock_variance(population, dist):
    """Variance of the sample median of ``population`` draws from ``dist``:
    the model's formula for the spread of a constituency's median shock.

    Exact (from Beta order-statistic moments) for uniform distributions;
    the large-sample expression pi * sigma^2 / (2n) for normal ones.
    """
    n = population
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
    return math.pi * variance(dist) / (2.0 * n)
