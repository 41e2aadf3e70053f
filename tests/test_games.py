"""Game representation, exact quota arithmetic, canonical forms, enumeration."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twotier import (
    CanonicalGameSignature,
    ResourceLimitError,
    WeightedVotingGame,
    canonicalize,
    enumerate_game_classes,
    exact_quota,
)
from twotier import games as games_module
from twotier.games import _minimal_winning_rows
from tests.reference import descending_vectors, reference_class_firsts, wins

HALF = Fraction(1, 2)

# fixed example sequence, so a run of the suite is reproducible
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def games(draw, max_players=8):
    """Games with zero weights, weights above the largest losing weight, and
    quotas from 1/2 to 99/100 or exactly at the weight of some coalition."""
    m = draw(st.integers(1, max_players))
    weight = st.integers(0, 6) | st.integers(0, 60)
    weights = draw(st.lists(weight, min_size=m, max_size=m).filter(any))
    total = sum(weights)
    members = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    at_quota = Fraction(sum(w for w, x in zip(weights, members) if x), total)
    if draw(st.booleans()) and HALF <= at_quota < 1:
        quota = at_quota  # that coalition sits exactly at q * T and loses
    else:
        quota = Fraction(draw(st.integers(50, 99)), 100)
    return WeightedVotingGame(tuple(weights), quota)


@st.composite
def weight_sum_batches(draw, max_players=7):
    """Non-increasing weight vectors with one weight sum, each after the
    first moving one unit between two players of the one before (zeros,
    ties and repeated rows), with a quota from 1/2 to 99/100 or exactly at
    the weight of some coalition of the last vector."""
    m = draw(st.integers(1, max_players))
    vec = sorted(draw(st.lists(st.integers(0, 12), min_size=m, max_size=m).filter(any)), reverse=True)
    batch = [tuple(vec)]
    for give, take in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=30)):
        if vec[give]:
            vec[give] -= 1
            vec[take] += 1
            vec.sort(reverse=True)
        batch.append(tuple(vec))
    members = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    at_quota = Fraction(sum(w for w, x in zip(vec, members) if x), sum(vec))
    if draw(st.booleans()) and HALF <= at_quota < 1:
        quota = at_quota
    else:
        quota = Fraction(draw(st.integers(50, 99)), 100)
    return tuple(batch), quota


def minimal_winning_oracle(game):
    """Signature by definition: winning coalitions of the weight-sorted game
    from which every one-member removal loses."""
    m = game.num_players
    ordered = WeightedVotingGame(tuple(sorted(game.weights, reverse=True)), game.quota_ratio)
    minimal = []
    for mask in range(1 << m):
        members = [i for i in range(m) if (mask >> i) & 1]
        if wins(ordered, members) and not any(wins(ordered, [j for j in members if j != i]) for i in members):
            minimal.append(mask)
    return CanonicalGameSignature(m, tuple(minimal))


def random_game(rng, max_players=6, max_weight=9):
    m = int(rng.integers(1, max_players + 1))
    weights = rng.integers(0, max_weight + 1, m)
    if not weights.any():
        weights[int(rng.integers(0, m))] = 1
    quota = [Fraction(1, 2), Fraction(2, 3), Fraction(37, 50)][int(rng.integers(0, 3))]
    return WeightedVotingGame(tuple(int(w) for w in weights), quota)


class TestConstruction:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            WeightedVotingGame((), HALF)
        with pytest.raises(ValueError):
            WeightedVotingGame((1, -1), HALF)
        with pytest.raises(ValueError):
            WeightedVotingGame((0, 0, 0), HALF)

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), True, "2"])
    def test_rejects_non_integer_weights(self, bad):
        with pytest.raises(ValueError, match="weight must be an integer"):
            WeightedVotingGame((3, bad), HALF)

    def test_accepts_numpy_integer_weights(self):
        game = WeightedVotingGame(tuple(np.array([3, 2, 0])), HALF)
        assert game.weights == (3, 2, 0)
        assert all(type(w) is int for w in game.weights)

    def test_quota_range(self):
        with pytest.raises(ValueError):
            WeightedVotingGame((1, 1), Fraction(1, 3))
        with pytest.raises(ValueError):
            WeightedVotingGame((1, 1), Fraction(1, 1))
        assert WeightedVotingGame((1, 1), HALF).quota_ratio == HALF

    def test_float_quota_rejected(self):
        with pytest.raises(TypeError):
            exact_quota(0.74)
        assert exact_quota("0.74") == Fraction(37, 50)

    def test_text_round_trip(self):
        game = WeightedVotingGame((42, 25, 24, 9), HALF)
        assert game.to_text() == "1/2; 42,25,24,9"
        assert WeightedVotingGame.from_text(game.to_text()) == game
        assert WeightedVotingGame.from_text("37/50; 3,2,1") == WeightedVotingGame((3, 2, 1), Fraction(37, 50))

    @pytest.mark.parametrize("bad", ["", "1/2", "1/2; 1,x", "0.74; ", "a/b; 1,2"])
    def test_malformed_text(self, bad):
        with pytest.raises(ValueError):
            WeightedVotingGame.from_text(bad)


def wins_by_bar(game, members):
    """The game's own decision: a coalition wins iff its weight exceeds ``bar``."""
    return sum(game.weights[i] for i in set(members)) > game.bar


class TestIsWinning:
    """A coalition wins iff its weight exceeds ``bar``, the largest losing
    weight, which agrees with the quota's definition in ``reference.wins``."""

    def test_strict_quota_examples(self):
        game = WeightedVotingGame((42, 25, 24, 9), HALF)
        assert game.bar == 50
        for members, expected in (({1, 2}, False), ({0, 3}, True), ((), False), (range(4), True)):
            assert wins_by_bar(game, members) == wins(game, members) == expected  # weights 49, 51, 0, 100

    def test_weight_exactly_at_quota_loses(self):
        game = WeightedVotingGame((40, 25, 25, 10), HALF)
        assert game.bar == 50
        assert not wins_by_bar(game, {0, 3}) and not wins(game, {0, 3})  # weight 50 is not strictly above 50

    @PROPERTY
    @given(games())
    def test_bar_is_largest_losing_weight(self, game):
        threshold = game.quota_ratio * game.total_weight
        assert game.bar == math.floor(threshold)
        assert [w > game.bar for w in range(game.total_weight + 1)] == [
            w > threshold for w in range(game.total_weight + 1)
        ]
        for mask in range(1 << game.num_players):
            members = [i for i in range(game.num_players) if (mask >> i) & 1]
            assert wins_by_bar(game, members) == wins(game, members)

    def test_member_iterables(self):
        # the reference takes any iterable of indices and counts a member once
        game = WeightedVotingGame((42, 25, 24, 9), HALF)
        assert wins(game, [3, 0, 3]) and wins(game, (i for i in (0, 3)))
        assert wins(game, range(1, 4)) and not wins(game, (1, 2, 2))

    def test_monotonicity_and_properness(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            game = random_game(rng)
            m = game.num_players
            members = [i for i in range(m) if rng.random() < 0.5]
            superset = sorted(set(members) | {int(rng.integers(0, m))})
            if wins_by_bar(game, members):
                assert wins_by_bar(game, superset)
                complement = [i for i in range(m) if i not in members]
                assert not wins_by_bar(game, complement)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            game = random_game(rng)
            scaled = WeightedVotingGame(tuple(7 * w for w in game.weights), game.quota_ratio)
            members = [i for i in range(game.num_players) if rng.random() < 0.5]
            assert wins_by_bar(game, members) == wins_by_bar(scaled, members) == wins(game, members)


class TestCanonicalize:
    def test_dictator_variants_equal(self):
        assert canonicalize(WeightedVotingGame((1, 2), HALF)) == canonicalize(
            WeightedVotingGame((4, 2), HALF)
        )

    def test_scaling_equal(self):
        assert canonicalize(WeightedVotingGame((1, 1, 1), HALF)) == canonicalize(
            WeightedVotingGame((2, 2, 2), HALF)
        )

    def test_structurally_different(self):
        # {2,3,4} wins under (2,1,1,1) but loses under (3,1,1,1)
        assert canonicalize(WeightedVotingGame((2, 1, 1, 1), HALF)) != canonicalize(
            WeightedVotingGame((3, 1, 1, 1), HALF)
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            game = random_game(rng)
            perm = rng.permutation(game.num_players)
            shuffled = WeightedVotingGame(tuple(game.weights[p] for p in perm), game.quota_ratio)
            assert canonicalize(game) == canonicalize(shuffled)

    def test_signature_contents(self):
        sig = canonicalize(WeightedVotingGame((1, 0, 0), HALF))
        assert sig == CanonicalGameSignature(3, (1,))

    @PROPERTY
    @given(games())
    @example(WeightedVotingGame((3, 3, 3, 1, 1, 0, 0, 0), HALF))  # tied and zero weights
    @example(WeightedVotingGame((40, 25, 25, 10), HALF))  # {40, 10} sits exactly at the quota
    @example(WeightedVotingGame((5, 5, 5, 5, 5, 5, 5, 5), Fraction(5, 8)))  # five of eight sit at it
    @example(WeightedVotingGame((6 * 10**5, 5 * 10**5, 4 * 10**5), Fraction(10**13 + 1, 2 * 10**13)))  # weight × 2e13 > int64
    @example(WeightedVotingGame((2**62, 2**62, 2**62), HALF))  # coalition weights past int64
    @example(WeightedVotingGame((2**70, 2**69, 1), Fraction(2, 3)))  # weights past int64
    def test_equals_definition_property(self, game):
        assert canonicalize(game) == minimal_winning_oracle(game)

    @PROPERTY
    @given(weight_sum_batches(), st.integers(1, 5))
    @example((((3, 3, 3, 1, 1, 0, 0), (3, 3, 2, 2, 1, 0, 0), (3, 3, 3, 1, 1, 0, 0)), HALF), 1)  # ties, zeros, repeats
    @example((((40, 25, 25, 10), (50, 25, 25, 0), (25, 25, 25, 25)), HALF), 2)  # {40, 10} sits exactly at the quota
    @example(
        (((6 * 10**5, 5 * 10**5, 4 * 10**5), (5 * 10**5,) * 3, (15 * 10**5, 0, 0)), Fraction(10**13 + 1, 2 * 10**13)),
        1,
    )  # weight × 2e13 > int64
    def test_batch_rows_equal_definition_property(self, batch, chunk_rows):
        vecs, quota = batch
        bars = np.array([quota.numerator * sum(vec) // quota.denominator for vec in vecs])  # one bar per row
        m = len(vecs[0])
        with mock.patch.object(games_module, "_CANONICAL_CHUNK_BYTES", chunk_rows * (8 << m)):
            rows = _minimal_winning_rows(np.array(vecs, dtype=np.int64), bars)
        assert rows.shape == (len(vecs), 1 << m)
        for vec, row in zip(vecs, rows):
            expected = minimal_winning_oracle(WeightedVotingGame(vec, quota))
            assert CanonicalGameSignature(m, tuple(row.nonzero()[0].tolist())) == expected

    def test_player_cap(self):
        game = WeightedVotingGame((1,) * 21, HALF)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                canonicalize(game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # the 2^21 coalition weights alone would take 16 MiB
        assert canonicalize(WeightedVotingGame((1, 1, 1, 1), HALF)).minimal_winning == (7, 11, 13, 14)
        # 20 players, at the cap, still run: the 11-member coalitions are minimal
        assert len(canonicalize(WeightedVotingGame((1,) * 20, HALF)).minimal_winning) == math.comb(20, 11)


class TestEnumeration:
    def test_single_player(self):
        assert enumerate_game_classes(1, HALF, 3).count == 1

    def test_two_players(self):
        enum = enumerate_game_classes(2, HALF, 4)
        assert enum.count == 2
        assert enum.representatives() == ((1, 0), (1, 1))  # dictator+null, unanimity

    def test_four_player_count_stable(self):
        enum8 = enumerate_game_classes(4, HALF, 8)
        enum12 = enumerate_game_classes(4, HALF, 12)
        assert enum8.count == 9
        assert enum12.count == 9
        assert {c.signature for c in enum8.classes} == {c.signature for c in enum12.classes}

    @pytest.mark.parametrize("players, bound, count", [(5, 8, 27), (6, 6, 104)])
    def test_larger_counts_pinned(self, players, bound, count):
        assert enumerate_game_classes(players, HALF, bound).count == count

    def test_count_non_decreasing_in_bound(self):
        counts = [enumerate_game_classes(4, HALF, bound).count for bound in (1, 2, 4, 8)]
        assert counts == sorted(counts)

    def test_budget_guard(self):
        # C(30, 10) - 1 = 30,045,014 vectors of 2^10 coalitions, and 10,625 of
        # 2^20, each past the limit of 10^7 * 2^6 coalitions
        for players, bound in [(10, 20), (20, 4)]:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError):
                    enumerate_game_classes(players, HALF, bound)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16  # refused before any scan is allocated

    def test_one_player_scan_counts_no_weight_sums(self):
        # a vector per weight sum, each a dictator game: one class, whatever
        # the bound, with no int64 count per sum (about 3 GB at 10^8, which
        # the vector limit admits); one past that limit is refused before
        # anything is allocated
        for bound, scan in [(10**8, ([(1,)], 10**8)), (320_000_001, None)]:
            tracemalloc.start()
            try:
                if scan is None:
                    with pytest.raises(ResourceLimitError):
                        enumerate_game_classes(1, HALF, bound)
                else:
                    assert games_module._class_firsts(1, HALF, bound, bound) == scan
                    assert enumerate_game_classes(1, HALF, bound).representatives() == ((1,),)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16

    def test_guard_counts_scanned_vectors(self):
        # 7^10 = 282,475,249 grid points, but only C(16, 10) - 1 = 8,007
        # non-increasing vectors of 2^10 coalitions each
        assert enumerate_game_classes(10, HALF, 6).count == 4_327

    @pytest.mark.parametrize(
        "players, bound, name",
        [(True, 4, "num_players"), (2.0, 4, "num_players"), (0, 4, "num_players"),
         (2, True, "weight_bound"), (2, 4.0, "weight_bound"), (2, 0, "weight_bound")],
    )
    def test_rejects_bad_integers(self, players, bound, name):
        with pytest.raises(ValueError, match=name):
            enumerate_game_classes(players, HALF, bound)

    @pytest.mark.parametrize("quota", [HALF, Fraction(2, 3), Fraction(37, 50)])
    @pytest.mark.parametrize("players, bound", list(itertools.product(range(1, 5), range(1, 5))))
    def test_matches_brute_force_reference(self, players, bound, quota):
        # every vector of the grid, in any order: each class keeps its
        # (sum, lex)-minimal sorted vector, and classes come in that order
        best = {}
        for vec in itertools.product(range(bound + 1), repeat=players):
            if any(vec):
                rep = tuple(sorted(vec, reverse=True))
                signature = canonicalize(WeightedVotingGame(vec, quota))
                best[signature] = min(best.get(signature, rep), rep, key=lambda v: (sum(v), v))
        expected = sorted(best.items(), key=lambda item: (sum(item[1]), item[1]))
        enum = enumerate_game_classes(players, quota, bound)
        assert [(c.signature, c.representative) for c in enum.classes] == expected

    @pytest.mark.parametrize("players, bound", [(4, 8), (5, 8), (6, 6)])
    def test_same_classes_across_chunks(self, players, bound, monkeypatch):
        expected = enumerate_game_classes(players, HALF, bound)
        # three rows a chunk: the largest weight sums hold more
        total = players * bound // 2
        assert len(games_module._descending_partitions(range(total, total + 1), players, bound)) > 3
        monkeypatch.setattr(games_module, "_CANONICAL_CHUNK_BYTES", 3 * (8 << players))
        assert enumerate_game_classes(players, HALF, bound) == expected

    @PROPERTY
    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([HALF, Fraction(2, 3), Fraction(37, 50), Fraction(2**62 + 1, 2**63)]),
        st.integers(1, 5) | st.just(256),
    )
    @example(4, 4, False, HALF, 1)  # classes found in early chunks recur in later ones
    @example(4, 4, True, HALF, 256)  # a chunk holds many rows of one class
    @example(3, 4, True, Fraction(2**62 + 1, 2**63), 2)  # numerator x weight sum > int64
    def test_class_firsts_equal_reference_property(self, parts, size, exhaustive, quota, chunk_rows):
        # the exhaustive search's shape (cap = max_total) or the enumeration's
        # (max_total = parts * cap), a few rows a chunk, so scans span chunks,
        # or many, so equal rows meet within one
        max_total, cap = (3 * size, 3 * size) if exhaustive else (parts * size, size)
        with mock.patch.object(games_module, "_CANONICAL_CHUNK_BYTES", chunk_rows * (8 << parts)):
            scan = games_module._class_firsts(parts, quota, max_total, cap)
        assert scan == reference_class_firsts(parts, quota, max_total, cap)

    def test_partitions_equal_reference(self):
        # rows of a range of weight sums, in (sum, lexicographic) order
        for parts, cap, totals in [(1, 5, range(1, 8)), (4, 3, range(0, 14)), (6, 6, range(10, 13))]:
            expected = [vec for total in totals for vec in descending_vectors(total, parts, cap)]
            assert games_module._descending_partitions(totals, parts, cap).tolist() == [list(v) for v in expected]

    def test_scan_memory_bounded(self):
        # bounded chunks keep the peak near that of the largest weight sum's
        # rows (13,561 at sum 120), not of the whole scan's 430,255 vectors;
        # a scan one weight sum at a time peaks at about 2.1 MiB here
        games_module._class_firsts(4, HALF, 20, 20)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            firsts, scanned = games_module._class_firsts(4, HALF, 120, 120)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(firsts), scanned) == (9, 430_255)
        assert peak < 3 << 20

    def test_representative_is_minimal(self):
        enum = enumerate_game_classes(3, HALF, 6)
        for cls in enum.classes:
            game = WeightedVotingGame(cls.representative, HALF)
            assert canonicalize(game) == cls.signature
            assert cls.representative == tuple(sorted(cls.representative, reverse=True))
