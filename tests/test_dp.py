"""Confined counting: the linear-time layer-by-layer counter.

Claims checked here:
    - the bucket pass returns each segment's text values as a slice of the
      text, in text order, and the DP sorts a bucket only when it reaches
      that bucket's level
    - count_respecting equals filtering the exhaustive enumeration by
      respects, exhaustively at small n and on random pairs up to n = 12
    - the run stays linear: cell writes and cursor advances stay within
      the stated bounds and the cursor only moves forward
    - the result ignores text values outside the segments (re-ranking)
    - the greedy chain says whether the DP count is nonzero, on every
      family member and every prefix order, and it needs strictly
      increasing values where neighbouring buckets share one
    - detection's prefix check (the chain with later positions drawing
      from the text after the prefix) holds on every anchor prefix that
      some nonzero member shares, and only where the prefix positions
      chain alone; it drops many prefixes that chain
    - malformed decompositions are rejected with the documented errors
"""

import random

import pytest

from ppm import dp, oracle, solver
from ppm.core import (
    EmptySegment,
    LengthMismatch,
    Permutation,
    PpmInstance,
    SegmentDecomposition,
    pattern_of,
    respects,
    validate_decomposition,
)
from ppm.dp import (
    DpStats,
    _count_levels,
    _has_chain,
    _segment_value_buckets,
    count_respecting,
)
from ppm.selftest import all_permutations, random_family_decomposition, random_instance


def _inst(sigma, pattern):
    return PpmInstance(Permutation(tuple(sigma)), Permutation(tuple(pattern)))


def _oracle_count(inst, d):
    return sum(1 for f in oracle.brute_force_enumerate(inst) if respects(f, d))


# -- segment values: the bucket pass -----------------------------------------


def test_segment_values_worked_example():
    sigma = Permutation((8, 1, 3, 9, 5, 4, 2, 7, 6))
    segments = ((1, 2), (2, 3), (3, 6), (6, 7), (7, 9))
    want = [(8, 1), (1, 3), (3, 9, 5, 4), (4, 2), (2, 7, 6)]
    assert _segment_value_buckets(sigma, segments) == want
    assert want == [sigma.values[lo - 1:hi] for lo, hi in segments]


def test_segment_values_trivial():
    assert _segment_value_buckets(Permutation((1,)), ((1, 1),)) == [(1,)]
    assert _segment_value_buckets(Permutation((2, 1)), ((1, 1), (2, 2))) == [(2,), (1,)]
    assert _segment_value_buckets(Permutation((2, 1)), ((1, 2),)) == [(2, 1)]


def test_segment_values_sorted_and_sized():
    # The buckets are the text's own slices; _count_levels sorts one only
    # when its level is reached (test_sorts_only_the_buckets_of_reached_levels).
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 14)
        k = rng.randint(1, n)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = Permutation(tuple(sigma))
        d = random_family_decomposition(rng, n, k)
        vals = _segment_value_buckets(sigma, d.segments)
        assert sum(len(v) for v in vals) <= n + k - 1
        for (lo, hi), v in zip(d.segments, vals):
            assert v == sigma.values[lo - 1:hi]
            assert len(v) == hi - lo + 1


# -- count_respecting: frozen vectors ----------------------------------------


def test_count_respecting_worked_example():
    inst = _inst((3, 2, 5, 4, 1), (1, 3, 2))
    d = SegmentDecomposition(((1, 2), (2, 4), (4, 5)), 5)
    assert count_respecting(inst, d) == 2
    assert _oracle_count(inst, d) == 2


def test_count_respecting_overlapping_segments_matches_oracle():
    inst = _inst((8, 1, 3, 9, 5, 4, 2, 7, 6), (5, 2, 3, 1, 4))
    d = SegmentDecomposition(((1, 2), (2, 3), (3, 6), (6, 7), (7, 9)), 9)
    got = count_respecting(inst, d)
    assert got == _oracle_count(inst, d)
    assert got >= 1  # the known occurrence (1, 3, 5, 7, 9) lands in these segments


def test_count_respecting_zero():
    inst = _inst((2, 1), (1, 2))
    assert count_respecting(inst, SegmentDecomposition(((1, 1), (2, 2)), 2)) == 0


def test_count_respecting_single_value_pattern():
    rng = random.Random(5)
    for n in (1, 2, 7, 11):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        inst = _inst(sigma, (1,))
        assert count_respecting(inst, SegmentDecomposition(((1, n),), n)) == n


# -- count_respecting: oracle equivalence ------------------------------------


def test_matches_enumeration_exhaustively_small():
    for n in range(1, 6):
        sigmas = all_permutations(n)
        for k in range(1, n + 1):
            family = [
                solver.decomposition_of_guess(g, n, k)
                for g in solver.enumerate_guesses(n, k)
            ]
            for pat in all_permutations(k):
                for sig in sigmas:
                    inst = PpmInstance(sig, pat)
                    sols = oracle.brute_force_enumerate(inst)
                    for d in family:
                        want = sum(1 for f in sols if respects(f, d))
                        assert count_respecting(inst, d) == want


def test_matches_enumeration_random_pairs():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(2, 12)
        inst = random_instance(rng, n)
        d = random_family_decomposition(rng, n, inst.k)
        assert count_respecting(inst, d) == _oracle_count(inst, d)


def test_matches_enumeration_on_point_gap_decompositions():
    # The bkm-style segments exercise heavy point-segment overlap.
    rng = random.Random(19)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 12)
        inst = random_instance(rng, n)
        anchors = tuple(sorted(rng.sample(range(1, n + 1), inst.k // 2)))
        d = SegmentDecomposition(oracle._bkm_segments(anchors, n, inst.k), n)
        try:
            validate_decomposition(d)
        except EmptySegment:  # the guess leaves a gap empty
            continue
        assert count_respecting(inst, d) == _oracle_count(inst, d)
        checked += 1


# -- linearity ---------------------------------------------------------------


def test_stats_stay_linear_random():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 40)
        inst = random_instance(rng, n)
        d = random_family_decomposition(rng, n, inst.k)
        stats = DpStats()
        count_respecting(inst, d, stats=stats)
        assert stats.cell_writes <= n + inst.k - 1
        assert stats.cursor_advances <= n + inst.k - 1
        assert stats.total <= 2 * (n + inst.k)


def test_stats_accumulate_across_runs():
    inst = _inst((2, 1), (1,))
    d = SegmentDecomposition(((1, 2),), 2)
    stats = DpStats()
    count_respecting(inst, d, stats=stats)
    first = stats.total
    count_respecting(inst, d, stats=stats)
    assert stats.total == 2 * first


def test_stats_stop_at_first_zero_level():
    # Identity text, pattern 2 1 3: level 2 places pattern value 2 on [1, 2]
    # below nothing placed on [2, 3], so it is all zero and level 3 never runs.
    inst = _inst(range(1, 7), (2, 1, 3))
    d = SegmentDecomposition(((1, 2), (2, 3), (3, 6)), 6)
    stats = DpStats()
    assert count_respecting(inst, d, stats=stats) == 0
    assert stats.cell_writes == 4 < sum(map(len, _segment_value_buckets(inst.sigma, d.segments)))


def test_sorts_only_the_buckets_of_reached_levels(monkeypatch):
    sorted_sizes = []

    def counting_sorted(values):
        sorted_sizes.append(len(values))
        return sorted(values)

    monkeypatch.setattr(dp, "sorted", counting_sorted, raising=False)
    # The instance above stops at level 2, so the bucket of [3, 6] is never sorted.
    inst = _inst(range(1, 7), (2, 1, 3))
    d = SegmentDecomposition(((1, 2), (2, 3), (3, 6)), 6)
    assert count_respecting(inst, d) == 0
    assert sorted_sizes == [2, 2]
    # Identity text and pattern: every member is nonzero, so every level runs.
    n, k = 12, 6
    inst = _inst(range(1, n + 1), range(1, k + 1))
    for g in solver.enumerate_guesses(n, k):
        sorted_sizes.clear()
        assert count_respecting(inst, solver.decomposition_of_guess(g, n, k)) > 0
        assert len(sorted_sizes) == k


# -- existence: the greedy chain --------------------------------------------


def test_has_chain_is_strict_on_shared_overlap_values():
    # Segments [1, 2] and [2, 3] share position 2, so both buckets hold its
    # value 3; one value cannot serve two consecutive pattern values.
    assert not _has_chain([[3], [3]], [1, 2])
    assert _count_levels([[3], [3]], [1, 2], None) == 0
    assert _has_chain([[1, 3], [3, 5]], [1, 2])
    assert _has_chain([[3], [3, 5]], [1, 2])
    assert not _has_chain([[3, 5], [3]], [1, 2])
    # The greedy step must take the smallest value above the last one:
    # 3 for position 1 leaves 4 for position 2 and 5 for position 3.
    assert _has_chain([[3, 5], [4, 5], [5]], [1, 2, 3])
    assert not _has_chain([[3, 5], [4, 5], [5]], [3, 2, 1])


def test_has_chain_agrees_with_count_on_family_prefixes():
    rng = random.Random(71)
    checked = nonzero = 0
    for _ in range(2000):
        inst = random_instance(rng, rng.randint(1, 14))
        n, k = inst.n, inst.k
        pinv = inst.pattern.inverse_values
        orders = [[p for p in pinv if p <= 2 * j] for j in range(1, k // 2 + 1)] + [list(pinv)]
        for g in solver.enumerate_guesses(n, k):
            d = solver.decomposition_of_guess(g, n, k)
            buckets = [sorted(v) for v in _segment_value_buckets(inst.sigma, d.segments)]
            for order in orders:
                want = _count_levels(buckets, order, None) > 0
                assert _has_chain(buckets, order) == want, (inst, g, order)
                checked += 1
                nonzero += want
    assert nonzero > 1000 and checked - nonzero > 1000


def test_has_chain_places_later_positions_in_gaps_and_tail():
    # Pattern 3 6 1 5 2 4 (inverse 3 5 1 6 4 2). With buckets for positions
    # 1..4, values 2 and 4 sit at positions 5 and 6 and draw from `rest`:
    # one gap between 1 and 3, one between 3 and 5, none at the end.
    pinv = (3, 5, 1, 6, 4, 2)
    assert _has_chain([[5], [9], [1], [7]], pinv, [3, 6])
    assert not _has_chain([[5], [9], [1], [7]], pinv, [3, 5])
    # Positions 1..2 only (values 3, 6): a gap of two below 3, two between
    # 3 and 6, none at the end; each run takes the smallest values above.
    assert _has_chain([[5], [9]], pinv, [1, 2, 6, 7])
    assert not _has_chain([[5], [9]], pinv, [1, 6, 7, 10])
    assert not _has_chain([[5], [9]], pinv, [1, 2, 6, 10])
    # Position 1 only (value 3): a gap of two below it, a tail of three above.
    assert _has_chain([[5]], pinv, [1, 2, 6, 7, 8])
    assert not _has_chain([[5]], pinv, [1, 2, 6, 7])
    # With every position in a bucket, `rest` is never read.
    assert _has_chain([[5], [9], [1], [7], [3], [6]], pinv)


def test_has_chain_is_strict_and_counts_the_later_positions():
    # Pattern 1 3 2 with position 1 in a bucket: values 2 and 3 are later, the tail.
    assert _has_chain([[2]], (1, 3, 2), [3, 4])
    # The tail needs two values above the placed one; the shared 2 is not above it.
    assert not _has_chain([[2]], (1, 3, 2), [2, 3])
    assert not _has_chain([[2]], (1, 3, 2), [1, 4])
    # Pattern 2 1 3 with position 1 in a bucket: one later value below it, one above.
    assert _has_chain([[3]], (2, 1, 3), [1, 4])
    assert not _has_chain([[3]], (2, 1, 3), [3, 4])
    assert not _has_chain([[3]], (2, 1, 3), [1, 2])
    # An odd-k leaf whose last anchor is n: position k draws from the empty
    # text after n, so the chain fails however the other positions fit.
    assert not _has_chain([[1], [2]], (1, 2, 3), [])
    assert not _has_chain([[1], [2]], (1, 2, 3))


def test_prefix_check_is_sound_and_stronger_on_every_prefix():
    # Every member and every prefix depth j < k//2 - 1 detection checks, at
    # 4 <= k <= n <= 8: the check holds whenever some member sharing the
    # prefix has a nonzero count, and only if positions 1..2j + 2 chain alone.
    rng = random.Random(73)
    checked = live = pruned_by_rest = 0
    for n in range(4, 9):
        for k in range(4, n + 1):
            r = k // 2
            members = list(solver.enumerate_guesses(n, k))
            for t in range(300):
                sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
                if t % 2:
                    positions = sorted(rng.sample(range(n), k))
                    pattern = pattern_of([sigma.values[p] for p in positions])
                else:
                    pattern = Permutation(tuple(rng.sample(range(1, k + 1), k)))
                inst = PpmInstance(sigma, pattern)
                sv, pinv = sigma.values, pattern.inverse_values
                nonzero = set()
                for g in members:
                    if count_respecting(inst, solver.decomposition_of_guess(g, n, k)):
                        nonzero.update(g[:j + 1] for j in range(r))
                for j in range(r - 1):
                    order = [p for p in pinv if p <= 2 * j + 2]
                    for prefix in sorted({g[:j + 1] for g in members}):
                        segs = solver._segments(prefix, n, k)[:2 * j + 2]
                        buckets = [sorted(sv[lo - 1:hi]) for lo, hi in segs]
                        fits = _has_chain(buckets, pinv, sorted(sv[prefix[-1]:]))
                        chain = _has_chain(buckets, order)
                        assert fits or prefix not in nonzero, (inst, prefix)
                        assert chain or not fits, (inst, prefix)
                        checked += 1
                        live += prefix in nonzero
                        pruned_by_rest += chain and not fits
    assert live > 3000 and pruned_by_rest > 3000 and checked - live - pruned_by_rest > 1500


# -- independence from uncovered positions -----------------------------------


def test_result_ignores_uncovered_values():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(3, 12)
        inst = random_instance(rng, n)
        d = random_family_decomposition(rng, n, inst.k)
        covered = sorted({p for lo, hi in d.segments for p in range(lo, hi + 1)})

        reshuffled = list(range(1, n + 1))
        rng.shuffle(reshuffled)
        # Give covered positions fresh values that keep their relative order.
        by_old_value = sorted(covered, key=lambda p: inst.sigma(p))
        fresh = sorted(reshuffled[p - 1] for p in covered)
        for p, v in zip(by_old_value, fresh):
            reshuffled[p - 1] = v
        other = PpmInstance(Permutation(tuple(reshuffled)), inst.pattern)
        assert count_respecting(other, d) == count_respecting(inst, d)


# -- error handling ----------------------------------------------------------


def test_wrong_segment_count():
    inst = _inst((2, 1), (1, 2))
    with pytest.raises(LengthMismatch):
        count_respecting(inst, SegmentDecomposition(((1, 2),), 2))


def test_wrong_ambient_length():
    inst = _inst((2, 1), (1, 2))
    with pytest.raises(LengthMismatch):
        count_respecting(inst, SegmentDecomposition(((1, 1), (2, 2)), 3))


def test_invalid_decomposition_propagates():
    inst = _inst((2, 1), (1, 2))
    with pytest.raises(EmptySegment):
        count_respecting(inst, SegmentDecomposition(((2, 1), (2, 2)), 2))
