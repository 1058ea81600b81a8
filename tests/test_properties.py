"""Hypothesis properties of the solver against the brute-force oracle, n <= 10.

Claims checked here:
    - selftest.check_routes_agree holds on arbitrary (text, pattern)
      pairs: bkm_count equals brute_force_count, count_ppm equals it and
      detect_ppm says whether it is positive
    - the same on planted pairs, whose pattern is the order pattern of a
      subsequence of the text, so the count is at least one
    - the greedy chain, detection's leaf check, holds exactly when the
      counting DP is nonzero, on arbitrary sorted buckets over 1..12 and
      an arbitrary order of their positions
    - detection's prefix check holds exactly when some value-increasing
      assignment puts the placed positions in their buckets and every
      later position in the shared list, on arbitrary patterns, buckets
      and lists over 1..12
    - the counting DP gives the same count and the same operation counts
      on buckets in text order as on the same buckets sorted

Examples are derandomized, so every run draws the same cases; a failure
shrinks to a minimal counterexample.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ppm.core import Permutation, PpmInstance, pattern_of
from ppm.dp import DpStats, _count_levels, _has_chain
from ppm.oracle import brute_force_count
from ppm.selftest import check_routes_agree

MAX_N = 10

_settings = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def random_pairs(draw):
    n = draw(st.integers(1, MAX_N))
    k = draw(st.integers(1, n))
    sigma = draw(st.permutations(range(1, n + 1)))
    pattern = draw(st.permutations(range(1, k + 1)))
    return PpmInstance(Permutation(tuple(sigma)), Permutation(tuple(pattern)))


@st.composite
def buckets_and_order(draw):
    # Buckets are drawn independently, so neighbours often share a value,
    # as the buckets of segments meeting at an overlap position do.
    m = draw(st.integers(1, 6))
    buckets = [sorted(draw(st.sets(st.integers(1, 12), min_size=1))) for _ in range(m)]
    order = draw(st.permutations(range(1, m + 1)))
    return buckets, order[:draw(st.integers(1, m))]


@st.composite
def shuffled_buckets_and_order(draw):
    buckets, order = draw(buckets_and_order())
    return [draw(st.permutations(b)) for b in buckets], order


@st.composite
def prefix_cases(draw):
    # The shared list draws from the buckets' range, so it often repeats a
    # bucket value, as the text after an anchor repeats the value there.
    k = draw(st.integers(1, 7))
    pattern = draw(st.permutations(range(1, k + 1)))
    m = draw(st.integers(1, k))
    buckets = [sorted(draw(st.sets(st.integers(1, 12), min_size=1))) for _ in range(m)]
    rest = sorted(draw(st.sets(st.integers(1, 12))))
    return pattern, buckets, rest


@st.composite
def planted_pairs(draw):
    n = draw(st.integers(1, MAX_N))
    sigma = draw(st.permutations(range(1, n + 1)))
    positions = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return PpmInstance(Permutation(tuple(sigma)), pattern_of([sigma[p] for p in sorted(positions)]))


@_settings
@given(random_pairs())
def test_random_pairs_match_oracle(inst):
    assert check_routes_agree([inst]) == ""


@_settings
@given(planted_pairs())
def test_planted_pairs_match_oracle(inst):
    assert check_routes_agree([inst]) == ""
    assert brute_force_count(inst) >= 1


@_settings
@given(buckets_and_order())
def test_greedy_chain_matches_dp(case):
    buckets, order = case
    assert _has_chain(buckets, order) == (_count_levels(buckets, order, None) > 0)


@_settings
@given(shuffled_buckets_and_order())
def test_count_is_independent_of_bucket_order(case):
    buckets, order = case
    unsorted_stats, sorted_stats = DpStats(), DpStats()
    got = _count_levels(buckets, order, unsorted_stats)
    assert got == _count_levels([sorted(b) for b in buckets], order, sorted_stats)
    assert unsorted_stats == sorted_stats


def _fits_directly(pattern, buckets, rest):
    """Whether the prefix check's relaxation holds, by trying every assignment.

    Values must increase in pattern-value order. Position p <= len(buckets)
    draws from buckets[p - 1], and every later position from `rest`.
    """
    where = {v: p for p, v in enumerate(pattern, start=1)}

    def place(v, prev):
        if v > len(pattern):
            return True
        p = where[v]
        pool = buckets[p - 1] if p <= len(buckets) else rest
        return any(place(v + 1, x) for x in pool if x > prev)

    return place(1, 0)


@_settings
@given(prefix_cases())
def test_prefix_check_matches_direct_search(case):
    pattern, buckets, rest = case
    pinv = Permutation(tuple(pattern)).inverse_values
    assert _has_chain(buckets, pinv, rest) == _fits_directly(pattern, buckets, rest)
