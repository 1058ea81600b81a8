"""Anchor family, canonical member, and the summed counter.

Every count checked against a count known by other means goes through
selftest.check_known_counts, which checks detect_ppm on it too. Route
agreement on small instances, and the family sizes and validity up to
n = 20, are acceptance criteria 3 and 5.

Claims checked here:
    - decomposition_of_guess reproduces the worked segment tuples and
      accepts exactly the enumerated anchor tuples
    - enumerate_guesses streams guesses lazily in lexicographic order
      with O(n) state, and it and family_size refuse k > n
    - canonical_decomposition is the one family member an occurrence
      respects
    - count_ppm and detect_ppm meet the closed forms of monotone texts
      and patterns (n <= 32); count_ppm is invariant under summation
      order/partition and accepts any threads >= 1 without starting a
      thread or changing the result
    - past the oracle's reach: count_ppm is invariant under reversal,
      complement and inverse of both permutations (n = 24..28), and the
      counts of all k! patterns with k <= 3 sum to C(n, k) (n = 30..40)
    - detect_ppm short-circuits at the first nonzero member, finds
      planted patterns and keeps its answer under the symmetries
      (n = 28..40), and prunes anchor prefixes while visiting members in
      family order, checking a member's prefixes before its leaf; every
      check, member 1's too, is one greedy chain on the sorted first
      2(j + 1) segments of a family member, with the sorted text after
      their last anchor as the rest; it decides a one-member family with
      one chain and never runs the counting DP
    - the private solver._detect(inst, c) gives detect_ppm's answer when
      the search makes at most c chains and None when it needs one more;
      an identity text against a pattern ending in a descent makes the most,
      binom(m//2 + 1, k//2) - 1 over the live (m, k) family
      (3 <= k <= n <= 24), and every other search tried makes no more; at
      even n and odd k it skips the members whose last anchor is n, which
      hold no occurrence
    - its prefix check places the whole pattern, the later positions right
      of the prefix: it keeps only prefixes whose own positions chain, and
      strictly fewer than a check of those positions alone
    - detect_ppm says whether count_ppm is positive at k = n/2 +- 2,
      n = 14..22, both parities, where the search keeps deep prefixes
    - count_ppm and detect_ppm keep no stack frame per anchor: both run
      at k // 2 = 1,200, past CPython's recursion limit, and detect_ppm
      keeps O(n) memory: one sorted suffix at any depth, below 1 MiB of
      peak traced memory on the deep member-2 case there, within twice
      the checks that case needs, and with k // 2 <= 2 at n = 3,000
    - count_ppm sums the live family: it hands dp.count_respecting each
      live member once, in family order, and skips the
      binom(n/2 - 1, k//2 - 1) members whose last anchor is n at even n
      and odd k
    - far past the oracle's default reach, count_ppm and detect_ppm match
      brute_force_count(max_n=n) on random, planted and sparse texts with
      k <= 4 up to n = 200 and k = 5..6 up to n = 100
    - further still, they match an O(n log n) Fenwick counter for every
      pattern with k <= 3 at n = 500..2,000, on uniform and nearly sorted
      texts; the counter itself matches brute force at n <= 12
    - the lower-bound construction yields binom((n-1)//2, k//2) distinct
      valid members
"""

import random
import threading
import tracemalloc
from itertools import accumulate, islice, permutations, product
from math import comb, inf

import pytest

from ppm import cli, dp, oracle, solver
from ppm.core import (
    Embedding,
    InstanceTooLarge,
    InstanceTooSmall,
    LengthMismatch,
    OrderViolation,
    OutOfRange,
    Permutation,
    PpmInstance,
    SegmentDecomposition,
    format_permutation,
    is_solution,
    pattern_of,
    respects,
    validate_decomposition,
)
from ppm.rng import random_permutation
from ppm.selftest import check_known_counts, lowerbound_family, random_instance
from ppm.solver import (
    canonical_decomposition,
    count_ppm,
    decomposition_of_guess,
    detect_ppm,
    enumerate_guesses,
    family_size,
)


def _inst(sigma, pattern):
    return PpmInstance(Permutation(tuple(sigma)), Permutation(tuple(pattern)))


def _identity(n):
    return Permutation(tuple(range(1, n + 1)))


def _anti_identity(n):
    return Permutation(tuple(range(n, 0, -1)))


def _descent_ended(n, k):
    """Identity text of length n against (1..k-2, k, k-1): every prefix holds, every leaf fails."""
    return PpmInstance(_identity(n), Permutation(tuple(range(1, k - 1)) + (k, k - 1)))


# -- decomposition_of_guess ----------------------------------------------------


def test_decomposition_worked_example():
    d = decomposition_of_guess((2, 6), 9, 5)
    assert d.segments == ((1, 2), (2, 3), (3, 6), (6, 7), (7, 9))
    assert d.n == 9


def test_decomposition_trivial_cases():
    assert decomposition_of_guess((), 2, 1).segments == ((1, 2),)
    assert decomposition_of_guess((2,), 4, 2).segments == ((1, 2), (2, 3))
    # anchor at the last position of an even-length text clamps the window
    assert decomposition_of_guess((2,), 2, 2).segments == ((1, 2), (2, 2))


def test_decomposition_rejects_bad_anchors():
    decomposition_of_guess((), 1, 1)
    decomposition_of_guess((2, 4, 8), 8, 6)
    with pytest.raises(OutOfRange):
        decomposition_of_guess((3,), 9, 2)
    with pytest.raises(OutOfRange):
        decomposition_of_guess((0,), 9, 2)
    with pytest.raises(OrderViolation):
        decomposition_of_guess((4, 4), 9, 4)
    with pytest.raises(OrderViolation):
        decomposition_of_guess((6, 2), 9, 4)
    # A malformed anchor is reported before a count or range that does not fit.
    with pytest.raises(OutOfRange):
        decomposition_of_guess((3,), 9, 5)
    with pytest.raises(OrderViolation):
        decomposition_of_guess((6, 2), 2, 3)


def test_family_is_exactly_the_valid_anchor_tuples():
    # Mirrors test_bkm_counts_exactly_the_feasible_guesses. Candidates are all
    # k//2-tuples over 1..n, repeats and any order included, so the order
    # check is exercised too; those decomposition_of_guess accepts are, in
    # lexicographic order, exactly the family enumerate_guesses streams.
    for n in range(1, 11):
        for k in range(1, n + 1):
            accepted = []
            for anchors in product(range(1, n + 1), repeat=k // 2):
                try:
                    decomposition_of_guess(anchors, n, k)
                except (OutOfRange, OrderViolation):
                    continue
                accepted.append(anchors)
            assert accepted == list(enumerate_guesses(n, k)), (n, k)


def test_decomposition_guess_shape_errors():
    with pytest.raises(LengthMismatch):
        decomposition_of_guess((2,), 9, 5)
    with pytest.raises(OutOfRange):
        decomposition_of_guess((8,), 7, 2)
    with pytest.raises(InstanceTooSmall):
        decomposition_of_guess((), 2, 3)


# -- enumerate_guesses ---------------------------------------------------------


def test_enumerate_worked_examples():
    assert list(enumerate_guesses(9, 5)) == [
        (2, 4), (2, 6), (2, 8), (4, 6), (4, 8), (6, 8)
    ]
    assert list(enumerate_guesses(2, 1)) == [()]
    assert list(enumerate_guesses(6, 6)) == [(2, 4, 6)]


def test_enumerate_is_lazy_and_lexicographic():
    stream = enumerate_guesses(40, 20)
    head = list(islice(stream, 4))
    assert head == sorted(head)
    assert head[0] == tuple(range(2, 22, 2))


def test_enumerate_cardinality_and_rejection():
    # selftest.check_family pins every size up to n = 20 under criterion 5.
    assert family_size(9, 5) == len(list(enumerate_guesses(9, 5))) == 6
    with pytest.raises(InstanceTooSmall):
        enumerate_guesses(2, 3)
    with pytest.raises(InstanceTooSmall):
        family_size(2, 3)


# -- canonical_decomposition ---------------------------------------------------


def test_canonical_worked_examples():
    got = canonical_decomposition(Embedding((1, 3, 5, 7, 9)), 9)
    assert got.segments == ((1, 2), (2, 3), (3, 6), (6, 7), (7, 9))
    assert canonical_decomposition(Embedding((1, 2)), 2).segments == ((1, 2), (2, 2))
    assert canonical_decomposition(Embedding((1,)), 5).segments == ((1, 5),)
    with pytest.raises(OutOfRange):
        canonical_decomposition(Embedding((1, 2, 9)), 8)


def test_canonical_is_respected_and_unique():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 12)
        k = rng.randint(1, n)
        f = Embedding(tuple(sorted(rng.sample(range(1, n + 1), k))))
        canon = canonical_decomposition(f, n)
        hits = [
            d
            for g in enumerate_guesses(n, k)
            if respects(f, d := decomposition_of_guess(g, n, k))
        ]
        assert hits == [canon]


# -- count_ppm / detect_ppm ----------------------------------------------------


def test_count_worked_examples():
    assert count_ppm(_inst((3, 2, 5, 4, 1), (1, 3, 2))) == 2
    assert count_ppm(_inst((2, 1), (1, 2))) == 0
    assert count_ppm(_inst((1,), (1,))) == 1
    fig = _inst((8, 1, 3, 9, 5, 4, 2, 7, 6), (5, 2, 3, 1, 4))
    assert count_ppm(fig) == oracle.brute_force_count(fig)


def test_count_closed_forms():
    # A monotone pattern in a monotone text: any k-subset of positions works
    # when both run the same way, none when they run opposite ways (k >= 2).
    cases = [
        (PpmInstance(text, pattern), comb(n, k) if (text.values[0] == 1) == (pattern.values[0] == 1) else 0)
        for n, k in ((6, 3), (10, 4), (12, 6), (28, 8), (30, 7), (32, 8))
        for text in (_identity(n), _anti_identity(n))
        for pattern in (_identity(k), _anti_identity(k))
    ]
    # k = n is a single decomposition through the general path.
    cases += [(_inst((4, 1, 3, 2), (4, 1, 3, 2)), 1), (_inst((4, 1, 3, 2), (1, 4, 3, 2)), 0)]
    assert check_known_counts(cases) == ""


@pytest.mark.parametrize("n", [30, 35, 40])
def test_small_pattern_counts_sum_to_binomial(n):
    # Every k-subset of positions is an occurrence of exactly one k-pattern.
    sigma = random_permutation(n, 4000 + n)
    for k in (1, 2, 3):
        patterns = permutations(range(1, k + 1))
        assert sum(count_ppm(PpmInstance(sigma, Permutation(p))) for p in patterns) == comb(n, k)


def test_sum_is_partition_invariant():
    inst = _inst((8, 1, 3, 9, 5, 4, 2, 7, 6), (5, 2, 3, 1, 4))
    n, k = inst.n, inst.k
    per_member = [
        dp.count_respecting(inst, decomposition_of_guess(g, n, k))
        for g in enumerate_guesses(n, k)
    ]
    total = count_ppm(inst)
    assert sum(per_member) == total
    assert sum(reversed(per_member)) == total
    assert sum(per_member[:2]) + sum(per_member[2:]) == total


@pytest.mark.parametrize(
    "n,k",
    [(1, 1), (2, 2), (4, 3), (6, 5), (7, 3), (9, 4), (10, 5), (12, 6), (12, 7), (13, 7), (14, 5), (16, 8)],
)
def test_count_calls_dp_once_per_member_in_family_order(monkeypatch, n, k):
    # The benchmark's traced run times one count_respecting call per member.
    # At even n and odd k the members whose last anchor is n hold no
    # occurrence, and count skips them: binom(n/2 - 1, k//2 - 1) of them.
    calls = []
    real = dp.count_respecting

    def counting(instance, d, stats=None):
        calls.append(d)
        return real(instance, d, stats)

    monkeypatch.setattr(dp, "count_respecting", counting)
    count_ppm(PpmInstance(random_permutation(n, 100 + n), random_permutation(k, 200 + k)))
    dead = n % 2 == 0 and k % 2 == 1
    live = [g for g in enumerate_guesses(n, k) if not (dead and g[-1:] == (n,))]
    assert calls == [decomposition_of_guess(g, n, k) for g in live]
    assert family_size(n, k) - len(calls) == (comb(n // 2 - 1, k // 2 - 1) if dead and k >= 3 else 0)


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_threads_reproduce_sequential(threads):
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 14))
        assert count_ppm(inst, threads=threads) == count_ppm(inst)


def test_threads_validation():
    with pytest.raises(ValueError):
        count_ppm(_inst((1,), (1,)), threads=0)


def test_threads_start_no_thread(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("count_ppm started a thread")

    sigma, pattern = random_permutation(20, 3), random_permutation(6, 4)
    expected = count_ppm(PpmInstance(sigma, pattern))
    assert expected == 87
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert count_ppm(PpmInstance(sigma, pattern), threads=10**9) == expected
    argv = ["count", "--sigma", format_permutation(sigma), "--pattern", format_permutation(pattern)]
    assert cli.main(argv + ["--threads", "1000000000"]) == 0
    assert capsys.readouterr().out == f"{expected}\n"


def test_detect_worked_examples():
    assert detect_ppm(_inst((3, 2, 5, 4, 1), (1, 3, 2)))
    assert not detect_ppm(_inst((2, 1), (1, 2)))
    assert detect_ppm(_inst((1, 2, 3, 4), (1, 2, 3, 4)))


def test_detect_short_circuits(monkeypatch):
    # Identity text: the very first guess already contains an occurrence.
    found, leaves, _ = _record_checks(monkeypatch, PpmInstance(_identity(8), _identity(2)))
    assert found and len(leaves) == 1
    # Absent pattern: every member must be visited before saying no.
    found, leaves, _ = _record_checks(monkeypatch, _inst((2, 1), (1, 2)))
    assert not found and len(leaves) == family_size(2, 2)


def test_detect_decides_one_member_families_with_one_chain(monkeypatch):
    # k // 2 == 0 or k // 2 == n // 2: member 1 is the whole family, so its
    # own chain is the only check, whatever the answer. The recorder pins
    # its buckets, with the window at n when 2(k//2) = n, and for odd k
    # its rest, the text after its anchors.
    answers = set()
    for n in range(1, 9):
        for k in range(1, n + 1):
            if k // 2 not in (0, n // 2):
                continue
            assert family_size(n, k) == 1
            for seed in range(3):
                inst = PpmInstance(random_permutation(n, 7000 + seed), random_permutation(k, 7100 + seed))
                found, leaves, prefixes = _record_checks(monkeypatch, inst)
                answers.add(found)
                assert len(leaves) == 1 and not prefixes, (n, k, seed)
    assert answers == {True, False}


def test_routes_do_not_recurse_per_anchor():
    # The CLI admits k // 2 = 1,200, past CPython's recursion limit of 1,000.
    inst = PpmInstance(_identity(2400), _identity(2400))
    assert check_known_counts([(inst, 1)]) == ""
    assert not detect_ppm(PpmInstance(_identity(2402), _anti_identity(2400)))
    # Member 1 holds no occurrence but member 2 does, so the search first
    # keeps all 1,199 prefixes of member 1's anchors (about 0.35 s).
    assert detect_ppm(_deep_member_2())


def _deep_member_2():
    """n = 2402, k = 2400: member 1 holds no occurrence but member 2 does."""
    text = Permutation(tuple(range(1, 2401)) + (2402, 2401))
    pattern = Permutation(tuple(range(1, 2399)) + (2400, 2399))
    return PpmInstance(text, pattern)


def _traced_detect(inst, max_chains=inf):
    """_detect's answer within max_chains and the peak memory tracemalloc sees during the call."""
    tracemalloc.start()
    try:
        found = solver._detect(inst, max_chains)
        return found, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_detect_memory_stays_small():
    # The search keeps all 1,199 prefixes of member 1's anchors before it
    # reaches member 2. It holds two sorted segments per depth, which
    # together cover the text once, and one sorted text suffix. A sorted
    # suffix kept per placed anchor would take O(n^2): 11.6 MiB here.
    # It makes 1,201 checks. A search that missed member 2 would go on
    # through a family whose search time grows as n^3, for minutes under
    # tracing, so the checks are capped at twice that to fail in seconds.
    found, peak = _traced_detect(_deep_member_2(), 2 * 1201)
    assert found is True, f"{found}: None means twice the checks it needs ran out"
    assert peak < 2**20


def test_shallow_detect_keeps_no_suffix_per_anchor():
    # Every anchor at depth 0 is checked against the sorted text after it.
    # The search shrinks one sorted suffix as the anchor moves; sorting
    # and keeping the text after every anchor would take O(n^2): 17 MiB here.
    for k in (2, 3, 4, 5):
        found, peak = _traced_detect(PpmInstance(_anti_identity(3000), _identity(k)))
        assert not found and peak < 2**20, k


def _planted(n, k, seed):
    """Seeded text with the order pattern of one of its k-subsequences, and that subsequence."""
    sigma = random_permutation(n, seed)
    positions = sorted(random.Random(seed).sample(range(n), k))
    inst = PpmInstance(sigma, pattern_of([sigma.values[p] for p in positions]))
    return inst, Embedding(tuple(p + 1 for p in positions))


def _reverse(p):
    return Permutation(p.values[::-1])


def _complement(p):
    return Permutation(tuple(len(p) + 1 - v for v in p.values))


def _inverse(p):
    return Permutation(p.inverse_values)


@pytest.mark.parametrize("n,k", [(24, 12), (25, 11), (26, 13), (28, 14)])
def test_count_invariant_under_symmetries(n, k):
    # Each symmetry maps occurrences one-to-one but sends them to other
    # family members, so this checks the exactly-once cover beyond the oracle.
    inst, _ = _planted(n, k, seed=1000 + n)
    want = count_ppm(inst)
    assert want >= 1
    for f in (_reverse, _complement, _inverse):
        assert count_ppm(PpmInstance(f(inst.sigma), f(inst.pattern))) == want


@pytest.mark.parametrize("n,k", [(32, 16), (34, 13), (36, 18), (40, 20)])
def test_detect_finds_planted_past_oracle(n, k):
    inst, f = _planted(n, k, seed=2000 + n)
    assert is_solution(inst, f)
    assert detect_ppm(inst)


def test_detect_invariant_under_symmetries():
    seen = set()
    for n, k in ((28, 14), (30, 5), (32, 16), (34, 6), (36, 18)):
        inst = PpmInstance(random_permutation(n, 3000 + n), random_permutation(k, 3001 + n))
        want = detect_ppm(inst)
        for f in (_reverse, _complement, _inverse):
            assert detect_ppm(PpmInstance(f(inst.sigma), f(inst.pattern))) == want
        seen.add(want)
    assert seen == {True, False}


def _record_checks(monkeypatch, inst, prefix_check=dp._has_chain):
    """detect_ppm's answer, the leaves it checked and its prefix checks' results, in order.

    Every check is one dp._has_chain(buckets, order, rest) call with the
    pattern's inverse as `order`, and every call obeys one rule: its
    buckets are the sorted first 2(j + 1) segments of some family member,
    and wherever the chain reads `rest`, it is the sorted text after the
    last of those j + 1 anchors, or the whole text when there is none.
    The anchors are read off the bucket lengths: the first segment's
    length is the first anchor, and each later stretch's length is the
    step to the next one. A call that breaks the rule fails the test. A
    call with all k // 2 anchors is a leaf, recorded by its anchors and
    decided by the real chain; the others are prefix checks, decided by
    `prefix_check`. The counting DP must not run at all.
    """
    n, k = inst.n, inst.k
    r = k // 2
    sv = inst.sigma.values
    pinv = inst.pattern.inverse_values
    real_chain = dp._has_chain
    leaves, prefixes = [], []

    def recording(buckets, order, rest=()):
        anchors = tuple(accumulate(map(len, buckets[::2])))
        last = anchors[-1] if anchors else 0
        # The closest anchors after the last complete a family member if any
        # anchors do; where none do, decomposition_of_guess raises.
        member = anchors + tuple(range(last + 2, last + 2 * (r - len(anchors)) + 1, 2))
        want = [sorted(sv[lo - 1:hi]) for lo, hi in decomposition_of_guess(member, n, k).segments]
        assert len(buckets) % 2 == 0 and [list(b) for b in buckets] == want[:len(buckets)], (
            "a check ran on no family member's first segments"
        )
        assert order == pinv
        assert len(buckets) == k or list(rest) == sorted(sv[last:]), "a chain read the wrong rest"
        if len(anchors) == r:
            leaves.append(anchors)
            return real_chain(buckets, order, rest)
        kept = prefix_check(buckets, order, rest)
        prefixes.append(kept)
        return kept

    def refuse(*args):
        raise AssertionError("detect_ppm ran the counting DP")

    with monkeypatch.context() as m:
        m.setattr(dp, "_has_chain", recording)
        m.setattr(dp, "count_respecting", refuse)
        m.setattr(dp, "_count_levels", refuse)
        found = detect_ppm(inst)
    return found, leaves, prefixes


def test_detect_prunes_empty_prefixes(monkeypatch):
    n, k = 28, 14
    absent = PpmInstance(random_permutation(n, 28), random_permutation(k, 14))
    assert count_ppm(absent) == 0
    found, visited, _ = _record_checks(monkeypatch, absent)
    assert not found
    assert len(visited) < family_size(n, k) // 10
    # Visits follow the family's lexicographic order, skipping members.
    rest = enumerate_guesses(n, k)
    assert all(g in rest for g in visited)
    # A planted pattern stops at the same first nonzero member as a full scan.
    planted, _ = _planted(24, 12, seed=24)
    found, visited, _ = _record_checks(monkeypatch, planted)
    first_hit = next(
        g for g in enumerate_guesses(24, 12) if dp.count_respecting(planted, decomposition_of_guess(g, 24, 12))
    )
    assert found and visited[-1] == first_hit


def test_detect_never_runs_the_counting_dp(monkeypatch):
    # Prefix checks and leaves alike test existence with dp._has_chain;
    # _record_checks fails if dp.count_respecting or dp._count_levels runs.
    absent = PpmInstance(random_permutation(28, 28), random_permutation(14, 14))
    planted, _ = _planted(25, 11, seed=25)
    dense = PpmInstance(_identity(28), _identity(14))
    for inst, want in ((absent, False), (planted, True), (dense, True)):
        found, leaves, _ = _record_checks(monkeypatch, inst)
        assert found is want and leaves


def _prefix_count(inst, d, j):
    """Occurrences of pattern positions 1..2j inside d's first 2j segments."""
    prefix = PpmInstance(inst.sigma, pattern_of(inst.pattern.values[:2 * j]))
    return dp.count_respecting(prefix, SegmentDecomposition(d.segments[:2 * j], inst.n))


def _prefix_corpus():
    """40 seeded random instances with 16 <= n <= 20 and n // 4 <= k <= n // 2."""
    rng = random.Random(61)
    corpus = []
    for _ in range(40):
        n = rng.randint(16, 20)
        k = rng.randint(n // 4, n // 2)
        corpus.append(PpmInstance(random_permutation(n, rng.getrandbits(32)), random_permutation(k, rng.getrandbits(32))))
    return corpus


def test_detect_checks_prefixes_before_leaves(monkeypatch):
    absent = PpmInstance(random_permutation(28, 28), random_permutation(14, 14))
    found, visited, _ = _record_checks(monkeypatch, absent)
    assert not found and len(visited) <= 2
    # Member 1 is always the first leaf. Past it, a leaf is reached only
    # through nonempty prefixes of every depth below k//2, and the leaf
    # alone decides the member: with even k some such leaves count zero.
    later_leaves = zero_leaves = 0
    for inst in _prefix_corpus():
        n, k = inst.n, inst.k
        _, visited, _ = _record_checks(monkeypatch, inst)
        assert visited[0] == next(enumerate_guesses(n, k))
        for d in (decomposition_of_guess(g, n, k) for g in visited[1:]):
            assert all(_prefix_count(inst, d, j) for j in range(1, k // 2))
            zero_leaves += k % 2 == 0 and dp.count_respecting(inst, d) == 0
        later_leaves += len(visited) - 1
    assert later_leaves > 100 and zero_leaves > 0


def test_detect_prunes_by_the_whole_pattern(monkeypatch):
    # The prefix check places the later positions too, so it keeps no prefix
    # that the placed positions alone would drop, and strictly fewer in all.
    real_chain = dp._has_chain

    def placed_alone(buckets, order):
        return real_chain(buckets, [p for p in order if p <= len(buckets)])

    def fits(buckets, order, rest):
        kept = real_chain(buckets, order, rest)
        assert not kept or placed_alone(buckets, order)
        return kept

    def prefix_only(buckets, order, rest):
        return placed_alone(buckets, order)

    def prefix_checks(inst, check):
        found, _, kept = _record_checks(monkeypatch, inst, check)
        return found, len(kept), sum(kept)

    absent = PpmInstance(random_permutation(28, 28), random_permutation(14, 14))
    assert prefix_checks(absent, fits) == (False, 24, 3)
    assert prefix_checks(absent, prefix_only) == (False, 95, 19)
    total = total_prefix_only = 0
    for inst in _prefix_corpus():
        found, checks, kept = prefix_checks(inst, fits)
        found_alone, checks_alone, kept_alone = prefix_checks(inst, prefix_only)
        assert found == found_alone and checks <= checks_alone and kept <= kept_alone
        total += kept
        total_prefix_only += kept_alone
    assert total < total_prefix_only


def test_detect_checks_each_leaf_once_in_family_order(monkeypatch):
    # Member 1 is decided before the search, so the search must skip it.
    # In an identity text every prefix of an increasing pattern holds, so a
    # pattern ending in a descent fails every member and all are leaves.
    rng = random.Random(63)
    cases = [_descent_ended(n, k) for n, k in ((10, 6), (13, 7), (16, 8))]
    for _ in range(20):
        n = rng.randint(12, 18)
        k = rng.randint(n // 4, n // 2)
        cases.append(PpmInstance(random_permutation(n, rng.getrandbits(32)), random_permutation(k, rng.getrandbits(32))))
    for inst in cases:
        n, k = inst.n, inst.k
        rank = {g: i for i, g in enumerate(enumerate_guesses(n, k))}
        _, visited, _ = _record_checks(monkeypatch, inst)
        ranks = [rank[g] for g in visited]
        assert ranks == sorted(set(ranks))
        if inst.sigma == _identity(n):
            assert len(visited) == family_size(n, k)


def _descent_ended_chains(n, k):
    """The chains detection makes on _descent_ended(n, k): one per live prefix.

    The live family is that of (m, k), m = n - 1 at even n and odd k and n
    otherwise. Its depth j holds binom(m//2 - k//2 + j, j) anchor prefixes,
    so depths 1..k//2 sum (hockey stick) to binom(m//2 + 1, k//2) - 1;
    member 1's leaf is skipped, its chain runs first. When member 1 is the
    whole live family (k//2 = m//2) or k = 1, its one chain is all.
    """
    r = k // 2
    half = (n - 1 if n % 2 == 0 and k % 2 else n) // 2
    return 1 if r in (0, half) else comb(half + 1, r) - 1


def test_detect_stops_exactly_when_its_chains_run_out(monkeypatch):
    # _detect(inst, c) answers as detect_ppm does when the search makes at
    # most c chains, and returns None when it would make more.
    rng = random.Random(66)
    for _ in range(60):
        n = rng.randint(2, 18)
        k = rng.randint(1, n)
        pattern = random_permutation(k, rng.getrandbits(32))
        for sigma in (random_permutation(n, rng.getrandbits(32)), _identity(n)):
            inst = PpmInstance(sigma, pattern)
            found, leaves, prefixes = _record_checks(monkeypatch, inst)
            chains = len(leaves) + len(prefixes)
            assert chains <= _descent_ended_chains(n, k), (sigma, pattern)
            assert solver._detect(inst, chains) is found, (sigma, pattern)
            assert solver._detect(inst, chains - 1) is None, (sigma, pattern)
    # The descent-ended shape keeps every prefix and fails every leaf of the
    # live family, which is the most chains any (n, k) search makes.
    for n in range(3, 25):
        for k in range(3, n + 1):
            inst = _descent_ended(n, k)
            chains = _descent_ended_chains(n, k)
            found, leaves, prefixes = _record_checks(monkeypatch, inst)
            assert not found
            assert len(leaves) + len(prefixes) == chains, (n, k)
            assert solver._detect(inst, chains) is False, (n, k)
            assert solver._detect(inst, chains - 1) is None, (n, k)


def test_detect_skips_members_with_an_anchor_at_n(monkeypatch):
    # At even n and odd k a member whose last anchor is n gives positions
    # k - 1 and k the one text position n, so it holds no occurrence, and the
    # search leaves those members out: what remains is the (n - 1, k) family.
    # The descent-ended shape reaches every prefix of it, so the search makes
    # the chains of (n - 1, k).
    for n in range(4, 25, 2):
        for k in range(3, n, 2):
            found, leaves, prefixes = _record_checks(monkeypatch, _descent_ended(n, k))
            assert not found
            assert len(leaves) + len(prefixes) == _descent_ended_chains(n - 1, k), (n, k)
            assert all(anchors[-1] < n for anchors in leaves), (n, k)


def test_detect_matches_count_past_oracle():
    rng = random.Random(62)
    for i in range(200):
        n = rng.randint(16, 20)
        k = rng.randint(n // 4, n // 2)
        if i % 2:
            inst, _ = _planted(n, k, seed=rng.getrandbits(32))
        else:
            inst = PpmInstance(random_permutation(n, rng.getrandbits(32)), random_permutation(k, rng.getrandbits(32)))
        assert detect_ppm(inst) == (count_ppm(inst) > 0)


def test_detect_matches_count_near_half():
    # k near n / 2, where the search keeps prefixes of several depths.
    rng = random.Random(64)
    found = set()
    for i in range(300):
        n = rng.randint(14, 22)
        k = n // 2 + rng.randint(-2, 2)
        if i % 2:
            inst, _ = _planted(n, k, seed=rng.getrandbits(32))
        else:
            inst = PpmInstance(random_permutation(n, rng.getrandbits(32)), random_permutation(k, rng.getrandbits(32)))
        want = count_ppm(inst) > 0
        assert detect_ppm(inst) == want
        found.add((want, k % 2))
    assert len(found) == 4


# -- past the oracle's default reach: brute force with max_n = n ---------------


def _sum_indecomposable(k, rng):
    """A seeded pattern of length k >= 2 that is no direct sum: no proper prefix holds 1..i."""
    while True:
        p = random_permutation(k, rng.getrandbits(32))
        if all(max(p.values[:i]) > i for i in range(1, k)):
            return p


def _block_sum(pattern, n, rng, planted):
    """A length-n text holding the sum-indecomposable `pattern` exactly `planted` (0 or 1) times.

    The text is a direct sum of shuffled blocks shorter than the pattern,
    plus, when planted, one block equal to the pattern at a seeded place.
    An occurrence of a sum-indecomposable pattern in a direct sum lies
    inside one block, so only the planted block holds one.
    """
    k = len(pattern)
    sizes = []
    left = n - k * planted
    while left:
        sizes.append(min(left, rng.randint(1, k - 1)))
        left -= sizes[-1]
    if planted:
        sizes.insert(rng.randint(0, len(sizes)), 0)
    values, base = [], 0
    for size in sizes:
        block = [base + v for v in pattern.values] if size == 0 else rng.sample(range(base + 1, base + size + 1), size)
        values += block
        base += len(block)
    return Permutation(tuple(values))


# Both parities of k: odd k gives every member a last segment running to n.
@pytest.mark.parametrize("n,k", [(200, 2), (199, 3), (100, 4), (97, 4), (61, 5), (48, 5), (60, 6), (45, 6)])
def test_routes_match_brute_force_on_random_and_planted_texts(n, k):
    rng = random.Random(5000 + 10 * n + k)
    uniform = PpmInstance(random_permutation(n, rng.getrandbits(32)), random_permutation(k, rng.getrandbits(32)))
    planted, _ = _planted(n, k, seed=rng.getrandbits(32))
    assert check_known_counts((inst, oracle.brute_force_count(inst, max_n=n)) for inst in (uniform, planted)) == ""


@pytest.mark.parametrize("n,k", [(200, 3), (200, 4), (151, 4), (100, 5), (79, 6), (64, 6)])
def test_routes_match_brute_force_on_sparse_texts(n, k):
    # Counts of 0 and 1: detection must walk deep into the family to decide.
    rng = random.Random(6000 + 10 * n + k)
    pattern = _sum_indecomposable(k, rng)
    cases = [(PpmInstance(_block_sum(pattern, n, rng, planted), pattern), planted) for planted in (0, 1)]
    assert [oracle.brute_force_count(inst, max_n=n) for inst, _ in cases] == [0, 1]
    assert check_known_counts(cases) == ""


# -- far past brute force: every pattern with k <= 3 by a Fenwick counter -----

_SHORT_PATTERNS = [(1,), (1, 2), (2, 1), *permutations((1, 2, 3))]


def _fenwick_counts(sigma):
    """Occurrences of every pattern with k <= 3 in `sigma`, in O(n log n).

    One pass over the text with a Fenwick tree of the values seen gives,
    for each entry v at 0-based position j, the number `ll` of earlier
    values below it. The counts of earlier values above it and of later
    values below and above it follow from j and v. A 3-pattern count is a
    sum over the entries of products of these four: 123 and 321 sum over
    the middle entry, and the sums over a middle peak, a middle valley, a
    smallest first entry and a largest last entry give 132 + 231,
    213 + 312, 123 + 132 and 123 + 213. This is the counting that corner
    trees generalise.
    """
    sv = sigma.values
    n = len(sv)
    tree = [0] * (n + 1)
    up = down = rise3 = fall3 = peak = valley = low_first = high_last = 0
    for j, v in enumerate(sv):
        ll, i = 0, v
        while i:
            ll += tree[i]
            i &= i - 1
        i = v
        while i <= n:
            tree[i] += 1
            i += i & -i
        lg = j - ll
        rl = v - 1 - ll
        rg = n - 1 - j - rl
        up += ll
        down += lg
        rise3 += ll * rg
        fall3 += lg * rl
        peak += ll * rl
        valley += lg * rg
        low_first += rg * (rg - 1) // 2
        high_last += ll * (ll - 1) // 2
    c132 = low_first - rise3
    c213 = high_last - rise3
    return {
        (1,): n, (1, 2): up, (2, 1): down,
        (1, 2, 3): rise3, (1, 3, 2): c132, (2, 1, 3): c213,
        (2, 3, 1): peak - c132, (3, 1, 2): valley - c213, (3, 2, 1): fall3,
    }


def test_fenwick_counter_matches_brute_force():
    texts = [p for n in range(1, 7) for p in permutations(range(1, n + 1))]
    rng = random.Random(65)
    texts += [random_permutation(n, rng.getrandbits(32)).values for n in range(7, 13) for _ in range(20)]
    for values in texts:
        sigma = Permutation(tuple(values))
        counts = _fenwick_counts(sigma)
        for k in range(1, min(3, len(values)) + 1):
            patterns = [p for p in _SHORT_PATTERNS if len(p) == k]
            for p in patterns:
                assert counts[p] == oracle.brute_force_count(PpmInstance(sigma, Permutation(p))), (values, p)
            assert sum(counts[p] for p in patterns) == comb(len(values), k)


def _nearly_sorted(n, rng):
    """The identity with four seeded disjoint adjacent swaps: four inversions, no 3-descent."""
    values = list(range(1, n + 1))
    for i in rng.sample(range(0, n - 1, 2), 4):
        values[i], values[i + 1] = values[i + 1], values[i]
    return Permutation(tuple(values))


# Uniform texts of both parities, and a nearly sorted one where some patterns
# are rare or absent, so detection walks far into the family.
@pytest.mark.parametrize(
    "n,shape,patterns",
    [
        (500, "uniform", _SHORT_PATTERNS),
        (1001, "uniform", _SHORT_PATTERNS),
        (2000, "uniform", [(2, 1), (1, 3, 2), (3, 1, 2)]),
        (999, "sorted", _SHORT_PATTERNS),
    ],
)
def test_routes_match_fenwick_counter(n, shape, patterns):
    rng = random.Random(7000 + n)
    sigma = random_permutation(n, rng.getrandbits(32)) if shape == "uniform" else _nearly_sorted(n, rng)
    counts = _fenwick_counts(sigma)
    assert check_known_counts((PpmInstance(sigma, Permutation(p)), counts[p]) for p in patterns) == ""
    if shape == "sorted":
        assert counts[2, 1] == 4 and counts[2, 3, 1] == counts[3, 1, 2] == counts[3, 2, 1] == 0


# -- lowerbound_family ---------------------------------------------------------


def test_lowerbound_worked_examples():
    assert len(lowerbound_family(8, 5)) == 3
    assert {d.segments for d in lowerbound_family(3, 1)} == {((1, 3),)}
    assert len(lowerbound_family(9, 4)) == comb(4, 2)


def test_lowerbound_cardinality_and_validity():
    for n in range(1, 15):
        for k in range(1, n + 1):
            if k // 2 > (n - 1) // 2:
                with pytest.raises(InstanceTooSmall):
                    lowerbound_family(n, k)
                continue
            fam = lowerbound_family(n, k)
            assert len(fam) == comb((n - 1) // 2, k // 2)
            for d in fam:
                validate_decomposition(d)


def test_lowerbound_rejects_oversized():
    with pytest.raises(InstanceTooLarge):
        lowerbound_family(30, 4)
