"""Ground truth and the even-position guessing baseline.

Claims checked here:
    - brute_force_enumerate lists exactly the occurrences, in strict
      lexicographic order, and respects the size cap
    - brute_force_count matches the enumeration without materializing it
    - bkm_count equals both other routes, exhaustively small and random
    - each occurrence is consistent with exactly one surviving guess of
      the baseline (the guesses partition the occurrences)
    - the baseline generates exactly the guesses _bkm_segments accepts,
      in order, and brute force lists exactly the embeddings is_solution
      accepts, in order
"""

import random
from itertools import combinations
from math import comb

import pytest

from ppm import dp, solver
from ppm.core import (
    Embedding,
    InstanceTooLarge,
    Permutation,
    PpmInstance,
    SegmentDecomposition,
    is_solution,
    respects,
)
from ppm.oracle import (
    _bkm_segments,
    bkm_count,
    brute_force_count,
    brute_force_enumerate,
)
from ppm.rng import random_permutation
from ppm.selftest import exhaustive_instances, random_instance


def _inst(sigma, pattern):
    return PpmInstance(Permutation(tuple(sigma)), Permutation(tuple(pattern)))


# -- brute force ---------------------------------------------------------------


def test_enumerate_worked_example():
    got = brute_force_enumerate(_inst((3, 2, 5, 4, 1), (1, 3, 2)))
    assert [f.values for f in got] == [(1, 3, 4), (2, 3, 4)]


def test_enumerate_trivial_cases():
    assert brute_force_enumerate(_inst((2, 1), (1, 2))) == []
    got = brute_force_enumerate(_inst((1, 2, 3), (1, 2)))
    assert [f.values for f in got] == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_is_sorted_and_complete():
    rng = random.Random(47)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 9))
        sols = brute_force_enumerate(inst)
        vals = [f.values for f in sols]
        assert vals == sorted(set(vals))
        for f in sols:
            assert is_solution(inst, f)
        # completeness: nothing outside the list is a solution
        all_f = [Embedding(c) for c in combinations(range(1, inst.n + 1), inst.k)]
        assert sum(1 for f in all_f if is_solution(inst, f)) == len(sols)


def test_enumerate_matches_definition_exhaustively():
    # Ground truth against the definition, not against another route.
    instances = list(exhaustive_instances(5))
    assert len(instances) == 19_213
    for inst in instances:
        expected = [
            c for c in combinations(range(1, inst.n + 1), inst.k) if is_solution(inst, Embedding(c))
        ]
        assert [f.values for f in brute_force_enumerate(inst)] == expected


def test_count_examples():
    assert brute_force_count(_inst((3, 2, 5, 4, 1), (1, 3, 2))) == 2
    assert brute_force_count(_inst((4, 2, 1, 3), (4, 2, 1, 3))) == 1
    assert brute_force_count(_inst(tuple(range(1, 7)), (1, 2))) == comb(6, 2)


def test_cap_enforced():
    big = PpmInstance(
        Permutation(tuple(range(1, 26))), Permutation((1,))
    )
    with pytest.raises(InstanceTooLarge):
        brute_force_count(big)
    with pytest.raises(InstanceTooLarge):
        brute_force_enumerate(big)
    assert brute_force_count(big, max_n=25) == 25


# -- bkm baseline ----------------------------------------------------------------


def test_bkm_worked_examples():
    assert bkm_count(_inst((3, 2, 5, 4, 1), (1, 3, 2))) == 2
    assert bkm_count(_inst((1,), (1,))) == 1
    fig = _inst((8, 1, 3, 9, 5, 4, 2, 7, 6), (5, 2, 3, 1, 4))
    assert bkm_count(fig) == brute_force_count(fig)


def test_bkm_equals_other_routes_random():
    rng = random.Random(53)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 9))
        assert bkm_count(inst) == brute_force_count(inst) == solver.count_ppm(inst)


def test_bkm_counts_exactly_the_feasible_guesses(monkeypatch):
    # The shifted enumeration generates, in order, the guesses whose
    # segments _bkm_segments accepts: binom(n - k//2 - k%2, k//2) of them.
    calls = []
    real = dp.count_respecting

    def counting(instance, d, stats=None):
        calls.append(d)
        return real(instance, d, stats)

    monkeypatch.setattr(dp, "count_respecting", counting)
    for n in range(1, 11):
        for k in range(1, n + 1):
            calls.clear()
            bkm_count(PpmInstance(random_permutation(n, n), random_permutation(k, k)))
            feasible = [
                SegmentDecomposition(segs, n)
                for a in combinations(range(1, n + 1), k // 2)
                if (segs := _bkm_segments(a, n, k)) is not None
            ]
            assert calls == feasible
            assert len(calls) == comb(n - k // 2 - k % 2, k // 2)


def test_bkm_guesses_partition_solutions():
    rng = random.Random(59)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 8))
        n, k = inst.n, inst.k
        decomps = []
        for anchors in combinations(range(1, n + 1), k // 2):
            segs = _bkm_segments(anchors, n, k)
            if segs is not None:
                decomps.append(SegmentDecomposition(segs, n))
        for f in brute_force_enumerate(inst):
            assert sum(1 for d in decomps if respects(f, d)) == 1


def test_bkm_segment_shapes():
    # k odd: leading gap, point, gap to the end
    assert _bkm_segments((3,), 5, 3) == ((1, 2), (3, 3), (4, 5))
    # k even: trailing point segment
    assert _bkm_segments((2, 4), 4, 4) == ((1, 1), (2, 2), (3, 3), (4, 4))
    # adjacent anchors squeeze the middle gap empty
    assert _bkm_segments((2, 3), 4, 4) is None
    # anchor at position 1 leaves no room for pattern position 1
    assert _bkm_segments((1,), 4, 2) is None
