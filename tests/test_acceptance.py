"""Acceptance gate: every release criterion, one test each, full corpora.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to see the explicit criterion lines too). The corpora
and tolerances are pinned here and are not meant to be loosened.
Criteria 3-6 run the invariant checks of `ppm.selftest`, the same ones
`ppm selftest` runs on smaller corpora:

    1. worked example: exact count and the exact occurrence list, < 1 ms
    2. fixed decomposition vectors (induced and canonical agree)
    3. count_ppm = bkm_count = brute_force_count, and detect_ppm reports
       count > 0, on every instance with n <= 6 (647,773) and on 10^4
       seeded random instances with 7 <= n <= 12
    4. every occurrence (n <= 6, all instances) respects exactly one
       family member, namely its canonical decomposition, and that member
       is live (not one of the members count and detect skip)
    5. family size is binom(n//2, k//2) for all n <= 20, members valid
    6. lower-bound construction sizes for all valid (n, k), n <= 20
    7. confined counting stays linear up to n = 10^5 (cell writes plus
       cursor advances <= 4 (n + k))
    8. count_ppm run time grows like the family size: consecutive
       (n, n/2) -> (n+4, (n+4)/2) ratios, the median of 5 repetitions
       that each time n = 28, 32 and 36 back to back, inside [2.0, 9.0]
    9. --threads 8 output is byte-identical to --threads 1 on 100 seeded
       instances with n = 30
"""

import random
import time
from itertools import chain

from ppm import cli, selftest
from ppm.core import Embedding, Permutation, PpmInstance, format_permutation, respects
from ppm.dp import DpStats, count_respecting
from ppm.oracle import brute_force_enumerate
from ppm.rng import random_permutation
from ppm.selftest import lowerbound_family
from ppm.solver import canonical_decomposition, count_ppm, decomposition_of_guess


def _report(criterion: str) -> None:
    print(f"[acceptance] {criterion}: pass")


def test_criterion_1_worked_example():
    inst = PpmInstance(Permutation((3, 2, 5, 4, 1)), Permutation((1, 3, 2)))
    assert count_ppm(inst) == 2
    assert [f.values for f in brute_force_enumerate(inst)] == [(1, 3, 4), (2, 3, 4)]
    best = min(
        _timed(lambda: count_ppm(inst)) for _ in range(5)
    )
    assert best < 1e-3, f"count took {best * 1e3:.3f} ms"
    _report("criterion 1 (worked example, < 1 ms)")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_decomposition_vectors():
    expected = ((1, 2), (2, 3), (3, 6), (6, 7), (7, 9))
    induced = decomposition_of_guess((2, 6), 9, 5)
    assert induced.segments == expected
    f = Embedding((1, 3, 5, 7, 9))
    canonical = canonical_decomposition(f, 9)
    assert canonical == induced
    assert respects(f, induced)
    _report("criterion 2 (decomposition vectors)")


def test_criterion_3_oracle_equivalence():
    corpus = chain(
        selftest.exhaustive_instances(6),
        selftest.random_instances(random.Random(0xC3), 10_000, 7, 12),
    )
    detail = selftest.check_routes_agree(corpus)
    assert not detail, detail
    _report("criterion 3 (oracle equivalence, exhaustive n<=6 + 10^4 random)")


def test_criterion_4_exactly_once_cover():
    detail = selftest.check_unique_cover(selftest.exhaustive_instances(6))
    assert not detail, detail
    _report("criterion 4 (exactly-once cover, exhaustive n<=6)")


def test_criterion_5_family_cardinality():
    detail = selftest.check_family(20)
    assert not detail, detail
    _report("criterion 5 (family cardinality, n<=20)")


def test_criterion_6_lowerbound_construction():
    detail = selftest.check_lowerbound(20)
    assert not detail, detail
    assert len(lowerbound_family(8, 5)) == 3
    _report("criterion 6 (lower-bound construction, n<=20)")


def test_criterion_7_linear_inner_loop():
    rng = random.Random(0xDEAD)
    for n in (100, 1_000, 10_000, 100_000):
        k = n // 2
        for _ in range(3):
            sigma = random_permutation(n, rng.getrandbits(64))
            pattern = random_permutation(k, rng.getrandbits(64))
            inst = PpmInstance(sigma, pattern)
            d = selftest.random_family_decomposition(rng, n, k)
            stats = DpStats()
            count_respecting(inst, d, stats=stats)
            assert stats.total <= 4 * (n + k), (
                f"{stats.total} operations for n={n} k={k}"
            )
    _report("criterion 7 (linear inner loop up to n=10^5)")


def test_criterion_8_growth_ratio():
    sizes = (28, 32, 36)
    instances = [
        PpmInstance(random_permutation(n, 7001), random_permutation(n // 2, 7002)) for n in sizes
    ]
    # Each repetition times the three sizes back to back, so a switch of the
    # host's speed between repetitions moves no ratio; the gate reads the
    # median of 5 per-repetition ratios.
    reps = [[_timed(lambda: count_ppm(inst)) for inst in instances] for _ in range(5)]
    for i, (small, large) in enumerate(zip(sizes, sizes[1:])):
        ratio = sorted(t[i + 1] / t[i] for t in reps)[2]
        assert 2.0 <= ratio <= 9.0, f"t({large})/t({small}) = {ratio:.2f}"
    _report("criterion 8 (growth ratio in [2.0, 9.0] at n=28/32/36)")


def test_criterion_9_thread_determinism(capsys):
    rng = random.Random(0x1E)
    for _ in range(100):
        n = 30
        k = rng.randint(1, n)
        sigma = format_permutation(random_permutation(n, rng.getrandbits(64)))
        pattern = format_permutation(random_permutation(k, rng.getrandbits(64)))
        outputs = []
        for threads in ("1", "8"):
            code = cli.main(
                ["count", "--sigma", sigma, "--pattern", pattern, "--threads", threads]
            )
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.append(captured.out.encode())
        assert outputs[0] == outputs[1]
    _report("criterion 9 (threads=8 byte-identical to threads=1, 100 x n=30)")
