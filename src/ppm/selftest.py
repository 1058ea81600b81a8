"""Built-in invariant suites behind `ppm selftest`.

Each suite re-checks one cross-module guarantee on a small corpus:
exhaustive sweeps where instance counts allow it, seeded random instances
above that. `max_n` scales the corpus; the full exhaustive layer is
capped independently so the command stays interactive.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import comb
from typing import Callable

from . import dp, oracle, solver
from .core import (
    Embedding,
    Permutation,
    PpmInstance,
    SegmentDecomposition,
    format_permutation,
    is_solution,
    parse_permutation,
    pattern_of,
    respects,
    validate_decomposition,
)
from .rng import random_permutation

_EXHAUSTIVE_CAP = 5
_SEED = 0x5EED
# The family-size and lower-bound suites run up to n = max_n + _HEADROOM,
# and the lower-bound family is materialized only up to LOWERBOUND_CAP.
_HEADROOM = 6
MAX_N = solver.LOWERBOUND_CAP - _HEADROOM


def _perms(n: int) -> list[Permutation]:
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def _random_instance(rng: random.Random, n: int) -> PpmInstance:
    k = rng.randint(1, n)
    sigma = list(range(1, n + 1))
    pat = list(range(1, k + 1))
    rng.shuffle(sigma)
    rng.shuffle(pat)
    return PpmInstance(Permutation(tuple(sigma)), Permutation(tuple(pat)))


def _suite_parse_roundtrip(max_n: int) -> tuple[bool, str]:
    rng = random.Random(_SEED)
    for trial in range(200):
        n = rng.randint(1, max_n + 6)
        p = random_permutation(n, rng.getrandbits(64))
        if parse_permutation(format_permutation(p)) != p:
            return False, f"round-trip failed for {p.values}"
    return True, ""


def _suite_solution_two_routes(max_n: int) -> tuple[bool, str]:
    rng = random.Random(_SEED + 1)
    for trial in range(400):
        inst = _random_instance(rng, rng.randint(1, max_n + 4))
        f = Embedding(tuple(sorted(rng.sample(range(1, inst.n + 1), inst.k))))
        via_ranks = pattern_of([inst.sigma(p) for p in f.values]) == inst.pattern
        if via_ranks != is_solution(inst, f):
            return False, f"routes disagree on sigma={inst.sigma.values} f={f.values}"
    return True, ""


def _suite_respects_monotone(max_n: int) -> tuple[bool, str]:
    rng = random.Random(_SEED + 2)
    for trial in range(300):
        inst = _random_instance(rng, rng.randint(2, max_n + 4))
        n, k = inst.n, inst.k
        f = Embedding(tuple(sorted(rng.sample(range(1, n + 1), k))))
        d = _random_guess_decomposition(rng, n, k)
        if not respects(f, d):
            continue
        wider = tuple(
            (max(1, lo - rng.randint(0, 2)), min(n, hi + rng.randint(0, 2)))
            for lo, hi in d.segments
        )
        if not respects(f, SegmentDecomposition(wider, n)):
            return False, f"enlarging segments dropped f={f.values}"
    return True, ""


def _random_guess_decomposition(rng: random.Random, n: int, k: int):
    anchors = tuple(sorted(2 * c for c in rng.sample(range(1, n // 2 + 1), k // 2)))
    return solver.decomposition_of_guess(solver.EvenGuess(anchors), n, k)


def _suite_dp_enumeration(max_n: int) -> tuple[bool, str]:
    rng = random.Random(_SEED + 3)
    for trial in range(250):
        inst = _random_instance(rng, rng.randint(2, max_n + 4))
        d = _random_guess_decomposition(rng, inst.n, inst.k)
        got = dp.count_respecting(inst, d)
        want = sum(1 for f in oracle.brute_force_enumerate(inst) if respects(f, d))
        if got != want:
            return False, (
                f"count_respecting={got} but enumeration says {want} on "
                f"sigma={inst.sigma.values} pat={inst.pattern.values} segs={d.segments}"
            )
    return True, ""


def _suite_unique_cover(max_n: int) -> tuple[bool, str]:
    for n in range(1, min(max_n, _EXHAUSTIVE_CAP) + 1):
        sigmas = _perms(n)
        for k in range(1, n + 1):
            family = [
                solver.decomposition_of_guess(g, n, k) for g in solver.enumerate_guesses(n, k)
            ]
            for pat in _perms(k):
                for sigma in sigmas:
                    inst = PpmInstance(sigma, pat)
                    for f in oracle.brute_force_enumerate(inst):
                        hits = [d for d in family if respects(f, d)]
                        if len(hits) != 1:
                            return False, f"{len(hits)} members cover f={f.values}"
                        if hits[0] != solver.canonical_decomposition(f, n):
                            return False, f"cover of f={f.values} is not canonical"
    return True, ""


def _suite_family_size(max_n: int) -> tuple[bool, str]:
    for n in range(1, max_n + _HEADROOM + 1):
        for k in range(1, n + 1):
            count = 0
            for g in solver.enumerate_guesses(n, k):
                d = solver.decomposition_of_guess(g, n, k)
                validate_decomposition(d)
                count += 1
            if count != comb(n // 2, k // 2):
                return False, f"family size {count} != C({n // 2},{k // 2}) at n={n} k={k}"
    return True, ""


def _suite_lowerbound_size(max_n: int) -> tuple[bool, str]:
    for n in range(1, max_n + _HEADROOM + 1):
        for k in range(1, n + 1):
            if k // 2 > (n - 1) // 2:
                continue
            got = len(solver.lowerbound_family(n, k))
            if got != comb((n - 1) // 2, k // 2):
                return False, f"lower-bound family size {got} at n={n} k={k}"
    return True, ""


def _suite_algorithms_agree(max_n: int) -> tuple[bool, str]:
    for n in range(1, min(max_n, 4) + 1):
        sigmas = _perms(n)
        for k in range(1, n + 1):
            for pat in _perms(k):
                for sigma in sigmas:
                    inst = PpmInstance(sigma, pat)
                    if not _agree(inst):
                        return False, _disagreement(inst)
    rng = random.Random(_SEED + 4)
    for trial in range(150):
        inst = _random_instance(rng, rng.randint(1, max_n + 4))
        if not _agree(inst):
            return False, _disagreement(inst)
    return True, ""


def _agree(inst: PpmInstance) -> bool:
    fast = solver.count_ppm(inst)
    return (
        fast == oracle.bkm_count(inst) == oracle.brute_force_count(inst)
        and solver.detect_ppm(inst) == (fast > 0)
    )


def _disagreement(inst: PpmInstance) -> str:
    return (
        f"fast={solver.count_ppm(inst)} bkm={oracle.bkm_count(inst)} "
        f"brute={oracle.brute_force_count(inst)} on sigma={inst.sigma.values} "
        f"pat={inst.pattern.values}"
    )


def _suite_gen_deterministic(max_n: int) -> tuple[bool, str]:
    rng = random.Random(_SEED + 5)
    for trial in range(50):
        n = rng.randint(1, max_n + 10)
        seed = rng.getrandbits(64)
        a = random_permutation(n, seed)
        b = random_permutation(n, seed)
        if a != b:
            return False, f"two draws differ for n={n} seed={seed}"
        parse_permutation(format_permutation(a))
    return True, ""


SUITES: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("parse-roundtrip", _suite_parse_roundtrip),
    ("solution-two-routes", _suite_solution_two_routes),
    ("respects-monotone", _suite_respects_monotone),
    ("dp-matches-enumeration", _suite_dp_enumeration),
    ("unique-cover", _suite_unique_cover),
    ("family-size", _suite_family_size),
    ("lowerbound-size", _suite_lowerbound_size),
    ("algorithms-agree", _suite_algorithms_agree),
    ("gen-deterministic", _suite_gen_deterministic),
]


def run_suites(max_n: int = 6) -> list[tuple[str, bool, str]]:
    """Run every suite; returns (name, passed, detail) per suite.

    `max_n` must lie in [1, MAX_N]; outside it some suites cannot run.
    """
    results = []
    for name, fn in SUITES:
        try:
            ok, detail = fn(max_n)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
