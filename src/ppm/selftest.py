"""Cross-module invariants, stated once, and the suites behind `ppm selftest`.

Each check takes its corpus and returns a failure detail, "" meaning pass;
none relies on `assert`, so all hold under `python -O`. They cover route
agreement, the exactly-once canonical cover by a live member, and the
sizes of the anchor and lower-bound families. `check_known_counts` is the
one statement that count_ppm equals a count known by other means and
detect_ppm says whether it is positive; `check_routes_agree` checks that
bkm_count equals brute force and hands brute force's count to it, and
the unit tests hand it their closed forms and independent counters.
`run_suites` runs the checks beside five single-module suites on small
corpora scaled by `max_n`; the acceptance gate runs them on its pinned
corpora. The corpus builders draw the same instances wherever they are
used. The `dp-matches-enumeration` suite also states the invariants
detection rests on: the greedy chain over a member's sorted segment
values holds exactly when the member's confined count is nonzero, and
the prefix check holds at every anchor prefix of a member with a nonzero
count.
"""

from __future__ import annotations

import random
import traceback
from itertools import chain, combinations, permutations
from math import comb
from typing import Callable, Iterable, Iterator

from . import dp, oracle, solver
from .core import (
    Embedding,
    InstanceTooLarge,
    InstanceTooSmall,
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
LOWERBOUND_CAP = 24
MAX_N = LOWERBOUND_CAP - _HEADROOM


def all_permutations(n: int) -> list[Permutation]:
    """Every permutation of length n, in lexicographic order."""
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def exhaustive_instances(max_n: int) -> Iterator[PpmInstance]:
    """Every instance with k <= n <= max_n, ordered by n, k, pattern, then text."""
    for n in range(1, max_n + 1):
        sigmas = all_permutations(n)
        for k in range(1, n + 1):
            for pattern in all_permutations(k):
                for sigma in sigmas:
                    yield PpmInstance(sigma, pattern)


def random_instance(rng: random.Random, n: int) -> PpmInstance:
    """A text of length n and a pattern of uniform length in [1, n], both shuffled."""
    k = rng.randint(1, n)
    sigma = list(range(1, n + 1))
    pat = list(range(1, k + 1))
    rng.shuffle(sigma)
    rng.shuffle(pat)
    return PpmInstance(Permutation(tuple(sigma)), Permutation(tuple(pat)))


def random_instances(rng: random.Random, count: int, lo: int, hi: int) -> Iterator[PpmInstance]:
    """`count` draws of `random_instance`, each with n uniform in [lo, hi]."""
    for _ in range(count):
        yield random_instance(rng, rng.randint(lo, hi))


def random_family_decomposition(rng: random.Random, n: int, k: int) -> SegmentDecomposition:
    """A uniformly drawn member of the anchor family for (n, k)."""
    anchors = tuple(sorted(2 * c for c in rng.sample(range(1, n // 2 + 1), k // 2)))
    return solver.decomposition_of_guess(anchors, n, k)


def lowerbound_family(n: int, k: int) -> set[SegmentDecomposition]:
    """Distinct family members forced by a structured set of occurrences.

    For every increasing map of 1..k//2 into 1..(n-1)//2, build the
    embedding that walks the chosen odd/even position pairs (appending n
    when k is odd) and take its canonical decomposition. Distinct maps
    force distinct members, so the result has binom((n-1)//2, k//2)
    elements. Capped at n = LOWERBOUND_CAP, since it is materialized.
    """
    solver._check_sizes(n, k)
    half_k = k // 2
    half_n = (n - 1) // 2
    if half_k > half_n:
        raise InstanceTooSmall(f"need k//2 <= (n-1)//2, got k={k}, n={n}")
    if n > LOWERBOUND_CAP:
        raise InstanceTooLarge(f"materializing the family is capped at n={LOWERBOUND_CAP}")
    out: set[SegmentDecomposition] = set()
    for choice in combinations(range(1, half_n + 1), half_k):
        values = [0] * k
        for i, c in enumerate(choice, start=1):
            values[2 * i - 2] = 2 * c - 1
            values[2 * i - 1] = 2 * c
        if k % 2:
            values[-1] = n
        out.add(solver.canonical_decomposition(Embedding(tuple(values)), n))
    return out


def _where(inst: PpmInstance) -> str:
    return f"sigma={inst.sigma.values} pattern={inst.pattern.values}"


def check_known_counts(cases: Iterable[tuple[PpmInstance, int]]) -> str:
    """On each (instance, want) pair count_ppm is want, and detect_ppm says whether want > 0."""
    for inst, want in cases:
        got = solver.count_ppm(inst)
        found = solver.detect_ppm(inst)
        if got != want or found != (want > 0):
            return f"want={want} count={got} detect={found} on {_where(inst)}"
    return ""


def check_routes_agree(instances: Iterable[PpmInstance]) -> str:
    """bkm_count equals brute_force_count, and count and detect agree with it."""
    for inst in instances:
        brute = oracle.brute_force_count(inst)
        bkm = oracle.bkm_count(inst)
        if bkm != brute:
            return f"bkm={bkm} brute={brute} on {_where(inst)}"
        detail = check_known_counts([(inst, brute)])
        if detail:
            return detail
    return ""


def check_unique_cover(instances: Iterable[PpmInstance]) -> str:
    """Each occurrence respects exactly one family member, its canonical decomposition.

    That member is live: its anchors lie in the family of
    (``solver._live_n(n, k)``, k), so no occurrence respects the dead
    members that counting and detection skip.
    """
    families: dict[tuple[int, int], list[SegmentDecomposition]] = {}
    for inst in instances:
        n, k = inst.n, inst.k
        family = families.get((n, k))
        if family is None:
            family = families[n, k] = [
                solver.decomposition_of_guess(g, n, k) for g in solver.enumerate_guesses(n, k)
            ]
        for f in oracle.brute_force_enumerate(inst):
            hits = [d for d in family if respects(f, d)]
            if len(hits) != 1:
                return f"{len(hits)} members cover f={f.values} on {_where(inst)}"
            if hits[0] != solver.canonical_decomposition(f, n):
                return f"cover of f={f.values} is not canonical on {_where(inst)}"
            if any(a > solver._live_n(n, k) for a, _ in hits[0].segments[1::2]):
                return f"dead member covers f={f.values} on {_where(inst)}"
    return ""


def check_family(max_n: int) -> str:
    """For all k <= n <= max_n: binom(n//2, k//2) members, as family_size says, each valid (else it raises)."""
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            count = 0
            for g in solver.enumerate_guesses(n, k):
                validate_decomposition(solver.decomposition_of_guess(g, n, k))
                count += 1
            size = solver.family_size(n, k)
            if not count == size == comb(n // 2, k // 2):
                return f"family size {count}, family_size {size} != C({n // 2},{k // 2}) at n={n} k={k}"
    return ""


def check_lowerbound(max_n: int) -> str:
    """For all valid k <= n <= max_n the lower-bound family has binom((n-1)//2, k//2) members."""
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            if k // 2 > (n - 1) // 2:
                continue
            got = len(lowerbound_family(n, k))
            if got != comb((n - 1) // 2, k // 2):
                return f"lower-bound family size {got} at n={n} k={k}"
    return ""


def _suite_parse_roundtrip(max_n: int) -> str:
    rng = random.Random(_SEED)
    for trial in range(200):
        n = rng.randint(1, max_n + 6)
        p = random_permutation(n, rng.getrandbits(64))
        if parse_permutation(format_permutation(p)) != p:
            return f"round-trip failed for {p.values}"
    return ""


def _suite_solution_two_routes(max_n: int) -> str:
    rng = random.Random(_SEED + 1)
    for inst in random_instances(rng, 400, 1, max_n + 4):
        f = Embedding(tuple(sorted(rng.sample(range(1, inst.n + 1), inst.k))))
        via_ranks = pattern_of([inst.sigma(p) for p in f.values]) == inst.pattern
        if via_ranks != is_solution(inst, f):
            return f"routes disagree on sigma={inst.sigma.values} f={f.values}"
    return ""


def _suite_respects_monotone(max_n: int) -> str:
    rng = random.Random(_SEED + 2)
    for inst in random_instances(rng, 300, 2, max_n + 4):
        n, k = inst.n, inst.k
        f = Embedding(tuple(sorted(rng.sample(range(1, n + 1), k))))
        d = random_family_decomposition(rng, n, k)
        if not respects(f, d):
            continue
        wider = tuple(
            (max(1, lo - rng.randint(0, 2)), min(n, hi + rng.randint(0, 2)))
            for lo, hi in d.segments
        )
        if not respects(f, SegmentDecomposition(wider, n)):
            return f"enlarging segments dropped f={f.values}"
    return ""


def _suite_dp_enumeration(max_n: int) -> str:
    rng = random.Random(_SEED + 3)
    for inst in random_instances(rng, 250, 2, max_n + 4):
        d = random_family_decomposition(rng, inst.n, inst.k)
        got = dp.count_respecting(inst, d)
        want = sum(1 for f in oracle.brute_force_enumerate(inst) if respects(f, d))
        # Detection's leaf check: the greedy chain holds exactly when the count is nonzero.
        buckets = [sorted(v) for v in dp._segment_value_buckets(inst.sigma, d.segments)]
        pinv = inst.pattern.inverse_values
        chain_holds = dp._has_chain(buckets, pinv)
        where = f"sigma={inst.sigma.values} pat={inst.pattern.values} segs={d.segments}"
        if got != want or chain_holds != (want > 0):
            return f"count_respecting={got} chain={chain_holds} but enumeration says {want} on {where}"
        # Detection's prefix check: it keeps every prefix of a member with a nonzero count.
        for j, (a, _) in enumerate(d.segments[1::2]):
            rest = sorted(inst.sigma.values[a:])
            if want and not dp._has_chain(buckets[:2 * j + 2], pinv, rest):
                return f"prefix check fails at anchor {a} but enumeration says {want} on {where}"
    return ""


def _suite_gen_deterministic(max_n: int) -> str:
    rng = random.Random(_SEED + 5)
    for trial in range(50):
        n = rng.randint(1, max_n + 10)
        seed = rng.getrandbits(64)
        a = random_permutation(n, seed)
        b = random_permutation(n, seed)
        if a != b:
            return f"two draws differ for n={n} seed={seed}"
        parse_permutation(format_permutation(a))
    return ""


def _suite_algorithms_agree(max_n: int) -> str:
    rng = random.Random(_SEED + 4)
    exhaustive = exhaustive_instances(min(max_n, 4))
    return check_routes_agree(chain(exhaustive, random_instances(rng, 150, 1, max_n + 4)))


SUITES: list[tuple[str, Callable[[int], str]]] = [
    ("parse-roundtrip", _suite_parse_roundtrip),
    ("solution-two-routes", _suite_solution_two_routes),
    ("respects-monotone", _suite_respects_monotone),
    ("dp-matches-enumeration", _suite_dp_enumeration),
    ("unique-cover", lambda m: check_unique_cover(exhaustive_instances(min(m, _EXHAUSTIVE_CAP)))),
    ("family-size", lambda m: check_family(m + _HEADROOM)),
    ("lowerbound-size", lambda m: check_lowerbound(m + _HEADROOM)),
    ("algorithms-agree", _suite_algorithms_agree),
    ("gen-deterministic", _suite_gen_deterministic),
]


def run_suites(max_n: int) -> list[tuple[str, bool, str]]:
    """Run every suite; returns (name, passed, detail) per suite.

    `max_n` must lie in [1, MAX_N]; outside it some suites cannot run. A
    suite that raises fails, its detail naming the exception and the
    function, file and line that raised it.
    """
    results = []
    for name, fn in SUITES:
        try:
            detail = fn(max_n)
        except Exception as exc:  # a crash is a failure, not an abort
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = f"raised {type(exc).__name__}: {exc} (in {where.name}, {where.filename}:{where.lineno})"
        results.append((name, not detail, detail))
    return results
