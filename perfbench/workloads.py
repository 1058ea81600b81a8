"""The four benchmark workloads: seeded instances with pinned expected counts.

Every workload is a list of *main* cases, timed through ``count_ppm``,
``detect_ppm`` and ``count_ppm(threads=2)``, and a list of *probe* cases,
timed through ``bkm_count`` and ``brute_force_count``. The oracle routes
cannot run at the main sizes (BKM at n = 28 needs C(28, 7) ~ 1.2M guesses,
and brute force on the dense instance would enumerate C(28, 14) ~ 4e7
occurrences), so on ``random``, ``planted`` and ``dense`` they run on
instances of the same kind at ``PROBE_SIZE``. On ``small`` both lists are
the same 19,213 instances.

Every expected count comes from a route independent of the fast solver:
``brute_force_count`` with an explicit ``max_n`` for random and planted
instances and for every small instance, the closed form C(n, k) for
identity instances. The program under test only ever receives the built
``PpmInstance`` objects.

Functions take the imported ``ppm`` package as an argument, because the
harness re-imports it for every set-up repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

WORKLOADS = ("random", "planted", "dense", "small")

# (n, k) of the main cases, below n = 32: a count call there takes about
# 0.6 s, so only about 20 fit in a run, and each spans the host's speed
# switches (see reference.py). Call times also differ between instances
# (count on random pairs spans about 2x, detect on planted ones has a
# coefficient of variation of about 0.6), so a median steady from seed to
# seed needs many distinct instances per run.
MAIN_SIZE = {"random": (28, 14), "planted": (24, 12), "dense": (28, 14)}
PROBE_SIZE = (16, 8)
# Distinct main instances per run, about as many as calls fit in one.
# Brute-force time varies widely between probe instances, hence the large
# probe pool.
MAIN_POOL = {"random": 80, "planted": 480, "dense": 1}
PROBE_POOL = 512
SMALL_MAX_N = 5

# Share of the measured seconds given to each timed route. count_ppm with
# threads=2 is timed only in the traced run: its time depends on whether
# the host's second CPU is free, and its run-to-run spread (0.18-0.43 of
# the median) exceeded any bound a regression gate could use.
SHARES = {
    "random": {"count": 0.5, "detect": 0.3, "bkm": 0.12, "brute": 0.08},
    "planted": {"count": 0.25, "detect": 0.55, "bkm": 0.1, "brute": 0.1},
    "dense": {"count": 0.6, "detect": 0.1, "bkm": 0.15, "brute": 0.15},
    "small": {"count": 0.25, "detect": 0.25, "bkm": 0.25, "brute": 0.25},
}

ORACLE_ROUTES = frozenset({"bkm", "brute"})

ROUTES = {
    "count": lambda ppm, inst: ppm.count_ppm(inst),
    "detect": lambda ppm, inst: ppm.detect_ppm(inst),
    "count_t2": lambda ppm, inst: ppm.count_ppm(inst, threads=2),
    "bkm": lambda ppm, inst: ppm.bkm_count(inst),
    "brute": lambda ppm, inst: ppm.brute_force_count(inst),
}

# docs/FORMAT.md: `gen --n 12 --seed 42` must print this permutation.
GOLDEN = (12, 42, (10, 7, 8, 11, 4, 12, 5, 3, 1, 9, 6, 2))


def expected_output(route: str, count: int) -> int | bool:
    """What a correct route returns on an instance with `count` occurrences."""
    return count > 0 if route == "detect" else count


@dataclass(frozen=True)
class Case:
    instance: object  # ppm.PpmInstance
    expected: int


@dataclass
class Workload:
    name: str
    main: list[Case]
    probe: list[Case]
    # Correctness checks made while building: the golden vector and every
    # planted embedding.
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def cases(self, route: str) -> list[Case]:
        return self.probe if route in ORACLE_ROUTES else self.main


def build(ppm, name: str, seed: int) -> Workload:
    """All cases of one workload, fully determined by (name, seed)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    wl = Workload(name, [], [])
    n, s, golden = GOLDEN
    _check(wl, ppm.random_permutation(n, s).values == golden, "golden vector changed")
    if name == "small":
        wl.main = wl.probe = _small(ppm, seed)
        return wl
    draws = ppm.SplitMix64(seed)
    n, k = MAIN_SIZE[name]
    wl.main = [_case(ppm, wl, name, draws, n, k) for _ in range(MAIN_POOL[name])]
    wl.probe = [_case(ppm, wl, name, draws, *PROBE_SIZE) for _ in range(PROBE_POOL)]
    return wl


def planted_instance(ppm, draws, n: int, k: int):
    """A random text and the order pattern of a seeded k-subsequence of it.

    Returns the instance and the planted embedding.
    """
    sigma = ppm.random_permutation(n, draws.next_u64())
    order = ppm.random_permutation(n, draws.next_u64()).values
    positions = tuple(sorted(order[:k]))
    pattern = ppm.pattern_of([sigma.values[p - 1] for p in positions])
    return ppm.PpmInstance(sigma, pattern), ppm.Embedding(positions)


def _case(ppm, wl: Workload, name: str, draws, n: int, k: int) -> Case:
    if name == "dense":
        sigma = ppm.Permutation(tuple(range(1, n + 1)))
        pattern = ppm.Permutation(tuple(range(1, k + 1)))
        return Case(ppm.PpmInstance(sigma, pattern), math.comb(n, k))
    if name == "random":
        instance = ppm.PpmInstance(
            ppm.random_permutation(n, draws.next_u64()),
            ppm.random_permutation(k, draws.next_u64()),
        )
    else:
        instance, embedding = planted_instance(ppm, draws, n, k)
        _check(wl, ppm.is_solution(instance, embedding), f"planted {embedding.values} rejected")
    return Case(instance, ppm.brute_force_count(instance, max_n=n))


def _small(ppm, seed: int) -> list[Case]:
    """Every (text, pattern) pair with n <= SMALL_MAX_N, in a seeded order."""
    pairs = []
    for n in range(1, SMALL_MAX_N + 1):
        for sigma in permutations(range(1, n + 1)):
            text = ppm.Permutation(sigma)
            for k in range(1, n + 1):
                for pattern in permutations(range(1, k + 1)):
                    pairs.append(ppm.PpmInstance(text, ppm.Permutation(pattern)))
    order = ppm.random_permutation(len(pairs), seed).values
    return [Case(pairs[i - 1], ppm.brute_force_count(pairs[i - 1])) for i in order]


def _check(wl: Workload, ok: bool, message: str) -> None:
    wl.checks += 1
    if not ok:
        wl.failures.append(message)
