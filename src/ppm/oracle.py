"""Ground truth and baseline for cross-validation.

Two independent routes to the same number as the main solver:

* exhaustive search over embeddings, pruned to partial placements whose
  values already read in pattern order (usable up to n around 20);
* the slower guessing baseline that pins an exact text position for every
  even pattern position (binom(n, k//2) guesses) and counts the
  consistent completions with the same confined counter the main solver
  uses, so benchmark differences isolate to the guessing family.
"""

from __future__ import annotations

from itertools import combinations

from . import dp
from .core import Embedding, InstanceTooLarge, PpmInstance, SegmentDecomposition

DEFAULT_MAX_N = 24


def brute_force_enumerate(instance: PpmInstance, max_n: int = DEFAULT_MAX_N) -> list[Embedding]:
    """Every occurrence, in lexicographic order of positions.

    Depth-first over text positions, extending a partial placement only
    while its values keep the pattern's relative order.
    """
    _check_cap(instance, max_n)
    out: list[Embedding] = []
    _search(instance, lambda positions: out.append(Embedding(tuple(positions))))
    return out


def brute_force_count(instance: PpmInstance, max_n: int = DEFAULT_MAX_N) -> int:
    """Number of occurrences, without materializing them."""
    _check_cap(instance, max_n)
    hits = [0]

    def bump(_positions: list[int]) -> None:
        hits[0] += 1

    _search(instance, bump)
    return hits[0]


def bkm_count(instance: PpmInstance) -> int:
    """Occurrence count via exact even-position guessing.

    Every increasing assignment of text positions to the even pattern
    positions induces a decomposition of point segments at even positions
    and gap segments between them (position 1 from 1, position k to n
    when k is odd). Assignments with an empty gap admit no occurrence and
    are skipped; the rest are counted by the shared confined counter and
    summed. Always equals count_ppm.
    """
    n, k = instance.n, instance.k
    total = 0
    for anchors in combinations(range(1, n + 1), k // 2):
        segments = _bkm_segments(anchors, n, k)
        if segments is None:
            continue
        total += dp.count_respecting(instance, SegmentDecomposition(segments, n))
    return total


def _bkm_segments(
    anchors: tuple[int, ...], n: int, k: int
) -> tuple[tuple[int, int], ...] | None:
    """Point/gap segments for one even-position assignment; None if a gap is empty."""
    segs = []
    for p in range(1, k + 1):
        if p % 2 == 0:
            a = anchors[p // 2 - 1]
            segs.append((a, a))
        else:
            lo = 1 if p == 1 else anchors[(p - 1) // 2 - 1] + 1
            hi = n if p == k else anchors[(p + 1) // 2 - 1] - 1
            if lo > hi:
                return None
            segs.append((lo, hi))
    return tuple(segs)


def _check_cap(instance: PpmInstance, max_n: int) -> None:
    if instance.n > max_n:
        raise InstanceTooLarge(
            f"exhaustive search capped at n={max_n}, instance has n={instance.n}"
        )


def _search(instance: PpmInstance, visit) -> None:
    """DFS over strictly increasing placements; calls visit on full matches.

    Positions are tried in increasing order at every depth, so full
    matches arrive in lexicographic order.
    """
    sv = instance.sigma.values
    pv = instance.pattern.values
    n, k = instance.n, instance.k
    positions: list[int] = []
    values: list[int] = []

    def extend(start: int) -> None:
        j = len(positions)
        if j == k:
            visit(positions)
            return
        pj = pv[j]
        # Leave room for the k - j - 1 positions still to come.
        for pos in range(start, n - (k - j) + 2):
            v = sv[pos - 1]
            if all((pv[t] < pj) == (values[t] < v) for t in range(j)):
                positions.append(pos)
                values.append(v)
                extend(pos + 1)
                positions.pop()
                values.pop()

    extend(1)
