"""Ground truth and baseline for cross-validation.

Two independent routes to the same number as the main solver:

* exhaustive search over embeddings, pruned to partial placements whose
  values already read in pattern order (usable up to n around 20);
* the slower guessing baseline that pins an exact text position for every
  even pattern position and counts the consistent completions with the
  same confined counter the main solver uses, so benchmark differences
  isolate to the guessing family. Of the binom(n, k//2) guesses it
  generates only the binom(n - k//2 - k%2, k//2) that leave no odd
  position an empty gap; the others admit no occurrence.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from operator import add

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
    when k is odd). Only the assignments with no empty gap can hold an
    occurrence, and only those are generated: anchors a_i = b_i + i for
    increasing b_1 < ... < b_r in 1..n - r - k%2, r = k//2, so
    binom(n - r - k%2, r) of the binom(n, r) guesses. These are exactly
    the guesses `_bkm_segments` accepts, so the family is still BKM's.
    Each is counted by the shared confined counter and summed. Always
    equals count_ppm.
    """
    n, k = instance.n, instance.k
    r = k // 2
    shift = range(1, r + 1)
    total = 0
    for b in combinations(range(1, n - r - k % 2 + 1), r):
        segments = _bkm_segments(tuple(map(add, b, shift)), n, k)
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
    matches arrive in lexicographic order. A node at depth j bounds the
    next value once: it must lie strictly between the placed values whose
    pattern values are nearest below and above pv[j], so each candidate
    position costs one comparison instead of j.
    """
    sv = instance.sigma.values
    pv = instance.pattern.values
    n, k = instance.n, instance.k
    # bounds[j]: the pattern values nearest below and above pv[j] among
    # pv[0..j-1], or the sentinels 0 and k + 1 where there is none.
    bounds = []
    seen = [0, k + 1]
    for p in pv:
        at = bisect(seen, p)
        bounds.append((seen[at - 1], seen[at]))
        seen.insert(at, p)
    # placed[p]: the text value placed for pattern value p; the sentinels
    # hold 0 and n + 1, which bound nothing.
    placed = [0] * (k + 2)
    placed[k + 1] = n + 1
    positions = [0] * k

    def extend(j: int, start: int) -> None:
        if j == k:
            visit(positions)
            return
        below, above = bounds[j]
        lo, hi = placed[below], placed[above]
        p = pv[j]
        # Leave room for the k - j - 1 positions still to come.
        for pos in range(start, n - (k - j) + 2):
            v = sv[pos - 1]
            if lo < v < hi:
                positions[j] = pos
                placed[p] = v
                extend(j + 1, pos + 1)

    extend(0, 1)
