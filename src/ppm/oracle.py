"""Ground truth and baseline for cross-validation.

Two independent routes to the same number as the main solver:

* exhaustive search over embeddings, pruned to partial placements whose
  values already read in pattern order and leave room for the rest: each
  position leaves enough text positions after it for the pattern
  positions still to come, and each value leaves enough text values
  between it and its placed neighbours for the pattern values still to
  come between them. Both room bounds are exact (see :func:`_search`).
  It is the ground truth up to the default cap n = 24;
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
    while its values keep the pattern's relative order and leave room,
    in positions and in values, for the pattern entries still to come.
    """
    _check_cap(instance.n, max_n)
    out: list[Embedding] = []
    _search(instance, lambda positions: out.append(Embedding(tuple(positions))))
    return out


def brute_force_count(instance: PpmInstance, max_n: int = DEFAULT_MAX_N) -> int:
    """Number of occurrences, without materializing them."""
    _check_cap(instance.n, max_n)
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
    increasing b_1 < ... < b_r in 1..w, r = k//2 and w = n - r - k%2 from
    :func:`_guess_width`, so binom(w, r) of the binom(n, r) guesses.
    These are exactly the guesses whose segments pass
    `validate_decomposition`, so the family is still BKM's.
    Each is counted by the shared confined counter and summed. Always
    equals count_ppm.
    """
    n, k = instance.n, instance.k
    r = k // 2
    shift = range(1, r + 1)
    total = 0
    for b in combinations(range(1, _guess_width(n, k) + 1), r):
        segments = _bkm_segments(tuple(map(add, b, shift)), n, k)
        total += dp.count_respecting(instance, SegmentDecomposition(segments, n))
    return total


def _guess_width(n: int, k: int) -> int:
    """The w whose increasing k//2-subsets of 1..w are :func:`bkm_count`'s guesses.

    The CLI charges a BKM run binom(w, k//2) confined counts by it.
    """
    return n - k // 2 - k % 2


def _bkm_segments(anchors: tuple[int, ...], n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Point/gap segments for one even-position assignment, unchecked.

    A gap the anchors leave no room for comes out as an empty segment.
    """
    segs = []
    lo = 1
    for a in anchors:
        segs += ((lo, a - 1), (a, a))
        lo = a + 1
    if k % 2:
        segs.append((lo, n))
    return tuple(segs)


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise InstanceTooLarge(f"exhaustive search capped at n={max_n}, instance has n={n}")


def _search(instance: PpmInstance, visit) -> None:
    """DFS over strictly increasing placements; calls visit on full matches.

    Positions are tried in increasing order at every depth, so full
    matches arrive in lexicographic order. A node at depth j bounds the
    next value once, so each candidate position costs one comparison
    instead of j. Say pv[j] = p, and the placed pattern values nearest
    below and above it are `below` < p < `above`. Then the value v chosen
    for p must satisfy

        placed[below] + (p - below) <= v <= placed[above] - (above - p).

    Both room bounds are exact: the p - below - 1 pattern values strictly
    between `below` and p are still to be placed, on distinct text values
    strictly between placed[below] and v, so a smaller v leaves them no
    room; likewise the above - p - 1 values between p and `above`. The
    sentinels 0 and k + 1, placed at 0 and n + 1, give v >= p and
    v <= n - k + p. The position range is bounded the same way, leaving
    room for the k - j - 1 positions still to come. At the last depth a
    candidate that fits is a full match, so `visit` is called from inside
    the candidate loop, after its position is set, with no leaf call.
    """
    sv = instance.sigma.values
    pv = instance.pattern.values
    n, k = instance.n, instance.k
    # bounds[j]: the pattern values `below` and `above` nearest pv[j] among
    # pv[0..j-1], or the sentinels 0 and k + 1 where there is none, and the
    # room offsets pv[j] - below and above - pv[j].
    bounds = []
    seen = [0, k + 1]
    for p in pv:
        at = bisect(seen, p)
        below, above = seen[at - 1], seen[at]
        bounds.append((below, above, p - below, above - p))
        seen.insert(at, p)
    # placed[p]: the text value placed for pattern value p; the sentinels
    # hold 0 and n + 1.
    placed = [0] * (k + 2)
    placed[k + 1] = n + 1
    positions = [0] * k
    last = k - 1

    def extend(j: int, start: int) -> None:
        below, above, rise, fall = bounds[j]
        lo = placed[below] + rise
        hi = placed[above] - fall
        # Leave room for the k - j - 1 positions still to come.
        stop = n - (k - j) + 2
        if j == last:
            for pos in range(start, stop):
                if lo <= sv[pos - 1] <= hi:
                    positions[j] = pos
                    visit(positions)
            return
        p = pv[j]
        for pos in range(start, stop):
            v = sv[pos - 1]
            if lo <= v <= hi:
                positions[j] = pos
                placed[p] = v
                extend(j + 1, pos + 1)

    extend(0, 1)
