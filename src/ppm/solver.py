"""Counting and detection by summation over an anchored decomposition family.

The family is indexed by increasing maps from the even pattern positions
to the even text positions. Each map pins every even pattern position
into a two-wide window starting at its (even) anchor, and the odd
positions get the stretches in between, so each family member is a valid
segment decomposition. Every occurrence respects exactly one member: the
one whose anchors are the occurrence's even-position text positions
rounded down to even. Summing the confined counts over the family
therefore counts each occurrence once.
A member is a plain tuple of its anchors, checked only by
:func:`decomposition_of_guess`.

The family has binom(n//2, k//2) <= 2^(n/2) members and each confined
count costs O(n) DP steps plus at most an O(n log n) C-level sort, which
gives the O*(2^(n/2)) total with O(n) memory: the family is streamed,
never materialized.

Counting and detection share one walk that updates a single anchor list,
and the segment boundaries it fixes, in place, member by member. Counting
sums over the whole family. Detection walks it in the same order but
prunes it by anchor prefix: the first 2j segments of a member depend only
on its first j anchors, and an occurrence confined to the member
restricts to an occurrence of pattern positions 1..2j confined to those
segments. Each member's prefixes are checked before its own confined
count, by ``dp._has_chain``, which asks only whether such an occurrence
exists, with one bisect per pattern position. When a prefix has none, no
member sharing it counts anything, so the walk skips all of them and the
answer stays exact. Pruning depends on the instance; where no prefix is
empty the walk still visits all binom(n//2, k//2) members, so the worst
case is unchanged.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Sequence

from . import dp
from .core import (
    Embedding,
    InstanceTooLarge,
    InstanceTooSmall,
    LengthMismatch,
    OrderViolation,
    OutOfRange,
    PpmInstance,
    SegmentDecomposition,
)


def decomposition_of_guess(anchors: Sequence[int], n: int, k: int) -> SegmentDecomposition:
    """The segment decomposition induced by even-position anchors.

    ``anchors[i-1]`` is the anchor of pattern position 2i: k//2 even text
    positions in [2, n], strictly increasing. Even position 2i gets the
    window [a_i, min(n, a_i + 1)]; each odd position stretches from the
    right end of its left neighbour to the left end of its right
    neighbour; position 1 starts at 1 and, for odd k, position k runs to
    n. Always passes validate_decomposition.
    """
    prev = 0  # the anchors' own shape first, then their fit to (n, k)
    for a in anchors:
        if a < 2 or a % 2:
            raise OutOfRange(f"anchor {a} is not an even position >= 2")
        if a <= prev:
            raise OrderViolation(f"anchors not strictly increasing: {prev} then {a}")
        prev = a
    if not 1 <= k <= n:
        raise InstanceTooSmall(f"need 1 <= k <= n, got k={k}, n={n}")
    if len(anchors) != k // 2:
        raise LengthMismatch(f"expected {k // 2} anchors for k={k}, got {len(anchors)}")
    if prev > n:
        raise OutOfRange(f"anchor {prev} beyond text length {n}")
    b = _boundaries(anchors, n, k)
    return SegmentDecomposition(tuple(zip(b, b[1:])), n)


def _boundaries(anchors: Sequence[int], n: int, k: int) -> list[int]:
    """Segment boundaries of the family member with these anchors.

    The list is [1, a1, min(a1+1, n), a2, min(a2+1, n), ...], followed by n
    when k is odd; segment i runs from boundary i to boundary i + 1. Anchor
    t (0-based) sets entries 2t+1 and 2t+2, so the walks rewrite only the
    tail from the first anchor that moved.
    """
    b = [1]
    for anchor in anchors:
        b += (anchor, anchor + 1 if anchor < n else n)
    if k % 2:
        b.append(n)
    return b


def enumerate_guesses(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Stream every anchor tuple in lexicographic order.

    Exactly binom(n//2, k//2) tuples, generated with O(n) working memory.
    """
    if not 1 <= k <= n:
        raise InstanceTooSmall(f"need 1 <= k <= n, got k={k}, n={n}")
    return combinations(range(2, 2 * (n // 2) + 1, 2), k // 2)


def family_size(n: int, k: int) -> int:
    """Number of anchor choices for an (n, k) instance."""
    if not 1 <= k <= n:
        raise InstanceTooSmall(f"need 1 <= k <= n, got k={k}, n={n}")
    return math.comb(n // 2, k // 2)


def canonical_decomposition(f: Embedding, n: int) -> SegmentDecomposition:
    """The unique family member respected by the occurrence f.

    Anchors each even pattern position at its text position rounded down
    to even; any other member's window misses some f(2i) by at least one.
    """
    k = len(f.values)
    if f.values[-1] > n:
        raise OutOfRange(f"position {f.values[-1]} beyond text length {n}")
    return decomposition_of_guess(tuple(v - v % 2 for v in f.values[1::2]), n, k)


def _advance(anchors: list[int], depth: int, n: int) -> int:
    """Step the anchor walk to the next member, in the order of :func:`enumerate_guesses`,
    that does not share a1..a_depth with the current one.

    `anchors` holds a1..ar and is updated in place. Returns the 0-based
    index of the shallowest anchor that moved, or -1 past the last member.
    """
    r = len(anchors)
    last = 2 * (n // 2 - r)  # anchor i (0-based) runs up to last + 2 * (i + 1)
    t = depth - 1
    while t >= 0 and anchors[t] == last + 2 * (t + 1):
        t -= 1
    if t >= 0:
        anchors[t] += 2
        for i in range(t + 1, r):
            anchors[i] = anchors[i - 1] + 2
    return t


def count_ppm(instance: PpmInstance, threads: int = 1) -> int:
    """Total number of occurrences of the pattern in the text.

    Sums the confined counts over the whole anchor family, one
    ``dp.count_respecting`` call per member. `threads` is kept for
    compatibility: it must be at least 1 and is otherwise ignored, since
    the pure-Python counter holds the GIL and threads only slowed it down.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n, k = instance.n, instance.k
    r = k // 2
    anchors = list(range(2, 2 * r + 1, 2))
    b = _boundaries(anchors, n, k)
    segments = list(zip(b, b[1:]))
    total = 0
    while True:
        total += dp.count_respecting(instance, SegmentDecomposition(tuple(segments), n))
        moved = _advance(anchors, r, n)
        if moved < 0:
            return total
        lo = 2 * moved  # anchors from `moved` on set boundaries from lo + 1 on
        b[lo + 1:] = _boundaries(anchors[moved:], n, k)[1:]
        segments[lo:] = zip(b[lo:], b[lo + 1:])


def detect_ppm(instance: PpmInstance) -> bool:
    """Whether the pattern occurs at all.

    Walks the anchor family in the lexicographic order of
    :func:`enumerate_guesses` and returns True at the first member with a
    nonzero confined count, its leaf: one ``dp.count_respecting`` call.
    Member 1 goes straight to its leaf. Each later member first has its
    anchor prefixes a1..aj checked, shallowest first, for j < k//2: an
    occurrence confined to a member restricts to one of pattern positions
    1..2j inside the member's first 2j segments, which a1..aj alone fix.
    A prefix check asks only whether such an occurrence exists, which
    ``dp._has_chain`` answers with one bisect per pattern position; the
    counting DP runs at leaves alone. An empty prefix rules out every
    member sharing it, so the walk skips them all and the answer stays
    exact. A prefix found nonempty, with its sorted segment values, is
    kept until one of its anchors moves. Where no prefix is empty the walk
    still visits all binom(n//2, k//2) leaves.
    """
    n, k = instance.n, instance.k
    r = k // 2
    sv = instance.sigma.values
    pinv = instance.pattern.inverse_values
    orders: list[list[int] | None] = [None] * r  # orders[j - 1]: positions 1..2j by value
    buckets: list[list[int]] = []  # sorted values on segments 1..2 * checked
    checked = 0  # prefixes of depth 1..checked hold an occurrence
    anchors = list(range(2, 2 * r + 1, 2))
    b = _boundaries(anchors, n, k)
    if dp.count_respecting(instance, SegmentDecomposition(tuple(zip(b, b[1:])), n)) > 0:
        return True
    depth = r
    while True:
        moved = _advance(anchors, depth, n)
        if moved < 0:
            return False
        b[2 * moved + 1:] = _boundaries(anchors[moved:], n, k)[1:]
        checked = min(checked, moved)
        del buckets[2 * checked:]
        depth = r
        while checked < r - 1:
            lo = 2 * checked
            buckets += (sorted(sv[b[lo] - 1:b[lo + 1]]), sorted(sv[b[lo + 1] - 1:b[lo + 2]]))
            order = orders[checked]
            if order is None:
                order = orders[checked] = [p for p in pinv if p <= lo + 2]
            if not dp._has_chain(buckets, order):
                depth = checked + 1
                break
            checked += 1
        else:
            if dp.count_respecting(instance, SegmentDecomposition(tuple(zip(b, b[1:])), n)) > 0:
                return True


LOWERBOUND_CAP = 24


def lowerbound_family(n: int, k: int) -> set[SegmentDecomposition]:
    """Distinct family members forced by a structured set of occurrences.

    For every increasing map of 1..k//2 into 1..(n-1)//2, build the
    embedding that walks the chosen odd/even position pairs (appending n
    when k is odd) and take its canonical decomposition. Distinct maps
    force distinct members, so the result has binom((n-1)//2, k//2)
    elements. Self-test machinery, capped at small n; not part of the
    solving API.
    """
    if not 1 <= k <= n:
        raise InstanceTooSmall(f"need 1 <= k <= n, got k={k}, n={n}")
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
        out.add(canonical_decomposition(Embedding(tuple(values)), n))
    return out
