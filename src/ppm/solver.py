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
sums the confined counts over the whole family. Detection needs only
whether some member holds an occurrence, which ``dp._has_chain`` decides
with one bisect per pattern position and no DP. It walks the family in
the same order but prunes it by anchor prefix: the first 2j segments of
a member depend only on its first j anchors, and an occurrence confined
to the member restricts to an occurrence of pattern positions 1..2j
confined to those segments. Each member's prefixes are checked before
the member itself, its leaf, reusing the sorted segment values of the
prefixes it shares with the member before. When a prefix has no
occurrence, no member sharing it holds one, so the walk skips all of
them and the answer stays exact. Pruning depends on the instance; where
no prefix is empty the walk still visits all binom(n//2, k//2) members,
so the worst case is unchanged.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Sequence

from . import dp
from .core import (
    Embedding,
    InstanceTooSmall,
    LengthMismatch,
    OrderViolation,
    OutOfRange,
    PpmInstance,
    SegmentDecomposition,
    validate_decomposition,
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
    :func:`enumerate_guesses` and returns True at the first member whose
    leaf check finds a confined occurrence. Member 1 goes straight to its
    leaf. Each later member first has its anchor prefixes a1..aj checked,
    shallowest first, for j < k//2: an occurrence confined to a member
    restricts to one of pattern positions 1..2j inside the member's first
    2j segments, which a1..aj alone fix. An empty prefix rules out every
    member sharing it, so the walk skips them all and the answer stays
    exact. A prefix found nonempty, with its sorted segment values, is
    kept until one of its anchors moves. A member whose prefixes all hold
    is a leaf: its decomposition is validated, the segments past the kept
    prefix are sorted, and one more chain over the whole pattern order
    decides it. Every check is ``dp._has_chain``, which asks only whether
    an occurrence exists, with one bisect per pattern position; detection
    never runs the counting DP. Where no prefix is empty the walk still
    visits all binom(n//2, k//2) leaves.
    """
    n, k = instance.n, instance.k
    r = k // 2
    sv = instance.sigma.values
    pinv = instance.pattern.inverse_values
    orders: list[list[int] | None] = [None] * r  # orders[j - 1]: positions 1..2j by value
    buckets: list[list[int]] = []  # sorted values on segments 1..2 * checked, then the leaf's
    checked = 0  # prefixes of depth 1..checked hold an occurrence
    anchors = list(range(2, 2 * r + 1, 2))
    b = _boundaries(anchors, n, k)
    depth = r  # the next member must not share a1..a_depth with this one
    while True:
        if depth == r:  # a leaf: member 1, or a member whose prefixes all hold
            validate_decomposition(SegmentDecomposition(tuple(zip(b, b[1:])), n))
            buckets += [sorted(sv[b[i] - 1:b[i + 1]]) for i in range(2 * checked, k)]
            if dp._has_chain(buckets, pinv):
                return True
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
