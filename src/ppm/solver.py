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

Not every member can hold an occurrence: at even n and odd k those whose
last anchor is n cannot, for the reason :func:`_live_n` gives. Both
routes walk only the live members, the anchor family of
(``_live_n(n, k)``, k) with segments still built for n.

Counting sums the live family: it streams the live members from
:func:`enumerate_guesses` and adds up their confined counts. Detection
needs only whether some member holds an occurrence, which
``dp._has_chain`` decides with one bisect per pattern position and no DP.
It decides member 1 first, whose segments are the text pairs (1, 2),
(2, 3), ...; for odd k, position k draws from the sorted text after its
anchors, as at every leaf of the search. Then it searches the live
family in the same order, depth first over the anchors, and prunes it
by anchor prefix: the first 2j segments of a member depend only on its
first j anchors, and an occurrence confined to the member places pattern
positions 1..2j inside those segments and every later position right of
the j-th anchor. One ``dp._has_chain`` call decides whether the whole
pattern can be placed that way. When a prefix fails, no member sharing
it holds an occurrence, so the search skips all of them and the answer
stays exact; at the last anchor the same call decides a whole member,
with the text after the anchor as the last segment for odd k.
The sorted segment values of a prefix are built once and shared by every
member below it, and none is sorted afresh: a window is one text pair,
put in order by one comparison, and moving an anchor two places right
inserts the two text values it passes into the stretch before it. The
sorted text after the anchor being stepped is one list, which a step
shrinks by those two values and a backtrack rebuilds from the parent's
anchor, so the search keeps O(n) memory at any depth.
Pruning depends on the instance; where no prefix fails the search still
reaches all its binom(_live_n(n, k)//2, k//2) members and checks up to k//2
prefixes on the way to each, at O(n log n) a check, so detection's worst
case is O(k n log n * 2^(n/2)) time, still with O(n) memory. Since that
cost depends on the instance, the private ``_detect`` counts its checks
and gives up once a given number is spent: the CLI meters detection so.
"""

from __future__ import annotations

import math
from bisect import insort
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
    _check_sizes(n, k)
    if len(anchors) != k // 2:
        raise LengthMismatch(f"expected {k // 2} anchors for k={k}, got {len(anchors)}")
    if prev > n:
        raise OutOfRange(f"anchor {prev} beyond text length {n}")
    return SegmentDecomposition(_segments(anchors, n, k), n)


def _check_sizes(n: int, k: int) -> None:
    """Raise InstanceTooSmall unless 1 <= k <= n."""
    if not 1 <= k <= n:
        raise InstanceTooSmall(f"need 1 <= k <= n, got k={k}, n={n}")


def _segments(anchors: Sequence[int], n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Segments of the family member with these anchors, unchecked.

    Each anchor a closes the stretch from the previous window's right end
    (1 at first) with segment (lo, a) and adds its window (a, min(a + 1, n));
    for odd k the last segment runs from the last window's right end to n.
    """
    segs = []
    lo = 1
    for a in anchors:
        hi = a + 1 if a < n else n
        segs += ((lo, a), (a, hi))
        lo = hi
    if k % 2:
        segs.append((lo, n))
    return tuple(segs)


def _live_n(n: int, k: int) -> int:
    """The text length whose anchor family is the live members of (n, k).

    At even n and odd k a member whose last anchor is n gives positions
    k - 1 and k the one text position n, so no occurrence respects it.
    Its other members, the live ones, are exactly the anchor family of
    (n - 1, k), with segments still built for n; there are
    binom(n/2 - 1, k//2 - 1) dead ones. At every other parity all members
    are live.
    """
    return n - 1 if k % 2 and n % 2 == 0 else n


def enumerate_guesses(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Stream every anchor tuple in lexicographic order.

    Exactly binom(n//2, k//2) tuples, generated with O(n) working memory.
    """
    _check_sizes(n, k)
    return combinations(range(2, 2 * (n // 2) + 1, 2), k // 2)


def family_size(n: int, k: int) -> int:
    """Number of anchor choices for an (n, k) instance."""
    _check_sizes(n, k)
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


def count_ppm(instance: PpmInstance, threads: int = 1) -> int:
    """Total number of occurrences of the pattern in the text.

    Sums the confined counts over the live anchor family, streamed by
    :func:`enumerate_guesses` on (``_live_n(n, k)``, k), with one
    ``dp.count_respecting`` call per member, in family order; at even n
    and odd k it skips the members whose last anchor is n. `threads` is
    kept for compatibility: it must be at least 1 and is otherwise
    ignored, since the pure-Python counter holds the GIL and threads only
    slowed it down.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n, k = instance.n, instance.k
    total = 0
    for anchors in enumerate_guesses(_live_n(n, k), k):
        total += dp.count_respecting(instance, SegmentDecomposition(_segments(anchors, n, k), n))
    return total


def detect_ppm(instance: PpmInstance) -> bool:
    """Whether the pattern occurs at all.

    Exact: True exactly when :func:`count_ppm` is nonzero. Searches the
    live anchor family in the order of :func:`enumerate_guesses` and
    returns at the first member that holds an occurrence, deciding member 1
    before the search. Keeps O(n) memory and its own stack rather than
    recursing, since k//2 may exceed Python's recursion limit. Where no
    prefix fails it still reaches all binom(_live_n(n, k)//2, k//2) live
    members and checks up to k//2 prefixes on the way to each,
    O(k n log n * 2^(n/2)) in all.
    """
    return _detect(instance, math.inf)


def _detect(instance: PpmInstance, max_chains: float) -> bool | None:
    """:func:`detect_ppm`'s answer, or None if it needs more than max_chains ``dp._has_chain`` calls."""
    n, k = instance.n, instance.k
    r = k // 2
    sv = instance.sigma.values
    pinv = instance.pattern.inverse_values
    # Every bucket is a list, even a fixed window: chains over a mix of lists
    # and tuples ran the deep-k search about 17% slower.
    member1 = [[x, y] if x < y else [y, x] for x, y in zip(sv, sv[1:2 * r + 1])]
    if 2 * r == n:
        member1.append([sv[n - 1]])
    if not max_chains:
        return None
    if dp._has_chain(member1, pinv, sorted(sv[2 * r:]) if k % 2 else ()):
        return True
    # At k >= n - 1 member 1 is the whole family, or every other member has
    # its last anchor at n, where no occurrence fits.
    if k >= n - 1:
        return False
    # Anchor j (0-based) runs up to last + 2 * (j + 1), over the live members.
    last = 2 * (_live_n(n, k) // 2 - r)
    chains = max_chains - 1  # dp._has_chain calls left after member 1's
    rest = sorted(sv)  # sorted text values after the anchor being stepped
    anchors = [0]  # the kept prefix a1..aj, then anchor j being stepped
    # Sorted values on the segments a1..aj fix, then anchor j's stretch.
    buckets: list[list[int]] = [[]]
    while anchors:
        j = len(anchors) - 1
        a = anchors[j] = anchors[j] + 2
        if a > last + 2 * (j + 1):
            anchors.pop()
            if anchors:
                rest = sorted(sv[anchors[-1]:])
            continue
        x, y = sv[a - 2], sv[a - 1]
        rest.remove(x)
        rest.remove(y)
        del buckets[2 * j + 1:]
        insort(buckets[2 * j], x)
        insort(buckets[2 * j], y)
        if j == r - 1 and a == 2 * r:  # member 1's leaf
            continue
        buckets.append(([y, sv[a]] if y < sv[a] else [sv[a], y]) if a < n else [y])
        if not chains:
            return None
        chains -= 1
        if dp._has_chain(buckets, pinv, rest):
            if j == r - 1:
                return True
            anchors.append(a)
            buckets.append([])
    return False
