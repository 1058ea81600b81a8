"""Counting of occurrences confined to a segment decomposition in O(n) DP steps.

The counter places pattern values bottom-up. Level i stores, for each text
value j available on the segment of the pattern position that carries
value i, the number of ways to place the i smallest pattern values such
that every placed position sits inside its segment and visiting placed
positions in pattern-value order reads increasing text values. Level k
summed over j is the answer: any placement satisfying the value order and
the segment membership is automatically strictly increasing in position,
because consecutive segments overlap in at most one point and a repeated
position would repeat a text value.

Two facts bound the work of a run:

* the per-segment value lists together hold at most n + k - 1 entries
  (the overlap-at-most-one rule); each is a slice of the text, sorted by
  the C sort only when the DP reaches its level, so the sorting costs at
  most O(n log n) comparisons, while the DP itself stays O(n) interpreted
  steps;
* each level's prefix sums over the previous level are a two-list merge
  driven by a single forward cursor, so a level costs O(|prev| + |cur|).

A level's prefix sums are nondecreasing, so its last cell is zero exactly
when the whole level is; the run stops there, since every later level and
the answer are then zero as well, and the buckets of the levels it never
reaches are never sorted. On text where the pattern is rare most runs end
a few levels in.

Only two levels are materialized at any moment.

Whether the count is nonzero needs no DP. :func:`_has_chain` places the
positions in the same order, each at the smallest value of its sorted
bucket above the previous one, found by one C-level bisect per level. A
placement exists exactly when this greedy chain never runs off a bucket:
if any increasing placement y exists, then by induction the greedy value
g_i <= y_i at every level, so the greedy step never fails. The same
argument holds when the positions past the last bucket share one sorted
list of candidate values instead of their own buckets.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .core import (
    LengthMismatch,
    Permutation,
    PpmInstance,
    SegmentDecomposition,
    validate_decomposition,
)


@dataclass
class DpStats:
    """Operation counters for counting runs, for linearity checks.

    ``cell_writes`` counts stored DP cells, ``cursor_advances`` counts
    forward steps of the merge cursor. Both accumulate across runs when
    the same object is passed repeatedly.
    """

    cell_writes: int = 0
    cursor_advances: int = 0

    @property
    def total(self) -> int:
        return self.cell_writes + self.cursor_advances


def _segment_value_buckets(
    sigma: Permutation, segments: Sequence[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Text values on each segment in text order, indexed by pattern position."""
    sv = sigma.values
    return [sv[lo - 1:hi] for lo, hi in segments]


def count_respecting(
    instance: PpmInstance, d: SegmentDecomposition, stats: DpStats | None = None
) -> int:
    """Exact number of occurrences that stay inside d's segments.

    Runs O(n) DP steps in O(n) space for any valid decomposition of the
    instance, plus a C-level sort of each segment slice whose level the DP
    reaches: a run that stops at its first all-zero level sorts no bucket
    past it. Pass a :class:`DpStats` to record cell writes and cursor
    advances.
    """
    if len(d.segments) != instance.k:
        raise LengthMismatch(f"expected {instance.k} segments, got {len(d.segments)}")
    if d.n != instance.n:
        raise LengthMismatch(f"decomposition is over [1, {d.n}], text has length {instance.n}")
    validate_decomposition(d)

    buckets = _segment_value_buckets(instance.sigma, d.segments)
    return _count_levels(buckets, instance.pattern.inverse_values, stats)


def _count_levels(
    buckets: Sequence[Sequence[int]], order: Sequence[int], stats: DpStats | None
) -> int:
    """Placements of the positions in `order` inside their buckets.

    `order` lists 1-based pattern positions by increasing pattern value;
    position p takes its text value from ``buckets[p - 1]``, and the values
    must increase along `order`. With the pattern's inverse this counts
    every confined occurrence; with positions 1..q alone, in the same order,
    it counts the confined occurrences of the pattern's first q entries.
    A bucket's values may come in any order: each bucket is sorted when its
    level is reached.
    """
    writes = 0
    advances = 0
    # Sentinel level: one way to place nothing, sitting below every text value.
    prev_j: list[int] = [0]
    prev_c: list[int] = [1]
    for p in order:
        vals = sorted(buckets[p - 1])
        cur: list[int] = []
        append = cur.append
        acc = 0
        cursor = 0
        limit = len(prev_j)
        for j in vals:
            # Strictly-below prefix sum of the previous level; the cursor
            # never moves backwards because vals is increasing.
            while cursor < limit and prev_j[cursor] < j:
                acc += prev_c[cursor]
                cursor += 1
            append(acc)
        writes += len(vals)
        advances += cursor
        prev_j = vals
        prev_c = cur
        if not acc:
            # acc is cur[-1], the largest cell: this level and all later ones are zero.
            break

    if stats is not None:
        stats.cell_writes += writes
        stats.cursor_advances += advances
    return sum(prev_c)


def _has_chain(
    buckets: Sequence[Sequence[int]], order: Sequence[int], rest: Sequence[int] = ()
) -> bool:
    """Whether the positions in `order` chain, later ones drawing from `rest`.

    `order` lists pattern positions by increasing pattern value. Position p
    takes the smallest value above the previous one from ``buckets[p - 1]``,
    or from `rest` once p > len(buckets); all of them must be sorted, and
    text values are at least 1, so 0 sits below all of them. With no such
    later position this says whether ``_count_levels(buckets, order, None)``
    is nonzero. A run of g later positions takes the g smallest values of
    `rest` above the previous one with one bisect, so a check makes
    O(len(buckets)) bisects. The gap counter saves bisects, not steps: the
    loop still runs once per position of `order`, so a check costs
    O(len(order)) interpreted steps whatever the number of buckets. It
    stays for speed: a chain with one bisect per position is 8 lines
    shorter and gives the same answers, but detection with it took
    1.18-1.38x as long on the benchmark's random instances and 1.06-1.54x
    on its planted ones (dense and small flat), over 3 alternating 2 s
    rounds in process on the seed-3 instances.
    """
    m = len(buckets)
    prev = gap = 0
    for p in order:
        if p > m:
            gap += 1
            continue
        if gap:
            i = bisect_right(rest, prev) + gap - 1
            if i >= len(rest):
                return False
            prev = rest[i]
            gap = 0
        vals = buckets[p - 1]
        i = bisect_right(vals, prev)
        if i == len(vals):
            return False
        prev = vals[i]
    return not gap or bisect_right(rest, prev) + gap <= len(rest)
