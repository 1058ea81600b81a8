"""A fixed pure-Python kernel that gauges the host's speed during a run.

On a shared host the same interpreter-bound code switches between speed
modes about 1.6x apart, from one second to the next, and the share of time
spent in each mode changes from one minute to the next. Every route moves
by the same factor, and so does this kernel. The harness times a few
kernel calls between every block of the program's calls and scales each
call in the block by ``NOMINAL_S`` over the kernel's time around it, so a
time reads as it would have at the host's nominal speed.

The kernel owes nothing to ``ppm``: its inputs are pinned here, not drawn
from ``--seed``, so no change to the program can move it. It mixes the
operations the solver and the oracles spend their time on: a monotone
merge with a running prefix sum (the confined DP's level loop), nested
index loops with tuple comparisons (brute force), and dict lookups and
small function calls (validation and decomposition).
"""

from __future__ import annotations

# About the median time of one kernel() call on the host the baseline was
# recorded on (2 vCPUs, x86_64, CPython 3.11.7) in its slower and more
# common speed mode; the fast mode reads about 0.38 ms.
NOMINAL_S = 6.0e-4

_LEFT = sorted((i * 7919) % 4099 for i in range(1200))
_RIGHT = sorted((i * 104729) % 4099 for i in range(900))
_POINTS = tuple(((i * 31) % 97, (i * 57) % 89) for i in range(60))
_TABLE = {i: (i * 2654435761) % 1000003 for i in range(512)}


def _merge_prefix(left: list[int], right: list[int]) -> int:
    acc = 0
    cursor = 0
    limit = len(left)
    out: list[int] = []
    append = out.append
    for j in right:
        while cursor < limit and left[cursor] < j:
            acc += left[cursor]
            cursor += 1
        append(acc)
    return out[-1] + len(out)


def _ordered_pairs(points: tuple[tuple[int, int], ...]) -> int:
    found = 0
    n = len(points)
    for a in range(n):
        pa = points[a]
        for b in range(a + 1, n):
            pb = points[b]
            if (pa[0] < pb[0]) == (pa[1] < pb[1]):
                found += 1
    return found


def _lookup(key: int) -> int:
    return _TABLE[key & 511] ^ key


def _lookups(rounds: int) -> int:
    total = 0
    for i in range(rounds):
        total = (total + _lookup(i * 40503)) & 0xFFFFFFFF
    return total


def kernel() -> int:
    """One fixed unit of interpreter work (about 0.4-0.6 ms); returns CHECKSUM."""
    return _merge_prefix(_LEFT, _RIGHT) + _ordered_pairs(_POINTS) + _lookups(600)


CHECKSUM = 2990676072
