"""Spans around the calls into each ppm module, recorded from outside it.

The traced run replaces the module attributes that callers look up at call
time (``solver.enumerate_guesses``, ``solver.decomposition_of_guess``,
``dp.count_respecting``, which the solver and ``oracle.bkm_count`` both
reach through ``dp.``, and the two steps ``count_respecting`` itself looks
up, ``dp.validate_decomposition`` and the bucket pass
``dp._segment_value_buckets``) with wrappers that record one span per call:
name, start, end, parent and root. Nothing inside ``src/ppm`` changes.
Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

ENUMERATE = "solver.enumerate_guesses"
DECOMPOSE = "solver.decomposition_of_guess"
COUNT_RESPECTING = "dp.count_respecting"
VALIDATE = "dp.validate_decomposition"
BUCKETS = "dp._segment_value_buckets"


class Tracer:
    """Append-only span store; span i is row i of the parallel arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nonzero = array("b")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        stack = self._stack
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else i)
        self.nonzero.append(0)
        self.end.append(0)
        stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named `name`; mark the span if fn returns truthy."""
        i = self.open(self.intern(name))
        try:
            out = fn(*args, **kwargs)
        finally:
            self.close(i)
        if out:
            self.nonzero[i] = 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,parent,root,start_ns,end_ns,nonzero\n")
            rows = zip(self.name, self.parent, self.root, self.start, self.end, self.nonzero)
            out.writelines(
                f"{i},{names[nm]},{p},{r},{s},{e},{z}\n"
                for i, (nm, p, r, s, e, z) in enumerate(rows)
            )

    def totals(self) -> "SpanTotals":
        """Durations, call counts and nonzero results, keyed by (root, parent, name)."""
        n = len(self.start)
        names = self.names
        child_ns = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = SpanTotals()
        for i in range(n):
            dur = self.end[i] - self.start[i]
            r = self.root[i]
            p = self.parent[i]
            key = (names[self.name[r]], names[self.name[p]] if p >= 0 else None, names[self.name[i]])
            out.ns[key] += dur
            out.calls[key] += 1
            out.nonzero[key] += self.nonzero[i]
            if r == i:
                out.self_ns[key[2]] += dur - child_ns[i]
        return out


class SpanTotals:
    def __init__(self) -> None:
        self.ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.nonzero: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)

    def sum(self, table: dict, root: str, name: str, parent: str | None = "*") -> int:
        """Total of `table` over spans named `name` under `root` (and `parent`)."""
        return sum(
            v for (r, p, nm), v in table.items()
            if r == root and nm == name and (parent == "*" or p == parent)
        )


@contextmanager
def seams(ppm, tracer: Tracer, stats=None):
    """Route the solver and dp module attributes through span wrappers.

    If `stats` is a ``DpStats``, every ``count_respecting`` call that passes
    none of its own counts into it.
    """
    solver, dp = ppm.solver, ppm.dp
    patches = [
        (solver, "enumerate_guesses", _traced_iter(tracer, ENUMERATE, solver.enumerate_guesses)),
        (solver, "decomposition_of_guess", _traced(tracer, DECOMPOSE, solver.decomposition_of_guess)),
        (dp, "count_respecting", _traced_count(tracer, dp.count_respecting, stats)),
        (dp, "validate_decomposition", _traced(tracer, VALIDATE, dp.validate_decomposition)),
        (dp, "_segment_value_buckets", _traced(tracer, BUCKETS, dp._segment_value_buckets)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def _traced(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _traced_count(tracer: Tracer, fn, default_stats):
    def wrapper(instance, d, stats=None):
        stats = default_stats if stats is None else stats
        return tracer.call(COUNT_RESPECTING, fn, instance, d, stats)

    return wrapper


def _traced_iter(tracer: Tracer, name: str, fn):
    """Wrap an iterator factory; each span covers one step of the iterator."""
    nid = tracer.intern(name)

    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            i = tracer.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(i)
            yield item

    return wrapper
