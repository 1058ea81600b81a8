"""Benchmark harness for the ppm solver.

    python3 perfbench/run.py --workload random --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The harness imports ``ppm`` from that
checkout's ``src/`` (never from an installed copy) and drives its public
API from one process, closed loop, one call at a time; only
``count_ppm(threads=2)``, timed in the traced run, starts threads, two of
them. Every result is checked against the workload's pinned expected count.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, one line each with unit and sample
count. End-to-end times are scaled to the host's nominal speed with the
reference kernel in ``reference.py``; per-layer times are raw. The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md in this directory
defines every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads
from tracing import BUCKETS, COUNT_RESPECTING, DECOMPOSE, ENUMERATE, VALIDATE

ROOT = Path(__file__).resolve().parent.parent
# An untraced run sets up at least SETUP_MIN_REPS times and until
# SETUP_BUDGET_S have passed; setup_s is the median of the scaled times.
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 3.0
# The untraced run times one route for at least BLOCK_S, then a reference
# chunk of REF_CALLS kernel calls, and scales each call in the block by the
# chunks on either side. A block is short next to the host's speed modes,
# which last about a second, and the chunks cost about 8% of the run.
BLOCK_S = 0.02
REF_CALLS = 3
# Chunks on either side of a block that differ by more than this factor
# mean the host switched mode during the block (the modes are about 1.6x
# apart, one mode's chunks within about 5%). The block's speed is then
# unknown: its calls are checked but not timed.
SWITCH_RATIO = 1.25
# Per-call samples held per route before the store thins itself (see
# Samples). Kept small: a store of 50,000 samples took 400 KiB, and
# whether a run crossed that size moved peak RSS on dense by 1 MiB.
SAMPLE_CAP = 4096
# Every route runs at least this often, so that p90 is defined.
MIN_CALLS = 3
# Draws and builds timed by the rng and core unit-cost probes.
UNIT_PROBES = 256
# The traced run takes no new case once this many spans are held, which
# bounds its memory and its span file (about 25 cases at n = 28).
SPAN_BUDGET = 500_000

END_TO_END_UNITS = {
    "count_s.p50": "s",
    "count_s.p90": "s",
    "detect_s.p50": "s",
    "bkm_s.p50": "s",
    "brute_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "solver.members_visited": "count",
    "solver.detect_members": "count",
    "solver.enumerate_s": "s",
    "solver.decompose_s": "s",
    "solver.self_s": "s",
    "solver.t2_speedup": "ratio",
    "solver.t2_base_count_s": "s",
    "solver.t2_base_count_t2_s": "s",
    "dp.count_respecting_s": "s",
    "dp.per_member_us": "us",
    "dp.validate_s": "s",
    "dp.bucket_s": "s",
    "dp.level_s": "s",
    "dp.cell_writes": "count",
    "dp.cursor_advances": "count",
    "dp.nonzero_members": "count",
    "dp.nonzero_ratio": "ratio",
    "core.instance_build_s": "s",
    "core.validate_calls": "count",
    "oracle.bkm_attempted": "count",
    "oracle.bkm_dp_calls": "count",
    "oracle.bkm_useful_ratio": "ratio",
    "rng.gen_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Checked calls and the ones that were wrong or raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def load_ppm():
    """Import ppm afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "ppm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ppm package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ppm" or m.startswith("ppm.")]:
        del sys.modules[name]
    ppm = importlib.import_module("ppm")
    if Path(ppm.__file__).resolve().parent != (src / "ppm").resolve():
        raise SystemExit(f"perfbench: imported ppm from {ppm.__file__}, not from {src}")
    return ppm


class HostSpeed:
    """Reference chunks timed between blocks of the program's calls."""

    def __init__(self) -> None:
        self.chunks = array("d")
        self.last = 0.0
        self.switches = 0

    def chunk(self) -> float:
        """Median seconds of REF_CALLS kernel calls, timed now."""
        times = []
        for _ in range(REF_CALLS):
            start = perf_counter()
            out = reference.kernel()
            times.append(perf_counter() - start)
            if out != reference.CHECKSUM:
                raise SystemExit(f"perfbench: reference kernel returned {out}")
        self.last = statistics.median(times)
        self.chunks.append(self.last)
        return self.last

    def scale(self) -> tuple[float, bool]:
        """Factor to nominal speed for the interval since the previous chunk,
        and whether the host kept one speed mode through it."""
        before, after = self.last, self.chunk()
        steady = max(before, after) <= SWITCH_RATIO * min(before, after)
        self.switches += not steady
        return 2 * reference.NOMINAL_S / (before + after), steady


def setup(name: str, seed: int, min_reps: int, budget_s: float, host: HostSpeed):
    """Import plus instance generation plus expected counts, repeated.

    Repeats at least `min_reps` times and until `budget_s` have passed.
    Returns the last repetition's package and workload, the scaled times'
    median, the raw times' median and the number of repetitions.
    """
    times, raw = [], []
    deadline = perf_counter() + budget_s
    host.chunk()
    while len(times) < min_reps or perf_counter() < deadline:
        # Free the previous repetition first, so that peak RSS holds one workload.
        ppm = wl = None
        gc.collect()
        start = perf_counter()
        ppm = load_ppm()
        wl = workloads.build(ppm, name, seed)
        raw.append(perf_counter() - start)
        # A set-up on planted lasts about 2 s and spans mode switches, so
        # every repetition counts, scaled by the mean of its two chunks.
        times.append(raw[-1] * host.scale()[0])
    return ppm, wl, statistics.median(times), statistics.median(raw), len(times)


def run_route(ppm, route: str, case, tally: Tally, tracer=None):
    """One timed, checked call. Returns (result, seconds); result is None if it raised."""
    fn = workloads.ROUTES[route]
    start = perf_counter()
    try:
        out = fn(ppm, case.instance) if tracer is None else tracer.call(route, fn, ppm, case.instance)
    except Exception as exc:  # a raising call is one failed call, not the end of the run
        tally.check(False, f"{route} raised {exc!r}")
        return None, perf_counter() - start
    seconds = perf_counter() - start
    want = workloads.expected_output(route, case.expected)
    ok = out == want and isinstance(out, bool) == isinstance(want, bool)
    tally.check(ok, f"{route} returned {out!r}, expected {want!r}")
    return out, seconds


class Samples:
    """Per-call times, thinned evenly once more than 2 * SAMPLE_CAP are held.

    The store keeps every `stride`-th call and halves itself whenever it
    fills, so its memory stays bounded and peak RSS does not grow with the
    number of calls the host's speed allowed.
    """

    def __init__(self) -> None:
        self.values = array("d")
        self.calls = 0
        self.stride = 1

    def add(self, seconds: float) -> None:
        if self.calls % self.stride == 0:
            self.values.append(seconds)
            if len(self.values) >= 2 * SAMPLE_CAP:
                self.values = self.values[::2]
                self.stride *= 2
        self.calls += 1

    def median(self) -> float:
        return statistics.median(self.values)


def measure(ppm, wl, seconds: float, tally: Tally, host: HostSpeed):
    """Per-call times of every route, interleaved over `seconds`.

    Returns the scaled and the raw wall times per route. The next block
    always goes to the route furthest below its share of the time spent so
    far, so every route samples the whole run, and every call is scaled by
    the reference chunks on either side of its block. Calls of a block
    during which the host switched speed mode are checked, and counted in
    the raw times, but not in the scaled ones.
    """
    shares = workloads.SHARES[wl.name]
    samples = {route: Samples() for route in shares}
    raw = {route: Samples() for route in shares}
    spent = dict.fromkeys(shares, 0.0)
    deadline = perf_counter() + seconds
    host.chunk()
    while True:
        routes = shares
        if perf_counter() >= deadline:
            routes = [r for r in shares if samples[r].calls < MIN_CALLS]
            if not routes:
                return samples, raw
        route = min(routes, key=lambda r: spent[r] / shares[r])
        cases = wl.cases(route)
        done = raw[route].calls
        block = []
        block_end = perf_counter() + BLOCK_S
        while True:
            dt = run_route(ppm, route, cases[(done + len(block)) % len(cases)], tally)[1]
            block.append(dt)
            if perf_counter() >= block_end:
                break
        spent[route] += sum(block)
        scale, steady = host.scale()
        for dt in block:
            raw[route].add(dt)
            if steady:
                samples[route].add(dt * scale)


def end_to_end(samples: dict[str, Samples], setup_s: float, setup_reps: int) -> dict[str, tuple]:
    """Every end-to-end metric as (value, number of calls it summarises)."""
    count = samples["count"]
    return {
        "count_s.p50": (count.median(), count.calls),
        "count_s.p90": (statistics.quantiles(count.values, n=10, method="inclusive")[-1], count.calls),
        "detect_s.p50": (samples["detect"].median(), samples["detect"].calls),
        "bkm_s.p50": (samples["bkm"].median(), samples["bkm"].calls),
        "brute_s.p50": (samples["brute"].median(), samples["brute"].calls),
        "setup_s": (setup_s, setup_reps),
        "peak_rss_mib": (peak_rss_mib(), 1),
    }


def traced_run(ppm, wl, seconds: float, tally: Tally, tracer) -> dict[str, tuple]:
    """Per-layer metrics: every case once untraced, then again under the seams."""
    untraced_s = traced_s = 0.0
    base = {"count": [], "count_t2": []}
    stats = ppm.DpStats()
    attempted_guesses = 0
    cases = 0
    deadline = perf_counter() + seconds
    for i, case in enumerate(wl.main):
        if cases and (perf_counter() >= deadline or len(tracer.start) >= SPAN_BUDGET):
            break
        probe = wl.probe[i % len(wl.probe)]
        for route, c in (("count", case), ("detect", case), ("bkm", probe), ("brute", probe)):
            plain, dt = run_route(ppm, route, c, tally)
            untraced_s += dt
            if route == "count":
                base["count"].append(dt)
            with tracing.seams(ppm, tracer, stats if route == "count" else None):
                traced, dt = run_route(ppm, route, c, tally, tracer)
            traced_s += dt
            tally.check(traced == plain, f"traced {route} returned {traced!r}, untraced {plain!r}")
        base["count_t2"].append(run_route(ppm, "count_t2", case, tally)[1])
        attempted_guesses += math.comb(probe.instance.n, probe.instance.k // 2)
        cases += 1

    t = tracer.totals()

    def per_count(table, name, parent="*"):
        return t.sum(table, "count", name, parent) / cases

    members = per_count(t.calls, COUNT_RESPECTING)
    cr_s = per_count(t.ns, COUNT_RESPECTING) / 1e9
    validate_s = per_count(t.ns, VALIDATE) / 1e9
    bucket_s = per_count(t.ns, BUCKETS) / 1e9
    nonzero = t.sum(t.nonzero, "count", COUNT_RESPECTING) / cases
    bkm_attempted = attempted_guesses / cases
    count_p50 = statistics.median(base["count"])
    t2_p50 = statistics.median(base["count_t2"])
    return {
        "solver.members_visited": (members, cases),
        "solver.detect_members": (t.sum(t.calls, "detect", COUNT_RESPECTING) / cases, cases),
        "solver.enumerate_s": (per_count(t.ns, ENUMERATE) / 1e9, cases),
        "solver.decompose_s": (per_count(t.ns, DECOMPOSE) / 1e9, cases),
        "solver.self_s": (t.self_ns["count"] / cases / 1e9, cases),
        "solver.t2_speedup": (count_p50 / t2_p50, cases),
        "solver.t2_base_count_s": (count_p50, cases),
        "solver.t2_base_count_t2_s": (t2_p50, cases),
        "dp.count_respecting_s": (cr_s, cases),
        "dp.per_member_us": (cr_s / members * 1e6, cases),
        "dp.validate_s": (validate_s, cases),
        "dp.bucket_s": (bucket_s, cases),
        "dp.level_s": (cr_s - validate_s - bucket_s, cases),
        "dp.cell_writes": (stats.cell_writes / cases, cases),
        "dp.cursor_advances": (stats.cursor_advances / cases, cases),
        "dp.nonzero_members": (nonzero, cases),
        "dp.nonzero_ratio": (nonzero / members, cases),
        "core.instance_build_s": _instance_build_s(ppm, wl),
        "core.validate_calls": (per_count(t.calls, VALIDATE), cases),
        "oracle.bkm_attempted": (bkm_attempted, cases),
        "oracle.bkm_dp_calls": (t.sum(t.calls, "bkm", COUNT_RESPECTING) / cases, cases),
        "oracle.bkm_useful_ratio": (
            t.sum(t.nonzero, "bkm", COUNT_RESPECTING) / cases / bkm_attempted,
            cases,
        ),
        "rng.gen_s": _rng_gen_s(ppm, wl),
        "trace.overhead_s": ((traced_s - untraced_s) / cases, cases),
    }


def _instance_build_s(ppm, wl) -> tuple[float, int]:
    """Median seconds to build one of the workload's instances from its values."""
    times = []
    for i in range(UNIT_PROBES):
        inst = wl.main[i % len(wl.main)].instance
        sigma, pattern = inst.sigma.values, inst.pattern.values
        start = perf_counter()
        ppm.PpmInstance(ppm.Permutation(sigma), ppm.Permutation(pattern))
        times.append(perf_counter() - start)
    return statistics.median(times), UNIT_PROBES


def _rng_gen_s(ppm, wl) -> tuple[float, int]:
    """Median seconds to draw one random text of the workload's main size."""
    n = workloads.MAIN_SIZE.get(wl.name, (workloads.SMALL_MAX_N,))[0]
    times = []
    for seed in range(UNIT_PROBES):
        start = perf_counter()
        ppm.random_permutation(n, seed)
        times.append(perf_counter() - start)
    return statistics.median(times), UNIT_PROBES


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its waited-for children (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def environment() -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": gil() if gil else True,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "machine": platform.machine(),
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "ppm"),
    }


def git_revision(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path) -> str:
    """sha256 over the package's .py files, so a result names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    reps, budget_s = (1, 0.0) if args.trace else (SETUP_MIN_REPS, SETUP_BUDGET_S)
    host = HostSpeed()
    ppm, wl, setup_s, setup_raw_s, setup_reps = setup(args.workload, args.seed, reps, budget_s, host)
    tally = Tally()
    tally.attempted += wl.checks
    tally.failed += len(wl.failures)
    tally.errors += wl.failures[:5]
    if args.trace:
        tracer = tracing.Tracer()
        metrics = traced_run(ppm, wl, args.seconds, tally, tracer)
        units = PER_LAYER_UNITS
        spans = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"spans {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    else:
        samples, raw = measure(ppm, wl, args.seconds, tally, host)
        metrics = end_to_end(samples, setup_s, setup_reps)
        units = END_TO_END_UNITS
        # The unscaled medians and the kernel's time, for reading the scaling.
        print("host " + json.dumps({
            "reference_s.p50": statistics.median(host.chunks),
            "reference_chunks": len(host.chunks),
            "mode_switches": host.switches,
            "raw_setup_s": setup_raw_s,
            **{f"raw_{route}_s.p50": times.median() for route, times in raw.items()},
        }, sort_keys=True))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, unit in units.items():
        value, samples = metrics[name]
        print(f"{name:28s} {value:.6g} {unit} (samples {samples})")
    print(f"failed_share {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    for error in tally.errors:
        print(f"failure: {error}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
