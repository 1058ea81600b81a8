"""Alternating benchmark pairs: a base revision against this checkout.

    python3 tools/pairs.py --base HEAD --workloads random,dense --pairs 10 --first-seed 1

Run from anywhere inside a git checkout. The base revision is extracted
with ``git archive`` into a temporary directory, which is removed at the
end; no worktree is made and ``.git`` is only read. Pair i runs
``perfbench/run.py --seed S+i --seconds 25 --trace 0`` once in each tree
for every workload, the base first on even i and the change first on odd
i. A workload that BENCHMARK.json does not list, or a base revision git
cannot archive, is refused with exit 2 before any run. Each run prints
one line as it ends. Then, per (workload, metric), the summary gives
each side's median and quartiles, the change/base ratio of the medians
and how many pairs the change won; ties count for neither side. A
metric is better when lower unless BENCHMARK.json says "higher". A row
whose change median is worse than the base median by more than the
metric's BENCHMARK.json ``bound`` (a fraction of the base median) ends
in ``past bound``, and one stderr line names it. A row ends in ``gain``
when the change won at least 9/10 of its pairs and its median is better
than the base median by more than the base's interquartile range: the
rule by which a gain may be claimed. The exit status is 1
if any run failed, ran past 180 s or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25
RUN_TIMEOUT_S = 180  # a hung run counts as failed instead of hanging the tool


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The JSON result of one untraced run in `tree`.

    ``{"correct": False}`` if it printed none or ran past RUN_TIMEOUT_S.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload} seed {seed} in {tree} ran past {RUN_TIMEOUT_S} s\n")
        return {"correct": False}
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results: dict[str, list[tuple[dict, dict]]], higher: frozenset[str] = frozenset(),
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per (workload, metric) from each workload's (base, change) result pairs.

    A row holds each side's quartiles, ``ratio`` (change median over base
    median), ``wins`` (pairs where the change is strictly better),
    ``pairs`` (pairs where both sides report the metric) and
    ``past_bound``: whether the change median is worse than the base
    median by more than ``bounds[metric]`` times the base median, and
    ``gain``: whether the change won at least 9/10 of the pairs and its
    median is better than the base median by more than the base's
    interquartile range. Metrics
    named in `higher` are better when higher, the rest when lower; a
    metric missing from `bounds` is never past it.
    """
    bounds = bounds or {}
    rows = []
    for workload, pairs in results.items():
        names = sorted({name for base, change in pairs for name in base.get("metrics", {})})
        for name in names:
            both = [(base["metrics"][name]["value"], change["metrics"][name]["value"])
                    for base, change in pairs
                    if name in base.get("metrics", {}) and name in change.get("metrics", {})]
            if not both:
                continue
            b = _quartiles([x for x, _ in both])
            c = _quartiles([y for _, y in both])
            sign = -1 if name in higher else 1
            wins = sum(sign * (y - x) < 0 for x, y in both)
            rows.append({
                "workload": workload, "metric": name, "base": b, "change": c,
                "ratio": c[1] / b[1] if b[1] else float("nan"),
                "wins": wins, "pairs": len(both),
                "past_bound": name in bounds and sign * (c[1] - b[1]) > bounds[name] * abs(b[1]),
                "gain": 10 * wins >= 9 * len(both) and sign * (b[1] - c[1]) > b[2] - b[0],
            })
    return rows


def all_correct(results: dict[str, list[tuple[dict, dict]]]) -> bool:
    return all(run.get("correct") is True for pairs in results.values() for pair in pairs for run in pair)


def _format_row(row: dict) -> str:
    b, c = row["base"], row["change"]
    return (f"{row['workload']:8s} {row['metric']:14s} base {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]"
            f"  change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]  ratio {row['ratio']:.3f}"
            f"  wins {row['wins']}/{row['pairs']}{'  past bound' if row['past_bound'] else ''}"
            f"{'  gain' if row['gain'] else ''}")


def _extract(rev: str, into: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", default="random,planted,dense,small", help="comma-separated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or args.first_seed < 0 or not workloads:
        parser.error("need --pairs >= 1, --first-seed >= 0 and at least one workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json lists {', '.join(known)}")
    end_to_end = spec.get("end_to_end", [])
    higher = frozenset(m["name"] for m in end_to_end if m.get("better") == "higher")
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}

    results: dict[str, list[tuple[dict, dict]]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        try:
            _extract(args.base, base_tree)
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot extract --base {args.base}: {exc.stderr.decode(errors='replace').strip()}")
        for i in range(args.pairs):
            seed = args.first_seed + i
            for workload in workloads:
                sides = [("base", base_tree), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                got = {side: run_once(tree, workload, seed) for side, tree in sides}
                results[workload].append((got["base"], got["change"]))
                for side, _ in sides:
                    run = got[side]
                    values = " ".join(f"{name}={m['value']:.4g}" for name, m in run.get("metrics", {}).items())
                    print(f"pair {i + 1} seed {seed} {workload} {side} correct={run.get('correct')} {values}",
                          flush=True)
    for row in summarize(results, higher, bounds):
        print(_format_row(row))
        if row["past_bound"]:
            print(f"{row['workload']} {row['metric']}: change median {row['change'][1]:.4g} is worse than "
                  f"base median {row['base'][1]:.4g} by more than its {bounds[row['metric']]:.0%} bound",
                  file=sys.stderr)
    ok = all_correct(results)
    if not ok:
        print("some run failed or reported correct: false", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
