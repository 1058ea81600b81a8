"""Run the benchmark over several seeds and record a baseline file.

    python3 perfbench/record.py --label seed --seeds 10 [--first-seed 1]

For every workload in BENCHMARK.json this runs ``run.py`` untraced once
per seed (N seeds from ``--first-seed``, default 1) and traced once on the
first seed, one process at a time, and writes
``perfbench/results/BENCH_<label>.json``: per end-to-end metric the ten
values, their median, quartiles and spread (interquartile distance over
median) beside the bound from BENCHMARK.json, the same summary of the
unscaled medians and the reference kernel's time from each run's host
line, the traced per-layer metrics, the failure counts and the
environment. It also prints one row
per (workload, metric) with the spread as a share of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict | None]:
    """One run.py process; returns its result object, its environment and,
    untraced, its host line (the reference kernel's time and raw medians)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    return json.loads(lines[-1]), env, host


def summarise(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    seconds = spec["run_seconds"]
    out = {"label": args.label, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, hosts = [], []
        for seed in seeds:
            result, out["environment"], host = run(workload, seed, seconds, 0)
            results.append(result)
            hosts.append(host)
        row = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in results], bound)
                for name, bound in bounds.items()
            },
            "mode_switches": [h["mode_switches"] for h in hosts],
            # Unscaled figures, to compare with the scaled ones; no bound.
            "host": {
                name: summarise([h[name] for h in hosts], None)
                for name in sorted(hosts[0]) if name not in ("reference_chunks", "mode_switches")
            },
        }
        traced, _, _ = run(workload, seeds[0], seconds, 1)
        row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        row["per_layer_failed"] = traced["failed"]
        out["workloads"][workload] = row
        for name, s in row["end_to_end"].items():
            print(f"{workload:8s} {name:16s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" = {s['spread'] / s['bound']:.2f} of bound {s['bound']}", flush=True)
        for name, s in row["host"].items():
            print(f"{workload:8s} {name:16s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  " (unscaled)", flush=True)
        print(f"{workload:8s} failed {row['failed']} of {row['attempted']}", flush=True)

    path = HERE / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
