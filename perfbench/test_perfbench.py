"""Checks of the benchmark's own inputs, tracing and output contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import reference
import run
import tracing
import workloads

ppm = run.load_ppm()


def _sizes(wl):
    return [(c.instance.n, c.instance.k) for c in wl.main + wl.probe]


def _values(wl):
    return [(c.instance.sigma.values, c.instance.pattern.values) for c in wl.main + wl.probe]


def test_golden_vector_matches_format_doc_and_cli():
    doc = (run.ROOT / "docs" / "FORMAT.md").read_text()
    block = re.search(r"Golden vector: N=(\d+), S=(\d+) must print\s+```\s+([\d ]+)\n", doc)
    n, s, line = int(block[1]), int(block[2]), block[3].strip()
    assert workloads.GOLDEN == (n, s, tuple(map(int, line.split())))
    assert ppm.random_permutation(n, s).values == workloads.GOLDEN[2]
    cli = subprocess.run(
        [sys.executable, "-m", "ppm", "gen", "--n", str(n), "--seed", str(s)],
        cwd=run.ROOT / "src", capture_output=True, text=True, timeout=60,
    )
    assert cli.stdout == line + "\n"


def test_planted_embeddings_are_solutions():
    draws = ppm.SplitMix64(11)
    for _ in range(20):
        instance, embedding = workloads.planted_instance(ppm, draws, *workloads.MAIN_SIZE["planted"])
        assert ppm.is_solution(instance, embedding)
    wl = workloads.build(ppm, "planted", 3)
    assert wl.failures == []
    assert wl.checks == 1 + len(wl.main) + len(wl.probe)
    assert all(c.expected >= 1 for c in wl.main + wl.probe)


def test_dense_counts_equal_binomial():
    wl = workloads.build(ppm, "dense", 1)
    (case,) = wl.main
    n, k = workloads.MAIN_SIZE["dense"]
    assert case.expected == math.comb(n, k) == 40_116_600
    assert ppm.count_ppm(case.instance) == case.expected
    assert all(c.expected == math.comb(*workloads.PROBE_SIZE) for c in wl.probe)


@pytest.mark.parametrize("name", ["random", "planted"])
def test_seed_changes_instances_not_sizes(name):
    a, b = workloads.build(ppm, name, 1), workloads.build(ppm, name, 2)
    assert _sizes(a) == _sizes(b)
    assert _values(a) != _values(b)
    assert _values(workloads.build(ppm, name, 1)) == _values(a)


def test_small_seed_only_reorders():
    a, b = workloads.build(ppm, "small", 1), workloads.build(ppm, "small", 2)
    assert len(a.main) == 19_213
    assert _values(a) != _values(b)
    assert sorted(_values(a)) == sorted(_values(b))


def test_traced_run_visits_whole_family_and_matches_untraced():
    draws = ppm.SplitMix64(5)
    n, k = workloads.PROBE_SIZE
    instance = ppm.PpmInstance(
        ppm.random_permutation(n, draws.next_u64()), ppm.random_permutation(k, draws.next_u64())
    )
    case = workloads.Case(instance, ppm.brute_force_count(instance))
    wl = workloads.Workload("random", [case], [case])
    tally, tracer = run.Tally(), tracing.Tracer()
    originals = (ppm.dp.count_respecting, ppm.solver.enumerate_guesses)
    metrics = run.traced_run(ppm, wl, 0.01, tally, tracer)
    assert (ppm.dp.count_respecting, ppm.solver.enumerate_guesses) == originals
    assert tally.failed == 0
    assert metrics["solver.members_visited"][0] == ppm.family_size(n, k)
    assert metrics["core.validate_calls"][0] == ppm.family_size(n, k)
    assert metrics["oracle.bkm_attempted"][0] == math.comb(n, k // 2)
    assert metrics["dp.cell_writes"][0] > 0 and metrics["dp.bucket_s"][0] > 0
    assert 0 < metrics["dp.level_s"][0] < metrics["dp.count_respecting_s"][0]
    assert set(metrics) == set(run.PER_LAYER_UNITS)


def test_reference_kernel_is_pinned():
    assert reference.kernel() == reference.CHECKSUM
    host = run.HostSpeed()
    host.chunk()
    scale, steady = host.scale()
    assert scale > 0 and len(host.chunks) == 2 and host.switches == (not steady)


def test_samples_thin_evenly_and_stay_bounded():
    store = run.Samples()
    total = 5 * run.SAMPLE_CAP + 3
    for i in range(total):
        store.add(float(i))
    assert store.calls == total
    assert len(store.values) < 2 * run.SAMPLE_CAP
    assert store.values[0] == 0.0
    assert {b - a for a, b in zip(store.values, store.values[1:])} == {float(store.stride)}
    assert abs(store.median() - total / 2) <= store.stride


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
