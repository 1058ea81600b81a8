"""Command-line behaviour: output formats, exit codes, determinism.

Exit code convention under test: 0 success, 1 self-test failure,
2 usage/input error. One result line on stdout, diagnostics on stderr.
"""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import ppm
from ppm import cli, dp, selftest, solver
from ppm.core import format_permutation, parse_permutation
from ppm.rng import random_permutation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ---------------------------------------------------------------------


def test_count_fast(capsys):
    code, out, err = run_cli(capsys, "count", "--algo", "fast", "--sigma", "3 2 5 4 1", "--pattern", "1 3 2")
    assert (code, out, err) == (0, "2\n", "")


def test_count_brute_trivial(capsys):
    code, out, _ = run_cli(capsys, "count", "--algo", "brute", "--sigma", "1", "--pattern", "1")
    assert (code, out) == (0, "1\n")


def test_count_rejects_long_pattern(capsys):
    code, out, err = run_cli(capsys, "count", "--sigma", "2 1", "--pattern", "1 2 3")
    assert code == 2
    assert out == ""
    assert "k=3" in err and "n=2" in err


def test_count_rejects_bad_text(capsys):
    code, _, err = run_cli(capsys, "count", "--sigma", "1 1", "--pattern", "1")
    assert code == 2 and err.startswith("ppm:")


def test_count_brute_cap_exceeded(capsys):
    sigma = " ".join(map(str, range(1, 26)))
    code, _, err = run_cli(capsys, "count", "--algo", "brute", "--sigma", sigma, "--pattern", "1")
    assert code == 2 and "capped" in err


def test_count_output_parses_back_at_any_magnitude(capsys):
    sigma = " ".join(map(str, range(1, 31)))
    pattern = " ".join(map(str, range(1, 16)))
    code, out, _ = run_cli(capsys, "count", "--sigma", sigma, "--pattern", pattern)
    assert code == 0
    assert int(out) == comb(30, 15)


@pytest.mark.parametrize("algo", ["fast", "bkm", "brute"])
def test_count_detect_consistent(capsys, algo):
    for sigma, pattern in (("3 2 5 4 1", "1 3 2"), ("2 1", "1 2"), ("5 4 3 2 1", "1 2")):
        _, out_c, _ = run_cli(capsys, "count", "--algo", algo, "--sigma", sigma, "--pattern", pattern)
        _, out_d, _ = run_cli(capsys, "detect", "--algo", algo, "--sigma", sigma, "--pattern", pattern)
        assert (int(out_c) > 0) == (out_d == "true\n")


# -- detect ----------------------------------------------------------------------


def test_detect_examples(capsys):
    assert run_cli(capsys, "detect", "--sigma", "3 2 5 4 1", "--pattern", "1 3 2")[:2] == (0, "true\n")
    assert run_cli(capsys, "detect", "--sigma", "2 1", "--pattern", "1 2")[:2] == (0, "false\n")
    assert run_cli(capsys, "detect", "--sigma", "1 2 3", "--pattern", "1 2 3")[:2] == (0, "true\n")


# -- gen -------------------------------------------------------------------------


def test_gen_deterministic(capsys):
    first = run_cli(capsys, "gen", "--n", "5", "--seed", "99")
    second = run_cli(capsys, "gen", "--n", "5", "--seed", "99")
    assert first == second and first[0] == 0


def test_gen_n_one(capsys):
    assert run_cli(capsys, "gen", "--n", "1", "--seed", "3")[:2] == (0, "1\n")


def test_gen_output_is_valid_and_matches_library(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "12", "--seed", "7")
    assert code == 0
    assert parse_permutation(out) == random_permutation(12, 7)


def test_gen_rejects_bad_n(capsys):
    assert run_cli(capsys, "gen", "--n", "0", "--seed", "1")[0] == 2


def test_gen_rejects_n_above_cap(capsys):
    # A run past the cap is refused before anything is drawn; if the check
    # broke, this run would cost seconds, never a huge allocation.
    code, out, err = run_cli(capsys, "gen", "--n", str(cli.GEN_MAX_N + 1), "--seed", "1")
    assert (code, out) == (2, "") and err.startswith("ppm: --n must be in [1, ")
    # The cap itself is checked through the validator; a real run there takes seconds.
    cli._validate_config(cli.RunConfig(n=cli.GEN_MAX_N))


def test_gen_rejects_bad_seed(capsys):
    assert run_cli(capsys, "gen", "--n", "3", "--seed", "-1")[0] == 2
    assert run_cli(capsys, "gen", "--n", "3", "--seed", str(1 << 64))[0] == 2


# -- file input --------------------------------------------------------------------


def test_instance_file_serves_both_flags(tmp_path, capsys):
    inst = tmp_path / "instance.txt"
    inst.write_text("3 2 5 4 1\n1 3 2\n")
    code, out, _ = run_cli(
        capsys, "count", "--sigma-file", str(inst), "--pattern-file", str(inst)
    )
    assert (code, out) == (0, "2\n")


def test_single_line_files(tmp_path, capsys):
    sig = tmp_path / "sigma.txt"
    pat = tmp_path / "pattern.txt"
    sig.write_text("3 2 5 4 1\n")
    pat.write_text("1 3 2\n")
    code, out, _ = run_cli(capsys, "count", "--sigma-file", str(sig), "--pattern-file", str(pat))
    assert (code, out) == (0, "2\n")


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "count", "--sigma-file", str(tmp_path / "nope"), "--pattern", "1"
    )
    assert code == 2 and err.startswith("ppm:")


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1 2\n")
    code, out, err = run_cli(capsys, "count", "--sigma-file", str(bad), "--pattern", "1")
    assert (code, out) == (2, "")
    assert err.startswith("ppm:") and str(bad) in err and err.count("\n") == 1


def test_oversized_file_is_usage_error(tmp_path, capsys, monkeypatch):
    reads = []

    class CountingReader:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size=-1):
            data = self.fh.read(size)
            reads.append(len(data))
            return data

    def counting_open(path, mode):
        return CountingReader(open(path, mode))

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out, err = run_cli(capsys, "count", "--sigma-file", "/dev/zero", "--pattern", "1")
    assert (code, out) == (2, "")
    assert err.startswith("ppm: /dev/zero: over ") and err.count("\n") == 1
    assert reads == [cli.FILE_MAX_BYTES + 1]
    # The cap is the size of two lines that `gen --n GEN_MAX_N` prints.
    assert cli.FILE_MAX_BYTES == 2 * len(" ".join(map(str, range(1, cli.GEN_MAX_N + 1))) + "\n")

    # At the cap a file is read whole; one byte over it is refused.
    inst = tmp_path / "instance.txt"
    inst.write_text("3 2 5 4 1\n1 3 2\n")
    argv = ("count", "--sigma-file", str(inst), "--pattern-file", str(inst))
    monkeypatch.setattr(cli, "FILE_MAX_BYTES", inst.stat().st_size)
    assert run_cli(capsys, *argv)[:2] == (0, "2\n")
    monkeypatch.setattr(cli, "FILE_MAX_BYTES", inst.stat().st_size - 1)
    assert run_cli(capsys, *argv)[:2] == (2, "")


def test_mutually_exclusive_flags():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--sigma", "1", "--sigma-file", "x", "--pattern", "1"])
    assert exc.value.code == 2


# -- threads ------------------------------------------------------------------------


def test_threads_byte_identical_small(capsys):
    for seed in range(5):
        sigma = " ".join(map(str, random_permutation(16, seed).values))
        pattern = " ".join(map(str, random_permutation(7, seed + 100).values))
        one = run_cli(capsys, "count", "--sigma", sigma, "--pattern", pattern, "--threads", "1")
        eight = run_cli(capsys, "count", "--sigma", sigma, "--pattern", pattern, "--threads", "8")
        assert one == eight


def test_threads_must_be_positive(capsys):
    assert run_cli(capsys, "count", "--sigma", "1", "--pattern", "1", "--threads", "0")[0] == 2


# -- selftest -------------------------------------------------------------------------


SELFTEST_PASS = "".join(
    f"{name}: pass\n"
    for name in (
        "parse-roundtrip",
        "solution-two-routes",
        "respects-monotone",
        "dp-matches-enumeration",
        "unique-cover",
        "family-size",
        "lowerbound-size",
        "algorithms-agree",
        "gen-deterministic",
    )
)


def test_selftest_passes_fresh_build(capsys):
    code, out, err = run_cli(capsys, "selftest", "--max-n", "3")
    assert (code, out, err) == (0, SELFTEST_PASS, "")


def test_exhaustive_corpus_is_complete():
    # 19,213 = sum over n <= 5 of n! * (1! + ... + n!), each pair once.
    pairs = [(i.sigma.values, i.pattern.values) for i in selftest.exhaustive_instances(5)]
    assert len(pairs) == len(set(pairs)) == 19_213


def test_selftest_rejects_max_n_out_of_range(capsys):
    for bad in ("-3", "0", str(selftest.MAX_N + 1)):
        code, out, err = run_cli(capsys, "selftest", "--max-n", bad)
        assert (code, out) == (2, ""), bad
        assert err.startswith("ppm: --max-n must be in [1, ")
    # The upper edge is checked through the validator; a real run there takes minutes.
    cli._validate_config(cli.RunConfig(max_n=selftest.MAX_N))


def test_selftest_catches_broken_merge_cursor(capsys, monkeypatch):
    # Mutant: the merge cursor consumes cells at equal value too, silently
    # overcounting whenever consecutive levels share a text value.
    from ppm.core import validate_decomposition
    from ppm.dp import _segment_value_buckets

    def broken(instance, d, stats=None):
        k = len(instance.pattern)
        validate_decomposition(d)
        buckets = _segment_value_buckets(instance.sigma, d.segments)
        pinv = instance.pattern.inverse_values
        prev_j, prev_c = [0], [1]
        for i in range(k):
            vals = buckets[pinv[i] - 1]
            cur = []
            acc = 0
            cursor = 0
            for j in vals:
                while cursor < len(prev_j) and prev_j[cursor] <= j:  # <= is the bug
                    acc += prev_c[cursor]
                    cursor += 1
                cur.append(acc)
            prev_j, prev_c = vals, cur
        return sum(prev_c)

    monkeypatch.setattr(dp, "count_respecting", broken)
    code, out, _ = run_cli(capsys, "selftest", "--max-n", "2")
    assert code == 1
    assert any(line.endswith(": fail") for line in out.splitlines())


def test_selftest_catches_detect_mutant(capsys, monkeypatch):
    # Mutant: detection demands two occurrences, so it misses every single one.
    monkeypatch.setattr(solver, "detect_ppm", lambda instance: solver.count_ppm(instance) > 1)
    detail = selftest.check_routes_agree(selftest.exhaustive_instances(2))
    assert detail.startswith("fast=1 bkm=1 brute=1 detect=False on ")
    code, out, err = run_cli(capsys, "selftest", "--max-n", "2")
    assert code == 1
    assert "algorithms-agree: fail" in out.splitlines()
    assert "detect=False" in err


# -- bench ------------------------------------------------------------------------------


def test_bench_csv_shape_and_decomposition_column(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--pairs", "9:5,2:1", "--reps", "2", "--seed", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algo,n,k,decompositions,count,nanos_median"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["fast", "fast"]
    assert rows[0][1:4] == ["9", "5", "6"]
    assert rows[1][1:4] == ["2", "1", "1"]
    for r in rows:
        assert int(r[4]) >= 0 and int(r[5]) > 0


def test_bench_bkm_bound_column(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--pairs", "6:4", "--algo", "bkm", "--reps", "1"
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == str(comb(6, 2))


def test_bench_rejects_bad_pairs(capsys):
    assert run_cli(capsys, "bench", "--pairs", "3:9")[0] == 2
    assert run_cli(capsys, "bench", "--pairs", "zap")[0] == 2


def test_bench_times_grow_with_n(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--pairs", "28:14,32:16,36:18", "--reps", "3", "--seed", "11"
    )
    assert code == 0
    medians = [int(line.split(",")[5]) for line in out.splitlines()[1:]]
    assert medians[0] < medians[1] < medians[2]


# -- family budget ------------------------------------------------------------------------


def test_family_budget_refuses_n200_pair(tmp_path, capsys):
    # Without the budget each of these runs until killed.
    inst = tmp_path / "instance.txt"
    inst.write_text(
        f"{format_permutation(random_permutation(200, 1))}\n{format_permutation(random_permutation(100, 2))}\n"
    )
    files = ("--sigma-file", str(inst), "--pattern-file", str(inst))
    for cmd, algo in (("count", "fast"), ("count", "bkm"), ("detect", "fast"), ("detect", "bkm")):
        code, out, err = run_cli(capsys, cmd, "--algo", algo, *files)
        assert (code, out) == (2, "")
        assert err == f"ppm: --algo {algo} on n=200 k=100 faces over {cli.FAMILY_MAX} decompositions\n"
    # No bench pair starts, and no header is printed, when any pair is over.
    assert run_cli(capsys, "bench", "--pairs", "8:4,200:100")[:2] == (2, "")
    # The full binomial at the largest gen size takes seconds; the bound stops past the budget.
    assert cli._decomposition_bound("bkm", cli.GEN_MAX_N, cli.GEN_MAX_N // 2) == cli.FAMILY_MAX + 1


def test_family_budget_boundary(capsys, monkeypatch):
    # The largest admitted k = n/2 pair and the next one, through the validator:
    # a real run at the budget takes about an hour.
    assert comb(28, 14) <= cli.FAMILY_MAX < comb(29, 14)
    cli._validate_config(cli.RunConfig(pairs=((56, 28),)))
    with pytest.raises(ppm.PpmError):
        cli._validate_config(cli.RunConfig(pairs=((58, 29),)))
    # A family exactly at the budget runs; one member more is refused.
    instance = ("--sigma", "3 2 5 4 1", "--pattern", "1 3 2")
    for algo, size in (("fast", comb(2, 1)), ("bkm", comb(5, 1)), ("brute", 0)):
        monkeypatch.setattr(cli, "FAMILY_MAX", size)
        assert run_cli(capsys, "count", "--algo", algo, *instance)[:2] == (0, "2\n")
        assert run_cli(capsys, "detect", "--algo", algo, *instance)[:2] == (0, "true\n")
        assert run_cli(capsys, "bench", "--algo", algo, "--pairs", "5:3", "--reps", "1")[0] == 0
        if size:
            monkeypatch.setattr(cli, "FAMILY_MAX", size - 1)
            assert run_cli(capsys, "count", "--algo", algo, *instance)[0] == 2
            assert run_cli(capsys, "detect", "--algo", algo, *instance)[0] == 2
            assert run_cli(capsys, "bench", "--algo", algo, "--pairs", "5:3", "--reps", "1")[0] == 2


def test_work_budget_refuses_long_text_tiny_pattern(capsys, monkeypatch):
    # 5 * 10**5 members of n + k = 10**6 + 2 each: days of work under the family budget.
    def no_draw(*_args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "random_permutation", no_draw)
    with pytest.raises(ppm.PpmError):
        cli._validate_config(cli.RunConfig(pairs=((10**6, 2),)))
    # The largest run the family budget admits is within the work budget too.
    assert comb(28, 14) * (56 + 28) <= cli.FAMILY_MAX * cli.WORK_SPAN
    cli._validate_config(cli.RunConfig(pairs=((56, 28),)))
    code, out, err = run_cli(capsys, "bench", "--pairs", "1000000:2")
    assert (code, out) == (2, "")
    assert err == (
        "ppm: --algo fast on n=1000000 k=2 faces decompositions * (n + k) ="
        f" {5 * 10**5 * (10**6 + 2)}, over {cli.FAMILY_MAX * cli.WORK_SPAN}\n"
    )


# -- end to end through a real process ----------------------------------------------------


def _module_env():
    env = os.environ.copy()
    src = str(Path(ppm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_proc(*args, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "ppm", *args],
        capture_output=True,
        env=_module_env(),
        timeout=120,
    )


def test_process_count_and_detect():
    proc = _run_proc("count", "--sigma", "3 2 5 4 1", "--pattern", "1 3 2")
    assert (proc.returncode, proc.stdout) == (0, b"2\n")
    proc = _run_proc("detect", "--sigma", "2 1", "--pattern", "1 2")
    assert (proc.returncode, proc.stdout) == (0, b"false\n")


def test_process_usage_error_exit_code():
    proc = _run_proc("count", "--sigma", "2 1", "--pattern", "1 2 3")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"ppm:" in proc.stderr


def test_process_optimized_mode_selftest_passes():
    # Under -O no invariant check may lean on an assert.
    proc = _run_proc("selftest", python_flags=("-O",))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, SELFTEST_PASS.encode(), b"")


def test_process_optimized_mode_keeps_checks():
    # -O strips assert statements; neither the count nor input validation may rely on one.
    proc = _run_proc("count", "--sigma", "3 2 5 4 1", "--pattern", "1 3 2", python_flags=("-O",))
    assert (proc.returncode, proc.stdout) == (0, b"2\n")
    proc = _run_proc("count", "--sigma", "2 1", "--pattern", "1 2 3", python_flags=("-O",))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"ppm:")
