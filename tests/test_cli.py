"""Command-line behaviour: output formats, exit codes, determinism.

Exit code convention under test: 0 success, 1 self-test failure,
2 usage/input error. One result line on stdout, diagnostics on stderr.
"""

import os
import subprocess
import sys
import time
from itertools import chain, count, islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppm
from ppm import cli, dp, oracle, selftest, solver
from ppm.core import format_permutation, parse_permutation
from ppm.rng import random_permutation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(*argv):
    # The range and budget checks alone, for invocations too slow to run.
    cli._validate_config(cli.build_parser().parse_args(list(argv)))


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


def test_count_rejects_bad_text(tmp_path, capsys):
    code, _, err = run_cli(capsys, "count", "--sigma", "1 1", "--pattern", "1")
    assert code == 2 and err.startswith("ppm:")
    # A value too long for int() is out of range, reported without echoing it;
    # leading zeros of any length still parse, inline and from a file.
    long_file = tmp_path / "long.txt"
    long_file.write_text("9" * 5000 + "\n")
    zeros_file = tmp_path / "zeros.txt"
    zeros_file.write_text("0" * 5000 + "1\n")
    for source in (("--sigma", "9" * 5000), ("--sigma-file", str(long_file))):
        code, out, err = run_cli(capsys, "count", *source, "--pattern", "1")
        assert (code, out, err) == (2, "", "ppm: value of 5000 digits not in 1..1\n")
    for source in (("--sigma", "0" * 5000 + "1"), ("--sigma-file", str(zeros_file))):
        assert run_cli(capsys, "count", *source, "--pattern", "1") == (0, "1\n", "")


def test_count_brute_cap_exceeded(capsys):
    sigma = " ".join(map(str, range(1, 26)))
    code, _, err = run_cli(capsys, "count", "--algo", "brute", "--sigma", sigma, "--pattern", "1")
    assert code == 2 and "capped" in err
    # bench checks the cap for every pair before its header, so no pair runs.
    code, out, err = run_cli(capsys, "bench", "--algo", "brute", "--pairs", "8:4,30:3", "--reps", "1")
    assert (code, out, err) == (2, "", "ppm: exhaustive search capped at n=24, instance has n=30\n")


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
    validate("gen", "--n", str(cli.GEN_MAX_N))


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
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n\t\n")
    code, out, err = run_cli(capsys, "count", "--sigma-file", str(blank), "--pattern", "1")
    assert (code, out, err) == (2, "", f"ppm: {blank}: no data lines\n")


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
    validate("selftest", "--max-n", str(selftest.MAX_N))


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
            vals = sorted(buckets[pinv[i] - 1])
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
    assert detail.startswith("want=1 count=1 detect=False on ")
    code, out, err = run_cli(capsys, "selftest", "--max-n", "2")
    assert code == 1
    assert "algorithms-agree: fail" in out.splitlines()
    assert "detect=False" in err


def _repeat_member_1(real):
    return lambda n, k: chain(islice(real(n, k), 1), real(n, k))


def _drop_member_1(real):
    return lambda n, k: islice(real(n, k), 1, None)


def _canonical_is_member_1(real):
    return lambda f, n: real(type(f)(tuple(range(1, len(f.values) + 1))), n)


def _rejects_prefix_checks(real):
    # Prefix checks are the chains that draw later positions from `rest`.
    return lambda buckets, order, rest=(): len(buckets) >= len(order) and real(buckets, order, rest)


def _unique_cover():
    return selftest.check_unique_cover(selftest.exhaustive_instances(4))


def _routes_agree():
    return selftest.check_routes_agree(selftest.exhaustive_instances(2))


def _off_by_one(real):
    return lambda *args: real(*args) + 1


# Each case plants one fault, built from the real attribute, and names a
# check that must report it and the start of the detail it must give.
SELFTEST_FAULTS = {
    "repeated-member-cover": (solver, "enumerate_guesses", _repeat_member_1, _unique_cover, "2 members cover"),
    "repeated-member-family": (
        solver, "enumerate_guesses", _repeat_member_1, lambda: selftest.check_family(4), "family size",
    ),
    "dropped-member-cover": (solver, "enumerate_guesses", _drop_member_1, _unique_cover, "0 members cover"),
    "dropped-member-family": (
        solver, "enumerate_guesses", _drop_member_1, lambda: selftest.check_family(4), "family size",
    ),
    "off-by-one-family-size": (
        solver, "family_size", _off_by_one, lambda: selftest.check_family(4), "family size 1, family_size 2 != C(0,0)",
    ),
    "off-by-one-bkm": (oracle, "bkm_count", _off_by_one, _routes_agree, "bkm=2 brute=1 on "),
    "off-by-one-count": (solver, "count_ppm", _off_by_one, _routes_agree, "want=1 count=2 detect=True on "),
    "negated-detect": (
        solver, "detect_ppm", lambda real: lambda inst: not real(inst), _routes_agree,
        "want=1 count=1 detect=False on ",
    ),
    "dead-member-cover": (solver, "_live_n", lambda real: lambda n, k: n - 2, _unique_cover, "dead member covers"),
    "dead-member-cover-at-n": (
        solver, "_live_n", lambda real: lambda n, k: n - 1, _unique_cover, "dead member covers",
    ),
    "wrong-canonical-cover": (solver, "canonical_decomposition", _canonical_is_member_1, _unique_cover, "cover of f="),
    "wrong-canonical-lowerbound": (
        solver, "canonical_decomposition", _canonical_is_member_1, lambda: selftest.check_lowerbound(6),
        "lower-bound family size",
    ),
    "reversing-format": (
        selftest, "format_permutation", lambda real: lambda p: " ".join(map(str, reversed(p.values))),
        lambda: selftest._suite_parse_roundtrip(2), "round-trip failed",
    ),
    "accepting-is-solution": (
        selftest, "is_solution", lambda real: lambda inst, f: True,
        lambda: selftest._suite_solution_two_routes(2), "routes disagree",
    ),
    "width-capped-respects": (
        selftest, "respects", lambda real: lambda f, d: real(f, d) and all(hi - lo < 3 for lo, hi in d.segments),
        lambda: selftest._suite_respects_monotone(2), "enlarging segments dropped",
    ),
    "unseeded-random-permutation": (
        selftest, "random_permutation", lambda real: lambda n, seed, draws=count(): real(n, seed + next(draws)),
        lambda: selftest._suite_gen_deterministic(2), "two draws differ",
    ),
    "rejecting-prefix-chain": (
        dp, "_has_chain", _rejects_prefix_checks, lambda: selftest._suite_dp_enumeration(2), "prefix check fails",
    ),
}


@pytest.mark.parametrize("module,name,fault,check,detail", SELFTEST_FAULTS.values(), ids=SELFTEST_FAULTS)
def test_every_selftest_check_can_fail(monkeypatch, module, name, fault, check, detail):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert check().startswith(detail)


def test_selftest_reports_a_crashing_suite(capsys, monkeypatch):
    def crash(n, seed):
        raise RuntimeError("planted")

    monkeypatch.setattr(selftest, "random_permutation", crash)
    results = {name: (ok, detail) for name, ok, detail in selftest.run_suites(1)}
    ok, detail = results["parse-roundtrip"]
    assert not ok and detail.startswith("raised RuntimeError: planted (in crash, ")
    assert detail.endswith(f"{__file__}:{crash.__code__.co_firstlineno + 1})")
    code, out, err = run_cli(capsys, "selftest", "--max-n", "1")
    assert code == 1
    assert "parse-roundtrip: fail" in out.splitlines()
    assert f"  {detail}\n" in err


# -- defaults -----------------------------------------------------------------------------


def test_defaults_match_explicit_flags(capsys):
    assert run_cli(capsys, "gen", "--n", "5") == run_cli(capsys, "gen", "--n", "5", "--seed", "0")
    implicit = run_cli(capsys, "bench", "--pairs", "6:3")
    explicit = run_cli(capsys, "bench", "--pairs", "6:3", "--algo", "fast", "--seed", "0", "--reps", "5")
    assert implicit[0] == explicit[0] == 0
    assert [row.split(",")[:5] for row in implicit[1].splitlines()] == [
        row.split(",")[:5] for row in explicit[1].splitlines()
    ]
    parser = cli.build_parser()
    assert parser.parse_args(["selftest"]).max_n == 6
    for cmd in ("count", "detect"):
        args = parser.parse_args([cmd, "--sigma", "1", "--pattern", "1"])
        assert (args.algo, args.threads) == ("fast", 1)


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


def test_bench_column_is_the_confined_counts_run(capsys, monkeypatch):
    # Every pair with n <= 12 through each route: the decompositions column
    # is exactly the number of dp.count_respecting calls one rep makes.
    real = dp.count_respecting
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dp, "count_respecting", counted)
    for algo in ("fast", "bkm", "brute"):
        for n in range(1, 13):
            for k in range(1, n + 1):
                calls.clear()
                code, out, _ = run_cli(capsys, "bench", "--algo", algo, "--pairs", f"{n}:{k}", "--reps", "1")
                assert code == 0
                assert int(out.splitlines()[1].split(",")[3]) == len(calls), (algo, n, k)


def test_bench_rejects_bad_pairs(capsys):
    assert run_cli(capsys, "bench", "--pairs", "3:9")[0] == 2
    assert run_cli(capsys, "bench", "--pairs", "zap")[0] == 2
    assert run_cli(capsys, "bench", "--pairs", "")[1:] == ("", "ppm: bad pair '', expected n:k\n")
    # Of several faults, pair syntax is reported first, then reps, then pair ranges.
    assert run_cli(capsys, "bench", "--pairs", "zap", "--reps", "0")[1:] == (
        "",
        "ppm: bad pair 'zap', expected n:k\n",
    )
    assert run_cli(capsys, "bench", "--pairs", "3:9", "--reps", "0")[1:] == (
        "",
        f"ppm: --reps must be in [1, {cli.REPS_MAX}], got 0\n",
    )


def test_bench_refuses_unbounded_reps(capsys, monkeypatch):
    # Without the cap this run prints its header and runs until killed.
    def no_draw(*_args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "random_permutation", no_draw)
    code, out, err = run_cli(capsys, "bench", "--pairs", "8:4", "--reps", "1000000000000")
    assert (code, out) == (2, "")
    assert err == f"ppm: --reps must be in [1, {cli.REPS_MAX}], got 1000000000000\n"
    assert run_cli(capsys, "bench", "--pairs", "8:4", "--reps", str(cli.REPS_MAX + 1))[:2] == (2, "")
    validate("bench", "--pairs", "8:4", "--reps", str(cli.REPS_MAX))


def test_bench_refuses_n_above_gen_cap(capsys, monkeypatch):
    # k = 1 is one member, so the work budget admits n = 10**9; drawing its
    # text would take most of an hour and tens of GB.
    def no_draw(*_args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "random_permutation", no_draw)
    code, out, err = run_cli(capsys, "bench", "--pairs", "8:4,1000000000:1")
    assert (code, out) == (2, "")
    assert err == f"ppm: bad pair n=1000000000 k=1, need 1 <= k <= n <= {cli.GEN_MAX_N}\n"
    assert run_cli(capsys, "bench", "--pairs", f"{cli.GEN_MAX_N + 1}:1")[:2] == (2, "")
    validate("bench", "--pairs", f"{cli.GEN_MAX_N}:1")


def test_bench_times_grow_with_n(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--pairs", "28:14,32:16,36:18", "--reps", "3", "--seed", "11"
    )
    assert code == 0
    medians = [int(line.split(",")[5]) for line in out.splitlines()[1:]]
    assert medians[0] < medians[1] < medians[2]


# -- work budget --------------------------------------------------------------------------


def _budget_message(algo, n, k):
    return f"ppm: --algo {algo} on n={n} k={k} faces decompositions * (n + k) over 5880000000\n"


def test_family_budget_refuses_n200_pair(tmp_path, capsys, monkeypatch):
    # Without the budget each count runs until killed.
    inst = tmp_path / "instance.txt"
    inst.write_text(
        f"{format_permutation(random_permutation(200, 1))}\n{format_permutation(random_permutation(100, 2))}\n"
    )
    files = ("--sigma-file", str(inst), "--pattern-file", str(inst))

    def no_search(*_args):
        raise AssertionError("a search started")

    monkeypatch.setattr(cli, "_count_with", no_search)
    for cmd, algo in (("count", "fast"), ("count", "bkm"), ("detect", "bkm")):
        code, out, err = run_cli(capsys, cmd, "--algo", algo, *files)
        assert (code, out) == (2, "")
        assert err == _budget_message(algo, 200, 100)
    # Detection is metered, not charged up front: this search ends after
    # 2,152 chains.
    assert run_cli(capsys, "detect", "--algo", "fast", *files) == (0, "false\n", "")
    # No bench pair starts, and no header is printed, when any pair is over.
    assert run_cli(capsys, "bench", "--pairs", "8:4,200:100")[:2] == (2, "")
    # The full binomial at the largest gen size takes seconds; the check stops past the budget.
    start = time.perf_counter()
    with pytest.raises(ppm.PpmError, match=r"faces decompositions \* \(n \+ k\) over 5880000000$"):
        cli._check_family("bkm", cli.GEN_MAX_N, cli.GEN_MAX_N // 2)
    assert time.perf_counter() - start < 0.5


def test_bkm_is_charged_only_its_feasible_guesses(tmp_path, capsys):
    # gen --n 30 --seed 1 against gen --n 28 --seed 2: bkm makes
    # binom(16, 14) = 120 confined counts, milliseconds of work, where a
    # charge of binom(30, 14) guesses refused it.
    inst = tmp_path / "instance.txt"
    inst.write_text(
        f"{format_permutation(random_permutation(30, 1))}\n{format_permutation(random_permutation(28, 2))}\n"
    )
    files = ("--sigma-file", str(inst), "--pattern-file", str(inst))
    fast = run_cli(capsys, "count", "--algo", "fast", *files)
    assert fast[0] == 0
    assert run_cli(capsys, "count", "--algo", "bkm", *files) == fast


def test_family_budget_boundary(capsys, monkeypatch):
    # The largest admitted k = n//2 pair and the next one, through the validator:
    # a real run at the budget takes about an hour. At (58, 29) count skips
    # the members whose last anchor is 58, which leaves binom(28, 14).
    assert comb(28, 14) * (58 + 29) <= cli.WORK_MAX < comb(29, 14) * (59 + 29)
    validate("bench", "--pairs", "58:29")
    with pytest.raises(ppm.PpmError):
        validate("bench", "--pairs", "59:29")
    # A run exactly at the budget runs; one unit less refuses it, except
    # detect --algo fast, which member 1 decides with one chain.
    instance = ("--sigma", "3 2 5 4 1", "--pattern", "1 3 2")
    for algo, size in (("fast", comb(2, 1)), ("bkm", comb(3, 1)), ("brute", 0)):
        monkeypatch.setattr(cli, "WORK_MAX", size * (5 + 3))
        assert run_cli(capsys, "count", "--algo", algo, *instance)[:2] == (0, "2\n")
        assert run_cli(capsys, "detect", "--algo", algo, *instance)[:2] == (0, "true\n")
        assert run_cli(capsys, "bench", "--algo", algo, "--pairs", "5:3", "--reps", "1")[0] == 0
        if size:
            monkeypatch.setattr(cli, "WORK_MAX", size * (5 + 3) - 1)
            assert run_cli(capsys, "count", "--algo", algo, *instance)[0] == 2
            detected = (0, "true\n") if algo == "fast" else (2, "")
            assert run_cli(capsys, "detect", "--algo", algo, *instance)[:2] == detected
            assert run_cli(capsys, "bench", "--algo", algo, "--pairs", "5:3", "--reps", "1")[0] == 2


def _work(algo, n, k):
    """The confined counts a run makes * (n + k), in exact binomials.

    fast counts the live anchor family, whose (n - k%2)//2 slots drop the
    last anchor n at even n and odd k; bkm counts its feasible guesses, the
    k//2-subsets of n - k//2 - k%2 slots.
    """
    width = (n - k % 2) // 2 if algo == "fast" else n - k // 2 - k % 2
    return comb(width, k // 2) * (n + k)


def _refuses(algo, n, k):
    try:
        cli._check_family(algo, n, k)
    except ppm.PpmError:
        return True
    return False


def test_work_budget_refuses_exactly_past_work_max(monkeypatch):
    # Every count below n = 90 against the rule itself: refused exactly when
    # its work is over the budget, and brute force when n is past its cap.
    # No work lands on WORK_MAX itself, so the sweep runs again at a budget
    # that count --algo fast at n = 44, k = 22 meets exactly, where it must
    # still run. count, bench and detect through bkm or brute all make this
    # one check; detect --algo fast never does.
    for budget in (cli.WORK_MAX, _work("fast", 44, 22)):
        monkeypatch.setattr(cli, "WORK_MAX", budget)
        for n in range(1, 90):
            for k in range(1, n + 1):
                assert _refuses("brute", n, k) == (n > oracle.DEFAULT_MAX_N)
                for algo in ("fast", "bkm"):
                    assert _refuses(algo, n, k) == (_work(algo, n, k) > budget), (budget, algo, n, k)


def _deep_detect_args(n):
    # Identity text against a k = n - 2 pattern ending in a descent: every
    # anchor prefix passes, so detection checks all binom(n//2 + 1, k//2) - 1.
    sigma = " ".join(map(str, range(1, n + 1)))
    pattern = " ".join(map(str, [*range(1, n - 3), n - 2, n - 3]))
    return ("detect", "--sigma", sigma, "--pattern", pattern)


def test_detect_budget_charges_its_chains(capsys, monkeypatch):
    # At n = 402 the deep shape makes binom(202, 200) - 1 = 20,300 chains
    # (about a second): with exactly that many it answers, and one unit of
    # work less stops it, with nothing on stdout.
    chains = comb(202, 200) - 1
    monkeypatch.setattr(cli, "WORK_MAX", chains * (402 + 400))
    assert run_cli(capsys, *_deep_detect_args(402)) == (0, "false\n", "")
    monkeypatch.setattr(cli, "WORK_MAX", chains * (402 + 400) - 1)
    assert run_cli(capsys, *_deep_detect_args(402)) == (
        2,
        "",
        f"ppm: --algo fast on n=402 k=400 spent its {chains - 1} chains with no answer, "
        f"chains * (n + k) <= {chains * 802 - 1}\n",
    )


def test_work_budget_refuses_long_text_tiny_pattern(capsys, monkeypatch):
    # 5 * 10**5 members of n + k = 10**6 + 2 each: days of work.
    def no_draw(*_args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "random_permutation", no_draw)
    with pytest.raises(ppm.PpmError):
        validate("bench", "--pairs", "1000000:2")
    # Far fewer members than the largest admitted k = n/2 run, far more work.
    assert 5 * 10**5 < comb(28, 14) and 5 * 10**5 * (10**6 + 2) > cli.WORK_MAX
    validate("bench", "--pairs", "56:28")
    code, out, err = run_cli(capsys, "bench", "--pairs", "1000000:2")
    assert (code, out) == (2, "")
    assert err == _budget_message("fast", 1000000, 2)


# -- hostile input -------------------------------------------------------------------------

_TEXT = st.text(max_size=8)
_NUMBERS = st.one_of(
    st.sampled_from(("0", "1", "3", "12", "-1", "-64", "18446744073709551616", "9" * 5000, "1e3", "0x10",
                     "1.5", " 3", "\uff13", "\u0663", "", "x", "\u00e9")),
    st.integers(-3, 40).map(str),
    _TEXT,
)
# Run from a directory holding these files; the others are missing.
_FILES = st.one_of(st.sampled_from(("empty.txt", "latin1.txt", "dir", "missing.txt", "nul\0.txt", "instance.txt")),
                   _TEXT)
_ALGOS = st.sampled_from(("fast", "bkm", "brute", "slow", ""))
_PERMUTATIONS = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(lambda p: " ".join(map(str, p))),
    st.sampled_from(("1 1", "0", "-1 1", "1,2", "\uff11 \uff12", "", "   ", "9" * 5000, "\u00e9", "1\u20282")),
    _TEXT,
)
_INSTANCE_FLAGS = {"--algo": _ALGOS, "--sigma": _PERMUTATIONS, "--pattern": _PERMUTATIONS,
                   "--sigma-file": _FILES, "--pattern-file": _FILES, "--threads": _NUMBERS}
_FLAGS = {
    "count": _INSTANCE_FLAGS,
    "detect": _INSTANCE_FLAGS,
    "gen": {"--n": _NUMBERS, "--seed": _NUMBERS},
    # Every valid --max-n drawn is at most 3, so a selftest run stays short.
    "selftest": {"--max-n": st.sampled_from(("1", "2", "3", "0", "-1", str(selftest.MAX_N + 1), "x", "\uff13"))},
    "bench": {"--pairs": st.one_of(st.sampled_from(("3:2", "12:6", "13:2", "4:5", "0:0", "-3:1", "3:", ":", ",",
                                                    "5:2,6:3", "10:3,3:10", "99999999999999:3", "\u0663:2")),
                                   _TEXT),
              "--algo": _ALGOS, "--seed": _NUMBERS, "--reps": _NUMBERS, "--threads": _NUMBERS},
}


@st.composite
def _hostile_argv(draw):
    command = draw(st.sampled_from((*_FLAGS, "nope", "")))
    known = _FLAGS.get(command, {})
    # The flags a run needs come first, so that most runs get past argparse;
    # selftest always gets a --max-n, since its default is 6.
    needed = {"gen": ["--n"], "selftest": ["--max-n"], "bench": ["--pairs"]}.get(command, [])
    if command in ("count", "detect"):
        needed = [draw(st.sampled_from(("--sigma", "--sigma-file"))),
                  draw(st.sampled_from(("--pattern", "--pattern-file")))]
    argv = [command]
    for name in needed + draw(st.lists(st.sampled_from(tuple(known) or ("--bogus",)), max_size=3)):
        argv += [name, draw(known[name])] if name in known else [name]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(("--bogus", "--help"))))
    return argv


def test_hostile_argv_exits_cleanly(tmp_path, capsys):
    # Every subcommand and flag with huge, negative, non-ASCII and malformed
    # values, and instance files that are empty, not UTF-8, a directory,
    # missing or named with a NUL byte. Sizes are capped small so that every
    # run is short.
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "latin1.txt").write_bytes(b"3 2 1\n\xe9\n")
    (tmp_path / "dir").mkdir()
    (tmp_path / "instance.txt").write_text("3 2 5 4 1\n1 3 2\n")

    @settings(derandomize=True, database=None, max_examples=300, deadline=2000)
    @given(_hostile_argv())
    @example(["count", "--sigma-file", "nul\0.txt", "--pattern", "1"])
    @example(["detect", "--sigma-file", "dir", "--pattern-file", "latin1.txt"])
    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
            code, handled = exc.code, False
        else:
            handled = True
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        if handled and code == 2:
            assert out == "" and err.startswith("ppm: ") and len(err.splitlines()) == 1

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        mp.setattr(cli, "WORK_MAX", 10_000)
        mp.setattr(cli, "GEN_MAX_N", 12)
        run()


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
