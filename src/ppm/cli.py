"""Command-line front end.

Subcommands: count, detect, gen, selftest, bench. Exit codes: 0 success,
1 self-test failure, 2 usage or input error. Results go to stdout,
diagnostics to stderr, one line each.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass

from . import oracle, selftest, solver
from .core import (
    EmptyInput,
    Permutation,
    PpmError,
    PpmInstance,
    format_permutation,
    parse_permutation,
)
from .rng import SplitMix64, random_permutation

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_USAGE = 2

# Largest `gen --n`: a permutation of 10**6 values takes about 3 s to draw.
GEN_MAX_N = 10**6
# Largest instance file read: two lines of the largest permutation `gen`
# prints. A line of 1..N holds N - 1 spaces, a newline and, per digit
# place d, one digit for each value of at least d + 1 digits.
FILE_MAX_BYTES = 2 * (GEN_MAX_N + sum(GEN_MAX_N - 10**d + 1 for d in range(len(str(GEN_MAX_N)))))
# Most decompositions count, detect and bench may face. One confined count
# took 10-16 us on random and 28-47 us on identity texts at n = 56-60,
# k = n/2 (2 vCPU, Python 3.11), where binom(n//2, k//2) reaches this size:
# the largest admitted run takes at most about 7 * 10**7 * 50 us, an hour.
FAMILY_MAX = 7 * 10**7
# One confined count is linear in n + k, so the same hour also caps the
# run's work, decompositions * (n + k), at FAMILY_MAX * 84: the (56, 28)
# run, the largest admitted one, at about 50 us / 84 = 0.6 us per unit.
# The rate holds at n = 10**6, k = 2, where one count took 0.42-0.98 s,
# 0.4-1 us per unit; its 5 * 10**5 members are refused by this cap alone.
WORK_SPAN = 84
# Most `bench --reps`: enough for a median, and each rep reruns the whole count.
REPS_MAX = 100

_ALGOS = ("fast", "bkm", "brute")
_THREADS_HELP = "accepted for compatibility: must be >= 1, otherwise ignored"


@dataclass(frozen=True)
class RunConfig:
    """One invocation, independent of argparse; fields are the flags' destinations and defaults."""

    algo: str = "fast"
    sigma: str | None = None
    sigma_file: str | None = None
    pattern: str | None = None
    pattern_file: str | None = None
    seed: int = 0
    threads: int = 1
    n: int | None = None
    max_n: int = 6
    reps: int = 5
    pairs: tuple[tuple[int, int], ...] = ()


def cmd_count(cfg: RunConfig) -> int:
    instance = _load_instance(cfg)
    print(_count_with(cfg.algo, instance, cfg.threads))
    return EXIT_OK


def cmd_detect(cfg: RunConfig) -> int:
    instance = _load_instance(cfg)
    if cfg.algo == "fast":
        found = solver.detect_ppm(instance)
    else:
        found = _count_with(cfg.algo, instance, cfg.threads) > 0
    print("true" if found else "false")
    return EXIT_OK


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise PpmError("gen requires --n")
    print(format_permutation(random_permutation(cfg.n, cfg.seed)))
    return EXIT_OK


def cmd_selftest(cfg: RunConfig) -> int:
    failed = False
    for name, ok, detail in selftest.run_suites(cfg.max_n):
        print(f"{name}: {'pass' if ok else 'fail'}")
        if not ok:
            failed = True
            print(f"  {detail}", file=sys.stderr)
    return EXIT_SELFTEST_FAILED if failed else EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    if not cfg.pairs:
        raise PpmError("bench requires --pairs n:k,...")
    print("algo,n,k,decompositions,count,nanos_median")
    seeds = SplitMix64(cfg.seed)
    for n, k in cfg.pairs:
        instance = PpmInstance(
            random_permutation(n, seeds.next_u64()),
            random_permutation(k, seeds.next_u64()),
        )
        timings = []
        count = 0
        for _rep in range(cfg.reps):
            start = time.perf_counter_ns()
            count = _count_with(cfg.algo, instance, cfg.threads)
            timings.append(time.perf_counter_ns() - start)
        decompositions = _decomposition_bound(cfg.algo, n, k)
        print(f"{cfg.algo},{n},{k},{decompositions},{count},{int(statistics.median(timings))}")
    return EXIT_OK


def _count_with(algorithm: str, instance: PpmInstance, threads: int) -> int:
    if algorithm == "fast":
        return solver.count_ppm(instance, threads=threads)
    if algorithm == "bkm":
        return oracle.bkm_count(instance)
    if algorithm == "brute":
        return oracle.brute_force_count(instance)
    raise PpmError(f"unknown algorithm {algorithm!r}")


def _decomposition_bound(algorithm: str, n: int, k: int) -> int:
    """Decompositions the algorithm faces, or FAMILY_MAX + 1 once past the budget.

    binom(m, j) = binom(m, m - j) is built one factor at a time and grows
    at each step, so it stops once past the budget: in full it takes
    seconds at n = 10**6.
    """
    if algorithm == "brute":
        return 0
    m, j = (n // 2 if algorithm == "fast" else n), k // 2
    size = 1
    for i in range(min(j, m - j)):
        size = size * (m - i) // (i + 1)
        if size > FAMILY_MAX:
            return FAMILY_MAX + 1
    return size


def _check_family(algorithm: str, n: int, k: int) -> None:
    size = _decomposition_bound(algorithm, n, k)
    if size > FAMILY_MAX:
        raise PpmError(f"--algo {algorithm} on n={n} k={k} faces over {FAMILY_MAX} decompositions")
    if size * (n + k) > FAMILY_MAX * WORK_SPAN:
        raise PpmError(
            f"--algo {algorithm} on n={n} k={k} faces decompositions * (n + k) ="
            f" {size * (n + k)}, over {FAMILY_MAX * WORK_SPAN}"
        )


def _load_instance(cfg: RunConfig) -> PpmInstance:
    instance = PpmInstance(
        _load_permutation(cfg.sigma, cfg.sigma_file, line=1, role="--sigma"),
        _load_permutation(cfg.pattern, cfg.pattern_file, line=2, role="--pattern"),
    )
    _check_family(cfg.algo, instance.n, instance.k)
    return instance


def _load_permutation(text: str | None, path: str | None, line: int, role: str) -> Permutation:
    if text is not None:
        return parse_permutation(text)
    if path is None:
        raise EmptyInput(f"missing {role} (inline text or {role}-file)")
    with open(path, "rb") as fh:
        data = fh.read(FILE_MAX_BYTES + 1)
    if len(data) > FILE_MAX_BYTES:
        raise PpmError(
            f"{path}: over {FILE_MAX_BYTES} bytes, two lines of a gen --n {GEN_MAX_N} permutation"
        )
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PpmError(f"{path}: not UTF-8 text (invalid byte at offset {exc.start})") from exc
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise EmptyInput(f"{path}: no data lines")
    # Instance files carry sigma on line 1 and the pattern on line 2; a
    # single-line file serves either role.
    if line > 1 and len(lines) >= line:
        return parse_permutation(lines[line - 1])
    return parse_permutation(lines[0])


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        n_str, _, k_str = chunk.partition(":")
        try:
            pairs.append((int(n_str), int(k_str)))
        except ValueError as exc:
            raise PpmError(f"bad pair {chunk!r}, expected n:k") from exc
    return tuple(pairs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppm", description="Exact permutation pattern matching: count and detect."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algo", choices=_ALGOS)
        g1 = p.add_mutually_exclusive_group(required=True)
        g1.add_argument("--sigma", help="text permutation, one-line notation")
        g1.add_argument("--sigma-file", help="file with sigma on its first line")
        g2 = p.add_mutually_exclusive_group(required=True)
        g2.add_argument("--pattern", help="pattern permutation, one-line notation")
        g2.add_argument("--pattern-file", help="file with the pattern on its second line (or only line)")
        p.add_argument("--threads", type=int, help=_THREADS_HELP)

    p_count = sub.add_parser("count", help="print the exact number of occurrences")
    add_instance_flags(p_count)

    p_detect = sub.add_parser("detect", help="print true/false for containment")
    add_instance_flags(p_detect)

    p_gen = sub.add_parser("gen", help="print a seeded uniformly random permutation")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suites")
    p_self.add_argument("--max-n", type=int)

    p_bench = sub.add_parser("bench", help="time counting runs, CSV to stdout")
    p_bench.add_argument("--pairs", required=True, help="comma list of n:k")
    p_bench.add_argument("--algo", choices=_ALGOS)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--reps", type=int)
    p_bench.add_argument("--threads", type=int, help=_THREADS_HELP)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # A flag left out parses to None and keeps its RunConfig default.
    given = {name: value for name, value in vars(args).items() if value is not None}
    del given["command"]
    given["pairs"] = _parse_pairs(given["pairs"]) if given.get("pairs") else ()
    return RunConfig(**given)


_COMMANDS = {
    "count": cmd_count,
    "detect": cmd_detect,
    "gen": cmd_gen,
    "selftest": cmd_selftest,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _validate_config(cfg)
        return _COMMANDS[args.command](cfg)
    except PpmError as exc:
        print(f"ppm: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"ppm: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _validate_config(cfg: RunConfig) -> None:
    if cfg.threads < 1:
        raise PpmError(f"--threads must be >= 1, got {cfg.threads}")
    if cfg.seed < 0 or cfg.seed >= 1 << 64:
        raise PpmError(f"--seed must be an unsigned 64-bit integer, got {cfg.seed}")
    if cfg.n is not None and not 1 <= cfg.n <= GEN_MAX_N:
        raise PpmError(f"--n must be in [1, {GEN_MAX_N}], got {cfg.n}")
    if not 1 <= cfg.max_n <= selftest.MAX_N:
        raise PpmError(f"--max-n must be in [1, {selftest.MAX_N}], got {cfg.max_n}")
    if not 1 <= cfg.reps <= REPS_MAX:
        raise PpmError(f"--reps must be in [1, {REPS_MAX}], got {cfg.reps}")
    for n, k in cfg.pairs:
        if not 1 <= k <= n:
            raise PpmError(f"bad pair n={n} k={k}, need 1 <= k <= n")
        _check_family(cfg.algo, n, k)


if __name__ == "__main__":
    sys.exit(main())
