"""Command-line front end.

Subcommands: count, detect, gen, selftest, bench. Exit codes: 0 success,
1 self-test failure, 2 usage or input error. Results go to stdout,
diagnostics to stderr, one line each.

Every flag and its default is declared once, in `build_parser`, which
binds each subcommand to its `cmd_*` function; the commands read the
argparse namespace. `_validate_config` makes the range checks argparse
cannot express. `_check_family` is the one size check on a count, made
before any work: a run is refused when the confined counts it makes
times n + k exceed WORK_MAX, and brute force past its cap on n. It takes
each route's family width from the module whose loop walks that family,
so bench's `decompositions` column is exactly the confined counts a rep
makes. `detect --algo fast` is metered instead: its search may make
WORK_MAX // (n + k) greedy chains, and a run that spends them with no
answer exits 2.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

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
# Most work count, detect and bench may face, in units of confined counts
# * (n + k), or of greedy chains * (n + k) for `detect --algo fast`: one
# confined count and one chain are each linear in n + k. A count took about
# 0.6 us per unit (28-47 us each on identity texts at n = 56-60, k = n/2, and
# 0.4-1 us per unit at n = 10**6, k = 2), so a count at the cap takes about
# an hour. A chain took about 0.06 us per unit (721,800 of them took 222 s at
# n = 2402, k = 2400), so a detection that spends all its chains takes about
# 6 minutes. Measured on 2 vCPUs under Python 3.11.
WORK_MAX = 5_880_000_000
# Most `bench --reps`: enough for a median, and each rep reruns the whole count.
REPS_MAX = 100

# Flags shared by several subcommands, each declared once with its default.
_ALGO_FLAG = {"choices": ("fast", "bkm", "brute"), "default": "fast"}
_SEED_FLAG = {"type": int, "default": 0}
_THREADS_HELP = "accepted for compatibility: must be >= 1, otherwise ignored"
_THREADS_FLAG = {"type": int, "default": 1, "help": _THREADS_HELP}


def cmd_count(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    _check_family(args.algo, instance.n, instance.k)
    print(_count_with(args.algo, instance))
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    n, k = instance.n, instance.k
    if args.algo == "fast":
        chains = WORK_MAX // (n + k)
        found = solver._detect(instance, chains)
        if found is None:
            raise PpmError(
                f"--algo fast on n={n} k={k} spent its {chains} chains with no answer, "
                f"chains * (n + k) <= {WORK_MAX}"
            )
    else:
        _check_family(args.algo, n, k)
        found = _count_with(args.algo, instance) > 0
    print("true" if found else "false")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    print(format_permutation(random_permutation(args.n, args.seed)))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    failed = False
    for name, ok, detail in selftest.run_suites(args.max_n):
        print(f"{name}: {'pass' if ok else 'fail'}")
        if not ok:
            failed = True
            print(f"  {detail}", file=sys.stderr)
    return EXIT_SELFTEST_FAILED if failed else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    print("algo,n,k,decompositions,count,nanos_median")
    seeds = SplitMix64(args.seed)
    for n, k, decompositions in args.pairs:
        instance = PpmInstance(
            random_permutation(n, seeds.next_u64()),
            random_permutation(k, seeds.next_u64()),
        )
        timings = []
        count = 0
        for _rep in range(args.reps):
            start = time.perf_counter_ns()
            count = _count_with(args.algo, instance)
            timings.append(time.perf_counter_ns() - start)
        print(f"{args.algo},{n},{k},{decompositions},{count},{int(statistics.median(timings))}")
    return EXIT_OK


def _count_with(algorithm: str, instance: PpmInstance) -> int:
    if algorithm == "fast":
        return solver.count_ppm(instance)
    if algorithm == "bkm":
        return oracle.bkm_count(instance)
    return oracle.brute_force_count(instance)


def _check_family(algorithm: str, n: int, k: int) -> int:
    """Confined counts a count by the algorithm makes, refused once they * (n + k) exceed WORK_MAX.

    `fast` and `bkm` make binom(m, k//2), m being the width their own loop
    walks: `solver._live_n(n, k) // 2` anchor slots for `fast`, one count
    per live family member, and `oracle._guess_width(n, k)` for `bkm`, one
    per feasible guess. Brute force makes none, and its own cap on n
    refuses it instead.
    binom(m, j) = binom(m, m - j) is built one factor at a time and grows
    at each step, so it stops once past the budget: in full it takes
    seconds at n = 10**6. One confined count is always within it, since
    n + k is at most a few million.
    """
    if algorithm == "brute":
        oracle._check_cap(n, oracle.DEFAULT_MAX_N)
        return 0
    m = solver._live_n(n, k) // 2 if algorithm == "fast" else oracle._guess_width(n, k)
    j = k // 2
    size = 1
    for i in range(min(j, m - j)):
        size = size * (m - i) // (i + 1)
        if size * (n + k) > WORK_MAX:
            raise PpmError(f"--algo {algorithm} on n={n} k={k} faces decompositions * (n + k) over {WORK_MAX}")
    return size


def _load_instance(args: argparse.Namespace) -> PpmInstance:
    return PpmInstance(
        _load_permutation(args.sigma, args.sigma_file, line=1),
        _load_permutation(args.pattern, args.pattern_file, line=2),
    )


def _load_permutation(text: str | None, path: str | None, line: int) -> Permutation:
    # argparse requires exactly one of the inline text and the file path.
    if text is not None:
        return parse_permutation(text)
    if "\0" in path:  # open() would raise ValueError; no file can have such a name
        raise PpmError(f"{path!r}: a file name cannot hold a NUL byte")
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


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        n_str, _, k_str = chunk.partition(":")
        try:
            pairs.append((int(n_str), int(k_str)))
        except ValueError as exc:
            raise PpmError(f"bad pair {chunk!r}, expected n:k") from exc
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppm", description="Exact permutation pattern matching: count and detect."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algo", **_ALGO_FLAG)
        g1 = p.add_mutually_exclusive_group(required=True)
        g1.add_argument("--sigma", help="text permutation, one-line notation")
        g1.add_argument("--sigma-file", help="file with sigma on its first line")
        g2 = p.add_mutually_exclusive_group(required=True)
        g2.add_argument("--pattern", help="pattern permutation, one-line notation")
        g2.add_argument("--pattern-file", help="file with the pattern on its second line (or only line)")
        p.add_argument("--threads", **_THREADS_FLAG)

    p_count = sub.add_parser("count", help="print the exact number of occurrences")
    add_instance_flags(p_count)
    p_count.set_defaults(run=cmd_count)

    p_detect = sub.add_parser("detect", help="print true/false for containment")
    add_instance_flags(p_detect)
    p_detect.set_defaults(run=cmd_detect)

    p_gen = sub.add_parser("gen", help="print a seeded uniformly random permutation")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", **_SEED_FLAG)
    p_gen.set_defaults(run=cmd_gen)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suites")
    p_self.add_argument("--max-n", type=int, default=6)
    p_self.set_defaults(run=cmd_selftest)

    p_bench = sub.add_parser("bench", help="time counting runs, CSV to stdout")
    p_bench.add_argument("--pairs", required=True, help="comma list of n:k")
    p_bench.add_argument("--algo", **_ALGO_FLAG)
    p_bench.add_argument("--seed", **_SEED_FLAG)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--threads", **_THREADS_FLAG)
    p_bench.set_defaults(run=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_config(args)
        return args.run(args)
    except (PpmError, OSError) as exc:
        print(f"ppm: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _validate_config(args: argparse.Namespace) -> None:
    """Range checks argparse cannot express, on the flags the subcommand has.

    Replaces the --pairs text with its (n, k, confined counts) triples,
    the work `_check_family` charged each pair. Pair syntax is
    checked first, then threads, seed, n, max-n and reps, then each pair's
    range and size, so an invocation with several faults always
    reports the same one, and every pair is checked before bench prints.
    """
    if "pairs" in args:
        args.pairs = _parse_pairs(args.pairs)
    if "threads" in args and args.threads < 1:
        raise PpmError(f"--threads must be >= 1, got {args.threads}")
    if "seed" in args and not 0 <= args.seed < 1 << 64:
        raise PpmError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    if "n" in args and not 1 <= args.n <= GEN_MAX_N:
        raise PpmError(f"--n must be in [1, {GEN_MAX_N}], got {args.n}")
    if "max_n" in args and not 1 <= args.max_n <= selftest.MAX_N:
        raise PpmError(f"--max-n must be in [1, {selftest.MAX_N}], got {args.max_n}")
    if "reps" in args and not 1 <= args.reps <= REPS_MAX:
        raise PpmError(f"--reps must be in [1, {REPS_MAX}], got {args.reps}")
    for i, (n, k) in enumerate(getattr(args, "pairs", ())):
        if not 1 <= k <= n <= GEN_MAX_N:
            raise PpmError(f"bad pair n={n} k={k}, need 1 <= k <= n <= {GEN_MAX_N}")
        args.pairs[i] = n, k, _check_family(args.algo, n, k)
