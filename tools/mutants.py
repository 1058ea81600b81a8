"""Mutation check: every listed mutant must make one of its tests fail.

    python3 tools/mutants.py

Run from anywhere inside a git checkout. HEAD is extracted with
``git archive`` into a temporary directory, which is removed at the end;
no worktree is made and ``.git`` is only read. In that copy each mutant
in MUTANTS replaces its ``old`` text, which must occur exactly once in
its file, with ``new``; only that mutant's tests then run, with
``pytest -x``, and the file is restored before the next mutant. A mutant
is killed when a test fails, survived when its tests pass, and an error
when pytest could not run them (a bad test id, say). One line per mutant
names the first failing test of a killed one. The exit status is 1 if
any mutant survived or erred, and 2, before any test runs, if an ``old``
text does not occur exactly once.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import _extract  # noqa: E402

RUN_TIMEOUT_S = 600  # a mutant that hangs its tests counts as killed

ORACLE = "src/ppm/oracle.py"
ORACLE_TESTS = (
    "tests/test_oracle.py::test_enumerate_matches_definition_exhaustively",
    "tests/test_oracle.py::test_count_examples",
)

MUTANTS = [
    {
        "name": "brute value room: lower bound one tighter",
        "file": ORACLE,
        "old": "lo = placed[below] + rise\n",
        "new": "lo = placed[below] + rise + 1\n",
        "tests": ORACLE_TESTS,
    },
    {
        "name": "brute value room: upper bound one tighter",
        "file": ORACLE,
        "old": "hi = placed[above] - fall\n",
        "new": "hi = placed[above] - fall - 1\n",
        "tests": ORACLE_TESTS,
    },
    {
        "name": "brute leaf: visit before the last position is set",
        "file": ORACLE,
        "old": "positions[j] = pos\n                    visit(positions)\n",
        "new": "visit(positions)\n                    positions[j] = pos\n",
        "tests": ORACLE_TESTS,
    },
    {
        "name": "fast charge: width n // 2 with the dead members",
        "file": "src/ppm/cli.py",
        "old": "m = solver._live_n(n, k) // 2 if",
        "new": "m = n // 2 if",
        "tests": ("tests/test_cli.py::test_bench_column_is_the_confined_counts_run",),
    },
    {
        "name": "bkm charge: width n with the infeasible guesses",
        "file": "src/ppm/cli.py",
        "old": "else oracle._guess_width(n, k)\n",
        "new": "else n\n",
        "tests": ("tests/test_cli.py::test_bench_column_is_the_confined_counts_run",),
    },
]


def misplaced(tree: Path) -> list[str]:
    """One line for each mutant whose ``old`` text does not occur exactly once in its file under `tree`."""
    out = []
    for m in MUTANTS:
        hits = (tree / m["file"]).read_text().count(m["old"])
        if hits != 1:
            out.append(f"{m['name']}: old text occurs {hits} times in {m['file']}")
    return out


def run_mutant(tree: Path, mutant: dict) -> tuple[str, str]:
    """(outcome, detail) of one mutant: killed, survived or error.

    The detail of a killed mutant is its first failing test.
    """
    path = tree / mutant["file"]
    original = path.read_text()
    path.write_text(original.replace(mutant["old"], mutant["new"]))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {RUN_TIMEOUT_S} s"
    finally:
        path.write_text(original)
    if proc.returncode == 0:
        return "survived", ""
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return "killed", failed[0]
    tail = (proc.stdout + proc.stderr).strip().splitlines()
    return "error", f"pytest exit {proc.returncode}: {tail[-1] if tail else 'no output'}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _extract("HEAD", tree)
        bad = misplaced(tree)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 2
        ok = True
        for mutant in MUTANTS:
            outcome, detail = run_mutant(tree, mutant)
            ok &= outcome == "killed"
            print(f"{outcome:8s} {mutant['name']}{'  ' + detail if detail else ''}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
