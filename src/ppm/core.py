"""Domain types and predicates for permutation pattern matching.

Everything is 1-based at the API surface: a length-n permutation maps
positions 1..n to values 1..n, an embedding maps pattern positions 1..k to
text positions, and segment bounds index into 1..n. Storage is plain
0-based tuples internally; the offset never leaks across a function
boundary.

All types are immutable and hashable and every operation is pure, so
values can be shared freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence


class PpmError(ValueError):
    """Base class for every domain error raised by this package."""


class EmptyInput(PpmError):
    """No values were supplied where at least one is required."""


class MalformedToken(PpmError):
    """A token is not an unsigned decimal integer."""


class NotAPermutation(PpmError):
    """Duplicate, out-of-range, or missing value in one-line notation."""


class DuplicateValues(PpmError):
    """Values that must be pairwise distinct are not."""


class LengthMismatch(PpmError):
    """Two sequences that must have equal length do not."""


class EmptySegment(PpmError):
    """A segment has lower bound above its upper bound."""


class OutOfRange(PpmError):
    """An index or bound leaves the ambient range [1, n]."""


class OrderViolation(PpmError):
    """A sequence that must be (weakly or strictly) increasing is not."""


class InstanceTooSmall(PpmError):
    """The text is too short for the pattern (k > n or an empty domain)."""


class InstanceTooLarge(PpmError):
    """The instance exceeds a size cap meant for exhaustive routines."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    ``values[i-1]`` holds the value at position i; calling the object with
    a 1-based position returns that value.

    >>> p = Permutation((3, 2, 5, 4, 1))
    >>> len(p), p(1), p(5)
    (5, 3, 1)
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        n = len(self.values)
        if n == 0:
            raise EmptyInput("a permutation has at least one entry")
        seen = [False] * n
        for v in self.values:
            if not 1 <= v <= n:
                raise NotAPermutation(f"value {v} not in 1..{n}")
            if seen[v - 1]:
                raise NotAPermutation(f"value {v} appears more than once")
            seen[v - 1] = True

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, position: int) -> int:
        """Value at a 1-based position."""
        if not 1 <= position <= len(self.values):
            raise OutOfRange(f"position {position} not in 1..{len(self.values)}")
        return self.values[position - 1]

    @cached_property
    def inverse_values(self) -> tuple[int, ...]:
        """``inverse_values[v-1]`` is the 1-based position holding value v."""
        inv = [0] * len(self.values)
        for pos, v in enumerate(self.values, start=1):
            inv[v - 1] = pos
        return tuple(inv)


@dataclass(frozen=True)
class PpmInstance:
    """A matching instance: look for ``pattern`` inside ``sigma``.

    Instances with a pattern longer than the text are rejected outright
    rather than treated as count 0; such a call is a caller bug.
    """

    sigma: Permutation
    pattern: Permutation
    # The text and pattern lengths, set once at construction: every route
    # reads them on every call. Derived, so kept out of equality, hash and repr.
    n: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.sigma.values)
        k = len(self.pattern.values)
        if k > n:
            raise InstanceTooSmall(f"pattern length k={k} exceeds text length n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class Embedding:
    """Strictly increasing text positions f(1) < ... < f(k).

    Strict increase is enforced at construction, so the left-to-right
    position constraints of a candidate occurrence hold by type.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise EmptyInput("an embedding has at least one position")
        if self.values[0] < 1:
            raise OutOfRange(f"position {self.values[0]} below 1")
        for a, b in zip(self.values, self.values[1:]):
            if a >= b:
                raise OrderViolation(f"positions not strictly increasing: {a} >= {b}")


@dataclass(frozen=True)
class SegmentDecomposition:
    """k position intervals (l_i, r_i) over a length-n text.

    Construction accepts any pairs; well-formedness (nonempty segments
    inside [1, n], consecutive segments overlapping in at most one
    position) is checked by :func:`validate_decomposition`.
    """

    segments: tuple[tuple[int, int], ...]
    n: int

    def __post_init__(self) -> None:
        segs = self.segments
        if not (isinstance(segs, tuple) and (not segs or isinstance(segs[0], tuple))):
            object.__setattr__(self, "segments", tuple((s[0], s[1]) for s in segs))
        if not self.segments:
            raise EmptyInput("a decomposition has at least one segment")


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation: integers separated by whitespace and/or commas.

    >>> parse_permutation("3 2 5 4 1").values
    (3, 2, 5, 4, 1)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise EmptyInput("no values given")
    out = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise MalformedToken(f"not an unsigned decimal integer: {tok!r}")
        digits = tok.lstrip("0") or "0"
        try:
            out.append(int(digits))
        except ValueError:  # past the interpreter's limit on digits per int
            raise NotAPermutation(
                f"value of {len(digits)} digits not in 1..{len(tokens)}"
            ) from None
    return Permutation(tuple(out))


def format_permutation(p: Permutation) -> str:
    """One-line notation as space-separated decimals, no brackets."""
    return " ".join(map(str, p.values))


def pattern_of(values: Sequence[int]) -> Permutation:
    """Relative order of distinct integers, smallest mapped to 1.

    Accepts arbitrary distinct integers, not only 1..m, so subsequences of
    a text can be ranked directly.

    >>> pattern_of((3, 5, 4)).values
    (1, 3, 2)
    """
    vals = tuple(values)
    if not vals:
        raise EmptyInput("no values given")
    if len(set(vals)) != len(vals):
        raise DuplicateValues("values must be pairwise distinct")
    rank = {v: i for i, v in enumerate(sorted(vals), start=1)}
    return Permutation(tuple(rank[v] for v in vals))


def is_solution(instance: PpmInstance, f: Embedding) -> bool:
    """Whether f is an occurrence of the pattern in the text.

    Position order holds by construction of Embedding; what remains is the
    value order: visiting the chosen positions in increasing order of
    their pattern value must read strictly increasing text values.
    Equivalent to ``pattern_of(sigma at f) == pattern``.
    """
    fv = f.values
    if len(fv) != instance.k:
        raise LengthMismatch(f"embedding length {len(fv)} != pattern length {instance.k}")
    if fv[-1] > instance.n:
        raise OutOfRange(f"position {fv[-1]} beyond text length {instance.n}")
    sv = instance.sigma.values
    prev = 0
    for p in instance.pattern.inverse_values:
        cur = sv[fv[p - 1] - 1]
        if cur < prev:
            return False
        prev = cur
    return True


def respects(f: Embedding, d: SegmentDecomposition) -> bool:
    """Whether every f(i) lies inside segment i of d."""
    if len(f.values) != len(d.segments):
        raise LengthMismatch(
            f"embedding length {len(f.values)} != segment count {len(d.segments)}"
        )
    return all(lo <= v <= hi for v, (lo, hi) in zip(f.values, d.segments))


def validate_decomposition(d: SegmentDecomposition) -> None:
    """Raise unless d is well formed.

    Checks, in order: every segment is nonempty (EmptySegment), lies
    inside [1, n] (OutOfRange), and consecutive segments overlap in at
    most one position (OrderViolation).

    Together these say 1 <= l1 <= r1 <= l2 <= ... <= rk <= n, which one
    chained comparison per segment settles; only a decomposition that
    fails it goes through the checks above to find its error.
    """
    n = d.n
    prev = 1
    for lo, hi in d.segments:
        if not prev <= lo <= hi:
            break
        prev = hi
    else:
        if prev <= n:
            return
    for i, (lo, hi) in enumerate(d.segments, start=1):
        if lo > hi:
            raise EmptySegment(f"segment {i} is empty: [{lo}, {hi}]")
        if lo < 1 or hi > n:
            raise OutOfRange(f"segment {i} = [{lo}, {hi}] leaves [1, {n}]")
    segs = d.segments
    for i in range(len(segs) - 1):
        if segs[i][1] > segs[i + 1][0]:
            raise OrderViolation(
                f"segments {i + 1} and {i + 2} overlap in more than one position: "
                f"{segs[i]} then {segs[i + 1]}"
            )
