"""Exact permutation pattern matching: counting and detection.

The main entry points are :func:`count_ppm` and :func:`detect_ppm`. Counting
runs in O(n log n * 2^(n/2)) time. Detection may check each of a family
member's k//2 anchor prefixes at O(n log n) each, so it runs in
O(k n log n * 2^(n/2)) time in the worst case; both are O*(1.415^n) and
use O(n) space. `brute_force_count` and `bkm_count` provide two
independent slower routes to the same numbers for cross-validation and
benchmarking.
"""

from .core import (
    DuplicateValues,
    Embedding,
    EmptyInput,
    EmptySegment,
    InstanceTooLarge,
    InstanceTooSmall,
    LengthMismatch,
    MalformedToken,
    NotAPermutation,
    OrderViolation,
    OutOfRange,
    Permutation,
    PpmError,
    PpmInstance,
    SegmentDecomposition,
    format_permutation,
    is_solution,
    parse_permutation,
    pattern_of,
    respects,
    validate_decomposition,
)
from .dp import DpStats, count_respecting
from .oracle import bkm_count, brute_force_count, brute_force_enumerate
from .rng import SplitMix64, random_permutation
from .solver import (
    canonical_decomposition,
    count_ppm,
    decomposition_of_guess,
    detect_ppm,
    enumerate_guesses,
    family_size,
)

__version__ = "0.1.0"

__all__ = [
    "DpStats",
    "DuplicateValues",
    "Embedding",
    "EmptyInput",
    "EmptySegment",
    "InstanceTooLarge",
    "InstanceTooSmall",
    "LengthMismatch",
    "MalformedToken",
    "NotAPermutation",
    "OrderViolation",
    "OutOfRange",
    "Permutation",
    "PpmError",
    "PpmInstance",
    "SegmentDecomposition",
    "SplitMix64",
    "bkm_count",
    "brute_force_count",
    "brute_force_enumerate",
    "canonical_decomposition",
    "count_ppm",
    "count_respecting",
    "decomposition_of_guess",
    "detect_ppm",
    "enumerate_guesses",
    "family_size",
    "format_permutation",
    "is_solution",
    "parse_permutation",
    "pattern_of",
    "random_permutation",
    "respects",
    "validate_decomposition",
]
