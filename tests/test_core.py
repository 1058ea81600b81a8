"""Domain layer: parsing, formatting, the two predicates, validation.

Claims checked here:
    - parse/format are exact inverses on valid one-line notation
    - pattern_of ranks arbitrary distinct integers, smallest to 1
    - is_solution agrees with the rank-and-compare route on random inputs
    - respects is monotone under segment enlargement
    - constructors enforce the type invariants (bijection, k <= n,
      strictly increasing embeddings) with the documented errors
    - an instance stores n and k at construction, outside equality, hash
      and repr
    - validate_decomposition raises exactly when 1 <= l1 <= r1 <= l2 <= ...
      <= rk <= n fails, with the error the per-rule checks give, on every
      small decomposition
"""

import random
from dataclasses import FrozenInstanceError
from itertools import chain, product

import pytest

from ppm.core import (
    DuplicateValues,
    Embedding,
    EmptyInput,
    EmptySegment,
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
from ppm.selftest import random_instance


# -- parsing and formatting --------------------------------------------------


def test_parse_basic():
    assert parse_permutation("3 2 5 4 1").values == (3, 2, 5, 4, 1)
    assert parse_permutation("1").values == (1,)
    # Leading zeros of any length are tolerated, even past the interpreter's
    # limit on digits per int conversion.
    assert parse_permutation("02 " + "0" * 5000 + "1").values == (2, 1)


def test_parse_separators():
    assert parse_permutation("3,2,5,4,1") == parse_permutation("3 2 5 4 1")
    assert parse_permutation(" 2 ,1 ").values == (2, 1)


def test_parse_rejects_duplicates():
    with pytest.raises(NotAPermutation):
        parse_permutation("1 1 2")


def test_parse_rejects_out_of_range_and_missing():
    with pytest.raises(NotAPermutation):
        parse_permutation("1 3")  # 2 missing, 3 out of range for n=2
    with pytest.raises(NotAPermutation):
        parse_permutation("0 1")
    # A value too long to convert is out of range; the message leaves it out.
    with pytest.raises(NotAPermutation, match=r"^value of 5000 digits not in 1\.\.2$"):
        parse_permutation("1 " + "9" * 5000)
    with pytest.raises(NotAPermutation, match=r"^value of 5000 digits not in 1\.\.1$"):
        parse_permutation("0" * 3 + "9" * 5000)


def test_parse_rejects_empty_and_garbage():
    with pytest.raises(EmptyInput):
        parse_permutation("   ")
    with pytest.raises(MalformedToken):
        parse_permutation("1 x 2")
    with pytest.raises(MalformedToken):
        parse_permutation("+1 2")
    with pytest.raises(MalformedToken):
        parse_permutation("-1 2")


def test_format_no_brackets():
    assert format_permutation(Permutation((3, 2, 5, 4, 1))) == "3 2 5 4 1"


def test_parse_format_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        vals = list(range(1, rng.randint(1, 40) + 1))
        rng.shuffle(vals)
        p = Permutation(tuple(vals))
        assert parse_permutation(format_permutation(p)) == p


# -- pattern_of --------------------------------------------------------------


@pytest.mark.parametrize(
    "values,expected",
    [
        ((3, 5, 4), (1, 3, 2)),
        ((2, 5, 4), (1, 3, 2)),
        ((10, 20, 30), (1, 2, 3)),
        ((7,), (1,)),
        ((-5, 0, -9), (2, 3, 1)),
    ],
)
def test_pattern_of(values, expected):
    assert pattern_of(values).values == expected


def test_pattern_of_errors():
    with pytest.raises(EmptyInput):
        pattern_of(())
    with pytest.raises(DuplicateValues):
        pattern_of((4, 4))


# -- is_solution -------------------------------------------------------------


def test_is_solution_known_positive():
    inst = PpmInstance(
        Permutation((8, 1, 3, 9, 5, 4, 2, 7, 6)), Permutation((5, 2, 3, 1, 4))
    )
    assert is_solution(inst, Embedding((1, 3, 5, 7, 9)))


def test_is_solution_identity():
    inst = PpmInstance(Permutation((1, 2, 3)), Permutation((1, 2, 3)))
    assert is_solution(inst, Embedding((1, 2, 3)))


def test_is_solution_negative():
    inst = PpmInstance(Permutation((3, 2, 5, 4, 1)), Permutation((1, 3, 2)))
    # rank route: sigma on (1,2,3) is (3,2,5) whose pattern is (2,1,3)
    assert pattern_of((3, 2, 5)).values == (2, 1, 3)
    assert not is_solution(inst, Embedding((1, 2, 3)))


def test_is_solution_length_mismatch():
    inst = PpmInstance(Permutation((2, 1)), Permutation((1,)))
    with pytest.raises(LengthMismatch):
        is_solution(inst, Embedding((1, 2)))


def test_is_solution_position_beyond_text():
    inst = PpmInstance(Permutation((2, 1)), Permutation((1, 2)))
    with pytest.raises(OutOfRange):
        is_solution(inst, Embedding((1, 5)))


def test_is_solution_matches_rank_route_random():
    rng = random.Random(11)
    for _ in range(500):
        inst = random_instance(rng, rng.randint(1, 10))
        f = Embedding(tuple(sorted(rng.sample(range(1, inst.n + 1), inst.k))))
        via_ranks = pattern_of([inst.sigma(p) for p in f.values]) == inst.pattern
        assert is_solution(inst, f) == via_ranks


# -- respects ----------------------------------------------------------------


def test_respects_examples():
    d = SegmentDecomposition(((1, 2), (2, 3), (3, 6), (6, 7), (7, 9)), 9)
    assert respects(Embedding((1, 3, 5, 7, 9)), d)
    assert respects(Embedding((1, 2)), SegmentDecomposition(((1, 1), (2, 2)), 2))
    assert not respects(Embedding((2, 3)), SegmentDecomposition(((1, 1), (2, 9)), 9))


def test_respects_length_mismatch():
    with pytest.raises(LengthMismatch):
        respects(Embedding((1,)), SegmentDecomposition(((1, 1), (2, 2)), 2))


def test_respects_monotone_under_enlargement():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, n)
        f = Embedding(tuple(sorted(rng.sample(range(1, n + 1), k))))
        segs = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(k))
        segs = tuple((min(a, b), max(a, b)) for a, b in segs)
        d = SegmentDecomposition(segs, n)
        if not respects(f, d):
            continue
        wider = tuple(
            (max(1, lo - rng.randint(0, 3)), min(n, hi + rng.randint(0, 3)))
            for lo, hi in segs
        )
        assert respects(f, SegmentDecomposition(wider, n))


# -- validate_decomposition --------------------------------------------------


def test_validate_ok_cases():
    validate_decomposition(SegmentDecomposition(((1, 2), (2, 3), (4, 7), (7, 8)), 8))
    validate_decomposition(SegmentDecomposition(((1, 1),), 1))


def test_validate_order_violation():
    with pytest.raises(OrderViolation):
        validate_decomposition(SegmentDecomposition(((1, 5), (1, 5)), 5))


def test_validate_empty_segment():
    with pytest.raises(EmptySegment):
        validate_decomposition(SegmentDecomposition(((3, 2),), 5))


def test_validate_out_of_range():
    with pytest.raises(OutOfRange):
        validate_decomposition(SegmentDecomposition(((0, 2),), 5))
    with pytest.raises(OutOfRange):
        validate_decomposition(SegmentDecomposition(((1, 6),), 5))


def _validate_by_rules(d):
    # The per-rule checks alone, as validate_decomposition ran them before
    # its chained-comparison fast path: the reference for which error it gives.
    n = d.n
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


def _outcome(validate, d):
    try:
        validate(d)
    except PpmError as e:
        return type(e), str(e)
    return None


def test_validate_matches_chain_and_rules_exhaustively():
    checked = valid = 0
    for n in range(5):
        pairs = list(product(range(n + 2), repeat=2))
        for m in (1, 2, 3):
            for segs in product(pairs, repeat=m):
                d = SegmentDecomposition(segs, n)
                bounds = [1, *chain.from_iterable(segs), n]
                well_formed = all(a <= b for a, b in zip(bounds, bounds[1:]))
                got = _outcome(validate_decomposition, d)
                assert (got is None) == well_formed, segs
                assert got == _outcome(_validate_by_rules, d), segs
                checked += 1
                valid += well_formed
    assert checked == sum(((n + 2) ** 2) ** m for n in range(5) for m in (1, 2, 3))
    assert 0 < valid < checked


# -- type invariants ---------------------------------------------------------


def test_permutation_call_is_one_based():
    p = Permutation((3, 1, 2))
    assert (p(1), p(2), p(3)) == (3, 1, 2)
    with pytest.raises(OutOfRange):
        p(0)
    with pytest.raises(OutOfRange):
        p(4)


def test_permutation_rejects_empty():
    with pytest.raises(EmptyInput):
        Permutation(())


def test_instance_rejects_long_pattern():
    with pytest.raises(InstanceTooSmall, match="^pattern length k=3 exceeds text length n=2$"):
        PpmInstance(Permutation((2, 1)), Permutation((1, 2, 3)))


def test_instance_states_n_and_k_once():
    inst = PpmInstance(Permutation((3, 1, 4, 2)), Permutation((2, 1)))
    # Set at construction, not on first read: both are already stored.
    assert vars(inst)["n"] == 4 == len(inst.sigma)
    assert vars(inst)["k"] == 2 == len(inst.pattern)
    with pytest.raises(FrozenInstanceError):
        inst.n = 5
    # Derived from the two fields, so they leave equality, hash and repr alone.
    twin = PpmInstance(Permutation((3, 1, 4, 2)), Permutation((2, 1)))
    assert twin == inst and hash(twin) == hash(inst)
    assert twin != PpmInstance(Permutation((3, 1, 4, 2)), Permutation((1, 2)))
    assert repr(inst) == (
        "PpmInstance(sigma=Permutation(values=(3, 1, 4, 2)), pattern=Permutation(values=(2, 1)))"
    )


def test_embedding_must_strictly_increase():
    with pytest.raises(OrderViolation):
        Embedding((1, 1))
    with pytest.raises(OrderViolation):
        Embedding((3, 2))
    with pytest.raises(OutOfRange):
        Embedding((0, 1))
    with pytest.raises(EmptyInput):
        Embedding(())
    # A list goes through the same checks as a tuple.
    with pytest.raises(OrderViolation):
        Embedding([3, 2])
    with pytest.raises(EmptyInput):
        Embedding([])


def test_types_hashable_and_immutable():
    p = Permutation((2, 1))
    assert {p: 1}[Permutation((2, 1))] == 1
    d = SegmentDecomposition(((1, 1), (2, 2)), 2)
    assert d in {d}
    with pytest.raises(Exception):
        p.values = (1, 2)
    # Built from lists, each type equals its tuple-built value and hashes alike.
    for built, want in (
        (Permutation([2, 1]), p),
        (Embedding([1, 3]), Embedding((1, 3))),
        (SegmentDecomposition([[1, 1], [2, 2]], 2), d),
        (SegmentDecomposition([(1, 1), (2, 2)], 2), d),
    ):
        assert built == want and hash(built) == hash(want)
    for empty in ((), []):
        with pytest.raises(EmptyInput):
            SegmentDecomposition(empty, 2)
