import time
from fractions import Fraction as F
from itertools import product
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from symdex import (
    InvalidInput,
    NormKind,
    SparseVec,
    ZERO,
    as_length,
    as_scalar,
    dual_norm,
    dual_pair,
    format_scalar,
    linear_combination,
    norm,
    unit,
)
from symdex.vectors import signed_sums
from util import coords, norm_kinds, small_fractions, sparse_vecs


def test_linear_combination_cancellation():
    assert linear_combination([(1, unit(1)), (-1, unit(1))]) == ZERO


def test_linear_combination_disjoint():
    assert linear_combination([(2, unit(1)), (3, unit(2))]) == SparseVec({1: 2, 2: 3})


def test_linear_combination_scalar_multiple():
    v = SparseVec({1: 1, 2: 4})
    assert linear_combination([(F(1, 2), v)]) == SparseVec({1: F(1, 2), 2: 2})


@pytest.mark.parametrize(
    "kind,expected",
    [(NormKind.SUM, F(7)), (NormKind.SUP, F(4)), (NormKind.EUCLID, F(25))],
)
def test_norm_examples(kind, expected):
    assert norm(SparseVec({1: 3, 2: -4}), kind) == expected


def test_dual_pair_examples():
    assert dual_pair(unit(1), unit(1)) == 1
    assert dual_pair(unit(1), unit(2)) == 0
    assert dual_pair(SparseVec({1: F(1, 2), 3: -1}), SparseVec({1: 4, 3: 2})) == 0


def test_dual_norm_examples():
    f = SparseVec({1: F(1, 2), 2: F(1, 2)})
    assert dual_norm(f, NormKind.SUP) == 1
    assert dual_norm(f, NormKind.SUM) == F(1, 2)
    assert dual_norm(ZERO, NormKind.SUP) == 0


def test_canonical_form_drops_zeros_and_accumulates():
    v = SparseVec([(1, F(1, 2)), (1, F(-1, 2)), (2, 3)])
    assert v == SparseVec({2: 3})
    assert v.support == (2,)
    assert v.max_support == 2


def test_bad_coordinates_rejected():
    with pytest.raises(InvalidInput):
        SparseVec({0: 1})
    with pytest.raises(InvalidInput):
        SparseVec({-3: 1})


def test_json_roundtrip():
    v = SparseVec({1: F(1, 2), 7: -3})
    assert v.to_json() == {"1": "1/2", "7": "-3"}
    assert SparseVec.from_json(v.to_json()) == v


@given(sparse_vecs, sparse_vecs)
def test_triangle_inequality_sup_sum(u, v):
    for kind in (NormKind.SUP, NormKind.SUM):
        assert norm(u + v, kind) <= norm(u, kind) + norm(v, kind)


@given(sparse_vecs, sparse_vecs)
def test_cauchy_schwarz_squared(u, v):
    # rational-safe Euclidean triangle inequality: <u,v>^2 <= |u|^2 |v|^2
    pairing = dual_pair(u, v)
    assert pairing * pairing <= norm(u, NormKind.EUCLID) * norm(v, NormKind.EUCLID)


@given(sparse_vecs, sparse_vecs, norm_kinds)
def test_hoelder(f, v, kind):
    pairing = dual_pair(f, v)
    if kind is NormKind.EUCLID:
        assert pairing * pairing <= dual_norm(f, kind) * norm(v, kind)
    else:
        assert abs(pairing) <= dual_norm(f, kind) * norm(v, kind)


@given(sparse_vecs, sparse_vecs, sparse_vecs)
def test_linear_combination_associative_commutative(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert linear_combination([(1, u), (1, v)]) == u + v


@given(sparse_vecs)
def test_negation_and_scaling(v):
    assert v + (-v) == ZERO
    assert v.scale(2) == v + v
    assert v.scale(0) == ZERO


def test_as_length_squares_euclid():
    assert as_length(F(3, 2), NormKind.EUCLID) == F(9, 4)
    assert as_length(F(3, 2), NormKind.SUP) == F(3, 2)
    with pytest.raises(InvalidInput):
        as_length(F(-1), NormKind.SUP)


def test_format_scalar_writes_what_as_scalar_reads():
    # ints and Fractions print as they are, strings through as_scalar
    for value in (0, -4, F(6, 3), F(-3, 7), "0.5", " 2/4 "):
        assert format_scalar(value) == str(as_scalar(value))
    # a bool prints as 1 or 0, but as_scalar reads none: JSON true is no scalar
    assert (format_scalar(True), format_scalar(False)) == ("1", "0")
    for flag in (True, False):
        with pytest.raises(InvalidInput, match="not a rational"):
            as_scalar(flag)
        with pytest.raises(InvalidInput, match="not a rational"):
            SparseVec({1: flag})


def test_as_scalar_parses_strings():
    assert as_scalar("1/2") == F(1, 2)
    assert as_scalar("-3") == F(-3)
    with pytest.raises(InvalidInput, match="not a rational"):
        as_scalar("seven")


def test_as_scalar_accepts_integers_ratios_and_plain_decimals():
    assert as_scalar(" 7 ") == F(7)
    assert as_scalar("-3/4") == F(-3, 4)
    assert as_scalar("0.125") == F(1, 8)
    assert as_scalar("-.5") == F(-1, 2)


@pytest.mark.parametrize("text", ["1e-100000000", "1E-100000000", "2.5e3", "1e5", " 3E+2 "])
def test_as_scalar_rejects_exponent_notation(text):
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="exponent notation"):
        as_scalar(text)
    assert time.perf_counter() - start < 1.0


# characters of integers, ratios, decimals, signs and exponents, with
# whitespace and non-ASCII digits (Arabic-Indic one, fullwidth two)
scalar_texts = st.one_of(
    st.text(st.sampled_from("0123456789-+/._ eE\t\n\u0661\uff12"), max_size=8),
    st.sampled_from(["1/0", "-0", "0/5", "-0/1", "007/014", "1/00", "-", "/", "--1", "1/-2", "\u0661/2"]),
)


@given(scalar_texts)
def test_as_scalar_matches_fraction_on_strings(text):
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None or "e" in text or "E" in text:
        with pytest.raises(InvalidInput):
            as_scalar(text)
    else:
        result = as_scalar(text)
        assert result == expected and type(result) is F


def test_from_json_accumulates_a_repeated_coordinate_to_zero():
    v = SparseVec.from_json({"1": "1/2", "01": "-1/2"})
    assert v == ZERO and v.is_zero
    assert SparseVec.from_json({"2": "1/3", "02": "1/6"}) == SparseVec({2: F(1, 2)})


# -- differential check of the arithmetic kernel ---------------------------
#
# Every result built by the trusted constructor must be indistinguishable
# from the validating constructor applied to plain-dict arithmetic: the
# same reduced fields, hash, Fraction view and JSON.

raw_vecs = st.dictionaries(coords, small_fractions, max_size=5)


@st.composite
def cancelling_pairs(draw):
    """Two vectors whose shared coordinates often cancel under + or -."""
    u = SparseVec(draw(raw_vecs))
    entries = draw(raw_vecs)
    for i, x in u.items():
        pick = draw(st.sampled_from(("keep", "cancel_add", "cancel_sub")))
        if pick == "cancel_add":
            entries[i] = -x
        elif pick == "cancel_sub":
            entries[i] = x
    return u, SparseVec(entries)


def reference(terms) -> SparseVec:
    """sum(c * v) by plain dict arithmetic, then the validating constructor."""
    acc: dict = {}
    for c, v in terms:
        for i, x in v.items():
            acc[i] = acc.get(i, 0) + F(c) * x
    return SparseVec(acc)


def assert_fields(v: SparseVec) -> None:
    """The class invariant: a positive int denominator and nonzero int
    numerators at positive int coordinates, with no common factor."""
    assert type(v._den) is int and v._den > 0
    assert all(type(i) is int and i > 0 and type(n) is int and n != 0 for i, n in v._nums.items())
    assert gcd(v._den, *v._nums.values()) == 1
    assert v._den == 1 or v._nums


def assert_same_vector(result: SparseVec, expected: SparseVec) -> None:
    assert_fields(result)
    assert result == expected
    # every way of building an equal vector gives the same fields and hash
    for twin in (expected, SparseVec(dict(expected.items())), SparseVec.from_json(expected.to_json())):
        assert (result._den, result._nums) == (twin._den, twin._nums)
        assert hash(result) == hash(twin)
    assert list(result.items()) == list(expected.items())
    assert result.sort_key() == expected.sort_key()
    assert result.support == expected.support
    assert result.max_support == expected.max_support
    assert result.is_zero == (not expected.support)
    assert all(type(x) is F and x != 0 for _, x in result.items())
    assert list(result.items()) == sorted((i, F(n, result._den)) for i, n in result._nums.items())
    # JSON keys in coordinate order, values as format_scalar writes them
    assert list(result.to_json().items()) == [(str(i), format_scalar(x)) for i, x in result.items()]


def snapshot(v: SparseVec):
    return tuple(v.items()), v._den, dict(v._nums), hash(v)


@given(cancelling_pairs(), small_fractions)
def test_kernel_arithmetic_matches_dict_reference(pair, c):
    u, v = pair
    before = snapshot(u), snapshot(v)
    assert_same_vector(u + v, reference([(1, u), (1, v)]))
    assert_same_vector(u - v, reference([(1, u), (-1, v)]))
    assert_same_vector(v - u, reference([(1, v), (-1, u)]))
    assert_same_vector(u - u, ZERO)
    assert_same_vector(-u, reference([(-1, u)]))
    assert_same_vector(u.scale(c), reference([(c, u)]))
    assert_same_vector(c * v, reference([(c, v)]))
    assert_same_vector(u.scale(0), ZERO)
    assert (snapshot(u), snapshot(v)) == before


@given(
    st.lists(
        st.tuples(st.one_of(st.sampled_from((0, 1, -1, 2)), small_fractions), raw_vecs.map(SparseVec)),
        max_size=5,
    )
)
def test_linear_combination_matches_dict_reference(terms):
    before = [snapshot(v) for _, v in terms]
    assert_same_vector(linear_combination(terms), reference(terms))
    assert [snapshot(v) for _, v in terms] == before


@given(st.lists(raw_vecs.map(SparseVec), max_size=4))
def test_signed_sums_match_dict_reference(terms):
    before = [snapshot(v) for v in terms]
    sums = list(signed_sums(terms))
    patterns = list(product((1, -1), repeat=len(terms)))
    assert len(sums) == len(patterns)
    for result, signs in zip(sums, patterns):
        assert_same_vector(result, reference(zip(signs, terms)))
    assert [snapshot(v) for v in terms] == before
