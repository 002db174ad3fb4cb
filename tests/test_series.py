from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from symdex import (
    NormKind,
    NotAchievable,
    SeriesSpec,
    SignMode,
    SignSums,
    SparseVec,
    ZERO,
    brute_tail_sup,
    contains,
    delta_lower,
    norm,
    sign_sum_set,
    symmetrize,
    unconditional_tail_bound,
    unit,
    wuc_bound,
)
from symdex.series import _witness_cover_index
from symdex.sets import enumerate_members
from symdex.vectors import as_length, linear_combination, signed_sums


def canonical(h, kind=NormKind.SUP):
    return SeriesSpec(tuple(unit(n) for n in range(1, h + 1)), kind, "canonical")


def geometric(h, kind=NormKind.SUM):
    return SeriesSpec(tuple(unit(n, F(1, 2 ** n)) for n in range(1, h + 1)), kind, "geometric")


def test_wuc_bound_examples():
    assert wuc_bound(canonical(8)) == 1
    assert wuc_bound(geometric(10)) == 1 - F(1, 1024)
    stacked = SeriesSpec(
        tuple(unit(1, F(1, n)) for n in range(1, 5)), NormKind.SUP, "stacked"
    )
    assert wuc_bound(stacked) == F(25, 12)


def test_wuc_bound_overlapping_sum_model():
    terms = (SparseVec({1: 1, 2: 1}), SparseVec({1: 1, 2: -1}))
    series = SeriesSpec(terms, NormKind.SUM, "overlap")
    # best pattern: x_1 + x_2 = (2, 0) or x_1 - x_2 = (0, 2); either has sum-norm 2
    assert wuc_bound(series) == 2


def test_sign_sum_set_modes():
    prefixes = sign_sum_set(canonical(2), SignMode.PREFIXES)
    subsets = sign_sum_set(canonical(2), SignMode.SUBSETS)
    pv = set(enumerate_members(prefixes, 100))
    sv = set(enumerate_members(subsets, 100))
    assert pv == {
        unit(1), -unit(1),
        unit(1) + unit(2), unit(1) - unit(2), -unit(1) + unit(2), -unit(1) - unit(2),
    }
    assert sv == pv | {ZERO, unit(2), -unit(2)}


def test_sign_sum_set_zero_series():
    zero_series = SeriesSpec((ZERO,), NormKind.SUP, "zero")
    for mode in SignMode:
        values = set(enumerate_members(sign_sum_set(zero_series, mode), 10))
        assert values == {ZERO}


def test_tail_bound_geometric():
    s = geometric(10)
    tail = unconditional_tail_bound(s, F(1, 8))
    assert tail.M == 3
    assert tail.diameter_upper < F(1, 4)
    assert brute_tail_sup(s, tail.M + 1, 10) == F(1, 8) - F(1, 1024) <= F(1, 8)


def test_tail_bound_not_achievable_for_canonical_basis():
    s = canonical(10)
    with pytest.raises(NotAchievable) as exc:
        unconditional_tail_bound(s, F(1, 2))
    cert = exc.value.lower_certificate
    assert cert is not None and cert.value >= 1


def test_tail_bound_zero_series():
    zero_series = SeriesSpec((ZERO, ZERO, ZERO), NormKind.SUP, "zeros")
    tail = unconditional_tail_bound(zero_series, F(1, 2))
    assert tail.M == 1


def test_brute_tail_sup_examples():
    s = geometric(10)
    assert brute_tail_sup(s, 4, 10) == F(1, 8) - F(1, 1024)
    assert brute_tail_sup(canonical(10), 3, 7) == 1
    assert brute_tail_sup(s, 5, 5) == F(1, 32)


def test_harness_soundness_replay():
    for h, eps in ((8, F(1, 4)), (10, F(1, 8)), (12, F(1, 16))):
        s = geometric(h)
        tail = unconditional_tail_bound(s, eps)
        if tail.M < h:
            assert brute_tail_sup(s, tail.M + 1, min(tail.M + 13, h)) <= eps


def test_contrapositive_lower_bound():
    expr = sign_sum_set(canonical(10), SignMode.SUBSETS)
    for n in (1, 2, 5):
        assert delta_lower(expr, n, NormKind.SUP).bound.lower >= 1


def test_wuc_dominates_partial_sums():
    s = canonical(6)
    cap = wuc_bound(s)
    for signs in product((1, -1), repeat=6):
        for m in range(1, 7):
            partial = linear_combination(zip(signs[:m], s.terms[:m]))
            assert norm(partial, s.norm) <= cap


def test_tail_witnesses_are_members():
    s = geometric(10)
    tail = unconditional_tail_bound(s, F(1, 8))
    expr = sign_sum_set(s, SignMode.SUBSETS)
    for w in tail.witnesses:
        assert contains(expr, w)


def test_wuc_budget_exceeded():
    from symdex import BudgetExceeded

    terms = tuple(SparseVec({1: 1, n: 1}) for n in range(2, 28))
    series = SeriesSpec(terms, NormKind.SUM, "wide")
    with pytest.raises(BudgetExceeded):
        wuc_bound(series, budget=2 ** 10)


def test_brute_tail_sup_window_budget():
    from symdex import BudgetExceeded

    s = canonical(25)
    with pytest.raises(BudgetExceeded):
        brute_tail_sup(s, 1, 25)


def test_tail_bound_overlapping_supports():
    # shrinking terms sharing one coordinate: witness cover indices must
    # come from sign-sum decompositions, not support overlap
    terms = tuple(SparseVec({1: F(1, 4 ** n), n + 1: F(1, 4 ** n)}) for n in range(1, 7))
    overlap = SeriesSpec(terms, NormKind.SUM, "overlap")
    tail = unconditional_tail_bound(overlap, F(1, 2))
    assert tail.M == 1
    assert brute_tail_sup(overlap, tail.M + 1, overlap.horizon) <= F(1, 2)


def test_wuc_closed_form_matches_pattern_enumeration():
    # dual route: the sup-model column-sum closed form equals the exact
    # max over sign patterns of the sup norm of the signed sum
    import random as _random

    rng = _random.Random(8)
    for _ in range(15):
        h = rng.randint(1, 5)
        terms = []
        for _ in range(h):
            support = rng.sample(range(1, 5), k=rng.randint(0, 3))
            terms.append(
                SparseVec({i: F(rng.randint(-4, 4), rng.randint(1, 3)) for i in support})
            )
        s = SeriesSpec(tuple(terms), NormKind.SUP, "random")
        closed = wuc_bound(s)
        brute = max(
            norm(linear_combination(zip(signs, terms)), NormKind.SUP)
            for signs in product((1, -1), repeat=h)
        )
        assert closed == brute


def linear_cover_index(s, w):
    """The smallest subset-sum prefix holding ``w``, by trying every one."""
    for m in range(1, s.horizon + 1):
        if contains(SignSums(s, SignMode.SUBSETS, m), w):
            return m
    return None


short_terms = st.dictionaries(
    st.integers(1, 3), st.fractions(min_value=-2, max_value=2, max_denominator=2), max_size=2
).map(SparseVec)
overlapping_series = (
    st.lists(short_terms, min_size=2, max_size=6)
    .map(lambda terms: SeriesSpec(tuple(terms), NormKind.SUP, "overlap"))
    .filter(lambda s: not s.disjoint_supports())
)


@settings(max_examples=150, deadline=None)
@given(overlapping_series, st.data())
def test_cover_index_bisection_matches_linear_scan(s, data):
    sign_sum = st.lists(
        st.sampled_from((-1, 0, 1)), min_size=s.horizon, max_size=s.horizon
    ).map(lambda cs: linear_combination(zip(cs, s.terms)))
    # arbitrary short vectors are mostly not sign sums of the series
    w = data.draw(st.one_of(sign_sum, short_terms))
    if contains(SignSums(s, SignMode.SUBSETS, s.horizon), w):
        assert _witness_cover_index(s, w, s.horizon) == linear_cover_index(s, w)
    else:
        assert linear_cover_index(s, w) is None


short_series = st.lists(short_terms, min_size=1, max_size=6).map(
    lambda terms: SeriesSpec(tuple(terms), NormKind.SUP, "short")
)


@settings(max_examples=100, deadline=None)
@given(short_series)
def test_cover_index_of_a_prefix_sum_matches_the_full_horizon_bisection(s):
    acc = ZERO
    for k, t in enumerate(s.terms, start=1):
        acc = acc + t
        full = _witness_cover_index(s, acc, s.horizon)
        assert full <= k
        assert _witness_cover_index(s, acc, k) == full == linear_cover_index(s, acc)


def test_tail_bound_symmetrizes_at_its_checked_prefix_sums(tmp_path, monkeypatch):
    # a prefix sum is a subset sum, so each witness is searched for its
    # cover index only, not again before it is symmetrized
    import hashlib
    import json

    from symdex.cli import main
    from test_golden import OVERLAP12, OVERLAP12_DIGESTS

    searches = []
    search = SignSums._search
    monkeypatch.setattr(SignSums, "_search", lambda *args: searches.append(args) or search(*args))
    infile, report = tmp_path / "overlap12.json", tmp_path / "report.json"
    infile.write_text(json.dumps(OVERLAP12))
    assert main(["series", "--in", str(infile), "--epsilon", "1/8", "--seed", "11", "--out", str(report)]) == 0
    assert len(searches) == 26
    assert hashlib.sha256(report.read_bytes()).hexdigest() == OVERLAP12_DIGESTS["series"][0]


@settings(max_examples=100, deadline=None)
@given(st.lists(short_terms, min_size=4, max_size=7))
def test_wuc_sum_sign_vector_route_matches_the_pattern_enumeration(terms):
    # over at most 3 coordinates and at least 4 terms, the sum norm takes
    # the dual route: sign vectors of the coordinates
    s = SeriesSpec(tuple(terms), NormKind.SUM, "overlap")
    assume(not s.disjoint_supports())
    assert wuc_bound(s) == max(norm(d, NormKind.SUM) for d in signed_sums(s.terms))


tail_series = st.builds(
    lambda terms, kind, shrink: SeriesSpec(
        tuple(t.scale(F(1, 2 ** n)) if shrink else t for n, t in enumerate(terms, start=1)), kind, "short"
    ),
    st.lists(short_terms, min_size=2, max_size=7),
    st.sampled_from(list(NormKind)),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(tail_series, st.sampled_from([F(1, 8), F(1, 2), F(1), F(2)]))
def test_tail_sign_sums_lie_in_the_witness_symmetrization(s, epsilon):
    # the tail bound replays no sign sum: past the cover index M of the
    # witness w they lie in Sym(A; {w}), whose diameter is below 2*epsilon
    # (README, "Tail bounds")
    try:
        tail = unconditional_tail_bound(s, epsilon)
    except NotAchievable:
        return
    (w,) = tail.witnesses
    sym = symmetrize(sign_sum_set(s, SignMode.SUBSETS), [w])
    for d in signed_sums(s.terms[tail.M : min(tail.M + 12, s.horizon)]):
        assert contains(sym, d)
        assert norm(d, s.norm) <= as_length(epsilon, s.norm)
