import gc
import json
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction as F
from itertools import count, product

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from symdex import (
    AbsConvHull,
    Box,
    DepthExceeded,
    FinitePoints,
    Intersect,
    InvalidInput,
    Negate,
    NormKind,
    SearchStrategy,
    SeriesSpec,
    SignMode,
    SignSums,
    SparseVec,
    SymdexError,
    Symmetrized,
    Translate,
    UnboundedDiameter,
    WitnessNotMember,
    ZERO,
    contains,
    coordinate_relaxation,
    default_pool,
    delta0,
    delta_curve,
    delta_upper,
    diameter,
    diameter_upper,
    dual_pair,
    eps_extreme,
    eps_strong_extreme,
    free_direction,
    linear_combination,
    set_from_json,
    set_to_json,
    sup_functional,
    symmetrize,
    unit,
    wuc_bound,
)
from symdex.bruteforce import brute_diameter, brute_symmetrized
from symdex import exactlp
from symdex.exactlp import INFEASIBLE
from symdex import sets as sets_module
from symdex.vectors import integer_rows
from symdex.sets import (
    DEFAULT_ENUM_BUDGET,
    MEMO_SIZE,
    _symmetric_pair_bound,
    enumerate_members,
    sample_members,
)
from symdex.vectors import double_length, norm
from util import ALL_NORMS, dense_solve_lp, finite_sets, norm_kinds, reference_symmetrized_members


def canonical_series(h, kind=NormKind.SUP):
    return SeriesSpec(tuple(unit(n) for n in range(1, h + 1)), kind, "canonical")


# ---------------------------------------------------------------------------
# membership


def test_box_contains_unit_vectors():
    assert contains(Box(F(1)), unit(5))
    assert not contains(Box(F(1)), unit(5, 2))
    assert contains(Box(F(1), ((1, F(2)),)), unit(1, 2))


def test_symmetrized_box_excludes_pinned_direction():
    sym = Symmetrized(Box(F(1)), (unit(1),))
    assert not contains(sym, unit(1))  # e_1 + e_1 leaves the box
    assert contains(sym, unit(2))


def test_sign_sums_membership():
    expr = SignSums(canonical_series(3), SignMode.SUBSETS, 3)
    assert contains(expr, unit(1) - unit(3))
    assert contains(expr, ZERO)
    assert not contains(expr, unit(1, 2))


def test_sign_sums_prefix_membership():
    expr = SignSums(canonical_series(3), SignMode.PREFIXES, 3)
    assert contains(expr, unit(1))
    assert contains(expr, unit(1) - unit(2))
    assert not contains(expr, unit(2))  # gaps are not prefixes
    assert not contains(expr, ZERO)


def test_sign_sums_overlapping_supports_searched():
    terms = (SparseVec({1: 1}), SparseVec({1: 1, 2: 1}), SparseVec({2: 1, 3: 1}))
    series = SeriesSpec(terms, NormKind.SUP, "overlap")
    expr = SignSums(series, SignMode.SUBSETS, 3)
    assert contains(expr, SparseVec({2: 1, 3: 1}))
    assert contains(expr, SparseVec({1: 2, 2: 1}))  # x_1 + x_2
    assert contains(expr, SparseVec({1: -2, 2: -1}))
    assert not contains(expr, SparseVec({3: 2}))


def test_sign_sums_budget_exhaustion():
    terms = tuple(SparseVec({1: 1, n + 1: 1}) for n in range(1, 12))
    series = SeriesSpec(terms, NormKind.SUP, "wide")
    expr = SignSums(series, SignMode.SUBSETS, 11, node_budget=5)
    with pytest.raises(DepthExceeded):
        contains(expr, SparseVec({1: 11} | {n: 1 for n in range(2, 13)}))


def harmonic_sign_sums(h, mode=SignMode.SUBSETS):
    """Sign sums of x_n = e_1 + e_2/n: every pair of supports overlaps."""
    terms = tuple(SparseVec({1: 1, 2: F(1, n)}) for n in range(1, h + 1))
    return SignSums(SeriesSpec(terms, NormKind.SUP, "harmonic"), mode, h)


@pytest.mark.parametrize("mode", list(SignMode))
def test_sign_sums_search_deeper_than_the_recursion_limit(mode):
    expr = harmonic_sign_sums(1200, mode)
    assert contains(expr, linear_combination((1, t) for t in expr.terms))


def recursive_sign_sum_search(expr, v):
    """The recursive membership search ``SignSums.contains`` used before it
    moved to an explicit stack, kept as the reference for the rewrite.

    Returns (member, nodes visited); raises DepthExceeded at the node
    that exceeds ``expr.node_budget``.
    """
    terms = expr.terms
    h = len(terms)
    suffix = [dict() for _ in range(h + 1)]
    for n in range(h - 1, -1, -1):
        acc = dict(suffix[n + 1])
        for i, x in terms[n].items():
            acc[i] = acc.get(i, F(0)) + abs(x)
        suffix[n] = acc
    nodes = 0

    def viable(residual, k):
        return all(abs(x) <= suffix[k].get(i, F(0)) for i, x in residual.items())

    def step(residual, coeff, term):
        out = dict(residual)
        for i, x in term.items():
            q = out.get(i, F(0)) - coeff * x
            if q == 0:
                out.pop(i, None)
            else:
                out[i] = q
        return out

    prefix_mode = expr.mode is SignMode.PREFIXES

    def search(residual, k):
        nonlocal nodes
        nodes += 1
        if nodes > expr.node_budget:
            raise DepthExceeded(f"sign-sum membership search exceeded {expr.node_budget} nodes")
        if prefix_mode:
            if k >= 1 and not residual:
                return True
            if k == h:
                return False
            if not viable(residual, k):
                return False
            for c in (F(1), F(-1)):
                if search(step(residual, c, terms[k]), k + 1):
                    return True
            return False
        if not residual:
            return True
        if k == h or not viable(residual, k):
            return False
        for c in (F(1), F(-1), F(0)):
            if search(step(residual, c, terms[k]), k + 1):
                return True
        return False

    return search(dict(v.items()), 0), nodes


def search_outcome(search, v):
    try:
        return search(v)
    except DepthExceeded as exc:
        return "DepthExceeded", str(exc)


small_terms = st.dictionaries(
    st.integers(1, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3
).map(SparseVec)
overlapping_series = (
    st.lists(small_terms, min_size=2, max_size=5)
    .map(lambda terms: SeriesSpec(tuple(terms), NormKind.SUP, "overlap"))
    .filter(lambda s: not s.disjoint_supports())
)


@settings(max_examples=150, deadline=None)
@given(overlapping_series, st.sampled_from(list(SignMode)), st.integers(1, 40), st.data())
def test_sign_sums_stack_search_matches_recursive_reference(series, mode, budget, data):
    h = data.draw(st.integers(1, series.horizon))
    terms = series.terms[:h]
    combination = st.lists(st.sampled_from((-1, 0, 1)), min_size=h, max_size=h).map(
        lambda cs: linear_combination(zip(cs, terms))
    )
    v = data.draw(st.one_of(combination, small_terms))
    expr = SignSums(series, mode, h, node_budget=budget)
    assert not series.disjoint_supports()  # the search runs, not the disjoint term table
    # the stack search does not report its node count, so compare through
    # the budget: the same verdict, or DepthExceeded at the same node
    assert search_outcome(expr.contains, v) == search_outcome(
        lambda w: recursive_sign_sum_search(expr, w)[0], v
    )
    member, nodes = recursive_sign_sum_search(replace(expr, node_budget=10 ** 6), v)
    assert replace(expr, node_budget=nodes).contains(v) is member
    with pytest.raises(DepthExceeded):
        replace(expr, node_budget=nodes - 1).contains(v)


def test_disjoint_sign_sums_reject_an_undecomposable_vector_without_search():
    # e_1 ... e_19, e_20 + e_21: v holds half of the last term's e_21, so it
    # is no sign sum; the term table says so without the bounded search
    terms = tuple(unit(n) for n in range(1, 20)) + (unit(20) + unit(21),)
    expr = SignSums(SeriesSpec(terms, NormKind.SUP, "split"), SignMode.SUBSETS, 20, node_budget=20)
    v = linear_combination((1, t) for t in terms[:19]) + unit(20) + unit(21, F(1, 2))
    assert not contains(expr, v)
    assert contains(expr, v + unit(21, F(1, 2)))


@st.composite
def disjoint_series(draw):
    """A series whose term supports are disjoint, over shuffled coordinates
    1..12; a term may be zero, as the flattened terms of a symmetrization."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    coords = draw(st.permutations(range(1, 13)))
    values = st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool)
    terms, used = [], 0
    for size in sizes:
        support = coords[used : used + size]
        used += size
        terms.append(SparseVec({i: draw(values) for i in support}))
    return SeriesSpec(tuple(terms), NormKind.SUP, "disjoint")


@settings(max_examples=300, deadline=None)
@given(disjoint_series(), st.sampled_from(list(SignMode)), st.data())
def test_disjoint_sign_sums_match_the_search_reference(series, mode, data):
    h = data.draw(st.integers(1, series.horizon))
    expr = SignSums(series, mode, h, node_budget=20)
    # combinations of every term, beyond the horizon too, with +-1 and
    # other multiples; or a small vector on coordinates of the terms and past them
    combination = st.lists(
        st.sampled_from((-1, 0, 1, 1, -1, 2, F(1, 2))), min_size=series.horizon, max_size=series.horizon
    ).map(lambda cs: linear_combination(zip(cs, series.terms)))
    stray = st.dictionaries(
        st.integers(1, 14), st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3
    ).map(SparseVec)
    v = data.draw(st.one_of(combination, stray, combination.flatmap(lambda c: stray.map(c.__add__))))
    member, _ = recursive_sign_sum_search(replace(expr, node_budget=10 ** 6), v)
    assert contains(expr, v) is member
    f = data.draw(stray)
    assert sup_functional(f, expr).upper == sum((abs(dual_pair(f, t)) for t in expr.terms), F(0))


def column_sum_diameter(expr):
    """The sup-norm diameter of sign sums from plain column sums over the
    terms: twice the largest, attained by the sum of every term with the
    sign of its entry on that column (+1 where the entry is 0)."""
    column = {}
    for t in expr.terms:
        for i, x in t.items():
            column[i] = column.get(i, F(0)) + abs(x)
    if not column:
        return _symmetric_pair_bound(F(0), ZERO, NormKind.SUP)
    coord = max(column, key=lambda i: (column[i], -i))
    signs = [1 if t.get(coord) >= 0 else -1 for t in expr.terms]
    return _symmetric_pair_bound(column[coord], linear_combination(zip(signs, expr.terms)), NormKind.SUP)


@settings(max_examples=150, deadline=None)
@given(st.one_of(disjoint_series(), overlapping_series), st.sampled_from(list(SignMode)), st.data())
def test_sign_sum_column_sums_match_a_plain_reference(series, mode, data):
    h = data.draw(st.integers(1, series.horizon))
    expr = SignSums(series, mode, h)
    assert diameter(expr, NormKind.SUP) == column_sum_diameter(expr)
    whole = SignSums(series, mode, series.horizon)
    assert wuc_bound(series) == column_sum_diameter(whole).upper / 2


def test_hull_membership_exact_feasibility():
    hull = AbsConvHull((unit(1) + unit(2), unit(1) - unit(2)))
    assert contains(hull, unit(1))  # midpoint of the generators
    assert contains(hull, ZERO)
    assert contains(hull, unit(2))  # half the difference of the generators
    assert not contains(hull, unit(1, 2))  # needs coefficient sum 2
    assert not contains(hull, unit(3))  # outside the generator span
    assert contains(hull, SparseVec({1: F(1, 2), 2: F(1, 2)}))


def test_translate_negate_intersect_membership():
    b = Box(F(1))
    assert contains(Translate(b, unit(1, 2)), unit(1, 3))
    assert not contains(Translate(b, unit(1, 2)), ZERO + unit(1, F(1, 2)))
    assert contains(Negate(Translate(b, unit(1, 2))), unit(1, -3))
    both = Intersect((b, Translate(b, unit(1))))
    assert contains(both, unit(1))
    assert not contains(both, unit(1, -1))


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_at_zero_is_identity_for_boxes():
    assert symmetrize(Box(F(1)), [ZERO]) == Box(F(1))


def test_symmetrize_box_pins_coordinate():
    assert symmetrize(Box(F(1)), [unit(1)]) == Box(F(1), ((1, F(0)),))
    assert symmetrize(Box(F(1), ((1, F(2)),)), [unit(1, 2)]) == Box(F(1), ((1, F(0)),))


def test_symmetrize_checks_membership():
    with pytest.raises(WitnessNotMember):
        symmetrize(Box(F(1)), [unit(1, 2)])


def test_symmetrize_box_closed_form_matches_brute_membership():
    base = Box(F(1), ((1, F(2)), (3, F(1, 2))))
    ws = [SparseVec({1: F(3, 2), 2: F(-1, 2)}), SparseVec({3: F(1, 2)})]
    flat = symmetrize(base, ws)
    assert isinstance(flat, Box)
    grid = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    for c1, c2, c3 in product(grid, repeat=3):
        v = SparseVec({1: c1, 2: c2, 3: c3})
        direct = all(
            contains(base, w + v) and contains(base, w - v) for w in ws
        )
        assert contains(flat, v) == direct


def test_nested_symmetrize_flattens_with_doubled_witnesses():
    d = symmetrize(Box(F(1)), [unit(1)])
    again = symmetrize(d, [unit(2)])
    assert again == Box(F(1), ((1, F(0)), (2, F(0))))


@given(finite_sets, st.integers(0, 3), st.data())
def test_observation_recursion_on_finite_sets(points, wits, data):
    # symmetrizing a symmetrized set equals symmetrizing the base at the
    # shifted witnesses, as membership oracles
    base = points
    witnesses = [
        base.points[data.draw(st.integers(0, len(base.points) - 1))]
        for _ in range(wits + 1)
    ]
    d_expr = symmetrize(base, witnesses)
    members = enumerate_members(d_expr, 4096)
    if not members:
        return
    d = members[len(members) // 2]
    left = symmetrize(d_expr, [d])
    probes = [p - q for p in base.points for q in base.points][:40] + list(members)
    for v in probes:
        direct = contains(d_expr, d + v) and contains(d_expr, d - v)
        assert contains(left, v) == direct


# ---------------------------------------------------------------------------
# diameter


def test_box_diameter_examples():
    assert diameter(Box(F(1)), NormKind.SUP).upper == 2
    assert diameter(Box(F(1), ((1, F(2)),)), NormKind.SUP).upper == 4
    tri = FinitePoints((ZERO, unit(1), unit(2)))
    bound = diameter(tri, NormKind.SUP)
    assert bound.exact and bound.upper == 1


def test_box_diameter_unbounded_in_summable_norms():
    with pytest.raises(UnboundedDiameter):
        diameter(Box(F(1)), NormKind.SUM)
    with pytest.raises(UnboundedDiameter):
        diameter(Box(F(1)), NormKind.EUCLID)
    flat = Box(F(0), ((1, F(2)), (2, F(1))))
    assert diameter(flat, NormKind.SUM).upper == 6
    assert diameter(flat, NormKind.EUCLID).upper == 20  # squared


def test_sign_sum_diameter_symmetric_shortcut():
    expr = SignSums(canonical_series(4), SignMode.SUBSETS, 4)
    assert diameter(expr, NormKind.SUP).upper == 2
    geo = SeriesSpec(
        tuple(unit(n, F(1, 2 ** n)) for n in range(1, 5)), NormKind.SUM, "geo"
    )
    assert diameter(SignSums(geo, SignMode.SUBSETS, 4), NormKind.SUM).upper == 2 * F(15, 16)


def test_hull_diameter():
    hull = AbsConvHull((unit(1) + unit(2), unit(1) - unit(2)))
    assert diameter(hull, NormKind.SUP).upper == 2
    assert diameter(hull, NormKind.SUM).upper == 4
    assert diameter(hull, NormKind.EUCLID).upper == 8  # squared: (2*sqrt2)^2


def test_symmetrized_hull_diameter_is_exact_zero_at_generator():
    hull = AbsConvHull((unit(1), -unit(1), unit(2), -unit(2)))
    sym = symmetrize(hull, [unit(1)])
    bound = diameter(sym, NormKind.SUM)
    assert bound.exact and bound.upper == 0


def reference_hull_extent(hull, witnesses, kind, functional=None):
    """Largest member norm of the hull's symmetrization and the first
    member attaining it: every sign objective (both halves) through the
    dense reference simplex on the free-direction rows. Given a
    ``functional``, its max alone (``kind`` is not read)."""
    coords = sorted(
        {i for p in hull.points for i in p.support} | {i for w in witnesses for i in w.support}
        | set(functional.support if functional is not None else ())
    )
    if functional is not None:
        objectives = [{i: functional.get(i) for i in coords}]
    elif kind is NormKind.SUP:
        objectives = [{i: s} for i in coords for s in (1, -1)]
    else:
        objectives = [dict(zip(coords, signs)) for signs in product((1, -1), repeat=len(coords))]
    c, k = len(coords), len(hull.points)
    nvars = 2 * c + 2 * len(witnesses) * (2 * k + 1)
    rows, rhs = [], []
    offset = 2 * c
    for w in witnesses:
        for sgn in (1, -1):
            for pos, i in enumerate(coords):
                row = [F(0)] * nvars
                row[pos], row[c + pos] = F(-sgn), F(sgn)
                for j, p in enumerate(hull.points):
                    row[offset + j], row[offset + k + j] = p.get(i), -p.get(i)
                rows.append(row)
                rhs.append(w.get(i))
            rows.append([F(0)] * offset + [F(1)] * (2 * k + 1) + [F(0)] * (nvars - offset - 2 * k - 1))
            rhs.append(F(1))
            offset += 2 * k + 1
    best, arg = F(0), ZERO
    for objective in objectives:
        obj = [F(objective.get(i, 0)) for i in coords]
        _, value, x = dense_solve_lp(obj + [-a for a in obj] + [F(0)] * (nvars - 2 * c), rows, rhs)
        if value > best:
            best = value
            arg = SparseVec({i: x[pos] - x[c + pos] for pos, i in enumerate(coords)})
    return best, arg


def reference_hull_contains(hull, v):
    """Membership through dense rows: coefficients on the positive and the
    negative generator weights, then a slack, and the weights' l1 row;
    feasible when the dense reference simplex finds the zero objective so."""
    coords = sorted({i for p in hull.points for i in p.support} | set(v.support))
    k = len(hull.points)
    rows = [[p.get(i) for p in hull.points] + [-p.get(i) for p in hull.points] + [F(0)] for i in coords]
    rows.append([F(1)] * (2 * k + 1))
    rhs = [v.get(i) for i in coords] + [F(1)]
    return dense_solve_lp([F(0)] * (2 * k + 1), rows, rhs)[0] != INFEASIBLE


def test_hull_contains_matches_dense_rows():
    rng = random.Random(31)
    entries = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)]
    verdicts = []
    for _ in range(60):
        dim = rng.randint(2, 3)
        gens = {SparseVec({i + 1: rng.choice(entries) for i in range(dim)}) for _ in range(rng.randint(2, 4))}
        hull = AbsConvHull(tuple(gens))
        probes = [SparseVec({i: rng.choice(entries) for i in range(1, dim + 2)})]
        for scale in (F(1), F(1, 2), F(3, 2)):
            weights = [rng.randint(-2, 2) for _ in hull.points]
            total = sum(abs(w) for w in weights) or 1
            probes.append(linear_combination(zip([scale * F(w, total) for w in weights], hull.points)))
        for v in probes:
            inside = contains(hull, v)
            assert inside == reference_hull_contains(hull, v)
            verdicts.append(inside)
    assert True in verdicts and False in verdicts


hull_entries = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@st.composite
def hulls_with_witnesses(draw):
    dim = draw(st.integers(2, 3))
    vec = st.lists(hull_entries, min_size=dim, max_size=dim).map(
        lambda xs: SparseVec({i + 1: x for i, x in enumerate(xs)})
    )
    hull = AbsConvHull(tuple(draw(st.lists(vec, min_size=2, max_size=4, unique=True))))
    witnesses = []
    for _ in range(draw(st.integers(1, 2))):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(hull.points), max_size=len(hull.points)))
        total = max(sum(abs(w) for w in weights), draw(st.sampled_from([1, 2, 4])))
        witnesses.append(linear_combination(zip([F(w, total) for w in weights], hull.points)))
    return hull, witnesses


FACE = AbsConvHull((SparseVec({1: 1, 2: 1}), SparseVec({1: 1, 2: -1})))


@settings(max_examples=25, deadline=None)
@given(hulls_with_witnesses(), st.sampled_from([NormKind.SUP, NormKind.SUM]))
# the square's symmetrization at (1/4, 0) is [-3/4, 3/4] x [-1, 1]: its sup
# norm 1 ties along a whole face, and the printed pair is [(-3/4, 1), (3/4, -1)]
@example((FACE, [SparseVec({1: F(1, 4)})]), NormKind.SUP)
def test_symmetrized_hull_diameter_matches_every_objective(hw, kind):
    hull, witnesses = hw
    bound = diameter(symmetrize(hull, witnesses), kind)
    best, arg = reference_hull_extent(hull, sorted(set(witnesses), key=lambda w: w.sort_key()), kind)
    assert bound.lower == bound.upper == 2 * best
    assert bound.lower_witness == {"pair": [arg.to_json(), (-arg).to_json()]}


@settings(max_examples=25, deadline=None)
@given(hulls_with_witnesses(), st.lists(hull_entries, min_size=4, max_size=4))
def test_symmetrized_hull_sup_matches_the_free_direction_rows(hw, entries):
    hull, witnesses = hw
    # the fourth coordinate lies outside every generator's support
    f = SparseVec({i + 1: x for i, x in enumerate(entries)})
    sym = symmetrize(hull, witnesses)
    bound = sup_functional(f, sym)
    best, _ = reference_hull_extent(hull, sorted(set(witnesses), key=lambda w: w.sort_key()), None, f)
    assert bound.lower == bound.upper == best
    point = SparseVec.from_json(bound.lower_witness["point"])
    assert contains(sym, point) and dual_pair(f, point) == best


def count_hull_lps(monkeypatch) -> dict:
    """Live counts of the warm LP calls ``maximum`` and ``feasible``."""
    calls = {"maximum": 0, "feasible": 0}
    for name in calls:
        original = getattr(exactlp.WarmLp, name)

        def counted(lp, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(lp, *args)

        monkeypatch.setattr(exactlp.WarmLp, name, counted)
    return calls


@pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.SUM])
def test_hull_search_over_default_pool_solves_no_lp(monkeypatch, kind):
    # (1/3, 1/3) is interior; the search scores {0} (Sym(A; {0}) = A) and
    # then {-e1}, an exposed generator that scores 0
    hull = AbsConvHull((unit(1), unit(2), SparseVec({1: F(1, 3), 2: F(1, 3)})))
    calls = count_hull_lps(monkeypatch)
    res = delta_upper(hull, 1, SearchStrategy.exhaustive(default_pool(hull)), kind)
    assert res.bound.upper == 0 and res.upper_witnesses == (-unit(1),)
    assert calls == {"maximum": 0, "feasible": 0}


def test_hull_contains_its_signed_generators_without_lp(monkeypatch):
    hull = AbsConvHull((unit(1) + unit(2), unit(1) - unit(2), SparseVec({1: F(1, 2)})))
    calls = count_hull_lps(monkeypatch)
    for v in default_pool(hull):
        assert contains(hull, v)
    assert calls == {"maximum": 0, "feasible": 0}
    assert not contains(hull, unit(1).scale(2))  # anything else is an LP
    assert calls["feasible"] == 1


def test_hull_lps_take_and_give_integers(monkeypatch):
    # membership and the sup vertex go from the targets' numerators to the
    # LP and back to a SparseVec without a Fraction; the sup's optimum is one
    hull = AbsConvHull((SparseVec({1: F(1, 2), 2: F(1, 3)}), SparseVec({1: F(-2, 3), 2: F(3, 4)})))
    w = SparseVec({1: F(1, 6), 2: F(1, 3)})
    sym = symmetrize(hull, [w])
    f, v = SparseVec({1: F(2, 5), 2: F(-1, 7)}), SparseVec({1: F(1, 7), 2: F(1, 5)})
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
    assert contains(hull, v)
    assert built == []
    bound = hull.symmetrized_sup(sym, f)
    assert len(built) == 1
    monkeypatch.undo()
    point = SparseVec.from_json(bound.lower_witness["point"])
    assert contains(sym, point) and dual_pair(f, point) == bound.lower == bound.upper


def test_hull_extent_closed_forms_keep_non_members_out():
    # 2p is not a member, yet <2p, .> exposes it among the generators: the
    # zero extent of an exposed point holds for +-generators only
    p = SparseVec({1: 1, 2: F(1, 2)})
    hull = AbsConvHull((p, unit(2)))
    outside = p.scale(2)
    assert not contains(hull, outside)
    for ws in [(outside,), (p, outside)]:
        sym = Symmetrized(hull, ws)  # built directly: no membership check
        for kind in (NormKind.SUP, NormKind.SUM):
            with pytest.raises(WitnessNotMember):
                diameter(sym, kind)
            with pytest.raises(WitnessNotMember):
                diameter_upper(sym, kind)
        for f in (unit(1), SparseVec({1: -1, 2: F(1, 3)})):
            with pytest.raises(WitnessNotMember):
                sup_functional(f, sym)


def test_hull_symmetrization_values_and_sups_solve_without_the_free_direction():
    # one witness over c = 2 coordinates and k = 2 generators
    hull = AbsConvHull((SparseVec({1: 1, 2: F(1, 2)}), SparseVec({1: F(-1, 3), 2: 1})))
    sym = symmetrize(hull, [SparseVec({1: F(1, 4), 2: F(1, 4)})])
    c, k = 2, 2

    def lps():
        return [lp for key, lp in memo_entries(hull).items() if key[0] == "lp"]

    memberships = len(lps())  # symmetrize checks the witness

    def shapes():
        return [(len(lp.rows), lp.n) for lp in lps()[memberships:]]

    sup_functional(unit(1), sym)
    diameter_upper(sym, NormKind.SUP)
    assert shapes() == [(c + 2, 2 * (2 * k + 1))] * 2
    # the vertex that diameter prints comes from the sup's per-list LP
    diameter(sym, NormKind.SUP)
    assert shapes() == [(c + 2, 2 * (2 * k + 1))] * 2


def memo_entries(expr) -> dict:
    """The set's private memo, oldest entry first."""
    return vars(expr).get("_memo_entries", {})


def test_hull_memo_evicts_its_oldest_layouts_and_rebuilds_them():
    points = (SparseVec({1: 1, 2: F(1, 2)}), SparseVec({1: F(-1, 3), 2: 1}))
    hull = AbsConvHull(points)
    sym = Symmetrized(hull, (SparseVec({1: F(1, 4), 2: F(1, 4)}),))
    fs = [SparseVec({1: 1}), SparseVec({1: F(1, 2), 2: -1}), SparseVec({2: F(2, 3)})]
    sups = [sup_functional(f, sym) for f in fs]
    first = list(memo_entries(hull))
    assert first and all(key[0] == "lp" for key in first)
    # each probe adds its own coordinate to the row layout, and each
    # enumeration budget its own entry: None, as a hull does not enumerate
    probes = [SparseVec({1: F(1, 3), k: F(1, 5)}) for k in range(3, 43)]
    for v in probes:
        assert contains(hull, v) == contains(AbsConvHull(points), v)
    budgets = count()
    while len(memo_entries(hull)) < MEMO_SIZE:
        assert enumerate_members(hull, next(budgets)) is None
    full = list(memo_entries(hull))
    added = []
    for _ in range(len(first) + len(probes)):
        budget = next(budgets)
        enumerate_members(hull, budget)
        added.append(("members", budget))
        assert list(memo_entries(hull)) == full[len(added):] + added
    assert set(first).isdisjoint(memo_entries(hull))
    inside = [SparseVec({1: F(1, 3)}), SparseVec({1: F(1, 2), 2: F(1, 2)}), SparseVec({2: F(3, 2)})]
    for v in inside + probes[:3]:
        assert contains(hull, v) == contains(AbsConvHull(points), v)
    fresh = Symmetrized(AbsConvHull(points), sym.witnesses)
    assert [sup_functional(f, sym) for f in fs] == [sup_functional(f, fresh) for f in fs] == sups
    assert len(memo_entries(hull)) == MEMO_SIZE


@st.composite
def hulls_with_signed_witnesses(draw):
    """A hull, sometimes with -p and 2p added for a generator p (so p is
    not exposed), and witnesses drawn from 0, the +-generators and convex
    combinations of the generators."""
    hull, combos = draw(hulls_with_witnesses())
    points = list(hull.points)
    p = next(q for q in points if q)
    if draw(st.booleans()):
        points += [-p, p.scale(2)]
    hull = AbsConvHull(tuple(points))
    pool = st.sampled_from(list(default_pool(hull)) + combos)
    return hull, draw(st.lists(pool, min_size=1, max_size=2))


PAIRED = (SparseVec({1: 1, 2: F(1, 2)}), SparseVec({1: -1, 2: F(-1, 2)}), SparseVec({1: 2, 2: 1}), unit(2))


@settings(max_examples=30, deadline=None)
@given(hulls_with_signed_witnesses(), st.sampled_from([NormKind.SUP, NormKind.SUM]))
@example((AbsConvHull(PAIRED), [PAIRED[0]]), NormKind.SUP)  # p, -p and 2p: p is not exposed
@example((AbsConvHull(PAIRED), [ZERO]), NormKind.SUM)
@example((AbsConvHull(PAIRED), [PAIRED[1], PAIRED[2]]), NormKind.SUM)
def test_hull_closed_forms_match_the_dense_reference(hw, kind):
    hull, witnesses = hw
    for v in witnesses:
        assert contains(hull, v) == reference_hull_contains(hull, v)
    sym = symmetrize(hull, witnesses)
    best, arg = reference_hull_extent(hull, sorted(set(witnesses), key=lambda w: w.sort_key()), kind)
    pair = {"pair": [arg.to_json(), (-arg).to_json()]}
    bound = diameter(sym, kind)
    assert bound.lower == bound.upper == 2 * best
    assert bound.lower_witness == pair
    assert diameter_upper(sym, kind) == 2 * best
    upper_only = diameter(sym, kind, False)
    if best > 0:
        assert (upper_only.lower, upper_only.upper, upper_only.lower_witness) == (0, 2 * best, None)
    else:
        assert upper_only == bound


@settings(max_examples=20, deadline=None)
@given(hulls_with_witnesses(), hulls_with_witnesses(), st.sampled_from([NormKind.SUP, NormKind.SUM]))
def test_hull_delta_report_does_not_depend_on_earlier_calls(hw, other, kind):
    hull, witnesses = hw
    # interior witnesses, so the rows print LP vertices, not the zero pair
    strategy = SearchStrategy.exhaustive(witnesses + [ZERO])

    def report(h):
        return json.dumps([row.to_json() for row in delta_curve(h, 2, strategy, kind)], sort_keys=True)

    fresh = report(AbsConvHull(hull.points))
    used = AbsConvHull(hull.points)
    # unrelated calls first: memberships, then full and upper-only
    # diameters and sups of other symmetrizations
    for v in other[1] + list(other[0].points) + witnesses:
        contains(used, v)
    for ws in ([-witnesses[0]], [witnesses[-1].scale(F(1, 2)), used.points[0].scale(F(1, 3))]):
        sym = symmetrize(used, ws)
        for k in ALL_NORMS:
            diameter(sym, k)
            diameter(sym, k, False)
            diameter_upper(sym, k)
        sup_functional(unit(1), sym)
    assert report(used) == fresh
    # every printed bound is the cold one of a new hull
    for row in json.loads(fresh)[1:]:
        ws = [SparseVec.from_json(w) for w in row["upper_witnesses"]]
        assert row["bound"]["upper_witness"] == delta0(symmetrize(AbsConvHull(hull.points), ws), kind).to_json()


# ---------------------------------------------------------------------------
# sup_functional


def test_sup_functional_examples():
    assert sup_functional(unit(1), Box(F(1))).upper == 1
    assert sup_functional(SparseVec({1: 1, 2: 1}), Box(F(1))).upper == 2
    hull = AbsConvHull((unit(1) + unit(2), unit(1) - unit(2)))
    bound = sup_functional(unit(1), hull)
    assert bound.exact and bound.upper == 1


def test_sup_functional_sign_sums_and_translate():
    expr = SignSums(canonical_series(4), SignMode.SUBSETS, 4)
    f = SparseVec({1: 1, 2: -2})
    assert sup_functional(f, expr).upper == 3
    shifted = Translate(Box(F(1)), unit(1, 5))
    assert sup_functional(unit(1), shifted).upper == 6


# ---------------------------------------------------------------------------
# coordinate relaxation


def test_relaxation_matches_exact_box_symmetrization():
    relax = coordinate_relaxation(Symmetrized(Box(F(1)), (unit(1),)))
    assert relax == Box(F(1), ((1, F(0)),))


def test_relaxation_of_finite_base():
    base = FinitePoints((unit(1), -unit(1), unit(2), -unit(2), ZERO))
    relax = coordinate_relaxation(Symmetrized(base, (ZERO,)))
    assert relax.default_radius == 0
    assert relax.radius(1) == 1 and relax.radius(2) == 1


def test_relaxation_pins_saturated_coordinate():
    base = FinitePoints((unit(1), -unit(1), ZERO))
    relax = coordinate_relaxation(Symmetrized(base, (unit(1),)))
    assert relax.radius(1) == 0


def test_relaxation_composes_the_parts_boxes():
    points = FinitePoints((unit(1, 2), unit(2, -3)))
    box = Box(F(0), ((1, F(2)), (2, F(3))))
    assert coordinate_relaxation(points) == coordinate_relaxation(AbsConvHull(points.points)) == box
    assert coordinate_relaxation(Negate(points)) == box
    shifted = Translate(points, unit(1, -1) + unit(3, 1))
    assert coordinate_relaxation(shifted) == Box(F(0), ((1, F(3)), (2, F(3)), (3, F(1))))
    both = Intersect((points, Box(F(1), ((2, F(1)),))))
    assert coordinate_relaxation(both) == Box(F(0), ((1, F(1)), (2, F(1))))


@given(finite_sets, st.data())
def test_relaxation_soundness(points, data):
    w = points.points[data.draw(st.integers(0, len(points.points) - 1))]
    sym = symmetrize(points, [w])
    relax = coordinate_relaxation(Symmetrized(points, (w,)))
    for v in enumerate_members(sym, 4096) or ():
        assert contains(relax, v)


# ---------------------------------------------------------------------------
# free directions


def test_free_direction_box_fresh_coordinate():
    d = free_direction(Box(F(1)), [unit(1), unit(2)], NormKind.SUP)
    assert d == unit(3)


def test_free_direction_sign_sums_fresh_index():
    expr = SignSums(canonical_series(10), SignMode.SUBSETS, 10)
    ws = [unit(1) + unit(4), unit(2) - unit(3)]
    d = free_direction(expr, ws, NormKind.SUP)
    assert d == unit(5)


def test_free_direction_singleton_none():
    assert free_direction(FinitePoints((unit(1),)), [unit(1)], NormKind.SUP) is None


@given(finite_sets, st.data(), norm_kinds)
def test_free_direction_soundness(points, data, kind):
    w = points.points[data.draw(st.integers(0, len(points.points) - 1))]
    d = free_direction(points, [w], kind)
    if d is None:
        return
    assert contains(points, w + d) and contains(points, w - d)
    sym = symmetrize(points, [w])
    assert contains(sym, d) and contains(sym, -d)


# ---------------------------------------------------------------------------
# enumeration, sampling, JSON


def test_enumeration_cache_is_bounded_and_least_recently_used():
    finite = FinitePoints((unit(1), unit(2, -1), SparseVec({1: F(1, 2), 2: F(1, 3)})))
    first = [enumerate_members(finite, budget) for budget in (0, 1)]
    for budget in range(2, MEMO_SIZE):
        enumerate_members(finite, budget)
    assert len(memo_entries(finite)) == MEMO_SIZE
    assert enumerate_members(finite, 0) is first[0]  # a hit makes it the newest entry
    assert list(memo_entries(finite))[-1] == ("members", 0)
    for budget in range(MEMO_SIZE, MEMO_SIZE + 40):
        enumerate_members(finite, budget)
        assert len(memo_entries(finite)) <= MEMO_SIZE
    assert ("members", 0) in memo_entries(finite)
    assert ("members", 1) not in memo_entries(finite)
    # an evicted enumeration is rebuilt equal to a fresh set's
    assert enumerate_members(finite, 1) == enumerate_members(FinitePoints(finite.points), 1) == first[1]
    assert set(first[1]) == set(finite.points)


def test_enumeration_cache_keeps_no_set_that_does_not_enumerate():
    hull = AbsConvHull((unit(1, 2), SparseVec({1: 1, 2: 1})))
    delta_upper(hull, 1, SearchStrategy.exhaustive(default_pool(hull)), NormKind.SUP)
    collected = weakref.ref(hull)
    del hull
    gc.collect()
    assert collected() is None


@pytest.mark.parametrize("build", [
    lambda: FinitePoints((ZERO, unit(1), unit(2), unit(1) + unit(2), SparseVec({1: F(1, 2), 2: F(1, 2)}))),
    lambda: symmetrize(FinitePoints((ZERO, unit(1), unit(1, 2), unit(2), unit(1, 2) - unit(2))), [unit(1)]),
])
def test_no_set_outlives_its_requests(build):
    # the memos live on the sets: once the caller drops a set that the
    # delta curve and eps_extreme enumerated, nothing holds it or its base
    expr = build()
    for kind in ALL_NORMS:
        delta_curve(expr, 2, SearchStrategy.exhaustive(default_pool(expr)), kind)
        for x in enumerate_members(expr):
            eps_extreme(expr, x, F(1, 2), kind)
    collected = [weakref.ref(expr), weakref.ref(getattr(expr, "base", expr))]
    del expr
    gc.collect()
    assert [ref() for ref in collected] == [None, None]


def test_enumerate_members_sign_sums():
    expr = SignSums(canonical_series(2), SignMode.PREFIXES, 2)
    values = set(enumerate_members(expr, 1000))
    expected = {
        unit(1),
        -unit(1),
        unit(1) + unit(2),
        unit(1) - unit(2),
        -unit(1) + unit(2),
        -unit(1) - unit(2),
    }
    assert values == expected
    subsets = set(enumerate_members(SignSums(canonical_series(2), SignMode.SUBSETS, 2), 1000))
    assert subsets == expected | {ZERO, unit(2), -unit(2)}
    # Sym(A; {e_1, ..., e_8}) zeroes the first 8 of 12 terms; its subset
    # sums are sized over the 4 nonzero terms (3^4), not all 12 (3^12)
    sym = symmetrize(SignSums(canonical_series(12), SignMode.SUBSETS, 12), [unit(n) for n in range(1, 9)])
    tail = [unit(n) for n in range(9, 13)]
    assert set(enumerate_members(sym, 4096)) == {
        linear_combination(zip(signs, tail)) for signs in product((1, -1, 0), repeat=4)
    }


# ---------------------------------------------------------------------------
# the upper-only diameter query


def outcome(call):
    """A call's value, or the name of the error it raised."""
    try:
        return call()
    except SymdexError as exc:
        return type(exc).__name__


radii = st.fractions(min_value=0, max_value=2, max_denominator=2)
boxes = st.builds(
    Box,
    st.sampled_from([F(0), F(1)]),
    st.dictionaries(st.integers(1, 3), radii, max_size=2).map(lambda d: tuple(sorted(d.items()))),
)
leaf_sets = st.one_of(
    boxes,
    finite_sets,
    st.builds(SignSums, overlapping_series, st.sampled_from(list(SignMode)), st.just(2)),
    st.builds(lambda s: SignSums(s, SignMode.SUBSETS, s.horizon), overlapping_series),
    st.lists(small_terms.filter(lambda v: not v.is_zero), min_size=1, max_size=3).map(
        lambda pts: AbsConvHull(tuple(pts))
    ),
)


@st.composite
def symmetrized_sets(draw, bases):
    base = draw(bases)
    pool = list(set_from_json(set_to_json(base)).default_pool()) or [ZERO]
    ws = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    return Symmetrized(base, tuple(ws)) if all(contains(base, w) for w in ws) else base


def nested_sets(leaves):
    """Translates, negations, intersections and symmetrizations of ``leaves``."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Translate, inner, small_terms),
            st.builds(Negate, inner),
            st.lists(inner, min_size=1, max_size=2).map(lambda parts: Intersect(tuple(parts))),
            # a box is never enumerable: the intersection takes its parts' uppers
            st.tuples(symmetrized_sets(inner), boxes).map(Intersect),
            symmetrized_sets(inner),
        ),
        max_leaves=3,
    )


set_exprs = nested_sets(leaf_sets)


@settings(max_examples=100, deadline=None)
@given(set_exprs, st.sampled_from([2, 8, DEFAULT_ENUM_BUDGET]))
def test_diameter_upper_is_the_upper_end_of_diameter(expr, budget):
    # budgets 2 and 8 leave the sign sums and their symmetrizations
    # unenumerable, so their diameters take the relaxation, and an
    # intersection's lower end the pool
    for kind in ALL_NORMS:
        full = outcome(lambda: diameter(expr, kind, True, budget))
        upper = outcome(lambda: diameter_upper(expr, kind, budget))
        assert upper == (full if isinstance(full, str) else full.upper)


leaf_finite = FinitePoints((unit(1), unit(1) + unit(2, 2), -unit(2)))


@settings(max_examples=100, deadline=None)
@given(set_exprs)
@example(Symmetrized(Translate(leaf_finite, unit(1, -1)), (ZERO,)))
@example(Symmetrized(Negate(leaf_finite), (-unit(2, -1),)))
@example(Symmetrized(Intersect((leaf_finite, Box(F(1)))), (unit(1),)))
def test_relaxation_holds_every_member(expr):
    # each variant's closed-form box, and the base's box shrunk by the
    # witnesses for a symmetrization built directly over any variant
    relax = coordinate_relaxation(expr)
    for v in enumerate_members(expr, 4096) or ():
        assert contains(relax, v)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        finite_sets,
        st.lists(small_terms.filter(lambda v: not v.is_zero), min_size=1, max_size=3).map(
            lambda pts: AbsConvHull(tuple(pts))
        ),
        st.builds(SignSums, overlapping_series, st.sampled_from(list(SignMode)), st.integers(1, 2)),
    ),
    st.data(),
)
def test_symmetrized_relaxation_is_the_base_sup_formula(base, data):
    # on these bases the shrunk box is max(sup e_i, sup -e_i) - max |w_i|,
    # clamped at 0, at every coordinate the set or a witness touches
    ws = data.draw(st.lists(st.sampled_from(list(base.default_pool())), min_size=1, max_size=2))
    sym = Symmetrized(base, tuple(ws))
    expected = {}
    for i in sets_module.relevant_coords(sym):
        top = max(sup_functional(unit(i), base).upper, sup_functional(-unit(i), base).upper)
        expected[i] = max(top - max(abs(w.get(i)) for w in ws), F(0))
    assert coordinate_relaxation(sym) == Box(F(0), tuple(expected.items()))


# disjoint term supports: term n lives on coordinates 3n+1..3n+3
disjoint_series = st.lists(small_terms, min_size=1, max_size=4).map(
    lambda terms: SeriesSpec(
        tuple(SparseVec({3 * n + i: x for i, x in t.items()}) for n, t in enumerate(terms)),
        NormKind.SUP,
        "disjoint",
    )
)
# the grid q + a*x + b*y, a and b in {-1, 0, 1}: x and y are free at its centre
finite_grids = st.builds(
    lambda q, x, y: FinitePoints(tuple(q + x.scale(a) + y.scale(b) for a in (-1, 0, 1) for b in (-1, 0, 1))),
    small_terms,
    small_terms,
    small_terms,
)
direction_leaves = st.one_of(
    leaf_sets,
    finite_grids,
    st.builds(lambda s, mode: SignSums(s, mode, s.horizon), disjoint_series, st.sampled_from(list(SignMode))),
)
direction_sets = st.one_of(
    direction_leaves,
    st.builds(Translate, direction_leaves, small_terms),
    st.builds(Negate, direction_leaves),
    st.lists(direction_leaves, min_size=1, max_size=2).map(lambda parts: Intersect(tuple(parts))),
    symmetrized_sets(direction_leaves),
    nested_sets(direction_leaves),
)


# 0, e1, ..., 4 e1 and -e1, 0, ..., 3 e1: an end of the line is a witness
# that a translate or negation must hand its base shifted
LINE = FinitePoints(tuple(unit(1, k) for k in range(5)))
SHIFTED_LINE = FinitePoints(tuple(unit(1, k) for k in range(-1, 4)))
# the prefixes of e1, e2, 2 e3: at the witness e1 the largest free term
# 2 e3 skips e2, and e1 + 2 e3 is no prefix
GAP_PREFIXES = SignSums(SeriesSpec((unit(1), unit(2), unit(3, 2)), NormKind.SUP, "gap"), SignMode.PREFIXES, 3)


@settings(max_examples=400, deadline=None)
@given(direction_sets, norm_kinds, st.lists(st.integers(0, 99), min_size=1, max_size=2))
@example(Translate(LINE, unit(1)), NormKind.SUP, [1])
@example(Negate(SHIFTED_LINE), NormKind.SUP, [1])
@example(GAP_PREFIXES, NormKind.SUP, [0])
def test_free_direction_keeps_every_witness_translate_a_member(expr, kind, picks):
    # free_direction tests no translate: each variant's candidate must
    # have w + d and w - d in the set (README, "Free directions")
    pool = sample_members(expr)
    if not pool:
        return
    ws = [pool[i % len(pool)] for i in picks]
    d = free_direction(expr, ws, kind)
    if d is not None:
        assert not d.is_zero
        for w in ws:
            assert contains(expr, w + d) and contains(expr, w - d)


def test_diameter_upper_samples_no_member(monkeypatch):
    terms = tuple(SparseVec({n: F(1), n + 1: F(1)}) for n in range(1, 5))
    series = SeriesSpec(terms, NormKind.SUP, "overlap")
    base = SignSums(series, SignMode.SUBSETS, 4)
    sym = Symmetrized(base, (series.terms[0],))
    both = Intersect((sym, Box(F(0), ((1, F(1, 2)), (2, F(1, 4))))))
    calls = []
    pooled = sets_module.sample_members
    monkeypatch.setattr(sets_module, "sample_members", lambda *args: calls.append(args) or pooled(*args))
    for expr in (sym, both):
        for kind in ALL_NORMS:
            diameter_upper(expr, kind, 8)
    assert calls == []
    full = diameter(both, NormKind.SUP, True, 8)
    assert calls == [(both,)]  # the intersection's own lower end, not its parts'
    assert full.upper == diameter_upper(both, NormKind.SUP, 8)


functionals = st.dictionaries(
    st.integers(1, 5), st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3
).map(SparseVec)


def exact_sup_variant(expr):
    """Whether the sup_functional docstring calls the sup over ``expr``
    exact: boxes, finite sets, sign sums, hulls, their translates and
    negations, and symmetrized sets with a hull base (a symmetrized node
    built directly is taken as written, even where it would flatten)."""
    if isinstance(expr, (Translate, Negate)):
        return exact_sup_variant(expr.base)
    if isinstance(expr, Symmetrized):
        return isinstance(expr.base, AbsConvHull)
    return isinstance(expr, (Box, FinitePoints, SignSums, AbsConvHull))


@settings(max_examples=150, deadline=None)
@given(set_exprs, functionals)
def test_sup_functional_brackets_the_members(expr, f):
    bound = sup_functional(f, expr)
    if exact_sup_variant(expr):
        assert bound.lower is not None and bound.lower == bound.upper
    members = enumerate_members(expr, 512)
    if members:
        top = max(dual_pair(f, v) for v in members)
        assert bound.lower is None or bound.lower <= top
        assert bound.upper is None or top <= bound.upper


def test_sup_functional_samples_no_member(monkeypatch):
    # overlapping terms: the symmetrized sign sums have no exact sup
    terms = tuple(SparseVec({n: F(1), n + 1: F(1)}) for n in range(1, 5))
    base = SignSums(SeriesSpec(terms, NormKind.SUP, "overlap"), SignMode.SUBSETS, 4)
    sym = Symmetrized(base, (terms[0],))
    both = Intersect((sym, Box(F(0), ((1, F(1, 2)), (2, F(1, 4))))))
    f = SparseVec({1: F(1), 3: F(-1, 2)})
    calls = []
    pooled = sets_module.sample_members
    monkeypatch.setattr(sets_module, "sample_members", lambda *args: calls.append(args) or pooled(*args))
    bounds = [sup_functional(f, expr) for expr in (sym, both, Translate(sym, unit(5)), Negate(sym))]
    assert calls == []
    # the certified lower ends: zero is in every symmetrized set, and an
    # intersection has none
    assert [b.lower for b in bounds] == [0, None, 0, 0]
    assert bounds[1].upper == min(bounds[0].upper, sup_functional(f, both.parts[1]).upper)


def test_sample_members_are_members():
    boxes = Intersect((Box(F(0), ((1, F(1)), (2, F(2)))), Translate(Box(F(0), ((1, F(1)), (2, F(1)))), unit(2, F(1, 2)))))
    for expr in (
        Box(F(1), ((2, F(3)),)),
        SignSums(canonical_series(4), SignMode.SUBSETS, 4),
        AbsConvHull((unit(1), unit(2))),
        symmetrize(Box(F(1)), [unit(1)]),
        boxes,
        Symmetrized(SignSums(canonical_series(4), SignMode.PREFIXES, 4), (unit(1),)),
    ):
        members = sample_members(expr)
        assert members == [p for p in expr.default_pool() if contains(expr, p)]
        assert all(contains(expr, v) for v in members)
    # the pool of the first box drops the members +-2 e_2 outside the second
    assert sample_members(boxes) == [ZERO, unit(1, -1), unit(1)]


def test_set_json_roundtrip():
    exprs = [
        Box(F(1), ((1, F(2)),)),
        FinitePoints((ZERO, unit(1))),
        SignSums(canonical_series(3), SignMode.SUBSETS, 3),
        Translate(Box(F(1)), unit(2)),
        Negate(Box(F(1))),
        Intersect((Box(F(1)), Box(F(2)))),
        Symmetrized(AbsConvHull((unit(1), unit(2))), (unit(1, F(1, 2)),)),
        AbsConvHull((unit(1), unit(2))),
    ]
    for expr in exprs:
        again = set_from_json(set_to_json(expr))
        assert again == expr


def test_set_json_rejects_nonmember_witness():
    raw = {
        "type": "symmetrized",
        "base": {"type": "box", "default_radius": "1", "overrides": {}},
        "witnesses": [{"1": "5"}],
    }
    with pytest.raises(WitnessNotMember):
        set_from_json(raw)
    with pytest.raises(InvalidInput):
        set_from_json({**raw, "witnesses": []})


def test_set_json_builds_symmetrized_sets_flattened():
    # symmetrized JSON parses to what symmetrize builds: the closed form
    # where one exists, the node as written where none does
    box = Box(F(1), ((1, F(2)),))
    hull = AbsConvHull((unit(1), unit(2)))
    sym_hull = Symmetrized(hull, (unit(1, F(1, 2)),))
    flattening = [
        (box, (unit(1), unit(2, F(1, 2)))),
        # disjoint subset sign sums at term-sign witnesses
        (SignSums(canonical_series(3), SignMode.SUBSETS, 3), (unit(1), unit(1) - unit(2))),
        (Translate(box, unit(3)), (unit(3), unit(1))),
        # nested witness lists merge into one over the hull
        (sym_hull, (ZERO, unit(2, F(1, 4)))),
    ]
    for base, ws in flattening:
        parsed = set_from_json(set_to_json(Symmetrized(base, ws)))
        assert parsed == symmetrize(base, ws)
        assert parsed != Symmetrized(base, ws)
    assert isinstance(set_from_json(set_to_json(Symmetrized(box, (unit(1),)))), Box)
    assert set_from_json(set_to_json(Symmetrized(sym_hull, (ZERO,)))).base == hull
    overlapping = SeriesSpec((unit(1), unit(1) + unit(2), unit(3)), NormKind.SUP)
    as_written = [
        (SignSums(canonical_series(3), SignMode.PREFIXES, 3), unit(1)),
        (SignSums(overlapping, SignMode.SUBSETS, 3), unit(1)),
        (hull, unit(1, F(1, 2))),
    ]
    for base, w in as_written:
        raw = Symmetrized(base, (w,))
        parsed = set_from_json(set_to_json(raw))
        assert isinstance(parsed, Symmetrized)
        assert parsed == raw == symmetrize(base, [w])


# JSON-like values whose objects carry each variant's own fields under
# valid, unknown ("bogus") and non-string type tags
SET_FIELDS = {
    "box": ("default_radius", "overrides"),
    "finite": ("points",),
    "sign_sums": ("series", "mode", "horizon", "node_budget"),
    "translate": ("base", "by"),
    "negate": ("base",),
    "intersect": ("parts",),
    "symmetrized": ("base", "witnesses"),
    "abs_conv_hull": ("points",),
    "bogus": ("base", "points"),
}
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["1", "-1/2", "0", "x", "", "subsets", "prefixes", "sup", "sum"])
)


def _json_containers(children):
    def fields(names):
        return st.fixed_dictionaries({}, optional={name: children for name in names})

    def tagged(tag):
        return fields(SET_FIELDS[tag]).map(lambda obj: {**obj, "type": tag})

    return (
        st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(["1", "2", "x"]), children, max_size=2)
        | fields(("terms", "norm", "label"))
        | st.sampled_from(sorted(SET_FIELDS)).flatmap(tagged)
        | st.builds(lambda obj, tag: {**obj, "type": tag}, fields(("base",)), children)
    )


json_values = st.recursive(json_scalars, _json_containers, max_leaves=16)


@settings(max_examples=400)
@given(json_values)
def test_set_from_json_raises_only_library_errors(obj):
    try:
        set_from_json(obj)
    except SymdexError:
        pass


# series objects whose fields are mostly well formed, so that parsing
# reaches the terms and their entries
json_terms = st.dictionaries(st.sampled_from(["1", "2", "0", "-1", "x"]), json_scalars, max_size=2)
series_json = json_values | st.fixed_dictionaries(
    {
        "terms": st.lists(json_terms, max_size=3) | json_values,
        "norm": st.sampled_from(["sup", "sum", " Euclid ", "max"]) | json_scalars,
    },
    optional={"label": st.just("geometric") | json_values},
)


@settings(max_examples=400)
@given(series_json)
def test_series_from_json_raises_only_library_errors(obj):
    try:
        SeriesSpec.from_json(obj)
    except SymdexError:
        pass


def test_symmetrized_hull_euclid_interval():
    hull = AbsConvHull((unit(1), unit(2)))
    sym = symmetrize(hull, [unit(1)])
    bound = diameter(sym, NormKind.EUCLID)
    assert bound.lower is not None and bound.upper is not None
    assert bound.lower <= bound.upper
    assert bound.upper_witness == {"rule": "relaxation"}


def test_sup_functional_symmetrized_interval_is_sound():
    base = FinitePoints((ZERO, unit(1), -unit(1), unit(1) + unit(2)))
    sym_expr = Symmetrized(base, (ZERO,))
    f = SparseVec({1: 1, 2: 1})
    bound = sup_functional(f, sym_expr)
    for v in enumerate_members(symmetrize(base, [ZERO]), 1000):
        assert dual_pair(f, v) <= bound.upper


@given(finite_sets, st.data())
def test_symmetrized_sets_are_symmetric(points, data):
    w = points.points[data.draw(st.integers(0, len(points.points) - 1))]
    sym = symmetrize(points, [w])
    for v in enumerate_members(sym, 4096) or ():
        assert contains(sym, -v)


@given(finite_sets, st.dictionaries(st.integers(1, 4), st.fractions(min_value=-2, max_value=2, max_denominator=4), max_size=3))
def test_sup_functional_translate_covariance(points, f_entries):
    f = SparseVec(f_entries)
    shift = unit(2, F(1, 3))
    base = sup_functional(f, points)
    shifted = sup_functional(f, Translate(points, shift))
    assert shifted.upper == base.upper + dual_pair(f, shift)


def test_symmetrized_prefix_mode_uses_true_membership():
    # prefix-mode symmetrized sets are not subset sums over leftover
    # indices: e_3 alone is excluded because e_1 + e_3 skips index 2
    series = canonical_series(3)
    expr = SignSums(series, SignMode.PREFIXES, 3)
    sym = symmetrize(expr, [unit(1)])
    members = set(enumerate_members(sym, 4096))
    assert unit(3) not in members
    assert unit(2) in members and unit(2) + unit(3) in members
    bound = diameter(sym, NormKind.SUP)
    assert bound.exact and bound.upper == 2
    pair = bound.lower_witness["pair"]
    from symdex import SparseVec as SV

    for obj in pair:
        assert contains(sym, SV.from_json(obj))


# ---------------------------------------------------------------------------
# flattened subset sign sums


nonzero_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(
    lambda q: q != 0
)
# term n lives on coordinates 2n - 1 and 2n, so supports are disjoint;
# an empty term is the zero vector
disjoint_terms = st.lists(
    st.dictionaries(st.integers(0, 1), nonzero_fractions, max_size=2), min_size=1, max_size=5
).map(
    lambda raw: tuple(
        SparseVec({2 * n + 1 + k: x for k, x in entries.items()})
        for n, entries in enumerate(raw)
    )
)


@settings(deadline=None)
@given(disjoint_terms, st.data())
def test_subset_sign_sum_symmetrization_flattens(terms, data):
    expr = SignSums(SeriesSpec(terms, NormKind.SUP, "disjoint"), SignMode.SUBSETS, len(terms))
    members = list(enumerate_members(expr))
    count = data.draw(st.integers(1, 3))
    ws = [members[data.draw(st.integers(0, len(members) - 1))] for _ in range(count)]
    sym = symmetrize(expr, ws)
    assert isinstance(sym, SignSums)
    expected = brute_symmetrized([dict(m.items()) for m in members], [dict(w.items()) for w in ws])
    assert set(enumerate_members(sym)) == {SparseVec(p) for p in expected}
    for kind in ALL_NORMS:
        bound = diameter(sym, kind)
        assert bound.exact and bound.upper == brute_diameter(expected, kind)


def test_sign_sum_symmetrization_falls_back_outside_subset_disjoint_case():
    prefixes = SignSums(canonical_series(3), SignMode.PREFIXES, 3)
    assert isinstance(symmetrize(prefixes, [unit(1)]), Symmetrized)
    overlapping = SeriesSpec((unit(1), unit(1) + unit(2), unit(3)), NormKind.SUP)
    overlap_expr = SignSums(overlapping, SignMode.SUBSETS, 3)
    assert isinstance(symmetrize(overlap_expr, [unit(1)]), Symmetrized)

    subsets = SignSums(canonical_series(3), SignMode.SUBSETS, 3)
    # a non-member witness leaves the symmetrization empty: no flattening
    assert isinstance(subsets.symmetrize_reduce([unit(1, 2)]), Symmetrized)
    flat = set_from_json(set_to_json(Symmetrized(subsets, (unit(1), unit(1) - unit(2)))))
    zeroed = SeriesSpec((ZERO, ZERO, unit(3)), NormKind.SUP, "canonical")
    assert flat == SignSums(zeroed, SignMode.SUBSETS, 3)
    # the relaxation keeps its value through the flattening
    assert coordinate_relaxation(Symmetrized(subsets, (unit(1),))) == Box(
        F(0), ((2, F(1)), (3, F(1)))
    )


def test_diameter_walks_a_chain_once(monkeypatch):
    calls = []
    for cls in (Box, FinitePoints, SignSums, Translate, Negate, Intersect, Symmetrized, AbsConvHull):
        real = cls.diameter

        def counting(self, *args, _real=real):
            calls.append(self)
            return _real(self, *args)

        monkeypatch.setattr(cls, "diameter", counting)
    expr = Box(F(0), ((1, F(1)),))
    for level in range(200):
        expr = Translate(expr, unit(1, F(1, 2))) if level % 2 == 0 else Negate(expr)
    assert diameter(expr, NormKind.SUP).upper == 2
    assert len(calls) <= 201  # one per level


# ---------------------------------------------------------------------------
# one-witness member sets


enumerable_bases = st.one_of(
    finite_sets,
    st.builds(Translate, finite_sets, small_terms),
    st.builds(Negate, finite_sets),
    # the second part holds the first, so the intersection has members
    st.tuples(finite_sets, finite_sets).map(
        lambda ab: Intersect((ab[0], FinitePoints(ab[0].points + ab[1].points)))
    ),
    symmetrized_sets(finite_sets),
    # at most 3^5 members, within the default budget
    st.builds(lambda s, mode: SignSums(s, mode, s.horizon), overlapping_series, st.sampled_from(list(SignMode))),
)


@settings(max_examples=150, deadline=None)
@given(enumerable_bases, st.data())
def test_witness_member_sets_intersect_to_the_symmetrized_members(base, data):
    members = enumerate_members(base)
    ws = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3))
    want = reference_symmetrized_members(base, ws)
    sym = Symmetrized(base, tuple(ws))
    assert enumerate_members(sym) == tuple(sorted(want, key=lambda d: d.sort_key()))
    ones = [set(enumerate_members(Symmetrized(base, (w,)))) for w in ws]
    assert set.intersection(*ones) == want
    for kind in ALL_NORMS:
        top = max(norm(d, kind) for d in want)
        arg = min((d for d in want if norm(d, kind) == top), key=lambda d: d.sort_key())
        bound = diameter(sym, kind)
        assert bound.upper == double_length(top, kind)
        if not isinstance(base, Intersect):
            assert bound == _symmetric_pair_bound(top, arg, kind)


def test_witness_members_is_none_where_the_symmetrization_flattens():
    box = Box(F(1), ((1, F(2)),))
    disjoint = SignSums(canonical_series(3), SignMode.SUBSETS, 3)
    points = FinitePoints((ZERO, unit(1), -unit(1)))
    flattening = [
        (box, unit(1)),
        (Box(F(0)), ZERO),  # enumerable, but a box all the same
        (Translate(box, unit(2)), unit(2)),
        (Negate(box), -unit(1)),
        (Symmetrized(box, (ZERO,)), unit(1)),
        (disjoint, unit(1) - unit(3)),
        (Translate(disjoint, unit(5)), unit(2) + unit(5)),
        (Negate(disjoint), unit(2)),
        (Intersect((points, box)), unit(1)),
        (Intersect((points, points)), ZERO),
    ]
    for expr, w in flattening:
        assert contains(expr, w)
        assert not isinstance(symmetrize(expr, [w]), Symmetrized)
    # hulls and sets beyond the budget stay symmetrized, without a member list
    terms = tuple(SparseVec({n: F(1), n + 1: F(1)}) for n in range(1, 13))
    overlap12 = SignSums(SeriesSpec(terms, NormKind.SUP, "overlap12"), SignMode.SUBSETS, 12)
    for expr, w in [(AbsConvHull((unit(1), unit(2))), unit(1)), (overlap12, terms[0])]:
        assert enumerate_members(symmetrize(expr, [w])) is None
    assert enumerate_members(symmetrize(points, [ZERO])) == tuple(sorted(points.points, key=lambda p: p.sort_key()))


# ---------------------------------------------------------------------------
# the integer rows of a finite point set


lattice_points = st.dictionaries(
    st.integers(1, 3), st.builds(F, st.integers(-4, 4), st.integers(1, 4)), max_size=3
).map(SparseVec)
lattice_sets = st.lists(lattice_points, max_size=7).map(lambda pts: FinitePoints((ZERO, *pts)))


def fraction_pair_diameter(points, kind):
    """The farthest pair of a point list by a scan over Fractions, the
    first of equal pairs kept; a lone point is paired with itself."""
    best, pair = F(0), (points[0], points[0])
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            d = norm(a - b, kind)
            if d > best:
                best, pair = d, (a, b)
    return best, pair


@settings(max_examples=200, deadline=None)
@given(lattice_sets, st.data())
def test_finite_point_table_matches_fraction_scans(points, data):
    before = (hash(points), set_to_json(points))
    twin = FinitePoints(points.points)
    pts = points.points
    for kind in ALL_NORMS:
        best, (a, b) = fraction_pair_diameter(pts, kind)
        bound = diameter(points, kind)
        assert (bound.lower, bound.upper) == (best, best)
        assert bound.lower_witness == {"pair": [a.to_json(), b.to_json()]}
    p, q = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
    witnesses = [
        p,
        (p + q).scale(F(1, 2)),  # a midpoint: q - w is in S_w
        p + unit(4, data.draw(st.sampled_from([F(1), F(-1, 2)]))),  # outside the support
        p + unit(data.draw(st.integers(1, 3)), F(1, 7)),  # 7 divides no denominator of the set
    ]
    for w in witnesses:
        want = reference_symmetrized_members(points, [w])
        got = enumerate_members(Symmetrized(FinitePoints(pts), (w,)))  # a new set scans afresh
        assert got == tuple(sorted(want, key=lambda d: d.sort_key()))
    # the rows the scans read are the points times the lcm of their
    # Fraction denominators, over the sorted union of their supports
    scale, rows = integer_rows(pts)
    coords = sorted({i for p in pts for i in p.support})
    assert scale == math.lcm(*(x.denominator for p in pts for _, x in p.items()))
    assert rows == [tuple(scale * p.get(i) for i in coords) for p in pts]
    assert (hash(points), set_to_json(points)) == before == (hash(twin), set_to_json(twin))
    assert points == twin == set_from_json(set_to_json(points))


def count_subtractions(monkeypatch) -> list:
    calls = []
    sub = SparseVec.__sub__
    monkeypatch.setattr(SparseVec, "__sub__", lambda a, b: calls.append(1) or sub(a, b))
    return calls


SIX_POINTS = (
    ZERO,
    SparseVec({1: F(1, 2)}),
    SparseVec({1: F(1), 2: F(1, 3)}),
    SparseVec({2: F(-1)}),
    SparseVec({1: F(1, 2), 2: F(-1, 2)}),
    SparseVec({1: F(3, 2), 2: F(1, 3)}),
)


@pytest.mark.parametrize("kind", ALL_NORMS)
def test_finite_point_scans_subtract_no_sparse_vectors(monkeypatch, kind):
    points = FinitePoints(SIX_POINTS)
    want = [eps_strong_extreme(FinitePoints(SIX_POINTS), x, F(1, 4), kind) for x in SIX_POINTS]
    calls = count_subtractions(monkeypatch)
    diameter(points, kind)
    assert [eps_strong_extreme(points, x, F(1, 4), kind) for x in SIX_POINTS] == want
    assert len(calls) == 0
    for w in (*SIX_POINTS, SparseVec({1: F(3, 4), 2: F(1, 6)})):
        sym = Symmetrized(FinitePoints(SIX_POINTS), (w,))  # a new set scans afresh
        del calls[:]
        members = enumerate_members(sym)
        assert members and len(calls) == len(members)
    parsed = set_from_json(set_to_json(points))
    built = []
    monkeypatch.setattr(
        sets_module, "integer_rows", lambda *args, **kw: built.append(args) or integer_rows(*args, **kw)
    )
    assert all(contains(parsed, p) for p in SIX_POINTS)
    assert not built  # membership, as oracle asks it, builds no rows
    diameter(parsed, kind)
    assert len(built) == 1  # the pair scan does
