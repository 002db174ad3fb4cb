import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import combinations, product
from math import isqrt

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from symdex import (
    Box,
    ExtractionStalled,
    ExtractionTranscript,
    FinitePoints,
    NormKind,
    NotFound,
    SearchStrategy,
    SequenceStalled,
    SeriesSpec,
    SignMode,
    SignSums,
    SparseVec,
    TreeStalled,
    ZERO,
    build_eps_tree,
    contains,
    default_pool,
    delta0,
    diameter,
    dual_norm,
    dual_pair,
    enumerate_members,
    eps_extreme,
    eps_strong_extreme,
    extract_c0_sequence,
    linear_combination,
    norm,
    one_sided_sequence,
    refine_almost_isometric,
    symmetrize,
    unit,
    validate_transcript,
    verify_basis_inequality,
)
from symdex import extraction
from symdex.exactlp import OPTIMAL
from symdex.extraction import TranscriptStep
from symdex.bruteforce import brute_delta1_zero_witness
from util import (
    ALL_NORMS,
    as_dicts,
    dense_solve_lp,
    finite_sets,
    norm_kinds,
    random_finite_points,
    segment_portion_distance,
    value,
)

BOX = Box(F(1))


def exhaustive(expr):
    return SearchStrategy.exhaustive(default_pool(expr))


# ---------------------------------------------------------------------------
# step functionals


def reference_dual_ball_lp(span, objective, kind):
    """The dual-ball LP with its columns placed by index: f = u - w over
    the joint support, then one slack (sup) or one per coordinate (sum),
    solved by the dense reference simplex."""
    if kind is NormKind.EUCLID:
        return None
    coords = sorted({i for v in span for i in v.support} | set(objective.support))
    if not coords:
        return None
    c = len(coords)
    idx = {i: pos for pos, i in enumerate(coords)}
    if kind is NormKind.SUP:
        nvars = 2 * c + 1
        rows = [[F(1)] * (2 * c) + [F(1)]]
    else:
        nvars = 3 * c
        rows = []
        for p in range(c):
            row = [F(0)] * nvars
            row[p] = row[c + p] = row[2 * c + p] = F(1)
            rows.append(row)
    rhs = [F(1)] * len(rows)
    for v in span:
        row = [F(0)] * nvars
        for i, x in v.items():
            row[idx[i]] = x
            row[c + idx[i]] = -x
        rows.append(row)
        rhs.append(F(0))
    obj = [F(0)] * nvars
    for i, x in objective.items():
        obj[idx[i]] = x
        obj[c + idx[i]] = -x
    status, _, x = dense_solve_lp(obj, rows, rhs)
    if status != OPTIMAL:
        return None
    f = SparseVec({coords[p]: x[p] - x[c + p] for p in range(c)})
    dn = dual_norm(f, kind)
    return None if dn == 0 else f.scale(F(1) / dn)


def test_dual_ball_lp_matches_index_placed_columns():
    # entries over the coprime denominators 2, 3, 5 and 7 give the rows
    # different lcms, so a scale per row (not one for all) moves vertices
    rng = random.Random(8)
    entries = [F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(1, 3), F(-2, 3), F(2, 5), F(-3, 5),
               F(1, 7), F(-5, 7)]

    def vec():
        return SparseVec({i: rng.choice(entries) for i in rng.sample(range(1, 5), rng.randint(0, 3))})

    found = 0
    for _ in range(2000):
        span = [vec() for _ in range(rng.randint(0, 3))]
        objective = vec()
        for kind in (NormKind.SUP, NormKind.SUM):
            f = extraction._dual_ball_lp(span, objective, kind)
            assert f == reference_dual_ball_lp(span, objective, kind)
            found += f is not None
    assert found


# ---------------------------------------------------------------------------
# extraction


def test_extraction_on_unit_box():
    t = extract_c0_sequence(BOX, F(1, 10), 4, NormKind.SUP)
    assert t.points == [unit(n) for n in range(1, 5)]
    assert [s.f for s in t.steps] == [unit(n) for n in range(1, 5)]
    for n, step in enumerate(t.steps, start=1):
        expected = Box(F(1), tuple((i, F(0)) for i in range(1, n)))
        assert step.set_before == expected
    assert t.eta == F(1, 30)
    assert t.delta_lower_at_2N == 1
    assert validate_transcript(t)["ok"]


def test_extraction_respects_given_start():
    box = Box(F(1), ((1, F(2)),))
    t = extract_c0_sequence(box, F(1, 10), 2, NormKind.SUP, x0=unit(1, 2))
    assert t.steps[0].set_before == Box(F(1), ((1, F(0)),))
    assert t.points[0] == unit(2)
    assert validate_transcript(t)["ok"]


def test_extraction_stalls_on_finite_sets():
    pts = FinitePoints((ZERO, unit(1), unit(2)))
    with pytest.raises(ExtractionStalled) as exc:
        extract_c0_sequence(pts, F(1, 10), 1, NormKind.SUP, x0=unit(1))
    assert exc.value.step == 1
    assert exc.value.partial is not None


def test_extraction_other_norms_on_box():
    for kind in (NormKind.SUM, NormKind.EUCLID):
        t = extract_c0_sequence(BOX, F(1, 10), 3, kind)
        assert t.points == [unit(n) for n in range(1, 4)]
        assert validate_transcript(t)["ok"]


def test_transcript_json_roundtrip():
    t = extract_c0_sequence(BOX, F(1, 10), 3, NormKind.SUP)
    again = ExtractionTranscript.from_json(t.to_json())
    assert again.points == t.points
    assert again.delta_lower_at_2N == t.delta_lower_at_2N
    assert validate_transcript(again)["ok"]


def brute_members(expr):
    """Every member of an enumerable set, or every corner of a box with
    default radius 0: a box is the convex hull of its corners, so a
    convex inclusion or a bound on |f| holds on it when it holds there."""
    if isinstance(expr, Box):
        radii = expr.overrides
        return [
            SparseVec({i: sign * r for (i, r), sign in zip(radii, signs)})
            for signs in product((1, -1), repeat=len(radii))
        ]
    members = enumerate_members(expr)
    assert members is not None
    return members


def brute_flags(t):
    """(nested, small_on_next) per step, checked at every member of A_n
    and A_{n+1}: x_{n-1} +- A_n inside A_{n-1}, and |f_n| < eta on A_{n+1}."""
    lineage = [t.base_set] + [s.set_before for s in t.steps] + [t.final_set]
    points = [t.x0] + t.points
    flags = []
    for n, step in enumerate(t.steps, start=1):
        prev, x = lineage[n - 1], points[n - 1]
        nested = all(contains(prev, x + z) and contains(prev, x - z) for z in brute_members(lineage[n]))
        small = all(abs(dual_pair(step.f, z)) < t.eta for z in brute_members(lineage[n + 1]))
        flags.append((nested, small))
    return flags


def box_transcript(box, epsilon, N, kind):
    """Extraction by hand on a box with default radius 0, which has no
    free direction: x_n = r e_i at the largest radius left (the least
    such i) and f_n = e_i, so f_n(x_n) is the sup of f_n."""
    steps, current = [], box
    while len(steps) < N and current.overrides:
        i, r = max(current.overrides, key=lambda ir: (ir[1], -ir[0]))
        steps.append(TranscriptStep(x=unit(i, r), f=unit(i), set_before=current))
        current = symmetrize(current, [unit(i, r)])
    return ExtractionTranscript(box, kind, epsilon, epsilon / 3, ZERO, steps, F(0), current)


sign_sum_sets = st.builds(
    lambda terms, mode, kind: SignSums(SeriesSpec(tuple(terms), kind, "small"), mode, len(terms)),
    st.lists(
        st.dictionaries(st.integers(1, 6), st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=2)
        .map(SparseVec),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(list(SignMode)),
    norm_kinds,
)
# the members of small sign sums as finite sets: x0 +- d lie in them, so
# extraction takes steps there
lattice_sets = sign_sum_sets.map(lambda expr: FinitePoints(enumerate_members(expr)))
zero_default_boxes = st.dictionaries(
    st.integers(1, 5), st.fractions(min_value=0, max_value=2, max_denominator=4), max_size=4
).map(lambda radii: Box(F(0), tuple(radii.items())))


@settings(max_examples=80, deadline=None)
@given(st.one_of(finite_sets, lattice_sets, sign_sum_sets, zero_default_boxes), norm_kinds,
       st.sampled_from([F(1, 10), F(1, 2), F(1)]),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=3, max_size=3))
def test_exact_validation_matches_every_member(expr, kind, epsilon, coefficients):
    if isinstance(expr, Box):
        t = box_transcript(expr, epsilon, 3, kind)
    else:
        try:
            t = extract_c0_sequence(expr, epsilon, 3, kind)
        except ExtractionStalled as stall:
            t = stall.partial
    validation = validate_transcript(t)
    steps = validation["steps"]
    for entry, (nested, small) in zip(steps, brute_flags(t), strict=True):
        assert entry["nested_level"] == entry["small_on_next_level"] == "exact"
        assert entry["nested"] == nested
        # the step lemma: near_sup and A_{n+1} = Sym(A_n; {x_n}) give small
        assert entry["small_on_next"] == (entry["near_sup"] and small)
    if validation["ok"]:
        # the two-sided c0 estimate that a validating transcript implies
        lower_margin, upper_margin = verify_basis_inequality(t, coefficients[: len(t.steps)])
        assert lower_margin >= 0 and upper_margin >= 0
    if len(t.steps) >= 2:
        # A_2 replaced by A_1: every exact flag still implies its brute one
        t.steps[1].set_before = t.steps[0].set_before
        steps, brute = validate_transcript(t)["steps"], brute_flags(t)
        for entry, (nested, small) in zip(steps, brute):
            assert nested or not entry["nested"]
            assert small or not entry["small_on_next"]
        assert steps[1]["nested"] is brute[1][0] is False


def test_validation_rejects_a_repeated_step_set():
    t = extract_c0_sequence(BOX, F(1, 10), 3, NormKind.SUP)
    t.steps[1].set_before = t.steps[0].set_before
    report = validate_transcript(t)
    # A_2 is now the whole box: it is not Sym(A_1; {e_1}), and Sym(A_2;
    # {e_2}) keeps e_1 free, so it is not A_3 either
    assert [entry["nested"] for entry in report["steps"]] == [True, False, False]
    assert [entry["small_on_next"] for entry in report["steps"]] == [False, False, True]
    assert not report["ok"]


def test_validation_rejects_a_raised_index_floor():
    # the printed floor is what verify_basis_inequality reads: raised past
    # the base set's certificate, it breaks the estimate the steps imply
    t = extract_c0_sequence(Box(F(1)), F(1, 10), 3, NormKind.SUP)
    assert validate_transcript(t)["ok"]
    t.delta_lower_at_2N = F(5)
    assert verify_basis_inequality(t, [1, 0, 0]) == (F(-39, 10), F(0))
    report = validate_transcript(t)
    assert all(entry[flag] for entry in report["steps"] for flag in extraction.STEP_FLAGS)
    assert not report["ok"]


def test_small_on_next_needs_near_sup():
    # -e_1 is 0 on A_2, but the step lemma bounds it there only through
    # near_sup, which fails: -e_1(x_1) = -1 is far below its sup 1
    t = extract_c0_sequence(BOX, F(1, 10), 2, NormKind.SUP)
    t.steps[0].f = -t.steps[0].f
    first = validate_transcript(t)["steps"][0]
    assert (first["near_sup"], first["nested"], first["small_on_next"]) == (False, True, False)


# ---------------------------------------------------------------------------
# basis inequality


def test_basis_inequality_margins_example():
    t = extract_c0_sequence(BOX, F(1, 10), 4, NormKind.SUP)
    lo, hi = verify_basis_inequality(t, [F(1), F(-1, 2), F(1, 3), F(-1, 4)])
    assert (lo, hi) == (F(1, 10), F(0))


def test_basis_inequality_zero_and_single():
    t = extract_c0_sequence(BOX, F(1, 10), 4, NormKind.SUP)
    assert verify_basis_inequality(t, [0, 0, 0, 0]) == (0, 0)
    lo, hi = verify_basis_inequality(t, [1])
    assert lo == F(1, 10) and hi == 0


def test_basis_inequality_seeded_batch():
    t = extract_c0_sequence(BOX, F(1, 10), 4, NormKind.SUP)
    rng = random.Random(71)
    for _ in range(100):
        coeffs = [F(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(4)]
        lo, hi = verify_basis_inequality(t, coeffs)
        assert lo >= 0 and hi == 0


# ---------------------------------------------------------------------------
# refinement


def test_refine_box_with_override():
    box = Box(F(1), ((1, F(2)),))
    refined = refine_almost_isometric(box, F(1, 10), exhaustive(box), 4, NormKind.SUP)
    assert refined == Box(F(1), ((1, F(0)),))
    assert delta0(refined, NormKind.SUP).upper == 1


def test_refine_identity_when_already_tight():
    refined = refine_almost_isometric(BOX, F(1, 2), exhaustive(BOX), 2, NormKind.SUP)
    assert refined == BOX


def test_refine_two_overrides():
    box = Box(F(1), ((1, F(2)), (2, F(3, 2))))
    refined = refine_almost_isometric(box, F(1, 10), exhaustive(box), 3, NormKind.SUP)
    assert refined == Box(F(1), ((1, F(0)), (2, F(0))))


def test_refine_not_found_reports_best():
    box = Box(F(1), ((1, F(3)),))
    # witness pool without the override direction cannot reduce delta_0
    strategy = SearchStrategy.exhaustive((ZERO,))
    with pytest.raises(NotFound) as exc:
        refine_almost_isometric(box, F(1, 10), strategy, 2, NormKind.SUP)
    assert exc.value.best is not None


# ---------------------------------------------------------------------------
# trees


def test_tree_on_unit_box():
    tree = build_eps_tree(BOX, 1, 3, NormKind.SUP)
    assert len(tree.nodes) == 7
    assert tree.internal_count == 3
    assert tree.sep == 2
    for n in range(1, tree.internal_count + 1):
        left, right = tree.node(2 * n), tree.node(2 * n + 1)
        assert (left + right).scale(F(1, 2)) == tree.node(n)
        assert norm(right - left, NormKind.SUP) >= 2
    for node in tree.nodes:
        assert contains(BOX, node)


def test_tree_stalls_when_radius_too_small():
    with pytest.raises(TreeStalled) as exc:
        build_eps_tree(Box(F(1, 2)), 1, 2, NormKind.SUP)
    assert exc.value.node == 1


def test_tree_on_finite_set():
    pts = FinitePoints((ZERO, unit(1), -unit(1)))
    tree = build_eps_tree(pts, 1, 2, NormKind.SUP)
    assert tree.node(1) == ZERO
    assert {tree.node(2), tree.node(3)} == {unit(1), -unit(1)}


# ---------------------------------------------------------------------------
# one-sided sequences


def test_one_sided_box():
    xs = one_sided_sequence(BOX, 1, 4, NormKind.SUP)
    assert xs == [unit(n) for n in range(1, 5)]
    for signs in product((1, -1), repeat=4):
        total = sum((x.scale(s) for s, x in zip(signs, xs)), ZERO)
        assert norm(total, NormKind.SUP) <= diameter(BOX, NormKind.SUP).upper


def test_partial_sign_sums_lie_in_the_difference_set():
    # each partial sign sum is the family member x_0 + (its + terms) minus
    # the one of its - terms, and contains accepts both members, so the sum
    # lies in A - A (README, "One-sided families")
    rng = random.Random(17)
    boxes = []
    for _ in range(10):
        coords = rng.sample(range(1, 6), rng.randint(0, 3))
        boxes.append(Box(F(rng.randint(1, 4), 2), tuple((i, F(rng.randint(0, 6), 2)) for i in coords)))
    finite = [random_finite_points(rng, max_points=8, dim=3) for _ in range(40)]
    for cases in (boxes, finite):
        taken = 0
        for expr, kind in product(cases, ALL_NORMS):
            try:
                xs = one_sided_sequence(expr, F(1, 2), 5, kind)
            except SequenceStalled as stall:
                xs = stall.partial
            x0 = extraction.default_start(expr)
            for signs in product((1, -1), repeat=len(xs)):
                plus = x0 + linear_combination((1, x) for s, x in zip(signs, xs) if s > 0)
                minus = x0 + linear_combination((1, x) for s, x in zip(signs, xs) if s < 0)
                assert contains(expr, plus) and contains(expr, minus)
                assert plus - minus == linear_combination(zip(signs, xs))
            taken += len(xs)
        assert taken


positive_boxes = st.builds(
    lambda r, radii: Box(r, tuple(sorted(radii.items()))),
    st.sampled_from([F(1, 2), F(1)]),
    st.dictionaries(st.integers(1, 4), st.fractions(min_value=0, max_value=2, max_denominator=4), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(positive_boxes, finite_sets, lattice_sets, sign_sum_sets), norm_kinds,
       st.sampled_from([F(1, 4), F(1, 2), F(1)]))
# from the start e_1, e_2 gives the prefix e_1 + e_2, and e_3 no prefix e_1 + e_3
@example(SignSums(SeriesSpec(tuple(unit(n) for n in range(1, 5)), NormKind.SUP, "canonical"), SignMode.PREFIXES, 4),
         NormKind.SUP, F(1, 2))
def test_one_sided_families_stay_in_the_set(expr, kind, epsilon):
    # one_sided_sequence tests no translate: each variant's direction must
    # keep every family member's translate in the set (README, "One-sided
    # families")
    try:
        xs = one_sided_sequence(expr, epsilon, 4, kind)
    except SequenceStalled as stall:
        xs = stall.partial
    family = {extraction.default_start(expr)}
    for x in xs:
        family |= {m + x for m in family}
        assert all(contains(expr, m) for m in family)


def test_one_sided_stalls_when_epsilon_too_big():
    with pytest.raises(SequenceStalled) as exc:
        one_sided_sequence(BOX, 3, 2, NormKind.SUP)
    assert exc.value.step == 1


def test_one_sided_finite_square():
    pts = FinitePoints((ZERO, unit(1), unit(1) + unit(2), unit(2)))
    xs = one_sided_sequence(pts, 1, 2, NormKind.SUP)
    assert xs == [unit(1), unit(2)]


# ---------------------------------------------------------------------------
# extreme points


def test_eps_extreme_examples():
    tri = FinitePoints((ZERO, unit(1), unit(2)))
    assert eps_extreme(tri, unit(1), F(1, 1000000), NormKind.SUP)
    assert not eps_extreme(BOX, ZERO, F(1, 2), NormKind.SUP)
    three = FinitePoints((ZERO, unit(1), -unit(1)))
    assert eps_extreme(three, ZERO, 2, NormKind.SUP)


def test_eps_strong_extreme_examples():
    pair = FinitePoints((-unit(1), unit(1)))
    assert eps_strong_extreme(pair, unit(1), F(1, 2), NormKind.SUP) == (True, F(1, 2))
    triple = FinitePoints((-unit(1), ZERO, unit(1)))
    assert eps_strong_extreme(triple, ZERO, F(1, 2), NormKind.SUP) == (False, F(0))
    single = FinitePoints((unit(1),))
    assert eps_strong_extreme(single, unit(1), F(1, 2), NormKind.SUP) == (True, F(1))


def test_eps_strong_extreme_euclid_exact_cases():
    pair = FinitePoints((-unit(1), unit(1)))
    flag, delta = eps_strong_extreme(pair, unit(1), F(1, 2), NormKind.EUCLID)
    assert flag and delta == F(1, 4)  # squared distance to the portion edge
    diag = FinitePoints((ZERO, unit(1) + unit(2)))
    flag, delta = eps_strong_extreme(diag, ZERO, F(1, 2), NormKind.EUCLID)
    assert flag and delta > 0


def test_strong_implies_plain_on_random_sets():
    rng = random.Random(99)
    eps_grid = [F(1, 4), F(1, 2), F(1), F(2)]
    for _ in range(40):
        pts = random_finite_points(rng, max_points=7, dim=4)
        for kind in ALL_NORMS:
            eps = eps_grid[rng.randrange(len(eps_grid))]
            for x in pts.points:
                strong, _ = eps_strong_extreme(pts, x, eps, kind)
                if strong:
                    assert eps_extreme(pts, x, eps, kind)


def test_every_finite_set_has_always_extreme_point():
    rng = random.Random(13)
    tiny = F(1, 1000000)
    for _ in range(40):
        pts = random_finite_points(rng)
        for kind in ALL_NORMS:
            assert any(eps_extreme(pts, x, tiny, kind) for x in pts.points)
            assert brute_delta1_zero_witness(as_dicts(pts), kind) is not None


def test_eps_extreme_inconclusive_on_interval_bounds():
    from symdex import AbsConvHull, Inconclusive

    hull = AbsConvHull((unit(1), unit(2)))
    with pytest.raises(Inconclusive):
        eps_extreme(hull, unit(1), F(1, 2), NormKind.EUCLID)


def test_eps_extreme_checks_membership_once(monkeypatch):
    from symdex import AbsConvHull

    calls = []
    contains_lp = AbsConvHull.contains
    monkeypatch.setattr(AbsConvHull, "contains", lambda *args: calls.append(args) or contains_lp(*args))
    hull = AbsConvHull((unit(1), unit(2)))
    assert eps_extreme(hull, unit(1), 2, NormKind.SUP)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# exact values (a + b*sqrt(s))/d of the strong-extreme scan


def decimal_value(v):
    a, b, s, d = v
    return (Decimal(a) + Decimal(b) * Decimal(s).sqrt()) / Decimal(d)


@st.composite
def scan_values(draw, s=None):
    """A value tuple: b = 0 unless s > 0 is no square. Radicands come
    from a small list (shared square classes: 2, 8, 18, 50) or anywhere."""
    if s is None:
        s = draw(st.sampled_from((0, 0, 1, 2, 3, 4, 5, 8, 12, 18, 50)) | st.integers(0, 10 ** 6))
    r = isqrt(s)
    b = 0 if r * r == s else draw(st.integers(-10 ** 6, 10 ** 6))
    return draw(st.integers(-10 ** 12, 10 ** 12)), b, s, draw(st.integers(1, 10 ** 6))


@settings(max_examples=300)
@given(scan_values(), st.integers(1, 10 ** 6), st.integers(1, 50))
def test_value_cmp_is_zero_on_equal_forms(v, k, r):
    a, b, s, d = v
    assert extraction._cmp(v, v) == 0
    assert extraction._cmp((k * a, k * b, s, k * d), v) == 0
    if b:
        # b*r*sqrt(s) = b*sqrt(s*r^2)
        assert extraction._cmp((a, b * r, s, d), (a, b, s * r * r, d)) == 0


@settings(max_examples=600)
@given(scan_values(), st.data())
def test_value_cmp_agrees_with_decimal_signs(v, data):
    # w is drawn anywhere, over v's radicand, or as v nudged by a tiny step
    a, b, s, d = v
    w = data.draw(scan_values() | scan_values(s) | st.integers(-3, 3).map(
        lambda t: (a * 10 ** 9 + t, b * 10 ** 9, s, d * 10 ** 9)))
    got = extraction._cmp(v, w)
    assert extraction._cmp(w, v) == -got
    with localcontext() as ctx:
        ctx.prec = 120
        diff = decimal_value(v) - decimal_value(w)
    if abs(diff) > Decimal("1e-100"):
        assert got == (1 if diff > 0 else -1)


def test_value_cmp_reaches_every_line():
    codes = {extraction._cmp.__code__, extraction._root_sign.__code__}
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    cases = [
        ((1, 0, 0, 2), (1, 0, 0, 3), 1),  # both rational: 1/2 > 1/3
        ((3, -1, 2, 1), (0, 0, 2, 1), 1),  # one radicand, signs differ: 3 > sqrt(2)
        ((1, -1, 2, 1), (0, 0, 0, 1), -1),  # a rational w: 1 < sqrt(2)
        ((0, 1, 2, 1), (0, -1, 3, 1), 1),  # sqrt(2) > -sqrt(3)
        ((0, 0, 0, 1), (0, 1, 3, 1), -1),  # a zero left side: 0 < sqrt(3)
        ((0, 1, 2, 1), (0, 1, 3, 1), -1),  # both positive, squared: 2 < 3
        ((0, 3, 2, 1), (0, 1, 18, 1), 0),  # 3*sqrt(2) = sqrt(18)
    ]
    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = [extraction._cmp(v, w) for v, w, _ in cases]
    finally:
        sys.settrace(old)
    assert got == [want for _, _, want in cases]
    body = {(code, line) for code in codes for _, _, line in code.co_lines()
            if line is not None and line > code.co_firstlineno}
    assert body <= seen


def test_eps_strong_extreme_euclid_irrational_boundary():
    # the only nonempty middle portion sits at an irrational (squared)
    # distance 2 - (4/5)sqrt(5); the returned witness is a certified
    # rational lower bound of it
    pts = FinitePoints((-unit(1), unit(1) + unit(2), unit(2)))
    flag, delta = eps_strong_extreme(pts, unit(2), F(1), NormKind.EUCLID)
    assert flag
    assert F(1, 5) < delta < F(11, 50)


def reference_eps_strong_extreme(expr, x, epsilon, kind):
    """The all-pairs strong-extreme test: every pair of points, x's pairs
    included, is scored by the full candidate scan, then the minimum."""
    eps = F(epsilon)
    values = []
    for a1, a2 in combinations(expr.points, 2):
        v = segment_portion_distance(x, a1, a2, eps, kind)
        if v is not None:
            values.append(v)
    if not values:
        return True, F(1)
    best = values[0]
    for v in values[1:]:
        if extraction._cmp(v, best) < 0:
            best = v
    if extraction._cmp(best, value(F(0))) <= 0:
        return False, F(0)
    return True, extraction._value_lower_rational(best)


# epsilons with numerators above 1 and entries with denominators up to 12
# make the scan's common scale mix coprime factors
STRONG_EPS = (F(1, 1000000), F(1, 4), F(1, 2), F(1), F(4), F(3, 7), F(5, 3), F(2, 9))
# a coarse grid of entries makes ties, shared coordinates and collinear
# triples (x inside a segment) common
grid_entries = st.sampled_from((F(-2), F(-1), F(-1, 2), F(-1, 3), F(0), F(1, 3), F(1, 2), F(1), F(2)))
strong_entries = st.one_of(
    grid_entries,
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
)
strong_sets = st.lists(
    st.dictionaries(st.integers(1, 4), strong_entries, max_size=4).map(SparseVec),
    min_size=1,
    max_size=8,
).map(lambda pts: FinitePoints(tuple(pts)))


@settings(max_examples=120, deadline=None)
@given(strong_sets, st.sampled_from(ALL_NORMS), st.sampled_from(STRONG_EPS))
def test_eps_strong_extreme_matches_all_pairs_reference(pts, kind, eps):
    for x in pts.points:
        assert eps_strong_extreme(pts, x, eps, kind) == reference_eps_strong_extreme(
            pts, x, eps, kind
        )


def test_eps_strong_extreme_empty_portion_of_a_pair_with_x():
    pair = FinitePoints((ZERO, unit(1)))
    for kind in ALL_NORMS:
        # length 1 = 2*eps: the portion is the midpoint, eps away from x
        half = F(1, 4) if kind is NormKind.EUCLID else F(1, 2)
        assert eps_strong_extreme(pair, ZERO, F(1, 2), kind) == (True, half)
        # length 1 < 2*eps: no middle portion at all
        assert eps_strong_extreme(pair, ZERO, F(3, 5), kind) == (True, F(1))
        assert reference_eps_strong_extreme(pair, ZERO, F(3, 5), kind) == (True, F(1))
    # x's pair with unit(1) is empty, the others are not
    pts = FinitePoints((ZERO, unit(1), 4 * unit(2), unit(1) + 3 * unit(3)))
    for kind in ALL_NORMS:
        got = eps_strong_extreme(pts, ZERO, F(1), kind)
        assert got == reference_eps_strong_extreme(pts, ZERO, F(1), kind)


def test_eps_strong_extreme_gap_bound_is_carried():
    # [(1/3, -3), (1/3, 3)] passes 1/3 from x = 0: the coordinate gap 1/3
    # is the distance, and under euclid its square 1/9 lies below the
    # seed eps^2 = 1/4 while the plain gap does not
    pts = FinitePoints((ZERO, SparseVec({1: F(1, 3), 2: -3}), SparseVec({1: F(1, 3), 2: 3})))
    want = {NormKind.SUP: F(1, 3), NormKind.SUM: F(1, 3), NormKind.EUCLID: F(1, 9)}
    for kind in ALL_NORMS:
        assert eps_strong_extreme(pts, ZERO, F(1, 2), kind) == (True, want[kind])
        assert reference_eps_strong_extreme(pts, ZERO, F(1, 2), kind) == (True, want[kind])


def test_eps_strong_extreme_irrational_boundary_matches_reference():
    triple = (-unit(1), unit(1) + unit(2), unit(2))
    for pts, eps in (
        (FinitePoints(triple), F(1)),
        (FinitePoints(tuple(p.scale(F(2, 3)) for p in triple)), F(5, 7)),
    ):
        for x in pts.points:
            want = reference_eps_strong_extreme(pts, x, eps, NormKind.EUCLID)
            assert eps_strong_extreme(pts, x, eps, NormKind.EUCLID) == want


def test_eps_strong_extreme_keeps_a_tiny_irrational_minimum_positive():
    # r = q/p with p^2 - 2q^2 = 1 puts the portion of the diagonal
    # segment [-(r, r), (10 - r, 10 - r)] a squared distance below 1e-66
    # from x = 0: 200 halvings alone leave its lower bound at 0
    p = 34761632124320657
    q = isqrt((p * p - 1) // 2)
    assert p * p - 2 * q * q == 1
    r = F(q, p)
    ends = (SparseVec({1: -r, 2: -r}), SparseVec({1: 10 - r, 2: 10 - r}))
    pts = FinitePoints((ZERO, *ends))
    flag, delta = eps_strong_extreme(pts, ZERO, F(1), NormKind.EUCLID)
    exact = segment_portion_distance(ZERO, *ends, F(1), NormKind.EUCLID)
    assert flag
    assert 0 < delta
    assert extraction._cmp(exact, value(delta)) >= 0


def test_eps_strong_extreme_exits_on_a_segment_through_x(monkeypatch):
    # x = 0 lies strictly inside [-e1, e1], the first pair without x
    pts = FinitePoints((-unit(1), ZERO, unit(1), 5 * unit(2), 6 * unit(2), 7 * unit(2)))
    calls = []
    scan = extraction._segment_portion_distance

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(extraction, "_segment_portion_distance", counted)
    for kind in ALL_NORMS:
        calls.clear()
        assert eps_strong_extreme(pts, ZERO, F(1, 2), kind) == (False, F(0))
        assert len(calls) == 1
        assert reference_eps_strong_extreme(pts, ZERO, F(1, 2), kind) == (False, F(0))
