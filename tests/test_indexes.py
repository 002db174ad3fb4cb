import functools
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from symdex import (
    AbsConvHull,
    Box,
    FinitePoints,
    Intersect,
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
    ZERO,
    challenge_lower,
    default_pool,
    delta0,
    delta_curve,
    delta_lower,
    delta_upper,
    eps_extreme,
    refine_almost_isometric,
    separation_alpha_lower,
    symmetrize,
    unit,
)
from symdex import indexes
from symdex import sets as sets_module
from symdex.errors import InvalidInput, NotFound, WitnessNotMember
from symdex.bruteforce import brute_delta_upper, brute_delta1_zero_witness
from symdex.sets import BoundPair, LowerCertificate, _plain_lower, contains
from symdex.vectors import as_length, as_scalar, format_scalar, linear_combination
from util import ALL_NORMS, as_dicts, random_finite_points, random_point

TRIANGLE = FinitePoints((ZERO, unit(1), unit(2)))


def exhaustive(expr):
    return SearchStrategy.exhaustive(default_pool(expr))


def test_delta0_examples():
    assert delta0(Box(F(1)), NormKind.SUP).upper == 1
    assert delta0(Box(F(1), ((1, F(2)),)), NormKind.SUP).upper == 2
    assert delta0(FinitePoints((ZERO, unit(1))), NormKind.SUP).upper == F(1, 2)


def test_delta_upper_triangle_is_zero():
    res = delta_upper(TRIANGLE, 1, exhaustive(TRIANGLE), NormKind.SUP)
    assert res.bound.upper == 0
    sym = symmetrize(TRIANGLE, res.upper_witnesses)
    assert delta0(sym, NormKind.SUP).upper == 0


def test_delta_upper_box_stays_one():
    box = Box(F(1))
    for strategy in ("exhaustive", "greedy", "beam"):
        s = SearchStrategy.parse(strategy, default_pool(box))
        res = delta_upper(box, 3, s, NormKind.SUP)
        assert res.bound.upper == 1


def test_delta_upper_hull_pins_generator():
    hull = AbsConvHull(tuple(unit(i, s) for i in range(1, 5) for s in (1, -1)))
    res = delta_upper(hull, 1, SearchStrategy.exhaustive(default_pool(hull)), NormKind.SUM)
    assert res.bound.upper == 0


def test_delta_lower_examples():
    assert delta_lower(Box(F(1)), 5, NormKind.SUP).bound.lower == 1
    assert delta_lower(Box(F(1), ((1, F(2)),)), 3, NormKind.SUP).bound.lower == 1
    assert delta_lower(TRIANGLE, 1, NormKind.SUP).bound.lower == 0
    cert = delta_lower(TRIANGLE, 1, NormKind.SUP).lower_certificate
    assert cert.kind == "finite_extreme"  # certified zero, not unknown


def test_delta_lower_challenge_replay():
    box = Box(F(1))
    cert = delta_lower(box, 2, NormKind.SUP).lower_certificate
    witnesses = [unit(1, F(1, 2)), SparseVec({2: F(-1, 3), 5: 1})]
    d = challenge_lower(cert, box, witnesses, NormKind.SUP)
    assert d is not None


def test_delta_curve_box_with_override():
    box = Box(F(1), ((1, F(2)),))
    curve = delta_curve(box, 3, exhaustive(box), NormKind.SUP)
    values = [(r.bound.lower, r.bound.upper) for r in curve]
    assert values == [(2, 2), (1, 1), (1, 1), (1, 1)]


def test_delta_curve_triangle():
    curve = delta_curve(TRIANGLE, 2, exhaustive(TRIANGLE), NormKind.SUP)
    assert (curve[0].bound.lower, curve[0].bound.upper) == (F(1, 2), F(1, 2))
    assert curve[1].bound.upper == 0
    assert curve[2].bound.upper == 0


def test_delta_curve_plain_box_all_ones():
    box = Box(F(1))
    curve = delta_curve(box, 4, exhaustive(box), NormKind.SUP)
    assert all(r.bound.lower == 1 and r.bound.upper == 1 for r in curve)


def test_curve_monotone_uppers_random_sets():
    rng = random.Random(11)
    for _ in range(10):
        pts = random_finite_points(rng, max_points=6, dim=3)
        for kind in ALL_NORMS:
            curve = delta_curve(pts, 3, exhaustive(pts), kind)
            uppers = [r.bound.upper for r in curve]
            assert all(a >= b for a, b in zip(uppers, uppers[1:]))
            for r in curve:
                if r.bound.lower is not None and r.bound.upper is not None:
                    assert r.bound.lower <= r.bound.upper


def test_exhaustive_matches_brute_oracle():
    rng = random.Random(23)
    for _ in range(25):
        pts = random_finite_points(rng, max_points=6, dim=3)
        dicts = as_dicts(pts)
        for kind in ALL_NORMS:
            for n in (1, 2, 3):
                ours = delta_upper(pts, n, exhaustive(pts), kind).bound.upper
                assert ours == brute_delta_upper(dicts, n, kind)


def test_delta1_zero_on_every_finite_set():
    rng = random.Random(37)
    for _ in range(40):
        pts = random_finite_points(rng)
        for kind in ALL_NORMS:
            res = delta_upper(pts, 1, exhaustive(pts), kind)
            assert res.bound.upper == 0
            assert brute_delta1_zero_witness(as_dicts(pts), kind) is not None


def test_separation_examples():
    bound = separation_alpha_lower(Box(F(1)), 5, NormKind.SUP)
    assert bound.lower == 1
    family = bound.lower_witness["family"]
    assert len(family) == 5
    two = separation_alpha_lower(FinitePoints((ZERO, unit(1))), 2, NormKind.SUP)
    assert two.lower == F(1, 2)
    assert separation_alpha_lower(Box(F(1)), 1, NormKind.SUP).lower == 0


def test_separation_consistency_with_index_floor():
    # covering obstruction of a symmetrized box is never below the
    # fresh-coordinate floor of the doubled witness count
    rng = random.Random(4)
    box = Box(F(1))
    for _ in range(6):
        n = rng.randint(1, 4)
        ws = []
        for _ in range(n):
            v = random_point(rng, dim=3)
            peak = max((abs(x) for _, x in v.items()), default=F(0))
            ws.append(v if peak <= 1 else v.scale(F(1, 2) / peak))
        sym = symmetrize(box, ws)
        alpha = separation_alpha_lower(sym, 5, NormKind.SUP)
        floor = delta_lower(box, 2 * n, NormKind.SUP)
        assert alpha.lower >= floor.bound.lower == 1


def test_sign_sum_lower_certificate():
    series = SeriesSpec(tuple(unit(n) for n in range(1, 9)), NormKind.SUP, "canonical")
    expr = SignSums(series, SignMode.SUBSETS, 8)
    res = delta_lower(expr, 3, NormKind.SUP)
    assert res.bound.lower == 1
    assert res.lower_certificate.kind == "fresh_series_index"


def test_sign_sum_curve_downgrades_conditional_floor():
    # a witness using the whole horizon collapses the finite model, so the
    # curve may not carry the fresh-index floor unconditionally
    series = SeriesSpec(tuple(unit(n) for n in range(1, 5)), NormKind.SUP, "canonical")
    expr = SignSums(series, SignMode.SUBSETS, 4)
    curve = delta_curve(expr, 1, exhaustive(expr), NormKind.SUP)
    assert curve[1].bound.upper == 0  # full-prefix witness pins everything
    assert curve[1].bound.lower == 0
    cert = curve[1].lower_certificate
    assert cert.conditional and cert.value == 1


def test_greedy_and_beam_never_beat_exhaustive():
    rng = random.Random(77)
    for _ in range(10):
        pts = random_finite_points(rng, max_points=6, dim=3)
        pool = pts.points
        for kind in ALL_NORMS:
            exact = delta_upper(pts, 2, SearchStrategy.exhaustive(pool), kind).bound.upper
            greedy = delta_upper(pts, 2, SearchStrategy.greedy(pool), kind).bound.upper
            beam = delta_upper(pts, 2, SearchStrategy.beam(pool), kind).bound.upper
            assert greedy >= exact and beam >= exact


def test_greedy_and_beam_never_beat_exhaustive_on_midpoint_pools():
    for expr, pool in midpoint_grid_sets(random.Random(21), 12):
        for kind in ALL_NORMS:
            for n in (1, 2, 3):
                exact = delta_upper(expr, n, SearchStrategy.exhaustive(pool), kind).bound.upper
                greedy = delta_upper(expr, n, SearchStrategy.greedy(pool), kind).bound.upper
                beam = delta_upper(expr, n, SearchStrategy.beam(pool), kind).bound.upper
                assert greedy >= exact and beam >= exact
                # no pool point is extreme, so delta_1 is not pinned to zero
                assert n > 1 or exact > 0


def reference_greedy(expr, N, pool, kind):
    """The greedy search as a loop of its own: from the empty list, each
    round adds the pool point whose list scores lowest (ties to the
    smaller point)."""
    pool = sorted(set(pool), key=lambda p: p.sort_key())
    best_bound, best_ws = None, ()

    def consider(ws):
        nonlocal best_bound, best_ws
        bound = delta0(expr.symmetrize_reduce(list(ws)), kind)
        score = indexes._score(bound)
        if (
            best_bound is None
            or score < best_bound.upper
            or (score == best_bound.upper and indexes._witness_key(ws) < indexes._witness_key(best_ws))
        ):
            best_bound = bound
            best_ws = tuple(sorted(ws, key=lambda w: w.sort_key()))
        return score

    current = []
    while len(current) < N:
        best_step = None
        for p in pool:
            if p in current:
                continue
            key = (consider(current + [p]), p.sort_key())
            if best_step is None or key < best_step[0]:
                best_step = (key, p)
        if best_step is None:
            break
        current.append(best_step[1])
    bound = BoundPair(F(0), best_bound.upper, upper_witness=best_bound.to_json())
    return indexes.DeltaResult(N=N, bound=bound, upper_witnesses=best_ws)


def midpoint_grid_sets(rng, count):
    """Grid sets with the pool of their points that are midpoints of two
    others: an extreme point would pin delta_1 to zero at once, and
    without one the strategies reach different lists."""
    grid = [SparseVec({1: a, 2: b}) for a in range(5) for b in range(5)]
    for _ in range(count):
        pts = rng.sample(grid, rng.randint(3, 16))
        pool = [p for p in pts if any(a + b == p.scale(2) for a in pts for b in pts if a != b)]
        if pool:
            yield FinitePoints(tuple(pts)), pool


def test_greedy_is_a_width_one_beam_per_restart():
    for expr, pool in midpoint_grid_sets(random.Random(3), 30):
        for kind in ALL_NORMS:
            for n in (1, 2, 3):
                got = delta_upper(expr, n, SearchStrategy.greedy(pool), kind)
                want = reference_greedy(expr, n, pool, kind)
                assert got == want
                assert got.to_json() == want.to_json()


def reference_delta_upper(expr, N, strategy, kind):
    """delta_upper as a search of its own for every N: exhaustive scores
    the combinations of at most N pool points; greedy and beam grow lists
    from the empty list for N rounds, keeping the 1 and 4 best."""
    if N < 1:
        raise InvalidInput("delta_upper needs N >= 1")
    pool = []
    seen = set()
    for p in strategy.pool:
        if p in seen:
            continue
        seen.add(p)
        if not contains(expr, p):
            raise WitnessNotMember(f"pool member {p!r} is not in the set")
        pool.append(p)
    pool.sort(key=lambda p: p.sort_key())
    if not pool:
        raise InvalidInput("witness pool is empty")
    best_bound, best_ws = None, ()

    def consider(ws):
        nonlocal best_bound, best_ws
        bound = delta0(expr.symmetrize_reduce(list(ws)), kind)
        score = indexes._score(bound)
        if (
            best_bound is None
            or score < best_bound.upper
            or (score == best_bound.upper and indexes._witness_key(ws) < indexes._witness_key(best_ws))
        ):
            best_bound = bound
            best_ws = tuple(sorted(ws, key=lambda w: w.sort_key()))
        return score

    if strategy.kind == "exhaustive":
        for size in range(1, min(N, len(pool)) + 1):
            for ws in combinations(pool, size):
                consider(ws)
    else:
        width = 1 if strategy.kind == "greedy" else 4
        states = [()]
        for _ in range(N):
            scored = []
            seen_states = set()
            for state in states:
                for p in pool:
                    if p in state:
                        continue
                    ws = tuple(sorted(state + (p,), key=lambda w: w.sort_key()))
                    if ws in seen_states:
                        continue
                    seen_states.add(ws)
                    scored.append((consider(ws), indexes._witness_key(ws), ws))
            if not scored:
                break
            scored.sort(key=lambda t: (t[0], t[1]))
            states = [ws for _, _, ws in scored[:width]]
    bound = BoundPair(F(0), best_bound.upper, upper_witness=best_bound.to_json())
    return indexes.DeltaResult(N=N, bound=bound, upper_witnesses=best_ws)


def reference_delta_curve(expr, N_max, strategy, kind):
    """The curve with row N built from its own reference_delta_upper(N)."""
    if N_max < 0:
        raise InvalidInput("N_max must be nonnegative")
    base = delta0(expr, kind)
    floor = base.lower or F(0)
    zero_cert = LowerCertificate("diameter", floor, _plain_lower(floor, kind), False)
    rows = [indexes.DeltaResult(N=0, bound=base, lower_certificate=zero_cert)]
    for n in range(1, N_max + 1):
        up = reference_delta_upper(expr, n, strategy, kind)
        # the uppers never grow with N, so no row needs an earlier list
        assert n == 1 or up.bound.upper <= rows[-1].bound.upper
        cert = delta_lower(expr, n, kind).lower_certificate
        lower = cert.unconditional_value
        if lower > up.bound.upper:
            raise SymdexError(f"delta sandwich violated at N={n}: lower {lower} > upper {up.bound.upper}")
        bound = BoundPair(
            lower, up.bound.upper, lower_witness=cert.to_json(), upper_witness=up.bound.upper_witness
        )
        rows.append(
            indexes.DeltaResult(N=n, bound=bound, upper_witnesses=up.upper_witnesses, lower_certificate=cert)
        )
    return rows


def reference_refine(expr, epsilon, strategy, N_max, kind):
    """refine_almost_isometric as one reference_delta_upper per N."""
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    low = delta_lower(expr, 1, kind).lower_certificate
    if low.unconditional_value <= 0 or not low.uniform:
        raise InvalidInput("refinement needs a positive unconditional lower certificate")
    target = as_length(1 + eps, kind) * low.value
    best = None
    for n in range(1, N_max + 1):
        up = reference_delta_upper(expr, n, strategy, kind)
        ratio = up.bound.upper / low.value
        if best is None or ratio < best[0]:
            best = (ratio, up)
        if up.bound.upper <= target:
            return symmetrize(expr, up.upper_witnesses)
    raise NotFound(
        f"no witness list within N_max={N_max} met the ratio target",
        best=None if best is None else {
            "ratio": format_scalar(best[0]),
            "witnesses": [w.to_json() for w in best[1].upper_witnesses],
        },
    )


def outcome(call):
    """What a call returns or raises, in comparable form."""
    try:
        return "ok", call()
    except SymdexError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "best", None)


def all_strategies(pool):
    yield SearchStrategy.exhaustive(pool)
    yield SearchStrategy.greedy(pool)
    yield SearchStrategy.beam(pool)


DIFFERENTIAL_BOXES = [
    Box(F(1), ((1, F(2)),)),
    Box(F(1), ((1, F(3)), (2, F(2)), (3, F(1, 2)))),
    Box(F(0), ((1, F(2)), (2, F(1)), (3, F(3, 2)))),
    Box(F(1, 2), ((2, F(1)), (4, F(5, 2)))),
]


# a generator's one-point list scores 0, so these searches end early
DIFFERENTIAL_HULLS = [
    AbsConvHull((SparseVec({1: 1, 2: 1}),)),
    AbsConvHull((unit(1, 2), SparseVec({1: 1, 2: 1}))),
]


def test_lazy_search_matches_a_search_per_n(monkeypatch):
    # the curve and the delta_upper checks share one reference search per N
    monkeypatch.setitem(globals(), "reference_delta_upper", functools.cache(reference_delta_upper))
    cases = list(midpoint_grid_sets(random.Random(5), 12))
    cases += [(box, default_pool(box)) for box in DIFFERENTIAL_BOXES]
    cases += [(hull, default_pool(hull)) for hull in DIFFERENTIAL_HULLS]
    # off-axis members make the strategies reach different lists
    box = DIFFERENTIAL_BOXES[0]
    cases.append((box, default_pool(box) + (SparseVec({1: 1, 2: F(1, 2)}), unit(2, -1), unit(3, F(1, 3)))))
    for expr, pool in cases:
        for strategy in all_strategies(pool):
            for kind in ALL_NORMS:
                got = outcome(lambda: delta_curve(expr, 3, strategy, kind))
                want = outcome(lambda: reference_delta_curve(expr, 3, strategy, kind))
                assert got == want
                if got[0] == "ok":
                    assert [r.to_json() for r in got[1]] == [r.to_json() for r in want[1]]
                    for n in (1, 2, 3):
                        want = reference_delta_upper(expr, n, strategy, kind)
                        assert delta_upper(expr, n, strategy, kind) == want
                for n_max in (0, 1, 2, 3):
                    for epsilon in (F(1, 10), F(1)):
                        got = outcome(lambda: refine_almost_isometric(expr, epsilon, strategy, n_max, kind))
                        assert got == outcome(lambda: reference_refine(expr, epsilon, strategy, n_max, kind))


def test_curve_to_zero_searches_nothing():
    box = Box(F(1), ((1, F(2)),))
    for pool in ((), (unit(1, 5),)):  # empty, and not a member
        for strategy in all_strategies(pool):
            got = delta_curve(box, 0, strategy, NormKind.SUP)
            want = reference_delta_curve(box, 0, strategy, NormKind.SUP)
            assert got == want
            assert [r.to_json() for r in got] == [r.to_json() for r in want]
            with pytest.raises(NotFound) as miss:
                refine_almost_isometric(box, F(1, 10), strategy, 0, NormKind.SUP)
            assert miss.value.best is None
            got = outcome(lambda: delta_curve(box, 1, strategy, NormKind.SUP))
            assert got == outcome(lambda: reference_delta_curve(box, 1, strategy, NormKind.SUP))
            assert got[0] in ("InvalidInput", "WitnessNotMember")


def test_curve_scores_each_list_once(monkeypatch):
    calls = []
    scored = indexes._delta_of

    def counted(*args):
        calls.append(args)
        return scored(*args)

    monkeypatch.setattr(indexes, "_delta_of", counted)
    box = Box(F(1), ((1, F(2)),))
    delta_curve(box, 3, exhaustive(box), NormKind.SUP)
    # three pool points: 3 + 3 + 1 lists, against 3 + 6 + 7 for a search per N
    assert len(calls) == 7
    calls.clear()
    delta_curve(DIFFERENTIAL_BOXES[1], 3, exhaustive(DIFFERENTIAL_BOXES[1]), NormKind.SUP)
    assert len(calls) == 7 + 21 + 35  # every list of at most 3 of the 7 pool points, once
    calls.clear()
    delta_upper(box, 1, SearchStrategy.greedy(default_pool(box)), NormKind.SUP)
    assert len(calls) == 3  # round 1 scores each pool point once


def test_zero_best_ends_the_search(monkeypatch):
    scored, ranked = [], []
    delta_of, witness_key = indexes._delta_of, indexes._witness_key
    monkeypatch.setattr(indexes, "_delta_of", lambda *args: scored.append(args[1]) or delta_of(*args))
    # rank keys every list it sees once, scored or not
    monkeypatch.setattr(indexes, "_witness_key", lambda ws: ranked.append(ws) or witness_key(ws))
    hull = DIFFERENTIAL_HULLS[1]
    # zero and the inner member e_1 score above 0, the generator e_1 + e_2
    # first scores 0, and the generator 2e_1 after it is never scored
    pool = (ZERO, unit(1), SparseVec({1: 1, 2: 1}), unit(1, 2))
    assert [delta_of(hull, [p], NormKind.SUP).upper > 0 for p in pool] == [True, True, False, False]
    strategies = [
        SearchStrategy.exhaustive(pool),
        SearchStrategy.greedy(pool),
        SearchStrategy.beam(pool),
    ]
    for strategy in strategies:
        scored.clear()
        ranked.clear()
        rows = delta_curve(hull, 3, strategy, NormKind.SUP)
        assert set(scored) == {(p,) for p in pool[:3]}  # no list of size 2 or 3
        assert len(scored) == 3
        assert len(ranked) == len(pool)  # round 1 is the last round
        assert rows[1].bound.upper == 0
        assert rows[1].upper_witnesses == (pool[2],)
        for row in rows[2:]:
            assert row.bound == rows[1].bound
            assert row.upper_witnesses == rows[1].upper_witnesses
        scored.clear()
        assert delta_upper(hull, 3, strategy, NormKind.SUP).upper_witnesses == (pool[2],)
        assert len(scored) == 3


def test_search_samples_lower_ends_of_yielded_rows_only(monkeypatch):
    # x_n = e_n + e_{n+1}: 3^12 sign patterns exceed the enumeration
    # budget, so every symmetrization takes the relaxation upper end and
    # the pool lower end, which only a yielded row computes
    terms = tuple(SparseVec({n: F(1), n + 1: F(1)}) for n in range(1, 13))
    expr = SignSums(SeriesSpec(terms, NormKind.SUP, "overlap12"), SignMode.SUBSETS, 12)
    pool = [
        linear_combination((1, t) for t in terms[7:]),
        terms[11],
        linear_combination((1, t) for t in terms[1:6]),
    ]
    strategy = SearchStrategy.exhaustive(pool)
    want = [reference_delta_upper(expr, n, strategy, NormKind.SUP) for n in (1, 2)]
    # the rows yield different lists, each with an inexact bound
    assert want[0].upper_witnesses != want[1].upper_witnesses
    assert all(up.bound.upper_witness["lower"] != up.bound.upper_witness["upper"] for up in want)
    calls = []
    pooled = sets_module.sample_members
    monkeypatch.setattr(sets_module, "sample_members", lambda *args: calls.append(args) or pooled(*args))
    curve = delta_curve(expr, 2, strategy, NormKind.SUP)
    assert len(calls) == 2  # one per yielded row; row 0 is a closed form
    for row, up in zip(curve[1:], want):
        assert row.upper_witnesses == up.upper_witnesses
        assert row.bound.upper == up.bound.upper
        assert row.bound.upper_witness == up.bound.upper_witness
    calls.clear()
    got = delta_upper(expr, 2, strategy, NormKind.SUP)
    assert len(calls) == 1  # the returned row only
    assert got == want[1]
    assert got.to_json() == want[1].to_json()


def test_sandwich_property():
    rng = random.Random(123)
    for _ in range(10):
        pts = random_finite_points(rng, max_points=5, dim=3)
        for kind in ALL_NORMS:
            for n in (1, 2):
                low = delta_lower(pts, n, kind).lower_certificate.unconditional_value
                up = delta_upper(pts, n, SearchStrategy.exhaustive(pts.points), kind).bound.upper
                assert low <= up
    box = Box(F(1))
    for n in (1, 3):
        low = delta_lower(box, n, NormKind.SUP).lower_certificate.unconditional_value
        up = delta_upper(box, n, exhaustive(box), NormKind.SUP).bound.upper
        assert low <= up


def test_search_and_eps_extreme_share_one_witness_member_sets(monkeypatch):
    # each S_x is enumerated once per set, by the first caller that needs
    # it, and read from the enumeration cache by every later one
    enumerated = []
    raw = sets_module._enumerate_members_raw
    monkeypatch.setattr(
        sets_module, "_enumerate_members_raw", lambda expr, budget: enumerated.append(expr) or raw(expr, budget)
    )
    rng = random.Random(18)
    for _ in range(6):
        pts = random_finite_points(rng, max_points=6, dim=3)
        sets_module._ENUM_CACHE.clear()
        enumerated.clear()
        for kind in ALL_NORMS:
            delta_curve(pts, 2, SearchStrategy.exhaustive(default_pool(pts)), kind)
            if kind is ALL_NORMS[0]:
                searched = [e for e in enumerated if isinstance(e, Symmetrized) and len(e.witnesses) == 1]
                assert searched  # the search builds S_x through the cache
            for x in pts.points:
                eps_extreme(pts, x, F(1, 2), kind)
        singles = [e for e in enumerated if isinstance(e, Symmetrized) and len(e.witnesses) == 1]
        assert len(singles) == len(set(singles))


def test_search_scores_enumerable_lists_from_shared_member_sets():
    rng = random.Random(12)
    cases, pairs = [], []
    for _ in range(8):
        pts = random_finite_points(rng, max_points=6, dim=3)
        shifted = Translate(pts, random_point(rng, 3))
        pairs.append((pts, shifted))
        for expr in (pts, shifted, Negate(pts), symmetrize(pts, [pts.points[0]])):
            cases.append((expr, default_pool(expr)))
    # without an extreme point in the pool the best lists keep members
    # other than zero, so their witness pairs are compared too
    for expr, pool in midpoint_grid_sets(random.Random(5), 6):
        cases.append((Translate(expr, unit(3)), [p + unit(3) for p in pool]))
    for expr, pool in cases:
        for kind in ALL_NORMS:
            strategy = SearchStrategy.exhaustive(pool)
            got = delta_curve(expr, 2, strategy, kind)
            want = reference_delta_curve(expr, 2, strategy, kind)
            assert [r.to_json() for r in got] == [r.to_json() for r in want]
    # an intersection symmetrizes part by part
    for pts, shifted in pairs:
        expr = Intersect((pts, FinitePoints(pts.points + shifted.default_pool())))
        strategy = SearchStrategy.exhaustive(pts.points)
        got = delta_curve(expr, 2, strategy, NormKind.SUP)
        want = reference_delta_curve(expr, 2, strategy, NormKind.SUP)
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
