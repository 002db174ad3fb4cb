from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
import hypothesis.strategies as st

from symdex import exactlp
from symdex.exactlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    WarmLp,
    free_columns,
    free_value,
    solve_lp,
)
from util import dense_phase_one, dense_solve_lp


def test_simple_optimum():
    # max x + y subject to x + y + s = 1
    status, value, _ = rational(solve_lp([1, 1, 0], [[1, 1, 1]], [1]))
    assert status == OPTIMAL
    assert value == 1


def test_two_constraints():
    # max 3x + 2y ; x + y + s1 = 4 ; x + 3y + s2 = 6
    status, value, x = rational(solve_lp([3, 2, 0, 0], [[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6]))
    assert status == OPTIMAL
    assert value == 12  # vertex x=4, y=0
    assert x[0] == 4 and x[1] == 0


def test_infeasible():
    # x = -1 with x >= 0, after normalization: -x = 1 has no solution
    res = solve_lp([0], [[1]], [-1])
    assert res.status == INFEASIBLE


def test_unbounded():
    # max x with only x - y = 0
    res = solve_lp([1, 0], [[1, -1]], [0])
    assert res.status == UNBOUNDED


def test_degenerate_redundant_rows():
    status, value, _ = rational(solve_lp([1, 0], [[1, 1], [2, 2]], [1, 2]))
    assert status == OPTIMAL
    assert value == 1


def feasible_point(rows, rhs):
    """A nonnegative solution of ``rows x = rhs`` or None: the basic point
    of the phase-1 basis, read off as a zero objective's optimum."""
    return solve([F(0)] * (len(rows[0]) if rows else 0), rows, rhs)[2]


def test_feasible_point():
    x = feasible_point([[F(1), F(1)]], [F(1)])
    assert x is not None and x[0] + x[1] == 1
    assert feasible_point([[F(1)]], [F(-2)]) is None


def test_free_columns_and_value():
    assert free_columns([F(1), F(0), F(-2, 3)]) == [F(1), F(0), F(-2, 3), F(-1), F(0), F(2, 3)]
    assert free_columns([]) == []
    # u = (2, 0), w = (0, 5), then one more column
    assert free_value([F(2), F(0), F(0), F(5), F(7)], 2) == [F(2), F(-5)]


def test_free_vector_round_trip():
    # max d1 - d2 with d = u - w free in the box |d_i| <= 1 (u_i + w_i + s_i = 1)
    obj = free_columns([1, -1]) + [0, 0]
    rows = [[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]]
    _, value, x = rational(solve_lp(obj, rows, [1, 1]))
    assert value == 2
    assert free_value(x, 2) == [F(1), F(-1)]


def test_exactness_with_awkward_fractions():
    # max x subject to (2/3)x + s = 5/7  ->  x = 15/14
    status, value, _ = solve([F(1), F(0)], [[F(2, 3), F(1)]], [F(5, 7)])
    assert status == OPTIMAL
    assert value == F(15, 14)


def test_a_single_row_scale_can_move_the_vertex():
    # phase 1 sums the rows, so doubling row 0 alone ends at another
    # vertex with the same optimum; one scale of all rows and b, a
    # column's scale (its entries and cost) or the cost's scale moves no pivot
    cost, rows, b = [-1, -1, 1], [[-1, -1, 1], [1, 2, 2]], [0, 2]
    vertex = (OPTIMAL, 0, [0, F(1, 2), F(1, 2)])
    assert rational(solve_lp(cost, rows, b)) == vertex
    assert rational(solve_lp(cost, [[-2, -2, 2], rows[1]], b)) == (OPTIMAL, 0, [F(2, 3), 0, F(2, 3)])
    assert rational(solve_lp(cost, [[3 * a for a in row] for row in rows], [3 * v for v in b])) == vertex
    assert rational(solve_lp([5 * c for c in cost], rows, b), 5) == vertex
    # column 1 times 2: its coordinate of the vertex halves
    assert rational(solve_lp([-1, -2, 1], [[-1, -2, 1], [1, 4, 2]], b)) == (OPTIMAL, 0, [0, F(1, 4), F(1, 2)])


# ---------------------------------------------------------------------------
# differential checks against the dense Fraction simplex of tests/util.py


entries = st.sampled_from(
    [F(0)] * 5 + [F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(5, 7), F(-3, 11), F(7, 4), F(-9, 2)]
)


@st.composite
def lp_rows(draw):
    """Up to 6 equality rows with 1-8 columns, many zero entries (so
    phases stall, degenerate and end infeasible or unbounded), and possibly
    a redundant row: a combination of two drawn rows with the same
    combination of right-hand sides (or a shifted one, which is
    infeasible)."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, b = draw(entries), draw(entries)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        rhs.append(a * rhs[i] + b * rhs[j] + draw(st.sampled_from([F(0), F(0), F(1)])))
    return n, rows, rhs


def integers(values):
    """Rationals over the lcm L of their denominators as integers, and L."""
    scale = lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values], scale


def rational(res, cost_scale=1):
    """``(status, value, x)`` of a ``WarmLp`` result in ``Fraction``s:
    ``x`` and the optimum over ``res.den``, the optimum also over the
    scale of its integer cost. An optimum comes as integers over a
    positive ``den``."""
    if res.status == OPTIMAL:
        assert type(res.value) is int and type(res.den) is int and res.den > 0
        assert res.x is None or all(type(v) is int for v in res.x)
    x = None if res.x is None else [F(v, res.den) for v in res.x]
    value = None if res.value is None else F(res.value, res.den * cost_scale)
    return res.status, value, x


def solve(objective, rows, rhs):
    """``rational`` of ``solve_lp`` on rationals: ``[A | b]`` to integers
    by the lcm of its denominators, the objective by the lcm of its own."""
    n = len(objective)
    scaled, _ = integers([*(a for row in rows for a in row), *rhs])
    cost, cost_scale = integers(objective)
    res = solve_lp(cost, [scaled[r * n:(r + 1) * n] for r in range(len(rows))], scaled[len(rows) * n:])
    return rational(res, cost_scale)


def integer_lp(rows, rhs, n):
    """A ``WarmLp`` over ``rows`` scaled to integers as ``solve`` scales
    them (one lcm over ``[A | b]``), and the scaled ``rhs``."""
    scale = lcm(*(a.denominator for row in rows for a in row), *(b.denominator for b in rhs))
    return WarmLp([[int(a * scale) for a in row] for row in rows], n), [int(b * scale) for b in rhs]


def feasible_start(rows, rhs, n):
    """The engine's phase-1 basis for ``rows x = rhs`` without its
    artificial columns and redundant rows: ``(tableau, basis, det)``,
    each kept row the ``n`` columns of ``det * B^-1 A``, then
    ``det * B^-1 b``; or None when the rows are infeasible."""
    lp, b = integer_lp(rows, rhs, n)
    if not lp.feasible(b):
        return None
    state = lp._feasible
    kept = [r for r, col in enumerate(state.basis) if col < n]
    return [state.tableau[r][:n] + [state.tableau[r][-1]] for r in kept], [state.basis[r] for r in kept], state.det


def assert_matches_dense_start(start, rows, rhs, n):
    """The fraction-free start is the dense reference's: same kept basis,
    and its integer rows over ``det > 0`` are the dense rows."""
    dense = dense_phase_one(rows, rhs, n)
    assert (start is None) == (dense is None)
    if start is None:
        return
    tableau, basis, det = start
    dense_rows, dense_basis = dense
    assert basis == dense_basis
    assert type(det) is int and det > 0
    assert all(type(a) is int for row in tableau for a in row)
    assert [[F(a, det) for a in row] for row in tableau] == dense_rows


@settings(max_examples=300)
@given(lp_rows(), st.data())
def test_solve_lp_matches_dense_reference(lp, data):
    n, rows, rhs = lp
    objective = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert solve(objective, rows, rhs) == dense_solve_lp(objective, rows, rhs)
    assert_matches_dense_start(feasible_start(rows, rhs, n), rows, rhs, n)
    if rows:
        assert feasible_point(rows, rhs) == dense_solve_lp([F(0)] * n, rows, rhs)[2]


@settings(max_examples=150)
@given(lp_rows(), st.data())
def test_objectives_at_one_rhs_leave_the_start_unchanged(lp, data):
    n, rows, rhs = lp
    warm, b = integer_lp(rows, rhs, n)
    if not warm.feasible(b):
        assert solve([F(0)] * n, rows, rhs)[0] == INFEASIBLE
        return
    state = warm._feasible
    snapshot = ([list(row) for row in state.tableau], list(state.basis), state.det)
    for objective in data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=2, max_size=5)):
        cost, cost_scale = integers(objective)
        assert rational(warm.maximum(b, cost), cost_scale) == solve(objective, rows, rhs)
        assert (state.tableau, state.basis, state.det) == snapshot


def test_drive_out_negates_a_negative_pivot_row(monkeypatch):
    # x3 = 1 and 2 x2 + x3 = 1: phase 1 ends with the first row's
    # artificial basic at 0 and a negative x2 entry in its row, so the
    # drive-out negates that row before pivoting x2 in
    rows = [[F(0), F(0), F(1)], [F(0), F(2), F(1)]]
    rhs = [F(1), F(1)]
    pivot, seen = exactlp._pivot, []

    def recording(tableau, basis, row, col, det):
        # a leaving column reads -det in its own row only once negated
        seen.append((tableau[row][basis[row]] == -det, tableau[row][col]))
        return pivot(tableau, basis, row, col, det)

    monkeypatch.setattr(exactlp, "_pivot", recording)
    start = feasible_start(rows, rhs, 3)
    assert (True, 2) in seen  # the drive-out pivot on the negated row
    assert all(p > 0 for _, p in seen)
    assert start == ([[0, 2, 0, 0], [0, 0, 2, 2]], [1, 2], 2)
    assert_matches_dense_start(start, rows, rhs, 3)
    objective = [F(0), F(1), F(1)]
    expected = (OPTIMAL, F(1), [F(0), F(0), F(1)])
    assert solve(objective, rows, rhs) == dense_solve_lp(objective, rows, rhs) == expected


# ---------------------------------------------------------------------------
# warm re-solves over one integer matrix


@st.composite
def warm_sequences(draw):
    """Integer rows (from ``lp_rows``: duplicate entries, redundant rows)
    and a sequence of integer right-hand sides over them, each drawn
    rational one times the lcm of its denominators: ``A x`` for drawn
    ``x >= 0`` (feasible), the same shifted on one row (infeasible when
    that row is redundant), arbitrary ones (often infeasible), and
    repeats of earlier ones."""
    n, rows, rhs = draw(lp_rows())
    scale = lcm(*(a.denominator for row in rows for a in row))
    rows = [[int(a * scale) for a in row] for row in rows]
    sequence = [integers(rhs)[0]]
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["point", "shifted", "any", "repeat"]))
        if how == "repeat":
            sequence.append(draw(st.sampled_from(sequence)))
        elif how == "any" or not rows:
            sequence.append(integers(draw(st.lists(entries, min_size=len(rows), max_size=len(rows))))[0])
        else:
            x = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(2), F(1, 3), F(5, 2)]), min_size=n, max_size=n))
            b = [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]
            if how == "shifted":
                b[draw(st.integers(0, len(b) - 1))] += draw(st.sampled_from([F(1), F(-1, 2)]))
            sequence.append(integers(b)[0])
    return n, rows, sequence


@settings(max_examples=300, deadline=None)
@given(warm_sequences(), st.data())
def test_warm_solves_match_cold_and_dense_solves(lp, data):
    n, rows, sequence = lp
    frac_rows = [[F(a) for a in row] for row in rows]
    costs = data.draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]), min_size=n, max_size=n),
                               min_size=1, max_size=3))
    warm, moved = WarmLp(rows, n), False
    for b in sequence:
        feasible = dense_solve_lp([F(0)] * n, frac_rows, b)[0] != INFEASIBLE
        assert (feasible_start(frac_rows, b, n) is not None) == feasible
        moved = moved or b != sequence[0]
        # the feasibility question and each objective in a drawn order
        for cost in data.draw(st.permutations([None] + [tuple(c) for c in costs])):
            if cost is None:
                assert warm.feasible(b) == feasible
                continue
            status, value, x = rational(warm.maximum(b, cost))
            cold = rational(solve_lp(cost, rows, b))
            assert (status, value) == cold[:2]
            assert (status, value) == dense_solve_lp([F(c) for c in cost], frac_rows, b)[:2]
            assert x == (None if moved else cold[2])


def test_warm_solve_checks_a_redundant_row():
    # the second row is twice the first: any b with b2 != 2 b1 is infeasible,
    # and phase 1 keeps the row with its artificial basic
    rows = [[1, 1, 1], [2, 2, 2]]
    warm = WarmLp(rows, 3)
    assert warm.feasible([1, 2])
    assert not warm.feasible([1, 3])
    assert warm.feasible([2, 4])
    assert rational(warm.maximum([1, 2], (1, 0, 0)))[1] == 1
    assert warm.maximum([2, 5], (1, 0, 0)).status == INFEASIBLE
    assert rational(warm.maximum([3, 6], (1, 0, 0)))[1] == 3
    assert not warm.feasible([-1, -2])  # consistent, but x >= 0 fails


@settings(max_examples=300, deadline=None)
@given(warm_sequences(), st.data())
def test_warm_lp_returns_vertices_for_its_first_rhs_only(lp, data):
    # the first right-hand side twice, the drawn ones, then the first again:
    # x is the cold Bland vertex until another right-hand side arrives and
    # None from then on, while the value always matches
    n, rows, sequence = lp
    frac_rows = [[F(a) for a in row] for row in rows]
    sequence = [sequence[0], *sequence, sequence[0]]
    costs = [tuple(c) for c in data.draw(st.lists(
        st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]), min_size=n, max_size=n), min_size=1, max_size=3))]
    warm, moved = WarmLp(rows, n), False
    for b in sequence:
        moved = moved or b != sequence[0]
        for cost in costs:
            status, value, x = dense_solve_lp([F(c) for c in cost], frac_rows, b)
            res = rational(warm.maximum(b, cost))
            assert res[:2] == (status, value)
            assert res[2] == (None if moved else x)
