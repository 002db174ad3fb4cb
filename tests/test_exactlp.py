from fractions import Fraction as F

from hypothesis import given, settings
import hypothesis.strategies as st

from symdex.exactlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    free_columns,
    free_value,
    phase_one,
    phase_two,
    solve_lp,
)


def test_simple_optimum():
    # max x + y subject to x + y + s = 1
    res = solve_lp([F(1), F(1), F(0)], [[F(1), F(1), F(1)]], [F(1)])
    assert res.status == OPTIMAL
    assert res.value == 1


def test_two_constraints():
    # max 3x + 2y ; x + y + s1 = 4 ; x + 3y + s2 = 6
    res = solve_lp(
        [F(3), F(2), F(0), F(0)],
        [[F(1), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]],
        [F(4), F(6)],
    )
    assert res.status == OPTIMAL
    assert res.value == 12  # vertex x=4, y=0
    assert res.x[0] == 4 and res.x[1] == 0


def test_infeasible():
    # x = -1 with x >= 0, after normalization: -x = 1 has no solution
    res = solve_lp([F(0)], [[F(1)]], [F(-1)])
    assert res.status == INFEASIBLE


def test_unbounded():
    # max x with only x - y = 0
    res = solve_lp([F(1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert res.status == UNBOUNDED


def test_degenerate_redundant_rows():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    res = solve_lp([F(1), F(0)], rows, [F(1), F(2)])
    assert res.status == OPTIMAL
    assert res.value == 1


def feasible_point(rows, rhs):
    """A nonnegative solution of ``rows x = rhs`` or None: the basic point
    of the phase-1 start, read off as a zero objective's optimum."""
    start = phase_one(rows, rhs, len(rows[0]) if rows else 0)
    return None if start is None else phase_two(start, [F(0)] * start.n).x


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
    obj = free_columns([F(1), F(-1)]) + [F(0), F(0)]
    rows = [[F(1), F(0), F(1), F(0), F(1), F(0)], [F(0), F(1), F(0), F(1), F(0), F(1)]]
    res = solve_lp(obj, rows, [F(1), F(1)])
    assert res.value == 2
    assert free_value(res.x, 2) == [F(1), F(-1)]


def test_exactness_with_awkward_fractions():
    # max x subject to (2/3)x + s = 5/7  ->  x = 15/14
    res = solve_lp([F(1), F(0)], [[F(2, 3), F(1)]], [F(5, 7)])
    assert res.status == OPTIMAL
    assert res.value == F(15, 14)


# ---------------------------------------------------------------------------
# differential check against a dense two-phase simplex: every pivot
# rescales its row and updates every column, and each solve runs its own
# phase 1


def _dense_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    inv = F(1) / piv
    tableau[row] = [inv * a for a in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            prow = tableau[row]
            tableau[r] = [a - factor * p for a, p in zip(line, prow)]
    basis[row] = col


def _dense_simplex(tableau, basis, cost):
    m = len(tableau)
    width = len(tableau[0])
    while True:
        reduced = list(cost)
        offset = F(0)
        for r in range(m):
            cb = cost[basis[r]]
            if cb != 0:
                row = tableau[r]
                for j in range(width - 1):
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
                offset += cb * row[-1]
        enter = next((j for j in range(width - 1) if reduced[j] > 0), -1)
        if enter < 0:
            return offset
        leave = -1
        best = None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return None
        _dense_pivot(tableau, basis, leave, enter)


def dense_solve_lp(objective, a_eq, b_eq):
    n = len(objective)
    m = len(a_eq)
    if m == 0:
        if any(c > 0 for c in objective):
            return UNBOUNDED, None, None
        return OPTIMAL, F(0), [F(0)] * n
    tableau = []
    for r in range(m):
        row = list(a_eq[r])
        rhs = b_eq[r]
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        art = [F(0)] * m
        art[r] = F(1)
        tableau.append(row + art + [rhs])
    basis = [n + r for r in range(m)]
    value = _dense_simplex(tableau, basis, [F(0)] * n + [F(-1)] * m)
    if value is None or value < 0:
        return INFEASIBLE, None, None
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _dense_pivot(tableau, basis, r, col)
    tableau2 = []
    kept_basis = []
    for r in range(m):
        if basis[r] < n:
            tableau2.append(tableau[r][:n] + [tableau[r][-1]])
            kept_basis.append(basis[r])
    if not tableau2:
        if any(c > 0 for c in objective):
            return UNBOUNDED, None, None
        return OPTIMAL, F(0), [F(0)] * n
    value = _dense_simplex(tableau2, kept_basis, list(objective))
    if value is None:
        return UNBOUNDED, None, None
    x = [F(0)] * n
    for r, b in enumerate(kept_basis):
        x[b] = tableau2[r][-1]
    return OPTIMAL, value, x


entries = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)])


@st.composite
def lp_rows(draw):
    """Equality rows with 1-5 columns, mostly zero entries (so phases stall,
    degenerate and end infeasible or unbounded), and possibly a redundant
    row: a combination of two drawn rows with the same combination of
    right-hand sides (or a shifted one, which is infeasible)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, b = draw(entries), draw(entries)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        rhs.append(a * rhs[i] + b * rhs[j] + draw(st.sampled_from([F(0), F(0), F(1)])))
    return n, rows, rhs


def _outcome(res):
    return res.status, res.value, res.x


@settings(max_examples=300)
@given(lp_rows(), st.data())
def test_solve_lp_matches_dense_reference(lp, data):
    n, rows, rhs = lp
    objective = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert _outcome(solve_lp(objective, rows, rhs)) == dense_solve_lp(objective, rows, rhs)
    if rows:
        assert feasible_point(rows, rhs) == dense_solve_lp([F(0)] * n, rows, rhs)[2]


@settings(max_examples=150)
@given(lp_rows(), st.data())
def test_phase_two_leaves_the_start_unchanged(lp, data):
    n, rows, rhs = lp
    start = phase_one(rows, rhs, n)
    if start is None:
        assert solve_lp([F(0)] * n, rows, rhs).status == INFEASIBLE
        return
    snapshot = (start.tableau, start.basis)
    for objective in data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=2, max_size=5)):
        assert _outcome(phase_two(start, objective)) == _outcome(solve_lp(objective, rows, rhs))
        assert (start.tableau, start.basis) == snapshot
