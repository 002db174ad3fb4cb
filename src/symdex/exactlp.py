"""Exact-rational linear programming: one warm-started simplex engine.

Problems here are tiny (hull memberships, unit-dual-ball functional
searches), so a plain tableau with Bland's anti-cycling rule is plenty.

The engine works on integers: rows ``A``, a right-hand side ``b`` and a
cost. Its tableau is fraction-free: every pivot is a Bareiss (integer-
preserving) step, so each row ``T`` stands for ``T / det`` with one
common denominator ``det``, the basis determinant. One positive scale
of all rows and ``b`` together, a positive scale of one column (its
entries and its cost), or one of the cost changes no Bland pivot, so
``b`` times L and the cost times M give the vertex times L and the
optimum times L*M, as integers over ``det``. A scale of a single row
can move the vertex (the optimum stays): phase 1 sums the rows.

Standard form: maximize c.x subject to A x = b, x >= 0.

A ``WarmLp`` solves one integer ``A`` for one ``b`` after another. The
first ``b`` runs phase 1 from the all-artificial basis: leftover
artificials are driven out, and a redundant row keeps its artificial
basic over ``A`` columns that are all zero. Each objective then runs
phase 2 from a copy of that feasible basis, Bland's primal pivots over
the columns of ``A``, so redundant rows and artificial columns never
enter or leave. Every basis is kept with its inverse ``det * B^-1``,
which phase 1 builds in its artificial columns, so a later ``b`` costs
one product ``B^-1 b`` and dual-simplex pivots under Bland's rule until
``B^-1 b >= 0``; ``B^-1 b`` must stay 0 on a redundant row.

Feasibility and optimum values do not depend on the basis a solve
starts from, but the vertex it ends at does. So ``maximum`` returns the
vertex ``x`` only while every ``b`` the LP has been given equals the
first: until then its pivots are those of a cold two-phase solve, and
``x`` is the Bland vertex. Once another ``b`` arrives, ``x`` is None
for good. ``solve_lp`` maximizes once on a fresh ``WarmLp``.

A free (sign-unrestricted) vector enters a problem as ``u - w``:
``free_columns`` writes its coefficients and ``free_value`` reads it back.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Optional, Sequence

from .errors import InvalidInput

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# The optimum ``value`` and the vertex ``x`` of ``WarmLp.maximum`` as
# integer numerators over ``den > 0``, the basis determinant.
WarmResult = namedtuple("WarmResult", "status x value den", defaults=(1,))


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int, det: int) -> int:
    """Pivot on ``p = tableau[row][col]`` and return ``p``, the new common
    denominator. The pivot row stays; every other row ``T`` becomes
    ``(p*T - T[col]*pivot_row) // det``, an exact division (Bareiss)."""
    prow = tableau[row]
    p = prow[col]
    for r, line in enumerate(tableau):
        if r == row:
            continue
        factor = line[col]
        if factor:
            tableau[r] = [(p * a - factor * b) // det for a, b in zip(line, prow)]
        elif p != det:
            tableau[r] = [p * a // det for a in line]
    basis[row] = col
    return p


def _with_reduced_costs(tableau: list[list[int]], basis: list[int], cost: Sequence[int], det: int) -> None:
    """Append the row ``det * (c_j - c_B . B^-1 A_j)``, then
    ``-det * c_B . B^-1 b`` last, so every pivot updates it with the rest;
    ``cost`` covers the leading columns, the others cost 0."""
    reduced = [det * c for c in cost] + [0] * (len(tableau[0]) - len(cost) if tableau else 1)
    for row, b in zip(tableau, basis):
        cb = cost[b] if b < len(cost) else 0
        if cb:
            reduced = [q - cb * a for q, a in zip(reduced, row)]
    tableau.append(reduced)


def _simplex(tableau: list[list[int]], basis: list[int], columns: int, det: int) -> Optional[int]:
    """Maximize over the tableau in place, whose last row holds the
    reduced costs, by primal pivots under Bland's rule on the first
    ``columns`` columns. Returns the new ``det``, with optimum
    ``-tableau[-1][-1] / det``, or None when unbounded."""
    while True:
        reduced = tableau[-1]
        enter = next((j for j in range(columns) if reduced[j] > 0), -1)
        if enter < 0:
            return det
        leave = -1
        for r in range(len(basis)):  # every row but the reduced costs
            row = tableau[r]
            a = row[enter]
            # the ratio row[-1] / a against the best num / den so far,
            # compared by cross-multiplication (a, den > 0)
            if a > 0 and (leave < 0 or row[-1] * den < num * a
                          or (row[-1] * den == num * a and basis[r] < basis[leave])):
                leave, num, den = r, row[-1], a
        if leave < 0:
            return None  # unbounded
        det = _pivot(tableau, basis, leave, enter, det)


def _feasible_basis(rows: Sequence[Sequence[int]], b: Sequence[int], n: int):
    """Phase 1 on integer rows ``A x = b``: ``(tableau, basis, det)`` of a
    feasible basis, or None when the rows are infeasible.

    Each tableau row holds ``det * B^-1 [A | D | b]``, where the ``m``
    middle columns are the artificials and ``D`` the diagonal of the
    signs that made ``b >= 0``. A redundant row keeps its artificial
    basic over ``A`` columns that are all zero.
    """
    m = len(rows)
    # b >= 0, then the artificial columns as the identity (one scale for
    # [A | b], so the artificials and the phase-1 objective scale alike)
    tableau: list[list[int]] = []
    for r in range(m):
        row = list(rows[r]) + [0] * m + [b[r]]
        if row[-1] < 0:
            row = [-a for a in row]
        row[n + r] = 1
        tableau.append(row)
    basis = [n + r for r in range(m)]

    _with_reduced_costs(tableau, basis, [0] * n + [-1] * m, 1)
    det = _simplex(tableau, basis, n + m, 1)
    if det is None or tableau.pop()[-1] > 0:
        return None

    # drive leftover artificials out of the basis (or keep redundant rows);
    # a negative pivot is made positive by negating its row, so det stays > 0
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                if tableau[r][col] < 0:
                    tableau[r] = [-a for a in tableau[r]]
                det = _pivot(tableau, basis, r, col, det)
    return tableau, basis, det


class _Basis:
    """A basis of a ``WarmLp``: tableau rows ``det * B^-1 [A | I | b]``
    (the middle columns are ``det * B^-1``), then the reduced costs of
    an objective when the basis is optimal for one, the basic column of
    each row, and ``det``."""

    __slots__ = ("tableau", "basis", "det")

    def __init__(self, tableau: list[list[int]], basis: list[int], det: int):
        self.tableau, self.basis, self.det = tableau, basis, det

    def copy(self) -> "_Basis":
        return _Basis([list(row) for row in self.tableau], list(self.basis), self.det)


def _dual_simplex(state: _Basis, n: int, objective: bool) -> bool:
    """Pivot ``state`` back to ``B^-1 b >= 0`` by dual-simplex steps
    under Bland's rule; False when ``b`` is infeasible.

    The leaving row is the one with ``B^-1 b < 0`` whose basic column
    comes first. The entering column is the first of the ``n`` columns
    of ``A`` with a negative entry in that row; with an ``objective``
    (the reduced costs as the last tableau row), the first of those with
    the least ratio of reduced cost to entry, so the reduced costs stay
    <= 0. The row is negated before the pivot, so ``det`` stays positive.
    """
    tableau, basis = state.tableau, state.basis
    while True:
        reduced = tableau[-1] if objective else None
        leave = -1
        for r in range(len(basis)):
            if tableau[r][-1] < 0 and (leave < 0 or basis[r] < basis[leave]):
                leave = r
        if leave < 0:
            return True
        row = tableau[leave]
        enter = -1
        for j in range(n):
            a = row[j]
            if a < 0:
                if reduced is None:
                    enter = j
                    break
                # reduced[j] / a against the best num / den so far (a, den < 0)
                if enter < 0 or reduced[j] * den < num * a:
                    enter, num, den = j, reduced[j], a
        if enter < 0:
            return False  # the row sums nonnegative multiples of x to b < 0
        tableau[leave] = [-a for a in row]
        state.det = _pivot(tableau, basis, leave, enter, state.det)


class WarmLp:
    """``A x = b``, ``x >= 0`` over one integer matrix ``A`` with ``n``
    columns, solved for one integer right-hand side ``b`` after another.

    It keeps the last basis found feasible and, per objective, the last
    basis found optimal. A new ``b`` starts from that basis; only the
    first ``b`` runs phase 1. ``feasible`` is whether ``b`` is feasible,
    and ``maximum`` the optimum value of an integer cost, with the vertex
    ``x`` only while every ``b`` given so far equals the first.
    """

    def __init__(self, rows: list[list[int]], n: int):
        self.rows, self.n = rows, n
        self._feasible: Optional[_Basis] = None
        self._optimal: dict[tuple[int, ...], _Basis] = {}  # per cost, its optimal basis
        self._first: Optional[list[int]] = None
        self._vertex = True

    def _given(self, b: Sequence[int]) -> None:
        """Note ``b``; a ``b`` other than the first ends the vertex answers."""
        if self._first is None:
            self._first = list(b)
        self._vertex = self._vertex and b == self._first

    def _load(self, state: _Basis, b: Sequence[int]) -> bool:
        """Set ``det * B^-1 b`` as the right-hand side of ``state``; False
        when a redundant row's entry is not 0."""
        n, rows = self.n, len(state.basis)
        for r in range(rows):
            line = state.tableau[r]
            line[-1] = value = sum(map(mul, line[n:-1], b))
            if value and state.basis[r] >= n:
                return False
        return True

    def feasible(self, b: list[int]) -> bool:
        """Whether ``A x = b`` has a solution ``x >= 0``."""
        self._given(b)
        return self._feasible_for(b)

    def _feasible_for(self, b: list[int]) -> bool:
        state = self._feasible
        if state is None:
            found = _feasible_basis(self.rows, b, self.n)
            if found is None:
                return False
            tableau, basis, det = found
            # det * B^-1 D holds det * B^-1 once the signs D are undone
            for r, v in enumerate(b):
                if v < 0:
                    for line in tableau:
                        line[self.n + r] = -line[self.n + r]
            self._feasible = _Basis(tableau, basis, det)
            return True
        return self._load(state, b) and _dual_simplex(state, self.n, False)

    def maximum(self, b: list[int], cost: Sequence[int]) -> WarmResult:
        """The optimum of ``cost . x`` over ``A x = b``, ``x >= 0``, and
        the vertex ``x`` while every right-hand side so far is ``b``,
        as integer numerators over ``det``."""
        self._given(b)
        key = tuple(cost)
        state = self._optimal.get(key)
        if state is None:
            if not self._feasible_for(b):
                return WarmResult(INFEASIBLE, None, None)
            state = self._feasible.copy()
            _with_reduced_costs(state.tableau, state.basis, key, state.det)
            det = _simplex(state.tableau, state.basis, self.n, state.det)
            if det is None:
                return WarmResult(UNBOUNDED, None, None)
            state.det = det
            self._optimal[key] = state
        else:
            if not self._load(state, b):
                return WarmResult(INFEASIBLE, None, None)
            state.tableau[-1][-1] = -sum(
                key[col] * line[-1] for col, line in zip(state.basis, state.tableau) if col < self.n
            )
            if not _dual_simplex(state, self.n, True):
                return WarmResult(INFEASIBLE, None, None)
        x = None
        if self._vertex:
            x = [0] * self.n
            for line, col in zip(state.tableau, state.basis):
                if col < self.n:
                    x[col] = line[-1]
        return WarmResult(OPTIMAL, x, -state.tableau[-1][-1], state.det)


def solve_lp(objective: Sequence[int], a_eq: list[list[int]], b_eq: list[int]) -> WarmResult:
    """Maximize ``objective . x`` subject to ``a_eq x = b_eq``, ``x >= 0``
    over integers on a fresh ``WarmLp``: its Bland vertex ``x`` and the
    optimum as integer numerators over ``den``."""
    n = len(objective)
    for row in a_eq:
        if len(row) != n:
            raise InvalidInput("inconsistent LP row width")
    if len(b_eq) != len(a_eq):
        raise InvalidInput("inconsistent LP right-hand side")
    return WarmLp(a_eq, n).maximum(b_eq, objective)


def free_columns(coeffs: list) -> list:
    """Columns of a free vector written ``u - w`` with ``u, w >= 0``: the
    coefficients (integers or rationals) on ``u``, then their negatives
    on ``w``."""
    return list(coeffs) + [-c for c in coeffs]


def free_value(x: list, count: int) -> list:
    """The free vector ``u - w`` of a point whose first ``2 * count``
    columns are ``free_columns`` ones, over the point's denominator."""
    return [x[c] - x[count + c] for c in range(count)]
