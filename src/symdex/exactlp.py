"""Exact-rational linear programming with a two-phase simplex.

Problems here are tiny (hull memberships, unit-dual-ball functional
searches), so a plain tableau with Bland's anti-cycling rule is plenty.
All arithmetic stays in ``Fraction``; optima are exact.

Standard form: maximize c.x subject to A x = b, x >= 0.

``phase_one`` finds a feasible basis (artificials driven out, redundant
rows dropped) or reports the rows infeasible; ``phase_two`` maximizes one
objective from a copy of it, so objectives over the same rows share one
phase 1, and ``solve_lp`` is the two in turn. A pivot updates only the
columns where the pivot row is nonzero, since adding zero is exact.

A free (sign-unrestricted) vector enters a problem as ``u - w``:
``free_columns`` writes its coefficients and ``free_value`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: str
    x: list[Fraction] | None
    value: Fraction | None


@dataclass(frozen=True)
class FeasibleStart:
    """Rows [B^-1 A | B^-1 b] of the kept constraints of an LP with ``n``
    columns, and the basic column of each row."""

    n: int
    tableau: tuple[tuple[Fraction, ...], ...]
    basis: tuple[int, ...]


def _basic_point(n: int, tableau, basis) -> list[Fraction]:
    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        x[b] = row[-1]
    return x


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    prow = tableau[row]
    piv = prow[col]
    if piv != 1:
        inv = 1 / piv
        prow = tableau[row] = [inv * a for a in prow]
    nonzero = [(j, p) for j, p in enumerate(prow) if p]
    for r, line in enumerate(tableau):
        factor = line[col]
        if r != row and factor:
            for j, p in nonzero:
                line[j] -= factor * p
    basis[row] = col


def _simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]):
    """Maximize ``cost`` over the current tableau in place (Bland's rule)."""
    # reduced costs c_j - c_B . B^{-1} A_j, then -c_B . B^{-1} b last;
    # every pivot updates them as it updates a tableau row
    reduced = list(cost) + [Fraction(0)]
    for row, b in zip(tableau, basis):
        cb = cost[b]
        if cb != 0:
            for j, a in enumerate(row):
                if a != 0:
                    reduced[j] -= cb * a
    while True:
        enter = next((j for j in range(len(cost)) if reduced[j] > 0), -1)
        if enter < 0:
            return -reduced[-1]
        leave = -1
        best = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return None  # unbounded
        _pivot(tableau, basis, leave, enter)
        factor = reduced[enter]
        for j, p in enumerate(tableau[leave]):
            if p:
                reduced[j] -= factor * p


def phase_one(a_eq: list[list[Fraction]], b_eq: list[Fraction], n: int) -> FeasibleStart | None:
    """A feasible start for ``a_eq x = b_eq``, ``x >= 0`` with ``n``
    columns, or None when the rows are infeasible."""
    m = len(a_eq)
    for row in a_eq:
        if len(row) != n:
            raise InvalidInput("inconsistent LP row width")
    if len(b_eq) != m:
        raise InvalidInput("inconsistent LP right-hand side")
    if m == 0:
        return FeasibleStart(n, (), ())

    # normalize b >= 0, append artificial columns
    tableau: list[list[Fraction]] = []
    for r in range(m):
        row = list(a_eq[r])
        rhs = b_eq[r]
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[r] = Fraction(1)
        tableau.append(row + art + [rhs])
    basis = [n + r for r in range(m)]

    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    value = _simplex(tableau, basis, phase1)
    if value is None or value < 0:
        return None

    # drive leftover artificials out of the basis (or drop redundant rows)
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, r, col)
    # an artificial still basic sits in a zero row: the constraint is redundant
    kept = [r for r in range(m) if basis[r] < n]
    return FeasibleStart(
        n,
        tuple(tuple(tableau[r][:n]) + (tableau[r][-1],) for r in kept),
        tuple(basis[r] for r in kept),
    )


def phase_two(start: FeasibleStart, objective: list[Fraction]) -> LpResult:
    """Maximize ``objective . x`` from a copy of a phase-1 start."""
    if len(objective) != start.n:
        raise InvalidInput("inconsistent LP row width")
    if not start.tableau:
        # only x >= 0; optimum is 0 unless some objective coefficient is positive
        if any(c > 0 for c in objective):
            return LpResult(UNBOUNDED, None, None)
        return LpResult(OPTIMAL, [Fraction(0)] * start.n, Fraction(0))
    tableau = [list(row) for row in start.tableau]
    basis = list(start.basis)
    value = _simplex(tableau, basis, list(objective))
    if value is None:
        return LpResult(UNBOUNDED, None, None)
    return LpResult(OPTIMAL, _basic_point(start.n, tableau, basis), value)


def solve_lp(objective: list[Fraction], a_eq: list[list[Fraction]], b_eq: list[Fraction]) -> LpResult:
    """Maximize ``objective . x`` subject to ``a_eq x = b_eq``, ``x >= 0``."""
    start = phase_one(a_eq, b_eq, len(objective))
    if start is None:
        return LpResult(INFEASIBLE, None, None)
    return phase_two(start, objective)


def free_columns(coeffs: list[Fraction]) -> list[Fraction]:
    """Columns of a free vector written ``u - w`` with ``u, w >= 0``: the
    coefficients on ``u``, then their negatives on ``w``."""
    return list(coeffs) + [-c for c in coeffs]


def free_value(x: list[Fraction], count: int) -> list[Fraction]:
    """The free vector ``u - w`` of a point whose first ``2 * count``
    columns are ``free_columns`` ones."""
    return [x[c] - x[count + c] for c in range(count)]
