"""Exact-rational linear programming with a two-phase simplex.

Problems here are tiny (hull memberships, unit-dual-ball functional
searches), so a plain tableau with Bland's anti-cycling rule is plenty.
The tableau is fraction-free: ``[A | b]`` is scaled by the lcm of its
denominators to integers, and every pivot is a Bareiss (integer-
preserving) step, so each row ``T`` stands for ``T / det`` with one common
denominator ``det``, the basis determinant. Only results become
``Fraction``s again; optima are exact.

Standard form: maximize c.x subject to A x = b, x >= 0.

``phase_one`` finds a feasible basis (artificials driven out, redundant
rows dropped) or reports the rows infeasible; ``phase_two`` maximizes one
objective from a copy of it, so objectives over the same rows share one
phase 1, and ``solve_lp`` is the two in turn.

A free (sign-unrestricted) vector enters a problem as ``u - w``:
``free_columns`` writes its coefficients and ``free_value`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
    """Integer rows ``det * [B^-1 A | B^-1 b]`` of the kept constraints of
    an LP with ``n`` columns, the basic column of each row, and ``det > 0``,
    the common denominator of the rows."""

    n: int
    tableau: tuple[tuple[int, ...], ...]
    basis: tuple[int, ...]
    det: int


def _integers(values, scale: int) -> list[int]:
    """``scale * v`` for each rational ``v``; ``scale`` is a multiple of
    every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


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


def _simplex(tableau: list[list[int]], basis: list[int], cost: list[int], det: int):
    """Maximize the integer ``cost`` over the tableau in place (Bland's
    rule). Returns ``(det, v)`` with optimum ``v / det``, or None when
    unbounded."""
    # reduced costs det * (c_j - c_B . B^{-1} A_j), then -det * c_B . B^{-1} b
    # last, kept as one more row so every pivot updates them with the rest
    reduced = [det * c for c in cost] + [0]
    for row, b in zip(tableau, basis):
        cb = cost[b]
        if cb:
            reduced = [q - cb * a for q, a in zip(reduced, row)]
    tableau.append(reduced)
    try:
        while True:
            reduced = tableau[-1]
            enter = next((j for j in range(len(cost)) if reduced[j] > 0), -1)
            if enter < 0:
                return det, -reduced[-1]
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
    finally:
        tableau.pop()


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
        return FeasibleStart(n, (), (), 1)

    # one scale for all of [A | b] (so the artificials and the phase-1
    # objective scale alike and Bland's rule picks as over the rationals),
    # b >= 0, then the artificial columns as the identity
    scale = lcm(*(a.denominator for row in a_eq for a in row), *(b.denominator for b in b_eq))
    tableau: list[list[int]] = []
    for r in range(m):
        row = _integers(a_eq[r], scale) + [0] * m + _integers([b_eq[r]], scale)
        if row[-1] < 0:
            row = [-a for a in row]
        row[n + r] = 1
        tableau.append(row)
    basis = [n + r for r in range(m)]

    result = _simplex(tableau, basis, [0] * n + [-1] * m, 1)
    if result is None or result[1] < 0:
        return None
    det = result[0]

    # drive leftover artificials out of the basis (or drop redundant rows);
    # a negative pivot is made positive by negating its row, so det stays > 0
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                if tableau[r][col] < 0:
                    tableau[r] = [-a for a in tableau[r]]
                det = _pivot(tableau, basis, r, col, det)
    # an artificial still basic sits in a zero row: the constraint is redundant
    kept = [r for r in range(m) if basis[r] < n]
    return FeasibleStart(
        n,
        tuple(tuple(tableau[r][:n]) + (tableau[r][-1],) for r in kept),
        tuple(basis[r] for r in kept),
        det,
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
    scale = lcm(*(c.denominator for c in objective))
    tableau = [list(row) for row in start.tableau]
    basis = list(start.basis)
    result = _simplex(tableau, basis, _integers(objective, scale), start.det)
    if result is None:
        return LpResult(UNBOUNDED, None, None)
    det, value = result
    x = [Fraction(0)] * start.n
    for row, b in zip(tableau, basis):
        x[b] = Fraction(row[-1], det)
    return LpResult(OPTIMAL, x, Fraction(value, det * scale))


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
