"""Shared strategies, seeded generators, an independent dense LP
reference and the Fraction segment scan for the test suite."""

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm
from typing import Optional

import hypothesis.strategies as st

from symdex import FinitePoints, NormKind, SparseVec, dual_pair, norm
from symdex.exactlp import INFEASIBLE, OPTIMAL, UNBOUNDED
from symdex.sets import DEFAULT_ENUM_BUDGET, enumerate_members

ALL_NORMS = (NormKind.SUP, NormKind.SUM, NormKind.EUCLID)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
coords = st.integers(min_value=1, max_value=5)
sparse_vecs = st.dictionaries(coords, small_fractions, max_size=4).map(SparseVec)
norm_kinds = st.sampled_from(ALL_NORMS)
finite_sets = st.lists(sparse_vecs, min_size=1, max_size=6).map(
    lambda pts: FinitePoints(tuple(pts))
)


def random_point(rng: random.Random, dim: int = 4) -> SparseVec:
    support = rng.sample(range(1, dim + 1), k=rng.randint(0, dim))
    return SparseVec(
        {i: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for i in support}
    )


def random_finite_points(
    rng: random.Random, max_points: int = 8, dim: int = 4
) -> FinitePoints:
    count = rng.randint(1, max_points)
    return FinitePoints(tuple(random_point(rng, dim) for _ in range(count)))


def as_dicts(expr: FinitePoints) -> list[dict[int, Fraction]]:
    return [dict(p.items()) for p in expr.points]


def reference_symmetrized_members(base, witnesses, budget=DEFAULT_ENUM_BUDGET):
    """The members of Sym(base; witnesses) as ``Symmetrized.members``
    listed them before the one-witness sets: every d = p - w0 over the
    base members p with w + d and w - d members at every witness w; None
    when the base is not enumerable within ``budget``."""
    members = enumerate_members(base, budget)
    if members is None:
        return None
    pool = set(members)
    w0 = witnesses[0]
    found = set()
    for p in members:
        d = p - w0
        if all((w + d) in pool and (w - d) in pool for w in witnesses):
            found.add(d)
    return frozenset(found)


# ---------------------------------------------------------------------------
# a dense two-phase simplex over ``Fraction``s, independent of
# ``symdex.exactlp``: every pivot rescales its row and updates every
# column, reduced costs are recomputed from the whole tableau at every
# step, and each solve runs its own phase 1


def _dense_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    inv = Fraction(1) / piv
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
        offset = Fraction(0)
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


def dense_phase_one(a_eq, b_eq, n):
    """``(rows, basis)`` of a feasible start for ``a_eq x = b_eq``,
    ``x >= 0`` (each row the ``n`` columns of ``B^-1 A``, then ``B^-1 b``;
    redundant rows dropped), or None when the rows are infeasible."""
    m = len(a_eq)
    tableau = []
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
    if m:
        value = _dense_simplex(tableau, basis, [Fraction(0)] * n + [Fraction(-1)] * m)
        if value is None or value < 0:
            return None
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _dense_pivot(tableau, basis, r, col)
    kept = [r for r in range(m) if basis[r] < n]
    return [tableau[r][:n] + [tableau[r][-1]] for r in kept], [basis[r] for r in kept]


def dense_solve_lp(objective, a_eq, b_eq):
    """``(status, value, x)`` of max ``objective . x`` subject to
    ``a_eq x = b_eq``, ``x >= 0``."""
    n = len(objective)
    start = dense_phase_one(a_eq, b_eq, n)
    if start is None:
        return INFEASIBLE, None, None
    tableau, basis = start
    if not tableau:
        if any(c > 0 for c in objective):
            return UNBOUNDED, None, None
        return OPTIMAL, Fraction(0), [Fraction(0)] * n
    value = _dense_simplex(tableau, basis, list(objective))
    if value is None:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        x[b] = tableau[r][-1]
    return OPTIMAL, value, x


def value(a: Fraction, b: Fraction = Fraction(0), s: Fraction = Fraction(0)) -> tuple:
    """a + b*sqrt(s) as the strong-extreme scan's integer tuple
    ``(a', b', S, d)``, read as ``(a' + b'*sqrt(S))/d``: with s = n/m in
    lowest terms, sqrt(s) = sqrt(S)/m for S = n*m, and ``b' = S = 0``
    when the value is rational."""
    a, b = Fraction(a), Fraction(b) / s.denominator
    S = s.numerator * s.denominator
    r = isqrt(S)
    if not b or r * r == S:
        a, b, S = a + b * r, Fraction(0), 0
    d = lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), S, d


def segment_portion_distance(
    x: SparseVec, a1: SparseVec, a2: SparseVec, eps: Fraction, kind: NormKind
) -> Optional[tuple]:
    """Distance from x to the middle portion of the segment [a1, a2].

    The middle portion keeps the points at distance >= eps from both
    endpoints; None when it is empty. The result is in the carried norm
    convention, as a ``value`` tuple; Euclidean boundary values live in
    Q[sqrt(s)].
    """
    m = a1 - a2
    if m.is_zero:
        return None
    c = x - a2  # distance target: ||c - lambda*m||
    if kind is NormKind.EUCLID:
        a_coef = norm(m, kind)  # squared length
        if 4 * eps * eps > a_coef:
            return None
        b_coef = dual_pair(c, m)
        c_coef = norm(c, kind)
        lam_star = b_coef / a_coef
        above_lo = lam_star > 0 and lam_star * lam_star * a_coef >= eps * eps
        below_hi = (1 - lam_star) > 0 and (1 - lam_star) ** 2 * a_coef >= eps * eps
        if above_lo and below_hi:
            return value(c_coef - b_coef * b_coef / a_coef)
        if not above_lo:
            return value(c_coef + eps * eps, -2 * b_coef * eps / a_coef, a_coef)
        return value(
            c_coef - 2 * b_coef + a_coef + eps * eps,
            2 * eps * (b_coef - a_coef) / a_coef,
            a_coef,
        )
    length = norm(m, kind)
    if length < 2 * eps:
        return None
    lo = eps / length
    hi = 1 - lo
    coords = sorted(set(c.support) | set(m.support))
    breaks = []
    for i in coords:
        mi = m.get(i)
        if mi != 0:
            breaks.append(c.get(i) / mi)
    if kind is NormKind.SUP:
        for i, j in combinations(coords, 2):
            ci, cj = c.get(i), c.get(j)
            mi, mj = m.get(i), m.get(j)
            if mi - mj != 0:
                breaks.append((ci - cj) / (mi - mj))
            if mi + mj != 0:
                breaks.append((ci + cj) / (mi + mj))
    # the norm is piecewise linear and convex in lambda: its minimum over
    # [lo, hi] is at an end or at a breakpoint inside, tried in any order
    candidates = {lo, hi}.union(lam for lam in breaks if lo <= lam <= hi)
    return value(min(norm(c - m.scale(lam), kind) for lam in candidates))
