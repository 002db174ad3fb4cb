"""Constructive routines: sequence extraction with its step functionals,
almost-isometric refinement, dyadic trees and extreme-point analysis.

The extraction loop peels a set by repeated symmetrization: each step
takes the norm-largest free direction of the current set as the next
point, pairs it with a norm-one functional that kills all previous
points and nearly attains its supremum, and symmetrizes at that point.
Everything emitted is a transcript that replays through membership
checks and exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import isqrt
from operator import sub
from typing import Optional, Sequence

from . import exactlp, sets
from .errors import (
    BudgetExceeded,
    ExtractionStalled,
    Inconclusive,
    InvalidInput,
    NotFound,
    SequenceStalled,
    TreeStalled,
    WitnessNotMember,
)
from .indexes import SearchStrategy, _witness_search, default_pool, delta_lower
from .sets import (
    BoundPair,
    FinitePoints,
    SetExpr,
    contains,
    diameter,
    diameter_upper,
    free_direction,
    set_from_json,
    set_to_json,
    sup_functional,
    symmetrize,
)
from .vectors import (
    ZERO,
    Functional,
    NormKind,
    ScalarLike,
    SparseVec,
    as_length,
    as_scalar,
    dual_norm,
    dual_pair,
    format_scalar,
    half_length,
    integer_rows,
    linear_combination,
    norm,
    unit,
    _int_norm,
)

MAX_TREE_DEPTH = 16  # a depth-d tree holds 2^d - 1 nodes


# ---------------------------------------------------------------------------
# transcripts


@dataclass
class TranscriptStep:
    x: SparseVec
    f: Functional
    set_before: SetExpr  # the set the point was drawn from


@dataclass
class ExtractionTranscript:
    """Full inductive state of a sequence extraction.

    ``delta_lower_at_2N`` is the certified plain-length lower bound for
    the index at 2^N witnesses; it is the constant the basis inequality
    is checked against.
    """

    base_set: SetExpr
    kind: NormKind
    epsilon: Fraction
    eta: Fraction
    x0: SparseVec
    steps: list[TranscriptStep]
    delta_lower_at_2N: Fraction
    final_set: SetExpr

    @property
    def points(self) -> list[SparseVec]:
        return [s.x for s in self.steps]

    def to_json(self) -> dict:
        return {
            "norm": self.kind.value,
            "base": set_to_json(self.base_set),
            "epsilon": format_scalar(self.epsilon),
            "eta": format_scalar(self.eta),
            "x0": self.x0.to_json(),
            "steps": [
                {
                    "x": s.x.to_json(),
                    "f": s.f.to_json(),
                    "A": set_to_json(s.set_before),
                }
                for s in self.steps
            ],
            "delta_lower": format_scalar(self.delta_lower_at_2N),
            "final": set_to_json(self.final_set),
        }

    @classmethod
    def from_json(cls, obj) -> "ExtractionTranscript":
        try:
            steps = [
                TranscriptStep(
                    x=SparseVec.from_json(s["x"]),
                    f=SparseVec.from_json(s["f"]),
                    set_before=set_from_json(s["A"]),
                )
                for s in obj["steps"]
            ]
            return cls(
                base_set=set_from_json(obj["base"]),
                kind=NormKind.parse(obj["norm"]),
                epsilon=as_scalar(obj["epsilon"]),
                eta=as_scalar(obj["eta"]),
                x0=SparseVec.from_json(obj["x0"]),
                steps=steps,
                delta_lower_at_2N=as_scalar(obj["delta_lower"]),
                final_set=set_from_json(obj["final"]),
            )
        except KeyError as exc:
            raise InvalidInput(f"transcript JSON missing field {exc}") from None


def _default_start(expr: SetExpr) -> SparseVec:
    if contains(expr, ZERO):
        return ZERO
    pool = default_pool(expr)
    if not pool:
        raise InvalidInput("no starting point available in the set")
    return pool[0]


# ---------------------------------------------------------------------------
# step functionals


def _fresh_functional_candidates(
    span: Sequence[SparseVec], d: SparseVec
) -> list[Functional]:
    """Single-coordinate unit functionals supported where the span is not."""
    out = []
    for m, value in d.items():
        if all(v.get(m) == 0 for v in span):
            sign = 1 if value > 0 else -1
            out.append((abs(value), m, unit(m, sign)))
    out.sort(key=lambda t: (-t[0], t[1]))
    return [f for _, _, f in out]


def _dual_ball_lp(
    span: Sequence[SparseVec], objective: SparseVec, kind: NormKind
) -> Optional[Functional]:
    """Maximize f(objective) over the dual unit ball orthogonal to the span.

    Polyhedral dual balls only (sup and sum norms); the result is
    rescaled to dual norm exactly one.
    """
    if kind is NormKind.EUCLID:
        return None
    coords = sorted({i for v in span for i in v.support} | set(objective.support))
    if not coords:
        return None
    c = len(coords)
    zero, one = Fraction(0), Fraction(1)
    if kind is NormKind.SUP:
        # dual ball is the l1 ball: f = u - w, sum(u + w) + t = 1
        slack = 1
        rows = [[one] * (2 * c + 1)]
    else:
        # dual ball is the sup ball: f = u - w with u_i + w_i + s_i = 1
        slack = c
        rows = []
        for p in range(c):
            e = [one if q == p else zero for q in range(c)]
            rows.append(e + e + e)
    rhs = [one] * len(rows)
    for v in span:
        rows.append(exactlp.free_columns([v.get(i) for i in coords]) + [zero] * slack)
        rhs.append(zero)
    obj = exactlp.free_columns([objective.get(i) for i in coords]) + [zero] * slack
    res = exactlp.solve_lp(obj, rows, rhs)
    if res.status != exactlp.OPTIMAL:
        return None
    f = SparseVec(dict(zip(coords, exactlp.free_value(res.x, c))))
    dn = dual_norm(f, kind)
    if dn == 0:
        return None
    return f.scale(Fraction(1) / dn)


# ---------------------------------------------------------------------------
# sequence extraction


def _choose_step_functional(
    prev: Sequence[SparseVec],
    current: SetExpr,
    x_n: SparseVec,
    eta: Fraction,
    floor_plain: Fraction,
    kind: NormKind,
) -> Optional[Functional]:
    """The first admissible functional for x_n: a fresh unit coordinate,
    else the exact LP over the dual ball vanishing on ``prev``."""

    def admissible(f: Functional) -> bool:
        if any(dual_pair(f, x) != 0 for x in prev):
            return False
        value = dual_pair(f, x_n)
        sup = sup_functional(f, current).upper
        if sup is None or not value > sup - eta:
            return False
        return value > floor_plain - 2 * eta

    for f in _fresh_functional_candidates(prev, x_n):
        if admissible(f):
            return f
    f = _dual_ball_lp(prev, x_n, kind)
    if f is not None and admissible(f):
        return f
    return None


def extract_c0_sequence(
    expr: SetExpr,
    epsilon: ScalarLike,
    N: int,
    kind: NormKind,
    x0: Optional[SparseVec] = None,
) -> ExtractionTranscript:
    """Extract N points and functionals witnessing the basis inequality.

    Each set in the lineage is the symmetrization of the previous one at
    the previous point; points are free directions chosen by the
    deterministic rule (lowest fresh coordinate, positive sign), and
    functionals are norm-one, vanish on earlier points, and nearly
    attain their supremum on the current set.

    Raises :class:`ExtractionStalled` (with the partial transcript) when
    no admissible point/functional exists -- the expected outcome on
    sets whose indexes collapse.
    """
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    if N < 1:
        raise InvalidInput("extraction needs N >= 1")
    eta = eps / 3
    start = _default_start(expr) if x0 is None else x0
    current = symmetrize(expr, [start])  # raises WitnessNotMember for a non-member start
    steps: list[TranscriptStep] = []
    # the index floor at every 2^n: delta_lower does not depend on its N
    floor = expr.lower_certificate(kind).plain_value

    def partial() -> ExtractionTranscript:
        return ExtractionTranscript(
            base_set=expr,
            kind=kind,
            epsilon=eps,
            eta=eta,
            x0=start,
            steps=steps,
            delta_lower_at_2N=floor if steps else Fraction(0),
            final_set=current,
        )

    for n in range(1, N + 1):
        x_n = free_direction(current, [], kind)
        if x_n is None or x_n.is_zero:
            raise ExtractionStalled(n, partial(), "no free direction of positive norm")
        f_n = _choose_step_functional(
            [s.x for s in steps], current, x_n, eta, floor, kind
        )
        if f_n is None:
            raise ExtractionStalled(n, partial(), "no admissible functional")
        steps.append(TranscriptStep(x=x_n, f=f_n, set_before=current))
        current = symmetrize(current, [x_n])
    return partial()


# the per-step conditions; a transcript is ok when every step meets all of them
STEP_FLAGS = (
    "unit_norm", "orthogonal", "member", "near_sup", "above_index_floor", "nested", "small_on_next",
)


def _symmetrizes_to(expr: SetExpr, x: SparseVec, target: SetExpr) -> bool:
    """Whether ``target`` is Sym(expr; {x}) as :func:`symmetrize` builds it."""
    try:
        return symmetrize(expr, [x]) == target
    except WitnessNotMember:
        return False


def validate_transcript(t: ExtractionTranscript) -> dict:
    """Re-check every transcript condition exactly.

    With A_0 the base set, x_0 the start, A_n and x_n step n's set and
    point, and A_{N+1} the final set: ``nested`` at step n holds when A_n
    is Sym(A_{n-1}; {x_{n-1}}), so x_{n-1} +- A_n lies in A_{n-1}.
    ``small_on_next`` holds when ``near_sup`` does and A_{n+1} is
    Sym(A_n; {x_n}). That is the step lemma: every d in A_{n+1} has
    x_n +- d in A_n, so |f_n(d)| <= sup f_n over A_n - f_n(x_n) < eta.
    Both levels read "exact". ``ok`` also needs ``delta_lower_at_2N``,
    which :func:`verify_basis_inequality` reads, within the index floor.
    """
    lineage = [t.base_set] + [s.set_before for s in t.steps] + [t.final_set]
    points = [t.x0] + t.points
    # follows[k]: A_{k+1} is Sym(A_k; {x_k})
    follows = [_symmetrizes_to(a, x, b) for a, x, b in zip(lineage, points, lineage[1:])]
    # the index floor at every 2^n: delta_lower does not depend on its N
    floor = t.base_set.lower_certificate(t.kind).plain_value
    steps: list[dict] = []

    for n, step in enumerate(t.steps, start=1):
        entry: dict = {"n": n}
        entry["unit_norm"] = dual_norm(step.f, t.kind) == 1
        entry["orthogonal"] = all(
            dual_pair(step.f, t.steps[k].x) == 0 for k in range(n - 1)
        )
        entry["member"] = contains(step.set_before, step.x)

        value = dual_pair(step.f, step.x)
        sup = sup_functional(step.f, step.set_before).upper
        entry["near_sup"] = sup is not None and value > sup - t.eta
        entry["above_index_floor"] = value > floor - 2 * t.eta
        # condition (a): x_{n-1} +- A_n inside A_{n-1}
        entry["nested"] = follows[n - 1]
        entry["nested_level"] = "exact"
        # condition (d): f_n is small on A_{n+1}, by the step lemma
        entry["small_on_next"] = entry["near_sup"] and follows[n]
        entry["small_on_next_level"] = "exact"
        steps.append(entry)
    ok = t.delta_lower_at_2N <= floor and all(entry[flag] for entry in steps for flag in STEP_FLAGS)
    return {"ok": ok, "steps": steps}


def verify_basis_inequality(
    t: ExtractionTranscript, coefficients: Sequence[ScalarLike]
) -> tuple[Fraction, Fraction]:
    """Margins of the two-sided norm estimate for a coefficient vector.

    Returns (lower_margin, upper_margin); both nonnegative when the
    inequality holds. Negative margins are returned as they are, never
    clamped. Euclidean margins are in the squared convention.

    The estimate is (floor - epsilon) * max|lambda| <= ||sum lambda_k x_k||
    <= delta_0 * max|lambda|, with floor = ``delta_lower_at_2N`` and
    delta_0 = diam(A_0)/2. It holds for every coefficient vector once
    :func:`validate_transcript` returns ok and ``delta_lower_at_2N`` is
    the floor that ``above_index_floor`` checks (as
    :func:`extract_c0_sequence` sets it; :func:`delta_lower` does not
    depend on its N). A_n, x_n and f_n are as in :func:`validate_transcript`.

    Upper end: every A_k with k >= 1 is a symmetrization, so it is
    symmetric. By ``member`` and ``nested``, induction down from x_N in
    A_N puts every signed sum sum_{k>=m} +-x_k in A_m, so every
    s = sum_{k>=1} +-x_k lies in A_1 = Sym(A_0; {x_0}). Then x_0 +- s lie
    in A_0 and ||s|| <= diam(A_0)/2. A general lambda is max|lambda|
    times a convex combination of such s, and the norm is convex.

    Lower end: take m with |lambda_m| maximal. f_m kills x_k for k < m
    (``orthogonal``). The signed sums of x_k, k > m, lie in A_{m+1}, where
    |f_m| < eta (``small_on_next``), and sum_{k>m} lambda_k x_k is
    |lambda_m| times a convex combination of them, so |f_m| of it is
    below eta*|lambda_m|. With ||f_m|| = 1 (``unit_norm``),
    f_m(x_m) > floor - 2*eta (``above_index_floor``) and epsilon = 3*eta,
    ||sum lambda_k x_k|| >= |f_m(sum lambda_k x_k)|
    > |lambda_m| * (floor - epsilon). Under euclid both ends hold for the
    plain norm, the lower one also with floor - epsilon raised to 0, so
    they hold squared.
    """
    lams = [as_scalar(c) for c in coefficients]
    if len(lams) > len(t.steps):
        raise InvalidInput("more coefficients than transcript steps")
    combo = linear_combination(zip(lams, (s.x for s in t.steps)))
    peak = max((abs(c) for c in lams), default=Fraction(0))
    diam = diameter_upper(t.base_set, t.kind)
    if diam is None:
        raise InvalidInput("base set has no certified diameter upper bound")
    d0_upper = half_length(diam, t.kind)
    floor = t.delta_lower_at_2N - t.epsilon
    if t.kind is NormKind.EUCLID:
        nrm_sq = norm(combo, t.kind)
        lower_scale = max(floor, Fraction(0)) * peak
        lower_margin = nrm_sq - lower_scale * lower_scale
        upper_margin = d0_upper * peak * peak - nrm_sq
        return lower_margin, upper_margin
    nrm = norm(combo, t.kind)
    lower_margin = nrm - floor * peak
    upper_margin = d0_upper * peak - nrm
    return lower_margin, upper_margin


# ---------------------------------------------------------------------------
# almost isometric refinement


def refine_almost_isometric(
    expr: SetExpr,
    epsilon: ScalarLike,
    strategy: SearchStrategy,
    N_max: int,
    kind: NormKind,
) -> SetExpr:
    """A symmetrization whose delta_0 is within (1+epsilon) of the limit index.

    Grows one witness search a list size at a time until the certified
    delta_0 upper bound meets (1+epsilon) times the certified limit
    lower bound; the result is the flattened symmetrized set, ready for
    extraction. Raises :class:`NotFound` with the best ratio achieved
    when the search exhausts.
    """
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    low = delta_lower(expr, 1, kind).lower_certificate
    if low.unconditional_value <= 0 or not low.uniform:
        raise InvalidInput("refinement needs a positive unconditional lower certificate")
    target = as_length(1 + eps, kind) * low.value
    best = None
    for bound, ws in _witness_search(expr, N_max, strategy, kind):
        best = (bound.upper / low.value, ws)
        if bound.upper <= target:
            return symmetrize(expr, ws)
    raise NotFound(
        f"no witness list within N_max={N_max} met the ratio target",
        best=None if best is None else {
            "ratio": format_scalar(best[0]),
            "witnesses": [w.to_json() for w in best[1]],
        },
    )


# ---------------------------------------------------------------------------
# dyadic trees


@dataclass
class EpsTree:
    """Heap-shaped point system with exact midpoint law.

    ``nodes[k]`` holds node k+1 in heap numbering: node n has children
    2n and 2n+1. ``sep`` is the exact minimum sibling separation in the
    carried norm convention.
    """

    nodes: tuple[SparseVec, ...]
    epsilon: Fraction
    sep: Fraction
    kind: NormKind

    def node(self, n: int) -> SparseVec:
        return self.nodes[n - 1]

    @property
    def depth(self) -> int:
        return (len(self.nodes) + 1).bit_length() - 1

    @property
    def internal_count(self) -> int:
        return (len(self.nodes) + 1) // 2 - 1

    def to_json(self) -> dict:
        return {
            "nodes": [v.to_json() for v in self.nodes],
            "epsilon": format_scalar(self.epsilon),
            "sep": format_scalar(self.sep),
            "norm": self.kind.value,
        }


def build_eps_tree(
    expr: SetExpr,
    epsilon: ScalarLike,
    depth: int,
    kind: NormKind,
) -> EpsTree:
    """Grow a dyadic tree of the given depth (levels) inside the set.

    Node n splits along a free direction u of norm at least epsilon:
    children are x_n - u and x_n + u, so the midpoint law is exact and
    siblings are at least 2*epsilon apart. Raises :class:`TreeStalled`
    at the first node without such a direction, and
    :class:`InvalidInput` for a depth outside 1..MAX_TREE_DEPTH before
    any node is allocated.
    """
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    if not 1 <= depth <= MAX_TREE_DEPTH:
        raise InvalidInput(f"depth must be from 1 to {MAX_TREE_DEPTH}")
    total = 2 ** depth - 1
    internal = 2 ** (depth - 1) - 1
    arr: list[Optional[SparseVec]] = [None] * (total + 1)
    arr[1] = _default_start(expr)
    threshold = as_length(eps, kind)
    for n in range(1, internal + 1):
        u = free_direction(expr, [arr[n]], kind)
        if u is None or norm(u, kind) < threshold:
            partial = tuple(v for v in arr[1:] if v is not None)
            raise TreeStalled(n, partial)
        arr[2 * n] = arr[n] - u
        arr[2 * n + 1] = arr[n] + u
    if internal:
        sep = min(
            norm(arr[2 * n + 1] - arr[2 * n], kind) for n in range(1, internal + 1)
        )
    else:
        sep = Fraction(0)
    return EpsTree(nodes=tuple(arr[1:]), epsilon=eps, sep=sep, kind=kind)


# ---------------------------------------------------------------------------
# one-sided sequences


def one_sided_sequence(
    expr: SetExpr,
    epsilon: ScalarLike,
    steps: int,
    kind: NormKind,
) -> list[SparseVec]:
    """Vectors of norm >= epsilon whose sign sums stay in the difference set.

    Growth keeps a doubling family inside the set: each new vector
    translates the whole family back into the set. The variant's
    ``one_sided_direction`` has tested every translate to pick it (finite
    sets, sign sums), or a box's fresh coordinate puts each one in the
    box (README, "One-sided families"). So the family
    {x_0 + sum_{k in S} x_k} lies in the set, and each partial sign sum
    +-x_1 +- ... +-x_m, the family member of its + terms minus that of
    its - terms, lies in the difference set A - A; its norm is at most
    diam A. Raises
    :class:`BudgetExceeded` before a step whose family could pass
    ``sets.DEFAULT_ENUM_BUDGET`` members.
    """
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    if steps < 1:
        raise InvalidInput("steps must be at least 1")
    family: list[SparseVec] = [_default_start(expr)]
    out: list[SparseVec] = []
    threshold = as_length(eps, kind)
    for n in range(1, steps + 1):
        if 2 * len(family) > sets.DEFAULT_ENUM_BUDGET:
            raise BudgetExceeded(f"step {n} would grow the one-sided family past the enumeration budget "
                                 f"of {sets.DEFAULT_ENUM_BUDGET} members")
        d = expr.one_sided_direction(family, threshold, kind)
        if d is None:
            raise SequenceStalled(n, out)
        out.append(d)
        family = sorted(set(family) | {m + d for m in family}, key=lambda v: v.sort_key())
    return out


# ---------------------------------------------------------------------------
# extreme points


def eps_extreme(expr: SetExpr, x: SparseVec, epsilon: ScalarLike, kind: NormKind) -> bool:
    """Whether the symmetrized set at x has diameter below 2*epsilon;
    raises :class:`Inconclusive` when its diameter interval straddles
    2*epsilon."""
    flag, bound = extreme_diameter(expr, x, epsilon, kind)
    if flag is None:
        raise Inconclusive(f"diameter interval [{bound.lower}, {bound.upper}] straddles 2*epsilon")
    return flag


def extreme_diameter(
    expr: SetExpr, x: SparseVec, epsilon: ScalarLike, kind: NormKind
) -> tuple[Optional[bool], BoundPair]:
    """:func:`eps_extreme`'s flag together with the diameter interval
    that decides it; the flag is None when the interval straddles
    2*epsilon."""
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    if not contains(expr, x):
        raise WitnessNotMember("the point is not a member of the set")
    bound = diameter(expr.symmetrize_reduce([x]), kind)
    threshold = as_length(2 * eps, kind)
    if bound.upper is not None and bound.upper < threshold:
        return True, bound
    if bound.lower is not None and bound.lower >= threshold:
        return False, bound
    return None, bound


# -- exact arithmetic in Q[sqrt(s)] for the segment analysis ----------------


@dataclass(frozen=True)
class _Surd:
    """Value a + b*sqrt(s) with rational a, b and positive rational s."""

    a: Fraction
    b: Fraction
    s: Fraction


_Value = Fraction | _Surd


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _surd_sign(a: Fraction, b: Fraction, s: Fraction) -> int:
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs = a * a
    rhs = b * b * s
    if lhs == rhs:
        return 0
    return _sign(a) if lhs > rhs else _sign(b)


def _value_cmp_rational(v: _Value, r: Fraction) -> int:
    if isinstance(v, Fraction):
        return _sign(v - r)
    return _surd_sign(v.a - r, v.b, v.s)


def _value_cmp(v: _Value, w: _Value) -> int:
    if isinstance(v, Fraction) and isinstance(w, Fraction):
        return _sign(v - w)
    if isinstance(v, Fraction):
        return -_value_cmp_rational(w, v)
    if isinstance(w, Fraction):
        return _value_cmp_rational(v, w)
    if v.s == w.s:
        return _surd_sign(v.a - w.a, v.b - w.b, v.s)
    # sign of (v.a - w.a + v.b sqrt(s1)) - w.b sqrt(s2), two squarings
    sa = _surd_sign(v.a - w.a, v.b, v.s)
    sb = _sign(w.b)
    if sa == 0 and sb == 0:
        return 0
    if sa >= 0 and sb <= 0:
        return 1
    if sa <= 0 and sb >= 0:
        return -1
    u = v.a - w.a
    asq_rat = u * u + v.b * v.b * v.s - w.b * w.b * w.s
    asq_surd = 2 * u * v.b
    c = _surd_sign(asq_rat, asq_surd, v.s)
    return c if sa > 0 else -c


def _sqrt_upper(s: Fraction) -> Fraction:
    """A rational upper bound on sqrt(s)."""
    n, d = s.numerator, s.denominator
    return Fraction(isqrt(n * d) + 1, d)


def _value_lower_rational(v: _Value) -> Fraction:
    """A certified rational lower bound of a nonnegative value, positive
    when the value is: the bisection runs past 200 halvings until its
    lower end leaves 0."""
    if isinstance(v, Fraction):
        return v
    if _value_cmp_rational(v, Fraction(0)) <= 0:
        return Fraction(0)
    hi = v.a + abs(v.b) * _sqrt_upper(v.s)
    lo = Fraction(0)
    for step in count():
        if step >= 200 and lo > 0:
            break
        mid = (lo + hi) / 2
        if _value_cmp_rational(v, mid) > 0:
            lo = mid
        else:
            hi = mid
        if lo > 0 and (hi - lo) < Fraction(1, 10 ** 12):
            break
    return lo


# -- the pair scan on integer points over one scale -------------------------
#
# Scaled values are a rational pair (numerator, positive denominator) or a
# _Surd with integer a and s; both are L (sup, sum) or L^2 (euclid) times
# the plain value, and compare as the plain values do.

_Scaled = tuple[int, int] | _Surd


def _scaled_cmp(v: _Scaled, w: _Scaled) -> int:
    """Sign of v - w; rational pairs compare by cross-multiplying."""
    if isinstance(v, tuple) and isinstance(w, tuple):
        return _sign(v[0] * w[1] - w[0] * v[1])
    return _value_cmp(*(Fraction(*u) if isinstance(u, tuple) else u for u in (v, w)))


def _scaled_surd(p: int, q: int, s: int) -> _Scaled:
    """p + (q/s)*sqrt(s) for integers p, q and s > 0, as a rational pair
    when it is rational."""
    if q == 0:
        return p, 1
    r = isqrt(s)
    if r * r == s:
        return p * s + q * r, s
    return _Surd(p, Fraction(q, s), s)


def _segment_portion_distance(
    d1: tuple[int, ...], d2: tuple[int, ...], eps: int, kind: NormKind
) -> Optional[_Scaled]:
    """Distance from 0 to the middle portion of the segment [d1, d2].

    The points and eps are integers over one scale. The middle portion
    keeps the points at distance >= eps from both endpoints; None when
    it is empty. The result is in the carried norm convention; Euclidean
    boundary values live in Q[sqrt(s)].
    """
    c = [-v for v in d2]  # distance target: ||c - lambda*m||
    m = [u - v for u, v in zip(d1, d2)]
    if kind is NormKind.EUCLID:
        a = _int_norm(m, kind)  # squared length
        ee = eps * eps
        if 4 * ee > a:
            return None
        b = sum(u * v for u, v in zip(c, m))
        # lambda* = b/a against the portion ends eps/|m| and 1 - eps/|m|
        above_lo = b > 0 and b * b >= ee * a
        below_hi = a - b > 0 and (a - b) ** 2 >= ee * a
        c2 = _int_norm(c, kind)
        if above_lo and below_hi:
            return c2 * a - b * b, a
        if not above_lo:
            return _scaled_surd(c2 + ee, -2 * b * eps, a)
        return _scaled_surd(c2 - 2 * b + a + ee, 2 * eps * (b - a), a)
    length = _int_norm(m, kind)
    if length < 2 * eps:
        return None
    cm = [(ci, mi) for ci, mi in zip(c, m) if ci or mi]
    # lambda = p/q with q > 0, from the ends eps/length, 1 - eps/length
    # and the breakpoints where a coordinate (pair) term changes sign
    lams = {(eps, length), (length - eps, length)}
    lams.update((ci, mi) if mi > 0 else (-ci, -mi) for ci, mi in cm if mi)
    if kind is NormKind.SUP:
        for (ci, mi), (cj, mj) in combinations(cm, 2):
            for p, q in ((ci - cj, mi - mj), (ci + cj, mi + mj)):
                if q:
                    lams.add((p, q) if q > 0 else (-p, -q))
    # the norm is piecewise linear and convex in lambda: its minimum over
    # [lo, hi] is at an end or at a breakpoint inside, tried in any order;
    # at lambda = p/q it is ||q*c - p*m|| / q
    best = None
    for p, q in lams:
        if eps * q <= p * length <= (length - eps) * q:
            n = _int_norm([q * ci - p * mi for ci, mi in cm], kind)
            if best is None or n * best[1] < best[0] * q:
                best = n, q
    return best


def _gap_bound(d1: tuple[int, ...], d2: tuple[int, ...], kind: NormKind) -> int:
    """An integer lower bound on the distance from 0 to the segment [d1, d2].

    Coordinate i of every segment point lies between d1_i and d2_i, so it
    is at least as far from 0 as that interval: min(|d1_i|, |d2_i|) when
    both share a sign, else 0. The gaps combine as the norm does (carried
    square under euclid).
    """
    return _int_norm([min(abs(u), abs(v)) for u, v in zip(d1, d2) if u * v > 0], kind)


def eps_strong_extreme(
    expr: FinitePoints, x: SparseVec, epsilon: ScalarLike, kind: NormKind
) -> tuple[bool, Fraction]:
    """Segment-avoidance test with the largest admissible closeness bound.

    Decides whether some delta > 0 keeps every near-x segment point
    within epsilon of one of its endpoints, by exact minimization of the
    distance from x to each pair's middle segment portion. The returned
    delta is that minimum (a certified rational lower bound of it when
    the Euclidean minimum is irrational); (True, 1) when no pair has a
    middle portion at all.

    The points and epsilon are taken as integer rows over the lcm L of
    their denominators (:func:`~symdex.vectors.integer_rows`), and
    translated so x sits at 0. The minimum is
    divided by L (L^2 under euclid) once at the end, which gives an
    irrational one the same Q[sqrt(s)] form as a scan in plain
    coordinates. A pair (x, a) has value exactly epsilon
    (carried) when its portion is nonempty: the portion end nearest x is
    epsilon away from it. Those pairs seed the minimum; any other pair
    is skipped when its coordinatewise gap bound already reaches the
    minimum, and a value <= 0 ends the search at once.
    """
    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    if not isinstance(expr, FinitePoints):
        raise InvalidInput("strong extreme analysis needs a finite point set")
    if not contains(expr, x):
        raise WitnessNotMember("the point is not a member of the set")
    scale, rows = integer_rows(expr.points, denominator=eps.denominator)
    origin = rows[expr.points.index(x)]
    points = [tuple(map(sub, row, origin)) for row in rows if row != origin]
    e = int(eps * scale)
    best: Optional[_Scaled] = None
    # _int_norm of a one-entry vector is the carried length of its entry
    if any(_int_norm(d, kind) >= _int_norm((2 * e,), kind) for d in points):
        best = _int_norm((e,), kind), 1
    # pairs keep their order, so of equal minima the first one found is
    # kept, as its Q[sqrt(s)] form fixes the bisected lower bound
    for d1, d2 in combinations(points, 2):
        if best is not None and _scaled_cmp(best, (_gap_bound(d1, d2, kind), 1)) <= 0:
            continue
        v = _segment_portion_distance(d1, d2, e, kind)
        if v is None:
            continue
        if _scaled_cmp(v, (0, 1)) <= 0:
            return False, Fraction(0)
        if best is None or _scaled_cmp(v, best) < 0:
            best = v
    if best is None:
        return True, Fraction(1)
    if isinstance(best, _Surd):
        square = scale * scale
        return True, _value_lower_rational(
            _Surd(Fraction(best.a, square), best.b / scale, Fraction(best.s, square))
        )
    n, q = best
    return True, Fraction(n, q * _int_norm((scale,), kind))
