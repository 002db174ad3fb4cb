"""Bounded-set expressions with decidable membership and certified bounds.

Every expression denotes a bounded subset of c00. Membership is exact;
quantities that cannot be computed exactly come back as a
:class:`BoundPair` interval whose endpoints are certified (the lower end
by explicit member witnesses or the zero member, the upper end by a
coordinatewise relaxation or a closed form).

Symmetrized sets -- intersections of (A - x) and (x - A) over witness
points x -- are the central construction. Symmetrizing a box yields a
box again (radii shrink by the witness coordinates), subset sign sums
with disjoint term supports yield subset sign sums with the used terms
zeroed, and nested symmetrizations flatten into a single witness list,
so the common lineages stay in closed form. Sets are flattened once,
where they are built: :func:`symmetrize` and the JSON parser return the
flattened form, and no operation flattens again. A ``Symmetrized`` node
built directly is taken as written: operations on it stay certified,
with only its own base's closed forms.

Each variant is a subclass of :class:`SetExpr` that carries its own case
of every operation as a method. The module functions (``contains``,
``diameter``, ``sup_functional``, ``free_direction``, ...) are the entry
points. Where an operation has a public module function, methods reach
sub-expressions through it, so nested calls are memoized and observed the
same way as top-level ones; ``diameter`` methods call their parts'
methods, as the module function adds nothing to them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm
from operator import mul, sub
from typing import ClassVar, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import exactlp
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    InvalidInput,
    UnboundedDiameter,
    WitnessNotMember,
)
from .series import SeriesSpec, SignMode
from .vectors import (
    ZERO,
    Functional,
    NormKind,
    SparseVec,
    as_length,
    as_scalar,
    double_length,
    dual_pair,
    format_scalar,
    fresh_coordinate,
    integer_rows,
    linear_combination,
    norm,
    signed_sums,
    unit,
    _add_into,
    _int_norm,
    _reduced,
)

DEFAULT_ENUM_BUDGET = 200_000
DEFAULT_NODE_BUDGET = 200_000

# Deepest set nesting that set_from_json accepts. Parsing and every set
# operation recurse through a module function and a method per level, so
# this keeps the stack well under Python's default limit of 1000 frames.
MAX_SET_DEPTH = 200

# Entries a set keeps in its private memo (enumerations, one-witness
# member sets and a hull's warm LPs); a request uses far fewer.
MEMO_SIZE = 512


# ---------------------------------------------------------------------------
# certified intervals and lower certificates


@dataclass(frozen=True)
class BoundPair:
    """Certified interval for a nonnegative quantity.

    ``upper=None`` means unbounded above; ``lower=None`` means no finite
    certified lower bound (rare, only for degenerate intersections).
    Witness payloads are JSON-ready data that replays the bound through
    membership checks and exact arithmetic alone.
    """

    lower: Optional[Fraction]
    upper: Optional[Fraction]
    lower_witness: object = None
    upper_witness: object = None

    def __post_init__(self):
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise InvalidInput(f"bound pair out of order: {self.lower} > {self.upper}")

    @property
    def exact(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def scale(self, factor: Fraction) -> "BoundPair":
        lo = None if self.lower is None else self.lower * factor
        hi = None if self.upper is None else self.upper * factor
        return BoundPair(lo, hi, self.lower_witness, self.upper_witness)

    def half(self, kind: NormKind) -> "BoundPair":
        """Halve a carried magnitude (squares divide by four)."""
        return self.scale(Fraction(1, 4) if kind is NormKind.EUCLID else Fraction(1, 2))

    def to_json(self) -> dict:
        return {
            "lower": None if self.lower is None else format_scalar(self.lower),
            "upper": None if self.upper is None else format_scalar(self.upper),
            "lower_witness": self.lower_witness,
            "upper_witness": self.upper_witness,
        }


@dataclass(frozen=True)
class LowerCertificate:
    """Replayable lower-bound evidence for a delta index.

    ``value`` is in the carried norm convention (squared for EUCLID);
    ``plain_value`` is a rational lower bound in plain length units.
    ``uniform`` marks certificates that answer witness lists of every
    length, which is what makes them carry over to delta-infinity.
    ``conditional`` marks certificates whose challenge replay needs
    spare room in the model (a fresh series index); such values hold for
    the unbounded-horizon reading but not for every witness list of the
    finite model, so aggregate bounds downgrade them to zero.
    """

    kind: str
    value: Fraction
    plain_value: Fraction
    uniform: bool
    data: dict = field(default_factory=dict)
    conditional: bool = False

    @property
    def unconditional_value(self) -> Fraction:
        return Fraction(0) if self.conditional else self.value

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "value": str(self.value),
            "plain_value": str(self.plain_value),
            "uniform": self.uniform,
            "conditional": self.conditional,
            "data": self.data,
        }


def _plain_lower(value: Fraction, kind: NormKind) -> Fraction:
    """Rational plain-length lower bound of a carried magnitude."""
    if kind is not NormKind.EUCLID:
        return value
    if value == 0:
        return Fraction(0)
    # floor of sqrt(value) with denominator 10^6
    scale = 10 ** 6
    num = value.numerator * scale * scale
    den = value.denominator
    root = isqrt(num // den)
    return Fraction(root, scale)


# ---------------------------------------------------------------------------
# the variant interface


class SetExpr(ABC):
    """A bounded subset of c00 with decidable membership.

    A variant implements the abstract methods and overrides the defaults
    that do not fit it. Methods are the per-variant cases of the module
    functions; callers use the module functions.
    """

    tag: ClassVar[str]

    @abstractmethod
    def to_json(self) -> dict:
        """Tagged JSON form (see :func:`set_to_json`)."""

    @classmethod
    @abstractmethod
    def from_json(cls, obj: dict) -> "SetExpr":
        """Parse the JSON form carrying this class's tag; malformed fields
        raise :class:`InvalidInput`."""

    @abstractmethod
    def contains(self, v: SparseVec) -> bool:
        """Exact membership."""

    @abstractmethod
    def sup_functional(self, f: Functional) -> BoundPair:
        """Certified interval for sup of ``f`` over the set."""

    @abstractmethod
    def relevant_coords(self) -> set[int]:
        """Coordinates on which the set differs from its fresh behaviour."""

    @abstractmethod
    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        """Certified diameter interval of this set; see :func:`diameter`
        for ``lower``."""

    @abstractmethod
    def default_pool(self) -> tuple[SparseVec, ...]:
        """A small deterministic witness pool of members."""

    def symmetrize_reduce(self, ws: list[SparseVec]) -> "SetExpr":
        """The symmetrization at the witnesses ``ws``, flattened where a
        closed form exists."""
        return Symmetrized(self, tuple(ws))

    def _memo(self, key: tuple, build):
        """The entry ``key`` of this set's memo, built by ``build()`` when
        missing; a hit makes it the newest entry, and past MEMO_SIZE
        entries the least recently used goes. The memo lives on the
        instance outside the dataclass fields, like ``SparseVec._hash``:
        equal sets built separately share nothing."""
        memo = vars(self).setdefault("_memo_entries", {})
        if key in memo:
            memo[key] = memo.pop(key)
        else:
            memo[key] = build()
            if len(memo) > MEMO_SIZE:
                del memo[next(iter(memo))]
        return memo[key]

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        """Every member, or None when the set is not enumerable within
        ``budget`` (unmemoized; see :func:`enumerate_members`)."""
        return None

    def one_witness_members(self, w: SparseVec, budget: int) -> Optional[tuple[SparseVec, ...]]:
        """S_w = {p - w : p and 2w - p in the set} in ``sort_key`` order:
        the members of Sym(self; {w}), or None when the set is not
        enumerable within ``budget``."""
        base = enumerate_members(self, budget)
        if base is None:
            return None
        pool = set(base)
        twice = w + w
        return tuple(sorted((p - w for p in base if twice - p in pool), key=SparseVec.sort_key))

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        """The case of :func:`free_direction` for member witnesses ``ws``:
        a direction d with w + d and w - d members at every witness, by a
        membership test or by the variant's lemma, or None when the
        variant has no free-direction family."""
        return None

    def one_sided_direction(
        self, family: list[SparseVec], threshold: Fraction, kind: NormKind
    ) -> Optional[SparseVec]:
        """A direction d of norm at least ``threshold`` with member + d in
        the set for the whole family, or None."""
        return None

    def lower_certificate(self, kind: NormKind) -> LowerCertificate:
        """Lower certificate for every delta_N of this set."""
        return LowerCertificate("none", Fraction(0), Fraction(0), True)

    def separated_family(self, count: int) -> Optional[list[SparseVec]]:
        """``count`` members from a family that extends to any count, or None."""
        return None

    @abstractmethod
    def coordinate_relaxation(self) -> "Box":
        """The box of this set's closed form; see :func:`coordinate_relaxation`."""

    def symmetrized_lp_extent(self, sym: "Symmetrized", kind: NormKind, vertex: bool) -> Optional[BoundPair]:
        """Exact diameter of ``sym`` (whose base is this set) by linear
        programming, tried after enumeration, or None. Without ``vertex``
        only the upper end need be exact, and the lower end may be the
        certified zero without a witness."""
        return None

    def symmetrized_sup(self, sym: "Symmetrized", f: Functional) -> Optional[BoundPair]:
        """Exact sup of ``f`` over ``sym`` (whose base is this set), or None."""
        return None


# ---------------------------------------------------------------------------
# expression variants


@dataclass(frozen=True)
class Box(SetExpr):
    """{v : |v_i| <= r_i for all i} with r_i = override or default radius.

    Diagonal-operator images of the unit ball are exactly these boxes;
    the reciprocal of the smallest positive radius plays the role of the
    inverse-operator norm. Overrides equal to the default are dropped so
    equal sets compare equal.
    """

    tag: ClassVar[str] = "box"
    default_radius: Fraction
    overrides: tuple[tuple[int, Fraction], ...] = ()
    _radii: dict[int, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        default = as_scalar(self.default_radius)
        if default < 0:
            raise InvalidInput("box radius must be nonnegative")
        cleaned = {}
        pairs = self.overrides.items() if isinstance(self.overrides, dict) else self.overrides
        for coord, radius in pairs:
            if not isinstance(coord, int) or coord < 1:
                raise InvalidInput(f"bad box coordinate {coord!r}")
            r = as_scalar(radius)
            if r < 0:
                raise InvalidInput("box radius must be nonnegative")
            if r != default:
                cleaned[coord] = r
        object.__setattr__(self, "default_radius", default)
        object.__setattr__(self, "overrides", tuple(sorted(cleaned.items())))
        object.__setattr__(self, "_radii", dict(self.overrides))

    def radius(self, coord: int) -> Fraction:
        return self._radii.get(coord, self.default_radius)

    def override_map(self) -> dict[int, Fraction]:
        return dict(self._radii)

    @property
    def max_override_coord(self) -> int:
        return self.overrides[-1][0] if self.overrides else 0

    def to_json(self) -> dict:
        return {
            "type": self.tag,
            "default_radius": format_scalar(self.default_radius),
            "overrides": {str(i): format_scalar(r) for i, r in self.overrides},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Box":
        raw = obj.get("overrides", {})
        if not isinstance(raw, dict):
            raise InvalidInput("box overrides must be an object")
        overrides = {}
        for key, value in raw.items():
            try:
                coord = int(key)
            except (TypeError, ValueError):
                raise InvalidInput(f"bad box coordinate {key!r}") from None
            overrides[coord] = as_scalar(value)
        return cls(as_scalar(obj["default_radius"]), tuple(overrides.items()))

    def contains(self, v: SparseVec) -> bool:
        # |v_i| <= r_i, cross-multiplied over v's denominator
        den = v._den
        for i, n in v._nums.items():
            r = self.radius(i)
            if abs(n) * r.denominator > r.numerator * den:
                return False
        return True

    def symmetrize_reduce(self, ws: list[SparseVec]) -> SetExpr:
        coords = sorted({i for w in ws for i in w.support})
        overrides = self.override_map()
        for i in coords:
            shrunk = self.radius(i) - max(abs(w.get(i)) for w in ws)
            overrides[i] = max(shrunk, Fraction(0))
        return Box(self.default_radius, tuple(overrides.items()))

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        if self.default_radius == 0 and all(r == 0 for _, r in self.overrides):
            return (ZERO,)
        return None

    def sup_functional(self, f: Functional) -> BoundPair:
        value = sum((abs(x) * self.radius(i) for i, x in f.items()), Fraction(0))
        return BoundPair(value, value, upper_witness={"rule": "box"})

    def relevant_coords(self) -> set[int]:
        return {i for i, _ in self.overrides}

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        radii = [r for _, r in self.overrides]
        if kind is NormKind.SUP:
            top = max([self.default_radius] + radii)
            value = 2 * top
            return BoundPair(value, value, upper_witness={"rule": "box_sup"})
        if self.default_radius > 0:
            raise UnboundedDiameter(
                "box with positive default radius is unbounded in this norm"
            )
        if kind is NormKind.SUM:
            value = 2 * sum(radii, Fraction(0))
            return BoundPair(value, value, upper_witness={"rule": "box_sum"})
        value = 4 * sum((r * r for r in radii), Fraction(0))
        return BoundPair(value, value, upper_witness={"rule": "box_euclid_sq"})

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        if self.default_radius == 0:
            return None
        return unit(fresh_coordinate(ws, self.max_override_coord), self.default_radius)

    def one_sided_direction(
        self, family: list[SparseVec], threshold: Fraction, kind: NormKind
    ) -> Optional[SparseVec]:
        if self.default_radius == 0:
            return None
        d = unit(fresh_coordinate(family, self.max_override_coord), self.default_radius)
        return d if norm(d, kind) >= threshold else None

    def default_pool(self) -> tuple[SparseVec, ...]:
        pool = {ZERO}
        for i, r in self.overrides:
            if r > 0:
                pool.add(unit(i, r))
                pool.add(unit(i, -r))
        return tuple(sorted(pool, key=lambda p: p.sort_key()))

    def lower_certificate(self, kind: NormKind) -> LowerCertificate:
        r = self.default_radius
        if r == 0:
            return super().lower_certificate(kind)
        return LowerCertificate(
            "fresh_coordinate",
            as_length(r, kind),
            r,
            True,
            {"radius": str(r)},
        )

    def separated_family(self, count: int) -> Optional[list[SparseVec]]:
        # fresh-coordinate walk: member j is r on the first j fresh
        # coordinates and -r on the next one
        r = self.default_radius
        if r <= 0:
            return None
        start = self.max_override_coord
        coords = [start + j for j in range(1, count + 1)]
        family = []
        for j in range(count):
            entries = {coords[i]: r for i in range(j)}
            entries[coords[j]] = -r
            family.append(SparseVec(entries))
        return family

    def coordinate_relaxation(self) -> "Box":
        return self


@dataclass(frozen=True)
class FinitePoints(SetExpr):
    """A finite point set, its points distinct and in ``sort_key`` order.

    The pair diameter and the one-witness sets S_w scan the points as
    integer rows (:func:`~symdex.vectors.integer_rows`), built per call;
    membership and JSON build none.
    """

    tag: ClassVar[str] = "finite"
    points: tuple[SparseVec, ...]

    def __post_init__(self):
        pts = tuple(sorted(set(self.points), key=lambda p: p.sort_key()))
        if not pts:
            raise InvalidInput("finite point set must be nonempty")
        object.__setattr__(self, "points", pts)

    def to_json(self) -> dict:
        return {"type": self.tag, "points": [p.to_json() for p in self.points]}

    @classmethod
    def from_json(cls, obj: dict) -> "FinitePoints":
        return cls(_json_vectors(obj, "points"))

    def contains(self, v: SparseVec) -> bool:
        return v in self.points

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        return self.points

    def one_witness_members(self, w: SparseVec, budget: int) -> Optional[tuple[SparseVec, ...]]:
        # p - w is in S_w when 2w - p is a point: a row lookup over one scale
        *rows, twice = integer_rows((*self.points, w + w))[1]
        index = set(rows)
        return tuple(sorted(
            (p - w for p, row in zip(self.points, rows)
             if tuple(map(sub, twice, row)) in index),
            key=SparseVec.sort_key,
        ))

    def sup_functional(self, f: Functional) -> BoundPair:
        arg = max(self.points, key=lambda p: dual_pair(f, p))
        best = dual_pair(f, arg)
        return BoundPair(best, best, lower_witness={"point": arg.to_json()})

    def relevant_coords(self) -> set[int]:
        return {i for p in self.points for i in p.support}

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        return _pair_diameter(self.points, kind)

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        if not ws:
            return None
        pool = set(self.points)
        best: Optional[SparseVec] = None
        best_key = None
        for p in self.points:
            d = _canonical_sign(p - ws[0])
            if d.is_zero:
                continue
            if all((w + d) in pool and (w - d) in pool for w in ws):
                key = (-norm(d, kind), d.sort_key())
                if best_key is None or key < best_key:
                    best, best_key = d, key
        return best

    def one_sided_direction(
        self, family: list[SparseVec], threshold: Fraction, kind: NormKind
    ) -> Optional[SparseVec]:
        pool = set(self.points)
        best = None
        best_key = None
        for p in self.points:
            d = p - family[0]
            if d.is_zero or norm(d, kind) < threshold:
                continue
            if all((m + d) in pool for m in family):
                key = (-norm(d, kind), d.sort_key())
                if best_key is None or key < best_key:
                    best, best_key = d, key
        return best

    def default_pool(self) -> tuple[SparseVec, ...]:
        return self.points

    def lower_certificate(self, kind: NormKind) -> LowerCertificate:
        return LowerCertificate("finite_extreme", Fraction(0), Fraction(0), True)

    def coordinate_relaxation(self) -> "Box":
        return _largest_entries(self.points)


@dataclass(frozen=True)
class SignSums(SetExpr):
    """Sign sums of a series: prefixes with all signs, or signed subsets.

    The subset mode contains the empty sum, so it always holds the zero
    vector. With disjoint term supports, membership is decided exactly
    from the series' coordinate table. Overlapping supports need a
    search, and ``node_budget`` caps it; exceeding it raises
    :class:`DepthExceeded` rather than approximating.
    """

    tag: ClassVar[str] = "sign_sums"
    series: SeriesSpec
    mode: SignMode
    horizon: int
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if not (1 <= self.horizon <= self.series.horizon):
            raise InvalidInput(
                f"horizon {self.horizon} outside series length {self.series.horizon}"
            )

    @property
    def terms(self) -> tuple[SparseVec, ...]:
        return self.series.terms[: self.horizon]

    def to_json(self) -> dict:
        out = {
            "type": self.tag,
            "mode": self.mode.value,
            "horizon": self.horizon,
            "series": self.series.to_json(),
        }
        if self.node_budget != DEFAULT_NODE_BUDGET:
            out["node_budget"] = self.node_budget
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SignSums":
        budget = _json_int(obj.get("node_budget", DEFAULT_NODE_BUDGET), "node_budget")
        if budget < 1:
            raise InvalidInput(f"set JSON field 'node_budget' must be at least 1, got {budget}")
        return cls(
            series=SeriesSpec.from_json(obj["series"]),
            mode=SignMode.parse(obj["mode"]),
            horizon=_json_int(obj["horizon"], "horizon"),
            node_budget=budget,
        )

    def term_signs(self, v: SparseVec) -> Optional[dict[int, int]]:
        """{0-based term index: +-1} when ``v`` is a signed sum of distinct
        whole terms within the horizon; None when it is not. Only for
        disjoint term supports, where each coordinate has one term entry."""
        columns, horizon, terms, signs = self.series.columns, self.horizon, self.series.terms, {}
        vd = v._den
        for i, p in v._nums.items():
            n = columns[i][0][0] if i in columns else horizon
            if n >= horizon:
                return None
            # v_i == +-t_i, cross-multiplied over the two denominators
            t = terms[n]
            q = t._nums[i] * vd
            p *= t._den
            sign = 1 if p == q else -1 if p == -q else 0
            if not sign or signs.setdefault(n, sign) != sign:
                return None
        # each coordinate of v lies in one touched term: v holds those terms
        # whole exactly when their supports add up to v's
        if sum(len(terms[n]._nums) for n in signs) != len(v._nums):
            return None
        return signs

    def contains(self, v: SparseVec) -> bool:
        if not self.series.disjoint_supports():
            return self._search(v)
        signs = self.term_signs(v)
        if signs is None:
            return False
        if self.mode is SignMode.SUBSETS:
            return True
        # prefixes: every nonzero term up to the last used one carries +-1
        cut = max(signs, default=0) + 1
        return all(n in signs or self.terms[n].is_zero for n in range(cut))

    def _search(self, v: SparseVec) -> bool:
        """Membership by depth-first search over term coefficients, for
        overlapping supports; ``node_budget`` caps its nodes. ``v`` and
        the terms are integer dicts over the lcm of their denominators."""
        terms = self.terms
        h = len(terms)
        scale = lcm(v._den, *(t._den for t in terms))
        rows = [{i: (scale // t._den) * n for i, n in t._nums.items()} for t in terms]
        suffix: list[dict[int, int]] = [dict() for _ in range(h + 1)]
        for n in range(h - 1, -1, -1):
            acc = dict(suffix[n + 1])
            for i, x in rows[n].items():
                acc[i] = acc.get(i, 0) + abs(x)
            suffix[n] = acc
        budget = self.node_budget
        nodes = 0

        def viable(residual: dict[int, int], k: int) -> bool:
            bound = suffix[k]
            return all(abs(x) <= bound.get(i, 0) for i, x in residual.items())

        def step(residual: dict[int, int], coeff: int, row: dict[int, int]) -> dict[int, int]:
            return _add_into(dict(residual), row, -coeff) if coeff else residual

        # Depth-first over term coefficients, on an explicit stack so the
        # depth is not limited by the interpreter's recursion limit. A
        # prefix sum needs at least one term; a subset sum may be empty.
        prefix_mode = self.mode is SignMode.PREFIXES
        signs = (1, -1) + (() if prefix_mode else (0,))
        stack: list[tuple[dict[int, int], int, Iterator[int]]] = []
        residual, k = {i: (scale // v._den) * n for i, n in v._nums.items()}, 0
        while True:
            nodes += 1
            if nodes > budget:
                raise DepthExceeded(f"sign-sum membership search exceeded {budget} nodes")
            if not residual and (k >= 1 or not prefix_mode):
                return True
            if k < h and viable(residual, k):
                stack.append((residual, k, iter(signs)))
            # the next node: the next unvisited child of the deepest open node
            while stack:
                parent, depth, untried = stack[-1]
                c = next(untried, None)
                if c is not None:
                    residual, k = step(parent, c, rows[depth]), depth + 1
                    break
                stack.pop()
            else:
                return False

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        terms = self.terms
        if self.mode is SignMode.SUBSETS:
            # a zero term adds nothing to a subset sum
            terms = tuple(t for t in terms if not t.is_zero)
        h = len(terms)
        count = 3 ** h if self.mode is SignMode.SUBSETS else 2 ** (h + 1) - 2
        if count > budget:
            return None
        values: set[SparseVec] = set()
        if self.mode is SignMode.SUBSETS:
            for coeffs in product((1, -1, 0), repeat=h):
                values.add(linear_combination(zip(coeffs, terms)))
        else:
            for m in range(1, h + 1):
                values.update(signed_sums(terms[:m]))
        return tuple(sorted(values, key=lambda p: p.sort_key()))

    def sup_functional(self, f: Functional) -> BoundPair:
        # sum of |f(t_n)| over the terms f touches, one table lookup per
        # entry of f; f(t_n) is pairs[n] over f's and t_n's denominators
        terms, pairs = self.series.terms, {}
        for i, y in f._nums.items():
            for n, _ in self.series.columns.get(i, ()):
                if n < self.horizon:
                    pairs[n] = pairs.get(n, 0) + y * terms[n]._nums[i]
        scale = lcm(*(terms[n]._den for n in pairs))
        total = sum(abs(p) * (scale // terms[n]._den) for n, p in pairs.items())
        value = Fraction(total, f._den * scale)
        return BoundPair(value, value, upper_witness={"rule": "column_sums"})

    def relevant_coords(self) -> set[int]:
        return {i for i, entries in self.series.columns.items() if entries[0][0] < self.horizon}

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        terms = self.terms
        if kind is NormKind.SUP:
            column = self.series.column_sums(self.horizon)
            if not column:
                return _symmetric_pair_bound(Fraction(0), ZERO, kind)
            coord = max(column, key=lambda i: (column[i], -i))
            # every term signed, a prefix of the whole horizon in either mode
            signs = [-1 if t.get(coord) < 0 else 1 for t in terms]
            return _symmetric_pair_bound(
                column[coord], linear_combination(zip(signs, terms)), kind
            )
        if self.series.disjoint_supports():
            total = sum((norm(t, kind) for t in terms), Fraction(0))
            return _symmetric_pair_bound(total, linear_combination((1, t) for t in terms), kind)
        members = enumerate_members(self, enum_budget)
        if members is None:
            raise BudgetExceeded("sign-sum enumeration over budget for this norm")
        arg = max(members, key=lambda p: (norm(p, kind), p.sort_key()))
        return _symmetric_pair_bound(norm(arg, kind), arg, kind)

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        used: set[int] = set()
        for w in ws:
            used |= set(w.support)
        candidates = []
        for n, t in enumerate(self.terms, start=1):
            if t.is_zero or any(i in used for i in t.support):
                continue
            candidates.append((-norm(t, kind), n, t))
        for _, _, t in sorted(candidates, key=lambda c: (c[0], c[1])):
            d = _canonical_sign(t)
            if all(
                contains(self, w + d) and contains(self, w - d) for w in ws
            ) and contains(self, d):
                return d
        return None

    def one_sided_direction(
        self, family: list[SparseVec], threshold: Fraction, kind: NormKind
    ) -> Optional[SparseVec]:
        used: set[int] = set()
        for member in family:
            used |= set(member.support)
        for t in self.terms:
            if t.is_zero or any(i in used for i in t.support):
                continue
            if norm(t, kind) < threshold:
                continue
            if all(contains(self, m + t) for m in family):
                return t
        return None

    def default_pool(self) -> tuple[SparseVec, ...]:
        pool = set()
        if self.mode is SignMode.SUBSETS:
            pool.add(ZERO)
        acc = ZERO
        for t in self.terms:
            acc = acc + t
            pool.add(acc)
        return tuple(sorted(pool, key=lambda p: p.sort_key()))

    def lower_certificate(self, kind: NormKind) -> LowerCertificate:
        if self.mode is not SignMode.SUBSETS:
            return LowerCertificate(
                "none", Fraction(0), Fraction(0), True, {"reason": "prefix_mode"}
            )
        norms = [norm(t, kind) for t in self.terms if not t.is_zero]
        if not norms:
            return super().lower_certificate(kind)
        value = min(norms)
        return LowerCertificate(
            "fresh_series_index",
            value,
            _plain_lower(value, kind),
            True,
            {"requires_fresh_index": True, "horizon": self.horizon},
            conditional=True,
        )

    def symmetrize_reduce(self, ws: list[SparseVec]) -> SetExpr:
        # In subset mode with disjoint supports, at member witnesses (term
        # coefficients in {-1, 0, 1}), the symmetrized set is the signed
        # subset sums over the series indices no witness uses: those terms
        # become zero. Prefix-mode members must stay prefixes instead.
        if self.mode is not SignMode.SUBSETS or not self.series.disjoint_supports():
            return super().symmetrize_reduce(ws)
        used: set[int] = set()
        for w in ws:
            signs = self.term_signs(w)
            if signs is None:
                return super().symmetrize_reduce(ws)
            used |= signs.keys()
        terms = tuple(ZERO if n in used else t for n, t in enumerate(self.series.terms))
        return replace(self, series=replace(self.series, terms=terms))

    def coordinate_relaxation(self) -> "Box":
        return Box(Fraction(0), tuple(self.series.column_sums(self.horizon).items()))


@dataclass(frozen=True)
class Translate(SetExpr):
    tag: ClassVar[str] = "translate"
    base: SetExpr
    by: SparseVec

    def to_json(self) -> dict:
        return {"type": self.tag, "base": set_to_json(self.base), "by": self.by.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Translate":
        return cls(set_from_json(obj["base"]), SparseVec.from_json(obj["by"]))

    def contains(self, v: SparseVec) -> bool:
        return contains(self.base, v - self.by)

    def symmetrize_reduce(self, ws: list[SparseVec]) -> SetExpr:
        return self.base.symmetrize_reduce([w - self.by for w in ws])

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        base = enumerate_members(self.base, budget)
        if base is None:
            return None
        return tuple(sorted({p + self.by for p in base}, key=lambda p: p.sort_key()))

    def sup_functional(self, f: Functional) -> BoundPair:
        inner = sup_functional(f, self.base)
        shift = dual_pair(f, self.by)
        lo = None if inner.lower is None else inner.lower + shift
        hi = None if inner.upper is None else inner.upper + shift
        return BoundPair(lo, hi, inner.lower_witness, inner.upper_witness)

    def relevant_coords(self) -> set[int]:
        return relevant_coords(self.base) | set(self.by.support)

    def coordinate_relaxation(self) -> "Box":
        box = coordinate_relaxation(self.base)
        radii = box.override_map()
        for i, x in self.by.items():
            radii[i] = box.radius(i) + abs(x)
        return Box(box.default_radius, tuple(radii.items()))

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        return self.base.diameter(kind, lower, enum_budget)

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        return self.base.two_sided_direction([w - self.by for w in ws], kind)

    def default_pool(self) -> tuple[SparseVec, ...]:
        return tuple(p + self.by for p in self.base.default_pool())

    def lower_certificate(self, kind: NormKind) -> LowerCertificate:
        return self.base.lower_certificate(kind)


@dataclass(frozen=True)
class Negate(SetExpr):
    tag: ClassVar[str] = "negate"
    base: SetExpr

    def to_json(self) -> dict:
        return {"type": self.tag, "base": set_to_json(self.base)}

    @classmethod
    def from_json(cls, obj: dict) -> "Negate":
        return cls(set_from_json(obj["base"]))

    def contains(self, v: SparseVec) -> bool:
        return contains(self.base, -v)

    def symmetrize_reduce(self, ws: list[SparseVec]) -> SetExpr:
        return self.base.symmetrize_reduce([-w for w in ws])

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        base = enumerate_members(self.base, budget)
        if base is None:
            return None
        return tuple(sorted({-p for p in base}, key=lambda p: p.sort_key()))

    def sup_functional(self, f: Functional) -> BoundPair:
        return sup_functional(-f, self.base)

    def relevant_coords(self) -> set[int]:
        return relevant_coords(self.base)

    def coordinate_relaxation(self) -> "Box":
        return coordinate_relaxation(self.base)

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        return self.base.diameter(kind, lower, enum_budget)

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        return self.base.two_sided_direction([-w for w in ws], kind)

    def default_pool(self) -> tuple[SparseVec, ...]:
        return tuple(-p for p in self.base.default_pool())

    def lower_certificate(self, kind: NormKind) -> LowerCertificate:
        return self.base.lower_certificate(kind)


@dataclass(frozen=True)
class Intersect(SetExpr):
    tag: ClassVar[str] = "intersect"
    parts: tuple[SetExpr, ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidInput("intersection needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def to_json(self) -> dict:
        return {"type": self.tag, "parts": [set_to_json(p) for p in self.parts]}

    @classmethod
    def from_json(cls, obj: dict) -> "Intersect":
        return cls(tuple(set_from_json(p) for p in _json_list(obj, "parts")))

    def contains(self, v: SparseVec) -> bool:
        return all(contains(p, v) for p in self.parts)

    def symmetrize_reduce(self, ws: list[SparseVec]) -> SetExpr:
        return Intersect(tuple(p.symmetrize_reduce(ws) for p in self.parts))

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        for part in self.parts:
            base = enumerate_members(part, budget)
            if base is not None:
                return tuple(p for p in base if contains(self, p))
        return None

    def sup_functional(self, f: Functional) -> BoundPair:
        finite = [u for u in (sup_functional(f, p).upper for p in self.parts) if u is not None]
        return BoundPair(None, min(finite) if finite else None)

    def relevant_coords(self) -> set[int]:
        out: set[int] = set()
        for p in self.parts:
            out |= relevant_coords(p)
        return out

    def coordinate_relaxation(self) -> "Box":
        boxes = [coordinate_relaxation(p) for p in self.parts]
        coords = {i for box in boxes for i, _ in box.overrides}
        radii = tuple((i, min(box.radius(i) for box in boxes)) for i in coords)
        return Box(min(box.default_radius for box in boxes), radii)

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        members = enumerate_members(self, enum_budget)
        if members is not None and len(members) <= 2048:
            return _pair_diameter(members, kind)
        uppers = []
        for p in self.parts:
            try:
                upper = p.diameter(kind, False, enum_budget).upper
            except UnboundedDiameter:
                continue
            if upper is not None:
                uppers.append(upper)
        if not uppers:
            raise UnboundedDiameter("no part of the intersection is certified bounded")
        if not lower:
            return BoundPair(Fraction(0), min(uppers))
        # the farthest pair of the pool members; a zero end has no witness
        found = _pair_diameter(sample_members(self), kind)
        wit = found.lower_witness if found.lower else None
        return BoundPair(found.lower, min(uppers), lower_witness=wit)

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        for part in self.parts:
            d = part.two_sided_direction(ws, kind)
            if d is None or d.is_zero:
                continue
            ok = all(
                contains(self, w + d) and contains(self, w - d) for w in ws
            )
            if ok and contains(self, d) and contains(self, -d):
                return d
        return None

    def default_pool(self) -> tuple[SparseVec, ...]:
        return tuple(p for p in self.parts[0].default_pool() if contains(self, p))


@dataclass(frozen=True)
class Symmetrized(SetExpr):
    """Intersection of (base - x) and (x - base) over the witness list."""

    tag: ClassVar[str] = "symmetrized"
    base: SetExpr
    witnesses: tuple[SparseVec, ...]

    def __post_init__(self):
        ws = tuple(sorted(set(self.witnesses), key=lambda w: w.sort_key()))
        if not ws:
            raise InvalidInput("symmetrized set needs at least one witness")
        object.__setattr__(self, "witnesses", ws)

    def to_json(self) -> dict:
        return {
            "type": self.tag,
            "base": set_to_json(self.base),
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    @classmethod
    def from_json(cls, obj: dict) -> SetExpr:
        base = set_from_json(obj["base"])
        witnesses = _json_vectors(obj, "witnesses")
        if not witnesses:
            raise InvalidInput("symmetrized set needs at least one witness")
        return symmetrize(base, witnesses)

    def contains(self, v: SparseVec) -> bool:
        return all(
            contains(self.base, w + v) and contains(self.base, w - v)
            for w in self.witnesses
        )

    def _witness_sums(self, ws: list[SparseVec]) -> list[SparseVec]:
        """Witnesses of the flattened symmetrization at ``ws``: every v + w
        and v - w over this set's witnesses v."""
        merged = {v + w for v in self.witnesses for w in ws}
        merged |= {v - w for v in self.witnesses for w in ws}
        return sorted(merged, key=lambda u: u.sort_key())

    def symmetrize_reduce(self, ws: list[SparseVec]) -> SetExpr:
        return self.base.symmetrize_reduce(self._witness_sums(ws))

    def members(self, budget: int) -> Optional[tuple[SparseVec, ...]]:
        # Sym(A; W) is the intersection of the one-witness sets S_w, kept
        # in A's memo for every symmetrization of A to share
        ones = []
        for w in self.witnesses:
            one = self.base._memo(("one_witness", w, budget), lambda: self.base.one_witness_members(w, budget))
            if one is None:
                return None
            ones.append(one)
        common = set(ones[0]).intersection(*ones[1:])
        return tuple(d for d in ones[0] if d in common)

    def sup_functional(self, f: Functional) -> BoundPair:
        exact = self.base.symmetrized_sup(self, f)
        if exact is not None:
            return exact
        # sup f over the set is at most sup f - f(w) and -inf f + f(w)
        # over the base, at every witness w; zero is always a member
        sup_base = sup_functional(f, self.base).upper
        inf_base = sup_functional(-f, self.base).upper  # = -inf(f, base)
        cands = []
        for w in self.witnesses:
            val = dual_pair(f, w)
            if sup_base is not None:
                cands.append(sup_base - val)
            if inf_base is not None:
                cands.append(inf_base + val)
        return BoundPair(Fraction(0), min(cands, default=None))

    def relevant_coords(self) -> set[int]:
        out = relevant_coords(self.base)
        for w in self.witnesses:
            out |= set(w.support)
        return out

    def coordinate_relaxation(self) -> "Box":
        return coordinate_relaxation(self.base).symmetrize_reduce(list(self.witnesses))

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        members = enumerate_members(self, enum_budget)
        if members is not None:
            arg = max(members, key=lambda d: norm(d, kind), default=ZERO)
            return _symmetric_pair_bound(norm(arg, kind), arg, kind)
        extent = self.base.symmetrized_lp_extent(self, kind, lower)
        if extent is not None:
            return extent
        # the pool is {0}: the lower end is the certified 0, without a witness
        upper = coordinate_relaxation(self).diameter(kind, False, enum_budget).upper
        return BoundPair(Fraction(0), upper, upper_witness={"rule": "relaxation"})

    def two_sided_direction(self, ws: list[SparseVec], kind: NormKind) -> Optional[SparseVec]:
        merged = self._witness_sums(ws) if ws else list(self.witnesses)
        return self.base.two_sided_direction(merged, kind)

    def default_pool(self) -> tuple[SparseVec, ...]:
        return (ZERO,)


@dataclass(frozen=True)
class AbsConvHull(SetExpr):
    """Absolutely convex hull of finitely many points.

    The hull answers three questions without an LP:

    - 0, each generator p and each -p are members (``_signed``);
    - Sym(A; {0}) = A, so without a vertex its diameter's upper end is
      twice the largest generator norm (sup and sum norms);
    - Sym(A; W) = {0} when W holds a +-generator w that a functional
      exposes (:meth:`_exposed`) and every witness is a member: w + d
      and w - d in A force d = 0.

    Everything else is an LP over integer rows (:meth:`_lp`). On a
    symmetrization the free direction d is eliminated: w1 + d in A gives
    d = sum l_i g_i - w1 with ||l||_1 <= 1, and each other target
    w + s*d in A becomes s*sum l_i g_i - sum m_i g_i = s*w1 - w with
    ||m||_1 <= 1. That LP gives the values of symmetrized extents and
    sups, a maximiser for each sup and the vertex that ``diameter``
    prints as its pair. The set's memo keeps, per row layout, a warm LP
    that answers membership and those values, and per witness list a
    warm LP that returns vertices.
    """

    tag: ClassVar[str] = "abs_conv_hull"
    points: tuple[SparseVec, ...]
    _signed: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(sorted(set(self.points), key=lambda p: p.sort_key()))
        if not pts:
            raise InvalidInput("hull needs at least one generator")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_signed", frozenset((ZERO, *pts, *(-p for p in pts))))

    def to_json(self) -> dict:
        return {"type": self.tag, "points": [p.to_json() for p in self.points]}

    @classmethod
    def from_json(cls, obj: dict) -> "AbsConvHull":
        return cls(_json_vectors(obj, "points"))

    def contains(self, v: SparseVec) -> bool:
        if v in self._signed:
            return True
        coords = tuple(sorted(self.relevant_coords() | set(v.support)))
        scale, (row,) = integer_rows([v], coords)
        return self._lp(coords, (0,)).feasible([*row, scale])

    def _lp(self, coords: tuple[int, ...], signs: tuple[int, ...], witnesses: Optional[tuple] = None) -> exactlp.WarmLp:
        """The warm LP over the rows saying that ``w + sgn*d`` lies in the
        hull for one target ``(sgn, w)`` per entry of ``signs``, kept per
        layout, or for the list ``witnesses`` alone when given (then it
        only ever sees one right-hand side and returns vertices). The
        layouts are membership (one target of sign 0) and the
        symmetrization (signs 1, -1 per witness).

        Columns: a block per target of free generator weights and a
        slack. Rows: per target, one per coordinate, then the weights'
        l1 row (the weights' absolute values and the slack sum to one).
        The right-hand side is each target's :func:`integer_rows` row
        over the lcm K of the targets' denominators, then K. The weights
        are taken over L, the scale of the generators' rows: a weight
        column holds L times its generator, and L in the l1 row. A
        positive column scale changes no pivot and no free value.

        On a symmetrization ``d`` is eliminated: the first target
        (1, w1) keeps only its l1 row, and its weights l give
        d = sum l_i g_i - w1. Every other target's coordinate rows hold
        -sgn times l's columns, and its right-hand side is
        K(w - sgn*w1) (see :meth:`_eliminated`).
        """

        def build() -> exactlp.WarmLp:
            scale, gens = integer_rows(self.points, coords)
            k = len(self.points)
            block = 2 * k + 1
            n = len(signs) * block
            rows: list[list[int]] = []
            for t, sgn in enumerate(signs):
                start = t * block
                for pos in range(len(coords) if t or not sgn else 0):
                    weights = [row[pos] for row in gens]
                    row = [0] * n
                    if t:
                        row[:2 * k] = exactlp.free_columns([-sgn * a for a in weights])
                    row[start:start + 2 * k] = exactlp.free_columns(weights)
                    rows.append(row)
                row = [0] * n
                row[start:start + block] = [scale] * (block - 1) + [1]
                rows.append(row)
            return exactlp.WarmLp(rows, n)

        return self._memo(("lp", coords, signs, witnesses), build)

    def sup_functional(self, f: Functional) -> BoundPair:
        value = max(abs(dual_pair(f, p)) for p in self.points)
        return BoundPair(value, value, upper_witness={"rule": "generator_max"})

    def relevant_coords(self) -> set[int]:
        return {i for p in self.points for i in p.support}

    def coordinate_relaxation(self) -> "Box":
        return _largest_entries(self.points)

    def diameter(self, kind: NormKind, lower: bool, enum_budget: int) -> BoundPair:
        top = max(norm(p, kind) for p in self.points)
        arg = max(self.points, key=lambda p: (norm(p, kind), p.sort_key()))
        return _symmetric_pair_bound(top, arg, kind)

    def default_pool(self) -> tuple[SparseVec, ...]:
        return tuple(sorted(self._signed, key=lambda p: p.sort_key()))

    def _exposed(self, w: SparseVec) -> bool:
        """Whether a functional f among <w, .> and sign(w_i) e_i, i in the
        support of ``w``, has |f(w)| > |f(q)| at every generator q other
        than +-w. For a +-generator ``w`` this makes w the only point of
        the hull where f is largest, an exposed point (when +-w are the
        only generators, the hull is the segment from -w to w)."""
        neg = -w
        others = [q for q in self.points if q != w and q != neg]
        square = dual_pair(w, w)
        if all(square > abs(dual_pair(w, q)) for q in others):
            return True
        return any(all(abs(x) > abs(q.get(i)) for q in others) for i, x in w.items())

    def _eliminated(self, witnesses: tuple[SparseVec, ...], coords: tuple[int, ...], point: bool) -> "_SymLp":
        """The LP of the symmetrization at the witnesses with ``d``
        eliminated (see :meth:`_lp`): per layout, for values only, or
        with ``point`` for this witness list alone, for its vertices."""
        lp = self._lp(coords, (1, -1) * len(witnesses), witnesses if point else None)
        scale, rows = integer_rows(witnesses, coords)
        first = rows[0]
        b = [scale]
        for sgn, row in [(sgn, row) for row in rows for sgn in (1, -1)][1:]:
            b += [x - sgn * y for x, y in zip(row, first)]
            b.append(scale)
        return _SymLp(lp, b, scale, integer_rows(self.points, coords)[1], first)

    @staticmethod
    def _symmetrized_max(sym: "_SymLp", objective: Sequence[int]) -> tuple[exactlp.WarmResult, int]:
        """Exact max over the symmetrization of an integer objective (its
        coefficients on the coordinates of ``sym``): the LP's result and
        the max's numerator over ``res.den`` times K."""
        obj = exactlp.free_columns([sum(map(mul, objective, head)) for head in sym.heads])
        res = sym.lp.maximum(sym.b, obj + [0] * (sym.lp.n - len(obj)))
        if res.status != exactlp.OPTIMAL:
            raise WitnessNotMember("hull symmetrization witnesses are not all members")
        return res, res.value - res.den * sum(map(mul, objective, sym.offset))

    @staticmethod
    def _free_point(coords: tuple[int, ...], sym: "_SymLp", res: exactlp.WarmResult) -> SparseVec:
        """The member ``d`` at the vertex of ``res``."""
        weights = exactlp.free_value(res.x, len(sym.heads))
        d = {}
        for pos, i in enumerate(coords):
            n = sum(x * head[pos] for x, head in zip(weights, sym.heads)) - res.den * sym.offset[pos]
            if n:
                d[i] = n
        return SparseVec._canonical(*_reduced(res.den * sym.scale, d))

    @staticmethod
    def _extent_objectives(coords: tuple[int, ...], kind: NormKind) -> Iterable[tuple[int, ...]]:
        """The objectives whose largest maximum over a symmetrization is
        its largest member norm: the coordinates under ``sup``, the sign
        patterns with first sign +1 under ``sum``. The set is centrally
        symmetric, so -s scores as s does; in product order s comes first
        and keeps the strict maximum."""
        if kind is NormKind.SUP:
            return [tuple(int(c == pos) for c in range(len(coords))) for pos in range(len(coords))]
        if len(coords) > 14:
            raise BudgetExceeded("hull symmetrized diameter needs too many sign patterns")
        return ((1,) + signs for signs in product((1, -1), repeat=len(coords) - 1))

    def symmetrized_lp_extent(self, sym: Symmetrized, kind: NormKind, vertex: bool) -> Optional[BoundPair]:
        # polyhedral norms only: the max norm is a max of linear objectives
        if kind not in (NormKind.SUP, NormKind.SUM):
            return None
        ws = sym.witnesses
        if not vertex and ws == (ZERO,):  # Sym(A; {0}) = A: the LP's upper end
            top = max(norm(p, kind) for p in self.points)
            if top > 0:
                return BoundPair(Fraction(0), double_length(top, kind))
        # an exposed +-generator pins the set to {0} if the other witnesses
        # are members; a non-member leaves it empty, which the LP reports
        pin = next((w for w in ws if w in self._signed and self._exposed(w)), None)
        if pin is not None and all(w == pin or contains(self, w) for w in ws):
            return _symmetric_pair_bound(Fraction(0), ZERO, kind)
        coords = tuple(sorted(relevant_coords(sym)))
        if not coords:
            return _symmetric_pair_bound(Fraction(0), ZERO, kind)
        objectives = self._extent_objectives(coords, kind)
        lp = self._eliminated(ws, coords, vertex)
        best, arg = Fraction(0), None
        for objective in objectives:
            res, num = self._symmetrized_max(lp, objective)
            value = Fraction(num, res.den * lp.scale)
            if value > best:
                best, arg = value, res
        if best > 0 and not vertex:
            return BoundPair(Fraction(0), double_length(best, kind))
        # with no positive value the vertex is zero
        return _symmetric_pair_bound(best, ZERO if arg is None else self._free_point(coords, lp, arg), kind)

    def symmetrized_sup(self, sym: Symmetrized, f: Functional) -> Optional[BoundPair]:
        coords = tuple(sorted(relevant_coords(sym) | set(f.support)))
        lp = self._eliminated(sym.witnesses, coords, True)
        res, num = self._symmetrized_max(lp, [f._nums.get(i, 0) for i in coords])
        value = Fraction(num, res.den * lp.scale * f._den)
        return BoundPair(value, value, lower_witness={"point": self._free_point(coords, lp, res).to_json()})


class _SymLp(NamedTuple):
    """A warm LP over a hull's symmetrization with ``d`` eliminated and
    its right-hand side ``b`` over the scale K. Its leading columns are
    the free weights x of the generators' integer rows ``heads`` over
    the coordinates, with sum x_j heads_j - ``offset`` = K d, where
    ``offset`` is K w1."""

    lp: exactlp.WarmLp
    b: list[int]
    scale: int
    heads: list[tuple[int, ...]]
    offset: tuple[int, ...]


# ---------------------------------------------------------------------------
# JSON forms

_SET_TYPES: dict[str, type[SetExpr]] = {
    cls.tag: cls
    for cls in (Box, FinitePoints, SignSums, Translate, Negate, Intersect, Symmetrized, AbsConvHull)
}


def set_to_json(expr: SetExpr) -> dict:
    return expr.to_json()


def set_from_json(obj) -> SetExpr:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidInput("set JSON must be an object with a 'type' tag")
    tag = obj["type"]
    cls = _SET_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise InvalidInput(f"unknown set type {tag!r}")
    if _set_depth(obj) > MAX_SET_DEPTH:
        raise InvalidInput(f"set JSON nests deeper than {MAX_SET_DEPTH} levels")
    try:
        return cls.from_json(obj)
    except KeyError as exc:
        raise InvalidInput(f"set JSON missing field {exc}") from None


def _set_depth(obj: dict) -> int:
    """Levels of tagged objects from ``obj`` down, counted up to one past
    the limit (iterative, so any nesting is safe to measure)."""
    depth, level = 0, [obj]
    while level and depth <= MAX_SET_DEPTH:
        depth += 1
        nested = []
        for node in level:
            for value in node.values():
                for item in value if isinstance(value, list) else (value,):
                    if isinstance(item, dict) and "type" in item:
                        nested.append(item)
        level = nested
    return depth


def _json_list(obj: dict, key: str) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise InvalidInput(f"set JSON field {key!r} must be a list")
    return value


def _json_vectors(obj: dict, key: str) -> tuple[SparseVec, ...]:
    return tuple(SparseVec.from_json(p) for p in _json_list(obj, key))


def _json_int(value, key: str) -> int:
    """An integer field, given as a JSON integer or a decimal string."""
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise InvalidInput(f"set JSON field {key!r} must be an integer")
    try:
        return int(value)
    except ValueError:
        raise InvalidInput(f"set JSON field {key!r} must be an integer") from None


# ---------------------------------------------------------------------------
# membership and symmetrization


def contains(expr: SetExpr, v: SparseVec) -> bool:
    """Exact membership test."""
    return expr.contains(v)


def symmetrize(expr: SetExpr, witnesses: Iterable[SparseVec]) -> SetExpr:
    """The symmetrized set of ``expr`` with respect to the witness list.

    Boxes (also translated/negated/nested symmetrized boxes) flatten to a
    closed-form box, and subset-mode sign sums with disjoint term supports
    to sign sums with the used terms zeroed. The result is the set's
    flattened form, which no operation flattens again (``set_from_json``
    builds symmetrized JSON here too). An empty witness list returns the
    set unchanged.
    """
    ws = sorted(set(witnesses), key=lambda w: w.sort_key())
    if not ws:
        return expr
    for w in ws:
        if not contains(expr, w):
            raise WitnessNotMember(f"witness {w!r} is not a member of the set")
    return expr.symmetrize_reduce(ws)


# ---------------------------------------------------------------------------
# enumeration and the member pool

def enumerate_members(expr: SetExpr, budget: int = DEFAULT_ENUM_BUDGET) -> Optional[tuple[SparseVec, ...]]:
    """All members of an enumerable expression, or None when it is not,
    kept in the set's memo.

    Enumerability: finite point sets, sign sums within the budget, and
    translates / negations / intersections / symmetrizations thereof.
    """
    return expr._memo(("members", budget), lambda: _enumerate_members_raw(expr, budget))


def _enumerate_members_raw(expr: SetExpr, budget: int) -> Optional[tuple[SparseVec, ...]]:
    """The memo's build step for :func:`enumerate_members`."""
    return expr.members(budget)


def sample_members(expr: SetExpr) -> list[SparseVec]:
    """The members of the set's own witness pool: the ``default_pool``
    entries that pass :func:`contains`, in pool order. Nothing is drawn
    at random, so every caller gets the same members."""
    return [p for p in expr.default_pool() if contains(expr, p)]


# ---------------------------------------------------------------------------
# functional suprema


def sup_functional(f: Functional, expr: SetExpr) -> BoundPair:
    """Certified interval for sup of the functional over the set; it
    samples no member.

    Exact (lower == upper) for boxes, finite sets, sign sums, hulls,
    their translates/negations, and symmetrized sets whose base is a hull
    (a symmetrization that flattens is built as one of the others). Any
    other symmetrized set gets the certified lower end 0 (zero is a
    member) under a relaxation upper end, and an intersection gets the
    lower end None under the least upper end of its parts.
    """
    return expr.sup_functional(f)


def relevant_coords(expr: SetExpr) -> set[int]:
    """Coordinates on which the expression differs from its fresh behaviour."""
    return expr.relevant_coords()


def coordinate_relaxation(expr: SetExpr) -> Box:
    """A box certified to contain the expression, read off its closed form:
    the largest ``|p_i|`` of a finite set's or hull's points, the column
    sums of sign sums, a box itself, and for translates, negations and
    intersections their parts' boxes composed. A symmetrization shrinks
    its base's box by ``Box.symmetrize_reduce``. This is the workhorse
    upper bound for diameters of symmetrized sets without a closed form.
    """
    return expr.coordinate_relaxation()


def _largest_entries(points: Iterable[SparseVec]) -> Box:
    """The box whose radius at each coordinate is the largest ``|p_i|`` over ``points``."""
    radii: dict[int, Fraction] = {}
    for p in points:
        for i, x in p.items():
            radii[i] = max(radii.get(i, Fraction(0)), abs(x))
    return Box(Fraction(0), tuple(radii.items()))


# ---------------------------------------------------------------------------
# diameters


def diameter(
    expr: SetExpr,
    kind: NormKind,
    lower: bool = True,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> BoundPair:
    """Certified diameter interval (Euclidean values carried squared).

    Enumeration, an LP extent or a closed form gives an exact interval.
    Otherwise (symmetrized and intersected sets without one) the upper
    end is a relaxation. The lower end of a symmetrized set is then the
    certified zero, without a witness, and with ``lower`` that of an
    intersection is the farthest pair of :func:`sample_members`. Without
    ``lower`` every such end is the certified zero, and the LP extent of
    a hull's symmetrization is read off warm LPs, which give its value but no
    attaining member: a positive value comes as the upper end over that
    certified zero.
    """
    return expr.diameter(kind, lower, enum_budget)


def diameter_upper(
    expr: SetExpr, kind: NormKind, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> Optional[Fraction]:
    """The certified upper end of :func:`diameter` alone (None when
    unbounded above), without computing a lower end."""
    return diameter(expr, kind, False, enum_budget).upper


def _symmetric_pair_bound(top: Fraction, arg: SparseVec, kind: NormKind) -> BoundPair:
    """Exact diameter of a set symmetric about zero whose largest member
    norm ``top`` is attained at ``arg``, witnessed by the pair +-arg."""
    value = double_length(top, kind)
    return BoundPair(value, value, lower_witness={"pair": [arg.to_json(), (-arg).to_json()]})


def _pair_diameter(points: Sequence[SparseVec], kind: NormKind) -> BoundPair:
    """Exact diameter of ``points``, witnessed by its farthest pair (the
    first of equal pairs in ``combinations`` order; a lone point is paired
    with itself), by a scan of their integer rows over one scale."""
    scale, rows = integer_rows(points)
    best, pair = 0, (0, 0)
    for (i, a), (j, b) in combinations(enumerate(rows), 2):
        d = _int_norm(map(sub, a, b), kind)
        if d > best:
            best, pair = d, (i, j)
    value = Fraction(best, _int_norm((scale,), kind))
    wit = {"pair": [points[k].to_json() for k in pair]} if points else None
    return BoundPair(value, value, lower_witness=wit)


# ---------------------------------------------------------------------------
# free directions


def free_direction(expr: SetExpr, witnesses: Sequence[SparseVec], kind: NormKind) -> Optional[SparseVec]:
    """A direction d with w + d and w - d members for every witness.

    Returns the norm-largest candidate from the variant's deterministic
    family (canonical sign: first nonzero entry positive), or None when
    no nonzero candidate passes. Each variant's candidate has w +- d in
    the set without a further test (README, "Free directions"), and the
    result replays through membership checks alone.
    """
    ws = list(witnesses)
    for w in ws:
        if not contains(expr, w):
            raise WitnessNotMember(f"witness {w!r} is not a member of the set")
    d = expr.two_sided_direction(ws, kind)
    return None if d is None or d.is_zero else d


def _canonical_sign(d: SparseVec) -> SparseVec:
    """``d`` or ``-d``, whichever has its first nonzero entry positive."""
    return -d if d._nums and d._nums[min(d._nums)] < 0 else d

