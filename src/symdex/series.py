"""Finite-horizon series analysis: wuC constants and tail-bound harness.

A series here is a finite list of terms together with the ambient norm;
every statement produced by this module is a statement about sign sums
within that horizon. Asymptotic claims are the caller's to make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product

from .errors import BudgetExceeded, InvalidInput, NotAchievable
from .vectors import (
    NormKind,
    ScalarLike,
    SparseVec,
    as_length,
    as_scalar,
    norm,
    signed_sums,
)


class SignMode(Enum):
    PREFIXES = "prefixes"
    SUBSETS = "subsets"

    @classmethod
    def parse(cls, text: str) -> "SignMode":
        try:
            return cls(text.strip().lower())
        except (ValueError, AttributeError):
            raise InvalidInput(f"unknown sign-sum mode: {text!r}") from None


@dataclass(frozen=True)
class SeriesSpec:
    """Finitely described series: terms x_1..x_H with the ambient norm."""

    terms: tuple[SparseVec, ...]
    norm: NormKind
    label: str = ""
    # coordinate -> its nonzero term entries (0-based term index, value), by index
    columns: dict = field(init=False, repr=False, compare=False)
    _disjoint: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise InvalidInput("a series needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        columns: dict[int, list[tuple[int, Fraction]]] = {}
        for n, t in enumerate(self.terms):
            for i, x in t.items():
                columns.setdefault(i, []).append((n, x))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_disjoint", all(len(entries) == 1 for entries in columns.values()))

    @property
    def horizon(self) -> int:
        return len(self.terms)

    def disjoint_supports(self) -> bool:
        return self._disjoint

    def column_sums(self, horizon: int) -> dict[int, Fraction]:
        """Sum of |x_n(i)| over the first ``horizon`` terms, per coordinate they touch."""
        sums = {}
        for i, entries in self.columns.items():
            if entries[0][0] < horizon:
                sums[i] = sum((abs(x) for n, x in entries if n < horizon), Fraction(0))
        return sums

    def to_json(self) -> dict:
        return {
            "norm": self.norm.value,
            "terms": [t.to_json() for t in self.terms],
            "label": self.label,
        }

    @classmethod
    def from_json(cls, obj) -> "SeriesSpec":
        if not isinstance(obj, dict):
            raise InvalidInput("series JSON must be an object")
        try:
            terms, kind, label = obj["terms"], NormKind.parse(obj["norm"]), obj.get("label", "")
        except KeyError as exc:
            raise InvalidInput(f"series JSON missing field {exc}") from None
        if not isinstance(terms, list) or not isinstance(label, str):
            raise InvalidInput("series JSON needs a list of terms and a string label")
        return cls(terms=tuple(SparseVec.from_json(t) for t in terms), norm=kind, label=label)


@dataclass
class TailBound:
    """Outcome of the tail-bound harness.

    All sign sums over series indices in (M, horizon] are certified to
    have norm at most the requested epsilon; ``witnesses`` are the
    symmetrization points that prove it and ``diameter_upper`` is the
    certified diameter of the symmetrized set (carried convention).
    """

    M: int
    witnesses: tuple[SparseVec, ...]
    diameter_upper: Fraction


def wuc_bound(s: SeriesSpec, budget: int = 2 ** 20) -> Fraction:
    """Largest sum of |f(x_n)| over the dual unit ball, within the horizon.

    Equivalently the largest norm of a signed sum of the terms. Closed
    form per coordinate for the sup norm; exact enumeration (term signs
    or dual sign vectors, whichever is smaller) otherwise, guarded by
    ``budget``. Euclidean value is carried squared.
    """
    kind = s.norm
    if kind is NormKind.SUP:
        return max(s.column_sums(s.horizon).values(), default=Fraction(0))

    if s.disjoint_supports():
        # sum norms add; so do squared Euclidean norms
        return sum((norm(t, kind) for t in s.terms), Fraction(0))

    h = s.horizon
    coords = sorted({i for t in s.terms for i in t.support})
    if kind is NormKind.SUM and len(coords) < h:
        # dual route: extreme points of the sup-ball are sign vectors
        if 2 ** len(coords) > budget:
            raise BudgetExceeded("wuc_bound sign-vector enumeration over budget")
        best = Fraction(0)
        for signs in product((Fraction(1), Fraction(-1)), repeat=len(coords)):
            f = dict(zip(coords, signs))
            total = Fraction(0)
            for t in s.terms:
                total += abs(sum((x * f[i] for i, x in t.items()), Fraction(0)))
            if total > best:
                best = total
        return best
    if 2 ** h > budget:
        raise BudgetExceeded("wuc_bound sign-pattern enumeration over budget")
    return max(norm(d, kind) for d in signed_sums(s.terms))


def sign_sum_set(s: SeriesSpec, mode: SignMode):
    """The set of sign sums of the series in the requested mode."""
    from . import sets  # deferred: sets depends on SeriesSpec

    return sets.SignSums(series=s, mode=mode, horizon=s.horizon)


def brute_tail_sup(s: SeriesSpec, start: int, stop: int) -> Fraction:
    """Exact max over all sign patterns of the norm of sums over [start, stop].

    Both indices are inclusive series positions. Deliberately a plain
    enumeration so it can cross-check the harness.
    """
    if not (1 <= start <= stop <= s.horizon):
        raise InvalidInput(f"bad tail window [{start}, {stop}] for horizon {s.horizon}")
    if stop - start > 20:
        raise BudgetExceeded("brute_tail_sup window wider than 20 terms")
    return max(norm(d, s.norm) for d in signed_sums(s.terms[start - 1 : stop]))


def _witness_cover_index(s: SeriesSpec, w: SparseVec, known: int) -> int:
    """Smallest M such that ``w`` is a signed subset sum of the first M terms.

    Every sign sum over indices beyond that M then recombines with the
    witness index-disjointly, which is what makes the tail argument sound
    even when term supports overlap. ``known`` is an M already known to
    hold (the index k of a prefix sum ``w``). A sign sum of the first M
    terms is one of the first M + 1 too, so membership is monotone in M
    and bisection over [1, known] finds the smallest with
    O(log known) membership searches.
    """
    from . import sets

    lo, hi = 1, known  # w is a sign sum of the first hi terms
    while lo < hi:
        mid = (lo + hi) // 2
        if sets.contains(sets.SignSums(series=s, mode=SignMode.SUBSETS, horizon=mid), w):
            hi = mid
        else:
            lo = mid + 1
    return lo


def unconditional_tail_bound(s: SeriesSpec, epsilon: ScalarLike, enum_budget: int = 200_000) -> TailBound:
    """Witness search certifying that late sign sums are uniformly small.

    Searches the prefix sums of the series, members of the subset-mode
    sign-sum set by construction, for a witness whose symmetrized set has
    diameter below twice ``epsilon``. Every sign sum d over indices
    beyond the witness's cover index then lies in that set, since w +- d
    recombine index-disjointly into signed subset sums. The set is
    symmetric, so d and -d are members, the norm of 2d is at most the
    diameter, and d has norm below ``epsilon`` (README, "Tail bounds").

    Raises :class:`NotAchievable` (with the best attempt and a
    free-direction certificate when one exists) if no prefix sum works --
    the expected outcome for series that carry a copy of the canonical
    basis.
    """
    from . import indexes, sets  # deferred: avoids an import cycle

    eps = as_scalar(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    kind = s.norm
    bound = as_length(2 * eps, kind)
    expr = sign_sum_set(s, SignMode.SUBSETS)

    prefix: dict[SparseVec, int] = {}  # each prefix sum at its first index
    acc = SparseVec()
    for k, t in enumerate(s.terms, start=1):
        acc = acc + t
        prefix.setdefault(acc, k)
    covers = sorted(
        ((_witness_cover_index(s, w, k), w) for w, k in prefix.items()),
        key=lambda cw: (cw[0], cw[1].sort_key()),
    )

    best: tuple[Fraction, tuple[SparseVec, ...]] | None = None
    for m, w in covers:
        if m >= s.horizon:
            continue  # no tail left within the horizon; certifies nothing
        sym = expr.symmetrize_reduce([w])
        diam = sets.diameter_upper(sym, kind, enum_budget=enum_budget)
        if best is None or diam < best[0]:
            best = (diam, (w,))
        if diam is not None and diam < bound:
            return TailBound(M=m, witnesses=(w,), diameter_upper=diam)

    cert = indexes.delta_lower(expr, 1, kind).lower_certificate
    raise NotAchievable(
        "no prefix sum certifies the tail bound",
        best=best,
        lower_certificate=cert if cert is not None and cert.value > 0 else None,
    )
