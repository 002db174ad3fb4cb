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
    replayed_patterns: int = 0
    notes: dict = field(default_factory=dict)


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


def _tail_sums(s: SeriesSpec, start: int, stop: int) -> list[SparseVec]:
    """Every sign sum over the inclusive series positions [start, stop]."""
    if not (1 <= start <= stop <= s.horizon):
        raise InvalidInput(f"bad tail window [{start}, {stop}] for horizon {s.horizon}")
    if stop - start > 20:
        raise BudgetExceeded("brute_tail_sup window wider than 20 terms")
    return list(signed_sums(s.terms[start - 1 : stop]))


def brute_tail_sup(s: SeriesSpec, start: int, stop: int) -> Fraction:
    """Exact max over all sign patterns of the norm of sums over [start, stop].

    Both indices are inclusive series positions. Deliberately a plain
    enumeration so it can cross-check the harness.
    """
    return max(norm(d, s.norm) for d in _tail_sums(s, start, stop))


def _witness_cover_index(s: SeriesSpec, w: SparseVec, known: int | None = None) -> int | None:
    """Smallest M such that ``w`` is a signed subset sum of the first M terms.

    Every sign sum over indices beyond that M then recombines with the
    witness index-disjointly, which is what makes the tail argument sound
    even when term supports overlap. None when ``w`` is not a sign sum of
    the series at all. A sign sum of the first M terms is one of the
    first M + 1 too, so membership is monotone in M and bisection finds
    it with O(log horizon) membership searches. ``known``, when given, is
    an M already known to hold (the index k of a prefix sum ``w``), and
    only [1, known] is searched.
    """
    from . import sets

    def member(m: int) -> bool:
        return sets.contains(sets.SignSums(series=s, mode=SignMode.SUBSETS, horizon=m), w)

    if known is None:
        if not member(s.horizon):
            return None
        known = s.horizon
    lo, hi = 1, known  # member(hi) holds
    while lo < hi:
        mid = (lo + hi) // 2
        if member(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def unconditional_tail_bound(
    s: SeriesSpec,
    epsilon: ScalarLike,
    pool: list[SparseVec] | None = None,
    enum_budget: int = 200_000,
    replay_window: int = 12,
) -> TailBound:
    """Witness search certifying that late sign sums are uniformly small.

    Searches for symmetrization witnesses inside the subset-mode sign-sum
    set whose symmetrized set has diameter below twice ``epsilon``; every
    sign sum over indices beyond the witnesses' reach then has norm at
    most ``epsilon``, which is replayed by enumeration near the cut.

    Raises :class:`NotAchievable` (with the best attempt and a
    free-direction certificate when one exists) if no witness list in the
    pool works -- the expected outcome for series that carry a copy of
    the canonical basis.
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
    if pool is None:
        pool = list(prefix)
    covers: list[tuple[int, SparseVec]] = []
    for w in pool:
        cover = _witness_cover_index(s, w, prefix.get(w))
        if cover is None:
            raise InvalidInput("tail-bound pool member is not a sign sum of the series")
        covers.append((cover, w))
    covers.sort(key=lambda cw: (cw[0], cw[1].sort_key()))

    best: tuple[Fraction, tuple[SparseVec, ...]] | None = None
    for cover, w in covers:
        if cover >= s.horizon:
            continue  # no tail left within the horizon; certifies nothing
        sym = sets.symmetrize(expr, [w])
        diam = sets.diameter_upper(sym, kind, enum_budget=enum_budget)
        if best is None or diam < best[0]:
            best = (diam, (w,))
        if diam is not None and diam < bound:
            m = cover
            stop = min(m + replay_window, s.horizon)
            tail = _tail_sums(s, m + 1, stop)
            if max(norm(d, kind) for d in tail) > as_length(eps, kind):
                raise NotAchievable(
                    "tail replay exceeded epsilon despite small diameter", best=best
                )
            for d in tail:
                if not sets.contains(sym, d):
                    raise NotAchievable(
                        "a tail sign sum left the symmetrized set", best=best
                    )
            return TailBound(
                M=m,
                witnesses=(w,),
                diameter_upper=diam,
                replayed_patterns=2 ** (stop - m),
                notes={"mode": SignMode.SUBSETS.value, "tail_guarantee": "all_patterns"},
            )

    cert = indexes.delta_lower(expr, 1, kind).lower_certificate
    raise NotAchievable(
        "no witness list in the pool certifies the tail bound",
        best=best,
        lower_certificate=cert if cert is not None and cert.value > 0 else None,
    )
