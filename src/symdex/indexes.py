"""Certified symmetrization indexes and a covering-number proxy bound.

delta_0 of a set is half its diameter; delta_N is the smallest delta_0
over all symmetrizations with N witnesses. Upper bounds come from
witness searches and are always replayable; lower bounds come from
certificate families (fresh coordinates for boxes, fresh series indices
for sign-sum sets) that answer any witness-list challenge with an
explicit direction. When no family applies the lower bound is a
certified zero, distinguishable by its kind tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import InvalidInput, SymdexError, WitnessNotMember
from .sets import (
    BoundPair,
    LowerCertificate,
    SetExpr,
    _plain_lower,
    contains,
    diameter,
    enumerate_members,
    free_direction,
    sample_members,
)
from .vectors import NormKind, SparseVec, half_length, norm

# lists a search keeps per round, by strategy kind (None keeps every list)
WIDTHS = {"exhaustive": None, "greedy": 1, "beam": 4}


@dataclass
class DeltaResult:
    N: int
    bound: BoundPair
    upper_witnesses: tuple[SparseVec, ...] = ()
    lower_certificate: Optional[LowerCertificate] = None

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "bound": self.bound.to_json(),
            "upper_witnesses": [w.to_json() for w in self.upper_witnesses],
            "lower_certificate": None
            if self.lower_certificate is None
            else self.lower_certificate.to_json(),
        }


@dataclass(frozen=True)
class SearchStrategy:
    """Witness-list search plan over a finite member pool."""

    kind: str  # a key of WIDTHS
    pool: tuple[SparseVec, ...]

    @classmethod
    def exhaustive(cls, pool: Sequence[SparseVec]) -> "SearchStrategy":
        return cls("exhaustive", tuple(pool))

    @classmethod
    def greedy(cls, pool: Sequence[SparseVec]) -> "SearchStrategy":
        return cls("greedy", tuple(pool))

    @classmethod
    def beam(cls, pool: Sequence[SparseVec]) -> "SearchStrategy":
        return cls("beam", tuple(pool))

    @classmethod
    def parse(cls, kind: str, pool: Sequence[SparseVec]):
        kind = kind.strip().lower()
        if kind not in WIDTHS:
            raise InvalidInput(f"unknown search strategy {kind!r}")
        return cls(kind, tuple(pool))


def default_pool(expr: SetExpr) -> tuple[SparseVec, ...]:
    """A small deterministic witness pool of members of the set."""
    return expr.default_pool()


def delta0(expr: SetExpr, kind: NormKind) -> BoundPair:
    """Half the diameter, exactness preserved, lower end included."""
    return diameter(expr, kind).half(kind)


def _delta_of(expr: SetExpr, witnesses: Sequence[SparseVec], kind: NormKind) -> BoundPair:
    """The upper-end delta_0 bound (see :func:`diameter` without
    ``lower``) of the symmetrization at a nonempty list of witnesses that
    the caller has checked are members."""
    return diameter(expr.symmetrize_reduce(list(witnesses)), kind, False).half(kind)


def _score(bound: BoundPair) -> Fraction:
    if bound.upper is None:
        raise SymdexError("witness search needs a finite diameter upper bound")
    return bound.upper


def _witness_key(ws: Sequence[SparseVec]) -> tuple:
    keys = tuple(w.sort_key() for w in sorted(ws, key=lambda w: w.sort_key()))
    return (len(keys), keys)


def _witness_search(
    expr: SetExpr,
    N: int,
    strategy: SearchStrategy,
    kind: NormKind,
) -> Iterator[tuple[BoundPair, tuple[SparseVec, ...]]]:
    """Yield, for n = 1..N, the best (bound, witness list) over every
    searched list of size at most n.

    One beam loop grows the lists a round per size, from the empty list,
    and keeps the ``WIDTHS`` best of each round: every list for
    ``exhaustive``, 4 for ``beam`` and 1 for ``greedy``. A search to n
    scores every list a search to n - 1 scores, so the work for size
    n + 1 starts only when the caller asks for it. Lists rank by (score,
    witness key), a total order, so the order of scoring cannot change
    the result. For N < 1 nothing is searched and the pool is not
    checked.

    The search ends once its best list scores 0. A score is the upper
    end of a delta_0 bound, never below 0, and the witness key starts
    with the list length, so only a list of the same length with a
    smaller key can still replace a zero best: no other list is scored,
    no later round runs, and every larger n yields the same row. A list
    that is skipped so cannot raise either.

    Lists are scored by their upper ends (:func:`_delta_of`), and the
    yielded bounds are those: a bound that is not exact had a pool lower
    end, or a hull's LP vertex, skipped (:func:`_with_lower` adds it).

    Every list is scored through :func:`_delta_of`. Sym(A; W) is the
    intersection of the one-witness sets S_p, p in W, and
    :meth:`Symmetrized.members` takes each S_p from the memo of A: it is
    built for the first scored list that holds p and shared by every
    later list and caller at that point.
    """
    if N < 1:
        return
    pool = list(dict.fromkeys(strategy.pool))
    for p in pool:
        if not contains(expr, p):
            raise WitnessNotMember(f"pool member {p!r} is not in the set")
    pool.sort(key=lambda p: p.sort_key())
    if not pool:
        raise InvalidInput("witness pool is empty")
    if strategy.kind not in WIDTHS:
        raise InvalidInput(f"unknown strategy kind {strategy.kind!r}")
    width = WIDTHS[strategy.kind]

    best = None  # (rank, bound, witnesses)

    def rank(ws: tuple[SparseVec, ...]) -> tuple:
        nonlocal best
        order_key = _witness_key(ws)
        if best is not None and best[0][0] == 0 and order_key >= best[0][1]:
            return (Fraction(0), order_key)  # unscored: it cannot beat a zero best
        bound = _delta_of(expr, ws, kind)
        key = (_score(bound), order_key)
        if best is None or key < best[0]:
            best = (key, bound, ws)
        return key

    states: list[tuple[SparseVec, ...]] = [()]
    for n in range(1, N + 1):
        if best is not None and best[0][0] == 0:  # final: every later list is longer
            yield best[1], best[2]
            continue
        ranked = {}
        for state in states:
            for p in pool:
                if p not in state:
                    ws = tuple(sorted(state + (p,), key=lambda w: w.sort_key()))
                    if ws not in ranked:
                        ranked[ws] = rank(ws)
        states = sorted(ranked, key=ranked.__getitem__)[:width]
        yield best[1], best[2]


def _with_lower(expr: SetExpr, bound: BoundPair, ws: Sequence[SparseVec], kind: NormKind) -> BoundPair:
    """A searched list's bound with its lower end, as :func:`delta0`
    gives it; an exact bound already has it."""
    return bound if bound.exact else delta0(expr.symmetrize_reduce(list(ws)), kind)


def delta_upper(
    expr: SetExpr,
    N: int,
    strategy: SearchStrategy,
    kind: NormKind,
) -> DeltaResult:
    """Best (smallest) certified delta_0 over searched witness lists.

    Witness lists are treated as sets of size at most N: repeating a
    witness never shrinks the intersection further. Exhaustive search
    over the full point set of a finite set is exact. This is the last
    step of the search that :func:`delta_curve` reads step by step; the
    embedded bound carries its lower end as :func:`delta0` does.
    """
    if N < 1:
        raise InvalidInput("delta_upper needs N >= 1")
    for bound, ws in _witness_search(expr, N, strategy, kind):
        pass
    bound = _with_lower(expr, bound, ws, kind)
    return DeltaResult(
        N=N,
        bound=BoundPair(Fraction(0), bound.upper, upper_witness=bound.to_json()),
        upper_witnesses=ws,
        lower_certificate=None,
    )


def delta_lower(expr: SetExpr, N: int, kind: NormKind) -> DeltaResult:
    """Certified lower bound for delta_N via a free-direction family.

    The certificate answers any witness-list challenge (of any length,
    when ``uniform``) with a direction of at least the certified norm;
    see :func:`challenge_lower`. Sets outside the known families get a
    certified zero with kind "none".
    """
    if N < 0:
        raise InvalidInput("delta_lower needs N >= 0")
    cert = expr.lower_certificate(kind)
    return DeltaResult(
        N=N,
        bound=BoundPair(cert.value, None),
        upper_witnesses=(),
        lower_certificate=cert,
    )


def challenge_lower(
    cert: LowerCertificate,
    expr: SetExpr,
    witnesses: Sequence[SparseVec],
    kind: NormKind,
) -> SparseVec:
    """Replay a lower certificate against a concrete witness list.

    Produces a direction d with w + d and w - d members for every
    witness and norm at least the certified value, or raises.
    """
    d = free_direction(expr, witnesses, kind)
    if d is None:
        raise SymdexError("lower certificate challenge found no direction")
    if norm(d, kind) < cert.value:
        raise SymdexError("lower certificate challenge produced a short direction")
    return d


def delta_curve(
    expr: SetExpr,
    N_max: int,
    strategy: SearchStrategy,
    kind: NormKind,
) -> list[DeltaResult]:
    """Delta results for N = 0..N_max; upper bounds are non-increasing.

    Row N is step N of one witness search, whose best list over sizes at
    most N can only improve as N grows, so row N equals
    :func:`delta_upper` at N. The lower certificate does not depend on
    N and is certified once.
    """
    if N_max < 0:
        raise InvalidInput("N_max must be nonnegative")
    base = delta0(expr, kind)
    results = [
        DeltaResult(
            N=0,
            bound=base,
            upper_witnesses=(),
            lower_certificate=LowerCertificate(
                "diameter", base.lower if base.lower is not None else Fraction(0),
                _plain_lower(base.lower or Fraction(0), kind), False
            ),
        )
    ]
    cert = delta_lower(expr, N_max, kind).lower_certificate
    lower_value = cert.unconditional_value
    steps = _witness_search(expr, N_max, strategy, kind)
    completed = ((), None)  # the last row's list and its bound with the lower end
    for n, (bound, ws) in enumerate(steps, start=1):
        if ws != completed[0]:  # a list the search replaces never comes back
            completed = ws, _with_lower(expr, bound, ws, kind)
        bound = completed[1]
        if lower_value > bound.upper:
            raise SymdexError(
                f"delta sandwich violated at N={n}: lower {lower_value} > upper {bound.upper}"
            )
        results.append(
            DeltaResult(
                N=n,
                bound=BoundPair(
                    lower_value,
                    bound.upper,
                    lower_witness=cert.to_json(),
                    upper_witness=bound.to_json(),
                ),
                upper_witnesses=ws,
                lower_certificate=cert,
            )
        )
    return results


# ---------------------------------------------------------------------------
# separation proxy


def separation_alpha_lower(expr: SetExpr, count: int, kind: NormKind) -> BoundPair:
    """Half the separation of a constructed family of ``count`` members.

    A family of members with pairwise distance s obstructs coverings by
    balls of radius below s/2 at the family's scale; for boxes with a
    positive default radius the fresh-coordinate walk extends to any
    count, which is what makes the value a genuine covering lower bound.
    May return zero when no construction family applies. Otherwise the
    best family of the members (or of the set's own pool members,
    :func:`sample_members`) is searched for up to 20,000 families, and
    built farthest first beyond that.
    """
    if count < 2:
        return BoundPair(Fraction(0), None)
    best_family = expr.separated_family(count)
    if best_family is not None:
        best_s = min(norm(a - b, kind) for a, b in combinations(best_family, 2))
    else:
        members = enumerate_members(expr, 4096)
        if members is None:
            members = sample_members(expr)
        pts = list(members)
        if len(pts) < count:
            return BoundPair(Fraction(0), None)
        best_s = Fraction(0)
        if math.comb(len(pts), count) <= 20_000:
            for family in combinations(pts, count):
                s = min(norm(a - b, kind) for a, b in combinations(family, 2))
                if s > best_s:
                    best_s, best_family = s, family
        else:
            family = [pts[0]]
            while len(family) < count:
                far = max(
                    pts,
                    key=lambda p: (min(norm(p - c, kind) for c in family), p.sort_key()),
                )
                if far in family:
                    break
                family.append(far)
            if len(family) == count:
                best_family = tuple(family)
                best_s = min(norm(a - b, kind) for a, b in combinations(family, 2))
    if best_family is None:
        return BoundPair(Fraction(0), None)
    value = half_length(best_s, kind)
    return BoundPair(
        value,
        None,
        lower_witness={
            "family": [v.to_json() for v in best_family],
            "separation": str(best_s),
        },
    )
