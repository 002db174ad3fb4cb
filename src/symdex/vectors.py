"""Exact arithmetic for finitely supported rational sequence vectors.

Points live in c00: sequences of rationals with finite support, indexed
by positive integers. Functionals share the representation and act
through the coordinatewise pairing sum(f_i * v_i).

Euclidean magnitudes (norms, dual norms, distances) are always carried
as exact squares so every comparison stays inside rational arithmetic;
``as_length`` lifts a plain threshold into that convention and
``half_length`` halves a carried magnitude.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InvalidInput

Scalar = Fraction

ScalarLike = Union[Fraction, int, str]


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"not a rational: {value!r}") from exc
    raise InvalidInput(f"not a rational: {value!r}")


def format_scalar(value: ScalarLike) -> str:
    """Render a rational as 'p/q' (or a plain integer string)."""
    return str(as_scalar(value))


class NormKind(Enum):
    SUP = "sup"
    SUM = "sum"
    EUCLID = "euclid"

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        try:
            return cls(text.strip().lower())
        except (ValueError, AttributeError):
            raise InvalidInput(f"unknown norm kind: {text!r}") from None


def as_length(threshold: ScalarLike, kind: NormKind) -> Fraction:
    """Express a nonnegative plain length in the kind's carried convention.

    Euclidean magnitudes are carried squared, so a threshold c becomes c*c.
    """
    c = as_scalar(threshold)
    if c < 0:
        raise InvalidInput("length thresholds must be nonnegative")
    return c * c if kind is NormKind.EUCLID else c


def half_length(value: Fraction, kind: NormKind) -> Fraction:
    """Halve a carried magnitude (divide squares by four)."""
    return value / 4 if kind is NormKind.EUCLID else value / 2


def double_length(value: Fraction, kind: NormKind) -> Fraction:
    """Double a carried magnitude (multiply squares by four)."""
    return value * 4 if kind is NormKind.EUCLID else value * 2


class SparseVec:
    """Immutable map from positive-integer coordinates to nonzero rationals.

    Duplicate coordinates in the input are accumulated; zero entries are
    dropped, so equal vectors always have equal representations.
    """

    __slots__ = ("_entries", "_items", "_hash")

    def __init__(self, entries: Mapping[int, ScalarLike] | Iterable[tuple[int, ScalarLike]] = ()):
        data: dict[int, Fraction] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for coord, value in pairs:
            if not isinstance(coord, int) or isinstance(coord, bool) or coord < 1:
                raise InvalidInput(f"coordinate must be a positive integer, got {coord!r}")
            q = data.get(coord, Fraction(0)) + as_scalar(value)
            if q == 0:
                data.pop(coord, None)
            else:
                data[coord] = q
        self._entries = data
        self._items = tuple(sorted(data.items()))
        self._hash = hash(self._items)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._items)

    def get(self, coord: int) -> Fraction:
        return self._entries.get(coord, Fraction(0))

    def __getitem__(self, coord: int) -> Fraction:
        return self.get(coord)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._items)

    @property
    def max_support(self) -> int:
        """Largest support index, 0 for the zero vector."""
        return self._items[-1][0] if self._items else 0

    @property
    def is_zero(self) -> bool:
        return not self._items

    def sort_key(self) -> tuple:
        """Total order key: by sorted (coordinate, value) items."""
        return self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self._entries)
        for i, x in other._items:
            q = out.get(i, Fraction(0)) + x
            if q == 0:
                out.pop(i, None)
            else:
                out[i] = q
        return SparseVec(out)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + (-other)

    def __neg__(self) -> "SparseVec":
        return SparseVec({i: -x for i, x in self._items})

    def scale(self, factor: ScalarLike) -> "SparseVec":
        c = as_scalar(factor)
        if c == 0:
            return ZERO
        return SparseVec({i: c * x for i, x in self._items})

    def __rmul__(self, factor: ScalarLike) -> "SparseVec":
        return self.scale(factor)

    def to_json(self) -> dict[str, str]:
        return {str(i): format_scalar(x) for i, x in self._items}

    @classmethod
    def from_json(cls, obj) -> "SparseVec":
        if not isinstance(obj, dict):
            raise InvalidInput(f"vector JSON must be an object, got {type(obj).__name__}")
        pairs = []
        for key, value in obj.items():
            try:
                coord = int(key)
            except (TypeError, ValueError):
                raise InvalidInput(f"bad coordinate key {key!r}") from None
            pairs.append((coord, as_scalar(value)))
        return cls(pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {x}" for i, x in self._items)
        return f"SparseVec({{{inner}}})"


ZERO = SparseVec()

# Functionals use the same finite-support representation.
Functional = SparseVec


def unit(coord: int, value: ScalarLike = 1) -> SparseVec:
    """Canonical basis vector (or a scalar multiple of it)."""
    return SparseVec({coord: value})


def fresh_coordinate(vectors: Iterable[SparseVec], floor: int = 0) -> int:
    """Lowest coordinate strictly beyond every support and ``floor``."""
    top = floor
    for v in vectors:
        if v.max_support > top:
            top = v.max_support
    return top + 1


def linear_combination(terms: Iterable[tuple[ScalarLike, SparseVec]]) -> SparseVec:
    """Exact coordinatewise sum of scalar multiples, in canonical form."""
    acc: dict[int, Fraction] = {}
    for coeff, vec in terms:
        c = as_scalar(coeff)
        if c == 0:
            continue
        for i, x in vec.items():
            q = acc.get(i, Fraction(0)) + c * x
            if q == 0:
                acc.pop(i, None)
            else:
                acc[i] = q
    return SparseVec(acc)


def signed_sums(terms: Sequence[SparseVec]) -> Iterator[SparseVec]:
    """Every +-1 combination of the terms, in ``itertools.product((1, -1), ...)``
    order over the sign patterns (reports list them in this order)."""
    for signs in product((1, -1), repeat=len(terms)):
        yield linear_combination(zip(signs, terms))


def norm(v: SparseVec, kind: NormKind) -> Fraction:
    """Exact norm; Euclidean value is returned squared."""
    if kind is NormKind.SUP:
        return max((abs(x) for _, x in v.items()), default=Fraction(0))
    if kind is NormKind.SUM:
        return sum((abs(x) for _, x in v.items()), Fraction(0))
    return sum((x * x for _, x in v.items()), Fraction(0))


def dual_pair(f: Functional, v: SparseVec) -> Fraction:
    """Exact pairing sum(f_i * v_i) over the common support."""
    a, b = (f, v) if len(f.support) <= len(v.support) else (v, f)
    return sum((x * b.get(i) for i, x in a.items()), Fraction(0))


def dual_norm(f: Functional, kind: NormKind) -> Fraction:
    """Norm of ``f`` in the dual of the ``kind`` space (squared for EUCLID)."""
    if kind is NormKind.SUP:
        return norm(f, NormKind.SUM)
    if kind is NormKind.SUM:
        return norm(f, NormKind.SUP)
    return norm(f, NormKind.EUCLID)
