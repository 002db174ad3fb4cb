"""Exact arithmetic for finitely supported rational sequence vectors.

Points live in c00: sequences of rationals with finite support, indexed
by positive integers. Functionals share the representation and act
through the coordinatewise pairing sum(f_i * v_i).

Euclidean magnitudes (norms, dual norms, distances) are always carried
as exact squares so every comparison stays inside rational arithmetic;
``as_length`` lifts a plain threshold into that convention and
``half_length`` halves a carried magnitude.

``SparseVec`` has two constructors. The public ``SparseVec(...)``
validates and accumulates caller and JSON input. The trusted
``SparseVec._canonical(data)`` stores a dict that is already canonical:
every key a positive ``int``, every value a nonzero ``Fraction``. All
arithmetic in this module (``+``, ``-``, unary ``-``, ``scale``,
``linear_combination``) builds such dicts directly and goes through
``_canonical``, so a result is never re-validated. Both constructors
sort the items once and leave the hash to be computed on first use.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InvalidInput

Scalar = Fraction

ScalarLike = Union[Fraction, int, str]


# Shared zero returned by lookups that miss; Fractions are immutable.
_ZERO_SCALAR = Fraction(0)


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, 'p/q' or plain decimal string to an exact rational.

    Strings in exponent notation are rejected: ``Fraction("1e-100000000")``
    would build a denominator with 10^8 digits, so one input scalar could
    run a request without bound.
    """
    # strings first: Fraction is an ABC, so isinstance(value, Fraction) is slow for a str
    if isinstance(value, str):
        text = value.strip()
        if text.isascii():
            # [-]digits[/digits]: what reports write, parsed without Fraction's regex
            num, slash, den = text.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
                try:
                    q = int(den) if slash else 1
                    if q:
                        return Fraction(int(num), q)
                except ValueError:  # past int's digit limit; Fraction(text) rejects it too
                    pass
        if "e" in text or "E" in text:
            raise InvalidInput(f"not a rational (exponent notation is not accepted): {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"not a rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
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

    Invariant (checked by ``__init__``, trusted by ``_canonical``):
    ``_entries`` maps positive ``int`` coordinates to nonzero ``Fraction``
    values, ``_items`` is ``sorted(_entries.items())``, and ``_hash`` is
    None until ``__hash__`` first computes ``hash(_items)``.
    """

    __slots__ = ("_entries", "_items", "_hash")

    def __init__(self, entries: Mapping[int, ScalarLike] | Iterable[tuple[int, ScalarLike]] = ()):
        data: dict[int, Fraction] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for coord, value in pairs:
            if not isinstance(coord, int) or isinstance(coord, bool) or coord < 1:
                raise InvalidInput(f"coordinate must be a positive integer, got {coord!r}")
            q = as_scalar(value)
            if coord in data:
                q += data[coord]
            if q:
                data[coord] = q
            else:
                data.pop(coord, None)
        self._entries = data
        self._items = tuple(sorted(data.items()))
        self._hash = None

    @classmethod
    def _canonical(cls, data: dict[int, Fraction]) -> "SparseVec":
        """Wrap a dict that already satisfies the class invariant, unchecked.

        The dict is owned by the result from then on; callers build a
        fresh one and never touch it again.
        """
        vec = object.__new__(cls)
        vec._entries = data
        vec._items = tuple(sorted(data.items()))
        vec._hash = None
        return vec

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._items)

    def get(self, coord: int) -> Fraction:
        return self._entries.get(coord, _ZERO_SCALAR)

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
        h = self._hash
        if h is None:
            h = self._hash = hash(self._items)
        return h

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return SparseVec._canonical(_add_into(dict(self._entries), other._items))

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self._entries)
        for i, x in other._items:
            q = out.get(i)
            if q is None:
                out[i] = -x
            else:
                q -= x
                if q:
                    out[i] = q
                else:
                    del out[i]
        return SparseVec._canonical(out)

    def __neg__(self) -> "SparseVec":
        return SparseVec._canonical({i: -x for i, x in self._items})

    def scale(self, factor: ScalarLike) -> "SparseVec":
        c = as_scalar(factor)
        if c == 0:
            return ZERO
        return SparseVec._canonical({i: c * x for i, x in self._items})

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
            pairs.append((coord, value))
        return cls(pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {x}" for i, x in self._items)
        return f"SparseVec({{{inner}}})"


def _add_into(acc: dict[int, Fraction], items: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
    """Add nonzero (coordinate, value) pairs into a canonical dict in place,
    dropping every coordinate whose sum cancels; returns ``acc``."""
    for i, x in items:
        q = acc.get(i)
        if q is None:
            acc[i] = x
        else:
            q += x
            if q:
                acc[i] = q
            else:
                del acc[i]
    return acc


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
        if c == 1:
            scaled = vec._items
        elif c == -1:
            scaled = [(i, -x) for i, x in vec._items]
        else:
            scaled = [(i, c * x) for i, x in vec._items]
        _add_into(acc, scaled)
    return SparseVec._canonical(acc)


def signed_sums(terms: Sequence[SparseVec]) -> Iterator[SparseVec]:
    """Every +-1 combination of the terms, in ``itertools.product((1, -1), ...)``
    order over the sign patterns (reports list them in this order).

    The patterns are the leaves of a binary tree walked depth first;
    ``partial[j]`` holds the signed sum of the first j terms on the current
    path, so each tree edge costs one ``+`` or ``-``."""
    k = len(terms)
    partial = [ZERO]
    for t in terms:
        partial.append(partial[-1] + t)
    yield partial[k]
    for n in range(1, 1 << k):
        # from pattern n - 1 to n, term j flips from + to - and the later
        # terms reset to +, where bit k-1-j is the lowest set bit of n
        j = k - (n & -n).bit_length()
        partial[j + 1] = partial[j] - terms[j]
        for i in range(j + 1, k):
            partial[i + 1] = partial[i] + terms[i]
        yield partial[k]


def norm(v: SparseVec, kind: NormKind) -> Fraction:
    """Exact norm; Euclidean value is returned squared."""
    if kind is NormKind.SUP:
        return max((abs(x) for _, x in v._items), default=_ZERO_SCALAR)
    if kind is NormKind.SUM:
        return sum((abs(x) for _, x in v._items), _ZERO_SCALAR)
    return sum((x * x for _, x in v._items), _ZERO_SCALAR)


def int_norm(v: Iterable[int], kind: NormKind) -> int:
    """Norm of an integer vector in the carried convention (Euclidean
    squared): the norm of a rational vector scaled by L to integers,
    times L (L^2 under euclid)."""
    if kind is NormKind.SUP:
        return max(map(abs, v), default=0)
    if kind is NormKind.SUM:
        return sum(map(abs, v))
    return sum(t * t for t in v)


def dual_pair(f: Functional, v: SparseVec) -> Fraction:
    """Exact pairing sum(f_i * v_i) over the common support."""
    a, b = (f, v) if len(f._items) <= len(v._items) else (v, f)
    other = b._entries
    return sum((x * other[i] for i, x in a._items if i in other), _ZERO_SCALAR)


def dual_norm(f: Functional, kind: NormKind) -> Fraction:
    """Norm of ``f`` in the dual of the ``kind`` space (squared for EUCLID)."""
    if kind is NormKind.SUP:
        return norm(f, NormKind.SUM)
    if kind is NormKind.SUM:
        return norm(f, NormKind.SUP)
    return norm(f, NormKind.EUCLID)
