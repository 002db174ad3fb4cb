"""Exact arithmetic for finitely supported rational sequence vectors.

Points live in c00: sequences of rationals with finite support, indexed
by positive integers. Functionals share the representation and act
through the coordinatewise pairing sum(f_i * v_i).

Euclidean magnitudes (norms, dual norms, distances) are always carried
as exact squares so every comparison stays inside rational arithmetic;
``as_length`` lifts a plain threshold into that convention and
``half_length`` halves a carried magnitude.

A ``SparseVec`` is integer numerators over one denominator: ``_den`` is
a positive ``int`` and ``_nums`` maps positive ``int`` coordinates to
nonzero ``int`` numerators, kept reduced (``gcd(_den, *_nums.values())
== 1``, so the zero vector has ``_den == 1``). Equal vectors therefore
have equal fields. The public ``SparseVec(...)`` validates and
accumulates caller and JSON input; the arithmetic (``+``, ``-``, unary
``-``, ``scale``, ``linear_combination``), ``norm``, ``dual_pair`` and
``to_json`` work on the fields alone and reduce once per result. The
``Fraction`` view (``items``, ``sort_key``, ``repr``) is built on first
use and kept, like the hash. Modules of this package read ``_den`` and
``_nums`` directly, and :func:`integer_rows` writes a list of vectors
as integer rows over one scale for the pair scans and the hull LPs.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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
        found = _digit_ratio(text)
        if found is not None:
            return Fraction(*found)
        if "e" in text or "E" in text:
            raise InvalidInput(f"not a rational (exponent notation is not accepted): {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"not a rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):  # JSON true is no scalar
        return Fraction(value)
    raise InvalidInput(f"not a rational: {value!r}")


def _digit_ratio(text: str) -> Optional[tuple[int, int]]:
    """[-]digits[/digits] with a nonzero denominator, what reports write,
    as an unreduced integer pair without Fraction's regex, else None."""
    if text.isascii():
        num, slash, den = text.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
            try:
                q = int(den) if slash else 1
                if q:
                    return int(num), q
            except ValueError:  # past int's digit limit; Fraction(text) rejects it too
                pass
    return None


def format_scalar(value: ScalarLike) -> str:
    """Render a rational as 'p/q' (or a plain integer string)."""
    # an int or a Fraction prints as it is, a bool as 1 or 0 (as_scalar reads no bool)
    if type(value) is bool:
        return str(int(value))
    return str(value) if type(value) in (int, Fraction) else str(as_scalar(value))


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

    Invariant (made by ``__init__``, which accumulates duplicate input
    coordinates and drops zeros; trusted by ``_canonical``): the vector
    is ``_nums[i] / _den`` at each key ``i`` of ``_nums`` and zero
    elsewhere, ``_den`` is a positive ``int``, every numerator a nonzero
    ``int``, and ``gcd(_den, *_nums.values()) == 1``, so equal vectors
    have equal fields. ``_items`` (the sorted ``(coordinate, Fraction)``
    pairs) and ``_hash`` are None until first use.
    """

    __slots__ = ("_den", "_nums", "_items", "_hash")

    def __init__(self, entries: Mapping[int, ScalarLike] | Iterable[tuple[int, ScalarLike]] = ()):
        parsed: list[tuple[int, int, int]] = []
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for coord, value in pairs:
            if not isinstance(coord, int) or isinstance(coord, bool) or coord < 1:
                raise InvalidInput(f"coordinate must be a positive integer, got {coord!r}")
            if isinstance(value, str):
                found = _digit_ratio(value.strip())
            else:
                found = (value, 1) if type(value) is int else None
            if found is None:
                q = as_scalar(value)
                found = q.numerator, q.denominator
            parsed.append((coord, *found))
        den = lcm(*(d for _, _, d in parsed))
        nums: dict[int, int] = {}
        for coord, n, d in parsed:
            x = nums.get(coord, 0) + n * (den // d)
            if x:
                nums[coord] = x
            else:
                nums.pop(coord, None)
        self._den, self._nums = _reduced(den, nums)
        self._items = self._hash = None

    @classmethod
    def _canonical(cls, den: int, nums: dict[int, int]) -> "SparseVec":
        """Wrap fields that already satisfy the class invariant, unchecked.

        The dict is owned by the result from then on; callers build a
        fresh one and never touch it again.
        """
        vec = object.__new__(cls)
        vec._den, vec._nums, vec._items, vec._hash = den, nums, None, None
        return vec

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self.sort_key())

    def get(self, coord: int) -> Fraction:
        n = self._nums.get(coord)
        return _ZERO_SCALAR if n is None else Fraction(n, self._den)

    def __getitem__(self, coord: int) -> Fraction:
        return self.get(coord)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._nums))

    @property
    def max_support(self) -> int:
        """Largest support index, 0 for the zero vector."""
        return max(self._nums, default=0)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def sort_key(self) -> tuple:
        """Total order key: by sorted (coordinate, value) items."""
        items = self._items
        if items is None:
            den = self._den
            items = self._items = tuple((i, Fraction(n, den)) for i, n in sorted(self._nums.items()))
        return items

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._den, frozenset(self._nums.items())))
        return h

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return _sum(self, other, 1)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return _sum(self, other, -1)

    def __neg__(self) -> "SparseVec":
        return SparseVec._canonical(self._den, {i: -n for i, n in self._nums.items()})

    def scale(self, factor: ScalarLike) -> "SparseVec":
        c = as_scalar(factor)
        if not c:
            return ZERO
        nums = {i: c.numerator * n for i, n in self._nums.items()}
        return SparseVec._canonical(*_reduced(self._den * c.denominator, nums))

    def __rmul__(self, factor: ScalarLike) -> "SparseVec":
        return self.scale(factor)

    def to_json(self) -> dict[str, str]:
        # each entry in lowest terms, as str(Fraction) writes it
        den, nums, out = self._den, self._nums, {}
        for i in sorted(nums):
            n = nums[i]
            g = gcd(n, den)
            out[str(i)] = f"{n // g}/{den // g}" if g != den else f"{n // g}"
        return out

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
        inner = ", ".join(f"{i}: {x}" for i, x in self.items())
        return f"SparseVec({{{inner}}})"


def _reduced(den: int, nums: dict[int, int]) -> tuple[int, dict[int, int]]:
    """The fields of ``nums / den`` (``den`` positive, no numerator 0)
    divided through by their gcd."""
    g = gcd(den, *nums.values())
    return (den, nums) if g == 1 else (den // g, {i: n // g for i, n in nums.items()})


def _add_into(acc: dict[int, int], nums: dict[int, int], factor: int) -> dict[int, int]:
    """Add ``factor`` (nonzero) times ``nums`` into ``acc`` in place,
    dropping every coordinate whose sum cancels; returns ``acc``."""
    for i, n in nums.items():
        q = acc.get(i, 0) + factor * n
        if q:
            acc[i] = q
        else:
            del acc[i]
    return acc


def _sum(u: SparseVec, v: SparseVec, sign: int) -> SparseVec:
    """u + sign * v over the lcm of the two denominators."""
    den = lcm(u._den, v._den)
    fu = den // u._den
    out = dict(u._nums) if fu == 1 else {i: fu * n for i, n in u._nums.items()}
    return SparseVec._canonical(*_reduced(den, _add_into(out, v._nums, sign * (den // v._den))))


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
    """Exact coordinatewise sum of scalar multiples, in canonical form,
    kept over the lcm of the denominators seen so far."""
    den, acc = 1, {}
    for coeff, vec in terms:
        c = as_scalar(coeff)
        if not c:
            continue
        q = c.denominator * vec._den
        grown = lcm(den, q)
        if grown != den:
            acc = {i: (grown // den) * n for i, n in acc.items()}
            den = grown
        _add_into(acc, vec._nums, c.numerator * (den // q))
    return SparseVec._canonical(*_reduced(den, acc))


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


def integer_rows(
    vectors: Sequence[SparseVec], coords: Optional[Sequence[int]] = None, denominator: int = 1
) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm L of ``denominator`` and the vectors' denominators, and each
    vector times L as an integer row over ``coords`` (which must cover
    the supports; by default their sorted union), in list order. Row
    differences have L (L^2 under euclid) times the vectors' norms."""
    scale = lcm(denominator, *(v._den for v in vectors))
    if coords is None:
        coords = sorted({i for v in vectors for i in v._nums})
    position = {i: k for k, i in enumerate(coords)}
    rows = []
    for v in vectors:
        row = [0] * len(position)
        f = scale // v._den
        for i, n in v._nums.items():
            row[position[i]] = f * n
        rows.append(tuple(row))
    return scale, rows


def _int_norm(values: Iterable[int], kind: NormKind) -> int:
    """Norm of integer entries in the carried convention (Euclidean squared):
    for numerators over L, L (L^2 under euclid) times the vector's norm."""
    if kind is NormKind.SUP:
        return max(map(abs, values), default=0)
    if kind is NormKind.SUM:
        return sum(map(abs, values))
    return sum(t * t for t in values)


def norm(v: SparseVec, kind: NormKind) -> Fraction:
    """Exact norm; Euclidean value is returned squared."""
    den = v._den
    return Fraction(_int_norm(v._nums.values(), kind), den * den if kind is NormKind.EUCLID else den)


def dual_pair(f: Functional, v: SparseVec) -> Fraction:
    """Exact pairing sum(f_i * v_i) over the common support."""
    a, b = (f._nums, v._nums) if len(f._nums) <= len(v._nums) else (v._nums, f._nums)
    return Fraction(sum(n * b[i] for i, n in a.items() if i in b), f._den * v._den)


def dual_norm(f: Functional, kind: NormKind) -> Fraction:
    """Norm of ``f`` in the dual of the ``kind`` space (squared for EUCLID)."""
    if kind is NormKind.SUP:
        return norm(f, NormKind.SUM)
    if kind is NormKind.SUM:
        return norm(f, NormKind.SUP)
    return norm(f, NormKind.EUCLID)
