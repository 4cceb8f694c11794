"""Exact scalars and locally constant functions on the Cantor space.

Scalars are Gaussian rationals, each held as one reduced integer triple
(a, b, den) for (a + b*i)/den, so every computation downstream is exact and
equality is structural.  Scalar arithmetic reduces each result once, in the
trusted constructor `Scalar._make`; `.re` and `.im` are Fractions.
A piecewise constant function is a finite assignment of nonzero scalars to a
prefix-free antichain of cylinders; the canonical form merges sibling
cylinders carrying equal values through `cantor.merge_siblings`, as clopen
sets merge theirs, which makes function equality structural as well.

The public constructor of a function checks, sorts and merges whatever it
is given.  The trusted constructor `PiecewiseConstant._canonical(live)` only
merges siblings: its caller guarantees that `live` holds checked words,
sorted, prefix-free and distinct, each with a nonzero Scalar.  The
arithmetic here calls it where that holds by construction: a product pairs
two antichains into their common refinement and multiplies nonzero values;
a sum sorts its cells and drops zero sums; `scale`, `conj` and negation keep
the words and map nonzero values to nonzero values; and `compose_with_map`
pulls a sorted antichain back along a valid map, whose sorted, prefix-free
sources keep it sorted and prefix-free.  Outside this module only
`Sampler.pwc` calls it, on distinct cells of one depth from
`refine_to_depth`, sorted, each with a nonzero drawn scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .cantor import (
    ClopenSet, check_word, leaves_below, merge_siblings, prefix_join, proper_prefixes,
    show_word,
)
from .value import FrozenInstanceError, Value, set_field

_Rat = (int, Fraction)


class Scalar:
    """A Gaussian rational re + im*i, held as the integer triple (a, b, den)
    of the value (a + b*i)/den, with den > 0 and gcd(a, b, den) = 1.

    The triple is canonical, so equality and hashing compare three ints.
    The public constructor takes integer or Fraction parts.  The trusted
    constructor `_make(a, b, den)` takes any triple with den > 0 and only
    reduces it; arithmetic and `Sampler.scalar` build every result through
    it, except negation and conjugation, which keep a reduced triple
    reduced.  No other code builds a triple.
    """

    __slots__ = ("_a", "_b", "_den")

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0):
        if not isinstance(re, _Rat) or not isinstance(im, _Rat):
            raise TypeError("scalar parts must be integers or Fractions")
        re, im = Fraction(re), Fraction(im)
        # over the least common denominator the triple is already reduced: a
        # prime p of den divides the denominator of, say, re; then p divides
        # neither re's numerator nor den over re's denominator
        den = lcm(re.denominator, im.denominator)
        return _triple(
            re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator),
            den,
        )

    @staticmethod
    def _make(a: int, b: int, den: int) -> "Scalar":
        """Trusted constructor: (a + b*i)/den for den > 0, reduced once."""
        g = gcd(a, b, den)
        if g != 1:
            a //= g
            b //= g
            den //= g
        return _triple(a, b, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._den)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Scalar, (self.re, self.im)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return (
            self._a == other._a and self._b == other._b and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._den))

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __add__(self, other: "Scalar") -> "Scalar":
        d, e = self._den, other._den
        return Scalar._make(
            self._a * e + other._a * d, self._b * e + other._b * d, d * e
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, e = self._a, self._b, other._a, other._b
        return Scalar._make(a * c - b * e, a * e + b * c, self._den * other._den)

    def __neg__(self) -> "Scalar":
        return _triple(-self._a, -self._b, self._den)

    def conj(self) -> "Scalar":
        return _triple(self._a, -self._b, self._den)

    def __str__(self) -> str:
        sign = "+" if self._b >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new = object.__new__
_set_a, _set_b, _set_den = (Scalar.__dict__[n].__set__ for n in Scalar.__slots__)


def _triple(a: int, b: int, den: int) -> Scalar:
    """The Scalar of a triple that is already reduced, with den > 0."""
    out = _new(Scalar)
    _set_a(out, a)
    _set_b(out, b)
    _set_den(out, den)
    return out


ZERO = Scalar()
ONE = Scalar(Fraction(1))


class memo:
    """`functools.cached_property` without the lock it takes in Python 3.10
    and 3.11; a lost race only computes the same value twice."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        out = self.func(obj)
        set_field(obj, self.name, out)
        return out


class PiecewiseConstant(Value):
    """A locally constant function with finitely many nonzero cylinder values."""

    pieces: tuple[tuple[str, Scalar], ...] = ()

    def __init__(self, pieces: tuple[tuple[str, Scalar], ...] = ()):
        seen: set[str] = set()
        live = []
        for w, c in pieces:
            check_word(w)
            if w in seen:
                raise ValueError(f"duplicate piece {w!r}")
            seen.add(w)
            if not isinstance(c, Scalar):
                raise TypeError("piece values must be Scalars")
            if not c.is_zero():
                live.append((w, c))
        live.sort()  # words are distinct, so values are never compared
        # in sorted order the extensions of a word directly follow it
        for (u, _), (v, _) in zip(live, live[1:]):
            if v.startswith(u):
                raise ValueError(f"pieces overlap: {u!r} and {v!r}")
        set_field(self, "pieces", tuple(merge_siblings(live)))

    @classmethod
    def _canonical(cls, live) -> "PiecewiseConstant":
        """Trusted constructor: sorted, prefix-free, checked, nonzero pieces."""
        out = object.__new__(cls)
        set_field(out, "pieces", tuple(merge_siblings(live)))
        return out

    def is_zero(self) -> bool:
        return not self.pieces

    @memo
    def words(self) -> tuple[str, ...]:
        """The piece words: sorted and prefix-free, siblings possibly unmerged."""
        return tuple(w for w, _ in self.pieces)

    def support(self) -> ClopenSet:
        """The union of the piece cylinders, built on each call: support
        checks read `words`, so only messages and callers ask for it."""
        return ClopenSet(self.words)

    def __add__(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        # cut each piece only at the words of the other pieces below it
        both = self.pieces + other.pieces
        inner = proper_prefixes(w for w, _ in both)
        acc: dict[str, Scalar] = {}
        for w, c in both:
            for cell in leaves_below(w, inner):
                acc[cell] = acc.get(cell, ZERO) + c
        return PiecewiseConstant._canonical(
            sorted((w, c) for w, c in acc.items() if not c.is_zero())
        )

    def __neg__(self) -> "PiecewiseConstant":
        return PiecewiseConstant._canonical([(w, -c) for w, c in self.pieces])

    def __sub__(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        return self + (-other)

    def __mul__(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        # the deeper word of each comparable pair; products of nonzero
        # Gaussian rationals are nonzero
        pairs = prefix_join(self.pieces, other.pieces, itemgetter(0), itemgetter(0))
        return PiecewiseConstant._canonical(
            [(u + v[len(u):], a * b) for (u, a), (v, b) in pairs]
        )

    def scale(self, c: Scalar) -> "PiecewiseConstant":
        if c.is_zero():
            return ZERO_FUNC
        return PiecewiseConstant._canonical([(w, c * v) for w, v in self.pieces])

    def conj(self) -> "PiecewiseConstant":
        return PiecewiseConstant._canonical([(w, c.conj()) for w, c in self.pieces])

    def restrict(self, s: ClopenSet) -> "PiecewiseConstant":
        return self * indicator(s)

    def _sup_norm_sq(self) -> tuple[int, int]:
        """The largest (a^2 + b^2)/den^2 as an unreduced pair of ints (0, 1
        for the zero function), compared by cross-multiplying."""
        top, den = 0, 1
        for _, c in self.pieces:
            n, d = c._a * c._a + c._b * c._b, c._den * c._den
            if n * den > top * d:
                top, den = n, d
        return top, den

    def __str__(self) -> str:
        if not self.pieces:
            return "0"
        return " + ".join(
            f"({c})*1_[{show_word(w)}]" for w, c in self.pieces
        )


ZERO_FUNC = PiecewiseConstant(())


def indicator(s: ClopenSet, value: Scalar = ONE) -> PiecewiseConstant:
    return PiecewiseConstant(tuple((w, value) for w in s.words))


def compose_with_map(f: PiecewiseConstant, m) -> PiecewiseConstant:
    """The pullback x -> f(m(x)) along a prefix map, computed exactly.

    Supported inside the preimage of f's support; pieces outside the image of m
    contribute nothing.  m must be valid (see `PrefixMap`): the words of rule
    u -> v all extend u, in the order of f's words, and the sources are
    sorted and prefix-free, so the pulled-back pieces are too.  Along the
    identity map the pullback is f itself.
    """
    if m.rules == (("", ""),):
        return f
    pairs = prefix_join(m.rules, f.pieces, itemgetter(1), itemgetter(0))
    return PiecewiseConstant._canonical(
        [(u + w[len(v):], c) for (u, v), (w, c) in pairs]
    )
