"""Exact scalars and locally constant functions on the Cantor space.

Scalars are Gaussian rationals (pairs of `fractions.Fraction`), so every
computation downstream is exact and equality is structural.  A piecewise
constant function is a finite assignment of nonzero scalars to a prefix-free
antichain of cylinders; the canonical form merges sibling cylinders carrying
equal values through `cantor.merge_siblings`, as clopen sets do, which makes
function equality structural as well.

The public constructor checks, sorts and merges whatever it is given.  The
trusted constructor `PiecewiseConstant._canonical(live)` only merges
siblings: its caller guarantees that `live` holds checked words, sorted,
prefix-free and distinct, each with a nonzero Scalar.  The arithmetic here
calls it where that holds by construction: a product pairs two antichains
into their common refinement and multiplies nonzero values; a sum sorts its
cells and drops zero sums; `scale`, `conj` and negation keep the words and
map nonzero values to nonzero values; and `compose_with_map` pulls a sorted
antichain back along a valid map, whose sorted, prefix-free sources keep it
sorted and prefix-free.  No other module calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .cantor import (
    ClopenSet, check_word, leaves_below, merge_siblings, prefix_join, proper_prefixes
)
from .errors import ParseError

_Rat = (int, Fraction)


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational re + im*i."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.re) is Fraction and type(self.im) is Fraction:
            return  # already canonical: arithmetic on Fractions yields these
        if not isinstance(self.re, _Rat) or not isinstance(self.im, _Rat):
            raise TypeError("scalar parts must be integers or Fractions")
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    @staticmethod
    def parse(text: str) -> "Scalar":
        s = text.strip().replace(" ", "")
        if not s:
            raise ParseError("empty scalar")
        try:
            if not s.endswith("i"):
                return Scalar(Fraction(s), Fraction(0))
            body = s[:-1]
            split = None
            for i in range(1, len(body)):
                if body[i] in "+-" and body[i - 1].isdigit():
                    split = i
            if split is None:
                if body in ("", "+", "-"):
                    body += "1"
                return Scalar(Fraction(0), Fraction(body))
            return Scalar(Fraction(body[:split]), Fraction(body[split:]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {text!r}") from exc


ZERO = Scalar()
ONE = Scalar(Fraction(1))


@dataclass(frozen=True)
class PiecewiseConstant:
    """A locally constant function with finitely many nonzero cylinder values."""

    pieces: tuple[tuple[str, Scalar], ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        live = []
        for w, c in self.pieces:
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
        object.__setattr__(self, "pieces", tuple(merge_siblings(live)))

    @classmethod
    def _canonical(cls, live) -> "PiecewiseConstant":
        """Trusted constructor: sorted, prefix-free, checked, nonzero pieces."""
        out = object.__new__(cls)
        object.__setattr__(out, "pieces", tuple(merge_siblings(live)))
        return out

    def is_zero(self) -> bool:
        return not self.pieces

    @property
    def words(self) -> tuple[str, ...]:
        """The piece words: sorted and prefix-free, siblings possibly unmerged."""
        return tuple(w for w, _ in self.pieces)

    def support(self) -> ClopenSet:
        return self._support

    @cached_property
    def _support(self) -> ClopenSet:
        # for messages and callers; support checks read `words` instead
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

    def sup_norm_sq(self) -> Fraction:
        return max((c.abs_sq() for _, c in self.pieces), default=Fraction(0))

    def __str__(self) -> str:
        if not self.pieces:
            return "0"
        return " + ".join(
            f"({c})*1_[{'ε' if w == '' else w}]" for w, c in self.pieces
        )


ZERO_FUNC = PiecewiseConstant(())


def indicator(s: ClopenSet, value: Scalar = ONE) -> PiecewiseConstant:
    return PiecewiseConstant(tuple((w, value) for w in s.words))


def compose_with_map(f: PiecewiseConstant, m) -> PiecewiseConstant:
    """The pullback x -> f(m(x)) along a prefix map, computed exactly.

    Supported inside the preimage of f's support; pieces outside the image of m
    contribute nothing.  m must be valid (see `PrefixMap`): the words of rule
    u -> v all extend u, in the order of f's words, and the sources are
    sorted and prefix-free, so the pulled-back pieces are too.
    """
    pairs = prefix_join(m.rules, f.pieces, itemgetter(1), itemgetter(0))
    return PiecewiseConstant._canonical(
        [(u + w[len(v):], c) for (u, v), (w, c) in pairs]
    )
