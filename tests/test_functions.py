"""Gaussian rationals and piecewise constant functions."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv.cantor import FULL, ClopenSet, Point
from cantorenv.functions import (
    ONE,
    ZERO,
    ZERO_FUNC,
    PiecewiseConstant,
    Scalar,
    compose_with_map,
    indicator,
)
from cantorenv.action import ZPartialAction
from cantorenv.prefix_map import IDENTITY, PrefixMap, compose
from oracles import cell_values, equal_siblings, overlaps, pullback_values
from strategies import rule_lists

rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
scalars = st.builds(Scalar, rat, rat)
wide = st.fractions(max_denominator=1000)
# few distinct values, so that equal siblings and zero pieces are common
raw_pieces = st.lists(
    st.tuples(st.text(alphabet="01", max_size=5),
              st.sampled_from([ZERO, ONE, Scalar(2), Scalar(0, 1)])),
    max_size=8,
)


def value_at(f, x):
    """The value of the piece holding x, or zero."""
    return next((c for w, c in f.pieces if x.starts_with(w)), ZERO)


def prefix_free(raw):
    """The raw pieces that overlap no earlier kept piece."""
    kept = []
    for w, c in raw:
        if not overlaps([u for u, _ in kept] + [w]):
            kept.append((w, c))
    return tuple(kept)


def nonzero(pieces):
    return [(w, c) for w, c in pieces if not c.is_zero()]


class TestScalar:
    def test_exact_arithmetic(self):
        a = Scalar(Fraction(1, 3), Fraction(1, 2))
        b = Scalar(Fraction(2, 3), Fraction(-1, 2))
        assert a + b == Scalar(1, 0)
        assert (a * b).re == Fraction(1, 3) * Fraction(2, 3) + Fraction(1, 4)

    def test_parts_must_be_exact(self):
        for re, im in ((1.5, 0), (0, 1.5), (Fraction(1), 0.5), ("1", 0)):
            with pytest.raises(TypeError):
                Scalar(re, im)
        s = Scalar(2, Fraction(1, 3))
        assert type(s.re) is Fraction and type(s.im) is Fraction
        assert Scalar(s.re, s.im) == s
        for name in ("re", "_a", "_den"):
            with pytest.raises(AttributeError):
                setattr(s, name, 3)

    @given(s=scalars)
    def test_conjugation_and_modulus(self, s):
        assert (s * s.conj()).re == s.re**2 + s.im**2
        assert (s * s.conj()).im == 0
        assert s.conj().conj() == s

    @given(x=wide, y=wide, u=wide, v=wide, k=st.integers(1, 12),
           same=st.booleans())
    def test_integer_arithmetic_matches_fraction_pairs(self, x, y, u, v, k, same):
        if same:
            u, v = x, y
        s, t = Scalar(x, y), Scalar(u, v)
        want = [
            (s, (x, y)),
            (s + t, (x + u, y + v)),
            (s - t, (x - u, y - v)),
            (s * t, (x * u - y * v, x * v + y * u)),
            (-s, (-x, -y)),
            (s.conj(), (x, -y)),
        ]
        for got, (re, im) in want:
            a, b, den = got._a, got._b, got._den
            assert den > 0 and gcd(a, b, den) == 1
            assert (Fraction(a, den), Fraction(b, den)) == (re, im)
            assert type(got.re) is Fraction and (got.re, got.im) == (re, im)
            assert str(got) == f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"
            assert pickle.loads(pickle.dumps(got)) == got
            assert got.is_zero() == (re == im == 0)
        assert (s == t) == ((x, y) == (u, v))
        if s == t:
            assert hash(s) == hash(t)
        scaled = Scalar._make(k * s._a, k * s._b, k * s._den)
        assert scaled == s and hash(scaled) == hash(s)

    @given(a=scalars, b=scalars, c=scalars)
    def test_ring_identities(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == ZERO


class TestPiecewiseConstant:
    def test_zero_values_dropped(self):
        f = PiecewiseConstant((("0", ZERO), ("1", ONE)))
        assert f.pieces == (("1", ONE),)

    def test_support_is_computed_once_per_value(self):
        f = PiecewiseConstant((("00", ONE), ("01", Scalar(2)), ("1", ONE)))
        assert f.support() == FULL
        g = PiecewiseConstant(f.pieces)
        assert g == f and hash(g) == hash(f)
        assert ZERO_FUNC.support().is_empty()

    def test_equal_siblings_merge(self):
        f = PiecewiseConstant((("0", ONE), ("1", ONE)))
        assert f.pieces == (("", ONE),)
        # so do a sum, a product and a pullback, which skip the constructor
        two = Scalar(2)
        zero, one = PiecewiseConstant((("0", ONE),)), PiecewiseConstant((("1", ONE),))
        assert (zero + one).pieces == (("", ONE),)
        g = PiecewiseConstant((("0", two), ("1", ONE)))
        h = PiecewiseConstant((("0", ONE), ("1", two)))
        assert (g * h).pieces == (("", two),)
        swap = PrefixMap.parse("[0 -> 1, 1 -> 0]")
        assert compose_with_map(f, swap).pieces == (("", ONE),)

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((("0", ONE), ("01", Scalar(2))))

    def test_duplicate_word_rejected_in_either_order(self):
        for pieces in ((("0", ZERO), ("0", ONE)), (("0", ONE), ("0", ZERO))):
            with pytest.raises(ValueError, match="duplicate"):
                PiecewiseConstant(pieces)

    @given(raw=raw_pieces)
    def test_rejects_exactly_overlaps_and_repeats(self, raw):
        ws = [w for w, _ in raw]
        bad = len(set(ws)) < len(ws) or bool(overlaps([w for w, _ in nonzero(raw)]))
        try:
            PiecewiseConstant(tuple(raw))
        except ValueError:
            assert bad
        else:
            assert not bad

    @given(raw=raw_pieces)
    def test_canonical_form_keeps_cell_values(self, raw):
        pieces = prefix_free(raw)
        f = PiecewiseConstant(pieces)
        assert cell_values(f.pieces, 6) == cell_values(nonzero(pieces), 6)
        assert [w for w, _ in f.pieces] == sorted({w for w, _ in f.pieces})
        assert overlaps([w for w, _ in f.pieces]) == []
        assert equal_siblings(f.pieces) == []

    @given(a=raw_pieces, b=raw_pieces)
    def test_sum_adds_cell_values(self, a, b):
        f, g = PiecewiseConstant(prefix_free(a)), PiecewiseConstant(prefix_free(b))
        fv, gv = cell_values(f.pieces, 6), cell_values(g.pieces, 6)
        sums = {c: fv.get(c, ZERO) + gv.get(c, ZERO) for c in fv.keys() | gv.keys()}
        want = {c: v for c, v in sums.items() if not v.is_zero()}
        assert cell_values((f + g).pieces, 6) == want

    @given(a=raw_pieces, b=raw_pieces)
    def test_product_multiplies_cell_values(self, a, b):
        f, g = PiecewiseConstant(prefix_free(a)), PiecewiseConstant(prefix_free(b))
        fv, gv = cell_values(f.pieces, 6), cell_values(g.pieces, 6)
        want = {c: fv[c] * gv[c] for c in fv.keys() & gv.keys()}
        assert cell_values((f * g).pieces, 6) == want

    def test_sum_cuts_only_where_pieces_meet(self):
        # refining every piece to the deepest word would need 2^40 cells
        deep = "0" * 40
        f = indicator(FULL) + indicator(ClopenSet((deep,)), Scalar(2))
        ones = [("0" * i + "1", ONE) for i in range(40)]
        assert f.pieces == tuple(sorted([(deep, Scalar(3))] + ones))
        assert len(f.pieces) == 41

    def test_value_at(self):
        f = PiecewiseConstant((("01", Scalar(5)),))
        assert value_at(f, Point.parse("01(0)")) == Scalar(5)
        assert value_at(f, Point.parse("(0)")) == ZERO

    def test_pointwise_algebra(self):
        f = indicator(ClopenSet.parse("{0}"))
        g = indicator(ClopenSet.parse("{01}"), Scalar(3))
        assert (f * g).pieces == (("01", Scalar(3)),)
        assert value_at(f + g, Point.parse("01(0)")) == Scalar(4)
        assert (f - f).is_zero()

    def test_restrict_and_support(self):
        f = indicator(ClopenSet.parse("{0}"))
        assert f.restrict(ClopenSet.parse("{01}")).support() == ClopenSet.parse(
            "{01}"
        )
        assert f.support() == ClopenSet.parse("{0}")

    def test_sup_norm(self):
        f = PiecewiseConstant(
            (("0", Scalar(Fraction(1, 2))), ("1", Scalar(0, 2)))
        )
        # |2i|^2 = 4 beats |1/2|^2 = 1/4, as an unreduced (numerator, denominator)
        top, den = f._sup_norm_sq()
        assert Fraction(top, den) == Fraction(4)
        assert ZERO_FUNC._sup_norm_sq() == (0, 1)

    @given(a=scalars, b=scalars)
    def test_indicator_linearity(self, a, b):
        s = ClopenSet.parse("{10}")
        f = indicator(s, a)
        g = indicator(s, b)
        assert f + g == indicator(s, a + b)
        assert f.scale(b) == indicator(s, a * b)
        assert f.conj() == indicator(s, a.conj())

    def test_compose_with_map_pulls_back(self):
        # pullback along 0 -> 1: the value carried on [1] appears on [0]
        m = PrefixMap.parse("[0 -> 1]")
        f = indicator(ClopenSet.parse("{1}"), Scalar(7))
        g = compose_with_map(f, m)
        assert g == indicator(ClopenSet.parse("{0}"), Scalar(7))

    def test_compose_with_map_respects_depth(self):
        m = PrefixMap.parse("[10 -> 01]")
        f = indicator(ClopenSet.parse("{011}"), Scalar(2))
        g = compose_with_map(f, m)
        assert g == indicator(ClopenSet.parse("{101}"), Scalar(2))

    def test_compose_with_map_outside_image_vanishes(self):
        m = PrefixMap.parse("[0 -> 1]")
        f = indicator(ClopenSet.parse("{0}"), Scalar(9))
        assert compose_with_map(f, m).is_zero()

    @given(rules=rule_lists() | st.just([("", "")]), raw=raw_pieces)
    def test_compose_with_map_matches_cellwise_pullback(self, rules, raw):
        f = PiecewiseConstant(prefix_free(raw))
        g = compose_with_map(f, PrefixMap(tuple(rules)))
        # sources and piece words have at most 4 and 5 symbols
        assert cell_values(g.pieces, 9) == pullback_values(f.pieces, rules, 9)

    @given(raw=raw_pieces, power=st.integers(-3, 3))
    def test_compose_with_map_along_the_identity_is_f(self, raw, power):
        # the identity parsed, built by compose, and as a power of the action
        # of the identity (composed, or inverted, for power != 0)
        f = PiecewiseConstant(prefix_free(raw))
        maps = (PrefixMap.parse("[ε -> ε]"), compose(IDENTITY, IDENTITY),
                ZPartialAction(IDENTITY).h(power))
        for m in maps:
            assert m.rules == (("", ""),)
            assert compose_with_map(f, m) == f

    @given(a=scalars, b=scalars)
    @settings(max_examples=40, deadline=None)
    def test_compose_with_map_is_linear(self, a, b):
        m = PrefixMap.parse("[10 -> 01, 0 -> 1]")
        f = PiecewiseConstant((("01", a),))
        g = PiecewiseConstant((("1", b),))
        lhs = compose_with_map(f + g, m)
        rhs = compose_with_map(f, m) + compose_with_map(g, m)
        assert lhs == rhs
