"""Prefix rewriting maps: validity, application, composition, generators."""

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv.cantor import ClopenSet, Point, extensions
from cantorenv.errors import NotInDomain, ParseError
from cantorenv.prefix_map import (
    IDENTITY,
    ODOMETER,
    GeneratedMap,
    PrefixMap,
    compose,
)
from cantorenv.action import ZPartialAction
from cantorenv.sampling import Sampler

from oracles import (
    cells_covered,
    image_cells,
    odometer_rules,
    step,
    transport,
    value,
    words,
)
from strategies import antichains, rule_lists


def pm(text):
    return PrefixMap.parse(text)


class TestValidity:
    def test_identity_is_valid(self):
        assert not IDENTITY.violations()
        assert IDENTITY.domain() == ClopenSet.parse("{ε}")

    def test_overlapping_sources_flagged(self):
        m = PrefixMap((("0", "1"), ("01", "00")))
        assert m.violations()
        assert any("source" in v for v in m.violations())

    def test_overlapping_targets_flagged(self):
        m = PrefixMap((("00", "1"), ("01", "10")))
        assert m.violations()

    def test_empty_map_is_valid(self):
        assert not PrefixMap(()).violations()
        assert PrefixMap(()).domain().is_empty()

    def test_parse_rejects_bad_syntax(self):
        for bad in ["0->1", "[0 => 1]", "[0 -> 2]"]:
            with pytest.raises(ParseError):
                pm(bad)

    def test_parse_rejects_blank_sides(self):
        # the empty word is written ε; a blank side is a typo, not ε
        for bad in ("[->1]", "[0->]", "[ -> ]", "[0->1, ->0]"):
            with pytest.raises(ParseError, match="blank"):
                pm(bad)
        assert pm("[ε->1]") == PrefixMap((("", "1"),))
        assert pm("[0->ε]") == PrefixMap((("0", ""),))

    def test_str_parse_roundtrip(self):
        m = pm("[10 -> 01, 0 -> 1]")
        assert PrefixMap.parse(str(m)) == m


class TestApplication:
    def test_apply_point(self):
        m = pm("[0 -> 1]")
        assert m.apply_point(Point.parse("01(0)")) == Point.parse("11(0)")
        with pytest.raises(NotInDomain):
            m.apply_point(Point.parse("(1)"))

    def test_apply_point_matches_oracle_transport_on_seeded_points(self):
        # short preperiods, so many sources end inside the period; equal
        # 24-symbol prefixes decide equality of points this short
        for seed in range(40):
            sampler = Sampler(seed)
            m = sampler.prefix_map()
            for _ in range(10):
                x = sampler.point(max_pre=2, max_per=3)
                want = transport(list(m.rules), 1, x.unroll(24))
                if want is None:
                    with pytest.raises(NotInDomain):
                        m.apply_point(x)
                    continue
                y = m.apply_point(x)
                assert y.unroll(len(want)) == want
                assert Point(y.preperiod, y.period) == y

    def test_image_word_needs_one_source_above(self):
        m = pm("[10 -> 01, 0 -> ε]")
        assert m.image_word("100") == "010"
        assert m.image_word("01") == "1"
        assert m.image_word("0") == ""
        # [1] is cut by the source 10, and [11] misses every source
        for w in ("", "1", "11"):
            assert m.image_word(w) is None

    def test_image_and_preimage_sets(self):
        m = pm("[10 -> 01, 0 -> 1]")
        assert m.domain() == ClopenSet.parse("{0,10}")
        assert m.image() == ClopenSet.parse("{1,01}")
        assert m.image_set(ClopenSet.parse("{10}")) == ClopenSet.parse("{01}")
        assert m.inverse().image_set(ClopenSet.parse("{01}")) == ClopenSet.parse("{10}")

    @given(rules=rule_lists(), ws=antichains)
    def test_image_set_matches_cellwise_transport(self, rules, ws):
        got = PrefixMap(tuple(rules)).image_set(ClopenSet(tuple(ws)))
        want = image_cells(rules, ws, 4)
        assert cells_covered(got.words, 8) == cells_covered(want, 8)

    def test_inverse_swaps_rules(self):
        m = pm("[0 -> 1]")
        assert m.inverse().apply_point(Point.parse("1(0)")) == Point.parse("0(0)")
        assert m.inverse().inverse() == m

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_oracle_on_deep_words(self, data):
        m = Sampler(data.draw(st.integers(0, 10**6))).prefix_map()
        depth = max((len(u) for u, _ in m.rules), default=0) + 1
        for w in extensions("", depth):
            got = None
            if m.domain().contains_point(Point(w, "0")):
                got = m.apply_point(Point(w, "1")).unroll(depth + 2)
            want = step(list(m.rules), w)
            assert m.image_word(w) == want
            if want is None:
                assert got is None
            else:
                assert got is not None and got.startswith(want[: depth + 2])


class TestCompose:
    def test_compose_with_identity(self):
        m = pm("[10 -> 01, 0 -> 1]")
        assert compose(m, IDENTITY) == m
        assert compose(IDENTITY, m) == m

    def test_level_one_odometer_powers(self):
        # expected word maps derived by stepping the carry rules directly
        m = ODOMETER.truncation(1)
        h2 = ZPartialAction(m).h(2)
        assert {u: v for u, v in h2.rules} == {"00": "01", "10": "11"}
        h3 = ZPartialAction(m).h(3)
        assert {u: v for u, v in h3.rules} == {"00": "11"}
        assert ZPartialAction(m).h(4).rules == ()
        # X_{-2} = dom(h_2)
        assert h2.domain() == ClopenSet.parse("{00,10}")
        assert h2.image() == ClopenSet.parse("{01,11}")

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_stepwise_oracle(self, data):
        s = Sampler(data.draw(st.integers(0, 10**6)))
        f, g = s.prefix_map(), s.prefix_map()
        c = compose(g, f)  # g after f
        depth = sum(
            max((len(u) for u, _ in m.rules), default=0) for m in (f, g)
        ) + 1
        for w in extensions("", depth):
            mid = step(list(f.rules), w)
            want = step(list(g.rules), mid) if mid is not None else None
            got = step(list(c.rules), w)
            if want is None:
                assert got is None
            else:
                assert got is not None
                k = min(len(got), len(want))
                assert got[:k] == want[:k]


class TestGeneratedMap:
    def test_odometer_rules(self):
        for i in range(4):
            assert ODOMETER.rule(i) == ("1" * i + "0", "0" * i + "1")
        assert not ODOMETER.is_finite

    def test_truncation_matches_rule_list(self):
        t2 = ODOMETER.truncation(2)
        assert list(t2.rules) == odometer_rules(2)
        finite = GeneratedMap("rules", (("1", "0"), ("0", "1")))
        assert ODOMETER.truncation(-1) == finite.truncation(-1) == PrefixMap(())

    def test_apply_point_reports_rule_index(self):
        y, idx = ODOMETER.apply_point(Point.parse("110(1)"))
        assert (str(y), idx) == ("00(1)", 2)
        y, idx = ODOMETER.apply_point(Point.parse("(0)"))
        assert (str(y), idx) == ("1(0)", 0)

    def test_all_ones_has_no_image(self):
        with pytest.raises(NotInDomain):
            ODOMETER.apply_point(Point.parse("(1)"))

    def test_finite_enumeration_indexes_in_listed_order(self):
        # listed order 1, 01, 00 is the reverse of sorted order
        g = GeneratedMap("rules", (("1", "0"), ("01", "11"), ("00", "10")))
        assert g.violations() == ()
        for point, image, idx in [
            ("1(0)", "0(0)", 0), ("01(0)", "11(0)", 1), ("00(1)", "10(1)", 2),
        ]:
            y, i = g.apply_point(Point.parse(point))
            assert (y, i) == (Point.parse(image), idx)
            assert g.rule(i)[0] == Point.parse(point).unroll(len(g.rule(i)[0]))

    @pytest.mark.parametrize(
        "g", [ODOMETER, GeneratedMap("rules", (("1", "0"), ("0", "1")))]
    )
    def test_rule_refuses_negative_indices(self, g):
        with pytest.raises(IndexError, match="enumeration has no rule -1"):
            g.rule(-1)

    def test_rule_refuses_the_index_past_a_finite_end(self):
        g = GeneratedMap("rules", (("1", "0"), ("0", "1")))
        assert g.rule(1) == ("0", "1")
        with pytest.raises(IndexError, match="enumeration has no rule 2"):
            g.rule(2)

    def test_odometer_adds_one_in_binary(self):
        # the level-k truncation adds one on every word that carries within k
        rules = odometer_rules(3)
        t3 = ODOMETER.truncation(3)
        for w in words(4):
            want = transport(rules, 1, w)
            if want is None:
                assert not t3.domain().contains_point(Point(w, "0"))
            else:
                got = t3.apply_point(Point(w, "0")).unroll(4)
                assert got == want
                assert value(want) == value(w) + 1
