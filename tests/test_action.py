"""Integer partial actions generated by a single map, and the axiom checker."""

import pytest
from hypothesis import given, settings, strategies as st

import cantorenv.action as action_module
from cantorenv.action import (
    AxiomsReport,
    ZPartialAction,
    axioms_check,
    generated_family,
    germ_index,
    kernel_tag,
    transport_index,
)
from cantorenv.cantor import FULL, ClopenSet, Point
from cantorenv.errors import (
    CapExceeded,
    LevelRequired,
    NotInDomain,
    ParseError,
)
from cantorenv.functions import Scalar, compose_with_map, indicator
from cantorenv.prefix_map import IDENTITY, ODOMETER, GeneratedMap, PrefixMap, compose
from cantorenv.sampling import Sampler

from oracles import (
    FLIP_RULES,
    axiom2_failures,
    axiom3_failures,
    deep_identity_rules,
    odometer_rules,
    transport,
    words,
)
from strategies import antichains, length_preserving_rules, mixed_length_rules


def test_index_conventions_are_consistent():
    # germ membership lives where the transport is defined
    for r in range(-3, 4):
        for s in range(-3, 4):
            assert germ_index(r, s) == -transport_index(r, s)
            assert kernel_tag(r, s) == transport_index(r, s)


class TestZPartialAction:
    def test_clopen_action_needs_no_level(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        assert a.clopen
        assert a.h(1).rules == (("0", "1"),)
        assert a.domain(-1) == ClopenSet.parse("{0}")
        assert a.domain(1) == ClopenSet.parse("{1}")
        assert a.domain(2).is_empty()

    def test_generated_action_demands_level(self):
        a = ZPartialAction(ODOMETER)
        with pytest.raises(LevelRequired):
            a.h(1)
        assert a.stage(0).h(1).rules == (("0", "1"),)

    def test_at_level_freezes_truncation(self):
        a = ZPartialAction(ODOMETER).stage(1)
        assert a.clopen
        assert {u: v for u, v in a.h(1).rules} == {"0": "1", "10": "01"}

    def test_h_zero_is_identity(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        assert a.h(0) == IDENTITY

    def test_domains_are_cached_per_t(self):
        a = ZPartialAction(ODOMETER).stage(2)
        fresh = ZPartialAction(ODOMETER).stage(2)
        for t in range(-3, 4):
            first = a.domain(t)
            assert a.domain(t) is first
            assert first == a.h(t).image() == fresh.h(t).image()

    def test_domain_errors_are_not_cached(self):
        a = ZPartialAction(ODOMETER)
        for _ in range(3):
            with pytest.raises(LevelRequired):
                a.domain(1)
            with pytest.raises(LevelRequired):
                a.domain(1).covers(FULL.words)
        assert a.domain(0) == FULL

    def test_support_verdicts_are_keyed_on_t_and_support(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        one = ClopenSet.parse("{1}")
        for _ in range(2):
            assert a.domain(1).covers(one.words) and a.domain(0).covers(one.words)
            assert not a.domain(-1).covers(one.words)
            assert not a.domain(1).covers(FULL.words)

    def test_negative_powers_invert(self):
        a = ZPartialAction(ODOMETER)
        x = Point.parse("10(0)")
        y = a.stage(1).apply(2, x)
        assert y == Point.parse("11(0)")
        assert a.stage(1).apply(-2, y) == x

    def test_far_powers_are_built_without_recursion(self):
        flip = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        assert flip.h(5000) == flip.h(-5000) == PrefixMap(())
        a = ZPartialAction(ODOMETER).stage(2)
        want = IDENTITY
        for _ in range(1500):
            want = compose(a.generator, want)
        assert a.h(700) == ZPartialAction(ODOMETER).stage(2).h(700)
        assert a.h(1500) == want  # continued from the cached h_700

    def test_a_power_that_raises_caches_nothing(self, monkeypatch):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        a.h(2)
        steps = []

        def compose_then_fail(f, g):
            steps.append(g)
            if len(steps) == 3:
                raise CapExceeded("stop")
            return compose(f, g)

        monkeypatch.setattr(action_module, "compose", compose_then_fail)
        with pytest.raises(CapExceeded):
            a.h(6)
        assert steps[0] == a.h(2) and sorted(a._powers) == [1, 2]

    def test_apply_outside_domain(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        with pytest.raises(NotInDomain):
            a.apply(1, Point.parse("(1)"))

    def test_counts_schedule_controls_levels(self):
        # counts (1, 3): stage 0 uses rule 0 only, stage 1 uses rules 0..2
        a = ZPartialAction(ODOMETER, counts=(1, 3))
        assert a.stage(0).h(1).rules == (("0", "1"),)
        assert len(a.stage(1).h(1).rules) == 3
        with pytest.raises(LevelRequired):
            a.stage(2).h(1)

    def test_stages_are_cached_per_rule_count(self):
        a = ZPartialAction(ODOMETER, counts=(1, 1, 4))
        assert a.stage(0) is a.stage(1)
        assert a.stage(2) is a.stage(2) and a.stage(2) is not a.stage(1)
        assert [a.count(k) for k in range(3)] == [1, 1, 4]
        flip = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        assert flip.stage(3) is flip

    def test_negative_stage_is_rejected(self):
        for a in (ZPartialAction(ODOMETER), ZPartialAction(PrefixMap.parse("[0 -> 1]"))):
            with pytest.raises(LevelRequired):
                a.stage(-1)

    def test_enumeration_acts_only_through_stages(self):
        a = ZPartialAction(ODOMETER)
        assert a.h(0) == IDENTITY and a.domain(0) == ClopenSet.parse("{ε}")
        with pytest.raises(LevelRequired):
            a.domain(-1)
        with pytest.raises(LevelRequired):
            a.apply(1, Point.parse("(0)"))

    def test_invalid_generator_is_rejected(self):
        # overlapping sources: the map is not injective-open, so no action
        bad = PrefixMap.parse("[0->1, 00->0]")
        with pytest.raises(ParseError, match="sources not prefix-free"):
            ZPartialAction(bad)
        with pytest.raises(ParseError, match="no rules"):
            ZPartialAction(GeneratedMap("rules", ()))

    def test_counts_must_be_nondecreasing(self):
        with pytest.raises(ParseError):
            ZPartialAction(ODOMETER, counts=(2, 1))
        with pytest.raises(ParseError):
            ZPartialAction(ODOMETER, counts=(0,))

    @pytest.mark.parametrize("counts", [(1.9, "3"), (), (True, 2), [1, 1.0]])
    def test_counts_must_be_ints(self, counts):
        with pytest.raises(ParseError, match="nondecreasing list of rule counts"):
            ZPartialAction(ODOMETER, counts=counts)

    def test_counts_need_an_open_enumeration(self):
        with pytest.raises(ParseError, match="needs an open enumeration"):
            ZPartialAction(PrefixMap.parse("[0 -> 1]"), counts=(1,))

    @given(t=st.integers(-3, 3), k=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_powers_match_stepwise_oracle(self, t, k):
        a = ZPartialAction(ODOMETER)
        rules = odometer_rules(k)
        depth = (k + 1) * max(1, abs(t))
        for w in words(depth):
            want = transport(rules, t, w)
            got_dom = a.stage(k).domain(-t).contains_word(w)
            if want is None:
                # the whole cylinder cannot sit inside the domain
                assert not got_dom or transport(rules, t, w) is not None
            else:
                assert got_dom
                assert a.stage(k).apply(t, Point(w, "0")).unroll(depth) == want

    @given(rules=st.one_of(length_preserving_rules(), mixed_length_rules()))
    @settings(max_examples=150, deadline=None)
    def test_powers_act_on_the_generators_cells_as_transport(self, rules):
        # the cells layer reads h_1 alone, at the depth D of its longest rule:
        # every h_t, |t| <= 4, must map each depth-D cell whole, as t steps of
        # h_1 (or -t steps of its inverse) do
        a = ZPartialAction(PrefixMap(tuple(rules)))
        depth = max((len(u) for u, _ in rules), default=0)
        for t in range(-4, 5):
            for w in words(depth):
                assert a.h(t).image_word(w) == transport(rules, t, w)


def deep_identity(k):
    return ZPartialAction(PrefixMap(tuple(deep_identity_rules(k))))


class TestAxioms:
    def test_identity_family_passes(self):
        rep = axioms_check({t: (FULL, IDENTITY) for t in range(-3, 4)})
        assert rep.ok and rep.bound == 3

    def test_flip_family_passes(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        rep = axioms_check(generated_family(a, 3))
        assert rep.ok

    def test_odometer_truncations_pass(self):
        a = ZPartialAction(ODOMETER)
        for k in range(3):
            rep = axioms_check(generated_family(a.stage(k), 4))
            assert rep.ok, rep.violations[:2]

    def test_wrong_base_set_is_reported(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        fam = generated_family(a, 2)
        fam[0] = (ClopenSet.parse("{0}"), IDENTITY)
        rep = axioms_check(fam)
        assert not rep.ok
        assert any(v.axiom == 1 for v in rep.violations)

    def test_wrong_power_is_reported(self):
        a = ZPartialAction(ODOMETER)
        fam = generated_family(a.stage(1), 2)
        x2, _ = fam[2]
        fam[2] = (x2, PrefixMap((("00", "00"), ("10", "10"))))
        rep = axioms_check(fam)
        assert not rep.ok
        assert {v.axiom for v in rep.violations} & {2, 3}

    def test_axiom2_violations_come_before_axiom3_ones(self):
        # one pass over (t, s) decides both axioms; an axiom-3 fault at
        # (-2, 2) precedes the axiom-2 fault at (2, -2) in that pass, yet is
        # reported after every axiom-2 violation
        a = ZPartialAction(ODOMETER)
        fam = generated_family(a.stage(1), 2)
        x2, _ = fam[2]
        fam[2] = (x2, PrefixMap((("00", "00"), ("10", "10"))))
        got = [(v.axiom, v.t, v.s) for v in axioms_check(fam).violations]
        assert got == [
            (1, 2, None),
            (2, 2, -2), (2, 2, -1), (2, 2, 0),
            (3, -2, 2), (3, -2, 2), (3, -1, 2), (3, -1, 2), (3, 1, 1), (3, 1, 1),
            (3, 2, -2), (3, 2, -2), (3, 2, -1), (3, 2, -1),
        ]

    def test_a_broken_family_serializes_each_violation(self):
        fam = generated_family(ZPartialAction(PrefixMap.parse("[0 -> 1]")), 1)
        fam[0] = (ClopenSet.parse("{0}"), IDENTITY)
        assert axioms_check(fam).to_json() == {"ok": False, "bound": 1, "violations": [
            {"axiom": 1, "t": 0, "s": None, "detail": "X_0 = {0}, expected full"},
            {"axiom": 1, "t": 0, "s": None,
             "detail": "dom(h_0) = {ε} differs from X_0 = {0}"},
            {"axiom": 1, "t": 0, "s": None,
             "detail": "ran(h_0) = {ε} differs from X_0 = {0}"},
            {"axiom": 2, "t": -1, "s": 0, "detail": "image {} differs from {0}"},
            {"axiom": 2, "t": 1, "s": -1, "detail": "image {1} differs from {}"},
        ]}

    def test_report_serializes(self):
        rep = axioms_check({t: (FULL, IDENTITY) for t in range(-1, 2)})
        out = rep.to_json()
        assert out["ok"] is True and out["violations"] == []

    def test_deep_identity_cuts_only_at_rule_boundaries(self):
        # refining [ε] to all depth-30 cells would test 2^30 of them
        rep = axioms_check(generated_family(deep_identity(30), 1))
        assert rep.ok and rep.bound == 1

    def test_wrong_power_on_deep_source_is_reported(self):
        fam = generated_family(deep_identity(30), 2)
        x2, _ = fam[2]
        # h_2 swaps [0^28 1] and [0^29 1], which neither 0^inf nor 1^inf
        # meets, and fixes everything else
        a, b = "0" * 28 + "1", "0" * 29 + "1"
        rules = [(u, u) for u in ("0" * i + "1" for i in range(28))]
        rules += [(a, b), (b, a), ("0" * 30, "0" * 30)]
        fam[2] = (x2, PrefixMap(tuple(rules)))
        rep = axioms_check(fam)
        assert rep.violations
        assert {v.axiom for v in rep.violations} == {3}

    def test_axiom3_names_the_cell_and_both_images(self):
        fam = {t: (FULL, IDENTITY) for t in range(-1, 2)}
        fam[1] = (FULL, PrefixMap((("0", ""),)))
        details = [v.detail for v in axioms_check(fam).violations if v.axiom == 3]
        assert sorted(details) == [
            "h_-1h_1[0] = ε but h_0[0] = 0",
            "h_-1h_1[1] = undefined but h_0[1] = 1",
            "h_0h_1[1] = undefined but h_1[1] = undefined",
            "h_1h_-1[0] = ε but h_0[0] = 0",
            "h_1h_-1[1] = undefined but h_0[1] = 1",
            "h_1h_0[1] = undefined but h_1[1] = undefined",
        ]

    @given(seed=st.integers(0, 10**6), redraw=st.sets(st.integers(-2, 2), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_axiom3_matches_brute_force_on_redrawn_powers(self, seed, redraw):
        # redrawn powers are arbitrary valid maps, length-changing ones too
        sampler = Sampler(seed)
        fam = generated_family(ZPartialAction(sampler.prefix_map()), 2)
        for t in sorted(redraw):
            fam[t] = (fam[t][0], sampler.prefix_map())
        got = {(v.t, v.s) for v in axioms_check(fam).violations if v.axiom == 3}
        plain = {t: (x.words, h.rules) for t, (x, h) in fam.items()}
        assert got == axiom3_failures(plain, 2)

    @given(
        seed=st.integers(0, 10**6),
        sets=st.dictionaries(st.integers(-2, 2), antichains, max_size=2),
        redraw=st.sets(st.integers(-2, 2), max_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_axiom2_matches_brute_force_on_redrawn_sets(self, seed, sets, redraw):
        # the tests above keep every X_t genuine; a redrawn X_t breaks the
        # family so that a meet read under the wrong pair of indices shows
        sampler = Sampler(seed)
        fam = generated_family(ZPartialAction(sampler.prefix_map()), 2)
        for t, ws in sets.items():
            fam[t] = (ClopenSet(tuple(ws)), fam[t][1])
        for t in redraw:
            fam[t] = (fam[t][0], sampler.prefix_map())
        got = {(v.t, v.s) for v in axioms_check(fam).violations if v.axiom == 2}
        plain = {t: (x.words, h.rules) for t, (x, h) in fam.items()}
        assert got == axiom2_failures(plain, 2)

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_each_meet_is_built_once(self, bound, monkeypatch):
        # X_i & X_j once per unordered pair {i, j}, |i|, |j| <= bound
        calls = []
        intersect = ClopenSet.intersect

        def counted(self, other):
            calls.append((self, other))
            return intersect(self, other)

        monkeypatch.setattr(ClopenSet, "intersect", counted)
        monkeypatch.setattr(ClopenSet, "__and__", counted)
        rep = axioms_check(generated_family(ZPartialAction(ODOMETER).stage(2), bound))
        assert rep.ok
        assert 0 < len(calls) <= (2 * bound + 1) * (2 * bound + 2) // 2

    @pytest.mark.parametrize("bound", [-1, True, 1.0])
    def test_family_bound_must_be_an_int_at_least_zero(self, bound):
        a = ZPartialAction(ODOMETER).stage(1)
        with pytest.raises(ParseError) as err:
            generated_family(a, bound)
        assert str(err.value) == f"a family bound needs an int >= 0, not {bound!r}"

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_prefix_maps_satisfy_axioms(self, seed):
        m = Sampler(seed).prefix_map()
        rep = axioms_check(generated_family(ZPartialAction(m), 3))
        assert rep.ok, rep.violations[:2]


class TestPullback:
    def test_moves_support_through_transport(self):
        a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
        f = indicator(ClopenSet.parse("{0}"), Scalar(3))
        # f lives on X_{-1} = [0]; f o h_{-1} sits on X_1
        g = compose_with_map(f, a.h(-1))
        assert g == indicator(ClopenSet.parse("{1}"), Scalar(3))
