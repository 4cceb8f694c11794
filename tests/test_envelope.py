"""Germ relation, Hausdorff certificates, etale structure, arrow algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv.cantor import ClopenSet, Point, common_prefix_length
from cantorenv.envelope import (
    GermPair,
    etale_probe,
    hausdorff_decide,
    nonseparable_pair,
    related,
)
from cantorenv.action import ZPartialAction, germ_index, transport_index
from cantorenv.cells import adapted_depth, cell_partition
from cantorenv.errors import (
    BaseNotInDomain,
    LevelRequired,
    NoWitness,
    ParseError,
)
from cantorenv.prefix_map import IDENTITY, ODOMETER, PrefixMap
from cantorenv.sampling import Sampler

from germ_windows import window_failures, windows_failures
from oracles import (
    brute_partition,
    cells_covered,
    deep_identity_rules,
    image_cells,
    odometer_rules,
    transport,
)
from strategies import length_preserving_rules

FLIP = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
ODO = ZPartialAction(ODOMETER)


class TestRelated:
    def test_odometer_examples(self):
        assert related(ODO.stage(0), GermPair(1, Point.parse("(0)")),
                       GermPair(0, Point.parse("1(0)")))
        assert not related(ODO.stage(0), GermPair(0, Point.parse("(0)")),
                           GermPair(1, Point.parse("(0)")))

    def test_same_slot_means_equal_points(self):
        x = Point.parse("01(0)")
        assert related(FLIP, GermPair(2, x), GermPair(2, x))
        assert not related(FLIP, GermPair(2, x), GermPair(2, Point.parse("(1)")))

    def test_relation_grows_with_level(self):
        p = GermPair(2, Point.parse("(0)"))
        q = GermPair(0, Point.parse("01(0)"))
        assert not related(ODO.stage(0), p, q)
        assert related(ODO.stage(1), p, q)

    @given(rules=length_preserving_rules(), extra=st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_probe_finds_no_defect(self, rules, extra):
        # the window check of TestArrows on random partial injections
        a = ZPartialAction(PrefixMap(tuple(rules)))
        _, bad = window_failures(a, rules, 1, adapted_depth(a, 1) + extra)
        assert not bad, bad[:2]

    def test_probe_str_output(self):
        assert str(GermPair(1, Point.parse("(0)"))) == "[1, (0)]"


class TestHausdorff:
    def test_flip_is_clopen_with_domains(self):
        cert = hausdorff_decide(FLIP, bound=4)
        assert cert.verdict == "clopen"
        dd = dict(cert.domains)
        assert dd[-1] == ClopenSet.parse("{0}")
        assert dd[0] == ClopenSet.parse("{ε}")
        assert dd[1] == ClopenSet.parse("{1}")
        for t in (-4, -3, -2, 2, 3, 4):
            assert dd[t].is_empty()

    def test_finite_enumeration_is_clopen(self):
        from cantorenv.prefix_map import GeneratedMap
        g = GeneratedMap("rules", (("0", "1"),))
        cert = hausdorff_decide(ZPartialAction(g), bound=2)
        assert cert.verdict == "clopen"

    @pytest.mark.parametrize("kwargs, message", [
        ({"bound": -1}, "a Hausdorff bound needs an int >= 0, not -1"),
        ({"bound": True}, "a Hausdorff bound needs an int >= 0, not True"),
        ({"depth": -1}, "a Hausdorff depth needs an int >= 0, not -1"),
        ({"depth": 2.0}, "a Hausdorff depth needs an int >= 0, not 2.0"),
    ])
    def test_a_bound_or_depth_that_is_no_int_at_least_0_is_refused(self, kwargs, message):
        # bound=-1 would certify "clopen" with no domains at all
        for a in (FLIP, ODO):
            with pytest.raises(ParseError) as err:
                hausdorff_decide(a, **kwargs)
            assert str(err.value) == message

    def test_odometer_witness(self):
        cert = hausdorff_decide(ODO, bound=4, depth=10)
        assert cert.verdict == "non-clopen-witness"
        assert cert.t == -1
        assert cert.point == Point.parse("(1)")
        # independent check: (1) never matches a carry rule at any level
        for k in range(10):
            assert transport(odometer_rules(k), 1, "1" * (k + 2)) is None

    def test_depth_zero_is_unknown(self):
        # U_0 is the one cylinder [0], so no residual chain shrinks yet
        cert = hausdorff_decide(ZPartialAction(ODOMETER), depth=0)
        assert cert.verdict == "unknown"
        assert cert.to_json() == {"verdict": "unknown", "depth": 0}

    def test_witness_json_shape(self):
        out = hausdorff_decide(ODO, bound=4, depth=10).to_json()
        assert out["verdict"] == "non-clopen-witness"
        assert out["point"] == "(1)"

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_clopen_actions_certify(self, seed):
        a = ZPartialAction(Sampler(seed).prefix_map())
        cert = hausdorff_decide(a, bound=5)
        assert cert.verdict == "clopen"
        for t, xt in cert.domains:
            assert xt == a.domain(t)


class TestNonSeparablePair:
    def test_odometer_pair_structure(self):
        pair = nonseparable_pair(ODO, -1, depth=8)
        first, second = pair.first, pair.second
        assert (first.index, second.index) == (1, 0)
        # never related at any truncation we can afford to try
        for k in range(6):
            assert not related(ODO.stage(k), first, second)
        # the approach converges to the pair and is related all the way
        for j, (xj, yj) in enumerate(pair.approach):
            assert related(ODO.stage(8), GermPair(first.index, xj),
                           GermPair(second.index, yj))
            assert common_prefix_length(xj, first.point, j) == j
            assert common_prefix_length(yj, second.point, j) == j

    def test_inverted_direction(self):
        pair = nonseparable_pair(ODO, 1, depth=6)
        assert (pair.first.index, pair.second.index) == (-1, 0)
        for k in range(5):
            assert not related(ODO.stage(k), pair.first, pair.second)

    @pytest.mark.parametrize("depth", [2, 5, 8])
    def test_positive_side_reads_the_same_action(self, depth):
        pair = nonseparable_pair(ODO, 1, depth)
        assert (str(pair.first.point), str(pair.second.point)) == ("(0)", "(1)")
        rules = odometer_rules(depth)
        n = depth + 2  # deeper than every source and target of stage depth
        for xj, yj in pair.approach:
            assert transport(rules, -1, xj.unroll(n)) == yj.unroll(n)

    @pytest.mark.parametrize("t", [-1, 1])
    def test_schedule_leaves_the_pair_unchanged(self, t):
        scheduled = ZPartialAction(ODOMETER, (1, 2, 4))
        assert nonseparable_pair(scheduled, t, 6) == nonseparable_pair(ODO, t, 6)

    def test_clopen_action_has_no_witness(self):
        with pytest.raises(NoWitness):
            nonseparable_pair(FLIP, -1, depth=6)

    def test_only_unit_shifts_are_probed(self):
        with pytest.raises(NoWitness):
            nonseparable_pair(ODO, 2, depth=6)

    @pytest.mark.parametrize("depth, message", [
        (True, "a witness depth needs an int >= 0, not True"),
        (-1, "a witness depth needs an int >= 0, not -1"),
        (2.0, "a witness depth needs an int >= 0, not 2.0"),
    ])
    def test_a_depth_that_is_no_int_at_least_0_is_refused(self, depth, message):
        # unguarded, depth=True would give the depth-1 pair and -1 a NoWitness
        with pytest.raises(ParseError) as err:
            nonseparable_pair(ODO, -1, depth=depth)
        assert str(err.value) == message

    @pytest.mark.parametrize("t, message", [
        (1.0, "a witness index t needs an int, not 1.0"),
        (-1.0, "a witness index t needs an int, not -1.0"),
        (True, "a witness index t needs an int, not True"),
        ("1", "a witness index t needs an int, not '1'"),
    ])
    def test_an_index_that_is_no_int_is_refused(self, t, message):
        # unguarded, a float raised a bare TypeError on cold caches and -1.0
        # gave a pair with a float index on warm ones; True ran as 1, and "1"
        # was told NoWitness
        with pytest.raises(ParseError) as err:
            nonseparable_pair(ODO, t, depth=6)
        assert str(err.value) == message

    def test_the_pair_is_the_same_at_every_depth(self):
        # both limits pass the soundness check at every depth that has a
        # residual chain, so the odometer's pair never moves
        for depth in range(1, 12):
            for t, x, y in ((-1, "(1)", "(0)"), (1, "(0)", "(1)")):
                pair = nonseparable_pair(ODO, t, depth)
                assert (str(pair.first.point), str(pair.second.point)) == (x, y)


class TestEtale:
    @pytest.mark.parametrize("t, s, message", [
        ("1", 0, "etale slots t and s need ints, not '1' and 0"),
        (0, "1", "etale slots t and s need ints, not 0 and '1'"),
        (1, True, "etale slots t and s need ints, not 1 and True"),
    ])
    def test_a_slot_that_is_no_int_is_refused(self, t, s, message):
        # unguarded, a text slot would raise a bare TypeError
        with pytest.raises(ParseError) as err:
            etale_probe(FLIP, t, s, ClopenSet.parse("{0}"))
        assert str(err.value) == message

    def test_flip_generator_open(self):
        rep = etale_probe(FLIP, 1, 0, ClopenSet.parse("{0}"))
        assert rep.ok
        assert rep.image == ClopenSet.parse("{1}")
        assert rep.diagonal is False

    def test_diagonal_open_fixes_base(self):
        rep = etale_probe(FLIP, 1, 1, ClopenSet.parse("{01}"))
        assert rep.ok and rep.diagonal

    def test_base_must_sit_in_germ_set(self):
        with pytest.raises(BaseNotInDomain):
            etale_probe(FLIP, 1, 0, ClopenSet.parse("{1}"))

    def test_all_small_opens(self):
        # the cycle [0] -> [11] -> [10] -> [0] moves the cells 0, 10, 11 of
        # [ε] to 11, 0, 10, whose merge cascades: 10 and 11 to 1, then 0
        # and 1 to ε, inside one step of the sibling pass
        cycle = ZPartialAction(PrefixMap.parse("[0 -> 11, 10 -> 0, 11 -> 10]"))
        for a in (FLIP, ODO.stage(1), cycle):
            for t in range(-2, 3):
                for s in range(-2, 3):
                    base = a.domain(germ_index(t, s))
                    if base.is_empty():
                        continue
                    assert etale_probe(a, t, s, base).ok

    def test_deep_identity_cuts_only_at_rule_boundaries(self):
        # refining [ε] to all depth-30 cells would list 2^30 words
        a = ZPartialAction(PrefixMap(tuple(deep_identity_rules(30))))
        rep = etale_probe(a, 1, 0, a.domain(germ_index(1, 0)))
        assert rep.ok and rep.base == rep.image == ClopenSet.parse("{ε}")

    @given(seed=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bases_above_rule_boundaries(self, seed, data):
        a = ZPartialAction(Sampler(seed).prefix_map())
        t, s = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        germs = a.domain(germ_index(t, s)).words
        # merged germ words lie above the rule sources they cover
        picked = data.draw(st.sets(st.sampled_from(germs))) if germs else ()
        base = ClopenSet(tuple(picked))
        rules = a.h(transport_index(t, s)).rules
        d = max(base.max_depth(), max((len(u) for u, _ in rules), default=0))
        rep = etale_probe(a, t, s, base)
        assert rep.ok
        want = image_cells(rules, base.words, d)
        deep = d + max((len(v) for _, v in rules), default=0)
        assert cells_covered(rep.image.words, deep) == cells_covered(want, deep)


class TestEtaleViolations:
    """Each check fires on its own broken datum.  `ZPartialAction` rejects
    invalid generators, so the broken data go into a flip action's caches."""

    @staticmethod
    def flip():
        return ZPartialAction(PrefixMap.parse("[0 -> 1]"))

    def test_overlapping_images_are_not_injective(self):
        # h_1 sends both [0] and [1] into [1]; its images 1 and 10 overlap
        # though they are distinct words
        a = self.flip()
        a._powers[1] = PrefixMap._canonical((("0", "1"), ("1", "1")))
        rep = etale_probe(a, 1, 0, ClopenSet.parse("{00,01,10}"))
        assert not rep.ok
        assert "transport is not injective on cells" in rep.violations

    def test_images_outside_the_range_domain(self):
        a = self.flip()
        a._domains[1] = ClopenSet(("0",))
        rep = etale_probe(a, 1, 0, ClopenSet.parse("{0}"))
        assert rep.violations == ("cell images leave X_1",)

    def test_inverse_power_must_pull_back(self):
        a = self.flip()
        a._powers[-1] = IDENTITY
        rep = etale_probe(a, 1, 0, ClopenSet.parse("{0}"))
        assert rep.violations == ("source fibers do not pull back to the base",)

    def test_diagonal_block_must_fix_its_base(self):
        a = self.flip()
        a.domain(0)  # X_0 stays the full space
        a._powers[0] = a.h(1)
        rep = etale_probe(a, 1, 1, ClopenSet.parse("{0}"))
        assert not rep.ok and rep.diagonal
        assert "diagonal block moved its base" in rep.violations

    def test_unmapped_cell_is_a_violation(self):
        a = self.flip()
        a._domains[-1] = ClopenSet.parse("{ε}")
        rep = etale_probe(a, 1, 0, ClopenSet.parse("{0,1}"))
        assert rep.image == ClopenSet.parse("{1}")
        assert rep.violations == ("h_1 does not map the cell 1",)


class TestArrows:
    """The groupoid laws, as the agreement of `related` with the brute-force
    classes on every ordered cell pair of a window (tests/germ_windows.py)."""

    def test_related_is_the_oracle_relation_on_every_cell_pair(self):
        checked, bad = windows_failures()
        assert not bad, bad[:2]
        assert checked == 59_330

    def test_probe_rejects_arrows_of_a_later_stage(self):
        # stage 1 glues (1, 10) to (0, 01), which stage 0 keeps apart: each
        # stage's relation, checked against the other stage's classes, fails
        # on exactly the pairs that the two partitions tell apart
        owner = [{c: i for i, cls in enumerate(brute_partition(odometer_rules(k), 1, 2))
                  for c in cls} for k in (0, 1)]
        cells = sorted(owner[0])
        split = sum((owner[0][p] == owner[0][q]) != (owner[1][p] == owner[1][q])
                    for p in cells for q in cells)
        assert split == 8
        for k in (0, 1):
            checked, bad = window_failures(ODO.stage(k), odometer_rules(1 - k), 1, 2)
            assert checked == 144 and len(bad) == split


class TestQuotient:
    def test_flip_quotient_classes(self):
        part = cell_partition(FLIP, 1, 1)
        assert part.classes == (
            ((-1, "0"),),
            ((-1, "1"), (0, "0")),
            ((0, "1"), (1, "0")),
            ((1, "1"),),
        )

    def test_generated_map_needs_truncation_first(self):
        with pytest.raises(LevelRequired):
            cell_partition(ODO, 1, 1)

    def test_truncated_quotient_works(self):
        part = cell_partition(ODO.stage(1), 2, 2)
        assert sorted(part.sizes) == [1, 1, 2, 2, 3, 3, 4, 4]
