"""Germ relation, Hausdorff certificates, etale structure, arrow algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv.cantor import ClopenSet, Point, common_prefix_length
from cantorenv.envelope import (
    GermPair,
    etale_probe,
    groupoid_probe,
    hausdorff_decide,
    nonseparable_pair,
    related,
)
from cantorenv.action import ZPartialAction, germ_index, transport_index
from cantorenv.cells import cell_partition
from cantorenv.errors import (
    BaseNotInDomain,
    LevelRequired,
    NoWitness,
)
from cantorenv.prefix_map import IDENTITY, ODOMETER, PrefixMap
from cantorenv.sampling import Sampler

from oracles import (
    cells_covered,
    deep_identity_rules,
    image_cells,
    odometer_rules,
    transport,
)

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

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_probe_finds_no_defect(self, seed):
        s = Sampler(seed)
        assert groupoid_probe(ODO.stage(2), s.arrow_triples(ODO.stage(2), 5)).ok

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


class TestEtale:
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
        for a in (FLIP, ODO.stage(1)):
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
    def test_probe_rejects_unshared_germs(self):
        # ([2, x], [1, h_1 x]) is an arrow, but it does not compose with itself
        x = Point.parse("00(0)")
        z = (GermPair(2, x), GermPair(1, ODO.stage(1).apply(1, x)))
        assert related(ODO.stage(1), *z)
        rep = groupoid_probe(ODO.stage(1), [(z, z, z)])
        assert rep.checked == 1
        assert rep.violations == (
            f"sample chain {z}, {z}, {z} is not composable",
        )

    def test_probe_rejects_arrows_of_a_later_stage(self):
        triples = Sampler(5).arrow_triples(ODO.stage(1), 25)
        assert groupoid_probe(ODO.stage(1), triples).ok
        rep = groupoid_probe(ODO.stage(0), triples)
        assert not rep.ok and rep.checked == 25
        assert any("is not an arrow" in v for v in rep.violations)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_probe_on_sampled_arrows(self, seed):
        triples = Sampler(seed).arrow_triples(ODO.stage(1), 25)
        rep = groupoid_probe(ODO.stage(1), triples)
        assert rep.ok, rep.violations[:2]
        assert rep.checked == 25


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
