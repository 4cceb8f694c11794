"""Stage exhaustions, inclusion witnesses, truncations, leveled diagrams."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorenv.cantor import ClopenSet, Point
from cantorenv.errors import (
    CapExceeded,
    EngineError,
    LevelRequired,
    NotInDomain,
    ParseError,
)
from cantorenv.filtration import (
    BratteliDiagram,
    BratteliLevel,
    Exhaustion,
    bratteli_build,
    default_schedule,
    export,
    inclusion_witness,
    truncated_relation,
)
from cantorenv import filtration
from cantorenv.action import ZPartialAction
from cantorenv.cells import CellPartition, adapted_depth, cell_partition
from cantorenv.cli import main
from cantorenv.envelope import GermPair, related
from cantorenv.prefix_map import ODOMETER, GeneratedMap, PrefixMap
from cantorenv.sampling import Sampler

from oracles import brute_diagram, brute_partition, odometer_rules, words
from strategies import mixed_length_rules
from test_readme import ROOT

ODO = ZPartialAction(ODOMETER)


class TestExhaustion:
    def test_default_counts_grow_by_one(self):
        ex = Exhaustion(ODOMETER)
        assert [ex.count(k) for k in range(4)] == [1, 2, 3, 4]

    def test_finite_enumeration_caps(self):
        g = GeneratedMap("rules", (("00", "01"), ("10", "11")))
        ex = Exhaustion(g)
        assert [ex.count(k) for k in range(4)] == [1, 2, 2, 2]

    def test_custom_counts(self):
        ex = Exhaustion(ODOMETER, (1, 1, 4))
        assert ex.count(1) == 1
        assert len(ex.stage(2).generator.rules) == 4
        with pytest.raises(LevelRequired):
            ex.count(3)

    def test_bad_counts_rejected(self):
        with pytest.raises(ParseError):
            Exhaustion(ODOMETER, (2, 1))
        with pytest.raises(ParseError):
            Exhaustion(ODOMETER, (0, 1))

    def test_union_sets_are_nested(self):
        ex = Exhaustion(ODOMETER)
        for k in range(4):
            assert ex.stage(k).domain(-1).subset_of(ex.stage(k + 1).domain(-1))

    def test_restrict_gives_clopen_action(self):
        a = ZPartialAction(ODOMETER).stage(1)
        assert a.clopen
        assert {u: v for u, v in a.h(1).rules} == {"0": "1", "10": "01"}


class TestInclusionWitness:
    def test_documented_instance(self):
        K = inclusion_witness(ODO, 2, Point.parse("(0)"), 0,
                              Point.parse("01(0)"))
        assert K == 1

    def test_deeper_carry_needs_later_stage(self):
        # moving 1110(0) forward uses carry rule 3
        K = inclusion_witness(ODO, 1, Point.parse("1110(0)"), 0,
                              Point.parse("0001(0)"))
        assert K == 3

    def test_cap_is_respected(self):
        with pytest.raises(CapExceeded):
            inclusion_witness(ODO, 1, Point.parse("1110(0)"), 0,
                              Point.parse("0001(0)"), cap=2)

    def test_unrelated_pair_raises(self):
        with pytest.raises(NotInDomain):
            inclusion_witness(ODO, 1, Point.parse("(0)"), 0,
                              Point.parse("(0)"))

    def test_custom_schedule_shifts_the_stage(self):
        ex = Exhaustion(ODOMETER, (4, 4, 4))
        K = inclusion_witness(ex, 1, Point.parse("1110(0)"), 0,
                              Point.parse("0001(0)"))
        assert K == 0

    @pytest.mark.parametrize("cap, message", [
        (-1, "an inclusion cap needs an int >= 0, not -1"),
        (True, "an inclusion cap needs an int >= 0, not True"),
        ("64", "an inclusion cap needs an int >= 0, not '64'"),
    ])
    def test_a_cap_that_is_no_int_at_least_0_is_refused(self, cap, message):
        # unguarded, cap=-1 would return stage 0
        with pytest.raises(ParseError) as err:
            inclusion_witness(ODO, 1, Point.parse("(0)"), 0, Point.parse("1(0)"), cap=cap)
        assert str(err.value) == message

    def test_a_clopen_action_is_refused(self):
        flip = ZPartialAction(PrefixMap.parse("[0 -> 1, 1 -> 0]"))
        with pytest.raises(ParseError) as err:
            inclusion_witness(flip, 1, Point.parse("(0)"), 0, Point.parse("1(0)"))
        assert str(err.value) == "inclusion witnesses need an open enumeration"

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_instances_verify_at_stage(self, seed):
        r, x, s, y, top = Sampler(seed).enumeration_instance()
        K = inclusion_witness(ODO, r, x, s, y)
        assert K <= top + 1
        a = ZPartialAction(ODOMETER)
        assert related(a.stage(K), GermPair(r, x), GermPair(s, y))


class TestTruncatedRelation:
    def test_shape_and_json(self, capsys):
        tr = truncated_relation(ODO, 1, 2, 2)
        assert type(tr) is CellPartition and (tr.n, tr.d) == (2, 2)
        assert len(tr.classes) == 8 and tr == cell_partition(ODO.stage(1), 2, 2)
        # the CLI adds the stage and the counts, in this key order
        argv = ["filtrate", str(ROOT / "systems" / "odometer.json"),
                "--level", "1", "--bound", "2", "--depth", "2"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["k", "n", "d", "classes", "count", "sizes"]
        assert out["k"] == 1 and out["count"] == 8
        assert out["classes"] == [[list(u) for u in cls] for cls in tr.classes]
        assert out["sizes"] == list(tr.sizes)

    def test_matches_brute_force(self):
        tr = truncated_relation(ODO, 1, 2, 2)
        assert tr.classes == brute_partition(odometer_rules(1), 2, 2)

    def test_related_units(self):
        tr = truncated_relation(ODO, 1, 2, 2)
        look = {u: i for i, cls in enumerate(tr.classes) for u in cls}
        assert look[(0, "00")] == look[(-1, "10")]
        assert look[(0, "00")] != look[(0, "01")]

    def test_monotone_in_all_three_parameters(self):
        # the split guard of bratteli_build: every refined copy of a class of
        # the coarse stage lies inside one class of the fine stage
        for k in range(3):
            for n in range(3):
                d1 = adapted_depth(ODO.stage(k), n)
                d2 = max(d1, adapted_depth(ODO.stage(k + 1), n + 1))
                diag = bratteli_build(ODO, ((k, n, d1), (k + 1, n + 1, d2)))
                count = len(truncated_relation(ODO, k, n, d1).classes)
                assert len(diag.edges) == count << (d2 - d1)

    def test_probe_rejects_non_refining_stages(self):
        # stage 2 does not refine into stage 1: the pair is refused before
        # any class is compared
        with pytest.raises(ParseError) as err:
            bratteli_build(ODO, ((2, 2, 2), (1, 3, 3)))
        assert str(err.value) == "schedule steps backwards from (2, 2, 2) to (1, 3, 3)"


class DroppingStages:
    """Stage 0 glues (r, 1x) to (r + 1, 0x) by the flip 0 -> 1; stage 1
    glues nothing.  The fine stage drops a gluing the coarse one has, so the
    stages are no filtration and a refined copy of a class splits."""

    def stage(self, k):
        return ZPartialAction(PrefixMap((("0", "1"),) if k == 0 else ()))


class TestBratteli:
    def test_default_schedule(self):
        assert default_schedule(ODO, 3) == ((0, 1, 1), (1, 2, 2), (2, 3, 3))

    @pytest.mark.parametrize("levels, message", [
        (0, "a level count needs an int >= 1, not 0"),
        (True, "a level count needs an int >= 1, not True"),
        (2.0, "a level count needs an int >= 1, not 2.0"),
    ])
    def test_a_level_count_that_is_no_int_at_least_1_is_refused(self, levels, message):
        # levels=0 would give the empty schedule, and an empty diagram
        with pytest.raises(ParseError) as err:
            default_schedule(ODO, levels)
        assert str(err.value) == message

    @given(
        rules=mixed_length_rules().filter(bool).flatmap(st.permutations),
        counts=st.none()
        | st.lists(st.integers(1, 8), min_size=1, max_size=6).map(sorted),
    )
    @settings(max_examples=80, deadline=None)
    def test_default_schedule_depth_is_the_longest_kept_rule(self, rules, counts):
        # stage m keeps the first count(m) rules and counts never decrease,
        # so neither do the depths
        a = ZPartialAction(GeneratedMap("rules", tuple(rules)), counts)
        levels = 6 if counts is None else len(counts)
        kept = counts or [min(m + 1, len(rules)) for m in range(levels)]
        sched = default_schedule(a, levels)
        depths = [d for _, _, d in sched]
        assert depths == sorted(depths)
        assert [(k, n) for k, n, _ in sched] == [(m, m + 1) for m in range(levels)]
        assert depths == [max(len(u) for u, _ in rules[:c]) for c in kept]

    def test_default_schedule_on_the_odometer(self):
        depths = [d for _, _, d in default_schedule(ODO, 8)]
        assert depths == sorted(depths)
        longest = [max(len(ODOMETER.rule(i)[0]) for i in range(m + 1)) for m in range(8)]
        assert depths == longest

    def test_vertex_sizes_and_dimension_identity(self):
        diag = bratteli_build(ODO, default_schedule(ODO, 3))
        for prev, cur in zip(diag.levels, diag.levels[1:]):
            for j, vert in enumerate(cur.vertices):
                _, size, fresh = vert
                inflow = sum(
                    mult * prev.vertices[i][1]
                    for (m, i, jj, mult) in diag.edges
                    if m == prev.m and jj == j
                )
                assert size == inflow + fresh

    def test_level_zero_is_all_fresh(self):
        diag = bratteli_build(ODO, default_schedule(ODO, 2))
        for _, size, fresh in diag.levels[0].vertices:
            assert size == fresh

    def test_schedule_must_be_nondecreasing(self):
        # a stage, a slot bound and a depth step back, after a first step
        # that does not; the message names the backward step
        for prev, cur in (((1, 2, 2), (0, 3, 3)), ((0, 2, 2), (1, 1, 3)),
                          ((0, 1, 2), (0, 1, 1))):
            with pytest.raises(ParseError) as err:
                bratteli_build(ODO, ((0, 0, 0), prev, cur))
            assert str(err.value) == f"schedule steps backwards from {prev} to {cur}"

    @pytest.mark.parametrize("bad", [(0, True, 1), (1.5, 2, 2), (0, 1, 1.0)])
    def test_a_schedule_row_that_is_no_ints_is_refused(self, bad):
        # the bad row is the first or the second; each named as given
        rows = ((0, 1, 1), bad) if bad[0] else (bad, (1, 2, 2))
        with pytest.raises(ParseError) as err:
            bratteli_build(ZPartialAction(ODOMETER), rows)
        assert str(err.value) == f"a schedule row needs ints k, n and d, not {bad!r}"

    def test_an_empty_schedule_is_refused(self):
        # unguarded, it would return a diagram with no levels
        with pytest.raises(ParseError) as err:
            bratteli_build(ODO, ())
        assert str(err.value) == "a Bratteli schedule needs at least one row"

    def test_split_guard_rejects_a_stage_that_drops_a_gluing(self):
        a = DroppingStages()
        # classes 1 and 2, ((-1, '1'), (0, '0')) and ((0, '1'), (1, '0')),
        # split; the guard names the least
        with pytest.raises(EngineError) as err:
            bratteli_build(a, ((0, 1, 1), (1, 1, 1)))
        assert str(err.value) == "refined copy of class 1 splits across fine classes"

    def test_dimension_identity_fires_on_a_table_out_of_id_order(self, monkeypatch):
        # Stage 1 meets id 1 before id 0, so its Counter-ordered sizes give
        # vertex 0 the two cells of id 1, while vertex 0 receives one unit
        # (the copy of the coarse class) and has no fresh unit.  The split
        # guard passes: the one coarse class is copied whole.
        tables = {0: (1, [0]), 1: (2, [1, 0, 1])}
        monkeypatch.setattr(filtration, "class_table", lambda k, n, d: tables[k])

        class Stages:
            def stage(self, k):
                return k

        with pytest.raises(EngineError) as err:
            bratteli_build(Stages(), ((0, 0, 0), (1, 1, 0)))
        assert str(err.value) == (
            "dimension identity fails at level 1 vertex 0: 2 != 1 + 0"
        )

    def test_json_roundtrip_and_determinism(self):
        sched = default_schedule(ODO, 4)
        diag = bratteli_build(ODO, sched)
        one = export(diag, "json")
        two = export(bratteli_build(ODO, sched), "json")
        assert one == two
        assert json.loads(one) == diagram_object(diag)

    def test_json_schema(self):
        diag = bratteli_build(ODO, default_schedule(ODO, 2))
        obj = json.loads(export(diag, "json"))
        assert set(obj) == {"levels", "edges"}
        lv = obj["levels"][0]
        assert set(lv) == {"m", "params", "vertices"}
        assert set(lv["params"]) == {"k", "n", "d"}
        assert set(lv["vertices"][0]) == {"id", "size", "fresh"}
        e = obj["edges"][0]
        assert set(e) == {"from", "to", "mult"}

    def test_dot_output(self):
        diag = bratteli_build(ODO, default_schedule(ODO, 2))
        assert export(diag, "dot") == (
            'digraph bratteli {\n'
            '  rankdir=TB;\n'
            '  { rank=same; L0_0 [label="1"]; L0_1 [label="2"]; L0_2 [label="2"];'
            ' L0_3 [label="1"]; }\n'
            '  { rank=same; L1_0 [label="1"]; L1_1 [label="3"]; L1_2 [label="2"];'
            ' L1_3 [label="4"]; L1_4 [label="4"]; L1_5 [label="3"]; L1_6 [label="2"];'
            ' L1_7 [label="1"]; }\n'
            '  L0_0 -> L1_2 [label="1"];\n'
            '  L0_0 -> L1_3 [label="1"];\n'
            '  L0_1 -> L1_1 [label="1"];\n'
            '  L0_1 -> L1_4 [label="1"];\n'
            '  L0_2 -> L1_3 [label="1"];\n'
            '  L0_2 -> L1_5 [label="1"];\n'
            '  L0_3 -> L1_4 [label="1"];\n'
            '  L0_3 -> L1_6 [label="1"];\n'
            '}\n'
        )

    @pytest.mark.parametrize("levels, digest", [
        (4, "bea8969d57701f02402c1004c4fe5eea5e4d1332f89ed0c4ca804741fa865105"),
        (5, "5107bf05639ac5438eda21f94f8611990e21e4337d4a56c362eec688e8d4257c"),
        (6, "3073d6bd4db47427221d05e5014d3c1c46c8a8d21e0e8a4cf261a1070e70f0e1"),
        (7, "390062e869c0ed9324f54cbf00d773a19004108def1aa0c9f5f7c8f3d0cf7d75"),
        (8, "b7dbcf01348d331bd31d52d14e21f7f0b7de7d802d1a9dc5dbcfa11ff9ce888e"),
    ])
    def test_odometer_diagram_bytes(self, levels, digest):
        diag = bratteli_build(ODO, default_schedule(ODO, levels))
        text = export(diag, "json") + export(diag, "dot")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_export_rejects_unknown_format(self):
        diag = bratteli_build(ODO, default_schedule(ODO, 1))
        with pytest.raises(ParseError):
            export(diag, "svg")

    def test_finite_enumeration_diagram(self):
        g = ZPartialAction(GeneratedMap("rules", (("0", "1"),)))
        diag = bratteli_build(g, default_schedule(g, 2))
        assert len(diag.levels) == 2
        assert [v[1] for v in diag.levels[0].vertices] == [1, 2, 2, 1]


def diagram_object(d):
    return {
        "levels": [
            {"m": lv.m, "params": {"k": lv.k, "n": lv.n, "d": lv.d},
             "vertices": [{"id": i, "size": size, "fresh": fresh}
                          for i, size, fresh in lv.vertices]}
            for lv in d.levels
        ],
        "edges": [{"from": [m, i], "to": [m + 1, j], "mult": c}
                  for m, i, j, c in d.edges],
    }


ints = st.integers(-10**6, 10**12)
diagrams = st.builds(
    BratteliDiagram,
    st.lists(st.builds(BratteliLevel, ints, ints, ints, ints,
                       st.lists(st.tuples(ints, ints, ints), max_size=4).map(tuple)),
             max_size=3).map(tuple),
    st.lists(st.tuples(ints, ints, ints, ints), max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(diagrams)
@example(BratteliDiagram((), ()))
@example(BratteliDiagram((BratteliLevel(0, 0, 1, 1, ()),), ()))
@example(BratteliDiagram((BratteliLevel(12, 345, 6789, 10, ((0, 11, 2),)),),
                         ((0, 1, 2, 30),)))
def test_json_layout_is_json_dumps(d):
    text = export(d, "json")
    assert text == json.dumps(diagram_object(d), indent=2) + "\n"
    assert json.loads(text) == diagram_object(d)


def dot_of(d):
    """The DOT text of a diagram, rendered here with % and str alone."""
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for lv in d.levels:
        nodes = ['L%s_%s [label="%s"];' % (lv.m, vid, size) for vid, size, _ in lv.vertices]
        lines.append("  { rank=same; " + " ".join(nodes) + " }")
    for m, i, j, c in d.edges:
        lines.append('  L%s_%s -> L%s_%s [label="%s"];' % (m, i, m + 1, j, c))
    return "\n".join(lines) + "\n}\n"


# each example defeats one careless name table: a list wraps a negative id
# onto another name; a table sized by the vertex count misses a larger size;
# one sized by the largest value would hold 10^12 names; one filled from the
# levels misses an edge's m + 1 past the last level
@settings(max_examples=200, deadline=None)
@given(diagrams)
@example(BratteliDiagram((BratteliLevel(0, 0, 1, 1, ((-1, 2, 2), (0, 1, 1))),),
                         ((0, -1, -3, 1),)))
@example(BratteliDiagram((BratteliLevel(0, 0, 5, 0, ((0, 11, 11),)),), ()))
@example(BratteliDiagram((BratteliLevel(0, 0, 1, 1, ((0, 1, 1), (1, 2, 2))),),
                         ((0, 1, 0, 10**12),)))
@example(BratteliDiagram((BratteliLevel(0, 0, 1, 1, ((0, 3, 3),)),),
                         ((4, 0, 0, 1),)))
def test_dot_layout_matches_an_independent_renderer(d):
    assert export(d, "dot") == dot_of(d)


@st.composite
def finite_towers(draw):
    """A finite length-preserving enumeration and a schedule of 2-3 stages."""
    depth = draw(st.integers(2, 3))
    pool = words(depth)
    sources = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    rules = list(zip(sources, draw(st.permutations(pool))))
    size = draw(st.integers(2, 3))

    def rising(lo, hi):
        return sorted(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)))

    schedule = tuple(zip(rising(0, 3), rising(0, 2), rising(depth, depth + 2)))
    return rules, schedule


@settings(max_examples=150, deadline=None)
@given(finite_towers())
def test_finite_enumeration_diagram_matches_brute_force(tower):
    rules, schedule = tower
    a = ZPartialAction(GeneratedMap("rules", tuple(rules)))
    diag = bratteli_build(a, schedule)
    assert json.loads(export(diag, "json")) == brute_diagram(
        lambda k: rules[: k + 1], schedule
    )
