"""Cell partitions and class tables: the guard on the gluing sets and the
brute-force oracle.

`cell_partition` and `class_table` share the budget check and the guard, so
every guard and budget test runs both entry points.  The classes of a real
action are decided from the orbits of h_1 once its tables pass the
certificate of `cells._rows`; only doubles whose tables are no powers of one
injective step reach the rows path (`cells._glued_rows`), and the tests
below check both sides of that split.
"""

import ast
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv import cells
from cantorenv.action import ZPartialAction
from cantorenv.cells import CELL_BUDGET, adapted_depth, cell_partition, class_table
from cantorenv.errors import CapExceeded, EngineError
from cantorenv.filtration import default_schedule
from cantorenv.prefix_map import IDENTITY, ODOMETER, PrefixMap

from oracles import brute_partition, step, words


class InconsistentPowers:
    """h(1) swaps 0 and 1 while every other power is the identity.

    h(-1) is then no inverse of h(1), so the one-step gluing is not an
    equivalence and no partition of the cells exists.
    """

    def h(self, t):
        return PrefixMap.parse("[0->1, 1->0]") if t == 1 else IDENTITY

    def domain(self, t):
        return self.h(t).image()


ENTRY_POINTS = (cell_partition, class_table)


def class_ids(classes, n, d):
    """Each cell's class index, at its slot-major index (t + n)*2^d + int(w, 2)."""
    ids = [None] * ((2 * n + 1) << d)
    for i, cls in enumerate(classes):
        for t, w in cls:
            ids[(t + n) << d | int("0" + w, 2)] = i
    return ids


def test_guard_rejects_inconsistent_powers():
    for entry in ENTRY_POINTS:
        with pytest.raises(EngineError):
            entry(InconsistentPowers(), 1, 1)


@pytest.mark.parametrize("d", [1, 3])
def test_guard_names_the_zero_suffix_copies_below_the_adapted_depth(d):
    # the adapted depth is 1; deeper, the named cells get d - 1 zeros appended
    pad = "0" * (d - 1)
    named = f"(0, '0{pad}') is glued to (-1, '0{pad}')"
    for entry in ENTRY_POINTS:
        with pytest.raises(EngineError, match=re.escape(named)):
            entry(InconsistentPowers(), 1, d)


@st.composite
def length_preserving_rules(draw, lengths=st.integers(1, 3)):
    """A partial injection between words of one length, as rewrite rules."""
    pool = words(draw(lengths))
    sources = draw(st.lists(st.sampled_from(pool), unique=True))
    targets = draw(st.permutations(pool))
    return list(zip(sources, targets))


@settings(max_examples=300, deadline=None)
@given(length_preserving_rules(), st.sampled_from([1, 2]), st.integers(0, 1))
def test_partition_matches_brute_force(rules, n, extra):
    a = ZPartialAction(PrefixMap(tuple(rules)))
    d = adapted_depth(a, n) + extra
    classes = brute_partition(rules, n, d)
    assert cell_partition(a, n, d).classes == classes
    assert class_table(a, n, d) == (len(classes), class_ids(classes, n, d))


@settings(max_examples=300, deadline=None)
@given(length_preserving_rules(), st.sampled_from([1, 2]), st.integers(0, 4))
def test_deep_classes_are_suffix_copies_of_the_adapted_classes(rules, n, extra):
    a = ZPartialAction(PrefixMap(tuple(rules)))
    d0 = adapted_depth(a, n)
    classes = cell_partition(a, n, d0 + extra).classes
    copies = tuple(tuple((t, w + z) for t, w in cls)
                   for cls in cell_partition(a, n, d0).classes for z in words(extra))
    assert classes == copies
    if extra <= 2:
        assert classes == brute_partition(rules, n, d0 + extra)
    count, ids = class_table(a, n, d0 + extra)
    assert count == len(classes)
    assert ids == class_ids(classes, n, d0 + extra)


class Family:
    """Each h_t, t != 0, given by its own rules; h_0 is the identity."""

    def __init__(self, rules_of):
        self.rules_of = rules_of

    def h(self, t):
        return PrefixMap(tuple(self.rules_of[t])) if t else IDENTITY


@st.composite
def families(draw):
    """Powers of one partial injection with up to three h_t redrawn at will.

    A redrawn h_t is an arbitrary partial injection, possibly on the empty
    word, so the family is in general no set of powers of one map.
    """
    n = draw(st.sampled_from([1, 2]))
    lengths = st.integers(0, 3)
    a = ZPartialAction(PrefixMap(tuple(draw(length_preserving_rules(lengths)))))
    rules_of = {t: a.h(t).rules for t in range(-2 * n, 2 * n + 1) if t}
    for t in draw(st.lists(st.sampled_from(sorted(rules_of)), unique=True, max_size=3)):
        rules_of[t] = draw(length_preserving_rules(lengths))
    d = draw(st.integers(adapted_depth(Family(rules_of), n), 3))
    return rules_of, n, d


CELL = r"\(-?\d+, '[01]*'\)"


@settings(max_examples=300, deadline=None)
@given(families())
def test_guard_fails_exactly_when_a_gluing_set_differs_from_its_class(family):
    rules_of, n, d = family
    slots = range(-n, n + 1)
    glue = {}
    for r in slots:
        for w in words(d):
            images = ((s, step(rules_of[r - s], w)) for s in slots if s != r)
            members = {(s, v) for s, v in images if v is not None}
            glue[r, w] = frozenset({(r, w), *members})
    broken = {(x, c) for c, g in glue.items() for x in g if glue[x] != g}
    if broken:
        for entry in ENTRY_POINTS:
            with pytest.raises(EngineError) as err:
                entry(Family(rules_of), n, d)
            named = re.search(f"({CELL}) is glued to ({CELL})", str(err.value))
            assert named, str(err.value)
            assert tuple(map(ast.literal_eval, named.groups())) in broken
    else:
        classes = cell_partition(Family(rules_of), n, d).classes
        assert classes == brute_partition(rules_of, n, d)
        assert classes == tuple(sorted(tuple(sorted(g)) for g in set(glue.values())))
        count, ids = class_table(Family(rules_of), n, d)
        assert (count, ids) == (len(classes), class_ids(classes, n, d))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("rules_of, d, named", [
    # rows (-1, '') -> {(-1, ''), (1, '')}, (0, '') -> itself, (1, '') -> itself:
    # three heads and three distinct rows, but the heads hold four entries
    pytest.param({-2: [("", "")], -1: [], 1: [], 2: []}, 0,
                 "(1, '') is glued to (-1, '')", id="entries"),
    # heads {(-1, '1'), (1, '0')} and {(-1, '0')} hold six entries over six
    # cells, but the row of (1, '0') is {(-1, '0'), (1, '0')}: six distinct
    # rows for five heads
    pytest.param({-2: [("1", "0")], -1: [], 1: [], 2: [("0", "0")]}, 1,
                 "(1, '0') is glued to (-1, '1')", id="rows"),
])
def test_each_clause_of_the_counting_guard_fires_alone(entry, rules_of, d, named):
    with pytest.raises(EngineError, match=re.escape(named)):
        entry(Family(rules_of), 1, d)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("rules, d", [
    ([("", "")], 0),  # IDENTITY: the empty word is the one cell
    ([("", "")], 2),
    ([("0", "1"), ("1", "0")], 1),  # a rule set whose domain is the full space
    ([("0", "1"), ("1", "0")], 3),
])
def test_empty_and_full_domain_rules_match_brute_force(rules, d, n):
    a = ZPartialAction(PrefixMap(tuple(rules)))
    assert cell_partition(a, n, d).classes == brute_partition(rules, n, d)


def test_empty_word_rules_per_index():
    # h_{+-1} move the whole space (source and target the empty word), h_{+-2} nothing
    rules_of = {1: [("", "")], -1: [("", "")], 2: [], -2: []}
    for entry in ENTRY_POINTS:
        with pytest.raises(EngineError, match=f"{CELL} is glued to {CELL}"):
            entry(Family(rules_of), 1, 0)
    rules_of[2] = rules_of[-2] = [("", "")]
    for d in (0, 2):
        classes = cell_partition(Family(rules_of), 1, d).classes
        assert classes == brute_partition(rules_of, 1, d)
        count, ids = class_table(Family(rules_of), 1, d)
        assert (count, ids) == (len(classes), class_ids(classes, 1, d))


class Untouchable:
    """An action whose maps must not be read: the budget check comes first."""

    def h(self, t):
        raise AssertionError("the partition started before its budget check")


@pytest.mark.parametrize("n, d", [(0, 21), (1, 19), (2, 40), (0, 10**9)])
def test_budget_refuses_before_any_work(n, d):
    for entry in ENTRY_POINTS:
        with pytest.raises(CapExceeded, match="budget"):
            entry(Untouchable(), n, d)


@pytest.mark.parametrize("n, d", [(0, 20), (1, 18)])
def test_budget_admits_partitions_within_it(n, d):
    assert (2 * n + 1) * 2**d <= CELL_BUDGET
    for entry in ENTRY_POINTS:
        with pytest.raises(AssertionError, match="before its budget check"):
            entry(Untouchable(), n, d)


def rows_path_forbidden():
    """Within the block, a call that reaches the rows path fails."""
    return mock.patch.object(cells, "_glued_rows", side_effect=AssertionError(
        "the rows path decided the classes of a ZPartialAction"))


def rows_path_spied():
    """Within the block, the rows path runs as usual and counts its calls."""
    return mock.patch.object(cells, "_glued_rows", wraps=cells._glued_rows)


@settings(max_examples=200, deadline=None)
@given(length_preserving_rules(), st.sampled_from([1, 2]), st.integers(0, 2))
def test_the_certificate_decides_every_action(rules, n, extra):
    a = ZPartialAction(PrefixMap(tuple(rules)))
    d = adapted_depth(a, n) + extra
    classes = brute_partition(rules, n, d)
    with rows_path_forbidden():
        assert cell_partition(a, n, d).classes == classes
        assert class_table(a, n, d) == (len(classes), class_ids(classes, n, d))


@pytest.mark.parametrize("k, n, d", default_schedule(ZPartialAction(ODOMETER), 6))
def test_the_certificate_decides_the_odometer_tower(k, n, d):
    a = ZPartialAction(ODOMETER).stage(k)
    classes = brute_partition(a.generator.rules, n, d)
    with rows_path_forbidden():
        assert cell_partition(a, n, d).classes == classes
        assert class_table(a, n, d) == (len(classes), class_ids(classes, n, d))


@pytest.mark.parametrize("family, n, d", [
    (InconsistentPowers(), 1, 1),
    (Family({-2: [("", "")], -1: [], 1: [], 2: []}), 1, 0),
    (Family({-2: [("1", "0")], -1: [], 1: [], 2: [("0", "0")]}), 1, 1),
    (Family({1: [("", "")], -1: [("", "")], 2: [], -2: []}), 1, 0),
], ids=["inconsistent powers", "entries", "rows", "empty-word h_1"])
def test_the_guard_doubles_reach_the_rows_path(family, n, d):
    for entry in ENTRY_POINTS:
        with rows_path_spied() as rows_path, pytest.raises(EngineError):
            entry(family, n, d)
        assert rows_path.call_count == 1


def broken_pairs(rules_of, n, d):
    """The pairs (x, c): x is in the gluing set of cell c, but x's gluing
    set is another set."""
    slots = range(-n, n + 1)
    glue = {}
    for r in slots:
        for w in words(d):
            images = ((s, step(rules_of[r - s], w)) for s in slots if s != r)
            members = {(s, v) for s, v in images if v is not None}
            glue[r, w] = frozenset({(r, w), *members})
    return {(x, c) for c, g in glue.items() for x in g if glue[x] != g}


SWAP = [("0", "1"), ("1", "0")]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_the_rows_path_decides_an_equivalence_that_is_no_powers(entry):
    # h_{+-1} empty and h_{+-2} the swap: (-1, w) and (1, swap(w)) are glued,
    # (0, w) stays alone, so the gluing is an equivalence; but h_2 is no
    # power of the empty h_1
    rules_of = {-2: SWAP, -1: [], 1: [], 2: SWAP}
    assert not broken_pairs(rules_of, 1, 1)
    classes = brute_partition(rules_of, 1, 1)
    assert len(classes) == 4
    with rows_path_spied() as rows_path:
        got = entry(Family(rules_of), 1, 1)
    assert rows_path.call_count == 1
    if entry is cell_partition:
        assert got.classes == classes
    else:
        assert got == (len(classes), class_ids(classes, 1, 1))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_non_injective_step_fails_on_the_rows_path(entry):
    # h_1 sends both cells to '1', and h_{-1} takes '1' back to '0' only
    rules_of = {1: [("0", "1"), ("1", "1")], -1: [("1", "0")],
                2: [("0", "1"), ("1", "1")], -2: [("1", "0")]}
    broken = broken_pairs(rules_of, 1, 1)
    assert broken
    with rows_path_spied() as rows_path, pytest.raises(EngineError) as err:
        entry(Family(rules_of), 1, 1)
    assert rows_path.call_count == 1
    named = re.search(f"({CELL}) is glued to ({CELL})", str(err.value))
    assert named and tuple(map(ast.literal_eval, named.groups())) in broken
