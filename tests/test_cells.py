"""Cell partitions and class tables against the brute-force oracle, the
adapted depth against its definition over every power, and the budget check.

`cell_partition` and `class_table` share the budget check, so every budget
test runs both entry points.  Both read the classes off the orbits of h_1
(the lemma of `cells._rows`), so no other power is read but on the
`NotStabilized` error path of `adapted_depth`.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv import cells
from cantorenv.action import ZPartialAction
from cantorenv.cells import CELL_BUDGET, adapted_depth, cell_partition, class_table
from cantorenv.errors import CapExceeded, NotStabilized, ParseError
from cantorenv.filtration import (
    bratteli_build,
    default_schedule,
    inclusion_probe,
    truncated_relation,
)
from cantorenv.prefix_map import ODOMETER, PrefixMap

from oracles import brute_partition, words
from strategies import length_preserving_rules, mixed_length_rules

ENTRY_POINTS = (cell_partition, class_table)


def class_ids(classes, n, d):
    """Each cell's class index, at its slot-major index (t + n)*2^d + int(w, 2)."""
    ids = [None] * ((2 * n + 1) << d)
    for i, cls in enumerate(classes):
        for t, w in cls:
            ids[(t + n) << d | int("0" + w, 2)] = i
    return ids


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


class Untouchable:
    """An action whose maps must not be read: the budget check comes first."""

    def h(self, t):
        raise AssertionError("the partition started before its budget check")


@pytest.mark.parametrize("n, d", [(0, 21), (1, 19), (2, 40), (0, 10**9)])
def test_budget_refuses_before_any_work(n, d):
    for entry in ENTRY_POINTS:
        with pytest.raises(CapExceeded, match="budget"):
            entry(Untouchable(), n, d)


class UntouchableStages:
    """An enumerated action whose every stage is `Untouchable`."""

    def stage(self, k):
        return Untouchable()


# every entry point that reads a cell window, each called with the window (n, d)
STAGES = UntouchableStages()
WINDOW_READERS = {
    "class_table": lambda n, d: class_table(Untouchable(), n, d),
    "cell_partition": lambda n, d: cell_partition(Untouchable(), n, d),
    "truncated_relation": lambda n, d: truncated_relation(STAGES, 0, n, d),
    "inclusion_probe": lambda n, d: inclusion_probe(STAGES, (0, n, d), (0, n, d)),
    "bratteli_build": lambda n, d: bratteli_build(STAGES, ((0, n, d),)),
}
BAD_WINDOWS = {
    "negative n": (-1, 3, "not n=-1, d=3"),
    "bool n": (True, 2, "not n=True, d=2"),
    "float d": (1, 2.0, "not n=1, d=2.0"),
}


@pytest.mark.parametrize(
    "entry, window",
    # bratteli_build refuses a bool or a float in a schedule row before any
    # window is read, naming the row (test_filtration.py)
    [(e, w) for e in WINDOW_READERS for w in BAD_WINDOWS
     if e != "bratteli_build" or w == "negative n"],
)
def test_a_window_that_is_no_cell_window_is_refused(entry, window):
    n, d, tail = BAD_WINDOWS[window]
    message = "a cell window needs ints n >= 0 and d, " + tail
    with pytest.raises(ParseError) as err:
        WINDOW_READERS[entry](n, d)
    assert str(err.value) == message


@pytest.mark.parametrize("n, d", [(0, 20), (1, 18)])
def test_budget_admits_partitions_within_it(n, d):
    # the adapted depth is the first step after the budget check; with n = 0
    # it reads no map, so it is stopped here rather than by Untouchable
    assert (2 * n + 1) * 2**d <= CELL_BUDGET
    past = AssertionError("the partition got past its budget check")
    with mock.patch.object(cells, "adapted_depth", side_effect=past):
        for entry in ENTRY_POINTS:
            with pytest.raises(AssertionError, match="got past its budget check"):
                entry(Untouchable(), n, d)


@settings(max_examples=200, deadline=None)
@given(mixed_length_rules(), st.sampled_from([1, 2]), st.integers(0, 2))
def test_the_certificate_decides_every_action(rules, n, extra):
    # the certificate is the orbit lemma of `cells._rows`, here on rules of
    # mixed lengths, whose powers are the ones the adapted depth must bound
    a = ZPartialAction(PrefixMap(tuple(rules)))
    d = adapted_depth(a, n) + extra
    classes = brute_partition(rules, n, d)
    assert cell_partition(a, n, d).classes == classes
    assert class_table(a, n, d) == (len(classes), class_ids(classes, n, d))


@pytest.mark.parametrize("k, n, d", default_schedule(ZPartialAction(ODOMETER), 6))
def test_the_certificate_decides_the_odometer_tower(k, n, d):
    a = ZPartialAction(ODOMETER).stage(k)
    classes = brute_partition(a.generator.rules, n, d)
    assert cell_partition(a, n, d).classes == classes
    assert class_table(a, n, d) == (len(classes), class_ids(classes, n, d))


def depth_over_every_power(a, n):
    """The adapted depth by its definition: the longest rule of any h_t,
    |t| <= 2n, or the NotStabilized message of the first rule that changes
    word length, with t scanned from -2n."""
    depth = 0
    for t in range(-2 * n, 2 * n + 1):
        for u, v in a.h(t).rules:
            if len(u) != len(v):
                return (f"h_{t} rule {u}->{v} changes word length; "
                        "no uniform cell depth exists")
            depth = max(depth, len(u))
    return depth


@st.composite
def skew_rules(draw):
    """A two-rule map a -> b c d, b c' -> a e: the first rule changes length."""
    a, c, d, e = (draw(st.sampled_from("01")) for _ in range(4))
    b, c2 = ("1" if a == "0" else "0"), ("1" if c == "0" else "0")
    return [(a, b + c + d), (b + c2, a + e)]


odometer_stages = st.integers(0, 5).map(lambda k: ZPartialAction(ODOMETER).stage(k))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.one_of(length_preserving_rules(), mixed_length_rules(), skew_rules()).map(
        lambda rules: ZPartialAction(PrefixMap(tuple(rules)))),
    odometer_stages,
), st.integers(0, 3))
def test_adapted_depth_is_the_depth_over_every_power(a, n):
    expected = depth_over_every_power(a, n)
    if isinstance(expected, str):
        with pytest.raises(NotStabilized) as err:
            adapted_depth(a, n)
        assert str(err.value) == expected
    else:
        assert adapted_depth(a, n) == expected


@settings(max_examples=100, deadline=None)
@given(mixed_length_rules(), st.integers(0, 2))
def test_cells_read_h_1_only(rules, extra):
    a = ZPartialAction(PrefixMap(tuple(rules)))
    with mock.patch.object(a, "h", wraps=a.h) as spy:
        d = adapted_depth(a, 2) + extra
        cell_partition(a, 2, d)
        class_table(a, 2, d)
    assert {call.args for call in spy.call_args_list} == {(1,)}
