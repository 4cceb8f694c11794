"""Cell partitions: the guard on the gluing sets and the brute-force oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from cantorenv.action import ZPartialAction
from cantorenv.cells import adapted_depth, cell_partition
from cantorenv.errors import EngineError
from cantorenv.prefix_map import IDENTITY, PrefixMap

from oracles import brute_partition, words


class InconsistentPowers:
    """h(1) swaps 0 and 1 while every other power is the identity.

    h(-1) is then no inverse of h(1), so the one-step gluing is not an
    equivalence and no partition of the cells exists.
    """

    def h(self, t):
        return PrefixMap.parse("[0->1, 1->0]") if t == 1 else IDENTITY

    def domain(self, t):
        return self.h(t).image()


def test_guard_rejects_inconsistent_powers():
    with pytest.raises(EngineError):
        cell_partition(InconsistentPowers(), 1, 1)


@st.composite
def length_preserving_rules(draw):
    """A partial injection between words of one length, as rewrite rules."""
    pool = words(draw(st.integers(1, 3)))
    sources = draw(st.lists(st.sampled_from(pool), unique=True))
    targets = draw(st.permutations(pool))
    return list(zip(sources, targets))


@settings(max_examples=300, deadline=None)
@given(length_preserving_rules(), st.sampled_from([1, 2]), st.integers(0, 1))
def test_partition_matches_brute_force(rules, n, extra):
    a = ZPartialAction(PrefixMap(tuple(rules)))
    d = adapted_depth(a, n) + extra
    assert cell_partition(a, n, d).classes == brute_partition(rules, n, d)
