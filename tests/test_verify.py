"""End-to-end randomized verification of the reindexing isomorphism."""

import pytest

import cantorenv.verify
from cantorenv.action import ZPartialAction
from cantorenv.algebra import KernelElement
from cantorenv.errors import EngineError, ParseError
from cantorenv.prefix_map import ODOMETER, PrefixMap
from cantorenv.verify import equivariance_sign, isomorphism_suite

FLIP = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
ODO = ZPartialAction(ODOMETER)
# X_t is everything for every t, so slots may keep their signs without
# leaving the support of either picture
SWAP = ZPartialAction(PrefixMap.parse("[0 -> 1, 1 -> 0]"))

# (checked, failures) of isomorphism_suite(SWAP, trials=4, seed=0,
# max_index=1, depth=1) with a to_kernel that keeps slot signs.  More than
# 10 checks fail; these are the first 10 messages, each formatted with the
# element and slots current at its check, exactly as eager formatting gives
SIGNS_KEPT = (110, (
    "reindexing does not invert on "
    "[(2+0i)*1_[0] + (0+1/2i)*1_[1]]@(-1,-1) + [(2+0i)*1_[1]]@(1,-1)",
    "corner (-1,-1) does not match the block restriction",
    "corner (1,-1) does not match the block restriction",
    "reindexing does not invert on [(-4+1i)*1_[0] + (-3-1i)*1_[1]]@(-1,-1)",
    "corner (-1,-1) does not match the block restriction",
    "reindexing does not invert on [(-3-2i)*1_[1]]@(-1,0) + "
    "[(3/2-4i)*1_[0]]@(0,-1) + [(0+1i)*1_[0] + (0-1i)*1_[1]]@(1,1)",
    "corner (-1,0) does not match the block restriction",
    "corner (0,-1) does not match the block restriction",
    "corner (1,1) does not match the block restriction",
    "reindexing does not invert on "
    "[(-1/2+3/4i)*1_[0] + (-2+1/2i)*1_[1]]@(-1,1) + "
    "[(3+0i)*1_[0] + (1/2-2i)*1_[1]]@(0,-1) + "
    "[(3+1i)*1_[0] + (-1+1/3i)*1_[1]]@(0,0)",
))


def test_flip_suite_passes():
    rep = isomorphism_suite(FLIP, trials=40, seed=0)
    assert rep.ok, rep.failures[:3]
    assert rep.trials == 40 and rep.checked > 40


def test_odometer_suite_passes():
    for k in (1, 2):
        rep = isomorphism_suite(ODO, trials=30, seed=1, level=k)
        assert rep.ok, rep.failures[:3]


def test_suite_is_deterministic():
    a = isomorphism_suite(FLIP, trials=15, seed=5)
    b = isomorphism_suite(FLIP, trials=15, seed=5)
    assert (a.trials, a.checked, a.failures) == (b.trials, b.checked, b.failures)


def test_sign_is_minus_one_everywhere():
    eps, rep = equivariance_sign(FLIP, trials=25, seed=2)
    assert eps == -1 and rep.ok
    eps, rep = equivariance_sign(ODO, trials=25, seed=3, level=2)
    assert eps == -1 and rep.ok
    assert rep.epsilon == -1


def test_sign_needs_a_distinguishing_sample():
    with pytest.raises(EngineError):
        equivariance_sign(FLIP, trials=0, seed=0)


@pytest.mark.parametrize("suite", [isomorphism_suite, equivariance_sign])
@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "a trial count needs an int >= 1, not 0"),
    ({"trials": True}, "a trial count needs an int >= 1, not True"),
    ({"trials": 2, "max_index": -1}, "a slot bound needs an int >= 0, not -1"),
    ({"trials": 2, "max_index": 1.0}, "a slot bound needs an int >= 0, not 1.0"),
])
def test_a_suite_refuses_sizes_that_would_check_nothing(suite, kwargs, message):
    # trials=0 would report ok after 0 checks, and max_index=-1 ok on
    # elements that are all zero
    with pytest.raises(ParseError) as err:
        suite(FLIP, seed=0, **kwargs)
    assert str(err.value) == message


def test_report_serialization():
    rep = isomorphism_suite(FLIP, trials=5, seed=4)
    out = rep.to_json()
    assert out["ok"] is True and out["trials"] == 5
    _, erep = equivariance_sign(FLIP, trials=5, seed=4)
    assert erep.to_json()["epsilon"] == -1


def test_failures_name_the_failing_element_and_slots(monkeypatch):
    monkeypatch.setattr(
        cantorenv.verify, "to_kernel", lambda f: KernelElement(f.table)
    )
    rep = isomorphism_suite(SWAP, trials=4, seed=0, max_index=1, depth=1)
    assert rep.ok is False
    assert len(rep.failures) <= 10
    assert (rep.checked, rep.failures) == SIGNS_KEPT


def test_support_violation_fails_its_check(monkeypatch):
    # on the flip X_t differ, so kernels that keep slot signs leave their
    # supports; every check still runs and reports instead of raising
    clean = isomorphism_suite(FLIP, trials=4, seed=0)
    monkeypatch.setattr(
        cantorenv.verify, "to_kernel", lambda f: KernelElement(f.table)
    )
    rep = isomorphism_suite(FLIP, trials=4, seed=0)
    assert clean.ok and rep.ok is False
    assert rep.checked == clean.checked
    assert rep.failures[0].startswith("products disagree for f=")
    assert rep.failures[0].endswith(
        ": entry (-3,-2) supported on {111001,111111}, outside X_-1 = {0}"
    )


def test_check_counts_are_pinned():
    # the counts that running every check gives; a memo or a deferred
    # message that skipped a check would lower them
    assert isomorphism_suite(FLIP, trials=40, seed=0).checked == 1076
    odo = [isomorphism_suite(ODO, trials=30, seed=1, level=k) for k in (1, 2)]
    assert [rep.checked for rep in odo] == [812, 810]
    assert all(rep.ok for rep in odo)
