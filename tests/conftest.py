"""The checked twin of the trusted constructors.

`PiecewiseConstant._canonical`, `_IndexedTable._canonical` and
`PrefixMap._canonical` skip the checks, the sort and the filters of the
public constructors, on the word of their callers that the input is
canonical by construction.  For the whole test session every call of any
of them also runs the public constructor on the same input and asserts
that the two values are equal, so a caller that breaks its promise, or a
trusted constructor that skips needed work, fails the test that reaches it.
"""

import pytest

from cantorenv.algebra import _IndexedTable
from cantorenv.functions import PiecewiseConstant
from cantorenv.prefix_map import PrefixMap


def _checked(trusted):
    def twin(cls, items):
        items = tuple(items)
        fast = trusted(cls, items)
        slow = cls(items)
        assert type(fast) is type(slow) and fast == slow, (
            f"{cls.__name__}._canonical({items!r}) gave {fast!r}, "
            f"the public constructor {slow!r}"
        )
        return fast

    return classmethod(twin)


@pytest.fixture(scope="session", autouse=True)
def checked_twin():
    with pytest.MonkeyPatch.context() as mp:
        for owner in (PiecewiseConstant, _IndexedTable, PrefixMap):
            trusted = owner.__dict__["_canonical"].__func__
            mp.setattr(owner, "_canonical", _checked(trusted))
        yield
