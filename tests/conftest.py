"""The checked twins of the trusted constructors.

`PiecewiseConstant._canonical`, `_IndexedTable._canonical` and
`PrefixMap._canonical` skip the checks, the sort and the filters of the
public constructors, on the word of their callers that the input is
canonical by construction; `Scalar._make` reduces an integer triple with
one gcd.  For the whole test session every call of any of them also runs
the public constructor on the same value and asserts that the two values
are equal, so a caller that breaks its promise, or a trusted constructor
that skips needed work, fails the test that reaches it.
"""

from fractions import Fraction

import pytest

from cantorenv.algebra import _IndexedTable
from cantorenv.functions import PiecewiseConstant, Scalar
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


def _checked_make(trusted):
    def twin(a, b, den):
        fast = trusted(a, b, den)
        slow = Scalar(Fraction(a, den), Fraction(b, den))
        # equal triples: the public constructor reduces over the least
        # common denominator, with no gcd of the triple
        assert type(fast) is Scalar and fast == slow, (
            f"Scalar._make({a}, {b}, {den}) gave the triple "
            f"{(fast._a, fast._b, fast._den)}, the public constructor "
            f"{(slow._a, slow._b, slow._den)}"
        )
        return fast

    return staticmethod(twin)


@pytest.fixture(scope="session", autouse=True)
def checked_twin():
    with pytest.MonkeyPatch.context() as mp:
        for owner in (PiecewiseConstant, _IndexedTable, PrefixMap):
            trusted = owner.__dict__["_canonical"].__func__
            mp.setattr(owner, "_canonical", _checked(trusted))
        mp.setattr(Scalar, "_make", _checked_make(Scalar.__dict__["_make"].__func__))
        yield
