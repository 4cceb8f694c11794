"""Finitely supported block and kernel algebras over a clopen action.

Both pictures hold the same data: a table of finitely many slots (r, s), each
carrying a piecewise constant function, read through two index conventions.
A block function's slot (r, s) lives on X_{s-r}; blocks multiply by the
convolution that sums over the middle slot and transports the second factor.
A kernel's slot (r, s) lives on X_{r-s}; kernels multiply matrix-style with
the fiber product alpha_p(alpha_{-p}(f) g) on each term.  Either kind reads a
slot with `at(r, s)`, translates both slots with `shift(t)` and compresses to
one slot with `corner(r, s)`.  Reindexing blocks by slot negation exchanges
the two pictures; every identity here is exact.

The public constructors check, sort and filter their slots.  The trusted
constructor `_IndexedTable._canonical(items)` takes its slots as given: its
caller guarantees that `items` are sorted by slot, with distinct int-pair
slots and nonzero canonical functions.  `shift` translates both slots
alike; `__neg__`, `row_part` and `col_part` keep nonzero slots in order;
reindexing negates both slots and so reverses the order; the adjoints sort
the slots they build and make no zero slot (see `adjoint`).  The callers
that can make a zero slot drop it themselves, and sort what they keep:
`corner` an empty slot, `scale` a zero factor, and sums and products a
cancelling sum.  Supports are checked on piece words
(`_check_supports`), not on fresh clopen sets: every table, once per action,
before use.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .action import ZPartialAction, germ_index, kernel_tag, transport_index
from .errors import ParseError, SupportViolation
from .functions import ZERO_FUNC, PiecewiseConstant, Scalar, compose_with_map, memo
from .value import Value, set_field

Index = tuple[int, int]


def _check_slot(what: str, key) -> None:
    if type(key[0]) is not int or type(key[1]) is not int:
        raise ParseError(f"{what} slot {key!r} is not a pair of ints")


class _IndexedTable(Value):
    """Finitely many slots (r, s) -> function, kept canonical and sorted.

    `_what`, set by each kind, names one slot in messages.  `Value` equality
    compares the class too, so tables of different kinds are never equal.
    `_checked_for` is the action whose support check the table last passed;
    it is no field, so equality, hashing and printing never read it.
    """

    table: tuple[tuple[Index, PiecewiseConstant], ...] = ()
    _checked_for = None

    def __init__(self, table: tuple[tuple[Index, PiecewiseConstant], ...] = ()):
        seen = set()
        out = []
        for key, func in table:
            _check_slot(self._what, key)
            if key in seen:
                raise ParseError(f"duplicate {self._what} at {key}")
            seen.add(key)
            if not func.is_zero():
                out.append((key, func))
        set_field(self, "table", tuple(sorted(out)))

    @classmethod
    def _canonical(cls, items):
        """Trusted constructor: slots sorted, distinct int pairs, nonzero
        canonical functions, all taken as given."""
        out = object.__new__(cls)
        set_field(out, "table", tuple(items))
        return out

    @memo
    def _lookup(self) -> dict:
        return dict(self.table)

    def at(self, r: int, s: int) -> PiecewiseConstant:
        return self._lookup.get((r, s), ZERO_FUNC)

    @property
    def indices(self) -> tuple[Index, ...]:
        return tuple(key for key, _ in self.table)

    def is_zero(self) -> bool:
        return not self.table

    def shift(self, t: int):
        """Translate both slots: new slot (r, s) reads the old slot (r+t, s+t)."""
        if type(t) is not int:
            raise ParseError(f"{self._what} slot shift {t!r} is not an int")
        return self._canonical([((r - t, s - t), f) for (r, s), f in self.table])

    def corner(self, r: int, s: int):
        """Compression to the single slot (r, s)."""
        _check_slot(self._what, (r, s))
        func = self.at(r, s)
        return self._canonical([((r, s), func)] if func.pieces else [])

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = self._lookup | {k: self.at(*k) + f for k, f in other.table}
        return self._canonical(sorted(e for e in acc.items() if e[1].pieces))

    def __neg__(self):
        return self._canonical([(k, -f) for k, f in self.table])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        # a nonzero multiple of a nonzero function is nonzero
        if c.is_zero():
            return self._canonical([])
        return self._canonical([(k, f.scale(c)) for k, f in self.table])


class GroupoidFunction(_IndexedTable):
    """Finitely many blocks (r, s) -> function supported in X_{s-r}."""

    _what = "block"

    def __str__(self) -> str:
        if not self.table:
            return "0"
        return " + ".join(f"[{f}]@({r},{s})" for (r, s), f in self.table)


class KernelElement(_IndexedTable):
    """Finitely many entries (r, s) -> function supported in X_{r-s}."""

    _what = "entry"

    def __str__(self) -> str:
        if not self.table:
            return "0"
        return " + ".join(
            f"[{f}]d{kernel_tag(r, s)}@({r},{s})" for (r, s), f in self.table
        )


ZERO_BLOCKS = GroupoidFunction()
ZERO_KERNEL = KernelElement()


def _check_supports(f: _IndexedTable, a: ZPartialAction, index, what: str) -> None:
    """Raise SupportViolation unless every slot (r, s) lives on X_{index(r, s)}.

    The check is never skipped: every table is asked, once per action, before
    use.  A slot's piece words are its cylinders, and X_t `covers` them with
    one bisect each, so no support set is built.  A table that passes records
    `a`, so the next call for `a` returns at once; a call for another action
    asks again, and a call that raises records nothing.
    """
    if f._checked_for is a:
        return
    for (r, s), func in f.table:
        t = index(r, s)
        if not a.domain(t).covers(func.words):
            raise SupportViolation(
                f"{what} ({r},{s}) supported on {func.support()}, "
                f"outside X_{t} = {a.domain(t)}"
            )
    set_field(f, "_checked_for", a)


def validate_blocks(f: GroupoidFunction, a: ZPartialAction) -> None:
    _check_supports(f, a, germ_index, "block")


def validate_entries(k: KernelElement, a: ZPartialAction) -> None:
    _check_supports(k, a, kernel_tag, "entry")


# --------------------------------------------------------------------------
# Block algebra


def convolve(
    f: GroupoidFunction, g: GroupoidFunction, a: ZPartialAction
) -> GroupoidFunction:
    """Block (r, u) of f*g = sum over s of f_{r,s} (g_{s,u} o h_{r-s})."""
    validate_blocks(f, a)
    validate_blocks(g, a)
    acc: dict[Index, PiecewiseConstant] = {}
    for (r, s), fb in f.table:
        for (s2, u), gb in g.table:
            if s2 != s:
                continue
            moved = compose_with_map(gb, a.h(transport_index(r, s)))
            term = fb * moved
            if term.is_zero():
                continue
            key = (r, u)
            acc[key] = acc.get(key, ZERO_FUNC) + term
    out = GroupoidFunction._canonical(sorted(e for e in acc.items() if e[1].pieces))
    validate_blocks(out, a)
    return out


def adjoint(f: GroupoidFunction, a: ZPartialAction) -> GroupoidFunction:
    """Block (s, r) of f* = conjugate of f_{r,s}, transported by h_{s-r}.

    No block comes out zero.  f passes its support check first, so a piece
    [w] of a nonzero f_{r,s} lies in X_{s-r}, the image of h_{s-r}; a target
    of h_{s-r} meets [w] and is thus comparable with w, and pulling back
    along that rule keeps the piece's conjugate value, which is nonzero.
    """
    validate_blocks(f, a)
    table = []
    for (r, s), func in f.table:
        moved = compose_with_map(func.conj(), a.h(transport_index(s, r)))
        table.append(((s, r), moved))
    out = GroupoidFunction._canonical(sorted(table))
    validate_blocks(out, a)
    return out


# --------------------------------------------------------------------------
# Kernel algebra


def fiber_product(
    f: PiecewiseConstant, p: int, g: PiecewiseConstant, q: int, a: ZPartialAction
) -> PiecewiseConstant:
    """(f d_p)(g d_q) = alpha_p(alpha_{-p}(f) g) d_{p+q}, value part only."""
    down = compose_with_map(f, a.h(p))
    prod = down * g
    return compose_with_map(prod, a.h(-p))


def kernel_multiply(
    k1: KernelElement, k2: KernelElement, a: ZPartialAction
) -> KernelElement:
    """Matrix product with fiber products: (k1 k2)(r,s) = sum_t k1(r,t) k2(t,s)."""
    validate_entries(k1, a)
    validate_entries(k2, a)
    acc: dict[Index, PiecewiseConstant] = {}
    for (r, t), e1 in k1.table:
        for (t2, s), e2 in k2.table:
            if t2 != t:
                continue
            term = fiber_product(e1, kernel_tag(r, t), e2, kernel_tag(t, s), a)
            if term.is_zero():
                continue
            key = (r, s)
            acc[key] = acc.get(key, ZERO_FUNC) + term
    out = KernelElement._canonical(sorted(e for e in acc.items() if e[1].pieces))
    validate_entries(out, a)
    return out


def kernel_adjoint(k: KernelElement, a: ZPartialAction) -> KernelElement:
    """Entry (r, s) of k* = conjugate of k(s, r), transported by h_{s-r}.

    No entry comes out zero, as in `adjoint`: a nonzero k(s, r) that passed
    its support check lies in X_{s-r}, the image of h_{s-r}.
    """
    validate_entries(k, a)
    table = []
    for (s, r), func in k.table:
        moved = compose_with_map(func.conj(), a.h(germ_index(r, s)))
        table.append(((r, s), moved))
    out = KernelElement._canonical(sorted(table))
    validate_entries(out, a)
    return out


def row_part(k: KernelElement, t: int) -> KernelElement:
    return KernelElement._canonical([e for e in k.table if e[0][0] == t])


def col_part(k: KernelElement, t: int) -> KernelElement:
    return KernelElement._canonical([e for e in k.table if e[0][1] == t])


def norm_squared(k: KernelElement) -> Fraction:
    """Sum over entries of the squared sup of |value|; exact, never rooted.

    The sum runs on ints over the least common denominator so far, and one
    Fraction reduces it at the end."""
    num, den = 0, 1
    for _, func in k.table:
        top, bottom = func._sup_norm_sq()
        common = lcm(den, bottom)
        num = num * (common // den) + top * (common // bottom)
        den = common
    return Fraction(num, den)


# --------------------------------------------------------------------------
# The reindexing isomorphism


def to_kernel(f: GroupoidFunction) -> KernelElement:
    """Entry (r, s) of the kernel = block (-r, -s) of f, tagged d_{r-s}."""
    # negating both slots reverses their order
    return KernelElement._canonical(
        [((-r, -s), func) for (r, s), func in reversed(f.table)]
    )


def from_kernel(k: KernelElement) -> GroupoidFunction:
    """Inverse reindexing: block (r, s) = entry (-r, -s)."""
    return GroupoidFunction._canonical(
        [((-r, -s), func) for (r, s), func in reversed(k.table)]
    )
