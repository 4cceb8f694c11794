"""Finite cell combinatorics for the translation relation.

At a depth d that is *adapted* -- deep enough that every map h_t in play
sends depth-d cylinders onto depth-d cylinders and every domain X_t is a
union of depth-d cylinders -- the relation on pairs (t, x) collapses to a
finite relation on cells (t, w) with w a word of length d.  The gluing set
of (r, w) is the cell itself plus each (s, h_{r-s}[w]) with [w] inside
dom(h_{r-s}); at adapted depth that one-step gluing is an equivalence, so
each class is the gluing set of any of its members.

A partition works on cell indices: cell (t, w) has index int(w, 2) within
slot t.  Each map h_t in play becomes an image table, a list of 2^d ints
holding the index of each cell's image, or -1 outside dom(h_t), and every
gluing set becomes a row: one entry per slot, the member cell or None.  A
-1 picks the None that ends each slot's list of cells, so rows and classes
come from bulk passes (zip, map, compress) over these lists.  Everything
downstream (quotients, truncations, diagram levels) runs on the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter

from .action import ZPartialAction
from .cantor import extensions
from .errors import CapExceeded, DepthTooSmall, EngineError, NotStabilized

# Most cells (t, w), |t| <= n and |w| = d, one partition may hold.  Tables,
# rows and classes take about 200 bytes per cell (CPython 3.11), so a
# partition at the budget needs about 200 MB.
CELL_BUDGET = 2**20


def adapted_depth(a: ZPartialAction, n: int) -> int:
    """Smallest depth at which cells of indices |t| <= n behave rigidly.

    Pairs with slots in [-n, n] are transported by maps h_t with |t| up to
    2n, so those are the maps that must act cell-to-cell.  A rule that
    changes word length shifts cylinder depth on every application and no
    uniform depth ever works; that is reported as NotStabilized.  The
    domains need no test of their own: canonical words of X_t are prefixes
    of rule targets, which are as long as the sources.
    """
    depth = 0
    for t in range(-2 * n, 2 * n + 1):
        h = a.h(t)
        for u, v in h.rules:
            if len(u) != len(v):
                raise NotStabilized(
                    f"h_{t} rule {u}->{v} changes word length; "
                    "no uniform cell depth exists"
                )
            depth = max(depth, len(u))
    return depth


@dataclass(frozen=True)
class CellPartition:
    """Cells (t, w), |t| <= n, len(w) = d, grouped into relation classes."""

    n: int
    d: int
    classes: tuple[tuple[tuple[int, str], ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    def lookup(self) -> dict:
        return {u: i for i, cls in enumerate(self.classes) for u in cls}


def cell_partition(a: ZPartialAction, n: int, d: int) -> CellPartition:
    """Partition of all cells (t, w), |t| <= n and |w| = d, by the relation.

    Budget: (2n+1)*2^d cells over CELL_BUDGET raise CapExceeded before
    anything is built.  Tables: each transport index t != 0 in [-2n, 2n]
    gets a list of the image index of every cell, -1 outside dom(h_t),
    filled by one slice assignment per rule of h_t.  Rows: for each slot r,
    zipping one column per slot s -- the cells of slot r themselves at
    s = r, else the cells of slot s picked by the table of h_{r-s} --
    gives every cell's gluing set as a row, None where a slot has no
    member.  Guard: every member of a row must have that same row, i.e.
    row(s, j) == row(r, i) wherever j = table_{r-s}[i] >= 0; otherwise the
    one-step gluing is no equivalence, the family breaks the axioms and
    EngineError names the member and the cell it is glued to.  Classes: the
    guard makes every row a class, held once by each of its members; a
    class is emitted at its least cell, the row whose entries before its
    own slot are all None, in (slot, index) order.
    """
    if d > CELL_BUDGET.bit_length() or (2 * n + 1) << max(d, 0) > CELL_BUDGET:
        raise CapExceeded(
            f"{2 * n + 1} slots x 2^{d} cells exceed the budget of "
            f"{CELL_BUDGET} cells"
        )
    least = adapted_depth(a, n)
    if d < least:
        raise DepthTooSmall(f"depth {d} < adapted depth {least}")

    size = 1 << d
    slots = range(-n, n + 1)
    tables = {}
    for t in range(-2 * n, 2 * n + 1):
        if t:  # distinct slots never transport by h_0
            tables[t] = table = [-1] * size
            for u, v in a.h(t).rules:
                gap = d - len(u)
                lo, to = int("0" + u, 2) << gap, int("0" + v, 2) << gap
                table[lo : lo + (1 << gap)] = range(to, to + (1 << gap))

    words = extensions("", d)
    cells = [[*zip(repeat(s), words), None] for s in slots]
    rows = [
        list(zip(*(
            cells[q][:size] if s == r else map(cells[q].__getitem__, tables[r - s])
            for q, s in enumerate(slots)
        )))
        for r in slots
    ]
    for p, r in enumerate(slots):
        for q, s in enumerate(slots):
            if s == r:
                continue
            own, member = rows[p], rows[q]
            for i, j in enumerate(tables[r - s]):
                if j >= 0 and member[j] != own[i]:
                    raise EngineError(
                        f"classes are not transitive: {own[i][q]} is glued to "
                        f"{own[i][p]} but not to its class"
                    )
    del tables  # freed before the class tuples are made, to lower the peak

    classes = []
    for p, own in enumerate(rows):
        head = (None,) * p
        least_rows = compress(own, map(head.__eq__, map(itemgetter(slice(p)), own)))
        classes += map(tuple, map(filter, repeat(None), least_rows))
    return CellPartition(n, d, tuple(classes))
