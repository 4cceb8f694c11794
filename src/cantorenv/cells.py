"""Finite cell combinatorics for the translation relation.

At a depth d that is *adapted* -- deep enough that every map h_t in play
sends depth-d cylinders onto depth-d cylinders and every domain X_t is a
union of depth-d cylinders -- the relation on pairs (t, x) collapses to a
finite relation on cells (t, w) with w a word of length d.  The gluing set
of (r, w) is the cell itself plus each (s, h_{r-s}[w]) with [w] inside
dom(h_{r-s}); at adapted depth that one-step gluing is an equivalence, so
each class is the gluing set of any of its members.

Cells deeper than that add nothing.  Let d0 be the adapted depth: every
h_t in play has length-preserving rules with sources of length at most
d0.  For d >= d0 and |z| = d - d0, the gluing set of (r, wz) is that of
(r, w) with z appended to every member.  So the one-step gluing is an
equivalence at d exactly when it is one at d0, and the classes at d are
the suffix copies of the classes at d0.  A partition is therefore decided
at d0 and copied.

At d0 a partition works on cell indices: cell (t, w) has index int(w, 2)
within slot t.  Each map h_t in play becomes an image table, a list of
2^d0 ints holding the index of each cell's image, or -1 outside dom(h_t).
Each cell stands for the group of its depth-d copies, and every gluing set
becomes a row: one entry per slot, the member's group or None.  A -1 picks
the None that ends each slot's list of groups, so rows, classes and their
copies come from bulk passes (zip, map, compress) over these lists.
Everything downstream (quotients, truncations, diagram levels) runs on the
cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat, starmap
from operator import itemgetter

from .action import ZPartialAction
from .cantor import extensions
from .errors import CapExceeded, DepthTooSmall, EngineError, NotStabilized

# Most cells (t, w), |t| <= n and |w| = d, one partition may hold.  The cells,
# their words and the class tuples take 150-230 bytes per cell (CPython
# 3.11), so a partition at the budget needs up to about 240 MB.
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

    The lemma: at the adapted depth d0 every h_t in play has rules with
    sources of length at most d0, so for |z| = d - d0 the gluing set of
    (r, wz) is that of (r, w) with z appended to each member.  Tables, Rows,
    Guard and Classes therefore run at d0 alone; Copies carries them to d.

    Budget: (2n+1)*2^d cells over CELL_BUDGET raise CapExceeded before
    anything is built.  Groups: each depth-d0 cell of slot s stands for
    the group of its 2^(d-d0) copies, its word followed by each suffix z in
    suffix order; a slot's list of groups ends with None.  Tables: each
    transport index t != 0 in [-2n, 2n] gets a list of the image index of
    every depth-d0 cell, -1 outside dom(h_t), filled by one slice assignment
    per rule of h_t.  Rows: for each slot r, zipping one column per slot
    s -- the groups of slot r themselves at s = r, else the groups of slot
    s picked by the table of h_{r-s}, where a -1 picks the None -- gives
    every cell's gluing set as a row, None where a slot has no member.
    Guard: every member of a row must have that same row, i.e. row(s, j) ==
    row(r, i) wherever j = table_{r-s}[i] >= 0; otherwise the one-step
    gluing is no equivalence at d0, hence none at d, the family breaks the
    axioms and EngineError names the member and the cell it is glued to by
    their first copies, the depth-d cells with d - d0 zeros appended.
    Classes: the guard makes every row a class, held once by each of its
    members; a class is taken at its least cell, the row whose entries
    before its own slot are all None, in (slot, index) order.  Copies:
    zipping the groups of a class gives its copies, one per suffix.
    Ordered by least cell, the depth-d classes are each class at d0, in
    order, followed by its copies in suffix order, so the copies come out
    in canonical order.
    """
    if d > CELL_BUDGET.bit_length() or (2 * n + 1) << max(d, 0) > CELL_BUDGET:
        raise CapExceeded(
            f"{2 * n + 1} slots x 2^{d} cells exceed the budget of "
            f"{CELL_BUDGET} cells"
        )
    least = adapted_depth(a, n)
    if d < least:
        raise DepthTooSmall(f"depth {d} < adapted depth {least}")

    copies = 1 << (d - least)
    words = extensions("", d)
    # per slot, the copies of each depth-d0 cell: consecutive runs of `copies` cells
    groups = [[*zip(*[zip(repeat(s), words)] * copies), None] for s in range(-n, n + 1)]
    members = map(filter, repeat(None), _least_rows(a, n, least, groups))
    return CellPartition(n, d, tuple(chain.from_iterable(starmap(zip, members))))


def _least_rows(a: ZPartialAction, n: int, d: int, groups: list) -> list:
    """Tables, Rows, Guard and Classes of `cell_partition` at the adapted
    depth d, over the `groups` of copies of each cell: the row of each
    class at its least cell, in order."""
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

    rows = [
        list(zip(*(
            groups[q][:size] if s == r else map(groups[q].__getitem__, tables[r - s])
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
                        f"classes are not transitive: {own[i][q][0]} is glued to "
                        f"{own[i][p][0]} but not to its class"
                    )

    least_rows = []
    for p, own in enumerate(rows):
        head = (None,) * p
        least_rows += compress(own, map(head.__eq__, map(itemgetter(slice(p)), own)))
    return least_rows
