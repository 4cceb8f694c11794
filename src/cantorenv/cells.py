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

At d0 a partition works on integers: cell (t, w) has the slot-major index
(t + n)*2^d0 + int(w, 2).  Each map h_t in play becomes an image table, a
list of 2^d0 ints holding the index within its slot of each cell's image,
or -1 outside dom(h_t).  Every gluing set becomes a row: one entry per
slot, the index of the member or -1.  Rows come from bulk passes (zip,
map, compress) over these lists, and a count over them decides the guard
without comparing rows pairwise.  Two consumers read the rows:
`cell_partition` spells each class out as its cells (t, w) at depth d, and
`class_table` numbers the classes and gives every depth-d cell the number
of its class, building no class at all.  Everything downstream (quotients,
truncations, diagram levels) runs on one or the other.
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


def cell_partition(a: ZPartialAction, n: int, d: int) -> CellPartition:
    """Partition of all cells (t, w), |t| <= n and |w| = d, by the relation.

    The lemma: at the adapted depth d0 every h_t in play has rules with
    sources of length at most d0, so for |z| = d - d0 the gluing set of
    (r, wz) is that of (r, w) with z appended to each member.  Tables, Rows,
    Guard and Heads therefore run at d0 alone; Copies carries them to d.

    Budget: (2n+1)*2^d cells over CELL_BUDGET raise CapExceeded before
    anything is built.  Tables: each transport index t != 0 in [-2n, 2n]
    gets a list of the image index of every depth-d0 cell within its slot,
    -1 outside dom(h_t), filled by one slice assignment per rule of h_t.
    Rows: for each slot r, zipping one column per slot s -- the indices of
    slot r themselves at s = r, else the indices of slot s picked by the
    table of h_{r-s}, where a -1 picks -1 -- gives every cell's gluing set
    as a row of 2n+1 ints, -1 where a slot has no member.  Heads: a head is
    a cell whose row has -1 at every slot before its own, that is, the
    least cell of its row in (slot, index) order.

    Guard: the rows are the classes of an equivalence exactly when there
    are as many distinct rows as heads and the heads' rows hold as many
    entries other than -1 as there are cells.  Proof.  Each cell lies in
    its own row, once, since a row has one entry per slot.  If the gluing
    is an equivalence, the rows are its classes, each class has one least
    cell, which is then a head, and the classes hold every cell once.
    Conversely, two heads never share a row, the least cell of a row being
    unique, so when the distinct rows number the heads, every row is the
    row of a head; the heads' rows then cover every cell, and if their
    sizes add up to the number of cells they are pairwise disjoint.  So
    they partition the cells, and the row of each cell is the part that
    holds it: every member of a row has that same row.  When the count
    fails, a scan finds a member whose row differs from the row of the
    cell it is glued to, and EngineError names the two by their first
    copies, the depth-d cells with d - d0 zeros appended.  The one-step
    gluing is then no equivalence at d0, hence none at d, and the family
    breaks the axioms.

    Classes: each depth-d0 cell stands for the group of its 2^(d-d0)
    copies, its word followed by each suffix z in suffix order; a class is
    the groups of its head row's members.  Copies: zipping the groups of a
    class gives its copies, one per suffix.  Ordered by least cell, the
    depth-d classes are each class at d0, in order, followed by its copies
    in suffix order, so the copies come out in canonical order.
    """
    least = _least_depth(a, n, d)
    copies = 1 << (d - least)
    words = extensions("", d)
    # every depth-d0 cell's group of copies, slot-major, then the None a -1 picks
    groups = [*chain.from_iterable(
        zip(*[zip(repeat(s), words)] * copies) for s in range(-n, n + 1)
    ), None]
    heads = _rows(a, n, least, d)[1]
    members = map(filter, repeat(None), map(map, repeat(groups.__getitem__), heads))
    return CellPartition(n, d, tuple(chain.from_iterable(starmap(zip, members))))


def class_table(a: ZPartialAction, n: int, d: int) -> tuple[int, list[int]]:
    """The classes of `cell_partition(a, n, d)` as numbers: (count, ids).

    ids[(t + n)*2^d + int(w, 2)] is the index of the class of cell (t, w) in
    `cell_partition(a, n, d).classes`, and count is the number of classes.
    The budget check, Tables, Rows, Guard and Heads are those of
    `cell_partition`; then the heads are numbered in order and each depth-d0
    cell gets the number id0 of its row.  A class at d0 is followed by its
    copies in suffix order, so the copy (t, wz) of (t, w) has the id
    id0*2^(d-d0) + int(z, 2) and there are count0*2^(d-d0) classes.  No
    class and no cell word is built.
    """
    least = _least_depth(a, n, d)
    rows, heads = _rows(a, n, least, d)
    number = dict(zip(heads, range(len(heads))))
    ids = [*map(number.__getitem__, rows)]
    gap = d - least
    if gap:
        ids = [*chain.from_iterable(range(i << gap, (i + 1) << gap) for i in ids)]
    return len(heads) << gap, ids


def _least_depth(a: ZPartialAction, n: int, d: int) -> int:
    """The budget check, then the adapted depth d0 <= d of slots |t| <= n."""
    if d > CELL_BUDGET.bit_length() or (2 * n + 1) << max(d, 0) > CELL_BUDGET:
        raise CapExceeded(
            f"{2 * n + 1} slots x 2^{d} cells exceed the budget of "
            f"{CELL_BUDGET} cells"
        )
    least = adapted_depth(a, n)
    if d < least:
        raise DepthTooSmall(f"depth {d} < adapted depth {least}")
    return least


def _rows(a: ZPartialAction, n: int, least: int, d: int) -> tuple[list, list]:
    """Tables, Rows, Guard and Heads of `cell_partition` at the adapted depth
    `least`: every cell's row in slot-major order, and the heads' rows in
    order.  A guard failure names the cells by their first copies at d."""
    size = 1 << least
    slots = range(-n, n + 1)
    tables = {}
    for t in range(-2 * n, 2 * n + 1):
        if t:  # distinct slots never transport by h_0
            tables[t] = table = [-1] * size
            for u, v in a.h(t).rules:
                gap = least - len(u)
                lo, to = int("0" + u, 2) << gap, int("0" + v, 2) << gap
                table[lo : lo + (1 << gap)] = range(to, to + (1 << gap))

    # per slot, the index of each cell, then the -1 that a -1 in a table picks
    index = [[*range(q * size, (q + 1) * size), -1] for q in range(len(slots))]
    rows = [
        list(zip(*(
            index[q][:size] if s == r else map(index[q].__getitem__, tables[r - s])
            for q, s in enumerate(slots)
        )))
        for r in slots
    ]
    heads = []
    for p, own in enumerate(rows):
        head = (-1,) * p
        heads += compress(own, map(head.__eq__, map(itemgetter(slice(p)), own)))

    every = [*chain.from_iterable(rows)]
    entries = [*chain.from_iterable(heads)]
    if len(set(every)) == len(heads) and len(entries) - entries.count(-1) == len(every):
        return every, heads
    words, pad = extensions("", least), "0" * (d - least)
    for p, r in enumerate(slots):
        for q, s in enumerate(slots):
            if s == r:
                continue
            own, member = rows[p], rows[q]
            for i, j in enumerate(tables[r - s]):
                if j >= 0 and member[j] != own[i]:
                    raise EngineError(
                        f"classes are not transitive: {(s, words[j] + pad)} is "
                        f"glued to {(r, words[i] + pad)} but not to its class"
                    )
    raise AssertionError("the guard's count failed but every row is a class")
