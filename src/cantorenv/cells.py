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
or -1 outside dom(h_t).  A certificate checks the tables against one
another: h_1's is injective, h_{-1}'s is its inverse, and each h_{+-k}'s
is h_{+-1}'s applied k times.  Every action passes it, its powers being
compositions of one injective map.  The classes are then the orbits of h_1
on cells (chains and cycles, as in a Kakutani-Rokhlin tower) clipped to the
window of slots, and one map per slot numbers them by least cell.  Tables
that fail the certificate go to the gluing rows: one row per cell, one
entry per slot, the index of the member or -1, built by bulk passes (zip,
map, compress), with a count over them that decides the guard without
comparing rows pairwise.  Both paths give each depth-d0 cell the number of
its class.  Two consumers read those numbers: `cell_partition` spells each
class out as its cells (t, w) at depth d, and `class_table` gives every
depth-d cell the number of its class, building no class at all.
Everything downstream (quotients, truncations, diagram levels) runs on one
or the other.
"""

from __future__ import annotations

from collections import deque
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
    (r, wz) is that of (r, w) with z appended to each member.  The classes
    are therefore decided at d0 alone (`_rows`); Copies carries them to d.

    Budget: (2n+1)*2^d cells over CELL_BUDGET raise CapExceeded before
    anything is built.  Classes: `_rows` numbers the depth-d0 classes by
    least cell and gives each depth-d0 cell the number of its class.  Each
    depth-d0 cell stands for the group of its 2^(d-d0) copies, its word
    followed by each suffix z in suffix order, and a class collects the
    groups of its members in slot-major order.  Copies: zipping the groups
    of a class gives its copies, one per suffix.  Ordered by least cell,
    the depth-d classes are each class at d0, in order, followed by its
    copies in suffix order, so the copies come out in canonical order.
    """
    least = _least_depth(a, n, d)
    copies = 1 << (d - least)
    words = extensions("", d)
    count, ids = _rows(a, n, least, d)
    # every depth-d0 cell's group of copies, slot-major
    groups = chain.from_iterable(
        zip(*[zip(repeat(s), words)] * copies) for s in range(-n, n + 1)
    )
    members = [[] for _ in range(count)]
    deque(map(list.append, map(members.__getitem__, ids), groups), 0)
    return CellPartition(n, d, tuple(chain.from_iterable(starmap(zip, members))))


def class_table(a: ZPartialAction, n: int, d: int) -> tuple[int, list[int]]:
    """The classes of `cell_partition(a, n, d)` as numbers: (count, ids).

    ids[(t + n)*2^d + int(w, 2)] is the index of the class of cell (t, w) in
    `cell_partition(a, n, d).classes`, and count is the number of classes.
    The budget check and `_rows` are those of `cell_partition`, which give
    each depth-d0 cell the number id0 of its class.  A class at d0 is
    followed by its copies in suffix order, so the copy (t, wz) of (t, w)
    has the id id0*2^(d-d0) + int(z, 2) and there are count0*2^(d-d0)
    classes.  No class and no cell word is built.
    """
    least = _least_depth(a, n, d)
    count, ids = _rows(a, n, least, d)
    gap = d - least
    if gap:
        ids = [*chain.from_iterable(range(i << gap, (i + 1) << gap) for i in ids)]
    return count << gap, ids


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


def _rows(a: ZPartialAction, n: int, least: int, d: int) -> tuple[int, list[int]]:
    """The classes at the adapted depth `least`: (count, ids), with ids[i]
    the number of the class of the depth-d0 cell of slot-major index i, the
    classes numbered by least cell.

    Tables: each transport index t != 0 in [-2n, 2n] gets its table T_t, a
    list of the image index of every depth-d0 cell within its slot, -1
    outside dom(h_t), filled by one slice assignment per rule of h_t.

    Certificate: T_1 is injective, T_{-1} is its inverse, and for
    2 <= k <= 2n, T_k is T_1 applied k times and T_{-k} is T_{-1} applied k
    times.  Each iterate is one map over the previous one through the step's
    table padded with -1, so a -1 stays -1.  With n = 0 no table is read and
    the certificate holds with nothing to check.

    Heads: slot -n has H = each cell's own index; for each later slot r,
    H_r[i] = H_{r-1}[T_1[i]], or the cell's own index when T_1[i] = -1.
    The ids are the ranks, in slot-major order, of the heads: the cells
    with H their own index.  Those are every cell of slot -n and, in each
    later slot, the U cells outside dom(T_1), so their ranks need no sort:
    the 2^d0 heads of slot -n come first, then U per slot in index order.
    The ids follow H's recurrence: a cell of slot r > -n takes the id of
    (r - 1, T_1[i]), or the next fresh rank when T_1[i] = -1, one map per
    slot through the ids of the slot before.

    The lemma: under the certificate the gluing sets are the classes of an
    equivalence, H is the least cell of each cell's class, and these ids are
    those of `_glued_rows`.  Proof.  T = T_1 is a partial injection on the
    depth-d0 cells, and T_k = T^k for |k| <= 2n, with T^-k the inverse of
    T^k.  The graph of T has in- and out-degree at most one, so each cell w
    lies on one orbit, a chain or a cycle, at a position p(w): a cycle of L
    cells reads positions modulo L, and T^k w is defined exactly when
    p(w) + k is a position of w's orbit, and is then the cell there.  The
    gluing set of (r, w) holds the cells (r - k, T^k w) of the window, so it
    is the set of cells (s, x), |s| <= n, with x on w's orbit and
    s + p(x) = r + p(w), modulo L on a cycle.  That label is shared by every
    member, so every member has the same gluing set: the one-step gluing is
    an equivalence whose classes are these sets, and the count guard of
    `_glued_rows` passes (its proof), so its scan never runs.  A class has
    at most one member per slot, so its least cell is its member at the
    least slot.  The member of (r, w) at slot r - 1 is (r - 1, T w), when
    r > -n and T w is defined; when T w is undefined, no T^k w with k >= 1
    is defined, and no member lies below r.  So the least cell of the class
    of (r, w) is (r, w) itself when r = -n or T w is undefined, else that of
    (r - 1, T w): H is the least cell of each class.  Numbering the classes
    by least cell numbers their least cells in slot-major order, which is
    what `_glued_rows` does with its heads' rows.  So both paths give the
    same ids for every input that passes the certificate, and neither
    raises.  Any other input goes to `_glued_rows`, unchanged.
    """
    size = 1 << least
    tables = {}
    for t in range(-2 * n, 2 * n + 1):
        if t:  # distinct slots never transport by h_0
            tables[t] = table = [-1] * size
            for u, v in a.h(t).rules:
                gap = least - len(u)
                lo, to = int("0" + u, 2) << gap, int("0" + v, 2) << gap
                table[lo : lo + (1 << gap)] = range(to, to + (1 << gap))
    if n and not _powers_of_one_step(tables, n, size):
        return _glued_rows(tables, n, least, d)

    ids = [*range(size)]  # slot -n: each cell heads its class
    count = size
    if n:
        step = tables[1]
        fresh = [*compress(range(size), map((-1).__eq__, step))]
        # a cell of a later slot takes the id at its T_1 image in the slot
        # before, and the fresh cells, outside dom(T_1), the new ids that
        # follow that slot's own ids in `known`
        pick = step.copy()
        deque(map(pick.__setitem__, fresh, range(size, size + len(fresh))), 0)
        for _ in range(2 * n):
            known = ids[-size:]
            known += range(count, count + len(fresh))
            ids += map(known.__getitem__, pick)
            count += len(fresh)
    return count, ids


def _powers_of_one_step(tables: dict[int, list[int]], n: int, size: int) -> bool:
    """The certificate of `_rows`: the tables T_t, |t| <= 2n, are the powers
    of one injective step T_1, with T_{-1} its inverse."""
    step, back = tables[1], tables[-1]
    inverse = [-1] * (size + 1)  # the last entry takes what the -1s of step write
    deque(map(inverse.__setitem__, step, range(size)), 0)
    del inverse[size]
    # step is injective exactly when it fills as many entries as it defines
    if inverse.count(-1) != step.count(-1) or inverse != back:
        return False
    for sign, one in ((1, step), (-1, back)):
        pad, power = [*one, -1], one
        for k in range(2, 2 * n + 1):
            power = [*map(pad.__getitem__, power)]
            if power != tables[sign * k]:
                return False
    return True


def _glued_rows(
    tables: dict[int, list[int]], n: int, least: int, d: int
) -> tuple[int, list[int]]:
    """Rows, Guard, Heads and the scan: `_rows` for tables that are not the
    powers of one injective step.

    Rows: for each slot r, zipping one column per slot s -- the indices of
    slot r themselves at s = r, else the indices of slot s picked by the
    table of h_{r-s}, where a -1 picks -1 -- gives every cell's gluing set
    as a row of 2n+1 ints, -1 where a slot has no member.  Heads: a head is
    a cell whose row has -1 at every slot before its own, that is, the
    least cell of its row in (slot, index) order.  The heads are numbered in
    order and each cell gets the number of its row.

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
    """
    size = 1 << least
    slots = range(-n, n + 1)
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
        number = dict(zip(heads, range(len(heads))))
        return len(heads), [*map(number.__getitem__, every)]
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
