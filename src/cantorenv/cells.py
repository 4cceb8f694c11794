"""Finite cell combinatorics for the translation relation.

At a depth d that is *adapted* -- deep enough that every map h_t in play
sends depth-d cylinders onto depth-d cylinders and every domain X_t is a
union of depth-d cylinders -- the relation on pairs (t, x) collapses to a
finite relation on cells (t, w) with w a word of length d.  The gluing set
of (r, w) is the cell itself plus each (s, h_{r-s}[w]) with [w] inside
dom(h_{r-s}).  The action is generated by one map h = h_1, with h_t = h^t,
so the one-step gluing is an equivalence whose classes are the orbits of
h_1 on cells (chains and cycles, as in a Kakutani-Rokhlin tower) clipped
to the window of slots.

Cells deeper than that add nothing.  Let d0 be the adapted depth, the
length of h_1's longest rule, which no power h_t exceeds: every h_t in
play has length-preserving rules with sources of length at most d0.  For
d >= d0 and |z| = d - d0, the gluing set of (r, wz) is that of (r, w) with
z appended to every member, so the classes at d are the suffix copies of
the classes at d0.  A partition is therefore decided at d0 and copied.

At d0 a partition works on integers: cell (t, w) has the slot-major index
(t + n)*2^d0 + int(w, 2).  h_1 becomes an image table, a list of 2^d0 ints
holding the index within its slot of each cell's image, or -1 outside
dom(h_1); it is injective, since `ZPartialAction` refuses a generator
whose targets overlap.  One map per slot numbers the orbit classes by
least cell and gives each depth-d0 cell the number of its class.  Two
consumers read those numbers: `cell_partition` spells each class out as
its cells (t, w) at depth d, and `class_table` gives every depth-d cell the
number of its class, building no class at all.  Everything downstream
(quotients, truncations, diagram levels) runs on one or the other.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress, repeat, starmap

from .action import ZPartialAction
from .cantor import extensions
from .errors import CapExceeded, DepthTooSmall, NotStabilized, ParseError
from .value import Value

# Most cells (t, w), |t| <= n and |w| = d, one partition may hold.  The cells,
# their words and the class tuples take 150-230 bytes per cell (CPython
# 3.11), so a partition at the budget needs up to about 240 MB.
CELL_BUDGET = 2**20


def adapted_depth(a: ZPartialAction, n: int) -> int:
    """Smallest depth at which cells of indices |t| <= n behave rigidly.

    Pairs with slots in [-n, n] are transported by maps h_t with |t| up to
    2n, so those are the maps that must act cell-to-cell.  With n = 0 no
    map transports and every depth works, so it is 0; for n >= 1 it is the
    length of h_1's longest rule, which no power exceeds, so `n` matters
    only through n = 0.  Proof.  Let f, then g, be length-preserving prefix
    maps with rules u -> v of f and u' -> v' of g.  If v extends u', their
    composite rule has source u; if u' = v·y, it has source u·y, and
    |u·y| = |u'|.  So no rule of g∘f is longer than the longer input rule;
    merging siblings only shortens rules, and inverses keep their lengths.
    The domains need no test of their own: canonical words of X_t are
    prefixes of rule targets, which are as long as the sources.

    A rule that changes word length shifts cylinder depth on every
    application and no uniform depth ever works; that is reported as
    NotStabilized, naming the first such rule of an h_t, |t| <= 2n, with t
    scanned from -2n.
    """
    if n <= 0:
        return 0
    rules = a.h(1).rules
    if any(len(u) != len(v) for u, v in rules):
        for t in range(-2 * n, 2 * n + 1):
            for u, v in a.h(t).rules:
                if len(u) != len(v):
                    raise NotStabilized(
                        f"h_{t} rule {u}->{v} changes word length; "
                        "no uniform cell depth exists"
                    )
    return max((len(u) for u, _ in rules), default=0)


class CellPartition(Value):
    """Cells (t, w), |t| <= n, len(w) = d, grouped into relation classes."""

    n: int
    d: int
    classes: tuple[tuple[tuple[int, str], ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)


def cell_partition(a: ZPartialAction, n: int, d: int) -> CellPartition:
    """Partition of all cells (t, w), |t| <= n and |w| = d, by the relation.

    The classes at d are the suffix copies of those at the adapted depth d0
    (module docstring), so they are decided at d0 alone (`_rows`) and
    copied to d, as the paragraph Copies below spells out.

    Window: `_rows` refuses a bad window (ParseError) and (2n+1)*2^d cells
    over CELL_BUDGET (CapExceeded) before anything is built.  Classes:
    `_rows` numbers the depth-d0 classes by least cell and gives each
    depth-d0 cell the number of its class.  Each
    depth-d0 cell stands for the group of its 2^(d-d0) copies, its word
    followed by each suffix z in suffix order, and a class collects the
    groups of its members in slot-major order.  Copies: zipping the groups
    of a class gives its copies, one per suffix.  Ordered by least cell,
    the depth-d classes are each class at d0, in order, followed by its
    copies in suffix order, so the copies come out in canonical order.
    """
    least, count, ids = _rows(a, n, d)
    copies = 1 << (d - least)
    words = extensions("", d)
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
    `_rows`, with its budget and depth checks, is that of `cell_partition`:
    it gives each depth-d0 cell the number id0 of its class.  A class at d0 is
    followed by its copies in suffix order, so the copy (t, wz) of (t, w)
    has the id id0*2^(d-d0) + int(z, 2) and there are count0*2^(d-d0)
    classes.  No class and no cell word is built.
    """
    least, count, ids = _rows(a, n, d)
    gap = d - least
    if gap:
        ids = [*chain.from_iterable(range(i << gap, (i + 1) << gap) for i in ids)]
    return count << gap, ids


def _rows(a: ZPartialAction, n: int, d: int) -> tuple[int, int, list[int]]:
    """The classes at the adapted depth d0 <= d: (d0, count, ids), ids[i] the
    number, by least cell, of the class of the depth-d0 cell of slot-major
    index i.  Before any table: ParseError for an n or d that is not an int
    (a bool or a float) or for n < 0, CapExceeded for (2n+1)*2^d cells over
    CELL_BUDGET, and DepthTooSmall for d < d0.

    Table: T_1 lists the image index of every depth-d0 cell within its
    slot, -1 outside dom(h_1), filled by one slice assignment per rule of
    h_1.  With n = 0 no cell is glued to another and no map is read.

    Heads: slot -n has H = each cell's own index; for each later slot r,
    H_r[i] = H_{r-1}[T_1[i]], or the cell's own index when T_1[i] = -1.
    The ids are the ranks, in slot-major order, of the heads: the cells
    with H their own index.  Those are every cell of slot -n and, in each
    later slot, the U cells outside dom(T_1), so their ranks need no sort:
    the 2^d0 heads of slot -n come first, then U per slot in index order.
    The ids follow H's recurrence: a cell of slot r > -n takes the id of
    (r - 1, T_1[i]), or the next fresh rank when T_1[i] = -1, one map per
    slot through the ids of the slot before.

    The lemma: the gluing sets are the classes of an equivalence, H is the
    least cell of each cell's class, and these ids number the classes by
    least cell.  Proof.  T = T_1 is a partial injection on the depth-d0
    cells, and h_k acts on them as T^k for |k| <= 2n, with T^-k the inverse
    of T^k.  The graph of T has in- and out-degree at most one, so each
    cell w lies on one orbit, a chain or a cycle, at a position p(w): a
    cycle of L cells reads positions modulo L, and T^k w is defined exactly
    when p(w) + k is a position of w's orbit, and is then the cell there.
    The gluing set of (r, w) holds the cells (r - k, T^k w) of the window,
    so it is the set of cells (s, x), |s| <= n, with x on w's orbit and
    s + p(x) = r + p(w), modulo L on a cycle.  That label is shared by
    every member, so every member has the same gluing set: the one-step
    gluing is an equivalence whose classes are these sets.  A class has at
    most one member per slot, so its least cell is its member at the least
    slot.  The member of (r, w) at slot r - 1 is (r - 1, T w), when r > -n
    and T w is defined; when T w is undefined, no T^k w with k >= 1 is
    defined, and no member lies below r.  So the least cell of the class of
    (r, w) is (r, w) itself when r = -n or T w is undefined, else that of
    (r - 1, T w): H is the least cell of each class, and the ranks of the
    heads in slot-major order number the classes by least cell.
    """
    if type(n) is not int or type(d) is not int or n < 0:
        raise ParseError(
            f"a cell window needs ints n >= 0 and d, not n={n!r}, d={d!r}"
        )
    if d > CELL_BUDGET.bit_length() or (2 * n + 1) << max(d, 0) > CELL_BUDGET:
        raise CapExceeded(
            f"{2 * n + 1} slots x 2^{d} cells exceed the budget of "
            f"{CELL_BUDGET} cells"
        )
    least = adapted_depth(a, n)
    if d < least:
        raise DepthTooSmall(f"depth {d} < adapted depth {least}")
    size = 1 << least
    ids = [*range(size)]  # slot -n: each cell heads its class
    count = size
    if n > 0:
        pick = [-1] * size  # T_1
        for u, v in a.h(1).rules:
            gap = least - len(u)
            lo, to = int("0" + u, 2) << gap, int("0" + v, 2) << gap
            pick[lo : lo + (1 << gap)] = range(to, to + (1 << gap))
        fresh = [*compress(range(size), map((-1).__eq__, pick))]
        # a cell of a later slot takes the id at its T_1 image in the slot
        # before, and the fresh cells, outside dom(T_1), the new ids that
        # follow that slot's own ids in `known`
        deque(map(pick.__setitem__, fresh, range(size, size + len(fresh))), 0)
        for _ in range(2 * n):
            known = ids[-size:]
            known += range(count, count + len(fresh))
            ids += map(known.__getitem__, pick)
            count += len(fresh)
    return least, count, ids
