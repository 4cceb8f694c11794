"""Finite cell combinatorics for the translation relation.

At a depth d that is *adapted* -- deep enough that every map h_t in play
sends depth-d cylinders onto depth-d cylinders and every domain X_t is a
union of depth-d cylinders -- the relation on pairs (t, x) collapses to a
finite relation on cells (t, w) with w a word of length d.  The gluing set
of (r, w) is the cell itself plus each (s, h_{r-s}[w]) with [w] inside
dom(h_{r-s}); at adapted depth that one-step gluing is an equivalence, so
each class is the gluing set of any of its members.  A partition first
tabulates every map in play cell by cell, one dict per transport index t
from each cell of dom(h_t) to its image cell, so that every gluing step is
a lookup.  Everything downstream (quotients, truncations, diagram levels)
runs on these cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import ZPartialAction, transport_index
from .cantor import extensions
from .errors import DepthTooSmall, EngineError, NotStabilized


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

    First one image table per transport index t != 0 in [-2n, 2n] maps each
    depth-d cell inside dom(h_t) to its image cell.  The least cell in no
    class yet then starts the next class, which is its gluing set (one table
    lookup per slot).  Guard: every member's own gluing set must be that
    same class and no member may sit in an earlier class; otherwise the
    family breaks the axioms and EngineError is raised.
    """
    least = adapted_depth(a, n)
    if d < least:
        raise DepthTooSmall(f"depth {d} < adapted depth {least}")

    slots = range(-n, n + 1)
    images = {
        t: {
            u + z: v + z
            for u, v in a.h(t).rules
            for z in extensions("", d - len(u))
        }
        for t in range(-2 * n, 2 * n + 1)
        if t  # distinct slots never transport by h_0
    }

    def gluing_set(r: int, w: str):
        out = []
        for s in slots:
            wp = w if s == r else images[transport_index(r, s)].get(w)
            if wp is not None:
                out.append((s, wp))
        return tuple(out)

    words = extensions("", d)
    seen: set = set()
    classes = []
    for r in slots:
        for w in words:
            if (r, w) in seen:
                continue
            cls = gluing_set(r, w)
            for x in cls:
                if x in seen or (x != (r, w) and gluing_set(*x) != cls):
                    raise EngineError(
                        f"classes are not transitive: {x} is glued to {(r, w)}"
                        " but not to its class"
                    )
                seen.add(x)
            classes.append(cls)
    return CellPartition(n, d, tuple(classes))
