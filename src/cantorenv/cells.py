"""Finite cell combinatorics for the translation relation.

At a depth d that is *adapted* -- deep enough that every map h_t in play
sends depth-d cylinders onto depth-d cylinders and every domain X_t is a
union of depth-d cylinders -- the relation on pairs (t, x) collapses to a
finite relation on pairs (t, w) with w a word of length d.  Everything
downstream (quotients, truncations, diagram levels) runs on these cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import ZPartialAction, germ_index, transport_index
from .cantor import extensions
from .errors import DepthTooSmall, EngineError, NotInDomain, NotStabilized
from .prefix_map import PrefixMap


class UnionFind:
    def __init__(self, items):
        self._parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self._parent[ry] = rx

    def classes(self):
        buckets: dict = {}
        for x in self._parent:
            buckets.setdefault(self.find(x), []).append(x)
        return tuple(
            sorted(tuple(sorted(members)) for members in buckets.values())
        )


def adapted_depth(a: ZPartialAction, n: int) -> int:
    """Smallest depth at which cells of indices |t| <= n behave rigidly.

    Pairs with slots in [-n, n] are transported by maps h_t with |t| up to
    2n, so those are the maps that must act cell-to-cell.  A rule that
    changes word length shifts cylinder depth on every application and no
    uniform depth ever works; that is reported as NotStabilized.
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
        depth = max(depth, a.domain(t).max_depth())
    return depth


def cell_image_word(h: PrefixMap, w: str) -> str:
    """Image of the cylinder [w] under h, as a word of the same length.

    Requires [w] inside dom(h) and len(w) at least the longest source.
    """
    for u, v in h.rules:
        if w.startswith(u):
            return v + w[len(u):]
    raise NotInDomain(f"cylinder [{w}] is not inside dom({h})")


def directly_related(a: ZPartialAction, r: int, w: str, s: int, wp: str) -> bool:
    """Whether the single gluing step identifies cell (r, [w]) with (s, [wp])."""
    if r == s:
        return w == wp
    if not a.domain(germ_index(r, s)).contains_word(w):
        return False
    return cell_image_word(a.h(transport_index(r, s)), w) == wp


@dataclass(frozen=True)
class CellPartition:
    """Cells (t, w), |t| <= n, len(w) = d, grouped into relation classes."""

    n: int
    d: int
    classes: tuple[tuple[tuple[int, str], ...], ...]

    @property
    def units(self):
        return tuple(u for cls in self.classes for u in cls)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    def lookup(self) -> dict:
        return {u: i for i, cls in enumerate(self.classes) for u in cls}


def cell_partition(a: ZPartialAction, n: int, d: int) -> CellPartition:
    """Partition of all cells (t, w), |t| <= n and |w| = d, by the relation.

    The one-step gluing is already an equivalence at adapted depth, so the
    connected components must be all-pairs directly related; that is checked
    outright and a failure means the generating family breaks the axioms.
    """
    least = adapted_depth(a, n)
    if d < least:
        raise DepthTooSmall(f"depth {d} < adapted depth {least}")

    words = extensions("", d)
    units = [(t, w) for t in range(-n, n + 1) for w in words]
    uf = UnionFind(units)
    for r, w in units:
        for s in range(-n, n + 1):
            if s == r:
                continue
            if not a.domain(germ_index(r, s)).contains_word(w):
                continue
            wp = cell_image_word(a.h(transport_index(r, s)), w)
            uf.union((r, w), (s, wp))

    classes = uf.classes()
    for cls in classes:
        for x in cls:
            for y in cls:
                if not directly_related(a, x[0], x[1], y[0], y[1]):
                    raise EngineError(
                        f"classes are not transitive: {x} !~ {y}"
                    )
    return CellPartition(n, d, classes)
