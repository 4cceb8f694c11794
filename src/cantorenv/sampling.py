"""Seeded random generators for maps, points, functions and relation data.

Everything is driven by one stdlib Random instance per Sampler, so a fixed
seed reproduces the exact same stream of maps, points and elements across
runs; the randomized identity checks are deterministic replays.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .action import ZPartialAction, germ_index, transport_index
from .algebra import GroupoidFunction
from .cantor import ClopenSet, Point
from .envelope import GermPair, GroupoidElement
from .errors import EngineError, NotInDomain
from .functions import ZERO_FUNC, PiecewiseConstant, Scalar
from .prefix_map import ODOMETER, GeneratedMap, PrefixMap, compose


class Sampler:
    """Seeded draws.  The populations that `groupoid_function` and `pwc` draw
    from depend only on their arguments, so each is built once per sampler:
    the nonempty slots per (action, max_index), the cells per (support, depth).
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self._slots: dict[tuple[ZPartialAction, int], list[tuple[int, int]]] = {}
        self._cells: dict[tuple[ClopenSet, int], list[str]] = {}

    # -- words and maps ----------------------------------------------------

    def antichain(self, max_splits: int = 3) -> list[str]:
        """A random partition of the space into cylinders."""
        words = [""]
        for _ in range(self.rng.randint(0, max_splits)):
            w = words.pop(self.rng.randrange(len(words)))
            words += [w + "0", w + "1"]
        return sorted(words)

    def prefix_map(self, max_rules: int = 3) -> PrefixMap:
        """A random valid map: prefix-free sources onto prefix-free targets."""
        src_pool = self.antichain()
        dst_pool = self.antichain()
        k = self.rng.randint(1, min(max_rules, len(src_pool), len(dst_pool)))
        sources = self.rng.sample(src_pool, k)
        targets = self.rng.sample(dst_pool, k)
        return PrefixMap(tuple(zip(sources, targets)))

    # -- points ------------------------------------------------------------

    def word(self, length: int) -> str:
        return "".join(self.rng.choice("01") for _ in range(length))

    def point(self, max_pre: int = 3, max_per: int = 2) -> Point:
        pre = self.word(self.rng.randint(0, max_pre))
        per = self.word(self.rng.randint(1, max_per))
        return Point(pre, per)

    def point_in(self, s: ClopenSet, max_pre: int = 2, max_per: int = 2) -> Point:
        if s.is_empty():
            raise ValueError("cannot pick a point of the empty set")
        w = self.rng.choice(s.words)
        return self.point(max_pre, max_per).with_prefix(w)

    # -- scalars and functions ---------------------------------------------

    def scalar(self, nonzero: bool = False) -> Scalar:
        def frac() -> Fraction:
            return Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 4))

        c = Scalar(frac(), frac())
        while nonzero and c.is_zero():
            c = Scalar(frac(), frac())
        return c

    def pwc(
        self, support: ClopenSet, depth: int = 4, max_pieces: int = 3
    ) -> PiecewiseConstant:
        if support.is_empty():
            return ZERO_FUNC
        d = max(depth, support.max_depth())
        cells = self._cells.get((support, d))
        if cells is None:
            cells = self._cells[support, d] = list(support.refine_to_depth(d))
        take = min(len(cells), self.rng.randint(1, max_pieces))
        chosen = self.rng.sample(cells, take)
        return PiecewiseConstant(
            tuple((w, self.scalar(nonzero=True)) for w in chosen)
        )

    def groupoid_function(
        self,
        a: ZPartialAction,
        max_index: int = 3,
        depth: int = 6,
        max_blocks: int = 3,
    ) -> GroupoidFunction:
        keys = self._slots.get((a, max_index))
        if keys is None:
            span = range(-max_index, max_index + 1)
            keys = self._slots[a, max_index] = [
                (r, s)
                for r in span
                for s in span
                if not a.domain(germ_index(r, s)).is_empty()
            ]
        take = min(len(keys), self.rng.randint(1, max_blocks))
        chosen = self.rng.sample(keys, take)
        blocks = tuple(
            (key, self.pwc(a.domain(germ_index(*key)), depth))
            for key in sorted(chosen)
        )
        return GroupoidFunction(blocks)

    # -- germs and arrows --------------------------------------------------

    def germ(self, max_index: int = 3) -> GermPair:
        return GermPair(self.rng.randint(-max_index, max_index), self.point())

    def related_triple(self, a: ZPartialAction, max_index: int = 2):
        """A germ chain p ~ q ~ w when a feasible base exists, else random germs."""
        for _ in range(20):
            chain = self._chain(a, 3, max_index)
            if chain is not None:
                return tuple(GermPair(t, p) for t, p in zip(*chain))
        return tuple(self.germ(max_index) for _ in range(3))

    def arrow_triples(self, a: ZPartialAction, count: int, max_index: int = 2):
        """Composable triples (z1, z2, z3) of arrows, exactly `count` of them."""
        out = []
        guard = 0
        while len(out) < count:
            guard += 1
            if guard > 200 * count:
                raise EngineError("arrow sampling starved; domains too thin")
            chain = self._chain(a, 4, max_index)
            if chain is not None:
                slots, pts = chain
                out.append(tuple(map(GroupoidElement, pts, slots, slots[1:])))
        return out

    def _chain(self, a: ZPartialAction, length: int, max_index: int):
        """Random slots and points threading through each consecutive transport.

        None when no point of the first germ set threads through them all.
        """
        slots = [self.rng.randint(-max_index, max_index) for _ in range(length)]
        feas = a.domain(germ_index(slots[0], slots[1]))
        acc = None
        maps = []
        for i in range(length - 1):
            step = a.h(transport_index(slots[i], slots[i + 1]))
            acc = step if acc is None else compose(step, acc)
            if i + 2 < length:
                nxt = a.domain(germ_index(slots[i + 1], slots[i + 2]))
                feas = feas & acc.preimage_set(nxt)
            maps.append(acc)
        if feas.is_empty():
            return None
        x = self.point_in(feas)
        return slots, [x] + [m.apply_point(x) for m in maps]

    # -- enumeration orbits ------------------------------------------------

    def enumeration_instance(
        self,
        g: GeneratedMap = ODOMETER,
        max_index: int = 4,
        max_desc: int = 8,
    ):
        """A true relation instance (r, x, s, y) plus the top rule index used."""
        for _ in range(500):
            r = self.rng.randint(-max_index, max_index)
            s = self.rng.randint(-max_index, max_index)
            p = self.point(max_pre=2, max_per=2)
            steps = abs(r - s)
            top = -1
            q = p
            try:
                for _ in range(steps):
                    q, idx = g.apply_point(q)
                    top = max(top, idx)
            except NotInDomain:
                continue
            x, y = (p, q) if r >= s else (q, p)
            if max(x.description_length(), y.description_length()) > max_desc:
                continue
            return r, x, s, y, top
        raise EngineError("could not sample a relation instance")
