"""Seeded random generators for maps, points, functions and relation data.

Everything is driven by one stdlib Random instance per Sampler, so a fixed
seed reproduces the exact same stream of maps, points and elements across
runs; the randomized identity checks are deterministic replays.
"""

from __future__ import annotations

import random

from . import cells
from .action import ZPartialAction, germ_index, transport_index
from .algebra import GroupoidFunction
from .cantor import ClopenSet, Point
from .envelope import GermPair
from .errors import CapExceeded, EngineError, NotInDomain
from .functions import ZERO_FUNC, PiecewiseConstant, Scalar
from .prefix_map import ODOMETER, PrefixMap, compose

# Fixed sizes of the draws: at most this many halvings of an antichain, rules
# of a prefix map, cells of a function and slot blocks of a groupoid function;
# germ and chain slots lie in [-GERM_INDEX, GERM_INDEX]; enumeration instances
# have slots in [-ENUM_INDEX, ENUM_INDEX] and points of description length at
# most MAX_DESC.
MAX_SPLITS = 3
MAX_RULES = 3
MAX_PIECES = 3
MAX_BLOCKS = 3
GERM_INDEX = 2
ENUM_INDEX = 4
MAX_DESC = 8


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

    def antichain(self) -> list[str]:
        """A random partition of the space into cylinders."""
        words = [""]
        for _ in range(self.rng.randint(0, MAX_SPLITS)):
            w = words.pop(self.rng.randrange(len(words)))
            words += [w + "0", w + "1"]
        return sorted(words)

    def prefix_map(self) -> PrefixMap:
        """A random valid map: prefix-free sources onto prefix-free targets."""
        src_pool = self.antichain()
        dst_pool = self.antichain()
        k = self.rng.randint(1, min(MAX_RULES, len(src_pool), len(dst_pool)))
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

    def point_in(self, s: ClopenSet) -> Point:
        if s.is_empty():
            raise ValueError("cannot pick a point of the empty set")
        w = self.rng.choice(s.words)
        return self.point(max_pre=2, max_per=2).with_prefix(w)

    # -- scalars and functions ---------------------------------------------

    def scalar(self) -> Scalar:
        """A nonzero Gaussian rational p/q + (r/s)i: p, r drawn from -4..4 and
        q, s from 1..4, in the order p, q, r, s, redrawn while p = r = 0.
        Here, in `pwc` and in `groupoid_function`, randint(lo, hi) is drawn
        as lo + _randbelow(hi - lo + 1), the call it makes in CPython 3.10-3.13."""
        below = self.rng._randbelow
        while True:
            p, q, r, s = below(9) - 4, below(4) + 1, below(9) - 4, below(4) + 1
            if p or r:
                return Scalar._make(p * s, r * q, q * s)

    def pwc(self, support: ClopenSet, depth: int = 4) -> PiecewiseConstant:
        if support.is_empty():
            return ZERO_FUNC
        d = max(depth, support.max_depth())
        pool = self._cells.get((support, d))
        if pool is None:
            # the budget is read here, at each call, not bound at import
            size = sum(1 << (d - len(w)) for w in support.words)
            if size > cells.CELL_BUDGET:
                raise CapExceeded(
                    f"the support refined to depth {d} has {size} cells, over "
                    f"the budget of {cells.CELL_BUDGET} cells"
                )
            pool = self._cells[support, d] = list(support.refine_to_depth(d))
        take = min(len(pool), 1 + self.rng._randbelow(MAX_PIECES))
        chosen = self.rng.sample(pool, take)
        # distinct checked cells of one depth, each with a nonzero scalar
        # drawn in the order of `chosen`; the sort never compares scalars
        return PiecewiseConstant._canonical(
            sorted((w, self.scalar()) for w in chosen)
        )

    def groupoid_function(
        self, a: ZPartialAction, max_index: int = 3, depth: int = 6
    ) -> GroupoidFunction:
        keys = self._slots.get((a, max_index))
        if keys is None:
            # the germ index s - r of a slot pair is one of 4*max_index + 1
            # values: test each once, and keep the pairs (r, s) in (r, s) order
            span = range(-max_index, max_index + 1)
            live = [
                t
                for t in range(-2 * max_index, 2 * max_index + 1)
                if not a.domain(t).is_empty()
            ]
            keys = self._slots[a, max_index] = [
                (r, r + t) for r in span for t in live if r + t in span
            ]
        take = min(len(keys), 1 + self.rng._randbelow(MAX_BLOCKS))
        chosen = self.rng.sample(keys, take)
        blocks = tuple(
            (key, self.pwc(a.domain(germ_index(*key)), depth))
            for key in sorted(chosen)
        )
        return GroupoidFunction(blocks)

    # -- germs and arrows --------------------------------------------------

    def germ(self) -> GermPair:
        return GermPair(self.rng.randint(-GERM_INDEX, GERM_INDEX), self.point())

    def related_triple(self, a: ZPartialAction):
        """A germ chain p ~ q ~ w when a feasible base exists, else random germs."""
        for _ in range(20):
            germs = self._chain(a, 3)
            if germs is not None:
                return tuple(germs)
        return tuple(self.germ() for _ in range(3))

    def arrow_triples(self, a: ZPartialAction, count: int):
        """Composable triples ((p, q), (q, r), (r, w)) of arrows, exactly
        `count` of them; an arrow is a pair of related germs."""
        out = []
        guard = 0
        while len(out) < count:
            guard += 1
            if guard > 200 * count:
                raise EngineError("arrow sampling starved; domains too thin")
            germs = self._chain(a, 4)
            if germs is not None:
                out.append(tuple(zip(germs, germs[1:])))
        return out

    def _chain(self, a: ZPartialAction, length: int) -> list[GermPair] | None:
        """Random germs, each related to the next by its transport.

        None when no point of the first germ set threads through them all.
        """
        slots = [self.rng.randint(-GERM_INDEX, GERM_INDEX) for _ in range(length)]
        acc = None
        maps = []
        for i in range(length - 1):
            step = a.h(transport_index(slots[i], slots[i + 1]))
            acc = step if acc is None else compose(step, acc)
            maps.append(acc)
        # dom(h_k o ... o h_1) is exactly where every step is defined
        feas = acc.domain()
        if feas.is_empty():
            return None
        x = self.point_in(feas)
        pts = [x] + [m.apply_point(x) for m in maps]
        return list(map(GermPair, slots, pts))

    # -- enumeration orbits ------------------------------------------------

    def enumeration_instance(self):
        """A true odometer relation instance (r, x, s, y) plus the top rule
        index used."""
        for _ in range(500):
            r = self.rng.randint(-ENUM_INDEX, ENUM_INDEX)
            s = self.rng.randint(-ENUM_INDEX, ENUM_INDEX)
            p = self.point(max_pre=2, max_per=2)
            steps = abs(r - s)
            top = -1
            q = p
            try:
                for _ in range(steps):
                    q, idx = ODOMETER.apply_point(q)
                    top = max(top, idx)
            except NotInDomain:
                continue
            x, y = (p, q) if r >= s else (q, p)
            if max(x.description_length(), y.description_length()) > MAX_DESC:
                continue
            return r, x, s, y, top
        raise EngineError("could not sample a relation instance")
