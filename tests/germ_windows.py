"""The germ relation against the brute-force partition on whole cell windows.

At a depth d no smaller than the adapted depth, every power h_t with
|t| <= 2n maps each depth-d cell of its domain onto a cell, so the germ
groupoid restricted to the window (n, d) is a finite equivalence relation
on the cells (t, w), |t| <= n, |w| = d: its unit, inverse and composite
laws are reflexivity, symmetry and transitivity.  The cell [w] stands as
the point w·τ, τ the tail (0) or (01), and both germs of a pair share it.
`related` must then hold exactly when `oracles.brute_partition` puts the
two cells in one class.  For a pair in one class, the second germ with the
other tail must not be related to the first (definedness: an arrow has one
target).
"""

from cantorenv.action import ZPartialAction
from cantorenv.cantor import Point
from cantorenv.cells import adapted_depth
from cantorenv.envelope import GermPair, related
from cantorenv.prefix_map import IDENTITY, ODOMETER, PrefixMap

from oracles import FLIP_RULES, brute_partition, odometer_rules

TAILS = ("0", "01")

# each action with the rules of h_1 that the oracle transports by
SYSTEMS = {
    "flip": (ZPartialAction(PrefixMap(tuple(FLIP_RULES))), FLIP_RULES),
    "swap": (ZPartialAction(PrefixMap.parse("[0 -> 1, 1 -> 0]")), [("0", "1"), ("1", "0")]),
    "identity": (ZPartialAction(IDENTITY), [("", "")]),
    **{f"odometer stage {k}": (ZPartialAction(ODOMETER).stage(k), odometer_rules(k))
       for k in range(4)},
}


def window_failures(a, rules, n, d):
    """The ordered cell pairs of the window (n, d) checked, and every
    disagreement of `related` on `a` with the classes of `rules`.  The pair
    of the i-th and j-th cells shares the tail TAILS[(i + j) % 2], so every
    cell meets both tails."""
    owner = {cell: i for i, cls in enumerate(brute_partition(rules, n, d)) for cell in cls}
    cells = sorted(owner)
    germs = [[GermPair(t, Point(w, tail)) for t, w in cells] for tail in TAILS]
    bad = []
    for i, p in enumerate(cells):
        for j, q in enumerate(cells):
            tail = (i + j) % 2
            x, y = germs[tail][i], germs[tail][j]
            same = owner[p] == owner[q]
            if related(a, x, y) != same:
                bad.append(f"{x} ~ {y} is {not same}; the oracle says {same}")
            elif same and related(a, x, germs[1 - tail][j]):
                bad.append(f"{x} is related to both {y} and {germs[1 - tail][j]}")
    return len(cells) ** 2, bad


def windows_failures():
    """window_failures summed over n in {1, 2} and d in {d0, d0 + 1}, d0 the
    adapted depth, for each action of SYSTEMS: 28 windows, 59,330 pairs."""
    checked, bad = 0, []
    for name, (a, rules) in SYSTEMS.items():
        for n in (1, 2):
            d0 = adapted_depth(a, n)
            for d in (d0, d0 + 1):
                pairs, failures = window_failures(a, rules, n, d)
                checked += pairs
                bad += [f"{name}, window ({n}, {d}): {f}" for f in failures]
    return checked, bad
