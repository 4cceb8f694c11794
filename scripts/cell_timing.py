#!/usr/bin/env python3
"""Time cell_partition on the shapes of the deep_cells workload.

Partitions flip at (n, d) = (1, 9), (1, 12), (2, 10) and the budget edge
(1, 18), and seeded maps along chains of distinct words (three and two
words at depth 3, three and three at depth 4) at depths 9-12, then prints
each shape's adapted depth d0 next to d and the best of `--repeat`
wall-clock times.  Exits 1 when a partition does not hold every cell
(t, w), |t| <= n and |w| = d, exactly once, or when a class differs from
the word-level transport orbit of any of its members.  The orbits are
computed here on plain strings, with no help from the package, and the
script uses only the public API, so the same script times any revision:

    PYTHONPATH=src python3 scripts/cell_timing.py --seed 0 --repeat 3
"""

import argparse
import random
import time

from cantorenv.action import ZPartialAction
from cantorenv.cells import adapted_depth, cell_partition
from cantorenv.prefix_map import PrefixMap


def chain_map(rng: random.Random, depth: int, chains) -> PrefixMap:
    """Rules w1 -> w2 -> ... along chains of distinct depth-`depth` words."""
    words = rng.sample([format(i, f"0{depth}b") for i in range(2**depth)], sum(chains))
    rules = []
    for size in chains:
        chain, words = words[:size], words[size:]
        rules += zip(chain, chain[1:])
    return PrefixMap(tuple(rules))


def covers_once(part, n: int, d: int) -> bool:
    cells = [cell for cls in part.classes for cell in cls]
    want = {(t, format(i, f"0{d}b") if d else "")
            for t in range(-n, n + 1) for i in range(2**d)}
    return len(cells) == len(want) and set(cells) == want


def transport(rules, t: int, w: str):
    """Apply the rules t times (inverted when t < 0) to w, or None once no
    source is a prefix; every source is at most as long as w."""
    use = rules if t >= 0 else [(v, u) for u, v in rules]
    for _ in range(abs(t)):
        u, v = next(((u, v) for u, v in use if w.startswith(u)), (None, None))
        if u is None:
            return None
        w = v + w[len(u):]
    return w


def orbits_match(part, rules, n: int) -> bool:
    """Every class equals the transport orbit, over slots |s| <= n, of each
    of its members."""
    slots = range(-n, n + 1)
    for cls in part.classes:
        members = set(cls)
        for r, w in cls:
            linked = {(s, transport(rules, r - s, w)) for s in slots}
            if {(s, x) for s, x in linked if x is not None} != members:
                return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    flip = PrefixMap((("0", "1"),))
    cases = [(f"flip n={n} d={d}", flip, n, d)
             for n, d in ((1, 9), (1, 12), (2, 10), (1, 18))]
    cases += [(f"chains {depth}:{chains} n={n} d={d}", chain_map(rng, depth, chains), n, d)
              for depth, chains, n, d in ((3, (3, 2), 1, 9), (3, (3, 2), 1, 10),
                                          (3, (3, 2), 2, 9), (4, (3, 3), 1, 9),
                                          (3, (3, 2), 1, 12))]
    bad = 0
    for name, m, n, d in cases:
        times = []
        for _ in range(args.repeat):
            a = ZPartialAction(m)
            t0 = time.perf_counter()
            part = cell_partition(a, n, d)
            times.append(time.perf_counter() - t0)
        if not covers_once(part, n, d):
            verdict = "  NOT A PARTITION"
        elif not orbits_match(part, m.rules, n):
            verdict = "  CLASS IS NOT AN ORBIT"
        else:
            verdict = ""
        bad += bool(verdict)
        print(f"{name:<28} d0={adapted_depth(a, n)} {len(part.classes):7d} classes "
              f"{min(times) * 1e3:8.1f} ms{verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
