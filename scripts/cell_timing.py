#!/usr/bin/env python3
"""Time cell_partition on the shapes of the deep_cells workload, and
class_table on the stage shapes of two Bratteli towers.

Partitions flip at (n, d) = (1, 9), (1, 12), (2, 10) and the budget edge
(1, 18), and seeded maps along chains of distinct words (three and two
words at depth 3, three and three at depth 4) at depths 9-12.  Then reads
the class table of every stage (k, n, d) of the default schedule of a
5-level odometer tower and of a 5-level tower on a seeded enumeration
along chains (three and two words at depth 3).  Prints each shape's
adapted depth d0 next to d and the best of `--repeat` wall-clock times.
Exits 1 when a partition does not hold every cell (t, w), |t| <= n and
|w| = d, exactly once, when a class differs from the word-level transport
orbit of any of its members, or when the cells that a class table gives
one id differ from the orbit of any of them.  The orbits are computed here
on plain strings, with no help from the package, and the script uses only
the public API, so the same script times any revision that has both
functions:

    PYTHONPATH=src python3 scripts/cell_timing.py --seed 0 --repeat 3
"""

import argparse
import random
import time

from cantorenv.action import ZPartialAction
from cantorenv.cells import adapted_depth, cell_partition, class_table
from cantorenv.filtration import default_schedule
from cantorenv.prefix_map import ODOMETER, GeneratedMap, PrefixMap


def chain_map(rng: random.Random, depth: int, chains) -> PrefixMap:
    """Rules w1 -> w2 -> ... along chains of distinct depth-`depth` words."""
    words = rng.sample([format(i, f"0{depth}b") for i in range(2**depth)], sum(chains))
    rules = []
    for size in chains:
        chain, words = words[:size], words[size:]
        rules += zip(chain, chain[1:])
    return PrefixMap(tuple(rules))


def all_cells(n: int, d: int) -> list:
    """Every cell (t, w), |t| <= n and |w| = d, in slot-major order."""
    return [(t, format(i, f"0{d}b") if d else "")
            for t in range(-n, n + 1) for i in range(2**d)]


def covers_once(part, n: int, d: int) -> bool:
    cells = [cell for cls in part.classes for cell in cls]
    want = set(all_cells(n, d))
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


def table_matches_orbits(count: int, ids, rules, n: int, d: int) -> bool:
    """Read in slot-major cell order, the ids first appear as 0, ..., count - 1
    (classes are numbered by least cell), and the cells of each id form the
    transport orbit of each of them."""
    cells = all_cells(n, d)
    members = {}
    for cell, i in zip(cells, ids):
        members.setdefault(i, set()).add(cell)
    if len(ids) != len(cells) or list(members) != list(range(count)):
        return False
    slots = range(-n, n + 1)
    for (r, w), i in zip(cells, ids):
        linked = {(s, transport(rules, r - s, w)) for s in slots}
        if {(s, x) for s, x in linked if x is not None} != members[i]:
            return False
    return True


def time_tables(name: str, ex: ZPartialAction, levels: int, repeat: int) -> int:
    """Time class_table on each stage of the default schedule; the number of
    tables that disagree with the orbits."""
    bad = 0
    for k, n, d in default_schedule(ex, levels):
        times = []
        for _ in range(repeat):
            a = ZPartialAction(ex.stage(k).generator)
            t0 = time.perf_counter()
            count, ids = class_table(a, n, d)
            times.append(time.perf_counter() - t0)
        ok = table_matches_orbits(count, ids, a.generator.rules, n, d)
        bad += not ok
        shape = f"{name} k={k} n={n} d={d}"
        print(f"{shape:<34} d0={adapted_depth(a, n)} {count:7d} classes "
              f"{min(times) * 1e3:8.1f} ms{'' if ok else '  IDS ARE NOT ORBITS'}")
    return bad


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
        print(f"{name:<34} d0={adapted_depth(a, n)} {len(part.classes):7d} classes "
              f"{min(times) * 1e3:8.1f} ms{verdict}")
    bad += time_tables("odometer tower", ZPartialAction(ODOMETER), 5, args.repeat)
    seeded = GeneratedMap("rules", chain_map(rng, 3, (3, 2)).rules)
    bad += time_tables("chains 3:(3,2) tower", ZPartialAction(seeded), 5, args.repeat)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
