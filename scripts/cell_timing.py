#!/usr/bin/env python3
"""Time cell_partition on the shapes of the deep_cells workload.

Partitions flip at (n, d) = (1, 9), (1, 12) and (2, 10), and seeded maps
along chains of distinct words (three and two words at depth 3, three and
three at depth 4) at depths 9-12, then prints the best of `--repeat`
wall-clock times of each.  Exits 1 when a partition does not hold every
cell (t, w), |t| <= n and |w| = d, exactly once.  It uses only the public
API, so the same script times any revision of the package:

    PYTHONPATH=src python3 scripts/cell_timing.py --seed 0 --repeat 3
"""

import argparse
import random
import time

from cantorenv.action import ZPartialAction
from cantorenv.cells import cell_partition
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    flip = PrefixMap((("0", "1"),))
    cases = [(f"flip n={n} d={d}", flip, n, d) for n, d in ((1, 9), (1, 12), (2, 10))]
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
        ok = covers_once(part, n, d)
        bad += not ok
        print(f"{name:<28} {len(part.classes):6d} classes {min(times) * 1e3:8.1f} ms"
              + ("" if ok else "  NOT A PARTITION"))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
