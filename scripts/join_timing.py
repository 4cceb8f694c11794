#!/usr/bin/env python3
"""Time the pairwise cylinder operations on large seeded random inputs.

Builds two random clopen sets, each the union of 3,200 distinct depth-14
cylinders (about 2,900 canonical words after sibling merges), and a map of
1,200 rules between depth-11 words, then prints the best of `--repeat`
wall-clock times for intersect, subset_of, image_set and compose.  It uses
only the public API, so the same script times any revision of the package:

    PYTHONPATH=src python3 scripts/join_timing.py --seed 0 --repeat 3
"""

import argparse
import random
import time

from cantorenv.cantor import ClopenSet
from cantorenv.prefix_map import PrefixMap, compose


def cells(depth: int) -> list[str]:
    return [format(i, f"0{depth}b") for i in range(2**depth)]


def random_set(rng: random.Random, n: int, depth: int) -> ClopenSet:
    return ClopenSet(tuple(rng.sample(cells(depth), n)))


def random_map(rng: random.Random, rules: int, depth: int) -> PrefixMap:
    words = cells(depth)
    return PrefixMap(tuple(zip(rng.sample(words, rules), rng.sample(words, rules))))


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    a, b = random_set(rng, 3200, 14), random_set(rng, 3200, 14)
    m = random_map(rng, 1200, 11)
    print(f"|A| = {len(a.words)}, |B| = {len(b.words)}, rules = {len(m.rules)}")
    cases = [
        ("A & B", lambda: a & b),
        ("A.subset_of(A)", lambda: a.subset_of(a)),
        ("m.image_set(A)", lambda: m.image_set(a)),
        ("compose(m, m)", lambda: compose(m, m)),
    ]
    for name, fn in cases:
        print(f"{name:<16} {best(fn, args.repeat) * 1e3:9.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
