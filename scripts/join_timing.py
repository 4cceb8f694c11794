#!/usr/bin/env python3
"""Time the canonical form and the cylinder operations on seeded random inputs.

Builds two random clopen sets, each the union of 3,200 distinct depth-14
cylinders (about 2,900 canonical words after sibling merges), a map of
1,200 rules between depth-11 words, and a base of 1,000 distinct depth-12
cylinders inside [0], then prints the best of `--repeat` wall-clock times
for building the first set from its 3,200 words, intersect, subset_of,
image_set, compose, and `etale_probe` of the flip [0 -> 1] over the base.
It uses only the public API, so the same script times any revision of the
package:

    PYTHONPATH=src python3 scripts/join_timing.py --seed 0 --repeat 3

Exits 1 when the probe is not ok, or when its image differs from the base
flipped here on strings (first symbol 0 -> 1).
"""

import argparse
import random
import sys
import time

from cantorenv.action import ZPartialAction
from cantorenv.cantor import ClopenSet
from cantorenv.envelope import etale_probe
from cantorenv.prefix_map import PrefixMap, compose


def cells(depth: int) -> list[str]:
    return [format(i, f"0{depth}b") for i in range(2**depth)]




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
    raw = tuple(rng.sample(cells(14), 3200))
    a, b = ClopenSet(raw), ClopenSet(tuple(rng.sample(cells(14), 3200)))
    m = random_map(rng, 1200, 11)
    flip = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
    base_words = ["0" + w for w in rng.sample(cells(11), 1000)]
    base = ClopenSet(tuple(base_words))
    print(f"|A| = {len(a.words)}, |B| = {len(b.words)}, rules = {len(m.rules)}, "
          f"|base| = {len(base.words)}")
    cases = [
        ("ClopenSet(3200)", lambda: ClopenSet(raw)),
        ("A & B", lambda: a & b),
        ("A.subset_of(A)", lambda: a.subset_of(a)),
        ("m.image_set(A)", lambda: m.image_set(a)),
        ("compose(m, m)", lambda: compose(m, m)),
        ("etale flip(base)", lambda: etale_probe(flip, 1, 0, base)),
    ]
    for name, fn in cases:
        print(f"{name:<16} {best(fn, args.repeat) * 1e3:9.1f} ms")

    rep = etale_probe(flip, 1, 0, base)
    want = ClopenSet(tuple("1" + w[1:] for w in base_words))
    if not rep.ok or rep.image != want:
        print(f"ETALE PROBE FAILED: ok={rep.ok}, violations={list(rep.violations)}, "
              f"image equals the flipped base: {rep.image == want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
