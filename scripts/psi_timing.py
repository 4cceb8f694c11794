#!/usr/bin/env python3
"""Time the reindexing identity suites and count the X_t lookups they make.

Runs the three suites of acceptance criterion 7 (the flip and odometer
stages 1 and 2, `--trials` trials each) and one pass shaped like the
benchmark's psi_suite workload: 32 small maps (flip, odometer stages, seeded
two-rule and chain maps), three trials of `isomorphism_suite` and
`equivariance_sign` each.  For every case it prints the best of `--repeat`
wall-clock times, then, for one more run, the `ZPartialAction.domain` calls
against the distinct (generator, schedule, t) keys they asked for, and the
calls the suites made to `convolve`, `kernel_multiply`, `adjoint` and
`kernel_adjoint`:

    PYTHONPATH=src python3 scripts/psi_timing.py --trials 250 --seed 707

It uses only the public API and the standard library.
"""

import argparse
import random
import sys
import time
from collections import Counter

import cantorenv.verify
from cantorenv import ZPartialAction, equivariance_sign, isomorphism_suite
from cantorenv.prefix_map import ODOMETER, PrefixMap

PRODUCTS = ("convolve", "kernel_multiply", "adjoint", "kernel_adjoint")


def words(depth: int) -> list[str]:
    return [format(i, f"0{depth}b") for i in range(2**depth)]


def skew_map(rng: random.Random) -> PrefixMap:
    """a -> b c d, b c' -> a e: one rule changes word length."""
    a, c, d, e = (rng.choice("01") for _ in range(4))
    b, c2 = ("1" if a == "0" else "0"), ("1" if c == "0" else "0")
    return PrefixMap(((a, b + c + d), (b + c2, a + e)))


def chain_map(rng: random.Random) -> PrefixMap:
    """w1 -> w2 -> w3 along three distinct depth-2 words."""
    w = rng.sample(words(2), 3)
    return PrefixMap(((w[0], w[1]), (w[1], w[2])))


def criterion_7(trials: int, seed: int):
    flip = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
    odo = ZPartialAction(ODOMETER)
    for a in (flip, odo.stage(1), odo.stage(2)):
        rep = isomorphism_suite(a, trials=trials, seed=seed, max_index=3, depth=6)
        if not rep.ok:
            raise SystemExit(f"criterion 7 suite failed: {rep.failures[:3]}")


def psi_pass(seed: int):
    rng = random.Random(seed)
    jobs = [(PrefixMap.parse("[0 -> 1]"), None), (ODOMETER, 1), (ODOMETER, 2)] * 4
    for _ in range(10):
        jobs += [(skew_map(rng), None), (chain_map(rng), None)]
    for slot, (generator, level) in enumerate(jobs):
        a = ZPartialAction(generator)
        if level is not None:
            a = a.stage(level)
        opts = dict(trials=3, seed=slot, max_index=2, depth=4)
        rep = isomorphism_suite(a, **opts)
        _, signs = equivariance_sign(a, **opts)
        if not (rep.ok and signs.ok):
            raise SystemExit(f"psi pass failed on {generator}: {rep.failures[:3]}")


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def call_counts(fn) -> tuple[int, int, Counter]:
    """Calls of ZPartialAction.domain made by fn(), their distinct keys, and
    the calls of each product the suites make (as bound in cantorenv.verify)."""
    orig = ZPartialAction.domain
    keys = []
    products = Counter()

    def counted(self, t):
        keys.append((self.generator, self.counts, t))
        return orig(self, t)

    def counting(name, product):
        def counted_product(*args):
            products[name] += 1
            return product(*args)
        return counted_product

    originals = {name: getattr(cantorenv.verify, name) for name in PRODUCTS}
    ZPartialAction.domain = counted
    for name, product in originals.items():
        setattr(cantorenv.verify, name, counting(name, product))
    try:
        fn()
    finally:
        ZPartialAction.domain = orig
        for name, product in originals.items():
            setattr(cantorenv.verify, name, product)
    return len(keys), len(set(keys)), products


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=250)
    ap.add_argument("--seed", type=int, default=707)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    cases = [
        (f"criterion 7 ({args.trials} trials x 3)",
         lambda: criterion_7(args.trials, args.seed)),
        ("psi_suite-shaped pass", lambda: psi_pass(args.seed)),
    ]
    for name, fn in cases:
        dt = best(fn, args.repeat)
        calls, distinct, products = call_counts(fn)
        print(f"{name:<30} {dt * 1e3:9.1f} ms   "
              f"domain calls {calls:>7,}  distinct keys {distinct:>5,}")
        print(" " * 33 + "  ".join(f"{p} {products[p]:,}" for p in PRODUCTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
