#!/usr/bin/env python3
"""Guided tour of the odometer system: axioms, witness pair, stages, diagram.

Run from the repository root:

    python3 scripts/odometer_tour.py
    python3 scripts/odometer_tour.py --levels 5 --dot /tmp/odometer.dot
"""

import argparse
import sys

from cantorenv import (
    GermPair,
    ZPartialAction,
    axioms_check,
    bratteli_build,
    cell_partition,
    default_schedule,
    export,
    generated_family,
    hausdorff_decide,
    related,
    truncated_relation,
)
from cantorenv.cantor import Point
from cantorenv.cells import adapted_depth
from cantorenv.prefix_map import ODOMETER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4, help="diagram levels")
    ap.add_argument("--bound", type=int, default=4, help="axiom-check span")
    ap.add_argument("--dot", help="write the diagram in DOT format here")
    args = ap.parse_args(argv)

    a = ZPartialAction(ODOMETER)

    print("== axioms ==")
    for k in range(3):
        rep = axioms_check(generated_family(a.stage(k), args.bound))
        print(f"truncation {k}: ok={rep.ok} (span {rep.bound})")

    print()
    print("== envelope ==")
    cert = hausdorff_decide(a, bound=args.bound, depth=10)
    print(f"verdict: {cert.verdict}  t={cert.t}  point={cert.point}")

    p = GermPair(1, Point.parse("(0)"))
    q = GermPair(0, Point.parse("1(0)"))
    print(f"{p} ~ {q} at level 0: {related(a.stage(0), p, q)}")

    print()
    print("== stage partitions ==")
    for k in range(3):
        ak = a.stage(k)
        d = adapted_depth(ak, k + 1)
        part = cell_partition(ak, k + 1, d)
        print(f"stage k={k}, n={k + 1}, d={d}: {len(part.classes)} classes, "
              f"sizes {sorted(part.sizes, reverse=True)}")
    tr = truncated_relation(a, 1, 2, 2)
    print(f"truncated_relation(1,2,2) -> {len(tr.classes)} classes")

    print()
    print("== diagram ==")
    sched = default_schedule(a, args.levels)
    diag = bratteli_build(a, sched)
    for lv in diag.levels:
        dims = [v[1] for v in lv.vertices]
        print(f"level {lv.m} (k={lv.k}, n={lv.n}, d={lv.d}): "
              f"{len(lv.vertices)} vertices, total size {sum(dims)}")
    print(f"{len(diag.edges)} edges")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export(diag, "dot"))
        print(f"wrote {args.dot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
