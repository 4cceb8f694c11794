"""Show that the output gate can fail.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Short in-process runs corrupt one output
on purpose -- one byte of the 5-level odometer's DOT export, or one member
swapped between two classes of the depth-12 flip partition -- and each run
must report failed jobs, `correct: false` and a non-zero exit code.  Each
corruption is tried on a named seed (caught by the reference digests) and on
an unrecorded seed (caught by the structural checks and the oracle).  A
clean run must pass, and the per-layer metric names must match BENCHMARK.json.
The corruption lives only in memory; no file of the package is touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
import spans

NAMED_SEED = 0
UNRECORDED_SEED = 987654


def corrupt_dot(ce):
    """Bump one label digit of the DOT export of every 5-level diagram."""
    export = ce.export

    def bad_export(diagram, fmt):
        out = export(diagram, fmt)
        if fmt == "dot" and len(diagram.levels) == 5:
            at = out.index('label="') + len('label="')
            out = out[:at] + str((int(out[at]) + 1) % 10) + out[at + 1:]
        return out

    ce.export = bad_export


def corrupt_class(ce):
    """Swap one member between two classes of the d=12 partitions."""
    cell_partition = ce.cell_partition

    def bad_partition(a, n, d, *rest):
        part = cell_partition(a, n, d, *rest)
        big = [i for i, cls in enumerate(part.classes) if len(cls) > 1][:2]
        if d != 12 or len(big) < 2:
            return part
        classes = list(part.classes)
        first, second = classes[big[0]], classes[big[1]]
        classes[big[0]] = tuple(sorted(first[:-1] + second[-1:]))
        classes[big[1]] = tuple(sorted(second[:-1] + first[-1:]))
        return ce.CellPartition(part.n, part.d, tuple(sorted(classes)))

    ce.cell_partition = bad_partition


def one_run(workload: str, seed: int, corrupt=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, corrupt=corrupt)
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    return code, result


def main() -> int:
    problems = []
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != list(spans.LAYER_METRICS):
        problems.append("per_layer names in BENCHMARK.json differ from spans.LAYER_METRICS")

    code, result = one_run("odometer_tower", NAMED_SEED)
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"clean run failed: exit {code}, {result['failed']} failed")

    cases = [("odometer_tower", corrupt_dot), ("deep_cells", corrupt_class)]
    for workload, corrupt in cases:
        for seed in (NAMED_SEED, UNRECORDED_SEED):
            code, result = one_run(workload, seed, corrupt)
            caught = code != 0 and not result["correct"] and result["failed"] > 0
            print(f"{corrupt.__name__} on {workload} seed {seed}: exit {code}, "
                  f"{result['failed']} of {result['attempted']} jobs failed"
                  f" -> {'caught' if caught else 'MISSED'}")
            if not caught:
                problems.append(f"{corrupt.__name__} on {workload} seed {seed} was missed")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest ok" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
