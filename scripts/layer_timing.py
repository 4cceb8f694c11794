#!/usr/bin/env python3
"""Time the engine layer by layer; each layer exits 1 when its self-check fails.

    PYTHONPATH=src python3 scripts/layer_timing.py psi --trials 250 --seed 707 --repeat 3
    PYTHONPATH=src python3 scripts/layer_timing.py cli --repeat 5
    PYTHONPATH=src python3 scripts/layer_timing.py cells --seed 0 --repeat 3
    PYTHONPATH=src python3 scripts/layer_timing.py join --seed 0 --repeat 3
    PYTHONPATH=src python3 scripts/layer_timing.py axioms --seed 1 --repeat 15
    PYTHONPATH=src python3 scripts/layer_timing.py import --repeat 10

Every case prints the best of `--repeat` wall-clock times.  A case with the
shape of a benchmark workload runs that workload's own jobs (`make_jobs` and
`run` of perfbench/workloads.py) and judges them with its `check` and
`oracle`; word-level orbits come from the brute force of tests/oracles.py.
`layer_timing.py <layer> --help` says what each layer times and checks.
"""

import argparse
import contextlib
import functools
import importlib.util
import io
import os
import random
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import cantorenv as ce
import cantorenv.cli
import cantorenv.filtration
import cantorenv.verify
from cantorenv import GroupoidFunction, ZPartialAction, convolve, isomorphism_suite
from cantorenv.action import axioms_check
from cantorenv.cantor import ClopenSet, extensions
from cantorenv.cells import adapted_depth, class_table
from cantorenv.errors import SupportViolation
from cantorenv.filtration import default_schedule
from cantorenv.prefix_map import ODOMETER, GeneratedMap, PrefixMap, compose

ROOT = Path(__file__).resolve().parent.parent
PRODUCTS = ("convolve", "kernel_multiply", "adjoint", "kernel_adjoint")


def load(relpath: str):
    """A module of the checkout by path (perfbench/ and tests/ are no packages)."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(f"layer_timing_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("perfbench/workloads.py")
oracles = load("tests/oracles.py")


def words(depth: int) -> list[str]:
    return [format(i, f"0{depth}b") for i in range(2**depth)] if depth else [""]


def best(fn, repeat: int):
    """The least wall-clock time of `repeat` calls of fn, and the last result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def failures(job: dict, result) -> list[str]:
    """The benchmark gate's verdict on one output: its structural check, then
    the recomputation by tests/oracles.py."""
    data = workloads.encode(job, result)
    return workloads.check(job, data) or workloads.oracle(job, data, oracles)


# psi: the algebra layer


def criterion_7(trials: int, seed: int) -> dict[str, ZPartialAction]:
    """Run the three suites; return their actions by name."""
    odo = ZPartialAction(ODOMETER)
    actions = {"flip": ZPartialAction(PrefixMap.parse("[0 -> 1]")),
               "odometer stage 1": odo.stage(1), "odometer stage 2": odo.stage(2)}
    for a in actions.values():
        rep = isomorphism_suite(a, trials=trials, seed=seed, max_index=3, depth=6)
        if not rep.ok:
            raise SystemExit(f"criterion 7 suite failed: {rep.failures[:3]}")
    return actions


def psi_pass(jobs: list[dict]) -> None:
    for job in jobs:
        bad = failures(job, workloads.run(ce, job, None))
        if bad:
            raise SystemExit(f"psi_suite job failed on {job['rules']}: {bad[:3]}")


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


def time_psi(args) -> int:
    """Run the three suites of acceptance criterion 7 (the flip and odometer
    stages 1 and 2, `--trials` trials each) and the psi_suite jobs of
    `--seed`.  For each, print the time, then, for one more run, the
    ZPartialAction.domain calls against the distinct (generator, schedule, t)
    keys they asked for, and the calls the suites made to `convolve`,
    `kernel_multiply`, `adjoint` and `kernel_adjoint`.  Last, pass one block
    to `convolve` for the flip [0 -> 1], where it lies in X_1 = {1}, and then
    for [1 -> 0], where X_1 = {0}; exit 1 unless the second call refuses it,
    since a table records the action it passed for, not that it passed."""
    jobs = workloads.make_jobs("psi_suite", args.seed)
    cases = [
        (f"criterion 7 ({args.trials} trials x 3)",
         lambda: criterion_7(args.trials, args.seed)),
        (f"psi_suite jobs (seed {args.seed})", lambda: psi_pass(jobs)),
    ]
    for name, fn in cases:
        dt, _ = best(fn, args.repeat)
        calls, distinct, products = call_counts(fn)
        print(f"{name:<30} {dt * 1e3:9.1f} ms   "
              f"domain calls {calls:>7,}  distinct keys {distinct:>5,}")
        print(" " * 33 + "  ".join(f"{p} {products[p]:,}" for p in PRODUCTS))
    block = GroupoidFunction((((0, 1), ce.indicator(ClopenSet.parse("{1}"))),))
    convolve(block, block, ZPartialAction(PrefixMap.parse("[0 -> 1]")))
    try:
        convolve(block, block, ZPartialAction(PrefixMap.parse("[1 -> 0]")))
    except SupportViolation as exc:
        print(f"checked for [0 -> 1], refused for [1 -> 0]: {exc}")
        return 0
    print("A BLOCK CHECKED FOR ONE ACTION PASSED THE CHECK OF ANOTHER")
    return 1


# cli: README's command block through cli.main


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("cantorenv ")]


def timed_main(argv: list[str]) -> tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = ce.cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def time_cli(args) -> int:
    """Time every command of README's "Command line" block through `cli.main`,
    all in this one process.  The parser is built once per process, so its
    build is timed on its own first.  Then, for each command, print its exit
    code, the time of its first call (cold action caches: every call builds a
    fresh action) and the best of `--repeat` later calls.  Exit 1 when a
    command exits non-zero or a later call prints other bytes than the first."""
    os.chdir(ROOT)
    print(f"{'first ms':>9} {'best later ms':>14}  exit  command")
    t0 = time.perf_counter()
    ce.cli.build_parser()
    print(f"{(time.perf_counter() - t0) * 1e3:9.2f} {'-':>14}  {'-':>4}  "
          "(parser build, once per process)")
    status = 0
    for command in readme_commands():
        first, code, out = timed_main(command)
        later = []
        for _ in range(args.repeat):
            dt, code_again, out_again = timed_main(command)
            later.append(dt)
            if (code_again, out_again) != (code, out):
                print(f"a later call printed other bytes: {shlex.join(command)}")
                status = 1
        if code != 0:
            status = 1
        fastest = f"{min(later) * 1e3:14.2f}" if later else f"{'-':>14}"
        print(f"{first * 1e3:9.2f} {fastest}  {code:>4}  {shlex.join(command)}")
    return status


# cells: cell partitions and class tables


def table_matches_orbits(count: int, ids, rules, n: int, d: int) -> bool:
    """Read in slot-major cell order, the ids first appear as 0, ..., count - 1
    (classes are numbered by least cell), and the cells of each id form the
    transport orbit of each of them."""
    slots = range(-n, n + 1)
    cells = [(t, w) for t in slots for w in words(d)]
    members = {}
    for cell, i in zip(cells, ids):
        members.setdefault(i, set()).add(cell)
    if len(ids) != len(cells) or list(members) != list(range(count)):
        return False
    for (r, w), i in zip(cells, ids):
        linked = {(s, oracles.transport(rules, r - s, w)) for s in slots}
        if {(s, x) for s, x in linked if x is not None} != members[i]:
            return False
    return True


@contextlib.contextmanager
def calls_to(module, name: str):
    """Within the block, record the wall time of every call of module.name."""
    original = getattr(module, name)
    times = []

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return original(*args)
        finally:
            times.append(time.perf_counter() - t0)

    setattr(module, name, timed)
    try:
        yield times
    finally:
        setattr(module, name, original)


def time_tables(name: str, ex: ZPartialAction, levels: int, repeat: int) -> int:
    """Time class_table on each stage of the default schedule, on a fresh
    action each call; the number of tables that disagree with the orbits."""
    bad = 0
    for k, n, d in default_schedule(ex, levels):
        generator = ex.stage(k).generator
        dt, (count, ids) = best(
            lambda: class_table(ZPartialAction(generator), n, d), repeat)
        ok = table_matches_orbits(count, ids, generator.rules, n, d)
        bad += not ok
        shape = f"{name} k={k} n={n} d={d}"
        d0 = adapted_depth(ZPartialAction(generator), n)
        print(f"{shape:<34} d0={d0} {count:7d} classes {dt * 1e3:8.1f} ms"
              f"{'' if ok else '  IDS ARE NOT ORBITS'}")
    return bad


def time_tower_pass(seed: int, repeat: int) -> int:
    """Run the odometer_tower jobs of `seed` `repeat` times through
    `workloads.run`, timing its steps apart by wrapping the calls it makes:
    class_table, bratteli_build less its class_table calls, JSON export and
    DOT export (export is called for JSON, then DOT, once per job), and the
    schedule, the rest of each job.  Print the least total of each step over
    the passes, then check every output of the last pass with
    `workloads.check`; return the number of outputs it rejects."""
    jobs = workloads.make_jobs("odometer_tower", seed)
    steps = ("schedule", "class_table", "rest of bratteli_build", "JSON export",
             "DOT export")
    least = dict.fromkeys(steps, float("inf"))
    for _ in range(repeat):
        with calls_to(cantorenv.filtration, "class_table") as tables, \
                calls_to(ce, "bratteli_build") as builds, \
                calls_to(ce, "export") as exports:
            t0 = time.perf_counter()
            outputs = [workloads.run(ce, job, None) for job in jobs]
            total = time.perf_counter() - t0
        spent = {"class_table": sum(tables),
                 "rest of bratteli_build": sum(builds) - sum(tables),
                 "JSON export": sum(exports[0::2]), "DOT export": sum(exports[1::2])}
        spent["schedule"] = total - sum(builds) - sum(exports)
        for step in steps:
            least[step] = min(least[step], spent[step])
    print(f"odometer_tower pass (seed {seed}, {len(jobs)} jobs, {len(tables)} "
          f"class_table calls), least of {repeat}: " + ", ".join(
              f"{step} {least[step] * 1e3:.1f} ms" for step in steps)
          + f"; sum {sum(least.values()) * 1e3:.1f} ms")
    bad = 0
    for job, text in zip(jobs, outputs):
        wrong = workloads.check(job, text.encode())
        if wrong:
            bad += 1
            print(f"ODOMETER_TOWER OUTPUT REJECTED (levels {job['levels']}, "
                  f"rules {job['rules']}): {wrong[0]}")
    return bad


def time_cells(args) -> int:
    """Time cell_partition on one deep_cells partition job per shape (rule
    count and length, n, d) and on the flip at (n, d) = (1, 18), the budget
    edge; then class_table on every stage of the 5-level odometer tower and of
    the first seeded 5-level tower of odometer_tower, with each adapted depth
    d0; last, one odometer_tower pass of `--seed`, split into its schedule,
    class_table calls, the rest of bratteli_build and the JSON and DOT
    exports.  Exit 1 when a partition misses or repeats a cell (t, w),
    |t| <= n, |w| = d, when a class is not the transport orbit of each of its
    members, when the cells a class table gives one id are not such an orbit,
    or when `workloads.check` rejects an output of the tower pass."""
    shapes = {}
    for job in workloads.make_jobs("deep_cells", args.seed):
        if job["kind"] == "partition":
            rules = job["rules"]
            shapes.setdefault((len(rules), len(rules[0][0]), job["n"], job["d"]), job)
    shapes["budget edge"] = {"kind": "partition", "rules": [["0", "1"]], "n": 1, "d": 18}
    bad = 0
    for job in shapes.values():
        dt, part = best(functools.partial(workloads.run, ce, job, None), args.repeat)
        wrong = failures(job, part)
        bad += bool(wrong)
        rules, n, d = job["rules"], job["n"], job["d"]
        shape = f"{len(rules)} rule(s) of length {len(rules[0][0])} n={n} d={d}"
        d0 = adapted_depth(ZPartialAction(PrefixMap(tuple(map(tuple, rules)))), n)
        print(f"{shape:<34} d0={d0} {len(part.classes):7d} classes {dt * 1e3:8.1f} ms"
              f"{'  ' + wrong[0].upper() if wrong else ''}")
    seeded = next(job for job in workloads.make_jobs("odometer_tower", args.seed)
                  if job["rules"] and job["levels"] == 5)
    for name, generator in (("odometer tower", ODOMETER), ("seeded tower", GeneratedMap(
            "rules", tuple(map(tuple, seeded["rules"]))))):
        bad += time_tables(name, ZPartialAction(generator), 5, args.repeat)
    bad += time_tower_pass(args.seed, args.repeat)
    return 1 if bad else 0


# join: canonical forms, cylinder operations and the etale probe


def time_join(args) -> int:
    """From `--seed`, build two clopen sets, each the union of 3,200 distinct
    depth-14 cylinders (about 2,900 canonical words after sibling merges), and
    a map of 1,200 rules between depth-11 words.  Time extensions("", 14),
    building the first set, intersect, subset_of, image_set, compose, and,
    on the first etale job of deep_cells (the flip at (t, s) = (1, 0) over
    1,000 depth-12 cylinders), covers of the base words by their canonical
    set and the job itself.  Exit 1 when extensions("", 14) is not the 14-bit
    binary numerals in order; when covers, on each base word and each
    flipped base word alone or on all of them at once, disagrees with a
    word-by-word `startswith` scan of the canonical base; when the probe is
    not ok; or when its image is not the base flipped here on strings (first
    symbol 0 -> 1)."""
    rng = random.Random(args.seed)
    raw = tuple(rng.sample(words(14), 3200))
    a, b = ClopenSet(raw), ClopenSet(tuple(rng.sample(words(14), 3200)))
    m = PrefixMap(tuple(zip(rng.sample(words(11), 1200), rng.sample(words(11), 1200))))
    job = next(j for j in workloads.make_jobs("deep_cells", args.seed)
               if j["kind"] == "etale")
    base = ClopenSet(tuple(job["base"]))
    flipped = tuple("1" + w[1:] for w in job["base"])
    print(f"|A| = {len(a.words)}, |B| = {len(b.words)}, rules = {len(m.rules)}, "
          f"|base| = {len(base.words)}")
    cases = [
        ("extensions('', 14)", lambda: extensions("", 14)),
        ("ClopenSet(3200)", lambda: ClopenSet(raw)),
        ("A & B", lambda: a & b),
        ("A.subset_of(A)", lambda: a.subset_of(a)),
        ("m.image_set(A)", lambda: m.image_set(a)),
        ("compose(m, m)", lambda: compose(m, m)),
        ("base.covers(base)", lambda: base.covers(job["base"])),
        ("etale flip(base)", functools.partial(workloads.run, ce, job, None)),
    ]
    out = {}
    for name, fn in cases:
        dt, out[name] = best(fn, args.repeat)
        print(f"{name:<18} {dt * 1e3:9.1f} ms")
    status = 0
    if out["extensions('', 14)"] != words(14):
        print("EXTENSIONS ARE NOT THE 14-BIT NUMERALS IN ORDER", file=sys.stderr)
        status = 1
    probes = job["base"] + list(flipped)
    scan = [any(u.startswith(v) for v in base.words) for u in probes]
    wrong = [u for u, inside in zip(probes, scan) if base.covers((u,)) != inside]
    if (not out["base.covers(base)"] or base.covers(probes) != all(scan)
            or wrong):
        print(f"COVERS DISAGREES WITH STARTSWITH: base covered "
              f"{out['base.covers(base)']}, base and flipped covered "
              f"{base.covers(probes)}, words {wrong[:3]}", file=sys.stderr)
        status = 1
    rep = out["etale flip(base)"]
    want = ClopenSet(flipped)
    if not rep.ok or rep.image != want:
        print(f"ETALE PROBE FAILED: ok={rep.ok}, violations={list(rep.violations)}, "
              f"image equals the flipped base: {rep.image == want}", file=sys.stderr)
        status = 1
    return status


# axioms: the partial-action axioms on the families the CLI hands over


@contextlib.contextmanager
def counted_meets():
    """Within the block, count the calls of ClopenSet.intersect and of its
    alias `&` in a list, one entry per call."""
    original = ClopenSet.intersect
    calls = []

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    ClopenSet.intersect = ClopenSet.__and__ = counted
    try:
        yield calls
    finally:
        ClopenSet.intersect = ClopenSet.__and__ = original


def time_axioms(args) -> int:
    """Run the validate and axioms jobs of cli_mix (`--seed`) once through
    `cli.main`, from the root of the checkout with the job's system files
    written under .bench_out/, and keep the family each one hands to
    `axioms_check`.  For each family, print the best of `--repeat` calls of
    `axioms_check` and the intersections one call makes against the pair
    bound (2b+1)(2b+2)/2 at bound b.  Exit 1 when a report is not ok or a
    call makes more intersections than the pair bound."""
    os.chdir(ROOT)
    jobs = [job for job in workloads.make_jobs("cli_mix", args.seed)
            if job["argv"][0] in ("validate", "axioms")]
    workloads.write_inputs(jobs, ROOT)
    families = []

    def kept(family):
        families.append(family)
        return axioms_check(family)

    cantorenv.cli.axioms_check = kept
    try:
        for job in jobs:
            with contextlib.redirect_stdout(io.StringIO()):
                ce.cli.main(list(job["argv"]))
    finally:
        cantorenv.cli.axioms_check = axioms_check
    print(f"{'ms':>7} {'meets':>5} {'bound':>5}  job")
    status, total = 0, 0.0
    for job, family in zip(jobs, families, strict=True):
        dt, report = best(lambda: axioms_check(family), args.repeat)
        with counted_meets() as meets:
            axioms_check(family)
        b = report.bound
        most = (2 * b + 1) * (2 * b + 2) // 2
        wrong = [] if report.ok else ["REPORT NOT OK"]
        if len(meets) > most:
            wrong.append(f"MORE THAN {most} INTERSECTIONS")
        status |= bool(wrong)
        total += dt
        print(f"{dt * 1e3:7.2f} {len(meets):5d} {most:5d}  {shlex.join(job['argv'])}"
              f"{'  ' + ', '.join(wrong) if wrong else ''}")
    print(f"{total * 1e3:7.2f} ms for {len(jobs)} calls (best of {args.repeat} each)")
    return status


# import: the package's cold import, one fresh interpreter at a time

MAX_IMPORTS = 40
# run as `python -I -c IMPORT_SCRIPT src perfbench what`; the import is
# timed inside the process, as perfbench's set-up times it
IMPORT_SCRIPT = """
import sys, time
src, bench, what = sys.argv[1:]
sys.path[:0] = [src, bench]
before = set(sys.modules)
t0 = time.perf_counter()
if what == "package":
    import cantorenv, cantorenv.cli
else:
    import workloads
print((time.perf_counter() - t0) * 1e3, *sorted(set(sys.modules) - before))
"""


def cold_import(what: str) -> tuple[float, set[str]]:
    """Milliseconds and new modules of one import in a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", IMPORT_SCRIPT, str(ROOT / "src"),
           str(ROOT / "perfbench"), what]
    ms, *names = subprocess.run(cmd, capture_output=True, text=True,
                                check=True).stdout.split()
    return float(ms), set(names)


def time_import(args) -> int:
    """Run `--repeat` fresh `python -I` interpreters (at most 40), one after
    another, each timing `import cantorenv, cantorenv.cli` from inside.
    Print the median in ms and the standard library modules that import
    loads beyond those that importing perfbench/workloads.py loads, in one
    more interpreter.  Exit 1 when the import loads `dataclasses` or
    `inspect`."""
    if not 1 <= args.repeat <= MAX_IMPORTS:
        sys.exit(f"--repeat must be between 1 and {MAX_IMPORTS}, not {args.repeat}")
    runs = [cold_import("package") for _ in range(args.repeat)]
    loaded = set().union(*(names for _, names in runs))
    extra = sorted(loaded - cold_import("workloads")[1]
                   - {m for m in loaded if m.partition(".")[0] == "cantorenv"})
    print(f"import cantorenv, cantorenv.cli {statistics.median(t for t, _ in runs):8.2f} ms "
          f"(median of {args.repeat} fresh interpreters)")
    print(f"stdlib beyond perfbench/workloads.py ({len(extra)}): {' '.join(extra)}")
    heavy = sorted(loaded & {"dataclasses", "inspect"})
    if heavy:
        print(f"THE IMPORT LOADS {' AND '.join(heavy)}", file=sys.stderr)
        return 1
    return 0


LAYERS = {
    "psi": (time_psi, {"--trials": 250, "--seed": 707, "--repeat": 3}),
    "cli": (time_cli, {"--repeat": 5}),
    "cells": (time_cells, {"--seed": 0, "--repeat": 3}),
    "join": (time_join, {"--seed": 0, "--repeat": 3}),
    "axioms": (time_axioms, {"--seed": 1, "--repeat": 15}),
    "import": (time_import, {"--repeat": 10}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    layers = ap.add_subparsers(dest="layer", required=True)
    for name, (fn, options) in LAYERS.items():
        sp = layers.add_parser(name, description=fn.__doc__)
        for flag, default in options.items():
            sp.add_argument(flag, type=int, default=default)
        sp.set_defaults(time=fn)
    args = ap.parse_args(argv)
    return args.time(args)


if __name__ == "__main__":
    sys.exit(main())
