"""Benchmark of the exact engine: one seeded workload, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload odometer_tower --seed 1 --seconds 20 --trace 0

The package under test is imported from `src/` of the current directory
and nothing else; the run refuses to start if `cantorenv` resolves to any
other copy.  One process, one thread, one client: each job starts when the
previous one has returned.

`--trace 0` times jobs for `--seconds` seconds and reports the end-to-end
metrics.  Times are rescaled to a fixed reference host speed by calibration
samples taken between the jobs (see calib.py); the raw wall-clock figures
are kept in the report file.  `--trace 1` runs the job list untraced for
half the time, then exactly once more with every layer wrapped in spans
(see spans.py), and reports the per-layer metrics; the count metrics of
that single traced pass repeat exactly for a given seed.

Every output is checked (see gate.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 0 only when every job passed the gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gate
import workloads
from spans import Tracer

SETUPS = 15  # fresh-process set-ups per run; setup_s is their median


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


class SetupError(Exception):
    """The checkout cannot be benchmarked: no package, or the wrong one."""


def _no_note(name, value):
    pass


def import_fresh(root: Path):
    """Import cantorenv (and its CLI) anew from root/src and check its origin."""
    src = (root / "src").resolve()
    if not (src / "cantorenv" / "__init__.py").is_file():
        raise SetupError(f"no package at {src / 'cantorenv'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "cantorenv" or n.startswith("cantorenv.")]:
        del sys.modules[name]
    ce = importlib.import_module("cantorenv")
    importlib.import_module("cantorenv.cli")
    origin = Path(ce.__file__).resolve()
    if src not in origin.parents:
        raise SetupError(f"cantorenv was imported from {origin}, not from {src}")
    return ce


def set_up(workload: str, seed: int, root: Path):
    """Import the package, generate the inputs and run one untimed job."""
    ce = import_fresh(root)
    jobs = workloads.make_jobs(workload, seed)
    workloads.write_inputs(jobs, root)
    workloads.run(ce, jobs[0], _no_note)
    return ce, jobs


# One set-up in a fresh interpreter, timed from inside it: the clock starts
# before the package is imported, so every module the package pulls in is
# loaded cold and counted.  -I keeps the environment and the user's site
# packages out; the search path is exactly src/ and perfbench/.  Calibration
# samples just before and after the set-up give the host speed it ran at.
SETUP_SCRIPT = """
import sys, time
src, here, workload, seed = sys.argv[1:]
sys.path[:0] = [src, here]
import calib
calib.sample()
samples = [calib.sample() for _ in range(5)]
t0 = time.perf_counter()
import cantorenv, cantorenv.cli
import workloads
from pathlib import Path
jobs = workloads.make_jobs(workload, int(seed))
workloads.write_inputs(jobs, Path.cwd())
workloads.run(cantorenv, jobs[0], lambda name, value: None)
elapsed = time.perf_counter() - t0
samples += [calib.sample() for _ in range(5)]
print(elapsed * calib.factor(samples), elapsed, cantorenv.__file__)
"""


def time_set_up(workload: str, seed: int, root: Path) -> tuple[float, float]:
    """Seconds one set-up takes in a fresh process started in root, at the
    reference speed and as measured."""
    src = (root / "src").resolve()
    cmd = [sys.executable, "-I", "-c", SETUP_SCRIPT, str(src),
           str(Path(__file__).resolve().parent), workload, str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
    scaled, elapsed, origin = proc.stdout.split(maxsplit=2)
    if src not in Path(origin.strip()).resolve().parents:
        raise SetupError(f"set-up process imported cantorenv from {origin.strip()}")
    return float(scaled), float(elapsed)


def run_jobs(ce, jobs, outputs: gate.Outputs, clock: calib.HostClock, until=None,
             tracer: Tracer | None = None, between=None) -> list[list[tuple[float, float]]]:
    """Closed loop over whole passes of the job list: one pass, or passes
    until `until` (the last one finishes).  Returns each pass's jobs as
    (start, latency) pairs.  `clock` takes its calibration samples between
    jobs; `between`, when given, is called before each pass, outside the jobs."""
    passes = []
    while not passes or (until is not None and time.perf_counter() < until):
        if between is not None:
            between()
        timed = []
        for idx, job in enumerate(jobs):
            clock.tick()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workloads.run(ce, job, _no_note)
                else:
                    result = tracer.job(idx, workloads.run, ce, job, tracer.note)
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                result = exc
            timed.append((t0, time.perf_counter() - t0))
            outputs.add(idx, job, result)
        passes.append(timed)
    return passes


def rescale(clock: calib.HostClock, timed) -> list[float]:
    """Latencies at the reference host speed."""
    factors = clock.factors([t0 for t0, _ in timed])
    return [lat * f for (_, lat), f in zip(timed, factors)]


def latency_metrics(lat) -> dict:
    return {"jobs_per_s": len(lat) / sum(lat),
            "job_ms_p50": statistics.median(lat) * 1e3,
            "job_ms_p90": _p90(lat) * 1e3}


def code_identity(root: Path) -> dict:
    """Git revision when the checkout is a git work tree, and a digest of the sources."""
    # the ceiling keeps git from taking the revision of a repository above root
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cantorenv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
              corrupt=None) -> dict:
    """One run; `corrupt`, when given, patches the imported package (self-test)."""
    oracles = gate.load_oracles(root)
    ce, jobs = set_up(workload, seed, root)
    setups = []  # (at the reference speed, as measured)
    if corrupt is not None:
        corrupt(ce)
    outputs = gate.Outputs()
    gc.collect()
    gc.freeze()  # keep set-up garbage out of the collector's timed passes
    clock = calib.HostClock()
    wall = {}

    if not trace:
        start = time.perf_counter()

        def spaced_set_up():
            # set-ups spread evenly over the run see the same host speed as
            # the timed jobs, not only that of its first second
            while (len(setups) < SETUPS
                   and time.perf_counter() >= start + len(setups) * seconds / SETUPS):
                setups.append(time_set_up(workload, seed, root))

        passes = run_jobs(ce, jobs, outputs, clock, until=start + seconds,
                          between=spaced_set_up)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += [time_set_up(workload, seed, root) for _ in range(SETUPS - len(setups))]
        timed = [x for p in passes for x in p]
        units = {"jobs_per_s": "jobs/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        values = {**latency_metrics(rescale(clock, timed)),
                  "setup_s": statistics.median(s for s, _ in setups),
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        wall = {**latency_metrics([lat for _, lat in timed]),
                "setup_s": statistics.median(e for _, e in setups)}
        attempted = len(timed)
    else:
        passes = run_jobs(ce, jobs, outputs, clock, until=time.perf_counter() + seconds / 2)
        plain = rescale(clock, [x for p in passes for x in p])
        tracer = Tracer()
        tracer.install()
        traced_pass = run_jobs(ce, jobs, outputs, clock, tracer=tracer)[0]
        traced = rescale(clock, traced_pass)
        ratio = (sum(traced) / len(traced)) / (sum(plain) / len(plain))
        metrics = tracer.metrics(ratio)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}")  # latest traced run only
        attempted = len(plain) + len(traced)
        passes.append(traced_pass)

    t0 = time.perf_counter()
    verdict = gate.judge(workload, seed, jobs, outputs, oracles)
    gate_s = time.perf_counter() - t0
    failed = verdict["failed"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "jobs_in_list": len(jobs), "passes": len(passes),
        "setups_s": [s for s, _ in setups], "setups_wall_s": [e for _, e in setups],
        "host_speed": clock.speed(), "calibration_samples": len(clock.samples),
        "wall": wall,
        "fail_ratio": failed / attempted, "checked_by": verdict["checked_by"],
        "gate_s": gate_s,
        "problems": verdict["problems"][:20],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **code_identity(root),
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def main(argv=None, corrupt=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    try:
        report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root,
                           corrupt)
    except (SetupError, gate.GateError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    result = report["result"]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")
    for key, m in result["metrics"].items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_ratio = {report['fail_ratio']:.6g} ({result['failed']} of "
          f"{result['attempted']} jobs)")
    for problem in report["problems"]:
        print(f"# FAILED: {problem}")
    info = {k: v for k, v in report.items() if k not in ("result", "problems")}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
