"""Compare a parent checkout with a change, by the rule the benchmark fixes.

Measure (runs perfbench/run.py from this directory against both checkouts,
alternating which side runs first, one seed per pair):

    python3 perfbench/compare.py run --parent ../parent --change . --out pairs.json

Every workload of BENCHMARK.json runs for PAIRS pairs at its run_seconds,
with seeds FIRST_SEED, FIRST_SEED + 1, ...; the file is written anew.

Judge (one row per workload):

    python3 perfbench/compare.py judge pairs.json --claim odometer_tower:jobs_per_s

Judging refuses (exit 2) unless every workload has PAIRS complete pairs
and every claim names a workload and an end-to-end metric of
BENCHMARK.json.  A claimed workload:metric is a `win` only when the
change is better in at least 9 of every 10 pairs (ties count for neither side) and the medians
differ by more than the parent's own interquartile range, with no more
failed jobs than the parent; otherwise it is `not-met`.  Every other
workload:metric is `ok` when the change's median is no worse than the
parent's by more than the metric's bound in BENCHMARK.json and the parent's
spread (IQR over median) is within that bound too, `better` when every
change run beats every parent run, and `unresolved` otherwise.  The exit
code is 0 only when every claim is a win and nothing is unresolved.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
PAIRS = 10
FIRST_SEED = 1000


def _spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def run_pairs(args) -> int:
    spec = _spec()
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    out = Path(args.out)
    records = []
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in [w["name"] for w in spec["workloads"]]:
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True,
                                      text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                if result is None:
                    print(f"{side} {workload} seed {seed}: no result "
                          f"(exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
                    return 2
                records.append({"pair": pair, "seed": seed, "workload": workload,
                                "side": side, "first": side == order[0],
                                "exit": proc.returncode, "result": result})
                out.write_text(json.dumps(records, indent=1) + "\n")
                print(f"pair {pair} {workload} {side}: "
                      + " ".join(f"{k}={m['value']:.4g}"
                                 for k, m in result["metrics"].items()))
    return 0


def _quartiles(values):
    return statistics.quantiles(values, n=4)


def judge_metric(parent, change, better: str, bound: float, claimed: bool) -> dict:
    """Status of one workload:metric from paired values (same order)."""
    def beats(c, p):
        return c > p if better == "higher" else c < p

    n = len(parent)
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    gain = (cmed - pmed) / pmed if better == "higher" else (pmed - cmed) / pmed
    spread = (p3 - p1) / pmed
    if claimed:
        ok = wins >= math.ceil(0.9 * n) and abs(cmed - pmed) > p3 - p1 and gain > 0
        status = "win" if ok else "not-met"
    elif all(beats(c, p) for c in change for p in parent):
        status = "better"
    elif -gain <= bound and spread <= bound:
        status = "ok"
    else:
        status = "unresolved"
    return {"status": status, "pairs": n, "change_wins": wins, "gain": gain,
            "parent_spread": spread, "bound": bound,
            "parent_quartiles": [p1, pmed, p3], "change_quartiles": [c1, cmed, c3]}


def judge(args) -> int:
    spec = _spec()
    records = json.loads(Path(args.results).read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    claims = set(args.claim or [])
    unknown = sorted(c for c in claims if c.partition(":")[0] not in names
                     or c.partition(":")[2] not in metrics)
    if unknown:
        print(f"unknown claims (want workload:metric): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    complete = {}
    for w in names:
        by_pair = {}
        for r in records:
            if r["workload"] == w:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete[w] = [v for _, v in sorted(by_pair.items()) if len(v) == 2]
    short = [f"{w} ({len(p)})" for w, p in complete.items() if len(p) < PAIRS]
    if short:
        print(f"fewer than {PAIRS} complete pairs: {', '.join(short)}", file=sys.stderr)
        return 2
    verdicts = {}
    clean = True
    for w, pairs in complete.items():
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        row = {"failed": failed}
        for m in spec["end_to_end"]:
            name = m["name"]
            verdict = judge_metric([p["parent"]["metrics"][name]["value"] for p in pairs],
                                   [p["change"]["metrics"][name]["value"] for p in pairs],
                                   m["better"], m["bound"], f"{w}:{name}" in claims)
            if verdict["status"] == "win" and failed["change"] > failed["parent"]:
                verdict["status"] = "not-met"
            row[name] = verdict
            clean &= verdict["status"] in ("win", "ok", "better")
        clean &= failed["change"] == 0
        verdicts[w] = row
        cells = [f"{name} {v['status']} ({v['gain']:+.1%}, {v['change_wins']}/{v['pairs']})"
                 for name, v in row.items() if name != "failed"]
        print(f"{w:15} failed {failed['parent']}->{failed['change']} | " + " | ".join(cells))
    if args.json:
        Path(args.json).write_text(json.dumps(verdicts, indent=1) + "\n")
    return 0 if clean else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run", help="measure parent/change pairs, alternating order")
    sp.add_argument("--parent", required=True, help="root of the parent checkout")
    sp.add_argument("--change", required=True, help="root of the changed checkout")
    sp.add_argument("--out", required=True, help="JSON file the runs are written to")
    sp.set_defaults(func=run_pairs)
    sp = sub.add_parser("judge", help="apply the comparison rule to recorded pairs")
    sp.add_argument("results")
    sp.add_argument("--claim", action="append", help="workload:metric claimed to improve")
    sp.add_argument("--json", help="also write the verdicts to this file")
    sp.set_defaults(func=judge)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
