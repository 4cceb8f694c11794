"""Record the reference output digests of the named seeds.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  Each
job runs twice; both outputs must be byte-identical and must pass the
structural checks and the independent oracle before their SHA-256 digest
is written to reference.json, for every workload and the seeds in
NAMED_SEEDS.  Any failure aborts with a non-zero exit and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import gate
import run
import workloads

NAMED_SEEDS = range(21)  # the seeds reference.json holds digests for


def record(workload: str, seed: int, ce, oracles, root: Path) -> dict:
    jobs = workloads.make_jobs(workload, seed)
    workloads.write_inputs(jobs, root)
    digests = []
    for idx, job in enumerate(jobs):
        first, second = (workloads.encode(job, workloads.run(ce, job, run._no_note))
                         for _ in range(2))
        if first != second:
            raise gate.GateError(f"{workload} seed {seed} job {idx} is not deterministic")
        bad = workloads.check(job, first) + workloads.oracle(job, first, oracles)
        if bad:
            raise gate.GateError(f"{workload} seed {seed} job {idx}: {'; '.join(bad)}")
        digests.append(hashlib.sha256(first).hexdigest())
    return {"inputs": gate.inputs_digest(jobs), "outputs": digests}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    root = Path.cwd()
    ce = run.import_fresh(root)
    oracles = gate.load_oracles(root)
    reference = {"about": ("SHA-256 of each job's encoded output, by workload, seed "
                           "and job index; 'inputs' is the digest of the job list"),
                 "digests": {}}
    try:
        for name in workloads.NAMES:
            for seed in NAMED_SEEDS:
                entry = record(name, seed, ce, oracles, root)
                reference["digests"].setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: {len(entry['outputs'])} outputs", flush=True)
    except gate.GateError as exc:
        print(f"not recorded: {exc}", file=sys.stderr)
        return 1
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
