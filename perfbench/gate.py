"""The exact output gate: every job of a run is checked, none is sampled.

During the timed loop each output is reduced to its SHA-256 digest and
counted; the bytes of each distinct output are kept.  After the loop,
outside the timed region, `judge` decides every distinct output:

* the structural checks of workloads.check (ok flags, verdicts, the
  counting identity, exit codes) run on every distinct output;
* for the named seeds in reference.json the digest must equal the
  recorded one, job by job;
* for any other seed the output is recomputed by the independent brute
  force of tests/oracles.py, and one job giving two different outputs is
  a failure too, since outputs are byte-deterministic.

A job that raised, or whose output fails any of these, counts as failed
once for every time it ran.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class GateError(Exception):
    """The gate itself cannot run (missing oracle or stale reference)."""


class Outputs:
    """Digest counts and one copy of the bytes of each distinct output."""

    def __init__(self):
        self.seen: dict[int, dict[str, list]] = {}
        self.errors: list[tuple[int, str]] = []

    def add(self, idx: int, job: dict, result) -> None:
        """Record one execution: its encoded output, or what it raised."""
        if isinstance(result, Exception):
            self.errors.append((idx, f"{type(result).__name__}: {result}"[:300]))
            return
        try:
            data = workloads.encode(job, result)
        except Exception as exc:  # noqa: BLE001 - an unencodable result fails the job
            self.errors.append((idx, f"unencodable result: {exc!r}"[:300]))
            return
        digest = hashlib.sha256(data).hexdigest()
        slot = self.seen.setdefault(idx, {})
        if digest in slot:
            slot[digest][0] += 1
        else:
            slot[digest] = [1, data]


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    if not path.is_file():
        raise GateError(f"the independent oracle {path} is missing")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs_digest(jobs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


def load_reference(workload: str, seed: int, jobs: list[dict]):
    """Recorded digests for a named seed, or None for any other seed."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text())["digests"].get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if entry["inputs"] != inputs_digest(jobs):
        raise GateError(f"reference digests of {workload} seed {seed} were "
                        "recorded for other inputs; record them again")
    return entry["outputs"]


def judge(workload: str, seed: int, jobs: list[dict], outputs: Outputs, oracles) -> dict:
    reference = load_reference(workload, seed, jobs)
    failed = len(outputs.errors)
    problems = [f"job {idx} raised {msg}" for idx, msg in outputs.errors]
    for idx, slot in sorted(outputs.seen.items()):
        job = jobs[idx]
        passing = []
        for digest, (count, data) in slot.items():
            bad = workloads.check(job, data)
            if not bad and reference is not None and digest != reference[idx]:
                bad = [f"digest {digest[:12]} differs from the reference "
                       f"{reference[idx][:12]}"]
            if not bad and reference is None:
                bad = workloads.oracle(job, data, oracles)
            if bad:
                failed += count
                problems.append(f"job {idx} ({job['kind']}): {'; '.join(bad)}")
            else:
                passing.append((count, digest))
        if len(passing) > 1:
            passing.sort(reverse=True)
            extra = sum(count for count, _ in passing[1:])
            failed += extra
            problems.append(f"job {idx} gave {len(passing)} different outputs")
    return {"failed": failed, "problems": problems,
            "checked_by": "reference digests" if reference is not None else "oracle"}
