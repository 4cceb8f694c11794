"""Seeded inputs, jobs and output checks for the four benchmark workloads.

A workload turns a seed into a fixed list of job specs (plain JSON data).
Each job runs through the public API of the package (`cli.main` for
`cli_mix`) and its output is encoded to bytes outside the timed region.
Every output is checked twice over: `check` re-derives structural facts
from the bytes alone (cheap, run on every distinct output), and `oracle`
recomputes the answer with the word-level brute force of `tests/oracles.py`
(expensive, run only for seeds without recorded reference digests).

Inputs depend only on the workload name and the seed.  Each list fixes how
many jobs of every shape it holds and lets the seed choose only their
contents, so different seeds give statistically alike loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

NAMES = ("odometer_tower", "deep_cells", "psi_suite", "cli_mix")

# where cli_mix writes its generated system files, relative to the checkout
CLI_SYSTEMS = Path(".bench_out") / "cli_systems"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _words(depth: int) -> list[str]:
    return [format(i, f"0{depth}b") for i in range(2**depth)] if depth else [""]


def _chain_rules(rng, depth: int, chains) -> list[list[str]]:
    """Length-preserving rules w1 -> w2 -> ... along chains of distinct words.

    The chain lengths fix the orbit structure, and with it most of a map's
    cost; the seed picks the depth-`depth` words on the chains.
    """
    words = rng.sample(_words(depth), sum(chains))
    rules = []
    for size in chains:
        chain, words = words[:size], words[size:]
        rules += [[u, v] for u, v in zip(chain, chain[1:])]
    return rules


def _skew_rules(rng) -> list[list[str]]:
    """A two-rule map a -> b c d, b c' -> a e: one rule changes word length."""
    a, c, d, e = (rng.choice("01") for _ in range(4))
    b, c2 = ("1" if a == "0" else "0"), ("1" if c == "0" else "0")
    return [[a, b + c + d], [b + c2, a + e]]


def _point_text(rng) -> str:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 2)))
    return f"{pre}({per})"


def _parse_set(text: str) -> list[str]:
    """Words of a printed clopen set like '{0,11}' ('ε' is the empty word)."""
    body = text.strip()[1:-1].strip()
    if not body:
        return []
    return ["" if w.strip() == "ε" else w.strip() for w in body.split(",")]


def _refine(words, depth: int) -> set[str]:
    return {w + z for w in words for z in _words(depth - len(w))}


# --------------------------------------------------------------------------
# Job lists


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The seeded job list; the first job is the same for every seed."""
    rng = _rng(workload, seed)
    if workload == "odometer_tower":
        jobs = [{"kind": "tower", "rules": None, "levels": lv} for lv in (4, 3, 5) * 2]
        # ten of each seeded shape, and none of the cheap depth-4 3-level
        # one, so that the median falls amid the ten depth-3 5-level jobs
        # and not on the edge between two groups of jobs
        for _ in range(10):
            for depth, chains, levels in ((3, (3, 2), (3, 4, 5)), (4, (4, 3), (4, 5))):
                for lv in levels:
                    jobs.append({"kind": "tower", "levels": lv,
                                 "rules": _chain_rules(rng, depth, chains)})
        return jobs
    if workload == "deep_cells":
        flip = [["0", "1"]]
        jobs = [{"kind": "partition", "rules": flip, "n": n, "d": d}
                for n, d in ((1, 9), (1, 12), (2, 10))]
        for depth, chains, n, d, copies in ((3, (3, 2), 1, 9, 3), (3, (3, 2), 1, 10, 2),
                                            (3, (3, 2), 2, 9, 2), (4, (3, 3), 1, 9, 3),
                                            (3, (3, 2), 1, 12, 1)):
            jobs += [{"kind": "partition", "rules": _chain_rules(rng, depth, chains),
                      "n": n, "d": d} for _ in range(copies)]
        jobs.append(_etale_job(rng, flip, (1, 0), 12, 1000))
        jobs.append(_etale_job(rng, flip, (0, 1), 11, 500))
        for _ in range(2):
            for slots, d, size in (((1, 0), 10, 100), ((0, 1), 11, 300), ((2, 0), 12, 1000)):
                jobs.append(_etale_job(rng, _chain_rules(rng, 3, (3, 2)), slots, d, size))
        return jobs
    if workload == "psi_suite":
        jobs = [{"kind": "psi", "rules": rules, "level": level}
                for rules, level in (([["0", "1"]], None), (None, 1), (None, 2)) * 4]
        for _ in range(10):
            jobs.append({"kind": "psi", "rules": _skew_rules(rng), "level": None})
            jobs.append({"kind": "psi", "rules": _chain_rules(rng, 2, (3,)), "level": None})
        # the sampler seed is the job's slot, so every workload seed samples
        # elements of the same sizes and only the maps differ
        for slot, job in enumerate(jobs):
            job.update(trials=3, seed=slot, max_index=2, depth=4)
        return jobs
    if workload == "cli_mix":
        return _cli_jobs(rng, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def _etale_job(rng, rules, slots, d: int, size: int) -> dict:
    """An etale probe over up to `size` depth-d cylinders inside the germ set."""
    t, s = slots
    cells = [w for w in _words(d) if _transport(rules, t - s, w) is not None]
    base = sorted(rng.sample(cells, min(size, len(cells))))
    return {"kind": "etale", "rules": rules, "t": t, "s": s, "d": d, "base": base}


def _transport(rules, t: int, w: str):
    """Word-level transport, used only to pick inputs (never to check them)."""
    use = rules if t >= 0 else [(v, u) for u, v in rules]
    for _ in range(abs(t)):
        for u, v in use:
            if w.startswith(u):
                w = v + w[len(u):]
                break
        else:
            return None
    return w


def _cli_jobs(rng, seed: int) -> list[dict]:
    base = CLI_SYSTEMS / str(seed)
    systems = {
        "flip": {"path": "systems/flip.json"},
        "odometer": {"path": "systems/odometer.json"},
        "pres2": {"path": str(base / "pres2.json"), "body": {
            "name": "pres2",
            "generator": {"kind": "rules", "rules": _chain_rules(rng, 2, (3,)),
                          "exhausts": "clopen"},
            "defaults": {"bound": 2, "depth": 4}}},
        "pres3": {"path": str(base / "pres3.json"), "body": {
            "name": "pres3",
            "generator": {"kind": "rules", "rules": _chain_rules(rng, 3, (3, 2)),
                          "exhausts": "clopen"},
            "defaults": {"bound": 1, "depth": 5}}},
        "skew": {"path": str(base / "skew.json"), "body": {
            "name": "skew",
            "generator": {"kind": "rules", "rules": _skew_rules(rng),
                          "exhausts": "clopen"},
            "defaults": {"bound": 2, "depth": 4}}},
        "open": {"path": str(base / "open.json"), "body": {
            "name": "open",
            "generator": {"kind": "rules", "rules": _chain_rules(rng, 3, (3, 2)),
                          "exhausts": "open"},
            "defaults": {"bound": 2}}},
    }
    files = {s["path"]: s["body"] for s in systems.values() if "body" in s}

    def job(argv, expect=0):
        return {"kind": "cli", "argv": argv, "expect": expect, "files": files}

    jobs = [job(["validate", "systems/flip.json", "--bound", "2"])]
    for name, sysdef in systems.items():
        path = sysdef["path"]
        level = ["--level", "2"] if name == "open" else []
        if name != "flip":
            jobs.append(job(["validate", path, "--bound", "2"]))
        jobs.append(job(["axioms", path, "--bound", "2"]))
        jobs.append(job(["hausdorff", path, "--bound", "2", "--depth", "6"]))
        t, s = rng.randint(-2, 2), rng.randint(-2, 2)
        jobs.append(job(["etale", path, "--t", str(t), "--s", str(s)] + level))
        for _ in range(2):
            p = f"{rng.randint(-2, 2)}:{_point_text(rng)}"
            q = f"{rng.randint(-2, 2)}:{_point_text(rng)}"
            jobs.append(job(["related", path, f"--p={p}", f"--q={q}"] + level))
    jobs += [
        job(["quotient", "systems/flip.json", "--bound", "1", "--depth", "5"]),
        job(["quotient", systems["pres2"]["path"], "--bound", "1"]),
        job(["quotient", systems["pres3"]["path"]]),
        job(["quotient", "systems/odometer.json", "--level", "1", "--bound", "1",
             "--depth", "4"]),
        job(["filtrate", systems["open"]["path"], "--level", "1", "--bound", "1"]),
        job(["bratteli", "systems/odometer.json", "--levels", "3", "--out", "dot"]),
        job(["bratteli", systems["open"]["path"], "--levels", "3"]),
        job(["verify-psi", "systems/flip.json", "--trials", "2", "--support", "2",
             "--depth", "4"]),
        # refusals are outputs too: a length-changing map never stabilizes,
        # an open enumeration needs a level, and a base must sit in the germ set
        job(["quotient", systems["skew"]["path"]], expect=3),
        job(["quotient", systems["open"]["path"]], expect=1),
        job(["etale", "systems/flip.json", "--t", "1", "--s", "0", "--base", "{1}"],
            expect=1),
    ]
    return jobs


def write_inputs(jobs: list[dict], root: Path) -> None:
    """Write the generated system files a cli job list reads."""
    files = {}
    for job in jobs:
        files.update(job.get("files", {}))
    for rel, body in sorted(files.items()):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body, indent=2) + "\n")


# --------------------------------------------------------------------------
# Running a job: `run` is timed, `encode` is not


def _enumeration(ce, rules):
    return ce.ODOMETER if rules is None else ce.GeneratedMap(
        "rules", tuple(map(tuple, rules)))


def run(ce, job: dict, note):
    kind = job["kind"]
    if kind == "tower":
        ex = ce.Exhaustion(_enumeration(ce, job["rules"]))
        diagram = ce.bratteli_build(ex, ce.default_schedule(ex, job["levels"]))
        return ce.export(diagram, "json") + ce.export(diagram, "dot")
    if kind == "partition":
        a = ce.ZPartialAction(ce.PrefixMap(tuple(map(tuple, job["rules"]))))
        return ce.cell_partition(a, job["n"], job["d"])
    if kind == "etale":
        a = ce.ZPartialAction(ce.PrefixMap(tuple(map(tuple, job["rules"]))))
        base = ce.ClopenSet(tuple(job["base"]))
        return ce.etale_probe(a, job["t"], job["s"], base)
    if kind == "psi":
        if job["rules"] is None:
            a = ce.ZPartialAction(ce.ODOMETER)
        else:
            a = ce.ZPartialAction(ce.PrefixMap(tuple(map(tuple, job["rules"]))))
        opts = dict(seed=job["seed"], max_index=job["max_index"],
                    depth=job["depth"], level=job["level"])
        report = ce.isomorphism_suite(a, trials=job["trials"], **opts)
        eps, signs = ce.equivariance_sign(a, trials=job["trials"], **opts)
        return report, eps, signs
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ce.cli.main(list(job["argv"]))
        out = buf.getvalue()
        note("cli.main.stdout_bytes", len(out.encode()))
        return code, out
    raise ValueError(f"unknown job kind {kind!r}")


def encode(job: dict, result) -> bytes:
    kind = job["kind"]
    if kind == "tower":
        return result.encode()
    if kind == "partition":
        lines = [f"n={result.n} d={result.d}"]
        lines += [" ".join(f"{t}:{w}" for t, w in cls) for cls in result.classes]
        return ("\n".join(lines) + "\n").encode()
    if kind == "etale":
        return (json.dumps(result.to_json(), sort_keys=True) + "\n").encode()
    if kind == "psi":
        report, eps, signs = result
        obj = {"isomorphism": report.to_json(), "epsilon": eps,
               "equivariance": signs.to_json()}
        return (json.dumps(obj, sort_keys=True) + "\n").encode()
    code, out = result
    return f"exit {code}\n{out}".encode()


# --------------------------------------------------------------------------
# Structural checks: facts re-derived from the output bytes alone


def _split_tower(text: str):
    cut = text.index("digraph bratteli {")
    return json.loads(text[:cut]), text[cut:]


def render_dot(diagram: dict) -> str:
    """The DOT text a diagram JSON must come with, rendered independently."""
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for lv in diagram["levels"]:
        nodes = " ".join(f'L{lv["m"]}_{v["id"]} [label="{v["size"]}"];'
                         for v in lv["vertices"])
        lines.append(f"  {{ rank=same; {nodes} }}")
    for e in diagram["edges"]:
        if e["mult"]:
            (m, i), (_, j) = e["from"], e["to"]
            lines.append(f'  L{m}_{i} -> L{m + 1}_{j} [label="{e["mult"]}"];')
    return "\n".join(lines + ["}"]) + "\n"


def _check_tower(job, text: str) -> list[str]:
    diagram, dot = _split_tower(text)
    bad = []
    levels = diagram["levels"]
    if len(levels) != job["levels"]:
        bad.append(f"{len(levels)} levels, expected {job['levels']}")
    for lv in levels:
        p = lv["params"]
        total = sum(v["size"] for v in lv["vertices"])
        if total != (2 * p["n"] + 1) * 2 ** p["d"]:
            bad.append(f"level {lv['m']} classes hold {total} cells")
    for m, lv in enumerate(levels):
        incoming = {}
        for e in diagram["edges"]:
            if e["from"][0] == m - 1:
                size = levels[m - 1]["vertices"][e["from"][1]]["size"]
                incoming[e["to"][1]] = incoming.get(e["to"][1], 0) + e["mult"] * size
        for v in lv["vertices"]:
            if v["size"] != incoming.get(v["id"], 0) + v["fresh"]:
                bad.append(f"counting identity fails at level {m} vertex {v['id']}")
    if dot != render_dot(diagram):
        bad.append("DOT export disagrees with the JSON export")
    return bad


def _partition_classes(text: str):
    head, *rows = text.splitlines()
    n, d = (int(part.split("=")[1]) for part in head.split())
    classes = [[(int(u.split(":")[0]), u.split(":")[1]) for u in row.split()]
               for row in rows]
    return n, d, classes


def _check_partition(job, text: str) -> list[str]:
    n, d, classes = _partition_classes(text)
    if (n, d) != (job["n"], job["d"]):
        return [f"partition is for n={n} d={d}"]
    units = [u for cls in classes for u in cls]
    expect = {(t, w) for t in range(-n, n + 1) for w in _words(d)}
    if len(units) != len(expect) or set(units) != expect:
        return ["classes do not partition the cells exactly once"]
    if classes != sorted(sorted(cls) for cls in classes):
        return ["classes are not in canonical order"]
    return []


def _check_etale(job, text: str) -> list[str]:
    rep = json.loads(text)
    bad = [] if rep["ok"] and not rep["violations"] else ["etale probe not ok"]
    if (rep["t"], rep["s"], rep["diagonal"]) != (job["t"], job["s"], job["t"] == job["s"]):
        bad.append("etale report is for other slots")
    if _refine(_parse_set(rep["base"]), job["d"]) != set(job["base"]):
        bad.append("etale base is not the requested cylinders")
    return bad


def _check_psi(job, text: str) -> list[str]:
    obj = json.loads(text)
    iso, signs = obj["isomorphism"], obj["equivariance"]
    bad = []
    if not (iso["ok"] and not iso["failures"] and iso["checked"] > 0):
        bad.append("isomorphism suite not ok")
    if iso["trials"] != job["trials"] or signs["trials"] != job["trials"]:
        bad.append("suite ran another number of trials")
    if not (signs["ok"] and obj["epsilon"] in (1, -1) and signs["epsilon"] == obj["epsilon"]):
        bad.append("equivariance sign not ok")
    if signs["checked"] != job["trials"] * 7:  # t in -3..3 for every sample
        bad.append("equivariance checked the wrong number of shifts")
    return bad


def _check_cli(job, text: str) -> list[str]:
    head, out = text.split("\n", 1)
    code = int(head.split()[1])
    if code != job["expect"]:
        return [f"exit {code}, expected {job['expect']}"]
    cmd = job["argv"][0]
    if cmd == "bratteli" and "dot" in job["argv"]:
        return [] if out.startswith("digraph bratteli {") else ["not a DOT diagram"]
    obj = json.loads(out)
    if code != 0:
        return [] if set(obj) == {"error"} else ["refusal without an error"]
    if cmd in ("validate", "axioms", "etale", "verify-psi") and obj["ok"] is not True:
        return [f"{cmd} not ok"]
    if cmd == "verify-psi" and obj["isomorphism"]["checked"] == 0:
        return ["verify-psi checked nothing"]
    if cmd == "hausdorff" and obj["verdict"] not in ("clopen", "non-clopen-witness"):
        return [f"hausdorff verdict {obj['verdict']}"]
    if cmd == "related" and obj["related"] and not obj["member"]:
        return ["related without membership"]
    if cmd in ("quotient", "filtrate"):
        if obj["count"] != len(obj["classes"]) or obj["sizes"] != [
                len(c) for c in obj["classes"]]:
            return [f"{cmd} counts disagree with its classes"]
        if sum(obj["sizes"]) != (2 * obj["n"] + 1) * 2 ** obj["d"]:
            return [f"{cmd} classes do not cover the cells"]
    if cmd == "bratteli":
        levels = int(job["argv"][job["argv"].index("--levels") + 1])
        return _check_tower({"levels": levels}, out + render_dot(obj))
    return []


CHECKS = {"tower": _check_tower, "partition": _check_partition,
          "etale": _check_etale, "psi": _check_psi, "cli": _check_cli}


def check(job: dict, output: bytes) -> list[str]:
    try:
        return CHECKS[job["kind"]](job, output.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# --------------------------------------------------------------------------
# Oracle checks: the answer recomputed by tests/oracles.py


def brute_diagram(oracles, rules_of_stage, schedule) -> dict:
    """The Bratteli diagram JSON rebuilt from brute-force stage partitions."""
    parts = [oracles.brute_partition(rules_of_stage(k), n, d) for k, n, d in schedule]
    levels, edges = [], []
    for m, ((k, n, d), classes) in enumerate(zip(schedule, parts)):
        prev_n = schedule[m - 1][1] if m else -1
        levels.append({"m": m, "params": {"k": k, "n": n, "d": d}, "vertices": [
            {"id": i, "size": len(c), "fresh": sum(1 for t, _ in c if abs(t) > prev_n)}
            for i, c in enumerate(classes)]})
        if m + 1 == len(schedule):
            continue
        d2 = schedule[m + 1][2]
        look = {u: j for j, c in enumerate(parts[m + 1]) for u in c}
        mult = {}
        for i, c in enumerate(classes):
            for z in oracles.words(d2 - d) if d2 > d else [""]:
                targets = {look[(t, w + z)] for t, w in c}
                if len(targets) != 1:
                    return {"error": f"class {i} of level {m} splits"}
                key = (i, targets.pop())
                mult[key] = mult.get(key, 0) + 1
        edges += [{"from": [m, i], "to": [m + 1, j], "mult": c}
                  for (i, j), c in sorted(mult.items())]
    return {"levels": levels, "edges": edges}


def _stage_rules(oracles, rules):
    if rules is None:
        return oracles.odometer_rules
    return lambda k: [tuple(r) for r in rules[: k + 1]]


def _oracle_tower(job, text, oracles) -> list[str]:
    diagram, _ = _split_tower(text)
    schedule = [(lv["params"]["k"], lv["params"]["n"], lv["params"]["d"])
                for lv in diagram["levels"]]
    expect = brute_diagram(oracles, _stage_rules(oracles, job["rules"]), schedule)
    return [] if expect == diagram else ["diagram differs from the brute-force diagram"]


def _oracle_partition(job, text, oracles) -> list[str]:
    # direct transport decides each class outright; brute_partition's
    # all-pairs search is quadratic in the 10^3-10^4 cells used here
    n, d, classes = _partition_classes(text)
    rules = [tuple(r) for r in job["rules"]]
    for cls in classes:
        members = set(cls)
        for r, w in cls:
            linked = {(s, oracles.transport(rules, r - s, w))
                      for s in range(-n, n + 1)}
            linked = {(s, x) for s, x in linked if x is not None}
            if linked != members:
                return [f"class of ({r},{w}) differs from its transport orbit"]
    return []


def _oracle_etale(job, text, oracles) -> list[str]:
    rep = json.loads(text)
    rules = [tuple(r) for r in job["rules"]]
    moved = {oracles.transport(rules, job["t"] - job["s"], w) for w in job["base"]}
    if None in moved or len(moved) != len(job["base"]):
        return ["oracle transport is not a bijection on the base"]
    if _refine(_parse_set(rep["image"]), job["d"]) != moved:
        return ["etale image differs from the transported base"]
    return []


def _oracle_cli(job, text, oracles) -> list[str]:
    head, out = text.split("\n", 1)
    argv = job["argv"]
    cmd = argv[0]
    if head != "exit 0" or cmd not in ("quotient", "filtrate", "bratteli"):
        return []
    path = argv[1]
    gen = job["files"][path]["generator"] if path in job["files"] else (
        {"kind": "odometer"} if "odometer" in path else
        {"kind": "rules", "rules": [["0", "1"]], "exhausts": "clopen"})
    odometer = gen["kind"] == "odometer"
    stage = _stage_rules(oracles, None if odometer else gen["rules"])
    if cmd == "bratteli":
        obj = json.loads(out) if "dot" not in argv else None
        if obj is None:
            return []
        schedule = [(lv["params"]["k"], lv["params"]["n"], lv["params"]["d"])
                    for lv in obj["levels"]]
        same = brute_diagram(oracles, stage, schedule) == obj
        return [] if same else ["diagram differs from the brute-force diagram"]
    obj = json.loads(out)
    if odometer or gen["exhausts"] == "open":
        k = obj.get("k", int(argv[argv.index("--level") + 1]))
        rules = stage(k)
    else:
        rules = [tuple(r) for r in gen["rules"]]
    brute = oracles.brute_partition(rules, obj["n"], obj["d"])
    got = tuple(tuple((t, w) for t, w in cls) for cls in obj["classes"])
    return [] if got == brute else [f"{cmd} classes differ from brute_partition"]


ORACLES = {"tower": _oracle_tower, "partition": _oracle_partition,
           "etale": _oracle_etale, "psi": lambda job, text, oracles: [],
           "cli": _oracle_cli}


def oracle(job: dict, output: bytes, oracles) -> list[str]:
    try:
        return ORACLES[job["kind"]](job, output.decode(), oracles)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"oracle could not read the output: {exc!r}"]
