"""Command line front end: JSON system definitions in, JSON/DOT reports out.

Each subcommand is one entry of `COMMANDS`: its handler, help text and
options, from which `build_parser` builds the argparse parser.  Exit codes:
0 for a clean run or passing check, 1 for usage and parse problems, 2 for a
violated property, 3 for a blown resource cap, and from the console entry
point 141 (128 + SIGPIPE) when the reader of stdout closed it early.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

from .action import (
    ZPartialAction,
    axioms_check,
    exhaustion_counts,
    generated_family,
    germ_index,
    transport_index,
)
from .cantor import ClopenSet, Point
from .cells import adapted_depth, cell_partition
from .envelope import GermPair, etale_probe, hausdorff_decide, nonseparable_pair, related
from .errors import (
    BaseNotInDomain,
    CapExceeded,
    DepthTooSmall,
    EngineError,
    LevelRequired,
    NotInDomain,
    NotStabilized,
    NoWitness,
    ParseError,
)
from .filtration import (
    bratteli_build,
    default_schedule,
    export,
    inclusion_witness,
    truncated_relation,
)
from .prefix_map import GeneratedMap, PrefixMap
from .value import Value, set_field
from .verify import equivariance_sign, isomorphism_suite

_TOP_KEYS = {"name", "generator", "exhaustion", "defaults"}
_DEFAULT_KEYS = {"bound", "depth", "level", "levels", "cap", "seed"}


class SystemDefinition(Value):
    """A loaded system file; `defaults` is a fresh dict when omitted."""

    name: str
    generator: PrefixMap | GeneratedMap
    counts: tuple[int, ...] | None = None
    defaults: dict

    def __init__(self, name: str, generator: PrefixMap | GeneratedMap,
                 counts: tuple[int, ...] | None = None, defaults: dict | None = None):
        set_field(self, "name", name)
        set_field(self, "generator", generator)
        set_field(self, "counts", counts)
        set_field(self, "defaults", {} if defaults is None else defaults)

    @property
    def is_generated(self) -> bool:
        return isinstance(self.generator, GeneratedMap)


def load_system(path: str) -> SystemDefinition:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ParseError("system definition must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown system fields: {sorted(unknown)}")
    for key in ("name", "generator"):
        if key not in obj:
            raise ParseError(f"system definition needs a {key!r} field")
    name = obj["name"]
    if not isinstance(name, str):
        raise ParseError("system name must be text")

    gen = obj["generator"]
    if not isinstance(gen, dict) or "kind" not in gen:
        raise ParseError("generator must be an object with a 'kind'")
    kind = gen["kind"]
    if kind == "odometer":
        if set(gen) != {"kind"}:
            raise ParseError("odometer generator takes no other fields")
        generator: PrefixMap | GeneratedMap = GeneratedMap("odometer")
    elif kind == "rules":
        if set(gen) != {"kind", "rules", "exhausts"}:
            raise ParseError(
                "rules generator needs exactly 'kind', 'rules' and 'exhausts'"
            )
        raw = gen["rules"]
        if not isinstance(raw, list) or any(
            not isinstance(pair, list) or len(pair) != 2 for pair in raw
        ):
            raise ParseError("rules must be a list of [source, target] pairs")
        rules = tuple(map(tuple, raw))
        if gen["exhausts"] == "clopen":
            generator = PrefixMap(rules)
        elif gen["exhausts"] == "open":
            generator = GeneratedMap("rules", rules)
        else:
            raise ParseError("'exhausts' must be 'open' or 'clopen'")
    else:
        raise ParseError(f"unknown generator kind {kind!r}")

    has_schedule = "exhaustion" in obj
    counts = exhaustion_counts(generator, obj["exhaustion"]) if has_schedule else None

    defaults = obj.get("defaults", {})
    if not isinstance(defaults, dict) or set(defaults) - _DEFAULT_KEYS:
        raise ParseError(f"defaults may only set {sorted(_DEFAULT_KEYS)}")
    for key, val in defaults.items():
        if type(val) is not int:
            raise ParseError(f"default {key!r} must be an integer")
    return SystemDefinition(name, generator, counts, dict(defaults))


# least accepted value of each numeric option, whether given or defaulted
_LEAST = {"bound": 0, "depth": 0, "cap": 0, "levels": 1, "trials": 1, "support": 0}


def _resolve(args, sd: SystemDefinition, name: str, fallback=None):
    val = getattr(args, name, None)
    if val is None:
        val = sd.defaults.get(name, fallback)
    least = _LEAST.get(name)
    if val is not None and least is not None and val < least:
        raise ParseError(f"--{name} must be >= {least}, not {val}")
    return val


def _action(sd: SystemDefinition, stage: int | None = None) -> ZPartialAction:
    """The system's action, or that stage of it when one is named."""
    a = ZPartialAction(sd.generator, sd.counts)
    return a if stage is None else a.stage(stage)


def _level(args, sd: SystemDefinition, fallback=None) -> int | None:
    """--level or its default; an open enumeration must have one."""
    level = _resolve(args, sd, "level", fallback)
    if sd.is_generated and level is None:
        raise LevelRequired("--level is needed for an open enumeration")
    return level


def _cells(args, sd: SystemDefinition, stage) -> tuple[int, int]:
    """--bound (default 2) and --depth (default: adapted to `stage()`, built last)."""
    n = _resolve(args, sd, "bound", 2)
    depth = _resolve(args, sd, "depth")
    return n, adapted_depth(stage(), n) if depth is None else depth


def _germ(text: str) -> GermPair:
    try:
        slot, point = text.split(":", 1)
        return GermPair(int(slot), Point.parse(point))
    except ValueError as exc:
        raise ParseError(f"germ {text!r} must look like 'index:point'") from exc


# --------------------------------------------------------------------------
# Commands: each takes the parsed arguments and the loaded system and
# returns (exit code, payload); dict payloads print as JSON.


def cmd_axioms(args, sd: SystemDefinition):
    bad = list(sd.generator.violations())
    if bad:
        return 2, {"ok": False, "violations": bad}
    bound = _resolve(args, sd, "bound", 4)
    fallback = bound if sd.is_generated else None
    if sd.counts is not None:  # a schedule may stop before stage `bound`
        fallback = min(bound, len(sd.counts) - 1)
    level = _resolve(args, sd, "level", fallback)
    report = axioms_check(generated_family(_action(sd, level), bound))
    return (0 if report.ok else 2), report.to_json()


def cmd_validate(args, sd: SystemDefinition):
    """`axioms` under the system's name, its report nested under "axioms"."""
    code, report = cmd_axioms(args, sd)
    if "bound" in report:  # the generator is valid and the axioms were checked
        report = {"ok": report["ok"], "violations": [], "axioms": report}
    return code, {"ok": report["ok"], "name": sd.name, **report}


def cmd_hausdorff(args, sd: SystemDefinition):
    bad = list(sd.generator.violations())
    if bad:
        return 2, {"ok": False, "violations": bad}
    bound = _resolve(args, sd, "bound", 4)
    depth = _resolve(args, sd, "depth", 10)
    a = _action(sd)
    cert = hausdorff_decide(a, bound, depth)
    payload = cert.to_json()
    if cert.verdict == "non-clopen-witness":
        try:
            payload["pair"] = nonseparable_pair(a, cert.t, depth).to_json()
        except NoWitness as exc:
            payload["pair"] = None
            payload["pair_error"] = str(exc)
    return 0, payload


def cmd_related(args, sd: SystemDefinition):
    p, q = _germ(args.p), _germ(args.q)
    a = _action(sd, _resolve(args, sd, "level"))
    dom = a.domain(germ_index(p.index, q.index))
    member = dom.contains_point(p.point)
    image = a.apply(transport_index(p.index, q.index), p.point) if member else None
    return 0, {
        "related": related(a, p, q),
        "p": str(p),
        "q": str(q),
        "germ_set": str(dom),
        "member": member,
        "image": None if image is None else str(image),
    }


def cmd_etale(args, sd: SystemDefinition):
    a = _action(sd, _resolve(args, sd, "level"))
    if args.base is not None:
        base = ClopenSet.parse(args.base)
    else:
        base = a.domain(germ_index(args.t, args.s))
    report = etale_probe(a, args.t, args.s, base)
    return (0 if report.ok else 2), report.to_json()


def cmd_quotient(args, sd: SystemDefinition):
    a = _action(sd, _level(args, sd))  # a bad stage is refused before a bad bound
    part = cell_partition(a, *_cells(args, sd, lambda: a))
    return 0, {
        "n": part.n,
        "d": part.d,
        "count": len(part.classes),
        "sizes": part.sizes,
        "classes": part.classes,
    }


def cmd_filtrate(args, sd: SystemDefinition):
    if (args.p is None) != (args.q is None):
        raise ParseError("--p and --q must be given together")
    if args.p is not None:
        p, q = _germ(args.p), _germ(args.q)
        cap = _resolve(args, sd, "cap", 64)
        level = inclusion_witness(
            _action(sd), p.index, p.point, q.index, q.point, cap
        )
        return 0, {"p": str(p), "q": str(q), "witness_level": level}

    k = _level(args, sd, None if sd.is_generated else 0)
    a = _action(sd)
    part = truncated_relation(a, k, *_cells(args, sd, lambda: a.stage(k)))
    return 0, {
        "k": k,
        "n": part.n,
        "d": part.d,
        "classes": part.classes,
        "count": len(part.classes),
        "sizes": part.sizes,
    }


def cmd_bratteli(args, sd: SystemDefinition):
    levels = _resolve(args, sd, "levels", 3)
    a = _action(sd)
    return 0, export(bratteli_build(a, default_schedule(a, levels)), args.out)


def cmd_verify_psi(args, sd: SystemDefinition):
    a = _action(sd, _level(args, sd))
    trials = _resolve(args, sd, "trials")
    opts = dict(seed=_resolve(args, sd, "seed", 0), max_index=_resolve(args, sd, "support"),
                depth=_resolve(args, sd, "depth", 6))
    report = isomorphism_suite(a, trials=trials, **opts)
    _, ereport = equivariance_sign(a, trials=min(trials, 50), **opts)
    ok = report.ok and ereport.ok
    return (0 if ok else 2), {
        "ok": ok,
        "isomorphism": report.to_json(),
        "equivariance": ereport.to_json(),
    }


# --------------------------------------------------------------------------
# The command table: name -> (handler, help, *options).  An option is a name,
# for an optional integer `--name`, or a (name, `add_argument` keywords) pair.

COMMANDS = {
    "validate": (cmd_validate, "check rule antichains and the action axioms", "bound", "level"),
    "axioms": (cmd_axioms, "run the axiom checker and print its report", "bound", "level"),
    "hausdorff": (cmd_hausdorff, "certify clopen domains or find a boundary witness",
                  "bound", "depth"),
    "related": (cmd_related, "decide whether two germs glue",
                ("p", {"required": True, "help": "germ as 'index:point', e.g. '1:(0)'"}),
                ("q", {"required": True, "help": "germ as 'index:point'"}), "level"),
    "etale": (cmd_etale, "range/source bijectivity over a basic open",
              ("t", {"type": int, "required": True}), ("s", {"type": int, "required": True}),
              ("base", {"help": "clopen set like '{0,11}' (default: the full germ set)"}),
              "level"),
    "quotient": (cmd_quotient, "finite cell decomposition of the germ quotient",
                 "bound", "depth", "level"),
    "filtrate": (cmd_filtrate, "stage relations and inclusion witnesses",
                 "level", "bound", "depth", "cap", ("p", {"help": "germ as 'index:point'"}),
                 ("q", {"help": "germ as 'index:point'"})),
    "bratteli": (cmd_bratteli, "build and export the leveled class diagram",
                 "levels", ("out", {"choices": ("json", "dot"), "default": "json"})),
    "verify-psi": (cmd_verify_psi, "randomized exact identity suite for the reindexing",
                   ("trials", {"type": int, "default": 100}), "seed",
                   ("support", {"type": int, "default": 3}), "depth", "level"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built from `COMMANDS` once per process on first use.

    Sharing it is safe: `parse_args` returns a fresh namespace and leaves
    the parser unchanged.  `argparse` is imported here, so importing this
    module without parsing loads none of it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="cantorenv",
        description="Exact analysis of partial integer actions on binary Cantor space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, *options) in COMMANDS.items():
        sp = sub.add_parser(name, help=text, description=text)
        sp.add_argument("system", help="system definition JSON file")
        sp.set_defaults(func=func)
        for option in options:
            flag, kwargs = (option, {"type": int}) if isinstance(option, str) else option
            sp.add_argument(f"--{flag}", **kwargs)
    return parser


# refusals that exit 1 (usage) and 3 (a blown cap); any other EngineError exits 2
_USAGE_ERRORS = (ParseError, LevelRequired, DepthTooSmall, NotInDomain, BaseNotInDomain,
                 OSError)
_CAP_ERRORS = (CapExceeded, NotStabilized)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code, payload = args.func(args, load_system(args.system))
    except (EngineError, OSError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1 if isinstance(exc, _USAGE_ERRORS) else 3 if isinstance(exc, _CAP_ERRORS) else 2
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(json.dumps(payload, indent=2))
    return code


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:  # exit as SIGPIPE would; the flush at exit hits devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
