"""Exhausting an enumerated action by clopen stages and stacking the levels.

An enumeration with infinitely many rules acts on an open, non-clopen
domain.  Each stage keeps finitely many rules and is an honest clopen
action; the germ relations of the stages filter the full relation, every
true germ instance already lives at some finite stage, and the finite cell
relations of successive stages assemble into a leveled multigraph whose
vertex sizes obey an exact counting identity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, sub

from .action import ZPartialAction
from .cantor import Point, extensions
from .cells import CellPartition, adapted_depth, cell_partition, class_table
from .envelope import GermPair, ProbeReport, related
from .errors import CapExceeded, EngineError, NotInDomain, ParseError


# An exhaustion is the enumerated action itself: ZPartialAction owns the
# schedule (`count`) and the clopen stages (`stage`).
Exhaustion = ZPartialAction


def inclusion_witness(
    a: ZPartialAction, r: int, x: Point, s: int, y: Point, cap: int = 64
) -> int:
    """Least stage K whose relation already contains the instance (r,x,s,y).

    The orbit from the lower slot to the higher one is walked one rule at a
    time; the stage must cover every rule index used on the way.  The result
    is re-checked by running the stage-K relation on the pair.
    """
    if a.clopen:
        raise ParseError("inclusion witnesses need an enumerated generator")
    steps = r - s
    p, goal = (x, y) if steps >= 0 else (y, x)
    top = -1
    for _ in range(abs(steps)):
        p, idx = a.generator.apply_point(p)
        top = max(top, idx)
    if p != goal:
        raise NotInDomain(f"({r}, {x}) and ({s}, {y}) are not related")

    level = 0
    while a.count(level) <= top:
        level += 1
        if level > cap:
            raise CapExceeded(f"no stage up to {cap} covers rule {top}")
    if not related(a.stage(level), GermPair(r, x), GermPair(s, y)):
        raise EngineError(f"stage {level} fails to relate the verified pair")
    return level


# --------------------------------------------------------------------------
# Finite truncations


def truncated_relation(a: ZPartialAction, k: int, n: int, d: int) -> CellPartition:
    """The cell relation of stage k on slots |t| <= n at depth d: the
    `cell_partition` of the clopen action `a.stage(k)`."""
    return cell_partition(a.stage(k), n, d)


def _copy_runs(coarse, fine) -> tuple[list[int], set]:
    """The fine classes of the suffix copies of every coarse cell.

    `coarse` and `fine` are (n, d, ids) with ids a `class_table`, fine
    n and d no smaller.  Restricted to the slots |t| <= n of the coarse
    table, the fine table lists the copies (t, wz) of each coarse cell
    (t, w) as one contiguous run, in suffix order: the run of coarse cell c
    is inner[c << gap : (c + 1) << gap], gap being the depth gap.  Returns
    that restriction `inner` and the set of (coarse class, run) pairs.  The
    copies of a coarse class for one suffix lie in one fine class exactly
    when all its cells have the same run, so there are as many pairs as
    coarse classes exactly when no copy of any class splits.
    """
    (n1, d1, ids1), (n2, d2, ids2) = coarse, fine
    inner = ids2[(n2 - n1) << d2 : (n2 + n1 + 1) << d2]
    return inner, set(zip(ids1, zip(*[iter(inner)] * (1 << (d2 - d1)))))


def _split_runs(pairs: set) -> dict[int, list[tuple[int, ...]]]:
    """The runs of each coarse class that has more than one, by class."""
    runs: dict[int, list[tuple[int, ...]]] = {}
    for i, run in pairs:
        runs.setdefault(i, []).append(run)
    return {i: rs for i, rs in sorted(runs.items()) if len(rs) > 1}


def inclusion_probe(a: ZPartialAction, first, second) -> ProbeReport:
    """Every related cell pair of the coarse stage stays related at the fine one.

    Each coarse class is pushed forward once per suffix of the depth gap by
    appending the suffix to all its cells; the fine partition must keep
    every such copy inside one class.  Both stages are read as class
    tables, and `_copy_runs` decides every copy at once.  `checked` counts
    the copies, and a violation names the coarse class, spelled out as its
    cells, and the suffix that split it.
    """
    (k1, n1, d1), (k2, n2, d2) = first, second
    if k2 < k1 or n2 < n1 or d2 < d1:
        raise ParseError("second stage must refine the first")
    count, ids = class_table(a.stage(k1), n1, d1)
    fine = class_table(a.stage(k2), n2, d2)[1]
    _, pairs = _copy_runs((n1, d1, ids), (n2, d2, fine))
    bad: list[str] = []
    if len(pairs) != count:
        classes = truncated_relation(a, k1, n1, d1).classes
        suffixes = extensions("", d2 - d1)
        for i, runs in _split_runs(pairs).items():
            for z, met in zip(suffixes, zip(*runs)):
                if len(set(met)) != 1:
                    bad.append(f"class {i} {classes[i]} splits with suffix {z!r}")
    return ProbeReport(count << (d2 - d1), tuple(bad))


# --------------------------------------------------------------------------
# Leveled diagrams

Schedule = tuple[tuple[int, int, int], ...]


def default_schedule(a: ZPartialAction, levels: int) -> Schedule:
    """Stage m uses (k, n) = (m, m+1) at its adapted depth, the longest rule of
    its h_1; that never decreases, as stage m+1 keeps every rule of stage m."""
    return tuple((m, m + 1, adapted_depth(a.stage(m), m + 1)) for m in range(levels))


@dataclass(frozen=True)
class BratteliLevel:
    m: int
    k: int
    n: int
    d: int
    vertices: tuple[tuple[int, int, int], ...]  # (id, size, fresh)


@dataclass(frozen=True)
class BratteliDiagram:
    levels: tuple[BratteliLevel, ...]
    edges: tuple[tuple[int, int, int, int], ...]  # (m, src, dst, mult)


def bratteli_build(a: ZPartialAction, schedule: Schedule) -> BratteliDiagram:
    """Stack the stage partitions of a schedule into a leveled diagram.

    Vertices at level m are the classes of the stage relation; an edge
    multiplicity counts the suffix-refined copies of a coarse class lying
    inside a fine class.  Fresh units are those using slots beyond the
    previous bound; the identity size' = sum(mult * size) + fresh is
    enforced at every level.

    Each stage is read as a `class_table` and no class is spelled out.  The
    sizes are a count over the table and the fresh units that count minus
    one over the slice of slots |t| <= the previous n.  `_copy_runs` gives
    each coarse class the run of fine ids of its copies, one per suffix; the
    split guard wants one run per class, and the multiplicities are a count
    of the (coarse class, fine id) pairs of those runs.
    """
    schedule = tuple((int(k), int(n), int(d)) for k, n, d in schedule)
    for prev, cur in zip(schedule, schedule[1:]):
        if any(x > y for x, y in zip(prev, cur)):
            raise ParseError(f"schedule steps backwards from {prev} to {cur}")

    tables = [class_table(a.stage(k), n, d) for k, n, d in schedule]
    levels: list[BratteliLevel] = []
    edges: list[tuple[int, int, int, int]] = []
    incoming: dict[int, int] = {}  # units each class receives from below
    inside: Counter = Counter()  # cells of each class on the previous slots
    for m, ((k, n, d), (count, ids)) in enumerate(zip(schedule, tables)):
        vertices = range(count)
        size = [*map(Counter(ids).__getitem__, vertices)]
        fresh = [*map(sub, size, map(inside.get, vertices, repeat(0)))]
        inflow = [*map(incoming.get, vertices, repeat(0))]
        if size != [*map(add, inflow, fresh)]:
            j = next(j for j in vertices if size[j] != inflow[j] + fresh[j])
            raise EngineError(
                f"dimension identity fails at level {m} vertex {j}: "
                f"{size[j]} != {inflow[j]} + {fresh[j]}"
            )
        levels.append(BratteliLevel(m, k, n, d, tuple(zip(vertices, size, fresh))))
        if m + 1 == len(schedule):
            break
        (_, n2, d2), fine = schedule[m + 1], tables[m + 1][1]
        inner, pairs = _copy_runs((n, d, ids), (n2, d2, fine))
        if len(pairs) != count:
            raise EngineError(
                f"refined copy of class {min(_split_runs(pairs))} splits across "
                "fine classes"
            )
        # each class once per suffix, beside the fine id of that copy
        copies = chain.from_iterable(zip(*[vertices] * (1 << (d2 - d))))
        runs = chain.from_iterable(map(dict(pairs).__getitem__, vertices))
        mult = Counter(zip(copies, runs))
        edges += [(m, i, j, c) for (i, j), c in sorted(mult.items())]
        incoming = {}
        for (i, j), c in mult.items():
            incoming[j] = incoming.get(j, 0) + c * size[i]
        inside = Counter(inner)
    return BratteliDiagram(tuple(levels), tuple(edges))


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, laid out as json.dumps(indent=2) does
    for an array whose closing bracket sits at `indent`."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def diagram_to_json(d: BratteliDiagram) -> str:
    """The diagram as the exact bytes of json.dumps(obj, indent=2) + "\n".

    obj is {"levels": [{"m", "params": {"k", "n", "d"}, "vertices":
    [{"id", "size", "fresh"}]}], "edges": [{"from": [m, i], "to": [m + 1, j],
    "mult"}]} with int values.  json.dumps with an indent runs the
    pure-Python encoder, so the layout is written from fixed templates.
    """
    levels = []
    for lv in d.levels:
        vertices = [
            f'{{\n          "id": {vid},\n          "size": {size},\n'
            f'          "fresh": {fresh}\n        }}'
            for vid, size, fresh in lv.vertices
        ]
        levels.append(
            f'{{\n      "m": {lv.m},\n      "params": {{\n        "k": {lv.k},\n'
            f'        "n": {lv.n},\n        "d": {lv.d}\n      }},\n'
            f'      "vertices": {_json_list(vertices, "      ")}\n    }}'
        )
    edges = [
        f'{{\n      "from": [\n        {m},\n        {i}\n      ],\n'
        f'      "to": [\n        {m + 1},\n        {j}\n      ],\n'
        f'      "mult": {c}\n    }}'
        for m, i, j, c in d.edges
    ]
    return (
        f'{{\n  "levels": {_json_list(levels, "  ")},\n'
        f'  "edges": {_json_list(edges, "  ")}\n}}\n'
    )


def diagram_to_dot(d: BratteliDiagram) -> str:
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for lv in d.levels:
        nodes = " ".join(
            f'L{lv.m}_{vid} [label="{size}"];' for vid, size, _ in lv.vertices
        )
        lines.append(f"  {{ rank=same; {nodes} }}")
    for m, i, j, c in d.edges:
        lines.append(f'  L{m}_{i} -> L{m + 1}_{j} [label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(d: BratteliDiagram, fmt: str) -> str:
    if fmt == "json":
        return diagram_to_json(d)
    if fmt == "dot":
        return diagram_to_dot(d)
    raise ParseError(f"unknown export format {fmt!r}")
