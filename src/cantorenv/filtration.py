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
from itertools import chain, repeat
from operator import add

from .action import ZPartialAction
from .cantor import Point, extensions
from .cells import CellPartition, adapted_depth, cell_partition, class_table
from .envelope import GermPair, ProbeReport, related
from .errors import CapExceeded, EngineError, NotInDomain, ParseError
from .value import Value


# An exhaustion is the enumerated action itself: ZPartialAction owns the
# schedule (`count`) and the clopen stages (`stage`).
Exhaustion = ZPartialAction


def inclusion_witness(
    a: ZPartialAction, r: int, x: Point, s: int, y: Point, cap: int = 64
) -> int:
    """Least stage K whose relation already contains the instance (r,x,s,y).

    A clopen action has no stages and is refused with ParseError.  The orbit
    from the lower slot to the higher one is walked one rule at a time; the
    stage must cover every rule index used on the way, and the result is
    re-checked by running the stage-K relation on the pair.
    """
    if a.clopen:
        raise ParseError("inclusion witnesses need an open enumeration")
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


def _copies(coarse, fine) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """Where the suffix copies of every coarse class land in the fine table.

    `coarse` and `fine` are (n, d, ids) with ids a `class_table`, fine
    n and d no smaller.  Restricted to the slots |t| <= n of the coarse
    table, the fine table lists the copies (t, wz) of each coarse cell
    (t, w) as one contiguous run, in suffix order, so the fine ids of the
    copies by suffix z of all coarse cells are the stride inner[z::2^gap],
    gap being the depth gap.  Copy z of a coarse class lies in one fine
    class exactly when all its cells agree there.  A class table numbers
    the classes by least cell, so slot-major order meets them in id order,
    and dict(zip(ids, column)) lists them in id order.  Returns, for each
    suffix z, the fine class of copy z of each coarse class, by class, and
    the set of (class, z) whose copy splits.
    """
    (n1, d1, ids1), (n2, d2, ids2) = coarse, fine
    step = 1 << (d2 - d1)
    inner = ids2[(n2 - n1) << d2 : (n2 + n1 + 1) << d2]
    targets: list[list[int]] = []
    splits: set[tuple[int, int]] = set()
    for z in range(step):
        column = inner[z::step]
        dest = dict(zip(ids1, column))  # each class: the fine id at its last cell
        if [*map(dest.__getitem__, ids1)] != column:
            splits.update((i, z) for i, j in zip(ids1, column) if dest[i] != j)
        targets.append([*dest.values()])
    return targets, splits


def inclusion_probe(a: ZPartialAction, first, second) -> ProbeReport:
    """Every related cell pair of the coarse stage stays related at the fine one.

    Each coarse class is pushed forward once per suffix of the depth gap by
    appending the suffix to all its cells; the fine partition must keep
    every such copy inside one class.  Both stages are read as class
    tables, and `_copies` decides every copy at once.  `checked` counts
    the copies, and a violation names the coarse class, spelled out as its
    cells, and the suffix that split it.
    """
    (k1, n1, d1), (k2, n2, d2) = first, second
    if k2 < k1 or n2 < n1 or d2 < d1:
        raise ParseError("second stage must refine the first")
    count, ids = class_table(a.stage(k1), n1, d1)
    fine = class_table(a.stage(k2), n2, d2)[1]
    _, splits = _copies((n1, d1, ids), (n2, d2, fine))
    bad: list[str] = []
    if splits:
        classes = truncated_relation(a, k1, n1, d1).classes
        suffixes = extensions("", d2 - d1)
        bad = [f"class {i} {classes[i]} splits with suffix {suffixes[z]!r}"
               for i, z in sorted(splits)]
    return ProbeReport(count << (d2 - d1), tuple(bad))


# --------------------------------------------------------------------------
# Leveled diagrams

Schedule = tuple[tuple[int, int, int], ...]


def default_schedule(a: ZPartialAction, levels: int) -> Schedule:
    """Stage m uses (k, n) = (m, m+1) at its adapted depth, the longest rule of
    its h_1; that never decreases, as stage m+1 keeps every rule of stage m."""
    return tuple((m, m + 1, adapted_depth(a.stage(m), m + 1)) for m in range(levels))


class BratteliLevel(Value):
    m: int
    k: int
    n: int
    d: int
    vertices: tuple[tuple[int, int, int], ...]  # (id, size, fresh)


class BratteliDiagram(Value):
    levels: tuple[BratteliLevel, ...]
    edges: tuple[tuple[int, int, int, int], ...]  # (m, src, dst, mult)


def bratteli_build(a: ZPartialAction, schedule: Schedule) -> BratteliDiagram:
    """Stack the stage partitions of a schedule into a leveled diagram.

    Vertices at level m are the classes of the stage relation; an edge
    multiplicity counts the suffix-refined copies of a coarse class lying
    inside a fine class.  Fresh units are those using slots beyond the
    previous bound; the identity size' = sum(mult * size) + fresh is
    enforced at every level.  A row that is not three ints (a bool or a
    float among them) is refused with ParseError, as is a schedule that
    steps backwards.

    Each stage is read as a `class_table` and no class is spelled out.  A
    class table meets its classes in id order, so the sizes are the counts
    of a `Counter` over the table, in its order, and the fresh units a count
    over the 2(n - n_prev) outer slots alone.  `_copies` gives the fine
    class of each copy of every coarse class; the split guard wants every
    copy inside one.  A class holds at most one cell per slot (the lemma of
    `_rows`), so two copies of one class, which share their slots, never
    share a fine class: every multiplicity is 1, and the edges are the
    (class, fine class) pairs of all copies, sorted.  Each suffix lists its
    pairs in class order, so the sort merges 2^gap sorted runs, and with a
    depth gap of 0 it only reads the one run.
    """
    schedule = tuple(map(tuple, schedule))
    for row in schedule:
        if len(row) != 3 or any(type(x) is not int for x in row):
            raise ParseError(f"a schedule row needs ints k, n and d, not {row!r}")
    for prev, cur in zip(schedule, schedule[1:]):
        if any(x > y for x, y in zip(prev, cur)):
            raise ParseError(f"schedule steps backwards from {prev} to {cur}")

    tables = [class_table(a.stage(k), n, d) for k, n, d in schedule]
    levels: list[BratteliLevel] = []
    edges: list[tuple[int, int, int, int]] = []
    incoming: list[int] = []  # units each class receives from below
    for m, ((k, n, d), (count, ids)) in enumerate(zip(schedule, tables)):
        vertices = range(count)
        size = [*Counter(ids).values()]
        if m:
            cut = (n - schedule[m - 1][1]) << d
            outer = Counter(ids[:cut] + ids[len(ids) - cut :])
            fresh = [*map(outer.get, vertices, repeat(0))]
        else:
            fresh, incoming = size, [0] * count
        if size != [*map(add, incoming, fresh)]:
            j = next(j for j in vertices if size[j] != incoming[j] + fresh[j])
            raise EngineError(
                f"dimension identity fails at level {m} vertex {j}: "
                f"{size[j]} != {incoming[j]} + {fresh[j]}"
            )
        levels.append(BratteliLevel(m, k, n, d, tuple(zip(vertices, size, fresh))))
        if m + 1 == len(schedule):
            break
        (_, n2, d2), (count2, fine) = schedule[m + 1], tables[m + 1]
        targets, splits = _copies((n, d, ids), (n2, d2, fine))
        if splits:
            raise EngineError(
                f"refined copy of class {min(splits)[0]} splits across fine classes"
            )
        incoming = [0] * count2
        for i, j in sorted(chain.from_iterable(map(zip, repeat(vertices), targets))):
            edges.append((m, i, j, 1))
            incoming[j] += size[i]
    return BratteliDiagram(tuple(levels), tuple(edges))


class _Names(dict):
    """A name table that formats each int at its first lookup and keeps it."""

    def __missing__(self, x: int) -> str:
        name = self[x] = str(x)
        return name


def _named(render, d: BratteliDiagram) -> str:
    """render(d, names), with names[x] == str(x) for every int x rendered.

    Most ints of a diagram repeat: ids, levels and multiplicities are small,
    and each one would be formatted again at every vertex and edge.  So the
    table holds the names of 0, ..., b - 1 once, b being the number of levels
    plus the vertex count of the largest level.  That is never more ints than
    either format renders, and it covers every id, level and multiplicity of
    a diagram from `bratteli_build`.  A diagram holding any other int (a
    negative id, a size above b) raises KeyError, and is rendered again with
    a `_Names` table.  The first table is a plain dict because lookups in a
    dict subclass miss the interpreter's fast path: with `_Names` alone, the
    `odometer_tower` workload ran 8% slower (CPython 3.11, 2-core host).
    """
    b = len(d.levels) + max((len(lv.vertices) for lv in d.levels), default=0)
    try:
        return render(d, dict(enumerate(map(str, range(b)))))
    except KeyError:
        return render(d, _Names())


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
    pure-Python encoder, so the layout is written from fixed templates, and
    the ints of the vertices and edges are looked up in a name table
    (`_named`) rather than formatted one by one.
    """
    return _named(_json_text, d)


def _json_text(d: BratteliDiagram, names: dict[int, str]) -> str:
    levels = []
    for lv in d.levels:
        vertices = [
            f'{{\n          "id": {names[vid]},\n          "size": {names[size]},\n'
            f'          "fresh": {names[fresh]}\n        }}'
            for vid, size, fresh in lv.vertices
        ]
        levels.append(
            f'{{\n      "m": {lv.m},\n      "params": {{\n        "k": {lv.k},\n'
            f'        "n": {lv.n},\n        "d": {lv.d}\n      }},\n'
            f'      "vertices": {_json_list(vertices, "      ")}\n    }}'
        )
    edges = [
        f'{{\n      "from": [\n        {names[m]},\n        {names[i]}\n      ],\n'
        f'      "to": [\n        {names[m + 1]},\n        {names[j]}\n      ],\n'
        f'      "mult": {names[c]}\n    }}'
        for m, i, j, c in d.edges
    ]
    return (
        f'{{\n  "levels": {_json_list(levels, "  ")},\n'
        f'  "edges": {_json_list(edges, "  ")}\n}}\n'
    )


def diagram_to_dot(d: BratteliDiagram) -> str:
    """The diagram as DOT: one rank per level, an edge labelled by its
    multiplicity; the ints come from a name table as in `diagram_to_json`."""
    return _named(_dot_text, d)


def _dot_text(d: BratteliDiagram, names: dict[int, str]) -> str:
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for lv in d.levels:
        m = names[lv.m]
        nodes = " ".join(
            f'L{m}_{names[vid]} [label="{names[size]}"];' for vid, size, _ in lv.vertices
        )
        lines.append(f"  {{ rank=same; {nodes} }}")
    lines += [
        f'  L{names[m]}_{names[i]} -> L{names[m + 1]}_{names[j]} [label="{names[c]}"];'
        for m, i, j, c in d.edges
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(d: BratteliDiagram, fmt: str) -> str:
    if fmt == "json":
        return diagram_to_json(d)
    if fmt == "dot":
        return diagram_to_dot(d)
    raise ParseError(f"unknown export format {fmt!r}")
