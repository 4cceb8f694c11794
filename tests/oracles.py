"""Word-level brute force used to pin expected values independently.

Everything here works on plain strings and rule lists, with no imports from
the package under test.  Transport applies the first rule whose source is a
prefix of the word, one step at a time; words must be deep enough that every
step is decisive (no source sticks out past the end of the word).
"""

import itertools


def step(rules, w):
    """One forward rewrite, or None when no source matches."""
    for u, v in rules:
        if len(u) > len(w) and u.startswith(w):
            raise ValueError(f"word {w!r} too shallow for source {u!r}")
        if w.startswith(u):
            return v + w[len(u):]
    return None


def transport(rules, t, w):
    """Apply the one-step map t times (inverse rules when t < 0)."""
    use = rules if t >= 0 else [(v, u) for u, v in rules]
    for _ in range(abs(t)):
        w = step(use, w)
        if w is None:
            return None
    return w


def words(d):
    return ["".join(p) for p in itertools.product("01", repeat=d)]


def cells_covered(ws, d):
    """The depth-d cells inside the union of the cylinders [w], w in ws."""
    return {c for c in words(d) if any(c.startswith(w) for w in ws)}


def cell_values(pieces, d):
    """Depth-d cell -> value, for prefix-free (word, value) pieces."""
    return {c: v for c in words(d) for w, v in pieces if c.startswith(w)}


def overlaps(ws):
    """Pairs (u, v) of entries at distinct positions with u a prefix of v."""
    return [(u, v) for i, u in enumerate(ws) for j, v in enumerate(ws)
            if i != j and v.startswith(u)]


def antichain(ws):
    """The words of ws overlapping no earlier kept word, sorted; siblings unmerged."""
    kept = []
    for w in ws:
        if not overlaps(kept + [w]):
            kept.append(w)
    return sorted(kept)


def comparable_pairs(xs, ys):
    """All (x, y), x in xs and y in ys, in which one word is a prefix of the other."""
    return [(x, y) for x in xs for y in ys if x.startswith(y) or y.startswith(x)]


def image_cells(rules, ws, d):
    """The one-step images of the depth-d cells inside the union of [w], w in ws."""
    images = (step(rules, c) for c in cells_covered(ws, d))
    return {v for v in images if v is not None}


def pullback_values(pieces, rules, d):
    """Depth-d cell c -> value of the pieces on [step(rules, c)], where nonzero.

    d must be deep enough that each such cylinder lies inside one piece or
    misses them all.
    """
    out = {}
    for c in words(d):
        v = step(rules, c)
        for w, val in pieces if v is not None else ():
            if len(w) > len(v) and w.startswith(v):
                raise ValueError(f"cell {c!r} too shallow for piece {w!r}")
            if v.startswith(w):
                out[c] = val
    return out


def equal_siblings(pieces):
    """Words w whose halves w0 and w1 are both pieces, with equal values."""
    table = dict(pieces)
    return [w[:-1] for w, v in table.items() if w.endswith("0")
            and w[:-1] + "1" in table and table[w[:-1] + "1"] == v]


def merge_pairwise(pieces):
    """Prefix-free (word, label) pieces, sorted, after merging one pair of
    equal-label siblings w0, w1 into w at a time until none is left."""
    table = dict(pieces)
    while True:
        found = equal_siblings(table.items())
        if not found:
            return sorted(table.items())
        w = found[0]
        table[w] = table.pop(w + "0")
        del table[w + "1"]


def brute_partition(rules, n, d):
    """Classes of all cells (t, w), |t| <= n, len(w) = d, by joint transport
    of the powers of the map with these `rules`."""
    units = [(t, w) for t in range(-n, n + 1) for w in words(d)]
    parent = list(range(len(units)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    idx = {u: i for i, u in enumerate(units)}
    for i, (r, w) in enumerate(units):
        for s in range(-n, n + 1):
            # the one cell of slot s that (r, w) moves to, if it is a cell
            j = idx.get((s, transport(rules, r - s, w)))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i, u in enumerate(units):
        groups.setdefault(find(i), []).append(u)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def brute_diagram(rules_of_stage, schedule):
    """The Bratteli diagram of a schedule of (k, n, d) stages, as JSON data.

    Level m holds the classes of brute_partition(rules_of_stage(k), n, d); a
    vertex counts as fresh the cells of its class whose slot lies beyond the
    previous level's n.  Appending one suffix of the depth gap to every cell
    of a class gives a copy of it, which must lie inside one class of the
    next level; an edge counts the copies that land in each class.
    """
    parts = [brute_partition(rules_of_stage(k), n, d) for k, n, d in schedule]
    levels, edges = [], []
    prev_n = -1
    for m, ((k, n, d), classes) in enumerate(zip(schedule, parts)):
        vertices = [{"id": i, "size": len(c),
                     "fresh": len([t for t, _ in c if abs(t) > prev_n])}
                    for i, c in enumerate(classes)]
        levels.append({"m": m, "params": {"k": k, "n": n, "d": d},
                       "vertices": vertices})
        prev_n = n
        if m + 1 == len(schedule):
            break
        owner = {cell: j for j, c in enumerate(parts[m + 1]) for cell in c}
        mult = {}
        for i, c in enumerate(classes):
            for z in words(schedule[m + 1][2] - d):
                (j,) = {owner[(t, w + z)] for t, w in c}
                mult[(i, j)] = mult.get((i, j), 0) + 1
        edges += [{"from": [m, i], "to": [m + 1, j], "mult": mult[i, j]}
                  for i, j in sorted(mult)]
    return {"levels": levels, "edges": edges}


def axiom2_failures(family, bound):
    """The (t, s) with |t|, |s|, |t + s| <= bound where h_t(X_{-t} & X_s)
    differs from X_t & X_{t+s}.

    `family` maps t to (words of X_t, rules of h_t), the rules with
    prefix-free sources.  The left side is the image of the cells of X_{-t}
    and X_s, taken deep enough that h_t is decisive on each; both sides are
    then compared as the cells they cover at the depth of their longest word.
    """
    def longest(ws):
        return max((len(w) for w in ws), default=0)

    span = range(-bound, bound + 1)
    out = set()
    for t, s in itertools.product(span, span):
        if abs(t + s) > bound:
            continue
        rules = family[t][1]
        xa, xb = family[-t][0], family[s][0]
        d = max(longest(xa), longest(xb), longest(u for u, _ in rules))
        left = image_cells(rules, cells_covered(xa, d) & cells_covered(xb, d), d)
        xc, xd = family[t][0], family[t + s][0]
        e = max(longest(xc), longest(xd))
        right = cells_covered(xc, e) & cells_covered(xd, e)
        e = max(e, longest(left))
        if cells_covered(left, e) != cells_covered(right, e):
            out.add((t, s))
    return out


def axiom3_failures(family, bound):
    """The (t, s) with |t|, |s|, |t + s| <= bound where h_t h_s != h_{t+s}.

    `family` maps t to (words of X_t, rules of h_t), the rules with
    prefix-free sources.  The maps are compared on the cells of X_{-s} and
    X_{-s-t}, taken deep enough that every step is decisive; a cell where
    either side is undefined counts as a failure.
    """
    def longest(ws):
        return max((len(w) for w in ws), default=0)

    def sources(t):
        return [u for u, _ in family[t][1]]

    span = range(-bound, bound + 1)
    out = set()
    for t, s in itertools.product(span, span):
        if abs(t + s) > bound:
            continue
        xa, xb = family[-s][0], family[-s - t][0]
        d = max(longest(xa), longest(xb), longest(sources(t + s)),
                longest(sources(s)) + longest(sources(t)))
        for c in sorted(cells_covered(xa, d) & cells_covered(xb, d)):
            mid = step(family[s][1], c)
            via = None if mid is None else step(family[t][1], mid)
            if via is None or via != step(family[t + s][1], c):
                out.add((t, s))
                break
    return out


def deep_identity_rules(k):
    """The identity written as rules 0^i 1 -> 0^i 1 (i < k) and 0^k -> 0^k."""
    return [("0" * i + "1",) * 2 for i in range(k)] + [("0" * k,) * 2]


def odometer_rules(k):
    """Carry rules 1^i 0 -> 0^i 1 for i = 0..k."""
    return [("1" * i + "0", "0" * i + "1") for i in range(k + 1)]


FLIP_RULES = [("0", "1")]


def value(w):
    """Little-endian integer encoding of a word."""
    return sum(1 << i for i, c in enumerate(w) if c == "1")


def word_of(v, d):
    return "".join("1" if v >> i & 1 else "0" for i in range(d))
