"""The gluing relation on indexed points and its Hausdorffness.

A germ (r, x) is an index together with a point; two germs are related when
the point of one lies in the right domain and the right power of the
generator carries it to the other point.  The quotient of all germs by this
relation is Hausdorff exactly when every domain X_t is clopen, so the
decision procedure either materializes the domains as canonical clopen sets
or hunts for a limit point sitting on the boundary of the union U_k of an
exhaustion.  Both sides of a witness are read from the stages of one
action: U_k is the X_t of stage k, and the other side is its X_{-t}.
The arrows of the groupoid are the related pairs of germs (p, q), composing
as (p, q)(q, r) = (p, r); one probe checks its laws through `related`
alone, and its unit, inverse and composite laws are the reflexivity,
symmetry and transitivity of the relation.  The probe for the range/source
bijections decides on cylinder words with `PrefixMap.image_word`, cutting
its base only at rule boundaries, and builds one canonical set, the image
it reports.  Its checks read the action's power h_k for the moved cells,
its inverse power h_{-k} for the pull-back and its domain X_k for the
range, so a broken power or domain shows as a named violation.
"""

from __future__ import annotations

from .action import ZPartialAction, germ_index, transport_index
from .cantor import (
    ClopenSet, Point, common_prefix_length, leaves_below, proper_prefixes, show_word
)
from .errors import BaseNotInDomain, NoWitness
from .value import Value


class GermPair(Value):
    index: int
    point: Point

    def __str__(self) -> str:
        return f"[{self.index}, {self.point}]"


def related(a: ZPartialAction, p: GermPair, q: GermPair) -> bool:
    """Whether (p.index, p.point) and (q.index, q.point) glue to one class."""
    if not a.domain(germ_index(p.index, q.index)).contains_point(p.point):
        return False
    moved = a.apply(transport_index(p.index, q.index), p.point)
    return moved == q.point


class ProbeReport(Value):
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": list(self.violations),
        }


# --------------------------------------------------------------------------
# Hausdorffness


class HausdorffCertificate(Value):
    verdict: str  # "clopen" | "non-clopen-witness" | "unknown"
    bound: int | None = None
    t: int | None = None
    point: Point | None = None
    depth: int | None = None
    domains: tuple[tuple[int, ClopenSet], ...] = ()

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.verdict == "clopen":
            out["bound"] = self.bound
            out["domains"] = {str(t): str(s) for t, s in self.domains}
        else:
            if self.verdict == "non-clopen-witness":
                out["t"] = self.t
                out["point"] = str(self.point)
            out["depth"] = self.depth
        return out


def _residual_limit(
    a: ZPartialAction, t: int, depth: int
) -> tuple[Point | None, list[ClopenSet]]:
    """The unions U_0 .. U_depth, the domains X_t of stages 0 .. depth, and
    the limit point of their residuals when those form a strictly shrinking
    nested chain of single cylinders (else None)."""
    unions = [a.stage(k).domain(t) for k in range(depth + 1)]
    residuals = [u.complement().words for u in unions]
    if len(residuals) < 2 or any(len(ws) != 1 for ws in residuals):
        return None, unions
    words = [ws[0] for ws in residuals]
    for prev, cur in zip(words, words[1:]):
        if not (cur.startswith(prev) and len(cur) > len(prev)):
            return None, unions
    # repeat the last observed increment forever
    return Point(words[-1], words[-1][len(words[-2]):]), unions


def _witness_soundness(x: Point, unions) -> bool:
    last = unions[-1]
    if any(u.contains_point(x) for u in unions):
        return False
    for j in range(len(unions)):
        probe = ClopenSet.cylinder(x.unroll(j))
        if (probe & last).is_empty():
            return False
    return True


def hausdorff_decide(
    a: ZPartialAction, bound: int = 4, depth: int = 10
) -> HausdorffCertificate:
    """Certify every X_t clopen, or exhibit a boundary point of the union.

    Actions of a plain prefix map, and of a finite enumeration, are settled
    exactly: each X_t for |t| up to the bound is computed as a canonical
    clopen set and shipped in the certificate.  For an infinite enumeration
    the verdict is never "clopen": X_{-1} is a union of infinitely many
    disjoint nonempty source cylinders, which no compact set can be, and
    rule depth+1 has its source outside U_depth, the X_{-1} of stage depth.
    The residuals X minus U_k are inspected for k up to the depth; a chain
    of strictly shrinking single cylinders pins down a limit point, which
    is then verified to avoid every U_k while its cylinders all meet
    U_depth.  Anything else is an honest "unknown".  Hausdorffness belongs
    to the enumeration, so a schedule is dropped: stage k keeps the first
    k+1 rules.
    """
    if a.counts is not None:
        a = ZPartialAction(a.generator)
    if a.clopen or a.generator.is_finite:
        full = a if a.clopen else a.stage(len(a.generator.rules) - 1)
        doms = tuple((t, full.domain(t)) for t in range(-bound, bound + 1))
        return HausdorffCertificate("clopen", bound=bound, domains=doms)

    x, unions = _residual_limit(a, -1, depth)
    if x is not None and _witness_soundness(x, unions):
        return HausdorffCertificate(
            "non-clopen-witness", t=-1, point=x, depth=depth
        )
    return HausdorffCertificate("unknown", depth=depth)


class NonSeparablePair(Value):
    first: GermPair
    second: GermPair
    approach: tuple[tuple[Point, Point], ...]

    def to_json(self) -> dict:
        return {
            "first": {"index": self.first.index, "point": str(self.first.point)},
            "second": {"index": self.second.index, "point": str(self.second.point)},
            "approach": [[str(x), str(y)] for x, y in self.approach],
        }


def nonseparable_pair(
    a: ZPartialAction, t: int, depth: int = 8
) -> NonSeparablePair:
    """Two distinct germ classes with no disjoint neighborhoods.

    Valid when X_t fails to be clopen for t = -1 or t = +1.  Both sides come
    from the stages of the one action: the limit x of the residuals of X_t
    gives the class [-t, x], the limit y of the residuals of X_{-t} gives
    [0, y], and the approach points x_j in U_depth = X_t of stage depth
    agree with x to depth j while their images under h_{-t} agree with y to
    depth j.  Every claimed property is re-verified before the pair is
    returned.  As in hausdorff_decide, a schedule is dropped.
    """
    if a.counts is not None:
        a = ZPartialAction(a.generator)
    if a.clopen or a.generator.is_finite:
        raise NoWitness("the action is clopen; all classes are separated")
    if t not in (-1, 1):
        raise NoWitness(f"witness search only covers the generator index, not t={t}")

    x, unions = _residual_limit(a, t, depth)
    if x is None or not _witness_soundness(x, unions):
        raise NoWitness(f"no single-cylinder residual chain for t={t}")
    y, _ = _residual_limit(a, -t, depth)
    if y is None:
        raise NoWitness("transported limit is not a single-cylinder chain")

    last = unions[-1]
    approach = []
    for j in range(1, depth + 1):
        meet = last & ClopenSet.cylinder(x.unroll(j))
        if meet.is_empty():
            raise NoWitness(f"cylinder of depth {j} around {x} misses the union")
        xj = Point(meet.words[0], "0")
        approach.append((xj, a.stage(depth).apply(-t, xj)))

    first, second = GermPair(-t, x), GermPair(0, y)
    for j, (xj, yj) in enumerate(approach, start=1):
        if not related(a.stage(depth), GermPair(-t, xj), GermPair(0, yj)):
            raise NoWitness(f"approach pair {xj}, {yj} is not related")
        if common_prefix_length(xj, x, depth) < min(j, depth):
            raise NoWitness(f"approach point {xj} strays from {x}")
        if common_prefix_length(yj, y, depth) < min(j, depth):
            raise NoWitness(f"image point {yj} strays from {y}")
    for k in range(depth + 1):
        if related(a.stage(k), first, second):
            raise NoWitness(f"{first} and {second} merge at level {k}")
    return NonSeparablePair(first, second, tuple(approach))


# --------------------------------------------------------------------------
# Etale structure and groupoid laws


class EtaleReport(Value):
    t: int
    s: int
    base: ClopenSet
    image: ClopenSet
    diagonal: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "t": self.t,
            "s": self.s,
            "base": str(self.base),
            "image": str(self.image),
            "diagonal": self.diagonal,
            "violations": list(self.violations),
        }


def etale_probe(a: ZPartialAction, t: int, s: int, base: ClopenSet) -> EtaleReport:
    """Range/source bijectivity over one basic open, decided on cell words.

    The basic open over (t, s) with the given base consists of the pairs
    ((t, x), (s, y)) with x in the base and y = h_k(x), k = t - s; the range
    map keeps (t, x) and the source map keeps (s, y).  The base is cut once
    into cells at the rule boundaries of h_k below it, and each cell is
    mapped with `h_k.image_word`; only the image, which the report prints,
    becomes a canonical set.  Each check reads the action's own data:
    every cell must have an image (h_k); the sorted images must be
    prefix-free, so no two cells overlap after the move (injectivity, from
    the images alone); they must lie inside X_k (`a.domain(k)`, the range);
    `a.h(-k)` must take each image back to its own cell (pull-back, through
    the action's inverse power); and a diagonal block (t = s) must fix its
    base.
    """
    k = transport_index(t, s)
    if not base.subset_of(a.domain(germ_index(t, s))):
        raise BaseNotInDomain(
            f"base {base} is not inside X_{germ_index(t, s)}"
        )
    h = a.h(k)
    inner = proper_prefixes(u for u, _ in h.rules)
    pairs = [(c, h.image_word(c)) for w in base.words for c in leaves_below(w, inner)]
    bad = [f"h_{k} does not map the cell {show_word(c)}" for c, m in pairs if m is None]
    pairs = [(c, m) for c, m in pairs if m is not None]
    moved = sorted(m for _, m in pairs)
    image = ClopenSet(tuple(moved))

    if any(v.startswith(u) for u, v in zip(moved, moved[1:])):
        bad.append("transport is not injective on cells")
    if not a.domain(k).covers(image.words):
        bad.append(f"cell images leave X_{k}")
    back = a.h(-k)
    if any(back.image_word(m) != c for c, m in pairs):
        bad.append("source fibers do not pull back to the base")
    if t == s:
        if image != base:
            bad.append("diagonal block moved its base")
    return EtaleReport(t, s, base, image, t == s, tuple(bad))


def groupoid_probe(a: ZPartialAction, samples) -> ProbeReport:
    """Groupoid laws on composable triples ((p, q), (q, r), (r, w)).

    An arrow is a pair of related germs.  It composes with the next arrow to
    the pair of outer germs, its inverse is the swapped pair and the units
    are the pairs (p, p), so both bracketings of a triple are (p, w):
    associativity holds by construction, and only the relation can fail.
    Per triple the probe checks that each arrow, each inverse (q, p), the
    composites (p, r), (q, w) and (p, w) and each unit (p, p) are related
    pairs, and that no arrow is related to its target with the first symbol
    flipped (definedness).  A triple whose arrows do not share germs is
    reported as not composable.
    """
    checked = 0
    bad: list[str] = []
    for z1, z2, z3 in samples:
        checked += 1
        (p, q), (q2, r), (r2, w) = z1, z2, z3
        if q != q2 or r != r2:
            bad.append(f"sample chain {z1}, {z2}, {z3} is not composable")
            continue
        laws = {
            "arrow": (z1, z2, z3),
            "inverse": ((q, p), (r, q), (w, r)),
            "composite": ((p, r), (q, w), (p, w)),
            "unit": ((p, p), (q, q), (r, r), (w, w)),
        }
        for kind, pairs in laws.items():
            for x, y in pairs:
                if not related(a, x, y):
                    bad.append(f"{kind} ({x}, {y}) is not an arrow")
        for x, y in (z1, z2, z3):
            flip = "1" if y.point.unroll(1) == "0" else "0"
            corrupt = GermPair(y.index, y.point.shift(1).with_prefix(flip))
            if related(a, x, corrupt):
                bad.append(f"{x} is related to both {y} and {corrupt}")
    return ProbeReport(checked, tuple(bad))
