"""The gluing relation on indexed points and its Hausdorffness.

A germ (r, x) is an index together with a point; two germs are related when
the point of one lies in the right domain and the right power of the
generator carries it to the other point.  The quotient of all germs by this
relation is Hausdorff exactly when every domain X_t is clopen, so the
decision procedure either materializes the domains as canonical clopen sets
or hunts for a limit point sitting on the boundary of the union U_k of an
exhaustion.  Both sides of a witness are read from the stages of one
action: U_k is the X_t of stage k, and the other side is its X_{-t}.  Each
side's limit comes from `_residual_limit`, which returns only a limit that
it has verified against the unions.
The arrows of the groupoid are the related pairs of germs (p, q), composing
as (p, q)(q, r) = (p, r); its unit, inverse and composite laws are the
reflexivity, symmetry and transitivity of the relation.  On a cell window
at the adapted depth the relation is a finite equivalence relation on the
cells, which the test suite compares with a brute-force partition on
every ordered cell pair.  The probe for the range/source bijections
moves sorted cylinder words one run per rule with `PrefixMap.image_words`,
cutting its base only at rule boundaries, and builds one canonical set,
the image it reports.  Its checks read the action's power h_k for the
moved cells, its inverse power h_{-k} for the pull-back and its domain X_k
for the range, so a broken power or domain shows as a named violation.
"""

from __future__ import annotations

from .action import ZPartialAction, germ_index, transport_index
from .cantor import (
    ClopenSet, Point, common_prefix_length, leaves_below, merge_word_siblings,
    proper_prefixes, show_word,
)
from .errors import BaseNotInDomain, NoWitness, ParseError, require_int
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


def _residual_limit(a: ZPartialAction, t: int, depth: int) -> Point | None:
    """The limit of the residuals X minus U_k, U_k the X_t of stage k <= depth,
    when they form a strictly shrinking nested chain of single cylinders and
    the limit (the last increment repeated forever) is verified to avoid every
    U_k while its cylinders of length 0 .. depth all meet U_depth; else None."""
    unions = [a.stage(k).domain(t) for k in range(depth + 1)]
    residuals = [u.complement().words for u in unions]
    if len(residuals) < 2 or any(len(ws) != 1 for ws in residuals):
        return None
    words = [ws[0] for ws in residuals]
    for prev, cur in zip(words, words[1:]):
        if not (cur.startswith(prev) and len(cur) > len(prev)):
            return None
    x = Point(words[-1], words[-1][len(words[-2]):])
    if any(u.contains_point(x) for u in unions):
        return None
    last = unions[-1]
    if any((ClopenSet.cylinder(x.unroll(j)) & last).is_empty() for j in range(depth + 1)):
        return None
    return x


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
    k+1 rules.  A bound or depth that is not an int >= 0 is refused with
    ParseError.
    """
    require_int(bound, 0, "a Hausdorff bound")
    require_int(depth, 0, "a Hausdorff depth")
    if a.counts is not None:
        a = ZPartialAction(a.generator)
    if a.clopen or a.generator.is_finite:
        full = a if a.clopen else a.stage(len(a.generator.rules) - 1)
        doms = tuple((t, full.domain(t)) for t in range(-bound, bound + 1))
        return HausdorffCertificate("clopen", bound=bound, domains=doms)

    x = _residual_limit(a, -1, depth)
    if x is not None:
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
    returned.  As in hausdorff_decide, a schedule is dropped, and a depth
    that is not an int >= 0 is refused with ParseError, as is a t that is
    not an int (a bool included).
    """
    require_int(depth, 0, "a witness depth")
    if type(t) is not int:
        raise ParseError(f"a witness index t needs an int, not {t!r}")
    if a.counts is not None:
        a = ZPartialAction(a.generator)
    if a.clopen or a.generator.is_finite:
        raise NoWitness("the action is clopen; all classes are separated")
    if t not in (-1, 1):
        raise NoWitness(f"witness search only covers the generator index, not t={t}")

    x = _residual_limit(a, t, depth)
    if x is None:
        raise NoWitness(f"no single-cylinder residual chain for t={t}")
    y = _residual_limit(a, -t, depth)
    if y is None:
        raise NoWitness("transported limit is not a single-cylinder chain")

    last = a.stage(depth).domain(t)
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
# Etale structure


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
    map keeps (t, x) and the source map keeps (s, y).  A base word is cut
    into cells only where it is a proper prefix of a source of h_k, at the
    rule boundaries below it, and `h_k.image_words` moves the sorted cells
    one run per rule; only the image, which the report prints, becomes a
    canonical set.  Each check reads the action's own data: every cell must
    have an image (h_k); the sorted images must be prefix-free, so no two
    cells overlap after the move (injectivity, from the images alone); they
    must lie inside X_k (`a.domain(k)`, the range); `a.h(-k).image_words`
    must take the sorted images back to their own cells (pull-back, through
    the action's inverse power); and a diagonal block (t = s) must fix its
    base.  A slot t or s that is not an int is refused with ParseError.

    Injective images need only their siblings merged to be canonical, so
    they go through `merge_word_siblings` to the trusted constructor.  In a
    sorted prefix-free list u0 comes just before u1, since a word sorting
    between them would extend u0; so the stack pass, which merges a u1 with
    the u0 kept just before it, meets every sibling pair.  The parent u of
    a merged pair keeps the list sorted and prefix-free, as no other word
    lies inside [u], and it sits just after the word kept before u0, so it
    meets its own sibling in the same way.  No sibling pair is left.
    """
    if type(t) is not int or type(s) is not int:
        raise ParseError(f"etale slots t and s need ints, not {t!r} and {s!r}")
    k = transport_index(t, s)
    if not base.subset_of(a.domain(germ_index(t, s))):
        raise BaseNotInDomain(
            f"base {base} is not inside X_{germ_index(t, s)}"
        )
    h = a.h(k)
    inner = proper_prefixes(u for u, _ in h.rules)
    cells = base.words
    if not inner.isdisjoint(cells):
        cells = [c for w in cells for c in leaves_below(w, inner)]
    images = h.image_words(cells)
    bad = [f"h_{k} does not map the cell {show_word(c)}"
           for c, m in zip(cells, images) if m is None]
    pairs = zip(images, cells)
    if bad:
        pairs = [(m, c) for m, c in pairs if m is not None]
    pairs = sorted(pairs)
    moved = [m for m, _ in pairs]
    if any(map(str.startswith, moved[1:], moved)):
        image = ClopenSet(tuple(moved))
        bad.append("transport is not injective on cells")
    else:
        image = ClopenSet._canonical(merge_word_siblings(moved))
    if not image.subset_of(a.domain(k)):
        bad.append(f"cell images leave X_{k}")
    if a.h(-k).image_words(moved) != [c for _, c in pairs]:
        bad.append("source fibers do not pull back to the base")
    if t == s:
        if image != base:
            bad.append("diagonal block moved its base")
    return EtaleReport(t, s, base, image, t == s, tuple(bad))

