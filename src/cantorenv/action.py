"""Partial Z-actions generated by iterating a prefix map.

The generator h gives h_t = h^t with domain X_{-t} and image X_t, so X_{-n} is
where n forward steps are defined and X_n is where n backward steps are
defined.  A generated enumeration is handled through its clopen stages:
stage k uses the map made of the first rules of the enumeration.

Index conventions are owned by the three helpers below and used everywhere:

* germ_index(r, s) = s - r: the germ (r, x) is glued to (s, y) exactly when
  x lies in X_{germ_index(r, s)} and applying h_{transport_index(r, s)} to x
  gives y.
* transport_index(r, s) = r - s: the power of h carrying the point of slot r
  to the point of slot s.
* kernel_tag(r, s) = r - s: the fiber index of a kernel entry at (r, s); the
  entry function must be supported in X_{kernel_tag(r, s)}.
"""

from __future__ import annotations

from .cantor import ClopenSet, Point, leaves_below, proper_prefixes, show_word
from .errors import LevelRequired, ParseError, require_int
from .prefix_map import IDENTITY, GeneratedMap, PrefixMap, compose
from .value import Value


def germ_index(r: int, s: int) -> int:
    return s - r


def transport_index(r: int, s: int) -> int:
    return r - s


def kernel_tag(r: int, s: int) -> int:
    return r - s


def exhaustion_counts(generator: PrefixMap | GeneratedMap, counts) -> tuple[int, ...]:
    """A schedule's rule counts: nondecreasing ints >= 1, for an open enumeration."""
    if not isinstance(generator, GeneratedMap):
        raise ParseError("an exhaustion schedule needs an open enumeration")
    if (
        not isinstance(counts, (list, tuple))
        or not counts
        or any(type(c) is not int or c < 1 for c in counts)
        or list(counts) != sorted(counts)
    ):
        raise ParseError("exhaustion must be a nondecreasing list of rule counts >= 1")
    return tuple(counts)


class ZPartialAction:
    """The family {X_t, h_t} generated by a prefix map or an enumeration.

    An action of a prefix map is clopen and acts directly.  An action of an
    enumeration acts only through its clopen stages: stage k keeps the first
    count(k) rules, one more per stage unless `counts` gives the schedule.
    Powers h_t and domains X_t are cached per t, and stages per rule count;
    support verdicts are kept by the tables checked, not here.  Every cache
    lives on the action and dies with it; entries are immutable, so a lost
    cache race only recomputes the same value, and a call that raises caches
    nothing.
    """

    def __init__(self, generator: PrefixMap | GeneratedMap, counts=None):
        bad = generator.violations()
        if bad:
            raise ParseError("invalid generator: " + "; ".join(bad))
        self.generator = generator
        self.counts = None if counts is None else exhaustion_counts(generator, counts)
        self._powers: dict[int, PrefixMap] = {}
        self._domains: dict[int, ClopenSet] = {}
        self._stages: dict[int, ZPartialAction] = {}

    @property
    def clopen(self) -> bool:
        return isinstance(self.generator, PrefixMap)

    def count(self, k: int) -> int:
        """How many rules stage k keeps; a clopen action keeps all of them."""
        if k < 0:
            raise LevelRequired(f"stage must be >= 0, not {k}")
        if self.clopen:
            return len(self.generator.rules)
        if self.counts is not None:
            if k >= len(self.counts):
                raise LevelRequired(f"exhaustion schedule has no stage {k}")
            return self.counts[k]
        if self.generator.is_finite:
            return min(k + 1, len(self.generator.rules))
        return k + 1

    def stage(self, k: int) -> "ZPartialAction":
        """The clopen action of stage k; a clopen action is its own stage."""
        c = self.count(k)
        if self.clopen:
            return self
        out = self._stages.get(c)
        if out is None:
            out = self._stages[c] = ZPartialAction(
                self.generator.truncation(c - 1)
            )
        return out

    def h(self, t: int) -> PrefixMap:
        cached = self._powers.get(t)
        if cached is not None:
            return cached
        if t == 0:
            out = IDENTITY
        elif not self.clopen:
            raise LevelRequired("generated action needs a truncation level")
        elif t < 0:
            out = self.h(-t).inverse()
        else:
            # h_t = generator o h_{t-1}, built in a loop (not one recursive
            # call per power) from the largest power cached below t; the new
            # powers are cached only once all of them are built
            powers, k = self._powers, t - 1
            while k and k not in powers:
                k -= 1
            out = powers[k] if k else IDENTITY
            built = {}
            for j in range(k + 1, t + 1):
                out = built[j] = compose(self.generator, out)
            powers.update(built)
            return out
        self._powers[t] = out
        return out

    def domain(self, t: int) -> ClopenSet:
        """X_t: the set where t backward steps (equivalently -t forward) live."""
        out = self._domains.get(t)
        if out is None:
            out = self._domains[t] = self.h(t).image()
        return out

    def apply(self, t: int, x: Point) -> Point:
        return self.h(t).apply_point(x)


class AxiomViolation(Value):
    axiom: int
    t: int
    s: int | None
    detail: str

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "t": self.t, "s": self.s, "detail": self.detail}


class AxiomsReport(Value):
    bound: int
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "bound": self.bound,
            "violations": [v.to_json() for v in self.violations],
        }


def _show(w: str | None) -> str:
    return "undefined" if w is None else show_word(w)


def generated_family(a: ZPartialAction, bound: int):
    """The explicit family {(X_t, h_t)} for |t| <= bound, an int >= 0."""
    require_int(bound, 0, "a family bound")
    return {t: (a.domain(t), a.h(t)) for t in range(-bound, bound + 1)}


def axioms_check(family: dict) -> AxiomsReport:
    """Check the partial-action axioms on an explicit family {t: (X_t, h_t)}.

    The bound is max |t| over the family.  (1) X_0 is everything, h_0 is the
    identity, and h_t maps X_{-t} onto X_t; (2) h_t(X_{-t} & X_s) = X_t &
    X_{t+s} as canonical sets; (3) h_t h_s = h_{t+s} on X_{-s} & X_{-s-t},
    on words: its cylinders are cut where the sources of h_t h_s and h_{t+s}
    cut them, and each piece [w] needs h_t(h_s([w])) = h_{t+s}([w]) as image
    words.  One (t, s) pass decides (2) and (3); every violation is kept, (3)
    once per bad piece, in the order (1), (2), (3), each in (t, s) order.

    Each meet X_i & X_j is built once per call, kept under the unordered key
    (min(i, j), max(i, j)) since `&` is commutative on canonical sets: at
    most (2b+1)(2b+2)/2 intersections at bound b, where the (t, s) pass asks
    for three per pair.
    """
    bound = max(abs(t) for t in family)
    viol = []

    delta0, h0 = family[0]
    if not delta0.is_full():
        viol.append(AxiomViolation(1, 0, None, f"X_0 = {delta0}, expected full"))
    if not h0.domain().is_full() or any(u != v for u, v in h0.rules):
        viol.append(AxiomViolation(1, 0, None, f"h_0 = {h0} is not the identity"))

    for t, (delta, h) in family.items():
        if h.domain() != family[-t][0]:
            viol.append(
                AxiomViolation(
                    1, t, None,
                    f"dom(h_{t}) = {h.domain()} differs from X_{-t} = {family[-t][0]}",
                )
            )
        if h.image() != delta:
            viol.append(
                AxiomViolation(
                    1, t, None,
                    f"ran(h_{t}) = {h.image()} differs from X_{t} = {delta}",
                )
            )

    meets: dict[tuple[int, int], ClopenSet] = {}

    def meet(i: int, j: int) -> ClopenSet:
        key = (i, j) if i <= j else (j, i)
        out = meets.get(key)
        if out is None:
            out = meets[key] = family[i][0] & family[j][0]
        return out

    third = []  # axiom (3), reported after every axiom (2) violation
    span = range(-bound, bound + 1)
    for t in span:
        for s in span:
            if abs(t + s) > bound:
                continue
            left = family[t][1].image_set(meet(-t, s))
            right = meet(t, t + s)
            if left != right:
                viol.append(
                    AxiomViolation(
                        2, t, s, f"image {left} differs from {right}"
                    )
                )
            inter = meet(-s, -s - t)
            if inter.is_empty():
                continue
            h_t, h_s, h_ts = family[t][1], family[s][1], family[t + s][1]
            comp = compose(h_t, h_s)
            inner = proper_prefixes(u for u, _ in comp.rules + h_ts.rules)
            for w in inter.words:
                for cell in leaves_below(w, inner):
                    mid = h_s.image_word(cell)
                    via = None if mid is None else h_t.image_word(mid)
                    direct = h_ts.image_word(cell)
                    if via is None or via != direct:
                        third.append(
                            AxiomViolation(
                                3, t, s,
                                f"h_{t}h_{s}[{_show(cell)}] = {_show(via)}"
                                f" but h_{t + s}[{_show(cell)}] = {_show(direct)}",
                            )
                        )
    return AxiomsReport(bound, tuple(viol + third))

