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

from dataclasses import dataclass

from .cantor import ClopenSet, Point, leaves_below, proper_prefixes
from .errors import LevelRequired, ParseError, SupportViolation
from .functions import PiecewiseConstant, compose_with_map
from .prefix_map import IDENTITY, GeneratedMap, PrefixMap, compose


# At most this many support verdicts are kept per action; a full memo is
# cleared.  One benchmark-sized suite job (three trials of each suite at
# max_index 2, depth 4) keeps under 40, so the cap costs it no hit.
VERDICT_CAP = 512


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
    Powers h_t and domains X_t are cached per t, support verdicts per
    (t, words), at most `VERDICT_CAP` of them, and stages per rule count.
    Every cache lives on the action and dies with it; entries are immutable,
    so a lost cache race only recomputes the same value, and a call that
    raises caches nothing.
    """

    def __init__(self, generator: PrefixMap | GeneratedMap, counts=None):
        bad = generator.violations()
        if bad:
            raise ParseError("invalid generator: " + "; ".join(bad))
        self.generator = generator
        self.counts = None if counts is None else exhaustion_counts(generator, counts)
        self._powers: dict[int, PrefixMap] = {}
        self._domains: dict[int, ClopenSet] = {}
        self._verdicts: dict[tuple[int, tuple[str, ...]], bool] = {}
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
            return min(k + 1, self.generator.rule_count)
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
        elif t > 0:
            out = compose(self.generator, self.h(t - 1))
        else:
            out = self.h(-t).inverse()
        self._powers[t] = out
        return out

    def domain(self, t: int) -> ClopenSet:
        """X_t: the set where t backward steps (equivalently -t forward) live."""
        out = self._domains.get(t)
        if out is None:
            out = self._domains[t] = self.h(t).image()
        return out

    def supports(self, t: int, words: tuple[str, ...]) -> bool:
        """Whether every cylinder [w], w in `words`, lies inside X_t.

        `words` are the piece words of a function, or of a clopen set: no
        support set is built.  Decided once per (t, words) while the memo
        holds it; a memo of `VERDICT_CAP` verdicts is cleared first.
        """
        key = (t, words)
        verdicts = self._verdicts
        verdict = verdicts.get(key)
        if verdict is None:
            if len(verdicts) >= VERDICT_CAP:
                verdicts.clear()
            verdict = verdicts[key] = self.domain(t).covers(words)
        return verdict

    def apply(self, t: int, x: Point) -> Point:
        return self.h(t).apply_point(x)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: int
    t: int
    s: int | None
    detail: str

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "t": self.t, "s": self.s, "detail": self.detail}


@dataclass(frozen=True)
class AxiomsReport:
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
    return "undefined" if w is None else (w or "ε")


def generated_family(a: ZPartialAction, bound: int):
    """The explicit family {(X_t, h_t)} for |t| <= bound."""
    return {t: (a.domain(t), a.h(t)) for t in range(-bound, bound + 1)}


def axioms_check(family: dict, bound: int | None = None) -> AxiomsReport:
    """Check the partial-action axioms on an explicit family {t: (X_t, h_t)}.

    (1) X_0 is everything and h_0 is the identity, and each h_t maps X_{-t}
    onto X_t; (2) h_t(X_{-t} & X_s) = X_t & X_{t+s} as canonical clopen sets;
    (3) h_t h_s = h_{t+s} on X_{-s} & X_{-s-t}, decided on words: each of its
    cylinders is cut at the leaves of the prefix tree that the sources of
    h_t h_s and h_{t+s} span, and on each piece [w] the image word of
    h_t(h_s([w])) must equal that of h_{t+s}([w]).  All violations are
    collected, not just the first; axiom (3) gets one per bad piece.
    """
    if bound is None:
        bound = max(abs(t) for t in family)
    viol = []

    delta0, h0 = family[0]
    if not delta0.is_full():
        viol.append(AxiomViolation(1, 0, None, f"X_0 = {delta0}, expected full"))
    if not h0.domain().is_full() or any(u != v for u, v in h0.rules):
        viol.append(AxiomViolation(1, 0, None, f"h_0 = {h0} is not the identity"))

    for t, (delta, h) in family.items():
        if -t not in family:
            continue
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

    span = range(-bound, bound + 1)
    for t in span:
        for s in span:
            if abs(t + s) > bound:
                continue
            left = family[t][1].image_set(family[-t][0] & family[s][0])
            right = family[t][0] & family[t + s][0]
            if left != right:
                viol.append(
                    AxiomViolation(
                        2, t, s, f"image {left} differs from {right}"
                    )
                )

    for t in span:
        for s in span:
            if abs(t + s) > bound:
                continue
            inter = family[-s][0] & family[-s - t][0]
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
                        viol.append(
                            AxiomViolation(
                                3, t, s,
                                f"h_{t}h_{s}[{_show(cell)}] = {_show(via)}"
                                f" but h_{t + s}[{_show(cell)}] = {_show(direct)}",
                            )
                        )
    return AxiomsReport(bound, tuple(viol))


def pullback(f: PiecewiseConstant, a: ZPartialAction, t: int) -> PiecewiseConstant:
    """Transport f supported in X_{-t} to the function f o h_t^{-1} on X_t."""
    if not a.supports(-t, f.words):
        raise SupportViolation(
            f"support {f.support()} escapes X_{-t} = {a.domain(-t)}"
        )
    return compose_with_map(f, a.h(-t))

