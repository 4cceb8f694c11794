"""Partial homeomorphisms of the Cantor space as prefix rewrite systems.

A rule u -> v sends u.w to v.w for every infinite tail w.  A finite rule set
with prefix-free sources and prefix-free targets is an injective open map whose
domain and image are clopen, and the class is closed under composition,
inversion and integer powers.  Generated maps enumerate a countable family of
pairwise disjoint rules (the add-one-with-carry odometer is built in) and
expose clopen truncations consisting of the first rules of the enumeration.
"""

from __future__ import annotations

from operator import itemgetter

from .cantor import (
    ClopenSet, Point, check_word, cylinder_runs, prefix_join, read_word, show_word
)
from .errors import NotInDomain, ParseError
from .value import Value, set_field, trusted


class PrefixMap(Value):
    """A finite prefix rewrite system, rules kept sorted by source.

    Construction does not reject overlapping rules; `violations` reports them,
    and every other operation assumes a valid map.
    """

    rules: tuple[tuple[str, str], ...] = ()

    def __init__(self, rules: tuple[tuple[str, str], ...] = ()):
        cleaned = [(check_word(u), check_word(v)) for u, v in rules]
        set_field(self, "rules", tuple(sorted(cleaned)))

    # trusted: checked word pairs, sorted as the public constructor sorts them;
    # only `compose` and `inverse` call it, on rules they build so
    _canonical = trusted("rules")

    def violations(self) -> tuple[str, ...]:
        msgs = []
        rs = self.rules
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                u1, v1 = rs[i]
                u2, v2 = rs[j]
                if u1 == u2:
                    msgs.append(f"sources not prefix-free: duplicate {u1!r}")
                elif u1.startswith(u2) or u2.startswith(u1):
                    msgs.append(f"sources not prefix-free: {u1!r} vs {u2!r}")
                if v1 == v2:
                    msgs.append(f"targets not prefix-free: duplicate {v1!r}")
                elif v1.startswith(v2) or v2.startswith(v1):
                    msgs.append(f"targets not prefix-free: {v1!r} vs {v2!r}")
        return tuple(msgs)

    def domain(self) -> ClopenSet:
        return ClopenSet(tuple(u for u, _ in self.rules))

    def image(self) -> ClopenSet:
        return ClopenSet(tuple(v for _, v in self.rules))

    def apply_point(self, x: Point) -> Point:
        for u, v in self.rules:
            if x.starts_with(u):
                return x.replace_prefix(len(u), v)
        raise NotInDomain(f"{x} is outside {self}")

    def image_word(self, w: str) -> str | None:
        """The image of [w] when [w] lies inside one source cylinder, else None.

        The first source in sorted order that prefixes w decides, as for
        `apply_point` on every point of [w].
        """
        for u, v in self.rules:
            if w.startswith(u):
                return v + w[len(u):]
        return None

    def image_words(self, words) -> list[str | None]:
        """`image_word` of each of the sorted `words`, one run per rule.

        The words a source u prefixes are the run of [u]; each rule moves its
        run with one comprehension.  When sources overlap, a source that
        extends an earlier one gets an empty run, so here too the first
        source in sorted order decides.
        """
        out: list[str | None] = [None] * len(words)
        for (u, v), i, j in cylinder_runs(words, self.rules, itemgetter(0)):
            n = len(u)
            out[i:j] = [v + w[n:] for w in words[i:j]]
        return out

    def image_set(self, s: ClopenSet) -> ClopenSet:
        pairs = prefix_join(self.rules, s.words, itemgetter(0))
        return ClopenSet(tuple(v + w[len(u):] for (u, v), w in pairs))

    def inverse(self) -> "PrefixMap":
        return PrefixMap._canonical(sorted((v, u) for u, v in self.rules))

    def __str__(self) -> str:
        return "[" + ", ".join(
            f"{show_word(u)}->{show_word(v)}" for u, v in self.rules
        ) + "]"

    @staticmethod
    def parse(text: str) -> "PrefixMap":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ParseError(f"map syntax is '[u->v, ...]': {text!r}")
        body = text[1:-1].strip()
        if not body:
            return PrefixMap(())
        rules = []
        for part in body.split(","):
            if "->" not in part:
                raise ParseError(f"rule syntax is 'u->v': {part!r}")
            u, v = part.split("->", 1)
            u, v = u.strip(), v.strip()
            if not u or not v:
                raise ParseError(
                    f"blank side in rule {part.strip()!r}; the empty word is ε"
                )
            rules.append((read_word(u), read_word(v)))
        return PrefixMap(tuple(rules))


IDENTITY = PrefixMap((("", ""),))


def compose(g: PrefixMap, f: PrefixMap) -> PrefixMap:
    """g after f, as the coarsest common prefix refinement of the rule sets.

    For valid maps the rules come out sorted by source: `prefix_join` walks
    the sorted, prefix-free sources u of f in order, and the rules it makes
    from u are u itself or its extensions u + p[len(v):] for g's sources p,
    which it meets in sorted order.  So they go to the trusted constructor.
    """
    pairs = prefix_join(f.rules, g.rules, itemgetter(1), itemgetter(0))
    return PrefixMap._canonical(
        (u + p[len(v):], q + v[len(p):]) for (u, v), (p, q) in pairs
    )


class GeneratedMap(Value):
    """A countable enumeration of pairwise disjoint prefix rules.

    kind "odometer" is the built-in infinite family 1^k 0 -> 0^k 1 (add one,
    carry to the right) and stores no rules; kind "rules" is the finite
    enumeration (`is_finite`) of its `rules`, whose domain is taken to be
    exhausted by their source cylinders.  `rule` and `apply_point` index
    rules in enumeration order, not sorted order.  Only the forward map is
    enumerated: h_{-t} of a stage is its truncation's `PrefixMap.inverse`.
    """

    kind: str
    rules: tuple[tuple[str, str], ...] = ()

    def __init__(self, kind: str, rules: tuple[tuple[str, str], ...] = ()):
        if kind not in ("odometer", "rules"):
            raise ParseError(f"unknown generated-map kind {kind!r}")
        if kind == "rules":
            rules = tuple((check_word(u), check_word(v)) for u, v in rules)
        set_field(self, "kind", kind)
        set_field(self, "rules", rules)

    def violations(self) -> tuple[str, ...]:
        if self.kind == "odometer":
            return ()
        if not self.rules:
            return ("enumeration has no rules",)
        return PrefixMap(self.rules).violations()

    @property
    def is_finite(self) -> bool:
        return self.kind == "rules"

    def rule(self, i: int) -> tuple[str, str]:
        if i < 0 or self.is_finite and i >= len(self.rules):
            raise IndexError(f"enumeration has no rule {i}")
        return self.rules[i] if self.is_finite else ("1" * i + "0", "0" * i + "1")

    def truncation(self, k: int) -> PrefixMap:
        """The clopen map made of rules 0..k (capped for finite enumerations)."""
        top = k if self.kind == "odometer" else min(k, len(self.rules) - 1)
        return PrefixMap(tuple(self.rule(i) for i in range(top + 1)))

    def apply_point(self, x: Point) -> tuple[Point, int]:
        """Apply the unique matching rule; returns (image, rule index)."""
        if self.is_finite:
            i = next((i for i, (u, _) in enumerate(self.rules) if x.starts_with(u)), -1)
        else:
            i = (x.preperiod + x.period).find("0")
        if i < 0:
            raise NotInDomain(f"{x} matches no rule of the enumeration")
        u, v = self.rule(i)
        return x.replace_prefix(len(u), v), i


ODOMETER = GeneratedMap("odometer")
