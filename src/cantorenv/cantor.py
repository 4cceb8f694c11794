"""Exact arithmetic on the binary Cantor space {0,1}^infinity.

Clopen subsets are finite unions of cylinders [w] = {x : x starts with w}.  The
canonical form is a lexicographically sorted prefix-free antichain in which every
sibling pair {w0, w1} has been merged to w, so set equality is tuple equality and
[w] is a subset of a canonical union exactly when some listed word is a prefix
of w.  `normalize_words` builds that form for plain words in one pass: two
symbol counts of the words' concatenation check them all, and one stack pass
over the sorted words absorbs extensions and repeats and merges siblings.
`ClopenSet.covers` decides each cylinder with one bisect into the set, and
`ClopenSet.intersect` keeps the deeper word of each comparable pair, which is
canonical as it comes out (its docstring has the proof), so a meet is never
normalized again and `a & b == b & a`.
`merge_siblings` merges the siblings of labelled pieces (equal labels only),
`prefix_join` alone pairs two antichains, `leaves_below` alone walks the
prefix tree, and `show_word` and `read_word` alone print and parse the empty
word as ε, here and in `prefix_map`, `functions`, `action` and `envelope`.
Points are eventually periodic sequences pre.per^infinity, stored with a
primitive period and a minimal preperiod, so point equality is field equality.
"""

from __future__ import annotations

from bisect import bisect_right
from .errors import DepthTooSmall, ParseError
from .value import Value, set_field

ALPHABET = "01"


def check_word(word: str) -> str:
    # strip leaves nothing exactly when every character is 0 or 1
    if not isinstance(word, str) or word.strip(ALPHABET):
        raise ParseError(f"not a binary word: {word!r}")
    return word


def show_word(word: str) -> str:
    return word or "ε"


def read_word(text: str) -> str:
    return "" if text == "ε" else text


def extensions(word: str, depth: int) -> list[str]:
    """All depth-`depth` words extending `word`, in left-to-right order.

    Doubling the list once per symbol makes about 2^(gap+1) concatenations.
    Instead `word` is doubled for gap - gap//2 steps into heads, and every
    head is joined with the 2^(gap//2) tails of the other half, which makes
    about 2^gap: heads and tails are sorted and of one length each, so the
    head-major join is sorted too.
    """
    gap = depth - len(word)
    if gap < 0:
        raise DepthTooSmall(f"depth {depth} is below |{word!r}|")
    heads, tails = [word], [""]
    for _ in range(gap - gap // 2):
        heads = [w + c for w in heads for c in ALPHABET]
    for _ in range(gap // 2):
        tails = [w + c for w in tails for c in ALPHABET]
    return [h + t for h in heads for t in tails]


def proper_prefixes(words) -> set[str]:
    """The inner nodes of the prefix tree that the words span."""
    return {w[:i] for w in words for i in range(len(w))}


def leaves_below(word: str, inner) -> list[str]:
    """Leaves below [word] of the prefix tree whose inner nodes are `inner`.

    With `inner = proper_prefixes(words)`, this cuts [word] only where one of
    the words lies deeper, into at most one more cylinder per inner node below
    it, in sorted order.
    """
    out: list[str] = []
    stack = [word]
    while stack:
        w = stack.pop()
        if w in inner:
            stack += (w + "1", w + "0")
        else:
            out.append(w)
    return out


def primitive_root(word: str) -> str:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


class Point(Value):
    """Eventually periodic point pre.per^infinity, canonicalized on construction.

    Canonical form: the period is primitive, and the preperiod does not end with
    the symbol the period ends with (otherwise the boundary can be rotated).
    """

    preperiod: str = ""
    period: str = "0"

    def __init__(self, preperiod: str = "", period: str = "0"):
        check_word(preperiod)
        check_word(period)
        if not period:
            raise ParseError("period must be nonempty")
        per = primitive_root(period)
        pre = preperiod
        while pre and pre[-1] == per[-1]:
            per = per[-1] + per[:-1]
            pre = pre[:-1]
        set_field(self, "preperiod", pre)
        set_field(self, "period", per)

    def unroll(self, n: int) -> str:
        """The first n symbols of the sequence."""
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        reps = (n - len(self.preperiod)) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]

    def replace_prefix(self, n: int, word: str) -> "Point":
        """Drop the first n symbols and put `word` in front, as one new Point."""
        if n <= len(self.preperiod):
            return Point(word + self.preperiod[n:], self.period)
        k = (n - len(self.preperiod)) % len(self.period)
        return Point(word, self.period[k:] + self.period[:k])

    def shift(self, n: int) -> "Point":
        """Drop the first n symbols."""
        return self.replace_prefix(n, "")

    def with_prefix(self, word: str) -> "Point":
        return self.replace_prefix(0, word)

    def starts_with(self, word: str) -> bool:
        return self.unroll(len(word)) == word

    def description_length(self) -> int:
        return len(self.preperiod) + len(self.period)

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"

    @staticmethod
    def parse(text: str) -> "Point":
        text = text.strip()
        if not text.endswith(")") or "(" not in text:
            raise ParseError(f"point syntax is 'pre(per)': {text!r}")
        pre, per = text[:-1].split("(", 1)
        return Point(pre, per)


MIN = Point("", "0")
MAX = Point("", "1")


def common_prefix_length(a: Point, b: Point, limit: int) -> int:
    """Length of the common prefix of two points, capped at `limit`."""
    ua, ub = a.unroll(limit), b.unroll(limit)
    i = 0
    while i < limit and ua[i] == ub[i]:
        i += 1
    return i


def merge_siblings(pieces) -> list:
    """Merge the equal-label siblings among sorted, prefix-free (word, label) pairs.

    Siblings are adjacent in sorted order, and a merged parent is adjacent to
    its own sibling, so one stack pass merges them all.  As in
    `normalize_words`, only a word u1 can merge, with a u0 kept just before
    it, and the words are compared before the labels.
    """
    stack: list = []
    for piece in pieces:
        w, c = piece
        while w[-1:] == "1" and stack and stack[-1] == (w[:-1] + "0", c):
            w = w[:-1]
            stack.pop()
            piece = (w, c)
        stack.append(piece)
    return stack


def prefix_join(a, b, key_a=str, key_b=str):
    """Pairs (x, y) from `a` and `b` where one of key_a(x), key_b(y) prefixes the other.

    `b` must be sorted by word and prefix-free: the last word of `b` not after
    u is then the only possible prefix of u, and the extensions of u are the
    run right after it, so the cost is O(|a| log |b| + pairs).
    """
    for x in a:
        u = key_a(x)
        i = bisect_right(b, u, key=key_b)
        if i and u.startswith(key_b(b[i - 1])):
            yield x, b[i - 1]
        while i < len(b) and key_b(b[i]).startswith(u):
            yield x, b[i]
            i += 1


def normalize_words(words) -> tuple[str, ...]:
    """Canonical antichain for a union of cylinders, in one pass.

    The words are checked at once: their concatenation holds as many 0s and
    1s as characters exactly when each is a binary word.  Only when it does
    not, or when an item is no string, are they checked one by one in input
    order, so the first bad item raises the `ParseError` that `check_word`
    gives it.  One stack pass over the sorted words (Timsort is linear on the
    sorted bases and images most callers pass) then absorbs a word that
    extends the last word kept, which its extensions directly follow in
    sorted order; a repeated word is absorbed the same way, since the last
    word kept after a word is that word or one of its ancestors.  A word u1
    merges with its sibling u0 when u0 was kept just before it, and this
    cascades, as the merged parent sits next to its own sibling; a word u0
    merges with nothing kept, since its sibling sorts after it.
    """
    words = tuple(words)
    try:
        text = "".join(words)
        ok = text.count("0") + text.count("1") == len(text)
    except TypeError:
        ok = False
    if not ok:
        for w in words:
            check_word(w)
    kept: list[str] = []
    for w in sorted(words):
        if kept and w.startswith(kept[-1]):
            continue
        if w[-1:] == "1":
            # a kept sibling pair is u0 then u1: same length, same parent
            while kept and len(kept[-1]) == len(w) and kept[-1][:-1] == w[:-1]:
                w = kept.pop()[:-1]
        kept.append(w)
    return tuple(kept)


class ClopenSet(Value):
    """A clopen subset of the Cantor space in canonical antichain form."""

    words: tuple[str, ...] = ()

    def __init__(self, words: tuple[str, ...] = ()):
        set_field(self, "words", normalize_words(words))

    @classmethod
    def _canonical(cls, words) -> "ClopenSet":
        """Trusted constructor: the caller's words are already a canonical
        antichain.  `intersect` builds its words so; no other code calls it."""
        out = object.__new__(cls)
        set_field(out, "words", tuple(words))
        return out

    @staticmethod
    def cylinder(word: str) -> "ClopenSet":
        return ClopenSet((word,))

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self.words == ("",)

    def max_depth(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        """The meet: the deeper word of each comparable pair, canonical as built.

        Let a = self and b = other, both canonical.  For each u of a, the
        pairs lie inside [u]: either u alone (b holds a prefix of u) or b's
        extensions of u, which come in sorted order.  The cylinders of a's
        words are disjoint and sorted, so the output is sorted and
        prefix-free.  It has no sibling pair either: were w0 and w1 both
        kept, then a alone, or b alone, would hold both siblings, or one of
        them would hold a word together with a prefix of its sibling, and
        each case contradicts a or b being canonical.  So the words go to the
        trusted constructor.  The same deeper words come out whichever side
        is self, so a & b == b & a.
        """
        pairs = prefix_join(self.words, other.words)
        return ClopenSet._canonical(u + v[len(u):] for u, v in pairs)

    def complement(self) -> "ClopenSet":
        """The leaves of the prefix tree the words span, minus the words."""
        leaves = leaves_below("", proper_prefixes(self.words))
        return ClopenSet(tuple(set(leaves).difference(self.words)))

    def covers(self, words) -> bool:
        """Whether every cylinder [w], w in `words`, lies inside this set.

        `words` need not be sibling-merged.  This set is, so [u] lies inside
        it exactly when one of its words prefixes u; the words between a
        prefix of u and u all extend that prefix, so in this antichain the
        prefix is the last word not after u, one bisect away.
        """
        own = self.words
        for u in words:
            i = bisect_right(own, u)
            if not i or not u.startswith(own[i - 1]):
                return False
        return True

    def subset_of(self, other: "ClopenSet") -> bool:
        return other.covers(self.words)

    def contains_word(self, word: str) -> bool:
        """Whole-cylinder membership: [word] inside this set, one bisect."""
        return self.covers((word,))

    def contains_point(self, point: Point) -> bool:
        """Membership: [the point's first max-depth symbols] inside this set."""
        return self.covers((point.unroll(self.max_depth()),))

    def refine_to_depth(self, depth: int) -> tuple[str, ...]:
        if depth < self.max_depth():
            raise DepthTooSmall(
                f"depth {depth} cannot resolve words of length {self.max_depth()}"
            )
        return tuple(sorted(c for w in self.words for c in extensions(w, depth)))

    __and__ = intersect

    def __str__(self) -> str:
        return "{" + ",".join(map(show_word, self.words)) + "}"

    @staticmethod
    def parse(text: str) -> "ClopenSet":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ParseError(f"clopen syntax is '{{w1,w2}}': {text!r}")
        body = text[1:-1].strip()
        if not body:
            return ClopenSet(())
        words = [w.strip() for w in body.split(",")]
        if "" in words:
            raise ParseError(f"blank item in clopen set: {text!r}")
        return ClopenSet(tuple(map(read_word, words)))


EMPTY = ClopenSet(())
FULL = ClopenSet(("",))

