"""Points and clopen sets: canonical forms, parsing, boolean algebra."""

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorenv.cantor import (
    EMPTY,
    FULL,
    MAX,
    MIN,
    ClopenSet,
    Point,
    check_word,
    common_prefix_length,
    extensions,
    merge_siblings,
    normalize_words,
    prefix_join,
)
from cantorenv.action import ZPartialAction, axioms_check
from cantorenv.envelope import etale_probe
from cantorenv.errors import ParseError
from cantorenv.functions import indicator
from cantorenv.prefix_map import IDENTITY, PrefixMap
from oracles import (
    antichain, cells_covered, comparable_pairs, equal_siblings, merge_pairwise, overlaps,
    words,
)
from strategies import antichains, short_words

w = st.text(alphabet="01", max_size=6)
nonempty_w = st.text(alphabet="01", min_size=1, max_size=6)


def test_check_word_rejects_other_symbols():
    with pytest.raises(ParseError):
        check_word("012")
    assert check_word("0101") == "0101"


def _check_word_verdict(word):
    try:
        return check_word(word) is word
    except ParseError as exc:
        assert str(exc) == f"not a binary word: {word!r}"
        return False


@given(st.text() | st.text(alphabet="01") | st.text(alphabet="01 \n\x00"))
@example("0 1")
@example("01\n")
@example("\x00")
@example("\u0660")  # Arabic-Indic digit zero
@example("\uff10")  # fullwidth digit zero
@example("")
def test_check_word_accepts_exactly_binary_words(word):
    assert _check_word_verdict(word) == (set(word) <= {"0", "1"})


@pytest.mark.parametrize("value", [b"01", None, 1, ["0"]])
def test_check_word_rejects_non_strings(value):
    assert _check_word_verdict(value) is False


def test_extensions():
    assert extensions("", 0) == [""]
    assert extensions("1", 1) == ["1"]
    assert extensions("1", 3) == ["100", "101", "110", "111"]


@given(word=w, gap=st.integers(1, 8))
def test_extensions_match_format_per_word(word, gap):
    want = [word + format(i, f"0{gap}b") for i in range(2**gap)]
    assert extensions(word, len(word) + gap) == want == [word + z for z in words(gap)]


# depths 12-14 from the empty word, and odd and even gaps below a word
@pytest.mark.parametrize("word, gap", [("", 12), ("", 13), ("", 14), ("0", 2),
                                       ("10", 3), ("011", 6), ("1", 7)])
def test_extensions_count_in_binary(word, gap):
    want = [word + format(i, f"0{gap}b") for i in range(2**gap)]
    assert extensions(word, len(word) + gap) == want


class TestPoint:
    def test_canonical_period_is_primitive(self):
        assert Point("", "0101") == Point("", "01")

    def test_prefix_absorbs_period_tail(self):
        # 00(10) and 0(01) spell the same sequence 0010101...
        assert Point("00", "10") == Point("0", "01")
        assert str(Point("00", "10")) == "0(01)"

    def test_min_max(self):
        assert str(MIN) == "(0)"
        assert str(MAX) == "(1)"
        assert MIN == Point("", "0")

    def test_unroll(self):
        x = Point.parse("01(10)")
        assert x.unroll(6) == "011010"

    def test_shift_drops_symbols(self):
        x = Point.parse("011(0)")
        assert x.shift(2) == Point.parse("1(0)")
        assert x.shift(5) == MIN

    def test_with_prefix_then_shift_is_identity(self):
        x = Point.parse("1(01)")
        assert x.with_prefix("00").shift(2) == x

    def test_starts_with(self):
        x = Point.parse("0(10)")
        assert x.starts_with("0101")
        assert not x.starts_with("011")

    def test_parse_roundtrip(self):
        for text in ["(0)", "1(0)", "(01)", "0110(1)"]:
            assert str(Point.parse(text)) == text

    def test_parse_rejects_junk(self):
        for bad in ["", "01", "(", "0()", "(2)"]:
            with pytest.raises(ParseError):
                Point.parse(bad)

    @given(pre=w, per=nonempty_w)
    def test_canonical_form_preserves_the_sequence(self, pre, per):
        x = Point(pre, per)
        raw = pre + per * 8
        assert x.unroll(len(raw)) == raw[: len(raw)]

    @given(pre=w, per=nonempty_w, n=st.integers(0, 8))
    def test_shift_matches_unroll(self, pre, per, n):
        x = Point(pre, per)
        assert x.shift(n).unroll(6) == x.unroll(n + 6)[n:]


def test_common_prefix_length():
    a = Point.parse("(01)")
    b = Point.parse("010(0)")
    assert common_prefix_length(a, b, 10) == 3
    assert common_prefix_length(a, a, 10) == 10


def test_normalize_words_absorption_and_merge():
    assert normalize_words(["0", "01"]) == ("0",)
    assert normalize_words(["00", "01"]) == ("0",)
    assert normalize_words(["0", "1"]) == ("",)
    assert normalize_words([]) == ()


@given(ws=st.lists(st.text(alphabet="01", max_size=5), max_size=10))
def test_normalize_words_is_canonical(ws):
    out = normalize_words(ws)
    assert cells_covered(out, 6) == cells_covered(ws, 6)
    assert list(out) == sorted(set(out))
    assert overlaps(out) == []
    assert equal_siblings((u, None) for u in out) == []


@pytest.mark.parametrize("bad", ["012", None, 7, ["0"], b"01"])
def test_normalize_words_rejects_what_check_word_rejects(bad):
    # an unhashable item makes a plain set() raise TypeError; the contract
    # is the ParseError that check_word gives the first bad item
    with pytest.raises(ParseError) as exc:
        normalize_words(["01", bad, "1"])
    assert str(exc.value) == f"not a binary word: {bad!r}"
    with pytest.raises(ParseError):
        normalize_words(iter(["01", bad]))


def test_normalize_words_absorbs_a_repeat_after_a_merge():
    # the last word kept after a word is that word or one of its ancestors
    assert normalize_words(["01", "00", "01", "0"]) == ("0",)
    assert normalize_words(["00", "01", "01"]) == ("0",)
    assert normalize_words(["1", "0", "1", "0"]) == ("",)
    assert normalize_words(["10", "11", "11", "0", "10"]) == ("",)
    assert normalize_words(words(3) + words(3)) == ("",)
    assert normalize_words(["001", "000", "001", "01", "1", "01"]) == ("",)


def test_normalize_words_cascades_to_the_full_space():
    assert normalize_words(words(3)) == ("",)
    assert normalize_words(words(3)[1:] + ["000", "0001"]) == ("",)
    assert normalize_words(words(4)[:8] + ["10", "110"]) == ("0", "10", "110")


def _sibling_block(prefix_and_depth):
    prefix, depth = prefix_and_depth
    return [prefix + x for x in words(depth)]


deep_words = st.lists(st.text(alphabet="01", max_size=8), max_size=24)
# every word below a prefix to a fixed depth: merges cascade up to the prefix
sibling_blocks = st.lists(
    st.tuples(st.text(alphabet="01", max_size=5), st.integers(0, 3)).map(_sibling_block),
    max_size=2,
)


# sorted antichains rich in sibling pairs: the blocks are kept whole
block_antichains = st.tuples(sibling_blocks, short_words).map(
    lambda p: antichain(sum(p[0], []) + p[1])
)


@given(ws=block_antichains, data=st.data())
def test_merge_siblings_matches_pairwise_merging(ws, data):
    # two labels, so that equal and unequal sibling pairs both occur
    labels = data.draw(st.lists(st.sampled_from("ab"), min_size=len(ws), max_size=len(ws)))
    pieces = list(zip(ws, labels))
    assert merge_siblings(pieces) == merge_pairwise(pieces)


@given(ws=deep_words, blocks=sibling_blocks)
@example(ws=["1", "0111"], blocks=[words(3)])
@settings(max_examples=150, deadline=None)
def test_normalize_words_matches_cell_oracle_on_deep_words(ws, blocks):
    ws = [w for b in blocks for w in b] + ws
    out = normalize_words(ws)
    assert cells_covered(out, 8) == cells_covered(ws, 8)
    assert list(out) == sorted(set(out))
    assert overlaps(out) == []
    assert equal_siblings((u, None) for u in out) == []


class TestPrefixJoin:
    def test_small_cases(self):
        assert list(prefix_join([], ["0", "1"])) == []
        assert list(prefix_join(["0"], [])) == []
        assert list(prefix_join([""], ["00", "01", "1"])) == [
            ("", "00"), ("", "01"), ("", "1")
        ]
        assert list(prefix_join(["011", "1"], [""])) == [("011", ""), ("1", "")]
        assert list(prefix_join(["01", "01"], ["0", "10"])) == [
            ("01", "0"), ("01", "0")
        ]

    @given(a=short_words, b=antichains)
    def test_yields_exactly_the_comparable_pairs(self, a, b):
        assert sorted(prefix_join(a, b)) == sorted(comparable_pairs(a, b))

    @given(a=antichains, b=antichains)
    def test_keys_pick_the_words(self, a, b):
        xs = list(enumerate(a))
        ys = [(v, -j) for j, v in enumerate(b)]
        got = prefix_join(xs, ys, lambda x: x[1], lambda y: y[0])
        assert sorted((x[1], y[0]) for x, y in got) == sorted(comparable_pairs(a, b))


class TestClopenSet:
    def test_parse_and_str(self):
        s = ClopenSet.parse("{0,10}")
        assert str(s) == "{0,10}"
        assert str(EMPTY) == "{}"
        assert str(FULL) == "{ε}"

    def test_parse_rejects_blank_items(self):
        for text in ("{0,}", "{0, ,1}", "{,}", "{ , }"):
            with pytest.raises(ParseError, match="blank"):
                ClopenSet.parse(text)
        assert ClopenSet.parse("{ε, 0}") == FULL
        assert ClopenSet.parse("{ }") == EMPTY

    def test_union_intersect_complement(self):
        a = ClopenSet.parse("{0}")
        b = ClopenSet.parse("{1}")
        assert ClopenSet(a.words + b.words) == FULL
        assert a.intersect(b) == EMPTY
        assert a.complement() == b

    def test_difference_and_subset(self):
        a = ClopenSet.parse("{0}")
        assert a & ClopenSet.parse("{00}").complement() == ClopenSet.parse("{01}")
        assert ClopenSet.parse("{00}").subset_of(a)
        assert not a.subset_of(ClopenSet.parse("{00}"))

    def test_contains(self):
        s = ClopenSet.parse("{01}")
        assert s.contains_word("010")
        assert not s.contains_word("0")
        assert s.contains_point(Point.parse("01(1)"))
        assert not s.contains_point(Point.parse("(0)"))

    def test_refine_to_depth(self):
        s = ClopenSet.parse("{0}")
        assert s.refine_to_depth(2) == ("00", "01")
        assert FULL.refine_to_depth(1) == ("0", "1")

    @given(ws=st.lists(w, max_size=4))
    def test_complement_is_involutive(self, ws):
        s = ClopenSet(tuple(normalize_words(ws)))
        assert s.complement().complement() == s

    @given(ws=st.lists(w, max_size=6))
    def test_complement_splits_every_cell(self, ws):
        s = ClopenSet(tuple(ws))
        comp = s.complement()
        # no complement word lies below depth 6, so depth-6 cells see all of it
        assert comp.max_depth() <= 6
        inside, outside = cells_covered(s.words, 6), cells_covered(comp.words, 6)
        assert not inside & outside
        assert inside | outside == set(words(6))

    @given(ws=st.lists(w, max_size=4), vs=st.lists(w, max_size=4))
    def test_de_morgan(self, ws, vs):
        a = ClopenSet(tuple(normalize_words(ws)))
        b = ClopenSet(tuple(normalize_words(vs)))
        union = ClopenSet(a.words + b.words)
        assert union.complement() == a.complement().intersect(b.complement())

    @given(a=antichains, b=antichains)
    def test_intersect_and_subset_match_cells(self, a, b):
        sa, sb = ClopenSet(tuple(a)), ClopenSet(tuple(b))
        ca, cb = cells_covered(a, 4), cells_covered(b, 4)
        meet = (sa & sb).words
        assert cells_covered(meet, 4) == ca & cb
        # the meet skips the canonical-form pass, so it must come out
        # canonical: strictly sorted, prefix-free and with no sibling pair,
        # the same either way round and the canonical set of the deeper words
        assert list(meet) == sorted(set(meet))
        assert not overlaps(meet) and not equal_siblings([(u, 0) for u in meet])
        assert sb & sa == sa & sb
        deeper = [max(u, v, key=len) for u, v in comparable_pairs(sa.words, sb.words)]
        assert meet == ClopenSet(tuple(deeper)).words
        assert sa.subset_of(sb) == (ca <= cb)
        assert sa.subset_of(ClopenSet(sa.words + sb.words)) and (sa & sb).subset_of(sb)

    # raw lists: repeats, unmerged siblings, words above the set's words,
    # the empty word and the empty list
    @given(own=st.lists(w, max_size=6), ws=st.lists(w, max_size=6))
    @example(own=["0"], ws=["0"])
    @example(own=["00", "01"], ws=["00", "01", "01", "0"])
    @example(own=["0"], ws=["01", "1"])
    @example(own=["0", "10"], ws=["0", "10", "11"])
    @example(own=["00", "1"], ws=["0"])
    @example(own=["01"], ws=[""])
    @example(own=["1", "0"], ws=["", "", "1"])
    @example(own=[], ws=[""])
    @example(own=[], ws=[])
    @example(own=["1"], ws=[])
    def test_covers_matches_cells(self, own, ws):
        s = ClopenSet(tuple(own))
        assert s.covers(ws) == (cells_covered(ws, 6) <= cells_covered(own, 6))

    @given(ws=st.lists(w, max_size=4), pre=w, per=nonempty_w)
    def test_membership_matches_word_prefixes(self, ws, pre, per):
        s = ClopenSet(tuple(normalize_words(ws)))
        x = Point(pre, per)
        by_words = any(x.starts_with(u) for u in s.words)
        assert s.contains_point(x) == by_words
        # [x's first k symbols] lies inside s exactly when a word of s prefixes them
        for k in range(9):
            prefix = x.unroll(k)
            assert s.contains_word(prefix) == any(prefix.startswith(u) for u in s.words)


def _axiom3_detail_on_the_empty_cell():
    # h_{-1} and h_1 map nothing, so h_{-1} h_1 is undefined on [ε] while
    # h_0 fixes it
    nothing = PrefixMap(())
    family = {-1: (FULL, nothing), 0: (FULL, IDENTITY), 1: (FULL, nothing)}
    report = axioms_check(family)
    return next(v.detail for v in report.violations if (v.axiom, v.t, v.s) == (3, -1, 1))


def _etale_violations_on_the_empty_cell():
    # cache surgery: an h_1 without rules cuts the full base nowhere, so the
    # one unmapped cell is [ε]
    a = ZPartialAction(PrefixMap.parse("[0 -> 1]"))
    a._powers[1] = PrefixMap(())
    a._domains[-1] = FULL
    return etale_probe(a, 1, 0, FULL).violations


@pytest.mark.parametrize("got, want", [
    pytest.param(lambda: str(FULL), "{ε}", id="ClopenSet.__str__"),
    pytest.param(lambda: str(IDENTITY), "[ε->ε]", id="PrefixMap.__str__"),
    pytest.param(lambda: str(indicator(FULL)), "(1+0i)*1_[ε]",
                 id="PiecewiseConstant.__str__"),
    pytest.param(_axiom3_detail_on_the_empty_cell,
                 "h_-1h_1[ε] = undefined but h_0[ε] = ε", id="axioms_check"),
    pytest.param(_etale_violations_on_the_empty_cell,
                 ("h_1 does not map the cell ε",), id="etale_probe"),
    pytest.param(lambda: ClopenSet.parse("{ε}").words, ("",), id="ClopenSet.parse"),
    pytest.param(lambda: PrefixMap.parse("[ε->ε]").rules, (("", ""),),
                 id="PrefixMap.parse"),
])
def test_the_empty_word_is_spelled_epsilon(got, want):
    assert got() == want
