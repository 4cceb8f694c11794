"""Hypothesis strategies for short binary words, antichains and rule lists,
and length-preserving partial injections."""

from hypothesis import strategies as st

from oracles import antichain, words

short_words = st.lists(st.text(alphabet="01", max_size=4), max_size=12)
antichains = short_words.map(antichain)


@st.composite
def rule_lists(draw):
    """Up to 12 rules pairing two antichains of words of length at most 4."""
    sources = draw(st.permutations(draw(antichains)))
    targets = draw(st.permutations(draw(antichains)))
    return list(zip(sources, targets))


@st.composite
def length_preserving_rules(draw, lengths=st.integers(1, 3)):
    """A partial injection between words of one length, as rewrite rules."""
    pool = words(draw(lengths))
    sources = draw(st.lists(st.sampled_from(pool), unique=True))
    targets = draw(st.permutations(pool))
    return list(zip(sources, targets))


@st.composite
def mixed_length_rules(draw):
    """A partial injection within one antichain of words of length 1 to 3
    that sends each source to a target of its own length."""
    pool = antichain(draw(st.lists(st.text(alphabet="01", min_size=1, max_size=3))))
    rules = []
    for size in (1, 2, 3):
        same = [w for w in pool if len(w) == size]
        sources = draw(st.permutations(same))[: draw(st.integers(0, len(same)))]
        rules += zip(sources, draw(st.permutations(same)))
    return rules
