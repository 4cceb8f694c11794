"""Hypothesis strategies for short binary words, antichains and rule lists."""

from hypothesis import strategies as st

from oracles import antichain

short_words = st.lists(st.text(alphabet="01", max_size=4), max_size=12)
antichains = short_words.map(antichain)


@st.composite
def rule_lists(draw):
    """Up to 12 rules pairing two antichains of words of length at most 4."""
    sources = draw(st.permutations(draw(antichains)))
    targets = draw(st.permutations(draw(antichains)))
    return list(zip(sources, targets))
