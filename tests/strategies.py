"""Hypothesis strategies that build small interpretations directly, without
going through the instance generator."""

from hypothesis import strategies as st

from fuzzymin import MinimizeParams, Signature, approximate_minimize, make_interpretation
from fuzzymin.core import Degree

FEATURE_SETS = (frozenset(), frozenset("I"), frozenset("O"), frozenset("IO"))
PALETTE = ("0.3", "0.5", "0.8", "1")

feature_sets = st.sampled_from(FEATURE_SETS)


@st.composite
def interpretations(draw, signature=None, max_n=6):
    """Up to ``max_n`` elements with sparse facts over a four-degree palette."""
    if signature is None:
        signature = Signature(
            ("A", "B")[:draw(st.integers(1, 2))],
            ("r", "s")[:draw(st.integers(1, 2))],
            ("a", "b")[:draw(st.integers(1, 2))],
        )
    n = draw(st.integers(1, max_n))
    domain = [f"e{i}" for i in range(n)]
    element = st.sampled_from(domain)
    degree = st.sampled_from(PALETTE)
    return make_interpretation(
        signature,
        domain,
        {a: draw(element) for a in signature.individual_names},
        {c: draw(st.dictionaries(element, degree, max_size=n)) for c in signature.concept_names},
        {r: draw(st.dictionaries(st.tuples(element, element), degree, max_size=2 * n))
         for r in signature.role_names},
    )


@st.composite
def interpretation_pairs(draw):
    """(first, second, features): the second interpretation is either a
    reduction of the first or an unrelated one over the same signature."""
    first = draw(interpretations())
    features = draw(feature_sets)
    if draw(st.booleans()):
        gamma = Degree(draw(st.sampled_from(PALETTE)))
        second = approximate_minimize(first, MinimizeParams(features, gamma)).reduced
    else:
        second = draw(interpretations(first.signature))
    return first, second, features
