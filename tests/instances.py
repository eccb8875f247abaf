"""Shared fixture instances used across the test modules."""

from fuzzymin import (
    FuzzyInterpretation,
    FuzzyRelation,
    Signature,
    make_interpretation,
    rst_closure,
)
from fuzzymin.core import Degree


def twin_stars() -> FuzzyInterpretation:
    """Two root elements fanning out to graded leaves; the classic case where
    the two roots are interchangeable for forward-only observers."""
    sig = Signature(("A",), ("r",), ("a", "b"))
    return make_interpretation(
        sig,
        ["u", "u'", "v1", "v2", "v3", "v1'", "v2'"],
        {"a": "u", "b": "u'"},
        {"A": {"v1": "0.7", "v2": "0.8", "v3": "0.9", "v1'": "0.7", "v2'": "0.8"}},
        {"r": {
            ("u", "v1"): "0.5", ("u", "v2"): "0.4", ("u", "v3"): "0.7",
            ("u'", "v1'"): "0.6", ("u'", "v2'"): "0.7",
        }},
    )


def layered_cycles() -> FuzzyInterpretation:
    """Three layers with cycles inside the middle layer and back-edges over a
    second role."""
    sig = Signature(("A", "B"), ("r", "s"), ("a", "b"))
    return make_interpretation(
        sig,
        ["u1", "u2", "v1", "v2", "v3", "w1", "w2"],
        {"a": "u1", "b": "u2"},
        {"A": {"v1": "0.5", "v2": "0.6", "v3": "0.7"},
         "B": {"w1": "0.8", "w2": "0.9"}},
        {"r": {
            ("u1", "v1"): "0.3", ("u1", "v2"): "0.4", ("u2", "v3"): "0.4",
            ("v1", "v2"): "0.9", ("v2", "v1"): "0.7", ("v3", "v3"): "0.8",
            ("v1", "w1"): "0.8", ("v2", "w1"): "0.7", ("v3", "w2"): "0.8",
        },
         "s": {("w1", "u2"): "0.2", ("w2", "u1"): "0.2"}},
    )


def two_chains() -> FuzzyInterpretation:
    """Two parallel three-element chains whose degrees differ by 0.1; domain
    reduction only kicks in below threshold 0.9."""
    sig = Signature(("A",), ("r",), ("a", "b"))
    return make_interpretation(
        sig,
        ["u1", "u2", "v1", "v2", "w1", "w2"],
        {"a": "u1", "b": "u2"},
        {"A": {"w1": "1", "w2": "0.8"}},
        {"r": {
            ("u1", "v1"): "1", ("v1", "w1"): "1",
            ("u2", "v2"): "0.9", ("v2", "w2"): "0.9",
        }},
    )


def alternating_chain(n: int) -> FuzzyInterpretation:
    """c0 -> c1 -> ... -> c(n-1) with edge degrees alternating 0.4 and 0.7;
    only the tail carries a label, and it reaches the head one edge per
    refinement round."""
    sig = Signature(("A",), ("r",), ("a",))
    domain = [f"c{i}" for i in range(n)]
    return make_interpretation(
        sig, domain, {"a": "c0"}, {"A": {domain[-1]: 1}},
        {"r": {(domain[i], domain[i + 1]): "0.4" if i % 2 else "0.7" for i in range(n - 1)}},
    )


def research_network() -> FuzzyInterpretation:
    """Researchers linked to topics; the topic-relatedness role is the
    reflexive-symmetric-transitive closure of a small seed relation."""
    sig = Signature(
        ("Researcher", "Topic", "FuzzyLogic", "DescriptionLogic"),
        ("hasExpertiseIn", "collaboratesWith", "isRelatedTo"),
        ("linh", "mirek", "stefan"),
    )
    dom = ["linh", "mirek", "stefan", "FDL", "fuzzy_automata",
           "simulation", "bisimulation", "minimization"]
    seed = make_interpretation(
        sig, dom, {a: a for a in ("linh", "mirek", "stefan")}, {},
        {"isRelatedTo": {
            ("bisimulation", "FDL"): "0.6",
            ("bisimulation", "fuzzy_automata"): "0.6",
            ("bisimulation", "simulation"): "0.8",
            ("bisimulation", "minimization"): "0.5",
        }},
    )
    related = rst_closure(seed.roles["isRelatedTo"])
    base = make_interpretation(
        sig, dom, {a: a for a in ("linh", "mirek", "stefan")},
        {"Researcher": {"linh": 1, "mirek": 1, "stefan": 1},
         "Topic": {"FDL": 1, "fuzzy_automata": 1, "simulation": 1,
                   "bisimulation": 1, "minimization": 1},
         "FuzzyLogic": {"FDL": "0.8", "fuzzy_automata": "0.4"},
         "DescriptionLogic": {"FDL": "0.8"}},
        {"hasExpertiseIn": {
            ("linh", "FDL"): "0.8", ("linh", "bisimulation"): "0.9",
            ("mirek", "fuzzy_automata"): "0.9", ("mirek", "bisimulation"): "0.8",
            ("stefan", "fuzzy_automata"): "0.9", ("stefan", "bisimulation"): "0.8",
        },
         "collaboratesWith": {
            ("linh", "stefan"): "0.3", ("stefan", "linh"): "0.3",
            ("mirek", "stefan"): "0.5", ("stefan", "mirek"): "0.6",
        }},
    )
    return FuzzyInterpretation(
        sig, base.domain, base.individuals, base.concepts,
        {**base.roles, "isRelatedTo": related},
    )


TABLE_NAMES = tuple(f"a{i}" for i in range(1, 8))


def seven_point_equivalence() -> FuzzyRelation:
    """A seven-element fuzzy equivalence with four nested similarity levels."""
    pairs = {
        (1, 2): "0.4",
        (3, 4): "1", (3, 5): "0.8", (3, 6): "0.5",
        (4, 5): "0.8", (4, 6): "0.5",
        (5, 6): "0.5",
    }
    entries = {}
    for i in range(1, 6):
        for j in range(i + 1, 7):
            entries[(i, j)] = Degree("0.2")
            entries[(j, i)] = Degree("0.2")
    for (i, j), d in pairs.items():
        entries[(i, j)] = Degree(d)
        entries[(j, i)] = Degree(d)
    for i in range(7):
        entries[(i, i)] = Degree(1)
    return FuzzyRelation(7, 7, entries)


SEVEN_POINT_RENDERED = (
    "{{a1}_1, {{{a2}_1,{a3}_1}_0.4, {{{a4,a5}_1,{a6}_1}_0.8, {a7}_1}_0.5}_0.2}_0"
)
