"""The trust path against the implementations it replaced.

``bisimilarity_degree`` refines only what the individuals reach and reads
the degrees off the split log; ``check_bisimulation`` compares scaled ints on
the relations' own rows.  ``bisim_reference`` keeps the whole-union tree and the
per-successor-pair check, and both must agree exactly: equal degrees and
byte-identical violation lists.
"""

import random

from hypothesis import given, settings, strategies as st

from fuzzymin import (
    bisimilarity_degree,
    check_bisimulation,
    construct_witness,
)
from fuzzymin.bisim import _encode, _refine, _union_graphs, to_fuzzy_graph
from fuzzymin.core import Degree, FuzzyRelation, ONE, ZERO, biresiduum
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, approximate_minimize
from fuzzymin.model import make_interpretation
from bisim_reference import (
    bisimilarity_degree_reference,
    check_bisimulation_reference,
    cuts_from_log,
    encode_reference,
)
from instances import layered_cycles, research_network, staircase, twin_stars, two_chains
from strategies import FEATURE_SETS, PALETTE, interpretation_pairs

GAMMAS = (ONE, Degree("0.7"), Degree("0.4"))


def assert_same_degree(first, second, features):
    for one, two in ((first, second), (second, first)):
        assert bisimilarity_degree(one, two, features) == bisimilarity_degree_reference(one, two, features)


def assert_same_violations(Z, first, second, features):
    got = check_bisimulation(Z, first, second, features)
    expected = check_bisimulation_reference(Z, first, second, features)
    assert [str(v) for v in got] == [str(v) for v in expected]
    assert got == expected


def raised(Z):
    """Every related pair at degree 1: few witnesses survive that."""
    return FuzzyRelation(Z.rows, Z.cols, {pair: ONE for pair, _ in Z.items()})


def generated(seed, features, size_seed):
    """A small generator instance whose signature depends only on ``features``."""
    rng = random.Random(size_seed)
    n = rng.randint(3, 6)
    return generate(GeneratorParams(
        k=2, n_per=n, m_per=rng.randint(0, n), o_per=1, p_per=rng.randint(0, 2 * n),
        l=3, sCN=2, sRN=2, acyclic=bool(rng.getrandbits(1)),
        withI="I" in features, withO="O" in features, seed=seed,
    ))


def assert_same_on_reductions(first, features):
    """Both paths agree on ``first`` against its reduction at each gamma, on
    the witness and on the raised witness in both directions; returns how
    many raised witnesses were rejected."""
    violated = 0
    for gamma in GAMMAS:
        params = MinimizeParams(features, gamma)
        result = approximate_minimize(first, params)
        reduced = result.reduced
        assert_same_degree(first, reduced, features)
        witness = construct_witness(first, result, params)
        assert_same_violations(witness, first, reduced, features)
        lifted = raised(witness)
        assert_same_violations(lifted, first, reduced, features)
        assert_same_violations(lifted.inverse(), reduced, first, features)
        violated += bool(check_bisimulation(lifted, first, reduced, features))
    return violated


class TestDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs(), st.data())
    def test_matches_reference_on_drawn_pairs(self, case, data):
        first, second, features = case
        assert_same_degree(first, second, features)
        cell = st.tuples(st.integers(0, first.n - 1), st.integers(0, second.n - 1))
        entries = data.draw(st.dictionaries(cell, st.sampled_from(PALETTE), max_size=first.n * second.n))
        Z = FuzzyRelation(first.n, second.n, entries)
        assert_same_violations(Z, first, second, features)
        assert_same_violations(raised(Z).inverse(), second, first, features)

    def test_generator_sweep(self):
        violated = 0
        for seed in range(20):
            for features in FEATURE_SETS:
                first = generated(seed, features, seed)
                assert_same_degree(first, generated(seed + 1000, features, seed + 1), features)
                violated += assert_same_on_reductions(first, features)
        # the raised witnesses exercise the reporting, not only the clean case
        assert violated > 0

    def test_named_instances(self):
        for build in (twin_stars, layered_cycles, two_chains, research_network):
            for features in FEATURE_SETS:
                assert_same_on_reductions(build(), features)


def reach_reference(labels, out, seeds):
    """Whole-graph lists (``encode_reference``'s) cut down to what the seeds
    reach: the seeds in order, then the targets of each numbered vertex's
    edges as listed, each vertex numbered when first met."""
    index = [-1] * len(labels)
    order = []
    for v in seeds:
        if index[v] < 0:
            index[v] = len(order)
            order.append(v)
    for v in order:  # grows while it is walked
        for _, _, y in out[v]:
            if index[y] < 0:
                index[y] = len(order)
                order.append(y)
    return [labels[v] for v in order], [[(d, r, index[y]) for d, r, y in out[v]] for v in order], index


class TestReachEncoding:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs(), st.sampled_from(FEATURE_SETS), st.data())
    def test_encode_is_the_reference_cut_to_the_reached_part(self, case, features, data):
        first, second, _ = case
        graphs = [to_fuzzy_graph(first, features), to_fuzzy_graph(second, features)]
        labels, out, nroles = encode_reference(graphs)
        # the individual pairs, as bisimilarity_degree seeds them, then a few more
        seeds = [v for a in first.signature.individual_names
                 for v in (first.individual_element(a), first.n + second.individual_element(a))]
        seeds += data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=3))
        got_labels, got_out, got_nroles, index = _encode(graphs, seeds)
        assert (got_labels, got_out, index) == reach_reference(labels, out, seeds)
        assert got_nroles == nroles


class TestDegreeOffTheLog:
    """``SplitLog.degree`` reads a pair's degree off the split log: the level
    of the last cut that still holds both vertices in one class."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs())
    def test_every_pair_matches_the_cuts(self, case):
        first, second, features = case
        log, _ = _refine(*_encode(_union_graphs(first, second, features), range(first.n + second.n))[:3])
        cuts = cuts_from_log(log)
        for u in range(len(log.block)):
            for v in range(len(log.block)):
                parted = [k for k, cut in enumerate(cuts) if cut[u] != cut[v]]
                expected = ONE if not parted else log.levels[parted[0] - 1] if parted[0] else ZERO
                assert log.degree(u, v) == expected

    def union_log(self, first, second):
        log, _ = _refine(*_encode(_union_graphs(first, second, frozenset()), range(first.n + second.n))[:3])
        a = (first.individual_element("a"), first.n + second.individual_element("a"))
        return log, a

    def test_individuals_in_different_first_classes(self):
        first = twin_stars()
        second = make_interpretation(
            first.signature, ["u"], {"a": "u", "b": "u"}, {"A": {"u": "0.3"}}, {})
        log, (x, xp) = self.union_log(first, second)
        assert cuts_from_log(log)[0][x] != cuts_from_log(log)[0][xp]
        assert log.degree(x, xp) == ZERO
        assert bisimilarity_degree(first, second, frozenset()) == ZERO
        assert bisimilarity_degree_reference(first, second, frozenset()) == ZERO

    def test_individuals_in_one_final_class(self):
        first, second = twin_stars(), twin_stars()
        log, (x, xp) = self.union_log(first, second)
        assert log.block[x] == log.block[xp]
        assert log.degree(x, xp) == ONE
        assert bisimilarity_degree(first, second, frozenset()) == ONE
        assert bisimilarity_degree_reference(first, second, frozenset()) == ONE


class TestDeepInputs:
    def test_staircase_degree_needs_no_tree(self):
        stairs = staircase(3000)
        a_degree = stairs.concept_set("A").value(stairs.individual_element("a"))
        changed = Degree("0.5")
        for features in FEATURE_SETS:
            assert bisimilarity_degree(stairs, stairs, features) == ONE
            assert bisimilarity_degree(stairs, staircase(3000, degree_of_a=changed), features) == (
                biresiduum(a_degree, changed))
            # x1 is not reached from a, so changing it changes nothing
            assert bisimilarity_degree(stairs, staircase(3000, degree_of_x1=changed), features) == ONE
