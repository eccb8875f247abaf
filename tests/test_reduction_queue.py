"""The reduction's bucket queue against the heap of links it replaced, and
the order in which relations hand out their entries.

``minimize_reference`` keeps the reduction that pushes every link into one
heap keyed by ``(-degree, insertion sequence)``; the bucket queue must give
the same reduced interpretation, output text, trace and narrative.  Both run
on ``CheckedRun``, which asserts the run's invariants after every lookup and
claim.
"""

import random

from hypothesis import given, settings, strategies as st

from fuzzymin import Signature, construct_witness, make_interpretation
from fuzzymin.cli import write_interpretation
from fuzzymin.core import Degree, FuzzyRelation, ONE
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, approximate_minimize
from instances import layered_cycles, research_network, twin_stars, two_chains
from minimize_reference import approximate_minimize_reference, checked_runs
from strategies import FEATURE_SETS, PALETTE, feature_sets, interpretations

GAMMAS = (ONE, Degree("0.7"), Degree("0.4"))


def observed(minimize, interp, params):
    lines = []
    with checked_runs() as runs:
        result = minimize(interp, params, narrate=lines.append)
    assert len(runs) == 1
    return result, write_interpretation(result.reduced), lines


def assert_same_run(interp, params):
    got, got_text, got_lines = observed(approximate_minimize, interp, params)
    expected, expected_text, expected_lines = observed(approximate_minimize_reference, interp, params)
    assert got.reduced == expected.reduced
    assert got_text == expected_text
    assert got.trace.added == expected.trace.added
    assert got.trace.degree_levels == expected.trace.degree_levels
    assert got_lines == expected_lines
    return got


def assert_sorted_items(rel):
    # every stored row is sorted by target, and items() hands out exactly the
    # stored entries, sorted by pair
    assert all(list(row) == sorted(row) for row in rel._fwd)
    stored = [((i, j), Degree.from_scaled(s)) for i, row in enumerate(rel._fwd) for j, s in row.items()]
    assert list(rel.items()) == sorted(stored)


def many_degrees(n, distinct, seed):
    """n elements, 4n role links, each link's degree one of ``distinct``
    values, so up to ``distinct`` buckets are in use at once."""
    rng = random.Random(seed)
    sig = Signature(("A",), ("r", "s"), ("a", "b", "c"))
    domain = [f"e{i}" for i in range(n)]
    palette = [str(Degree.from_scaled(10 ** 9 * (k + 1) // distinct)) for k in range(distinct)]

    def links():
        return {(rng.choice(domain), rng.choice(domain)): rng.choice(palette) for _ in range(2 * n)}

    return make_interpretation(
        sig, domain, {a: rng.choice(domain) for a in sig.individual_names},
        {"A": {x: rng.choice(palette) for x in rng.sample(domain, n // 3)}},
        {"r": links(), "s": links()},
    )


class TestAgainstHeap:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets, st.sampled_from(PALETTE))
    def test_drawn_interpretations(self, interp, features, gamma):
        assert_same_run(interp, MinimizeParams(features, Degree(gamma)))

    def test_named_instances(self):
        for build in (twin_stars, layered_cycles, two_chains, research_network):
            for features in FEATURE_SETS:
                for gamma in GAMMAS:
                    assert_same_run(build(), MinimizeParams(features, gamma))

    def test_generator_instances(self):
        for seed in range(8):
            for features in FEATURE_SETS:
                interp = generate(GeneratorParams(
                    k=2, n_per=8, m_per=16, o_per=2, p_per=6, l=4, sCN=2, sRN=2,
                    acyclic=bool(seed % 2), withI="I" in features, withO="O" in features, seed=seed,
                ))
                for gamma in GAMMAS:
                    assert_same_run(interp, MinimizeParams(features, gamma))

    def test_hundreds_of_distinct_degrees(self):
        interp = many_degrees(300, 250, seed=13)
        degrees = {d for rel in interp.roles.values() for d in rel.degrees()}
        assert len(degrees) >= 200
        for features in FEATURE_SETS:
            for gamma in (ONE, Degree("0.5"), Degree("0.05")):
                assert_same_run(interp, MinimizeParams(features, gamma))

    def test_many_links_at_one_degree(self):
        # every link in one bucket: the take order is the push order alone
        interp = many_degrees(120, 1, seed=5)
        assert {d for rel in interp.roles.values() for d in rel.degrees()} == {ONE}
        for features in FEATURE_SETS:
            result = assert_same_run(interp, MinimizeParams(features, ONE))
            assert result.m1 > 0


class TestItemsOrder:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 8), st.integers(1, 8))
    def test_shuffled_insertion_through_both_constructors(self, rng, rows, cols):
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        pairs = [(cell, Degree(rng.choice(PALETTE))) for cell in rng.sample(cells, rng.randint(0, len(cells)))]
        rng.shuffle(pairs)
        by_source = {}
        for (i, j), d in pairs:
            by_source.setdefault(i, {})[j] = d.scaled
        for rel in (FuzzyRelation(rows, cols, pairs), FuzzyRelation._trusted(rows, cols, by_source.items())):
            assert_sorted_items(rel)
            assert_sorted_items(rel.inverse())
            assert list(rel.items()) == sorted(pairs)

    def test_reductions_and_witnesses(self):
        interp = many_degrees(200, 40, seed=21)
        for features in FEATURE_SETS:
            for gamma in GAMMAS:
                params = MinimizeParams(features, gamma)
                result = approximate_minimize(interp, params)
                for rel in result.reduced.roles.values():
                    assert_sorted_items(rel)
                assert_sorted_items(construct_witness(interp, result, params))
