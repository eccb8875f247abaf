"""The block tree's builder and renderer against the recursive ones they
replaced, and trees deeper than the interpreter's recursion limit.

``partition_reference`` keeps the builder that reads the cuts level by level
and the renderer, both recursing once per level; ``partition_from_log``
must give the same blocks, spans, ordering and text from the split log
those cuts were expanded from.  ``row`` must give exactly x's row of the
equivalence.
"""

from hypothesis import given, settings

from fuzzymin import (
    MinimizeParams,
    approximate_minimize,
    auto_partition,
    check_bisimulation,
    construct_witness,
)
from fuzzymin.bisim import _encode, _refine
from fuzzymin.core import Degree, ONE
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.partition import CompactFuzzyPartition, partition_from_log
from bisim_reference import cuts_from_log
from instances import staircase
from partition_reference import partition_from_cuts_reference, render_reference
from strategies import feature_sets, interpretation_pairs, interpretations


def layout(partition):
    # in preorder, with children ordered, the parents fix the whole shape
    return partition.blocks(), partition.order, partition.leaf


def assert_same_tree(log, names):
    tree = partition_from_log(log, names)
    reference = partition_from_cuts_reference(log.levels, cuts_from_log(log), names)
    assert layout(tree) == layout(reference)
    assert tree.render() == render_reference(reference)
    renamed = [f"<{name}>" for name in reversed(names)]
    assert tree.render(renamed) == render_reference(reference, renamed)
    equivalence = tree.to_equivalence()
    for x in range(tree.n):
        row = [(y, Degree.from_scaled(degree)) for degree, elems in tree.row(x) for y in elems]
        assert sorted(row) == list(equivalence.successors(x))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_auto_partitions(self, interp, features):
        log, _ = _refine(*_encode([interp], features, range(interp.n))[:3])
        assert_same_tree(log, interp.domain)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs())
    def test_union_partitions(self, case):
        first, second, features = case
        log, _ = _refine(*_encode([first, second], features, range(first.n + second.n))[:3])
        assert_same_tree(log, first.domain + second.domain)

    def test_deep_staircase(self):
        # deep enough to matter, shallow enough for the reference's recursion
        stairs = staircase(300)
        log, _ = _refine(*_encode([stairs], frozenset(), range(stairs.n))[:3])
        assert_same_tree(log, stairs.domain)


class TestDeepTree:
    def test_staircase_pipeline_shares_one_partition(self):
        levels = 3000
        stairs = staircase(levels)
        partition, _ = auto_partition(stairs, frozenset())
        # each fuzzy block splits off its least element's leaf
        assert len(partition.parent) == 2 * levels - 1
        depth, block = 0, partition.leaf[levels - 1]
        while partition.parent[block] >= 0:
            depth, block = depth + 1, partition.parent[block]
        assert depth == levels - 1
        text = partition.render()
        assert text.startswith("{{x0}_1, {{x1}_1, {{x2}_1, ")
        assert text.count("{") == 2 * levels - 1 and "{{x2998}_1,{x2999}_1}_" in text
        params = MinimizeParams(frozenset(), ONE)
        result = approximate_minimize(stairs, params, partition=partition)
        assert result.n1 == 1 and list(result.reduced.domain) == ["x0"]
        witness = construct_witness(stairs, result, params)
        assert len(witness) == levels  # x0 is related to every element
        assert check_bisimulation(witness, stairs, result.reduced, frozenset()) == []


class TestNoBlockObjects:
    def test_minimize_and_witness_build_no_block(self, monkeypatch):
        # the reduction and the witness read the tree's arrays, never the
        # Block tuples that ``blocks()`` builds
        calls = []
        real = CompactFuzzyPartition.blocks

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(CompactFuzzyPartition, "blocks", counting)
        interp = generate(GeneratorParams(3, 12, 20, 2, 10, 3, 2, 2, False, True, True, seed=5))
        for gamma in (ONE, Degree("0.5")):
            params = MinimizeParams(frozenset("IO"), gamma)
            result = approximate_minimize(interp, params)
            witness = construct_witness(interp, result, params)
            assert check_bisimulation(witness, interp, result.reduced, frozenset("IO")) == []
        assert len(result.partition.parent) > 1 and calls == []
        assert len(result.partition.blocks()) == len(result.partition.parent)
        assert calls == [result.partition]
