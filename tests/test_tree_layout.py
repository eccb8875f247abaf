"""The block tree's builder and renderer against the recursive ones they
replaced, and trees deeper than the interpreter's recursion limit.

``partition_reference`` keeps the builder and renderer that recurse once per
level; the loops in ``fuzzymin.partition`` must give the same blocks, spans,
ordering and text.  ``row`` must give exactly x's row of the equivalence.
"""

from hypothesis import given, settings

from fuzzymin import (
    MinimizeParams,
    approximate_minimize,
    auto_partition,
    check_bisimulation,
    construct_witness,
)
from fuzzymin.bisim import _flatten, _refine, _union_graph, to_fuzzy_graph
from fuzzymin.core import ONE
from fuzzymin.partition import partition_from_cuts
from instances import staircase
from partition_reference import partition_from_cuts_reference, render_reference
from strategies import feature_sets, interpretation_pairs, interpretations


def layout(partition):
    return (
        partition.root.id,
        [(b.id, b.degree, b.lo, b.hi, None if b.parent is None else b.parent.id, [c.id for c in b.children])
         for b in partition.blocks()],
        partition.order,
        [b.id for b in partition.leaf_of],
    )


def assert_same_tree(levels, cuts, names):
    tree = partition_from_cuts(levels, cuts, names)
    reference = partition_from_cuts_reference(levels, cuts, names)
    assert layout(tree) == layout(reference)
    assert tree.render() == render_reference(reference)
    renamed = [f"<{name}>" for name in reversed(names)]
    assert tree.render(renamed) == render_reference(reference, renamed)
    equivalence = tree.to_equivalence()
    for x in range(tree.n):
        row = [(y, degree) for degree, elems in tree.row(x) for y in elems]
        assert sorted(row) == list(equivalence.successors(x))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_auto_partitions(self, interp, features):
        levels, cuts, _ = _refine(*_flatten([to_fuzzy_graph(interp, features)]))
        assert_same_tree(levels, cuts, interp.domain)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs())
    def test_union_partitions(self, case):
        first, second, features = case
        levels, cuts, _ = _refine(*_union_graph(first, second, features))
        assert_same_tree(levels, cuts, first.domain + second.domain)

    def test_deep_staircase(self):
        # deep enough to matter, shallow enough for the reference's recursion
        stairs = staircase(300)
        levels, cuts, _ = _refine(*_flatten([to_fuzzy_graph(stairs, frozenset())]))
        assert_same_tree(levels, cuts, stairs.domain)


class TestDeepTree:
    def test_staircase_pipeline_shares_one_partition(self):
        levels = 3000
        stairs = staircase(levels)
        partition, _ = auto_partition(stairs, frozenset())
        # each fuzzy block splits off its least element's leaf
        assert partition.block_count() == 2 * levels - 1
        depth, block = 0, partition.leaf_of[levels - 1]
        while block.parent is not None:
            depth, block = depth + 1, block.parent
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
