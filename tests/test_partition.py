import random

import pytest

from fuzzymin import (
    build_compact_partition,
    find_block,
    flatten_and_find,
    greatest_auto_bisimulation,
    identity_relation,
    is_fuzzy_equivalence,
    partition_to_equivalence,
    rst_closure,
    set_repr_upward,
)
from fuzzymin.core import Degree, FuzzyRelation, ONE, SCALE
from instances import (
    SEVEN_POINT_RENDERED,
    TABLE_NAMES,
    seven_point_equivalence,
    twin_stars,
)

D = Degree


def twin_equivalence():
    interp = twin_stars()
    return greatest_auto_bisimulation(interp, frozenset()).Z, interp.domain


class TestBuild:
    def test_seven_point_render(self):
        partition = build_compact_partition(seven_point_equivalence(), TABLE_NAMES)
        assert partition.render() == SEVEN_POINT_RENDERED

    def test_all_ones_is_single_crisp_block(self):
        n = 3
        rel = FuzzyRelation(n, n, {(i, j): ONE for i in range(n) for j in range(n)})
        partition = build_compact_partition(rel, ["x", "y", "z"])
        assert partition.root.is_crisp
        assert partition.render() == "{x,y,z}_1"

    def test_twin_stars_partition(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        assert partition.render() == "{{u,u'}_1, {{v1,v1'}_1, {{v2,v2'}_1,{v3}_1}_0.8}_0.7}_0"

    def test_rejects_non_equivalence(self):
        rel = FuzzyRelation(2, 2, {(0, 0): ONE, (1, 1): ONE, (0, 1): D("0.5")})
        with pytest.raises(ValueError):
            build_compact_partition(rel)

    def test_tree_shape_invariants(self):
        rng = random.Random(3)
        for _ in range(30):
            phi = _random_equivalence(rng, rng.randint(1, 25))
            partition = build_compact_partition(phi)
            for block in partition.blocks():
                if block.is_crisp:
                    assert block.degree == ONE
                    assert partition.block_elements(block)
                else:
                    assert block.degree < ONE
                    assert len(block.children) >= 2
                    child_elems = []
                    for child in block.children:
                        assert child.degree > block.degree
                        child_elems.extend(partition.block_elements(child))
                    assert sorted(child_elems) == sorted(partition.block_elements(block))


class TestRoundTrip:
    def test_seven_point(self):
        phi = seven_point_equivalence()
        assert partition_to_equivalence(build_compact_partition(phi)) == phi

    def test_single_crisp_block(self):
        n = 3
        rel = FuzzyRelation(n, n, {(i, j): ONE for i in range(n) for j in range(n)})
        assert partition_to_equivalence(build_compact_partition(rel)) == rel

    def test_twin_stars_lca_degrees(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        back = partition_to_equivalence(partition)
        idx = {name: i for i, name in enumerate(names)}
        assert back.value(idx["v2"], idx["v3"]) == D("0.8")
        assert back.value(idx["v1"], idx["v3"]) == D("0.7")
        assert back == Z

    def test_random_round_trips(self):
        rng = random.Random(17)
        for _ in range(200):
            phi = _random_equivalence(rng, rng.randint(1, 40), distinct=8)
            assert partition_to_equivalence(build_compact_partition(phi)) == phi


def _random_equivalence(rng, n, distinct=6):
    entries = {}
    for _ in range(rng.randint(0, 3 * n)):
        entries[(rng.randrange(n), rng.randrange(n))] = Degree.from_scaled(
            rng.randint(1, distinct) * (SCALE // distinct)
        )
    return rst_closure(FuzzyRelation(n, n, entries))


class TestFindBlock:
    def test_twin_star_lookups(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        b = find_block(partition, idx["v3"], D("0.7"))
        assert b.degree == D("0.7")
        assert sorted(names[x] for x in partition.block_elements(b)) == [
            "v1", "v1'", "v2", "v2'", "v3"]
        # a full-strength query always lands on the crisp leaf
        leaf = find_block(partition, idx["v3"], ONE)
        assert leaf.is_crisp and partition.block_elements(leaf) == [idx["v3"]]
        assert find_block(partition, idx["v1"], D("0.5")) is b

    def test_agrees_with_linear_scan(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 20)
            phi = _random_equivalence(rng, n)
            partition = build_compact_partition(phi)
            for x in range(n):
                path = []
                block = partition.leaf_of[x]
                while block is not None:
                    path.append(block)
                    block = block.parent
                for _ in range(5):
                    d = Degree.from_scaled(rng.randint(1, SCALE))
                    best = min(
                        (b for b in path if b.degree >= d),
                        key=lambda b: b.degree.scaled,
                    )
                    assert find_block(partition, x, d) is best

    def test_rejects_zero_threshold(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        with pytest.raises(ValueError):
            find_block(partition, 0, D(0))


class TestFlattening:
    def test_flatten_matches_plain_find(self):
        # same queries against a flattening and a non-flattening copy,
        # issued with non-increasing thresholds
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 20)
            phi = _random_equivalence(rng, n)
            p1 = build_compact_partition(phi)
            p2 = build_compact_partition(phi)
            thresholds = sorted(
                (Degree.from_scaled(rng.randint(1, SCALE)) for _ in range(8)),
                reverse=True,
            )
            for d in thresholds:
                x = rng.randrange(n)
                plain = find_block(p1, x, d)
                flat = flatten_and_find(p2, x, d)
                assert plain.degree == flat.degree
                assert sorted(p1.block_elements(plain)) == sorted(p2.block_elements(flat))
                if plain.repr is None:
                    set_repr_upward(p1, plain, x)
                    set_repr_upward(p2, flat, x)
                assert plain.repr == flat.repr

    def test_flattening_a_leaf_is_a_noop(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        leaf = flatten_and_find(partition, 2, ONE)
        assert leaf.is_crisp
        assert flatten_and_find(partition, 2, ONE) is leaf

    def test_repeated_calls_return_same_class(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        first = flatten_and_find(partition, idx["v3"], D("0.7"))
        second = flatten_and_find(partition, idx["v3"], D("0.7"))
        assert first is second

    def test_later_find_sees_flattened_class_and_repr(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        block = flatten_and_find(partition, idx["v3"], D("0.7"))
        set_repr_upward(partition, block, idx["v3"])
        later = flatten_and_find(partition, idx["v2"], D("0.4"))
        assert later is block
        assert later.repr == idx["v3"]


class TestResetOverlay:
    def test_reset_restores_a_fresh_overlay(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        block = flatten_and_find(partition, idx["v3"], D("0.7"))
        set_repr_upward(partition, block, idx["v3"])
        flatten_and_find(partition, idx["u"], D("0.4"))
        partition.reset_overlay()
        for b in partition.blocks():
            assert partition.class_top(b) is b
            assert (b.repr, b.absorbed, b.fully_flat) == (None, False, False)
        fresh = build_compact_partition(Z, names)
        for x in range(len(names)):
            assert find_block(partition, x, D("0.7")).id == find_block(fresh, x, D("0.7")).id


class TestReprPropagation:
    def test_sets_repr_up_to_first_claimed_ancestor(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        leaf_u = partition.leaf_of[idx["u"]]
        set_repr_upward(partition, leaf_u, idx["u"])
        assert leaf_u.repr == idx["u"]
        assert partition.root.repr == idx["u"]
        # adding below a claimed root stops immediately above the new block
        leaf_v3 = partition.leaf_of[idx["v3"]]
        set_repr_upward(partition, leaf_v3, idx["v3"])
        assert leaf_v3.repr == idx["v3"]
        assert leaf_v3.parent.repr == idx["v3"]
        assert leaf_v3.parent.parent.repr == idx["v3"]
        assert partition.root.repr == idx["u"]

    def test_fresh_tree_claims_whole_root_path(self):
        phi = seven_point_equivalence()
        partition = build_compact_partition(phi, TABLE_NAMES)
        leaf = partition.leaf_of[3]
        set_repr_upward(partition, leaf, 3)
        block = leaf
        while block is not None:
            assert block.repr == 3
            block = block.parent

    def test_no_repr_below_unclaimed_ancestor(self):
        # the claiming discipline never leaves a claimed block under an
        # unclaimed one
        rng = random.Random(41)
        phi = _random_equivalence(rng, 15)
        partition = build_compact_partition(phi)
        for x in (2, 7, 11):
            block = find_block(partition, x, D("0.5"))
            if block.repr is None:
                set_repr_upward(partition, block, x)
        for block in partition.blocks():
            if block.repr is not None and block.parent is not None:
                assert block.parent.repr is not None
