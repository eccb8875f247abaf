import random
from collections import Counter

import pytest

from fuzzymin import (
    build_compact_partition,
    greatest_bisimulation,
    identity_relation,
    is_fuzzy_equivalence,
    rst_closure,
)
from fuzzymin.core import Degree, FuzzyRelation, ONE, SCALE
from fuzzymin.minimize import _Run
from instances import (
    SEVEN_POINT_RENDERED,
    TABLE_NAMES,
    seven_point_equivalence,
    twin_stars,
)

D = Degree


def twin_equivalence():
    interp = twin_stars()
    return greatest_bisimulation(interp, interp, frozenset()).Z, interp.domain


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


class TestCarrier:
    def test_fewer_names_than_elements_rejected(self):
        with pytest.raises(ValueError, match="2 names for a carrier of 3"):
            build_compact_partition(identity_relation(3), ["a", "b"])

    def test_more_names_than_elements_rejected(self):
        with pytest.raises(ValueError, match="4 names for a carrier of 3"):
            build_compact_partition(identity_relation(3), ["a", "b", "c", "d"])

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_compact_partition(FuzzyRelation(0, 0))


class TestVerdict:
    """The builder rejects exactly the relations that core's independent
    check says are not fuzzy equivalences."""

    def test_rejects_exactly_the_non_equivalences(self):
        rng = random.Random(59)
        seen = Counter()
        for i in range(2100):
            kind = KINDS[i % len(KINDS)]
            phi = kind(rng)
            expected = is_fuzzy_equivalence(phi)
            try:
                build_compact_partition(phi)
            except ValueError:
                built = False
            else:
                built = True
            assert built == expected, (kind.__name__, phi)
            seen[kind.__name__, expected] += 1
        # removing an entry always breaks an equivalence; each edit that can
        # go either way did
        assert not seen["_removed", True]
        for kind in KINDS[3:]:
            assert seen[kind.__name__, True] and seen[kind.__name__, False], seen


def _degree(rng, distinct=4):
    return Degree.from_scaled(rng.randint(1, distinct) * (SCALE // distinct))


def _raw(rng):
    n = rng.randint(1, 8)
    entries = {(rng.randrange(n), rng.randrange(n)): _degree(rng) for _ in range(rng.randint(0, n * n))}
    return FuzzyRelation(n, n, entries)


def _closure(rng):
    return _random_equivalence(rng, rng.randint(1, 12), distinct=4)


def _closure_entries(rng):
    phi = _closure(rng)
    return phi.rows, dict(phi.items())


def _removed(rng):
    n, entries = _closure_entries(rng)
    del entries[rng.choice(sorted(entries))]
    return FuzzyRelation(n, n, entries)


def _changed(rng):
    n, entries = _closure_entries(rng)
    entries[rng.choice(sorted(entries))] = _degree(rng)
    return FuzzyRelation(n, n, entries)


def _added(rng):
    n, entries = _closure_entries(rng)
    entries[rng.randrange(n), rng.randrange(n)] = _degree(rng)
    return FuzzyRelation(n, n, entries)


def _pair_changed(rng):
    # symmetric and reflexive still, so only transitivity can fail
    n, entries = _closure_entries(rng)
    i, j = rng.randrange(n), rng.randrange(n)
    if i != j:
        entries[i, j] = entries[j, i] = _degree(rng)
    return FuzzyRelation(n, n, entries)


def _diagonal_missing(rng):
    n, entries = _closure_entries(rng)
    for x in rng.sample(range(n), rng.randint(0, n)):
        if rng.getrandbits(1):
            del entries[x, x]
        else:
            entries[x, x] = _degree(rng)
    return FuzzyRelation(n, n, entries)


KINDS = (_raw, _closure, _removed, _changed, _added, _pair_changed, _diagonal_missing)


class TestRoundTrip:
    def test_seven_point(self):
        phi = seven_point_equivalence()
        assert build_compact_partition(phi).to_equivalence() == phi

    def test_single_crisp_block(self):
        n = 3
        rel = FuzzyRelation(n, n, {(i, j): ONE for i in range(n) for j in range(n)})
        assert build_compact_partition(rel).to_equivalence() == rel

    def test_twin_stars_lca_degrees(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        back = partition.to_equivalence()
        idx = {name: i for i, name in enumerate(names)}
        assert back.value(idx["v2"], idx["v3"]) == D("0.8")
        assert back.value(idx["v1"], idx["v3"]) == D("0.7")
        assert back == Z

    def test_random_round_trips(self):
        rng = random.Random(17)
        for _ in range(200):
            phi = _random_equivalence(rng, rng.randint(1, 40), distinct=8)
            assert build_compact_partition(phi).to_equivalence() == phi


def _random_equivalence(rng, n, distinct=6):
    entries = {}
    for _ in range(rng.randint(0, 3 * n)):
        entries[(rng.randrange(n), rng.randrange(n))] = Degree.from_scaled(
            rng.randint(1, distinct) * (SCALE // distinct)
        )
    return rst_closure(FuzzyRelation(n, n, entries))


def _scan(partition, x, d):
    """Linear scan of x's root path for the block with the least degree >= d."""
    path = []
    block = partition.leaf_of[x]
    while block is not None:
        path.append(block)
        block = block.parent
    return min((b for b in path if b.degree >= d), key=lambda b: b.degree.scaled)


class TestFindBlock:
    def test_twin_star_lookups(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        b = partition.find_block(idx["v3"], D("0.7"))
        assert b.degree == D("0.7")
        assert sorted(names[x] for x in partition.block_elements(b)) == [
            "v1", "v1'", "v2", "v2'", "v3"]
        # a full-strength query always lands on the crisp leaf
        leaf = partition.find_block(idx["v3"], ONE)
        assert leaf.is_crisp and partition.block_elements(leaf) == [idx["v3"]]
        assert partition.find_block(idx["v1"], D("0.5")) is b

    def test_agrees_with_linear_scan(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 20)
            phi = _random_equivalence(rng, n)
            partition = build_compact_partition(phi)
            for x in range(n):
                for _ in range(5):
                    d = Degree.from_scaled(rng.randint(1, SCALE))
                    assert partition.find_block(x, d) is _scan(partition, x, d)

    def test_rejects_zero_threshold(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        with pytest.raises(ValueError):
            partition.find_block(0, D(0))


class TestFlattening:
    """The minimizer's run object: ``locate`` with non-increasing thresholds
    against the read-only tree walk, ``claim`` against the first claim made
    inside each block's subtree."""

    def test_flatten_matches_plain_find(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 20)
            phi = _random_equivalence(rng, n)
            partition = build_compact_partition(phi)
            run = _Run(partition)
            claims = []
            thresholds = sorted(
                (Degree.from_scaled(rng.randint(1, SCALE)) for _ in range(8)),
                reverse=True,
            )
            for d in thresholds:
                x = rng.randrange(n)
                plain = partition.find_block(x, d)
                flat = run.locate(x, d.scaled)
                assert flat == plain.id == _scan(partition, x, d).id
                if run.keeper[flat] < 0:
                    run.claim(flat, x)
                    claims.append((plain, x))
                first = next(y for c, y in claims if plain.lo <= c.lo and c.hi <= plain.hi)
                assert run.keeper[flat] == first

    def test_flattening_a_leaf_is_a_noop(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        run = _Run(partition)
        leaf = run.locate(2, SCALE)
        assert list(partition.blocks())[leaf].is_crisp and leaf == partition.leaf_of[2].id
        assert run.locate(2, SCALE) == leaf

    def test_repeated_calls_return_same_class(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        first = run.locate(idx["v3"], D("0.7").scaled)
        second = run.locate(idx["v3"], D("0.7").scaled)
        assert first == second == partition.find_block(idx["v3"], D("0.7")).id

    def test_later_find_sees_flattened_class_and_repr(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        block = run.locate(idx["v3"], D("0.7").scaled)
        run.claim(block, idx["v3"])
        later = run.locate(idx["v2"], D("0.4").scaled)
        assert later == block == partition.find_block(idx["v2"], D("0.4")).id
        assert run.keeper[later] == idx["v3"]


class TestResetOverlay:
    def test_reset_restores_a_fresh_overlay(self):
        # every run starts from fresh state, and a run leaves the shared tree
        # and any other run's state as they were
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        outer = _Run(partition)
        block = outer.locate(idx["v3"], D("0.7").scaled)
        outer.claim(block, idx["v3"])
        outer.locate(idx["u"], D("0.4").scaled)
        outer_state = (list(outer.up), list(outer.keeper))
        inner = _Run(partition)
        assert inner.up == list(range(partition.block_count()))
        assert inner.keeper == [-1] * partition.block_count()
        inner.claim(inner.locate(idx["v2"], ONE.scaled), idx["v2"])
        inner.locate(idx["u"], D("0.2").scaled)
        assert (outer.up, outer.keeper) == outer_state
        fresh = build_compact_partition(Z, names)
        assert partition.render() == fresh.render()
        assert [(b.id, b.degree, b.lo, b.hi) for b in partition.blocks()] == [
            (b.id, b.degree, b.lo, b.hi) for b in fresh.blocks()]
        for x in range(len(names)):
            assert _Run(partition).locate(x, D("0.7").scaled) == fresh.find_block(x, D("0.7")).id


class TestReprPropagation:
    def test_sets_repr_up_to_first_claimed_ancestor(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        leaf_u = partition.leaf_of[idx["u"]]
        run.claim(leaf_u.id, idx["u"])
        assert run.keeper[leaf_u.id] == idx["u"]
        assert run.keeper[partition.root.id] == idx["u"]
        # adding below a claimed root stops immediately above the new block
        leaf_v3 = partition.leaf_of[idx["v3"]]
        run.claim(leaf_v3.id, idx["v3"])
        assert run.keeper[leaf_v3.id] == idx["v3"]
        assert run.keeper[leaf_v3.parent.id] == idx["v3"]
        assert run.keeper[leaf_v3.parent.parent.id] == idx["v3"]
        assert run.keeper[partition.root.id] == idx["u"]

    def test_fresh_tree_claims_whole_root_path(self):
        phi = seven_point_equivalence()
        partition = build_compact_partition(phi, TABLE_NAMES)
        run = _Run(partition)
        leaf = partition.leaf_of[3]
        run.claim(leaf.id, 3)
        block = leaf
        while block is not None:
            assert run.keeper[block.id] == 3
            block = block.parent

    def test_no_repr_below_unclaimed_ancestor(self):
        # the claiming discipline never leaves a claimed block under an
        # unclaimed one
        rng = random.Random(41)
        phi = _random_equivalence(rng, 15)
        partition = build_compact_partition(phi)
        run = _Run(partition)
        for x in (2, 7, 11):
            block = run.locate(x, D("0.5").scaled)
            assert block == partition.find_block(x, D("0.5")).id
            if run.keeper[block] < 0:
                run.claim(block, x)
        for block in partition.blocks():
            if run.keeper[block.id] >= 0 and block.parent is not None:
                assert run.keeper[block.parent.id] >= 0
