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
from partition_reference import locate_reference
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
        assert partition.parent == [-1] and partition.blocks()[0].is_crisp
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
            order = partition.order
            blocks = partition.blocks()
            assert blocks == list(zip(range(len(partition.parent)), partition.degrees,
                                      partition.parent, partition.lo, partition.hi))
            children = [[] for _ in blocks]
            for block in blocks[1:]:
                children[block.parent].append(block)
            for block in blocks:
                assert block.is_crisp == (not children[block.id])
                if block.is_crisp:
                    assert block.degree == ONE
                    assert order[block.lo:block.hi]
                else:
                    assert block.degree < ONE
                    assert len(children[block.id]) >= 2
                    child_elems = []
                    for child in children[block.id]:
                        assert child.degree > block.degree
                        child_elems.extend(order[child.lo:child.hi])
                    assert sorted(child_elems) == sorted(order[block.lo:block.hi])
            for x in range(partition.n):
                leaf = blocks[partition.leaf[x]]
                assert leaf.is_crisp and x in order[leaf.lo:leaf.hi]


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


def _elements(partition, b):
    return partition.order[partition.lo[b]:partition.hi[b]]


class TestFindBlock:
    """Lookups through ``_Run.locate``: named blocks of the twin stars, and
    a fresh run per lookup against the linear scan of the whole root path."""

    def test_twin_star_lookups(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        # a full-strength query always lands on the crisp leaf
        leaf = run.locate(idx["v3"], ONE.scaled)
        assert leaf == partition.leaf[idx["v3"]] and partition.blocks()[leaf].is_crisp
        assert _elements(partition, leaf) == [idx["v3"]]
        b = run.locate(idx["v3"], D("0.7").scaled)
        assert partition.degrees[b] == D("0.7")
        assert sorted(names[x] for x in _elements(partition, b)) == [
            "v1", "v1'", "v2", "v2'", "v3"]
        assert run.locate(idx["v1"], D("0.5").scaled) == b

    def test_agrees_with_linear_scan(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 20)
            phi = _random_equivalence(rng, n)
            partition = build_compact_partition(phi)
            for x in range(n):
                for _ in range(5):
                    d = Degree.from_scaled(rng.randint(1, SCALE))
                    assert _Run(partition).locate(x, d.scaled) == locate_reference(partition, x, d)


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
                plain = locate_reference(partition, x, d)
                flat = run.locate(x, d.scaled)
                assert flat == plain
                if run.keeper[flat] < 0:
                    run.claim(flat, x)
                    claims.append((plain, x))
                lo, hi = partition.lo, partition.hi
                first = next(y for c, y in claims if lo[plain] <= lo[c] and hi[c] <= hi[plain])
                assert run.keeper[flat] == first

    def test_flattening_a_leaf_is_a_noop(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        run = _Run(partition)
        leaf = run.locate(2, SCALE)
        assert partition.blocks()[leaf].is_crisp and leaf == partition.leaf[2]
        assert run.locate(2, SCALE) == leaf

    def test_repeated_calls_return_same_class(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        first = run.locate(idx["v3"], D("0.7").scaled)
        second = run.locate(idx["v3"], D("0.7").scaled)
        assert first == second == locate_reference(partition, idx["v3"], D("0.7"))

    def test_later_find_sees_flattened_class_and_repr(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        block = run.locate(idx["v3"], D("0.7").scaled)
        run.claim(block, idx["v3"])
        later = run.locate(idx["v2"], D("0.4").scaled)
        assert later == block == locate_reference(partition, idx["v2"], D("0.4"))
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
        assert inner.up == list(range(len(partition.parent)))
        assert inner.keeper == [-1] * len(partition.parent)
        inner.claim(inner.locate(idx["v2"], ONE.scaled), idx["v2"])
        inner.locate(idx["u"], D("0.2").scaled)
        assert (outer.up, outer.keeper) == outer_state
        fresh = build_compact_partition(Z, names)
        assert partition.render() == fresh.render()
        assert partition.blocks() == fresh.blocks()
        for x in range(len(names)):
            assert _Run(partition).locate(x, D("0.7").scaled) == locate_reference(fresh, x, D("0.7"))


class TestReprPropagation:
    def test_sets_repr_up_to_first_claimed_ancestor(self):
        Z, names = twin_equivalence()
        partition = build_compact_partition(Z, names)
        idx = {name: i for i, name in enumerate(names)}
        run = _Run(partition)
        parent = partition.parent
        leaf_u = partition.leaf[idx["u"]]
        run.claim(leaf_u, idx["u"])
        assert run.keeper[leaf_u] == idx["u"]
        assert run.keeper[0] == idx["u"]  # the root
        # adding below a claimed root stops immediately above the new block
        leaf_v3 = partition.leaf[idx["v3"]]
        run.claim(leaf_v3, idx["v3"])
        assert run.keeper[leaf_v3] == idx["v3"]
        assert run.keeper[parent[leaf_v3]] == idx["v3"]
        assert run.keeper[parent[parent[leaf_v3]]] == idx["v3"]
        assert parent[parent[parent[leaf_v3]]] == 0 and run.keeper[0] == idx["u"]

    def test_fresh_tree_claims_whole_root_path(self):
        phi = seven_point_equivalence()
        partition = build_compact_partition(phi, TABLE_NAMES)
        run = _Run(partition)
        block = partition.leaf[3]
        run.claim(block, 3)
        while block >= 0:
            assert run.keeper[block] == 3
            block = partition.parent[block]

    def test_no_repr_below_unclaimed_ancestor(self):
        # the claiming discipline never leaves a claimed block under an
        # unclaimed one
        rng = random.Random(41)
        phi = _random_equivalence(rng, 15)
        partition = build_compact_partition(phi)
        run = _Run(partition)
        for x in (2, 7, 11):
            block = run.locate(x, D("0.5").scaled)
            assert block == locate_reference(partition, x, D("0.5"))
            if run.keeper[block] < 0:
                run.claim(block, x)
        for block in partition.blocks():
            if run.keeper[block.id] >= 0 and block.parent >= 0:
                assert run.keeper[block.parent] >= 0
