import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from fuzzymin import (
    BasicRole,
    Signature,
    auto_partition,
    basic_roles,
    bisimilarity_degree,
    build_compact_partition,
    check_bisimulation,
    greatest_bisimulation,
    is_fuzzy_equivalence,
    make_interpretation,
    to_fuzzy_graph,
)
from fuzzymin.bisim import _encode, _refine
from fuzzymin.core import Degree, FuzzyRelation, ONE, SCALE, ZERO, biresiduum
from fuzzymin.concepts import eval_concept, interpretation_degree_pool, random_concept
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, approximate_minimize, construct_witness
from bisim_reference import cuts_from_log, encode_reference, greatest_bisimulation_reference
from instances import alternating_chain, layered_cycles, research_network, twin_stars, two_chains
from strategies import FEATURE_SETS, feature_sets, interpretation_pairs, interpretations

D = Degree


def small_random_instance(seed, max_components=3, max_size=12, features=frozenset()):
    rng = random.Random(seed)
    params = GeneratorParams(
        k=rng.randint(1, max_components),
        n_per=rng.randint(1, max_size // 2),
        m_per=0,
        o_per=1,
        p_per=0,
        l=rng.randint(1, 4),
        sCN=rng.randint(1, 2),
        sRN=rng.randint(1, 2),
        acyclic=bool(rng.getrandbits(1)),
        withI="I" in features,
        withO="O" in features,
        seed=seed,
    )
    n, slots = params.n_per, params.n_per * params.n_per
    m_cap = slots if not params.acyclic else n * (n - 1) // 2
    params = GeneratorParams(
        params.k, n, rng.randint(0, min(2 * n, params.sRN * m_cap)),
        params.o_per, rng.randint(0, min(n, params.sCN * n)), params.l,
        params.sCN, params.sRN, params.acyclic, params.withI, params.withO, seed,
    )
    return generate(params)


class TestGraphEncoding:
    def test_nominal_labels_single_out(self):
        interp = twin_stars()
        label_sets, _ = to_fuzzy_graph(interp, frozenset("O"))
        # the concept A, then one indicator per individual name, a and b
        assert len(label_sets) == 3
        assert label_sets[1] == {interp.individual_element("a"): SCALE}
        assert label_sets[2] == {interp.individual_element("b"): SCALE}

    def test_plain_encoding_shape(self):
        interp = twin_stars()
        label_sets, role_rows = to_fuzzy_graph(interp, frozenset())
        assert label_sets == [interp.concept_set("A")._entries]
        assert role_rows == [interp.basic_role_relation(BasicRole("r"))._fwd]

    def test_inverse_edges_mirror(self):
        interp = layered_cycles()
        _, role_rows = to_fuzzy_graph(interp, frozenset("I"))
        roles = basic_roles(interp.signature, frozenset("I"))
        fwd, inv = (role_rows[roles.index(BasicRole("r", inverse))] for inverse in (False, True))
        u1, v2 = interp.element_index("u1"), interp.element_index("v2")
        assert fwd[u1][v2] == D("0.4").scaled
        assert inv[v2][u1] == D("0.4").scaled
        assert inv == interp.role_relation("r").inverse()._fwd

    @pytest.mark.parametrize("build", [twin_stars, layered_cycles, research_network])
    @pytest.mark.parametrize("features", FEATURE_SETS)
    def test_sets_and_rows_are_the_interpretations_own(self, build, features):
        interp = build()
        sig = interp.signature
        # every name is interpreted, so no empty set or relation is made up
        assert set(interp.concepts) == set(sig.concept_names)
        assert set(interp.roles) == set(sig.role_names)
        label_sets, role_rows = to_fuzzy_graph(interp, features)
        for entries, c in zip(label_sets, sig.concept_names):
            assert entries is interp.concept_set(c)._entries
        roles = basic_roles(sig, features)
        assert len(role_rows) == len(roles)
        for rows, role in zip(role_rows, roles):
            assert rows is interp.basic_role_relation(role)._fwd

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs())
    def test_full_encoding_matches_the_sorted_items(self, case):
        # _encode reads the rows unsorted; with every vertex a seed, every
        # vertex's lists must still be the ones the sorted items() give,
        # and the numbering must be the identity
        first, second, features = case
        n = first.n + second.n
        labels, out, nroles, index = _encode([first, second], features, range(n))
        assert (labels, out, nroles) == encode_reference([first, second], features)
        assert index == list(range(n))


class TestGreatestBisimulation:
    def test_twin_stars_plain_partition(self):
        interp = twin_stars()
        result = greatest_bisimulation(interp, interp, frozenset())
        assert is_fuzzy_equivalence(result.Z)
        partition = build_compact_partition(result.Z, interp.domain)
        assert partition.render() == (
            "{{u,u'}_1, {{v1,v1'}_1, {{v2,v2'}_1,{v3}_1}_0.8}_0.7}_0"
        )

    def test_single_element(self):
        sig = Signature(("A",), ("r",), ("a",))
        interp = make_interpretation(sig, ["x"], {"a": "x"})
        result = greatest_bisimulation(interp, interp, frozenset())
        assert result.Z == FuzzyRelation(1, 1, {(0, 0): ONE})

    def test_layered_pairwise_values(self):
        interp = layered_cycles()
        Z = greatest_bisimulation(interp, interp, frozenset()).Z
        idx = interp.element_index
        assert Z.value(idx("u1"), idx("u2")) == ONE
        for a, b in (("v1", "v2"), ("v1", "v3"), ("v2", "v3")):
            assert Z.value(idx(a), idx(b)) == D("0.5")
        assert Z.value(idx("w1"), idx("w2")) == D("0.8")
        assert Z.value(idx("u1"), idx("v1")) == ZERO
        assert Z.value(idx("v2"), idx("w1")) == ZERO

    def test_twin_stars_nominal_partition(self):
        interp = twin_stars()
        partition, _ = auto_partition(interp, frozenset("O"))
        assert partition.render() == (
            "{{u}_1, {u'}_1, {{v1,v1'}_1, {{v2,v2'}_1,{v3}_1}_0.8}_0.7}_0"
        )

    def test_twin_stars_both_features_partition(self):
        interp = twin_stars()
        partition, _ = auto_partition(interp, frozenset("IO"))
        assert partition.render() == (
            "{{u}_1, {u'}_1, {{{v1}_1,{v3}_1}_0.5, {v2}_1}_0.4, {{v1'}_1,{v2'}_1}_0.6}_0"
        )

    def test_layered_inverse_partition(self):
        interp = layered_cycles()
        partition, _ = auto_partition(interp, frozenset("I"))
        assert partition.render() == (
            "{{{u1}_1,{u2}_1}_0.3, {{v1}_1,{v2}_1,{v3}_1}_0.3, {{w1}_1,{w2}_1}_0.3}_0"
        )

    def test_all_distinct_labels_give_identity(self):
        sig = Signature(("A",), ("r",), ("a",))
        interp = make_interpretation(
            sig, ["x", "y", "z"], {"a": "x"},
            {"A": {"x": "0.2", "y": "0.4", "z": "0.6"}},
        )
        Z = greatest_bisimulation(interp, interp, frozenset()).Z
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert Z.value(i, j) == biresiduum(
                        interp.concept_set("A").value(i),
                        interp.concept_set("A").value(j),
                    )
        assert all(Z.value(i, i) == ONE for i in range(3))

    def test_signature_mismatch_rejected(self):
        sig_a = Signature(("A",), ("r",), ("a",))
        sig_b = Signature(("B",), ("r",), ("a",))
        one = make_interpretation(sig_a, ["x"], {"a": "x"})
        two = make_interpretation(sig_b, ["x"], {"a": "x"})
        with pytest.raises(ValueError):
            greatest_bisimulation(one, two, frozenset())


class TestEngineAgreement:
    def test_fast_engine_matches_reference_and_is_order_independent(self):
        for seed in range(100):
            features = [frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")][seed % 4]
            interp = small_random_instance(seed, features=features)
            fast = greatest_bisimulation(interp, interp, features).Z
            natural = greatest_bisimulation_reference(interp, interp, features)
            rng = random.Random(seed + 1)
            pairs = [(x, y) for x in range(interp.n) for y in range(interp.n)]
            rng.shuffle(pairs)
            shuffled = greatest_bisimulation_reference(interp, interp, features, pairs)
            assert natural == shuffled
            assert fast == natural

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_general_engine_matches_auto_path(self, interp, features):
        # an interpretation against itself takes the union path
        partition, rounds = auto_partition(interp, features)
        result = greatest_bisimulation(interp, interp, features)
        assert result.Z == partition.to_equivalence()
        assert result.iterations == rounds

    def test_copy_matches_itself(self):
        for seed in (3, 17, 40):
            interp = small_random_instance(seed)
            twin = make_interpretation(
                interp.signature, interp.domain,
                {a: interp.element_name(i) for a, i in interp.individuals.items()},
                {c: {interp.element_name(i): d for i, d in fs.items()}
                 for c, fs in interp.concepts.items()},
                {r: {(interp.element_name(x), interp.element_name(y)): d
                     for (x, y), d in rel.items()}
                 for r, rel in interp.roles.items()},
            )
            assert greatest_bisimulation(interp, twin, frozenset()).Z == \
                greatest_bisimulation(interp, interp, frozenset()).Z

    def test_auto_result_is_equivalence(self):
        for seed in range(0, 40, 5):
            interp = small_random_instance(seed)
            assert is_fuzzy_equivalence(greatest_bisimulation(interp, interp, frozenset()).Z)

    def test_degrees_come_from_the_input(self):
        for seed in (2, 9, 21):
            interp = small_random_instance(seed)
            allowed = set(interpretation_degree_pool(interp)) | {ZERO, ONE}
            Z = greatest_bisimulation(interp, interp, frozenset()).Z
            assert {d for _, d in Z.items()} <= allowed

    def test_maximality_single_entry_bumps_fail(self):
        bumped_any = False
        for seed in (1, 6, 13, 28):
            interp = small_random_instance(seed, max_size=8)
            universe = sorted(
                {ZERO, ONE} | set(interpretation_degree_pool(interp)),
            )
            Z = greatest_bisimulation(interp, interp, frozenset()).Z
            entries = dict(Z.items())
            n = interp.n
            for x in range(n):
                for y in range(n):
                    cur = Z.value(x, y)
                    if cur == ONE:
                        continue
                    nxt = next(d for d in universe if d > cur)
                    trial = dict(entries)
                    trial[(x, y)] = nxt
                    bumped = FuzzyRelation(n, n, trial)
                    assert check_bisimulation(bumped, interp, interp, frozenset()), (
                        f"bumping ({x},{y}) to {nxt} went undetected"
                    )
                    bumped_any = True
        assert bumped_any


def refine_reference(labels, out, nroles):
    """The engine's levels, cuts and rounds by full recomputation: every
    round re-signs every vertex of every class of more than one."""
    levels = sorted({SCALE} | {d for lab in labels for _, d in lab}
                    | {d for edges in out for d, _, _ in edges})

    def split(block, keys):
        ids = {}
        return [ids.setdefault((b, k), len(ids)) for b, k in zip(block, keys)], len(ids)

    block, count = [0] * len(labels), min(len(labels), 1)
    cuts, rounds = [], 0
    for d in levels:
        block, count = split(block, [tuple((t, v if v < d else SCALE) for t, v in lab)
                                     for lab in labels])
        live = [[(r, y) for e, r, y in edges if e >= d] for edges in out]
        while True:
            rounds += 1
            sizes, before = Counter(block), count
            block, count = split(block, [
                frozenset(r + nroles * block[y] for r, y in succ) if sizes[b] > 1 else None
                for b, succ in zip(block, live)
            ])
            if count == before:
                break
        cuts.append(block)
    return [Degree.from_scaled(d) for d in levels], cuts, rounds


def first_occurrence(cut):
    ids = {}
    return [ids.setdefault(c, len(ids)) for c in cut]


def assert_engine_matches_reference(flat):
    log, rounds = _refine(*flat)
    levels, cuts = log.levels, cuts_from_log(log)
    ref_levels, ref_cuts, ref_rounds = refine_reference(*flat)
    assert levels == ref_levels
    assert [first_occurrence(c) for c in cuts] == [first_occurrence(c) for c in ref_cuts]
    assert rounds == ref_rounds


class TestSignatureRefinement:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_auto_bisimulation_matches_reference(self, interp, features):
        reference = greatest_bisimulation_reference(interp, interp, features)
        partition, _ = auto_partition(interp, features)
        assert partition.to_equivalence() == reference
        assert greatest_bisimulation(interp, interp, features).Z == reference

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs())
    def test_disjoint_union_pair_relation_matches_reference(self, case):
        first, second, features = case
        reference = greatest_bisimulation_reference(first, second, features)
        assert greatest_bisimulation(first, second, features).Z == reference
        assert bisimilarity_degree(first, second, features) == min(
            reference.value(first.individual_element(a), second.individual_element(a))
            for a in first.signature.individual_names
        )

    def test_tree_equals_tree_of_its_equivalence(self):
        # the sparse-relation builder rebuilds the engine's tree block for block
        for seed in range(40):
            features = [frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")][seed % 4]
            interp = small_random_instance(seed, features=features)
            partition, _ = auto_partition(interp, features)
            again = build_compact_partition(partition.to_equivalence(), interp.domain)
            assert again.render() == partition.render()
            assert again.order == partition.order
            assert [(b.id, b.degree, b.lo, b.hi) for b in again.blocks()] == [
                (b.id, b.degree, b.lo, b.hi) for b in partition.blocks()]

    def test_alternating_chain_rounds(self):
        n = 60
        interp = alternating_chain(n)
        partition, rounds = auto_partition(interp, frozenset())
        leaves = [b for b in partition.blocks() if b.is_crisp]
        assert len(leaves) == n
        assert all(b.hi - b.lo == 1 for b in leaves)
        # levels 0.4, 0.7 and 1: at 0.4 the tail's label reaches one more
        # element per round (n - 2 splitting rounds, then one that splits
        # nothing); each higher level adds one round that splits nothing
        assert rounds == n + 1
        assert greatest_bisimulation(interp, interp, frozenset()).iterations == rounds

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_worklist_engine_matches_full_recompute(self, interp, features):
        assert_engine_matches_reference(_encode([interp], features, range(interp.n))[:3])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(interpretation_pairs())
    def test_worklist_engine_matches_full_recompute_on_unions(self, case):
        first, second, features = case
        assert_engine_matches_reference(_encode([first, second], features, range(first.n + second.n))[:3])

    def test_dead_edge_source_with_unchanged_signature_keeps_its_class(self):
        # entering level 0.8, the A labels of u and v drop below it and split
        # them off w; u -> t1 (0.5) stops being live, but u still reaches
        # t1's class through u -> t2, so u stays with v up to level 1
        sig = Signature(("A",), ("r",), ("a",))
        interp = make_interpretation(
            sig, ["u", "v", "w", "t1", "t2"], {"a": "w"},
            {"A": {"u": "0.5", "v": "0.5", "w": 1}},
            {"r": {("u", "t1"): "0.5", ("u", "t2"): 1, ("v", "t2"): 1, ("w", "t2"): "0.8"}},
        )
        assert_engine_matches_reference(_encode([interp], frozenset(), range(interp.n))[:3])
        partition, _ = auto_partition(interp, frozenset())
        u, v = interp.element_index("u"), interp.element_index("v")
        assert partition.to_equivalence().value(u, v) == ONE

    def test_long_alternating_chain_rounds(self):
        # a full recompute per round makes this quadratic (seconds); the
        # worklist engine re-signs one vertex per round
        n = 3000
        partition, rounds = auto_partition(alternating_chain(n), frozenset())
        leaves = [b for b in partition.blocks() if b.is_crisp]
        assert len(leaves) == n
        assert all(b.hi - b.lo == 1 for b in leaves)
        assert rounds == n + 1


class TestTheoremSampling:
    def test_bisimulation_bounds_concept_agreement(self):
        # the greatest bisimulation lower-bounds value agreement for every
        # sampled full-language concept, at every pair of elements
        rng = random.Random(400)
        for seed in range(12):
            features = [frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")][seed % 4]
            interp = small_random_instance(seed + 50, max_size=10, features=features)
            Z = greatest_bisimulation(interp, interp, features).Z
            pool = interpretation_degree_pool(interp)
            for _ in range(200):
                concept = random_concept(
                    interp.signature, features, "full", 4, rng, pool)
                values = eval_concept(concept, interp)
                for (x, y), z in Z.items():
                    assert z <= biresiduum(values.value(x), values.value(y))

    def test_restricted_fragment_sampling_upper_bounds(self):
        # sampled infima over the restricted fragment sit above the computed
        # relation at every pair
        rng = random.Random(77)
        for seed in (5, 23):
            interp = small_random_instance(seed, max_size=6)
            Z = greatest_bisimulation(interp, interp, frozenset()).Z
            n = interp.n
            best = [[ONE] * n for _ in range(n)]
            pool = interpretation_degree_pool(interp)
            for _ in range(400):
                concept = random_concept(interp.signature, frozenset(), "L0", 3, rng, pool)
                values = eval_concept(concept, interp)
                for x in range(n):
                    for y in range(n):
                        b = biresiduum(values.value(x), values.value(y))
                        if b < best[x][y]:
                            best[x][y] = b
            for x in range(n):
                for y in range(n):
                    assert best[x][y] >= Z.value(x, y)


class TestCheckBisimulation:
    def test_computed_relation_is_clean(self):
        interp = layered_cycles()
        for features in (frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")):
            Z = greatest_bisimulation(interp, interp, features).Z
            assert check_bisimulation(Z, interp, interp, features) == []

    def test_all_ones_relation_reports_label_violation(self):
        interp = twin_stars()
        n = interp.n
        all_ones = FuzzyRelation(n, n, {(i, j): ONE for i in range(n) for j in range(n)})
        violations = check_bisimulation(all_ones, interp, interp, frozenset())
        assert violations
        v1, v3 = interp.element_index("v1"), interp.element_index("v3")
        assert any(
            v.condition == 1 and {v.x, v.x_prime} == {"v1", "v3"} for v in violations
        )

    def test_listed_pair_restriction_still_checks_clean(self):
        interp = twin_stars()
        idx = interp.element_index
        listed = {
            ("u", "u'"): ONE, ("v1", "v1'"): ONE, ("v1", "v2'"): D("0.7"),
            ("v2", "v1'"): D("0.7"), ("v2", "v2'"): ONE, ("v3", "v1'"): D("0.7"),
            ("v3", "v2'"): D("0.8"),
        }
        entries = {}
        for (a, b), d in listed.items():
            entries[(idx(a), idx(b))] = d
            entries[(idx(b), idx(a))] = d
        for i in range(interp.n):
            entries[(i, i)] = ONE
        restricted = FuzzyRelation(interp.n, interp.n, entries)
        assert check_bisimulation(restricted, interp, interp, frozenset()) == []

    def test_nominal_condition_flags_misplaced_pair(self):
        interp = twin_stars()
        idx = interp.element_index
        entries = {(i, i): ONE for i in range(interp.n)}
        entries[(idx("u"), idx("u'"))] = D("0.5")
        Z = FuzzyRelation(interp.n, interp.n, entries)
        violations = check_bisimulation(Z, interp, interp, frozenset("O"))
        assert any(v.condition == 4 for v in violations)

    def test_raised_witness_entry_fails_a_transfer_condition(self):
        # at 0.8 the reduction keeps u1 -> v1 -> w1 with degree 0.8, and the
        # witness relates u2 (u2 -> v2 has degree 0.9) to u1 with degree 0.8;
        # raised to 1, the pair needs an r-successor of u1 related to v2 by
        # 0.9, and the best there is reaches 0.8
        interp = two_chains()
        params = MinimizeParams(frozenset(), D("0.8"))
        result = approximate_minimize(interp, params)
        reduced = result.reduced
        witness = construct_witness(interp, result, params)
        assert check_bisimulation(witness, interp, reduced, frozenset()) == []
        u2, u1 = interp.element_index("u2"), reduced.element_index("u1")
        assert witness.value(u2, u1) == D("0.8")
        entries = dict(witness.items())
        entries[u2, u1] = ONE
        raised = FuzzyRelation(witness.rows, witness.cols, entries)
        forward = check_bisimulation(raised, interp, reduced, frozenset())
        assert [(v.condition, v.x, v.x_prime, v.role, v.witness) for v in forward] == [
            (2, "u2", "u1", BasicRole("r"), "v2")]
        assert forward[0].detail == "forward transfer over r to v2: 0.9 > 0.8"
        # the same pair seen from the other side fails the backward condition
        backward = check_bisimulation(raised.inverse(), reduced, interp, frozenset())
        assert [(v.condition, v.x, v.x_prime, v.role, v.witness) for v in backward] == [
            (3, "u1", "u2", BasicRole("r"), "v2")]


class TestBisimilarityDegree:
    def test_self_is_one(self):
        interp = layered_cycles()
        assert bisimilarity_degree(interp, interp, frozenset()) == ONE

    def test_reduction_is_fully_bisimilar_at_threshold_one(self):
        interp = twin_stars()
        result = approximate_minimize(interp, MinimizeParams(frozenset(), ONE))
        assert bisimilarity_degree(interp, result.reduced, frozenset()) == ONE

    def test_two_chains_point_eight_reduction(self):
        interp = two_chains()
        result = approximate_minimize(interp, MinimizeParams(frozenset(), D("0.8")))
        assert bisimilarity_degree(interp, result.reduced, frozenset()) >= D("0.8")


def engine_calls(first, second, features):
    """Each engine entry on the pair, as thunks; the relation handed to
    ``build_compact_partition`` is built here, before any of them runs."""
    phi = auto_partition(first, features)[0].to_equivalence()
    return [
        lambda: auto_partition(first, features),
        lambda: greatest_bisimulation(first, second, features),
        lambda: bisimilarity_degree(first, second, features),
        lambda: build_compact_partition(phi, first.domain),
    ]


def garbage_left_by(calls):
    """Objects the cyclic collector finds unreachable after each of ``calls``
    has run, with the collector off so that no pass during them takes any."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        results = [call() for call in calls]
        found = gc.collect()
        del results
        return found
    finally:
        if was_on:
            gc.enable()


class TestCollectorPause:
    """The engine entries run with the collector paused; that is safe only
    because they build no reference cycles."""

    NAMED = (twin_stars, layered_cycles, two_chains, research_network)

    def test_named_instances_leave_no_garbage(self):
        for build in self.NAMED:
            for features in FEATURE_SETS:
                calls = engine_calls(build(), build(), features)
                assert garbage_left_by(calls) == 0, (build.__name__, sorted(features))

    @settings(max_examples=30, deadline=None)
    @given(interpretation_pairs())
    def test_generated_pairs_leave_no_garbage(self, case):
        assert garbage_left_by(engine_calls(*case)) == 0

    def test_collector_state_is_restored(self):
        interp, other = layered_cycles(), two_chains()
        non_equivalence = FuzzyRelation(2, 2, {(0, 0): ONE, (0, 1): D("0.5"), (1, 1): ONE})
        returning = engine_calls(interp, layered_cycles(), frozenset("IO"))
        raising = [
            (lambda: bisimilarity_degree(interp, other), "different signatures"),
            (lambda: greatest_bisimulation(interp, other), "different signatures"),
            (lambda: check_bisimulation(FuzzyRelation(interp.n, other.n, {}), interp, other), "different signatures"),
            (lambda: build_compact_partition(non_equivalence), "not a fuzzy equivalence"),
        ]
        # the network's individuals have no element in the stars, and the
        # feature X is unknown: the signature check must still come first
        network, stars = research_network(), twin_stars()
        for features in (None, frozenset("X")):
            raising += [
                (lambda f=features: bisimilarity_degree(network, stars, f), "different signatures"),
                (lambda f=features: greatest_bisimulation(network, stars, f), "different signatures"),
                (lambda f=features: check_bisimulation(FuzzyRelation(network.n, stars.n, {}), network, stars, f),
                 "different signatures"),
            ]
        was_on = gc.isenabled()
        try:
            for on in (True, False):
                for call in returning:
                    (gc.enable if on else gc.disable)()
                    call()
                    assert gc.isenabled() is on
                for call, message in raising:
                    (gc.enable if on else gc.disable)()
                    with pytest.raises(ValueError, match=message):
                        call()
                    assert gc.isenabled() is on
        finally:
            (gc.enable if was_on else gc.disable)()

    def test_no_pass_starts_inside_the_degree(self):
        # the gamma-sweep workload's shape and seed, reduced at one gamma
        interp = generate(GeneratorParams(4, 125, 1000, 5, 25, 6, 3, 2, True, False, True, 7700))
        features = interp.signature.features
        reduced = approximate_minimize(interp, MinimizeParams(features, D("0.714285714"))).reduced
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        def degree_passes():
            passes.clear()
            gc.callbacks.append(count)
            try:
                bisimilarity_degree(interp, reduced, features)
            finally:
                gc.callbacks.remove(count)
            return list(passes)

        assert gc.isenabled()
        gc.collect()
        # gc.collect() empties the interpreter's free lists, and a tuple freed
        # into one does not lower the collector's allocation count, so the
        # first call ends the pause above the young threshold: one young pass
        # over what survives the call (unpaused, it runs about 30)
        assert degree_passes() in ([], [0])
        # with the free lists filled, as in any running program, none at all
        assert degree_passes() == []
