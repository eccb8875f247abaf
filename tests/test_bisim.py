import random

import pytest
from hypothesis import given, settings

from fuzzymin import (
    BasicRole,
    Signature,
    auto_partition,
    bisimilarity_degree,
    build_compact_partition,
    check_bisimulation,
    greatest_auto_bisimulation,
    greatest_bisimulation,
    greatest_bisimulation_reference,
    is_fuzzy_equivalence,
    make_interpretation,
    to_fuzzy_graph,
)
from fuzzymin.core import Degree, FuzzyRelation, ONE, SCALE, ZERO, biresiduum
from fuzzymin.concepts import _eval_concept_arr, interpretation_degree_pool, random_concept
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, approximate_minimize
from instances import alternating_chain, layered_cycles, twin_stars, two_chains
from strategies import feature_sets, interpretation_pairs, interpretations

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
        graph = to_fuzzy_graph(interp, frozenset("O"))
        assert set(graph.vertex_labels) == {"A", "a", "b"}
        marks = [v for v in range(interp.n) if not graph.vertex_label(v, "a").is_zero]
        assert marks == [interp.individual_element("a")]
        assert graph.vertex_label(marks[0], "a") == ONE

    def test_plain_encoding_shape(self):
        interp = twin_stars()
        graph = to_fuzzy_graph(interp, frozenset())
        assert graph.vertex_labels == ("A",)
        assert graph.edge_labels == (BasicRole("r"),)

    def test_inverse_edges_mirror(self):
        interp = layered_cycles()
        graph = to_fuzzy_graph(interp, frozenset("I"))
        inv = graph.edges[BasicRole("r", True)]
        fwd = graph.edges[BasicRole("r")]
        u1, v2 = interp.element_index("u1"), interp.element_index("v2")
        assert fwd.value(u1, v2) == D("0.4")
        assert inv.value(v2, u1) == D("0.4")
        assert inv == fwd.inverse()


class TestGreatestBisimulation:
    def test_twin_stars_plain_partition(self):
        interp = twin_stars()
        result = greatest_auto_bisimulation(interp, frozenset())
        assert is_fuzzy_equivalence(result.Z)
        partition = build_compact_partition(result.Z, interp.domain)
        assert partition.render() == (
            "{{u,u'}_1, {{v1,v1'}_1, {{v2,v2'}_1,{v3}_1}_0.8}_0.7}_0"
        )

    def test_single_element(self):
        sig = Signature(("A",), ("r",), ("a",))
        interp = make_interpretation(sig, ["x"], {"a": "x"})
        result = greatest_auto_bisimulation(interp, frozenset())
        assert result.Z == FuzzyRelation(1, 1, {(0, 0): ONE})

    def test_layered_pairwise_values(self):
        interp = layered_cycles()
        Z = greatest_auto_bisimulation(interp, frozenset()).Z
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
        Z = greatest_auto_bisimulation(interp, frozenset()).Z
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
            fast = greatest_auto_bisimulation(interp, features).Z
            natural = greatest_bisimulation_reference(interp, interp, features)
            rng = random.Random(seed + 1)
            pairs = [(x, y) for x in range(interp.n) for y in range(interp.n)]
            rng.shuffle(pairs)
            shuffled = greatest_bisimulation_reference(interp, interp, features, pairs)
            assert natural == shuffled
            assert fast == natural

    def test_general_engine_matches_auto_path(self):
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
                greatest_auto_bisimulation(interp, frozenset()).Z

    def test_auto_result_is_equivalence(self):
        for seed in range(0, 40, 5):
            interp = small_random_instance(seed)
            assert is_fuzzy_equivalence(greatest_auto_bisimulation(interp, frozenset()).Z)

    def test_degrees_come_from_the_input(self):
        for seed in (2, 9, 21):
            interp = small_random_instance(seed)
            allowed = set(interpretation_degree_pool(interp)) | {ZERO, ONE}
            Z = greatest_auto_bisimulation(interp, frozenset()).Z
            assert {d for _, d in Z.items()} <= allowed

    def test_maximality_single_entry_bumps_fail(self):
        bumped_any = False
        for seed in (1, 6, 13, 28):
            interp = small_random_instance(seed, max_size=8)
            universe = sorted(
                {ZERO, ONE} | set(interpretation_degree_pool(interp)),
            )
            Z = greatest_auto_bisimulation(interp, frozenset()).Z
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


class TestSignatureRefinement:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_auto_bisimulation_matches_reference(self, interp, features):
        reference = greatest_bisimulation_reference(interp, interp, features)
        partition, _ = auto_partition(interp, features)
        assert partition.to_equivalence() == reference
        assert greatest_auto_bisimulation(interp, features).Z == reference

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
        assert all(len(partition.block_elements(b)) == 1 for b in leaves)
        # levels 0.4, 0.7 and 1: at 0.4 the tail's label reaches one more
        # element per round (n - 2 splitting rounds, then one that splits
        # nothing); each higher level adds one round that splits nothing
        assert rounds == n + 1
        assert greatest_auto_bisimulation(interp, frozenset()).iterations == rounds


class TestTheoremSampling:
    def test_bisimulation_bounds_concept_agreement(self):
        # the greatest bisimulation lower-bounds value agreement for every
        # sampled full-language concept, at every pair of elements
        rng = random.Random(400)
        for seed in range(12):
            features = [frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")][seed % 4]
            interp = small_random_instance(seed + 50, max_size=10, features=features)
            Z = greatest_auto_bisimulation(interp, features).Z
            pool = interpretation_degree_pool(interp)
            for _ in range(200):
                concept = random_concept(
                    interp.signature, features, "full", 4, rng, pool)
                values = _eval_concept_arr(concept, interp, {})
                for (x, y), z in Z.items():
                    left = Degree.from_scaled(int(values[x]))
                    right = Degree.from_scaled(int(values[y]))
                    assert z <= biresiduum(left, right)

    def test_restricted_fragment_sampling_upper_bounds(self):
        # sampled infima over the restricted fragment sit above the computed
        # relation at every pair
        rng = random.Random(77)
        for seed in (5, 23):
            interp = small_random_instance(seed, max_size=6)
            Z = greatest_auto_bisimulation(interp, frozenset()).Z
            n = interp.n
            best = [[ONE] * n for _ in range(n)]
            pool = interpretation_degree_pool(interp)
            for _ in range(400):
                concept = random_concept(interp.signature, frozenset(), "L0", 3, rng, pool)
                values = _eval_concept_arr(concept, interp, {})
                for x in range(n):
                    for y in range(n):
                        b = biresiduum(
                            Degree.from_scaled(int(values[x])),
                            Degree.from_scaled(int(values[y])),
                        )
                        if b < best[x][y]:
                            best[x][y] = b
            for x in range(n):
                for y in range(n):
                    assert best[x][y] >= Z.value(x, y)


class TestCheckBisimulation:
    def test_computed_relation_is_clean(self):
        interp = layered_cycles()
        for features in (frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")):
            Z = greatest_auto_bisimulation(interp, features).Z
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
