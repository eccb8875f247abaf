import random
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymin import Signature, identity_relation, make_interpretation
from fuzzymin.concepts import (
    And,
    Concept,
    ConceptName,
    ConceptAssertion,
    ConceptParseError,
    Constant,
    DistinctIndividual,
    Exists,
    Forall,
    FULL_FRAGMENT,
    Implies,
    L0_FRAGMENT,
    Nominal,
    Or,
    RoleCompose,
    RoleInverse,
    RoleAssertion,
    RoleName,
    RoleStar,
    RoleTest,
    RoleUnion,
    SameIndividual,
    check_abox,
    check_assertion,
    concept_to_text,
    eval_concept,
    eval_role,
    interpretation_degree_pool,
    parse_concept,
    parse_role,
    preservation_report,
    random_concept,
    role_to_text,
)
from fuzzymin.core import Degree, ONE, SCALE, ZERO
from fuzzymin.minimize import MinimizeParams, approximate_minimize
from dense_reference import concept_vector, role_matrix
from instances import layered_cycles, research_network, twin_stars, two_chains
from strategies import feature_sets, interpretations

D = Degree

SIG = Signature(("A", "B"), ("r", "s"), ("a", "b"), frozenset("IO"))


class TestParser:
    def test_nested_quantifiers(self):
        sig = research_network().signature
        got = parse_concept(
            "exists hasExpertiseIn . exists isRelatedTo . DescriptionLogic", sig)
        assert got == Exists(
            RoleName("hasExpertiseIn"),
            Exists(RoleName("isRelatedTo"), ConceptName("DescriptionLogic")),
        )

    def test_conjunction_with_constant(self):
        got = parse_concept("(A and 0.5)", SIG)
        assert got == And(ConceptName("A"), Constant(D("0.5")))

    def test_role_constructors_and_nominal(self):
        got = parse_concept("exists (r ; s*) . {a}", SIG)
        assert got == Exists(RoleCompose(RoleName("r"), RoleStar(RoleName("s"))), Nominal("a"))

    def test_feature_gating(self):
        plain = Signature(("A",), ("r",), ("a",))
        with pytest.raises(ConceptParseError):
            parse_concept("exists r . {a}", plain)
        with pytest.raises(ConceptParseError):
            parse_concept("exists inv r . A", plain)

    def test_unknown_names_with_position(self):
        with pytest.raises(ConceptParseError) as err:
            parse_concept("A and Q", SIG)
        assert err.value.position == 6

    def test_malformed_degree(self):
        with pytest.raises(ConceptParseError):
            parse_concept("A and 1.5", SIG)

    def test_implication_is_right_associative(self):
        got = parse_concept("A -> B -> 0.5", SIG)
        assert got == Implies(ConceptName("A"), Implies(ConceptName("B"), Constant(D("0.5"))))

    def test_quantifier_body_binds_tighter_than_and(self):
        got = parse_concept("exists r . A and B", SIG)
        assert got == And(Exists(RoleName("r"), ConceptName("A")), ConceptName("B"))

    def test_role_test_forms(self):
        assert parse_role("1?", SIG) == RoleTest(Constant(ONE))
        assert parse_role("(A and B)?", SIG) == RoleTest(And(ConceptName("A"), ConceptName("B")))
        assert parse_role("inv r*", SIG) == RoleInverse(RoleStar(RoleName("r")))
        assert parse_role("(inv r)*", SIG) == RoleStar(RoleInverse(RoleName("r")))

    def test_print_parse_round_trip_on_random_trees(self):
        rng = random.Random(2024)
        for k in range(1000):
            fragment = L0_FRAGMENT if k % 3 == 0 else FULL_FRAGMENT
            concept = random_concept(SIG, frozenset("IO"), fragment, 5, rng)
            text = concept_to_text(concept)
            assert parse_concept(text, SIG) == concept
            assert concept_to_text(parse_concept(text, SIG)) == text

    def test_print_parse_round_trip_on_flat_chains(self):
        # 5000 deep once parsed, past the interpreter's recursion limit
        for op in ("and", "or"):
            text = f" {op} ".join(["A"] * 5000)
            concept = parse_concept(text, SIG)
            assert concept_to_text(concept) == text
            assert concept_to_text(parse_concept(concept_to_text(concept), SIG)) == text


class TestEvalRole:
    def test_star_finds_two_step_path(self):
        interp = research_network()
        star = eval_role(parse_role("collaboratesWith*", interp.signature), interp)
        linh, mirek = interp.element_index("linh"), interp.element_index("mirek")
        assert star.value(linh, mirek) == D("0.3")

    def test_star_against_bounded_path_enumeration(self):
        rng = random.Random(55)
        sig = Signature(("A",), ("r",), ("a",))
        for _ in range(25):
            n = rng.randint(1, 8)
            facts = {}
            for _ in range(rng.randint(0, 2 * n)):
                facts[(f"x{rng.randrange(n)}", f"x{rng.randrange(n)}")] = Degree.from_scaled(
                    rng.randint(1, 5) * (SCALE // 5))
            interp = make_interpretation(
                sig, [f"x{i}" for i in range(n)], {"a": "x0"}, {}, {"r": facts})
            star = eval_role(RoleStar(RoleName("r")), interp)
            # sup over explicit paths of length <= n
            base = interp.role_relation("r")
            best = {(i, i): ONE for i in range(n)}
            frontier = {(i, i): ONE for i in range(n)}
            for _ in range(n):
                step = {}
                for (i, j), d in frontier.items():
                    for k, dk in base.successors(j):
                        nd = min(d, dk)
                        if step.get((i, k), ZERO) < nd:
                            step[(i, k)] = nd
                for key, d in step.items():
                    if best.get(key, ZERO) < d:
                        best[key] = d
                frontier = step
            for i in range(n):
                for j in range(n):
                    assert star.value(i, j) == best.get((i, j), ZERO)

    def test_star_is_idempotent(self):
        interp = layered_cycles()
        once = eval_role(RoleStar(RoleName("r")), interp)
        twice = eval_role(RoleStar(RoleStar(RoleName("r"))), interp)
        assert once == twice

    def test_test_of_one_is_identity(self):
        interp = twin_stars()
        assert eval_role(RoleTest(Constant(ONE)), interp) == identity_relation(interp.n)

    def test_inverse_flips_pairs(self):
        interp = layered_cycles()
        inv = eval_role(RoleInverse(RoleName("r")), interp)
        assert inv.value(interp.element_index("v2"), interp.element_index("u1")) == D("0.4")


class TestEvalConcept:
    def test_research_goldens(self):
        interp = research_network()
        sig = interp.signature
        expectations = [
            ("exists hasExpertiseIn . exists isRelatedTo . DescriptionLogic",
             {"linh": "0.8", "mirek": "0.6", "stefan": "0.6"}, True),
            ("forall hasExpertiseIn . exists isRelatedTo . DescriptionLogic",
             {"linh": "0.6", "mirek": "0.6", "stefan": "0.6"}, False),
            ("exists collaboratesWith* . exists hasExpertiseIn . DescriptionLogic",
             {"linh": "0.8", "mirek": "0.3", "stefan": "0.3"}, True),
        ]
        for text, want, support_is_exact in expectations:
            values = eval_concept(parse_concept(text, sig), interp)
            for name, degree in want.items():
                assert values.value(interp.element_index(name)) == D(degree), text
            if support_is_exact:
                assert set(values.support()) == {interp.element_index(k) for k in want}

    def test_universal_restriction_is_vacuously_one(self):
        # elements without outgoing edges satisfy any universal restriction
        interp = research_network()
        values = eval_concept(
            parse_concept("forall hasExpertiseIn . 0", interp.signature), interp)
        assert values.value(interp.element_index("FDL")) == ONE
        assert values.value(interp.element_index("linh")) == ZERO

    def test_constant_everywhere(self):
        interp = twin_stars()
        values = eval_concept(Constant(D("0.25")), interp)
        assert all(values.value(i) == D("0.25") for i in range(interp.n))

    def test_and_self_is_identity_and_implies_self_is_one(self):
        interp = layered_cycles()
        rng = random.Random(9)
        pool = interpretation_degree_pool(interp)
        for _ in range(50):
            concept = random_concept(interp.signature, frozenset(), FULL_FRAGMENT, 3, rng, pool)
            plain = eval_concept(concept, interp)
            assert eval_concept(And(concept, concept), interp) == plain
            doubled = eval_concept(Implies(concept, concept), interp)
            assert all(doubled.value(i) == ONE for i in range(interp.n))


class TestAssertions:
    def test_zero_threshold_always_met(self):
        interp = twin_stars()
        assertion = ConceptAssertion(ConceptName("A"), "a", ">=", ZERO)
        assert check_assertion(interp, assertion)

    def test_degree_bound_on_research_network(self):
        interp = research_network()
        concept = parse_concept(
            "exists hasExpertiseIn . exists isRelatedTo . DescriptionLogic",
            interp.signature)
        assert check_assertion(interp, ConceptAssertion(concept, "linh", ">=", D("0.8")))
        assert not check_assertion(interp, ConceptAssertion(concept, "linh", ">", D("0.8")))

    def test_identity_assertions_change_under_merging(self):
        interp = twin_stars()
        assert not check_assertion(interp, SameIndividual("a", "b"))
        reduced = approximate_minimize(interp, MinimizeParams(frozenset(), ONE)).reduced
        assert check_assertion(reduced, SameIndividual("a", "b"))
        assert check_assertion(interp, DistinctIndividual("a", "b"))

    def test_role_assertion_on_a_star(self):
        interp = research_network()
        star = parse_role("collaboratesWith*", interp.signature)
        # (subject, target, degree) -> (holds under >=, holds under >)
        expected = {
            ("linh", "mirek", "0.3"): (True, False),
            ("linh", "mirek", "0.5"): (False, False),
            ("mirek", "stefan", "0.5"): (True, False),
            ("stefan", "mirek", "0.5"): (True, True),
            ("stefan", "mirek", "0.6"): (True, False),
            ("linh", "linh", "0.6"): (True, True),
            ("linh", "linh", "1"): (True, False),
        }
        for (subject, target, degree), want in expected.items():
            got = tuple(
                check_assertion(interp, RoleAssertion(star, subject, target, relation, D(degree)))
                for relation in (">=", ">"))
            assert got == want, (subject, target, degree)

    def test_role_assertion_and_abox(self):
        interp = layered_cycles()
        abox = [
            ConceptAssertion(ConceptName("A"), "a", "<", D("0.1")),
            DistinctIndividual("a", "b"),
        ]
        assert check_abox(interp, abox)


class TestRandomConcept:
    def test_restricted_fragment_excludes_disallowed_constructors(self):
        rng = random.Random(77)
        banned = (Or, Forall, RoleUnion, RoleCompose, RoleStar, RoleTest)

        def nodes(c):
            yield c
            for attr in ("left", "right", "body", "concept", "inner"):
                child = getattr(c, attr, None)
                if child is not None:
                    yield from nodes(child)
            role = getattr(c, "role", None)
            if role is not None:
                yield from nodes(role)

        for _ in range(300):
            concept = random_concept(SIG, frozenset("IO"), L0_FRAGMENT, 5, rng)
            assert not any(isinstance(node, banned) for node in nodes(concept))

    def test_depth_zero_is_a_leaf(self):
        rng = random.Random(1)
        for _ in range(50):
            concept = random_concept(SIG, frozenset("IO"), FULL_FRAGMENT, 0, rng)
            assert isinstance(concept, (ConceptName, Constant, Nominal))

    def test_seed_determinism(self):
        a = [random_concept(SIG, frozenset("IO"), FULL_FRAGMENT, 4, 99) for _ in range(20)]
        b = [random_concept(SIG, frozenset("IO"), FULL_FRAGMENT, 4, 99) for _ in range(20)]
        assert a == b


class TestPreservationReport:
    def test_twin_stars_full_preservation(self):
        interp = twin_stars()
        reduced = approximate_minimize(interp, MinimizeParams(frozenset(), ONE)).reduced
        report = preservation_report(interp, reduced, frozenset(), ONE, 500, 4, seed=8)
        assert report.holds
        assert report.min_agreement == ONE

    def test_two_chains_preserved_at_point_eight(self):
        interp = two_chains()
        reduced = approximate_minimize(interp, MinimizeParams(frozenset(), D("0.8"))).reduced
        report = preservation_report(interp, reduced, frozenset(), D("0.8"), 500, 4, seed=9)
        assert report.holds

    def test_self_comparison_is_perfect(self):
        interp = layered_cycles()
        report = preservation_report(interp, interp, frozenset(), ONE, 100, 3, seed=10)
        assert report.min_agreement == ONE

    def test_detects_a_real_difference(self):
        sig = Signature(("A",), ("r",), ("a",))
        one = make_interpretation(sig, ["x"], {"a": "x"}, {"A": {"x": "0.9"}})
        other = make_interpretation(sig, ["x"], {"a": "x"}, {"A": {"x": "0.4"}})
        report = preservation_report(one, other, frozenset(), ONE, 200, 2, seed=11)
        assert not report.holds
        assert report.min_agreement <= D("0.4")


def _subterms(node):
    yield node
    for f in fields(node):
        child = getattr(node, f.name)
        if is_dataclass(child):
            yield from _subterms(child)


class TestDenseReference:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets, st.sampled_from((FULL_FRAGMENT, L0_FRAGMENT)),
           st.integers(0, 2 ** 32))
    def test_sparse_evaluator_matches_dense_reference(self, interp, features, fragment, seed):
        rng = random.Random(seed)
        pool = interpretation_degree_pool(interp)
        n = interp.n
        for _ in range(4):
            concept = random_concept(interp.signature, features, fragment, 4, rng, pool)
            cache = {}
            values = eval_concept(concept, interp)
            assert [values.value(x).scaled for x in range(n)] == concept_vector(concept, interp, cache)
            for node in _subterms(concept):
                if isinstance(node, (RoleName, RoleUnion, RoleCompose, RoleStar, RoleTest, RoleInverse)):
                    rel = eval_role(node, interp)
                    got = [[rel.value(i, j).scaled for j in range(n)] for i in range(n)]
                    assert got == role_matrix(node, interp, cache), role_to_text(node)
