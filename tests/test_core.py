import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymin.core import (
    Degree,
    FuzzyRelation,
    FuzzySet,
    ONE,
    SCALE,
    ZERO,
    biresiduum,
    compose,
    identity_relation,
    inf_all,
    is_fuzzy_equivalence,
    residuum,
    rst_closure,
    tnorm,
)
from dense_reference import rst_closure_reference
from instances import seven_point_equivalence

D = Degree

degrees = st.integers(0, 1000).map(lambda k: Degree.from_scaled(k * (SCALE // 1000)))


class TestDegree:
    def test_parse_and_render(self):
        assert str(D("0.4")) == "0.4"
        assert str(D(1)) == "1"
        assert str(D(0)) == "0"
        assert str(D("0.125")) == "0.125"
        assert str(D("0.500")) == "0.5"
        assert D("0.4") == D(0.4) == D("0.400000000")

    def test_rejects_bad_literals(self):
        for bad in ("1.5", "-0.1", "0.1234567891", "x", ""):
            with pytest.raises(ValueError):
                D(bad)

    def test_rejects_digits_outside_ascii(self):
        # int() reads any Unicode decimal digit, so the literal must be ASCII
        for bad in ("\u0660.\u0665", "\uff10.\uff15", "0.\u0665", "\uff11"):
            with pytest.raises(ValueError, match="malformed degree literal"):
                D(bad)

    def test_rejects_floats_that_are_not_nine_digit_decimals(self):
        for bad in (1e-12, 0.1234567891, 1.0000000001, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                D(bad)

    def test_accepts_floats_that_are_nine_digit_decimals(self):
        assert D(0.3) == D("0.3")
        assert D(0.142857142) == D("0.142857142")
        assert D(1.0) == ONE

    def test_ordering_is_exact(self):
        assert D("0.1") < D("0.100000001")
        assert max(D("0.3"), D("0.7")) == D("0.7")
        assert sorted([D(1), D(0), D("0.5")]) == [D(0), D("0.5"), D(1)]


class TestAlgebra:
    def test_tnorm(self):
        assert tnorm(D("0.4"), D("0.7")) == D("0.4")
        assert tnorm(ONE, D("0.33")) == D("0.33")
        assert tnorm(ZERO, D("0.9")) == ZERO

    def test_residuum(self):
        assert residuum(D("0.5"), D("0.7")) == ONE
        assert residuum(D("0.9"), D("0.4")) == D("0.4")
        assert residuum(D("0.6"), D("0.6")) == ONE

    def test_biresiduum(self):
        assert biresiduum(D("0.7"), D("0.8")) == D("0.7")
        assert biresiduum(D("0.3"), D("0.3")) == ONE
        assert biresiduum(ZERO, ONE) == ZERO

    def test_inf_all(self):
        assert inf_all([D("0.5"), D("0.9"), D("0.7")]) == D("0.5")
        assert inf_all([]) == ONE
        assert inf_all([ONE]) == ONE

    @given(degrees, degrees, degrees)
    def test_adjunction(self, a, b, c):
        assert (tnorm(c, a) <= b) == (c <= residuum(a, b))

    @given(degrees, degrees)
    def test_biresiduum_is_min_of_residua(self, a, b):
        assert biresiduum(a, b) == tnorm(residuum(a, b), residuum(b, a))

    @given(degrees, degrees)
    def test_biresiduum_one_iff_equal(self, a, b):
        assert (biresiduum(a, b) == ONE) == (a == b)


class TestFuzzySet:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            FuzzySet(3, {0: ZERO})

    def test_support_and_values(self):
        s = FuzzySet(4, {2: D("0.3"), 0: D(1)})
        assert s.support() == (0, 2)
        assert s.value(1) == ZERO
        assert s.value(2) == D("0.3")

    def test_rejects_out_of_range_and_duplicate_entries(self):
        for key in (-1, 3):
            with pytest.raises(ValueError, match="outside carrier"):
                FuzzySet(3, {key: D("0.5")})
        with pytest.raises(ValueError, match="duplicate entry for element 1"):
            FuzzySet(3, [(1, D("0.5")), (1, D("0.3"))])


class TestFuzzyRelation:
    def test_rejects_out_of_range_pairs(self):
        for pair in ((2, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="outside carrier 2x3"):
                FuzzyRelation(2, 3, {pair: D("0.5")})

    def test_rejects_zero_entries(self):
        for zero in (ZERO, 0, "0"):
            with pytest.raises(ValueError, match="zero entries must be omitted"):
                FuzzyRelation(2, 2, {(0, 1): zero})

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError, match=r"duplicate entry for pair \(0,1\)"):
            FuzzyRelation(2, 2, [((0, 1), D("0.5")), ((0, 1), D("0.5"))])

    def test_successors_are_sorted_by_target(self):
        rel = FuzzyRelation(3, 3, {(0, 2): D("0.5"), (1, 0): ONE, (0, 0): D("0.3")})
        assert rel.successors(0) == ((0, D("0.3")), (2, D("0.5")))
        assert rel.successors(2) == ()
        assert rel.sources() == (0, 1)
        assert rel.inverse() == FuzzyRelation(3, 3, {(2, 0): D("0.5"), (0, 1): ONE, (0, 0): D("0.3")})


class TestCompose:
    def test_single_path(self):
        phi = FuzzyRelation(3, 3, {(0, 1): D("0.5")})
        psi = FuzzyRelation(3, 3, {(1, 2): D("0.8")})
        assert compose(phi, psi) == FuzzyRelation(3, 3, {(0, 2): D("0.5")})

    def test_identity_is_neutral(self):
        phi = FuzzyRelation(3, 3, {(0, 1): D("0.5"), (1, 2): D("0.3"), (2, 0): D("0.9")})
        assert compose(phi, identity_relation(3)) == phi
        assert compose(identity_relation(3), phi) == phi

    def test_two_paths_take_best(self):
        phi = FuzzyRelation(4, 4, {(0, 1): D("0.5"), (0, 2): D("0.3")})
        psi = FuzzyRelation(4, 4, {(1, 3): D("0.2"), (2, 3): D("0.9")})
        # brute force over intermediates: max(min(.5,.2), min(.3,.9)) = 0.3
        assert compose(phi, psi).value(0, 3) == D("0.3")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(FuzzyRelation(2, 3), FuzzyRelation(2, 2))

    def test_associativity_on_random_sparse_triples(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 15)
            rels = []
            for _ in range(3):
                entries = {}
                for _ in range(rng.randint(0, 2 * n)):
                    entries[(rng.randrange(n), rng.randrange(n))] = Degree.from_scaled(
                        rng.randint(1, 10) * (SCALE // 10)
                    )
                rels.append(FuzzyRelation(n, n, entries))
            a, b, c = rels
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def _random_square(rng, n, levels=6):
    entries = {}
    for _ in range(rng.randint(0, 3 * n)):
        entries[(rng.randrange(n), rng.randrange(n))] = Degree.from_scaled(
            rng.randint(1, levels) * (SCALE // levels)
        )
    return FuzzyRelation(n, n, entries)


class TestClosure:
    def test_empty_relation_closes_to_identity(self):
        assert rst_closure(FuzzyRelation(4, 4)) == identity_relation(4)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            phi = _random_square(rng, rng.randint(1, 12))
            closed = rst_closure(phi)
            assert rst_closure(closed) == closed

    def test_closure_is_equivalence_on_random_inputs(self):
        rng = random.Random(13)
        for _ in range(60):
            phi = _random_square(rng, rng.randint(1, 30))
            assert is_fuzzy_equivalence(rst_closure(phi))

    def test_matches_all_pairs_relaxation(self):
        rng = random.Random(17)
        for _ in range(200):
            phi = _random_square(rng, rng.randint(0, 20))
            assert rst_closure(phi) == rst_closure_reference(phi)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            rst_closure(FuzzyRelation(2, 3))


def test_package_imports_only_the_standard_library():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fuzzymin\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'fuzzymin'}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestIsFuzzyEquivalence:
    def test_identity_is_equivalence(self):
        assert is_fuzzy_equivalence(identity_relation(5))

    def test_seven_point_table(self):
        assert is_fuzzy_equivalence(seven_point_equivalence())

    def test_transitivity_violation_detected(self):
        phi = seven_point_equivalence()
        entries = dict(phi.items())
        # lower one side of a transitive triangle: (a2,a3) below min((a2,a4),(a4,a3))
        entries[(1, 2)] = D("0.1")
        entries[(2, 1)] = D("0.1")
        assert not is_fuzzy_equivalence(FuzzyRelation(7, 7, entries))

    def test_missing_diagonal_detected(self):
        assert not is_fuzzy_equivalence(FuzzyRelation(2, 2, {(0, 0): ONE}))

    def test_asymmetry_detected(self):
        rel = FuzzyRelation(2, 2, {(0, 0): ONE, (1, 1): ONE, (0, 1): D("0.5")})
        assert not is_fuzzy_equivalence(rel)
