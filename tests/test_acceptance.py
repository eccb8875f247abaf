"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager

import pytest

from fuzzymin import (
    build_compact_partition,
    check_bisimulation,
    construct_witness,
    greatest_auto_bisimulation,
    greatest_bisimulation_reference,
    rst_closure,
)
from fuzzymin.bisim import auto_partition
from fuzzymin.concepts import (
    _eval_concept_arr,
    eval_concept,
    interpretation_degree_pool,
    parse_concept,
    preservation_report,
    random_concept,
)
from fuzzymin.core import Degree, FuzzyRelation, ONE, SCALE, biresiduum
from fuzzymin.genbench import GeneratorParams, derive_seed, generate, run_bench
from fuzzymin.minimize import MinimizeParams, approximate_minimize
from instances import (
    SEVEN_POINT_RENDERED,
    TABLE_NAMES,
    layered_cycles,
    research_network,
    seven_point_equivalence,
    twin_stars,
    two_chains,
)

D = Degree


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def snapshot(interp):
    return {
        "domain": set(interp.domain),
        "individuals": {a: interp.element_name(i) for a, i in interp.individuals.items()},
        "concepts": {
            c: {interp.element_name(i): d for i, d in fs.items()}
            for c, fs in interp.concepts.items() if len(fs)
        },
        "roles": {
            r: {(interp.element_name(x), interp.element_name(y)): d
                for (x, y), d in rel.items()}
            for r, rel in interp.roles.items() if len(rel)
        },
    }


def random_acceptance_cases(count=100, seed_base=4000):
    """Small random runs cycling through all feature sets and thresholds."""
    rng = random.Random(seed_base)
    feature_cycle = [frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")]
    gamma_cycle = [ONE, D("0.8"), D("0.5")]
    cases = []
    for i in range(count):
        features = feature_cycle[i % 4]
        gamma = gamma_cycle[i % 3]
        n = rng.randint(1, 12)
        sRN = rng.randint(1, 2)
        sCN = rng.randint(1, 3)
        acyclic = bool(rng.getrandbits(1))
        cap = sRN * (n * (n - 1) // 2 if acyclic else n * n)
        params = GeneratorParams(
            k=rng.randint(1, 3), n_per=n, m_per=rng.randint(0, min(3 * n, cap)),
            o_per=rng.randint(1, max(1, n // 2)), p_per=rng.randint(0, sCN * n),
            l=rng.randint(1, 4), sCN=sCN, sRN=sRN, acyclic=acyclic,
            withI="I" in features, withO="O" in features, seed=seed_base + i,
        )
        cases.append((generate(params), features, gamma))
    return cases


@pytest.fixture(scope="module")
def random_runs():
    runs = []
    for interp, features, gamma in random_acceptance_cases():
        params = MinimizeParams(features, gamma)
        runs.append((interp, params, approximate_minimize(interp, params)))
    return runs


def test_criterion_1_partition_construction():
    with criterion(1, "seven-point partition renders exactly, under 1 ms"):
        phi = seven_point_equivalence()
        rendered = build_compact_partition(phi, TABLE_NAMES).render()
        assert rendered == SEVEN_POINT_RENDERED
        for _ in range(3):  # warm caches before timing
            build_compact_partition(phi, TABLE_NAMES)
        best = min(
            _timed(lambda: build_compact_partition(phi, TABLE_NAMES))
            for _ in range(5)
        )
        assert best < 0.001, f"construction took {best * 1e3:.3f} ms"


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


GOLDEN_RUNS = [
    # (instance, features, gamma, expected snapshot or expected size)
    ("twin plain", twin_stars, frozenset(), ONE, {
        "domain": {"u", "v3"},
        "individuals": {"a": "u", "b": "u"},
        "concepts": {"A": {"v3": D("0.9")}},
        "roles": {"r": {("u", "v3"): D("0.7")}},
    }),
    ("layered plain", layered_cycles, frozenset(), ONE, {
        "domain": {"u1", "v2", "w1"},
        "individuals": {"a": "u1", "b": "u1"},
        "concepts": {"A": {"v2": D("0.6")}, "B": {"w1": D("0.8")}},
        "roles": {"r": {("u1", "v2"): D("0.4"), ("v2", "v2"): D("0.4"),
                        ("v2", "w1"): D("0.4")},
                  "s": {("w1", "u1"): D("0.2")}},
    }),
    ("chains 0.8", two_chains, frozenset(), D("0.8"), {
        "domain": {"u1", "v1", "w1"},
        "individuals": {"a": "u1", "b": "u1"},
        "concepts": {"A": {"w1": ONE}},
        "roles": {"r": {("u1", "v1"): D("0.8"), ("v1", "w1"): D("0.8")}},
    }),
    ("twin nominals", twin_stars, frozenset("O"), ONE, 3),
    ("twin both features", twin_stars, frozenset("IO"), ONE, 4),
    ("layered nominals", layered_cycles, frozenset("O"), ONE, 6),
    ("chains 0.8 both features", two_chains, frozenset("IO"), D("0.8"), 6),
]


def test_criterion_2_golden_structures():
    with criterion(2, "golden minimization structures and sizes, each under 100 ms"):
        for name, build, features, gamma, expected in GOLDEN_RUNS:
            interp = build()
            start = time.perf_counter()
            result = approximate_minimize(interp, MinimizeParams(features, gamma))
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, f"{name} took {elapsed * 1e3:.1f} ms"
            if isinstance(expected, dict):
                assert snapshot(result.reduced) == expected, name
            else:
                assert result.n1 == expected, name

        # chains at 0.9: no domain reduction, degrees capped at the threshold
        interp = two_chains()
        result = approximate_minimize(interp, MinimizeParams(frozenset(), D("0.9")))
        got = snapshot(result.reduced)
        assert got["domain"] == set(interp.domain)
        assert got["individuals"] == {"a": "u1", "b": "u2"}
        assert got["concepts"] == snapshot(interp)["concepts"]
        assert got["roles"]["r"] == {
            ("u1", "v1"): D("0.9"), ("v1", "w1"): D("0.9"),
            ("u2", "v2"): D("0.9"), ("v2", "w2"): D("0.9")}

        # layered instance with inverse roles: domain kept, one extra link
        interp = layered_cycles()
        result = approximate_minimize(interp, MinimizeParams(frozenset("I"), ONE))
        assert result.n1 == 7
        assert snapshot(result.reduced)["roles"]["s"][("w1", "u1")] == D("0.2")
        assert result.m1 == 12

        # chains at 0.8 with nominals only
        result = approximate_minimize(
            two_chains(), MinimizeParams(frozenset("O"), D("0.8")))
        assert snapshot(result.reduced)["roles"] == {"r": {
            ("u1", "v1"): D("0.8"), ("u2", "v1"): D("0.8"), ("v1", "w1"): D("0.8")}}
        assert result.n1 == 4


@pytest.mark.known_divergence
def test_criterion_2_inverse_only_twin_size_as_documented():
    """Deliberately red: asserts the originally documented size for the
    inverse-roles run on the twin-star instance.

    The bisimulation conditions provably identify the two roots here: the
    2-element reduction carries a machine-checked witness bisimulation that
    relates both named individuals at degree 1, two independent fixpoint
    engines agree, and 120k sampled concepts (both fragments, inverse roles
    included) find no distinguishing expression.  A faithful implementation
    therefore cannot produce 4 elements, and this test records that the
    documented figure is unattainable rather than silently replacing it.
    """
    with criterion(2, "inverse-only twin-star size matches the documented figure"):
        result = approximate_minimize(twin_stars(), MinimizeParams(frozenset("I"), ONE))
        assert result.n1 == 4, (
            f"documented size 4, derived size {result.n1}; the 2-element "
            "reduction is witness-verified, so 4 is unattainable"
        )


@pytest.mark.known_divergence
def test_criterion_2_chains_nominal_size_as_documented():
    """Deliberately red: asserts the originally documented size 5 for the
    nominal-only run on the two-chains instance at threshold 0.8.

    Both named individuals stay separate (nominals force that), the two
    chains collapse onto one below the similarity level 0.8, and the
    verified output has 4 elements with a machine-checked witness at exactly
    0.8; no correct execution can keep a fifth element.
    """
    with criterion(2, "nominal-only chains size matches the documented figure"):
        result = approximate_minimize(
            two_chains(), MinimizeParams(frozenset("O"), D("0.8")))
        assert result.n1 == 5, (
            f"documented size 5, derived size {result.n1}; the 4-element "
            "output is witness-verified, so 5 is unattainable"
        )


def test_criterion_3_concept_evaluator_goldens():
    with criterion(3, "three research-network evaluations match exactly"):
        interp = research_network()
        sig = interp.signature
        cases = [
            ("exists hasExpertiseIn . exists isRelatedTo . DescriptionLogic",
             {"linh": D("0.8"), "mirek": D("0.6"), "stefan": D("0.6")}, True),
            ("forall hasExpertiseIn . exists isRelatedTo . DescriptionLogic",
             {"linh": D("0.6"), "mirek": D("0.6"), "stefan": D("0.6")}, False),
            ("exists collaboratesWith* . exists hasExpertiseIn . DescriptionLogic",
             {"linh": D("0.8"), "mirek": D("0.3"), "stefan": D("0.3")}, True),
        ]
        for text, expected, support_exact in cases:
            values = eval_concept(parse_concept(text, sig), interp)
            for name, degree in expected.items():
                assert values.value(interp.element_index(name)) == degree, text
            if support_exact:
                assert set(values.support()) == {
                    interp.element_index(name) for name in expected}, text


def test_criterion_4_gamma_preservation(random_runs):
    with criterion(4, "zero sampled preservation counterexamples on 100 random runs"):
        start = time.perf_counter()
        for i, (interp, params, result) in enumerate(random_runs):
            report = preservation_report(
                interp, result.reduced, params.features, params.gamma,
                samples=500, depth=4, seed=9000 + i)
            assert report.holds, (
                f"case {i}: {report.counterexamples[:2]}")
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"suite took {elapsed:.1f} s"


def test_criterion_5_witness_bisimulations(random_runs):
    with criterion(5, "witnesses check clean and hit gamma exactly, golden and random"):
        goldens = [
            (twin_stars(), MinimizeParams(frozenset(), ONE)),
            (twin_stars(), MinimizeParams(frozenset("O"), ONE)),
            (twin_stars(), MinimizeParams(frozenset("I"), ONE)),
            (twin_stars(), MinimizeParams(frozenset("IO"), ONE)),
            (layered_cycles(), MinimizeParams(frozenset(), ONE)),
            (layered_cycles(), MinimizeParams(frozenset("O"), ONE)),
            (layered_cycles(), MinimizeParams(frozenset("I"), ONE)),
            (two_chains(), MinimizeParams(frozenset(), D("0.8"))),
            (two_chains(), MinimizeParams(frozenset("O"), D("0.8"))),
            (two_chains(), MinimizeParams(frozenset("IO"), D("0.8"))),
            (research_network(), MinimizeParams(frozenset(), ONE)),
        ]
        runs = [(i, p, approximate_minimize(i, p)) for i, p in goldens]
        for interp, params, result in runs + list(random_runs):
            witness = construct_witness(interp, result, params)
            violations = check_bisimulation(
                witness, interp, result.reduced, params.features)
            assert violations == [], violations[:3]
            for a in interp.signature.individual_names:
                assert witness.value(
                    interp.individual_element(a),
                    result.reduced.individual_element(a)) == params.gamma


def test_criterion_6_sampling_roundtrip_order_independence():
    with criterion(6, "agreement bounds, partition round-trips, order independence"):
        start = time.perf_counter()

        # greatest bisimulation lower-bounds concept agreement (50 instances)
        rng = random.Random(6100)
        for i, (interp, features, _gamma) in enumerate(
                random_acceptance_cases(50, seed_base=6000)):
            if interp.n > 10:
                continue
            Z = greatest_auto_bisimulation(interp, features).Z
            pool = interpretation_degree_pool(interp)
            for _ in range(200):
                concept = random_concept(interp.signature, features, "full", 4, rng, pool)
                values = _eval_concept_arr(concept, interp, {})
                for (x, y), z in Z.items():
                    bound = biresiduum(
                        D.from_scaled(int(values[x])), D.from_scaled(int(values[y])))
                    assert z <= bound

        # 200 random equivalence round-trips, n <= 40
        rng = random.Random(6200)
        for _ in range(200):
            n = rng.randint(1, 40)
            entries = {}
            for _ in range(rng.randint(0, 3 * n)):
                entries[(rng.randrange(n), rng.randrange(n))] = D.from_scaled(
                    rng.randint(1, 8) * (SCALE // 8))
            phi = rst_closure(FuzzyRelation(n, n, entries))
            assert build_compact_partition(phi).to_equivalence() == phi

        # fixpoint order independence on 100 instances, n <= 12
        for i, (interp, features, _gamma) in enumerate(
                random_acceptance_cases(100, seed_base=6300)):
            fast = greatest_auto_bisimulation(interp, features).Z
            order_rng = random.Random(6400 + i)
            pairs = [(x, y) for x in range(interp.n) for y in range(interp.n)]
            order_rng.shuffle(pairs)
            assert greatest_bisimulation_reference(interp, interp, features, pairs) == fast

        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"suite took {elapsed:.1f} s"


def test_criterion_7_idempotence_and_monotonicity():
    with criterion(7, "re-minimization is size-stable; sizes monotone in the threshold"):
        thresholds = [D("0.3"), D("0.5"), D("0.8"), ONE]
        for interp, features, gamma in random_acceptance_cases(50, seed_base=7000):
            params = MinimizeParams(features, gamma)
            once = approximate_minimize(interp, params)
            again = approximate_minimize(once.reduced, params)
            assert again.n1 == once.n1
            sizes = [
                approximate_minimize(interp, MinimizeParams(features, g)).n1
                for g in thresholds
            ]
            assert sizes == sorted(sizes)


DESK_PARAMS = GeneratorParams(
    k=10, n_per=500, m_per=1000, o_per=10, p_per=20, l=3, sCN=3, sRN=3,
    acyclic=True, seed=8800)


def test_criterion_8_desk_scale_performance():
    with criterion(8, "desk-scale pipeline under 60 s, reduction step under 1 s"):
        interp = generate(DESK_PARAMS)
        assert interp.n == 5000
        assert sum(rel.support_size() for rel in interp.roles.values()) == 10000
        start = time.perf_counter()
        partition, _sweeps = auto_partition(interp, frozenset())
        partition_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        result = approximate_minimize(
            interp, MinimizeParams(frozenset(), ONE), partition=partition)
        reduce_elapsed = time.perf_counter() - start
        total = partition_elapsed + reduce_elapsed
        assert total < 60, f"pipeline took {total:.1f} s"
        assert reduce_elapsed < 1, f"reduction step took {reduce_elapsed:.2f} s"
        assert 0 < result.n1 < interp.n


def test_criterion_9_reduction_band_and_direction():
    with criterion(9, "average reduction at least 0.60; acyclic beats cyclic on 4 of 5 seeds"):
        reductions = []
        wins = 0
        for seed in range(5):
            pair = []
            for acyclic in (True, False):
                params = GeneratorParams(
                    k=10, n_per=500, m_per=1000, o_per=10, p_per=20, l=3,
                    sCN=3, sRN=3, acyclic=acyclic, seed=9100 + seed)
                result = approximate_minimize(
                    generate(params), MinimizeParams(frozenset(), ONE))
                pair.append(result.reduction)
            reductions.append(pair[0])
            if pair[0] > pair[1]:
                wins += 1
        average = sum(reductions) / len(reductions)
        assert average >= 0.60, f"average acyclic reduction {average:.3f}"
        assert wins >= 4, f"acyclic beat cyclic on only {wins} of 5 seeds"
