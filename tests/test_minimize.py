import random

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymin import (
    Signature,
    auto_partition,
    check_bisimulation,
    construct_witness,
    greatest_auto_bisimulation,
    greatest_bisimulation_reference,
    make_interpretation,
    size_stats,
    validate,
)
from fuzzymin.core import Degree, FuzzyRelation, ONE, ZERO, tnorm
from fuzzymin.concepts import preservation_report
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, _Run, approximate_minimize, compute_D
from instances import layered_cycles, research_network, twin_stars, two_chains
from strategies import PALETTE, feature_sets, interpretations

D = Degree


def facts(interp):
    """Name-based snapshot used for exact structural comparison."""
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


class TestComputeD:
    def test_twin_stars_levels(self):
        assert compute_D(twin_stars(), ONE) == [ONE, D("0.7"), D("0.6"), D("0.5"), D("0.4")]

    def test_two_chains_point_eight(self):
        assert compute_D(two_chains(), D("0.8")) == [D("0.8")]

    def test_no_roles(self):
        sig = Signature(("A",), ("r",), ("a",))
        interp = make_interpretation(sig, ["x"], {"a": "x"})
        assert compute_D(interp, D("0.5")) == [D("0.5")]

    def test_layered_levels(self):
        assert compute_D(layered_cycles(), ONE) == [
            ONE, D("0.9"), D("0.8"), D("0.7"), D("0.4"), D("0.3"), D("0.2")]

    def test_memoized_levels_equal_a_fresh_scan(self):
        # relations cache their sorted degree set; the levels must not drift
        # from a scan of every role entry, however often they are asked for
        for interp, _, gamma in random_cases(20, seed_base=1700):
            scan = {gamma}
            for rel in interp.roles.values():
                scan.update(d for _, d in rel.items() if d < gamma)
            fresh = sorted(scan, reverse=True)
            for _ in range(3):
                assert compute_D(interp, gamma) == fresh


class TestGoldenRuns:
    def test_twin_stars_plain(self):
        result = approximate_minimize(twin_stars(), MinimizeParams(frozenset(), ONE))
        assert result.n1 == 2
        assert facts(result.reduced) == {
            "domain": {"u", "v3"},
            "individuals": {"a": "u", "b": "u"},
            "concepts": {"A": {"v3": D("0.9")}},
            "roles": {"r": {("u", "v3"): D("0.7")}},
        }

    def test_layered_plain(self):
        result = approximate_minimize(layered_cycles(), MinimizeParams(frozenset(), ONE))
        assert result.n1 == 3
        assert facts(result.reduced) == {
            "domain": {"u1", "v2", "w1"},
            "individuals": {"a": "u1", "b": "u1"},
            "concepts": {"A": {"v2": D("0.6")}, "B": {"w1": D("0.8")}},
            "roles": {
                "r": {("u1", "v2"): D("0.4"), ("v2", "v2"): D("0.4"), ("v2", "w1"): D("0.4")},
                "s": {("w1", "u1"): D("0.2")},
            },
        }

    def test_two_chains_thresholds(self):
        interp = two_chains()
        # at threshold 1 the output is the input itself
        r1 = approximate_minimize(interp, MinimizeParams(frozenset(), ONE))
        assert r1.reduced == interp
        # just above the similarity level: domain kept, degrees capped
        r09 = approximate_minimize(interp, MinimizeParams(frozenset(), D("0.9")))
        assert r09.n1 == 6
        snapshot = facts(r09.reduced)
        assert snapshot["domain"] == set(interp.domain)
        assert snapshot["individuals"] == {"a": "u1", "b": "u2"}
        assert snapshot["concepts"] == {"A": {"w1": ONE, "w2": D("0.8")}}
        assert snapshot["roles"] == {"r": {
            ("u1", "v1"): D("0.9"), ("v1", "w1"): D("0.9"),
            ("u2", "v2"): D("0.9"), ("v2", "w2"): D("0.9"),
        }}
        # at the similarity level the chains collapse onto one
        r08 = approximate_minimize(interp, MinimizeParams(frozenset(), D("0.8")))
        assert facts(r08.reduced) == {
            "domain": {"u1", "v1", "w1"},
            "individuals": {"a": "u1", "b": "u1"},
            "concepts": {"A": {"w1": ONE}},
            "roles": {"r": {("u1", "v1"): D("0.8"), ("v1", "w1"): D("0.8")}},
        }

    def test_twin_stars_nominals(self):
        result = approximate_minimize(twin_stars(), MinimizeParams(frozenset("O"), ONE))
        assert facts(result.reduced) == {
            "domain": {"u", "u'", "v3"},
            "individuals": {"a": "u", "b": "u'"},
            "concepts": {"A": {"v3": D("0.9")}},
            "roles": {"r": {("u", "v3"): D("0.7"), ("u'", "v3"): D("0.7")}},
        }

    def test_twin_stars_both_features(self):
        result = approximate_minimize(twin_stars(), MinimizeParams(frozenset("IO"), ONE))
        assert facts(result.reduced) == {
            "domain": {"u", "u'", "v3", "v2'"},
            "individuals": {"a": "u", "b": "u'"},
            "concepts": {"A": {"v3": D("0.9"), "v2'": D("0.8")}},
            "roles": {"r": {("u", "v3"): D("0.7"), ("u'", "v2'"): D("0.7")}},
        }

    def test_twin_stars_inverse_only(self):
        # the greatest inverse-aware bisimulation still identifies the two
        # roots here, so the reduction is as small as in the plain case;
        # see the decisions ledger for the discrepancy this pins down
        result = approximate_minimize(twin_stars(), MinimizeParams(frozenset("I"), ONE))
        assert facts(result.reduced) == {
            "domain": {"u", "v3"},
            "individuals": {"a": "u", "b": "u"},
            "concepts": {"A": {"v3": D("0.9")}},
            "roles": {"r": {("u", "v3"): D("0.7")}},
        }

    def test_layered_nominals(self):
        result = approximate_minimize(layered_cycles(), MinimizeParams(frozenset("O"), ONE))
        assert result.n1 == 6
        assert facts(result.reduced) == {
            "domain": {"u1", "u2", "v2", "v3", "w1", "w2"},
            "individuals": {"a": "u1", "b": "u2"},
            "concepts": {"A": {"v2": D("0.6"), "v3": D("0.7")},
                         "B": {"w1": D("0.8"), "w2": D("0.9")}},
            "roles": {
                "r": {("u1", "v2"): D("0.4"), ("u2", "v3"): D("0.4"),
                      ("v2", "v2"): D("0.4"), ("v3", "v3"): D("0.4"),
                      ("v2", "w1"): D("0.4"), ("v3", "w2"): D("0.4")},
                "s": {("w1", "u2"): D("0.2"), ("w2", "u1"): D("0.2")},
            },
        }

    def test_layered_inverse_keeps_domain_adds_edge(self):
        interp = layered_cycles()
        result = approximate_minimize(interp, MinimizeParams(frozenset("I"), ONE))
        assert result.n1 == 7
        snapshot = facts(result.reduced)
        assert snapshot["domain"] == set(interp.domain)
        assert snapshot["roles"]["s"] == {
            ("w1", "u1"): D("0.2"), ("w1", "u2"): D("0.2"), ("w2", "u1"): D("0.2")}
        assert snapshot["roles"]["r"] == {
            ("u1", "v1"): D("0.3"), ("u1", "v2"): D("0.4"), ("u2", "v3"): D("0.4"),
            ("v1", "v2"): D("0.4"), ("v2", "v1"): D("0.4"), ("v1", "w1"): D("0.4"),
            ("v2", "w1"): D("0.4"), ("v3", "v3"): D("0.4"), ("v3", "w2"): D("0.4")}
        assert result.m1 == size_stats(interp).m + 1

    def test_two_chains_feature_variants_at_point_eight(self):
        interp = two_chains()
        gamma = D("0.8")
        with_i = approximate_minimize(interp, MinimizeParams(frozenset("I"), gamma))
        plain = approximate_minimize(interp, MinimizeParams(frozenset(), gamma))
        assert facts(with_i.reduced) == facts(plain.reduced)
        with_o = approximate_minimize(interp, MinimizeParams(frozenset("O"), gamma))
        assert facts(with_o.reduced) == {
            "domain": {"u1", "u2", "v1", "w1"},
            "individuals": {"a": "u1", "b": "u2"},
            "concepts": {"A": {"w1": ONE}},
            "roles": {"r": {("u1", "v1"): D("0.8"), ("u2", "v1"): D("0.8"),
                            ("v1", "w1"): D("0.8")}},
        }
        both = approximate_minimize(interp, MinimizeParams(frozenset("IO"), gamma))
        assert both.n1 == 6
        assert facts(both.reduced)["roles"] == {"r": {
            ("u1", "v1"): D("0.8"), ("v1", "w1"): D("0.8"),
            ("u2", "v2"): D("0.8"), ("v2", "w2"): D("0.8")}}

    def test_research_network(self):
        interp = research_network()
        result = approximate_minimize(interp, MinimizeParams(frozenset(), ONE))
        assert result.n1 == 6
        snapshot = facts(result.reduced)
        assert snapshot["domain"] == {
            "linh", "mirek", "stefan", "FDL", "fuzzy_automata", "bisimulation"}
        kept = snapshot["domain"]
        original = facts(interp)
        assert snapshot["individuals"] == original["individuals"]
        for cname, cf in original["concepts"].items():
            assert snapshot["concepts"].get(cname, {}) == {
                e: d for e, d in cf.items() if e in kept}
        assert snapshot["roles"]["hasExpertiseIn"] == original["roles"]["hasExpertiseIn"]
        assert snapshot["roles"]["collaboratesWith"] == original["roles"]["collaboratesWith"]
        expected_related = {
            (x, y): d for (x, y), d in original["roles"]["isRelatedTo"].items()
            if x in kept and y in kept}
        expected_related[("bisimulation", "bisimulation")] = D("0.9")
        expected_related[("fuzzy_automata", "fuzzy_automata")] = D("0.9")
        expected_related[("FDL", "FDL")] = D("0.8")
        assert snapshot["roles"]["isRelatedTo"] == expected_related


class TestTraceAndStats:
    def test_trace_levels_non_increasing_along_chains(self):
        result = approximate_minimize(layered_cycles(), MinimizeParams(frozenset(), ONE))
        by_element = {entry.element: entry for entry in result.trace.added}
        for entry in result.trace.added:
            if entry.via_element is None:
                assert entry.degree == ONE  # individual-seeded
                assert entry.via_role is None
            else:
                assert by_element[entry.via_element].degree >= entry.degree

    def test_stats_fields(self):
        interp = twin_stars()
        result = approximate_minimize(interp, MinimizeParams(frozenset(), ONE))
        assert result.source_n == 7
        assert result.dropped == 5
        assert result.reduction == pytest.approx(1 - 2 / 7)
        assert result.m1 == 1

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            MinimizeParams(frozenset(), ZERO)
        with pytest.raises(ValueError):
            MinimizeParams(frozenset(), D("1.5"))

    def test_invalid_interpretation_rejected(self):
        from fuzzymin import FuzzyInterpretation
        interp = twin_stars()
        broken = FuzzyInterpretation(
            interp.signature, interp.domain, {"a": 0}, interp.concepts, interp.roles)
        with pytest.raises(ValueError):
            approximate_minimize(broken, MinimizeParams(frozenset(), ONE))


def random_cases(count, seed_base=0):
    rng = random.Random(seed_base)
    feature_cycle = [frozenset(), frozenset("I"), frozenset("O"), frozenset("IO")]
    gamma_cycle = [ONE, D("0.8"), D("0.5")]
    for i in range(count):
        features = feature_cycle[i % 4]
        gamma = gamma_cycle[i % 3]
        params = GeneratorParams(
            k=rng.randint(1, 3),
            n_per=rng.randint(1, 12),
            m_per=0, o_per=1, p_per=0,
            l=rng.randint(1, 4),
            sCN=rng.randint(1, 3),
            sRN=rng.randint(1, 2),
            acyclic=bool(rng.getrandbits(1)),
            withI="I" in features,
            withO="O" in features,
            seed=seed_base + i,
        )
        n = params.n_per
        cap = params.sRN * (n * (n - 1) // 2 if params.acyclic else n * n)
        params = GeneratorParams(
            params.k, n, rng.randint(0, min(3 * n, cap)),
            rng.randint(1, max(1, n // 2)), rng.randint(0, params.sCN * n),
            params.l, params.sCN, params.sRN, params.acyclic,
            params.withI, params.withO, params.seed,
        )
        yield generate(params), features, gamma


class TestProperties:
    def test_outputs_validate_and_are_contained(self):
        for interp, features, gamma in random_cases(30, seed_base=100):
            result = approximate_minimize(interp, MinimizeParams(features, gamma))
            reduced = result.reduced
            assert validate(reduced) == []
            assert set(reduced.domain) <= set(interp.domain)
            levels = set(compute_D(interp, gamma))
            for rel in reduced.roles.values():
                for _, d in rel.items():
                    assert d in levels and d <= gamma
            for cname, fs in reduced.concepts.items():
                src = interp.concept_set(cname)
                for i, d in fs.items():
                    assert d == src.value(interp.element_index(reduced.element_name(i)))

    def test_witness_passes_conditions_and_hits_gamma(self):
        goldens = [
            (twin_stars(), frozenset(), ONE),
            (twin_stars(), frozenset("O"), ONE),
            (twin_stars(), frozenset("IO"), ONE),
            (layered_cycles(), frozenset(), ONE),
            (layered_cycles(), frozenset("I"), ONE),
            (two_chains(), frozenset(), D("0.8")),
            (two_chains(), frozenset("O"), D("0.8")),
        ]
        for interp, features, gamma in goldens:
            params = MinimizeParams(features, gamma)
            result = approximate_minimize(interp, params)
            witness = construct_witness(interp, result, params)
            assert check_bisimulation(witness, interp, result.reduced, features) == []
            for a in interp.signature.individual_names:
                assert witness.value(
                    interp.individual_element(a), result.reduced.individual_element(a)
                ) == gamma

    def test_witness_on_random_runs(self):
        for interp, features, gamma in random_cases(25, seed_base=300):
            params = MinimizeParams(features, gamma)
            result = approximate_minimize(interp, params)
            witness = construct_witness(interp, result, params)
            assert check_bisimulation(witness, interp, result.reduced, features) == []
            for a in interp.signature.individual_names:
                assert witness.value(
                    interp.individual_element(a), result.reduced.individual_element(a)
                ) == gamma

    def test_witness_rejects_mismatched_params(self):
        interp = twin_stars()
        params = MinimizeParams(frozenset(), ONE)
        result = approximate_minimize(interp, params)
        with pytest.raises(ValueError):
            construct_witness(interp, result, MinimizeParams(frozenset(), D("0.5")))

    def test_gamma_preservation_sampled(self):
        for interp, features, gamma in random_cases(12, seed_base=500):
            result = approximate_minimize(interp, MinimizeParams(features, gamma))
            report = preservation_report(
                interp, result.reduced, features, gamma, 120, 4,
                seed=hash((interp.n, str(gamma))) % 10_000)
            assert report.holds, report.counterexamples[:3]

    def test_size_idempotent(self):
        for interp, features, gamma in random_cases(20, seed_base=700):
            params = MinimizeParams(features, gamma)
            once = approximate_minimize(interp, params)
            twice = approximate_minimize(once.reduced, params)
            assert twice.n1 == once.n1

    def test_monotone_in_gamma(self):
        thresholds = [D("0.3"), D("0.5"), D("0.8"), ONE]
        for interp, features, _ in random_cases(15, seed_base=900):
            sizes = [
                approximate_minimize(interp, MinimizeParams(features, g)).n1
                for g in thresholds
            ]
            assert sizes == sorted(sizes)

    def test_flattening_matches_plain_walk(self):
        cases = list(random_cases(20, seed_base=1100))
        cases += [(twin_stars(), frozenset("IO"), ONE), (layered_cycles(), frozenset("I"), ONE)]
        for interp, features, gamma in cases:
            # every element at every level, levels descending as in a run
            partition, _ = auto_partition(interp, features)
            run = _Run(partition)
            for d in compute_D(interp, gamma):
                for x in range(interp.n):
                    assert run.locate(x, d.scaled) == partition.find_block(x, d).id

    def test_debug_checks_hold_on_goldens(self):
        for interp, features, gamma in [
            (twin_stars(), frozenset(), ONE),
            (layered_cycles(), frozenset("I"), ONE),
            (two_chains(), frozenset("O"), D("0.8")),
        ]:
            approximate_minimize(
                interp, MinimizeParams(features, gamma), debug_checks=True)


class TestNarration:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets, st.sampled_from(PALETTE))
    def test_listener_makes_no_difference(self, interp, features, gamma):
        params = MinimizeParams(features, D(gamma))
        lines = []
        heard = approximate_minimize(interp, params, narrate=lines.append)
        silent = approximate_minimize(interp, params)
        assert lines
        assert heard.trace == silent.trace
        assert heard.reduced == silent.reduced


class TestPartitionReuse:
    def test_second_run_on_a_partition_equals_a_fresh_run(self):
        # a run at 0.3 climbs past most of the tree; the run at 1 after it must
        # not inherit that state
        for interp, features, _ in random_cases(40, seed_base=1300):
            partition, _ = auto_partition(interp, features)
            approximate_minimize(interp, MinimizeParams(features, D("0.3")), partition=partition)
            params = MinimizeParams(features, ONE)
            again = approximate_minimize(interp, params, partition=partition)
            fresh = approximate_minimize(interp, params)
            assert facts(again.reduced) == facts(fresh.reduced)
            assert again.trace.added == fresh.trace.added
            witness = construct_witness(interp, again, params)
            assert check_bisimulation(witness, interp, again.reduced, features) == []

    def test_run_started_by_a_listener_leaves_the_outer_run_intact(self):
        # a listener that minimizes the same partition again, mid-run, must
        # leave both results equal to sequential runs
        cases = [
            (twin_stars(), frozenset()),
            (layered_cycles(), frozenset("I")),
            (two_chains(), frozenset("O")),
        ]
        cases += [(interp, features) for interp, features, _ in random_cases(20, seed_base=1700)]
        for interp, features in cases:
            partition, _ = auto_partition(interp, features)
            outer_params = MinimizeParams(features, ONE)
            inner_params = MinimizeParams(features, D("0.3"))
            inner = []

            def listener(line):
                if line.startswith("level") and not inner:
                    inner.append(approximate_minimize(interp, inner_params, partition=partition))

            outer = approximate_minimize(interp, outer_params, partition=partition, narrate=listener)
            assert len(inner) == 1
            for result, params in ((outer, outer_params), (inner[0], inner_params)):
                fresh = approximate_minimize(interp, params)
                assert facts(result.reduced) == facts(fresh.reduced)
                assert result.trace == fresh.trace


class TestWitnessFromTree:
    def test_matches_formula_on_reference_relation(self):
        # Z(v, y) = min(d_y, Z0(v, y)) with Z0 from the reference engine
        for interp, features, gamma in random_cases(40, seed_base=1500):
            params = MinimizeParams(features, gamma)
            result = approximate_minimize(interp, params)
            z0 = greatest_bisimulation_reference(interp, interp, features)
            level_of = {e.element: e.degree for e in result.trace.added}
            expected = {}
            for y, name in enumerate(result.reduced.domain):
                orig = interp.element_index(name)
                for v in range(interp.n):
                    d = tnorm(level_of[name], z0.value(v, orig))
                    if not d.is_zero:
                        expected[v, y] = d
            witness = construct_witness(interp, result, params)
            assert witness == FuzzyRelation(interp.n, result.reduced.n, expected)
            assert check_bisimulation(witness, interp, result.reduced, features) == []
