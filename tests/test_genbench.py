from itertools import combinations

import pytest

from fuzzymin import validate
from fuzzymin.cli import write_interpretation
from fuzzymin.core import Degree, ONE
from fuzzymin.genbench import (
    BenchRow,
    GeneratorParams,
    _decode_acyclic_pair,
    degree_palette,
    format_csv,
    format_table,
    generate,
    run_bench,
)
from fuzzymin.minimize import MinimizeParams, approximate_minimize

D = Degree


def moderate(acyclic=True, seed=0, withI=False, withO=False):
    return GeneratorParams(
        k=3, n_per=40, m_per=80, o_per=4, p_per=8, l=3, sCN=3, sRN=3,
        acyclic=acyclic, withI=withI, withO=withO, seed=seed)


def all_degrees(interp):
    out = set()
    for fs in interp.concepts.values():
        out.update(d for _, d in fs.items())
    for rel in interp.roles.values():
        out.update(d for _, d in rel.items())
    return out


class TestGenerate:
    def test_structural_counts_exact(self):
        params = moderate()
        interp = generate(params)
        assert validate(interp) == []
        assert interp.n == params.k * params.n_per
        role_total = sum(rel.support_size() for rel in interp.roles.values())
        assert role_total == params.k * params.m_per
        concept_total = sum(len(fs) for fs in interp.concepts.values())
        assert concept_total == params.k * params.p_per
        assert len(all_degrees(interp)) == params.l
        assert len(interp.individuals) == params.k * params.o_per

    def test_components_are_disconnected_and_individuals_first(self):
        params = moderate()
        interp = generate(params)
        comp_of = {i: i // params.n_per for i in range(interp.n)}
        for rel in interp.roles.values():
            for (x, y), _ in rel.items():
                assert comp_of[x] == comp_of[y]
        for c in range(params.k):
            for i in range(params.o_per):
                assert interp.individuals[f"a{c}_{i}"] == c * params.n_per + i

    def test_acyclic_edges_increase(self):
        interp = generate(moderate(acyclic=True))
        for rel in interp.roles.values():
            for (x, y), _ in rel.items():
                assert x < y

    def test_acyclic_pair_decoding_is_lexicographic(self):
        for n in range(2, 61):
            pairs = list(combinations(range(n), 2))
            assert [_decode_acyclic_pair(q, n) for q in range(len(pairs))] == pairs

    def test_cyclic_allows_self_loops_eventually(self):
        found = False
        for seed in range(12):
            interp = generate(GeneratorParams(
                k=1, n_per=6, m_per=20, o_per=1, p_per=0, l=2, sCN=1, sRN=1,
                acyclic=False, seed=seed))
            if any(x == y for rel in interp.roles.values() for (x, y), _ in rel.items()):
                found = True
                break
        assert found

    def test_single_named_element(self):
        interp = generate(GeneratorParams(
            k=1, n_per=1, m_per=0, o_per=1, p_per=0, l=1, sCN=1, sRN=1))
        assert interp.n == 1
        assert interp.individuals == {"a0_0": 0}
        assert not any(len(fs) for fs in interp.concepts.values())
        assert not any(len(rel) for rel in interp.roles.values())

    def test_determinism_byte_identical(self):
        a = write_interpretation(generate(moderate(seed=9)))
        b = write_interpretation(generate(moderate(seed=9)))
        assert a == b
        c = write_interpretation(generate(moderate(seed=10)))
        assert a != c

    def test_palette_distinct_and_in_range(self):
        for l in (1, 3, 10, 50):
            palette = degree_palette(l)
            assert len(set(palette)) == l
            assert all(not d.is_zero and d < ONE for d in palette)

    def test_infeasible_rejected_with_explanation(self):
        with pytest.raises(ValueError, match="acyclic"):
            generate(GeneratorParams(
                k=1, n_per=3, m_per=10, o_per=1, p_per=0, l=1, sCN=1, sRN=1,
                acyclic=True))
        with pytest.raises(ValueError, match="concept"):
            generate(GeneratorParams(
                k=1, n_per=2, m_per=0, o_per=1, p_per=5, l=1, sCN=1, sRN=1))
        with pytest.raises(ValueError):
            generate(GeneratorParams(
                k=1, n_per=2, m_per=0, o_per=0, p_per=0, l=1, sCN=1, sRN=1))

    def test_features_carried_into_signature(self):
        interp = generate(moderate(withI=True, withO=True))
        assert interp.signature.features == frozenset("IO")


class TestRunBench:
    def test_empty_spec_gives_empty_table(self):
        assert run_bench([], ONE, 3) == []
        assert format_table([]).startswith("#")

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected(self, repeats):
        with pytest.raises(ValueError, match=f"repeats must be at least 1, got {repeats}"):
            run_bench([moderate()], ONE, repeats)

    def test_single_repeat_matches_direct_run(self):
        from fuzzymin.genbench import derive_seed
        params = moderate(seed=4)
        rows = run_bench([params], ONE, repeats=1)
        assert len(rows) == 1
        row = rows[0]
        direct = approximate_minimize(
            generate(GeneratorParams(
                params.k, params.n_per, params.m_per, params.o_per, params.p_per,
                params.l, params.sCN, params.sRN, params.acyclic, params.withI,
                params.withO, derive_seed(params.seed, 0))),
            MinimizeParams(frozenset(), ONE))
        assert row.n1 == direct.n1
        assert row.m1 == direct.m1
        assert row.reduction == pytest.approx(direct.reduction)

    def test_reduction_recomputed_from_output(self):
        rows = run_bench([moderate(seed=2)], ONE, repeats=2)
        row = rows[0]
        assert row.reduction == pytest.approx(1 - row.n1 / (row.params.k * row.params.n_per))
        assert 0 <= row.reduction < 1

    def test_acyclic_reduces_more_than_cyclic(self):
        wins = 0
        for seed in range(5):
            pair = run_bench(
                [moderate(acyclic=True, seed=seed), moderate(acyclic=False, seed=seed)],
                ONE, repeats=1)
            if pair[0].reduction > pair[1].reduction:
                wins += 1
        assert wins >= 4

    def test_output_formats(self):
        rows = run_bench([moderate(seed=6)], ONE, repeats=1)
        table = format_table(rows)
        assert "3 40 80 4 8 3 3 3 1 0 0" in table
        csv = format_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "params,n1,m1,reduction,seconds"
        assert lines[1].startswith("3 40 80 4 8 3 3 3 1 0 0,")
