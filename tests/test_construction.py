"""Relations and sets built without per-entry checks (the parser, the
reduction, the witness and ``inverse()``) equal a rebuild through the public,
checking constructors: same entries, same successor rows, same item order and
same degree set.  And however many facts an interpretation holds, building or
parsing it leaves the garbage collector the same number of objects to track."""

import gc

from hypothesis import given, settings

from fuzzymin.cli import parse_interpretation, write_interpretation
from fuzzymin.core import FuzzyRelation, FuzzySet
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, approximate_minimize, construct_witness
from fuzzymin.model import basic_roles
from strategies import PALETTE, feature_sets, interpretations


def assert_same_relation(rel, public):
    assert rel == public
    assert list(rel.items()) == list(public.items())
    assert rel.degrees() == public.degrees()
    assert rel.sources() == public.sources()
    for x in range(rel.rows):
        assert rel.successors(x) == public.successors(x)


def assert_rebuilds(rel):
    assert_same_relation(rel, FuzzyRelation(rel.rows, rel.cols, dict(rel.items())))
    inverse = rel.inverse()
    assert_same_relation(
        inverse, FuzzyRelation(rel.cols, rel.rows, {(j, i): d for (i, j), d in rel.items()})
    )


def assert_set_rebuilds(fset):
    public = FuzzySet(fset.size, dict(fset.items()))
    assert fset == public
    assert list(fset.items()) == list(public.items())
    assert fset.support() == public.support()


def assert_interpretation_rebuilds(interp):
    for fset in interp.concepts.values():
        assert_set_rebuilds(fset)
    for rel in interp.roles.values():
        assert_rebuilds(rel)
    for role in basic_roles(interp.signature, "IO"):
        assert_rebuilds(interp.basic_role_relation(role))


class TestTrustedConstruction:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_every_trusted_build_equals_a_public_rebuild(self, interp, features):
        # the strategy builds through make_interpretation, the parser without it
        _, parsed = parse_interpretation(write_interpretation(interp))
        assert parsed == interp
        assert parsed.individuals == interp.individuals
        for name, fset in parsed.concepts.items():
            assert list(fset.items()) == list(interp.concepts[name].items())
        for name, rel in parsed.roles.items():
            assert_same_relation(rel, interp.roles[name])
        assert_interpretation_rebuilds(parsed)
        for gamma in PALETTE:
            params = MinimizeParams(features, gamma)
            result = approximate_minimize(parsed, params)
            assert_interpretation_rebuilds(result.reduced)
            assert_rebuilds(construct_witness(parsed, result, params))


def tracked_objects_kept(build):
    """How many more objects the collector tracks while ``build()``'s result
    is alive, counted after a full collection."""
    gc.collect()
    before = len(gc.get_objects())
    kept = build()
    gc.collect()
    after = len(gc.get_objects())
    del kept
    return after - before


def instance(m, acyclic=False):
    """Two components of 60 elements, three concept and three role names, and
    ``m`` role facts per component."""
    return generate(GeneratorParams(
        k=2, n_per=60, m_per=m, o_per=2, p_per=40, l=5, sCN=3, sRN=3,
        acyclic=acyclic, withI=True, withO=True, seed=m,
    ))


class TestNoTrackedObjectPerFact:
    # the sets and relations hold dicts of ints, which the collector does not
    # track, so the count depends on how many sets and relations there are
    FACTS = (100, 600, 3000)

    def test_every_name_has_facts(self):
        for m in self.FACTS:
            interp = instance(m)
            assert (len(interp.concepts), len(interp.roles)) == (3, 3)

    def test_building(self):
        counts = {m: tracked_objects_kept(lambda: instance(m)) for m in self.FACTS}
        assert len(set(counts.values())) == 1, counts

    def test_parsing(self):
        texts = {m: write_interpretation(instance(m)) for m in self.FACTS}
        counts = {m: tracked_objects_kept(lambda: parse_interpretation(texts[m])) for m in texts}
        assert len(set(counts.values())) == 1, counts

    def test_reductions_and_witnesses(self):
        for m in (400, 3000):
            interp = instance(m, acyclic=True)
            params = MinimizeParams(frozenset("IO"), "0.6")
            result = approximate_minimize(interp, params)
            assert result.m1 > 100
            # the reduced interpretation and the witness: one list of rows per
            # relation and one object per set, relation and interpretation
            assert tracked_objects_kept(lambda: approximate_minimize(interp, params).reduced) < 40
            assert tracked_objects_kept(lambda: construct_witness(interp, result, params)) == 2
