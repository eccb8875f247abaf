"""Relations and sets built without per-entry checks (the parser, the
reduction, the witness and ``inverse()``) equal a rebuild through the public,
checking constructors: same entries, same successor rows, same item order and
same degree set."""

from hypothesis import given, settings

from fuzzymin.cli import parse_interpretation, write_interpretation
from fuzzymin.core import FuzzyRelation, FuzzySet
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
