import pytest

from fuzzymin import (
    BasicRole,
    FuzzyInterpretation,
    Signature,
    basic_roles,
    make_interpretation,
    size_stats,
    validate,
)
from fuzzymin.core import Degree
from instances import layered_cycles, twin_stars


class TestSignature:
    def test_requires_individuals(self):
        with pytest.raises(ValueError):
            Signature(("A",), ("r",), ())

    def test_rejects_cross_kind_duplicates(self):
        with pytest.raises(ValueError):
            Signature(("A",), ("A",), ("a",))

    def test_rejects_whitespace_tokens(self):
        with pytest.raises(ValueError):
            Signature(("A B",), ("r",), ("a",))

    def test_rejects_unknown_features(self):
        with pytest.raises(ValueError):
            Signature(("A",), ("r",), ("a",), frozenset({"U"}))

    def test_basic_role_order(self):
        sig = Signature(("A",), ("r", "s"), ("a",))
        assert basic_roles(sig, frozenset()) == (BasicRole("r"), BasicRole("s"))
        assert basic_roles(sig, frozenset("I")) == (
            BasicRole("r"), BasicRole("s"), BasicRole("r", True), BasicRole("s", True),
        )
        assert str(BasicRole("r", True)) == "r^-"


class TestValidate:
    def test_clean_instance(self):
        assert validate(twin_stars()) == []

    def test_missing_individual_reported_by_name(self):
        interp = twin_stars()
        broken = FuzzyInterpretation(
            interp.signature, interp.domain,
            {"a": interp.individuals["a"]},  # b left unassigned
            interp.concepts, interp.roles,
        )
        problems = validate(broken)
        assert len(problems) == 1 and "b" in problems[0]

    def test_zero_degree_facts_are_unrepresentable(self):
        sig = Signature(("A",), ("r",), ("a",))
        with pytest.raises(ValueError, match="zero"):
            make_interpretation(sig, ["u", "v"], {"a": "u"}, {}, {"r": {("u", "v"): 0}})

    def test_foreign_names_reported(self):
        interp = twin_stars()
        broken = FuzzyInterpretation(
            interp.signature, interp.domain, interp.individuals,
            {"B": interp.concepts["A"]}, interp.roles,
        )
        assert any("B" in p for p in validate(broken))


class TestTokenCheck:
    """The token test in ``Signature``, ``validate`` and
    ``make_interpretation`` agrees with the per-character ``isspace`` scan it
    replaced, and also rejects ``#``, which starts a comment in the text
    format."""

    NAMES = (
        "", " ", "u", "u'", "\u00e9", "u\u200bv",  # zero-width space is not whitespace
        " u", "u ", "u v", "u\tv", "u\nv",
        "#", "#u", "u#", "u#1", "A#x", "u #",
        *(f"{c}u" for c in "\x1c\x1d\x1e\x1f\x85\xa0\u2028"),
        *(f"u{c}" for c in "\x1c\x1d\x1e\x1f\x85\xa0\u2028"),
        *(f"u{c}v" for c in "\x1c\x1d\x1e\x1f\x85\xa0\u2028"),
    )

    @pytest.mark.parametrize("name", NAMES)
    def test_split_form_matches_isspace_form(self, name):
        blank = not name or any(ch.isspace() for ch in name)
        bad = blank or "#" in name
        assert (name.split() != [name]) == blank
        interp = FuzzyInterpretation(
            Signature(("A",), ("r",), ("a",)), ["x", name], {"a": 0}, {}, {}
        )
        assert any("whitespace-free token" in p for p in validate(interp)) == bad
        if bad:
            with pytest.raises(ValueError, match="non-empty token without whitespace"):
                Signature((name,), ("r",), ("a",))
            with pytest.raises(ValueError, match="whitespace-free token"):
                make_interpretation(Signature(("A",), ("r",), ("a",)), ["x", name], {"a": "x"})
        else:
            Signature((name,), ("r",), ("a",))
            make_interpretation(Signature(("A",), ("r",), ("a",)), ["x", name], {"a": "x"})

    def test_whole_domain_check_reports_each_bad_name_in_order(self):
        interp = FuzzyInterpretation(Signature(("A",), ("r",), ("a",)), self.NAMES, {"a": 2}, {}, {})
        bad = [name for name in self.NAMES if name.split() != [name] or "#" in name]
        assert [p for p in validate(interp) if "whitespace-free token" in p] == [
            f"domain element name is not a whitespace-free token without '#': {name!r}" for name in bad]


class TestSizeStats:
    def test_twin_stars_counts(self):
        stats = size_stats(twin_stars())
        assert (stats.n, stats.m, stats.l) == (7, 5, 6)

    def test_single_element_no_roles(self):
        sig = Signature(("A",), ("r",), ("a",))
        interp = make_interpretation(sig, ["u"], {"a": "u"})
        stats = size_stats(interp)
        assert (stats.n, stats.m, stats.l) == (1, 0, 2)

    def test_layered_counts(self):
        stats = size_stats(layered_cycles())
        assert (stats.n, stats.m) == (7, 11)

    def test_stable_under_element_reordering(self):
        interp = twin_stars()
        order = list(interp.domain)[::-1]
        remap = {name: name for name in order}
        shuffled = make_interpretation(
            interp.signature,
            order,
            {a: interp.element_name(i) for a, i in interp.individuals.items()},
            {c: {interp.element_name(i): d for i, d in fs.items()}
             for c, fs in interp.concepts.items()},
            {r: {(interp.element_name(x), interp.element_name(y)): d
                 for (x, y), d in rel.items()}
             for r, rel in interp.roles.items()},
        )
        assert size_stats(shuffled) == size_stats(interp)
