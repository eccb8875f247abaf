import hashlib
import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymin.cli import (
    CliInputError,
    main,
    parse_interpretation,
    write_interpretation,
)
from fuzzymin.core import Degree
from fuzzymin.model import FuzzyInterpretation, Signature, make_interpretation
from instances import layered_cycles, research_network, staircase, twin_stars, two_chains
from strategies import feature_sets, interpretations

D = Degree

TWIN_FILE = """\
concepts A
roles r
individuals a b
domain u u' v1 v2 v3 v1' v2'
ind a u
ind b u'
concept A v1 0.7
concept A v2 0.8
concept A v3 0.9
concept A v1' 0.7
concept A v2' 0.8
role r u v1 0.5
role r u v2 0.4
role r u v3 0.7
role r u' v1' 0.6
role r u' v2' 0.7
"""


class TestFileFormat:
    def test_parse_twin_file(self):
        signature, interp = parse_interpretation(TWIN_FILE)
        assert interp == twin_stars()

    def test_write_is_canonical_round_trip(self):
        assert write_interpretation(twin_stars()) == TWIN_FILE
        _, reparsed = parse_interpretation(TWIN_FILE)
        assert write_interpretation(reparsed) == TWIN_FILE

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + TWIN_FILE.replace("ind a u", "ind a u  # named root")
        _, interp = parse_interpretation(text)
        assert interp == twin_stars()

    def test_zero_degree_rejected_with_line(self):
        bad = TWIN_FILE.replace("role r u v1 0.5", "role r u v1 0")
        with pytest.raises(CliInputError, match="zero"):
            parse_interpretation(bad)

    def test_unknown_names_rejected(self):
        bad = TWIN_FILE.replace("role r u v1 0.5", "role q u v1 0.5")
        with pytest.raises(CliInputError, match="q"):
            parse_interpretation(bad)

    def test_out_of_order_section_rejected(self):
        bad = TWIN_FILE + "domain extra\n"
        with pytest.raises(CliInputError, match="order"):
            parse_interpretation(bad)

    def test_duplicate_fact_rejected(self):
        bad = TWIN_FILE + "role r u v1 0.5\n"
        with pytest.raises(CliInputError, match="duplicate"):
            parse_interpretation(bad)

    def test_missing_individual_assignment_rejected(self):
        bad = TWIN_FILE.replace("ind b u'\n", "")
        with pytest.raises(CliInputError, match="b"):
            parse_interpretation(bad)

    def test_features_line_round_trip(self):
        text = TWIN_FILE.replace("individuals a b\n", "individuals a b\nfeatures I O\n")
        signature, interp = parse_interpretation(text)
        assert signature.features == frozenset("IO")
        assert write_interpretation(interp) == text

    REPEATS = (
        "concepts A\nroles r\nindividuals a\ndomain x y z\nind a x\n"
        "concept A x 0.5\nconcept A y 0.5\nconcept A z 1\n"
        "role r x y 0.5\nrole r y z 0.5\nrole r z x 1\n"
    )

    def test_repeated_literals_parse_like_make_interpretation(self):
        _, interp = parse_interpretation(self.REPEATS)
        assert interp == make_interpretation(
            Signature(("A",), ("r",), ("a",)), ["x", "y", "z"], {"a": "x"},
            {"A": {"x": "0.5", "y": "0.5", "z": "1"}},
            {"r": {("x", "y"): "0.5", ("y", "z"): "0.5", ("z", "x"): "1"}},
        )

    @pytest.mark.parametrize("fact, message", [
        ("role r z y 0", "line 12: zero degree: omit the fact instead of writing degree 0"),
        ("role r z y 0.5.", "line 12: malformed degree literal: '0.5.'"),
        ("role r z y 1.5", "line 12: degree out of [0,1]: '1.5'"),
    ])
    def test_bad_literal_after_repeats_names_its_line(self, fact, message):
        # the bad literal's line, whatever literals came before it
        with pytest.raises(CliInputError) as info:
            parse_interpretation(self.REPEATS + fact + "\n")
        assert str(info.value) == message

    def test_repeated_bad_literal_names_each_line(self):
        lines = self.REPEATS.splitlines()
        for k in (6, 9):
            bad = lines[:]
            bad[k - 1] = bad[k - 1].rsplit(" ", 1)[0] + " 0.50x"
            with pytest.raises(CliInputError) as info:
                parse_interpretation("\n".join(bad) + "\n")
            assert str(info.value) == f"line {k}: malformed degree literal: '0.50x'"
        both = lines[:]
        for k in (7, 10):
            both[k - 1] = both[k - 1].rsplit(" ", 1)[0] + " 0"
        with pytest.raises(CliInputError, match="^line 7: zero degree"):
            parse_interpretation("\n".join(both) + "\n")

    # u is declared twice; the messages were recorded from the name-keyed parser
    DUPLICATE_NAMES = (
        "concepts A\nroles r\nindividuals a b\ndomain u v u\n"
        "ind a u\nind b v\nconcept A v 0.5\nrole r u v 0.5\n"
    )

    @pytest.mark.parametrize("text, message", [
        (DUPLICATE_NAMES, "duplicate domain element names"),
        (DUPLICATE_NAMES.replace("domain u v u", "domain u v\ndomain u"),
         "duplicate domain element names"),
        (DUPLICATE_NAMES.replace("ind b v\n", ""), "duplicate domain element names"),
        (DUPLICATE_NAMES + "role r u w 0.5\n", "line 9: unknown domain element in role fact r u w"),
        (DUPLICATE_NAMES + "role r v u 0\n",
         "line 9: zero degree: omit the fact instead of writing degree 0"),
        (DUPLICATE_NAMES + "role r u v 0.5\n", "line 9: duplicate role fact r u v"),
        (DUPLICATE_NAMES + "domain x\n", "line 9: section 'domain' appears out of order"),
        (DUPLICATE_NAMES.replace("individuals a b", "individuals"),
         "line 5: unknown individual name 'a'"),
        (DUPLICATE_NAMES.replace("concepts A", "concepts A A"),
         "name 'A' used as both concept and concept"),
        (DUPLICATE_NAMES.replace("roles r", "roles r A"), "name 'A' used as both concept and role"),
        ("concepts A\nroles r\nindividuals\ndomain u u\n", "at least one individual name is required"),
        ("concepts A\nroles r\nindividuals a\ndomain u u\nind a u\n"
         "concept A u 0.5\nconcept A u 0.7\n", "line 7: duplicate concept fact A u"),
        (DUPLICATE_NAMES + "role r v u 0#x\n",
         "line 9: zero degree: omit the fact instead of writing degree 0"),
        (DUPLICATE_NAMES + "role r v u 0.5#x\nrole r u w 0.5\n",
         "line 10: unknown domain element in role fact r u w"),
        (DUPLICATE_NAMES + "ro#le r v u 0.5\n", "line 9: unknown section keyword 'ro'"),
        # str.splitlines ends a line at a form feed, so this adds two lines
        (DUPLICATE_NAMES.replace("ind b v\n", "ind b v\n \t\f  \n") + "role r u w 0.5\n",
         "line 11: unknown domain element in role fact r u w"),
        (DUPLICATE_NAMES + "concept A u 0.5\n", "line 9: section 'concept' appears out of order"),
        ("concepts A\nroles r\nindividuals a\nrole r u v 0.5\ndomain u v\n",
         "line 4: unknown domain element in role fact r u v"),
        # Arabic-Indic digits: int() reads them, the text format does not
        (DUPLICATE_NAMES.replace("concept A v 0.5", "concept A v \u0660.\u0665"),
         "line 7: malformed degree literal: '\u0660.\u0665'"),
    ], ids=[
        "duplicate-only", "across-domain-lines", "before-missing-assignment", "bad-element-line",
        "zero-degree-line", "duplicate-fact-line", "out-of-order-line", "no-individual-names",
        "signature-declared-twice", "signature-cross-kind", "signature-no-individuals",
        "duplicate-fact-on-duplicate-name", "comment-glued-to-degree", "comment-glued-then-bad-line",
        "comment-inside-keyword", "form-feed-blank-line", "concept-after-role", "role-before-domain",
        "non-ascii-digits",
    ])
    def test_duplicate_domain_names_come_after_line_and_signature_errors(self, text, message):
        with pytest.raises(CliInputError) as info:
            parse_interpretation(text)
        assert str(info.value) == message

    def test_generated_instances_round_trip(self):
        from fuzzymin.genbench import GeneratorParams, generate
        interp = generate(GeneratorParams(
            k=2, n_per=15, m_per=25, o_per=2, p_per=6, l=4, sCN=2, sRN=2,
            acyclic=False, seed=3))
        text = write_interpretation(interp)
        _, reparsed = parse_interpretation(text)
        assert write_interpretation(reparsed) == text
        assert reparsed == interp


def fake_stdin(data):
    """A stdin whose underlying bytes are ``data`` (a str is encoded as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", fake_stdin(stdin_text))
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCommands:
    def test_minimize_default_gamma(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        outfile = tmp_path / "out.txt"
        status, out, err = run_cli(
            capsys, ["minimize", "--in", str(infile), "--out", str(outfile)])
        assert status == 0
        _, reduced = parse_interpretation(outfile.read_text())
        assert len(reduced.domain) == 2
        assert set(reduced.domain) == {"u", "v3"}

    def test_minimize_stdio_and_verbose(self, tmp_path, capsys, monkeypatch):
        status, out, err = run_cli(
            capsys, ["minimize", "--verbose"], stdin_text=TWIN_FILE, monkeypatch=monkeypatch)
        assert status == 0
        _, reduced = parse_interpretation(out)
        assert len(reduced.domain) == 2
        assert "level d=" in err
        assert "kept 2 of 7" in err

    def test_verbose_narrative_is_byte_stable(self, tmp_path, capsys):
        # pinned byte for byte: narrating only to a listener must not change it
        twin = tmp_path / "twin.txt"
        twin.write_text(TWIN_FILE)
        status, _, err = run_cli(capsys, ["minimize", "--verbose", "--in", str(twin)])
        assert status == 0
        assert err == (
            "seed a -> u (new)\n"
            "seed b -> u (alias)\n"
            "level d=1\n"
            "level d=0.7\n"
            "  take <u,r,v3> priority=0.7\n"
            "  add v3; block degree 0.7 keeper := v3\n"
            "  set r(u,v3) := 0.7\n"
            "level d=0.6\n"
            "level d=0.5\n"
            "  take <u,r,v1> priority=0.5\n"
            "level d=0.4\n"
            "  take <u,r,v2> priority=0.4\n"
            "kept 2 of 7 elements (71.4% reduction), 1 role instances\n"
        )
        chains = tmp_path / "chains.txt"
        chains.write_text(write_interpretation(two_chains()))
        status, _, err = run_cli(
            capsys, ["minimize", "--verbose", "--gamma", "0.8", "--with-o", "--in", str(chains)])
        assert status == 0
        assert err == (
            "seed a -> u1 (new)\n"
            "seed b -> u2 (new)\n"
            "level d=0.8\n"
            "  take <u1,r,v1> priority=1\n"
            "  add v1; block degree 0.8 keeper := v1\n"
            "  set r(u1,v1) := 0.8\n"
            "  take <v1,r,w1> priority=1\n"
            "  add w1; block degree 0.8 keeper := w1\n"
            "  set r(v1,w1) := 0.8\n"
            "  take <u2,r,v2> priority=0.9\n"
            "  set r(u2,v1) := 0.8\n"
            "kept 4 of 6 elements (33.3% reduction), 3 role instances\n"
        )

    def test_minimize_with_nominals_at_point_eight(self, tmp_path, capsys):
        infile = tmp_path / "chains.txt"
        infile.write_text(write_interpretation(two_chains()))
        status, out, err = run_cli(
            capsys, ["minimize", "--gamma", "0.8", "--with-o", "--in", str(infile)])
        assert status == 0
        _, reduced = parse_interpretation(out)
        assert set(reduced.domain) == {"u1", "u2", "v1", "w1"}
        assert reduced.role_relation("r").value(
            reduced.element_index("u2"), reduced.element_index("v1")) == D("0.8")

    def test_partition_command(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        status, out, err = run_cli(capsys, ["partition", "--in", str(infile)])
        assert status == 0
        assert out.strip() == "{{u,u'}_1, {{v1,v1'}_1, {{v2,v2'}_1,{v3}_1}_0.8}_0.7}_0"

    def test_eval_command(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        status, out, err = run_cli(
            capsys, ["eval", "--concept", "exists r . A", "--in", str(infile)])
        assert status == 0
        lines = out.strip().splitlines()
        assert "u:0.7" in lines
        assert lines == ["u:0.7", "u':0.7"]

    @pytest.mark.parametrize("constant", ["\u0660.\u0665", "\uff10.\uff15"])
    def test_eval_rejects_digits_outside_ascii(self, tmp_path, capsys, constant):
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        status, out, err = run_cli(
            capsys, ["eval", "--concept", f"A and {constant}", "--in", str(infile)])
        assert (status, out) == (1, "")
        assert err == f"error: bad concept expression: unexpected character {constant[0]!r} (at position 6)\n"

    def test_bisim_command(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        status, out, err = run_cli(
            capsys, ["bisim", "--in", str(infile), "--other", str(infile)])
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "bisimilarity 1"
        assert "v2 v2' 1" in lines

    def test_bisim_output_is_byte_stable(self, tmp_path, capsys):
        # the pair relation and the bisimilarity line, byte for byte as the
        # rank-matrix engine printed them
        chains = tmp_path / "chains.txt"
        chains.write_text(write_interpretation(two_chains()))
        reduced = tmp_path / "reduced.txt"
        reduced.write_text(
            "concepts A\nroles r\nindividuals a b\ndomain u1 v1 w1\nind a u1\nind b u1\n"
            "concept A w1 1\nrole r u1 v1 0.8\nrole r v1 w1 0.8\n")
        status, out, _ = run_cli(capsys, ["bisim", "--in", str(chains), "--other", str(reduced)])
        assert status == 0
        assert out == (
            "u1 u1 0.8\nu2 u1 0.8\nv1 v1 0.8\nv2 v1 0.8\nw1 w1 1\nw2 w1 0.8\n"
            "bisimilarity 0.8\n")
        status, out, _ = run_cli(
            capsys, ["bisim", "--in", str(reduced), "--other", str(chains), "--with-o"])
        assert status == 0
        assert out == "v1 v1 0.8\nv1 v2 0.8\nw1 w1 1\nw1 w2 0.8\nbisimilarity 0\n"

    def test_gen_and_bench_commands(self, tmp_path, capsys):
        genfile = tmp_path / "gen.txt"
        status, out, err = run_cli(
            capsys,
            ["gen", "2", "10", "15", "2", "4", "3", "2", "2", "1", "0", "0",
             "--seed", "5", "--out", str(genfile)])
        assert status == 0
        _, interp = parse_interpretation(genfile.read_text())
        assert interp.n == 20

        spec = tmp_path / "bench.txt"
        spec.write_text("# tiny smoke row\n2 10 15 2 4 3 2 2 1 0 0\n")
        csv = tmp_path / "bench.csv"
        status, out, err = run_cli(
            capsys,
            ["bench", "--spec", str(spec), "--repeats", "2", "--csv", str(csv)])
        assert status == 0
        assert "parameters" in out
        assert csv.read_text().startswith("params,n1,m1,reduction,seconds")

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_repeats_below_one_exit_1(self, tmp_path, capsys, repeats):
        spec = tmp_path / "bench.txt"
        spec.write_text("2 10 15 2 4 3 2 2 1 0 0\n")
        status, out, err = run_cli(capsys, ["bench", "--spec", str(spec), "--repeats", repeats])
        assert (status, out) == (1, "")
        assert err == f"error: repeats must be at least 1, got {repeats}\n"

    @pytest.mark.parametrize("route", ["in", "other", "spec", "stdin"])
    def test_input_that_is_not_utf8_exits_1(self, tmp_path, capsys, monkeypatch, route):
        # a byte that no UTF-8 text holds, in a comment the parser would skip
        bad = b"# \xff\n" + TWIN_FILE.encode()
        good = tmp_path / "good.txt"
        good.write_text(TWIN_FILE)
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# \xff\n2 10 15 2 4 3 2 2 1 0 0\n" if route == "spec" else bad)
        argv = {
            "in": ["minimize", "--in", str(path)],
            "other": ["bisim", "--in", str(good), "--other", str(path)],
            "spec": ["bench", "--spec", str(path)],
            "stdin": ["partition"],
        }[route]
        status, out, err = run_cli(capsys, argv, bad if route == "stdin" else None, monkeypatch)
        where = "-" if route == "stdin" else str(path)
        assert (status, out) == (1, "")
        assert err == f"error: cannot read {where}: not UTF-8 (invalid start byte at byte 2)\n"

    def test_exit_codes(self, tmp_path, capsys):
        # input errors exit with 1
        status, out, err = run_cli(capsys, ["minimize", "--in", str(tmp_path / "nope.txt")])
        assert status == 1 and "error" in err
        bad = tmp_path / "bad.txt"
        bad.write_text("concepts A\nroles r\nindividuals a\ndomain x\nind a x\nrole r x x 0\n")
        status, out, err = run_cli(capsys, ["minimize", "--in", str(bad)])
        assert status == 1 and "zero" in err
        # bad usage is an input error too
        status, out, err = run_cli(capsys, ["minimize", "--gamma"])
        assert status == 1
        status, out, err = run_cli(capsys, ["minimize", "--gamma", "2", "--in", str(bad)])
        assert status == 1

    def test_internal_failure_exits_with_2(self, tmp_path, capsys, monkeypatch):
        import fuzzymin.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        monkeypatch.setattr(cli, "approximate_minimize", boom)
        status, out, err = run_cli(capsys, ["minimize", "--in", str(infile)])
        assert status == 2 and "internal error" in err

    def test_default_flags_match_documented_defaults(self, tmp_path, capsys):
        # gamma defaults to 1 and features default to off
        infile = tmp_path / "in.txt"
        infile.write_text(write_interpretation(two_chains()))
        status, out, _ = run_cli(capsys, ["minimize", "--in", str(infile)])
        assert status == 0
        _, reduced = parse_interpretation(out)
        assert reduced == two_chains()

    def test_byte_stable_replay(self, tmp_path, capsys):
        infile = tmp_path / "in.txt"
        infile.write_text(write_interpretation(layered_cycles()))
        outputs = []
        for _ in range(2):
            status, out, err = run_cli(capsys, ["minimize", "--in", str(infile)])
            assert status == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(interpretations(), feature_sets)
    def test_write_then_parse_is_the_identity(self, interp, features):
        sig = interp.signature
        interp = FuzzyInterpretation(
            Signature(sig.concept_names, sig.role_names, sig.individual_names, features),
            interp.domain, interp.individuals, interp.concepts, interp.roles,
        )
        text = write_interpretation(interp)
        assert ("\nfeatures " in text) == bool(features)
        assert parse_interpretation(text)[1] == interp

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.text(st.sampled_from("ab#_ \t\f\x1c\xa0\u2028"), max_size=3),
                    min_size=1, max_size=4, unique=True))
    def test_built_names_round_trip_or_fail_at_build(self, names):
        # a name reads back iff str.split keeps it whole and it holds no '#'
        readable = all(name.split() == [name] and "#" not in name for name in names)
        try:
            interp = make_interpretation(
                Signature(("A",), ("r",), ("a",)), names, {"a": names[0]},
                {"A": {names[-1]: "0.5"}}, {"r": {(names[0], names[-1]): "0.7"}},
            )
        except ValueError:
            assert not readable
            return
        assert readable
        assert parse_interpretation(write_interpretation(interp))[1] == interp

    # tokens a mutation may write in place of another one
    NOISE = ("0", "1", "0.5", "1.5", "-0.2", "0.1234567891", ".", "x", "features", "I", "O",
             "domain", "ind", "concept", "role", "#")

    def mutate(self, rng, text):
        lines = text.splitlines()
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(lines))
            op = rng.randrange(5)
            if op == 0:
                del lines[k]
            elif op == 1:
                lines.insert(k, lines[k])
            elif op == 2:
                j = rng.randrange(len(lines))
                lines[k], lines[j] = lines[j], lines[k]
            else:
                tokens = lines[k].split()
                if tokens:
                    t = rng.randrange(len(tokens))
                    if op == 3:
                        pool = text.split() + list(self.NOISE)
                        tokens[t] = rng.choice(pool)
                    else:
                        del tokens[t]
                lines[k] = " ".join(tokens)
            if not lines:
                break
        return "\n".join(lines) + "\n"

    def test_mutated_inputs_exit_0_or_1(self, capsys, monkeypatch):
        # malformed input is an input error (1), never an internal one (2)
        rng = random.Random(4242)
        texts = [write_interpretation(f()) for f in (twin_stars, layered_cycles, two_chains, research_network)]
        statuses = {0: 0, 1: 0}
        for i in range(400):
            mutant = self.mutate(rng, rng.choice(texts))
            command = ["partition", "minimize"][i % 2]
            monkeypatch.setattr(sys, "stdin", fake_stdin(mutant))
            status = main([command, "--gamma", "0.5"] if command == "minimize" else [command])
            err = capsys.readouterr().err
            assert status in statuses, (command, mutant, err)
            statuses[status] += 1
        assert statuses[0] and statuses[1]

    # one SHA-256 over the parser's outcome on each of those mutants, pinned
    # to the value the parser gave before it dispatched role lines first
    MUTANT_DIGEST = "6cc81e366e8ae459d54062541e249d21f788d407faaa4e9114ee9b8de1f9f3d5"

    def test_mutated_inputs_parse_as_recorded(self):
        # the mutants of test_mutated_inputs_exit_0_or_1, in the same order;
        # an outcome is the text written back, or the error message
        rng = random.Random(4242)
        texts = [write_interpretation(f()) for f in (twin_stars, layered_cycles, two_chains, research_network)]
        digest = hashlib.sha256()
        failed = 0
        for _ in range(400):
            mutant = self.mutate(rng, rng.choice(texts))
            try:
                outcome = write_interpretation(parse_interpretation(mutant)[1])
            except CliInputError as exc:
                outcome = f"error: {exc}"
                failed += 1
            digest.update(f"{outcome}\n--\n".encode())
        assert 0 < failed < 400
        assert digest.hexdigest() == self.MUTANT_DIGEST


class TestDeepInputs:
    def test_staircase_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        levels = 1200
        assert levels > sys.getrecursionlimit()
        infile = tmp_path / "stairs.txt"
        infile.write_text(write_interpretation(staircase(levels)))
        status, out, err = run_cli(capsys, ["partition", "--in", str(infile)])
        assert (status, err) == (0, "")
        assert out.startswith("{{x0}_1, {{x1}_1, ") and out.count("{") == 2 * levels - 1
        outfile = tmp_path / "out.txt"
        status, out, err = run_cli(capsys, ["minimize", "--in", str(infile), "--out", str(outfile)])
        assert (status, err) == (0, "")
        _, reduced = parse_interpretation(outfile.read_text())
        assert list(reduced.domain) == ["x0"]

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_flat_concept_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys, op):
        # the parser reads a flat chain in a loop into a left-nested tree
        # 5000 deep; the evaluator and the printer walk it without recursing
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        outputs = []
        for terms in (2, 5000):
            status, out, err = run_cli(
                capsys, ["eval", "--concept", f" {op} ".join(["A"] * terms), "--in", str(infile)])
            assert (status, err) == (0, "")
            outputs.append(out)
        assert outputs[1] == outputs[0] == "v1:0.7\nv2:0.8\nv3:0.9\nv1':0.7\nv2':0.8\n"

    @pytest.mark.parametrize("left, right", [("(", ")"), ("exists r . ", "")])
    def test_nested_concept_deeper_than_the_recursion_limit(self, tmp_path, capsys, left, right):
        # the parser recurses once per nesting level; past the recursion
        # limit that is an input error (exit 1), never an internal one (2)
        infile = tmp_path / "in.txt"
        infile.write_text(TWIN_FILE)
        depth = 5000
        status, out, err = run_cli(
            capsys, ["eval", "--concept", left * depth + "A" + right * depth, "--in", str(infile)])
        assert status in (0, 1), err
        assert status == 0 or err.startswith("error: bad concept expression: ")
