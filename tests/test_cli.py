import pytest

from fuzzymin.cli import (
    CliInputError,
    main,
    parse_interpretation,
    write_interpretation,
)
from fuzzymin.core import Degree
from instances import layered_cycles, twin_stars, two_chains

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

    def test_generated_instances_round_trip(self):
        from fuzzymin.genbench import GeneratorParams, generate
        interp = generate(GeneratorParams(
            k=2, n_per=15, m_per=25, o_per=2, p_per=6, l=4, sCN=2, sRN=2,
            acyclic=False, seed=3))
        text = write_interpretation(interp)
        _, reparsed = parse_interpretation(text)
        assert write_interpretation(reparsed) == text
        assert reparsed == interp


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
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
