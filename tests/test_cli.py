import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alliances
from alliances import alliance_solver, bounds, generators
from alliances.alliance_solver import VARIANTS
from alliances.cli import main, parse_family
from alliances.generators import GraphFamilySpec, build
from alliances.graph_core import MAX_ORDER
from alliances.io_formats import parse_edgelist, parse_graph6, write_graph6
from alliances.report import EXACT_SPECS

from corpus import edgeless_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def planted_violation(monkeypatch):
    """No theorem actually violates, so plant one in the theorem table: a
    domination bound of 2, one above the exact value on complete graphs."""
    planted = bounds._Theorem("dom-laplacian", ("domination",), lambda n: 2)
    monkeypatch.setattr(bounds, "_THEOREMS", (planted,))


class TestFamilyGrammar:
    def test_plain_name(self):
        assert parse_family("petersen") == GraphFamilySpec("petersen")

    def test_int_params(self):
        assert parse_family("complete:6") == GraphFamilySpec("complete", (6,))
        assert parse_family("grid:2:3") == GraphFamilySpec("grid", (2, 3))

    def test_float_and_seed(self):
        assert parse_family("gnp:20:0.3:seed=7") == GraphFamilySpec("gnp", (20, 0.3), seed=7)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            parse_family("moebius:5")

    def test_bad_parameter(self):
        with pytest.raises(ValueError, match="bad family parameter"):
            parse_family("complete:many")

    def test_bad_seed_names_the_token(self, capsys):
        with pytest.raises(ValueError, match="bad seed 'x' in 'gnp:5:0.5:seed=x'"):
            parse_family("gnp:5:0.5:seed=x")
        code, out, err = run(capsys, "survey", "complete:4:seed=", "--count", "1")
        assert code == 2
        assert out == ""
        assert "bad seed '' in 'complete:4:seed='" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["survey", "gnp:8:0.5:seed=-3", "--count", "7", "--format", "csv"],
            ["analyze", "random_regular:12:3:seed=-5"],
            ["generate", "gnp:10:0.5:seed=-1"],
            ["analyze", "petersen:seed=-3"],
            ["survey", "complete:4:seed=-3", "--count", "2"],
            ["generate", "bowtie:seed=-1"],
        ],
    )
    def test_negative_seed_exits_2(self, capsys, argv):
        # A negative seed would draw the graph of its absolute value: the
        # survey's seeds -3..3 would be four graphs under seven names. The
        # spec refuses it when it is made, for every family, so analyze
        # reports it as a source that is not a family spec.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        reason = f"seed must be >= 0, got {argv[1].split('seed=')[1]}"
        if argv[0] == "analyze":
            source = f"source {argv[1]!r} is neither a readable file nor a family spec"
            assert err == f"alliance: parse error: {source} ({reason})\n"
        else:
            assert err == f"alliance: error: {reason}\n"

    def test_repeated_seed(self, capsys):
        with pytest.raises(ValueError, match="repeated seed"):
            parse_family("gnp:5:0.5:seed=1:seed=2")
        code, out, err = run(capsys, "generate", "gnp:5:0.5:seed=1:seed=2")
        assert code == 2
        assert out == ""
        assert "repeated seed" in err


class TestAnalyze:
    def test_petersen_default_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["graph"]["girth"] == 5
        assert report["spectral"]["algebraic_connectivity"] == pytest.approx(2.0)
        assert report["spectral"]["laplacian_radius"] == pytest.approx(5.0)
        assert report["spectral"]["spectral_radius"] == pytest.approx(3.0)
        bounds = {(row["theorem"], row["target"]): row for row in report["bounds"]}
        assert bounds[("globoff-laplacian", "global_offensive")]["value"] == 4
        assert bounds[("globoff-laplacian", "global_strong_offensive")]["value"] == 6
        assert bounds[("girth-regular-mu", "girth")]["gap"] == 0
        assert report["exact"]["domination"] == {"value": 3, "witness": [0, 2, 6]}
        # The report holds results only: no search or eigensolver diagnostics.
        assert all(set(entry) == {"value", "witness"} for entry in report["exact"].values())
        assert set(report["spectral"]) == {
            "spectral_radius", "algebraic_connectivity", "laplacian_radius", "laplacian_spectrum"
        }
        assert "generated_at" not in report
        assert all(row["gap"] >= 0 for row in report["bounds"] if "gap" in row)
        # A bound row holds its result only; the quantities a theorem reads
        # are stated once, in the graph and spectral blocks. Every theorem
        # applies to Petersen; on the 2-regular cycle:6 the girth one does not.
        _, cycle_out, _ = run(capsys, "analyze", "cycle:6", "--bounds-only", "--deterministic")
        rows = report["bounds"] + json.loads(cycle_out)["bounds"]
        row_keys = {"theorem", "target", "value", "applicable", "reason", "degenerate", "exact", "gap"}
        assert all(set(row) <= row_keys for row in rows)
        assert all("reason" not in row for row in rows if row["applicable"])
        inapplicable = [row for row in rows if not row["applicable"]]
        assert inapplicable and all(row["value"] is None and row["reason"] for row in inapplicable)

    def test_theorem_filter(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen", "--theorems", "def-mu,dom-laplacian", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert {row["theorem"] for row in report["bounds"]} == {"def-mu", "dom-laplacian"}

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "petersen", "--theorems", "def-nu")
        assert code == 2
        assert "unknown theorem" in err

    def test_specs_filter(self, capsys):
        code, out, _ = run(capsys, "analyze", "complete:6", "--specs", "def,strongdef", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert set(report["exact"]) == {"defensive", "strong_defensive"}
        assert report["exact"]["defensive"]["value"] == 3
        assert report["exact"]["strong_defensive"]["value"] == 4
        assert report["exact"]["defensive"]["witness"] == [0, 1, 2]

    def test_repeated_spec_prints_and_solves_as_one(self, capsys, monkeypatch):
        calls = []
        solve = alliances.report.min_alliance_number

        def counted(*args, **kwargs):
            calls.append(args[1].name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(alliances.report, "min_alliance_number", counted)
        _, once, _ = run(capsys, "analyze", "petersen", "--specs", "def", "--deterministic")
        _, twice, _ = run(capsys, "analyze", "petersen", "--specs", "def,defensive", "--deterministic")
        assert twice == once
        assert calls == ["defensive", "defensive"]  # one search per run

    def test_bounds_only(self, capsys):
        code, out, _ = run(capsys, "analyze", "gnp:9:0.4:seed=1", "--bounds-only", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["exact"] == {}
        assert report["bounds"]

    def test_deterministic_output_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "analyze", "gnp:8:0.5:seed=9", "--deterministic")
        _, second, _ = run(capsys, "analyze", "gnp:8:0.5:seed=9", "--deterministic")
        assert first == second

    def test_report_round_trips_through_json(self, capsys):
        _, out, _ = run(capsys, "analyze", "icosahedron", "--deterministic")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_timestamp_present_without_flag(self, capsys):
        _, out, _ = run(capsys, "analyze", "complete:3")
        assert "generated_at" in json.loads(out)

    @pytest.mark.parametrize("source", ["petersen", "cycle:6", "a,b.edges"])
    def test_csv_format(self, capsys, tmp_path, monkeypatch, source):
        # cycle:6 has a reason with commas, a,b.edges a label with one.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a,b.edges").write_text("x y\ny z\nz w\n")
        code, out, _ = run(capsys, "analyze", source, "--format", "csv", "--deterministic")
        assert code == 0
        _, text, _ = run(capsys, "analyze", source, "--deterministic")
        report = json.loads(text)
        assert out.startswith("label,theorem,target,bound,applicable,degenerate,exact,gap,reason\n")
        rows = list(csv.reader(out.splitlines()))
        assert [len(row) for row in rows] == [9] * (1 + len(report["bounds"]))
        for row, bound in zip(rows[1:], report["bounds"]):
            assert row[0] == report["label"] == source
            assert row[1:3] == [bound["theorem"], bound["target"]]
            assert row[8] == bound.get("reason", "")

    def test_edgelist_file(self, capsys, tmp_path):
        source = tmp_path / "triangle.edges"
        source.write_text("a b\nb c\nc a\n")
        code, out, _ = run(capsys, "analyze", str(source), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["graph"] == {
            "n": 3, "m": 3, "min_degree": 2, "max_degree": 2,
            "regular": 2, "connected": True, "girth": 3,
        }
        assert report["labels"] == ["a", "b", "c"]

    def test_graph6_file(self, capsys, tmp_path):
        source = tmp_path / "k4.g6"
        source.write_text("C~\n")
        code, out, _ = run(capsys, "analyze", str(source), "--deterministic")
        assert code == 0
        assert json.loads(out)["graph"]["m"] == 6

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\n"))
        code, out, _ = run(capsys, "analyze", "-", "--deterministic")
        assert code == 0
        assert json.loads(out)["label"] == "stdin"

    @pytest.mark.parametrize(
        ("text", "argv", "code", "expected"),
        [
            (write_graph6(generators.petersen()) + "\n", (), 0, 10),
            ("v\n", (), 0, 1),
            (write_graph6(generators.petersen()) + "\n", ("--input-format", "edgelist"), 0, 1),
            ("?\n", (), 0, 1),
            (edgeless_graph6(MAX_ORDER + 1) + "\n", (), 2, f"order {MAX_ORDER + 1} exceeds the ceiling"),
            ("IheA@GUAo\nA_\n", (), 2, "holds 2 graphs"),
            ("~~" + "~" * 6 + "?\n", (), 2, "ceiling"),
        ],
        ids=(
            "graph6-line", "lone-token", "forced-edgelist", "order-zero",
            "order-above-ceiling", "two-graph-stream", "eight-byte-order",
        ),
    )
    def test_stdin_format_detection(self, capsys, monkeypatch, text, argv, code, expected):
        # graph6 when every non-blank line is one token laid out as graph6
        # (bytes 63-126, an order field of n >= 1, a body of the length n
        # needs); an edge list otherwise. A graph6 input's own errors (an
        # order above the ceiling, more than one graph) exit 2.
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        got, out, err = run(capsys, "analyze", "-", *argv, "--bounds-only", "--deterministic")
        assert got == code
        if code == 0:
            assert json.loads(out)["graph"]["n"] == expected
        else:
            assert out == "" and len(err.splitlines()) == 1 and expected in err

    def test_graph6_file_with_two_graphs(self, capsys, tmp_path):
        source = tmp_path / "pair.g6"
        source.write_text(write_graph6(generators.petersen()) + "\nA_\n")
        code, out, err = run(capsys, "analyze", str(source), "--bounds-only")
        assert code == 2 and out == ""
        assert "holds 2 graphs" in err and "analyze reads one graph" in err

    def test_byte_order_mark_is_not_a_label(self, capsys, tmp_path):
        source = tmp_path / "bom.txt"
        source.write_bytes(b"\xef\xbb\xbfa b\nb c\n")
        code, out, _ = run(capsys, "analyze", str(source), "--bounds-only", "--deterministic")
        assert code == 0
        assert json.loads(out)["labels"] == ["a", "b", "c"]

    def test_order_one_graph(self, capsys):
        code, out, _ = run(capsys, "analyze", "path:1", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["spectral"] is None
        assert report["exact"]["defensive"]["value"] == 1
        assert report["exact"]["domination"]["value"] == 1
        by_id = {(row["theorem"], row["target"]): row for row in report["bounds"]}
        assert not by_id[("def-mu", "defensive")]["applicable"]
        assert by_id[("globdef-degree", "global_defensive")]["value"] == 1

    def test_order_above_ceiling_exits_3(self, capsys):
        # Refused by the solver before girth and spectra, which take over a
        # minute at this order.
        code, out, err = run(capsys, "analyze", "path:600")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "order 600 exceeds the solver ceiling 24" in err
        assert "--max-n" in err and "--bounds-only" in err

    def test_no_search_above_the_ceiling_or_for_bounds_alone(self, capsys, monkeypatch):
        # The ceiling is checked inside min_alliance_number, before its
        # search, so the search routine itself is what must not run.
        def no_search(*args):
            raise AssertionError("exact search run")

        monkeypatch.setattr(alliance_solver, "_search_exact", no_search)
        assert run(capsys, "analyze", "path:600")[0] == 3
        assert run(capsys, "analyze", "hypercube:4", "--bounds-only")[0] == 0
        with pytest.raises(AssertionError, match="exact search run"):
            main(["analyze", "hypercube:4"])  # a plain analyze does reach the patched routine

    def test_bounds_only_runs_above_the_solver_ceiling(self, capsys):
        code, out, _ = run(capsys, "analyze", "complete:6", "--max-n", "4", "--bounds-only", "--deterministic")
        assert code == 0
        assert json.loads(out)["exact"] == {}

    @pytest.mark.parametrize(
        ("argv", "field"),
        [
            (["--theorems", ""], "bounds"),
            (["--theorems", ","], "bounds"),
            (["--specs", ""], "exact"),
            (["--specs", " , "], "exact"),
        ],
        ids=("empty-theorems", "comma-theorems", "empty-specs", "comma-specs"),
    )
    def test_given_empty_list_selects_nothing(self, capsys, argv, field):
        code, out, _ = run(capsys, "analyze", "petersen", *argv, "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert not report[field]
        assert report["bounds" if field == "exact" else "exact"]  # the other list keeps its default

    def test_all_is_not_an_option(self, capsys):
        # Every row is computed by default, so there is nothing for --all to add.
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "petersen", "--all"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --all" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "cycle:12", "--tol", "0.1"],
            ["survey", "gnp:8:0.5:seed=1", "--count", "30", "--tol", "0.1"],
        ],
    )
    def test_tolerance_is_not_an_option(self, capsys, argv):
        # The integer snapping of the bounds is sound only at the fixed
        # eigensolver tolerance; a loose one once gave bound 7 > exact 6.
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_unknown_source_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "no_such_thing")
        assert code == 2
        assert "parse error" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        source = tmp_path / "bad.edges"
        source.write_text("a a\n")
        code, _, err = run(capsys, "analyze", str(source))
        assert code == 2
        assert "self-loop" in err

    def test_directory_source_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "parse error" in err and "cannot read" in err

    def test_unreadable_file_exits_2(self, capsys, monkeypatch, tmp_path):
        source = tmp_path / "locked.edges"
        source.write_text("a b\n")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(source))

        # chmod does not stop a superuser from reading, so deny at open()
        monkeypatch.setattr("alliances.cli.open", denied, raising=False)
        code, out, err = run(capsys, "analyze", str(source))
        assert code == 2
        assert out == ""
        assert "Permission denied" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "petersen", "--max-n", "-1"],
            ["analyze", "petersen", "--max-n", "0"],
            ["survey", "complete:4", "--count", "1", "--max-n", "0"],
        ],
    )
    def test_nonpositive_ceiling_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "max_n must be at least 1" in err

    def test_default_reports_every_variant_in_table_order(self, capsys):
        assert tuple(EXACT_SPECS.values()) == tuple(VARIANTS)
        code, out, _ = run(capsys, "analyze", "bowtie", "--deterministic")
        assert code == 0
        assert tuple(json.loads(out)["exact"]) == tuple(VARIANTS)

    def test_bad_spec_token_exits_2(self, capsys):
        # No theorem bounds the boundary-only offensive numbers, so neither
        # their tokens nor their names select a row.
        for token in ("bogus", "off", "strongoff", "offensive", "strong_offensive"):
            code, out, err = run(capsys, "analyze", "petersen", "--specs", f"def,{token}")
            assert code == 2
            assert out == ""
            assert f"unknown alliance spec {token!r}; valid names: {', '.join(VARIANTS)}" in err

    def test_violation_exits_4_with_graph(self, capsys, planted_violation):
        code, out, err = run(capsys, "analyze", "complete:5")
        assert code == 4
        assert out == ""
        assert "SOUNDNESS VIOLATION" in err
        assert "complete:5" in err
        line = next(line for line in err.splitlines() if line.startswith("offending graph (graph6): "))
        assert parse_graph6(line.split(": ", 1)[1]) == generators.complete(5)
        edgelist = err.split("offending graph (edgelist):\n", 1)[1]
        assert parse_edgelist(edgelist)[0] == generators.complete(5)


    def test_violation_names_the_input_labels(self, capsys, monkeypatch, planted_violation):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\nc a\n"))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 4
        assert out == ""
        assert err.split("offending graph (edgelist):\n", 1)[1] == "a b\na c\nb c\n"


class TestSurvey:
    def test_complete_family_is_tight_for_def_mu(self, capsys):
        code, out, _ = run(capsys, "survey", "complete:7:seed=1", "--count", "3")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        rows, summary = lines[:-1], lines[-1]["summary"]
        assert len(rows) == 3
        assert all(row["violations"] == 0 for row in rows)
        def_mu = next(r for r in summary if r["theorem"] == "def-mu" and r["target"] == "defensive")
        assert def_mu["tight"] == 3 and def_mu["max_gap"] == 0

    def test_random_family_no_violations(self, capsys):
        code, out, _ = run(capsys, "survey", "gnp:7:0.5:seed=3", "--count", "8")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert all(entry["violations"] == 0 for entry in summary)

    def test_random_regular_applies_girth_theorem(self, capsys):
        code, out, _ = run(capsys, "survey", "random_regular:10:3:seed=2", "--count", "5")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        girth_rows = [r for r in summary if r["theorem"] == "girth-regular-mu"]
        assert girth_rows and girth_rows[0]["applicable"] == 5
        assert girth_rows[0]["violations"] == 0

    def test_family_seed_is_the_base_seed(self, capsys):
        code, out, _ = run(capsys, "survey", "gnp:7:0.5:seed=5", "--count", "2")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        assert [row["seed"] for row in rows] == [5, 6]

    def test_closed_stdout_exits_1_without_traceback(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "sink", "w") as sink:

            class ClosedPipe:
                """A pipe whose reader has exited, as its writer sees it."""

                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return sink.fileno()  # main points this descriptor at devnull

            monkeypatch.setattr("sys.stdout", ClosedPipe())
            assert main(["survey", "gnp:7:0.5", "--count", "3"]) == 1
        assert capsys.readouterr().err == ""

    def test_csv_summary(self, capsys):
        code, out, _ = run(capsys, "survey", "complete:5", "--count", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "theorem,target,applicable,violations,tight,mean_gap,max_gap"

    def test_resource_limit_exits_3(self, capsys):
        # The solver's own refusal, word for word as analyze prints it.
        code, out, err = run(capsys, "survey", "gnp:30:0.5", "--count", "1")
        assert code == 3
        assert out == ""
        assert "resource limit" in err
        assert err == run(capsys, "analyze", "gnp:30:0.5")[2]
        assert len(err.splitlines()) == 1 and "--max-n" in err and "--bounds-only" in err

    def test_violation_exits_4_with_edgelist(self, capsys, planted_violation):
        code, _, err = run(capsys, "survey", "complete:5", "--count", "2")
        assert code == 4
        assert "SOUNDNESS VIOLATION" in err
        assert "complete:5:seed=0" in err  # the sample, replayable with `alliance analyze`
        assert "0 1" in err  # edgelist of K_5 starts with this edge
        # graph6 line, which `alliance analyze <file>.g6` reads back
        line = next(line for line in err.splitlines() if line.startswith("offending graph (graph6): "))
        assert parse_graph6(line.split(": ", 1)[1]) == generators.complete(5)


class TestGenerate:
    def test_edgelist_output(self, capsys):
        code, out, _ = run(capsys, "generate", "complete:4")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_graph6_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "generate", "petersen", "--format", "graph6")
        assert code == 0
        assert parse_graph6(out.strip()) == generators.petersen()

    def test_dense_regular_graph_is_generated(self, capsys):
        # Every configuration-model pairing fails for this seed; the
        # double-edge-switch fallback still yields an 8-regular graph.
        code, out, err = run(capsys, "generate", "random_regular:10:8:seed=1")
        assert code == 0
        assert err == ""
        g, _ = parse_edgelist(out)
        assert (g.n, g.m) == (10, 40)
        assert all(len(neighbors) == 8 for neighbors in g.adjacency)

    def test_unseeded_family_uses_seed_zero(self, capsys):
        _, unseeded, _ = run(capsys, "generate", "gnp:14:0.5")
        _, again, _ = run(capsys, "generate", "gnp:14:0.5")
        _, seeded, _ = run(capsys, "generate", "gnp:14:0.5:seed=0")
        assert unseeded == again == seeded

    def test_bowtie_edge_list_matches_build(self, capsys):
        code, out, _ = run(capsys, "generate", "bowtie")
        assert code == 0
        g, _ = parse_edgelist(out)
        assert g == build(GraphFamilySpec("bowtie"))


class TestOrderCeiling:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "hypercube:30"),
            ("generate", "grid:5000:5000"),
            ("generate", "complete_minus_matching:5000"),
            ("generate", "random_regular:5000:3"),
            ("analyze", "complete:4097"),
            ("analyze", "gnp:4097:0.001"),
        ],
    )
    def test_order_above_ceiling_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"exceeds the ceiling of {MAX_ORDER} vertices" in err

    def test_ceiling_order_still_builds(self, capsys):
        code, out, _ = run(capsys, "generate", "hypercube:12")
        assert code == 0
        g, _ = parse_edgelist(out)
        assert (g.n, g.m) == (MAX_ORDER, 12 * MAX_ORDER // 2)


def test_generate_piped_into_analyze():
    # Two real processes joined by an OS pipe: every other test swaps an
    # io.StringIO in for stdin.
    env = {**os.environ, "PYTHONPATH": str(Path(alliances.__file__).parents[1])}
    cli = [sys.executable, "-m", "alliances.cli"]
    with subprocess.Popen([*cli, "generate", "petersen", "--format", "graph6"], stdout=subprocess.PIPE, env=env) as generate:
        analyze = subprocess.run(
            [*cli, "analyze", "-", "--bounds-only", "--deterministic"],
            stdin=generate.stdout, capture_output=True, text=True, env=env, timeout=60,
        )
    assert generate.returncode == 0
    assert analyze.returncode == 0, analyze.stderr
    assert json.loads(analyze.stdout)["graph"]["n"] == 10
