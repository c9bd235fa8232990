import json

import pytest

from alliances import generators
from alliances.cli import main, parse_family
from alliances.generators import GraphFamilySpec, build
from alliances.io_formats import parse_edgelist, parse_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestAnalyze:
    def test_petersen_all(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen", "--all", "--deterministic")
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
        assert report["exact"]["offensive"]["value"] >= 1
        assert "generated_at" not in report
        assert all(row["gap"] >= 0 for row in report["bounds"] if "gap" in row)

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

    def test_bounds_only(self, capsys):
        code, out, _ = run(capsys, "analyze", "gnp:9:0.4:seed=1", "--bounds-only", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["exact"] == {}
        assert report["bounds"]

    def test_deterministic_output_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "analyze", "gnp:8:0.5:seed=9", "--all", "--deterministic")
        _, second, _ = run(capsys, "analyze", "gnp:8:0.5:seed=9", "--all", "--deterministic")
        assert first == second

    def test_report_round_trips_through_json(self, capsys):
        _, out, _ = run(capsys, "analyze", "icosahedron", "--deterministic")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_timestamp_present_without_flag(self, capsys):
        _, out, _ = run(capsys, "analyze", "complete:3")
        assert "generated_at" in json.loads(out)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen", "--format", "csv", "--deterministic")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("label,theorem,target,bound")
        assert len(lines) == 19  # header + 18 theorem/target rows

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
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\n"))
        code, out, _ = run(capsys, "analyze", "-", "--deterministic")
        assert code == 0
        assert json.loads(out)["label"] == "stdin"

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

    def test_ceiling_skips_exact_solving(self, capsys):
        code, out, _ = run(capsys, "analyze", "complete:6", "--max-n", "4", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert all("skipped" in entry for entry in report["exact"].values())

    def test_env_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("ALLIANCE_MAX_N", "4")
        _, out, _ = run(capsys, "analyze", "complete:6", "--specs", "def", "--deterministic")
        assert "skipped" in json.loads(out)["exact"]["defensive"]

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

    def test_bad_spec_token_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "petersen", "--specs", "def,bogus")
        assert code == 2
        assert "bogus" in err


class TestSurvey:
    def test_complete_family_is_tight_for_def_mu(self, capsys):
        code, out, _ = run(capsys, "survey", "complete:7", "--count", "3", "--seed", "1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        rows, summary = lines[:-1], lines[-1]["summary"]
        assert len(rows) == 3
        assert all(row["violations"] == 0 for row in rows)
        def_mu = next(r for r in summary if r["theorem"] == "def-mu" and r["target"] == "defensive")
        assert def_mu["tight"] == 3 and def_mu["max_gap"] == 0

    def test_random_family_no_violations(self, capsys):
        code, out, _ = run(capsys, "survey", "gnp:7:0.5", "--count", "8", "--seed", "3")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert all(entry["violations"] == 0 for entry in summary)

    def test_random_regular_applies_girth_theorem(self, capsys):
        code, out, _ = run(capsys, "survey", "random_regular:10:3", "--count", "5", "--seed", "2")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        girth_rows = [r for r in summary if r["theorem"] == "girth-regular-mu"]
        assert girth_rows and girth_rows[0]["applicable"] == 5
        assert girth_rows[0]["violations"] == 0

    def test_csv_summary(self, capsys):
        code, out, _ = run(capsys, "survey", "complete:5", "--count", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "theorem,target,applicable,violations,tight,mean_gap,max_gap"

    def test_resource_limit_exits_3(self, capsys):
        code, _, err = run(capsys, "survey", "gnp:30:0.2", "--count", "1")
        assert code == 3
        assert "resource limit" in err

    def test_violation_exits_4_with_edgelist(self, capsys, monkeypatch):
        # No theorem actually violates, so fake one bad row to prove the
        # fail-loudly wiring: exit code 4 and the graph dumped to stderr.
        import alliances.report as report_mod

        real_analyze = report_mod.analyze

        def poisoned(g, **kwargs):
            report = real_analyze(g, **kwargs)
            for row in report["bounds"]:
                if "gap" in row:
                    row["gap"] = -1
                    break
            return report

        monkeypatch.setattr(report_mod, "analyze", poisoned)
        code, _, err = run(capsys, "survey", "complete:5", "--count", "2")
        assert code == 4
        assert "SOUNDNESS VIOLATION" in err
        assert "0 1" in err  # edgelist of K_5 starts with this edge


class TestGenerate:
    def test_edgelist_output(self, capsys):
        code, out, _ = run(capsys, "generate", "complete:4")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_graph6_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "generate", "petersen", "--format", "graph6")
        assert code == 0
        assert parse_graph6(out.strip()) == generators.petersen()

    def test_regular_graph_not_found_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "random_regular:10:8:seed=1")
        assert code == 2
        assert out == ""
        assert err == "alliance: error: configuration model failed to produce a simple graph after 2000 tries\n"

    def test_bowtie_alias_for_join(self, capsys):
        code, out, _ = run(capsys, "generate", "bowtie")
        assert code == 0
        g, _ = parse_edgelist(out)
        assert g == build(GraphFamilySpec("bowtie"))
