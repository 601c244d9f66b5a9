from __future__ import annotations

import io
import json

import pytest

from lex2vec.cli import main

EMBEDDINGS = "good 1.0 0.0\nbad 0.0 0.5\ntable 0.5 1.0\n"
PLAIN_LEXICON = "good\tposemo\nbad\tnegemo\n"
NRC_LEXICON = "good\tposemo\t1\nbad\tnegemo\t1\nbad\tjoy\t0\n"
LIWC_LEXICON = "%\n1\tposemo\n2\tnegemo\n%\ngoo*\t1\nbad\t2\n"

EXPECTED_LABEL_TSV = "0\tnegemo+posemo\tnegemo:1,posemo:1\n1\tposemo\tposemo:1\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "emb.txt").write_text(EMBEDDINGS, encoding="utf-8")
    (tmp_path / "lex.tsv").write_text(PLAIN_LEXICON, encoding="utf-8")
    (tmp_path / "nrc.txt").write_text(NRC_LEXICON, encoding="utf-8")
    (tmp_path / "liwc.dic").write_text(LIWC_LEXICON, encoding="utf-8")
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLabelCommand:
    def test_plain_lexicon_tsv(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--theta", "0.75",
        ])
        assert code == 0
        assert out == EXPECTED_LABEL_TSV

    def test_nrc_and_liwc_agree_here(self, workdir, capsys):
        _, out_nrc, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'nrc.txt'}:nrc",
        ])
        _, out_liwc, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'liwc.dic'}:liwc",
        ])
        assert out_nrc == EXPECTED_LABEL_TSV
        assert out_liwc == EXPECTED_LABEL_TSV

    def test_multiple_lexicons_merge(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain",
            "-l", f"{workdir / 'nrc.txt'}:nrc",
            "--json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["resource"] == "plain+nrc"

    def test_json_with_contributors(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--json", "--contributors",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["dimensions"][0]["contributors"] == [
            {"word": "good", "label": "posemo", "band": "high"},
            {"word": "bad", "label": "negemo", "band": "low"},
        ]

    def test_filter_cap(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--filter", "cap:1",
        ])
        assert code == 0
        assert out.splitlines()[0] == "0\tnegemo\tnegemo:1"

    def test_output_file_matches_stdout(self, workdir, capsys):
        out_path = workdir / "result.tsv"
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "-o", str(out_path),
        ])
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == EXPECTED_LABEL_TSV

    def test_stdin_embeddings(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EMBEDDINGS))
        code, out, _ = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 0
        assert out == EXPECTED_LABEL_TSV

    def test_byte_identical_across_runs(self, workdir, capsys):
        argv = [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--json", "--contributors",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestSweepCommand:
    def test_default_grid(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "sweep", "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta\tresource\tpct_unnamed\tavg_labels_dim"
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.81", "0.79", "0.77", "0.75"]

    def test_custom_grid_and_resources(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "sweep", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'nrc.txt'}:nrc", "-l", f"{workdir / 'liwc.dic'}:liwc",
            "--theta-grid", "0.9,0.6",
        ])
        assert code == 0
        lines = out.splitlines()[1:]
        assert [line.split("\t")[1] for line in lines] == ["liwc", "liwc", "nrc", "nrc"]

    def test_json_report(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "sweep", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 4
        assert {"theta", "resource", "unnamed_ratio", "avg_labels_all", "avg_labels_named"} \
            == set(doc["rows"][0])


class TestMetricsCommand:
    def test_single_row(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "metrics", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--theta", "0.75",
        ])
        assert code == 0
        assert out.splitlines()[1] == "0.75\tplain\t0.0%\t1.5"

    def test_avg_mode_named(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "metrics", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--theta", "0.75",
            "--avg-mode", "named",
        ])
        assert code == 0
        assert out.splitlines()[1].endswith("\t1.5")

    def test_distinct_labels_flag(self, workdir, capsys):
        # 'table' also maps to posemo, so dimension 1 collects posemo twice:
        # mass average is 2.0 but the distinct average stays at 1.5.
        lex = workdir / "wide.tsv"
        lex.write_text(PLAIN_LEXICON + "table\tposemo\n", encoding="utf-8")
        argv = [
            "metrics", "-e", str(workdir / "emb.txt"),
            "-l", f"{lex}:plain", "--theta", "0.75",
        ]
        _, mass_out, _ = run(capsys, argv)
        code, distinct_out, _ = run(capsys, argv + ["--distinct-labels"])
        assert code == 0
        assert mass_out.splitlines()[1] == "0.75\tplain\t0.0%\t2.0"
        assert distinct_out.splitlines()[1] == "0.75\tplain\t0.0%\t1.5"

    def test_norm_scope_flag(self, workdir, capsys):
        # per-word scaling renormalizes each row to span [0, 1], which
        # changes which cells clear the bands.
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--norm-scope", "word",
        ])
        assert code == 0
        assert out == "0\tnegemo+posemo\tnegemo:1,posemo:1\n1\tnegemo+posemo\tnegemo:1,posemo:1\n"

    def test_matches_single_theta_sweep(self, workdir, capsys):
        common = ["-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'nrc.txt'}:nrc"]
        for theta in ("0.6", "0.75", "0.9"):
            _, metrics_out, _ = run(capsys, ["metrics", *common, "--theta", theta])
            _, sweep_out, _ = run(capsys, ["sweep", *common, "--theta-grid", theta])
            assert metrics_out == sweep_out


class TestFailureModes:
    @pytest.mark.parametrize("command", ["label", "sweep", "metrics"])
    def test_output_into_missing_directory_is_write_error(self, workdir, capsys, command):
        code, out, err = run(capsys, [
            command, "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'lex.tsv'}:plain",
            "-o", str(workdir / "missing" / "out.tsv"),
        ])
        assert code == 1
        assert out == ""
        assert "write error" in err

    def test_missing_embeddings_exits_1_with_stage_and_path(self, workdir, capsys):
        code, _, err = run(capsys, [
            "label", "-e", str(workdir / "nope.txt"), "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 1
        assert "parse error" in err
        assert "nope.txt" in err

    def test_malformed_embeddings_names_line(self, workdir, capsys):
        bad = workdir / "bad_emb.txt"
        bad.write_text("good 1.0 0.0\nbad oops 0.5\n", encoding="utf-8")
        code, _, err = run(capsys, [
            "label", "-e", str(bad), "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 1
        assert "parse error" in err
        assert "line 2" in err

    def test_malformed_lexicon_exits_1_with_stage(self, workdir, capsys):
        bad = workdir / "bad_lex.txt"
        bad.write_text("good\tposemo\t7\n", encoding="utf-8")
        code, _, err = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"), "-l", f"{bad}:nrc",
        ])
        assert code == 1
        assert "lexicon error" in err
        assert "line 1" in err

    def test_bad_lexicon_spec_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["label", "-e", str(workdir / "emb.txt"), "-l", "no-format-here"])
        assert excinfo.value.code == 2

    def test_out_of_range_theta_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "label", "-e", str(workdir / "emb.txt"),
                "-l", f"{workdir / 'lex.tsv'}:plain", "--theta", "0.4",
            ])
        assert excinfo.value.code == 2

    def test_empty_theta_grid_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "-e", str(workdir / "emb.txt"),
                "-l", f"{workdir / 'lex.tsv'}:plain", "--theta-grid", "",
            ])
        assert excinfo.value.code == 2

    def test_bad_filter_spec_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "label", "-e", str(workdir / "emb.txt"),
                "-l", f"{workdir / 'lex.tsv'}:plain", "--filter", "best:3",
            ])
        assert excinfo.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
