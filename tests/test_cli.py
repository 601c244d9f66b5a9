from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lex2vec
from lex2vec import Lexicon, SweepReport, cli, coverage, emit_liwc
from lex2vec.cli import main
from lex2vec.report import labeling_from_document, render_sweep_tsv, report_from_document

from helpers import brute_force_label_counts, random_lexicon_entries, random_normalized_table

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


def stdin_of(data: bytes, encoding: str = "utf-8", errors: str = "strict") -> io.TextIOWrapper:
    """Standard input holding ``data``, with a text layer that decodes as given."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding, errors=errors)


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

    @pytest.mark.filterwarnings("error")
    def test_a_finite_table_whose_range_overflows_labels_cleanly(self, workdir, capsys):
        (workdir / "huge.txt").write_text("a 1.7e308 0.1\nb -1.7e308 0.9\nc 0.0 0.5\n", "utf-8")
        (workdir / "abc.tsv").write_text("a\tx\nb\ty\nc\tz\n", "utf-8")
        code, out, err = run(capsys, [
            "label", "-e", str(workdir / "huge.txt"), "-l", f"{workdir / 'abc.tsv'}:plain",
        ])
        assert (code, err) == (0, "")
        assert out == "0\tx+y\tx:1,y:1\n1\tx+y\tx:1,y:1\n"

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
        monkeypatch.setattr("sys.stdin", stdin_of(EMBEDDINGS.encode()))
        code, out, _ = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 0
        assert out == EXPECTED_LABEL_TSV

    def test_stdin_spanning_parser_chunks(self, workdir, capsys, monkeypatch):
        # Filler words sit inside the value range and match no lexicon entry.
        filler = "".join(f"filler{i} 0.5 0.5\n" for i in range(5000))
        monkeypatch.setattr("sys.stdin", stdin_of((filler + EMBEDDINGS).encode()))
        code, out, _ = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 0
        assert out == EXPECTED_LABEL_TSV

    def test_bom_before_word2vec_header(self, workdir, capsys):
        path = workdir / "bom.txt"
        path.write_text("\ufeff3 2\n" + EMBEDDINGS, encoding="utf-8")
        code, out, err = run(capsys, [
            "label", "-e", str(path), "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, err) == (0, "")
        assert out == EXPECTED_LABEL_TSV

    def test_stdin_bom_before_word2vec_header(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of(("\ufeff3 2\n" + EMBEDDINGS).encode()))
        code, out, err = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, err) == (0, "")
        assert out == EXPECTED_LABEL_TSV

    def test_stdin_is_utf8_whatever_its_text_encoding(self, workdir, capsys, monkeypatch):
        # A Latin-1 text layer would read the BOM as three characters.
        data = ("\ufeff3 2\n" + EMBEDDINGS).encode()
        monkeypatch.setattr("sys.stdin", stdin_of(data, encoding="latin-1"))
        code, out, err = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, err) == (0, "")
        assert out == EXPECTED_LABEL_TSV

    def test_stdin_rejects_invalid_utf8_as_a_path_does(self, workdir, capsys, monkeypatch):
        # The C locale's stdin decodes with surrogateescape, which would accept it.
        data = b"go\xffod 1.0 0.0\n" + EMBEDDINGS.encode()
        monkeypatch.setattr("sys.stdin", stdin_of(data, errors="surrogateescape"))
        code, out, err = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, out) == (1, "")
        assert err.startswith("lex2vec: parse error: ")

    def test_tsv_does_not_build_contributor_records(self, workdir, capsys, monkeypatch):
        argv = ["label", "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'lex.tsv'}:plain"]
        calls = []
        real = cli.label_dimensions

        def spy(*args, **kwargs):
            calls.append(kwargs["keep_contributors"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "label_dimensions", spy)
        _, with_flag, _ = run(capsys, [*argv, "--contributors"])
        _, without_flag, _ = run(capsys, argv)
        _, document, _ = run(capsys, [*argv, "--contributors", "--json"])
        assert calls == [False, False, True]
        assert with_flag == without_flag == EXPECTED_LABEL_TSV
        assert "contributors" in json.loads(document)["dimensions"][0]

    @pytest.mark.parametrize("command", ["label", "metrics"])
    def test_filter_topk_and_cap_are_the_same_filter(self, workdir, capsys, command):
        lexicon = workdir / "many.tsv"
        lexicon.write_text(
            "good\tposemo\ngood\tjoy\nbad\tnegemo\nbad\tanger\n", encoding="utf-8"
        )
        argv = [command, "-e", str(workdir / "emb.txt"), "-l", f"{lexicon}:plain"]
        _, unfiltered, _ = run(capsys, argv)
        _, topk, _ = run(capsys, [*argv, "--filter", "topk:2"])
        _, cap, _ = run(capsys, [*argv, "--filter", "cap:2"])
        _, none, _ = run(capsys, [*argv, "--filter", "none"])
        assert topk == cap != unfiltered == none

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

    def test_close_thetas_get_rows_that_tell_them_apart(self, workdir, capsys):
        code, out, _ = run(capsys, [
            "sweep", "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'lex.tsv'}:plain",
            "--theta-grid", "0.7000001,0.7000002",
        ])
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()[1:]] == [
            "0.7000002", "0.7000001",
        ]

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

    @pytest.mark.parametrize("json_output", [False, True], ids=["tsv", "json"])
    @pytest.mark.parametrize("avg_mode", ["all", "named"])
    @pytest.mark.parametrize("distinct", [False, True], ids=["mass", "distinct"])
    def test_prints_the_coverage_of_the_labeling_label_prints(
        self, tmp_path, capsys, distinct, avg_mode, json_output
    ):
        # metrics and label share one labeling: merge, label at --theta, cap
        # by --filter.  metrics prints that labeling's coverage row.
        rng = np.random.default_rng(23)
        for case in range(6):
            table = random_normalized_table(rng)
            exact, prefixes = random_lexicon_entries(rng, table.vocabulary)
            plain, liwc = tmp_path / f"plain{case}.tsv", tmp_path / f"liwc{case}.dic"
            plain.write_text(
                "".join(f"{w}\t{label}\n" for w, ls in exact.items() for label in sorted(ls)),
                encoding="utf-8",
            )
            liwc.write_text(emit_liwc(Lexicon("liwc", {}, prefixes)), encoding="utf-8")
            emb = tmp_path / f"emb{case}.txt"
            emb.write_text("".join(
                f"{w} {' '.join(map(repr, row.tolist()))}\n"
                for w, row in zip(table.vocabulary, table.vectors)
            ), encoding="utf-8")
            argv = [
                "-e", str(emb), "-l", f"{plain}:plain", "-l", f"{liwc}:liwc",
                "--theta", str(rng.choice(["0.55", "0.75", "0.9"])),
                "--filter", str(rng.choice(["none", "cap:1", "topk:2"])),
            ]
            code, document, _ = run(capsys, ["label", *argv, "--json"])
            assert code == 0
            row = coverage(labeling_from_document(json.loads(document)), distinct)
            flags = ["--avg-mode", avg_mode] + ["--distinct-labels"] * distinct
            code, out, _ = run(capsys, ["metrics", *argv, *flags] + ["--json"] * json_output)
            assert code == 0
            if json_output:
                assert report_from_document(json.loads(out)).rows == (row,)
            else:
                assert out == render_sweep_tsv(SweepReport((row,)), avg_mode=avg_mode)


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

    @pytest.mark.parametrize("stage", ["parse", "lexicon", "label"])
    def test_a_failed_contributor_run_writes_nothing(self, workdir, monkeypatch, stage):
        """The output is opened only once the labeling is made, so a run that fails
        before then prints no byte, creates no -o file and leaves one there as it was."""
        bad = workdir / "bad.txt"
        bad.write_text("good 1.0\nbad\n", encoding="utf-8")
        embeddings = bad if stage == "parse" else workdir / "emb.txt"
        lexicon = bad if stage == "lexicon" else workdir / "lex.tsv"
        if stage == "label":
            def fail(*args, **kwargs):
                raise ValueError("no labeling")
            monkeypatch.setattr(cli, "label_dimensions", fail)
        argv = ["label", "--json", "--contributors", "-e", str(embeddings), "-l", f"{lexicon}:plain"]
        new, kept = workdir / "new.json", workdir / "kept.json"
        kept.write_bytes(b"earlier output\n")
        for target in ([], ["-o", str(new)], ["-o", str(kept)]):
            code, out, err = run_bytes([*argv, *target])
            assert (code, out) == (1, b"")
            assert err.startswith(f"lex2vec: {stage} error: ")
        assert not new.exists()
        assert kept.read_bytes() == b"earlier output\n"

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

    def test_non_finite_embedding_names_line(self, workdir, capsys):
        bad = workdir / "nan_emb.txt"
        bad.write_text("good 1.0 0.0\nbad nan 0.5\n", encoding="utf-8")
        code, _, err = run(capsys, [
            "label", "-e", str(bad), "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert code == 1
        assert "parse error: line 2" in err

    def test_stdin_bad_line_after_first_chunk_names_line(self, workdir, capsys, monkeypatch):
        lines = [f"w{i} 0.5 0.5\n" for i in range(5000)]
        lines[4096] = "bad 0.5\n"
        monkeypatch.setattr("sys.stdin", stdin_of("".join(lines).encode()))
        code, out, err = run(capsys, [
            "label", "-e", "-", "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, out) == (1, "")
        assert "parse error: line 4097: expected 2 values, found 1" in err

    @pytest.mark.parametrize(
        "target, newline",
        [("embeddings", "\n"), ("stdin", "\n"), ("lexicon", "\n"), ("lexicon", "\r")],
    )
    def test_invalid_utf8_names_its_line(self, workdir, capsys, monkeypatch, target, newline):
        # Past the first 8 KB decoded and past the first 1,024-line parse chunk.
        line = "w{}\tjoy" if target == "lexicon" else "w{} 0.5 0.5"
        lines = [line.format(i).encode() for i in range(3000)]
        lines[1500] = lines[1500].replace(b"w", b"w\xff")
        data = newline.encode().join(lines) + newline.encode()
        bad = workdir / "bad.txt"
        bad.write_bytes(data)
        embeddings, lexicon = str(workdir / "emb.txt"), workdir / "lex.tsv"
        if target == "embeddings":
            embeddings = str(bad)
        elif target == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(data))
            embeddings = "-"
        else:
            lexicon = bad
        code, out, err = run(capsys, ["label", "-e", embeddings, "-l", f"{lexicon}:plain"])
        assert (code, out) == (1, "")
        stage, where = ("lexicon", f" (in {lexicon})") if target == "lexicon" else ("parse", "")
        assert err == (
            f"lex2vec: {stage} error: line 1501: invalid UTF-8 (invalid start byte){where}\n"
        )

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_huge_header_vocab_size_allocates_nothing(self, workdir, capsys, monkeypatch, source):
        # The header is untrusted and only checked: the header never sizes the buffer.
        text = "999999999999 2\n" + EMBEDDINGS
        if source == "path":
            (workdir / "huge.txt").write_text(text, encoding="utf-8")
            embeddings = str(workdir / "huge.txt")
        else:
            monkeypatch.setattr("sys.stdin", stdin_of(text.encode()))
            embeddings = "-"
        code, out, err = run(capsys, [
            "label", "-e", embeddings, "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, out) == (1, "")
        assert err == (
            "lex2vec: parse error: line 1: header declares 999999999999 words"
            " but 3 data lines follow\n"
        )

    @pytest.mark.parametrize("source", ["path", "stdin"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("1" * 5000 + " 2", f"line 1: header declares {'1' * 5000} words but 3 data lines follow"),
            ("3 " + "1" * 5000, f"line 2: header declares {'1' * 5000} dimensions but data has 2"),
        ],
        ids=["vocab-size", "dim-count"],
    )
    def test_header_count_of_any_length_names_its_line(
        self, workdir, capsys, monkeypatch, source, header, message
    ):
        text = f"{header}\n{EMBEDDINGS}"
        if source == "path":
            (workdir / "huge.txt").write_text(text, encoding="utf-8")
            embeddings = str(workdir / "huge.txt")
        else:
            monkeypatch.setattr("sys.stdin", stdin_of(text.encode()))
            embeddings = "-"
        code, out, err = run(capsys, [
            "label", "-e", embeddings, "-l", f"{workdir / 'lex.tsv'}:plain",
        ])
        assert (code, out, err) == (1, "", f"lex2vec: parse error: {message}\n")

    def test_sweep_rejects_lexicons_sharing_a_resource_name(self, workdir, capsys):
        other = workdir / "other.tsv"
        other.write_text("table\tjoy\n", encoding="utf-8")
        code, out, err = run(capsys, [
            "sweep", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "-l", f"{other}:plain",
        ])
        assert (code, out) == (1, "")
        assert err == "lex2vec: label error: lexicons share the resource name 'plain'\n"

    @pytest.mark.parametrize("grid", ["0.8,0.8", "0.8,0.75,0.80"])
    def test_sweep_rejects_a_repeated_theta(self, workdir, capsys, grid):
        # Two rows of one theta and resource could not be told apart.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "-e", str(workdir / "emb.txt"),
                "-l", f"{workdir / 'lex.tsv'}:plain", "--theta-grid", grid,
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "lex2vec sweep: error: argument --theta-grid: the theta grid repeats 0.8\n"
        )

    def test_repeated_theta_fails_before_any_input_is_read(self, workdir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "-e", str(workdir / "missing.txt"),
                "-l", f"{workdir / 'missing.tsv'}:plain", "--theta-grid", "0.8,0.8",
            ])
        assert excinfo.value.code == 2
        assert "the theta grid repeats 0.8" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["path", "stdin"])
    @pytest.mark.parametrize(
        "data, lexicon, message",
        [
            # A wrong value count on line 5 and invalid UTF-8 on line 10.
            (
                b"".join(
                    b"w5 0.1\n" if i == 5 else b"w\xff%d 0.1 0.2\n" % i if i == 10
                    else b"w%d 0.1 0.2\n" % i
                    for i in range(1, 13)
                ),
                "lex.tsv:plain",
                "parse error: line 5: expected 2 values, found 1",
            ),
            # A lone \r splits line 2 into three values; line 4 is invalid UTF-8.
            (
                b"3 2\ngood 1.0 0.\r0\nbad 0.0 0.5\n\xfcable50.5 1.0\n",
                "lex.tsv:plain",
                "parse error: line 2: header declares 2 dimensions but data has 3",
            ),
            # A valid file, and an NRC lexicon with a field missing on line 2
            # and invalid UTF-8 on line 3.
            (
                EMBEDDINGS.encode(),
                "bad.nrc:nrc",
                "lexicon error: line 2: expected 3 tab-separated fields, found 2 (in {nrc})",
            ),
        ],
        ids=["count-before-bad-byte", "cr-before-bad-byte", "nrc-field-before-bad-byte"],
    )
    def test_first_faulty_line_wins_by_path_and_on_stdin(
        self, workdir, capsys, monkeypatch, source, data, lexicon, message
    ):
        (workdir / "bad.nrc").write_bytes(b"good\tjoy\t1\nbad\tjoy\n\xffx\tjoy\t1\n")
        (workdir / "data.txt").write_bytes(data)
        embeddings = str(workdir / "data.txt")
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", stdin_of(data))
            embeddings = "-"
        code, out, err = run(capsys, ["label", "-e", embeddings, "-l", str(workdir / lexicon)])
        message = message.format(nrc=workdir / "bad.nrc")
        assert (code, out, err) == (1, "", f"lex2vec: {message}\n")

    @pytest.mark.parametrize("text", ["", "\n\n", "\ufeff"], ids=["empty", "blank", "bom"])
    def test_liwc_without_content_names_the_opening_delimiter(self, workdir, capsys, text):
        message = "expected '%' opening the category section"
        with pytest.raises(lex2vec.MissingDelimiterError) as excinfo:
            lex2vec.load_liwc(io.StringIO(text))
        assert (str(excinfo.value), excinfo.value.line_number) == (message, None)
        (workdir / "empty.dic").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'empty.dic'}:liwc",
        ])
        where = workdir / "empty.dic"
        assert (code, out, err) == (1, "", f"lex2vec: lexicon error: {message} (in {where})\n")

    def test_a_lexicon_error_names_its_file(self, workdir, capsys):
        # Line 2 of the second file is at fault, and the first file is valid.
        (workdir / "a.tsv").write_text("good\tjoy\nbad\tfear\n", encoding="utf-8")
        (workdir / "b.tsv").write_text("good\tjoy\nbad\n", encoding="utf-8")
        code, out, err = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'a.tsv'}:plain", "-l", f"{workdir / 'b.tsv'}:plain",
        ])
        assert (code, out) == (1, "")
        assert err == (
            f"lex2vec: lexicon error: line 2: expected 'word<TAB>label' (in {workdir / 'b.tsv'})\n"
        )

    def test_a_lexicon_file_that_cannot_be_opened_is_named_once(self, workdir, capsys):
        missing = workdir / "missing.tsv"
        code, out, err = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"), "-l", f"{missing}:plain",
        ])
        assert (code, out) == (1, "")
        assert err == (
            f"lex2vec: lexicon error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_malformed_lexicon_exits_1_with_stage(self, workdir, capsys):
        bad = workdir / "bad_lex.txt"
        bad.write_text("good\tposemo\t7\n", encoding="utf-8")
        code, _, err = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"), "-l", f"{bad}:nrc",
        ])
        assert code == 1
        assert "lexicon error" in err
        assert "line 1" in err

    @pytest.mark.parametrize("spec", ["no-format-here", "x.tsv:bogus", ":plain"])
    def test_bad_lexicon_spec_is_usage_error(self, workdir, capsys, spec):
        # A usage error, found before the missing embedding file is opened.
        with pytest.raises(SystemExit) as excinfo:
            main(["label", "-e", str(workdir / "missing.txt"), "-l", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected PATH:FORMAT with FORMAT one of nrc, liwc, plain" in err

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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("best:3", "expected 'none', 'cap:LIMIT', or 'topk:K'"),
            ("cap", "expected 'none', 'cap:LIMIT', or 'topk:K'"),
            ("topk:two", "limit 'two' is not an integer"),
            ("cap:0", "filter limit must be >= 1"),
            # Limits int() would take, but only ASCII digits are a limit.
            ("cap: +1_0", "limit ' +1_0' is not an integer"),
            ("cap:٣", "limit '٣' is not an integer"),
            ("topk:+2", "limit '+2' is not an integer"),
            ("cap:2 ", "limit '2 ' is not an integer"),
        ],
    )
    def test_bad_filter_spec_message(self, workdir, capsys, spec, message):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "label", "-e", str(workdir / "emb.txt"),
                "-l", f"{workdir / 'lex.tsv'}:plain", "--filter", spec,
            ])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, token",
        [
            # Each is a number to Python's float(), but not in a file.
            ("--theta", "0.7_5", "'0.7_5'"),
            ("--theta", "٠.٨", "'٠.٨'"),
            ("--theta", "０.８", "'０.８'"),
            ("--theta", "0.8 0.9", "'0.8 0.9'"),
            ("--theta-grid", "0.9,0.7_5", "'0.7_5'"),
            ("--theta-grid", "٠.٨", "'٠.٨'"),
        ],
    )
    def test_thetas_follow_the_file_grammar(self, workdir, capsys, flag, value, token):
        command = "sweep" if flag == "--theta-grid" else "label"
        with pytest.raises(SystemExit) as excinfo:
            main([
                command, "-e", str(workdir / "emb.txt"),
                "-l", f"{workdir / 'lex.tsv'}:plain", flag, value,
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and token in captured.err

    @pytest.mark.parametrize("theta", ["0.75", "+0.75", "7.5e-1", ".75"])
    def test_file_grammar_thetas_are_accepted(self, workdir, capsys, theta):
        code, out, _ = run(capsys, [
            "label", "-e", str(workdir / "emb.txt"),
            "-l", f"{workdir / 'lex.tsv'}:plain", "--theta", theta,
        ])
        assert (code, out) == (0, EXPECTED_LABEL_TSV)

    @pytest.mark.parametrize(
        "command, flags, unknown",
        [
            ("sweep", ["--theta", "0.8"], "--theta 0.8"),  # not --theta-grid
            ("label", ["--the", "0.8"], "--the 0.8"),
            ("label", ["--js"], "--js"),
            ("label", ["--cont"], "--cont"),
            ("metrics", ["--distinct"], "--distinct"),
        ],
    )
    def test_flags_must_be_spelled_in_full(self, workdir, capsys, command, flags, unknown):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "-e", str(workdir / "emb.txt"), "-l", f"{workdir / 'lex.tsv'}:plain",
                  *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {unknown}" in captured.err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


# A number as np.loadtxt reads one: ASCII decimal, inf or nan, no '_'.
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf|infinity|nan)", re.I | re.A)


def _first_faulty_embedding_line(data: bytes) -> tuple[bool, int | None, dict | None]:
    """Whether an embedding file fails, and the line named, by per-line rules;
    for a file that parses, its values per word, the first occurrence winning."""
    lines = []  # (number, tokens, or None for invalid UTF-8) of non-blank lines
    for number, raw in enumerate(data.split(b"\n"), start=1):
        if number == 1:
            raw = raw.removeprefix("\ufeff".encode())
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            lines.append((number, None))
            continue
        if text.strip():
            lines.append((number, text.split()))
    if not lines:
        return True, None, None
    number, tokens = lines[0]
    header = None
    if tokens and len(tokens) == 2 and all(t.isascii() and t.isdigit() and int(t) > 0 for t in tokens):
        header, lines = (number, int(tokens[0]), int(tokens[1])), lines[1:]
        if not lines:
            return True, None, None
    number, tokens = lines[0]
    if tokens is None or len(tokens) < 2 or (header and len(tokens) - 1 != header[2]):
        return True, number, None
    dims = len(tokens) - 1
    rows: dict[str, list[float]] = {}
    for number, tokens in lines:
        if tokens is None or len(tokens) != dims + 1:
            return True, number, None
        values = tokens[1:]
        if not all(_NUMBER.fullmatch(v) for v in values):
            return True, number, None
        if not all(math.isfinite(float(v)) for v in values):
            return True, number, None
        rows.setdefault(tokens[0], [float(v) for v in values])
    if header and len(lines) != header[1]:
        return True, header[0], None
    return False, None, rows


def _first_faulty_nrc_line(data: bytes) -> tuple[bool, int | None]:
    """Whether an NRC file fails, and the line named, by per-line rules."""
    for number, raw in enumerate(re.split(rb"\r\n|\r|\n", data), start=1):
        if number == 1:
            raw = raw.removeprefix("\ufeff".encode())
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return True, number
        if not text.strip():
            continue
        fields = [f.strip() for f in text.split("\t")]
        if len(fields) != 3 or fields[2] not in ("0", "1") or not all(fields[:2]):
            return True, number
    return False, None


VALID_GLOVE = b"good 1.0 -0.5\nbad 0.25 2\ntable .5 1e1\nhappy -1.5 0.0\n"
VALID_W2V = b"4 2\n" + VALID_GLOVE
VALID_NRC = b"good\tposemo\t1\nbad\tnegemo\t1\nhappy\tjoy\t1\nbad\tjoy\t0\n"
MUTATIONS = (b"\xff", "\ufeff".encode(), b"\r", "\x85".encode(), "\u2028".encode(), b"nan", b"_")
COMMANDS = (["label"], ["label", "--json", "--contributors"], ["sweep"], ["metrics", "--json"])


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` with one to three byte inserts, deletes or overwrites."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "overwrite"]))
        piece = b"" if kind == "delete" else draw(st.sampled_from(MUTATIONS))
        data[at : at + (kind != "insert")] = piece
    return bytes(data)


def run_bytes(argv: list[str], stdin: bytes = b"") -> tuple[int, bytes, str]:
    """``main`` with standard input holding ``stdin``: exit code, stdout bytes, stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin_of(stdin), stdin_of(b""), io.StringIO()
    try:
        code = main(argv)
        sys.stdout.flush()
        return code, sys.stdout.buffer.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


class TestRobustness:
    """Mutated inputs: a clean exit, the same result by path and on stdin, and
    an error at the first line that an independent per-line check flags."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(mutated(VALID_GLOVE), mutated(VALID_W2V)),
           command=st.sampled_from(COMMANDS))
    def test_mutated_embeddings(self, tmp_path, data, command):
        (tmp_path / "emb.txt").write_bytes(data)
        (tmp_path / "nrc.txt").write_bytes(VALID_NRC)
        lexicon = ["-l", f"{tmp_path / 'nrc.txt'}:nrc"]
        by_path = run_bytes([*command, "-e", str(tmp_path / "emb.txt"), *lexicon])
        on_stdin = run_bytes([*command, "-e", "-", *lexicon], stdin=data)
        assert by_path == on_stdin
        fails, line, rows = _first_faulty_embedding_line(data)
        self.check_outcome(by_path, "parse", fails, line)
        if not fails and command[0] == "label":
            assert self.label_counts(by_path[1], command) == self.oracle_counts(rows)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated(VALID_NRC), command=st.sampled_from(COMMANDS))
    def test_mutated_nrc_lexicon(self, tmp_path, data, command):
        (tmp_path / "emb.txt").write_bytes(VALID_GLOVE)
        (tmp_path / "nrc.txt").write_bytes(data)
        result = run_bytes([*command, "-e", str(tmp_path / "emb.txt"),
                            "-l", f"{tmp_path / 'nrc.txt'}:nrc"])
        fails, line = _first_faulty_nrc_line(data)
        self.check_outcome(result, "lexicon", fails, line)

    @staticmethod
    def label_counts(out: bytes, command: list[str]) -> list[dict[str, int]]:
        """Each dimension's label counts, as ``label`` printed them."""
        if "--json" in command:
            return [{entry["label"]: entry["count"] for entry in dim["labels"]}
                    for dim in json.loads(out)["dimensions"]]
        pairs = [line.split("\t")[2] for line in out.decode().splitlines()]
        return [{label: int(count) for label, count in (p.split(":") for p in field.split(",") if p)}
                for field in pairs]

    @staticmethod
    def oracle_counts(rows: dict[str, list[float]]) -> list[dict[str, int]]:
        """The brute-force counts at the default theta, over a table parsed and
        min-max scaled per dimension here, with NRC entries parsed here too."""
        exact: dict[str, set[str]] = {}
        for line in VALID_NRC.decode().splitlines():
            word, label, flag = line.split("\t")
            if flag == "1":
                exact.setdefault(word, set()).add(label)
        columns = []
        for column in zip(*rows.values()):
            lo, hi = min(column), max(column)
            columns.append([0.5 if hi == lo else (x - lo) / (hi - lo) for x in column])
        return brute_force_label_counts(list(rows), list(zip(*columns)), exact, (), cli.DEFAULT_THETA)

    @staticmethod
    def check_outcome(result, stage: str, fails: bool, line: int | None) -> None:
        code, out, err = result
        assert "Traceback" not in err
        if not fails:
            assert code == 0 and out
            return
        assert (code, out) == (1, b"")
        assert err.startswith(f"lex2vec: {stage} error: ")
        named = re.match(r"lex2vec: \w+ error: line (\d+): ", err)
        assert (int(named.group(1)) if named else None) == line


class TestOutputBytes:
    @pytest.mark.parametrize(
        "flags", [[], ["--json"], ["--json", "--contributors"]], ids=["tsv", "json", "contributors"]
    )
    def test_stdout_matches_output_file_under_any_io_encoding(self, workdir, flags):
        lexicon = workdir / "wide.tsv"
        lexicon.write_text("good\tposémo\nbad\t日\n", encoding="utf-8")
        argv = [sys.executable, "-m", "lex2vec.cli", "label", "-e", str(workdir / "emb.txt"),
                "-l", f"{lexicon}:plain", *flags]
        src = str(Path(lex2vec.__file__).parents[1])
        env = {**os.environ, "PYTHONIOENCODING": "latin-1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        stdout = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        out_path = workdir / "result.out"
        subprocess.run([*argv, "-o", str(out_path)], env=env, capture_output=True, check=True)
        assert stdout == out_path.read_bytes()
        assert "posémo".encode() in stdout and "日".encode() in stdout


class TestMemory:
    @pytest.fixture(scope="class")
    def embedding_file(self, tmp_path_factory):
        """A 20,000 x 100 embedding file of the words w0, w1, ..."""
        values = io.StringIO()
        np.savetxt(values, np.random.default_rng(3).normal(size=(20_000, 100)), fmt="%.6f")
        path = tmp_path_factory.mktemp("memory") / "emb.txt"
        path.write_text(
            "".join(f"w{i} {line}\n" for i, line in enumerate(values.getvalue().splitlines())),
            encoding="utf-8",
        )
        return path

    def test_load_normalized_holds_one_matrix(self, embedding_file):
        """Parsing and normalizing allocate little beyond the matrix they return."""
        args = cli.build_parser().parse_args(
            ["label", "-e", str(embedding_file), "-l", "unused:plain"]
        )
        tracemalloc.start()
        try:
            table = cli._load_normalized(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.vectors.shape == (20_000, 100)
        assert peak < 1.5 * table.vectors.nbytes

    def test_label_run_holds_little_beyond_the_matrix(self, embedding_file, tmp_path):
        """A whole label run that labels every word stays within the parse bound."""
        lexicon = tmp_path / "all.dic"
        lexicon.write_text("%\n1\tall\n%\nw*\t1\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        argv = ["label", "-e", str(embedding_file), "-l", f"{lexicon}:liwc", "-o", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.read_text(encoding="utf-8").count("\tall:") == 100
        assert peak < 1.5 * 20_000 * 100 * 8  # the float64 matrix's bytes

    def test_contributor_run_never_holds_its_document(self, embedding_file, tmp_path):
        """A contributor document twice the matrix's size is written a dimension at a
        time, within the parse bound."""
        lexicon = tmp_path / "two.dic"
        lexicon.write_text("%\n1\tall\n2\tboth\n%\nw*\t1\t2\n", encoding="utf-8")
        out = tmp_path / "out.json"
        argv = ["label", "--json", "--contributors", "--theta", "0.7",
                "-e", str(embedding_file), "-l", f"{lexicon}:liwc", "-o", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = 20_000 * 100 * 8  # the float64 matrix's bytes
        assert code == 0
        assert out.stat().st_size > 2 * matrix
        assert peak < 1.5 * matrix
