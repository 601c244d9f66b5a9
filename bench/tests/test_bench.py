"""Tests for the benchmark's own code, on tiny seeded corpora."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import corpus
import reference
import run
import tracer
from lex2vec import cli, embeddings, lexicon, metrics, report

SEED = 7

# The CLI workloads' command shapes on tiny corpora.
CLI_CASES = {
    "cli-label": run.Workload("tiny", run.WORKLOADS["cli-label"].cli_args, 0.75),
    "cli-contrib": run.Workload("tiny-w2v", run.WORKLOADS["cli-contrib"].cli_args, 0.7, 3),
}


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "CACHE_DIR", tmp_path / "corpus")


def read_all(paths: dict) -> dict[str, bytes]:
    return {name: Path(path).read_bytes() for name, path in paths.items()}


def run_cli(workload: run.Workload, out: Path, traced: bool = False) -> dict:
    """Run the real CLI in-process, as the benchmark's operation would."""
    paths = corpus.ensure(workload.shape, SEED)["paths"]
    argv = [*workload.cli_args, "-e", paths["embeddings"], "-l", f"{paths['nrc']}:nrc",
            "-l", f"{paths['liwc']}:liwc", "-o", str(out)]
    trace = tracer.Tracer()
    if traced:
        trace.install()
    try:
        code = cli.main(argv)
    finally:
        trace.uninstall()
    return {"op": "op-0", "exit": code, "output_path": str(out)}


def sweep_setup(shape: str):
    paths = corpus.ensure(shape, SEED)["paths"]
    table = embeddings.normalize(embeddings.read_embeddings(paths["embeddings"]))
    return table, [lexicon.load_lexicon(paths["nrc"], "nrc"),
                   lexicon.load_lexicon(paths["liwc"], "liwc")]


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic(tmp_path):
    shape = corpus.SHAPES["tiny"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory in dirs:
        directory.mkdir()
    first = corpus.write(corpus.draw(shape, SEED), shape, dirs[0])
    second = corpus.write(corpus.draw(shape, SEED), shape, dirs[1])
    other = corpus.write(corpus.draw(shape, SEED + 1), shape, dirs[2])
    assert read_all(first) == read_all(second)
    assert read_all(first)["embeddings"] != read_all(other)["embeddings"]


def test_cache_hit_returns_the_same_files(cache):
    first = corpus.ensure("tiny", SEED)
    second = corpus.ensure("tiny", SEED)
    assert (first["cache_hit"], second["cache_hit"]) == (False, True)
    assert first["files"] == second["files"]


def test_cache_regenerates_a_damaged_corpus(cache):
    first = corpus.ensure("tiny", SEED)
    Path(first["paths"]["nrc"]).write_text("damaged\n")
    again = corpus.ensure("tiny", SEED)
    assert not again["cache_hit"]
    assert again["files"] == first["files"]


@pytest.mark.parametrize("shape", ["tiny", "tiny-w2v"])
def test_parsed_values_are_the_drawn_values(cache, shape):
    paths = corpus.ensure(shape, SEED)["paths"]
    table = embeddings.read_embeddings(paths["embeddings"])
    draw = corpus.draw(corpus.SHAPES[shape], SEED)
    assert list(table.vocabulary) == draw.vocabulary
    assert np.array_equal(table.vectors, draw.millionths / 1e6)
    assert np.array_equal(embeddings.normalize(table).vectors, reference.normalized(draw.millionths))


def test_liwc_file_has_prefix_patterns_and_nrc_has_zero_flags(cache):
    paths = corpus.ensure("tiny", SEED)["paths"]
    liwc = Path(paths["liwc"]).read_text().splitlines()
    assert sum(line.split("\t")[0].endswith("*") for line in liwc) == corpus.SHAPES["tiny"].liwc_prefixes
    flags = {line.split("\t")[2] for line in Path(paths["nrc"]).read_text().splitlines()}
    assert flags == {"0", "1"}


# -- reference ---------------------------------------------------------------


README_LABEL = "0\tnegemo+posemo\tnegemo:1,posemo:1\n1\tposemo\tposemo:1\n"
README_SWEEP = (
    "theta\tresource\tpct_unnamed\tavg_labels_dim\n"
    "0.81\tplain\t0.0%\t1.5\n0.79\tplain\t0.0%\t1.5\n"
    "0.77\tplain\t0.0%\t1.5\n0.75\tplain\t0.0%\t1.5\n"
)


def test_reference_matches_the_readme_quick_start(tmp_path):
    millionths = np.array([[1_000_000, 0], [0, 500_000], [500_000, 1_000_000]])
    entries = ({"good": frozenset({"posemo"}), "bad": frozenset({"negemo"})}, {})
    labeled = reference.Labeled(reference.normalized(millionths), ["good", "bad", "table"], entries)
    assert reference.label_tsv(labeled, 0.75) == README_LABEL.encode()
    assert reference.sweep_tsv([("plain", labeled)], [0.81, 0.79, 0.77, 0.75]) == README_SWEEP.encode()

    (tmp_path / "emb.txt").write_text("good 1.0 0.0\nbad 0.0 0.5\ntable 0.5 1.0\n")
    (tmp_path / "lex.tsv").write_text("good\tposemo\nbad\tnegemo\n")
    common = ["-e", str(tmp_path / "emb.txt"), "-l", f"{tmp_path / 'lex.tsv'}:plain"]
    assert cli.main(["label", *common, "--theta", "0.75", "-o", str(tmp_path / "l")]) == 0
    assert cli.main(["sweep", *common, "-o", str(tmp_path / "s")]) == 0
    assert (tmp_path / "l").read_text() == README_LABEL
    assert (tmp_path / "s").read_text() == README_SWEEP


def test_reference_lookup_unions_exact_and_every_prefix():
    entries = ({"happy": frozenset({"joy"})}, {"hap": frozenset({"a"}), "happ": frozenset({"b"}),
                                                 "happy": frozenset({"c"}), "x": frozenset({"d"})})
    assert reference.word_labels("Happy", entries) == ("a", "b", "c", "joy")
    assert reference.word_labels("ha", entries) == ()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_reference_agrees_with_the_cli(cache, tmp_path, name):
    workload = CLI_CASES[name]
    check = run.prepare_reference(workload, SEED)
    op = run_cli(workload, tmp_path / "out")
    assert op["exit"] == 0
    assert run.op_error(op, check) is None


def test_reference_agrees_with_the_library_sweep(cache):
    check = run.prepare_reference(run.Workload("tiny"), SEED)
    table, lexicons = sweep_setup("tiny")
    for grid in run.sweep_grids(SEED, 3):
        text = report.render_sweep_tsv(metrics.sweep(table, lexicons, grid))
        assert check({"grid": grid, "output": text}) is None


def test_contributor_workload_has_records_to_check(cache):
    workload = CLI_CASES["cli-contrib"]
    draw = corpus.draw(corpus.SHAPES[workload.shape], SEED)
    entries = reference.merged(reference.nrc_entries(draw), reference.liwc_entries(draw))
    labeled = reference.Labeled(reference.normalized(draw.millionths), draw.vocabulary, entries)
    document = reference.contributors_document(labeled, workload.theta, workload.cap, "nrc+liwc")
    bands = {rec[2] for dim in document["dimensions"] for rec in dim["contributors"]}
    assert bands == {"high", "low"}
    assert max(len(dim["labels"]) for dim in document["dimensions"]) == workload.cap


# -- failures ----------------------------------------------------------------


def test_corrupted_label_tsv_is_a_failure(cache, tmp_path):
    check = run.prepare_reference(CLI_CASES["cli-label"], SEED)
    op = run_cli(CLI_CASES["cli-label"], tmp_path / "out")
    out = Path(op["output_path"])
    out.write_bytes(out.read_bytes().replace(b":1", b":2", 1))
    assert run.op_error(op, check) == "TSV output differs from the reference"


def test_corrupted_contributor_document_is_a_failure(cache, tmp_path):
    check = run.prepare_reference(CLI_CASES["cli-contrib"], SEED)
    op = run_cli(CLI_CASES["cli-contrib"], tmp_path / "out")
    out = Path(op["output_path"])
    document = json.loads(out.read_text())
    record = next(r for d in document["dimensions"] for r in d["contributors"])
    record["band"] = "low" if record["band"] == "high" else "high"
    out.write_text(json.dumps(document))
    assert run.op_error(op, check) == "JSON document differs from the reference"
    out.write_text(json.dumps(document)[:-10])
    assert run.op_error(op, check).startswith("unreadable JSON output")


def test_corrupted_sweep_and_failed_exit_are_failures(cache):
    check = run.prepare_reference(run.Workload("tiny"), SEED)
    table, lexicons = sweep_setup("tiny")
    grid = run.sweep_grids(SEED, 1)[0]
    text = report.render_sweep_tsv(metrics.sweep(table, lexicons, grid))
    assert check({"grid": grid, "output": text.replace("%", "% ", 1)}) is not None
    assert run.op_error({"exit": 1, "grid": grid, "output": text}, check) == "exit code 1"


# -- tracing -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_traced_and_untraced_cli_outputs_are_identical(cache, tmp_path, name):
    plain = run_cli(CLI_CASES[name], tmp_path / "plain")
    traced = run_cli(CLI_CASES[name], tmp_path / "traced", traced=True)
    assert Path(plain["output_path"]).read_bytes() == Path(traced["output_path"]).read_bytes()


def test_traced_sweep_is_identical_and_counts_its_work(cache):
    table, lexicons = sweep_setup("tiny")
    grid = run.sweep_grids(SEED, 1)[0]
    plain = report.render_sweep_tsv(metrics.sweep(table, lexicons, grid))
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = report.render_sweep_tsv(metrics.sweep(table, lexicons, grid))
    finally:
        trace.uninstall()
    values = trace.end_op()
    assert traced == plain
    cells = len(lexicons) * len(grid)
    assert values["metrics.cells"] == values["labeling.calls"] == cells
    assert values["lexicon.lookup_calls"] == cells * table.word_count
    assert values["lexicon.lookup_useful_ratio"] == table.word_count / values["lexicon.lookup_calls"]
    assert values["report.output_mb"] == len(plain.encode()) / 1e6
    assert "embeddings.parse_s" not in values


def test_uninstall_restores_every_function():
    before = {m.__name__: dict(vars(m)) for m in tracer.MODULES}
    lookup = lexicon.Lexicon.lookup
    trace = tracer.Tracer()
    trace.install()
    assert cli.read_embeddings is not embeddings.read_embeddings.__wrapped__
    trace.uninstall()
    assert {m.__name__: dict(vars(m)) for m in tracer.MODULES} == before
    assert lexicon.Lexicon.lookup is lookup


def test_self_time_subtracts_direct_children():
    spans = [
        {"start": 0.0, "end": 10.0, "closed": 10.0, "parent": None},
        {"start": 1.0, "end": 3.0, "closed": 4.0, "parent": 0},
        {"start": 1.5, "end": 2.0, "closed": 2.0, "parent": 1},
        {"start": 5.0, "end": 6.0, "closed": 6.0, "parent": 0},
    ]
    assert tracer.self_times(spans) == [6.0, 1.5, 0.5, 1.0]


def test_per_layer_fills_layers_that_did_not_run():
    run_record = {"ops": [
        {"traced": False, "wall_s": 2.0},
        {"traced": True, "wall_s": 2.5, "layer_metrics": {"labeling.rss_rise_mb": 3.0}},
        {"traced": True, "wall_s": 2.7, "layer_metrics": {"labeling.rss_rise_mb": 5.0}},
    ]}
    values = run.per_layer(run_record)
    assert set(values) == set(run.PER_LAYER)
    assert values["labeling.rss_rise_mb"] == 5.0
    assert values["metrics.sweep_s"] == 0.0
    assert values["trace.overhead_s"] == pytest.approx(0.6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50.0
    assert run.tail_percentile(list(range(200)))[0] == 95.0
    assert run.tail_percentile(list(range(1000)))[0] == 99.0
