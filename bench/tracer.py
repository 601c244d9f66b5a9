"""Benchmark-side tracing of lex2vec's public functions.

:meth:`Tracer.install` replaces the public functions that ``cli.main`` and the
library workload call, in every ``lex2vec`` module namespace that holds them,
with wrappers that record one span per call: name, start, end, parent span and
operation id.  Spans stay in memory; the caller writes them out at the end.

``Lexicon.lookup`` runs millions of times per sweep, and a timer around each
call would distort the sweep.  Its wrapper only appends the lexicon and the
word to two lists; it allocates no new object, so it triggers no garbage
collection.  At the
end of each operation the log is replayed twice, timed in aggregate: through
the original method, which gives ``lexicon.lookup_s``, and through the logging
wrapper, which gives the lookup cost inside each ``label_dimensions`` span so
that ``labeling.label_s`` can exclude it.

Per-operation layer metrics come from :func:`op_metrics`.  Work a wrapper does
after the wrapped call returns (counting band hits, measuring output size) is
charged to no span.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from functools import wraps

import numpy as np

import lex2vec
from lex2vec import cli, embeddings, labeling, lexicon, metrics, report

MODULES = (lex2vec, embeddings, lexicon, labeling, metrics, report, cli)

SPANNED = {
    "embeddings.read_embeddings": embeddings.read_embeddings,
    "embeddings.normalize": embeddings.normalize,
    "lexicon.load_lexicon": lexicon.load_lexicon,
    "lexicon.merge_lexicons": lexicon.merge_lexicons,
    "labeling.label_dimensions": labeling.label_dimensions,
    "labeling.cap_labels": labeling.cap_labels,
    "metrics.sweep": metrics.sweep,
    "report.render_labeling_tsv": report.render_labeling_tsv,
    "report.render_sweep_tsv": report.render_sweep_tsv,
    "report.labeling_to_document": report.labeling_to_document,
    "report.dumps_document": report.dumps_document,
    "cli.main": cli.main,
}

RENDER = ("report.render_labeling_tsv", "report.render_sweep_tsv")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = "op-0"
        self.op_metrics: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._lexicons: list = []  # lookup log: lexicon and word of each call
        self._words: list[str] = []
        self._patched: list[tuple] = []
        self._labeled_rows: dict[tuple[int, int], tuple] = {}
        self._lookup = lexicon.Lexicon.lookup

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for name, original in SPANNED.items():
            wrapper = self._span(name, original)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self._patched.append((lexicon.Lexicon, "lookup", self._lookup))
        lexicon.Lexicon.lookup = _logging_lookup(self._lookup, self._lexicons, self._words)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _span(self, name, function):
        tracer = self

        @wraps(function)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "op": tracer.op,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "lookups": [len(tracer._words), None],
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            rss = maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                span["rss_rise_mb"] = maxrss_mb() - rss
                span["lookups"][1] = len(tracer._words)
            tracer._annotate(span, args, result)
            span["closed"] = time.perf_counter()
            return result

        return traced

    def _annotate(self, span: dict, args, result) -> None:
        name = span["name"]
        if name == "embeddings.read_embeddings":
            span["input_bytes"] = os.path.getsize(args[0])
            span["words"] = result.word_count
        elif name == "lexicon.load_lexicon":
            span["entries"] = result.entry_count
        elif name == "labeling.label_dimensions":
            table, lex, theta = args[:3]
            values = self._labeled_values(table, lex)
            theta = labeling.as_theta(theta)
            hits = (values > theta.value) | (values < theta.low_cutoff)
            span["band_hits"] = int(np.count_nonzero(hits))
            span["band_cells"] = int(values.size)
            records = result.contributors or ()
            span["contributor_records"] = sum(len(dim) for dim in records)
        elif name in RENDER or name == "report.dumps_document":
            span["output_bytes"] = len(result.encode("utf-8"))

    def _labeled_values(self, table, lex):
        # The rows of the table that the lexicon labels, per (table, lexicon);
        # the objects are kept so that their ids stay unique.
        key = (id(table), id(lex))
        if key not in self._labeled_rows:
            rows = [i for i, w in enumerate(table.vocabulary) if self._lookup(lex, w)]
            self._labeled_rows[key] = (table, lex, table.vectors[rows])
        return self._labeled_rows[key][2]

    # -- per operation ----------------------------------------------------

    def end_op(self) -> dict[str, float]:
        """Replay this operation's lookups and derive its layer metrics."""
        lexicons, words = self._lexicons[:], self._words[:]
        self._lexicons.clear()
        self._words.clear()
        lookup = self._lookup
        hits = 0
        started = time.perf_counter()
        for lex, word in zip(lexicons, words):
            if lookup(lex, word):
                hits += 1
        replay = {
            "calls": len(words),
            "lookup_s": time.perf_counter() - started,
            "hits": hits,
            "distinct_words": len(set(words)),
        }
        for span in self.spans:
            if span["op"] == self.op and span["name"] == "labeling.label_dimensions":
                first, last = span["lookups"]
                wrapped = _logging_lookup(lookup, [], [])
                started = time.perf_counter()
                for lex, word in zip(lexicons[first:last], words[first:last]):
                    wrapped(lex, word)
                span["lookup_replay_s"] = time.perf_counter() - started
        values = op_metrics([s for s in self.spans if s["op"] == self.op], self.spans, replay)
        self.op_metrics[self.op] = values
        return values


def _logging_lookup(lookup, lexicons: list, words: list):
    log_lexicon, log_word = lexicons.append, words.append

    def logged(lex, word):
        log_lexicon(lex)
        log_word(word)
        return lookup(lex, word)

    return logged


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the intervals its direct children cover."""
    times = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            times[span["parent"]] -= span["closed"] - span["start"]
    return times


def op_metrics(op_spans: list[dict], all_spans: list[dict], replay: dict) -> dict[str, float]:
    """Layer metrics of one operation, for the layers that ran in it."""
    own = self_times(all_spans)
    index = {id(span): i for i, span in enumerate(all_spans)}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for span in op_spans:
        name = span["name"]
        self_s[name] += own[index[id(span)]]
        calls[name] += 1
        for key in ("rss_rise_mb", "input_bytes", "words", "entries", "band_hits",
                    "band_cells", "contributor_records", "output_bytes", "lookup_replay_s"):
            total[f"{name}:{key}"] += span.get(key, 0)

    out: dict[str, float] = {}
    if calls["embeddings.read_embeddings"]:
        out["embeddings.parse_s"] = self_s["embeddings.read_embeddings"]
        out["embeddings.parse_rss_rise_mb"] = total["embeddings.read_embeddings:rss_rise_mb"]
        out["embeddings.input_mb"] = total["embeddings.read_embeddings:input_bytes"] / 1e6
        out["embeddings.words"] = total["embeddings.read_embeddings:words"]
    if calls["embeddings.normalize"]:
        out["embeddings.normalize_s"] = self_s["embeddings.normalize"]
    if calls["lexicon.load_lexicon"]:
        out["lexicon.load_s"] = self_s["lexicon.load_lexicon"]
        out["lexicon.entries"] = total["lexicon.load_lexicon:entries"]
    if calls["lexicon.merge_lexicons"]:
        out["lexicon.merge_s"] = self_s["lexicon.merge_lexicons"]
    if replay["calls"]:
        out["lexicon.lookup_calls"] = replay["calls"]
        out["lexicon.lookup_s"] = replay["lookup_s"]
        out["lexicon.lookup_hit_ratio"] = replay["hits"] / replay["calls"]
        out["lexicon.lookup_useful_ratio"] = replay["distinct_words"] / replay["calls"]
    label = "labeling.label_dimensions"
    if calls[label]:
        out["labeling.label_s"] = self_s[label] - total[f"{label}:lookup_replay_s"]
        out["labeling.calls"] = calls[label]
        out["labeling.band_hits"] = total[f"{label}:band_hits"]
        cells = total[f"{label}:band_cells"]
        out["labeling.band_density"] = total[f"{label}:band_hits"] / cells if cells else 0.0
        out["labeling.contributor_records"] = total[f"{label}:contributor_records"]
        out["labeling.rss_rise_mb"] = total[f"{label}:rss_rise_mb"]
    if calls["labeling.cap_labels"]:
        out["labeling.cap_s"] = self_s["labeling.cap_labels"]
    if calls["metrics.sweep"]:
        out["metrics.sweep_s"] = self_s["metrics.sweep"]
        out["metrics.cells"] = sum(
            1 for s in op_spans
            if s["name"] == label and s["parent"] is not None
            and all_spans[s["parent"]]["name"] == "metrics.sweep"
        )
    report_names = (*RENDER, "report.labeling_to_document", "report.dumps_document")
    if any(calls[name] for name in report_names):
        out["report.render_s"] = sum(self_s[name] for name in RENDER)
        out["report.document_s"] = self_s["report.labeling_to_document"]
        out["report.dumps_s"] = self_s["report.dumps_document"]
        out["report.output_mb"] = sum(
            total[f"{name}:output_bytes"] for name in (*RENDER, "report.dumps_document")
        ) / 1e6
        out["report.rss_rise_mb"] = sum(total[f"{name}:rss_rise_mb"] for name in report_names)
    if calls["cli.main"]:
        out["cli.self_s"] = self_s["cli.main"]
    return out
