"""Independent reference outputs for the benchmark, computed with numpy.

Nothing here imports ``lex2vec``.  The reference starts from the corpus draw
(the generator's rounded values and lexicon entries), does its own min-max
scaling, its own exact-plus-prefix lookup, counts band hits as a label x word
incidence product, and renders the README formats.  The semantics are those
of the brute-force oracle in ``tests/helpers.py``, vectorized so that a
50,000 x 300 table takes about a second.
"""

from __future__ import annotations

import numpy as np

from corpus import NRC_EMOTIONS, Draw

UNNAMED = "UNNAMED"
SWEEP_HEADER = "theta\tresource\tpct_unnamed\tavg_labels_dim"

Entries = tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]  # exact, prefixes


def normalized(millionths: np.ndarray) -> np.ndarray:
    """Per-dimension min-max scaling of the values the text file holds."""
    values = millionths / 1e6
    lo = values.min(axis=0, keepdims=True)
    hi = values.max(axis=0, keepdims=True)
    span = hi - lo
    degenerate = span == 0.0
    scaled = (values - lo) / np.where(degenerate, 1.0, span)
    return np.where(degenerate, 0.5, scaled)


def nrc_entries(corpus: Draw) -> Entries:
    exact = {}
    for word, flags in zip(corpus.nrc_words, corpus.nrc_flags.tolist()):
        labels = frozenset(e for e, flag in zip(NRC_EMOTIONS, flags) if flag)
        if labels:
            exact[word.lower()] = labels
    return exact, {}


def liwc_entries(corpus: Draw) -> Entries:
    def names(ids):
        return frozenset(corpus.liwc_names[i - 1] for i in ids)

    exact = {w.lower(): names(ids) for w, ids in corpus.liwc_exact.items()}
    prefixes = {p.lower(): names(ids) for p, ids in corpus.liwc_prefixes.items()}
    return exact, prefixes


def merged(*lexicons: Entries) -> Entries:
    exact: dict[str, frozenset[str]] = {}
    prefixes: dict[str, frozenset[str]] = {}
    for lex_exact, lex_prefixes in lexicons:
        for word, labels in lex_exact.items():
            exact[word] = exact.get(word, frozenset()) | labels
        for prefix, labels in lex_prefixes.items():
            prefixes[prefix] = prefixes.get(prefix, frozenset()) | labels
    return exact, prefixes


def word_labels(word: str, entries: Entries) -> tuple[str, ...]:
    """Sorted labels of ``word``: its exact entry plus every stored prefix."""
    exact, prefixes = entries
    key = word.lower()
    labels = set(exact.get(key, ()))
    for end in range(1, len(key) + 1):
        labels |= prefixes.get(key[:end], frozenset())
    return tuple(sorted(labels))


class Labeled:
    """The rows of a normalized table that a lexicon labels.

    ``incidence[i, k]`` is 1 when labeled word ``i`` carries label ``k``, so
    ``incidence.T @ hit`` counts, per label and dimension, the words in a
    band.  The counts are exact: float64 holds integers up to 2**53.
    """

    def __init__(self, scaled: np.ndarray, vocabulary: list[str], entries: Entries):
        found = [(row, word_labels(word, entries)) for row, word in enumerate(vocabulary)]
        found = [(row, labels) for row, labels in found if labels]
        self.rows = np.array([row for row, _ in found], dtype=np.int64)
        self.words = [vocabulary[row] for row, _ in found]
        self.row_labels = [labels for _, labels in found]
        self.labels = sorted({label for labels in self.row_labels for label in labels})
        column = {label: k for k, label in enumerate(self.labels)}
        self.incidence = np.zeros((len(found), len(self.labels)))
        for i, labels in enumerate(self.row_labels):
            self.incidence[i, [column[label] for label in labels]] = 1.0
        self.values = scaled[self.rows]
        self.dim_count = scaled.shape[1]

    def bands(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """(high, hit) masks over the labeled rows; both bands are strict."""
        high = self.values > theta
        return high, high | (self.values < 1.0 - theta)

    def counts(self, theta: float) -> np.ndarray:
        """int64 [labels, dims] band-hit counts."""
        _, hit = self.bands(theta)
        return np.rint(self.incidence.T @ hit).astype(np.int64)

    def ranked(self, column: np.ndarray) -> list[tuple[str, int]]:
        """Labels of one dimension by descending count, ties alphabetical."""
        pairs = [(self.labels[k], int(column[k])) for k in np.flatnonzero(column)]
        return sorted(pairs, key=lambda pair: (-pair[1], pair[0]))


def label_tsv(labeled: Labeled, theta: float) -> bytes:
    counts = labeled.counts(theta)
    lines = []
    for dim in range(labeled.dim_count):
        ranked = labeled.ranked(counts[:, dim])
        name = "+".join(label for label, _ in ranked) or UNNAMED
        pairs = ",".join(f"{label}:{count}" for label, count in ranked)
        lines.append(f"{dim}\t{name}\t{pairs}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def sweep_tsv(resources: list[tuple[str, Labeled]], thetas: list[float]) -> bytes:
    """Sweep report over separate resources, average over all dimensions."""
    rows = []
    for name, labeled in resources:
        for theta in thetas:
            counts = labeled.counts(theta)
            dims = labeled.dim_count
            empty = int(np.count_nonzero(counts.sum(axis=0) == 0))
            rows.append((name, theta, empty / dims, int(counts.sum()) / dims))
    rows.sort(key=lambda row: (row[0], -row[1]))
    lines = [SWEEP_HEADER]
    lines += [
        f"{format(theta, 'g')}\t{name}\t{ratio * 100.0:.1f}%\t{avg:.1f}"
        for name, theta, ratio, avg in rows
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def contributors_document(labeled: Labeled, theta: float, cap: int, resource: str) -> dict:
    """The ``label --json --contributors --filter cap:N`` document.

    Contributor records are (word, label, band) tuples; compare with
    :func:`canonical_document` of the parsed output.
    """
    high, hit = labeled.bands(theta)
    counts = np.rint(labeled.incidence.T @ hit).astype(np.int64)
    dims = labeled.dim_count
    mass = named = 0
    dimensions = []
    for dim in range(dims):
        ranked = labeled.ranked(counts[:, dim])[:cap]
        kept = {label for label, _ in ranked}
        mass += sum(count for _, count in ranked)
        named += bool(ranked)
        records = []
        for i in np.flatnonzero(hit[:, dim]).tolist():
            band = "high" if high[i, dim] else "low"
            word = labeled.words[i]
            records.extend((word, label, band) for label in labeled.row_labels[i] if label in kept)
        dimensions.append({
            "index": dim,
            "name": "+".join(label for label, _ in ranked) or UNNAMED,
            "labels": [{"label": label, "count": count} for label, count in ranked],
            "contributors": records,
        })
    ratio = (dims - named) / dims
    return {
        "theta": theta,
        "resource": resource,
        "dim_count": dims,
        "unnamed_ratio": ratio,
        "avg_labels_all": mass / dims,
        "avg_labels_named": None if ratio == 1.0 else mass / named,
        "dimensions": dimensions,
    }


def canonical_document(document: dict) -> dict:
    """A parsed labeling document with contributor records as tuples.

    Raises KeyError or ValueError when a record does not have exactly the
    keys ``word``, ``label`` and ``band``.
    """
    for entry in document.get("dimensions", ()):
        records = []
        for record in entry.get("contributors", ()):
            if len(record) != 3:
                raise ValueError(f"unexpected contributor record {record!r}")
            records.append((record["word"], record["label"], record["band"]))
        if "contributors" in entry:
            entry["contributors"] = records
    return document
