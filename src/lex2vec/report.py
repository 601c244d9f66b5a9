"""Render labelings and sweep reports as TSV lines or JSON documents.

Output is deterministic: labels are ordered by descending count then
alphabetically, report rows follow their report order, and JSON documents
use a fixed key layout, so identical inputs always serialize byte-for-byte
identically.
"""

from __future__ import annotations

import dataclasses
import json
from json.encoder import encode_basestring
from typing import Any, Mapping

from .labeling import Contribution, DimensionLabeling, ordered_labels
from .metrics import SweepReport, SweepRow, _check_avg_mode, coverage

UNNAMED_MARKER = "UNNAMED"
SWEEP_TSV_HEADER = "theta\tresource\tpct_unnamed\tavg_labels_dim"


def _name(ranked: list[tuple[str, int]]) -> str:
    return "+".join(label for label, _ in ranked) if ranked else UNNAMED_MARKER


def dimension_name(counts: Mapping[str, int]) -> str:
    """Human-readable dimension name: ranked labels joined by '+'."""
    return _name(ordered_labels(counts))


def render_labeling_tsv(labeling: DimensionLabeling) -> str:
    """One line per dimension: index, rendered name, ``label:count`` pairs."""
    lines = []
    for index, counts in enumerate(labeling.per_dimension):
        ranked = ordered_labels(counts)
        pairs = ",".join(f"{label}:{count}" for label, count in ranked)
        lines.append(f"{index}\t{_name(ranked)}\t{pairs}")
    return "\n".join(lines) + "\n"


def format_theta(theta: float) -> str:
    """Short ``g`` text where it reads back as ``theta``, else the exact repr."""
    text = format(theta, "g")
    return text if float(text) == theta else repr(theta)


def format_percent(ratio: float) -> str:
    return f"{ratio * 100.0:.1f}%"


def render_sweep_tsv(report: SweepReport, avg_mode: str = "all") -> str:
    """Tabulate a sweep report; percentages carry one decimal place."""
    _check_avg_mode(avg_mode)
    lines = [SWEEP_TSV_HEADER]
    for row in report.rows:
        avg = row.avg_labels_all if avg_mode == "all" else row.avg_labels_named
        avg_text = "n/a" if avg is None else f"{avg:.1f}"
        lines.append(
            f"{format_theta(row.theta)}\t{row.resource}"
            f"\t{format_percent(row.unnamed_ratio)}\t{avg_text}"
        )
    return "\n".join(lines) + "\n"


def _number(value: float | None) -> str:
    return "null" if value is None else float.__repr__(value)


def _array(items: str) -> str:
    # A labels or contributors array; each of its items starts a new line.
    return f"[{items}\n      ]" if items else "[]"


def render_labeling_json(labeling: DimensionLabeling) -> str:
    """The labeling document as JSON text, written in one pass.

    The text is exactly ``json.dumps(document, indent=2, ensure_ascii=False,
    allow_nan=False) + "\\n"`` for the document :func:`labeling_to_document`
    returns, and this is the one statement of its fixed layout: the metric
    fields of :func:`coverage`, then per dimension its index, name, ranked
    labels and, when retained, its contributor records.  Strings are escaped
    by ``encode_basestring``, as ``json.dumps`` escapes them.
    """
    quote = encode_basestring
    row = coverage(labeling)
    parts = [
        f'{{\n  "theta": {_number(row.theta)},\n  "resource": {quote(row.resource)},'
        f'\n  "dim_count": {labeling.dim_count},'
        f'\n  "unnamed_ratio": {_number(row.unnamed_ratio)},'
        f'\n  "avg_labels_all": {_number(row.avg_labels_all)},'
        f'\n  "avg_labels_named": {_number(row.avg_labels_named)},\n  "dimensions": ['
    ]
    contributors = labeling.contributors
    for index, counts in enumerate(labeling.per_dimension):
        ranked = ordered_labels(counts)
        labels = ",".join(
            f'\n        {{\n          "label": {quote(label)},\n          "count": {count}'
            "\n        }"
            for label, count in ranked
        )
        entry = (
            f'{"," if index else ""}\n    {{\n      "index": {index},'
            f'\n      "name": {quote(_name(ranked))},\n      "labels": {_array(labels)}'
        )
        if contributors is not None:
            records = ",".join(
                f'\n        {{\n          "word": {quote(word)},\n          "label": {quote(label)},'
                f'\n          "band": {quote(band)}\n        }}'
                for word, label, band in contributors[index]
            )
            entry += f',\n      "contributors": {_array(records)}'
        parts.append(entry + "\n    }")
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def labeling_to_document(labeling: DimensionLabeling) -> dict[str, Any]:
    """Structured form of a labeling, including both average modes: the
    parsed text of :func:`render_labeling_json`."""
    return json.loads(render_labeling_json(labeling))


def labeling_from_document(document: Mapping[str, Any]) -> DimensionLabeling:
    """Inverse of :func:`labeling_to_document` (metrics are recomputed)."""
    per_dim = tuple(
        {item["label"]: item["count"] for item in entry["labels"]}
        for entry in document["dimensions"]
    )
    contributors = None
    if any("contributors" in entry for entry in document["dimensions"]):
        contributors = tuple(
            tuple(
                Contribution(rec["word"], rec["label"], rec["band"])
                for rec in entry.get("contributors", ())
            )
            for entry in document["dimensions"]
        )
    return DimensionLabeling(
        per_dim, document["theta"], document["resource"], contributors
    )


def report_to_document(report: SweepReport) -> dict[str, Any]:
    return {"rows": [dataclasses.asdict(row) for row in report.rows]}


def report_from_document(document: Mapping[str, Any]) -> SweepReport:
    return SweepReport(tuple(SweepRow(**row) for row in document["rows"]))


def _check_keys(value: Any) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            _check_keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_keys(item)


def dumps_document(document: Mapping[str, Any]) -> str:
    """Serialize a document to JSON text (stable layout, trailing newline).

    The text is ``json.dumps(document, indent=2, ensure_ascii=False,
    allow_nan=False) + "\\n"``.  NaN and infinities raise ``ValueError``; a
    value of another type, or a key that is not a ``str`` (which ``json``
    would convert), raises ``TypeError``.
    """
    _check_keys(document)
    return json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
