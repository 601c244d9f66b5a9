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
from typing import Any, Iterator, Mapping

from .labeling import DimensionLabeling, ordered_labels
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
    returns, and :func:`_labeling_json_parts` is the one statement of its fixed layout.
    """
    return "".join(_labeling_json_parts(labeling))


def _labeling_json_parts(labeling: DimensionLabeling) -> Iterator[str]:
    """The text of :func:`render_labeling_json` a dimension at a time: the metric
    fields of :func:`coverage`, then per dimension its index, name, ranked labels
    and, when retained, its contributor records, then the closing brackets.
    Strings are escaped by ``encode_basestring``, as ``json.dumps`` escapes them.
    """
    quote = encode_basestring
    row = coverage(labeling)
    yield (
        f'{{\n  "theta": {_number(row.theta)},\n  "resource": {quote(row.resource)},'
        f'\n  "dim_count": {labeling.dim_count},'
        f'\n  "unnamed_ratio": {_number(row.unnamed_ratio)},'
        f'\n  "avg_labels_all": {_number(row.avg_labels_all)},'
        f'\n  "avg_labels_named": {_number(row.avg_labels_named)},\n  "dimensions": ['
    )
    contributors = labeling.contributors
    if contributors is not None:
        records = contributors._records(_record_text, range(labeling.dim_count))
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
            entry += f',\n      "contributors": {_array(",".join(next(records)))}'
        yield entry + "\n    }"
    yield "\n  ]\n}\n"


def _record_text(word: str, label: str, band: str) -> str:
    quote = encode_basestring
    return (
        f'\n        {{\n          "word": {quote(word)},\n          "label": {quote(label)},'
        f'\n          "band": {quote(band)}\n        }}'
    )


def labeling_to_document(labeling: DimensionLabeling) -> dict[str, Any]:
    """Structured form of a labeling, including both average modes: the
    parsed text of :func:`render_labeling_json`."""
    return json.loads(render_labeling_json(labeling))


def _restates(value: Any, expected: int) -> bool:
    # A document's index and dim_count restate its entries: each must be that int, not a bool.
    return type(value) is int and value == expected


def labeling_from_document(document: Mapping[str, Any]) -> DimensionLabeling:
    """Inverse of :func:`labeling_to_document`: ``name`` and the metrics are recomputed.

    A dimension entry that lists a label twice raises ``ValueError``, and so does an
    ``index`` that is not the entry's position or a ``dim_count`` that is not the number
    of entries; a document may omit those two keys.
    """
    per_dim, records, given = [], [], False
    for index, entry in enumerate(document["dimensions"]):
        if not _restates(entry.get("index", index), index):
            raise ValueError(f"dimension entry {index} has index {entry['index']!r}")
        counts = {}
        for item in entry["labels"]:
            label = item["label"]
            if label in counts:
                raise ValueError(f"dimension {index} lists label {label!r} twice")
            counts[label] = item["count"]
        per_dim.append(counts)
        records.append(entry.get("contributors", ()))
        given = given or "contributors" in entry
    if not _restates(document.get("dim_count", len(per_dim)), len(per_dim)):
        raise ValueError(
            f"dim_count {document['dim_count']!r} is not the {len(per_dim)} dimension entries"
        )
    contributors = records if given else None
    return DimensionLabeling(tuple(per_dim), document["theta"], document["resource"], contributors)


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
