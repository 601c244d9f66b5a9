"""Render labelings and sweep reports as TSV lines or JSON documents.

Output is deterministic: labels are ordered by descending count then
alphabetically, report rows follow their report order, and JSON documents
use a fixed key layout, so identical inputs always serialize byte-for-byte
identically.
"""

from __future__ import annotations

import dataclasses
import math
from json.encoder import encode_basestring
from typing import Any, Mapping

from .labeling import Contribution, DimensionLabeling, ordered_labels
from .metrics import SweepReport, SweepRow, _check_avg_mode, coverage

UNNAMED_MARKER = "UNNAMED"
SWEEP_TSV_HEADER = "theta\tresource\tpct_unnamed\tavg_labels_dim"
_DUMPS_BATCH = 8192  # written parts per joined piece


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
    return format(theta, "g")


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


def labeling_to_document(labeling: DimensionLabeling) -> dict[str, Any]:
    """Structured form of a labeling, including both average modes."""
    row = coverage(labeling)
    document: dict[str, Any] = {
        "theta": row.theta,
        "resource": row.resource,
        "dim_count": labeling.dim_count,
        "unnamed_ratio": row.unnamed_ratio,
        "avg_labels_all": row.avg_labels_all,
        "avg_labels_named": row.avg_labels_named,
        "dimensions": [],
    }
    for index, counts in enumerate(labeling.per_dimension):
        ranked = ordered_labels(counts)
        entry: dict[str, Any] = {
            "index": index,
            "name": _name(ranked),
            "labels": [{"label": label, "count": count} for label, count in ranked],
        }
        if labeling.contributors is not None:
            entry["contributors"] = [
                {"word": rec.word, "label": rec.label, "band": rec.band}
                for rec in labeling.contributors[index]
            ]
        document["dimensions"].append(entry)
    return document


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


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# Exact scalar types and their JSON text; subclasses take the isinstance path.
_SCALAR_TEXT = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _subclass_text(value: Any) -> str:
    """JSON text of a ``str``, ``int`` or ``float`` subclass instance."""
    for kind in (str, int, float):
        if isinstance(value, kind):
            return _SCALAR_TEXT[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_document(document: Mapping[str, Any]) -> str:
    """Serialize a document to JSON text (stable layout, trailing newline).

    The text is exactly ``json.dumps(document, indent=2, ensure_ascii=False,
    allow_nan=False) + "\\n"``.  NaN and infinities raise ``ValueError``; a
    value of another type, or a key that is not a ``str``, raises
    ``TypeError``.  Documents are trees, so cycles are not checked.

    With ``indent`` set, the stdlib encoder runs in pure Python, passing each
    value through a chain of nested generators.  Here a scalar costs one
    dictionary lookup on its exact type and one call to its text function
    (the stdlib's C escaper for strings), and the parts are joined every
    ``_DUMPS_BATCH`` so a contributor document never holds millions of small
    strings at once.
    """
    batch_size, scalar_text = _DUMPS_BATCH, _SCALAR_TEXT.get
    pieces: list[str] = []
    batch: list[str] = []
    append = batch.append

    def write(value: Any, pad: str) -> None:
        # pad is a newline followed by the indentation of value.
        if isinstance(value, dict):
            keyed, brackets, items = True, "{}", value.items()
        elif isinstance(value, (list, tuple)):
            keyed, brackets, items = False, "[]", enumerate(value)
        else:
            append((scalar_text(type(value)) or _subclass_text)(value))
            return
        if not value:
            append(brackets)
            return
        inner = pad + "  "
        separator = brackets[0] + inner
        for key, item in items:
            head = separator
            if keyed:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head += encode_basestring(key) + ": "
            text = scalar_text(type(item))
            if text is not None:
                append(head + text(item))
            else:
                append(head)
                write(item, inner)
            separator = "," + inner
            if len(batch) >= batch_size:
                pieces.append("".join(batch))
                batch.clear()
        append(pad + brackets[1])

    write(document, "\n")
    append("\n")
    pieces.append("".join(batch))
    return "".join(pieces)
