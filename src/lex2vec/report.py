"""Render labelings and sweep reports as TSV lines or JSON documents.

Output is deterministic: labels are ordered by descending count then
alphabetically, report rows follow their report order, and JSON documents
use a fixed key layout, so identical inputs always serialize byte-for-byte
identically.
"""

from __future__ import annotations

import io
import json
from typing import Any, Mapping

from .labeling import Contribution, DimensionLabeling
from .metrics import SweepReport, SweepRow, avg_labels_per_dimension, unnamed_ratio

UNNAMED_MARKER = "UNNAMED"
SWEEP_TSV_HEADER = "theta\tresource\tpct_unnamed\tavg_labels_dim"


def ordered_labels(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """Labels ranked by descending count, ties broken alphabetically."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def dimension_name(counts: Mapping[str, int]) -> str:
    """Human-readable dimension name: ranked labels joined by '+'."""
    if not counts:
        return UNNAMED_MARKER
    return "+".join(label for label, _ in ordered_labels(counts))


def render_labeling_tsv(labeling: DimensionLabeling) -> str:
    """One line per dimension: index, rendered name, ``label:count`` pairs."""
    lines = []
    for index, counts in enumerate(labeling.per_dimension):
        pairs = ",".join(f"{label}:{count}" for label, count in ordered_labels(counts))
        lines.append(f"{index}\t{dimension_name(counts)}\t{pairs}")
    return "\n".join(lines) + "\n"


def format_theta(theta: float) -> str:
    return format(theta, "g")


def format_percent(ratio: float) -> str:
    return f"{ratio * 100.0:.1f}%"


def render_sweep_tsv(report: SweepReport, avg_mode: str = "all") -> str:
    """Tabulate a sweep report; percentages carry one decimal place."""
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
    ratio = unnamed_ratio(labeling)
    document: dict[str, Any] = {
        "theta": labeling.theta.value,
        "resource": labeling.resource_name,
        "dim_count": labeling.dim_count,
        "unnamed_ratio": ratio,
        "avg_labels_all": avg_labels_per_dimension(labeling, "all"),
        "avg_labels_named": (
            None if ratio == 1.0 else avg_labels_per_dimension(labeling, "named")
        ),
        "dimensions": [],
    }
    for index, counts in enumerate(labeling.per_dimension):
        entry: dict[str, Any] = {
            "index": index,
            "name": dimension_name(counts),
            "labels": [
                {"label": label, "count": count}
                for label, count in ordered_labels(counts)
            ],
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
    return {
        "rows": [
            {
                "theta": row.theta,
                "resource": row.resource,
                "unnamed_ratio": row.unnamed_ratio,
                "avg_labels_all": row.avg_labels_all,
                "avg_labels_named": row.avg_labels_named,
            }
            for row in report.rows
        ]
    }


def report_from_document(document: Mapping[str, Any]) -> SweepReport:
    return SweepReport(
        tuple(
            SweepRow(
                row["theta"],
                row["resource"],
                row["unnamed_ratio"],
                row["avg_labels_all"],
                row["avg_labels_named"],
            )
            for row in document["rows"]
        )
    )


def dumps_document(document: Mapping[str, Any]) -> str:
    """Serialize a document to JSON text (stable layout, trailing newline)."""
    # json.dump streams its chunks into one buffer; json.dumps would first
    # hold them all in a list, millions of small strings for a contributor
    # document.
    buffer = io.StringIO()
    json.dump(document, buffer, indent=2, ensure_ascii=False, allow_nan=False)
    buffer.write("\n")
    return buffer.getvalue()
