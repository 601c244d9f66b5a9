"""Coverage metrics over dimension labelings, plus threshold sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .embeddings import NormalizedEmbeddingTable
from .errors import Lex2vecError, NoNamedDimensionsError
from .labeling import (
    DimensionLabeling, Theta, ThetaLike, _check_normalized, _real, as_theta, label_dimensions,
)
from .lexicon import Lexicon, _check_labels


# The denominators of avg_labels_per_dimension: every dimension, or named ones.
AVG_MODES = ("all", "named")


def _check_avg_mode(mode: str) -> None:
    if mode not in AVG_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, AVG_MODES))}, got {mode!r}")


def unnamed_ratio(labeling: DimensionLabeling) -> float:
    """Fraction of dimensions that received no labels, in [0, 1]."""
    return coverage(labeling).unnamed_ratio


def avg_labels_per_dimension(
    labeling: DimensionLabeling,
    mode: str = "all",
    distinct: bool = False,
) -> float:
    """Average label mass over every dimension (``mode`` ``all``) or over named
    ones (``named``), as :func:`coverage` defines them.

    Raises:
        NoNamedDimensionsError: ``named`` mode on a fully unnamed labeling.
    """
    _check_avg_mode(mode)
    row = coverage(labeling, distinct)
    if mode == "all":
        return row.avg_labels_all
    if row.avg_labels_named is None:
        raise NoNamedDimensionsError(
            "cannot average over named dimensions: every dimension is unnamed"
        )
    return row.avg_labels_named


def _check_metric(row: SweepRow, name: str, top: float = math.inf) -> None:
    value = _real(getattr(row, name), name)
    if not (math.isfinite(value) and 0.0 <= value <= top):
        bounds = "in [0, 1]" if top == 1.0 else ">= 0"
        raise ValueError(f"{name} must be a finite number {bounds}, got {value}")
    object.__setattr__(row, name, value)


@dataclass(frozen=True)
class SweepRow:
    """One (theta, resource) evaluation cell.

    ``resource`` obeys the label rule of lexicons: a non-empty ``str`` with no
    tab or newline.  ``theta`` obeys the :class:`Theta` rule; ``unnamed_ratio``
    is a finite number in [0, 1]; ``avg_labels_all`` and ``avg_labels_named``
    are finite numbers >= 0, but ``avg_labels_named`` is None when every
    dimension is unnamed, where a named-dimensions average has no value.
    Numbers are stored as floats.
    """

    theta: float
    resource: str
    unnamed_ratio: float
    avg_labels_all: float
    avg_labels_named: float | None

    def __post_init__(self):
        _check_labels((self.resource,), "a sweep row", noun="resource name")
        object.__setattr__(self, "theta", Theta(self.theta).value)
        _check_metric(self, "unnamed_ratio", 1.0)
        _check_metric(self, "avg_labels_all")
        if self.avg_labels_named is not None:
            _check_metric(self, "avg_labels_named")


@dataclass(frozen=True)
class SweepReport:
    """Rows in strict (resource, descending theta) order: no (resource, theta) twice."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        keys = [(row.resource, -row.theta) for row in rows]
        if any(key >= after for key, after in zip(keys, keys[1:])):
            raise ValueError("rows must be strictly ordered by (resource, descending theta)")
        object.__setattr__(self, "rows", rows)


def coverage(labeling: DimensionLabeling, distinct: bool = False) -> SweepRow:
    """The report row of one labeling: its theta, resource and coverage metrics.

    A dimension is named when it holds a label.  Its label mass is the sum of its
    counts, or its number of labels if ``distinct``.  The row holds the share of
    unnamed dimensions and the average mass over every dimension and over named
    ones, None when no dimension is named.
    """
    dims = labeling.dim_count
    named = mass = 0
    for counts in labeling.per_dimension:
        if counts:
            named += 1
            mass += len(counts) if distinct else sum(counts.values())
    metrics = (dims - named) / dims, mass / dims, mass / named if named else None
    return SweepRow(labeling.theta.value, labeling.resource_name, *metrics)


def _verify_trend(rows: Sequence[SweepRow]) -> None:
    # Strict-threshold selection only shrinks as theta grows, so within one
    # lexicon the metrics must move monotonically; a violation is a bug.
    for above, below in zip(rows, rows[1:]):
        if below.resource != above.resource:
            continue
        if below.unnamed_ratio > above.unnamed_ratio:
            raise Lex2vecError(
                f"unnamed ratio rose from {above.unnamed_ratio} to {below.unnamed_ratio} "
                f"as theta fell from {above.theta} to {below.theta}"
            )
        if below.avg_labels_all < above.avg_labels_all:
            raise Lex2vecError(
                f"average labels fell from {above.avg_labels_all} to {below.avg_labels_all} "
                f"as theta fell from {above.theta} to {below.theta}"
            )


def sweep(
    table: NormalizedEmbeddingTable,
    lexicons: Sequence[Lexicon],
    thetas: Sequence[ThetaLike],
    distinct: bool = False,
) -> SweepReport:
    """Evaluate every (lexicon, theta) cell and assemble a report.

    The table must be normalized.  Lexicons must have distinct resource
    names and thetas distinct values, which tell the rows apart.
    Each cell runs a fresh labeling with contributor retention off.  Cells
    are evaluated in report order, by (resource, descending theta),
    regardless of the order of ``lexicons`` and ``thetas``.
    """
    _check_normalized(table)
    if not lexicons:
        raise ValueError("at least one lexicon is required")
    lexicons = sorted(lexicons, key=lambda lexicon: lexicon.resource_name)
    for first, second in zip(lexicons, lexicons[1:]):
        if first.resource_name == second.resource_name:
            raise ValueError(f"lexicons share the resource name {first.resource_name!r}")
    grid = sorted(map(as_theta, thetas), key=lambda theta: -theta.value)
    if not grid:
        raise ValueError("at least one theta is required")
    for first, second in zip(grid, grid[1:]):
        if first == second:
            raise ValueError(f"the theta grid repeats {first.value}")

    rows = [
        coverage(label_dimensions(table, lexicon, theta, keep_contributors=False), distinct)
        for lexicon in lexicons
        for theta in grid
    ]
    _verify_trend(rows)
    return SweepReport(tuple(rows))
