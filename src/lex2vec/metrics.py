"""Coverage metrics over dimension labelings, plus threshold sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .embeddings import NormalizedEmbeddingTable
from .errors import Lex2vecError, NoNamedDimensionsError
from .labeling import DimensionLabeling, ThetaLike, _check_normalized, as_theta, label_dimensions
from .lexicon import Lexicon


# The denominators of avg_labels_per_dimension: every dimension, or named ones.
AVG_MODES = ("all", "named")


def _check_avg_mode(mode: str) -> None:
    if mode not in AVG_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, AVG_MODES))}, got {mode!r}")


def unnamed_ratio(labeling: DimensionLabeling) -> float:
    """Fraction of dimensions that received no labels, in [0, 1]."""
    empty = sum(1 for counts in labeling.per_dimension if not counts)
    return empty / labeling.dim_count


def avg_labels_per_dimension(
    labeling: DimensionLabeling,
    mode: str = "all",
    distinct: bool = False,
) -> float:
    """Average label load per dimension.

    ``mode`` picks the denominator: ``all`` divides the total label mass by
    every dimension, ``named`` only by dimensions that received at least one
    label.  ``distinct`` counts each label once per dimension instead of
    with multiplicity.

    Raises:
        NoNamedDimensionsError: ``named`` mode on a fully unnamed labeling.
    """
    _check_avg_mode(mode)
    if distinct:
        mass = sum(len(counts) for counts in labeling.per_dimension)
    else:
        mass = sum(sum(counts.values()) for counts in labeling.per_dimension)

    if mode == "all":
        return mass / labeling.dim_count
    named = sum(1 for counts in labeling.per_dimension if counts)
    if named == 0:
        raise NoNamedDimensionsError(
            "cannot average over named dimensions: every dimension is unnamed"
        )
    return mass / named


@dataclass(frozen=True)
class SweepRow:
    """One (theta, resource) evaluation cell.

    ``avg_labels_named`` is None when every dimension is unnamed, where a
    named-dimensions average has no value.
    """

    theta: float
    resource: str
    unnamed_ratio: float
    avg_labels_all: float
    avg_labels_named: float | None


@dataclass(frozen=True)
class SweepReport:
    """Rows ordered by (resource, descending theta)."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        keys = [(row.resource, -row.theta) for row in rows]
        if keys != sorted(keys):
            raise ValueError("rows must be ordered by (resource, descending theta)")
        object.__setattr__(self, "rows", rows)


def coverage(labeling: DimensionLabeling, distinct: bool = False) -> SweepRow:
    """The report row of one labeling: its theta, resource and coverage metrics.

    ``distinct`` is passed on to :func:`avg_labels_per_dimension`.
    """
    ratio = unnamed_ratio(labeling)
    return SweepRow(
        labeling.theta.value,
        labeling.resource_name,
        ratio,
        avg_labels_per_dimension(labeling, "all", distinct),
        None if ratio == 1.0 else avg_labels_per_dimension(labeling, "named", distinct),
    )


def _verify_trend(cells: Sequence[SweepRow]) -> None:
    # Strict-threshold selection only shrinks as theta grows, so within one
    # lexicon the metrics must move monotonically; a violation is a bug.
    ordered = sorted(cells, key=lambda row: -row.theta)
    for above, below in zip(ordered, ordered[1:]):
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
    Each cell runs a fresh labeling with contributor retention off.  Rows
    come back ordered by (resource, descending theta) regardless of the
    order of ``thetas``.
    """
    _check_normalized(table)
    if not lexicons:
        raise ValueError("at least one lexicon is required")
    names = [lexicon.resource_name for lexicon in lexicons]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"lexicons share the resource name {name!r}")
    theta_values = [as_theta(t) for t in thetas]
    if not theta_values:
        raise ValueError("at least one theta is required")
    values = [theta.value for theta in theta_values]
    for value in values:
        if values.count(value) > 1:
            raise ValueError(f"the theta grid repeats {value}")

    rows: list[SweepRow] = []
    for lexicon in lexicons:
        cells = [
            coverage(label_dimensions(table, lexicon, theta, keep_contributors=False), distinct)
            for theta in theta_values
        ]
        _verify_trend(cells)
        rows.extend(cells)

    rows.sort(key=lambda row: (row.resource, -row.theta))
    return SweepReport(tuple(rows))
