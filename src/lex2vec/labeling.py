"""Attach lexicon labels to embedding dimensions.

The procedure: for every vocabulary word that has lexicon labels, test each
of its normalized values against two bands — strictly above ``theta`` (the
high band) or strictly below ``1 - theta`` (the low band).  Wherever a value
falls in a band, all of the word's labels are counted once for that
dimension.  Because theta must exceed 0.5 the bands are disjoint, and raising
theta can only shrink the selection.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Literal, NamedTuple, Union

import numpy as np

from .embeddings import NormalizedEmbeddingTable
from .lexicon import Lexicon

Band = Literal["high", "low"]


@dataclass(frozen=True)
class Theta:
    """Band threshold; must satisfy 0.5 < value <= 1.0.

    The strict lower bound keeps the high band (theta, 1] and the low band
    [0, 1 - theta) disjoint.  At exactly 1.0 both bands are empty, since the
    comparisons are strict.
    """

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not 0.5 < value <= 1.0:
            raise ValueError(f"theta must satisfy 0.5 < theta <= 1.0, got {value}")
        object.__setattr__(self, "value", value)

    @property
    def low_cutoff(self) -> float:
        return 1.0 - self.value


ThetaLike = Union[Theta, float]


def as_theta(value: ThetaLike) -> Theta:
    return value if isinstance(value, Theta) else Theta(float(value))


class Contribution(NamedTuple):
    word: str
    label: str
    band: Band


@dataclass(frozen=True)
class DimensionLabeling:
    """Per-dimension label counts produced by :func:`label_dimensions`.

    ``per_dimension[j]`` maps each label attached to dimension ``j`` to the
    number of words that contributed it; an empty mapping means the dimension
    is unnamed.  When ``contributors`` is retained it holds, per dimension,
    the :class:`Contribution` records behind those counts, ordered by
    vocabulary position then label.
    """

    per_dimension: tuple[dict[str, int], ...]
    theta: Theta
    resource_name: str
    contributors: tuple[tuple[Contribution, ...], ...] | None = None

    def __post_init__(self):
        per_dim = []
        for counts in self.per_dimension:
            clean: dict[str, int] = {}
            for label, count in counts.items():
                count = operator.index(count)
                if count < 1:
                    raise ValueError(f"label {label!r} has non-positive count {count}")
                clean[label] = count
            per_dim.append(clean)
        if not per_dim:
            raise ValueError("a labeling needs at least one dimension")

        contributors = self.contributors
        if contributors is not None:
            contributors = tuple(tuple(dim_records) for dim_records in contributors)
            if len(contributors) != len(per_dim):
                raise ValueError("contributor records do not cover every dimension")
            for counts, records in zip(per_dim, contributors):
                tally: dict[str, int] = {}
                for record in records:
                    tally[record.label] = tally.get(record.label, 0) + 1
                if tally != counts:
                    raise ValueError("contributor records disagree with label counts")

        object.__setattr__(self, "per_dimension", tuple(per_dim))
        object.__setattr__(self, "theta", as_theta(self.theta))
        object.__setattr__(self, "contributors", contributors)

    @property
    def dim_count(self) -> int:
        return len(self.per_dimension)


def label_dimensions(
    table: NormalizedEmbeddingTable,
    lexicon: Lexicon,
    theta: ThetaLike,
    keep_contributors: bool = False,
) -> DimensionLabeling:
    """Label every dimension of a normalized table from a lexicon.

    For each word in vocabulary order, its lexicon labels (if any) are added
    once to every dimension where the word's value is strictly above
    ``theta`` or strictly below ``1 - theta``.  Values exactly equal to
    either cutoff never count.

    Args:
        table: Normalized embeddings; all values in [0, 1].
        lexicon: Source of word labels.
        theta: Band threshold, 0.5 < theta <= 1.0.
        keep_contributors: Retain per-dimension (word, label, band) records.
            Costs memory proportional to the selection size; counts and all
            metrics are identical either way.
    """
    theta = as_theta(theta)
    dim_count = table.dim_count

    # Only words the lexicon knows can contribute, so the band test runs on
    # their rows alone.
    rows: list[int] = []
    word_labels: list[list[str]] = []
    for row, word in enumerate(table.vocabulary):
        labels = lexicon.lookup(word)
        if labels:
            rows.append(row)
            word_labels.append(sorted(labels))
    values = table.vectors[rows]
    high = values > theta.value
    hit = high | (values < theta.low_cutoff)

    # counts[label, dim] = incidence[label, word] @ hit[word, dim].  Every
    # count is far below 2**53, so the float64 product is exact.
    label_names = sorted({label for labels in word_labels for label in labels})
    label_index = {label: i for i, label in enumerate(label_names)}
    incidence = np.zeros((len(label_names), len(rows)))
    incidence[
        [label_index[label] for labels in word_labels for label in labels],
        [pos for pos, labels in enumerate(word_labels) for _ in labels],
    ] = 1.0
    counts = (incidence @ hit.astype(np.float64)).T
    per_dim: list[dict[str, int]] = [{} for _ in range(dim_count)]
    dims, label_ids = np.nonzero(counts)
    for dim, label_id, count in zip(
        dims.tolist(), label_ids.tolist(), counts[dims, label_ids].tolist()
    ):
        per_dim[dim][label_names[label_id]] = int(count)

    contributors = None
    if keep_contributors:
        # Each word's records for the low band (False) and the high band
        # (True); dimensions share these immutable tuples.
        word_records = [
            tuple(
                tuple(Contribution(table.vocabulary[row], label, band) for label in labels)
                for band in ("low", "high")
            )
            for row, labels in zip(rows, word_labels)
        ]
        records: list[list[Contribution]] = [[] for _ in range(dim_count)]
        word_pos, cols = np.nonzero(hit)
        for pos, col, is_high in zip(
            word_pos.tolist(), cols.tolist(), high[word_pos, cols].tolist()
        ):
            records[col].extend(word_records[pos][is_high])
        contributors = tuple(tuple(dim_records) for dim_records in records)

    return DimensionLabeling(tuple(per_dim), theta, lexicon.resource_name, contributors)


def cap_labels(labeling: DimensionLabeling, limit: int) -> DimensionLabeling:
    """Keep at most ``limit`` distinct labels per dimension.

    Labels are ranked by descending count, ties broken alphabetically;
    retained counts are unchanged and contributor records of dropped labels
    are removed.
    """
    limit = operator.index(limit)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")

    per_dim: list[dict[str, int]] = []
    for counts in labeling.per_dimension:
        if len(counts) <= limit:
            per_dim.append(dict(counts))
            continue
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        per_dim.append(dict(ranked[:limit]))

    contributors = None
    if labeling.contributors is not None:
        contributors = tuple(
            tuple(rec for rec in dim_records if rec.label in per_dim[col])
            for col, dim_records in enumerate(labeling.contributors)
        )
    return DimensionLabeling(
        tuple(per_dim), labeling.theta, labeling.resource_name, contributors
    )


def top_k_frequent(labeling: DimensionLabeling, k: int) -> DimensionLabeling:
    """Truncate each dimension to its ``k`` most frequent labels.

    Same rank-truncation as :func:`cap_labels`; both names are kept because
    both phrasings are in common use.
    """
    return cap_labels(labeling, k)
