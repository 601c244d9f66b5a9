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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Literal, Mapping, NamedTuple, Union

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


_BANDS = ("low", "high")


class _Contributors(Sequence):
    """Contributor records per dimension, built from band hits when read.

    ``words[e]`` is a labeled word with its sorted labels, and ``hits[j]`` is
    a numpy array coding dimension ``j``'s hits as ``2 * e + is_high`` in
    vocabulary order.  Each hit yields one record for each of its word's
    labels that ``counts[j]`` holds, so a label whose count is dropped loses
    its records without any record being built or filtered.
    """

    def __init__(self, words, hits, counts):
        self.words, self.hits, self.counts = words, hits, counts

    def __len__(self) -> int:
        return len(self.hits)

    def __getitem__(self, index: int | slice) -> tuple:
        index = range(len(self))[index]
        if isinstance(index, range):  # a slice: one record tuple per dimension
            return tuple(map(self.__getitem__, index))
        words, counts = self.words, self.counts[index]
        records = []
        for code in self.hits[index].tolist():
            word, labels = words[code >> 1]
            band = _BANDS[code & 1]
            for label in labels:
                if label in counts:
                    records.append(Contribution(word, label, band))
        return tuple(records)

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(map(tuple, other))


def _given_records(contributors, counts) -> _Contributors:
    """Hits for records passed in from outside, one single-label hit each.

    Each dimension's label tally must equal its counts, which also rejects a
    label it does not count, and each band must be ``high`` or ``low``.
    """
    given = tuple(tuple(records) for records in contributors)
    if len(given) != len(counts):
        raise ValueError("contributor records do not cover every dimension")
    words: list[tuple[str, tuple[str]]] = []
    hits = []
    for records, dim_counts in zip(given, counts):
        if Counter(label for _, label, _ in records) != Counter(dim_counts):
            raise ValueError("contributor records disagree with label counts")
        codes = []
        for word, label, band in records:
            if band not in _BANDS:
                raise ValueError(f"contributor band must be 'high' or 'low', not {band!r}")
            codes.append(2 * len(words) + (band == "high"))
            words.append((word, (label,)))
        hits.append(np.array(codes, dtype=np.int64))
    return _Contributors(words, hits, counts)


@dataclass(frozen=True)
class DimensionLabeling:
    """Per-dimension label counts produced by :func:`label_dimensions`.

    ``per_dimension[j]`` is a read-only mapping from each label attached to
    dimension ``j`` to the number of words that contributed it; an empty
    mapping means the dimension is unnamed.  When ``contributors`` is
    retained it is a read-only sequence that holds, per dimension, the
    :class:`Contribution` records behind those counts, ordered by vocabulary
    position then label, and built each time a dimension is read.
    """

    per_dimension: tuple[Mapping[str, int], ...]
    theta: Theta
    resource_name: str
    contributors: Sequence[Sequence[Contribution]] | None = None

    def __post_init__(self):
        per_dim = []
        for counts in self.per_dimension:
            clean: dict[str, int] = {}
            for label, count in counts.items():
                count = operator.index(count)
                if count < 1:
                    raise ValueError(f"label {label!r} has non-positive count {count}")
                clean[label] = count
            per_dim.append(MappingProxyType(clean))
        if not per_dim:
            raise ValueError("a labeling needs at least one dimension")

        contributors = self.contributors
        if isinstance(contributors, _Contributors) and len(contributors) == len(per_dim) and all(
            counts.items() <= held.items() for counts, held in zip(per_dim, contributors.counts)
        ):
            # Hits hold every record of the counts they were computed with,
            # so a kept count keeps its records and needs no tally.
            contributors = _Contributors(contributors.words, contributors.hits, per_dim)
        elif contributors is not None:
            contributors = _given_records(contributors, per_dim)

        object.__setattr__(self, "per_dimension", tuple(per_dim))
        object.__setattr__(self, "theta", as_theta(self.theta))
        object.__setattr__(self, "contributors", contributors)

    @property
    def dim_count(self) -> int:
        return len(self.per_dimension)


def _check_normalized(table: object) -> None:
    # The bands assume values in [0, 1], which only a normalized table promises.
    if not isinstance(table, NormalizedEmbeddingTable):
        name = type(table).__name__
        raise TypeError(f"expected a NormalizedEmbeddingTable, not {name}; call normalize() first")


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
        table: Normalized embeddings; all values in [0, 1].  Any other
            table raises ``TypeError``.
        lexicon: Source of word labels.
        theta: Band threshold, 0.5 < theta <= 1.0.
        keep_contributors: Retain the band hits that per-dimension (word,
            label, band) records are read from.  Costs memory proportional
            to the number of hits; counts and all metrics are identical
            either way.
    """
    _check_normalized(table)
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

    # A label's count on a dimension is the number of its words in a band there.
    rows_of_label: dict[str, list[int]] = {}
    for pos, labels in enumerate(word_labels):
        for label in labels:
            rows_of_label.setdefault(label, []).append(pos)
    per_dim: list[dict[str, int]] = [{} for _ in range(dim_count)]
    for label in sorted(rows_of_label):
        counts = np.count_nonzero(hit[rows_of_label[label]], axis=0)
        dims = np.flatnonzero(counts)
        for dim, count in zip(dims.tolist(), counts[dims].tolist()):
            per_dim[dim][label] = count

    contributors = None
    if keep_contributors:
        # Records are read from the hits on demand, one dimension at a time.
        cols, entries = np.nonzero(hit.T)
        codes = 2 * entries + high[entries, cols]
        bounds = np.cumsum(np.count_nonzero(hit, axis=0))[:-1]
        words = [
            (table.vocabulary[row], tuple(labels)) for row, labels in zip(rows, word_labels)
        ]
        contributors = _Contributors(words, np.split(codes, bounds), per_dim)

    return DimensionLabeling(tuple(per_dim), theta, lexicon.resource_name, contributors)


def ordered_labels(counts: Mapping[str, int]) -> list[tuple[str, int]]:
    """Labels ranked by descending count, ties broken alphabetically."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def cap_labels(labeling: DimensionLabeling, limit: int) -> DimensionLabeling:
    """Keep at most ``limit`` distinct labels per dimension.

    Labels are ranked by :func:`ordered_labels`; retained counts are
    unchanged, and contributor records are read from the same hits, so the
    records of dropped labels are never built.
    """
    limit = operator.index(limit)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")

    per_dim = [dict(ordered_labels(counts)[:limit]) for counts in labeling.per_dimension]
    return DimensionLabeling(
        tuple(per_dim), labeling.theta, labeling.resource_name, labeling.contributors
    )


# "Top-k most frequent" is the other common name for the same truncation.
top_k_frequent = cap_labels
