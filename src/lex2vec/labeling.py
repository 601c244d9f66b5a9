"""Attach lexicon labels to embedding dimensions.

The procedure: for every vocabulary word that has lexicon labels, test each
of its normalized values against two bands — strictly above ``theta`` (the
high band) or strictly below ``1 - theta`` (the low band).  Wherever a value
falls in a band, all of the word's labels are counted once for that
dimension.  Because theta must exceed 0.5 the bands are disjoint, and raising
theta can only shrink the selection.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Literal, Mapping, NamedTuple, Union

import numpy as np

from .embeddings import NormalizedEmbeddingTable
from .lexicon import Lexicon, _check_labels

Band = Literal["high", "low"]


# A theta or a sweep metric is a number, never a bool or a str, which float()
# would take as 1.0 or parse.
def _real(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
    return float(value)


@dataclass(frozen=True)
class Theta:
    """Band threshold; must satisfy 0.5 < value <= 1.0.

    The strict lower bound keeps the high band (theta, 1] and the low band
    [0, 1 - theta) disjoint.  At exactly 1.0 both bands are empty, since the
    comparisons are strict.
    """

    value: float

    def __post_init__(self):
        value = _real(self.value, "theta")
        if not 0.5 < value <= 1.0:
            raise ValueError(f"theta must satisfy 0.5 < theta <= 1.0, got {value}")
        object.__setattr__(self, "value", value)

    @property
    def low_cutoff(self) -> float:
        return 1.0 - self.value


ThetaLike = Union[Theta, float]


def as_theta(value: ThetaLike) -> Theta:
    return value if isinstance(value, Theta) else Theta(value)


class Contribution(NamedTuple):
    word: str
    label: str
    band: Band


_BANDS = ("low", "high")
_BAND_BLOCK = 1024  # labeled rows band-tested at a time


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
    label it does not count; each word must be a ``str``, each band ``high`` or ``low``.
    A fault names its dimension.
    """
    given = tuple(contributors)
    if len(given) != len(counts):
        raise ValueError("contributor records do not cover every dimension")
    words: list[tuple[str, tuple[str]]] = []
    hits = []
    for index, (records, dim_counts) in enumerate(zip(given, counts)):
        tally: dict[str, int] = {}
        codes = []
        for word, label, band in records:
            if band not in _BANDS:
                raise ValueError(
                    f"dimension {index}: contributor band must be 'high' or 'low', not {band!r}"
                )
            if not isinstance(word, str):
                raise TypeError(f"dimension {index}: contributor word {word!r} must be a str")
            tally[label] = tally.get(label, 0) + 1
            codes.append(2 * len(words) + (band == "high"))
            words.append((word, (label,)))
        if tally != dim_counts:
            raise ValueError(f"dimension {index}: contributor records disagree with label counts")
        hits.append(np.array(codes, dtype=np.int64))
    return _Contributors(words, hits, counts)


def _positive_int(value, name: str, label: object = None) -> int:
    """A count or a cap limit: an integer >= 1, numpy's included, never a ``bool`` (which the
    index protocol takes as 1).  ``name.format(label)`` names it, only when it raises."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or value.__class__ is bool:
        raise TypeError(f"{name.format(label)} must be an integer, not {type(value).__name__}")
    if number < 1:
        raise ValueError(f"{name.format(label)} must be >= 1, got {number}")
    return number


@dataclass(frozen=True)
class DimensionLabeling:
    """Per-dimension label counts produced by :func:`label_dimensions`.

    ``per_dimension[j]`` maps each label attached to dimension ``j`` (a non-empty ``str``
    with no tab or newline, as in a lexicon) to the number of words that contributed it,
    read-only; an empty mapping means the dimension is unnamed.  ``resource_name`` obeys
    the same rule, checked first.  A retained ``contributors`` is a read-only sequence of,
    per dimension, the :class:`Contribution` records behind those counts, in vocabulary
    then label order, built each time a dimension is read.
    """

    per_dimension: tuple[Mapping[str, int], ...]
    theta: Theta
    resource_name: str
    contributors: Sequence[Sequence[Contribution]] | None = None

    def __post_init__(self):
        _check_labels((self.resource_name,), "a labeling", noun="resource name")
        per_dim = []
        for index, counts in enumerate(self.per_dimension):
            clean = {
                label: _positive_int(count, "the count of label {!r}", label)
                for label, count in counts.items()
            }
            _check_labels(clean, "dimension", index)
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
        keep_contributors: Retain what per-dimension (word, label, band)
            records are read from: each labeled word with its sorted labels
            and one integer code per band hit.  Counts and all metrics are
            identical either way.

    The band test holds one boolean matrix of hits over the labeled rows, plus one
    of high-band hits only for contributors, and reads their values a block at a time.
    """
    _check_normalized(table)
    theta = as_theta(theta)
    dim_count = table.dim_count

    # Only words the lexicon knows can contribute, so the band test runs on their
    # rows alone; each label keeps the positions of its words among those rows.
    rows: list[int] = []
    words: list[tuple[str, tuple[str, ...]]] = []
    rows_of_label: dict[str, list[int]] = {}
    for row, word in enumerate(table.vocabulary):
        labels = lexicon.lookup(word)
        if labels:
            pos = len(rows)
            for label in labels:
                rows_of_label.setdefault(label, []).append(pos)
            rows.append(row)
            if keep_contributors:
                words.append((word, tuple(sorted(labels))))
    hit = np.empty((len(rows), dim_count), dtype=bool)
    high = np.empty_like(hit) if keep_contributors else None
    for start in range(0, len(rows), _BAND_BLOCK):
        part = slice(start, start + _BAND_BLOCK)
        values = table.vectors[rows[part]]
        above = values > theta.value
        np.logical_or(above, values < theta.low_cutoff, out=hit[part])
        if keep_contributors:
            high[part] = above
        del values, above  # freed before the next block is read

    # A label's count on a dimension is the number of its words in a band there.
    per_dim: list[dict[str, int]] = [{} for _ in range(dim_count)]
    for label in sorted(rows_of_label):
        label_rows = rows_of_label[label]  # counted a block at a time, as they are band-tested
        parts = range(0, len(label_rows), _BAND_BLOCK)
        counts = sum(np.count_nonzero(hit[label_rows[i : i + _BAND_BLOCK]], axis=0) for i in parts)
        dims = np.flatnonzero(counts)
        for dim, count in zip(dims.tolist(), counts[dims].tolist()):
            per_dim[dim][label] = count

    contributors = None
    if keep_contributors:
        # Records are read from the hits on demand, one dimension at a time.
        cols, entries = np.nonzero(hit.T)
        codes = 2 * entries + high[entries, cols]
        bounds = np.cumsum(np.count_nonzero(hit, axis=0))[:-1]
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
    limit = _positive_int(limit, "limit")
    per_dim = [dict(ordered_labels(counts)[:limit]) for counts in labeling.per_dimension]
    return DimensionLabeling(
        tuple(per_dim), labeling.theta, labeling.resource_name, labeling.contributors
    )


# "Top-k most frequent" is the other common name for the same truncation.
top_k_frequent = cap_labels
