"""Read, write, and normalize word-embedding tables stored as text.

Two on-disk layouts are supported:

* Word2Vec text: a header line ``<vocab_size> <dim_count>`` followed by one
  ``word v1 v2 ... vD`` line per word.
* GloVe text: the same data lines with no header.

All downstream labeling operates on tables whose values were rescaled into
[0, 1]; :func:`normalize` produces those via min-max scaling.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Literal

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    LineError,
    MalformedLineError,
    NonFiniteValueError,
)

logger = logging.getLogger(__name__)

NormalizationScope = Literal["dimension", "word", "global"]

# The numpy axis each normalization scope takes its min and max over.
_SCOPE_AXES: dict[str, int | None] = {"dimension": 0, "word": 1, "global": None}


class EmbeddingFormat(Enum):
    """The accepted embedding text layouts."""

    WORD2VEC_TEXT = "word2vec"
    GLOVE_TEXT = "glove"
    AUTO = "auto"


class _Vocabulary(tuple):
    """A vocabulary that already passed :class:`EmbeddingTable`'s checks."""

    __slots__ = ()


_WHITESPACE = re.compile(r"\s")  # str patterns: the same characters as str.isspace()


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Ordered vocabulary plus one raw vector per word.

    ``vectors`` is an immutable float64 matrix with one row per vocabulary
    entry.  A read-only float64 array is taken over as is; anything else is
    copied first.  Words must be ``str`` (the first that is not raises
    ``TypeError``), unique, non-empty, and free of whitespace (the text
    formats are whitespace-delimited, so such words could never round-trip).
    """

    vocabulary: tuple[str, ...]
    vectors: np.ndarray
    duplicates_skipped: int = 0

    def __post_init__(self):
        vocab = self.vocabulary
        if not isinstance(vocab, _Vocabulary):
            if isinstance(vocab, str):  # would iterate as its characters
                raise TypeError("vocabulary must be a sequence of words, not a str")
            vocab = _Vocabulary(vocab)
            if not vocab:
                raise ValueError("vocabulary must not be empty")
            try:
                joined = "".join(vocab)
            except TypeError:
                word = next(w for w in vocab if not isinstance(w, str))
                kind = type(word).__name__
                raise TypeError(f"word {word!r} must be a str, not {kind}") from None
            if len(set(vocab)) != len(vocab):
                raise ValueError("vocabulary contains duplicate words")
            if "" in vocab or _WHITESPACE.search(joined):
                bad = next(w for w in vocab if not w or any(ch.isspace() for ch in w))
                raise ValueError(f"invalid word {bad!r}: empty or contains whitespace")
        vectors = self.vectors
        if not (
            isinstance(vectors, np.ndarray)
            and vectors.dtype == np.float64
            and not vectors.flags.writeable
        ):
            vectors = np.array(vectors, dtype=np.float64)
            vectors.setflags(write=False)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-D matrix, got ndim={vectors.ndim}")
        if vectors.shape[0] != len(vocab):
            raise ValueError(
                f"vector rows ({vectors.shape[0]}) do not match vocabulary size ({len(vocab)})"
            )
        if vectors.shape[1] < 1:
            raise ValueError("vectors must have at least one dimension")
        object.__setattr__(self, "vocabulary", vocab)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim_count(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def word_count(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True, eq=False)
class NormalizedEmbeddingTable(EmbeddingTable):
    """An :class:`EmbeddingTable` whose values all lie in [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        # min() and max() propagate NaN, so two scalars check the whole matrix.
        lo, hi = self.vectors.min(), self.vectors.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFiniteValueError("normalized tables must not contain NaN or infinity")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("normalized values must lie in [0, 1]")


def detect_format(first_line: str) -> EmbeddingFormat:
    """Classify a file by its first line.

    A line consisting of exactly two positive integers is the Word2Vec text
    header; anything else is treated as a GloVe data line.
    """
    tokens = first_line.split()
    # Digits with a nonzero one; int() would refuse more than 4,300 digits.
    if len(tokens) == 2 and all(t.isascii() and t.isdigit() and t.strip("0") for t in tokens):
        return EmbeddingFormat.WORD2VEC_TEXT
    return EmbeddingFormat.GLOVE_TEXT


def _content_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    # Line numbers are 1-based over the raw input; blank lines are skipped,
    # and so is a UTF-8 byte-order mark at the start of the input.
    for number, raw in enumerate(source, start=1):
        if number == 1:
            raw = raw.removeprefix("\ufeff")
        if raw.strip():
            yield number, raw


# Decoding with errors="surrogateescape" turns each byte that is not valid UTF-8
# into U+DC80 to U+DCFF, and no surrogate of a str source can be written as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_utf8(number: int, line: str, error: type[LineError] = MalformedLineError) -> None:
    """Raise ``error`` naming the line if ``line`` holds a surrogate code point.

    The reason is the one a strict decode of the line's bytes gives.
    """
    if _SURROGATE.search(line):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
            reason = "surrogates not allowed"  # escaped bytes that form valid UTF-8
        except UnicodeError as exc:
            reason = exc.reason
        raise error(f"invalid UTF-8 ({reason})", number)


def _parse_header(number: int, line: str) -> tuple[str, str]:
    # The header grammar is detect_format's.  The counts stay text without
    # leading zeros, so a count of any length compares with str() of a count.
    _check_utf8(number, line)
    if detect_format(line) is not EmbeddingFormat.WORD2VEC_TEXT:
        raise MalformedLineError("expected Word2Vec header '<vocab_size> <dim_count>'", number)
    vocab_size, dim_count = line.split()
    return vocab_size.lstrip("0"), dim_count.lstrip("0")


# Content lines parsed per np.loadtxt call: large enough that the per-call cost
# vanishes, small enough that a chunk's line strings stay near 3 MB at 300
# dimensions (the freed strings stay in the heap), and that re-scanning a
# failed chunk line by line stays quick.
_CHUNK_LINES = 1024

# Rows allocated beyond the size estimate, as a fraction of it.  Rows that are
# never written cost address space only, while running short doubles the buffer.
_ESTIMATE_MARGIN = 1 / 16


def _parse_numbers(lines: list[str], ndmin: int) -> np.ndarray:
    # The one number grammar of the parser (ASCII decimal, no '_' separators).
    # comments=None: the default '#' would silently cut a line short.
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=ndmin)


def _parse_line(number: int, line: str, dim_count: int) -> np.ndarray:
    """Parse the values of one data line, naming the line in any error."""
    _check_utf8(number, line)
    values = line.split()[1:]
    if len(values) != dim_count:
        raise MalformedLineError(f"expected {dim_count} values, found {len(values)}", number)
    try:
        # One token per "line", so the grammar is exactly the chunked path's.
        row = _parse_numbers(values, ndmin=1)
    except ValueError:
        for token in values:
            try:
                _parse_numbers([token], ndmin=1)
            except ValueError:
                raise MalformedLineError(f"unparseable number {token!r}", number) from None
        raise
    finite = np.isfinite(row)
    if not finite.all():
        bad = values[int(np.argmin(finite))]
        raise NonFiniteValueError(f"non-finite value {bad!r}", number)
    return row


def _parse_chunk(chunk: list[tuple[int, str]], dim_count: int) -> tuple[list[str], np.ndarray]:
    """Split a chunk of data lines into its words and a float64 value block.

    All lines are parsed by one ``np.loadtxt`` call.  If a word holds a byte
    that is not UTF-8, or that call fails (as an escaped byte among the values
    makes it) or yields a wrong shape or a non-finite value, the chunk is parsed
    again line by line, which raises the first error with its line number.  A
    lone ``\\r`` inside a line stops ``np.loadtxt`` but not ``str.split``; there
    the re-scan finds no error and its rows become the block.
    """
    words: list[str] = []
    rests: list[str] = []
    for _, line in chunk:
        parts = line.split(None, 1)
        words.append(parts[0])
        rests.append(parts[1] if len(parts) == 2 else "")
    block = None
    if all(rests) and not _SURROGATE.search("".join(words)):
        try:
            block = _parse_numbers(rests, ndmin=2)
        except ValueError:
            pass
    if block is None or block.shape != (len(chunk), dim_count) or not np.isfinite(block).all():
        block = np.stack([_parse_line(number, line, dim_count) for number, line in chunk])
    return words, block


def _buffer_rows(chunk: list[tuple[int, str]], input_bytes: int) -> int:
    """The rows to allocate with the first chunk: the input's size over the
    chunk's mean bytes per line, plus a margin, and one chunk at least.

    Without a size (standard input, a pipe) the buffer grows by doubling; a
    Word2Vec header, being untrusted, never sizes it.  surrogatepass counts an
    escaped byte as 3 bytes, leaving its error for the chunk's parse to name.
    """
    line_bytes = sum(len(line.encode("utf-8", "surrogatepass")) for _, line in chunk) / len(chunk)
    return max(int(input_bytes / line_bytes * (1 + _ESTIMATE_MARGIN)), len(chunk))


def parse_embeddings(
    source: Iterable[str],
    fmt: EmbeddingFormat | str = EmbeddingFormat.AUTO,
    *,
    _scope: NormalizationScope | None = None,
) -> EmbeddingTable:
    """Parse a line-oriented embedding source into an :class:`EmbeddingTable`.

    Args:
        source: Lines of text (an open file, ``io.StringIO``, or a list).  A
            UTF-8 byte-order mark at the start is dropped.  Any surrogate code
            point, as ``errors="surrogateescape"`` makes of a byte that is not
            UTF-8, is an error of its line.
        fmt: Input layout, an :class:`EmbeddingFormat` or its value (any other
            raises ``ValueError``); ``AUTO`` decides from the first non-blank line.

    Returns:
        The parsed table.  Vocabulary order equals file order; when a word
        repeats, the first occurrence wins and later ones are skipped (the
        skip count is kept on ``duplicates_skipped`` and logged).

    Raises:
        EmptyInputError: no data lines were found.
        MalformedLineError: invalid UTF-8, wrong token count or unparseable
            number.
        NonFiniteValueError: a value is NaN, infinite, or overflows float64.
        DimensionMismatchError: the header disagrees with the data lines.
    """
    return _parse(source, fmt, 0, _scope)


def _parse(
    source: Iterable[str],
    fmt: EmbeddingFormat | str,
    input_bytes: int,
    scope: NormalizationScope | None,
) -> EmbeddingTable:
    # input_bytes sizes the row buffer; 0 when the size is unknown.  With a
    # scope the buffer is min-max rescaled before it is frozen, and the table is
    # a NormalizedEmbeddingTable: the caller gets the matrix once, not twice.
    fmt = EmbeddingFormat(fmt)
    lines = _content_lines(source)
    first = next(lines, None)
    if first is None:
        raise EmptyInputError("no embedding lines found")
    if fmt is EmbeddingFormat.AUTO:
        fmt = detect_format(first[1])
    header: tuple[str, str] | None = None
    if fmt is EmbeddingFormat.WORD2VEC_TEXT:
        header = _parse_header(*first)
    else:
        lines = itertools.chain([first], lines)

    words: dict[str, None] = {}  # the vocabulary, in file order
    # Rows are copied into one buffer, allocated with the first chunk and grown
    # in place (realloc) if it runs short, so each chunk's block is freed before
    # the next is parsed and the matrix is never held twice.
    vectors = None
    data_lines = 0
    for chunk in iter(lambda: list(itertools.islice(lines, _CHUNK_LINES)), []):
        if vectors is None:  # the first data line sets the width
            number, line = chunk[0]
            _check_utf8(number, line)
            dim_count = len(line.split()) - 1
            if dim_count < 1:
                raise MalformedLineError("expected a word followed by at least one value", number)
            if header is not None and str(dim_count) != header[1]:
                raise DimensionMismatchError(
                    f"header declares {header[1]} dimensions but data has {dim_count}", number
                )
            vectors = np.empty((_buffer_rows(chunk, input_bytes), dim_count), dtype=np.float64)
        data_lines += len(chunk)
        chunk_words, block = _parse_chunk(chunk, dim_count)
        start = len(words)
        keep = []
        for row, word in enumerate(chunk_words):
            if word not in words:
                words[word] = None
                keep.append(row)
        if len(words) > len(vectors):
            # refcheck=False: the buffer is local and no view of it exists yet.
            vectors.resize((2 * len(vectors), dim_count), refcheck=False)
        vectors[start : len(words)] = block if len(keep) == len(chunk) else block[keep]
        del chunk, chunk_words, block  # free before the next chunk is read

    if vectors is None:
        raise EmptyInputError("header present but no embedding lines follow")
    if header is not None and str(data_lines) != header[0]:
        raise DimensionMismatchError(
            f"header declares {header[0]} words but {data_lines} data lines follow", first[0]
        )
    duplicates = data_lines - len(words)
    if duplicates:
        logger.warning("skipped %d duplicate word(s); first occurrence kept", duplicates)
    vectors.resize((len(words), dim_count), refcheck=False)
    if scope is not None:
        _min_max_scale(vectors, vectors, scope)
    vectors.setflags(write=False)
    table = EmbeddingTable if scope is None else NormalizedEmbeddingTable
    # The dict and str.split made the words unique, non-empty, whitespace-free str.
    return table(_Vocabulary(words), vectors, duplicates_skipped=duplicates)


def read_embeddings(
    path: str | Path,
    fmt: EmbeddingFormat | str = EmbeddingFormat.AUTO,
    *,
    _scope: NormalizationScope | None = None,
) -> EmbeddingTable:
    """Open ``path`` as UTF-8 text and parse it with :func:`parse_embeddings`.

    Lines end at ``\n`` only, as on standard input: a lone ``\r`` stays
    inside its line, and the ``\r`` of a CRLF ending is whitespace.  Invalid
    UTF-8 raises :class:`MalformedLineError` naming its line, and an earlier
    faulty line wins whatever its fault.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as stream:
        # A pipe reports size 0, which leaves the buffer to grow by doubling.
        return _parse(stream, fmt, os.fstat(stream.fileno()).st_size, _scope)


def normalize(
    table: EmbeddingTable,
    scope: NormalizationScope = "dimension",
) -> NormalizedEmbeddingTable:
    """Min-max rescale a table into [0, 1].

    Args:
        table: Any embedding table with finite values.
        scope: What the min/max are taken over.  ``dimension`` (the default)
            scales each column independently, ``word`` each row, ``global``
            the whole matrix.

    Returns:
        A table of the same shape where, within each scaling group, the
        minimum maps to exactly 0.0 and the maximum to exactly 1.0.
        Degenerate groups (max equals min) map every value to 0.5, which no
        band test with theta > 0.5 can ever select.

    Raises:
        NonFiniteValueError: the input contains NaN or infinity.
    """
    scaled = np.empty_like(table.vectors)
    _min_max_scale(table.vectors, scaled, scope)
    scaled.setflags(write=False)
    return NormalizedEmbeddingTable(
        table.vocabulary, scaled, duplicates_skipped=table.duplicates_skipped
    )


def _min_max_scale(values: np.ndarray, out: np.ndarray, scope: NormalizationScope) -> None:
    """Write the min-max rescaling of ``values`` into ``out``, which may be ``values``."""
    try:
        axis = _SCOPE_AXES[scope]
    except KeyError:
        raise ValueError(f"unknown normalization scope {scope!r}") from None
    lo = values.min(axis=axis, keepdims=True)
    hi = values.max(axis=axis, keepdims=True)
    # min() and max() propagate NaN, so the extremes show any non-finite value.
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NonFiniteValueError("cannot normalize a table with NaN or infinite values")
    # A group whose span overflows float64 is scaled from its halved values, exactly.
    half = np.where(hi / 2 - lo / 2 > np.finfo(np.float64).max / 2, 0.5, 1.0)
    if (half < 1).any():  # only then is the matrix passed over once more
        values, lo, hi = np.multiply(values, half, out=out), lo * half, hi * half

    span = hi - lo
    degenerate = span == 0.0
    np.subtract(values, lo, out=out)
    out /= np.where(degenerate, 1.0, span)
    np.copyto(out, 0.5, where=degenerate)


def emit_embeddings(
    table: EmbeddingTable,
    fmt: EmbeddingFormat | str = EmbeddingFormat.GLOVE_TEXT,
    precision: int | None = None,
) -> str:
    """Serialize a table back to its text form.

    ``precision`` fixes the number of decimal places; ``None`` uses Python's
    shortest round-trip representation, so ``parse_embeddings`` recovers the
    exact values.  A NaN or infinite value, which the parser would refuse,
    raises :class:`NonFiniteValueError` naming the first such word.  ``fmt`` is a
    format or its value; ``AUTO`` or any other value raises ``ValueError``.
    """
    fmt = EmbeddingFormat(fmt)
    if fmt is EmbeddingFormat.AUTO:
        raise ValueError("emit requires a concrete format, not AUTO")
    finite = np.isfinite(table.vectors).all(axis=1)
    if not finite.all():
        word = table.vocabulary[int(np.argmin(finite))]
        raise NonFiniteValueError(f"word {word!r} has a NaN or infinite value")
    if precision is None:
        render = lambda v: repr(float(v))  # noqa: E731
    else:
        render = lambda v: f"{v:.{precision}f}"  # noqa: E731

    lines: list[str] = []
    if fmt is EmbeddingFormat.WORD2VEC_TEXT:
        lines.append(f"{table.word_count} {table.dim_count}")
    for word, row in zip(table.vocabulary, table.vectors):
        lines.append(word + " " + " ".join(render(v) for v in row))
    return "\n".join(lines) + "\n"
