"""Name word-embedding dimensions with lexical-resource labels.

Pipeline: parse pretrained embeddings (Word2Vec/GloVe text), min-max
normalize them into [0, 1], look every word up in one or more lexicons
(NRC, LIWC, or plain word-label files), and attach each labeled word's
labels to the dimensions where its value clears a threshold band.  The
result is a per-dimension label multiset plus coverage metrics and a
threshold-sweep report.
"""

from .embeddings import (
    EmbeddingFormat,
    EmbeddingTable,
    NormalizedEmbeddingTable,
    detect_format,
    emit_embeddings,
    normalize,
    parse_embeddings,
    read_embeddings,
)
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    Lex2vecError,
    MalformedLexiconLineError,
    MalformedLineError,
    MissingDelimiterError,
    NoNamedDimensionsError,
    NonFiniteValueError,
    UnknownCategoryIdError,
)
from .labeling import (
    Contribution,
    DimensionLabeling,
    Theta,
    cap_labels,
    label_dimensions,
    top_k_frequent,
)
from .lexicon import (
    Lexicon,
    emit_liwc,
    load_lexicon,
    load_liwc,
    load_nrc,
    load_plain,
    merge_lexicons,
)
from .metrics import (
    SweepReport,
    SweepRow,
    avg_labels_per_dimension,
    coverage,
    sweep,
    unnamed_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Contribution",
    "DimensionLabeling",
    "DimensionMismatchError",
    "EmbeddingFormat",
    "EmbeddingTable",
    "EmptyInputError",
    "Lex2vecError",
    "Lexicon",
    "MalformedLexiconLineError",
    "MalformedLineError",
    "MissingDelimiterError",
    "NoNamedDimensionsError",
    "NonFiniteValueError",
    "NormalizedEmbeddingTable",
    "SweepReport",
    "SweepRow",
    "Theta",
    "UnknownCategoryIdError",
    "avg_labels_per_dimension",
    "cap_labels",
    "coverage",
    "detect_format",
    "emit_embeddings",
    "emit_liwc",
    "label_dimensions",
    "load_lexicon",
    "load_liwc",
    "load_nrc",
    "load_plain",
    "merge_lexicons",
    "normalize",
    "parse_embeddings",
    "read_embeddings",
    "sweep",
    "top_k_frequent",
    "unnamed_ratio",
]
