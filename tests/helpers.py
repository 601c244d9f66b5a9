"""Shared test utilities.

``brute_force_labeling`` is an independent reference for the labeling
pipeline, counts and contributor records alike: a plain-Python triple loop
over words, dimensions, and labels with naive linear prefix matching.  It
deliberately shares no code with the package so the two can check each
other.
"""

from __future__ import annotations

import numpy as np

from lex2vec import Lexicon, NormalizedEmbeddingTable

LABEL_POOL = (
    "anger", "anticipation", "cogproc", "disgust", "fear",
    "joy", "negemo", "posemo", "sadness", "social", "trust",
)

# Palette biased toward band boundaries for the thetas used in tests.
VALUE_PALETTE = (0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)


def naive_lookup(word, exact, prefixes):
    word = word.lower()
    labels = set(exact.get(word, ()))
    for prefix, prefix_labels in prefixes:
        if word.startswith(prefix):
            labels |= set(prefix_labels)
    return labels


def brute_force_labeling(vocabulary, matrix, exact, prefixes, theta_value):
    """Triple-loop reference implementation of dimension labeling.

    Returns per-dimension label counts and per-dimension (word, label, band)
    records, the records ordered by vocabulary position then label.
    """
    dim_count = len(matrix[0])
    counts = [dict() for _ in range(dim_count)]
    records = [[] for _ in range(dim_count)]
    low_cutoff = 1.0 - theta_value
    for word, row in zip(vocabulary, matrix):
        labels = naive_lookup(word, exact, prefixes)
        if not labels:
            continue
        for j in range(dim_count):
            value = float(row[j])
            if value > theta_value or value < low_cutoff:
                band = "high" if value > theta_value else "low"
                for label in sorted(labels):
                    counts[j][label] = counts[j].get(label, 0) + 1
                    records[j].append((word, label, band))
    return counts, records


def brute_force_label_counts(vocabulary, matrix, exact, prefixes, theta_value):
    """Per-dimension label counts of :func:`brute_force_labeling`."""
    return brute_force_labeling(vocabulary, matrix, exact, prefixes, theta_value)[0]


def random_words(rng, count):
    words = []
    seen = set()
    while len(words) < count:
        length = int(rng.integers(1, 9))
        word = "".join(rng.choice(list("abcdefgh"), size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def random_normalized_table(rng, max_words=32, max_dims=8):
    n_words = int(rng.integers(1, max_words + 1))
    n_dims = int(rng.integers(1, max_dims + 1))
    values = rng.random((n_words, n_dims))
    # Overwrite a share of cells with boundary-heavy palette values.
    mask = rng.random((n_words, n_dims)) < 0.5
    palette = rng.choice(VALUE_PALETTE, size=(n_words, n_dims))
    values = np.where(mask, palette, values)
    return NormalizedEmbeddingTable(tuple(random_words(rng, n_words)), values)


def random_lexicon_entries(rng, vocabulary):
    """Random (exact, prefixes) drawing words and prefixes from a vocabulary."""
    exact = {}
    for word in vocabulary:
        if rng.random() < 0.5:
            size = int(rng.integers(1, 4))
            exact[word] = frozenset(rng.choice(LABEL_POOL, size=size))
    prefixes = {}
    n_prefixes = int(rng.integers(0, 4))
    candidates = [w for w in vocabulary if len(w) >= 2]
    for _ in range(min(n_prefixes, len(candidates))):
        word = candidates[int(rng.integers(0, len(candidates)))]
        prefix = word[: int(rng.integers(1, len(word)))]
        size = int(rng.integers(1, 3))
        new = frozenset(rng.choice(LABEL_POOL, size=size))
        prefixes[prefix] = prefixes.get(prefix, frozenset()) | new
    return exact, tuple(prefixes.items())


def random_lexicon(rng, vocabulary, name="rand"):
    exact, prefixes = random_lexicon_entries(rng, vocabulary)
    return Lexicon(name, exact, prefixes)
