"""Seeded, download-free corpus for the lex2vec benchmark.

A corpus is one embedding text file plus an NRC file and a LIWC ``.dic`` file
whose entries are drawn from the embedding vocabulary.  Each dimension has its
own Gaussian (mean and spread drawn per dimension), and every value is kept as
an integer count of millionths that is written with six decimals.  For such a
value ``millionths / 1e6`` is exactly the float that ``float()`` parses from
the text (both are the double nearest to the decimal), so the reference can
work from the draw without parsing the file.

The same seed and shape always give byte-identical files.  Generated corpora
are cached under ``bench/.corpus`` by seed and shape.

Run ``python3 bench/corpus.py --shape large --seed 1`` to generate (or find)
one corpus and print its manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".corpus"
# Least recently used corpora are deleted while the cache holds more than
# this; a large corpus is about 143 MB and a small one about 29 MB.
MAX_CACHED_BYTES = 2_000_000_000

NRC_EMOTIONS = (
    "anger", "anticipation", "disgust", "fear", "joy",
    "negative", "positive", "sadness", "surprise", "trust",
)
# Probability that an NRC word carries a given emotion (flag 1).
NRC_FLAG_P = 0.2


@dataclass(frozen=True)
class Shape:
    words: int
    dims: int
    header: bool  # Word2Vec text (header line) when true, else GloVe text
    nrc_words: int
    liwc_categories: int
    liwc_exact: int
    liwc_prefixes: int

    @property
    def key(self) -> str:
        layout = "w2v" if self.header else "glove"
        return (
            f"{layout}-{self.words}x{self.dims}-nrc{self.nrc_words}"
            f"-liwc{self.liwc_categories}.{self.liwc_exact}.{self.liwc_prefixes}"
        )


SHAPES = {
    # 50,000 x 300 GloVe text (about 143 MB); the lexicons cover about 20%.
    "large": Shape(50_000, 300, False, 6_400, 60, 3_000, 800),
    # 10,000 x 300 Word2Vec text (about 29 MB); the same lexicon sizes drawn
    # from a smaller vocabulary cover about 77% of it.
    "small": Shape(10_000, 300, True, 6_400, 60, 3_000, 800),
    # For the benchmark's own tests.
    "tiny": Shape(300, 12, False, 60, 6, 30, 10),
    "tiny-w2v": Shape(300, 12, True, 60, 6, 30, 10),
}


@dataclass
class Draw:
    """Everything a corpus file holds, before it is written as text."""

    vocabulary: list[str]
    millionths: np.ndarray  # int64 [words, dims]
    nrc_words: list[str]
    nrc_flags: np.ndarray  # bool [nrc_words, len(NRC_EMOTIONS)]
    liwc_names: list[str]  # category id i + 1 is liwc_names[i]
    liwc_exact: dict[str, tuple[int, ...]]  # word -> category ids
    liwc_prefixes: dict[str, tuple[int, ...]]  # prefix -> category ids


def _words(rng: np.random.Generator, count: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        lengths = rng.integers(3, 11, size=count)
        letters = (rng.integers(0, 26, size=(count, 10)) + ord("a")).astype(np.uint8)
        for length, row in zip(lengths.tolist(), letters):
            word = row[:length].tobytes().decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def _category_ids(rng: np.random.Generator, categories: int) -> tuple[int, ...]:
    size = int(rng.integers(1, 4))
    picked = rng.choice(categories, size=min(size, categories), replace=False)
    return tuple(sorted(int(i) + 1 for i in picked))


def draw(shape: Shape, seed: int) -> Draw:
    """Draw a corpus; a pure function of ``shape`` and ``seed``."""
    rng = np.random.default_rng([seed, shape.words, shape.dims])
    vocabulary = _words(rng, shape.words)

    means = rng.normal(0.0, 0.05, size=shape.dims)
    spreads = rng.uniform(0.2, 0.6, size=shape.dims)
    values = rng.normal(means, spreads, size=(shape.words, shape.dims))
    millionths = np.rint(values * 1e6).astype(np.int64)

    picks = rng.permutation(shape.words)
    nrc_words = [vocabulary[i] for i in picks[: shape.nrc_words]]
    nrc_flags = rng.random((shape.nrc_words, len(NRC_EMOTIONS))) < NRC_FLAG_P

    liwc_names = [f"liwc{i:02d}" for i in range(shape.liwc_categories)]
    picks = rng.permutation(shape.words)
    liwc_exact = {
        vocabulary[i]: _category_ids(rng, shape.liwc_categories)
        for i in picks[: shape.liwc_exact]
    }
    liwc_prefixes: dict[str, tuple[int, ...]] = {}
    for i in rng.permutation(shape.words).tolist():
        if len(liwc_prefixes) == shape.liwc_prefixes:
            break
        word = vocabulary[i]
        # Prefixes of four or five letters each match a few words; shorter
        # ones would match hundreds of random-letter words.
        prefix = word[: int(rng.integers(4, 6))]
        if len(word) > len(prefix) and prefix not in liwc_prefixes:
            liwc_prefixes[prefix] = _category_ids(rng, shape.liwc_categories)
    return Draw(
        vocabulary, millionths, nrc_words, nrc_flags, liwc_names, liwc_exact, liwc_prefixes
    )


def write(corpus: Draw, shape: Shape, directory: Path) -> dict[str, Path]:
    """Write the three corpus files into ``directory`` and return their paths."""
    paths = {
        "embeddings": directory / "embeddings.txt",
        "nrc": directory / "nrc.txt",
        "liwc": directory / "liwc.dic",
    }
    row_format = "%s" + " %.6f" * shape.dims + "\n"
    values = corpus.millionths / 1e6
    with open(paths["embeddings"], "w", encoding="utf-8", newline="\n") as out:
        if shape.header:
            out.write(f"{shape.words} {shape.dims}\n")
        for start in range(0, shape.words, 4096):
            rows = values[start : start + 4096].tolist()
            words = corpus.vocabulary[start : start + 4096]
            out.write("".join(row_format % (w, *row) for w, row in zip(words, rows)))

    with open(paths["nrc"], "w", encoding="utf-8", newline="\n") as out:
        for word, flags in zip(corpus.nrc_words, corpus.nrc_flags.tolist()):
            out.write(
                "".join(
                    f"{word}\t{emotion}\t{int(flag)}\n"
                    for emotion, flag in zip(NRC_EMOTIONS, flags)
                )
            )

    body = [(w, ids, "") for w, ids in corpus.liwc_exact.items()]
    body += [(p, ids, "*") for p, ids in corpus.liwc_prefixes.items()]
    with open(paths["liwc"], "w", encoding="utf-8", newline="\n") as out:
        out.write("%\n")
        out.write("".join(f"{i}\t{name}\n" for i, name in enumerate(corpus.liwc_names, 1)))
        out.write("%\n")
        for pattern, ids, star in sorted(body):
            out.write(f"{pattern}{star}\t" + "\t".join(map(str, ids)) + "\n")
    return paths


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _evict() -> None:
    entries = sorted(
        (p for p in CACHE_DIR.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    sizes = [sum(f.stat().st_size for f in p.iterdir()) for p in entries]
    while len(entries) > 1 and sum(sizes) > MAX_CACHED_BYTES:
        shutil.rmtree(entries.pop(0), ignore_errors=True)
        sizes.pop(0)


def ensure(shape_name: str, seed: int) -> dict:
    """Return the manifest of the cached corpus, generating it on a miss.

    A hit re-hashes every file (which also warms the page cache) and
    regenerates the corpus if any hash differs from the manifest.
    """
    shape = SHAPES[shape_name]
    directory = CACHE_DIR / f"{shape.key}-seed{seed}"
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        files = manifest["files"].values()
        if all(_sha256(directory / f["file"]) == f["sha256"] for f in files):
            os.utime(directory)
            return _located(manifest, directory, cache_hit=True)
        shutil.rmtree(directory)

    CACHE_DIR.mkdir(exist_ok=True)
    staging = CACHE_DIR / f".staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    started = time.perf_counter()
    paths = write(draw(shape, seed), shape, staging)
    generate_s = time.perf_counter() - started
    staging.rename(directory)
    manifest = {
        "seed": seed,
        "shape_name": shape_name,
        "shape": asdict(shape),
        "generate_s": generate_s,
        "files": {
            name: {
                "file": path.name,
                "bytes": (directory / path.name).stat().st_size,
                "sha256": _sha256(directory / path.name),
            }
            for name, path in paths.items()
        },
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    _evict()
    return _located(manifest, directory, cache_hit=False)


def _located(manifest: dict, directory: Path, cache_hit: bool) -> dict:
    # Paths are added on use, so a cache stays valid when its tree moves.
    manifest["paths"] = {name: str(directory / f["file"]) for name, f in manifest["files"].items()}
    manifest["cache_hit"] = cache_hit
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="large")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps(ensure(args.shape, args.seed), indent=2))


if __name__ == "__main__":
    main()
