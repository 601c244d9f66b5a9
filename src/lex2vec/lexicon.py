"""Lexical resources: word-to-label dictionaries with optional prefix patterns.

Three file layouts are accepted:

* NRC emotion-lexicon style: ``word<TAB>label<TAB>flag`` lines, flag 1 keeps
  the association and flag 0 drops it.
* LIWC ``.dic`` style: a category block delimited by two ``%`` lines mapping
  ids to names, then ``pattern<TAB>id[<TAB>id...]`` body lines.  A trailing
  ``*`` on a pattern matches every word starting with that prefix.
* Plain: ``word<TAB>label`` lines, exact entries only.

Entries and query words are lowercased; queries are always matched literally
(a query is never interpreted as a pattern, so no escaping is needed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .embeddings import _check_utf8, _content_lines
from .errors import (
    MalformedLexiconLineError,
    MissingDelimiterError,
    UnknownCategoryIdError,
)

# Trie key holding the label set of a prefix that ends at this node.  Real
# keys are single characters, so None can never collide.
_END = None

_TAB_OR_NEWLINE = re.compile("[\t\n\r]")


def _prefix_trie(prefixes: Iterable[tuple[str, frozenset[str]]]) -> dict:
    """A character trie over unique prefixes: each node maps a character to
    its child, and ``_END`` to the labels of the prefix ending there.  A walk
    costs the query's length plus its matches, whatever the lexicon's size."""
    root: dict = {}
    for prefix, labels in prefixes:
        node = root
        for ch in prefix:
            node = node.setdefault(ch, {})
        node[_END] = labels
    return root


def _merged(
    entries: Iterable[tuple[str, Iterable[str]]], kind: str
) -> dict[str, frozenset[str]]:
    """Lowercase names and labels, union the labels of equal names, check each entry."""
    merged: dict[str, frozenset[str]] = {}
    for name, labels in entries:
        if isinstance(labels, str):  # would iterate as its characters
            raise TypeError(f"labels of {kind} {name!r} must be a collection, not a str")
        key = name.lower()
        merged[key] = merged.get(key, frozenset()) | {label.lower() for label in labels}
    for name, labels in merged.items():
        if not name:
            raise ValueError(f"empty {kind} entry")
        if _TAB_OR_NEWLINE.search(name):
            raise ValueError(f"{kind} {name!r} contains a tab or newline")
        if not labels:
            raise ValueError(f"{kind} {name!r} has an empty label set")
        if "" in labels or _TAB_OR_NEWLINE.search("".join(labels)):
            # Name the first faulty label in sorted order, whatever the hash seed.
            label = min(label for label in labels if not label or _TAB_OR_NEWLINE.search(label))
            if not label:
                raise ValueError(f"{kind} {name!r} carries an empty label")
            raise ValueError(f"label {label!r} contains a tab or newline")
    return merged


@dataclass(frozen=True)
class Lexicon:
    """Immutable word-pattern to label-set mapping.

    ``exact_entries`` maps whole words (a mapping, or (word, labels) pairs);
    ``prefix_entries`` holds (prefix, labels) pairs matching any word that
    starts with the prefix.  Both are lowercased on construction, and the
    labels of names that repeat or become equal are unioned; label sets are
    never empty.  ``exact_entries`` is a read-only view, so a lexicon cannot
    change after construction.
    """

    resource_name: str
    exact_entries: Mapping[str, frozenset[str]]
    prefix_entries: tuple[tuple[str, frozenset[str]], ...] = ()
    # The dict behind the exact_entries view; lookups skip the view's overhead.
    _exact: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = entries = self.exact_entries
        if hasattr(given, "keys"):  # a mapping, read as dict() reads one
            entries = ((word, given[word]) for word in given.keys())
        exact = _merged(entries, "word")
        prefixes = tuple(_merged(self.prefix_entries, "prefix").items())
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "exact_entries", MappingProxyType(exact))
        object.__setattr__(self, "prefix_entries", prefixes)
        object.__setattr__(self, "_trie", _prefix_trie(prefixes))

    def lookup(self, word: str) -> set[str]:
        """All labels matching ``word``: its exact entry plus every stored
        prefix of it.  Returns an empty set on a miss."""
        key = word.lower()
        found = set(self._exact.get(key, ()))
        node = self._trie
        for ch in key:
            node = node.get(ch)
            if node is None:
                break
            labels = node.get(_END)
            if labels:
                found |= labels
        return found

    @property
    def entry_count(self) -> int:
        return len(self.exact_entries) + len(self.prefix_entries)


def _tab_lines(source: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield the line number and stripped tab-separated fields of every
    line; blank lines and a leading byte-order mark are skipped, and a byte
    that is not UTF-8 is an error of its line, as in embedding files."""
    for number, raw in _content_lines(source):
        if not raw.isascii():  # a quick pass: an escaped byte is never ASCII
            _check_utf8(number, raw, MalformedLexiconLineError)
        yield number, [f.strip() for f in raw.split("\t")]


def load_nrc(source: Iterable[str]) -> Lexicon:
    """Load an NRC-style lexicon: ``word<TAB>label<TAB>flag`` per line.

    Lines with flag 1 add the label to the word's set; flag 0 lines carry no
    association and are skipped.  Blank lines are ignored.
    """
    entries: list[tuple[str, tuple[str]]] = []
    for number, fields in _tab_lines(source):
        if len(fields) != 3:
            raise MalformedLexiconLineError(
                f"expected 3 tab-separated fields, found {len(fields)}", number
            )
        word, label, flag = fields
        if flag not in ("0", "1"):
            raise MalformedLexiconLineError(
                f"association flag must be 0 or 1, found {flag!r}", number
            )
        if not word or not label:
            raise MalformedLexiconLineError("empty word or label", number)
        if flag == "1":
            entries.append((word, (label,)))
    return Lexicon("nrc", entries)


def _is_delimiter(fields: list[str]) -> bool:
    # A '%' line may have spaces or tabs around the '%'.
    return "".join(fields) == "%"


def load_liwc(source: Iterable[str]) -> Lexicon:
    """Load a LIWC-style ``.dic`` file.

    Expects ``%``, category lines ``id<TAB>name``, ``%``, then body lines
    ``pattern<TAB>id[<TAB>id...]``.  A single trailing ``*`` marks a prefix
    pattern (the ``*`` is stripped); any other ``*`` is kept literally.
    """
    lines = list(source)
    rows = _tab_lines(lines)
    categories: dict[str, str] = {}
    exact: list[tuple[str, set[str]]] = []
    prefixes: list[tuple[str, set[str]]] = []

    # A file without content lines has no line to name.
    number, fields = next(rows, (None, None))
    if fields is None or not _is_delimiter(fields):
        raise MissingDelimiterError("expected '%' opening the category section", number)

    for number, fields in rows:
        if _is_delimiter(fields):
            break
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLexiconLineError(
                "expected 'category_id<TAB>category_name'", number
            )
        cat_id, cat_name = fields
        if cat_id in categories:
            raise MalformedLexiconLineError(f"duplicate category id {cat_id!r}", number)
        categories[cat_id] = cat_name
    else:
        # Names the last line of the file, trailing blank lines included.
        raise MissingDelimiterError("category section was never closed with '%'", len(lines))

    for number, fields in rows:
        fields = [f for f in fields if f]
        if len(fields) < 2:
            raise MalformedLexiconLineError(
                "expected a pattern followed by at least one category id", number
            )
        pattern, ids = fields[0], fields[1:]
        labels: set[str] = set()
        for cat_id in ids:
            if cat_id not in categories:
                raise UnknownCategoryIdError(
                    f"category id {cat_id!r} is not declared in the header", number
                )
            labels.add(categories[cat_id])
        if pattern.endswith("*"):
            prefix = pattern[:-1]
            if not prefix:
                raise MalformedLexiconLineError("bare '*' is not a valid pattern", number)
            prefixes.append((prefix, labels))
        else:
            exact.append((pattern, labels))
    return Lexicon("liwc", exact, tuple(prefixes))


def load_plain(source: Iterable[str]) -> Lexicon:
    """Load a plain ``word<TAB>label`` lexicon (exact entries only)."""
    entries: list[tuple[str, tuple[str]]] = []
    for number, fields in _tab_lines(source):
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLexiconLineError("expected 'word<TAB>label'", number)
        entries.append((fields[0], (fields[1],)))
    return Lexicon("plain", entries)


_LOADERS = {"nrc": load_nrc, "liwc": load_liwc, "plain": load_plain}
LEXICON_FORMATS = tuple(_LOADERS)


def load_lexicon(path: str | Path, fmt: str) -> Lexicon:
    """Open ``path`` as UTF-8 text and load it as ``fmt`` (nrc, liwc, or plain).

    Invalid UTF-8 raises :class:`MalformedLexiconLineError` naming its line,
    and an earlier faulty line wins whatever its fault.
    """
    try:
        loader = _LOADERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown lexicon format {fmt!r}; expected one of {', '.join(LEXICON_FORMATS)}"
        ) from None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as stream:
        return loader(stream)


def merge_lexicons(lexicons: Sequence[Lexicon]) -> Lexicon:
    """Union several lexicons into one.

    Label sets are merged per word/prefix; the combined resource name joins
    the parts with ``+`` in the order given.
    """
    if not lexicons:
        raise ValueError("at least one lexicon is required")
    if len(lexicons) == 1:
        return lexicons[0]
    exact = (entry for lex in lexicons for entry in lex.exact_entries.items())
    prefixes = (entry for lex in lexicons for entry in lex.prefix_entries)
    return Lexicon("+".join(lex.resource_name for lex in lexicons), exact, prefixes)


def emit_liwc(lexicon: Lexicon) -> str:
    """Serialize any lexicon canonically in the LIWC ``.dic`` layout.

    Category ids are assigned in sorted label order and entries are emitted
    sorted, so equal lexicons serialize identically.  Reloading the output
    with :func:`load_liwc` yields the same lookup results for every word.
    A lexicon the layout cannot represent raises ``ValueError``: an exact
    word ending in ``*`` would reload as a prefix, and a word, prefix or
    label with whitespace at either end would reload stripped.
    """
    labels = sorted({label for _, ls in lexicon.exact_entries.items() for label in ls}
                    | {label for _, ls in lexicon.prefix_entries for label in ls})
    for word in lexicon.exact_entries:
        if word.endswith("*"):
            raise ValueError(f"word {word!r} ends in '*', which LIWC reads as a prefix")
    for name in [*lexicon.exact_entries, *(p for p, _ in lexicon.prefix_entries), *labels]:
        if name != name.strip():
            raise ValueError(f"entry {name!r} has whitespace at an end, which LIWC strips")
    ids = {label: str(i) for i, label in enumerate(labels, start=1)}

    lines = ["%"]
    lines.extend(f"{ids[label]}\t{label}" for label in labels)
    lines.append("%")
    for word in sorted(lexicon.exact_entries):
        id_fields = "\t".join(ids[label] for label in sorted(lexicon.exact_entries[word]))
        lines.append(f"{word}\t{id_fields}")
    for prefix, prefix_labels in sorted(lexicon.prefix_entries):
        id_fields = "\t".join(ids[label] for label in sorted(prefix_labels))
        lines.append(f"{prefix}*\t{id_fields}")
    return "\n".join(lines) + "\n"
