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
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .embeddings import _check_utf8, _content_lines
from .errors import (
    Lex2vecError,
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


def _check_labels(labels: Collection, kind: str, name=None, noun: str = "label") -> None:
    """The label rule of lexicons and labelings: each is a non-empty ``str`` with no tab or
    newline.  Names the first faulty label: by ``repr`` if not a ``str``, else in sorted order.
    The labels are those of ``kind`` ``name`` (or of ``kind`` alone); a resource name or an
    entry name is checked as the one label of its owner, with ``noun`` naming what it is."""
    try:
        joined = "".join(labels)
    except TypeError:
        label = min((label for label in labels if not isinstance(label, str)), key=repr)
        owner = kind if name is None else f"{kind} {name!r}"
        raise TypeError(
            f"{noun} {label!r} of {owner} must be a str, not {type(label).__name__}"
        ) from None
    # Three substring scans: on a labeling's long joins, many times faster than the pattern.
    if "" in labels or "\t" in joined or "\n" in joined or "\r" in joined:
        label = min(label for label in labels if not label or _TAB_OR_NEWLINE.search(label))
        if not label:
            owner = kind if name is None else f"{kind} {name!r}"
            raise ValueError(f"{owner} carries an empty {noun}")
        raise ValueError(f"{noun} {label!r} contains a tab or newline")


def _merged(
    entries: Mapping[str, Iterable[str]] | Iterable[tuple[str, Iterable[str]]], kind: str
) -> dict[str, frozenset[str]]:
    """Lowercase names and labels, union the labels of equal names, check each entry."""
    pairs = entries
    if hasattr(entries, "keys"):  # a mapping, read as dict() reads one
        pairs = ((name, entries[name]) for name in entries.keys())
    merged: dict[str, frozenset[str]] = {}
    for name, labels in pairs:  # types, in input order, before any use
        if isinstance(labels, str):  # would iterate as its characters
            raise TypeError(f"labels of {kind} {name!r} must be a collection, not a str")
        if not isinstance(name, str):
            raise TypeError(f"{kind} {name!r} must be a str, not {type(name).__name__}")
        try:
            read = iter(labels)  # a TypeError raised while reading is not this fault
        except TypeError:
            raise TypeError(
                f"labels of {kind} {name!r} must be a collection, not {type(labels).__name__}"
            ) from None
        labels = tuple(read)  # read once: the labels may be a generator
        if not all(isinstance(label, str) for label in labels):
            _check_labels(labels, kind, name)  # raises, naming the first that is not a str
        key = name.lower()
        merged[key] = merged.get(key, frozenset()) | {label.lower() for label in labels}
    for name, labels in merged.items():  # values, once merged
        _check_labels((name,), "a lexicon", noun=kind)
        if not labels:
            raise ValueError(f"{kind} {name!r} has an empty label set")
        _check_labels(labels, kind, name)
    return merged


@dataclass(frozen=True)
class Lexicon:
    """Immutable word-pattern to label-set mapping.

    ``exact_entries`` maps whole words, and ``prefix_entries`` maps prefixes that match
    any word starting with them; each is a mapping or (name, labels) pairs, the labels in
    any iterable.  Both are lowercased, and names equal after that have their labels
    unioned.  Names and labels obey the label rule, a type fault is named before any
    other, and label sets must not be empty.  ``exact_entries`` is a read-only view in
    first-seen order and ``prefix_entries`` a tuple sorted by prefix, so equality ignores
    entry order.  ``resource_name`` obeys the label rule too, checked first: a non-empty
    ``str`` with no tab or newline, as it is a field of the sweep TSV.
    """

    resource_name: str
    exact_entries: Mapping[str, frozenset[str]]
    prefix_entries: tuple[tuple[str, frozenset[str]], ...] = ()
    # The dict behind the exact_entries view; lookups skip the view's overhead.
    _exact: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_labels((self.resource_name,), "a lexicon", noun="resource name")
        exact = _merged(self.exact_entries, "word")
        # Sorted, so lexicons with the same prefixes compare equal in any order.
        prefixes = tuple(sorted(_merged(self.prefix_entries, "prefix").items()))
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
    entries: dict[str, list[str]] = {}  # one entry per word, as Lexicon merges them
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
            entries.setdefault(word, []).append(label)
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
    entries: dict[str, list[str]] = {}  # one entry per word, as Lexicon merges them
    for number, fields in _tab_lines(source):
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLexiconLineError("expected 'word<TAB>label'", number)
        entries.setdefault(fields[0], []).append(fields[1])
    return Lexicon("plain", entries)


_LOADERS = {"nrc": load_nrc, "liwc": load_liwc, "plain": load_plain}
LEXICON_FORMATS = tuple(_LOADERS)


def load_lexicon(path: str | Path, fmt: str) -> Lexicon:
    """Open ``path`` as UTF-8 text and load it as ``fmt`` (nrc, liwc, or plain).

    Invalid UTF-8 raises :class:`MalformedLexiconLineError` naming its line,
    and an earlier faulty line wins whatever its fault.  The message of an
    error in the file's content ends with `` (in PATH)``.
    """
    try:
        loader = _LOADERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown lexicon format {fmt!r}; expected one of {', '.join(LEXICON_FORMATS)}"
        ) from None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as stream:
        try:
            return loader(stream)
        except (Lex2vecError, ValueError) as exc:
            exc.args = (f"{exc} (in {path})",)
            raise


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
    for prefix, prefix_labels in lexicon.prefix_entries:
        id_fields = "\t".join(ids[label] for label in sorted(prefix_labels))
        lines.append(f"{prefix}*\t{id_fields}")
    return "\n".join(lines) + "\n"
