from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import lex2vec
from lex2vec import (
    Lexicon,
    MalformedLexiconLineError,
    MissingDelimiterError,
    UnknownCategoryIdError,
    emit_liwc,
    load_lexicon,
    load_liwc,
    load_nrc,
    load_plain,
    merge_lexicons,
)

from helpers import LABEL_POOL, naive_lookup, random_lexicon_entries, random_words

NRC_SAMPLE = (
    "abandon\tfear\t1\n"
    "abandon\tjoy\t0\n"
    "good\tposemo\t1\n"
    "good\ttrust\t1\n"
)

LIWC_SAMPLE = (
    "%\n"
    "1\tposemo\n"
    "2\tnegemo\n"
    "%\n"
    "happ*\t1\n"
    "hate\t2\n"
)


class TestLoadNrc:
    def test_flag_one_kept(self):
        lex = load_nrc(io.StringIO(NRC_SAMPLE))
        assert lex.resource_name == "nrc"
        assert lex.lookup("abandon") == {"fear"}

    def test_flag_zero_skipped(self):
        lex = load_nrc(io.StringIO("abandon\tjoy\t0\n"))
        assert lex.lookup("abandon") == set()

    def test_labels_union_per_word(self):
        lex = load_nrc(io.StringIO(NRC_SAMPLE))
        assert lex.lookup("good") == {"posemo", "trust"}

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLexiconLineError) as excinfo:
            load_nrc(io.StringIO("good\tposemo\t1\nbad\tnegemo\n"))
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("line", ["good\t\t1", "\tjoy\t1"])
    def test_empty_word_or_label(self, line):
        with pytest.raises(MalformedLexiconLineError, match="empty word or label") as excinfo:
            load_nrc(io.StringIO(f"bad\tnegemo\t1\n{line}\n"))
        assert excinfo.value.line_number == 2

    def test_bad_flag(self):
        with pytest.raises(MalformedLexiconLineError):
            load_nrc(io.StringIO("good\tposemo\t2\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            # "surrogateescape" decodes the byte 0xFF to U+DCFF.
            ("good\tjoy\t1\n\udcffx\tjoy\t1\n", "line 2: invalid UTF-8 (invalid start byte)"),
            ("good\tjoy\t1\nbad\tjoy\n\udcffx\tjoy\t1\n",
             "line 2: expected 3 tab-separated fields, found 2"),
        ],
    )
    def test_first_faulty_line_wins_escaped_bytes_included(self, text, message):
        with pytest.raises(MalformedLexiconLineError, match=f"^{re.escape(message)}$"):
            load_nrc(io.StringIO(text))

    def test_blank_lines_ignored(self):
        lex = load_nrc(io.StringIO("\ngood\tposemo\t1\n\n"))
        assert lex.lookup("good") == {"posemo"}

    def test_entries_lowercased(self):
        lex = load_nrc(io.StringIO("Good\tPosEmo\t1\n"))
        assert lex.lookup("GOOD") == {"posemo"}

    def test_mixed_case_duplicates_merge_into_one_entry(self):
        lex = load_nrc(io.StringIO("Good\tJoy\t1\ngood\tjoy\t1\nGOOD\ttrust\t1\nGooD\tfear\t0\n"))
        assert lex.exact_entries == {"good": frozenset({"joy", "trust"})}


@pytest.mark.parametrize(
    "loader, text, line_number",
    [
        (load_nrc, "good\tjoy\t1\nw\ud800\tjoy\t1\n", 2),
        (load_plain, "good\tjoy\nw\tj\udbffoy\n", 2),
        (load_liwc, "%\n1\tposemo\n%\nw\udfff\t1\n", 4),
    ],
    ids=["nrc", "plain", "liwc"],
)
def test_a_lone_surrogate_is_an_error_of_its_line(loader, text, line_number):
    # Only U+DC80 to U+DCFF come from decoding a byte; no surrogate has UTF-8.
    message = f"^line {line_number}: invalid UTF-8 \\(surrogates not allowed\\)$"
    with pytest.raises(MalformedLexiconLineError, match=message):
        loader(io.StringIO(text))


class TestLoadLiwc:
    def test_wildcard_becomes_prefix(self):
        lex = load_liwc(io.StringIO(LIWC_SAMPLE))
        assert lex.resource_name == "liwc"
        assert ("happ", frozenset({"posemo"})) in lex.prefix_entries

    def test_exact_word(self):
        lex = load_liwc(io.StringIO(LIWC_SAMPLE))
        assert lex.lookup("hate") == {"negemo"}

    def test_unknown_category_id(self):
        text = "%\n1\tposemo\n%\njoy\t9\n"
        with pytest.raises(UnknownCategoryIdError) as excinfo:
            load_liwc(io.StringIO(text))
        assert excinfo.value.line_number == 4

    def test_missing_opening_delimiter(self):
        with pytest.raises(MissingDelimiterError):
            load_liwc(io.StringIO("1\tposemo\n%\nhate\t1\n"))

    def test_escaped_byte_named_before_the_section_closes(self):
        with pytest.raises(MalformedLexiconLineError, match="^line 3: invalid UTF-8"):
            load_liwc(io.StringIO("%\n1\tposemo\n2\tneg\udcffemo\n"))

    def test_unclosed_category_section(self):
        with pytest.raises(MissingDelimiterError):
            load_liwc(io.StringIO("%\n1\tposemo\n"))

    @pytest.mark.parametrize(
        "text, line_number",
        [("%\n1\tposemo\n", 2), ("%\n1\tposemo\n\n  \n\t\n", 5)],
    )
    def test_unclosed_section_names_last_raw_line(self, text, line_number):
        with pytest.raises(MissingDelimiterError) as excinfo:
            load_liwc(io.StringIO(text))
        assert excinfo.value.line_number == line_number

    @pytest.mark.parametrize("delimiter", ["%", " % ", "\t%", "%\t", " \t%\t ", "%\r"])
    def test_delimiter_may_have_whitespace_around_it(self, delimiter):
        text = f"{delimiter}\n1\tposemo\n{delimiter}\nhate\t1\n"
        assert load_liwc(io.StringIO(text)).lookup("hate") == {"posemo"}

    @pytest.mark.parametrize("delimiter", ["%%", "% %", "%\t%", "%x"])
    def test_delimiter_is_a_lone_percent_sign(self, delimiter):
        with pytest.raises(MissingDelimiterError) as excinfo:
            load_liwc(io.StringIO(f"{delimiter}\n1\tposemo\n%\nhate\t1\n"))
        assert excinfo.value.line_number == 1

    @pytest.mark.parametrize("line", ["1\tjoy\t", "\t1\tjoy", "1\t\tjoy", "1\t ", "1"])
    def test_category_line_keeps_empty_fields(self, line):
        with pytest.raises(MalformedLexiconLineError) as excinfo:
            load_liwc(io.StringIO(f"%\n{line}\n%\nhate\t1\n"))
        assert excinfo.value.line_number == 2

    def test_body_line_drops_empty_fields(self):
        lex = load_liwc(io.StringIO("%\n1\tposemo\n%\nhate\t\t1\t\n"))
        assert lex.lookup("hate") == {"posemo"}

    def test_mixed_case_patterns_and_categories_merge(self):
        text = "%\n1\tPosEmo\n2\tposemo\n%\nHapp*\t1\nhapp*\t2\nHATE\t1\nhate\t2\n"
        lex = load_liwc(io.StringIO(text))
        assert lex.exact_entries == {"hate": frozenset({"posemo"})}
        assert lex.prefix_entries == (("happ", frozenset({"posemo"})),)

    def test_multiple_category_ids_per_line(self):
        text = "%\n1\tposemo\n2\tsocial\n%\nfriend\t1\t2\n"
        lex = load_liwc(io.StringIO(text))
        assert lex.lookup("friend") == {"posemo", "social"}

    def test_duplicate_category_id_rejected(self):
        with pytest.raises(MalformedLexiconLineError):
            load_liwc(io.StringIO("%\n1\tposemo\n1\tnegemo\n%\nhate\t1\n"))

    def test_bare_star_rejected(self):
        with pytest.raises(MalformedLexiconLineError):
            load_liwc(io.StringIO("%\n1\tposemo\n%\n*\t1\n"))

    def test_category_block_line_with_too_many_fields(self):
        with pytest.raises(MalformedLexiconLineError):
            load_liwc(io.StringIO("%\n1\tposemo\textra\n%\nhate\t1\n"))

    def test_body_line_without_ids(self):
        with pytest.raises(MalformedLexiconLineError):
            load_liwc(io.StringIO("%\n1\tposemo\n%\nhate\n"))


class TestLoadPlain:
    def test_basic(self):
        lex = load_plain(io.StringIO("good\tposemo\nbad\tnegemo\ngood\ttrust\n"))
        assert lex.resource_name == "plain"
        assert lex.lookup("good") == {"posemo", "trust"}

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLexiconLineError):
            load_plain(io.StringIO("good posemo\n"))

    @pytest.mark.parametrize("line", ["good\t ", "\tjoy", " \tjoy"])
    def test_empty_word_or_label(self, line):
        with pytest.raises(MalformedLexiconLineError) as excinfo:
            load_plain(io.StringIO(f"bad\tnegemo\n{line}\n"))
        assert excinfo.value.line_number == 2

    def test_mixed_case_duplicates_merge_into_one_entry(self):
        lex = load_plain(io.StringIO("Good\tJoy\ngood\tjoy\nGOOD\tTrust\n"))
        assert lex.exact_entries == {"good": frozenset({"joy", "trust"})}

    def test_blank_lines_count_toward_line_numbers(self):
        with pytest.raises(MalformedLexiconLineError) as excinfo:
            load_plain(io.StringIO("good\tposemo\n\n \t \nbad\n"))
        assert excinfo.value.line_number == 4

    def test_load_lexicon_dispatch(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tposemo\n", encoding="utf-8")
        assert load_lexicon(path, "plain").lookup("good") == {"posemo"}
        with pytest.raises(ValueError):
            load_lexicon(path, "tsv")


@pytest.mark.parametrize(
    "fmt, text, error, message, line_number",
    [
        (
            "nrc", "good\tjoy\t1\nbad\tjoy\n", MalformedLexiconLineError,
            "line 2: expected 3 tab-separated fields, found 2", 2,
        ),
        (
            "plain", "good\tjoy\nbad\n", MalformedLexiconLineError,
            "line 2: expected 'word<TAB>label'", 2,
        ),
        (
            "liwc", "%\n1\tposemo\n%\nhate\t9\n", UnknownCategoryIdError,
            "line 4: category id '9' is not declared in the header", 4,
        ),
        ("liwc", "\n", MissingDelimiterError, "expected '%' opening the category section", None),
    ],
    ids=["nrc", "plain", "liwc", "liwc-without-content"],
)
def test_load_lexicon_names_the_file_and_a_loader_does_not(
    tmp_path, fmt, text, error, message, line_number
):
    loader = {"nrc": load_nrc, "liwc": load_liwc, "plain": load_plain}[fmt]
    with pytest.raises(error) as from_lines:
        loader(io.StringIO(text))
    assert (type(from_lines.value), str(from_lines.value)) == (error, message)
    assert from_lines.value.line_number == line_number
    path = tmp_path / "faulty.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as from_path:
        load_lexicon(path, fmt)
    assert (type(from_path.value), str(from_path.value)) == (error, f"{message} (in {path})")
    assert from_path.value.line_number == line_number


@pytest.mark.parametrize(
    "fmt, text",
    [("nrc", NRC_SAMPLE), ("liwc", LIWC_SAMPLE), ("plain", "café\tposemo\nbad\tnegemo\n")],
    ids=["nrc", "liwc", "plain"],
)
def test_byte_order_mark_is_ignored(tmp_path, fmt, text):
    with_bom, without_bom = tmp_path / "bom.txt", tmp_path / "plain.txt"
    with_bom.write_text(text, encoding="utf-8-sig")
    without_bom.write_text(text, encoding="utf-8")
    assert with_bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_lexicon(with_bom, fmt) == load_lexicon(without_bom, fmt)


class TestLookup:
    def test_prefix_match(self):
        lex = Lexicon("demo", {}, (("happ", frozenset({"posemo"})),))
        assert lex.lookup("happiness") == {"posemo"}

    def test_miss_returns_empty_set(self):
        lex = Lexicon("demo", {"good": {"posemo"}})
        assert lex.lookup("table") == set()

    def test_exact_and_prefix_union(self):
        lex = Lexicon(
            "demo", {"sad": {"negemo"}}, (("sad", frozenset({"sadness"})),)
        )
        assert lex.lookup("sad") == {"negemo", "sadness"}

    def test_nested_prefixes_all_match(self):
        lex = Lexicon(
            "demo",
            {},
            (("sa", frozenset({"a"})), ("sad", frozenset({"b"}))),
        )
        assert lex.lookup("sadness") == {"a", "b"}
        assert lex.lookup("sa") == {"a"}

    def test_query_is_literal_not_a_pattern(self):
        lex = Lexicon("demo", {"a.c": {"x"}})
        assert lex.lookup("abc") == set()
        assert lex.lookup("a.c") == {"x"}

    def test_case_insensitive(self):
        lex = Lexicon("demo", {"good": {"posemo"}}, (("happ", frozenset({"joy"})),))
        assert lex.lookup("GOOD") == {"posemo"}
        assert lex.lookup("HAPPY") == {"joy"}

    def test_method_form(self):
        lex = Lexicon("demo", {"good": {"posemo"}})
        assert lex.lookup("good") == {"posemo"}


class TestLexiconValidation:
    def test_empty_label_set_rejected(self):
        with pytest.raises(ValueError):
            Lexicon("demo", {"good": frozenset()})

    def test_tab_in_label_rejected(self):
        with pytest.raises(ValueError):
            Lexicon("demo", {"good": {"pos\temo"}})

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="carries an empty label"):
            Lexicon("demo", {"good": {"posemo", ""}})

    def test_newline_in_word_rejected(self):
        with pytest.raises(ValueError):
            Lexicon("demo", {"go\nod": {"posemo"}})

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="^a lexicon carries an empty word$"):
            Lexicon("demo", {"": {"posemo"}})

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError, match="^a lexicon carries an empty prefix$"):
            Lexicon("demo", {}, (("", frozenset({"posemo"})),))

    def test_tab_in_word_names_the_word(self):
        message = "word 'a\\tb' contains a tab or newline"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Lexicon("demo", {"a\tb": {"posemo"}})

    @pytest.mark.parametrize(
        "exact, prefixes", [({"good": "joy"}, ()), ({}, (("go", "joy"),))]
    )
    def test_str_label_set_rejected(self, exact, prefixes):
        # A str would iterate as one label per character.
        with pytest.raises(TypeError, match="not a str"):
            Lexicon("demo", exact, prefixes)

    @pytest.mark.parametrize("form", ["mapping", "pairs"])
    @pytest.mark.parametrize("kind", ["word", "prefix"])
    @pytest.mark.parametrize(
        "name, labels, message",
        [
            ("w", [1], "label 1 of {kind} 'w' must be a str, not int"),
            (1, {"a"}, "{kind} 1 must be a str, not int"),
            ("w", None, "labels of {kind} 'w' must be a collection, not NoneType"),
            ("w", 5, "labels of {kind} 'w' must be a collection, not int"),
            # Bytes have .lower(), so lowercasing alone does not reject them.
            (b"w", {"a"}, "{kind} b'w' must be a str, not bytes"),
            ("w", {b"a"}, "label b'a' of {kind} 'w' must be a str, not bytes"),
            ("w", {"", b"a"}, "label b'a' of {kind} 'w' must be a str, not bytes"),
            # One-shot collections: read once, so every label is there to be named.
            ("w", lambda: iter(["a", 5]), "label 5 of {kind} 'w' must be a str, not int"),
            ("w", lambda: iter([2, 3]), "label 2 of {kind} 'w' must be a str, not int"),
            ("w", lambda: (label for label in ["b", None]),
             "label None of {kind} 'w' must be a str, not NoneType"),
        ],
        ids=["int-label", "int-name", "none-labels", "int-labels", "bytes-name", "bytes-label",
             "bytes-and-empty-label", "iterator", "iterator-first-by-repr", "generator"],
    )
    def test_a_name_or_label_that_is_not_a_str_is_named(self, form, kind, name, labels, message):
        labels = labels() if callable(labels) else labels  # a fresh iterator for each case
        entries = {name: labels} if form == "mapping" else [(name, labels)]
        given = (entries, ()) if kind == "word" else ({}, entries)
        with pytest.raises(TypeError, match=f"^{re.escape(message.format(kind=kind))}$"):
            Lexicon("demo", *given)

    @pytest.mark.parametrize("kind", ["word", "prefix"])
    @pytest.mark.parametrize(
        "entries, message",
        [
            ([("x\ty", {"a"}), (b"w", {"a"})], "{kind} b'w' must be a str, not bytes"),
            ([("w", set()), ("v", {b"a"})], "label b'a' of {kind} 'v' must be a str, not bytes"),
            ([("w", {"a\tb"}), ("v", [b"a"])], "label b'a' of {kind} 'v' must be a str, not bytes"),
        ],
        ids=["tab-name-then-bytes-name", "empty-set-then-bytes-label",
             "tab-label-then-bytes-label"],
    )
    def test_a_type_fault_is_named_before_any_value_fault(self, kind, entries, message):
        # Types are checked entry by entry, in input order, before any entry is merged.
        given = (entries, ()) if kind == "word" else ({}, entries)
        with pytest.raises(TypeError, match=f"^{re.escape(message.format(kind=kind))}$"):
            Lexicon("demo", *given)

    def test_first_faulty_label_is_named_under_any_hash_seed(self):
        # Frozenset order follows the string hash seed; the check does not.
        script = 'from lex2vec import Lexicon; Lexicon("x", {"w": {"a\\tb", "c\\td", "e\\nf"}})'
        src = str(Path(lex2vec.__file__).resolve().parents[1])
        messages = set()
        for seed in ("0", "1", "2", "5"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
            )
            messages.add(result.stderr.strip().splitlines()[-1])
        assert messages == {"ValueError: label 'a\\tb' contains a tab or newline"}

    @pytest.mark.parametrize(
        "name, error, message",
        [
            ("a\tb", ValueError, "resource name 'a\\tb' contains a tab or newline"),
            ("a\nb", ValueError, "resource name 'a\\nb' contains a tab or newline"),
            ("", ValueError, "a lexicon carries an empty resource name"),
            (5, TypeError, "resource name 5 of a lexicon must be a str, not int"),
            (b"nrc", TypeError, "resource name b'nrc' of a lexicon must be a str, not bytes"),
        ],
        ids=["tab", "newline", "empty", "int", "bytes"],
    )
    def test_resource_name_follows_the_label_rule(self, name, error, message):
        # The name is a field of the sweep TSV, where a tab would add a column.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Lexicon(name, {"w": {"x"}})

    def test_exact_entries_are_read_only(self):
        lex = Lexicon("demo", {"good": {"posemo"}})
        with pytest.raises(TypeError):
            lex.exact_entries["bad"] = frozenset({"negemo"})
        assert lex.lookup("bad") == set()
        assert lex.entry_count == 1
        assert lex.exact_entries == {"good": frozenset({"posemo"})}
        assert lex == Lexicon("demo", {"good": {"posemo"}})


class TestEntryPairs:
    @pytest.mark.parametrize(
        "exact, prefixes",
        [
            ([("a", {"p"}), ("a", {"q"})], ()),
            ([("a", {"p"}), ("A", {"q"})], ()),
            ([], [("a", {"p"}), ("a", {"q"})]),
        ],
        ids=["repeated-pair", "case-variant", "repeated-prefix"],
    )
    def test_repeated_names_union_their_labels(self, exact, prefixes):
        assert Lexicon("x", exact, prefixes).lookup("a") == {"p", "q"}

    @pytest.mark.parametrize("kind", ["word", "prefix"])
    def test_a_mapping_is_read_through_its_keys(self, kind):
        class KeysOnly:  # what dict() accepts as a mapping
            def keys(self):
                return ["Good", "bad"]

            def __getitem__(self, word):
                return {"Good": {"PosEmo"}, "bad": ("negemo",)}[word]

        lex = Lexicon("demo", KeysOnly()) if kind == "word" else Lexicon("demo", {}, KeysOnly())
        entries = lex.exact_entries if kind == "word" else dict(lex.prefix_entries)
        assert entries == {"good": {"posemo"}, "bad": {"negemo"}}

    def test_equality_ignores_prefix_order(self):
        forward = Lexicon("x", {}, [("a", {"p"}), ("b", {"q"})])
        backward = Lexicon("x", {}, [("B", {"q"}), ("a", {"p"})])
        assert forward == backward
        assert backward.prefix_entries == (("a", {"p"}), ("b", {"q"}))
        assert emit_liwc(forward) == emit_liwc(backward) == "%\n1\tp\n2\tq\n%\na*\t1\nb*\t2\n"

    def test_loaders_and_merge_keep_first_seen_order(self):
        nrc = load_nrc(io.StringIO("b\tjoy\t1\nA\tfear\t1\nB\tanger\t1\n"))
        plain = load_plain(io.StringIO("a\ttrust\nc\tjoy\n"))
        assert list(nrc.exact_entries.items()) == [
            ("b", {"joy", "anger"}), ("a", {"fear"}),
        ]
        assert list(merge_lexicons([plain, nrc]).exact_entries.items()) == [
            ("a", {"trust", "fear"}), ("c", {"joy"}), ("b", {"joy", "anger"}),
        ]


class TestMergeAndEmit:
    def test_merge_unions_entries(self):
        a = Lexicon("liwc", {"good": {"posemo"}}, (("happ", frozenset({"joy"})),))
        b = Lexicon("nrc", {"good": {"trust"}, "bad": {"negemo"}})
        merged = merge_lexicons([a, b])
        assert merged.resource_name == "liwc+nrc"
        assert merged.lookup("good") == {"posemo", "trust"}
        assert merged.lookup("bad") == {"negemo"}
        assert merged.lookup("happy") == {"joy"}

    def test_merge_unions_labels_of_a_shared_prefix(self):
        a = Lexicon("liwc", {}, (("happ", frozenset({"joy"})), ("sad", frozenset({"negemo"}))))
        b = Lexicon("other", {}, (("HAPP", frozenset({"PosEmo"})),))
        merged = merge_lexicons([a, b])
        assert merged.prefix_entries == (
            ("happ", frozenset({"joy", "posemo"})),
            ("sad", frozenset({"negemo"})),
        )
        assert merged.lookup("happy") == {"joy", "posemo"}

    def test_merge_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="at least one lexicon"):
            merge_lexicons([])

    def test_merge_single_is_identity(self):
        a = Lexicon("liwc", {"good": {"posemo"}})
        assert merge_lexicons([a]) is a

    def test_emit_liwc_round_trips_lookups(self):
        rng = np.random.default_rng(11)
        words = random_words(rng, 30)
        exact, prefixes = random_lexicon_entries(rng, words)
        original = Lexicon("rand", exact, prefixes)
        reloaded = load_liwc(io.StringIO(emit_liwc(original)))
        probes = words + [w + "x" for w in words] + ["zzz", "q"]
        for word in probes:
            assert reloaded.lookup(word) == original.lookup(word)

    def test_emit_liwc_is_deterministic(self):
        lex = Lexicon("demo", {"b": {"l2"}, "a": {"l1"}}, (("p", frozenset({"l1"})),))
        same = Lexicon("demo", {"a": {"l1"}, "b": {"l2"}}, (("p", frozenset({"l1"})),))
        assert emit_liwc(lex) == emit_liwc(same)


@st.composite
def lexicon_entries(draw):
    words = draw(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=5), min_size=0,
                 max_size=6, unique=True)
    )
    labels = st.sampled_from(LABEL_POOL)
    exact = {
        w: frozenset(draw(st.lists(labels, min_size=1, max_size=3))) for w in words
    }
    prefix_words = draw(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=3), min_size=0,
                 max_size=3, unique=True)
    )
    prefixes = tuple(
        (p, frozenset(draw(st.lists(labels, min_size=1, max_size=2))))
        for p in prefix_words
    )
    return exact, prefixes


class TestLookupProperties:
    @given(entries=lexicon_entries(), word=st.text(alphabet="abcde", min_size=1, max_size=8))
    def test_matches_naive_reference(self, entries, word):
        """Trie-backed lookup agrees with a linear scan over all entries."""
        exact, prefixes = entries
        lex = Lexicon("rand", exact, prefixes)
        assert lex.lookup(word) == naive_lookup(word, exact, prefixes)

    @given(entries=lexicon_entries(), word=st.text(alphabet="abcde", min_size=1, max_size=8))
    def test_monotone_under_entry_growth(self, entries, word):
        """Adding entries never removes lookup results."""
        exact, prefixes = entries
        small = Lexicon("small", exact, prefixes)
        grown_exact = dict(exact)
        grown_exact[word] = grown_exact.get(word, frozenset()) | {"extra"}
        big = Lexicon("big", grown_exact, prefixes + (("a", frozenset({"extra2"})),))
        assert small.lookup(word) <= big.lookup(word)

    @given(entries=lexicon_entries(), word=st.text(alphabet="abcde", min_size=1, max_size=8))
    def test_prefix_soundness(self, entries, word):
        """A prefix entry only ever fires on literal prefixes of the query."""
        exact, prefixes = entries
        lex = Lexicon("rand", {}, prefixes)
        found = lex.lookup(word)
        legitimate = set()
        for prefix, labels in prefixes:
            if word.startswith(prefix):
                legitimate |= labels
        assert found == legitimate

    @given(entries=lexicon_entries(), word=st.text(alphabet="abcde", min_size=1, max_size=8))
    def test_deterministic(self, entries, word):
        exact, prefixes = entries
        lex = Lexicon("rand", exact, prefixes)
        assert lex.lookup(word) == lex.lookup(word)


# Names that repeat and differ only in case, with their labels in any case.
entry_pairs = st.lists(
    st.tuples(
        st.text(alphabet="abAB", min_size=1, max_size=3),
        st.frozensets(st.sampled_from([*LABEL_POOL[:4], "Joy", "JOY"]), min_size=1, max_size=3),
    ),
    max_size=8,
)


def union_of_entries(word, exact, prefixes):
    """Every entry as a lexicon of its own, and the union of their lookups."""
    found = set()
    for name, labels in exact:
        found |= naive_lookup(word, {name.lower(): {l.lower() for l in labels}}, ())
    for name, labels in prefixes:
        found |= naive_lookup(word, {}, [(name.lower(), {l.lower() for l in labels})])
    return found


class TestEntryPairProperties:
    @given(
        exact=entry_pairs,
        prefixes=entry_pairs,
        form=st.sampled_from(["pairs", "mapping", "merge"]),
        cut=st.integers(0, 8),
        extra=st.lists(st.text(alphabet="abABx", max_size=5), max_size=4),
    )
    def test_every_lookup_is_the_union_of_its_entries(self, exact, prefixes, form, cut, extra):
        """Repeated and case-variant names union their labels, whether the
        entries come as pairs, as a mapping or through merge_lexicons."""
        if form == "mapping":
            exact = list(dict(exact).items())  # case variants remain
            lex = Lexicon("rand", dict(exact), prefixes)
        elif form == "merge":
            parts = [(exact[:cut], prefixes[:cut]), (exact[cut:], prefixes[cut:])]
            lex = merge_lexicons([Lexicon(f"part{i}", e, p) for i, (e, p) in enumerate(parts)])
        else:
            lex = Lexicon("rand", exact, prefixes)
        names = [name for name, _ in exact + prefixes]
        for word in names + [name + "x" for name in names] + extra:
            assert lex.lookup(word) == union_of_entries(word, exact, prefixes)


# Names without tab, newline or carriage return.  Those with whitespace at
# either end, or ending in the LIWC wildcard, do not survive every layout.
any_names = st.text(st.sampled_from("abAB%*é ß\u00a0\u2028"), min_size=1, max_size=5)
entry_names = any_names.filter(lambda name: name == name.strip() and not name.endswith("*"))
label_sets = st.frozensets(entry_names, min_size=1, max_size=3)
blank_lines = st.sampled_from(["", " ", "\t", " \t ", "\x0c"])


@st.composite
def layout_lines(draw, rows: list[str]) -> str:
    """Join rows with LF or CRLF, with blank or whitespace-only lines between."""
    lines = []
    for row in rows:
        lines.extend(draw(st.lists(blank_lines, max_size=2)))
        lines.append(row)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines)


class TestRoundTripProperties:
    @example(data=None, exact={"go*": {"a"}}, prefixes=[])
    @example(data=None, exact={" sp": {"b"}}, prefixes=[("sp", {" joy"})])
    @given(
        data=st.data(),
        exact=st.dictionaries(entry_names, label_sets, max_size=6),
        prefixes=st.lists(st.tuples(entry_names, label_sets), max_size=4),
    )
    def test_emit_liwc_then_load_keeps_every_lookup(self, data, exact, prefixes):
        """A lexicon the LIWC layout can hold reloads with the same lookups;
        any other raises ValueError naming an entry it cannot hold."""
        if data is not None and data.draw(st.booleans()):
            any_labels = st.frozensets(any_names, min_size=1, max_size=3)
            exact = {**exact, **data.draw(st.dictionaries(any_names, any_labels, max_size=2))}
            prefixes = prefixes + data.draw(st.lists(st.tuples(any_names, any_labels), max_size=2))
        original = Lexicon("rand", exact, tuple(prefixes))
        names = [*original.exact_entries, *(p for p, _ in original.prefix_entries)]
        names += [label for _, labels in original.prefix_entries for label in labels]
        names += [label for labels in original.exact_entries.values() for label in labels]
        unrepresentable = [name for name in names if name != name.strip()]
        unrepresentable += [word for word in original.exact_entries if word.endswith("*")]
        if unrepresentable:
            with pytest.raises(ValueError) as error:
                emit_liwc(original)
            assert any(repr(name) in str(error.value) for name in unrepresentable)
            return
        reloaded = load_liwc(io.StringIO(emit_liwc(original)))
        probes = [*original.exact_entries, *(p for p, _ in original.prefix_entries)]
        for word in probes + [word + "x" for word in probes] + ["x"]:
            assert reloaded.lookup(word) == original.lookup(word)

    @given(data=st.data(), entries=st.dictionaries(entry_names, label_sets, max_size=6))
    def test_nrc_survives_crlf_tabs_and_blank_lines(self, data, entries):
        rows = [
            f"{word}\t{label}\t1" for word, labels in entries.items() for label in labels
        ]
        rows += [f"{word}\tskipped\t0" for word in entries]
        text = data.draw(layout_lines(rows))
        expected = Lexicon("nrc", entries).exact_entries
        assert load_nrc(io.StringIO(text)).exact_entries == expected

    @given(data=st.data(), entries=st.dictionaries(entry_names, label_sets, max_size=6))
    def test_plain_survives_crlf_tabs_and_blank_lines(self, data, entries):
        rows = [
            f" {word} \t{label}" for word, labels in entries.items() for label in labels
        ]
        text = data.draw(layout_lines(rows))
        expected = Lexicon("plain", entries).exact_entries
        assert load_plain(io.StringIO(text)).exact_entries == expected
