from __future__ import annotations

import io
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lex2vec import (
    DimensionMismatchError,
    EmbeddingFormat,
    EmbeddingTable,
    EmptyInputError,
    MalformedLineError,
    NonFiniteValueError,
    NormalizedEmbeddingTable,
    detect_format,
    emit_embeddings,
    normalize,
    parse_embeddings,
    read_embeddings,
)
from lex2vec import embeddings
from lex2vec.errors import LineError

GLOVE_TWO_LINES = "good 1.0 0.0\nbad -1.0 0.5\n"
W2V_TWO_LINES = "2 2\ngood 1.0 0.0\nbad -1.0 0.5\n"
HUGE = "1" * 5000  # more digits than int() converts


class TestDetectFormat:
    def test_two_integer_header_is_word2vec(self):
        assert detect_format("71290 200") is EmbeddingFormat.WORD2VEC_TEXT

    def test_word_line_is_glove(self):
        assert detect_format("the 0.12 -0.34 0.56") is EmbeddingFormat.GLOVE_TEXT

    def test_non_integer_second_token_is_glove(self):
        assert detect_format("42 0.5") is EmbeddingFormat.GLOVE_TEXT

    def test_zero_is_not_a_positive_count(self):
        assert detect_format("0 5") is EmbeddingFormat.GLOVE_TEXT

    def test_three_tokens_is_glove(self):
        assert detect_format("1 2 3") is EmbeddingFormat.GLOVE_TEXT

    def test_counts_of_any_length(self):
        # int() refuses more than 4,300 digits; the header grammar needs none.
        assert detect_format("1" * 5000 + " 2") is EmbeddingFormat.WORD2VEC_TEXT
        assert detect_format("0" * 5000 + " 2") is EmbeddingFormat.GLOVE_TEXT
        assert detect_format("2 00" + "0" * 5000 + "7") is EmbeddingFormat.WORD2VEC_TEXT


class TestParse:
    def test_glove_two_lines(self):
        table = parse_embeddings(io.StringIO(GLOVE_TWO_LINES), EmbeddingFormat.GLOVE_TEXT)
        assert table.vocabulary == ("good", "bad")
        assert table.dim_count == 2
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.0], [-1.0, 0.5]])

    def test_word2vec_header_consumed(self):
        table = parse_embeddings(io.StringIO(W2V_TWO_LINES), EmbeddingFormat.WORD2VEC_TEXT)
        assert table.vocabulary == ("good", "bad")
        assert table.dim_count == 2
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.0], [-1.0, 0.5]])

    def test_auto_detection_on_both_layouts(self):
        glove = parse_embeddings(io.StringIO(GLOVE_TWO_LINES))
        w2v = parse_embeddings(io.StringIO(W2V_TWO_LINES))
        assert glove.vocabulary == w2v.vocabulary
        np.testing.assert_array_equal(glove.vectors, w2v.vectors)

    def test_short_line_reports_line_number(self):
        with pytest.raises(MalformedLineError) as excinfo:
            parse_embeddings(io.StringIO("good 1.0 0.0\nbad -1.0\n"))
        assert excinfo.value.line_number == 2
        assert "line 2" in str(excinfo.value)

    def test_unparseable_number_reports_line_number(self):
        with pytest.raises(MalformedLineError) as excinfo:
            parse_embeddings(io.StringIO("good 1.0\nbad oops\n"))
        assert excinfo.value.line_number == 2

    def test_header_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            parse_embeddings(io.StringIO("2 3\ngood 1.0 0.0\nbad -1.0 0.5\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            (GLOVE_TWO_LINES, "line 1: expected Word2Vec header '<vocab_size> <dim_count>'"),
            # A UTF-8 fault is named before the header grammar.
            ("2\udcff 2\ngood 1.0 0.0\n", "line 1: invalid UTF-8 (invalid start byte)"),
        ],
        ids=["glove-line", "escaped-byte"],
    )
    def test_invalid_header_when_format_forced(self, text, message):
        with pytest.raises(MalformedLineError) as excinfo:
            parse_embeddings(io.StringIO(text), EmbeddingFormat.WORD2VEC_TEXT)
        assert (str(excinfo.value), excinfo.value.line_number) == (message, 1)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_embeddings(io.StringIO(""))

    def test_header_only_word2vec_is_empty(self):
        with pytest.raises(EmptyInputError):
            parse_embeddings(io.StringIO("5 3\n"), EmbeddingFormat.WORD2VEC_TEXT)

    def test_duplicate_words_first_wins(self):
        text = "good 1.0\nbad 2.0\ngood 9.0\n"
        table = parse_embeddings(io.StringIO(text))
        assert table.vocabulary == ("good", "bad")
        assert table.vectors[0, 0] == 1.0
        assert table.duplicates_skipped == 1

    def test_blank_lines_skipped(self):
        table = parse_embeddings(io.StringIO("good 1.0 0.0\n\nbad -1.0 0.5\n\n"))
        assert table.vocabulary == ("good", "bad")

    def test_tabs_and_space_runs_accepted(self):
        table = parse_embeddings(io.StringIO("good\t1.0\t0.0\nbad  -1.0   0.5  \n"))
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.0], [-1.0, 0.5]])

    def test_scientific_notation(self):
        table = parse_embeddings(io.StringIO("w 1e-3 -2.5E2\n"))
        np.testing.assert_array_equal(table.vectors, [[0.001, -250.0]])

    def test_word_only_line_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_embeddings(io.StringIO("lonely\n"))

    @pytest.mark.parametrize("token", ["1_0", "\uff11", "\u0663", "4.0#5"])
    def test_number_grammar_is_ascii_decimal(self, token):
        # float() accepts the first three ('1_0' as 10); '#' must not start a comment.
        with pytest.raises(MalformedLineError) as excinfo:
            parse_embeddings(io.StringIO(f"good 1.0 2.0\nbad 3.0 {token}\n"))
        assert excinfo.value.line_number == 2
        assert f"unparseable number {token!r}" in str(excinfo.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_value_names_line(self, token):
        with pytest.raises(NonFiniteValueError) as excinfo:
            parse_embeddings(io.StringIO(f"good 1.0 2.0\nbad 3.0 {token}\n"))
        assert isinstance(excinfo.value, LineError)
        assert excinfo.value.line_number == 2
        assert repr(token) in str(excinfo.value)

    def test_header_vocab_size_must_match_data_lines(self):
        with pytest.raises(DimensionMismatchError) as excinfo:
            parse_embeddings(io.StringIO("5 2\ngood 1.0 0.0\nbad -1.0 0.5\n"))
        assert excinfo.value.line_number == 1
        assert "5 words" in str(excinfo.value)

    @pytest.mark.parametrize(
        "header, line_number, message",
        [
            (HUGE + " 2", 1, f"header declares {HUGE} words but 2 data lines follow"),
            ("2 " + HUGE, 2, f"header declares {HUGE} dimensions but data has 2"),
            ("0002 002", None, None),
        ],
        ids=["huge-vocab-size", "huge-dim-count", "leading-zeros"],
    )
    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_header_counts_of_any_length(self, tmp_path, source, header, line_number, message):
        text = f"{header}\ngood 1.0 0.0\nbad -1.0 0.5\n"
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")

        def parse():
            if source == "path":
                return read_embeddings(path)
            return parse_embeddings(io.StringIO(text))

        if message is None:
            assert parse().vocabulary == ("good", "bad")
            return
        with pytest.raises(DimensionMismatchError) as excinfo:
            parse()
        assert excinfo.value.line_number == line_number
        assert str(excinfo.value) == f"line {line_number}: {message}"

    def test_header_vocab_size_counts_duplicates(self):
        table = parse_embeddings(io.StringIO("3 1\na 1.0\nb 2.0\na 3.0\n"))
        assert table.vocabulary == ("a", "b")
        assert table.duplicates_skipped == 1

    def test_utf8_bom_before_word2vec_header(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("\ufeff" + W2V_TWO_LINES, encoding="utf-8")
        table = read_embeddings(path)
        assert table.vocabulary == ("good", "bad")
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.0], [-1.0, 0.5]])

    @pytest.mark.parametrize("text", ["\ufeff" + W2V_TWO_LINES, "\ufeff\n" + W2V_TWO_LINES])
    def test_utf8_bom_at_start_of_text_stream(self, text):
        table = parse_embeddings(io.StringIO(text))
        assert table.vocabulary == ("good", "bad")
        np.testing.assert_array_equal(table.vectors, [[1.0, 0.0], [-1.0, 0.5]])

    def test_bom_after_first_line_is_part_of_the_word(self):
        table = parse_embeddings(io.StringIO("good 1.0 0.0\n\ufeffbad -1.0 0.5\n"))
        assert table.vocabulary == ("good", "\ufeffbad")

    def test_crlf_tabs_and_leading_whitespace(self):
        text = "  good\t1.0\t0.0\r\n\tbad  -1.0 0.5 \r\n ugly\xa01.5\u30002.5\r\nodd 3.0\r4.0\n"
        table = parse_embeddings(io.StringIO(text))
        assert table.vocabulary == ("good", "bad", "ugly", "odd")
        np.testing.assert_array_equal(
            table.vectors, [[1.0, 0.0], [-1.0, 0.5], [1.5, 2.5], [3.0, 4.0]]
        )

    def test_path_splits_lines_like_stdin(self, tmp_path):
        data = b"a 1.0 2.0\r\nodd 3.0\r4.0\n"
        path = tmp_path / "cr.txt"
        path.write_bytes(data)
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
        from_path, from_stdin = read_embeddings(path), parse_embeddings(stdin)
        assert from_path.vocabulary == from_stdin.vocabulary == ("a", "odd")
        np.testing.assert_array_equal(from_path.vectors, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(from_path.vectors, from_stdin.vectors)

    def test_parsed_vectors_are_read_only(self):
        table = parse_embeddings(io.StringIO(GLOVE_TWO_LINES))
        assert not table.vectors.flags.writeable


def numbered_lines(count: int) -> list[str]:
    return [f"w{i} {i}.5 -{i}.25\n" for i in range(count)]


class TestChunkedParse:
    """Inputs that span the parser's 1,024-line chunks (4,096 is a chunk edge)."""

    @pytest.mark.parametrize("line_number", [4096, 4097])
    @pytest.mark.parametrize(
        "bad_line, error, message",
        [
            ("bad 1.0 oops\n", MalformedLineError, "unparseable number 'oops'"),
            ("bad 1.0\n", MalformedLineError, "expected 2 values, found 1"),
            ("bad\n", MalformedLineError, "expected 2 values, found 0"),
            ("bad 1.0 -inf\n", NonFiniteValueError, "non-finite value '-inf'"),
            # "surrogateescape" decodes the byte 0xFF to U+DCFF.
            ("b\udcffad 1.0 2.0\n", MalformedLineError, "invalid UTF-8 (invalid start byte)"),
            ("bad 1.\udcff0 2.0\n", MalformedLineError, "invalid UTF-8 (invalid start byte)"),
        ],
    )
    def test_bad_line_at_chunk_edge(self, line_number, bad_line, error, message):
        lines = numbered_lines(5000)
        lines[line_number - 1] = bad_line
        with pytest.raises(error) as excinfo:
            parse_embeddings(io.StringIO("".join(lines)))
        assert excinfo.value.line_number == line_number
        assert str(excinfo.value) == f"line {line_number}: {message}"

    def test_first_bad_line_in_chunk_wins(self):
        lines = numbered_lines(5000)
        lines[3999] = "late 1.0 oops\n"
        lines[9] = "early 1.0\n"
        with pytest.raises(MalformedLineError) as excinfo:
            parse_embeddings(io.StringIO("".join(lines)))
        assert excinfo.value.line_number == 10

    def test_first_bad_line_wins_over_a_later_escaped_byte(self):
        lines = numbered_lines(5000)
        lines[3999] = "la\udcffte 1.0 2.0\n"
        lines[9] = "early 1.0\n"
        with pytest.raises(MalformedLineError, match="^line 10: expected 2 values, found 1$"):
            parse_embeddings(io.StringIO("".join(lines)))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\udcff 2\ngood 1.0 0.0\n", "line 1: invalid UTF-8 (invalid start byte)"),
            ("g\udcffood 1.0 0.0\n", "line 1: invalid UTF-8 (invalid start byte)"),
            ("2 1\ngo\udce2 1.0\nbad 1.0\n", "line 2: invalid UTF-8 (invalid continuation byte)"),
            # Escaped bytes that form valid UTF-8 can only come from a str source.
            ("\udcc3\udca9 1.0\n", "line 1: invalid UTF-8 (surrogates not allowed)"),
        ],
    )
    def test_escaped_byte_checked_before_header_and_first_line(self, text, message):
        with pytest.raises(MalformedLineError, match=f"^{re.escape(message)}$"):
            parse_embeddings(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, line_number",
        [
            ("w\ud800 1.0\n", 1),
            ("good 1.0\nw\udc7f 1.0\n", 2),
            ("good 1.0\nw 1.0\udd00\n", 2),
            ("good 1.0\nw 1.0 \udfff\n", 2),
        ],
        ids=["word-first-line", "word", "value", "token"],
    )
    def test_a_lone_surrogate_is_an_error_of_its_line(self, text, line_number):
        # Only U+DC80 to U+DCFF come from decoding a byte; no surrogate has UTF-8.
        message = f"^line {line_number}: invalid UTF-8 \\(surrogates not allowed\\)$"
        with pytest.raises(MalformedLineError, match=message):
            parse_embeddings(io.StringIO(text))

    def test_duplicate_of_word_from_earlier_chunk(self):
        lines = numbered_lines(9000)
        lines[5000] = "w3 99.0 99.0\n"
        table = parse_embeddings(io.StringIO("".join(lines)))
        assert table.duplicates_skipped == 1
        assert table.word_count == 8999
        assert "w5000" not in table.vocabulary
        expected = parse_embeddings(io.StringIO("".join(lines[:5000] + lines[5001:])))
        assert table.vocabulary == expected.vocabulary
        np.testing.assert_array_equal(table.vectors, expected.vectors)
        assert table.vectors[3].tolist() == [3.5, -3.25]

    def test_blank_lines_keep_line_numbers(self):
        lines = numbered_lines(6000)
        for index in (5500, 4000, 100, 0):
            lines.insert(index, "\n" if index % 2 else " \t\n")
        clean = parse_embeddings(io.StringIO("".join(lines)))
        np.testing.assert_array_equal(clean.vectors, parse_embeddings(numbered_lines(6000)).vectors)
        lines[5100] = "bad 1.0 oops\n"
        with pytest.raises(MalformedLineError) as excinfo:
            parse_embeddings(io.StringIO("".join(lines)))
        assert excinfo.value.line_number == 5101

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_a_later_chunk_of_the_wrong_width_names_its_first_line(self, tmp_path, source):
        # One value per line parses as a one-column block, which would broadcast into the buffer.
        chunk = embeddings._CHUNK_LINES
        data = "".join(numbered_lines(chunk) + [f"v{i} {i}.5\n" for i in range(chunk)]).encode()
        path = tmp_path / "narrow.txt"
        path.write_bytes(data)
        with pytest.raises(MalformedLineError) as excinfo:
            if source == "path":
                read_embeddings(path)
            else:
                parse_embeddings(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"))
        assert str(excinfo.value) == f"line {chunk + 1}: expected 2 values, found 1"
        assert excinfo.value.line_number == chunk + 1

    def test_well_formed_chunks_take_the_block_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a well-formed chunk was parsed line by line")

        monkeypatch.setattr(embeddings, "_parse_line", refuse)
        table = parse_embeddings(numbered_lines(2 * embeddings._CHUNK_LINES))
        assert table.vectors.shape == (2 * embeddings._CHUNK_LINES, 2)
        assert table.vectors[-1].tolist() == [2047.5, -2047.25]

    def test_exact_round_trip_across_chunks(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(9000, 4)) * 10.0 ** rng.integers(-300, 300, size=(9000, 4))
        raw[0, :3] = [5e-324, -0.0, 2.2250738585072014e-308]
        table = EmbeddingTable(tuple(f"w{i}" for i in range(9000)), raw)
        text = emit_embeddings(table, EmbeddingFormat.WORD2VEC_TEXT)
        back = parse_embeddings(io.StringIO(text))
        assert back.vocabulary == table.vocabulary
        assert back.vectors.view(np.int64).tolist() == table.vectors.view(np.int64).tolist()


def padded_lines(count: int, start: int, digits: int) -> list[str]:
    # The values of numbered_lines, written with `digits` trailing zeros.
    zeros = "0" * digits
    return [f"w{i} {i}.5{zeros} -{i}.25{zeros}\n" for i in range(start, start + count)]


class TestSizedBuffer:
    """read_embeddings sizes its buffer from the file; the result equals parse_embeddings."""

    @pytest.fixture
    def allocated(self, monkeypatch):
        rows = []
        original = embeddings._buffer_rows

        def spy(*args):
            rows.append(original(*args))
            return rows[-1]

        monkeypatch.setattr(embeddings, "_buffer_rows", spy)
        return rows

    def assert_same_as_parsed(self, table, lines):
        expected = parse_embeddings(lines)
        assert table.vocabulary == expected.vocabulary
        assert table.vectors.view(np.int64).tolist() == expected.vectors.view(np.int64).tolist()
        assert table.duplicates_skipped == expected.duplicates_skipped == 1
        assert table.vectors.shape == (len(lines) - 1, 2)
        assert not table.vectors.flags.writeable

    def with_duplicate(self, lines):
        lines[-5] = "w3 99.0 99.0\n"
        return lines

    def test_estimate_runs_out_and_doubling_takes_over(self, tmp_path, allocated):
        chunk = embeddings._CHUNK_LINES
        lines = self.with_duplicate(padded_lines(chunk, 0, 60) + padded_lines(3 * chunk, chunk, 0))
        path = tmp_path / "long_then_short.txt"
        path.write_text("".join(lines), encoding="utf-8")
        table = read_embeddings(path)
        assert allocated[0] < table.word_count
        self.assert_same_as_parsed(table, lines)

    def test_estimate_too_large_is_trimmed(self, tmp_path, allocated):
        chunk = embeddings._CHUNK_LINES
        lines = self.with_duplicate(padded_lines(chunk, 0, 0) + padded_lines(2 * chunk, chunk, 60))
        path = tmp_path / "short_then_long.txt"
        path.write_text("".join(lines), encoding="utf-8")
        table = read_embeddings(path)
        assert allocated[0] > 2 * table.word_count
        self.assert_same_as_parsed(table, lines)

    def test_pipe_without_size_grows_by_doubling(self, allocated):
        lines = self.with_duplicate(padded_lines(3 * embeddings._CHUNK_LINES + 7, 0, 3))
        read_end, write_end = os.pipe()

        def feed():
            with open(write_end, "w", encoding="utf-8") as stream:
                stream.write("".join(lines))

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            table = read_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)  # a writer still blocked on a full pipe then fails
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert allocated == [embeddings._CHUNK_LINES]
        self.assert_same_as_parsed(table, lines)


class TestTableValidation:
    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(("a", "a"), [[1.0], [2.0]])

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable((), np.zeros((0, 3)))

    def test_str_vocabulary_rejected(self):
        # A str would iterate as one-character words.
        with pytest.raises(TypeError, match="not a str"):
            EmbeddingTable("ab", [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "vocabulary, message",
        [
            ((1, "a"), "word 1 must be a str, not int"),
            (("a", b"b", 2), "word b'b' must be a str, not bytes"),
            # A type fault is named before a duplicate.
            ((1, 1), "word 1 must be a str, not int"),
        ],
        ids=["int", "bytes-first", "int-duplicate"],
    )
    def test_a_word_that_is_not_a_str_is_named(self, vocabulary, message):
        vectors = [[0.1]] * len(vocabulary)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            EmbeddingTable(vocabulary, vectors)

    def test_whitespace_word_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(("a b",), [[1.0]])

    @pytest.mark.parametrize("word", ["", "a\x1cb", "a\u3000b", "a\xa0b"])
    def test_empty_or_unicode_whitespace_word_rejected(self, word):
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            EmbeddingTable(("ok", word), [[1.0], [2.0]])

    def test_read_only_float64_vectors_not_copied(self):
        vectors = np.ones((2, 3))
        vectors.setflags(write=False)
        assert EmbeddingTable(("a", "b"), vectors).vectors is vectors

    def test_writeable_or_other_dtype_vectors_copied(self):
        writeable = np.ones((2, 3))
        table = EmbeddingTable(("a", "b"), writeable)
        writeable[0, 0] = 5.0
        assert table.vectors[0, 0] == 1.0
        assert not table.vectors.flags.writeable
        narrow = np.ones((2, 3), dtype=np.float32)
        narrow.setflags(write=False)
        assert EmbeddingTable(("a", "b"), narrow).vectors.dtype == np.float64

    @pytest.mark.parametrize(
        "vectors, message",
        [(np.ones(1), "2-D matrix, got ndim=1"), (np.ones((1, 0)), "at least one dimension")],
    )
    def test_vectors_must_be_a_matrix_with_columns(self, vectors, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(("a",), vectors)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(("a",), [[1.0], [2.0]])

    def test_vectors_are_read_only(self):
        table = EmbeddingTable(("a",), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 5.0

    def test_normalized_table_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NormalizedEmbeddingTable(("a",), [[1.5]])

    @pytest.mark.parametrize("value", [-1e-300, 1.0000000000000002])
    def test_normalized_table_rejects_just_out_of_range(self, value):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            NormalizedEmbeddingTable(("a", "b"), [[0.5, 1.0], [0.0, value]])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_normalized_table_rejects_non_finite(self, value):
        with pytest.raises(NonFiniteValueError):
            NormalizedEmbeddingTable(("a", "b"), [[0.5, 1.0], [0.0, value]])


class TestNormalize:
    def test_symmetric_dimension(self):
        table = EmbeddingTable(("a", "b", "c"), [[-2.0], [0.0], [2.0]])
        normed = normalize(table)
        np.testing.assert_array_equal(normed.vectors, [[0.0], [0.5], [1.0]])

    def test_constant_dimension_maps_to_half(self):
        table = EmbeddingTable(("a", "b", "c"), [[3.0], [3.0], [3.0]])
        normed = normalize(table)
        np.testing.assert_array_equal(normed.vectors, [[0.5], [0.5], [0.5]])

    def test_spanning_input_unchanged(self):
        table = EmbeddingTable(("a", "b", "c"), [[0.0], [0.25], [1.0]])
        normed = normalize(table)
        np.testing.assert_array_equal(normed.vectors, [[0.0], [0.25], [1.0]])

    def test_nan_rejected(self):
        table = EmbeddingTable(("a", "b"), [[1.0], [math.nan]])
        with pytest.raises(NonFiniteValueError):
            normalize(table)

    @pytest.mark.parametrize("scope", ["dimension", "word", "global"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinity_rejected(self, scope, value):
        # Only one extreme of each group is infinite, and no value is NaN.
        table = EmbeddingTable(("a", "b"), [[1.0, 2.0], [value, 3.0]])
        message = "^cannot normalize a table with NaN or infinite values$"
        with pytest.raises(NonFiniteValueError, match=message):
            normalize(table, scope=scope)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scope, vectors, expected",
        [
            ("dimension", [[1.7e308, 0.1], [-1.7e308, 0.9], [0.0, 0.5]],
             [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
            ("word", [[1.7e308, -1.7e308, 0.0], [0.1, 0.9, 0.5]],
             [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]),
            ("global", [[1.7e308, 0.1], [-1.7e308, 0.9], [0.0, 0.5]],
             [[1.0, 0.5], [0.0, 0.5], [0.5, 0.5]]),
        ],
        ids=["dimension", "word", "global"],
    )
    def test_a_finite_range_that_overflows_float64_rescales(self, scope, vectors, expected):
        table = EmbeddingTable(tuple("abc"[: len(vectors)]), vectors)
        normed = normalize(table, scope=scope)
        np.testing.assert_array_equal(normed.vectors, expected)

    def test_word_scope_scales_rows(self):
        table = EmbeddingTable(("a", "b"), [[0.0, 10.0], [5.0, 5.0]])
        normed = normalize(table, scope="word")
        np.testing.assert_array_equal(normed.vectors, [[0.0, 1.0], [0.5, 0.5]])

    def test_global_scope_scales_whole_matrix(self):
        table = EmbeddingTable(("a", "b"), [[0.0, 10.0], [5.0, 5.0]])
        normed = normalize(table, scope="global")
        np.testing.assert_array_equal(normed.vectors, [[0.0, 1.0], [0.5, 0.5]])
        table2 = EmbeddingTable(("a", "b"), [[0.0, 4.0], [8.0, 4.0]])
        normed2 = normalize(table2, scope="global")
        np.testing.assert_array_equal(normed2.vectors, [[0.0, 0.5], [1.0, 0.5]])

    def test_unknown_scope_rejected(self):
        table = EmbeddingTable(("a",), [[1.0]])
        with pytest.raises(ValueError):
            normalize(table, scope="columnish")

    def test_degenerate_band_exclusion(self):
        # 0.5 sits outside both bands for any valid theta, so constant
        # dimensions can never be labeled.
        table = EmbeddingTable(("a", "b"), [[7.0], [7.0]])
        normed = normalize(table)
        assert float(normed.vectors[0, 0]) == 0.5


finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def raw_tables(draw):
    n_words = draw(st.integers(min_value=1, max_value=8))
    n_dims = draw(st.integers(min_value=1, max_value=5))
    words = draw(
        st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=6),
            min_size=n_words,
            max_size=n_words,
            unique=True,
        )
    )
    rows = draw(
        st.lists(
            st.lists(finite_floats, min_size=n_dims, max_size=n_dims),
            min_size=n_words,
            max_size=n_words,
        )
    )
    return EmbeddingTable(tuple(words), np.array(rows, dtype=np.float64))


class TestNormalizeProperties:
    @given(table=raw_tables())
    def test_range(self, table):
        """Every normalized value lies in [0, 1]."""
        normed = normalize(table)
        assert (normed.vectors >= 0.0).all()
        assert (normed.vectors <= 1.0).all()

    @given(table=raw_tables())
    def test_extremes_hit_exactly(self, table):
        """Non-degenerate dimensions attain exactly 0 and exactly 1."""
        normed = normalize(table)
        raw = table.vectors
        for j in range(table.dim_count):
            if raw[:, j].min() != raw[:, j].max():
                assert normed.vectors[:, j].min() == 0.0
                assert normed.vectors[:, j].max() == 1.0

    @pytest.mark.parametrize("scope, axis", [("dimension", 0), ("word", 1), ("global", None)])
    @given(table=raw_tables())
    def test_matches_reference_formula(self, scope, axis, table):
        """Exactly the values of the plain three-temporary formula."""
        raw = table.vectors
        lo = raw.min(axis=axis, keepdims=True)
        span = raw.max(axis=axis, keepdims=True) - lo
        expected = np.where(span == 0.0, 0.5, (raw - lo) / np.where(span == 0.0, 1.0, span))
        before = raw.view(np.int64).tolist()
        normed = normalize(table, scope=scope)
        assert normed.vectors.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert not normed.vectors.flags.writeable
        # The public normalize returns a new array and leaves its input alone.
        assert not np.shares_memory(normed.vectors, raw)
        assert raw.view(np.int64).tolist() == before

        # The CLI path has the parser rescale its own buffer, to the same bits.
        in_place = parse_embeddings(io.StringIO(emit_embeddings(table)), _scope=scope)
        assert isinstance(in_place, NormalizedEmbeddingTable)
        assert in_place.vectors.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert not in_place.vectors.flags.writeable

    @given(table=raw_tables())
    def test_idempotence(self, table):
        """Normalizing twice equals normalizing once, exactly."""
        once = normalize(table)
        twice = normalize(once)
        np.testing.assert_array_equal(once.vectors, twice.vectors)

    @given(table=raw_tables())
    def test_order_preserved(self, table):
        """Raw ordering survives within each dimension."""
        normed = normalize(table)
        raw = table.vectors
        for j in range(table.dim_count):
            order = np.argsort(raw[:, j], kind="stable")
            sorted_norm = normed.vectors[order, j]
            assert (np.diff(sorted_norm) >= 0.0).all()


class TestEmitRoundTrip:
    def test_exact_round_trip_glove(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable(
            tuple(f"w{i}" for i in range(20)), rng.normal(size=(20, 5))
        )
        text = emit_embeddings(table, EmbeddingFormat.GLOVE_TEXT)
        back = parse_embeddings(io.StringIO(text), EmbeddingFormat.GLOVE_TEXT)
        assert back.vocabulary == table.vocabulary
        np.testing.assert_array_equal(back.vectors, table.vectors)

    def test_exact_round_trip_word2vec(self):
        rng = np.random.default_rng(8)
        table = EmbeddingTable(
            tuple(f"w{i}" for i in range(10)), rng.normal(size=(10, 3))
        )
        text = emit_embeddings(table, EmbeddingFormat.WORD2VEC_TEXT)
        assert text.splitlines()[0] == "10 3"
        back = parse_embeddings(io.StringIO(text))
        assert back.vocabulary == table.vocabulary
        np.testing.assert_array_equal(back.vectors, table.vectors)

    def test_fixed_precision_round_trip(self):
        rng = np.random.default_rng(9)
        table = EmbeddingTable(
            tuple(f"w{i}" for i in range(10)), rng.normal(size=(10, 4))
        )
        text = emit_embeddings(table, EmbeddingFormat.GLOVE_TEXT, precision=6)
        back = parse_embeddings(io.StringIO(text))
        np.testing.assert_allclose(back.vectors, table.vectors, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_emit_refuses_a_value_the_parser_would_refuse(self, value):
        # Rows 1 and 2 hold the value; the first of them is named.
        table = EmbeddingTable(("a", "b", "c"), [[0.0, 1.0], [value, 1.0], [2.0, value]])
        with pytest.raises(NonFiniteValueError, match="^word 'b' has a NaN or infinite value$"):
            emit_embeddings(table)

    def test_emit_requires_concrete_format(self):
        table = EmbeddingTable(("a",), [[1.0]])
        with pytest.raises(ValueError):
            emit_embeddings(table, EmbeddingFormat.AUTO)

    def test_file_round_trip(self, tmp_path):
        table = EmbeddingTable(("alpha", "beta"), [[0.5, -1.25], [3.0, 2.0]])
        path = tmp_path / "vectors.txt"
        path.write_text(emit_embeddings(table, EmbeddingFormat.WORD2VEC_TEXT), encoding="utf-8")
        back = read_embeddings(path)
        assert back.vocabulary == table.vocabulary
        np.testing.assert_array_equal(back.vectors, table.vectors)

    def test_non_ascii_words_round_trip(self, tmp_path):
        table = EmbeddingTable(("naïve", "café", "日本語"), [[1.0], [2.0], [3.0]])
        path = tmp_path / "unicode.txt"
        path.write_text(emit_embeddings(table, EmbeddingFormat.GLOVE_TEXT), encoding="utf-8")
        back = read_embeddings(path)
        assert back.vocabulary == table.vocabulary
