from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lex2vec import (
    DimensionLabeling,
    Lexicon,
    NormalizedEmbeddingTable,
    SweepReport,
    SweepRow,
    Theta,
    cap_labels,
    coverage,
    label_dimensions,
)
from lex2vec.report import (
    SWEEP_TSV_HEADER,
    dimension_name,
    dumps_document,
    format_percent,
    format_theta,
    labeling_from_document,
    labeling_to_document,
    render_labeling_json,
    render_labeling_tsv,
    render_sweep_tsv,
    report_from_document,
    report_to_document,
)

from helpers import VALUE_PALETTE, brute_force_labeling


class TestDimensionName:
    def test_count_then_alphabetical_order(self):
        assert dimension_name({"b": 1, "a": 1, "c": 5}) == "c+a+b"

    def test_empty_is_unnamed(self):
        assert dimension_name({}) == "UNNAMED"


class TestLabelingTsv:
    def test_toy_example_lines(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        assert render_labeling_tsv(labeling) == (
            "0\tnegemo+posemo\tnegemo:1,posemo:1\n"
            "1\tposemo\tposemo:1\n"
        )

    def test_unnamed_dimensions_render_marker_and_empty_pairs(self):
        labeling = DimensionLabeling(({}, {}), Theta(0.75), "demo")
        assert render_labeling_tsv(labeling) == "0\tUNNAMED\t\n1\tUNNAMED\t\n"

    def test_deterministic_across_dict_orders(self):
        first = DimensionLabeling(({"a": 1, "b": 2},), Theta(0.75), "demo")
        second = DimensionLabeling(({"b": 2, "a": 1},), Theta(0.75), "demo")
        assert render_labeling_tsv(first) == render_labeling_tsv(second)


class TestSweepTsv:
    def test_single_row_rendering(self):
        report = SweepReport((SweepRow(0.75, "liwc", 0.178, 106.5, None),))
        assert render_sweep_tsv(report) == (
            SWEEP_TSV_HEADER + "\n" + "0.75\tliwc\t17.8%\t106.5\n"
        )

    def test_named_mode_renders_placeholder_when_undefined(self):
        report = SweepReport((SweepRow(1.0, "nrc", 1.0, 0.0, None),))
        text = render_sweep_tsv(report, avg_mode="named")
        assert text.splitlines()[1] == "1\tnrc\t100.0%\tn/a"

    def test_unknown_avg_mode_rejected_as_by_the_average(self):
        report = SweepReport((SweepRow(0.75, "liwc", 0.178, 106.5, None),))
        with pytest.raises(ValueError, match="mode must be 'all' or 'named', got 'bogus'"):
            render_sweep_tsv(report, avg_mode="bogus")

    def test_distinct_thetas_render_as_distinct_text(self):
        # format(theta, "g") keeps six significant digits: both would read 0.7.
        rows = tuple(SweepRow(t, "nrc", 0.5, 1.0, 2.0) for t in (0.7000002, 0.7000001))
        lines = render_sweep_tsv(SweepReport(rows)).splitlines()
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.7000002", "0.7000001"]

    @given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
    def test_theta_text_reads_back_as_the_same_theta(self, theta):
        text = format_theta(theta)
        assert float(text) == theta
        assert text == format(theta, "g") or text == repr(theta)

    def test_percent_formatting(self):
        assert format_percent(0.306) == "30.6%"
        assert format_percent(0.0) == "0.0%"
        assert format_percent(1.0) == "100.0%"


class TestLabelingJson:
    def test_toy_document_shape(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        doc = labeling_to_document(labeling)
        assert doc["theta"] == 0.75
        assert doc["resource"] == "demo"
        assert doc["dim_count"] == 2
        assert doc["unnamed_ratio"] == 0.0
        assert doc["avg_labels_all"] == 1.5
        assert doc["dimensions"][0]["labels"] == [
            {"label": "negemo", "count": 1},
            {"label": "posemo", "count": 1},
        ]
        assert "contributors" not in doc["dimensions"][0]

    def test_all_empty_document(self):
        labeling = DimensionLabeling(({}, {}), Theta(0.9), "demo")
        doc = labeling_to_document(labeling)
        assert doc["unnamed_ratio"] == 1.0
        assert doc["avg_labels_named"] is None
        assert all(entry["labels"] == [] for entry in doc["dimensions"])

    @pytest.mark.parametrize(
        "per_dimension",
        [({}, {}), ({"a": 3, "b": 1}, {}), ({"a": 1}, {"a": 2, "b": 2, "c": 1})],
    )
    def test_metric_fields_are_the_coverage_row(self, per_dimension):
        labeling = DimensionLabeling(per_dimension, Theta(0.8), "demo")
        doc = labeling_to_document(labeling)
        row = coverage(labeling)
        assert doc["theta"] == row.theta
        assert doc["resource"] == row.resource
        assert doc["unnamed_ratio"] == row.unnamed_ratio
        assert doc["avg_labels_all"] == row.avg_labels_all
        assert doc["avg_labels_named"] == row.avg_labels_named
        assert list(doc) == [
            "theta", "resource", "dim_count", "unnamed_ratio",
            "avg_labels_all", "avg_labels_named", "dimensions",
        ]

    def test_round_trip_without_contributors(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        doc = json.loads(dumps_document(labeling_to_document(labeling)))
        assert labeling_from_document(doc) == labeling

    def test_round_trip_with_contributors(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75, keep_contributors=True)
        doc = json.loads(dumps_document(labeling_to_document(labeling)))
        restored = labeling_from_document(doc)
        assert restored == labeling
        assert restored.contributors == labeling.contributors

    def test_from_document_rejects_an_unknown_band(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75, keep_contributors=True)
        doc = json.loads(dumps_document(labeling_to_document(labeling)))
        doc["dimensions"][0]["contributors"][0]["band"] = "sideways"
        with pytest.raises(ValueError):
            labeling_from_document(doc)


class TestReportJson:
    def test_round_trip(self):
        report = SweepReport(
            (
                SweepRow(0.81, "liwc", 0.386, 22.2, 36.15635179153094),
                SweepRow(0.75, "liwc", 0.178, 106.5, None),
            )
        )
        doc = json.loads(dumps_document(report_to_document(report)))
        assert report_from_document(doc) == report

    def test_from_document_rejects_an_unknown_row_key(self):
        report = SweepReport((SweepRow(0.75, "liwc", 0.178, 106.5, None),))
        document = report_to_document(report)
        document["rows"][0]["avg_labels_median"] = 1.0
        with pytest.raises(TypeError, match="avg_labels_median"):
            report_from_document(document)

    def test_row_field_order(self):
        report = SweepReport((SweepRow(0.75, "liwc", 0.178, 106.5, None),))
        assert report_to_document(report) == {"rows": [{
            "theta": 0.75, "resource": "liwc", "unnamed_ratio": 0.178,
            "avg_labels_all": 106.5, "avg_labels_named": None,
        }]}
        assert list(report_to_document(report)["rows"][0]) == [
            "theta", "resource", "unnamed_ratio", "avg_labels_all", "avg_labels_named",
        ]

    def test_dumps_is_deterministic(self):
        report = SweepReport((SweepRow(0.75, "liwc", 0.178, 106.5, 129.56),))
        assert dumps_document(report_to_document(report)) == dumps_document(
            report_to_document(report)
        )

    def test_dumps_rejects_nan(self):
        report = SweepReport((SweepRow(0.75, "liwc", float("nan"), 1.0, None),))
        with pytest.raises(ValueError):
            dumps_document(report_to_document(report))


json_text = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é\U0001F600a') | st.characters()
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**40, -(10**40), -1, 0])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e-310, 1.7976931348623157e308])
    | json_text
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=20,
)


def stdlib_dumps(document):
    return json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


class TestDumpsDocument:
    @given(document=st.dictionaries(json_text, json_values, max_size=5))
    def test_equals_json_dumps(self, document):
        assert dumps_document(document) == stdlib_dumps(document)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_raises_value_error(self, value):
        with pytest.raises(ValueError):
            dumps_document({"rows": [{"ok": 1.0}, {"bad": [value]}]})

    @pytest.mark.parametrize(
        "document", [{"x": object()}, {"x": [{1, 2}]}, {"x": {1: "int key"}}]
    )
    def test_unsupported_value_or_key_raises_type_error(self, document):
        with pytest.raises(TypeError):
            dumps_document(document)

    def test_scalar_subclasses_render_as_their_base_type(self):
        class Level(enum.IntEnum):
            HIGH = 1

        class Word(str):
            pass

        class Ratio(float):
            pass

        document = {"level": Level.HIGH, "words": [Word('a"b')], "ratio": Ratio(0.5)}
        assert dumps_document(document) == stdlib_dumps(document)


# Characters json.dumps escapes or keeps literally; whitespace cannot occur
# in a vocabulary word, and a tab, newline or carriage return not in a label.
ESCAPED = '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u2028é\U0001F600"
word_text = st.text(st.sampled_from([ch for ch in ESCAPED if not ch.isspace()]), min_size=1)
label_text = st.text(st.sampled_from([ch for ch in ESCAPED if ch not in "\t\n\r"]), min_size=1)


@st.composite
def labeling_cases(draw):
    """A random labeling and the document json.dumps should write for it,
    built from the brute-force oracle with this test's own ranking and
    coverage arithmetic."""
    words = draw(st.lists(word_text, min_size=1, max_size=6, unique=True))
    dims = draw(st.integers(min_value=1, max_value=4))
    matrix = draw(st.lists(
        st.lists(st.sampled_from(VALUE_PALETTE), min_size=dims, max_size=dims),
        min_size=len(words), max_size=len(words),
    ))
    labels = st.frozensets(label_text, min_size=1, max_size=3)
    exact = draw(st.dictionaries(st.sampled_from(words), labels, max_size=len(words)))
    prefixes = tuple(draw(st.dictionaries(word_text, labels, max_size=2)).items())
    theta = draw(st.sampled_from([0.6, 0.75, 0.9, 1.0]) | st.floats(0.5, 1.0, exclude_min=True))
    resource = draw(label_text)
    keep = draw(st.booleans())
    limit = draw(st.none() | st.integers(min_value=1, max_value=3))

    table = NormalizedEmbeddingTable(tuple(words), matrix)
    labeling = label_dimensions(
        table, Lexicon(resource, exact, prefixes), theta, keep_contributors=keep
    )
    if limit is not None:
        labeling = cap_labels(labeling, limit)

    counts, records = brute_force_labeling(words, matrix, exact, prefixes, theta)
    dimensions = []
    for index, dim_counts in enumerate(counts):
        ranked = sorted(dim_counts.items(), key=lambda item: (-item[1], item[0]))[:limit]
        entry = {
            "index": index,
            "name": "+".join(label for label, _ in ranked) or "UNNAMED",
            "labels": [{"label": label, "count": count} for label, count in ranked],
        }
        if keep:
            kept = {label for label, _ in ranked}
            entry["contributors"] = [
                {"word": word, "label": label, "band": band}
                for word, label, band in records[index] if label in kept
            ]
        dimensions.append(entry)
    mass = sum(item["count"] for entry in dimensions for item in entry["labels"])
    named = sum(1 for entry in dimensions if entry["labels"])
    expected = {
        "theta": theta,
        "resource": resource,
        "dim_count": dims,
        "unnamed_ratio": (dims - named) / dims,
        "avg_labels_all": mass / dims,
        "avg_labels_named": mass / named if named else None,
        "dimensions": dimensions,
    }
    return labeling, expected


class TestLabelingWriter:
    @settings(max_examples=200, deadline=None)
    @given(case=labeling_cases())
    def test_writes_json_dumps_of_the_oracle_document(self, case):
        labeling, expected = case
        assert render_labeling_json(labeling) == stdlib_dumps(expected)
        assert labeling_from_document(labeling_to_document(labeling)) == labeling
