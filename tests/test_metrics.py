from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lex2vec
from lex2vec import (
    DimensionLabeling,
    EmbeddingTable,
    Lexicon,
    NoNamedDimensionsError,
    SweepReport,
    SweepRow,
    Theta,
    avg_labels_per_dimension,
    cap_labels,
    coverage,
    label_dimensions,
    sweep,
    unnamed_ratio,
)

from helpers import (
    brute_force_label_counts,
    random_lexicon,
    random_lexicon_entries,
    random_normalized_table,
)

THETA = Theta(0.75)


def make_labeling(*dims):
    return DimensionLabeling(tuple(dims), THETA, "demo")


class TestUnnamedRatio:
    def test_toy_example_fully_named(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        assert unnamed_ratio(labeling) == 0.0

    def test_all_empty(self):
        assert unnamed_ratio(make_labeling({}, {}, {})) == 1.0

    def test_one_of_three(self):
        assert unnamed_ratio(make_labeling({"a": 1}, {}, {"b": 2})) == pytest.approx(1 / 3)


class TestAvgLabels:
    def test_toy_example_both_modes(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        assert avg_labels_per_dimension(labeling, "all") == 1.5
        assert avg_labels_per_dimension(labeling, "named") == 1.5

    def test_all_mode_on_empty(self):
        assert avg_labels_per_dimension(make_labeling({}, {}), "all") == 0.0

    def test_partial_coverage(self):
        labeling = make_labeling({"a": 3}, {})
        assert avg_labels_per_dimension(labeling, "all") == 1.5
        assert avg_labels_per_dimension(labeling, "named") == 3.0

    def test_named_mode_requires_a_named_dimension(self):
        with pytest.raises(NoNamedDimensionsError):
            avg_labels_per_dimension(make_labeling({}, {}), "named")

    def test_distinct_counts_each_label_once(self):
        labeling = make_labeling({"a": 5, "b": 2}, {})
        assert avg_labels_per_dimension(labeling, "all", distinct=True) == 1.0
        assert avg_labels_per_dimension(labeling, "named", distinct=True) == 2.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            avg_labels_per_dimension(make_labeling({"a": 1}), "median")


class TestCoverage:
    def test_partly_named(self):
        labeling = make_labeling({"a": 3, "b": 1}, {}, {"a": 2})
        assert coverage(labeling) == SweepRow(0.75, "demo", 1 / 3, 2.0, 3.0)
        assert coverage(labeling, distinct=True) == SweepRow(0.75, "demo", 1 / 3, 1.0, 1.5)

    def test_fully_unnamed_has_no_named_average(self):
        assert coverage(make_labeling({}, {})) == SweepRow(0.75, "demo", 1.0, 0.0, None)

    @pytest.mark.parametrize(
        "resource, error, message",
        [
            ("a\tb", ValueError, "resource name 'a\\tb' contains a tab or newline"),
            ("", ValueError, "a sweep row carries an empty resource name"),
            (None, TypeError, "resource name None of a sweep row must be a str, not NoneType"),
        ],
        ids=["tab", "empty", "none"],
    )
    def test_row_resource_follows_the_label_rule(self, resource, error, message):
        # A tab would give the row one more TSV column than its header.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SweepRow(0.75, resource, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"theta": 0.2}, ValueError, "theta must satisfy 0.5 < theta <= 1.0, got 0.2"),
            ({"theta": "0.75"}, TypeError, "theta must be a real number, not str"),
            ({"theta": True}, TypeError, "theta must be a real number, not bool"),
            ({"unnamed_ratio": 7.0}, ValueError,
             "unnamed_ratio must be a finite number in [0, 1], got 7.0"),
            ({"unnamed_ratio": float("nan")}, ValueError,
             "unnamed_ratio must be a finite number in [0, 1], got nan"),
            ({"unnamed_ratio": "x"}, TypeError, "unnamed_ratio must be a real number, not str"),
            ({"avg_labels_all": -1.0}, ValueError,
             "avg_labels_all must be a finite number >= 0, got -1.0"),
            ({"avg_labels_all": float("inf")}, ValueError,
             "avg_labels_all must be a finite number >= 0, got inf"),
            ({"avg_labels_named": False}, TypeError,
             "avg_labels_named must be a real number, not bool"),
            ({"avg_labels_named": -0.5}, ValueError,
             "avg_labels_named must be a finite number >= 0, got -0.5"),
        ],
        ids=["theta-range", "theta-str", "theta-bool", "ratio-range", "ratio-nan", "ratio-str",
             "all-negative", "all-inf", "named-bool", "named-negative"],
    )
    def test_row_numbers_are_checked(self, fields, error, message):
        # Each would otherwise render as a TSV row such as 700.0% or nan%.
        values = {"theta": 0.75, "resource": "a", "unnamed_ratio": 0.5,
                  "avg_labels_all": 1.0, "avg_labels_named": 2.0, **fields}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SweepRow(**values)

    def test_row_numbers_are_stored_as_floats(self):
        row = SweepRow(np.float32(0.75), "a", 1, np.float64(0.0), None)
        assert row == SweepRow(0.75, "a", 1.0, 0.0, None)
        assert [type(value) for value in (row.theta, row.unnamed_ratio, row.avg_labels_all)] == [
            float, float, float,
        ]


class TestSweep:
    def test_grid_times_resources_row_count_and_order(self, toy_table):
        liwc = Lexicon("liwc", {"good": {"posemo"}})
        nrc = Lexicon("nrc", {"good": {"joy"}, "bad": {"fear"}})
        grid = (0.81, 0.79, 0.77, 0.75)
        report = sweep(toy_table, [liwc, nrc], grid)
        assert len(report.rows) == 8
        assert [(r.resource, r.theta) for r in report.rows] == [
            ("liwc", 0.81), ("liwc", 0.79), ("liwc", 0.77), ("liwc", 0.75),
            ("nrc", 0.81), ("nrc", 0.79), ("nrc", 0.77), ("nrc", 0.75),
        ]

    def test_single_cell_matches_direct_metrics(self, toy_table, toy_lexicon):
        report = sweep(toy_table, [toy_lexicon], [0.75])
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        row = report.rows[0]
        assert row.unnamed_ratio == unnamed_ratio(labeling)
        assert row.avg_labels_all == avg_labels_per_dimension(labeling, "all")
        assert row.avg_labels_named == avg_labels_per_dimension(labeling, "named")

    @pytest.mark.parametrize("distinct", [False, True])
    def test_rows_are_coverage_of_each_cell(self, distinct):
        rng = np.random.default_rng(5)
        table = random_normalized_table(rng, 40, 6)
        lexicons = [random_lexicon(rng, table.vocabulary, name) for name in ("a", "b")]
        thetas = (0.9, 0.7, 0.6)
        report = sweep(table, lexicons, thetas, distinct=distinct)
        expected = [
            coverage(label_dimensions(table, lexicon, theta), distinct)
            for lexicon in lexicons
            for theta in thetas
        ]
        assert list(report.rows) == expected

    def test_two_theta_trend(self, toy_table, toy_lexicon):
        report = sweep(toy_table, [toy_lexicon], [0.9, 0.6])
        higher, lower = report.rows
        assert higher.theta > lower.theta
        assert lower.avg_labels_all >= higher.avg_labels_all
        assert lower.unnamed_ratio <= higher.unnamed_ratio

    def test_rows_sorted_regardless_of_theta_order(self, toy_table, toy_lexicon):
        ascending = sweep(toy_table, [toy_lexicon], [0.6, 0.75, 0.9])
        descending = sweep(toy_table, [toy_lexicon], [0.9, 0.75, 0.6])
        assert ascending == descending
        other = Lexicon("alpha", {"bad": {"fear"}})
        assert sweep(toy_table, [toy_lexicon, other], [0.6, 0.9]) == sweep(
            toy_table, [other, toy_lexicon], [0.9, 0.6]
        )

    def test_fully_unnamed_cell_has_no_named_average(self, toy_table, toy_lexicon):
        report = sweep(toy_table, [toy_lexicon], [1.0])
        row = report.rows[0]
        assert row.unnamed_ratio == 1.0
        assert row.avg_labels_all == 0.0
        assert row.avg_labels_named is None

    def test_empty_lexicons_rejected(self, toy_table):
        with pytest.raises(ValueError):
            sweep(toy_table, [], [0.75])

    def test_lexicons_sharing_a_resource_name_rejected(self, toy_table, toy_lexicon):
        other = Lexicon("demo", {"table": {"joy"}})
        with pytest.raises(ValueError, match="share the resource name 'demo'"):
            sweep(toy_table, [toy_lexicon, other], [0.75])

    @pytest.mark.parametrize("thetas", [[0.8, 0.8], [0.75, 0.8, Theta(0.8)]])
    def test_repeated_theta_rejected(self, toy_table, toy_lexicon, thetas):
        with pytest.raises(ValueError, match="^the theta grid repeats 0.8$"):
            sweep(toy_table, [toy_lexicon], thetas)

    def test_empty_thetas_rejected(self, toy_table, toy_lexicon):
        with pytest.raises(ValueError):
            sweep(toy_table, [toy_lexicon], [])

    def test_trend_violation_raises_under_optimize(self):
        # The trend check must survive ``python -O``, which strips asserts.
        script = textwrap.dedent(
            """
            import sys
            from lex2vec import DimensionLabeling, Lex2vecError, Lexicon
            from lex2vec import NormalizedEmbeddingTable, metrics

            def more_labels_at_higher_theta(table, lexicon, theta, keep_contributors=False):
                counts = {"a": 1} if theta.value > 0.7 else {}
                return DimensionLabeling((counts,), theta, lexicon.resource_name)

            metrics.label_dimensions = more_labels_at_higher_theta
            table = NormalizedEmbeddingTable(("w",), [[1.0]])
            try:
                metrics.sweep(table, [Lexicon("demo", {"w": {"a"}})], [0.8, 0.6])
            except Lex2vecError as exc:
                print(exc)
                sys.exit(3)
            """
        )
        src = str(Path(lex2vec.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 3, result.stderr
        assert "unnamed ratio rose" in result.stdout

    def test_table_must_be_normalized_before_any_cell(self, monkeypatch):
        def cell(*args, **kwargs):
            raise AssertionError("a cell ran on a table that is not normalized")

        monkeypatch.setattr(lex2vec.metrics, "label_dimensions", cell)
        raw = EmbeddingTable(("good", "bad"), [[5.0, -3.0], [0.2, 0.9]])
        with pytest.raises(TypeError, match=r"normalize\(\)"):
            sweep(raw, [Lexicon("demo", {"good": {"posemo"}})], [0.75])

    def test_report_rejects_misordered_rows(self):
        rows = (
            SweepRow(0.75, "liwc", 0.1, 2.0, 2.2),
            SweepRow(0.81, "liwc", 0.2, 1.0, 1.3),
        )
        repeated = (rows[1], rows[1])  # one (resource, theta) twice
        for misordered in (rows, repeated):
            with pytest.raises(ValueError, match="strictly ordered"):
                SweepReport(misordered)


@st.composite
def labeling_inputs(draw):
    """A normalized table, raw lexicon entries drawn from its words, and a theta."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    theta = draw(st.sampled_from([0.6, 0.75, 0.9]))
    rng = np.random.default_rng(seed)
    table = random_normalized_table(rng, max_words=16, max_dims=6)
    exact, prefixes = random_lexicon_entries(rng, table.vocabulary)
    return table, exact, prefixes, theta


def labeling_of(inputs):
    table, exact, prefixes, theta = inputs
    return label_dimensions(table, Lexicon("rand", exact, prefixes), theta)


def random_labelings():
    return labeling_inputs().map(labeling_of)


class TestMetricProperties:
    @settings(max_examples=80)
    @given(inputs=labeling_inputs(), distinct=st.booleans())
    def test_coverage_matches_the_oracle(self, inputs, distinct):
        """The three metrics, computed from the brute-force counts, match exactly."""
        table, exact, prefixes, theta = inputs
        counts = brute_force_label_counts(
            table.vocabulary, table.vectors.tolist(), exact, prefixes, theta
        )
        masses = [len(c) if distinct else sum(c.values()) for c in counts]
        named = [mass for c, mass in zip(counts, masses) if c]
        unnamed = sum(not c for c in counts) / len(counts)
        avg_all = sum(masses) / len(counts)
        avg_named = sum(named) / len(named) if named else None

        labeling = labeling_of(inputs)
        row = coverage(labeling, distinct)
        assert (row.unnamed_ratio, row.avg_labels_all, row.avg_labels_named) == (
            unnamed, avg_all, avg_named
        )
        assert unnamed_ratio(labeling) == unnamed
        assert avg_labels_per_dimension(labeling, "all", distinct) == avg_all
        if named:
            assert avg_labels_per_dimension(labeling, "named", distinct) == avg_named
        else:
            with pytest.raises(NoNamedDimensionsError):
                avg_labels_per_dimension(labeling, "named", distinct)

    @settings(max_examples=80)
    @given(labeling=random_labelings())
    def test_zero_mass_iff_fully_unnamed(self, labeling):
        """unnamed_ratio == 1 exactly when the average label mass is 0."""
        ratio = unnamed_ratio(labeling)
        avg_all = avg_labels_per_dimension(labeling, "all")
        assert (ratio == 1.0) == (avg_all == 0.0)

    @settings(max_examples=80)
    @given(labeling=random_labelings())
    def test_named_average_dominates(self, labeling):
        """avg over named dims >= avg over all, equal iff nothing is unnamed."""
        ratio = unnamed_ratio(labeling)
        if ratio == 1.0:
            return
        avg_all = avg_labels_per_dimension(labeling, "all")
        avg_named = avg_labels_per_dimension(labeling, "named")
        assert avg_named >= avg_all
        assert (avg_named == avg_all) == (ratio == 0.0)

    @settings(max_examples=60)
    @given(labeling=random_labelings(), limit=st.integers(min_value=1, max_value=4))
    def test_filters_only_reduce(self, labeling, limit):
        """Truncation cannot lower unnamed_ratio or raise any average."""
        filtered = cap_labels(labeling, limit)
        assert unnamed_ratio(filtered) >= unnamed_ratio(labeling)
        assert avg_labels_per_dimension(filtered, "all") <= avg_labels_per_dimension(
            labeling, "all"
        )
        assert avg_labels_per_dimension(
            filtered, "all", distinct=True
        ) <= avg_labels_per_dimension(labeling, "all", distinct=True)
