from __future__ import annotations

import os
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
    Lexicon,
    NoNamedDimensionsError,
    SweepReport,
    SweepRow,
    Theta,
    avg_labels_per_dimension,
    cap_labels,
    label_dimensions,
    sweep,
    unnamed_ratio,
)

from helpers import random_lexicon, random_normalized_table

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

    def test_fully_unnamed_cell_has_no_named_average(self, toy_table, toy_lexicon):
        report = sweep(toy_table, [toy_lexicon], [1.0])
        row = report.rows[0]
        assert row.unnamed_ratio == 1.0
        assert row.avg_labels_all == 0.0
        assert row.avg_labels_named is None

    def test_empty_lexicons_rejected(self, toy_table):
        with pytest.raises(ValueError):
            sweep(toy_table, [], [0.75])

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

    def test_report_rejects_misordered_rows(self):
        rows = (
            SweepRow(0.75, "liwc", 0.1, 2.0, 2.2),
            SweepRow(0.81, "liwc", 0.2, 1.0, 1.3),
        )
        with pytest.raises(ValueError):
            SweepReport(rows)


@st.composite
def random_labelings(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    theta = draw(st.sampled_from([0.6, 0.75, 0.9]))
    rng = np.random.default_rng(seed)
    table = random_normalized_table(rng, max_words=16, max_dims=6)
    lexicon = random_lexicon(rng, table.vocabulary)
    return label_dimensions(table, lexicon, theta)


class TestMetricProperties:
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
