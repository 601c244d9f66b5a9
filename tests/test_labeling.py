from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lex2vec import (
    Contribution,
    DimensionLabeling,
    Lexicon,
    NormalizedEmbeddingTable,
    Theta,
    cap_labels,
    label_dimensions,
    top_k_frequent,
)

from helpers import (
    brute_force_label_counts,
    brute_force_labeling,
    random_lexicon,
    random_normalized_table,
)


class TestTheta:
    @pytest.mark.parametrize("value", [0.5001, 0.6, 0.75, 0.9, 1.0])
    def test_accepts_valid_range(self, value):
        assert Theta(value).value == value

    @pytest.mark.parametrize("value", [0.5, 0.4, 0.0, 1.0001, -1.0])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            Theta(value)

    def test_low_cutoff(self):
        assert Theta(0.75).low_cutoff == 0.25


class TestLabelDimensions:
    def test_toy_example_counts(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        assert labeling.per_dimension == (
            {"posemo": 1, "negemo": 1},
            {"posemo": 1},
        )
        assert labeling.resource_name == "demo"
        assert labeling.theta == Theta(0.75)

    def test_empty_lexicon_leaves_all_unnamed(self, toy_table):
        labeling = label_dimensions(toy_table, Lexicon("empty", {}), 0.75)
        assert all(not counts for counts in labeling.per_dimension)

    def test_theta_one_selects_nothing(self, toy_table, toy_lexicon):
        # No normalized value is strictly above 1 or strictly below 0.
        labeling = label_dimensions(toy_table, toy_lexicon, 1.0)
        assert all(not counts for counts in labeling.per_dimension)

    def test_boundary_values_excluded(self):
        table = NormalizedEmbeddingTable(
            ("high", "low", "inside"), [[0.75], [0.25], [0.5]]
        )
        lexicon = Lexicon(
            "demo", {"high": {"a"}, "low": {"b"}, "inside": {"c"}}
        )
        labeling = label_dimensions(table, lexicon, 0.75)
        assert labeling.per_dimension == ({},)

    def test_just_past_boundary_included(self):
        table = NormalizedEmbeddingTable(("high", "low"), [[0.76], [0.24]])
        lexicon = Lexicon("demo", {"high": {"a"}, "low": {"b"}})
        labeling = label_dimensions(table, lexicon, 0.75)
        assert labeling.per_dimension == ({"a": 1, "b": 1},)

    def test_contributors_ordered_and_consistent(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75, keep_contributors=True)
        assert labeling.contributors == (
            (
                Contribution("good", "posemo", "high"),
                Contribution("bad", "negemo", "low"),
            ),
            (Contribution("good", "posemo", "low"),),
        )

    def test_contributor_and_fast_paths_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            table = random_normalized_table(rng)
            lexicon = random_lexicon(rng, table.vocabulary)
            for theta in (0.6, 0.75, 0.9):
                with_records = label_dimensions(table, lexicon, theta, keep_contributors=True)
                without = label_dimensions(table, lexicon, theta)
                assert with_records.per_dimension == without.per_dimension

    def test_matches_brute_force_spot_check(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            table = random_normalized_table(rng)
            lexicon = random_lexicon(rng, table.vocabulary)
            expected = brute_force_label_counts(
                table.vocabulary,
                table.vectors.tolist(),
                dict(lexicon.exact_entries),
                lexicon.prefix_entries,
                0.75,
            )
            got = label_dimensions(table, lexicon, 0.75)
            assert list(got.per_dimension) == expected

    def test_contributors_match_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            table = random_normalized_table(rng)
            lexicon = random_lexicon(rng, table.vocabulary)
            for theta in (0.6, 0.75, 0.9):
                counts, records = brute_force_labeling(
                    table.vocabulary,
                    table.vectors.tolist(),
                    dict(lexicon.exact_entries),
                    lexicon.prefix_entries,
                    theta,
                )
                got = label_dimensions(table, lexicon, theta, keep_contributors=True)
                assert list(got.per_dimension) == counts
                assert [list(dim_records) for dim_records in got.contributors] == records

    def test_multi_label_words_count_once_per_label(self):
        table = NormalizedEmbeddingTable(("happy",), [[1.0]])
        # Same label reachable through the exact entry and a prefix: the
        # lookup set collapses them to a single count.
        lexicon = Lexicon(
            "demo", {"happy": {"joy"}}, (("happ", frozenset({"joy", "posemo"})),)
        )
        labeling = label_dimensions(table, lexicon, 0.75)
        assert labeling.per_dimension == ({"joy": 1, "posemo": 1},)


class TestLabelingValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            DimensionLabeling(({"a": 0},), Theta(0.75), "demo")

    def test_contributors_must_match_counts(self):
        with pytest.raises(ValueError):
            DimensionLabeling(
                ({"a": 2},),
                Theta(0.75),
                "demo",
                ((Contribution("w", "a", "high"),),),
            )

    def test_contributors_must_cover_dimensions(self):
        with pytest.raises(ValueError):
            DimensionLabeling(({"a": 1}, {}), Theta(0.75), "demo", ((),))


class TestFilters:
    def test_cap_keeps_top_by_count(self):
        labeling = DimensionLabeling(({"a": 5, "b": 3, "c": 1},), Theta(0.75), "demo")
        capped = cap_labels(labeling, 2)
        assert capped.per_dimension == ({"a": 5, "b": 3},)

    def test_cap_breaks_ties_alphabetically(self):
        labeling = DimensionLabeling(({"a": 2, "b": 2},), Theta(0.75), "demo")
        assert cap_labels(labeling, 1).per_dimension == ({"a": 2},)

    def test_cap_identity_when_limit_large(self):
        labeling = DimensionLabeling(({"a": 5, "b": 3},), Theta(0.75), "demo")
        assert cap_labels(labeling, 10).per_dimension == labeling.per_dimension

    def test_cap_rejects_nonpositive_limit(self):
        labeling = DimensionLabeling(({"a": 1},), Theta(0.75), "demo")
        with pytest.raises(ValueError):
            cap_labels(labeling, 0)

    def test_top_k_selects_most_frequent(self):
        labeling = DimensionLabeling(({"posemo": 4, "negemo": 1},), Theta(0.75), "demo")
        assert top_k_frequent(labeling, 1).per_dimension == ({"posemo": 4},)

    def test_top_k_on_empty_dimension(self):
        labeling = DimensionLabeling(({},), Theta(0.75), "demo")
        assert top_k_frequent(labeling, 3).per_dimension == ({},)

    def test_top_k_tie_break_among_equals(self):
        labeling = DimensionLabeling(({"a": 1, "b": 1, "c": 1},), Theta(0.75), "demo")
        assert top_k_frequent(labeling, 2).per_dimension == ({"a": 1, "b": 1},)

    def test_cap_drops_contributors_of_dropped_labels(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75, keep_contributors=True)
        capped = cap_labels(labeling, 1)
        assert capped.per_dimension[0] == {"negemo": 1}
        assert capped.contributors[0] == (Contribution("bad", "negemo", "low"),)


def _contribution_triples(labeling):
    triples = set()
    for dim, records in enumerate(labeling.contributors):
        for rec in records:
            triples.add((dim, rec.word, rec.label))
    return triples


@st.composite
def labeling_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    table = random_normalized_table(rng, max_words=16, max_dims=6)
    lexicon = random_lexicon(rng, table.vocabulary)
    return table, lexicon


class TestLabelingProperties:
    @settings(max_examples=60)
    @given(
        instance=labeling_instances(),
        thetas=st.tuples(
            st.floats(min_value=0.51, max_value=1.0),
            st.floats(min_value=0.51, max_value=1.0),
        ),
    )
    def test_theta_monotonicity(self, instance, thetas):
        """Raising theta only ever removes contributor triples."""
        table, lexicon = instance
        low, high = min(thetas), max(thetas)
        at_low = label_dimensions(table, lexicon, low, keep_contributors=True)
        at_high = label_dimensions(table, lexicon, high, keep_contributors=True)
        assert _contribution_triples(at_high) <= _contribution_triples(at_low)
        for counts_high, counts_low in zip(at_high.per_dimension, at_low.per_dimension):
            for label, count in counts_high.items():
                assert count <= counts_low.get(label, 0)

    @settings(max_examples=60)
    @given(instance=labeling_instances())
    def test_lexicon_monotonicity(self, instance):
        """Growing the lexicon never removes a contributor triple."""
        table, lexicon = instance
        bigger_exact = dict(lexicon.exact_entries)
        extra_word = table.vocabulary[0]
        bigger_exact[extra_word] = bigger_exact.get(extra_word, frozenset()) | {"zz_extra"}
        bigger = Lexicon("big", bigger_exact, lexicon.prefix_entries)
        small_run = label_dimensions(table, lexicon, 0.75, keep_contributors=True)
        big_run = label_dimensions(table, bigger, 0.75, keep_contributors=True)
        assert _contribution_triples(small_run) <= _contribution_triples(big_run)

    @settings(max_examples=60)
    @given(instance=labeling_instances())
    def test_vocabulary_permutation_invariance(self, instance):
        """Shuffling vocabulary order leaves per-dimension counts unchanged."""
        table, lexicon = instance
        rng = np.random.default_rng(3)
        order = rng.permutation(len(table.vocabulary))
        shuffled = NormalizedEmbeddingTable(
            tuple(table.vocabulary[i] for i in order), table.vectors[order]
        )
        original = label_dimensions(table, lexicon, 0.75)
        permuted = label_dimensions(shuffled, lexicon, 0.75)
        assert original.per_dimension == permuted.per_dimension

    @settings(max_examples=60)
    @given(instance=labeling_instances())
    def test_count_conservation(self, instance):
        """Total label mass equals sum over words of |labels| x band hits."""
        table, lexicon = instance
        theta = 0.75
        labeling = label_dimensions(table, lexicon, theta)
        total = sum(sum(counts.values()) for counts in labeling.per_dimension)
        expected = 0
        for word, row in zip(table.vocabulary, table.vectors):
            labels = lexicon.lookup(word)
            if not labels:
                continue
            hits = sum(1 for v in row if v > theta or v < 1.0 - theta)
            expected += len(labels) * hits
        assert total == expected

    @settings(max_examples=60)
    @given(
        instance=labeling_instances(),
        theta=st.floats(min_value=0.51, max_value=1.0),
    )
    def test_band_disjointness(self, instance, theta):
        """No value can sit in both bands once theta exceeds 0.5."""
        table, _ = instance
        high = table.vectors > theta
        low = table.vectors < 1.0 - theta
        assert not (high & low).any()

    @settings(max_examples=40)
    @given(instance=labeling_instances(), limit=st.integers(min_value=1, max_value=5))
    def test_filter_preserves_retained_counts(self, instance, limit):
        """Filtering drops whole labels but never alters kept counts."""
        table, lexicon = instance
        labeling = label_dimensions(table, lexicon, 0.6)
        filtered = cap_labels(labeling, limit)
        for kept, original in zip(filtered.per_dimension, labeling.per_dimension):
            assert len(kept) <= limit
            for label, count in kept.items():
                assert original[label] == count
