from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lex2vec import (
    Contribution,
    DimensionLabeling,
    EmbeddingTable,
    Lexicon,
    NormalizedEmbeddingTable,
    Theta,
    cap_labels,
    label_dimensions,
    top_k_frequent,
)
from lex2vec.labeling import _BAND_BLOCK, ordered_labels
from lex2vec.report import labeling_from_document, labeling_to_document

from helpers import (
    LABEL_POOL,
    brute_force_label_counts,
    brute_force_labeling,
    random_lexicon,
    random_normalized_table,
)


class TestTheta:
    @pytest.mark.parametrize("value", [0.5001, 0.6, 0.75, 0.9, 1.0, np.float32(0.75), np.int64(1)])
    def test_accepts_valid_range(self, value):
        assert Theta(value).value == value and type(Theta(value).value) is float

    @pytest.mark.parametrize("value", [0.5, 0.4, 0.0, 1.0001, -1.0])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            Theta(value)

    def test_low_cutoff(self):
        assert Theta(0.75).low_cutoff == 0.25

    @pytest.mark.parametrize("value", [True, "0.9", np.bool_(True)])
    def test_takes_a_real_number_that_is_not_a_bool(self, value):
        # float() would read True as 1.0 and "0.9" as 0.9.
        with pytest.raises(TypeError, match="^theta must be a real number, not "):
            Theta(value)
        document = {"theta": value, "resource": "demo", "dimensions": [{"labels": []}]}
        with pytest.raises(TypeError, match="^theta must be a real number, not "):
            labeling_from_document(document)


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

    def test_contributors_differ_by_any_record(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75, keep_contributors=True)
        records = [list(dim_records) for dim_records in labeling.contributors]
        records[0][0] = Contribution("fine", "posemo", "high")
        other = DimensionLabeling(
            labeling.per_dimension, labeling.theta, labeling.resource_name, records
        )
        assert other.per_dimension == labeling.per_dimension
        assert other != labeling
        assert other.contributors != labeling.contributors
        assert not labeling.contributors == ((), ())

    @pytest.mark.parametrize(
        "index",
        [slice(None), slice(-3, None), slice(1, -1, 2), slice(None, None, -2), slice(-100, 100)],
    )
    def test_contributors_slice_like_a_tuple(self, index):
        rng = np.random.default_rng(23)
        table = NormalizedEmbeddingTable(tuple(f"w{i}" for i in range(40)), rng.random((40, 7)))
        lexicon = random_lexicon(rng, table.vocabulary)
        contributors = label_dimensions(table, lexicon, 0.7, keep_contributors=True).contributors
        assert contributors[index] == tuple(contributors)[index]

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

    @pytest.mark.parametrize("keep", [False, True])
    def test_matches_brute_force_across_band_blocks(self, keep):
        """More labeled rows than two band blocks, the last one partial, with
        values on both cutoffs in the first and last row of every block."""
        rng = np.random.default_rng(24)
        theta, labeled = 0.75, 2 * _BAND_BLOCK + 37
        # Unlabeled words between labeled ones, so a labeled word's place among
        # the labeled rows differs from its table row.
        vocabulary = []
        for i in range(labeled):
            vocabulary += [f"w{i}", f"u{i}"] if i % 3 == 0 else [f"w{i}"]
        matrix = rng.choice((0.1, 0.25, 0.5, 0.75, 0.9), size=(len(vocabulary), 6))
        edges = {0, _BAND_BLOCK - 1, _BAND_BLOCK, 2 * _BAND_BLOCK - 1, 2 * _BAND_BLOCK, labeled - 1}
        on_cutoffs = [theta, 1 - theta, np.nextafter(theta, 1), np.nextafter(1 - theta, 0), 0.5, 1.0]
        exact = {}
        for row, word in enumerate(vocabulary):
            if word.startswith("w"):
                if len(exact) in edges:
                    matrix[row] = on_cutoffs
                drawn = rng.choice(LABEL_POOL, size=int(rng.integers(1, 4)))
                # "every" labels each word, so its rows span all three blocks.
                exact[word] = frozenset(drawn) | {"every"}
        table = NormalizedEmbeddingTable(tuple(vocabulary), matrix)
        counts, records = brute_force_labeling(vocabulary, matrix.tolist(), exact, (), theta)
        got = label_dimensions(table, Lexicon("blocks", exact), theta, keep_contributors=keep)
        assert list(got.per_dimension) == counts
        if keep:
            assert [list(dim_records) for dim_records in got.contributors] == records
        else:
            assert got.contributors is None

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

    def test_a_count_is_not_a_bool(self):
        # operator.index would read True as 1.
        message = "^the count of label 'a' must be an integer, not bool$"
        with pytest.raises(TypeError, match=message):
            DimensionLabeling(({"a": True},), Theta(0.75), "demo")
        document = {"theta": 0.75, "resource": "demo", "dimensions": [
            {"labels": [{"label": "a", "count": True}]},
        ]}
        with pytest.raises(TypeError, match=message):
            labeling_from_document(document)
        assert DimensionLabeling(({"a": np.int64(2)},), 0.75, "demo").per_dimension == ({"a": 2},)

    @pytest.mark.parametrize(
        "count, error, message",
        [
            (2.0, TypeError, "must be an integer, not float"),
            ("1", TypeError, "must be an integer, not str"),
            (None, TypeError, "must be an integer, not NoneType"),
            (0, ValueError, "must be >= 1, got 0"),
            (np.int64(-2), ValueError, "must be >= 1, got -2"),
        ],
        ids=["float", "str", "none", "zero", "numpy-negative"],
    )
    def test_a_count_that_is_not_a_positive_integer_names_its_label(self, count, error, message):
        message = f"^the count of label 'a' {re.escape(message)}$"
        with pytest.raises(error, match=message):
            DimensionLabeling(({"b": 1}, {"a": count}), Theta(0.75), "demo")
        document = {"theta": 0.75, "resource": "demo", "dimensions": [
            {"labels": [{"label": "a", "count": count}]},
        ]}
        with pytest.raises(error, match=message):
            labeling_from_document(document)

    def test_contributors_must_match_counts(self):
        one_a = Contribution("w", "a", "high")
        # Too few records for a count, and a record of a label not counted.
        for counts, records in [({"a": 2}, (one_a,)), ({"a": 1}, (one_a, one_a._replace(label="b")))]:
            with pytest.raises(ValueError):
                DimensionLabeling((counts,), Theta(0.75), "demo", (records,))

    def test_contributors_must_cover_dimensions(self):
        with pytest.raises(ValueError):
            DimensionLabeling(({"a": 1}, {}), Theta(0.75), "demo", ((),))

    @pytest.mark.parametrize(
        "per_dimension, error, message",
        [
            (({"a\tb": 1, "": 2},), ValueError, "dimension 0 carries an empty label"),
            (({"a\tb": 1, "c\nd": 1},), ValueError, "label 'a\\tb' contains a tab or newline"),
            (({}, {"a": 1, 7: 1}), TypeError, "label 7 of dimension 1 must be a str, not int"),
            (({b"a": 1, None: 1},), TypeError,
             "label None of dimension 0 must be a str, not NoneType"),
        ],
        ids=["empty-label", "tab-label", "int-label", "first-by-repr"],
    )
    def test_labels_follow_the_lexicon_label_rule(self, per_dimension, error, message):
        # A TSV line would carry the tab or the empty name, and a JSON one the int.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DimensionLabeling(per_dimension, Theta(0.75), "demo")

    def test_a_document_label_or_contributor_word_must_be_a_str(self):
        document = {"theta": 0.75, "resource": "demo", "dimensions": [
            {"labels": [{"label": 7, "count": 1}]},
        ]}
        with pytest.raises(TypeError, match="^label 7 of dimension 0 must be a str, not int$"):
            labeling_from_document(document)
        document["dimensions"][0] = {
            "labels": [{"label": "a", "count": 1}],
            "contributors": [{"word": 5, "label": "a", "band": "high"}],
        }
        with pytest.raises(TypeError, match="^dimension 0: contributor word 5 must be a str$"):
            labeling_from_document(document)

    @pytest.mark.parametrize(
        "record, error, message",
        [
            ({"word": "w", "label": "a", "band": "x"}, ValueError,
             "dimension 3: contributor band must be 'high' or 'low', not 'x'"),
            ({"word": 5, "label": "a", "band": "high"}, TypeError,
             "dimension 3: contributor word 5 must be a str"),
            ({"word": "w", "label": "b", "band": "high"}, ValueError,
             "dimension 3: contributor records disagree with label counts"),
        ],
        ids=["band", "word", "tally"],
    )
    def test_a_faulty_contributor_record_names_its_dimension(self, record, error, message):
        good = {"labels": [{"label": "a", "count": 1}],
                "contributors": [{"word": "v", "label": "a", "band": "low"}]}
        dimensions = [good, {"labels": []}, good, {"labels": [{"label": "a", "count": 1}],
                                                   "contributors": [record]}, good]
        document = {"theta": 0.75, "resource": "demo", "dimensions": dimensions}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            labeling_from_document(document)

    @pytest.mark.parametrize(
        "resource, error, message",
        [
            (5, TypeError, "resource name 5 of a labeling must be a str, not int"),
            ("", ValueError, "a labeling carries an empty resource name"),
            ("a\tb", ValueError, "resource name 'a\\tb' contains a tab or newline"),
        ],
        ids=["int", "empty", "tab"],
    )
    def test_resource_name_follows_the_label_rule(self, resource, error, message):
        # Checked when built, not first when rendered.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DimensionLabeling(({"a": 1},), Theta(0.75), resource)
        document = {"theta": 0.75, "resource": resource, "dimensions": [{"labels": []}]}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            labeling_from_document(document)

    def test_labeling_needs_a_dimension(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            DimensionLabeling((), Theta(0.75), "demo")

    def test_table_must_be_normalized(self, toy_lexicon):
        # 5.0 and -3.0 would count as high and low without this check.
        raw = EmbeddingTable(("good", "bad"), [[5.0, -3.0], [0.2, 0.9]])
        with pytest.raises(TypeError, match=r"normalize\(\)"):
            label_dimensions(raw, toy_lexicon, 0.75)

    def test_counts_are_read_only(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75)
        with pytest.raises(TypeError):
            labeling.per_dimension[0]["posemo"] = 5

    def test_computed_contributors_must_match_counts(self, toy_table, toy_lexicon):
        labeling = label_dimensions(toy_table, toy_lexicon, 0.75, keep_contributors=True)
        with pytest.raises(ValueError):
            DimensionLabeling(
                ({"posemo": 2}, {"posemo": 1}), Theta(0.75), "demo", labeling.contributors
            )


class TestFilters:
    def test_ordered_labels_count_then_alphabetical(self):
        assert ordered_labels({"b": 1, "c": 5, "a": 1}) == [("c", 5), ("a", 1), ("b", 1)]
        assert ordered_labels({}) == []

    def test_top_k_is_cap(self):
        assert top_k_frequent is cap_labels

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

    def test_cap_limit_is_not_a_bool(self):
        labeling = DimensionLabeling(({"a": 2, "b": 1},), Theta(0.75), "demo")
        with pytest.raises(TypeError, match="^limit must be an integer, not bool$"):
            cap_labels(labeling, True)
        assert cap_labels(labeling, np.int64(1)).per_dimension == ({"a": 2},)

    @pytest.mark.parametrize(
        "limit, error, message",
        [
            (2.0, TypeError, "limit must be an integer, not float"),
            ("1", TypeError, "limit must be an integer, not str"),
            (None, TypeError, "limit must be an integer, not NoneType"),
            (-1, ValueError, "limit must be >= 1, got -1"),
        ],
        ids=["float", "str", "none", "negative"],
    )
    def test_cap_limit_must_be_an_integer(self, limit, error, message):
        labeling = DimensionLabeling(({"a": 2, "b": 1},), Theta(0.75), "demo")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cap_labels(labeling, limit)

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

    def test_cap_builds_only_the_records_it_keeps(self, monkeypatch):
        built = []

        class CountedContribution(Contribution):
            __slots__ = ()

            def __new__(cls, *fields):
                built.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr("lex2vec.labeling.Contribution", CountedContribution)
        table = NormalizedEmbeddingTable(
            ("good", "bad", "table"), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.9]]
        )
        lexicon = Lexicon(
            "demo", {"good": {"joy", "posemo"}, "bad": {"negemo"}, "table": {"thing"}}
        )
        labeling = label_dimensions(table, lexicon, 0.75, keep_contributors=True)
        records = [record for dim in cap_labels(labeling, 1).contributors for record in dim]
        assert records == [("good", "joy", "high"), ("good", "joy", "low")]
        assert len(built) == len(records)


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

    @settings(max_examples=40)
    @given(
        instance=labeling_instances(),
        theta=st.sampled_from([0.6, 0.75, 0.9]),
        limit=st.integers(min_value=1, max_value=3),
    )
    def test_capped_contributors_match_brute_force(self, instance, theta, limit):
        """The cap keeps the oracle's records of the kept labels, and the
        capped labeling survives its JSON document."""
        table, lexicon = instance
        counts, records = brute_force_labeling(
            table.vocabulary,
            table.vectors.tolist(),
            dict(lexicon.exact_entries),
            lexicon.prefix_entries,
            theta,
        )
        labeling = label_dimensions(table, lexicon, theta, keep_contributors=True)
        capped = cap_labels(labeling, limit)
        for dim, dim_counts in enumerate(counts):
            ranked = sorted(dim_counts.items(), key=lambda item: (-item[1], item[0]))
            kept = dict(ranked[:limit])
            assert capped.per_dimension[dim] == kept
            assert list(capped.contributors[dim]) == [
                record for record in records[dim] if record[1] in kept
            ]
        assert labeling_from_document(labeling_to_document(capped)) == capped

    @settings(max_examples=40)
    @given(
        instance=labeling_instances(),
        theta=st.sampled_from([0.6, 0.75, 0.9]),
        limit=st.integers(min_value=1, max_value=3),
    )
    def test_capped_contributors_match_brute_force_in_blocks_of_three(self, instance, theta, limit):
        """The same property with band blocks small enough that the drawn
        tables (up to 16 words) cross block edges."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("lex2vec.labeling._BAND_BLOCK", 3)
            check = self.test_capped_contributors_match_brute_force.hypothesis.inner_test
            check(self, instance, theta, limit)


class TestLabelingMemory:
    def test_band_test_copies_no_labeled_rows(self):
        """Labeling a table whose every word is labeled allocates well under a
        float64 copy of those rows; at 300 dimensions, a copy of the boolean
        hits of a label that every word carries is more than a quarter of it."""
        words = tuple(f"w{i}" for i in range(20_000))
        lexicon = Lexicon("all", {}, (("w", frozenset({"x"})),))
        for dim_count, bound in ((100, 0.5), (300, 0.25)):
            vectors = np.random.default_rng(5).random((20_000, dim_count))
            vectors.setflags(write=False)
            table = NormalizedEmbeddingTable(words, vectors)
            tracemalloc.start()
            try:
                labeling = label_dimensions(table, lexicon, 0.75)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            in_band = (table.vectors > 0.75) | (table.vectors < 0.25)
            counts = [per_label["x"] for per_label in labeling.per_dimension]
            assert counts == in_band.sum(axis=0).tolist()
            assert peak < bound * table.vectors.nbytes, dim_count
