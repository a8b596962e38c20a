import random

import pytest

from mooctrace import features as ft
from mooctrace.events import ActivityToken as T
from mooctrace.events import Event
from mooctrace.footprint import (
    SECONDS_PER_WEEK,
    build_curr_sequences,
    build_tcurr_sequences,
)
from oracles import dense, ngram_counts_bruteforce

COURSE_START = 0.0
MIXED_WEEK_SEQ = [T.PL, T.PA, T.FW, T.RCI, T.PA, T.Vf, T.Po]


def ngram_names(tokens):
    """ngram_features of tokens, with each code decoded to its name."""
    return {ft._feature_name(code): n for code, n in ft.ngram_features(tokens).items()}


def by_name(rows, names):
    """rows with each feature id or column k replaced by names[k]."""
    return [
        ft.FeatureVector(fv.instance_id, {names[k]: v for k, v in fv.features.items()}, fv.label)
        for fv in rows
    ]


class TestNgramFeatures:
    def test_three_token_sequence(self):
        counts = ngram_names([T.PL, T.PA, T.FW])
        assert counts == {"ng:PL_PA": 1, "ng:PA_FW": 1, "ng:PL_PA_FW": 1}

    def test_single_token_empty(self):
        assert ft.ngram_features([T.PL]) == {}

    def test_mixed_week_total_occurrences(self):
        counts = ft.ngram_features(MIXED_WEEK_SEQ)
        assert sum(counts.values()) == 6 + 5 + 4 + 3

    def test_repeats_counted(self):
        counts = ngram_names([T.Vt, T.Po, T.Vt, T.Po])
        bigrams = {name: c for name, c in counts.items() if name.count("_") == 1}
        assert bigrams == {"ng:Vt_Po": 2, "ng:Po_Vt": 1}

    def test_window_total_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            length = rng.randint(5, 40)
            tokens = [rng.choice(list(T)) for _ in range(length)]
            total = sum(ft.ngram_features(tokens).values())
            assert total == (length - 1) + (length - 2) + (length - 3) + (length - 4)

    def test_codes_never_collide(self):
        # Two windows sharing a code keep the total count, so every count is
        # compared. PL is token 0, so runs of it catch a code that drops
        # leading zero digits.
        assert ngram_names([T.PL, T.PA]) == {"ng:PL_PA": 1}
        assert ngram_names([T.PL, T.PL, T.PA]) == {"ng:PL_PL": 1, "ng:PL_PA": 1,
                                                   "ng:PL_PL_PA": 1}
        rng = random.Random(21)
        for _ in range(300):
            tokens = []
            length = rng.randint(0, 40)
            while len(tokens) < length:
                token = T.PL if rng.random() < 0.5 else rng.choice(list(T))
                tokens += [token] * rng.randint(1, 10)
            tokens = tokens[:length]
            assert ngram_names(tokens) == ngram_counts_bruteforce(tokens)


class TestProportions:
    def test_mixed_week_proportions(self):
        va, vp, fa, fp_ = ft.active_passive_proportions(MIXED_WEEK_SEQ)
        assert abs(vp - 0.6) < 1e-12 and abs(va - 0.4) < 1e-12
        assert abs(fa - 0.5) < 1e-12 and abs(fp_ - 0.5) < 1e-12

    def test_all_passive_video(self):
        assert ft.active_passive_proportions([T.PL, T.PL]) == (0.0, 1.0, 0.0, 0.0)

    def test_passive_forum_only(self):
        va, vp, fa, fp_ = ft.active_passive_proportions([T.Vf, T.Vt, T.Uv])
        assert (va, vp) == (0.0, 0.0)
        assert (fa, fp_) == (0.0, 1.0)

    def test_pairs_sum_to_zero_or_one(self):
        rng = random.Random(11)
        for _ in range(100):
            tokens = [rng.choice(list(T)) for _ in range(rng.randint(0, 12))]
            va, vp, fa, fp_ = ft.active_passive_proportions(tokens)
            assert va + vp in (0.0, 1.0) or abs(va + vp - 1.0) < 1e-12
            assert fa + fp_ in (0.0, 1.0) or abs(fa + fp_ - 1.0) < 1e-12


def fit_and_apply(values, strategy):
    """The map fit_value_map fits on values, and its bins of those values."""
    split = ft.fit_value_map(values, strategy)
    return split, [split(v) for v in values]


class TestDichotomize:
    def test_equal_width_midpoint(self):
        split, bins = fit_and_apply([0.0, 0.2, 0.6, 1.0], "equal_width")
        assert bins == [0.0, 0.0, 1.0, 1.0]
        assert split(0.49999) == 0.0 and split(0.5) == 1.0  # v >= midpoint

    def test_equal_frequency_lower_median(self):
        split, bins = fit_and_apply([1, 2, 3, 4], "equal_frequency")
        assert bins == [0.0, 0.0, 1.0, 1.0]
        assert split(2) == 0.0 and split(2.0001) == 1.0  # v > lower median

    def test_constant_input_all_zero(self):
        for strategy in ("equal_width", "equal_frequency", None):
            _, bins = fit_and_apply([5, 5, 5], strategy)
            assert bins == [0.0, 0.0, 0.0]
        split = ft.fit_value_map([5, 5, 5], "equal_width")
        assert split(4) == split(6) == 0.0

    def test_unknown_strategy(self):
        for values, strategy in (([1.0], "quartile"), ([], "equal_width"), ([], None)):
            with pytest.raises(ValueError):
                ft.fit_value_map(values, strategy)

    def test_fitted_reuse_on_unseen_values(self):
        split = ft.fit_value_map([0.0, 1.0], "equal_width")
        assert split(0.49) == 0 and split(0.5) == 1 and split(2.0) == 1

    def test_min_max_scaling(self):
        split = ft.fit_value_map([2.0, 4.0, 6.0], None)
        assert [split(v) for v in (2.0, 3.0, 6.0, 8.0)] == [0.0, 0.25, 1.0, 1.5]


def build_sequences(layout):
    """layout: {sid: {week: [tokens]}} -> (curr, tcurr)."""
    events = []
    for sid, weeks in layout.items():
        for week, tokens in weeks.items():
            base = COURSE_START + (week - 1) * SECONDS_PER_WEEK
            events.extend(
                Event(sid, base + 10.0 * (i + 1), tok) for i, tok in enumerate(tokens)
            )
    curr = build_curr_sequences(events, COURSE_START)
    return curr, build_tcurr_sequences(curr)


THREE_WEEK_LAYOUT = {
    1: {1: [T.PL, T.PA], 2: [T.PL, T.Vf], 3: [T.Vt, T.Po, T.Vt]},
    2: {2: [T.Vt, T.Vt, T.Po]},
}
TEST_IDS = (798619, 1882807)


def assemble_all(sequences, family):
    """Every assembled instance by feature name: the train split, then the test split."""
    train, test, keys = ft.assemble_dataset(sequences, family, TEST_IDS)
    return by_name(train + test, [ft._feature_name(key) for key in keys])


class TestSequenceLength:
    @pytest.mark.parametrize("tokens,expected", [(MIXED_WEEK_SEQ, 7), ([T.PL], 1)])
    def test_lengths(self, tokens, expected):
        curr, tcurr = build_sequences({1: {1: tokens}})
        instances = assemble_all(curr, ft.ModelFamily.GRAPH)
        assert instances[0].features["ctl:seq_length"] == expected


class TestAssembleDataset:
    def test_labels_mark_last_participation_week(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        instances = assemble_all(curr, ft.ModelFamily.BASELINE)
        labels = {fv.instance_id: fv.label for fv in instances}
        assert labels == {(1, 1): 0, (1, 2): 0, (1, 3): 1, (2, 2): 1}

    def test_dropout_labels_any_key_order(self):
        keys = [(2, 5), (1, 3), (1, 1), (2, 2)]
        assert ft.dropout_labels(keys) == {(2, 5): 1, (1, 3): 1, (1, 1): 0, (2, 2): 0}

    def test_exactly_one_positive_per_student(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        per_student = {}
        for fv in assemble_all(tcurr, ft.ModelFamily.GRAPH):
            sid = fv.instance_id[0]
            per_student[sid] = per_student.get(sid, 0) + fv.label
        assert all(v == 1 for v in per_student.values())

    def test_controls_present(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        fv = assemble_all(curr, ft.ModelFamily.GRAPH)[0]  # student 1, week 1: PL PA
        assert fv.features["ctl:courseweek"] == 1.0
        assert fv.features["ctl:userweek"] == 1.0
        assert fv.features["ctl:seq_length"] == 2.0
        assert fv.features["ctl:nominal=video_only"] == 1.0

    def test_graph_family_features(self):
        curr, tcurr = build_sequences({1: {1: [T.Vt, T.Po, T.Vt, T.Po, T.Po]}})
        feats = assemble_all(curr, ft.ModelFamily.GRAPH)[0].features
        assert feats["graph:num_nodes"] == 2.0
        assert feats["graph:num_edges"] == 4.0
        assert feats["graph:density"] == 2.0
        assert feats["graph:num_self_loops"] == 1.0
        assert feats["graph:num_scc"] == 1.0
        assert feats["graph:top1=Po"] == 1.0
        assert feats["graph:top2=Vt"] == 1.0
        assert feats["graph:central_transition=Po_Vt"] == 1.0
        assert not any(name.startswith("ng:") for name in feats)

    def test_combined_is_union(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        names = {}
        for family in ft.ModelFamily:
            names[family] = set().union(*(fv.features for fv in assemble_all(curr, family)))
        assert names[ft.ModelFamily.COMBINED] == (
            names[ft.ModelFamily.BASELINE] | names[ft.ModelFamily.GRAPH]
        )


class TestSplitByStudent:
    def test_range_assignment(self):
        curr, tcurr = build_sequences(
            {5: {1: [T.PL]}, 800000: {1: [T.PA], 2: [T.Vt]}}
        )
        train, test, _ = ft.assemble_dataset(curr, ft.ModelFamily.BASELINE, TEST_IDS)
        assert {fv.instance_id[0] for fv in train} == {5}
        assert {fv.instance_id[0] for fv in test} == {800000}

    def test_inverted_range_rejected(self):
        curr, tcurr = build_sequences({5: {1: [T.PL]}})
        with pytest.raises(ValueError, match="test_id_min must be <= test_id_max"):
            ft.assemble_dataset(curr, ft.ModelFamily.BASELINE, (200, 100))

    def test_students_never_span_sides(self):
        rng = random.Random(17)
        layout = {
            sid: {w: [rng.choice(list(T))] for w in range(1, rng.randint(2, 5))}
            for sid in rng.sample(range(1, 2_000_000), 30)
        }
        curr, tcurr = build_sequences(layout)
        lo, hi = 500_000, 1_500_000
        train, test, _ = ft.assemble_dataset(curr, ft.ModelFamily.BASELINE, (lo, hi))
        train_ids = {fv.instance_id[0] for fv in train}
        test_ids = {fv.instance_id[0] for fv in test}
        assert not train_ids & test_ids
        assert all(lo <= sid <= hi for sid in test_ids)


class TestRareThreshold:
    def finalized_train(self, supports, threshold):
        """Train split finalized with an empty test split, by feature name.

        Feature ng:f{k} is 1.0 in `supports[k]` of the instances; ctl:courseweek
        is positive in all of them and scales to 0.0 (dropped) in the first.
        """
        keys = ["ctl:courseweek", *(f"ng:f{k}" for k in range(len(supports)))]
        n = max(supports) + 1
        instances = []
        for row in range(n):
            feats = {0: float(row + 1)}
            for k, support in enumerate(supports):
                if row < support:
                    feats[k + 1] = 1.0
            instances.append(ft.FeatureVector((row, 1), feats, row % 2))
        raw = by_name(instances, keys)  # before finalize_split replaces the rows
        index, train, test = ft.finalize_split(instances, [], keys, threshold)
        assert test == []
        return raw, index, by_name(train, list(index))

    def test_support_threshold(self):
        _, index, train = self.finalized_train(list(range(1, 11)), 4)
        ng = [n for n in index if n.startswith("ng:")]
        assert ng == [f"ng:f{k}" for k in range(3, 10)]  # supports 4..10 survive
        assert index["ctl:courseweek"] == 0
        for fv in train:
            assert set(fv.features) <= set(index)

    def test_threshold_zero_is_identity(self):
        raw, index, train = self.finalized_train([1, 2, 3], 0)
        assert index == {
            "ctl:courseweek": 0, "ng:f0": 1, "ng:f1": 2, "ng:f2": 3,
        }
        for before, after in zip(raw, train):
            assert {n: v for n, v in after.features.items() if n.startswith("ng:")} == {
                n: v for n, v in before.features.items() if n.startswith("ng:")
            }

    def test_below_threshold_dropped_from_instances(self):
        _, index, train = self.finalized_train([3, 5], 4)
        assert "ng:f0" not in index
        assert all("ng:f0" not in fv.features for fv in train)
        assert sum("ng:f1" in fv.features for fv in train) == 5

    def test_controls_exempt(self):
        _, index, train = self.finalized_train([10], 99)
        assert index == {"ctl:courseweek": 0}
        assert [fv.features for fv in train] == [{}] + [
            {"ctl:courseweek": row / 10} for row in range(1, 11)
        ]


class TestFinalizeSplit:
    LAYOUT = {
        1: {1: [T.PL, T.PA, T.PL], 2: [T.PL, T.Vf, T.Vt]},
        2: {1: [T.Vt, T.Vt, T.Po], 3: [T.PL]},
        800000: {1: [T.PL, T.FW, T.PL], 2: [T.Po, T.Vt]},
    }

    def finalized(self, family=ft.ModelFamily.COMBINED):
        curr, _ = build_sequences(self.LAYOUT)
        return ft.finalize_split(*ft.assemble_dataset(curr, family, TEST_IDS), rare_threshold=0)

    def test_shared_feature_index(self):
        index, train, test = self.finalized()
        assert list(index.values()) == list(range(len(index)))
        assert list(index) == sorted(index)
        for fv in train + test:
            assert set(fv.features) <= set(index.values())

    def test_dichotomized_values_binary(self):
        index, train, test = self.finalized()
        for rows in (train, test):
            for fv in by_name(rows, list(index)):
                for name in ft.PROP_FEATURES + ft.GRAPH_EQ_FREQ:
                    assert fv.features.get(name, 0.0) in (0.0, 1.0)

    def test_scaled_features_within_unit_interval_on_train(self):
        index, train, _ = self.finalized()
        for fv in by_name(train, list(index)):
            for name in ft.CTL_SCALED + ft.GRAPH_SCALED:
                assert 0.0 <= fv.features.get(name, 0.0) <= 1.0

    def test_thresholds_fit_on_train_only(self):
        # A test instance with extreme controls and new names changes nothing
        # that finalize_split fits, nor any other row.
        index, train, test = self.finalized()
        curr, tcurr = build_sequences({**self.LAYOUT, 900000: {40: [T.Po, T.FW] * 15}})
        index_b, train_b, test_b = ft.finalize_split(
            *ft.assemble_dataset(curr, ft.ModelFamily.COMBINED, TEST_IDS), rare_threshold=0
        )
        assert index_b == index
        assert train_b == train
        assert test_b[: len(test)] == test
        assert [fv.instance_id for fv in test_b[len(test) :]] == [(900000, 40)]

    def test_each_value_mapped_once_in_place(self, monkeypatch):
        # Each value map runs once per train or test row that holds its id,
        # and the rows are finalized in the very lists given.
        fit, calls = ft.fit_value_map, []

        def counting_fit(values, strategy):
            value_map, k = fit(values, strategy), len(calls)
            calls.append(0)

            def counted(value):
                calls[k] += 1
                return value_map(value)

            return counted

        monkeypatch.setattr(ft, "fit_value_map", counting_fit)
        curr, _ = build_sequences(self.LAYOUT)
        train, test, keys = ft.assemble_dataset(curr, ft.ModelFamily.COMBINED, TEST_IDS)
        assert train and test
        holding = [
            sum(i in fv.features for fv in train + test)
            for i, key in enumerate(keys)
            if key in ft._TRANSFORMS  # the order finalize_split fits them in
        ]
        _, train_out, test_out = ft.finalize_split(train, test, keys, rare_threshold=0)
        assert calls == holding
        assert train_out is train and test_out is test

    def test_export_reproducible(self):
        index_a, train_a, test_a = self.finalized()
        index_b, train_b, test_b = self.finalized()
        assert index_a == index_b
        assert ft.export_sparse(train_a) == ft.export_sparse(train_b)
        assert ft.export_sparse(test_a) == ft.export_sparse(test_b)

    CTL_NAMES = [
        "ctl:courseweek", "ctl:nominal=both", "ctl:nominal=forum_only",
        "ctl:nominal=video_only", "ctl:seq_length", "ctl:userweek",
    ]
    GOLDEN = {
        ft.ModelFamily.BASELINE: (
            "0 3:1.0 4:1.0 7:1.0\n"
            "1 0:0.5 1:1.0 4:1.0 5:0.5 6:1.0 7:1.0\n"
            "0 2:1.0 4:1.0 6:1.0\n"
            "1 0:1.0 3:1.0 5:1.0 7:1.0\n",
            "0 3:1.0 4:1.0 7:1.0\n"
            "1 0:0.5 2:1.0 4:0.5 5:0.5 6:1.0\n",
            CTL_NAMES + ["prop:forum_passive", "prop:video_passive"],
        ),
        ft.ModelFamily.GRAPH: (
            "0 3:1.0 4:1.0 6:1.0 8:1.0\n"
            "1 0:0.5 1:1.0 4:1.0 5:0.5 7:1.0 9:1.0\n"
            "0 2:1.0 4:1.0 6:1.0 7:0.5 9:1.0\n"
            "1 0:1.0 3:1.0 5:1.0 8:1.0\n",
            "0 3:1.0 4:1.0 6:1.0 8:1.0\n"
            "1 0:0.5 2:1.0 4:0.5 5:0.5 6:1.0 7:0.5\n",
            CTL_NAMES + ["graph:density", "graph:num_scc", "graph:top1=PL", "graph:top2=Vt"],
        ),
        ft.ModelFamily.COMBINED: (
            "0 3:1.0 4:1.0 6:1.0 8:1.0 11:1.0\n"
            "1 0:0.5 1:1.0 4:1.0 5:0.5 7:1.0 9:1.0 10:1.0 11:1.0\n"
            "0 2:1.0 4:1.0 6:1.0 7:0.5 9:1.0 10:1.0\n"
            "1 0:1.0 3:1.0 5:1.0 8:1.0 11:1.0\n",
            "0 3:1.0 4:1.0 6:1.0 8:1.0 11:1.0\n"
            "1 0:0.5 2:1.0 4:0.5 5:0.5 6:1.0 7:0.5 10:1.0\n",
            CTL_NAMES + ["graph:density", "graph:num_scc", "graph:top1=PL", "graph:top2=Vt",
                         "prop:forum_passive", "prop:video_passive"],
        ),
    }

    @pytest.mark.parametrize("family", list(ft.ModelFamily))
    def test_golden_export(self, family):
        # Every n-gram and the test-only FW features fall below support 2.
        curr, tcurr = build_sequences(self.LAYOUT)
        index, train, test = ft.finalize_split(
            *ft.assemble_dataset(curr, family, TEST_IDS), rare_threshold=2
        )
        train_text, test_text, names = self.GOLDEN[family]
        assert ft.export_sparse(train) == train_text
        assert ft.export_sparse(test) == test_text
        assert index == {name: i for i, name in enumerate(names)}


class TestMatrixRoundTrip:
    def test_sparse_export_parses_back(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        index, train, test = ft.finalize_split(
            *ft.assemble_dataset(curr, ft.ModelFamily.GRAPH, (2, 2)), rare_threshold=0
        )
        X, y = ft.read_sparse(ft.export_sparse(train), len(index))
        assert list(y) == [fv.label for fv in train]
        for row, fv in zip(dense(X), train):
            assert {col: row[col] for col in index.values() if row[col]} == fv.features

    @pytest.mark.parametrize("item", ["5:1.0", "-1:5.0", "x:1.0", "1:abc", "3", "1.5:2.0",
                                      "2:nan", "2:inf", "2:-inf", "2:1e400", "2:1e200",
                                      "0:2.0", "3:1.0 2:1.0", "1_0:1.0", "\u0661\u0662:2.5",
                                      "3:1_0.5", "+3:1.0", " 2:1.0", "2:1.0 ", "2:\t1.0",
                                      "2:1.0\r", "2:1.0\x0c", "2:1.0\u2028", "2:1.0\n"])
    def test_read_sparse_rejects_bad_items(self, item):
        with pytest.raises(ValueError):
            ft.read_sparse(f"1 0:1.0 {item}\n", 5)

    @pytest.mark.parametrize("text, message", [
        ("1 0:1.0\x0c0 1:2.0\n", "row 1: item '0:1.0\\x0c0' is not int:float"),
        ("1 0:1.0\u20280 1:2.0\n", "row 1: item '0:1.0\\u20280' is not int:float"),
        ("1 0:1.0\n\n0 1:2.0\n", "row 2: label '' is not 0 or 1"),
        ("1 0:1.0\n0 1:2.0\r\n", "row 2: item '1:2.0\\r' is not int:float"),
        ("1 0:1.0\n0\t1:2.0\n", "row 2: label '0\\t1:2.0' is not 0 or 1"),
        ("1 0:1.0  1:2.0\n", "row 1: item '' is not int:float"),
        ("1 0:1.0 \n", "row 1: item '' is not int:float"),
    ])
    def test_read_sparse_splits_only_at_newline_and_space(self, text, message):
        with pytest.raises(ValueError) as info:
            ft.read_sparse(text, 5)
        assert str(info.value) == message

    @pytest.mark.parametrize("label", ["5", "-1", "1.0", "nan"])
    def test_read_sparse_rejects_bad_labels(self, label):
        with pytest.raises(ValueError, match="row 2: label"):
            ft.read_sparse(f"1 0:1.0\n{label} 0:1.0\n", 5)
