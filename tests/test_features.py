import random

import pytest

from mooctrace import features as ft
from mooctrace.events import ActivityToken as T
from mooctrace.events import Event
from mooctrace.footprint import (
    SECONDS_PER_WEEK,
    Setup,
    build_curr_sequences,
    build_tcurr_sequences,
)

COURSE_START = 0.0
MIXED_WEEK_SEQ = [T.PL, T.PA, T.FW, T.RCI, T.PA, T.Vf, T.Po]


class TestNgramFeatures:
    def test_three_token_sequence(self):
        counts = ft.ngram_features([T.PL, T.PA, T.FW])
        assert counts == {"ng:PL_PA": 1, "ng:PA_FW": 1, "ng:PL_PA_FW": 1}

    def test_single_token_empty(self):
        assert ft.ngram_features([T.PL]) == {}

    def test_mixed_week_total_occurrences(self):
        counts = ft.ngram_features(MIXED_WEEK_SEQ)
        assert sum(counts.values()) == 6 + 5 + 4 + 3

    def test_repeats_counted(self):
        counts = ft.ngram_features([T.Vt, T.Po, T.Vt, T.Po], n_min=2, n_max=2)
        assert counts["ng:Vt_Po"] == 2 and counts["ng:Po_Vt"] == 1

    def test_window_total_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            length = rng.randint(5, 40)
            tokens = [rng.choice(list(T)) for _ in range(length)]
            total = sum(ft.ngram_features(tokens).values())
            assert total == (length - 1) + (length - 2) + (length - 3) + (length - 4)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ft.ngram_features([T.PL], n_min=1, n_max=5)


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
    """(bins, threshold) of a Dichotomizer fitted on values."""
    d = ft.Dichotomizer.fit(values, strategy)
    return [d.apply(v) for v in values], d.threshold


class TestDichotomize:
    def test_equal_width_midpoint(self):
        bins, threshold = fit_and_apply([0.0, 0.2, 0.6, 1.0], "equal_width")
        assert threshold == 0.5 and bins == [0, 0, 1, 1]

    def test_equal_frequency_lower_median(self):
        bins, threshold = fit_and_apply([1, 2, 3, 4], "equal_frequency")
        assert threshold == 2 and bins == [0, 0, 1, 1]

    def test_constant_input_all_zero(self):
        for strategy in ("equal_width", "equal_frequency"):
            bins, _ = fit_and_apply([5, 5, 5], strategy)
            assert bins == [0, 0, 0]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            ft.Dichotomizer.fit([1.0], "quartile")

    def test_fitted_reuse_on_unseen_values(self):
        d = ft.Dichotomizer.fit([0.0, 1.0], "equal_width")
        assert d.apply(0.49) == 0 and d.apply(0.5) == 1 and d.apply(2.0) == 1


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


class TestSequenceLength:
    @pytest.mark.parametrize("tokens,expected", [(MIXED_WEEK_SEQ, 7), ([T.PL], 1)])
    def test_lengths(self, tokens, expected):
        curr, tcurr = build_sequences({1: {1: tokens}})
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.GRAPH)
        assert ds.instances[0].features["ctl:seq_length"] == expected


class TestAssembleDataset:
    def test_labels_mark_last_participation_week(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.BASELINE)
        labels = {fv.instance_id[:2]: fv.label for fv in ds.instances}
        assert labels == {(1, 1): 0, (1, 2): 0, (1, 3): 1, (2, 2): 1}

    def test_dropout_labels_any_key_order(self):
        keys = [(2, 5), (1, 3), (1, 1), (2, 2)]
        assert ft.dropout_labels(keys) == {(2, 5): 1, (1, 3): 1, (1, 1): 0, (2, 2): 0}

    def test_exactly_one_positive_per_student(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        ds = ft.assemble_dataset(curr, tcurr, Setup.TCURR, ft.ModelFamily.GRAPH)
        per_student = {}
        for fv in ds.instances:
            sid = fv.instance_id[0]
            per_student[sid] = per_student.get(sid, 0) + fv.label
        assert all(v == 1 for v in per_student.values())

    def test_controls_present(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.GRAPH)
        fv = ds.instances[0]  # student 1, week 1: PL PA
        assert fv.features["ctl:courseweek"] == 1.0
        assert fv.features["ctl:userweek"] == 1.0
        assert fv.features["ctl:seq_length"] == 2.0
        assert fv.features["ctl:nominal=video_only"] == 1.0

    def test_graph_family_features(self):
        curr, tcurr = build_sequences({1: {1: [T.Vt, T.Po, T.Vt, T.Po, T.Po]}})
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.GRAPH)
        feats = ds.instances[0].features
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
            ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, family)
            names[family] = set().union(*(fv.features for fv in ds.instances))
        assert names[ft.ModelFamily.COMBINED] == (
            names[ft.ModelFamily.BASELINE] | names[ft.ModelFamily.GRAPH]
        )


class TestSplitByStudent:
    def test_range_assignment(self):
        curr, tcurr = build_sequences(
            {5: {1: [T.PL]}, 800000: {1: [T.PA], 2: [T.Vt]}}
        )
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.BASELINE)
        train, test = ft.split_by_student(ds, 798619, 1882807)
        assert {fv.instance_id[0] for fv in train.instances} == {5}
        assert {fv.instance_id[0] for fv in test.instances} == {800000}

    def test_empty_test_warns(self):
        curr, tcurr = build_sequences({5: {1: [T.PL]}})
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.BASELINE)
        with pytest.warns(UserWarning, match="test split is empty"):
            _, test = ft.split_by_student(ds, 100, 200)
        assert test.instances == []

    def test_students_never_span_sides(self):
        rng = random.Random(17)
        layout = {
            sid: {w: [rng.choice(list(T))] for w in range(1, rng.randint(2, 5))}
            for sid in rng.sample(range(1, 2_000_000), 30)
        }
        curr, tcurr = build_sequences(layout)
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.BASELINE)
        lo, hi = 500_000, 1_500_000
        train, test = ft.split_by_student(ds, lo, hi)
        train_ids = {fv.instance_id[0] for fv in train.instances}
        test_ids = {fv.instance_id[0] for fv in test.instances}
        assert not train_ids & test_ids
        assert all(lo <= sid <= hi for sid in test_ids)


class TestRareThreshold:
    def make_dataset(self, supports):
        # Feature f{k} is nonzero in `supports[k]` instances.
        n = max(supports) + 1
        instances = []
        for row in range(n):
            feats = {"ctl:courseweek": float(row + 1)}
            for k, support in enumerate(supports):
                if row < support:
                    feats[f"ng:f{k}"] = 1.0
            instances.append(ft.FeatureVector((row, 1, "curr"), feats, row % 2))
        return ft.Dataset(instances, Setup.CURR, ft.ModelFamily.BASELINE)

    def test_support_threshold(self):
        ds = self.make_dataset(list(range(1, 11)))
        filtered, retained = ft.apply_rare_threshold(ds, 4)
        ng = {n for n in retained if n.startswith("ng:")}
        assert len(ng) == 7  # supports 4..10 survive
        assert "ctl:courseweek" in retained

    def test_threshold_zero_is_identity(self):
        ds = self.make_dataset([1, 2, 3])
        filtered, retained = ft.apply_rare_threshold(ds, 0)
        assert retained == frozenset({"ctl:courseweek", "ng:f0", "ng:f1", "ng:f2"})

    def test_below_threshold_dropped_from_instances(self):
        ds = self.make_dataset([3, 5])
        filtered, retained = ft.apply_rare_threshold(ds, 4)
        assert "ng:f0" not in retained
        assert all("ng:f0" not in fv.features for fv in filtered.instances)

    def test_controls_exempt(self):
        ds = self.make_dataset([10])
        _, retained = ft.apply_rare_threshold(ds, 99)
        assert "ctl:courseweek" in retained and "ng:f0" not in retained


class TestFinalizeSplit:
    def finalized(self, setup=Setup.CURR, family=ft.ModelFamily.COMBINED):
        curr, tcurr = build_sequences(
            {
                1: {1: [T.PL, T.PA, T.PL], 2: [T.PL, T.Vf, T.Vt]},
                2: {1: [T.Vt, T.Vt, T.Po], 3: [T.PL]},
                800000: {1: [T.PL, T.FW, T.PL], 2: [T.Po, T.Vt]},
            }
        )
        ds = ft.assemble_dataset(curr, tcurr, setup, family)
        train, test = ft.split_by_student(ds, 798619, 1882807)
        return ft.finalize_split(train, test, rare_threshold=0)

    def test_shared_feature_index(self):
        train, test = self.finalized()
        assert train.feature_index == test.feature_index
        assert list(train.feature_index.values()) == sorted(train.feature_index.values())

    def test_dichotomized_values_binary(self):
        train, test = self.finalized()
        for ds in (train, test):
            for fv in ds.instances:
                for name in ft.PROP_FEATURES + ft.GRAPH_EQ_FREQ:
                    assert fv.features.get(name, 0.0) in (0.0, 1.0)

    def test_scaled_features_within_unit_interval_on_train(self):
        train, _ = self.finalized()
        for fv in train.instances:
            for name in ft.CTL_SCALED + ft.GRAPH_SCALED:
                assert 0.0 <= fv.features.get(name, 0.0) <= 1.0

    def test_thresholds_fit_on_train_only(self):
        # Refitting transforms on train must reproduce the same test output.
        train, test = self.finalized()
        curr, tcurr = build_sequences(
            {
                1: {1: [T.PL, T.PA, T.PL], 2: [T.PL, T.Vf, T.Vt]},
                2: {1: [T.Vt, T.Vt, T.Po], 3: [T.PL]},
                800000: {1: [T.PL, T.FW, T.PL], 2: [T.Po, T.Vt]},
            }
        )
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.COMBINED)
        train_raw, test_raw = ft.split_by_student(ds, 798619, 1882807)
        transforms = ft.fit_feature_transforms(train_raw)
        test_again = ft.apply_transforms(test_raw, transforms)
        test_again = ft.restrict_to_features(
            test_again, frozenset(test.feature_index)
        )
        assert [fv.features for fv in test_again.instances] == [
            fv.features for fv in test.instances
        ]

    def test_export_reproducible(self):
        train_a, test_a = self.finalized()
        train_b, test_b = self.finalized()
        assert ft.export_sparse(train_a) == ft.export_sparse(train_b)
        assert ft.export_sparse(test_a) == ft.export_sparse(test_b)


class TestMatrixRoundTrip:
    def test_sparse_export_parses_back(self):
        curr, tcurr = build_sequences(THREE_WEEK_LAYOUT)
        ds = ft.assemble_dataset(curr, tcurr, Setup.CURR, ft.ModelFamily.GRAPH)
        train, test = ft.split_by_student(ds, 2, 2)
        train, test = ft.finalize_split(train, test, rare_threshold=0)
        index = train.feature_index
        X, y = ft.read_sparse(ft.export_sparse(train), len(index))
        assert list(y) == [fv.label for fv in train.instances]
        for row, fv in zip(X, train.instances):
            assert {name: row[col] for name, col in index.items() if row[col]} == fv.features

    @pytest.mark.parametrize("item", ["5:1.0", "-1:5.0", "x:1.0", "1:abc", "3", "1.5:2.0",
                                      "2:nan", "2:inf", "2:-inf", "2:1e400"])
    def test_read_sparse_rejects_bad_items(self, item):
        with pytest.raises(ValueError):
            ft.read_sparse(f"1 0:1.0 {item}\n", 5)

    @pytest.mark.parametrize("label", ["5", "-1", "1.0", "nan"])
    def test_read_sparse_rejects_bad_labels(self, label):
        with pytest.raises(ValueError, match="row 2: label"):
            ft.read_sparse(f"1 0:1.0\n{label} 0:1.0\n", 5)
