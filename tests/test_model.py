import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mooctrace import features as ft
from mooctrace import model as m
from mooctrace.model import Csr
from oracles import csr, dense, rbf_decision_bruteforce, svm_dual_objective, svm_dual_qp

TOY_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
TOY_Y = np.array([0, 0, 1, 1])
TOY_PARAMS = m.SvmParams(C=10.0, gamma=1.0, class_cost={0: 1.0, 1: 1.0})


def kernel_value(x, y, gamma):
    """K(x, y) read off the decision value of a one-SV model (alpha 1, bias 0)."""
    model = m.TrainedModel(
        support_vectors=csr([y]),
        sv_labels=np.ones(1),
        alphas=np.ones(1),
        bias=0.0,
        params=m.SvmParams(gamma=gamma),
        converged=True,
        n_iterations=0,
    )
    (value,) = m.decision_function(model, csr([x]))
    return value


class TestRbfKernel:
    def test_identical_points(self):
        assert kernel_value([1.0, 2.0], [1.0, 2.0], 0.7) == 1.0

    def test_gamma_zero_limit(self):
        assert kernel_value([0.0], [100.0], 0.0) == 1.0

    def test_unit_distance(self):
        value = kernel_value([0.0, 0.0], [1.0, 1.0], 0.5)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_value([1.0], [1.0, 2.0], 1.0)

    def test_kernel_matrix_psd(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(50, 6))
        sq = np.sum(X**2, axis=1)
        K = np.exp(-0.3 * (sq[:, None] + sq[None, :] - 2 * X @ X.T))
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def sparse_like(rng, n_rows, n_cols, density=0.1):
    """Nonnegative rows with about density * n_cols nonzero entries each."""
    return rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)


class TestBatchedDecision:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        n_cols = 40
        sv = sparse_like(rng, 30, n_cols, density=0.3)
        X = sparse_like(rng, 2 * m._ROW_BLOCK + 5, n_cols)
        X[3] = sv[7]          # distance 0: the clamp keeps K <= 1
        X[-1] = 1e3           # far away: every kernel value underflows to 0
        model = m.TrainedModel(
            support_vectors=csr(sv),
            sv_labels=np.where(rng.random(30) < 0.5, -1.0, 1.0),
            alphas=rng.random(30) * 2.0,
            bias=0.3,
            params=m.SvmParams(gamma=1.0 / n_cols),
            converged=True,
            n_iterations=0,
        )
        assert len(X) > 2 * m._ROW_BLOCK
        fast = m.decision_function(model, csr(X))
        slow = rbf_decision_bruteforce(
            sv, model.alphas, model.sv_labels, model.bias, model.params.gamma, X
        )
        scale = np.abs(model.alphas).sum()
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12 * scale)
        assert fast[-1] == model.bias

    def test_kernel_never_exceeds_one(self):
        # Large norms make ||a||^2 + ||a||^2 - 2 a.a round away from 0.
        rng = np.random.default_rng(23)
        for row in 1e6 + rng.random((20, 8)):
            assert kernel_value(row, row, 1.0) <= 1.0

    def test_zero_rows(self):
        model = m.fit_svm(csr(TOY_X), TOY_Y, TOY_PARAMS)
        assert m.decision_function(model, csr(np.zeros((0, 2)))).shape == (0,)


def sparse_text(rng, n_rows, n_cols):
    """`label col:value` rows over n_cols columns, as read_sparse reads them.

    Columns 0-2 are nonzero in most rows, as the control variables are. Row 0
    is all zero, row 1 has over a quarter of its columns nonzero, and row 2
    lists every column, its zeros as explicit `col:0.0` items.
    """
    X = sparse_like(rng, n_rows, n_cols, density=0.05)
    X[:, :3] = sparse_like(rng, n_rows, 3, density=0.8)
    X[0] = 0.0
    X[1, : n_cols // 2] = rng.random(n_cols // 2) + 0.1
    y = (X[:, :8].sum(axis=1) + 0.2 * rng.random(n_rows) > 0.3).astype(int)
    lines = []
    for r, row in enumerate(X):
        cols = range(n_cols) if r == 2 else np.flatnonzero(row)
        lines.append(" ".join([str(y[r])] + [f"{c}:{float(row[c])!r}" for c in cols]))
    return "\n".join(lines) + "\n", X


class TestSparseKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_fit_and_predict_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n_cols = 60
        text, X = sparse_text(rng, 120, n_cols)
        test_text, X_test = sparse_text(rng, 2 * m._ROW_BLOCK + 3, n_cols)
        train, y = ft.read_sparse(text, n_cols)
        test, _ = ft.read_sparse(test_text, n_cols)
        assert np.array_equal(dense(train), X) and np.all(train.data != 0)
        assert len(train.indices) < len(text.split(":")) - 1  # the explicit zeros are gone
        model = m.fit_svm(train, y, m.SvmParams(C=2.0, seed=seed))
        assert model.converged and np.all(model.support_vectors.data != 0)
        sv = dense(model.support_vectors)
        args = (model.alphas, model.sv_labels, model.bias, model.params.gamma)
        scale = np.abs(model.alphas).sum()
        np.testing.assert_allclose(m.decision_function(model, test),
                                   rbf_decision_bruteforce(sv, *args, X_test),
                                   rtol=1e-12, atol=1e-12 * scale)
        # KKT from kernel values the solver never computed: a free support
        # vector sits on the margin, a bounded one on or inside it.
        margin = model.sv_labels * rbf_decision_bruteforce(sv, *args, sv)
        caps = np.array([model.params.C * model.params.class_cost[int(lbl > 0)]
                         for lbl in model.sv_labels])
        free = model.alphas < caps - 1e-12
        assert free.any()
        assert np.all(np.abs(margin[free] - 1.0) < model.params.tolerance)
        assert np.all(margin[~free] < 1.0 + model.params.tolerance)

    @pytest.mark.parametrize("share", [m._TRAIN_SHARE, m._PREDICT_SHARE])
    def test_dot_products_match_dense(self, share):
        rng = np.random.default_rng(share)
        text, X = sparse_text(rng, 90, 40)
        matrix, _ = ft.read_sparse(text, 40)
        index = m.RowDots(matrix, share)
        assert 0 < len(index.dense[0]) < 40  # both parts in use
        exact = X @ X.T
        for i in range(len(X)):  # one row, as a training-kernel column
            row = index.dots(index.dense[i : i + 1], index.rare, i, i + 1)[0]
            np.testing.assert_allclose(row, exact[i], rtol=1e-12, atol=1e-12)
        block = index.dots(index.dense[5:70], index.rare, 5, 70)  # rows, as in prediction
        np.testing.assert_allclose(block, exact[5:70], rtol=1e-12, atol=1e-12)

    def test_memory_scales_with_nonzeros(self):
        # 400 x 50,000 with at most 10 nonzeros per row: any dense n x
        # n_features float array would take 160 MB.
        rng = np.random.default_rng(4)
        n, d = 400, 50_000
        cols = [np.unique(rng.integers(0, d, 10)) for _ in range(n)]
        indptr = np.concatenate(([0], np.cumsum([len(c) for c in cols])))
        X = Csr(indptr, np.concatenate(cols), rng.random(indptr[-1]) + 0.5, d)
        y = (rng.random(n) < 0.3).astype(int)
        tracemalloc.start()
        try:
            model = m.fit_svm(X, y, m.SvmParams(seed=1))
            values = m.decision_function(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == n and len(model.alphas) > 0
        assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


def kkt_violations(model: m.TrainedModel) -> tuple[float, float]:
    """(max box violation, |sum alpha_i y_i|) over the support vectors."""
    cost = model.params.class_cost
    caps = np.array(
        [model.params.C * cost[1 if lbl > 0 else 0] for lbl in model.sv_labels]
    )
    box = max(
        float(np.max(-model.alphas, initial=0.0)),
        float(np.max(model.alphas - caps, initial=0.0)),
    )
    return box, abs(float(np.dot(model.alphas, model.sv_labels)))


class TestSmoTraining:
    def test_separable_toy_perfect_accuracy(self):
        model = m.fit_svm(csr(TOY_X), TOY_Y, TOY_PARAMS)
        assert model.converged
        assert list(m.predict_all(model, csr(TOY_X))) == list(TOY_Y)

    def test_toy_matches_qp_oracle_objective(self):
        model = m.fit_svm(csr(TOY_X), TOY_Y, TOY_PARAMS)
        _, qp_objective = svm_dual_qp(TOY_X, TOY_Y, [10.0] * 4, gamma=1.0)
        smo_objective = svm_dual_objective(model)
        assert smo_objective == pytest.approx(qp_objective, rel=1e-4, abs=1e-6)

    def test_kkt_constraints_hold(self):
        model = m.fit_svm(csr(TOY_X), TOY_Y, TOY_PARAMS)
        box, eq = kkt_violations(model)
        assert box <= 10 * TOY_PARAMS.tolerance
        assert eq <= 10 * TOY_PARAMS.tolerance

    def test_dual_objective_nondecreasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        params = m.SvmParams(C=2.0, gamma=0.8, seed=1)
        model = m.fit_svm(csr(X), y, params)
        # The objective after step k is that of the model stopped at k steps.
        trace = np.array([
            svm_dual_objective(m.fit_svm(csr(X), y, dataclasses.replace(params, max_iter=k)))
            for k in range(1, model.n_iterations + 1)
        ])
        assert len(trace) > 1
        assert np.all(np.diff(trace) >= -1e-9)

    def test_two_point_problem(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([0, 1])
        model = m.fit_svm(csr(X), y, m.SvmParams(C=5.0, gamma=1.0))
        assert list(m.predict_all(model, csr(X))) == [0, 1]

    def test_symmetric_midpoint_ties_to_zero(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        model = m.fit_svm(csr(X), np.array([0, 1]), m.SvmParams(C=1.0, gamma=1.0))
        origin = np.array([[0.0, 0.0]])
        assert m.decision_function(model, csr(origin))[0] == pytest.approx(0.0, abs=1e-9)
        assert list(m.predict_all(model, csr(origin))) == [0]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            m.fit_svm(csr(TOY_X), np.zeros(4, dtype=int), TOY_PARAMS)

    def test_duplicate_points_survive(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        model = m.fit_svm(csr(X), y, m.SvmParams(C=3.0, gamma=1.0, seed=2))
        assert list(m.predict_all(model, csr(X))) == [0, 0, 1, 1]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.4).astype(int)
        a = m.fit_svm(csr(X), y, m.SvmParams(C=1.0, seed=7))
        b = m.fit_svm(csr(X), y, m.SvmParams(C=1.0, seed=7))
        assert np.array_equal(a.alphas, b.alphas) and a.bias == b.bias

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        y = (rng.random(80) < 0.5).astype(int)
        model = m.fit_svm(csr(X), y, m.SvmParams(C=1.0, max_iter=3))
        assert model.n_iterations == 3 and not model.converged

    @pytest.mark.parametrize("seed", range(32, 40))
    def test_column_permutation_changes_nothing(self, seed):
        # Permuting the feature columns changes only the summation order of
        # the kernel values. Seed 36 took 200 and 202 steps when the working
        # set was an exact argmax, which picks between tied scores by rounding.
        rng = np.random.default_rng(seed)
        n, d = 200, 80
        X = rng.integers(0, 3, (n, d)) * (rng.random((n, d)) < 0.08) * rng.random((n, d))
        y = (X[:, :6].sum(axis=1) + rng.random(n) > 1.5).astype(int)
        perm = rng.permutation(d)
        a = m.fit_svm(csr(X), y, m.SvmParams(seed=1))
        b = m.fit_svm(csr(X[:, perm]), y, m.SvmParams(seed=1))
        assert a.n_iterations == b.n_iterations
        assert np.array_equal(dense(a.support_vectors)[:, perm], dense(b.support_vectors))
        assert np.array_equal(m.predict_all(a, csr(X)), m.predict_all(b, csr(X[:, perm])))

    def test_kkt_gap_reported(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        y = (rng.random(80) < 0.5).astype(int)
        stopped = m.fit_svm(csr(X), y, m.SvmParams(C=1.0, max_iter=3))
        done = m.fit_svm(csr(X), y, m.SvmParams(C=1.0))
        assert stopped.kkt_gap >= stopped.params.tolerance
        assert done.converged and done.kkt_gap < done.params.tolerance


def imbalanced_fixture(seed=1234, n_train=200, n_eval=400, minority=0.05):
    rng = np.random.default_rng(seed)

    def sample(n):
        n_pos = max(1, round(n * minority))
        X_neg = rng.normal(loc=0.0, scale=1.0, size=(n - n_pos, 2))
        X_pos = rng.normal(loc=1.2, scale=1.0, size=(n_pos, 2))
        X = np.vstack([X_neg, X_pos])
        y = np.array([0] * (n - n_pos) + [1] * n_pos)
        order = rng.permutation(n)
        return X[order], y[order]

    return sample(n_train), sample(n_eval)


class TestCostSensitivity:
    def test_minority_weighting_lowers_fnr(self):
        (X_tr, y_tr), (X_ev, y_ev) = imbalanced_fixture()
        uniform = m.fit_svm(
            csr(X_tr), y_tr, m.SvmParams(C=1.0, gamma=0.5, class_cost={0: 1.0, 1: 1.0})
        )
        weighted = m.fit_svm(
            csr(X_tr), y_tr, m.SvmParams(C=1.0, gamma=0.5, class_cost={0: 1.0, 1: 19.0})
        )
        report_u = m.evaluate(list(m.predict_all(uniform, csr(X_ev))), list(y_ev))
        report_w = m.evaluate(list(m.predict_all(weighted, csr(X_ev))), list(y_ev))
        assert report_w["fnr"] < report_u["fnr"]

    def test_default_cost_is_inverse_frequency(self):
        y = np.array([0] * 95 + [1] * 5)
        assert m.default_class_cost(y) == {0: 1.0, 1: 19.0}

    def test_default_cost_majority_flip(self):
        y = np.array([1] * 80 + [0] * 20)
        assert m.default_class_cost(y) == {0: 4.0, 1: 1.0}


class TestEvaluate:
    def test_perfect_predictions(self):
        report = m.evaluate([1, 0, 1], [1, 0, 1])
        assert (report["accuracy"], report["kappa"], report["fnr"]) == (1.0, 1.0, 0.0)

    def test_formula_example(self):
        predictions = [1] * 40 + [0] * 10 + [1] * 20 + [0] * 30
        labels = [1] * 50 + [0] * 50
        report = m.evaluate(predictions, labels)
        assert report["confusion"] == {"tp": 40, "fn": 10, "fp": 20, "tn": 30}
        assert report["accuracy"] == pytest.approx(0.7, abs=1e-12)
        assert report["kappa"] == pytest.approx(0.4, abs=1e-12)
        assert report["fnr"] == pytest.approx(0.2, abs=1e-12)

    def test_constant_predictor_kappa_zero(self):
        report = m.evaluate([0] * 10, [1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
        assert report["kappa"] == 0.0

    def test_no_positives_fnr_zero(self):
        assert m.evaluate([0, 0], [0, 0])["fnr"] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        predictions = list((rng.random(60) < 0.5).astype(int))
        labels = list((rng.random(60) < 0.3).astype(int))
        base = m.evaluate(predictions, labels)
        order = rng.permutation(60)
        shuffled = m.evaluate(
            [predictions[i] for i in order], [labels[i] for i in order]
        )
        assert base == shuffled

    def test_fnr_footnote_consistency(self):
        report = m.evaluate([0, 1, 1, 0], [1, 1, 1, 0])
        identified_pct = 100 - 100 * report["fnr"]
        tp, fn = report["confusion"]["tp"], report["confusion"]["fn"]
        assert identified_pct == pytest.approx(100 * tp / (tp + fn))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            m.evaluate([1], [1, 0])


class TestPairedTtest:
    def test_identical_vectors(self):
        assert m.paired_ttest([1, 0, 1], [1, 0, 1]) == (0.0, 1.0, 2)

    def test_textbook_example(self):
        t, p, df = m.paired_ttest([1, 0, 1, 0, 1], [0, 0, 1, 0, 0])
        assert df == 4
        assert t == pytest.approx(1.6329931618554523, rel=1e-12)
        oracle = scipy_stats.ttest_rel([1, 0, 1, 0, 1], [0, 0, 1, 0, 0])
        assert t == pytest.approx(oracle.statistic, rel=1e-9)
        assert p == pytest.approx(oracle.pvalue, rel=1e-9)

    def test_zero_variance_nonzero_mean(self):
        t, p, df = m.paired_ttest([1, 1, 1], [0, 0, 0])
        assert math.isinf(t) and t > 0 and p == 0.0 and df == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            m.paired_ttest([1], [0])


def gain(a, b, labels):
    """The interaction gain of one pair, as interaction_gain_ranking gives it."""
    ((_, _, value),) = m.interaction_gain_ranking({"a": a, "b": b}, labels)
    return value


class TestInteractionGain:
    def test_xor_full_synergy(self):
        a = [0, 0, 1, 1] * 25
        b = [0, 1, 0, 1] * 25
        labels = [x ^ y for x, y in zip(a, b)]
        assert gain(a, b, labels) == pytest.approx(1.0, abs=1e-9)

    def test_redundant_features(self):
        a = [0, 0, 1, 1] * 25
        labels = list(a)
        assert gain(a, a, labels) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_second_feature_neutral(self):
        a = [0, 1, 0, 1]
        b = [1, 1, 1, 1]
        assert gain(a, b, [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_class_returns_zero(self):
        assert gain([0, 1], [1, 0], [1, 1]) == 0.0

    def test_symmetric_in_features(self):
        rng = np.random.default_rng(8)
        a = list(rng.integers(0, 3, 40))
        b = list(rng.integers(0, 2, 40))
        labels = list(rng.integers(0, 2, 40))
        assert gain(a, b, labels) == pytest.approx(gain(b, a, labels), abs=1e-12)

    def test_ranking_sorted_descending(self):
        columns = {
            "a": [0, 0, 1, 1] * 10,
            "b": [0, 1, 0, 1] * 10,
            "c": [1, 1, 1, 1] * 10,
        }
        labels = [x ^ y for x, y in zip(columns["a"], columns["b"])]
        ranking = m.interaction_gain_ranking(columns, labels)
        gains = [g for _, _, g in ranking]
        assert gains == sorted(gains, reverse=True)
        assert ranking[0][:2] == ("a", "b")

    def test_ranking_equals_pairwise_gain_exactly(self):
        rng = np.random.default_rng(12)
        n = 300
        labels = [int(x) for x in rng.integers(0, 2, n)]
        columns = {f"c{k}": [int(x) for x in rng.integers(0, k + 1, n)] for k in range(6)}
        columns["leak"] = list(labels)
        ranking = m.interaction_gain_ranking(columns, labels)
        assert len(ranking) == 7 * 6 // 2
        for a, b, value in ranking:
            assert value == gain(columns[a], columns[b], labels), (a, b)

    def test_ranking_computes_each_column_entropy_once(self, monkeypatch):
        calls = []
        entropy = m._conditional_entropy
        monkeypatch.setattr(m, "_conditional_entropy",
                            lambda column, labels: calls.append(1) or entropy(column, labels))
        columns = {name: [0, 1, 1, 0, 1] for name in "abcdefghijk"}
        assert len(m.interaction_gain_ranking(columns, [0, 1, 0, 0, 1])) == 55
        assert len(calls) == 11 + 55  # one per column, one joint per pair


class TestContingency:
    def test_single_category(self):
        assert m.contingency_table(["x", "x", "x"], [0, 1, 0]) == [("x", 2, 1)]

    def test_counts_sum_to_instances(self):
        feat = ["a", "b", "a", "b", "a", "b"]
        labels = [0, 1, 0, 0, 1, 1]
        rows = m.contingency_table(feat, labels)
        assert sum(n0 + n1 for _, n0, n1 in rows) == 6

    def test_sorted_categories(self):
        rows = m.contingency_table(["z", "a", "m"], [0, 0, 1])
        assert [r[0] for r in rows] == ["a", "m", "z"]


class TestTrainOnDataset:
    def test_leaked_label_column_is_learned_perfectly(self):
        # Sanity check: a feature that copies the label yields ~perfect accuracy.
        rng = np.random.default_rng(6)
        y = (rng.random(80) < 0.3).astype(int)
        X = np.column_stack([y.astype(float), rng.normal(size=80)])
        model = m.fit_svm(csr(X), y, m.SvmParams(C=10.0, gamma=1.0))
        report = m.evaluate(list(m.predict_all(model, csr(X))), list(y))
        assert report["accuracy"] >= 0.99


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        model = m.fit_svm(csr(TOY_X), TOY_Y, TOY_PARAMS)
        model.feature_names = ("f0", "f1")
        restored = m.load_model(m.dump_model(model))
        assert restored.feature_names == ("f0", "f1")
        assert list(m.predict_all(restored, csr(TOY_X))) == list(TOY_Y)
        assert m.decision_function(restored, csr(TOY_X)) == pytest.approx(
            m.decision_function(model, csr(TOY_X)), abs=1e-15
        )

    def test_round_trip_sparse_support_vectors(self):
        rng = np.random.default_rng(31)
        X = sparse_like(rng, 60, 25, density=0.2)
        y = (X[:, :5].sum(axis=1) + 0.1 * rng.random(60) > 0.5).astype(int)
        model = m.fit_svm(csr(X), y, m.SvmParams(C=1.0, seed=3))
        obj = json.loads(m.dump_model(model))
        assert "support_vectors" not in obj
        assert len(obj["sv_values"]) == np.count_nonzero(dense(model.support_vectors))
        restored = m.load_model(m.dump_model(model))
        assert np.array_equal(dense(restored.support_vectors), dense(model.support_vectors))
        assert np.array_equal(m.decision_function(restored, csr(X)),
                              m.decision_function(model, csr(X)))
        assert (restored.kkt_gap, restored.n_iterations) == (model.kkt_gap, model.n_iterations)

    def test_version_check(self):
        obj = json.loads(m.dump_model(m.fit_svm(csr(TOY_X), TOY_Y, TOY_PARAMS)))
        obj["version"] = 99
        with pytest.raises(ValueError, match="version"):
            m.load_model(json.dumps(obj))

    def test_zero_alpha_model_is_constant(self):
        empty = m.TrainedModel(
            support_vectors=csr(np.zeros((0, 2))),
            sv_labels=np.zeros(0),
            alphas=np.zeros(0),
            bias=-0.5,
            params=m.SvmParams(gamma=1.0, class_cost={0: 1.0, 1: 1.0}),
            converged=True,
            n_iterations=0,
        )
        restored = m.load_model(m.dump_model(empty))
        assert list(m.predict_all(restored, csr([[3.0, -2.0], [0.0, 0.0]]))) == [0, 0]
