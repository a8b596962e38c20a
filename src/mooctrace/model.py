"""Cost-sensitive RBF-SVM training, evaluation metrics, and feature analyses.

The solver works on the soft-margin dual with per-class box constraints
0 <= alpha_i <= C * class_cost[y_i], optimized by sequential minimal
optimization with maximal-violating-pair working-set selection. Evaluation
reports accuracy, Cohen's kappa and false negative rate with dropout as
the positive class.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

_EPS = 1e-12


@dataclass
class SvmParams:
    """Hyperparameters; None for gamma/class_cost means derive from data.

    gamma defaults to 1/n_features; class_cost defaults to inverse class
    frequency normalized so the majority class costs 1.
    """

    C: float = 1.0
    gamma: float | None = None
    class_cost: dict[int, float] | None = None
    tolerance: float = 1e-3
    max_passes: int = 10000
    seed: int = 0
    track_objective: bool = False


@dataclass
class TrainedModel:
    support_vectors: np.ndarray   # (n_sv, n_features)
    sv_labels: np.ndarray         # in {-1, +1}
    alphas: np.ndarray
    bias: float
    gamma: float
    params: SvmParams
    converged: bool
    n_iterations: int
    feature_names: tuple[str, ...] | None = None
    objective_trace: list[float] = field(default_factory=list)


def _rbf_column(A: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a - x||^2) for every row a of A; each value in (0, 1]."""
    diff = A - x
    return np.exp(-gamma * np.einsum("ij,ij->i", diff, diff))


def default_class_cost(y01: np.ndarray) -> dict[int, float]:
    """Inverse class frequency, normalized so the majority class costs 1."""
    n0 = int(np.sum(y01 == 0))
    n1 = int(np.sum(y01 == 1))
    if n0 == 0 or n1 == 0:
        return {0: 1.0, 1: 1.0}
    if n1 <= n0:
        return {0: 1.0, 1: n0 / n1}
    return {0: n1 / n0, 1: 1.0}


def fit_svm(X: np.ndarray, y01: np.ndarray, params: SvmParams) -> TrainedModel:
    """Train on dense arrays with labels in {0, 1}.

    Each SMO step optimizes the maximal-KKT-violating pair analytically,
    which never decreases the dual objective; iteration stops once the
    violation gap drops below the tolerance or max_passes is hit.
    """
    X = np.asarray(X, dtype=float)
    y01 = np.asarray(y01, dtype=int)
    n = len(y01)
    if n == 0:
        raise ValueError("empty training data")
    if len(set(y01.tolist())) < 2:
        raise ValueError("training data contains a single class")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("training data has no feature columns")

    gamma = params.gamma if params.gamma is not None else 1.0 / X.shape[1]
    class_cost = (
        params.class_cost if params.class_cost is not None else default_class_cost(y01)
    )
    y = np.where(y01 == 1, 1.0, -1.0)
    C = np.array([params.C * class_cost[int(lbl)] for lbl in y01])

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of (1/2) a'Qa - sum(a) at alpha = 0
    # LRU cache of training-kernel columns (the full matrix can be too large).
    column = functools.lru_cache(maxsize=max(64, min(n, 2048)))(
        lambda i: _rbf_column(X, X[i], gamma)
    )
    rng = random.Random(params.seed)
    trace: list[float] = []

    converged = False
    iterations = 0
    while iterations < params.max_passes:
        scores = -y * grad
        up = ((y > 0) & (alpha < C - _EPS)) | ((y < 0) & (alpha > _EPS))
        low = ((y < 0) & (alpha < C - _EPS)) | ((y > 0) & (alpha > _EPS))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.where(up, scores, -np.inf).argmax())
        j = int(np.where(low, scores, np.inf).argmin())
        if scores[i] - scores[j] < params.tolerance:
            converged = True
            break

        Ki = column(i)
        Kj = column(j)
        eta = Ki[i] + Kj[j] - 2.0 * Ki[j]
        if eta <= _EPS:
            # Duplicate points make the pair degenerate; fall back to a
            # seeded random partner among the remaining candidates.
            candidates = [k for k in np.flatnonzero(low) if k != j]
            rng.shuffle(candidates)
            j_alt = None
            for k in candidates:
                Kk = column(int(k))
                if Ki[i] + Kk[k] - 2.0 * Ki[int(k)] > _EPS:
                    j_alt, Kj = int(k), Kk
                    break
            if j_alt is None:
                break
            j = j_alt
            eta = Ki[i] + Kj[j] - 2.0 * Ki[j]

        s = y[i] * y[j]
        # Move alpha_j by t along the equality-feasible line; alpha_i by -s*t.
        t_opt = -(grad[j] - s * grad[i]) / eta
        if s > 0:
            t_lo = max(-alpha[j], alpha[i] - C[i])
            t_hi = min(C[j] - alpha[j], alpha[i])
        else:
            t_lo = max(-alpha[j], -alpha[i])
            t_hi = min(C[j] - alpha[j], C[i] - alpha[i])
        t = min(max(t_opt, t_lo), t_hi)
        if t == 0.0:
            break
        d_i, d_j = -s * t, t
        alpha[i] += d_i
        alpha[j] += d_j
        grad += (y * y[i] * Ki) * d_i + (y * y[j] * Kj) * d_j
        iterations += 1
        if params.track_objective:
            # Dual objective: sum(a) - a'Qa/2, with a'Qa = a.(grad + 1).
            trace.append(float((alpha.sum() - alpha @ grad) / 2.0))

    # Bias from free support vectors, else the violation-gap midpoint.
    scores = -y * grad
    free = (alpha > _EPS) & (alpha < C - _EPS)
    if free.any():
        bias = float(scores[free].mean())
    else:
        up = ((y > 0) & (alpha < C - _EPS)) | ((y < 0) & (alpha > _EPS))
        low = ((y < 0) & (alpha < C - _EPS)) | ((y > 0) & (alpha > _EPS))
        hi = scores[up].max() if up.any() else 0.0
        lo = scores[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)

    sv = alpha > _EPS
    resolved = SvmParams(
        C=params.C,
        gamma=gamma,
        class_cost=dict(class_cost),
        tolerance=params.tolerance,
        max_passes=params.max_passes,
        seed=params.seed,
        track_objective=params.track_objective,
    )
    return TrainedModel(
        support_vectors=X[sv].copy(),
        sv_labels=y[sv].copy(),
        alphas=alpha[sv].copy(),
        bias=bias,
        gamma=gamma,
        params=resolved,
        converged=converged,
        n_iterations=iterations,
        objective_trace=trace,
    )


def decision_function(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Decision values sum_i alpha_i y_i K(sv_i, x) + bias, one per row of X."""
    X = np.asarray(X, dtype=float)
    n_features = model.support_vectors.shape[1]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"dimension mismatch: {X.shape} vs {n_features} features")
    coef = model.alphas * model.sv_labels
    sv = model.support_vectors
    return np.array([np.dot(coef, _rbf_column(sv, x, model.gamma)) for x in X]) + model.bias


def predict_all(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Predicted labels in {0, 1}; a decision value of exactly 0 maps to 0."""
    return (decision_function(model, X) > 0).astype(int)


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fn: int
    fp: int
    tn: int
    accuracy: float
    kappa: float
    fnr: float

    def to_json_obj(self) -> dict:
        return {
            "confusion": {"tp": self.tp, "fn": self.fn, "fp": self.fp, "tn": self.tn},
            "accuracy": self.accuracy,
            "kappa": self.kappa,
            "fnr": self.fnr,
        }


def evaluate(predictions: Sequence[int], labels: Sequence[int]) -> EvalReport:
    """Confusion-matrix metrics with dropout (label 1) as the positive class."""
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels differ in length")
    if not labels:
        raise ValueError("cannot evaluate empty inputs")
    tp = fn = fp = tn = 0
    for pred, lbl in zip(predictions, labels):
        if lbl == 1:
            tp, fn = (tp + 1, fn) if pred == 1 else (tp, fn + 1)
        else:
            fp, tn = (fp + 1, tn) if pred == 1 else (fp, tn + 1)
    total = tp + fn + fp + tn
    accuracy = (tp + tn) / total
    p_yes = ((tp + fn) / total) * ((tp + fp) / total)
    p_no = ((tn + fp) / total) * ((tn + fn) / total)
    p_e = p_yes + p_no
    kappa = 0.0 if p_e == 1.0 else (accuracy - p_e) / (1.0 - p_e)
    fnr = fn / (fn + tp) if (fn + tp) > 0 else 0.0
    return EvalReport(tp, fn, fp, tn, accuracy, kappa, fnr)


def paired_ttest(
    correct_a: Sequence[int], correct_b: Sequence[int]
) -> tuple[float, float, int]:
    """Two-tailed paired t-test on per-instance correctness differences.

    Returns (t, p, df). Zero-variance differences give t = 0, p = 1 when
    the mean is zero, and t = +/-inf, p = 0 otherwise.
    """
    if len(correct_a) != len(correct_b):
        raise ValueError("paired samples differ in length")
    n = len(correct_a)
    if n < 2:
        raise ValueError("need at least two pairs")
    diffs = [a - b for a, b in zip(correct_a, correct_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0, df
        return math.copysign(math.inf, mean), 0.0, df
    t = mean / math.sqrt(var / n)
    # Imported here, not at module level: scipy.stats takes about a second
    # to import and nothing else in the pipeline needs it.
    from scipy import stats

    p = 2.0 * float(stats.t.sf(abs(t), df))
    return t, p, df


def _entropy_bits(counts: dict) -> float:
    total = sum(counts.values())
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _conditional_entropy(column: Sequence[Hashable], labels: Sequence[int]) -> float:
    groups: dict[Hashable, dict[int, int]] = {}
    for value, lbl in zip(column, labels):
        bucket = groups.setdefault(value, {})
        bucket[lbl] = bucket.get(lbl, 0) + 1
    n = len(labels)
    return sum(
        (sum(bucket.values()) / n) * _entropy_bits(bucket)
        for bucket in groups.values()
    )


def interaction_gain(
    feat_a: Sequence[Hashable], feat_b: Sequence[Hashable], labels: Sequence[int]
) -> float:
    """Extra class entropy removed by two features jointly, as a fraction.

    [Gain(AxB) - Gain(A) - Gain(B)] / H(class), entropies in bits. Positive
    values mean synergy, negative redundancy; 0 when the class is constant.
    """
    if not (len(feat_a) == len(feat_b) == len(labels)):
        raise ValueError("columns and labels differ in length")
    if not labels:
        raise ValueError("cannot compute gain on empty inputs")
    class_counts: dict[int, int] = {}
    for lbl in labels:
        class_counts[lbl] = class_counts.get(lbl, 0) + 1
    h_class = _entropy_bits(class_counts)
    if h_class == 0.0:
        return 0.0
    gain_a = h_class - _conditional_entropy(feat_a, labels)
    gain_b = h_class - _conditional_entropy(feat_b, labels)
    joint = list(zip(feat_a, feat_b))
    gain_ab = h_class - _conditional_entropy(joint, labels)
    return (gain_ab - gain_a - gain_b) / h_class


def interaction_gain_ranking(
    columns: dict[str, Sequence[Hashable]], labels: Sequence[int]
) -> list[tuple[str, str, float]]:
    """All feature pairs ranked by interaction gain, descending."""
    names = sorted(columns)
    ranked = [
        (a, b, interaction_gain(columns[a], columns[b], labels))
        for idx, a in enumerate(names)
        for b in names[idx + 1 :]
    ]
    ranked.sort(key=lambda row: (-row[2], row[0], row[1]))
    return ranked


def contingency_table(
    feat: Sequence[Hashable], labels: Sequence[int]
) -> list[tuple[str, int, int]]:
    """Rows of (category, non-dropout count, dropout count), sorted."""
    if len(feat) != len(labels):
        raise ValueError("column and labels differ in length")
    counts: dict[str, list[int]] = {}
    for value, lbl in zip(feat, labels):
        row = counts.setdefault(str(value), [0, 0])
        row[1 if lbl == 1 else 0] += 1
    return [(cat, counts[cat][0], counts[cat][1]) for cat in sorted(counts)]


MODEL_FORMAT_VERSION = 1


def model_to_json_obj(model: TrainedModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "params": {
            "C": model.params.C,
            "gamma": model.gamma,
            "class_cost": {str(k): v for k, v in (model.params.class_cost or {}).items()},
            "tolerance": model.params.tolerance,
            "max_passes": model.params.max_passes,
            "seed": model.params.seed,
        },
        "bias": model.bias,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
        "n_features": int(model.support_vectors.shape[1]),
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "support_vectors": [list(map(float, row)) for row in model.support_vectors],
        "sv_labels": [float(v) for v in model.sv_labels],
        "alphas": [float(a) for a in model.alphas],
    }


_NUMBER = (int, float)
_MODEL_KEYS = {
    "params": dict, "bias": _NUMBER, "converged": bool, "n_iterations": int,
    "n_features": int, "support_vectors": list, "sv_labels": list, "alphas": list,
}
_PARAM_KEYS = {
    "C": _NUMBER, "gamma": _NUMBER, "class_cost": dict, "tolerance": _NUMBER,
    "max_passes": int, "seed": int,
}


def _checked(obj, schema: dict, where: str) -> dict:
    """obj itself, once every key of schema is present with its JSON type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key, kind in schema.items():
        if key not in obj:
            raise ValueError(f"{where} has no key {key!r}")
        value = obj[key]
        # JSON true/false load as bool, which Python also counts as an int.
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{where} key {key!r} has the wrong type")
    return obj


def model_from_json_obj(obj: dict) -> TrainedModel:
    """The model a JSON object describes; a ValueError names any bad key."""
    if not isinstance(obj, dict):
        raise ValueError("model is not a JSON object")
    if obj.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {obj.get('version')!r}")
    _checked(obj, _MODEL_KEYS, "model")
    p = _checked(obj["params"], _PARAM_KEYS, "model params")
    names = obj.get("feature_names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(name, str) for name in names)
    ):
        raise ValueError("model key 'feature_names' has the wrong type")
    params = SvmParams(
        C=p["C"],
        gamma=p["gamma"],
        class_cost={int(k): v for k, v in p["class_cost"].items()},
        tolerance=p["tolerance"],
        max_passes=p["max_passes"],
        seed=p["seed"],
    )
    return TrainedModel(
        support_vectors=np.array(obj["support_vectors"], dtype=float).reshape(
            len(obj["support_vectors"]), obj["n_features"]
        ),
        sv_labels=np.array(obj["sv_labels"], dtype=float),
        alphas=np.array(obj["alphas"], dtype=float),
        bias=obj["bias"],
        gamma=p["gamma"],
        params=params,
        converged=obj["converged"],
        n_iterations=obj["n_iterations"],
        feature_names=tuple(names) if names else None,
    )


def dump_model(model: TrainedModel) -> str:
    return json.dumps(model_to_json_obj(model), sort_keys=True)


def load_model(text: str) -> TrainedModel:
    return model_from_json_obj(json.loads(text))
