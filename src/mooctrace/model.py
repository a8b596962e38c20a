"""Cost-sensitive RBF-SVM training, evaluation metrics, and feature analyses.

The solver works on the soft-margin dual with per-class box constraints
0 <= alpha_i <= C * class_cost[y_i], optimized by sequential minimal
optimization with maximal-violating-pair working-set selection. Kernel
values come from squared row norms and one matrix product per block, in
training and in prediction alike. Evaluation
reports accuracy, Cohen's kappa and false negative rate with dropout as
the positive class.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from dataclasses import dataclass
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
    max_iter: int = 10000
    seed: int = 0


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
    kkt_gap: float = 0.0          # final max violation m(alpha) - M(alpha)
    feature_names: tuple[str, ...] | None = None


# Test rows scored per kernel block in decision_function: bounds the block at
# _ROW_BLOCK x n_sv floats however many rows are scored.
_ROW_BLOCK = 512


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """||a||^2 for every row a of A."""
    return np.einsum("ij,ij->i", A, A)


def _rbf_block(
    A: np.ndarray, a_sq: np.ndarray, B: np.ndarray, b_sq: np.ndarray, gamma: float
) -> np.ndarray:
    """The len(A) x len(B) block exp(-gamma * ||a - b||^2) over rows a of A, b of B.

    Squared distances come from the row norms a_sq, b_sq and one matrix
    product as ||a||^2 + ||b||^2 - 2 a.b, clamped at 0 so that rounding
    never lifts a kernel value above 1; each value is in [0, 1].
    """
    block = A @ B.T
    block *= -2.0
    block += a_sq[:, None]
    block += b_sq[None, :]
    np.maximum(block, 0.0, out=block)
    block *= -gamma
    return np.exp(block, out=block)


def _index_sets(y: np.ndarray, alpha: np.ndarray, C: np.ndarray):
    """Masks of I_up and I_low: where y_i * alpha_i can still rise, and fall."""
    up = ((y > 0) & (alpha < C - _EPS)) | ((y < 0) & (alpha > _EPS))
    low = ((y < 0) & (alpha < C - _EPS)) | ((y > 0) & (alpha > _EPS))
    return up, low


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
    violation gap drops below the tolerance or max_iter steps are taken.
    A ValueError names a hyperparameter that would make the fit degenerate:
    gamma, C * class_cost or tolerance not finite and positive, or max_iter
    negative.
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
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, not {gamma}")
    if gamma == math.inf:  # inf * 0 is NaN: the kernel of a point with itself
        raise ValueError("gamma must be finite, not inf")
    class_cost = (
        params.class_cost if params.class_cost is not None else default_class_cost(y01)
    )
    for label in (0, 1):
        if not 0 < params.C * class_cost[label] < math.inf:
            raise ValueError(f"C * class_cost[{label}] must be finite and positive, "
                             f"not {params.C} * {class_cost[label]}")
    if not 0 < params.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, not {params.tolerance}")
    if params.max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, not {params.max_iter}")
    y = np.where(y01 == 1, 1.0, -1.0)
    C = np.array([params.C * class_cost[int(lbl)] for lbl in y01])

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of (1/2) a'Qa - sum(a) at alpha = 0
    # LRU cache of training-kernel columns (the full matrix can be too large).
    # Column i's dot products read X only where X[i] is nonzero (about 4% of
    # n-gram features), from a column-major copy; the row norms cover every
    # feature. Gathering costs about three times a full pass per entry, so a
    # row with a quarter or more of its features nonzero takes the full pass.
    sq = _sq_norms(X)
    finite = np.isfinite(sq)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} of X: squared norm is not finite")
    X_cols = np.asfortranarray(X)

    @functools.lru_cache(maxsize=max(64, min(n, 2048)))
    def column(i: int) -> np.ndarray:
        nonzero = np.flatnonzero(X[i])
        cols = nonzero if 4 * len(nonzero) < X.shape[1] else slice(None)
        return _rbf_block(X_cols[:, cols], sq, X[i : i + 1, cols], sq[i : i + 1], gamma)[:, 0]

    rng = random.Random(params.seed)

    converged = False
    iterations = 0
    while iterations < params.max_iter:
        scores = -y * grad
        up, low = _index_sets(y, alpha, C)
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

    # Bias from free support vectors, else the violation-gap midpoint.
    scores = -y * grad
    up, low = _index_sets(y, alpha, C)
    hi = scores[up].max() if up.any() else 0.0
    lo = scores[low].min() if low.any() else 0.0
    kkt_gap = float(hi - lo) if up.any() and low.any() else 0.0
    free = (alpha > _EPS) & (alpha < C - _EPS)
    bias = float(scores[free].mean()) if free.any() else float((hi + lo) / 2.0)

    sv = alpha > _EPS
    resolved = SvmParams(
        C=params.C,
        gamma=gamma,
        class_cost=dict(class_cost),
        tolerance=params.tolerance,
        max_iter=params.max_iter,
        seed=params.seed,
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
        kkt_gap=kkt_gap,
    )


def decision_function(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Decision values sum_i alpha_i y_i K(sv_i, x) + bias, one per row of X.

    Rows are scored _ROW_BLOCK at a time, each block against every support
    vector in one matrix product.
    """
    X = np.asarray(X, dtype=float)
    sv = model.support_vectors
    n_features = sv.shape[1]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"dimension mismatch: {X.shape} vs {n_features} features")
    coef = model.alphas * model.sv_labels
    sv_sq = _sq_norms(sv)
    values = np.empty(len(X))
    for start in range(0, len(X), _ROW_BLOCK):
        rows = X[start : start + _ROW_BLOCK]
        kernel = _rbf_block(rows, _sq_norms(rows), sv, sv_sq, model.gamma)
        values[start : start + len(rows)] = kernel @ coef
    return values + model.bias


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


MODEL_FORMAT_VERSION = 2


def dump_model(model: TrainedModel) -> str:
    """The model as JSON text; support vectors as CSR rows (sv_indptr,
    sv_indices, sv_values) over n_features columns."""
    sv = model.support_vectors
    rows, cols = np.nonzero(sv)
    indptr = np.zeros(len(sv) + 1, dtype=int)
    np.cumsum(np.bincount(rows, minlength=len(sv)), out=indptr[1:])
    obj = {
        "version": MODEL_FORMAT_VERSION,
        "params": {
            "C": model.params.C,
            "gamma": model.gamma,
            "class_cost": {str(k): v for k, v in (model.params.class_cost or {}).items()},
            "tolerance": model.params.tolerance,
            "max_iter": model.params.max_iter,
            "seed": model.params.seed,
        },
        "bias": model.bias,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
        "kkt_gap": model.kkt_gap,
        "n_features": int(sv.shape[1]),
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "sv_indptr": indptr.tolist(),
        "sv_indices": cols.tolist(),
        "sv_values": sv[rows, cols].tolist(),
        "sv_labels": model.sv_labels.astype(float).tolist(),
        "alphas": model.alphas.astype(float).tolist(),
    }
    return json.dumps(obj, sort_keys=True)


_NUMBER = (int, float)
_MODEL_KEYS = {
    "params": dict, "bias": _NUMBER, "converged": bool, "n_iterations": int,
    "kkt_gap": _NUMBER, "n_features": int, "sv_indptr": list, "sv_indices": list,
    "sv_values": list, "sv_labels": list, "alphas": list,
}
_PARAM_KEYS = {
    "C": _NUMBER, "gamma": _NUMBER, "class_cost": dict, "tolerance": _NUMBER,
    "max_iter": int, "seed": int,
}


def _checked(obj, schema: dict, where: str) -> dict:
    """obj itself, once every key of schema is present with its JSON type, numbers finite."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key, kind in schema.items():
        if key not in obj:
            raise ValueError(f"{where} has no key {key!r}")
        value = obj[key]
        # JSON true/false load as bool, which Python also counts as an int.
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{where} key {key!r} has the wrong type")
        # Exact for ints too; False for NaN, the infinities and ints past float range.
        if kind is _NUMBER and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where} key {key!r} is not a finite float")
    return obj


def _array(obj: dict, key: str, dtype: type) -> np.ndarray:
    """The JSON list obj[key] as an array; ints for int, finite JSON numbers for float."""
    kinds = (int,) if dtype is int else (int, float)
    if not all(type(v) in kinds for v in obj[key]):
        raise ValueError(f"model key {key!r} has an entry of the wrong type")
    try:
        values = np.array(obj[key], dtype=dtype)
    except OverflowError:
        raise ValueError(f"model key {key!r} has an entry out of range") from None
    if not np.isfinite(values).all():
        raise ValueError(f"model key {key!r} has an entry that is not finite")
    return values


def _support_vectors(obj: dict, n_sv: int) -> np.ndarray:
    """The dense (n_sv, n_features) matrix the model's CSR keys describe."""
    n_features = obj["n_features"]
    if n_features < 0:
        raise ValueError("model key 'n_features' is negative")
    indptr = _array(obj, "sv_indptr", int)
    indices = _array(obj, "sv_indices", int)
    values = _array(obj, "sv_values", float)
    if len(indices) != len(values):
        raise ValueError("model keys 'sv_indices' and 'sv_values' differ in length")
    if len(indptr) != n_sv + 1:
        raise ValueError(f"model key 'sv_indptr' has {len(indptr)} entries, not {n_sv + 1}")
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
        raise ValueError("model key 'sv_indptr' is not nondecreasing from 0 to len(sv_indices)")
    if np.any((indices < 0) | (indices >= n_features)):
        raise ValueError("model key 'sv_indices' has a column outside [0, n_features)")
    sv = np.zeros((n_sv, n_features))
    sv[np.repeat(np.arange(n_sv), np.diff(indptr)), indices] = values
    if not np.isfinite(_sq_norms(sv)).all():
        raise ValueError("model key 'sv_values' gives a support vector a non-finite norm")
    return sv


def load_model(text: str, feature_names: tuple[str, ...] | None = None) -> TrainedModel:
    """The model JSON text describes; a ValueError names any bad key.

    Given feature_names, a model whose stored names differ (or that stores
    none) is refused before its support vectors are built, so an unnamed
    model's n_features allocates nothing.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("model is not a JSON object")
    if obj.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {obj.get('version')!r}")
    _checked(obj, _MODEL_KEYS, "model")
    p = _checked(obj["params"], _PARAM_KEYS, "model params")
    if p["gamma"] <= 0:
        raise ValueError("model params key 'gamma' is not positive")
    names = obj.get("feature_names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(name, str) for name in names)
    ):
        raise ValueError("model key 'feature_names' has the wrong type")
    if names is not None and len(names) != obj["n_features"]:
        raise ValueError("model key 'feature_names' does not have n_features entries")
    stored_names = tuple(names) if names else None
    if feature_names is not None and stored_names != feature_names:
        raise ValueError(
            f"feature names in column order differ from the model's "
            f"({len(feature_names)} columns vs {len(names or ())} in the model)"
        )
    alphas = _array(obj, "alphas", float)
    sv_labels = _array(obj, "sv_labels", float)
    if len(sv_labels) != len(alphas):
        raise ValueError("model keys 'sv_labels' and 'alphas' differ in length")
    params = SvmParams(
        C=p["C"],
        gamma=p["gamma"],
        class_cost={int(k): v for k, v in p["class_cost"].items()},
        tolerance=p["tolerance"],
        max_iter=p["max_iter"],
        seed=p["seed"],
    )
    return TrainedModel(
        support_vectors=_support_vectors(obj, len(alphas)),
        sv_labels=sv_labels,
        alphas=alphas,
        bias=obj["bias"],
        gamma=p["gamma"],
        params=params,
        converged=obj["converged"],
        n_iterations=obj["n_iterations"],
        kkt_gap=obj["kkt_gap"],
        feature_names=stored_names,
    )
