"""Cost-sensitive RBF-SVM training, evaluation metrics, and feature analyses.

This is the package's one numpy module: train, eval and report import it
inside their commands, so synth, ingest and featurize never load numpy.

The solver works on the soft-margin dual with per-class box constraints
0 <= alpha_i <= C * class_cost[y_i], optimized by sequential minimal
optimization with maximal-violating-pair working-set selection, ties broken
by the lowest index. Data and support vectors are Csr matrices, the one
matrix type of training, prediction and model.json, so memory grows with the
nonzeros, never with rows x features. Kernel values come from squared row
norms and the dot products of RowDots: one BLAS product over a matrix's
frequent columns, and an inverted index over its other nonzeros. A
training-kernel column is one training row against the training rows;
prediction scores a block of test rows at a time against the support
vectors. ``evaluate`` returns accuracy, Cohen's kappa, false negative rate
and the confusion counts, with dropout as the positive class, as the plain
object eval writes to report.json.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Hashable, Iterable, Sequence

import numpy as np

_EPS = 1e-12
# Working-set scores this close to the extreme, relative to max(1, |extreme|),
# count as tied with it (see _lowest_near_max).
_TIE = 1e-12


class CsrError(ValueError):
    """A Csr constructor check failed; check names it: "indptr", "column",
    "value", "order" or "norm"."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class Csr:
    """A float matrix in compressed sparse row form, holding only its nonzeros.

    Row r's columns are indices[indptr[r]:indptr[r + 1]], strictly ascending,
    with their values at the same positions of data; sq_norms[r] is the row's
    squared norm. The constructor is the one validator of a matrix, whoever
    built its arrays: it raises a CsrError, naming the first bad row (from 1)
    in row-major order, on an indptr that is not nondecreasing from 0 to the
    number of items, a column outside [0, n_features), a value that is not
    finite, a column that does not ascend strictly within its row, and then
    on a squared norm that overflows (the RBF kernel of such a row is NaN).
    Explicit zeros are dropped after the checks.
    """

    __slots__ = ("indptr", "indices", "data", "n_features", "sq_norms")

    def __init__(self, indptr, indices, data, n_features: int):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=float)
        if not (
            indptr.ndim == indices.ndim == data.ndim == 1 and len(indptr) > 0
            and indptr[0] == 0 and indptr[-1] == len(indices) == len(data)
            and np.all(indptr[1:] >= indptr[:-1])
        ):
            raise CsrError("indptr", "indptr is not nondecreasing from 0 to the number of items")
        n_rows = len(indptr) - 1
        row = np.repeat(np.arange(n_rows), np.diff(indptr))
        bad_column = (indices < 0) | (indices >= n_features)
        bad_value = ~np.isfinite(data)
        bad_order = np.zeros(len(indices), dtype=bool)
        bad_order[1:] = (row[1:] == row[:-1]) & (indices[1:] <= indices[:-1])
        bad = bad_column | bad_value | bad_order
        if bad.any():
            k = int(np.argmax(bad))
            where = f"row {row[k] + 1}: column {indices[k]}"
            if bad_column[k]:
                raise CsrError("column", f"{where} outside [0, {n_features})")
            if bad_value[k]:
                raise CsrError("value", f"{where} value {str(data[k])!r} is not finite")
            raise CsrError(
                "order", f"{where} after column {indices[k - 1]}; columns must ascend strictly"
            )
        nonzero = data != 0
        if not nonzero.all():
            row, indices, data = row[nonzero], indices[nonzero], data[nonzero]
            indptr = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
        with np.errstate(over="ignore"):
            sq_norms = np.bincount(row, weights=data * data, minlength=n_rows)
        finite = np.isfinite(sq_norms)
        if not finite.all():
            raise CsrError("norm", f"row {int(np.argmin(finite)) + 1}: squared norm is not finite")
        self.indptr, self.indices, self.data = indptr, indices, data
        self.n_features, self.sq_norms = n_features, sq_norms

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows) -> Csr:
        """The rows at the given positions, in their order."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        pos = _spans(starts, counts)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return Csr(indptr, self.indices[pos], self.data[pos], self.n_features)


def _spans(starts, counts):
    """The positions starts[k] .. starts[k] + counts[k] - 1 for every k, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


class RowDots:
    """Dot products of query rows with every row of a Csr matrix M.

    M is held in two parts. The columns nonzero in more than 1/share of M's
    rows form a dense copy, multiplied by BLAS. Every other nonzero sits in
    M's inverted index, by column, so that a query row's item in column c
    visits only the rows of M that are nonzero in c. A query matrix is split
    the same way once (split), then its rows are taken a block at a time.
    """

    def __init__(self, M: Csr, share: int):
        self.n = len(M)
        frequent = np.flatnonzero(np.bincount(M.indices, minlength=M.n_features) * share > self.n)
        self.slot = np.full(M.n_features, -1)
        self.slot[frequent] = np.arange(len(frequent))
        self.width = len(frequent)
        self.dense, self.rare = self.split(M)
        order = np.argsort(self.rare.indices, kind="stable")
        self.colptr = np.zeros(M.n_features + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rare.indices, minlength=M.n_features), out=self.colptr[1:])
        self.rows = np.repeat(np.arange(self.n), np.diff(self.rare.indptr))[order]
        self.values = self.rare.data[order]

    def split(self, X: Csr) -> tuple[np.ndarray, Csr]:
        """X's columns frequent in M as a dense array, and X's other items."""
        rows = np.repeat(np.arange(len(X)), np.diff(X.indptr))
        where = self.slot[X.indices]
        frequent = where >= 0
        dense = np.zeros((len(X), self.width))
        dense[rows[frequent], where[frequent]] = X.data[frequent]
        rare = ~frequent
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[rare], minlength=len(X)))))
        return dense, Csr(indptr, X.indices[rare], X.data[rare], X.n_features)

    def dots(self, dense: np.ndarray, rare: Csr, start: int, stop: int) -> np.ndarray:
        """The (stop - start) x n dot products of rows start..stop-1 of a split
        query matrix with M's rows; dense holds just those rows' part."""
        lo, hi = rare.indptr[start], rare.indptr[stop]
        cols, vals = rare.indices[lo:hi], rare.data[lo:hi]
        starts = self.colptr[cols]
        counts = self.colptr[cols + 1] - starts
        pos = _spans(starts, counts)
        target = self.rows[pos]
        if stop - start > 1:
            query = np.repeat(np.arange(stop - start), np.diff(rare.indptr[start : stop + 1]))
            target += np.repeat(query * self.n, counts)
        out = np.bincount(target, self.values[pos] * np.repeat(vals, counts),
                          minlength=(stop - start) * self.n)
        # bincount over no items returns ints, even with weights.
        out = out.astype(float, copy=False).reshape(stop - start, self.n)
        out += dense @ self.dense.T
        return out


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
    support_vectors: Csr          # n_sv rows
    sv_labels: np.ndarray         # in {-1, +1}
    alphas: np.ndarray
    bias: float
    params: SvmParams             # resolved: gamma and class_cost set
    converged: bool
    n_iterations: int
    kkt_gap: float = 0.0          # final max violation m(alpha) - M(alpha)
    feature_names: tuple[str, ...] | None = None


# Test rows scored per kernel block in decision_function: bounds the block at
# _ROW_BLOCK x n_sv floats however many rows are scored.
_ROW_BLOCK = 256
# A column nonzero in more than 1/share of the indexed rows enters the dense
# part of a RowDots index. A training-kernel column multiplies one row by the
# dense part, so only columns in over a quarter of the training rows pay
# their way there; a block of test rows shares one matrix product, so
# columns in over a twentieth of the support vectors do.
_TRAIN_SHARE = 4
_PREDICT_SHARE = 20


def _rbf(dots: np.ndarray, a_sq, b_sq, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) from the dot products a.b, in place of dots.

    Squared distances are ||a||^2 + ||b||^2 - 2 a.b with the norms a_sq and
    b_sq broadcast against dots, clamped at 0 so that rounding never lifts
    a kernel value above 1; each value is in [0, 1].
    """
    dots *= -2.0
    dots += a_sq
    dots += b_sq
    np.maximum(dots, 0.0, out=dots)
    dots *= -gamma
    return np.exp(dots, out=dots)


def _lowest_near_max(values: np.ndarray) -> int:
    """The lowest index whose value is within _TIE of values.max().

    After an unclipped step the optimized pair's scores are equal up to
    rounding, so an exact argmax would pick between them by the last bit,
    which any change in the summation order of the kernel values can flip.
    """
    top = values.max()
    return int((values >= top - _TIE * max(1.0, abs(top))).argmax())


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


def fit_svm(X: Csr, y01: np.ndarray, params: SvmParams) -> TrainedModel:
    """Train on the rows of X with labels in {0, 1}.

    Each SMO step optimizes the maximal-KKT-violating pair analytically,
    which never decreases the dual objective; iteration stops once the
    violation gap drops below the tolerance or max_iter steps are taken.
    A ValueError names a hyperparameter that would make the fit degenerate:
    gamma, C * class_cost or tolerance not finite and positive, or max_iter
    negative.
    """
    y01 = np.asarray(y01, dtype=int)
    n = len(y01)
    if n == 0:
        raise ValueError("empty training data")
    if len(X) != n:
        raise ValueError(f"{len(X)} rows of X for {n} labels")
    if len(set(y01.tolist())) < 2:
        raise ValueError("training data contains a single class")
    if X.n_features == 0:
        raise ValueError("training data has no feature columns")

    gamma = params.gamma if params.gamma is not None else 1.0 / X.n_features
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, not {gamma}")
    if gamma == math.inf:  # inf * 0 is NaN: the kernel of a point with itself
        raise ValueError("gamma must be finite, not inf")
    class_cost = (
        params.class_cost if params.class_cost is not None else default_class_cost(y01)
    )
    for label in (0, 1):
        # Both factors positive, as load_model requires of each cost.
        if not (class_cost[label] > 0 and 0 < params.C * class_cost[label] < math.inf):
            raise ValueError(f"C * class_cost[{label}] must be finite and positive, with "
                             f"positive factors, not {params.C} * {class_cost[label]}")
    if not 0 < params.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, not {params.tolerance}")
    if params.max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, not {params.max_iter}")
    y = np.where(y01 == 1, 1.0, -1.0)
    C = np.array([params.C * class_cost[int(lbl)] for lbl in y01])

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of (1/2) a'Qa - sum(a) at alpha = 0
    # LRU cache of training-kernel columns (the full matrix can be too large),
    # each from row i's dot products with every training row.
    index = RowDots(X, _TRAIN_SHARE)
    sq = X.sq_norms

    @functools.lru_cache(maxsize=max(64, min(n, 2048)))
    def column(i: int) -> np.ndarray:
        dots = index.dots(index.dense[i : i + 1], index.rare, i, i + 1)[0]
        return _rbf(dots, sq, sq[i], gamma)

    rng = random.Random(params.seed)

    converged = False
    iterations = 0
    while iterations < params.max_iter:
        scores = -y * grad
        up, low = _index_sets(y, alpha, C)
        if not up.any() or not low.any():
            converged = True
            break
        i = _lowest_near_max(np.where(up, scores, -np.inf))
        j = _lowest_near_max(np.where(low, -scores, -np.inf))
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
    return TrainedModel(
        support_vectors=X.take(np.flatnonzero(sv)),
        sv_labels=y[sv].copy(),
        alphas=alpha[sv].copy(),
        bias=bias,
        params=replace(params, gamma=gamma, class_cost=dict(class_cost)),
        converged=converged,
        n_iterations=iterations,
        kkt_gap=kkt_gap,
    )


def decision_function(model: TrainedModel, X: Csr) -> np.ndarray:
    """Decision values sum_i alpha_i y_i K(sv_i, x) + bias, one per row of X.

    Rows are scored _ROW_BLOCK at a time. A block's dot products with the
    support vectors are one matrix product over the columns nonzero in more
    than 1/_PREDICT_SHARE of the support vectors, plus the support vectors'
    inverted index for every other column.
    """
    sv = model.support_vectors
    if X.n_features != sv.n_features:
        raise ValueError(f"dimension mismatch: {X.n_features} vs {sv.n_features} features")
    index = RowDots(sv, _PREDICT_SHARE)
    dense, rare = index.split(X)
    coef = model.alphas * model.sv_labels
    values = np.empty(len(X))
    for start in range(0, len(X), _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, len(X))
        dots = index.dots(dense[start:stop], rare, start, stop)
        kernel = _rbf(dots, X.sq_norms[start:stop, None], sv.sq_norms, model.params.gamma)
        values[start:stop] = kernel @ coef
    return values + model.bias


def predict_all(model: TrainedModel, X: Csr) -> np.ndarray:
    """Predicted labels in {0, 1}; a decision value of exactly 0 maps to 0."""
    return (decision_function(model, X) > 0).astype(int)


def evaluate(predictions: Sequence[int], labels: Sequence[int]) -> dict:
    """Confusion-matrix metrics with dropout (label 1) as the positive class:
    ``{"confusion": {"tp", "fn", "fp", "tn"}, "accuracy", "kappa", "fnr"}``."""
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
    return {
        "confusion": {"tp": tp, "fn": fn, "fp": fp, "tn": tn},
        "accuracy": accuracy,
        "kappa": kappa,
        "fnr": fnr,
    }


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


def _conditional_entropy(column: Iterable[Hashable], labels: Sequence[int]) -> float:
    groups: dict[Hashable, dict[int, int]] = {}
    for value, lbl in zip(column, labels):
        bucket = groups.setdefault(value, {})
        bucket[lbl] = bucket.get(lbl, 0) + 1
    n = len(labels)
    return sum(
        (sum(bucket.values()) / n) * _entropy_bits(bucket)
        for bucket in groups.values()
    )


def interaction_gain_ranking(
    columns: dict[str, Sequence[Hashable]], labels: Sequence[int]
) -> list[tuple[str, str, float]]:
    """The interaction gain of every pair of columns, ranked descending.

    A pair's gain is the extra class entropy it removes jointly, as a
    fraction: [Gain(AxB) - Gain(A) - Gain(B)] / H(class), entropies in bits.
    Positive values mean synergy, negative redundancy; 0 when the class is
    constant. H(class) and each column's gain are computed once; only the
    joint entropy is computed per pair.
    """
    if any(len(column) != len(labels) for column in columns.values()):
        raise ValueError("columns and labels differ in length")
    if not labels:
        raise ValueError("cannot compute gain on empty inputs")
    h_class = _entropy_bits(Counter(labels))
    names = sorted(columns)
    gain = {name: h_class - _conditional_entropy(columns[name], labels) for name in names}
    ranked = []
    for idx, a in enumerate(names):
        for b in names[idx + 1 :]:
            gain_ab = h_class - _conditional_entropy(zip(columns[a], columns[b]), labels)
            ranked.append((a, b, (gain_ab - gain[a] - gain[b]) / h_class if h_class else 0.0))
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
    obj = {
        "version": MODEL_FORMAT_VERSION,
        "params": asdict(model.params) | {
            "class_cost": {str(k): v for k, v in (model.params.class_cost or {}).items()}
        },
        "bias": model.bias,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
        "kkt_gap": model.kkt_gap,
        "n_features": sv.n_features,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "sv_indptr": sv.indptr.tolist(),
        "sv_indices": sv.indices.tolist(),
        "sv_values": sv.data.tolist(),
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


# The load_model error for each Csr check the support vectors fail.
_SV_ERRORS = {
    "indptr": "model key 'sv_indptr' is not nondecreasing from 0 to len(sv_indices)",
    "column": "model key 'sv_indices' has a column outside [0, n_features)",
    "value": "model key 'sv_values' has an entry that is not finite",
    "order": "model key 'sv_indices' does not ascend within a support vector",
    "norm": "model key 'sv_values' gives a support vector a non-finite norm",
}


def _support_vectors(obj: dict, n_sv: int) -> Csr:
    """The n_sv support vectors the model's CSR keys describe."""
    if obj["n_features"] < 0:
        raise ValueError("model key 'n_features' is negative")
    indptr = _array(obj, "sv_indptr", int)
    indices = _array(obj, "sv_indices", int)
    values = _array(obj, "sv_values", float)
    if len(indices) != len(values):
        raise ValueError("model keys 'sv_indices' and 'sv_values' differ in length")
    if len(indptr) != n_sv + 1:
        raise ValueError(f"model key 'sv_indptr' has {len(indptr)} entries, not {n_sv + 1}")
    try:
        return Csr(indptr, indices, values, obj["n_features"])
    except CsrError as exc:
        raise ValueError(_SV_ERRORS[exc.check]) from None


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
    # dump_model writes one finite positive cost for each label.
    cost = _checked(p["class_cost"], {"0": _NUMBER, "1": _NUMBER}, "model params key 'class_cost'")
    if len(cost) != 2:
        raise ValueError("model params key 'class_cost' has a key other than '0' and '1'")
    if not min(cost.values()) > 0:
        raise ValueError("model params key 'class_cost' has a cost that is not positive")
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
    if not np.all(np.abs(sv_labels) == 1):
        raise ValueError("model key 'sv_labels' has an entry other than -1 and 1")
    if not np.all(alphas > 0):
        raise ValueError("model key 'alphas' has an entry that is not positive")
    class_cost = {int(k): v for k, v in cost.items()}
    params = SvmParams(**{key: p[key] for key in _PARAM_KEYS} | {"class_cost": class_cost})
    return TrainedModel(
        support_vectors=_support_vectors(obj, len(alphas)),
        sv_labels=sv_labels,
        alphas=alphas,
        bias=obj["bias"],
        params=params,
        converged=obj["converged"],
        n_iterations=obj["n_iterations"],
        kkt_gap=obj["kkt_gap"],
        feature_names=stored_names,
    )
