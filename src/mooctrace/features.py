"""Feature extraction: n-grams, proportions, graph metrics, controls.

Instances are (student, courseweek) pairs under one setup. Three model
families share the control variables: Baseline carries n-grams plus
active/passive proportions, Graph carries structural graph metrics,
Combined is their union.

assemble_dataset builds the raw feature rows; finalize_split makes them
model-ready in one pass. It fits the dichotomizers and min-max scalers on the
training instances only, then transforms each training row once, counts
feature support over those rows, keeps the controls and the names that meet
the rare threshold, and projects every train and test row onto that index as
it builds it. export_sparse writes the finalized rows as `label idx:val` text.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from mooctrace.events import (
    ACTIVE_FORUM,
    ACTIVE_VIDEO,
    FORUM_TOKENS,
    PASSIVE_FORUM,
    PASSIVE_VIDEO,
    VIDEO_TOKENS,
)
from mooctrace.footprint import FootprintSequence, nominal_activity_type

if TYPE_CHECKING:
    import numpy as np


class ModelFamily(str, Enum):
    BASELINE = "baseline"
    GRAPH = "graph"
    COMBINED = "combined"


# Feature families by name. "ctl:" features are control variables and are
# exempt from the rare-feature threshold.
CTL_SCALED = ("ctl:courseweek", "ctl:userweek", "ctl:seq_length")
PROP_FEATURES = (
    "prop:video_active",
    "prop:video_passive",
    "prop:forum_active",
    "prop:forum_passive",
)
GRAPH_EQ_FREQ = (
    "graph:num_nodes",
    "graph:num_edges",
    "graph:num_self_loops",
    "graph:density",
)
GRAPH_SCALED = ("graph:num_scc",)


@dataclass(frozen=True)
class FeatureVector:
    instance_id: tuple[int, int]  # (student_id, courseweek)
    features: dict[str, float]    # sparse: absent means 0.0
    label: int


@dataclass(frozen=True)
class Dataset:
    instances: list[FeatureVector]
    model_family: ModelFamily
    feature_index: dict[str, int] | None = None


def ngram_features(tokens) -> dict[str, int]:
    """Counts of contiguous n-token windows for each n in 2..5."""
    names = [t.name for t in tokens]
    counts: dict[str, int] = {}
    for n in range(2, 6):
        for i in range(len(names) - n + 1):
            name = "ng:" + "_".join(names[i : i + n])
            counts[name] = counts.get(name, 0) + 1
    return counts


def active_passive_proportions(tokens) -> tuple[float, float, float, float]:
    """(video_active, video_passive, forum_active, forum_passive).

    Video proportions are taken over video tokens only and forum over forum
    tokens only; a source with no tokens yields (0, 0) for its pair (the
    nominal control variable carries the which-source-present signal).
    """
    n_video = sum(1 for t in tokens if t in VIDEO_TOKENS)
    n_forum = sum(1 for t in tokens if t in FORUM_TOKENS)
    video_active = video_passive = forum_active = forum_passive = 0.0
    if n_video:
        video_active = sum(1 for t in tokens if t in ACTIVE_VIDEO) / n_video
        video_passive = sum(1 for t in tokens if t in PASSIVE_VIDEO) / n_video
    if n_forum:
        forum_active = sum(1 for t in tokens if t in ACTIVE_FORUM) / n_forum
        forum_passive = sum(1 for t in tokens if t in PASSIVE_FORUM) / n_forum
    return video_active, video_passive, forum_active, forum_passive


@dataclass(frozen=True)
class Dichotomizer:
    """A fitted binary split reusable on unseen values.

    equal_width thresholds at the value-range midpoint (bin = value >=
    threshold); equal_frequency at the lower median (bin = value >
    threshold). A constant fit degenerates to all-zero bins.
    """

    threshold: float
    strict: bool   # compare with > instead of >=

    @classmethod
    def fit(cls, values: list[float], strategy: str) -> "Dichotomizer":
        if not values:
            raise ValueError("cannot fit dichotomizer on empty values")
        if strategy == "equal_width":
            lo, hi = min(values), max(values)
            threshold = (lo + hi) / 2.0
            strict = lo == hi
        elif strategy == "equal_frequency":
            ranked = sorted(values)
            threshold = ranked[(len(ranked) - 1) // 2]  # lower median
            strict = True
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        return cls(threshold, strict)

    def apply(self, value: float) -> int:
        if self.strict:
            return 1 if value > self.threshold else 0
        return 1 if value >= self.threshold else 0


def _instance_features(
    seq: FootprintSequence, model_family: ModelFamily
) -> dict[str, float]:
    feats: dict[str, float] = {
        "ctl:courseweek": float(seq.week.courseweek),
        "ctl:userweek": float(seq.week.userweek),
        "ctl:seq_length": float(len(seq.tokens)),
        f"ctl:nominal={nominal_activity_type(seq.tokens).value}": 1.0,
    }
    if model_family in (ModelFamily.BASELINE, ModelFamily.COMBINED):
        for name, count in ngram_features(seq.tokens).items():
            feats[name] = float(count)
        va, vp, fa, fp = active_passive_proportions(seq.tokens)
        for name, value in zip(PROP_FEATURES, (va, vp, fa, fp)):
            if value:
                feats[name] = value
    if model_family in (ModelFamily.GRAPH, ModelFamily.COMBINED):
        from mooctrace import actgraph  # here, so that baseline features never load it

        metrics = actgraph.compute_metrics(actgraph.build_graph(seq.tokens))
        feats["graph:num_nodes"] = float(metrics.num_nodes)
        feats["graph:num_edges"] = float(metrics.num_edges)
        if metrics.density:
            feats["graph:density"] = metrics.density
        if metrics.num_self_loops:
            feats["graph:num_self_loops"] = float(metrics.num_self_loops)
        feats["graph:num_scc"] = float(metrics.num_scc)
        for rank, (token, _) in enumerate(metrics.top_indegree, start=1):
            feats[f"graph:top{rank}={token.name}"] = 1.0
        if metrics.central_transition is not None:
            (u, v), _ = metrics.central_transition
            feats[f"graph:central_transition={u.name}_{v.name}"] = 1.0
    return feats


def dropout_labels(keys) -> dict[tuple[int, int], int]:
    """Label per (student, week) key: 1 exactly on the student's last active week."""
    last_week: dict[int, int] = {}
    for sid, week in keys:
        last_week[sid] = max(last_week.get(sid, week), week)
    return {(sid, week): int(week == last_week[sid]) for sid, week in keys}


def assemble_dataset(
    sequences: dict[tuple[int, int], FootprintSequence], model_family: ModelFamily
) -> Dataset:
    """Build labeled instances with raw (pre-transform) feature values.

    The dropout label is 1 exactly on each student's last participation
    week. Dichotomization and scaling happen later, once a train split
    exists to fit them on (see finalize_split).
    """
    labels = dropout_labels(sequences)
    instances = [
        FeatureVector(
            (sid, week),
            _instance_features(sequences[(sid, week)], model_family),
            labels[(sid, week)],
        )
        for sid, week in sorted(sequences)
    ]
    return Dataset(instances, model_family)


def split_by_student(
    dataset: Dataset, test_id_min: int, test_id_max: int
) -> tuple[Dataset, Dataset]:
    """Held-out split: students with id inside [min, max] form the test set."""
    if test_id_min > test_id_max:
        raise ValueError("test_id_min must be <= test_id_max")
    train, test = [], []
    for fv in dataset.instances:
        sid = fv.instance_id[0]
        (test if test_id_min <= sid <= test_id_max else train).append(fv)
    if not train:
        warnings.warn("train split is empty", stacklevel=2)
    if not test:
        warnings.warn("test split is empty", stacklevel=2)
    return Dataset(train, dataset.model_family), Dataset(test, dataset.model_family)


def _fit_value_maps(train: Dataset) -> dict[str, Callable[[float], float]]:
    """Per-family dichotomizers and min-max scalers fitted on train, by name."""
    family = train.model_family
    if not train.instances:
        return {}

    def values(name: str) -> list[float]:
        return [fv.features.get(name, 0.0) for fv in train.instances]

    def dichotomizer(name: str, strategy: str) -> Callable[[float], float]:
        split = Dichotomizer.fit(values(name), strategy)
        return lambda v: float(split.apply(v))

    def scaler(name: str) -> Callable[[float], float]:
        vals = values(name)
        lo, hi = min(vals), max(vals)
        return lambda v: (v - lo) / (hi - lo) if hi > lo else 0.0

    maps = {}
    if family in (ModelFamily.BASELINE, ModelFamily.COMBINED):
        maps.update((name, dichotomizer(name, "equal_width")) for name in PROP_FEATURES)
    if family in (ModelFamily.GRAPH, ModelFamily.COMBINED):
        maps.update((name, dichotomizer(name, "equal_frequency")) for name in GRAPH_EQ_FREQ)
    scaled = CTL_SCALED + (GRAPH_SCALED if family != ModelFamily.BASELINE else ())
    maps.update((name, scaler(name)) for name in scaled)
    return maps


def finalize_split(
    train: Dataset, test: Dataset, rare_threshold: int = 4
) -> tuple[Dataset, Dataset]:
    """Transform both splits with train-fitted maps and project them onto one index.

    Dichotomizers and scalers are fitted on train only. A feature is kept
    when it is a control ("ctl:") or nonzero in at least `rare_threshold`
    transformed training instances; the index numbers the kept names in
    sorted order. Finalized rows hold only indexed nonzero values.
    """
    if rare_threshold < 0:
        raise ValueError("threshold must be >= 0")
    maps = _fit_value_maps(train)

    def transform(features: dict[str, float]) -> dict[str, float]:
        row = {}
        for name, value in features.items():
            if name in maps:
                value = maps[name](value)
            if value:
                row[name] = value
        return row

    train_rows = [transform(fv.features) for fv in train.instances]
    support = Counter(name for row in train_rows for name in row)
    kept = (n for n, k in support.items() if n.startswith("ctl:") or k >= rare_threshold)
    index = {name: i for i, name in enumerate(sorted(kept))}
    train_out = [
        FeatureVector(fv.instance_id, {n: v for n, v in row.items() if n in index}, fv.label)
        for fv, row in zip(train.instances, train_rows)
    ]
    test_out = [
        FeatureVector(
            fv.instance_id,
            {n: v for n, v in transform(fv.features).items() if n in index},
            fv.label,
        )
        for fv in test.instances
    ]
    return (
        Dataset(train_out, train.model_family, index),
        Dataset(test_out, test.model_family, index),
    )


def build_model_datasets(
    sequences,
    model_family: ModelFamily,
    test_id_range: tuple[int, int],
    rare_threshold: int = 4,
) -> tuple[Dataset, Dataset]:
    """Full featurization: assemble, split by student, fit-and-apply."""
    dataset = assemble_dataset(sequences, model_family)
    train, test = split_by_student(dataset, *test_id_range)
    return finalize_split(train, test, rare_threshold)


def export_sparse(dataset: Dataset) -> str:
    """One instance per line: `label idx:val ...` with ascending indices."""
    if dataset.feature_index is None:
        raise ValueError("dataset has no feature index; finalize it first")
    index = dataset.feature_index
    lines = []
    for fv in dataset.instances:
        cols = sorted((index[n], v) for n, v in fv.features.items())
        parts = [str(fv.label)] + [f"{i}:{v!r}" for i, v in cols]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def read_sparse(text: str, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse export_sparse output back into dense arrays.

    Raises ValueError on a label other than 0 or 1, on an item that is not
    `int:float` (the column ASCII digits, and no '_' or non-ASCII character
    in the value), on a column index outside [0, n_features), on a value that
    is not finite, on a column that does not ascend strictly within its row
    (a repeat would silently overwrite a value), or on a row whose squared
    norm overflows (the RBF kernel of such a row is NaN).
    """
    import numpy as np  # here, so that featurize, which only writes text, never loads it

    rows = [line for line in text.splitlines() if line.strip()]
    X = np.zeros((len(rows), n_features))
    y = np.zeros(len(rows), dtype=int)
    for r, line in enumerate(rows):
        parts = line.split()
        if parts[0] not in ("0", "1"):
            raise ValueError(f"row {r + 1}: label {parts[0]!r} is not 0 or 1")
        y[r] = int(parts[0])
        # int() and float() also read '_' separators and non-ASCII digits, and
        # int() a '+' sign; the items of a line with any of them are checked.
        plain = line.isascii() and "_" not in line and "+" not in line
        prev = -1
        for item in parts[1:]:
            col, _, value = item.partition(":")
            try:
                c, x = int(col), float(value)
                if not plain and (  # a negative column fails below, as outside
                    not item.isascii() or "_" in item or c >= 0 and not col.isdigit()
                ):
                    raise ValueError
            except ValueError:
                raise ValueError(f"row {r + 1}: item {item!r} is not int:float") from None
            if not 0 <= c < n_features:
                raise ValueError(f"row {r + 1}: column {c} outside [0, {n_features})")
            if not math.isfinite(x):
                raise ValueError(f"row {r + 1}: column {c} value {value!r} is not finite")
            if c <= prev:
                raise ValueError(
                    f"row {r + 1}: column {c} after column {prev}; "
                    "columns must ascend strictly"
                )
            prev = c
            X[r, c] = x
    finite = np.isfinite(np.einsum("ij,ij->i", X, X))
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite)) + 1}: squared norm is not finite")
    return X, y

