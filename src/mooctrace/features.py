"""Feature extraction: n-grams, proportions, graph metrics, controls.

Instances are (student, courseweek) pairs under one setup. Three model
families share the control variables: Baseline carries n-grams plus
active/passive proportions, Graph carries structural graph metrics,
Combined is their union. Thresholds (dichotomization, scaling, rare-feature
support) are always fitted on training instances and reused on test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from mooctrace import actgraph
from mooctrace.events import (
    ACTIVE_FORUM,
    ACTIVE_VIDEO,
    FORUM_TOKENS,
    PASSIVE_FORUM,
    PASSIVE_VIDEO,
    VIDEO_TOKENS,
)
from mooctrace.footprint import FootprintSequence, Setup, nominal_activity_type


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
    instance_id: tuple[int, int, str]  # (student_id, courseweek, setup)
    features: dict[str, float]         # sparse: absent means 0.0
    label: int


@dataclass
class Dataset:
    instances: list[FeatureVector]
    setup: Setup
    model_family: ModelFamily
    feature_index: dict[str, int] | None = None


def ngram_features(tokens, n_min: int = 2, n_max: int = 5) -> dict[str, int]:
    """Counts of contiguous n-token windows for each n in [n_min, n_max]."""
    if not 2 <= n_min <= n_max:
        raise ValueError("require 2 <= n_min <= n_max")
    counts: dict[str, int] = {}
    for n in range(n_min, n_max + 1):
        for i in range(len(tokens) - n + 1):
            name = "ng:" + "_".join(t.name for t in tokens[i : i + n])
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

    strategy: str  # "equal_width" | "equal_frequency"
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
        return cls(strategy, threshold, strict)

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
    curr_seqs: dict[tuple[int, int], FootprintSequence],
    tcurr_seqs: dict[tuple[int, int], FootprintSequence],
    setup: Setup,
    model_family: ModelFamily,
) -> Dataset:
    """Build labeled instances with raw (pre-transform) feature values.

    The dropout label is 1 exactly on each student's last participation
    week. Dichotomization and scaling happen later, once a train split
    exists to fit them on (see finalize_split).
    """
    sequences = curr_seqs if setup == Setup.CURR else tcurr_seqs
    if setup == Setup.TCURR and set(curr_seqs) != set(tcurr_seqs):
        raise ValueError("curr and tcurr instance keys differ")

    labels = dropout_labels(sequences)
    instances = [
        FeatureVector(
            (sid, week, setup.value),
            _instance_features(sequences[(sid, week)], model_family),
            labels[(sid, week)],
        )
        for sid, week in sorted(sequences)
    ]
    return Dataset(instances, setup, model_family)


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
    make = lambda inst: Dataset(inst, dataset.setup, dataset.model_family)
    return make(train), make(test)


@dataclass
class FeatureTransforms:
    """Train-fitted dichotomizers and min-max scalers, applied to any split."""

    dichotomizers: dict[str, Dichotomizer] = field(default_factory=dict)
    scalers: dict[str, tuple[float, float]] = field(default_factory=dict)


def fit_feature_transforms(train: Dataset) -> FeatureTransforms:
    """Fit the per-family transforms on training instances only."""
    family = train.model_family
    transforms = FeatureTransforms()
    if not train.instances:
        return transforms

    def values(name: str) -> list[float]:
        return [fv.features.get(name, 0.0) for fv in train.instances]

    if family in (ModelFamily.BASELINE, ModelFamily.COMBINED):
        for name in PROP_FEATURES:
            transforms.dichotomizers[name] = Dichotomizer.fit(
                values(name), "equal_width"
            )
    if family in (ModelFamily.GRAPH, ModelFamily.COMBINED):
        for name in GRAPH_EQ_FREQ:
            transforms.dichotomizers[name] = Dichotomizer.fit(
                values(name), "equal_frequency"
            )
    scaled = CTL_SCALED + (GRAPH_SCALED if family != ModelFamily.BASELINE else ())
    for name in scaled:
        vals = values(name)
        transforms.scalers[name] = (min(vals), max(vals))
    return transforms


def apply_transforms(dataset: Dataset, transforms: FeatureTransforms) -> Dataset:
    """Dichotomize/scale feature values; zero results leave the sparse map."""
    out = []
    for fv in dataset.instances:
        feats: dict[str, float] = {}
        for name, value in fv.features.items():
            if name in transforms.dichotomizers:
                value = float(transforms.dichotomizers[name].apply(value))
            elif name in transforms.scalers:
                lo, hi = transforms.scalers[name]
                value = (value - lo) / (hi - lo) if hi > lo else 0.0
            if value:
                feats[name] = value
        out.append(FeatureVector(fv.instance_id, feats, fv.label))
    return Dataset(out, dataset.setup, dataset.model_family, dataset.feature_index)


def apply_rare_threshold(
    train: Dataset, threshold: int = 4
) -> tuple[Dataset, frozenset[str]]:
    """Drop features nonzero in fewer than `threshold` training instances.

    Control variables ("ctl:" namespace) are exempt. Returns the filtered
    training set and the retained feature-name set to apply to test data.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    support: dict[str, int] = {}
    for fv in train.instances:
        for name, value in fv.features.items():
            if value:
                support[name] = support.get(name, 0) + 1
    retained = frozenset(
        name
        for name in support
        if name.startswith("ctl:") or support[name] >= threshold
    )
    return restrict_to_features(train, retained), retained


def restrict_to_features(dataset: Dataset, retained: frozenset[str]) -> Dataset:
    """Project instances onto a feature-name set (unseen names drop to zero)."""
    out = [
        FeatureVector(
            fv.instance_id,
            {n: v for n, v in fv.features.items() if n in retained},
            fv.label,
        )
        for fv in dataset.instances
    ]
    return Dataset(out, dataset.setup, dataset.model_family, dataset.feature_index)


def build_feature_index(names: frozenset[str]) -> dict[str, int]:
    return {name: i for i, name in enumerate(sorted(names))}


def finalize_split(
    train: Dataset, test: Dataset, rare_threshold: int = 4
) -> tuple[Dataset, Dataset]:
    """Fit transforms and the rare threshold on train; apply to both splits."""
    transforms = fit_feature_transforms(train)
    train = apply_transforms(train, transforms)
    test = apply_transforms(test, transforms)
    train, retained = apply_rare_threshold(train, rare_threshold)
    test = restrict_to_features(test, retained)
    index = build_feature_index(retained)
    train.feature_index = index
    test.feature_index = index
    return train, test


def build_model_datasets(
    curr_seqs,
    tcurr_seqs,
    setup: Setup,
    model_family: ModelFamily,
    test_id_range: tuple[int, int],
    rare_threshold: int = 4,
) -> tuple[Dataset, Dataset]:
    """Full featurization: assemble, split by student, fit-and-apply."""
    dataset = assemble_dataset(curr_seqs, tcurr_seqs, setup, model_family)
    train, test = split_by_student(dataset, *test_id_range)
    return finalize_split(train, test, rare_threshold)


def export_sparse(dataset: Dataset) -> str:
    """One instance per line: `label idx:val ...` with ascending indices."""
    if dataset.feature_index is None:
        raise ValueError("dataset has no feature index; finalize it first")
    index = dataset.feature_index
    lines = []
    for fv in dataset.instances:
        cols = sorted(
            (index[n], v) for n, v in fv.features.items() if n in index and v
        )
        parts = [str(fv.label)] + [f"{i}:{v!r}" for i, v in cols]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def read_sparse(text: str, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse export_sparse output back into dense arrays.

    Raises ValueError on a label other than 0 or 1, on an item that is not
    `int:float`, on a value that is not finite, or on a column index outside
    [0, n_features).
    """
    rows = [line for line in text.splitlines() if line.strip()]
    X = np.zeros((len(rows), n_features))
    y = np.zeros(len(rows), dtype=int)
    for r, line in enumerate(rows):
        parts = line.split()
        if parts[0] not in ("0", "1"):
            raise ValueError(f"row {r + 1}: label {parts[0]!r} is not 0 or 1")
        y[r] = int(parts[0])
        for item in parts[1:]:
            col, _, value = item.partition(":")
            c = int(col)
            if not 0 <= c < n_features:
                raise ValueError(f"row {r + 1}: column {c} outside [0, {n_features})")
            x = float(value)
            if not math.isfinite(x):
                raise ValueError(f"row {r + 1}: column {c} value {value!r} is not finite")
            X[r, c] = x
    return X, y

