"""Feature extraction: n-grams, proportions, graph metrics, controls.

Instances are (student, courseweek) pairs under one setup. Three model
families share the control variables: Baseline carries n-grams plus
active/passive proportions, Graph carries structural graph metrics,
Combined is their union.

assemble_dataset builds the raw feature rows as plain train and test lists,
putting each row on its side by student id as it builds it; finalize_split
makes them model-ready in one pass. It fits one table of dichotomizers and
min-max scalers, the same for every family, on the training rows only, then
transforms each training row once, counts feature support over those rows,
keeps the controls and the names that meet the rare threshold, and projects
every train and test row onto that index as it builds it. Each of those maps
is a plain function from fit_value_map, which report's analysis also uses.
export_sparse writes finalized rows against the index as `label idx:val`
text, and read_sparse parses that text into a model.Csr matrix and a list of
labels. Only read_sparse, which train and eval call, imports model and so numpy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from mooctrace.events import (
    ACTIVE_FORUM,
    ACTIVE_VIDEO,
    FORUM_TOKENS,
    PASSIVE_FORUM,
    PASSIVE_VIDEO,
    VIDEO_TOKENS,
)
from mooctrace.footprint import FootprintSequence, nominal_activity_type


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
    counts = Counter(tokens)
    n_video = sum(counts[t] for t in VIDEO_TOKENS)
    n_forum = sum(counts[t] for t in FORUM_TOKENS)
    return tuple(
        sum(counts[t] for t in part) / n if n else 0.0
        for part, n in ((ACTIVE_VIDEO, n_video), (PASSIVE_VIDEO, n_video),
                        (ACTIVE_FORUM, n_forum), (PASSIVE_FORUM, n_forum))
    )


def fit_value_map(values: Sequence[float], strategy: str | None) -> Callable[[float], float]:
    """The map of a raw value to its transformed one, fitted on values.

    "equal_width" bins a value 1.0 when it is at least the midpoint of the
    fitted range, and every value 0.0 when the fit is constant.
    "equal_frequency" bins a value 1.0 when it is above the lower median.
    None scales min-max, and maps every value to 0.0 when the fit is constant.
    """
    if not values:
        raise ValueError("cannot fit a value map on empty values")
    if strategy == "equal_width":
        lo, hi = min(values), max(values)
        mid = (lo + hi) / 2.0
        return (lambda v: float(v >= mid)) if hi > lo else (lambda v: 0.0)
    if strategy == "equal_frequency":
        median = sorted(values)[(len(values) - 1) // 2]  # lower median
        return lambda v: float(v > median)
    if strategy is None:
        lo, hi = min(values), max(values)
        return (lambda v: (v - lo) / (hi - lo)) if hi > lo else (lambda v: 0.0)
    raise ValueError(f"unknown strategy {strategy!r}")


def _instance_features(
    seq: FootprintSequence, model_family: ModelFamily
) -> dict[str, float]:
    feats: dict[str, float] = {
        "ctl:courseweek": float(seq.courseweek),
        "ctl:userweek": float(seq.userweek),
        "ctl:seq_length": float(len(seq.tokens)),
        f"ctl:nominal={nominal_activity_type(seq.tokens)}": 1.0,
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
    sequences: dict[tuple[int, int], FootprintSequence],
    model_family: ModelFamily,
    test_id_range: tuple[int, int],
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Labeled instances with raw (pre-transform) feature values, as (train, test).

    Students with id inside test_id_range, (min, max) inclusive, form the test
    split. The dropout label is 1 exactly on each student's last
    participation week. Dichotomization and scaling happen later, fitted on
    the train split (see finalize_split).
    """
    test_id_min, test_id_max = test_id_range
    if test_id_min > test_id_max:
        raise ValueError("test_id_min must be <= test_id_max")
    labels = dropout_labels(sequences)
    train, test = [], []
    for sid, week in sorted(sequences):
        fv = FeatureVector(
            (sid, week),
            _instance_features(sequences[(sid, week)], model_family),
            labels[(sid, week)],
        )
        (test if test_id_min <= sid <= test_id_max else train).append(fv)
    return train, test


# How finalize_split maps each raw value: dichotomized by the named strategy,
# or min-max scaled (None). Every other name keeps its value. A name that no
# row of a family carries gets a map that is never applied.
_TRANSFORMS = {
    **dict.fromkeys(PROP_FEATURES, "equal_width"),
    **dict.fromkeys(GRAPH_EQ_FREQ, "equal_frequency"),
    **dict.fromkeys(CTL_SCALED + GRAPH_SCALED),
}


def _fit_value_maps(train: list[FeatureVector]) -> dict[str, Callable[[float], float]]:
    """The _TRANSFORMS value maps fitted on train, by name."""
    return {
        name: fit_value_map([fv.features.get(name, 0.0) for fv in train], strategy)
        for name, strategy in _TRANSFORMS.items()
    } if train else {}


def finalize_split(
    train: list[FeatureVector], test: list[FeatureVector], rare_threshold: int = 4
) -> tuple[dict[str, int], list[FeatureVector], list[FeatureVector]]:
    """Transform both splits with train-fitted maps and project them onto one index.

    Returns (index, train, test). The value maps are fitted on train only.
    A feature is kept when it is a control ("ctl:") or nonzero in at least
    `rare_threshold` transformed training instances; the index numbers the
    kept names in sorted order. Finalized rows hold only indexed nonzero
    values.
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

    train_rows = [transform(fv.features) for fv in train]
    support = Counter(name for row in train_rows for name in row)
    kept = (n for n, k in support.items() if n.startswith("ctl:") or k >= rare_threshold)
    index = {name: i for i, name in enumerate(sorted(kept))}
    train_out = [
        FeatureVector(fv.instance_id, {n: v for n, v in row.items() if n in index}, fv.label)
        for fv, row in zip(train, train_rows)
    ]
    test_out = [
        FeatureVector(
            fv.instance_id,
            {n: v for n, v in transform(fv.features).items() if n in index},
            fv.label,
        )
        for fv in test
    ]
    return index, train_out, test_out


def export_sparse(instances: list[FeatureVector], index: dict[str, int]) -> str:
    """One instance per line: `label idx:val ...` with ascending indices."""
    lines = []
    for fv in instances:
        cols = sorted((index[n], v) for n, v in fv.features.items())
        parts = [str(fv.label)] + [f"{i}:{v!r}" for i, v in cols]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def read_sparse(text: str, n_features: int) -> tuple[Csr, list[int]]:
    """Parse export_sparse output back into a model.Csr matrix and its labels.

    Rows end only at '\n' and items are split at single spaces. Raises
    ValueError on a label other than 0 or 1 (a blank row's is ''), on an item
    that is not `int:float` (an empty item, or one with a column that is not
    ASCII digits or a '_', non-ASCII or non-printable character), and on
    every matrix the Csr constructor refuses. An explicit zero item is
    dropped.
    """
    from mooctrace.model import Csr  # here, so that featurize never loads numpy

    rows = text.removesuffix("\n").split("\n") if text else []
    y = [0] * len(rows)
    indptr, indices, values = [0], [], []
    for r, line in enumerate(rows):
        parts = line.split(" ")
        if parts[0] not in ("0", "1"):
            raise ValueError(f"row {r + 1}: label {parts[0]!r} is not 0 or 1")
        y[r] = int(parts[0])
        # int() and float() also read '_', non-ASCII digits and whitespace, and
        # int() a '+' sign; the items of a line with any of them are checked.
        plain = line.isascii() and line.isprintable() and "_" not in line and "+" not in line
        for item in parts[1:]:
            col, _, value = item.partition(":")
            try:
                c, x = int(col), float(value)
                if not plain and (  # a negative column is refused as outside
                    not (item.isascii() and item.isprintable()) or "_" in item
                    or c >= 0 and not col.isdigit()
                ):
                    raise ValueError
            except ValueError:
                raise ValueError(f"row {r + 1}: item {item!r} is not int:float") from None
            indices.append(c)
            values.append(x)
        indptr.append(len(indices))
    try:
        return Csr(indptr, indices, values, n_features), y
    except OverflowError:  # a column past int64, so outside any index
        k = next(k for k, c in enumerate(indices) if not -(2**63) <= c < 2**63)
        r = next(r for r in range(len(rows)) if indptr[r + 1] > k)
        raise ValueError(f"row {r + 1}: column {indices[k]} outside [0, {n_features})") from None
