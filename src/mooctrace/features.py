"""Feature extraction: n-grams, proportions, graph metrics, controls.

Instances are (student, courseweek) pairs under one setup. Three model
families share the control variables: Baseline carries n-grams plus
active/passive proportions, Graph carries structural graph metrics,
Combined is their union.

Featurize works on integers and builds a feature's name only when the
feature gets a column. A feature is known by three things:
- its key: the name of a named feature ("ctl:", "prop:" and "graph:"), or
  the code of an n-gram. An n-gram's code has the digits t + 1 of its
  tokens t in base 16, so no two windows share a code, whatever their
  lengths; _feature_name decodes a code to its "ng:PL_PA" name.
- its id: assemble_dataset numbers each key once per run, keys raw rows by
  id and returns the keys in id order.
- its column: finalize_split numbers the kept features in sorted name order
  and keys finalized rows by column; its index maps each kept name to its
  column.

A row is a FeatureVector, a named tuple of the instance id, a sparse dict
of values and the label, so featurize imports no dataclasses. For the graph
families assemble_dataset builds each instance's activity graph from the
previous instance's (see actgraph.build_graph): under TCurr, apart from a
student's first week, that is the student's previous week, a prefix.

assemble_dataset builds the raw rows as plain train and test lists, putting
each row on its side by student id as it builds it; finalize_split makes
them model-ready in place. It fits one table of dichotomizers and min-max
scalers, the same for every family, on the raw training rows only; each is
a plain function from fit_value_map, which report's analysis also uses.
Those maps then map each value of every train and test row once, deleting
a value mapped to 0. finalize_split counts each id's support over the
mapped training rows, keeps the controls and the ids that meet the rare
threshold, and names only those. It then replaces each row in the caller's
lists by its projection onto their columns, one row at a time, so no copy
of a split is held beside another. export_sparse writes finalized rows as
`label idx:val` text, formatting each distinct item once, and read_sparse
parses that text into a model.Csr matrix and a list of labels. Only
read_sparse, which train and eval call, imports model and so numpy.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from itertools import chain, count
from typing import Callable, NamedTuple, Sequence

from mooctrace.events import (
    ACTIVE_FORUM,
    ACTIVE_VIDEO,
    PASSIVE_FORUM,
    PASSIVE_VIDEO,
    ActivityToken,
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


class FeatureVector(NamedTuple):
    instance_id: tuple[int, int]  # (student_id, courseweek)
    # Sparse, only nonzero values: keyed by feature id in a raw row, by column
    # once finalized. N-gram counts stay ints.
    features: dict[int, float]
    label: int


def ngram_features(tokens) -> dict[int, int]:
    """Counts of contiguous n-token windows for each n in 2..5, by n-gram code."""
    digits = [t + 1 for t in tokens]
    codes, windows = digits, []
    for n in range(1, 5):
        codes = [16 * code + digit for code, digit in zip(codes, digits[n:])]
        windows += codes
    return Counter(windows)


_TOKEN_NAMES = [t.name for t in ActivityToken]


def _feature_name(key: str | int) -> str:
    """The name of a feature key: a name is its own, an n-gram code decodes."""
    if isinstance(key, str):
        return key
    names = []
    while key:
        key, digit = divmod(key, 16)
        names.append(_TOKEN_NAMES[digit - 1])
    return "ng:" + "_".join(reversed(names))


# Each token's part, as the position of its proportion in PROP_FEATURES.
_PROP_PARTS = (ACTIVE_VIDEO, PASSIVE_VIDEO, ACTIVE_FORUM, PASSIVE_FORUM)
_PROP_PART = [next(k for k, part in enumerate(_PROP_PARTS) if t in part) for t in ActivityToken]


def active_passive_proportions(tokens) -> tuple[float, float, float, float]:
    """(video_active, video_passive, forum_active, forum_passive).

    Video proportions are taken over video tokens only and forum over forum
    tokens only; a source with no tokens yields (0, 0) for its pair (the
    nominal control variable carries the which-source-present signal).
    """
    counts = [0, 0, 0, 0]
    for t in tokens:
        counts[_PROP_PART[t]] += 1
    va, vp, fa, fp = counts
    n_video, n_forum = va + vp, fa + fp
    return tuple(
        k / n if n else 0.0 for k, n in ((va, n_video), (vp, n_video), (fa, n_forum), (fp, n_forum))
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
    seq: FootprintSequence, model_family: ModelFamily, ids: dict[str | int, int], metrics
) -> dict[int, float]:
    """One raw row, keyed by the id that ids gives each feature key; metrics
    are the sequence's graph metrics, None for the baseline family."""
    feats = {
        ids["ctl:courseweek"]: float(seq.courseweek),
        ids["ctl:userweek"]: float(seq.userweek),
        ids["ctl:seq_length"]: float(len(seq.tokens)),
        ids[f"ctl:nominal={nominal_activity_type(seq.tokens)}"]: 1.0,
    }
    if model_family in (ModelFamily.BASELINE, ModelFamily.COMBINED):
        for code, n in ngram_features(seq.tokens).items():
            feats[ids[code]] = n
        for name, value in zip(PROP_FEATURES, active_passive_proportions(seq.tokens)):
            if value:
                feats[ids[name]] = value
    if metrics is not None:
        feats[ids["graph:num_nodes"]] = float(metrics.num_nodes)
        feats[ids["graph:num_edges"]] = float(metrics.num_edges)
        if metrics.density:
            feats[ids["graph:density"]] = metrics.density
        if metrics.num_self_loops:
            feats[ids["graph:num_self_loops"]] = float(metrics.num_self_loops)
        feats[ids["graph:num_scc"]] = float(metrics.num_scc)
        for rank, (token, _) in enumerate(metrics.top_indegree, start=1):
            feats[ids[f"graph:top{rank}={token.name}"]] = 1.0
        if metrics.central_transition is not None:
            (u, v), _ = metrics.central_transition
            feats[ids[f"graph:central_transition={u.name}_{v.name}"]] = 1.0
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
) -> tuple[list[FeatureVector], list[FeatureVector], list[str | int]]:
    """Labeled instances with raw (pre-transform) feature values, as (train, test, keys).

    Rows are keyed by feature id, and keys[id] is that feature's key: its
    name, or an n-gram's code. Students with id inside test_id_range, (min,
    max) inclusive, form the test split. The dropout label is 1 exactly on
    each student's last participation week. Dichotomization and scaling
    happen later, fitted on the train split (see finalize_split).
    """
    test_id_min, test_id_max = test_id_range
    if test_id_min > test_id_max:
        raise ValueError("test_id_min must be <= test_id_max")
    labels = dropout_labels(sequences)
    ids: dict[str | int, int] = defaultdict(count().__next__)  # a new key gets the next id
    graphs = model_family in (ModelFamily.GRAPH, ModelFamily.COMBINED)
    if graphs:
        from mooctrace import actgraph  # here, so that baseline features never load it
    train, test, graph, metrics = [], [], None, None
    for sid, week in sorted(sequences):
        seq = sequences[(sid, week)]
        if graphs:
            graph = actgraph.build_graph(seq.tokens, graph)
            metrics = actgraph.compute_metrics(graph)
        fv = FeatureVector(
            (sid, week), _instance_features(seq, model_family, ids, metrics), labels[(sid, week)]
        )
        (test if test_id_min <= sid <= test_id_max else train).append(fv)
    return train, test, list(ids)


# How finalize_split maps each raw value: dichotomized by the named strategy,
# or min-max scaled (None). Every other feature keeps its value.
_TRANSFORMS = {
    **dict.fromkeys(PROP_FEATURES, "equal_width"),
    **dict.fromkeys(GRAPH_EQ_FREQ, "equal_frequency"),
    **dict.fromkeys(CTL_SCALED + GRAPH_SCALED),
}


def finalize_split(
    train: list[FeatureVector],
    test: list[FeatureVector],
    keys: Sequence[str | int],
    rare_threshold: int = 4,
) -> tuple[dict[str, int], list[FeatureVector], list[FeatureVector]]:
    """Map both splits with train-fitted maps and project them onto one index.

    Takes raw rows keyed by feature id and the keys of those ids (see
    assemble_dataset), and finalizes them in place: returns (index, train,
    test), where train and test are the very lists given, each row replaced
    by its finalized one. The value maps are fitted on the raw training rows,
    then map each value of every row once; a value mapped to 0 is deleted. A
    feature is kept when it is a control ("ctl:") or in at least
    `rare_threshold` mapped training rows; the index numbers the kept names
    in sorted order. Finalized rows are keyed by index column and hold only
    kept nonzero values.
    """
    if rare_threshold < 0:
        raise ValueError("threshold must be >= 0")
    maps = {
        i: fit_value_map([fv.features.get(i, 0.0) for fv in train], _TRANSFORMS[key])
        for i, key in enumerate(keys)
        if key in _TRANSFORMS
    } if train else {}
    for fv in chain(train, test):
        row = fv.features
        for i, value_map in maps.items():
            if i in row:
                value = value_map(row[i])
                if value:
                    row[i] = value
                else:
                    del row[i]
    support = Counter(chain.from_iterable(fv.features for fv in train))
    kept = sorted(
        (_feature_name(keys[i]), i)
        for i, k in support.items()
        if k >= rare_threshold or isinstance(keys[i], str) and keys[i].startswith("ctl:")
    )
    index = {name: col for col, (name, _) in enumerate(kept)}
    column = {i: col for col, (_, i) in enumerate(kept)}
    for rows in (train, test):
        for r, fv in enumerate(rows):  # one row at a time, so no split is held twice
            row = {column[i]: v for i, v in fv.features.items() if i in column}
            rows[r] = FeatureVector(fv.instance_id, row, fv.label)
    return index, train, test


def export_sparse(instances: list[FeatureVector]) -> str:
    """One finalized instance per line: `label idx:val ...` with ascending indices.

    Each value prints as a float, and each distinct (idx, val) item is
    formatted once.
    """
    texts: dict[tuple[int, float], str] = {}
    lines = []
    for fv in instances:
        parts = [str(fv.label)]
        for item in sorted(fv.features.items()):
            text = texts.get(item)
            if text is None:
                text = texts[item] = f"{item[0]}:{float(item[1])!r}"
            parts.append(text)
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
