"""Fuzzed intermediate files through the in-process CLI.

Each example damages one value of a valid events.jsonl, train.txt,
features.json or model.json and runs the command that reads it. The run
must return 0 or a documented exit code and never raise; a non-finite
number anywhere is bad input (exit 2).
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mooctrace import cli

DOCUMENTED_EXITS = {
    0,
    cli.EXIT_BAD_INPUT,
    cli.EXIT_EMPTY_EVENTS,
    cli.EXIT_SINGLE_CLASS,
    cli.EXIT_UNKNOWN_INSTANCE,
}
NON_FINITE = ("nan", "inf", "-inf", "1e400", "NaN", "-Infinity")

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
    st.just({}),
)
SPARSE_ITEMS = st.one_of(
    st.text(max_size=6),
    st.builds(
        "{}:{}".format,
        st.integers(min_value=-2, max_value=60),
        st.one_of(st.sampled_from(NON_FINITE), st.floats().map(repr)),
    ),
)
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


def is_non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid logs -> events -> graph features -> model, on 30 students."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run("synth", "--out-dir", root, "--students", 30, "--weeks", 3,
               "--seed", 11) == 0
    assert run("ingest", "--clicks", root / "clickstream.jsonl",
               "--forum", root / "forum.jsonl", "--out-dir", root) == 0
    assert run("featurize", "--events", root / "events.jsonl", "--out-dir", root,
               "--model", "graph") == 0
    assert run("train", "--train", root / "train.txt", "--features",
               root / "features.json", "--out", root / "model.json") == 0
    return root


def check(code: int, non_finite: bool) -> None:
    assert code in DOCUMENTED_EXITS
    if non_finite:
        assert code == cli.EXIT_BAD_INPUT


@given(line=st.integers(min_value=0), key=st.sampled_from(["sid", "t", "token"]),
       value=JSON_VALUES)
@example(line=0, key="t", value=math.inf)
@example(line=0, key="sid", value=math.inf)
@FUZZ
def test_fuzzed_events(base, line, key, value):
    lines = (base / "events.jsonl").read_text().splitlines()
    obj = json.loads(lines[line % len(lines)])
    obj[key] = value
    lines[line % len(lines)] = json.dumps(obj)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        events = Path(tmp) / "events.jsonl"
        events.write_text("\n".join(lines) + "\n")
        code = run("featurize", "--events", events, "--out-dir", tmp, "--model", "graph")
    check(code, is_non_finite(value))


@given(line=st.integers(min_value=0), item=st.integers(min_value=0), text=SPARSE_ITEMS)
@example(line=0, item=1, text="2:nan")
@example(line=0, item=0, text="5")
@FUZZ
def test_fuzzed_train_matrix(base, line, item, text):
    rows = [row.split(" ") for row in (base / "train.txt").read_text().splitlines()]
    row = rows[line % len(rows)]
    row[item % len(row)] = text
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        train = Path(tmp) / "train.txt"
        train.write_text("\n".join(" ".join(r) for r in rows) + "\n")
        code = run("train", "--train", train, "--features", base / "features.json",
                   "--out", Path(tmp) / "model.json")
    check(code, text.partition(":")[2] in NON_FINITE)


@given(column=st.integers(min_value=0), value=JSON_VALUES)
@FUZZ
def test_fuzzed_feature_index(base, column, value):
    index = json.loads((base / "features.json").read_text())
    names = sorted(index)
    index[names[column % len(names)]] = value
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        features = Path(tmp) / "features.json"
        features.write_text(json.dumps(index))
        code = run("eval", "--model-file", base / "model.json", "--test",
                   base / "test.txt", "--features", features,
                   "--out", Path(tmp) / "report.json")
    check(code, is_non_finite(value))


MODEL_KEYS = ("version", "params", "bias", "converged", "n_iterations", "kkt_gap",
              "n_features", "feature_names", "sv_indptr", "sv_indices", "sv_values",
              "sv_labels", "alphas")


@given(key=st.sampled_from(MODEL_KEYS), index=st.integers(min_value=0), value=JSON_VALUES)
@example(key="alphas", index=0, value=math.nan)
@example(key="bias", index=0, value=math.inf)
@FUZZ
def test_fuzzed_model(base, key, index, value):
    """Replaces the index-th entry of obj[key] when that is a non-empty list or
    object (objects by sorted key), else obj[key] itself."""
    obj = json.loads((base / "model.json").read_text())
    target = obj[key]
    if isinstance(target, dict) and target:
        target[sorted(target)[index % len(target)]] = value
    elif isinstance(target, list) and target:
        target[index % len(target)] = value
    else:
        obj[key] = value
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(obj))
        code = run("eval", "--model-file", model, "--test", base / "test.txt",
                   "--features", base / "features.json", "--out", Path(tmp) / "report.json")
    check(code, is_non_finite(value))
