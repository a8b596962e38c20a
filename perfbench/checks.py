"""Output checks and artifact digests for one pipeline pass.

Each check reads what a command wrote and returns a list of problems; an
empty list means the output is correct. A check never raises on a missing,
truncated or malformed artifact: that is a problem with the command, which
the benchmark counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Artifacts whose bytes must repeat exactly for a given seed.
DIGESTED = (
    "events.jsonl",
    "train.txt",
    "features.json",
    "model.json",
    "report.json",
    "report/graph_metrics.csv",
    "report/interaction_gain.csv",
)

_MALFORMED = (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError)


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line.strip()]


def _check_ingest(run: Path, expected_rejects: int) -> list[str]:
    problems = []
    if not _lines(run / "events.jsonl"):
        problems.append("events.jsonl is empty")
    n_diag = len(_lines(run / "diagnostics.jsonl"))
    if n_diag != expected_rejects:
        problems.append(f"{n_diag} diagnostics, {expected_rejects} lines injected")
    return problems


def _sparse_rows(path: Path) -> list[tuple[int, list[int]]]:
    rows = []
    for line in _lines(path):
        label, *items = line.split()
        rows.append((int(label), [int(item.split(":", 1)[0]) for item in items]))
    return rows


def _check_featurize(run: Path) -> list[str]:
    problems = []
    n_instances = len(_lines(run / "sequences.jsonl"))
    index = json.loads((run / "features.json").read_text())
    if sorted(index.values()) != list(range(len(index))):
        problems.append("features.json indices are not 0..n-1")
    train = _sparse_rows(run / "train.txt")
    test = _sparse_rows(run / "test.txt")
    if len(train) + len(test) != n_instances:
        problems.append(
            f"{len(train)} train + {len(test)} test rows != {n_instances} instances"
        )
    for name, rows in (("train.txt", train), ("test.txt", test)):
        if any(label not in (0, 1) for label, _ in rows):
            problems.append(f"{name} has a label outside {{0, 1}}")
        if any(col < 0 or col >= len(index) for _, cols in rows for col in cols):
            problems.append(f"{name} has a column index outside features.json")
    return problems


def _check_train(run: Path) -> list[str]:
    model = json.loads((run / "model.json").read_text())
    problems = []
    if model["converged"] is not True:
        problems.append("model.json says converged: false")
    n_features = len(json.loads((run / "features.json").read_text()))
    if model["n_features"] != n_features:
        problems.append(f"model has {model['n_features']} features, index {n_features}")
    return problems


def _check_eval(run: Path) -> list[str]:
    report = json.loads((run / "report.json").read_text())
    n_test = len(_lines(run / "test.txt"))
    n_scored = sum(report["confusion"][k] for k in ("tp", "fn", "fp", "tn"))
    problems = []
    if n_scored != n_test:
        problems.append(f"confusion counts {n_scored} != {n_test} test rows")
    if not 0.0 <= report["accuracy"] <= 1.0:
        problems.append(f"accuracy {report['accuracy']} outside [0, 1]")
    return problems


def _check_report(run: Path) -> list[str]:
    n_instances = len(_lines(run / "sequences.jsonl"))
    n_dot = sum(1 for _ in (run / "report" / "dot").glob("*.dot"))
    n_rows = len(_lines(run / "report" / "graph_metrics.csv")) - 1
    problems = []
    if n_dot != n_instances:
        problems.append(f"{n_dot} DOT files for {n_instances} instances")
    if n_rows != n_instances:
        problems.append(f"{n_rows} graph_metrics.csv rows for {n_instances} instances")
    if not _lines(run / "report" / "interaction_gain.csv")[0].startswith("feature_a,"):
        problems.append("interaction_gain.csv has no header")
    return problems


def check_step(step: str, run: Path, expected_rejects: int = 0) -> list[str]:
    """Problems with the outputs of pipeline command ``step`` in ``run``."""
    try:
        if step == "ingest":
            return _check_ingest(run, expected_rejects)
        check = {
            "featurize": _check_featurize,
            "train": _check_train,
            "eval": _check_eval,
            "report": _check_report,
        }[step]
        return check(run)
    except _MALFORMED as exc:
        return [f"{step} output unreadable: {type(exc).__name__}: {exc}"]


def digests(run: Path) -> dict[str, str]:
    """sha256 of every digested artifact present in ``run``."""
    return {
        name: hashlib.sha256((run / name).read_bytes()).hexdigest()
        for name in DIGESTED
        if (run / name).is_file()
    }


def quality(run: Path) -> dict[str, float]:
    """Accuracy, kappa and FNR from eval's report.json."""
    report = json.loads((run / "report.json").read_text())
    return {k: float(report[k]) for k in ("accuracy", "kappa", "fnr")}


def sizes(run: Path) -> dict[str, float]:
    """Counts read from the artifacts of a completed pass."""
    index = json.loads((run / "features.json").read_text())
    model = json.loads((run / "model.json").read_text())
    rows = _sparse_rows(run / "train.txt") + _sparse_rows(run / "test.txt")
    n_test = len(_lines(run / "test.txt"))
    sequences = [json.loads(line) for line in _lines(run / "sequences.jsonl")]
    return {
        "instances": len(sequences),
        "tokens": sum(len(seq["tokens"]) for seq in sequences),
        "n_features": len(index),
        "nnz": sum(len(cols) for _, cols in rows),
        "dense_mb": len(rows) * len(index) * 8 / 1e6,
        "test_rows": n_test,
        "smo_steps": model["n_iterations"],
        "n_sv": len(model["alphas"]),
        "model_mb": (run / "model.json").stat().st_size / 1e6,
        "files_written": sum(1 for p in run.rglob("*") if p.is_file()),
    }
