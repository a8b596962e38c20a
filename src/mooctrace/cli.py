"""Command-line pipeline: synth, ingest, featurize, train, eval, report.

Flags are the one way to configure a command. Each command registers only
the flags it reads, each with its default, and reads them from ``args``; an
SVM flag left out keeps the ``SvmParams`` default. Every text input is
decoded as strict UTF-8 from its bytes; a file that cannot be read or
decoded exits 2 naming its path, and so does a file that cannot be
written. Every command writes files atomically, exits nonzero on error, and
puts a machine-readable JSON error on stderr, a command line argparse
refuses included.

Each command loads only what its own work needs. ``mooctrace.model`` is the
package's one numpy module. It is imported inside train, eval and report,
and by ``features.read_sparse``, which only train and eval call, so synth,
ingest and featurize never load numpy. No command loads scipy: eval
--model-file-b computes its t-test's p-value with the math module.
``mooctrace.synth`` is imported inside synth, and ``mooctrace.actgraph``
inside report and featurize's graph features. The records ingest and
featurize use are named tuples, so neither loads ``dataclasses`` and,
through it, ``inspect``: only model and synth declare dataclasses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from mooctrace import features
from mooctrace.events import (
    encode_events,
    events_from_jsonl,
    events_to_jsonl,
    filter_valid_videos,
    parse_clickstream_log,
    parse_forum_log,
)
from mooctrace.features import ModelFamily
from mooctrace.footprint import (
    Setup,
    build_curr_sequences,
    build_tcurr_sequences,
    nominal_activity_type,
    sequences_to_jsonl,
)

if TYPE_CHECKING:
    from mooctrace import model as svm

EXIT_BAD_INPUT = 2
EXIT_EMPTY_EVENTS = 3
EXIT_SINGLE_CLASS = 4
EXIT_UNKNOWN_INSTANCE = 5


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _svm_params(args: argparse.Namespace) -> svm.SvmParams:
    """The flags' SvmParams; an svm flag left out keeps the SvmParams default."""
    from mooctrace import model as svm

    if (args.cost0 is None) != (args.cost1 is None):
        raise CommandError(EXIT_BAD_INPUT, "cost0 and cost1 go together")
    class_cost = None if args.cost0 is None else {0: args.cost0, 1: args.cost1}
    values = {
        "C": args.svm_c,
        "gamma": args.svm_gamma,
        "class_cost": class_cost,
        "tolerance": args.svm_tolerance,
        "max_iter": args.svm_max_iter,
        "seed": args.seed,
    }
    return svm.SvmParams(**{k: v for k, v in values.items() if v is not None})


def write_text_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write text, a str or an iterable of its pieces in order, through a
    unique temp file in the target's directory, then rename; a write that
    fails removes the temp file and exits 2 naming path."""
    tmp = None
    try:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # a file, not a directory: mkstemp says so
            pass
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 -> what open() would give
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CommandError(EXIT_BAD_INPUT, f"cannot write {path}: {exc.strerror}") from exc
        raise


# One encoder for every line: json.dumps(o, sort_keys=True) builds a new one
# per call, with the same output.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def write_jsonl_atomic(path: Path, objs) -> None:
    write_text_atomic(path, (_encode_sorted(o) + "\n" for o in objs))


def _read_text(path: str, what: str) -> str:
    """The file's bytes decoded as strict UTF-8, so that no '\r' or '\r\n'
    becomes '\n' on the way in; a file that cannot be read or decoded exits 2
    naming its path."""
    try:
        return Path(path).read_bytes().decode()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise CommandError(EXIT_BAD_INPUT, f"cannot read {what} {path}: {reason}") from exc


def _parsed(path: str, parse, *args):
    """parse(*args), the content of the file at path; a ValueError, a defect of
    that content, exits 2 naming path."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise CommandError(EXIT_BAD_INPUT, f"{path}: {exc}") from exc


def _parse_log_file(path: str, what: str, parse):
    """parse over the lines of the file at path, read as bytes; a file that
    cannot be read exits 2 naming its path."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except OSError as exc:
        raise CommandError(EXIT_BAD_INPUT, f"cannot read {what} {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------- commands


def cmd_synth(args: argparse.Namespace) -> int:
    from mooctrace import synth

    mix = tuple(float(x) for x in args.mix.split(","))
    if len(mix) != 3:
        raise CommandError(EXIT_BAD_INPUT, "mix must have three comma-separated values")
    profile = synth.SynthProfile(
        n_students=args.students,
        weeks=args.weeks,
        archetype_mix=mix,
        dropout_signal_strength=args.signal,
    )
    clicks, forums = synth.generate_synthetic(profile, args.seed)
    out = Path(args.out_dir)
    write_jsonl_atomic(out / "clickstream.jsonl", clicks)
    write_jsonl_atomic(out / "forum.jsonl", forums)
    print(f"synth: {len(clicks)} click events, {len(forums)} forum events -> {out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    raw_clicks, click_diags = _parse_log_file(args.clicks, "clickstream", parse_clickstream_log)
    raw_forums, forum_diags = _parse_log_file(args.forum, "forum", parse_forum_log)

    valid_clicks = filter_valid_videos(raw_clicks, args.min_unique_viewers)
    events, dropped_equal_rate = encode_events(valid_clicks, raw_forums)

    out = Path(args.out_dir)
    write_text_atomic(out / "events.jsonl", events_to_jsonl(events))
    diag_objs = [
        {"line": line_no, "reason": reason, "source": source}
        for source, diags in (("clickstream", click_diags), ("forum", forum_diags))
        for line_no, reason in diags
    ]
    write_jsonl_atomic(out / "diagnostics.jsonl", diag_objs)

    print(
        f"ingest: {len(raw_clicks)} click events ({len(valid_clicks)} on valid videos), "
        f"{len(raw_forums)} forum events, {len(events)} encoded, "
        f"{len(diag_objs)} diagnostics, {dropped_equal_rate} equal-rate ratechanges dropped"
    )
    return 0


def _read_sequences(args: argparse.Namespace):
    """The --setup's sequences of the --events file; TCurr ones are built
    from Curr ones. The events are dropped on return. An empty event store
    exits 3, before course_start is checked."""
    path = args.events
    try:
        events = events_from_jsonl(_read_text(path, "events"))
    except ValueError as exc:  # names the line
        raise CommandError(EXIT_BAD_INPUT, f"{path} {exc}") from exc
    if not events:
        raise CommandError(EXIT_EMPTY_EVENTS, "event store is empty")
    curr = build_curr_sequences(events, args.course_start)
    return curr if args.setup == Setup.CURR else build_tcurr_sequences(curr)


def cmd_featurize(args: argparse.Namespace) -> int:
    setup = Setup(args.setup)
    sequences = _read_sequences(args)
    train, test, keys = features.assemble_dataset(
        sequences, ModelFamily(args.model), (args.test_id_min, args.test_id_max)
    )
    index, train, test = features.finalize_split(train, test, keys, args.rare_threshold)

    out = Path(args.out_dir)
    write_text_atomic(out / "train.txt", features.export_sparse(train))
    write_text_atomic(out / "test.txt", features.export_sparse(test))
    write_text_atomic(out / "features.json", json.dumps(index, sort_keys=True, indent=0) + "\n")
    splits = {"train": train, "test": test}
    for name, rows in splits.items():
        write_jsonl_atomic(
            out / f"{name}_keys.jsonl",
            (dict(zip(("sid", "courseweek"), fv.instance_id)) for fv in rows),
        )
    # One line at a time, so the text (19 MB at 3000 TCurr students) is never
    # held whole, neither joined nor encoded: either copy set the peak.
    write_text_atomic(
        out / "sequences.jsonl",
        (sequences_to_jsonl([sequences[k]], setup) for k in sorted(sequences)),
    )
    print(
        f"featurize: {len(train)} train / {len(test)} test instances, "
        f"{len(index)} features ({args.setup}/{args.model})"
    )
    for name, rows in splits.items():
        if not rows:
            print(json.dumps({"warning": f"{name} split is empty"}), file=sys.stderr)
    return 0


def _load_matrix(path: str, feature_index_path: str):
    """(X, y) plus the feature names in column order."""
    index_text = _read_text(feature_index_path, "feature index")
    index = _parsed(feature_index_path, json.loads, index_text)
    text = _read_text(path, "dataset")
    if not (
        isinstance(index, dict)
        and all(type(col) is int for col in index.values())
        and sorted(index.values()) == list(range(len(index)))
    ):
        raise CommandError(
            EXIT_BAD_INPUT,
            f"{feature_index_path}: not a {{name: column}} object over columns 0..n-1",
        )
    matrix = _parsed(path, features.read_sparse, text, len(index))  # names the row
    return matrix, tuple(sorted(index, key=index.get))


def _warn_if_unconverged(trained: svm.TrainedModel) -> None:
    if not trained.converged:
        warning = {
            "warning": "svm did not converge",
            "n_iterations": trained.n_iterations,
            "kkt_gap": trained.kkt_gap,
        }
        print(json.dumps(warning), file=sys.stderr)


def cmd_train(args: argparse.Namespace) -> int:
    from mooctrace import model as svm

    params = _svm_params(args)
    (X, y), names = _load_matrix(args.train, args.features)
    if not y:
        raise CommandError(EXIT_EMPTY_EVENTS, "train split is empty")
    if len(set(y)) < 2:
        raise CommandError(EXIT_SINGLE_CLASS, "train split contains a single class")
    trained = svm.fit_svm(X, y, params)
    trained.feature_names = names
    write_text_atomic(Path(args.out), svm.dump_model(trained) + "\n")
    print(
        f"train: {len(y)} instances, {len(trained.alphas)} support vectors, "
        f"converged={trained.converged} after {trained.n_iterations} steps"
    )
    _warn_if_unconverged(trained)
    return 0


def _evaluate_model(model_path: str, X: svm.Csr, y: list[int], names: tuple):
    from mooctrace import model as svm

    # A model with other feature names than the index exits 2 too.
    trained = _parsed(model_path, svm.load_model, _read_text(model_path, "model"), names)
    _warn_if_unconverged(trained)
    predictions = svm.predict_all(trained, X)
    return predictions, svm.evaluate(list(predictions), y)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.ttest_out and not args.model_file_b:
        raise CommandError(EXIT_BAD_INPUT, "--ttest-out needs --model-file-b")
    from mooctrace import model as svm

    (X, y), names = _load_matrix(args.test, args.features)
    if not y:
        raise CommandError(EXIT_EMPTY_EVENTS, "test split is empty")
    predictions, report = _evaluate_model(args.model_file, X, y, names)
    write_text_atomic(Path(args.out), json.dumps(report, sort_keys=True) + "\n")
    print(
        f"eval: accuracy={report['accuracy']:.4f} kappa={report['kappa']:.4f} "
        f"fnr={report['fnr']:.4f}"
    )
    if args.model_file_b:
        predictions_b, report_b = _evaluate_model(args.model_file_b, X, y, names)
        correct_a = [int(p == t) for p, t in zip(predictions, y)]
        correct_b = [int(p == t) for p, t in zip(predictions_b, y)]
        t_stat, p_value, df = svm.paired_ttest(correct_a, correct_b)
        t_json = t_stat if math.isfinite(t_stat) else ("inf" if t_stat > 0 else "-inf")
        obj = {
            "t": t_json,
            "p": p_value,
            "df": df,
            "accuracy_a": report["accuracy"],
            "accuracy_b": report_b["accuracy"],
        }
        out = Path(args.ttest_out or Path(args.out).with_name("ttest.json"))
        write_text_atomic(out, json.dumps(obj, sort_keys=True) + "\n")
        print(f"eval: paired t-test t={t_stat:.4f} p={p_value:.4g} df={df}")
    return 0


# The report's analysis columns in _analysis_values order: each numeric one
# with the strategy that dichotomizes it, each categorical one with None.
_ANALYSIS_COLUMNS = {
    **dict.fromkeys(("nodes", "edges", "self_loops", "density"), "equal_frequency"),
    **dict.fromkeys(("video_active", "video_passive", "forum_active", "forum_passive"),
                    "equal_width"),
    **dict.fromkeys(("nominal", "top_activity", "central_transition")),
}


def _analysis_values(tokens, metrics) -> tuple:
    """One instance's raw values for _ANALYSIS_COLUMNS."""
    transition = "none"
    if metrics.central_transition is not None:
        (u, v), _ = metrics.central_transition
        transition = f"{u.name}>{v.name}"
    return (
        metrics.num_nodes, metrics.num_edges, metrics.num_self_loops, metrics.density,
        *features.active_passive_proportions(tokens),
        nominal_activity_type(tokens),
        metrics.top_indegree[0][0].name if metrics.top_indegree else "none",
        transition,
    )


def _analysis_columns(rows) -> dict:
    """Categorical columns for interaction-gain and contingency analyses.

    Numeric metrics are dichotomized over all instances here; this is a
    descriptive analysis, not a held-out experiment.
    """
    columns = {}
    for (name, strategy), values in zip(_ANALYSIS_COLUMNS.items(), zip(*rows)):
        if strategy is not None:
            split = features.fit_value_map(values, strategy)
            values = [str(int(split(v))) for v in values]
        columns[name] = values
    return columns


def cmd_report(args: argparse.Namespace) -> int:
    if (args.student is None) != (args.week is None):
        raise CommandError(EXIT_BAD_INPUT, "--student and --week go together")
    # interaction_gain_ranking and contingency_table live in model, so report
    # loads numpy too.
    from mooctrace import actgraph, model as svm

    sequences = _read_sequences(args)
    out = Path(args.out_dir)

    selected = None  # every instance
    if args.student is not None:
        selected = (args.student, args.week)
        if selected not in sequences:
            raise CommandError(
                EXIT_UNKNOWN_INSTANCE,
                f"no instance for student {args.student}, week {args.week}",
            )

    # One pass: each graph is measured and exported, then dropped. The DOT
    # files are written after it: writing each one between two graphs took
    # 10-30% more CPU time, user and system alike, on a TCurr report.
    keys = sorted(sequences)
    metric_rows = [actgraph.METRICS_CSV_HEADER]
    dots, analysis_rows, graph = [], [], None
    for key in keys:
        tokens = sequences[key].tokens
        graph = actgraph.build_graph(tokens, graph)  # extends a TCurr prefix
        metrics = actgraph.compute_metrics(graph)
        if selected in (None, key):
            sid, week = key
            dots.append((f"s{sid}_w{week}.dot", actgraph.export_dot(graph)))
            metric_rows.append(actgraph.metrics_csv_row(sid, week, args.setup, metrics))
        analysis_rows.append(_analysis_values(tokens, metrics))
    for name, dot in dots:
        write_text_atomic(out / "dot" / name, dot)
    write_text_atomic(out / "graph_metrics.csv", "\n".join(metric_rows) + "\n")

    columns = _analysis_columns(analysis_rows)
    labels = list(features.dropout_labels(keys).values())
    ranking = svm.interaction_gain_ranking(columns, labels)
    gain_lines = ["feature_a,feature_b,gain"]
    gain_lines += [f"{a},{b},{gain:.6g}" for a, b, gain in ranking]
    write_text_atomic(out / "interaction_gain.csv", "\n".join(gain_lines) + "\n")

    for name in sorted(columns):
        rows = svm.contingency_table(columns[name], labels)
        lines = ["category,non_dropout,dropout"]
        lines += [f"{cat},{n0},{n1}" for cat, n0, n1 in rows]
        write_text_atomic(out / f"contingency_{name}.csv", "\n".join(lines) + "\n")

    print(
        f"report: {len(metric_rows) - 1} DOT file(s), {len(ranking)} feature pairs, "
        f"{len(columns)} contingency tables -> {out}"
    )
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Refuses a command line like any other bad input: exit 2 with a JSON
    error, after the usage. Subparsers are of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CommandError(EXIT_BAD_INPUT, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mooctrace",
        description="Activity-sequence graphs and dropout prediction for MOOC logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic log pair")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--students", type=int, default=200)
    p.add_argument("--weeks", type=int, default=8)
    p.add_argument("--signal", type=float, default=0.8)
    p.add_argument("--mix", default="0.90,0.09,0.01")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse, filter and encode raw logs")
    p.add_argument("--clicks", required=True)
    p.add_argument("--forum", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-viewers", dest="min_unique_viewers", type=int, default=10)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("featurize", help="build train/test feature matrices")
    p.add_argument("--events", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rare-threshold", dest="rare_threshold", type=int, default=4)
    p.add_argument("--test-id-min", dest="test_id_min", type=int, default=798619)
    p.add_argument("--test-id-max", dest="test_id_max", type=int, default=1882807)
    p.add_argument("--course-start", dest="course_start", type=float)
    p.add_argument("--setup", choices=[s.value for s in Setup], default=Setup.CURR.value)
    p.add_argument("--model", choices=[m.value for m in ModelFamily],
                   default=ModelFamily.GRAPH.value)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the cost-sensitive RBF SVM")
    p.add_argument("--train", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svm-c", dest="svm_c", type=float)
    p.add_argument("--svm-gamma", dest="svm_gamma", type=float)
    p.add_argument("--svm-tolerance", dest="svm_tolerance", type=float)
    p.add_argument("--svm-max-iter", dest="svm_max_iter", type=int)
    p.add_argument("--cost0", type=float)
    p.add_argument("--cost1", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model (optionally against another)")
    p.add_argument("--model-file", dest="model_file", required=True)
    p.add_argument("--model-file-b", dest="model_file_b")
    p.add_argument("--test", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ttest-out", dest="ttest_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="DOT graphs and feature analyses")
    p.add_argument("--events", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--student", type=int)
    p.add_argument("--week", type=int)
    p.add_argument("--course-start", dest="course_start", type=float)
    p.add_argument("--setup", choices=[s.value for s in Setup], default=Setup.CURR.value)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CommandError as exc:
        print(json.dumps({"error": str(exc), "code": exc.code}), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # Bad values in flags or input files (including corrupt JSON).
        print(json.dumps({"error": str(exc), "code": EXIT_BAD_INPUT}), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
