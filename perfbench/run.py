"""Seeded benchmark of the mooctrace CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each run generates input logs with ``mooctrace synth``, trims
them to the course's weeks and, on the dirty workload, adds seeded
malformed lines (``logprep.py``). It then runs the real CLI commands one
subprocess at a time and checks every output.

``--trace 0`` makes three input sets from the seed and runs the workload's
pipeline on them in turn while another pass fits in ``--seconds``. How
long a command takes depends on its input (SMO steps, n-gram columns and
sequence lengths all vary with the synth seed), so a median over passes on
three inputs moves less between seeds than a time on one input. It reports
end-to-end metrics, each a median over passes: every command's time, the
sum of those medians (``pipeline_s``), the largest per-command peak RSS,
and the setup time (median over the three input sets). A
command's time is the CPU time (user + system, all threads) that
``os.wait4`` reports for its process, interpreter start and import
included. On an idle machine it tracks wall time; unlike wall time it
leaves out time the host withholds the CPU, which on shared two-core
machines moved wall time by 10-30% between identical runs. Wall times are
kept in the run record. Every child runs with one BLAS thread: idle
OpenBLAS workers spin, and their spinning added a varying 0.1-0.3 s of CPU
time to each command, even to ``ingest``.

A pass that repeats an input set must write the same artifact bytes as
the first pass on it.

``--trace 1`` takes the first input set and runs every command twice in
fresh interpreters, once plain and once with wrappers around each library
function (see ``tracer.py``), and reports per-layer metrics named
``<module>.<metric>`` (in-process wall time); ``trace.overhead_s`` is
traced minus plain command time. The plain and traced artifacts must match.

The last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted``/``failed`` count timed CLI commands; a command fails when it
exits nonzero, writes a traceback or fails its output check. The line
before it holds the run record (environment, per-pass CPU and wall times
and, per input set, its synth seed, artifact digests, SMO steps, eval's
accuracy/kappa/FNR and injected reject counts), also kept under
``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import logprep  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(tracer.__file__).resolve()

WEEKS = 8
DATASETS = 3  # input sets per timed run
RUN_BUDGET_S = 170.0  # the whole run, setup included, must end within this
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    students: int
    setup: str
    family: str
    report: bool
    dirty_share: float = 0.0  # malformed lines injected per valid log line

    @property
    def steps(self) -> tuple[str, ...]:
        return ("ingest", "featurize", "train", "eval") + (
            ("report",) if self.report else ()
        )


# Why each workload exists is recorded in BENCHMARK.json. Sizes keep one
# pass under fifteen CPU seconds on a two-core x86-64 machine, so a
# fifty-second run times three to five passes. The graph family on plain
# Curr weeks has no workload of its own: tcurr-dirty reaches every layer it
# would, with more graph work.
WORKLOADS = {
    # n-gram family, no report: never calls actgraph; dense SVM dominates.
    "ngram-curr": Workload(students=200, setup="curr", family="baseline", report=False),
    # Cumulative TCurr sequences with malformed log lines on the reject path.
    "tcurr-dirty": Workload(
        students=120, setup="tcurr", family="graph", report=True, dirty_share=0.01
    ),
}


def cli_argv(step: str, logs: Path, run: Path, wl: Workload, seed: int) -> list[str]:
    """The mooctrace command line of one pipeline step."""
    if step == "synth":
        return ["synth", "--out-dir", str(logs), "--students", str(wl.students),
                "--weeks", str(WEEKS), "--seed", str(seed)]
    if step == "ingest":
        return ["ingest", "--clicks", str(logs / "clickstream.jsonl"),
                "--forum", str(logs / "forum.jsonl"), "--out-dir", str(run)]
    if step == "featurize":
        return ["featurize", "--events", str(run / "events.jsonl"), "--out-dir", str(run),
                "--setup", wl.setup, "--model", wl.family]
    if step == "train":
        return ["train", "--train", str(run / "train.txt"),
                "--features", str(run / "features.json"),
                "--out", str(run / "model.json"), "--seed", str(seed)]
    if step == "eval":
        return ["eval", "--model-file", str(run / "model.json"),
                "--test", str(run / "test.txt"),
                "--features", str(run / "features.json"), "--out", str(run / "report.json")]
    if step == "report":
        return ["report", "--events", str(run / "events.jsonl"),
                "--out-dir", str(run / "report"), "--setup", wl.setup]
    raise ValueError(f"unknown step {step!r}")


class BenchError(Exception):
    """The benchmark cannot produce a result (bad checkout, setup failed)."""


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    exit_code: int
    peak_rss_mb: float
    stderr: str

    def problems(self) -> list[str]:
        found = []
        if self.exit_code != 0:
            found.append(f"exit code {self.exit_code}")
        if "Traceback (most recent call last)" in self.stderr:
            found.append("traceback on stderr")
        return found


class Runner:
    """Starts one child process at a time and reaps it with its own rusage."""

    def __init__(self, work: Path, deadline: float):
        self.console = work / "console"
        self.console.mkdir(parents=True)
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.env.update({name: "1" for name in BLAS_ENV})
        self.count = 0

    def run(self, argv: list[str]) -> ChildResult:
        self.count += 1
        out_path = self.console / f"{self.count:03d}.out"
        err_path = self.console / f"{self.count:03d}.err"
        timeout = max(1.0, self.deadline - perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(
            wall_s=wall_s,
            cpu_s=usage.ru_utime + usage.ru_stime,
            exit_code=proc.returncode,
            peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
            stderr=err_path.read_text(errors="replace"),
        )

    def cli(self, cli_args: list[str]) -> ChildResult:
        return self.run([sys.executable, "-m", "mooctrace.cli", *cli_args])

    def tracer(self, cli_args: list[str], summary: Path, traced: bool) -> ChildResult:
        argv = [sys.executable, str(TRACER), "--summary", str(summary)]
        return self.run(argv + (["--trace"] if traced else []) + ["--", *cli_args])


def environment(child_env: dict[str, str]) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {name: child_env.get(name) for name in BLAS_ENV},
    }


def make_logs(runner: Runner, logs: Path, wl: Workload, seed: int):
    """Synth the workload's logs, then trim and inject (``logprep``).

    Returns the injected counts and the CPU seconds spent: the synth
    process's plus this process's own for the preparation.
    """
    child = runner.cli(cli_argv("synth", logs, logs, wl, seed))
    if child.problems():
        raise BenchError(f"synth failed: {child.problems()} {child.stderr[-2000:]}")
    start = process_time()
    injected = logprep.prepare_logs(logs, WEEKS, wl.dirty_share, seed)
    return injected, child.cpu_s + process_time() - start


def dataset_seed(seed: int, index: int) -> int:
    """The synth seed of input set ``index`` of a run; distinct for every pair."""
    return seed * DATASETS + index


def run_pass(runner, wl, seed, logs, run, expected_rejects) -> dict:
    """One pass over the workload's commands, each checked after it ends."""
    wall, cpu, rss, problems = {}, {}, {}, {}
    for step in wl.steps:
        if problems:
            problems[step] = ["not run: an earlier command failed"]
            continue
        child = runner.cli(cli_argv(step, logs, run, wl, seed))
        wall[step] = child.wall_s
        cpu[step] = child.cpu_s
        rss[step] = child.peak_rss_mb
        found = child.problems() or checks.check_step(step, run, expected_rejects)
        if found:
            problems[step] = found
    return {"cpu_s": cpu, "wall_s": wall, "peak_rss_mb": rss, "problems": problems}


def timed_run(runner: Runner, work: Path, wl: Workload, seed: int, seconds: float):
    datasets = []
    for index in range(DATASETS):
        logs = work / f"logs{index}"
        ds_seed = dataset_seed(seed, index)
        injected, cpu_s = make_logs(runner, logs, wl, ds_seed)
        datasets.append({"seed": ds_seed, "logs": logs, "injected": injected,
                         "setup_cpu_s": cpu_s})

    passes: list[dict] = []
    run = work / "run"
    window_start = perf_counter()
    while True:
        index = len(passes) % DATASETS
        ds = datasets[index]
        shutil.rmtree(run, ignore_errors=True)  # no output may survive from a pass before
        record = run_pass(runner, wl, ds["seed"], ds["logs"], run,
                          logprep.expected_total(ds["injected"]))
        record["dataset"] = index
        passes.append(record)
        if record["problems"]:
            break
        record["digests"] = checks.digests(run)
        if "digests" not in ds:
            sizes = checks.sizes(run)
            ds.update(digests=record["digests"], smo_steps=sizes["smo_steps"],
                      quality=checks.quality(run), sizes=sizes)
        elapsed = perf_counter() - window_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break  # the next pass would likely end after the window

    attempted = len(passes) * len(wl.steps)
    failed = sum(len(p["problems"]) for p in passes)
    # A repeated pass on an input set must write the same bytes as its first.
    repeats = all(p["digests"] == datasets[p["dataset"]]["digests"]
                  for p in passes if "digests" in p)
    correct = failed == 0 and repeats

    metrics = {}
    done = [p for p in passes if not p["problems"]]
    if done:
        med = statistics.median
        step_s = {step: med([p["cpu_s"][step] for p in done]) for step in wl.steps}
        metrics["pipeline_s"] = (sum(step_s.values()), "s")
        for step in ("ingest", "featurize", "train", "eval"):
            metrics[f"{step}_s"] = (step_s[step], "s")
        metrics["peak_rss_mb"] = (med([max(p["peak_rss_mb"].values()) for p in done]), "MB")
    metrics["setup_s"] = (statistics.median(ds["setup_cpu_s"] for ds in datasets), "s")
    for ds in datasets:
        ds["logs"] = str(ds["logs"])
    record = {"datasets": datasets, "passes": passes, "digests_repeat": repeats}
    return correct, attempted, failed, metrics, record


def traced_run(runner: Runner, work: Path, wl: Workload, seed: int):
    """Plain and traced fresh-interpreter runs of every command, side by side."""
    seed = dataset_seed(seed, 0)
    chains = {"plain": work / "plain", "traced": work / "traced"}
    summaries = {name: {} for name in chains}

    def run_both(step: str) -> dict[str, ChildResult]:
        results = {}
        for name, base in chains.items():
            path = runner.console / f"{name}-{step}.json"
            argv = cli_argv(step, base / "logs", base / "run", wl, seed)
            child = runner.tracer(argv, path, traced=name == "traced")
            results[name] = child
            if not child.problems():
                summaries[name][step] = json.loads(path.read_text())
        return results

    injected = {}
    for name, child in run_both("synth").items():
        if child.problems():
            raise BenchError(f"{name} synth failed: {child.problems()}")
        injected = logprep.prepare_logs(chains[name] / "logs", WEEKS, wl.dirty_share, seed)
    expected_rejects = logprep.expected_total(injected)

    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for step in wl.steps:
        for name, child in run_both(step).items():
            attempted += 1
            found = child.problems() or checks.check_step(
                step, chains[name] / "run", expected_rejects)
            if found:
                failed += 1
                problems[f"{name}:{step}"] = found
        if problems:
            break
    failed += (len(wl.steps) * 2 - attempted)
    attempted = len(wl.steps) * 2
    if problems:
        return False, attempted, failed, {}, {"problems": problems, "injected": injected}

    plain_digests = checks.digests(chains["plain"] / "run")
    traced_digests = checks.digests(chains["traced"] / "run")
    correct = plain_digests == traced_digests

    traced = summaries["traced"]
    functions: dict[str, list] = {}
    layers: dict[str, list] = {}
    counts: dict[str, int] = {}
    graph_keys: list[str] = []
    for summary in traced.values():
        for table, rows in ((functions, summary["functions"]), (layers, summary["layers"])):
            for key, (calls, total_s, self_s) in rows.items():
                row = table.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total_s
                row[2] += self_s
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value
        graph_keys += summary["graph_keys"]

    def calls(*names):
        return sum(functions.get(n, [0, 0.0, 0.0])[0] for n in names)

    def total(*names):
        return sum(functions.get(n, [0, 0.0, 0.0])[1] for n in names)

    run = chains["traced"] / "run"
    sizes = checks.sizes(run)
    quality = checks.quality(run)
    steps = wl.steps
    all_children = [s for chain in summaries.values() for s in chain.values()]
    fit_s = total("model.fit_svm")
    predict_s = total("model.predict_all")
    metrics = {
        "cli.import_s": (statistics.median(s["import_s"] for s in all_children), "s"),
        "cli.self_s": (sum(traced[s]["cli_self_s"] for s in steps), "s"),
        "cli.files_written": (sizes["files_written"], "count"),
        "synth.generate_s": (total("synth.generate_synthetic"), "s"),
        "synth.lines": (counts.get("synth.lines", 0), "count"),
        "events.parse_s": (
            total("events.parse_clickstream_log", "events.parse_forum_log"), "s"),
        "events.lines": (counts.get("events.lines", 0), "count"),
        "events.rejected": (counts.get("events.rejected", 0), "count"),
        "events.filter_s": (total("events.filter_valid_videos"), "s"),
        "events.encode_s": (total("events.encode_events"), "s"),
        "events.encoded": (counts.get("events.encoded", 0), "count"),
        "events.read_s": (total("events.event_from_json_obj"), "s"),
        "footprint.build_s": (
            total("footprint.build_curr_sequences", "footprint.build_tcurr_sequences"), "s"),
        "footprint.instances": (sizes["instances"], "count"),
        "footprint.tokens": (sizes["tokens"], "count"),
        "actgraph.metrics_s": (total("actgraph.compute_metrics"), "s"),
        "actgraph.metrics_calls": (calls("actgraph.compute_metrics"), "count"),
        "actgraph.betweenness_s": (total("actgraph.edge_betweenness"), "s"),
        "actgraph.dot_s": (total("actgraph.export_dot"), "s"),
        "actgraph.repeat_share": (
            1.0 - len(set(graph_keys)) / len(graph_keys) if graph_keys else 0.0, "ratio"),
        "features.assemble_self_s": (
            functions.get("features.assemble_dataset", [0, 0.0, 0.0])[2], "s"),
        "features.ngram_s": (total("features.ngram_features"), "s"),
        "features.finalize_s": (total("features.finalize_split"), "s"),
        "features.export_s": (total("features.export_sparse"), "s"),
        "features.read_s": (total("features.read_sparse"), "s"),
        "features.n_features": (sizes["n_features"], "count"),
        "features.nnz": (sizes["nnz"], "count"),
        "features.dense_mb": (sizes["dense_mb"], "MB"),
        "model.fit_s": (fit_s, "s"),
        "model.smo_steps": (sizes["smo_steps"], "count"),
        "model.step_ms": (1000.0 * fit_s / max(1, sizes["smo_steps"]), "ms"),
        "model.n_sv": (sizes["n_sv"], "count"),
        "model.predict_s": (predict_s, "s"),
        "model.predict_us_per_row": (1e6 * predict_s / max(1, sizes["test_rows"]), "us"),
        "model.dump_s": (total("model.dump_model"), "s"),
        "model.load_s": (total("model.load_model"), "s"),
        "model.file_mb": (sizes["model_mb"], "MB"),
        "model.analysis_s": (
            total("model.interaction_gain_ranking", "model.contingency_table"), "s"),
        "model.accuracy": (quality["accuracy"], "ratio"),
        "model.kappa": (quality["kappa"], "ratio"),
        "model.fnr": (quality["fnr"], "ratio"),
        "trace.overhead_s": (
            sum(traced[s]["command_s"] - summaries["plain"][s]["command_s"] for s in steps),
            "s"),
    }
    for layer in tracer.LAYERS:
        n, total_s, self_s = layers.get(layer, [0, 0.0, 0.0])
        metrics[f"{layer}.calls"] = (n, "count")
        metrics[f"{layer}.total_s"] = (total_s, "s")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    record = {
        "dataset_seed": seed,
        "injected": injected,
        "digests": traced_digests,
        "digests_plain": plain_digests,
        "smo_steps": sizes["smo_steps"],
        "command_s": {name: {s: v["command_s"] for s, v in chain.items()}
                      for name, chain in summaries.items()},
        "functions": functions,
        "quality": quality,
        "sizes": sizes,
    }
    return correct, attempted, failed, metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mooctrace pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = perf_counter() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]

    if not (SRC / "mooctrace" / "cli.py").is_file():
        print(f"perfbench: no mooctrace source under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work, deadline)
    try:
        if args.trace:
            correct, attempted, failed, metrics, record = traced_run(
                runner, work, wl, args.seed)
        else:
            correct, attempted, failed, metrics, record = timed_run(
                runner, work, wl, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": vars(wl) | {"weeks": WEEKS},
        "environment": environment(runner.env),
        **record,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if correct and failed == 0:
        shutil.rmtree(work)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
