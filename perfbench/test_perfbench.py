"""Self-tests of the benchmark's own logic: injector, output checks, tracer."""

import json
import shutil
from collections import Counter

import pytest

import checks
import logprep
import run as bench
import tracer
from mooctrace import cli
from mooctrace.events import parse_clickstream_log, parse_forum_log

SMALL = bench.Workload(students=30, setup="curr", family="graph", report=True)
SEED = 3
PARSERS = {"clickstream": parse_clickstream_log, "forum": parse_forum_log}


def _parse(path, parse):
    with open(path, "rb") as fh:
        return parse(fh)


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    out = tmp_path_factory.mktemp("logs")
    assert cli.main(bench.cli_argv("synth", out, out, SMALL, SEED)) == 0
    return out


class InProcessRunner:
    """Stands in for bench.Runner: runs commands in this process, then
    optionally damages what one step wrote."""

    def __init__(self, run_dir, damage=None):
        self.run_dir = run_dir
        self.damage = damage or {}

    def cli(self, argv):
        code = cli.main(argv)
        if argv[0] in self.damage:
            self.damage[argv[0]](self.run_dir)
        return bench.ChildResult(wall_s=0.01, cpu_s=0.01, exit_code=code, peak_rss_mb=1.0, stderr="")


def test_injector_counts_match_parser_diagnostics(logs, tmp_path):
    dirty = tmp_path / "dirty"
    shutil.copytree(logs, dirty)
    expected = logprep.inject_logs(dirty, 0.02, SEED)
    for source, parse in PARSERS.items():
        clean_events, clean_diags = _parse(logs / f"{source}.jsonl", parse)
        events, diags = _parse(dirty / f"{source}.jsonl", parse)
        assert clean_diags == []
        assert Counter(d.reason for d in diags) == Counter(expected[source])
        assert events == clean_events  # valid lines untouched, blank lines skipped
    kinds = {"clickstream": logprep.CLICK_KINDS, "forum": logprep.FORUM_KINDS}
    for source, table in kinds.items():
        assert set(expected[source]) == {reason for _, reason in table.values()}

    again = tmp_path / "again"
    shutil.copytree(logs, again)
    assert logprep.inject_logs(again, 0.02, SEED) == expected
    for name in ("clickstream.jsonl", "forum.jsonl"):
        assert (again / name).read_bytes() == (dirty / name).read_bytes()


def _truncate_report(run_dir):
    path = run_dir / "report.json"
    path.write_text(path.read_text()[:20])


def _unconverge_model(run_dir):
    path = run_dir / "model.json"
    model = json.loads(path.read_text())
    model["converged"] = False
    path.write_text(json.dumps(model))


def test_clean_pass_has_no_problems(logs, tmp_path):
    run_dir = tmp_path / "run"
    record = bench.run_pass(InProcessRunner(run_dir), SMALL, SEED, logs, run_dir, 0)
    assert record["problems"] == {}
    assert set(record["cpu_s"]) == set(SMALL.steps)
    assert set(checks.digests(run_dir)) == set(checks.DIGESTED)


@pytest.mark.parametrize(
    "step, damage, failed_steps",
    [
        ("eval", _truncate_report, {"eval", "report"}),
        ("train", _unconverge_model, {"train", "eval", "report"}),
    ],
)
def test_damaged_artifact_counts_as_failed_op(logs, tmp_path, step, damage, failed_steps):
    run_dir = tmp_path / "run"
    runner = InProcessRunner(run_dir, {step: damage})
    record = bench.run_pass(runner, SMALL, SEED, logs, run_dir, 0)
    assert set(record["problems"]) == failed_steps
    assert record["problems"][step] and "not run" not in record["problems"][step][0]


def test_ingest_check_compares_reject_count(logs, tmp_path):
    run_dir = tmp_path / "run"
    assert cli.main(bench.cli_argv("ingest", logs, run_dir, SMALL, SEED)) == 0
    assert checks.check_step("ingest", run_dir, 0) == []
    assert checks.check_step("ingest", run_dir, 1) == ["0 diagnostics, 1 lines injected"]


def test_tracer_splits_self_and_total_time():
    t = tracer.Tracer()
    leaf = t.wrap("b", "b.leaf", lambda: sum(range(20000)))
    inner = t.wrap("a", "a.inner", lambda: leaf())
    outer = t.wrap("a", "a.outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, outer_total, outer_self = t.functions["a.outer"]
    _, inner_total, inner_self = t.functions["a.inner"]
    leaf_calls, leaf_total, _ = t.functions["b.leaf"]
    assert (calls, leaf_calls) == (1, 3)
    assert outer_total == pytest.approx(outer_self + inner_total)
    assert inner_total == pytest.approx(inner_self + leaf_total)
    # Nested spans of one layer count once in its total.
    assert t.layers["a"][0] == 4
    assert t.layers["a"][1] == pytest.approx(outer_total)
    assert t.layers["a"][2] == pytest.approx(outer_self + inner_self)
