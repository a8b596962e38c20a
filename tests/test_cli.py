import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from mooctrace import cli, events as ev, features, model as svm


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def logs_dir(tmp_path):
    out = tmp_path / "logs"
    assert run("synth", "--out-dir", out, "--students", 60, "--weeks", 4,
               "--signal", "0.8", "--seed", 5) == 0
    return out


@pytest.fixture
def events_dir(tmp_path, logs_dir):
    out = tmp_path / "ingested"
    assert run("ingest", "--clicks", logs_dir / "clickstream.jsonl",
               "--forum", logs_dir / "forum.jsonl", "--out-dir", out) == 0
    return out


@pytest.fixture
def featurized_dir(tmp_path, events_dir):
    out = tmp_path / "features"
    assert run("featurize", "--events", events_dir / "events.jsonl",
               "--out-dir", out, "--setup", "curr", "--model", "graph") == 0
    return out


def _put_item(row: str, item: str) -> str:
    """The sparse row with item at the ascending position of its first column.

    The row keeps no other value for a column the item names, so a damaged
    item fails for its own reason, not for a repeated column. An item with no
    integer column goes last.
    """
    label, *items = row.split()
    try:
        first = int(item.partition(":")[0])
        named = {int(part.partition(":")[0]) for part in item.split()}
    except ValueError:
        return f"{row} {item}"
    kept = [it for it in items if int(it.partition(":")[0]) not in named]
    at = sum(int(it.partition(":")[0]) < first for it in kept)
    return " ".join([label, *kept[:at], item, *kept[at:]])


def _with_class_cost(obj: dict, cost_json: str) -> str:
    """The model's JSON text with its params' class_cost replaced by cost_json."""
    params = dict(obj["params"], class_cost="COST")
    return json.dumps(dict(obj, params=params)).replace('"COST"', cost_json)


class TestSynthCommand:
    def test_writes_both_logs(self, logs_dir):
        assert (logs_dir / "clickstream.jsonl").exists()
        assert (logs_dir / "forum.jsonl").exists()

    def test_bad_mix(self, tmp_path, capsys):
        code = run("synth", "--out-dir", tmp_path, "--mix", "0.5,0.5")
        assert code == cli.EXIT_BAD_INPUT
        assert "error" in json.loads(capsys.readouterr().err)


class TestIngestCommand:
    def test_outputs(self, events_dir):
        events = (events_dir / "events.jsonl").read_text().splitlines()
        assert len(events) > 100
        assert (events_dir / "diagnostics.jsonl").read_text() == ""

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = run("ingest", "--clicks", tmp_path / "nope.jsonl",
                   "--forum", tmp_path / "nope2.jsonl", "--out-dir", tmp_path)
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("missing", ["clickstream", "forum"])
    def test_unreadable_log_names_it(self, tmp_path, logs_dir, capsys, missing):
        logs = {"clickstream": logs_dir / "clickstream.jsonl", "forum": logs_dir / "forum.jsonl"}
        logs[missing] = tmp_path / "nope.jsonl"
        code = run("ingest", "--clicks", logs["clickstream"], "--forum", logs["forum"],
                   "--out-dir", tmp_path / "out")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == f"cannot read {missing} {logs[missing]}: No such file or directory"
        assert not (tmp_path / "out").exists()

    def test_malformed_line_becomes_diagnostic(self, tmp_path):
        clicks = tmp_path / "clicks.jsonl"
        clicks.write_text(
            '{"sid":1,"t":10.0,"vid":"v1","kind":"play"}\n'
            '{"sid":1,"t":11.0,"vid":"v1","kind":"seek"}\n'
        )
        forum = tmp_path / "forum.jsonl"
        forum.write_text('{"sid":1,"t":12.0,"kind":"viewforum"}\n')
        out = tmp_path / "out"
        assert run("ingest", "--clicks", clicks, "--forum", forum,
                   "--out-dir", out, "--min-viewers", 1) == 0
        diags = [json.loads(l) for l in (out / "diagnostics.jsonl").read_text().splitlines()]
        assert len(diags) == 1
        assert diags[0]["line"] == 2 and "direction" in diags[0]["reason"]

    def test_out_of_range_numbers_become_diagnostics(self, tmp_path):
        clicks = tmp_path / "clicks.jsonl"
        clicks.write_text(
            '{"sid":1,"t":10.0,"vid":"v1","kind":"play"}\n'
            '{"sid":1,"t":1%s,"vid":"v1","kind":"pause"}\n'
            '{"sid":1,"t":11.0,"vid":"v1","kind":"ratechange","rate":1%s}\n'
            '{"sid":%s,"t":12.0,"vid":"v1","kind":"play"}\n'
            '{"sid":1,"t":13.0,"vid":"v1","kind":"pause"}\n'
            % ("0" * 400, "0" * 400, "1" * 5000)
        )
        forum = tmp_path / "forum.jsonl"
        forum.write_text('{"sid":1,"t":14.0,"kind":"viewforum"}\n')
        out = tmp_path / "out"
        assert run("ingest", "--clicks", clicks, "--forum", forum,
                   "--out-dir", out, "--min-viewers", 1) == 0
        diags = [json.loads(l) for l in (out / "diagnostics.jsonl").read_text().splitlines()]
        assert [d["line"] for d in diags] == [2, 3, 4]
        assert diags[0]["reason"] == "t must be a finite non-negative number"
        assert diags[1]["reason"] == "rate must be a positive number"
        assert diags[2]["reason"].startswith("invalid JSON: Exceeds the limit")
        events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
        assert [(e["t"], e["token"]) for e in events] == [
            (10.0, "PL"), (13.0, "PA"), (14.0, "Vf")]


class TestFeaturizeCommand:
    def test_outputs(self, featurized_dir):
        for name in ("train.txt", "test.txt", "features.json",
                     "train_keys.jsonl", "test_keys.jsonl", "sequences.jsonl"):
            assert (featurized_dir / name).exists(), name
        index = json.loads((featurized_dir / "features.json").read_text())
        assert len(index) > 10
        train_lines = (featurized_dir / "train.txt").read_text().splitlines()
        keys = (featurized_dir / "train_keys.jsonl").read_text().splitlines()
        assert len(train_lines) == len(keys) > 0

    def test_empty_test_warns(self, tmp_path, capsys, recwarn):
        events = tmp_path / "events.jsonl"
        events.write_text('{"sid": 5, "t": 100.0, "token": "PL"}\n')
        assert run("featurize", "--events", events, "--out-dir", tmp_path / "f",
                   "--test-id-min", 100, "--test-id-max", 200) == 0
        assert capsys.readouterr().err == '{"warning": "test split is empty"}\n'
        assert (tmp_path / "f" / "test.txt").read_text() == ""
        assert not recwarn.list

    def test_empty_train_warns(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"sid": 5, "t": 100.0, "token": "PL"}\n')
        assert run("featurize", "--events", events, "--out-dir", tmp_path / "f",
                   "--test-id-min", 0, "--test-id-max", 200) == 0
        assert capsys.readouterr().err == '{"warning": "train split is empty"}\n'
        assert (tmp_path / "f" / "features.json").read_text() == "{}\n"
        code = run("train", "--train", tmp_path / "f" / "train.txt",
                   "--features", tmp_path / "f" / "features.json", "--out", tmp_path / "m.json")
        assert code == cli.EXIT_EMPTY_EVENTS
        assert json.loads(capsys.readouterr().err)["error"] == "train split is empty"
        assert not (tmp_path / "m.json").exists()

    def test_instance_count_matches_active_student_weeks(self, events_dir, featurized_dir):
        from mooctrace.footprint import build_curr_sequences

        events = ev.events_from_jsonl((events_dir / "events.jsonl").read_text())
        expected = len(build_curr_sequences(events))
        n_train = len((featurized_dir / "train.txt").read_text().splitlines())
        n_test = len((featurized_dir / "test.txt").read_text().splitlines())
        assert n_train + n_test == expected

    def test_tcurr_preserves_instance_keys(self, tmp_path, events_dir):
        out_c = tmp_path / "fc"
        out_t = tmp_path / "ft"
        assert run("featurize", "--events", events_dir / "events.jsonl",
                   "--out-dir", out_c, "--setup", "curr") == 0
        assert run("featurize", "--events", events_dir / "events.jsonl",
                   "--out-dir", out_t, "--setup", "tcurr") == 0
        for name in ("train_keys.jsonl", "test_keys.jsonl"):
            assert (out_c / name).read_text() == (out_t / name).read_text()

    def test_combined_index_is_union(self, tmp_path, events_dir):
        indexes = {}
        for family in ("baseline", "graph", "combined"):
            out = tmp_path / family
            assert run("featurize", "--events", events_dir / "events.jsonl",
                       "--out-dir", out, "--model", family,
                       "--rare-threshold", 0) == 0
            indexes[family] = set(json.loads((out / "features.json").read_text()))
        assert indexes["combined"] == indexes["baseline"] | indexes["graph"]

    @pytest.mark.parametrize(
        "line, defect",
        [
            ('{"sid":1,"t":1.0}', "missing field 'token'"),
            ('{"sid":1,"t":1.0,"token":"XX"}', "unknown token 'XX'"),
            ('[1, 1.0, "PL"]', "not a JSON object"),
            ('{"sid":"abc","t":1.0,"token":"PL"}', "invalid literal"),
            ('{"sid":1,"t":null,"token":"PL"}', "float() argument"),
            ('{"sid":1,"t":Infinity,"token":"PL"}', "t must be a finite number"),
            ('{"sid":Infinity,"t":1.0,"token":"PL"}', "cannot convert float infinity"),
        ],
    )
    def test_malformed_event_line_exit_2(self, tmp_path, capsys, line, defect):
        events = tmp_path / "events.jsonl"
        events.write_text('{"sid": 1, "t": 0.0, "token": "PL"}\n'
                          '{"sid": 1, "t": 5.0, "token": "Vf"}\n' + line + "\n")
        code = run("featurize", "--events", events, "--out-dir", tmp_path / "o")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)["error"]
        assert err.startswith(f"{events} line 3: ") and line in err, defect

    def test_crlf_events_exit_2(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_bytes(b'{"sid": 1, "t": 0.0, "token": "PL"}\r\n'
                           b'{"sid": 1, "t": 5.0, "token": "Vf"}\r\n')
        code = run("featurize", "--events", events, "--out-dir", tmp_path / "o")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)["error"]
        assert err.startswith(f"{events} line 1: not a line as ingest writes it")

    def test_ingest_output_takes_fast_path(self, events_dir):
        text = (events_dir / "events.jsonl").read_text()
        read = ev.events_from_jsonl(text)
        assert len(read) == text.count("\n") > 0
        assert ev.events_to_jsonl(read) == text

    @pytest.mark.parametrize("command", ["featurize", "report"])
    @pytest.mark.parametrize("flag", [
        "--course-start=nan",
        "--course-start=-inf",
        "--course-start=-1e308",  # 1e+308 - -1e308 overflows to inf
    ])
    def test_course_start_without_finite_week_exit_2(self, tmp_path, capsys, command, flag):
        events = tmp_path / "events.jsonl"
        events.write_text('{"sid": 1, "t": 5.0, "token": "PL"}\n'
                          '{"sid": 1, "t": 1e+308, "token": "PA"}\n')
        code = run(command, "--events", events, "--out-dir", tmp_path / "o", flag)
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)["error"]
        assert err.startswith("course_start ") and "no finite week" in err
        assert not (tmp_path / "o").exists()

    def test_negative_zero_t_goes_through(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        clicks = [{"sid": sid, "t": t, "vid": "v", "kind": "play"}
                  for sid, t in ((1, -0.0), (1, 700000.0), (800000, -0.0))]
        (logs / "clicks.jsonl").write_text("".join(json.dumps(c) + "\n" for c in clicks))
        (logs / "forum.jsonl").write_text(
            json.dumps({"sid": 800000, "t": -0.0, "kind": "post"}) + "\n")
        out = tmp_path / "ingested"
        assert run("ingest", "--clicks", logs / "clicks.jsonl", "--forum", logs / "forum.jsonl",
                   "--out-dir", out, "--min-viewers", 1) == 0
        assert '"t": -0.0' in (out / "events.jsonl").read_text()
        assert run("featurize", "--events", out / "events.jsonl", "--out-dir", tmp_path / "f",
                   "--rare-threshold", 0) == 0


class TestTrainEvalCommands:
    def test_train_eval_roundtrip(self, tmp_path, featurized_dir):
        model_path = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", model_path, "--seed", 0) == 0
        report_path = tmp_path / "report.json"
        assert run("eval", "--model-file", model_path,
                   "--test", featurized_dir / "test.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"accuracy", "kappa", "fnr", "confusion"}
        assert report["accuracy"] > 0.5

    def test_eval_model_against_itself(self, tmp_path, featurized_dir):
        model_path = tmp_path / "model.json"
        run("train", "--train", featurized_dir / "train.txt",
            "--features", featurized_dir / "features.json", "--out", model_path)
        ttest_path = tmp_path / "ttest.json"
        assert run("eval", "--model-file", model_path, "--model-file-b", model_path,
                   "--test", featurized_dir / "test.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "r.json", "--ttest-out", ttest_path) == 0
        ttest = json.loads(ttest_path.read_text())
        assert ttest["t"] == 0.0 and ttest["p"] == 1.0

    def test_ttest_out_without_model_b_exit_2(self, tmp_path, capsys):
        # Checked before any input is read: none of these files exists.
        code = run("eval", "--model-file", tmp_path / "m.json", "--test", tmp_path / "test.txt",
                   "--features", tmp_path / "features.json", "--out", tmp_path / "r.json",
                   "--ttest-out", tmp_path / "ttest.json")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == "--ttest-out needs --model-file-b"

    @pytest.mark.parametrize("item, reason", [
        pytest.param(item, reason, id=item) for item, reason in [
            ("-1:5.0", "column -1 outside"),
            ("999999:1.0", "column 999999 outside"),
            ("3=1.0", "item '3=1.0' is not int:float"),
            ("x:1.0", "item 'x:1.0' is not int:float"),
            ("2:abc", "item '2:abc' is not int:float"),
            ("1_0:1.0", "item '1_0:1.0' is not int:float"),
            ("\u0661\u0662:2.5", "item '\u0661\u0662:2.5' is not int:float"),
            ("3:1_0.5", "item '3:1_0.5' is not int:float"),
            ("+3:1.0", "item '+3:1.0' is not int:float"),
            # Items are separated by single spaces and rows end only at '\n'.
            (" 2:1.0", "item '' is not int:float"),
            ("2:\t1.0", "item '2:\\t1.0' is not int:float"),
            ("2:1.0\x0c", "item '2:1.0\\x0c' is not int:float"),
            ("2:1.0\u2028", "item '2:1.0\\u2028' is not int:float"),
            ("2:1.0\r", "item '2:1.0\\r' is not int:float"),
            ("2:nan", "column 2 value 'nan' is not finite"),
            ("2:inf", "column 2 value 'inf' is not finite"),
            ("2:1e200", "squared norm is not finite"),
            ("2:1.0 2:1.0", "column 2 after column 2"),
            ("4:1.0 2:1.0", "column 2 after column 4"),
        ]
    ])
    def test_bad_train_column_exit_2(self, tmp_path, featurized_dir, capsys, item, reason):
        lines = (featurized_dir / "train.txt").read_text().splitlines()
        bad = tmp_path / "train.txt"
        bad.write_text("\n".join(lines[:-1] + [_put_item(lines[-1], item)]) + "\n")
        code = run("train", "--train", bad, "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "m.json")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT
        assert err["error"].startswith(f"{bad}: row {len(lines)}: ")
        assert reason in err["error"]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan"])
    def test_nonpositive_gamma_exit_2(self, tmp_path, featurized_dir, capsys, gamma):
        code = run("train", "--train", featurized_dir / "train.txt", "--features",
                   featurized_dir / "features.json", "--out", tmp_path / "m.json",
                   "--svm-gamma", gamma)
        assert code == cli.EXIT_BAD_INPUT
        assert "gamma" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags, name", [
        pytest.param(flags.split(), name, id=flags) for flags, name in [
            ("--svm-c 0", "C * class_cost"),
            ("--svm-c -1", "C * class_cost"),
            ("--svm-c nan", "C * class_cost"),
            ("--cost0 -1 --cost1 1", "C * class_cost[0]"),
            ("--svm-c -1 --cost0 -1 --cost1 -1", "C * class_cost[0]"),
            ("--svm-tolerance nan", "tolerance"),
            ("--svm-tolerance 0", "tolerance"),
            ("--svm-max-iter -3", "max_iter"),
            ("--svm-gamma inf", "gamma"),
            ("--cost0 2", "cost0 and cost1"),
            ("--cost1 2", "cost0 and cost1"),
        ]
    ])
    def test_bad_svm_param_exit_2(self, tmp_path, featurized_dir, capsys, flags, name):
        code = run("train", "--train", featurized_dir / "train.txt", "--features",
                   featurized_dir / "features.json", "--out", tmp_path / "m.json", *flags)
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT and name in err["error"]
        assert not (tmp_path / "m.json").exists()

    def test_eval_rejects_renamed_features(self, tmp_path, featurized_dir, capsys):
        features_path = featurized_dir / "features.json"
        model_path = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", features_path, "--out", model_path) == 0
        index = json.loads(features_path.read_text())
        names = sorted(index, key=index.get)
        assert json.loads(model_path.read_text())["feature_names"] == names
        renamed = tmp_path / "features.json"
        renamed.write_text(json.dumps({f"x{col}": col for col in index.values()}))
        capsys.readouterr()
        code = run("eval", "--model-file", model_path,
                   "--test", featurized_dir / "test.txt",
                   "--features", renamed, "--out", tmp_path / "r.json")
        assert code == cli.EXIT_BAD_INPUT
        assert "feature names" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "r.json").exists()

    def test_unnamed_model_refused_before_allocating(self, tmp_path, featurized_dir):
        # One support vector over 10**12 columns would be an 8 TB dense row, so
        # eval must compare names first. It runs in a child whose address space
        # is capped, so a loader that allocates first fails there, not here.
        model_path = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", featurized_dir / "features.json", "--out", model_path) == 0
        obj = json.loads(model_path.read_text())
        nnz = obj["sv_indptr"][1]
        obj.update(n_features=10**12, feature_names=None, sv_indptr=[0, nnz],
                   sv_indices=obj["sv_indices"][:nnz], sv_values=obj["sv_values"][:nnz],
                   sv_labels=obj["sv_labels"][:1], alphas=obj["alphas"][:1])
        model_path.write_text(json.dumps(obj))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from mooctrace import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        child = subprocess.run(
            [sys.executable, "-c", code, "eval", "--model-file", str(model_path),
             "--test", str(featurized_dir / "test.txt"),
             "--features", str(featurized_dir / "features.json"),
             "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == cli.EXIT_BAD_INPUT, child.stderr
        assert "feature names" in json.loads(child.stderr)["error"]
        assert not (tmp_path / "r.json").exists()

    def test_unconverged_model_warns(self, tmp_path, featurized_dir, capsys):
        model_path = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", model_path, "--svm-max-iter", 3) == 0
        saved = json.loads(model_path.read_text())
        assert saved["converged"] is False
        assert saved["kkt_gap"] > saved["params"]["tolerance"]
        expected = {"warning": "svm did not converge", "n_iterations": 3,
                    "kkt_gap": saved["kkt_gap"]}
        assert json.loads(capsys.readouterr().err) == expected
        assert run("eval", "--model-file", model_path,
                   "--test", featurized_dir / "test.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "r.json") == 0
        assert json.loads(capsys.readouterr().err) == expected

    def test_converged_model_is_quiet(self, tmp_path, featurized_dir, capsys):
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "model.json") == 0
        assert capsys.readouterr().err == ""

    def test_eval_two_models_paired_ttest(self, tmp_path, featurized_dir):
        features_path, test_path = featurized_dir / "features.json", featurized_dir / "test.txt"
        model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", features_path, "--out", model_a) == 0
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", features_path, "--out", model_b,
                   "--cost0", 1, "--cost1", 1) == 0
        ttest_path = tmp_path / "ttest.json"
        assert run("eval", "--model-file", model_a, "--model-file-b", model_b,
                   "--test", test_path, "--features", features_path,
                   "--out", tmp_path / "r.json", "--ttest-out", ttest_path) == 0

        index = json.loads(features_path.read_text())
        X, y = features.read_sparse(test_path.read_text(), len(index))

        def correct(path):
            predictions = svm.predict_all(svm.load_model(path.read_text()), X)
            return [int(p == t) for p, t in zip(predictions, y)]

        correct_a, correct_b = correct(model_a), correct(model_b)
        # Differences of both signs: the t-test takes its non-degenerate branch.
        assert {a - b for a, b in zip(correct_a, correct_b)} == {-1, 0, 1}
        oracle = scipy_stats.ttest_rel(correct_a, correct_b)
        ttest = json.loads(ttest_path.read_text())
        assert ttest["df"] == len(y) - 1
        assert ttest["t"] == pytest.approx(oracle.statistic, rel=1e-9)
        assert ttest["p"] == pytest.approx(oracle.pvalue, rel=1e-9)

    @pytest.mark.parametrize("damage,key", [
        pytest.param(lambda obj: {"version": obj["version"]}, "'params'", id="version-only"),
        pytest.param(lambda obj: dict(obj, version=1), "unsupported model format version 1",
                     id="version-1"),
        pytest.param(lambda obj: [obj], "not a JSON object", id="list"),
        pytest.param(lambda obj: {k: v for k, v in obj.items() if k != "n_iterations"},
                     "'n_iterations'", id="no-n_iterations"),
        pytest.param(lambda obj: dict(obj, params=dict(obj["params"], C="1.0")),
                     "'C'", id="string-C"),
        pytest.param(lambda obj: dict(obj, sv_values=None),
                     "'sv_values'", id="null-sv_values"),
        pytest.param(lambda obj: dict(obj, sv_indptr=obj["sv_indptr"][:-1]),
                     "'sv_indptr'", id="short-sv_indptr"),
        pytest.param(lambda obj: dict(obj, sv_indptr=[0, obj["sv_indptr"][-1]]
                                      + obj["sv_indptr"][2:]),
                     "'sv_indptr'", id="decreasing-sv_indptr"),
        pytest.param(lambda obj: dict(obj, sv_indices=[obj["n_features"]]
                                      + obj["sv_indices"][1:]),
                     "'sv_indices'", id="column-n_features"),
        pytest.param(lambda obj: dict(obj, sv_indices=[-1] + obj["sv_indices"][1:]),
                     "'sv_indices'", id="negative-column"),
        pytest.param(lambda obj: dict(obj, sv_values=obj["sv_values"][:-1]),
                     "'sv_values'", id="short-sv_values"),
        pytest.param(lambda obj: dict(obj, sv_values=[1e200] + obj["sv_values"][1:]),
                     "'sv_values'", id="huge-sv_value"),
        pytest.param(lambda obj: dict(obj, alphas=[None] + obj["alphas"][1:]),
                     "'alphas'", id="null-alpha"),
        pytest.param(lambda obj: dict(obj, alphas=[math.nan] + obj["alphas"][1:]),
                     "'alphas'", id="nan-alpha"),
        pytest.param(lambda obj: dict(obj, alphas=[-3.0] + obj["alphas"][1:]),
                     "'alphas'", id="negative-alpha"),
        pytest.param(lambda obj: dict(obj, sv_labels=[7.0] + obj["sv_labels"][1:]),
                     "'sv_labels'", id="label-7"),
        pytest.param(lambda obj: dict(obj, sv_indices=obj["sv_indices"][:1] * 2
                                      + obj["sv_indices"][2:]),
                     "'sv_indices'", id="repeated-column"),
        pytest.param(lambda obj: dict(obj, sv_indices=obj["sv_indices"][1::-1]
                                      + obj["sv_indices"][2:]),
                     "'sv_indices'", id="descending-columns"),
        pytest.param(lambda obj: dict(obj, bias=math.inf), "'bias'", id="inf-bias"),
        pytest.param(lambda obj: dict(obj, params=dict(obj["params"], gamma=-1.0)),
                     "'gamma'", id="negative-gamma"),
        pytest.param(lambda obj: dict(obj, feature_names=[1, 2]),
                     "'feature_names'", id="int-feature_names"),
        pytest.param(lambda obj: dict(obj, n_features=obj["n_features"] + 1),
                     "'feature_names'", id="n_features-not-names"),
        pytest.param(lambda obj: "not json", "Expecting value", id="json-syntax"),
        *(pytest.param(lambda obj, cost=cost: _with_class_cost(obj, cost), "'class_cost'",
                       id=f"class_cost-{name}") for name, cost in [
            ("empty", "{}"), ("string", '{"0": "abc", "1": 1.0}'),
            ("past-float", '{"0": -1, "1": 1e400}'), ("key-x", '{"x": 1.0}'),
            ("zero", '{"0": 0, "1": 1.0}'), ("key-2", '{"0": 1.0, "1": 1.0, "2": 1.0}'),
        ]),
    ])
    def test_malformed_model_exit_2(self, tmp_path, featurized_dir, capsys, damage, key):
        model_path = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", featurized_dir / "features.json", "--out", model_path) == 0
        damaged = damage(json.loads(model_path.read_text()))
        model_path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        capsys.readouterr()
        code = run("eval", "--model-file", model_path,
                   "--test", featurized_dir / "test.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "r.json")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT and key in err["error"]
        assert err["error"].startswith(f"{model_path}: ")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("index", [
        pytest.param([0, 1, 2], id="list"),
        pytest.param({"a": "0"}, id="string-column"),
        pytest.param({"a": 0, "b": 0}, id="repeated-column"),
        pytest.param({"a": 1}, id="column-gap"),
        pytest.param('{"a": 0,}', id="json-syntax"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_feature_index_exit_2(self, tmp_path, featurized_dir, capsys, command, index):
        bad = tmp_path / "features.json"
        bad.write_text(index if isinstance(index, str) else json.dumps(index))
        if command == "train":
            argv = ("train", "--train", featurized_dir / "train.txt", "--out", tmp_path / "m.json")
        else:
            model_path = tmp_path / "model.json"
            assert run("train", "--train", featurized_dir / "train.txt",
                       "--features", featurized_dir / "features.json", "--out", model_path) == 0
            argv = ("eval", "--model-file", model_path, "--test", featurized_dir / "test.txt",
                    "--out", tmp_path / "r.json")
        capsys.readouterr()
        assert run(*argv, "--features", bad) == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT and err["error"].startswith(f"{bad}: ")

    @pytest.mark.parametrize("name, command", [
        ("events.jsonl", "featurize"), ("train.txt", "train"), ("features.json", "train"),
        ("model.json", "eval"),
    ])
    def test_non_utf8_input_names_its_file(self, tmp_path, featurized_dir, events_dir, capsys,
                                           name, command):
        events = events_dir / "events.jsonl"
        train, index = featurized_dir / "train.txt", featurized_dir / "features.json"
        model_path = tmp_path / "model.json"
        assert run("train", "--train", train, "--features", index, "--out", model_path) == 0
        bad = {"events.jsonl": events, "train.txt": train, "features.json": index,
               "model.json": model_path}[name]
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\xff\n", 1))
        argv = {
            "featurize": ("--events", events, "--out-dir", tmp_path / "o"),
            "train": ("--train", train, "--features", index, "--out", tmp_path / "m2.json"),
            "eval": ("--model-file", model_path, "--test", featurized_dir / "test.txt",
                     "--features", index, "--out", tmp_path / "r.json"),
        }[command]
        capsys.readouterr()
        assert run(command, *argv) == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT
        assert err["error"].startswith("cannot read ") and str(bad) in err["error"]
        assert "can't decode byte 0xff" in err["error"]

    def test_single_class_train_exit_4(self, tmp_path, capsys):
        # Every student participates exactly one week: all labels are 1.
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"sid": 1, "t": 100.0, "token": "PL"}\n{"sid": 2, "t": 200.0, "token": "Vf"}\n'
        )
        out = tmp_path / "f"
        assert run("featurize", "--events", events, "--out-dir", out,
                   "--rare-threshold", 0) == 0
        assert capsys.readouterr().err == '{"warning": "test split is empty"}\n'
        code = run("train", "--train", out / "train.txt",
                   "--features", out / "features.json", "--out", tmp_path / "m.json")
        assert code == cli.EXIT_SINGLE_CLASS


@pytest.mark.parametrize(
    "flags", [(), ("--setup", "tcurr", "--course-start", 5)], ids=["curr", "tcurr"]
)
@pytest.mark.parametrize("command", ["featurize", "report"])
def test_empty_events_exit_3(tmp_path, command, flags):
    # Whatever the other flags, an empty store exits 3 before course_start is
    # checked, and writes nothing.
    empty = tmp_path / "events.jsonl"
    empty.write_text("")
    code = run(command, "--events", empty, "--out-dir", tmp_path / "o", *flags)
    assert code == cli.EXIT_EMPTY_EVENTS
    assert not (tmp_path / "o").exists()


class TestReportCommand:
    def test_unknown_instance_exit_5(self, tmp_path, events_dir, capsys):
        code = run("report", "--events", events_dir / "events.jsonl",
                   "--out-dir", tmp_path / "r", "--student", 999999, "--week", 1)
        assert code == cli.EXIT_UNKNOWN_INSTANCE

    @pytest.mark.parametrize("flag", ["--student", "--week"])
    def test_student_and_week_go_together(self, tmp_path, capsys, flag):
        # Checked before events.jsonl is read: it does not exist.
        code = run("report", "--events", tmp_path / "events.jsonl",
                   "--out-dir", tmp_path / "r", flag, 1)
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == "--student and --week go together"

    def test_selected_instance_dot(self, tmp_path, events_dir):
        events = [json.loads(l) for l in (events_dir / "events.jsonl").read_text().splitlines()]
        course_start = min(e["t"] for e in events)
        first = events[0]
        week = int((first["t"] - course_start) // 604800) + 1
        out = tmp_path / "r"
        assert run("report", "--events", events_dir / "events.jsonl",
                   "--out-dir", out, "--student", first["sid"], "--week", week) == 0
        dots = list((out / "dot").glob("*.dot"))
        assert len(dots) == 1
        text = dots[0].read_text()
        assert '"Be"' in text and '"En"' in text

    def test_full_report_outputs(self, tmp_path, events_dir):
        out = tmp_path / "full"
        assert run("report", "--events", events_dir / "events.jsonl",
                   "--out-dir", out) == 0
        gain_lines = (out / "interaction_gain.csv").read_text().splitlines()
        gains = [float(line.rsplit(",", 1)[1]) for line in gain_lines[1:]]
        assert gains == sorted(gains, reverse=True)
        n_instances = len((out / "graph_metrics.csv").read_text().splitlines()) - 1
        for path in out.glob("contingency_*.csv"):
            rows = path.read_text().splitlines()[1:]
            total = sum(int(r.split(",")[1]) + int(r.split(",")[2]) for r in rows)
            assert total == n_instances
        assert len(list((out / "dot").glob("*.dot"))) == n_instances

    @pytest.mark.parametrize("setup", ["curr", "tcurr"])
    def test_selected_instance_matches_full_report(self, tmp_path, events_dir, setup):
        # One instance's DOT file and metrics row are those of the full
        # report, and the analyses still cover every instance.
        events = events_dir / "events.jsonl"
        full, one = tmp_path / "full", tmp_path / "one"
        assert run("report", "--events", events, "--out-dir", full, "--setup", setup) == 0
        header, *rows = (full / "graph_metrics.csv").read_text().splitlines()
        row = rows[len(rows) // 2]
        sid, week = row.split(",")[:2]
        assert run("report", "--events", events, "--out-dir", one, "--setup", setup,
                   "--student", sid, "--week", week) == 0
        assert (one / "graph_metrics.csv").read_text() == f"{header}\n{row}\n"
        dot = f"s{sid}_w{week}.dot"
        assert [p.name for p in (one / "dot").iterdir()] == [dot]
        assert (one / "dot" / dot).read_bytes() == (full / "dot" / dot).read_bytes()
        analyses = sorted(p.name for p in full.glob("*.csv") if p.name != "graph_metrics.csv")
        assert len(analyses) == 12
        assert sorted(p.name for p in one.glob("*.csv")) == sorted(analyses + ["graph_metrics.csv"])
        for name in analyses:
            assert (one / name).read_bytes() == (full / name).read_bytes(), name


def _probe(code: str, *args: str) -> str:
    """stdout of `python -c code *args` with this package on the path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


_LOADED = "print([m for m in sys.modules if m.split('.')[0] == {!r}])"

# Runs each command through cli.main in one child and prints, after each, the
# numpy modules loaded so far.
_NUMPY_AFTER_COMMANDS = """
import contextlib, io, json, sys
from mooctrace import cli
d = sys.argv[1]
commands = {
    "synth": ["synth", "--out-dir", d, "--students", "60", "--weeks", "4", "--seed", "5"],
    "ingest": ["ingest", "--clicks", d + "/clickstream.jsonl",
               "--forum", d + "/forum.jsonl", "--out-dir", d],
    "featurize": ["featurize", "--events", d + "/events.jsonl", "--out-dir", d],
    "train": ["train", "--train", d + "/train.txt", "--features", d + "/features.json",
              "--out", d + "/model.json"],
}
loaded = {}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, name
    loaded[name] = [m for m in sys.modules if m.split(".")[0] == "numpy"]
print(json.dumps(loaded))
"""


# Runs one command through cli.main and prints which of the modules named in
# the last argument it loaded.
_MODULES_AFTER_COMMAND = """
import contextlib, io, json, sys
from mooctrace import cli
*argv, watched = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in watched.split(",") if m in sys.modules)))
"""


class TestImportCost:
    """Each command loads only what its own work needs.

    On a 2-core x86-64 VM, importing numpy costs about 0.045 s of CPU and
    12.5 MB per process, a fifth of a 200-student ingest's whole run;
    importing scipy.stats costs about 1.5 s, and no command needs it.
    """

    @pytest.fixture(scope="class")
    def numpy_after(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("import_cost")
        return json.loads(_probe(_NUMPY_AFTER_COMMANDS, str(out_dir)))

    def test_cli_import_leaves_scipy_out(self):
        # The package needs no scipy: tests use it only as an oracle.
        assert _probe("import sys, mooctrace.cli; " + _LOADED.format("scipy")) == "[]"

    def test_cli_import_leaves_numpy_out(self):
        assert _probe("import sys, mooctrace.cli; " + _LOADED.format("numpy")) == "[]"

    def test_synth_ingest_featurize_leave_numpy_out(self, numpy_after):
        assert {c: numpy_after[c] for c in ("synth", "ingest", "featurize")} == {
            "synth": [], "ingest": [], "featurize": []}

    def test_train_loads_numpy(self, numpy_after):
        # The probe can see numpy: train needs it and loads it.
        assert "numpy" in numpy_after["train"]

    @pytest.fixture(scope="class")
    def pipeline_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("module_cost")
        assert run("synth", "--out-dir", d, "--students", 60, "--weeks", 4, "--seed", 5) == 0
        assert run("ingest", "--clicks", d / "clickstream.jsonl",
                   "--forum", d / "forum.jsonl", "--out-dir", d) == 0
        assert run("featurize", "--events", d / "events.jsonl", "--out-dir", d,
                   "--model", "baseline") == 0
        data = ("--train", d / "train.txt", "--features", d / "features.json")
        assert run("train", *data, "--out", d / "model.json") == 0
        assert run("train", *data, "--out", d / "model_c10.json", "--svm-c", 10) == 0
        return d

    @staticmethod
    def _loaded(d: Path, argv: str) -> list[str]:
        args = [arg.format(d=d) for arg in argv.split()]
        return json.loads(_probe(_MODULES_AFTER_COMMAND, *args,
                                 "mooctrace.actgraph,mooctrace.synth"))

    @pytest.mark.parametrize("argv", [
        pytest.param("ingest --clicks {d}/clickstream.jsonl --forum {d}/forum.jsonl "
                     "--out-dir {d}/ingest", id="ingest"),
        pytest.param("featurize --events {d}/events.jsonl --out-dir {d}/baseline "
                     "--model baseline", id="featurize-baseline"),
        pytest.param("train --train {d}/train.txt --features {d}/features.json "
                     "--out {d}/model2.json", id="train"),
        pytest.param("eval --model-file {d}/model.json --test {d}/test.txt "
                     "--features {d}/features.json --out {d}/report.json", id="eval"),
    ])
    def test_command_leaves_actgraph_and_synth_out(self, pipeline_dir, argv):
        # Without bytecode caches every import is a compile: actgraph also
        # loads fractions.
        assert self._loaded(pipeline_dir, argv) == []

    def test_graph_featurize_loads_actgraph(self, pipeline_dir):
        # The probe can see a loaded module: graph features need actgraph.
        argv = "featurize --events {d}/events.jsonl --out-dir {d}/graph --model graph"
        assert self._loaded(pipeline_dir, argv) == ["mooctrace.actgraph"]

    def test_paired_ttest_leaves_scipy_out(self, pipeline_dir):
        # The two models disagree on some rows, so the p-value is computed.
        argv = ("eval --model-file {d}/model.json --model-file-b {d}/model_c10.json "
                "--test {d}/test.txt --features {d}/features.json --out {d}/report_ab.json")
        args = [arg.format(d=pipeline_dir) for arg in argv.split()]
        assert json.loads(_probe(_MODULES_AFTER_COMMAND, *args, "scipy")) == []
        assert 0.0 < json.loads((pipeline_dir / "ttest.json").read_text())["p"] < 1.0

    @pytest.mark.parametrize("argv", [
        pytest.param("ingest --clicks {d}/clickstream.jsonl --forum {d}/forum.jsonl "
                     "--out-dir {d}/ingest2", id="ingest"),
        pytest.param("featurize --events {d}/events.jsonl --out-dir {d}/baseline2 "
                     "--setup curr --model baseline", id="featurize-baseline-curr"),
        pytest.param("featurize --events {d}/events.jsonl --out-dir {d}/graph3 "
                     "--setup tcurr --model graph", id="featurize-graph-tcurr"),
    ])
    def test_command_leaves_dataclasses_and_inspect_out(self, pipeline_dir, argv):
        # Importing dataclasses, and inspect with it, costs about 8 ms of CPU per
        # process on a 2-core x86-64 VM: their records are named tuples.
        args = [arg.format(d=pipeline_dir) for arg in argv.split()]
        assert json.loads(_probe(_MODULES_AFTER_COMMAND, *args, "dataclasses,inspect")) == []

    @pytest.mark.parametrize("argv", [
        pytest.param("featurize --events {d}/events.jsonl --out-dir {d}/graph2 --model graph",
                     id="featurize-graph"),
        pytest.param("report --events {d}/events.jsonl --out-dir {d}/report", id="report"),
    ])
    def test_graph_commands_leave_fractions_out(self, pipeline_dir, argv):
        # Betweenness is exact in integers: no command needs rational numbers.
        args = [arg.format(d=pipeline_dir) for arg in argv.split()]
        assert json.loads(_probe(_MODULES_AFTER_COMMAND, *args, "fractions")) == []


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_block(self, tmp_path):
        target = tmp_path / "out.txt"
        (tmp_path / "out.txt.tmp").mkdir()
        cli.write_text_atomic(target, "a\n")
        cli.write_text_atomic(target, "b\n")
        assert target.read_text() == "b\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]

    def test_file_mode_follows_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        atomic = tmp_path / "atomic.txt"
        cli.write_text_atomic(atomic, "x")
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            cli.write_text_atomic(tmp_path / "out.txt", None)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "out.txt").mkdir()  # os.replace cannot put a file there
        with pytest.raises(cli.CommandError) as caught:
            cli.write_text_atomic(tmp_path / "out.txt", "x")
        assert caught.value.code == cli.EXIT_BAD_INPUT
        assert str(caught.value).startswith(f"cannot write {tmp_path / 'out.txt'}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with a JSON error naming it."""

    @pytest.mark.parametrize("command", ["synth", "ingest", "featurize", "train", "eval",
                                         "report"])
    def test_output_under_a_regular_file_exit_2(self, tmp_path, logs_dir, events_dir,
                                                featurized_dir, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        feat = ["--features", featurized_dir / "features.json"]
        model = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt", *feat, "--out", model) == 0
        argv = {
            "synth": ["--out-dir", blocker / "out"],
            "ingest": ["--clicks", logs_dir / "clickstream.jsonl",
                       "--forum", logs_dir / "forum.jsonl", "--out-dir", blocker / "out"],
            "featurize": ["--events", events_dir / "events.jsonl", "--out-dir", blocker / "out"],
            "train": ["--train", featurized_dir / "train.txt", *feat, "--out", blocker / "o" / "m.json"],
            "eval": ["--model-file", model, "--test", featurized_dir / "test.txt", *feat,
                     "--out", blocker / "o" / "report.json"],
            "report": ["--events", events_dir / "events.jsonl", "--out-dir", blocker / "out"],
        }[command]
        capsys.readouterr()
        assert run(command, *argv) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err.splitlines()[-1])
        assert error["code"] == cli.EXIT_BAD_INPUT
        assert error["error"].startswith(f"cannot write {blocker}/")
        assert error["error"].endswith(": Not a directory")

    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_regular_file_named_as_directory_not_a_directory(self, tmp_path, featurized_dir,
                                                             capsys, command, depth):
        # The file itself (depth 0) or a directory under it (depth 1).
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = blocker / "o" if depth else blocker
        argv, written = {
            "synth": (["--out-dir", out_dir, "--students", "2"], "clickstream.jsonl"),
            "train": (["--train", featurized_dir / "train.txt",
                       "--features", featurized_dir / "features.json",
                       "--out", out_dir / "m.json"], "m.json"),
        }[command]
        capsys.readouterr()
        assert run(command, *argv) == cli.EXIT_BAD_INPUT
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error == {"error": f"cannot write {out_dir / written}: Not a directory",
                         "code": cli.EXIT_BAD_INPUT}
        assert blocker.read_text() == ""

    def test_report_week_past_file_name_limit_exit_2(self, tmp_path, capsys):
        clicks = tmp_path / "clicks.jsonl"
        clicks.write_text('{"sid": 1, "t": 1e+308, "vid": "v", "kind": "play"}\n'
                          '{"sid": 1, "t": 5.0, "vid": "v", "kind": "pause"}\n')
        forum = tmp_path / "forum.jsonl"
        forum.write_text("")
        assert run("ingest", "--clicks", clicks, "--forum", forum, "--out-dir", tmp_path,
                   "--min-viewers", 1) == 0
        capsys.readouterr()
        # The week of t=1e+308 has 303 digits, so its DOT file name is too long.
        code = run("report", "--events", tmp_path / "events.jsonl", "--out-dir", tmp_path / "r")
        assert code == cli.EXIT_BAD_INPUT
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"cannot write {tmp_path / 'r' / 'dot'}/s1_w")
        assert error.endswith(": File name too long")


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            logs = tmp_path / f"logs_{tag}"
            ingested = tmp_path / f"ing_{tag}"
            feats = tmp_path / f"feat_{tag}"
            run("synth", "--out-dir", logs, "--students", 40, "--weeks", 3, "--seed", 11)
            run("ingest", "--clicks", logs / "clickstream.jsonl",
                "--forum", logs / "forum.jsonl", "--out-dir", ingested)
            run("featurize", "--events", ingested / "events.jsonl", "--out-dir", feats)
            run("train", "--train", feats / "train.txt",
                "--features", feats / "features.json", "--out", feats / "model.json")
            outputs.append(
                tuple(
                    (feats / name).read_bytes()
                    for name in ("train.txt", "test.txt", "features.json", "model.json")
                )
            )
        assert outputs[0] == outputs[1]


class TestParser:
    OPTIONS = {
        "synth": "--out-dir --students --weeks --signal --mix --seed",
        "ingest": "--clicks --forum --out-dir --min-viewers",
        "featurize": "--events --out-dir --rare-threshold --test-id-min --test-id-max "
                     "--course-start --setup --model",
        "train": "--train --features --out --svm-c --svm-gamma --svm-tolerance "
                 "--svm-max-iter --cost0 --cost1 --seed",
        "eval": "--model-file --model-file-b --test --features --out --ttest-out",
        "report": "--events --out-dir --student --week --course-start --setup",
    }

    def test_each_command_registers_only_what_it_reads(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: " ".join(option for action in sub._actions for option in action.option_strings
                           if option not in ("-h", "--help"))
            for name, sub in commands.choices.items()
        }
        assert options == self.OPTIONS

    @pytest.mark.parametrize("flag", ["--setup=weekly", "--model=graphs", "--rare-threshold=abc"])
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, flag):
        assert cli.main(["featurize", "--events", str(tmp_path / "e"), "--out-dir",
                         str(tmp_path / "o"), flag]) == cli.EXIT_BAD_INPUT
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["code"] == cli.EXIT_BAD_INPUT
        assert error["error"].startswith(f"argument {flag.split('=')[0]}: invalid ")
        assert not (tmp_path / "o").exists()

    def test_missing_required_flag_exit_2(self, tmp_path, capsys):
        assert cli.main(["train", "--train", str(tmp_path / "t")]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: mooctrace train ")
        assert json.loads(err.splitlines()[-1]) == {
            "error": "the following arguments are required: --features, --out",
            "code": cli.EXIT_BAD_INPUT,
        }

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mooctrace ")

    def test_readme_walkthrough_runs(self, tmp_path, monkeypatch):
        # Every command line of README's walkthrough, continuations joined.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("mooctrace ")]
        assert [argv[0] for argv in commands] == list(self.OPTIONS)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert cli.main(argv) == 0, argv
