import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from mooctrace import cli, features, model as svm


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

    def test_empty_events_exit_3(self, tmp_path, capsys):
        empty = tmp_path / "events.jsonl"
        empty.write_text("")
        code = run("featurize", "--events", empty, "--out-dir", tmp_path / "o")
        assert code == cli.EXIT_EMPTY_EVENTS

    def test_instance_count_matches_active_student_weeks(self, events_dir, featurized_dir):
        from mooctrace.events import event_from_json_obj
        from mooctrace.footprint import build_curr_sequences

        events = [
            event_from_json_obj(json.loads(line))
            for line in (events_dir / "events.jsonl").read_text().splitlines()
        ]
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
        "line, reason",
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
    def test_malformed_event_line_exit_2(self, tmp_path, capsys, line, reason):
        events = tmp_path / "events.jsonl"
        events.write_text('{"sid":1,"t":0.0,"token":"PL"}\n\n' + line + "\n")
        code = run("featurize", "--events", events, "--out-dir", tmp_path / "o")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert "line 3" in err["error"] and reason in err["error"]

    def test_config_file_flags_override(self, tmp_path, events_dir):
        config = tmp_path / "run.cfg"
        config.write_text("setup=tcurr\nrare_threshold=2\n# comment\n")
        out = tmp_path / "cfg_out"
        assert run("featurize", "--events", events_dir / "events.jsonl",
                   "--out-dir", out, "--config", config, "--setup", "curr") == 0
        seqs = [json.loads(l) for l in (out / "sequences.jsonl").read_text().splitlines()]
        assert {s["setup"] for s in seqs} == {"curr"}  # flag beats config


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

    @pytest.mark.parametrize("item", ["-1:5.0", "999999:1.0", "3=1.0", "2:nan", "2:inf",
                                      "2:1e200"])
    def test_bad_train_column_exit_2(self, tmp_path, featurized_dir, capsys, item):
        lines = (featurized_dir / "train.txt").read_text().splitlines()
        bad = tmp_path / "train.txt"
        bad.write_text("\n".join(lines[:-1] + [lines[-1] + " " + item]) + "\n")
        code = run("train", "--train", bad, "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "m.json")
        assert code == cli.EXIT_BAD_INPUT
        assert json.loads(capsys.readouterr().err)["code"] == cli.EXIT_BAD_INPUT
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan"])
    def test_nonpositive_gamma_exit_2(self, tmp_path, featurized_dir, capsys, gamma):
        code = run("train", "--train", featurized_dir / "train.txt", "--features",
                   featurized_dir / "features.json", "--out", tmp_path / "m.json",
                   "--svm-gamma", gamma)
        assert code == cli.EXIT_BAD_INPUT
        assert "gamma" in json.loads(capsys.readouterr().err)["error"]
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
        pytest.param(lambda obj: dict(obj, bias=math.inf), "'bias'", id="inf-bias"),
        pytest.param(lambda obj: dict(obj, params=dict(obj["params"], gamma=-1.0)),
                     "'gamma'", id="negative-gamma"),
        pytest.param(lambda obj: dict(obj, feature_names=[1, 2]),
                     "'feature_names'", id="int-feature_names"),
        pytest.param(lambda obj: dict(obj, n_features=obj["n_features"] + 1),
                     "'feature_names'", id="n_features-not-names"),
    ])
    def test_malformed_model_exit_2(self, tmp_path, featurized_dir, capsys, damage, key):
        model_path = tmp_path / "model.json"
        assert run("train", "--train", featurized_dir / "train.txt",
                   "--features", featurized_dir / "features.json", "--out", model_path) == 0
        model_path.write_text(json.dumps(damage(json.loads(model_path.read_text()))))
        capsys.readouterr()
        code = run("eval", "--model-file", model_path,
                   "--test", featurized_dir / "test.txt",
                   "--features", featurized_dir / "features.json",
                   "--out", tmp_path / "r.json")
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == cli.EXIT_BAD_INPUT and key in err["error"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("index", [
        pytest.param([0, 1, 2], id="list"),
        pytest.param({"a": "0"}, id="string-column"),
        pytest.param({"a": 0, "b": 0}, id="repeated-column"),
        pytest.param({"a": 1}, id="column-gap"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_feature_index_exit_2(self, tmp_path, featurized_dir, capsys, command, index):
        bad = tmp_path / "features.json"
        bad.write_text(json.dumps(index))
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
        assert err["code"] == cli.EXIT_BAD_INPUT and "features.json" in err["error"]

    def test_single_class_train_exit_4(self, tmp_path, capsys):
        # Every student participates exactly one week: all labels are 1.
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"sid":1,"t":100.0,"token":"PL"}\n{"sid":2,"t":200.0,"token":"Vf"}\n'
        )
        out = tmp_path / "f"
        with pytest.warns(UserWarning, match="test split is empty"):
            assert run("featurize", "--events", events, "--out-dir", out,
                       "--rare-threshold", 0) == 0
        code = run("train", "--train", out / "train.txt",
                   "--features", out / "features.json", "--out", tmp_path / "m.json")
        assert code == cli.EXIT_SINGLE_CLASS


class TestReportCommand:
    def test_unknown_instance_exit_5(self, tmp_path, events_dir, capsys):
        code = run("report", "--events", events_dir / "events.jsonl",
                   "--out-dir", tmp_path / "r", "--student", 999999, "--week", 1)
        assert code == cli.EXIT_UNKNOWN_INSTANCE

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


class TestImportCost:
    def test_cli_import_leaves_scipy_out(self):
        # scipy.stats takes about a second to import and scipy.sparse about a
        # quarter; only eval --model-file-b needs scipy, so importing the CLI
        # must load no scipy module at all.
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys, mooctrace.cli; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


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
