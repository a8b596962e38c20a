"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s). The two
long-running criteria also enforce their wall-clock budgets.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mooctrace import actgraph, cli, features as ft, model as svm, synth
from mooctrace.events import ActivityToken as T
from mooctrace.events import (
    Event,
    encode_events,
    filter_valid_videos,
    parse_clickstream_log,
    parse_forum_log,
)
from mooctrace.footprint import build_curr_sequences
from oracles import csr, edge_betweenness_bruteforce, scc_count_bruteforce, svm_dual_objective


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_graph_oracles():
    with criterion(1, "SCC/betweenness match brute force on 1000 random sequences"):
        started = time.monotonic()
        rng = random.Random(1357)
        alphabet = list(T)
        checked_transitions = 0
        for _ in range(1000):
            tokens = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            g = actgraph.build_graph(tokens)
            metrics = actgraph.compute_metrics(g)
            assert metrics.num_scc == scc_count_bruteforce(g.nodes, g.edges)

            _, _, succ = actgraph._read_tally(g)
            numerators, denominator = actgraph._betweenness_numerators(sorted(g.nodes), succ)
            mine = {edge: Fraction(num, denominator) for edge, num in numerators.items()}
            oracle = edge_betweenness_bruteforce(g.nodes, g.edges)
            assert mine == oracle  # exact rational equality
            picked = metrics.central_transition
            if oracle:
                best = max(
                    oracle.items(),
                    key=lambda kv: (kv[1], -kv[0][0].value, -kv[0][1].value),
                )
                assert picked == (best[0], float(best[1]))
                checked_transitions += 1
            else:
                assert picked is None

            n, m_edges = g.num_nodes, g.num_edges
            if n >= 2:
                assert metrics.density * (n * (n - 1)) == m_edges
        elapsed = time.monotonic() - started
        assert checked_transitions > 500
        assert elapsed < 60, f"oracle suite took {elapsed:.1f}s"


def test_criterion_2_worked_multigraph_example():
    with criterion(2, "worked multigraph example reproduces exactly"):
        tokens = [T.Vt, T.Po, T.Vt, T.Po, T.Po]
        g = actgraph.build_graph(tokens)
        assert g.nodes == frozenset({T.Vt, T.Po})
        assert g.edges == ((T.Vt, T.Po), (T.Po, T.Vt), (T.Vt, T.Po), (T.Po, T.Po))
        metrics = actgraph.compute_metrics(g)
        assert metrics.density == 2.0
        assert metrics.num_self_loops == 1
        assert metrics.num_scc == 1


def test_criterion_3_footprint_example():
    with criterion(3, "footprint sequence and proportions reproduce"):
        start = 1000.0
        video = [T.PL, T.PA, T.FW, T.RCI, T.PA]
        events = [Event(1, start + 10 + i, tok) for i, tok in enumerate(video)]
        events.append(Event(1, start + 20, T.Vf))
        events.append(Event(1, start + 30, T.Po))
        curr = build_curr_sequences(events, start)
        seq = curr[(1, 1)]
        assert " ".join(t.name for t in seq.tokens) == "PL PA FW RCI PA Vf Po"
        va, vp, fa, fp = ft.active_passive_proportions(seq.tokens)
        assert abs(vp - 0.6) < 1e-12 and abs(va - 0.4) < 1e-12
        assert abs(fa - 0.5) < 1e-12 and abs(fp - 0.5) < 1e-12


def test_criterion_4_metric_formulas():
    with criterion(4, "accuracy/kappa/FNR formulas and footnote consistency"):
        predictions = [1] * 40 + [0] * 10 + [1] * 20 + [0] * 30
        labels = [1] * 50 + [0] * 50
        report = svm.evaluate(predictions, labels)
        assert abs(report["accuracy"] - 0.7) < 1e-12
        assert abs(report["kappa"] - 0.4) < 1e-12
        assert abs(report["fnr"] - 0.2) < 1e-12

        constant = svm.evaluate([0] * 100, [1] * 15 + [0] * 85)
        assert constant["kappa"] == 0.0

        tp, fn = report["confusion"]["tp"], report["confusion"]["fn"]
        identified_pct = 100.0 * tp / (tp + fn)
        assert abs(identified_pct - 100.0 * (1.0 - report["fnr"])) < 1e-12


def test_criterion_5_svm_correctness():
    with criterion(5, "SVM: separable toy, KKT, monotone dual, cost-sensitive FNR"):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        params = svm.SvmParams(C=10.0, gamma=1.0, class_cost={0: 1.0, 1: 1.0})
        model = svm.fit_svm(csr(X), y, params)
        assert list(svm.predict_all(model, csr(X))) == list(y)

        caps = np.array(
            [params.C * params.class_cost[1 if lbl > 0 else 0] for lbl in model.sv_labels]
        )
        assert np.all(model.alphas >= -10 * params.tolerance)
        assert np.all(model.alphas - caps <= 10 * params.tolerance)
        assert abs(float(np.dot(model.alphas, model.sv_labels))) <= 10 * params.tolerance

        trace = np.array([
            svm_dual_objective(svm.fit_svm(csr(X), y, replace(params, max_iter=k)))
            for k in range(1, model.n_iterations + 1)
        ])
        assert np.all(np.diff(trace) >= -1e-9)

        rng = np.random.default_rng(1234)
        X_neg = rng.normal(0.0, 1.0, size=(190, 2))
        X_pos = rng.normal(1.2, 1.0, size=(10, 2))
        X_tr = np.vstack([X_neg, X_pos])
        y_tr = np.array([0] * 190 + [1] * 10)
        X_ev = np.vstack([rng.normal(0.0, 1.0, size=(380, 2)),
                          rng.normal(1.2, 1.0, size=(20, 2))])
        y_ev = np.array([0] * 380 + [1] * 20)
        uniform = svm.fit_svm(
            csr(X_tr), y_tr, svm.SvmParams(C=1.0, gamma=0.5, class_cost={0: 1.0, 1: 1.0})
        )
        weighted = svm.fit_svm(
            csr(X_tr), y_tr, svm.SvmParams(C=1.0, gamma=0.5, class_cost={0: 1.0, 1: 19.0})
        )
        fnr_uniform = svm.evaluate(list(svm.predict_all(uniform, csr(X_ev))), list(y_ev))["fnr"]
        fnr_weighted = svm.evaluate(list(svm.predict_all(weighted, csr(X_ev))), list(y_ev))["fnr"]
        assert fnr_weighted < fnr_uniform


def test_criterion_6_interaction_gain():
    with criterion(6, "interaction gain: XOR +1.0, redundant -1.0"):
        a = [0, 0, 1, 1] * 50
        b = [0, 1, 0, 1] * 50
        xor_labels = [x ^ y for x, y in zip(a, b)]
        ((_, _, synergy),) = svm.interaction_gain_ranking({"a": a, "b": b}, xor_labels)
        ((_, _, redundancy),) = svm.interaction_gain_ranking({"a": a, "b": a}, list(a))
        assert abs(synergy - 1.0) <= 1e-9
        assert abs(redundancy - (-1.0)) <= 1e-9


def _run_pipeline(signal, seed=7, n_students=1000):
    profile = synth.SynthProfile(n_students=n_students, weeks=8,
                                 dropout_signal_strength=signal)
    clicks, forums = synth.generate_synthetic(profile, seed)
    raw_c, diags_c = parse_clickstream_log(
        io.BytesIO("".join(json.dumps(o) + "\n" for o in clicks).encode())
    )
    raw_f, diags_f = parse_forum_log(
        io.BytesIO("".join(json.dumps(o) + "\n" for o in forums).encode())
    )
    assert diags_c == [] and diags_f == []
    events, _ = encode_events(filter_valid_videos(raw_c, 10), raw_f)
    index, train, test = ft.finalize_split(
        *ft.assemble_dataset(build_curr_sequences(events), ft.ModelFamily.GRAPH,
                             (798619, 1882807)),
        4,
    )
    X, y = ft.read_sparse(ft.export_sparse(train, index), len(index))
    model = svm.fit_svm(X, y, svm.SvmParams(seed=seed))
    X_test, y_test = ft.read_sparse(ft.export_sparse(test, index), len(index))
    predictions = list(svm.predict_all(model, X_test))
    return predictions, list(y_test)


def test_criterion_7_end_to_end_synthetic():
    with criterion(7, "planted signal recovered (p < 0.01); null stays null"):
        started = time.monotonic()

        predictions, labels = _run_pipeline(signal=0.8)
        kappa = svm.evaluate(predictions, labels)["kappa"]
        assert kappa > 0

        rng = random.Random(2024)
        exceeded = 0
        n_permutations = 999
        shuffled = list(labels)
        for _ in range(n_permutations):
            rng.shuffle(shuffled)
            if svm.evaluate(predictions, shuffled)["kappa"] >= kappa:
                exceeded += 1
        p_value = (1 + exceeded) / (1 + n_permutations)
        assert p_value < 0.01, f"kappa {kappa:.3f} not significant (p={p_value:.3f})"

        predictions0, labels0 = _run_pipeline(signal=0.0)
        kappa0 = svm.evaluate(predictions0, labels0)["kappa"]
        assert abs(kappa0) < 0.1, f"null-signal kappa {kappa0:.3f}"

        elapsed = time.monotonic() - started
        assert elapsed < 300, f"end-to-end run took {elapsed:.1f}s"
        print(f"  signal=0.8 kappa={kappa:.3f} (p={p_value:.4f}); "
              f"signal=0 kappa={kappa0:.3f}; {elapsed:.0f}s")


_PIPELINE_SNIPPET = """
import sys
from mooctrace.cli import main
base = sys.argv[1]
steps = [
    ["synth", "--out-dir", base + "/logs", "--students", "120", "--weeks", "4",
     "--signal", "0.8", "--seed", "11"],
    ["ingest", "--clicks", base + "/logs/clickstream.jsonl",
     "--forum", base + "/logs/forum.jsonl", "--out-dir", base + "/ing"],
    ["featurize", "--events", base + "/ing/events.jsonl", "--out-dir", base + "/feat",
     "--setup", "curr", "--model", "graph"],
    ["train", "--train", base + "/feat/train.txt",
     "--features", base + "/feat/features.json", "--out", base + "/model.json",
     "--seed", "11"],
    ["eval", "--model-file", base + "/model.json", "--test", base + "/feat/test.txt",
     "--features", base + "/feat/features.json", "--out", base + "/report.json"],
    ["report", "--events", base + "/ing/events.jsonl", "--out-dir", base + "/report",
     "--setup", "tcurr"],
]
for step in steps:
    code = main(step)
    if code != 0:
        sys.exit(code)
"""

_COMPARED_FILES = (
    "logs/clickstream.jsonl",
    "logs/forum.jsonl",
    "ing/events.jsonl",
    "feat/train.txt",
    "feat/test.txt",
    "feat/features.json",
    "model.json",
    "report.json",
)


# The snippet's report bytes, recorded before the activity graph kept an
# edge tally: a change to graph metrics or DOT rendering must show here.
_METRICS_SHA256 = "f53b669b7d45aacb70957eadd386ed52e865a226505c20ea37110f32504b2efc"
_DOTS_SHA256 = "507adf78c123fd9ef4f30273c9f1147945572f42c2725c6c9065fdbf16343a67"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "two pipeline runs are byte-identical (fresh processes)"):
        src = Path(ft.__file__).resolve().parents[1]
        for tag, hashseed in (("a", "1"), ("b", "31337")):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(src))
            base = tmp_path / tag
            base.mkdir()
            result = subprocess.run(
                [sys.executable, "-c", _PIPELINE_SNIPPET, str(base)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        report = tmp_path / "a" / "report"
        csvs = ["graph_metrics.csv", "interaction_gain.csv"]
        csvs += sorted(p.name for p in report.glob("contingency_*.csv"))
        dots = sorted(p.name for p in (report / "dot").iterdir())
        assert len(csvs) == 13 and dots
        compared = [*_COMPARED_FILES, *(f"report/{name}" for name in csvs),
                    *(f"report/dot/{name}" for name in dots)]
        for name in compared:
            bytes_a = (tmp_path / "a" / name).read_bytes()
            bytes_b = (tmp_path / "b" / name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between runs"
        assert sorted(p.name for p in (tmp_path / "b" / "report" / "dot").iterdir()) == dots
        # Pinned report bytes: graph metrics and every DOT file in name order.
        joined_dots = b"".join((report / "dot" / name).read_bytes() for name in dots)
        assert _sha256((report / "graph_metrics.csv").read_bytes()) == _METRICS_SHA256
        assert _sha256(joined_dots) == _DOTS_SHA256


# The featurize artifacts of criterion 8's events (120 students, seed 11),
# Curr setup, for each model family. The key and sequence files do not
# depend on the family.
_FEATURIZE_SHA256 = {
    "baseline": {
        "train.txt": "e6f52482a997214379be7571c83a15dbbb66dae7e1386577cd8052bc9131189d",
        "test.txt": "7f4e1d7335f079e93644525f98815ea30ea6e6b2ed3978afcfeedd6b5575dadd",
        "features.json": "c132cb688fb8b4a5d291b9dde36e8c77361a790803e7713c7f9453bdd9d2b7b4",
    },
    "graph": {
        "train.txt": "e87d8f2b888f0a9e7f6edadc0924134dfd5290572aab385a5154dfd077531d6d",
        "test.txt": "5c863940e27523d7bb6b96501e2cba93bd56eaaf02eb12fac039bf704a089d1d",
        "features.json": "c2e19af55a0490297c4fc60422e21bf1dc194e759b4989d1e882d395acc2195e",
    },
    "combined": {
        "train.txt": "64ba4706b4b2df3da540c54614753ffbcd86037ce0f2d348eb091be227aa58b4",
        "test.txt": "4202f1185adac7e8ffe19f089e4c67824e9f42e847e2629a5c475f92cd8b96a8",
        "features.json": "1a13d4378b1a837b19238cf939ee666850d5d389663a337e024e59f937cebede",
    },
}
_KEYS_AND_SEQUENCES_SHA256 = {
    "train_keys.jsonl": "0fd2e5e79969f34f7503c0d40520b3150514a4d715b9702c2cccfaa62cf62622",
    "test_keys.jsonl": "a0ef23a41ffb126bf56ecfdb8765ec2721a73870fa3a450224e41aa94f019110",
    "sequences.jsonl": "90c9f36e61a5cf1f8a02b725dfa7edbf29a42337f9142ac792dde200c9907402",
}


@pytest.fixture(scope="module")
def snippet_events(tmp_path_factory):
    base = tmp_path_factory.mktemp("snippet")
    assert cli.main(["synth", "--out-dir", str(base), "--students", "120", "--weeks", "4",
                     "--signal", "0.8", "--seed", "11"]) == 0
    assert cli.main(["ingest", "--clicks", str(base / "clickstream.jsonl"),
                     "--forum", str(base / "forum.jsonl"), "--out-dir", str(base)]) == 0
    return base / "events.jsonl"


@pytest.mark.parametrize("family", sorted(_FEATURIZE_SHA256))
def test_featurize_artifacts_pinned(tmp_path, snippet_events, family):
    assert cli.main(["featurize", "--events", str(snippet_events), "--out-dir", str(tmp_path),
                     "--setup", "curr", "--model", family]) == 0
    expected = {**_FEATURIZE_SHA256[family], **_KEYS_AND_SEQUENCES_SHA256}
    assert {name: _sha256((tmp_path / name).read_bytes()) for name in expected} == expected


# Malformed lines appended to the snippet's logs: one per kind of defect, so
# every diagnostic reason and both sources reach diagnostics.jsonl.
_BAD_CLICK_LINES = (
    b'{"sid": 1, "t": 5.0, "vid": "v1", "kind": "seek"}\n'
    b'{"sid": 1, "t": 5.0, "vid": "v1", "kind": "seek", "dir": "up"}\n'
    b'{"sid": 1, "t": 5.0, "vid": "v1", "kind": "ratechange", "rate": 0}\n'
    b'{"sid": "1", "t": 5.0, "vid": "v1", "kind": "play"}\n'
    b'{"sid": 1, "t": -1, "vid": "v1", "kind": "play"}\n'
    b'{"sid": 1, "t": 5.0, "kind": "play"}\n'
    b'[1, 2]\n'
    b'{"sid": 1,\n'
    b'\xff\xfe\n'
)
_BAD_FORUM_LINES = (
    b'{"sid": 2, "t": 5.0, "kind": "like"}\n'
    b'{"t": 5.0, "kind": "post"}\n'
    b'not json\n'
)
_DIAGNOSTICS_SHA256 = "e6bfd36e7bf8874b28f923842570b22441671cece59aec4ce83038b392326854"
# The TCurr sequences of the snippet's events, where each line says "tcurr".
_TCURR_SEQUENCES_SHA256 = "55fdb8d32ebf476b5469b229ff520a8dcd91b8906b2767f178c5d62f170e85cc"
# eval of the baseline family, Curr setup: a default model against one with C=10.
_EVAL_SHA256 = {
    "report.json": "9829f8253b4dfe52a2ece16e0fbf5485a03a0c0a93eeb79f1ffcea1deacfd936",
    "ttest.json": "a8c93fc569b7e89cf3983389fa9e797132a0c8d2150fd32c6c16415eac1c28e5",
}


def test_diagnostics_pinned(tmp_path, snippet_events):
    logs = snippet_events.parent
    clicks, forum = tmp_path / "clickstream.jsonl", tmp_path / "forum.jsonl"
    clicks.write_bytes((logs / "clickstream.jsonl").read_bytes() + _BAD_CLICK_LINES)
    forum.write_bytes((logs / "forum.jsonl").read_bytes() + _BAD_FORUM_LINES)
    out = tmp_path / "out"
    assert cli.main(["ingest", "--clicks", str(clicks), "--forum", str(forum),
                     "--out-dir", str(out)]) == 0
    text = (out / "diagnostics.jsonl").read_bytes()
    assert text.count(b"\n") == 12
    assert _sha256(text) == _DIAGNOSTICS_SHA256
    assert (out / "events.jsonl").read_bytes() == snippet_events.read_bytes()


def test_tcurr_sequences_pinned(tmp_path, snippet_events):
    assert cli.main(["featurize", "--events", str(snippet_events), "--out-dir", str(tmp_path),
                     "--setup", "tcurr", "--model", "baseline"]) == 0
    assert _sha256((tmp_path / "sequences.jsonl").read_bytes()) == _TCURR_SEQUENCES_SHA256


def test_eval_reports_pinned(tmp_path, snippet_events):
    feat = tmp_path / "feat"
    assert cli.main(["featurize", "--events", str(snippet_events), "--out-dir", str(feat),
                     "--setup", "curr", "--model", "baseline"]) == 0
    data = ["--train", str(feat / "train.txt"), "--features", str(feat / "features.json")]
    assert cli.main(["train", *data, "--out", str(tmp_path / "a.json")]) == 0
    assert cli.main(["train", *data, "--out", str(tmp_path / "b.json"), "--svm-c", "10"]) == 0
    assert cli.main(["eval", "--model-file", str(tmp_path / "a.json"),
                     "--model-file-b", str(tmp_path / "b.json"),
                     "--test", str(feat / "test.txt"), "--features", str(feat / "features.json"),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert {name: _sha256((tmp_path / name).read_bytes()) for name in _EVAL_SHA256} == _EVAL_SHA256
