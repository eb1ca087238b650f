import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import botdet
from botdet.cli import main
from botdet.fileio import FORMAT_VERSION, load_model, read_features, save_model
from botdet.ingest import read_dataset
from botdet.metrics import MetricsReport
from botdet.synth import SynthConfig, make_fixture, write_scenario
from botdet.train import TrainLog

FAST_TRAIN = ["--epochs", "6", "--batch-size", "16", "--hidden", "10",
              "--latent", "4", "--anneal-steps", "30", "--seed", "0"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clifix")
    return make_fixture(out, train_cfg=SynthConfig(
        seed=3, n_normal_hosts=6, n_botnet_hosts=2, n_background_hosts=1,
        n_windows=24))


def run_chain(fixture, workdir: Path, extra_train=()) -> dict[str, Path]:
    """Drive preprocess..evaluate, returning artifact paths."""
    art = {
        "features_train": workdir / "features-train.csv",
        "features_test": workdir / "features-test.csv",
        "model": workdir / "model.json",
        "scores_train": workdir / "scores-train.csv",
        "scores_test": workdir / "scores-test.csv",
        "detector": workdir / "detector.json",
        "decisions": workdir / "decisions.jsonl",
        "report": workdir / "report.json",
    }
    steps = [
        ["preprocess", "--manifest", str(fixture["manifest"]),
         "--train-scenarios", "synth-train", "--test-scenarios", "synth-test",
         "--out-dir", str(workdir)],
        ["train", "--features", str(art["features_train"]),
         "--model-out", str(art["model"]), *FAST_TRAIN, *extra_train],
        ["score", "--model", str(art["model"]),
         "--features", str(art["features_train"]),
         "--scores-out", str(art["scores_train"])],
        ["score", "--model", str(art["model"]),
         "--features", str(art["features_test"]),
         "--scores-out", str(art["scores_test"])],
        ["fitpdf", "--scores", str(art["scores_train"]),
         "--detector-out", str(art["detector"]),
         "--min-samples", "30", "--bins", "60"],
        ["detect", "--scores", str(art["scores_test"]),
         "--detector", str(art["detector"]),
         "--decisions-out", str(art["decisions"])],
        ["evaluate", "--scores", str(art["scores_test"]),
         "--decisions", str(art["decisions"]),
         "--report-out", str(art["report"]), "--model", str(art["model"])],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return art


@pytest.fixture(scope="module")
def chain(fixture_dir, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chain")
    return run_chain(fixture_dir, workdir)


def test_chain_writes_every_artifact(chain):
    for path in chain.values():
        assert path.exists(), path


def test_each_features_file_records_its_own_split_t0(tmp_path):
    """A test capture that starts an hour after the training one keeps its own origin."""
    train_cfg = SynthConfig(seed=5, n_normal_hosts=3, n_botnet_hosts=1,
                            n_background_hosts=1, n_windows=8)
    test_cfg = replace(train_cfg, seed=6, profile="test",
                       start_time=train_cfg.start_time + 3600.0)
    first_flow = {}
    for split, cfg in (("train", train_cfg), ("test", test_cfg)):
        write_scenario(tmp_path / f"{split}.binetflow", cfg)
        table, _ = read_dataset([tmp_path / f"{split}.binetflow"])
        first_flow[split] = next(iter(table)).start_time
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"scenarios": {"a": "train.binetflow", "b": "test.binetflow"}}))
    assert main(["preprocess", "--manifest", str(tmp_path / "manifest.json"),
                 "--train-scenarios", "a", "--test-scenarios", "b",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert first_flow["test"] >= first_flow["train"] + 3600.0
    for split in ("train", "test"):
        meta, rows = read_features(tmp_path / "out" / f"features-{split}.csv")
        assert meta.t0 == first_flow[split]
        assert min(r.window_index for r in rows) == 0


def test_chain_writes_run_manifests(chain):
    for runfile, stage in [("preprocess.run.json", "preprocess"),
                           ("model.run.json", "train"),
                           ("scores-test.run.json", "score"),
                           ("detector.run.json", "fitpdf"),
                           ("decisions.run.json", "detect"),
                           ("report.run.json", "evaluate")]:
        payload = json.loads((chain["model"].parent / runfile).read_text())
        assert payload["kind"] == "run-manifest"
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["stage"] == stage
        assert payload["config_sha256"]
        assert all(len(h) == 64 for h in payload["inputs"].values())
        assert payload["versions"]["botdet"]


def test_report_carries_metrics_and_config_echo(chain):
    payload = json.loads(chain["report"].read_text())
    assert payload["kind"] == "metrics-report"
    assert set(payload) == {f.name for f in fields(MetricsReport)} | {"kind", "format_version"}
    for key in ("recall", "precision", "f1", "auprc", "auroc"):
        assert 0.0 <= payload[key] <= 1.0
    assert payload["config"] == {"T": 60.0, "N": 3, "arch": "rvae"}


def test_stream_emits_decisions_matching_detect(chain, fixture_dir, capsys):
    rc = main(["stream", "--model", str(chain["model"]),
               "--detector", str(chain["detector"]),
               "--input", str(fixture_dir["test"])])
    assert rc == 0
    out = capsys.readouterr()
    streamed = [json.loads(line) for line in out.out.strip().split("\n")]
    assert "late_dropped=0" in out.err
    batch = [json.loads(line) for line in
             chain["decisions"].read_text().strip().split("\n")]

    def project(rows):
        return {(d["src_addr"], d["window_index"]): d["verdict"] for d in rows}

    assert project(streamed) == project(batch)
    assert all(d["emit_latency"] >= 0.0 for d in streamed)


def test_stream_rejects_manifest(chain, fixture_dir, capsys):
    """stream reads the captures named by --input; a manifest is a usage error."""
    rc = main(["stream", "--model", str(chain["model"]),
               "--detector", str(chain["detector"]),
               "--input", str(fixture_dir["test"]),
               "--manifest", str(fixture_dir["manifest"])])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and "--manifest" in out.err


def test_rerun_is_byte_identical(fixture_dir, tmp_path_factory):
    a = run_chain(fixture_dir, tmp_path_factory.mktemp("rerun-a"))
    b = run_chain(fixture_dir, tmp_path_factory.mktemp("rerun-b"))
    for key in ("model", "scores_test", "detector", "decisions", "report"):
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_train_arch_mlp_is_recorded(chain, tmp_path):
    model_out = tmp_path / "mlp.json"
    rc = main(["train", "--features", str(chain["features_train"]),
               "--model-out", str(model_out), *FAST_TRAIN,
               "--arch", "mlp", "--epochs", "2",
               "--mlp-hidden", "16,16", "--latent", "4"])
    assert rc == 0
    assert json.loads(model_out.read_text())["arch"] == "mlp"


def test_config_file_supplies_flags_and_flags_win(chain, tmp_path):
    cfg = {"features": str(chain["features_train"]),
           "model_out": str(tmp_path / "from-config.json"),
           "epochs": 2, "batch_size": 16, "hidden": 6, "latent": 3,
           "anneal_steps": 10, "seed": 1}
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from-config.json").exists()

    override = tmp_path / "override.json"
    assert main(["train", "--config", str(cfg_path),
                 "--model-out", str(override), "--hidden", "4"]) == 0
    assert override.exists()
    assert json.loads(override.read_text())["config"]["hidden"] == 4


def test_config_file_rejects_unknown_keys(chain, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"epohcs": 3}))
    assert main(["train", "--config", str(cfg_path),
                 "--features", str(chain["features_train"]),
                 "--model-out", str(tmp_path / "x.json")]) == 1


def test_usage_errors_exit_1(fixture_dir, tmp_path):
    assert main([]) == 1
    assert main(["preprocess", "--bogus-flag"]) == 1
    assert main(["train", "--features", "f.csv"]) == 1  # missing --model-out
    assert main(["stream", "--model", "m.json", "--detector", "d.json"]) == 1  # no --input
    assert main(["preprocess", "--manifest", str(fixture_dir["manifest"]),
                 "--train-scenarios", "synth-train",
                 "--test-scenarios", "synth-train",
                 "--out-dir", str(tmp_path)]) == 1


def test_data_errors_exit_2(chain, tmp_path):
    assert main(["preprocess", "--manifest", str(tmp_path / "missing.json"),
                 "--train-scenarios", "a", "--test-scenarios", "b",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["score", "--model", str(chain["model"]),
                 "--features", str(tmp_path / "nope.csv"),
                 "--scores-out", str(tmp_path / "s.csv")]) == 2
    truncated = tmp_path / "truncated.csv"
    lines = chain["features_test"].read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:6])
    truncated.write_text("\n".join(lines) + "\n")
    assert main(["score", "--model", str(chain["model"]),
                 "--features", str(truncated),
                 "--scores-out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("artifact,column,value", [
    ("features_test", 1, "-1"), ("features_test", 2, "nan"), ("features_test", 4, "nan"),
    ("features_test", 9, "inf"), ("features_test", 10, "2.5"), ("scores_test", 1, "-1"),
    ("scores_test", 2, "inf"), ("scores_test", 4, "nan"), ("scores_test", 4, "inf"),
])
def test_impossible_host_window_value_is_a_data_error(chain, tmp_path, capsys,
                                                      artifact, column, value):
    lines = chain[artifact].read_text().splitlines()
    row = 2 if artifact == "features_test" else 1  # the first record, after the headers
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    path = tmp_path / "doctored.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = (["score", "--model", str(chain["model"]), "--features", str(path),
             "--scores-out", str(out)] if artifact == "features_test" else
            ["detect", "--scores", str(path), "--detector", str(chain["detector"]),
             "--decisions-out", str(out)])
    assert main(argv) == 2
    assert f"data error: {path}:{row + 1}: " in capsys.readouterr().err
    assert not out.exists()


def test_bad_rows_are_shown_to_the_operator(chain, fixture_dir, tmp_path, capsys):
    lines = fixture_dir["test"].read_text().splitlines()
    lines.insert(5, "garbage" + lines[5][lines[5].index(","):])
    capture = tmp_path / "synth-test.binetflow"
    capture.write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"scenarios": {"synth-train": str(fixture_dir["train"]),
                                                  "synth-test": capture.name}}))
    assert main(["preprocess", "--manifest", str(manifest), "--train-scenarios",
                 "synth-train", "--test-scenarios", "synth-test",
                 "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "(0 bad rows)\ntest:" in out
    assert out.endswith(f"(1 bad rows)\n  first bad row: {capture}:6: "
                        "bad StartTime 'garbage'\n")
    assert main(["stream", "--model", str(chain["model"]),
                 "--detector", str(chain["detector"]), "--input", str(capture)]) == 0
    assert capsys.readouterr().err.rstrip().endswith(" late_dropped=0 bad_rows=1")


def test_stage_mismatch_is_fatal_with_message(chain, tmp_path, capsys):
    doctored = tmp_path / "doctored.csv"
    text = chain["features_test"].read_text().split("\n")
    meta = json.loads(text[0].removeprefix("#META "))
    meta["feature_names"] = list(reversed(meta["feature_names"]))
    names = meta["feature_names"]
    meta["normalizer"]["min"] = list(reversed(meta["normalizer"]["min"]))
    meta["normalizer"]["max"] = list(reversed(meta["normalizer"]["max"]))
    header = text[1].split(",")
    text[1] = ",".join(header[:4] + names)
    doctored.write_text("\n".join(["#META " + json.dumps(meta)] + text[1:]))
    rc = main(["score", "--model", str(chain["model"]),
               "--features", str(doctored),
               "--scores-out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "layout" in capsys.readouterr().err


@pytest.mark.parametrize("flags,differ", [
    (["--window-seconds", "120", "--log1p"], "window_seconds"),
    (["--n-windows", "2"], "n_windows"),
    (["--l-max", "64"], "l_max"),
    (["--log1p"], "normalizer log1p"),
    (["--train-scenarios", "synth-test", "--test-scenarios", "synth-train"],
     "normalizer vmin"),
], ids=["window-seconds", "n-windows", "l-max", "log1p", "swapped-splits"])
def test_score_refuses_features_from_another_preprocess_run(chain, fixture_dir, tmp_path,
                                                            capsys, flags, differ):
    argv = ["preprocess", "--manifest", str(fixture_dir["manifest"]),
            "--train-scenarios", "synth-train", "--test-scenarios", "synth-test",
            "--out-dir", str(tmp_path)]
    assert main(argv + flags) == 0
    capsys.readouterr()
    rc = main(["score", "--model", str(chain["model"]),
               "--features", str(tmp_path / "features-test.csv"),
               "--scores-out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2 and "layout" in err and differ in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("exclude_background", [False, True])
def test_evaluate_refuses_a_decision_that_has_no_score(chain, tmp_path, capsys,
                                                       exclude_background):
    decisions = tmp_path / "decisions.jsonl"
    extra = {"src_addr": "203.0.113.9", "window_index": 5, "verdict": "Malicious"}
    decisions.write_text(chain["decisions"].read_text() + json.dumps(extra) + "\n")
    rc = main(["evaluate", "--scores", str(chain["scores_test"]),
               "--decisions", str(decisions), "--report-out", str(tmp_path / "r.json"),
               "--exclude-background" if exclude_background else "--no-exclude-background"])
    assert rc == 2
    assert "no score for the decision on host-window ('203.0.113.9', 5)" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_sweep_single_duration(fixture_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--manifest", str(fixture_dir["manifest"]),
               "--train-scenarios", "synth-train",
               "--test-scenarios", "synth-test",
               "--durations", "60", "--out-dir", str(out),
               *FAST_TRAIN, "--min-samples", "30", "--bins", "40"])
    assert rc == 0
    assert (out / "report-T60s.json").exists()
    assert (out / "hist-T60s.csv").exists()
    table = (out / "sweep-table.txt").read_text()
    assert table.splitlines()[0].split() == ["Run", "Recall", "Precision",
                                             "F1", "AUPRC", "AUROC"]
    assert "T=60s" in table
    assert "T=60s" in capsys.readouterr().out


def _config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _required(chain, fixture_dir, tmp_path, command) -> dict:
    """Config values for ``command``'s required options; outputs go under tmp_path/out."""
    scenarios = {"manifest": str(fixture_dir["manifest"]),
                 "train_scenarios": "synth-train", "test_scenarios": "synth-test",
                 "out_dir": str(tmp_path / "out")}
    return {
        "preprocess": scenarios,
        "train": {"features": str(chain["features_train"]),
                  "model_out": str(tmp_path / "out" / "m.json")},
        "fitpdf": {"scores": str(chain["scores_train"]),
                   "detector_out": str(tmp_path / "out" / "d.json")},
        "evaluate": {"scores": str(chain["scores_test"]),
                     "decisions": str(chain["decisions"]),
                     "report_out": str(tmp_path / "out" / "r.json")},
        "sweep": {**scenarios, "durations": "60"},
        "stream": {"model": str(chain["model"]), "detector": str(chain["detector"]),
                   "input": str(fixture_dir["test"])},
    }[command]


@pytest.mark.parametrize("command,payload,named", [
    ("preprocess", {"log1p": "false"}, "--log1p"),
    ("train", {"epochs": "abc"}, "--epochs"),
    ("fitpdf", {"tie_rule": "bogus"}, "--tie-rule"),
    ("sweep", {"tie_rule": "bogus"}, "--tie-rule"),
])
def test_config_values_are_checked_like_flags(chain, fixture_dir, tmp_path, capsys,
                                              command, payload, named):
    required = _required(chain, fixture_dir, tmp_path, command)
    extra = FAST_TRAIN if command == "sweep" else []
    config = _config(tmp_path, {**required, **payload})
    assert main([command, "--config", config, *extra]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any stage ran


@pytest.mark.parametrize("command,name,value", [
    ("preprocess", "l_max", 0), ("preprocess", "n_windows", 0),
    ("preprocess", "window_seconds", 0), ("preprocess", "window_seconds", -60.0),
    ("train", "epochs", 0), ("train", "batch_size", 0), ("train", "hidden", 0),
    ("train", "latent", 0), ("train", "seed", -1), ("train", "mlp_hidden", "32,0"),
    ("fitpdf", "bins", 0), ("sweep", "durations", "60,0"), ("sweep", "l_max", 0),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_size_options_are_range_checked(chain, fixture_dir, tmp_path, capsys,
                                        command, name, value, source):
    required = _required(chain, fixture_dir, tmp_path, command)
    flag = "--" + name.replace("_", "-")
    if source == "flag":
        argv = [command, "--config", _config(tmp_path, required), f"{flag}={value}"]
    else:
        argv = [command, "--config", _config(tmp_path, {**required, name: value})]
    extra = FAST_TRAIN if command == "sweep" else []
    assert main([*argv, *extra]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any stage ran


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_has_no_window_seconds_option(chain, fixture_dir, tmp_path, capsys, source):
    """T comes from --durations alone; a --window-seconds would be silently ignored."""
    required = _required(chain, fixture_dir, tmp_path, "sweep")
    if source == "flag":
        argv = ["--config", _config(tmp_path, required), "--window-seconds", "30"]
    else:
        argv = ["--config", _config(tmp_path, {**required, "window_seconds": 30})]
    assert main(["sweep", *argv, *FAST_TRAIN]) == 1
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,name,value", [
    ("preprocess", "scenario_filter", "synth-test"),
    ("sweep", "scenario_filter", "synth-test"),
    ("stream", "scenario_filter", "synth-test"),
    ("stream", "manifest", "manifest.json"),
    ("evaluate", "run_name", "run"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_removed_options_are_usage_errors(chain, fixture_dir, tmp_path, capsys,
                                          command, name, value, source):
    """No option or config key outlives its removal by being silently ignored."""
    required = _required(chain, fixture_dir, tmp_path, command)
    if source == "flag":
        argv = ["--config", _config(tmp_path, required),
                "--" + name.replace("_", "-"), value]
    else:
        argv = ["--config", _config(tmp_path, {**required, name: value})]
    extra = FAST_TRAIN if command == "sweep" else []
    assert main([command, *argv, *extra]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert name in out.err.replace("-", "_")
    assert not (tmp_path / "out").exists()


def _doctored(chain, tmp_path, artifact: str, edit) -> Path:
    """A chain artifact's copy with its JSON payload (features: #META header) edited."""
    if artifact == "features":
        first, rest = chain["features_test"].read_text().split("\n", 1)
        header = edit(json.loads(first.removeprefix("#META ")))
        text = f"#META {json.dumps(header)}\n{rest}"
    else:
        text = json.dumps(edit(json.loads(chain[artifact].read_text())))
    path = tmp_path / f"doctored-{artifact}"
    path.write_text(text)
    return path


def _loading_argv(chain, artifact: str, path: Path, out: Path) -> list[str]:
    if artifact == "detector":
        return ["detect", "--scores", str(chain["scores_test"]),
                "--detector", str(path), "--decisions-out", str(out)]
    model, features = ((path, chain["features_test"]) if artifact == "model"
                       else (chain["model"], path))
    return ["score", "--model", str(model), "--features", str(features),
            "--scores-out", str(out)]


@pytest.mark.parametrize("artifact,key", [
    ("detector", "pdf_normal"), ("detector", "tie_rule"),
    ("model", "arch"), ("model", "normalizer"), ("model", "rng_seed"),
    ("features", "feature_names"), ("features", "normalizer"), ("features", "t0"),
])
def test_incomplete_artifact_is_a_data_error(chain, tmp_path, capsys, artifact, key):
    def drop(payload):
        del payload[key]
        return payload
    path = _doctored(chain, tmp_path, artifact, drop)
    assert main(_loading_argv(chain, artifact, path, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"malformed {artifact} file" in err and key in err


def test_detector_with_unknown_tie_rule_is_a_data_error(chain, tmp_path, capsys):
    path = _doctored(chain, tmp_path, "detector",
                     lambda payload: {**payload, "tie_rule": "bogus"})
    assert main(_loading_argv(chain, "detector", path, tmp_path / "out")) == 2
    assert "unknown tie rule 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit,reason", [
    (lambda d: d["pdf_botnet"].update(scale=-1), "pdf_botnet.scale: expected a number > 0, got -1"),
    (lambda d: d["pdf_normal"].update(loc=float("nan")),
     "pdf_normal.loc: expected a finite number, got nan"),
    (lambda d: d["pdf_normal"].update(params=[-abs(v) for v in d["pdf_normal"]["params"]]),
     "pdf_normal.params: expected a number > 0, got -"),
    (lambda d: d["pdf_botnet"].update(params=d["pdf_botnet"]["params"][:-1]),
     "shape parameter(s), params holds"),
    (lambda d: d.update(bins=0), "bins: expected an integer >= 1, got 0"),
    (lambda d: d.update(min_samples=0), "min_samples: expected an integer >= 1, got 0"),
], ids=["negative-scale", "nan-loc", "negative-shapes", "short-params", "zero-bins",
        "zero-min-samples"])
def test_detector_that_cannot_be_evaluated_is_a_data_error(chain, tmp_path, capsys,
                                                           edit, reason):
    def doctor(payload):
        edit(payload)
        return payload
    path = _doctored(chain, tmp_path, "detector", doctor)
    assert main(_loading_argv(chain, "detector", path, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and reason in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("artifact", ["detector", "model", "features"])
def test_non_object_artifact_is_a_data_error(chain, tmp_path, capsys, artifact):
    path = _doctored(chain, tmp_path, artifact, lambda payload: [payload])
    assert main(_loading_argv(chain, artifact, path, tmp_path / "out")) == 2
    assert f"{path}: expected a {artifact} file" in capsys.readouterr().err


@pytest.mark.parametrize("artifact", ["model", "features"])
@pytest.mark.parametrize("key,value", [
    ("n_windows", 0), ("l_max", 0), ("l_max", -3), ("window_seconds", 0.0),
    ("window_seconds", -60.0), ("window_seconds", float("inf")),
    ("window_seconds", float("nan")),
])
def test_window_config_out_of_range_is_a_data_error(chain, tmp_path, capsys,
                                                    artifact, key, value):
    def edit(payload):
        (payload["config"] if artifact == "model" else payload)[key] = value
        return payload
    path = _doctored(chain, tmp_path, artifact, edit)
    assert main(_loading_argv(chain, artifact, path, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"{path}: {key}: expected " in err
    assert not (tmp_path / "out").exists()


def _set_first(place: tuple, value: float):
    """A payload edit that overwrites the first number of the (nested) list at ``place``."""
    def edit(payload):
        values = payload
        for key in place:
            values = values[key]
        while isinstance(values[0], list):
            values = values[0]
        values[0] = value
        return payload
    return edit


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("artifact,place", [
    ("model", ("parameters", "dec.l0.b_h", "data")), ("model", ("parameters", "enc.l0.fwd.w_r", "data")),
    ("model", ("normalizer", "min")), ("model", ("normalizer", "max")),
    ("features", ("normalizer", "min")), ("features", ("normalizer", "max")),
])
def test_non_finite_model_number_is_a_data_error(chain, tmp_path, capsys,
                                                 artifact, place, value):
    path = _doctored(chain, tmp_path, artifact, _set_first(place, value))
    out = tmp_path / "out"
    assert main(_loading_argv(chain, artifact, path, out)) == 2
    name = f"parameter {place[1]}" if place[0] == "parameters" else " ".join(place)
    assert f"data error: {path}: {name} holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [None, {}, 0, "false"], ids=["null", "object", "zero", "text"])
@pytest.mark.parametrize("artifact", ["model", "features"])
def test_normalizer_log1p_element_that_is_not_a_bool_is_a_data_error(chain, tmp_path, capsys,
                                                                     artifact, value):
    path = _doctored(chain, tmp_path, artifact, _set_first(("normalizer", "log1p"), value))
    out = tmp_path / "out"
    assert main(_loading_argv(chain, artifact, path, out)) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: normalizer log1p must be a list of JSON bools" in err
    assert not out.exists()


@pytest.mark.parametrize("shape", [None, [-1], [True]], ids=["null", "inferred", "bool"])
def test_parameter_shape_that_is_not_a_list_of_ints_is_a_data_error(chain, tmp_path, capsys,
                                                                     shape):
    def edit(payload):
        payload["parameters"]["dec.l0.b_h"]["shape"] = shape
        return payload
    path = _doctored(chain, tmp_path, "model", edit)
    out = tmp_path / "out"
    assert main(_loading_argv(chain, "model", path, out)) == 2
    err = capsys.readouterr().err
    assert (f"data error: {path}: parameter dec.l0.b_h shape must be a list of non-negative "
            f"ints" in err)
    assert not out.exists()


@pytest.mark.parametrize("place", [("parameters", "dec.l0.b_h", "data"), ("normalizer", "min")])
def test_stream_with_non_finite_model_number_writes_nothing(chain, fixture_dir, tmp_path,
                                                            capsys, place):
    path = _doctored(chain, tmp_path, "model", _set_first(place, float("nan")))
    assert main(["stream", "--model", str(path), "--detector", str(chain["detector"]),
                 "--input", str(fixture_dir["test"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"data error: {path}: " in captured.err and "non-finite" in captured.err


def _min_above_max(payload):
    payload["normalizer"]["min"][4] = 1e30
    return payload


def test_train_refuses_features_whose_normalizer_min_is_above_its_max(chain, tmp_path,
                                                                      capsys):
    path = _doctored(chain, tmp_path, "features", _min_above_max)
    out = tmp_path / "model.json"
    assert main(["train", "--features", str(path), "--model-out", str(out), *FAST_TRAIN]) == 2
    name = json.loads(chain["model"].read_text())["feature_names"][4]
    assert (f"data error: {path}: normalizer min is above max for feature {name!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_stream_refuses_a_model_whose_normalizer_min_is_above_its_max(chain, fixture_dir,
                                                                      tmp_path, capsys):
    path = _doctored(chain, tmp_path, "model", _min_above_max)
    assert main(["stream", "--model", str(path), "--detector", str(chain["detector"]),
                 "--input", str(fixture_dir["test"])]) == 2
    captured = capsys.readouterr()
    name = json.loads(path.read_text())["feature_names"][4]
    assert captured.out == ""
    assert f"data error: {path}: normalizer min is above max for feature {name!r}" in captured.err


def _swap_first_and_fifth_names(payload):
    names = payload["feature_names"]
    names[0], names[4] = names[4], names[0]
    return payload


def _drop_last_feature(payload):
    payload["feature_names"] = payload["feature_names"][:-1]
    for key in ("min", "max", "log1p"):
        payload["normalizer"][key] = payload["normalizer"][key][:-1]
    return payload


@pytest.mark.parametrize("edit,message", [
    (_swap_first_and_fifth_names, "feature layout mismatch"),
    (_drop_last_feature, "config.f_dim 25 does not match the 24 feature names"),
], ids=["swapped", "short"])
def test_stream_refuses_a_model_with_a_foreign_feature_layout(chain, fixture_dir, tmp_path,
                                                              capsys, edit, message):
    path = _doctored(chain, tmp_path, "model", edit)
    assert main(["stream", "--model", str(path), "--detector", str(chain["detector"]),
                 "--input", str(fixture_dir["test"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: ") and message in captured.err


# A child that loads a model under this address-space cap, so a loader that
# allocates at the config's sizes fails there instead of exhausting the host.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from botdet.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _child_env() -> dict:
    """The environment of a child that imports this botdet on one BLAS thread."""
    src = str(Path(botdet.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("command", ["score", "stream"])
@pytest.mark.parametrize("key,size,name,stored", [
    ("hidden", 1_000_000, "enc.l0.fwd.w_r", "(25, 10), expected (25, 1000000)"),
    ("latent", 10_000_000, "head.mu.w", "(20, 4), expected (20, 10000000)"),
], ids=["hidden", "latent"])
def test_a_model_config_above_its_stored_shapes_is_a_data_error_under_a_memory_cap(
        chain, fixture_dir, tmp_path, command, key, size, name, stored):
    path = _doctored(chain, tmp_path, "model",
                     lambda payload: {**payload, "config": {**payload["config"], key: size}})
    argv = (["score", "--model", str(path), "--features", str(chain["features_test"]),
             "--scores-out", str(tmp_path / "s.csv")] if command == "score" else
            ["stream", "--model", str(path), "--detector", str(chain["detector"]),
             "--input", str(fixture_dir["test"])])
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"data error: {path}: parameter {name} has shape {stored}")
    assert proc.stdout == "" and not (tmp_path / "s.csv").exists()


def test_train_on_features_with_l_max_zero_is_a_data_error(chain, tmp_path, capsys):
    path = _doctored(chain, tmp_path, "features", lambda header: {**header, "l_max": 0})
    assert main(["train", "--features", str(path), "--model-out",
                 str(tmp_path / "model.json"), *FAST_TRAIN]) == 2
    assert f"{path}: l_max: expected an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def _set_count_or_time(artifact: str, key: str, value):
    """A payload edit that puts ``value`` where a count or a time belongs."""
    def edit(payload):
        in_config = artifact == "model" and key != "rng_seed"
        (payload["config"] if in_config else payload)[key] = value
        return payload
    return edit


@pytest.mark.parametrize("artifact,key,value", [
    ("model", "window_seconds", True), ("model", "n_windows", True), ("model", "l_max", True),
    ("model", "n_windows", 3.5), ("model", "hidden", 16.7), ("model", "f_dim", True),
    ("model", "latent", 4.0), ("model", "rng_seed", True),
    ("features", "window_seconds", True), ("features", "n_windows", True),
    ("features", "l_max", 8.5), ("features", "t0", False),
    ("detector", "bins", True), ("detector", "min_samples", 30.5),
])
def test_a_bool_or_fraction_for_a_count_or_time_is_a_data_error(chain, tmp_path, capsys,
                                                                artifact, key, value):
    path = _doctored(chain, tmp_path, artifact, _set_count_or_time(artifact, key, value))
    out = tmp_path / "out"
    assert main(_loading_argv(chain, artifact, path, out)) == 2
    err = capsys.readouterr().err
    what = {"window_seconds": "a number > 0", "t0": "a number",
            "rng_seed": "an integer >= 0"}.get(key, "an integer >= 1")
    assert f"data error: {path}: {key}: expected {what}, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["min", "max"])
def test_a_bool_in_the_normalizer_stats_is_a_data_error(chain, tmp_path, capsys, key):
    def edit(payload):
        payload["normalizer"][key][0] = key == "max"  # false as a min, true as a max
        return payload
    path = _doctored(chain, tmp_path, "model", edit)
    out = tmp_path / "out"
    assert main(_loading_argv(chain, "model", path, out)) == 2
    assert (f"data error: {path}: normalizer {key} must hold JSON numbers, not bools"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_bool_in_a_parameter_is_a_data_error(chain, tmp_path, capsys):
    name = sorted(json.loads(chain["model"].read_text())["parameters"])[0]

    def edit(payload):
        payload["parameters"][name]["data"][0] = False
        return payload
    path = _doctored(chain, tmp_path, "model", edit)
    out = tmp_path / "out"
    assert main(_loading_argv(chain, "model", path, out)) == 2
    assert (f"data error: {path}: parameter {name} data must hold JSON numbers, not bools"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key,message", [
    ("params", "pdf_normal.params: expected a number > 0, got True"),
    ("loc", "pdf_normal.loc: expected a number, got True"),
    ("scale", "pdf_normal.scale: expected a number > 0, got True"),
    ("sse", "pdf_normal.sse: expected a number >= 0, got True"),
    ("n", "pdf_normal.n: expected an integer >= 1, got True"),
])
def test_a_bool_in_a_density_is_a_data_error(chain, tmp_path, capsys, key, message):
    def edit(payload):
        pdf = payload["pdf_normal"]
        pdf[key] = [True] * len(pdf["params"]) if key == "params" else True
        return payload
    path = _doctored(chain, tmp_path, "detector", edit)
    out = tmp_path / "out"
    assert main(_loading_argv(chain, "detector", path, out)) == 2
    assert f"data error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("window_seconds", True), ("n_windows", True), ("l_max", True), ("n_windows", 3.5),
    ("hidden", 16.7),
])
def test_stream_refuses_a_bool_or_fraction_for_a_model_count_or_time(chain, fixture_dir,
                                                                    tmp_path, capsys, key, value):
    path = _doctored(chain, tmp_path, "model", _set_count_or_time("model", key, value))
    assert main(["stream", "--model", str(path), "--detector", str(chain["detector"]),
                 "--input", str(fixture_dir["test"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"data error: {path}: {key}: expected " in captured.err


def test_train_on_features_with_a_bool_n_windows_is_a_data_error(chain, tmp_path, capsys):
    path = _doctored(chain, tmp_path, "features", lambda header: {**header, "n_windows": True})
    assert main(["train", "--features", str(path), "--model-out",
                 str(tmp_path / "model.json"), *FAST_TRAIN]) == 2
    assert f"{path}: n_windows: expected an integer >= 1, got True" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


# What each rule refuses among true, "3", 0, -1, 2.5, NaN and Infinity; the
# CLI option that records a field checks it with the same rule.
_ODD = {"true": True, "text": "3", "zero": 0, "minus-one": -1, "fraction": 2.5,
        "nan": float("nan"), "inf": float("inf")}
_REFUSES = {
    "count": list(_ODD),
    "index": ["true", "text", "minus-one", "fraction", "nan", "inf"],
    "number": ["true", "text", "nan", "inf"],
    "positive": ["true", "text", "zero", "minus-one", "nan", "inf"],
    "nonnegative": ["true", "text", "minus-one", "nan", "inf"],
}


def _refusals(fields: dict) -> list:
    return [pytest.param(key, _ODD[odd], id=f"{key}-{odd}")
            for key, kind in fields.items() for odd in _REFUSES[kind]]


def _assert_refused(chain, tmp_path, capsys, artifact, edit, key):
    path = _doctored(chain, tmp_path, artifact, edit)
    out = tmp_path / "out"
    assert main(_loading_argv(chain, artifact, path, out)) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: {key}: expected " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", _refusals({
    "window_seconds": "positive", "n_windows": "count", "l_max": "count", "t0": "number"}))
def test_the_features_header_is_checked_by_the_option_rules(chain, tmp_path, capsys,
                                                            key, value):
    _assert_refused(chain, tmp_path, capsys, "features",
                    lambda header: {**header, key: value}, key)


@pytest.mark.parametrize("key,value", _refusals({
    "f_dim": "count", "hidden": "count", "latent": "count", "l_max": "count",
    "n_windows": "count", "window_seconds": "positive", "rng_seed": "index"}))
def test_the_model_config_and_seed_are_checked_by_the_option_rules(chain, tmp_path, capsys,
                                                                   key, value):
    _assert_refused(chain, tmp_path, capsys, "model",
                    _set_count_or_time("model", key, value), key)


_SUMMARY = "training_log_summary"


@pytest.mark.parametrize("key,value", _refusals({
    "epochs": "count", "updates": "count", "final_loss": "number", "final_bce": "number",
    "final_kl": "number", "final_grad_norm_mean": "number", "final_grad_norm_max": "number",
    "final_clipped": "index"}))
def test_the_training_log_summary_is_checked_by_the_option_rules(chain, tmp_path, capsys,
                                                                 key, value):
    def edit(payload):
        payload[_SUMMARY][key] = value
        return payload
    _assert_refused(chain, tmp_path, capsys, "model", edit, f"{_SUMMARY}.{key}")


@pytest.mark.parametrize("form", [
    "garbage", [1, 2], None, {"epochs": -5, "final_loss": "NaN"}, "missing", "extra"])
def test_a_training_log_summary_of_other_keys_is_a_data_error(chain, tmp_path, capsys, form):
    def edit(payload):
        summary = payload[_SUMMARY]
        if form == "missing":
            del summary["final_kl"]
        elif form == "extra":
            summary["final_lr"] = 0.01
        else:
            payload[_SUMMARY] = form
        return payload
    path = _doctored(chain, tmp_path, "model", edit)
    out = tmp_path / "out"
    assert main(_loading_argv(chain, "model", path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: {_SUMMARY}: expected an object with the keys "
                          "epochs, updates, final_loss, ")
    assert "Traceback" not in err and not out.exists()


def test_a_trained_models_log_summary_survives_a_round_trip(chain, tmp_path):
    stored = json.loads(chain["model"].read_text())[_SUMMARY]
    model = load_model(chain["model"])
    assert model.train_summary == stored
    assert list(model.train_summary) == list(TrainLog().summary())
    save_model(tmp_path / "again.json", model)
    assert (tmp_path / "again.json").read_bytes() == chain["model"].read_bytes()


@pytest.mark.parametrize("key,value", _refusals({
    "bins": "count", "min_samples": "count", "params": "positive", "loc": "number",
    "scale": "positive", "sse": "nonnegative", "n": "count"}))
def test_the_detector_is_checked_by_the_option_rules(chain, tmp_path, capsys, key, value):
    def edit(payload):
        if key in ("bins", "min_samples"):
            payload[key] = value
        elif key == "params":
            payload["pdf_normal"]["params"][0] = value
        else:
            payload["pdf_normal"][key] = value
        return payload
    _assert_refused(chain, tmp_path, capsys, "detector", edit,
                    key if key in ("bins", "min_samples") else f"pdf_normal.{key}")


def test_a_flag_and_the_model_field_it_records_share_one_rule(chain, tmp_path, capsys):
    assert main(["train", "--features", str(chain["features_train"]),
                 "--model-out", str(tmp_path / "m.json"), *FAST_TRAIN, "--hidden", "0"]) == 1
    usage = capsys.readouterr().err
    path = _doctored(chain, tmp_path, "model", _set_count_or_time("model", "hidden", 0))
    assert main(_loading_argv(chain, "model", path, tmp_path / "out")) == 2
    data = capsys.readouterr().err
    assert usage == "usage error: --hidden: expected an integer >= 1, got '0'\n"
    assert data == f"data error: {path}: hidden: expected an integer >= 1, got 0\n"


def test_an_integer_beyond_float64_is_refused_where_a_number_belongs(chain, fixture_dir,
                                                                    tmp_path, capsys):
    huge = 10 ** 400
    required = _required(chain, fixture_dir, tmp_path, "preprocess")
    assert main(["preprocess", "--config",
                 _config(tmp_path, {**required, "window_seconds": huge})]) == 1
    assert (capsys.readouterr().err
            == "usage error: --window-seconds: int too large to convert to float\n")
    path = _doctored(chain, tmp_path, "model",
                     _set_count_or_time("model", "window_seconds", huge))
    assert main(_loading_argv(chain, "model", path, tmp_path / "s.csv")) == 2
    assert (capsys.readouterr().err
            == f"data error: {path}: window_seconds: int too large to convert to float\n")


def _overflow_argv(command: str, fixture_dir, tmp_path, chain) -> list[str]:
    scenarios = ["--manifest", str(fixture_dir["manifest"]), "--train-scenarios", "synth-train",
                 "--test-scenarios", "synth-test", "--out-dir", str(tmp_path / "out")]
    if command == "preprocess":
        return ["preprocess", *scenarios, "--window-seconds", "1e-320"]
    if command == "sweep":
        return ["sweep", *scenarios, "--durations", "1e-320", *FAST_TRAIN]
    path = _doctored(chain, tmp_path, "model",
                     _set_count_or_time("model", "window_seconds", 5e-324))
    return ["stream", "--model", str(path), "--detector", str(chain["detector"]),
            "--input", str(fixture_dir["test"])]


@pytest.mark.parametrize("command", ["preprocess", "sweep", "stream"])
def test_a_window_too_short_to_number_is_a_data_error(chain, fixture_dir, tmp_path, capsys,
                                                      command):
    assert main(_overflow_argv(command, fixture_dir, tmp_path, chain)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: window_seconds ")
    assert "too short: window numbers overflow float64" in captured.err
    assert captured.out == "" and not list((tmp_path / "out").glob("*"))  # nothing written


def test_a_window_short_but_numberable_still_preprocesses(fixture_dir, tmp_path, capsys):
    """1e-305 s numbers the fixture's 1,440 s span below float64's maximum."""
    out = tmp_path / "out"
    assert main(["preprocess", "--manifest", str(fixture_dir["manifest"]),
                 "--train-scenarios", "synth-train", "--test-scenarios", "synth-test",
                 "--out-dir", str(out), "--window-seconds", "1e-305"]) == 0
    meta, rows = read_features(out / "features-test.csv")
    assert meta.window_seconds == 1e-305 and max(r.window_index for r in rows) > 10**307


def _alias_manifest(fixture_dir, tmp_path) -> Path:
    """A manifest where ``alias`` names the training capture a second time."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenarios": {
        "synth-train": str(fixture_dir["train"]), "synth-test": str(fixture_dir["test"]),
        "alias": str(fixture_dir["train"])}}), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["preprocess", "sweep"])
@pytest.mark.parametrize("train,test,code,message", [
    ("synth-train,synth-train", "synth-test", 1,
     "usage error: scenario ids must be disjoint and listed once; repeated: ['synth-train']"),
    ("synth-train,alias", "synth-test", 2,
     "data error: scenarios 'synth-train' and 'alias' name one capture"),
    ("synth-train", "alias", 2,
     "data error: scenarios 'synth-train' and 'alias' name one capture"),
], ids=["repeated-id", "alias-in-a-split", "alias-across-splits"])
def test_a_capture_is_read_once(fixture_dir, tmp_path, capsys, command, train, test, code,
                                message):
    argv = [command, "--manifest", str(_alias_manifest(fixture_dir, tmp_path)),
            "--train-scenarios", train, "--test-scenarios", test,
            "--out-dir", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--durations", "60", *FAST_TRAIN]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert not list((tmp_path / "out").glob("*"))  # nothing written


@pytest.mark.parametrize("inputs", ["same-path", "hard-link"])
def test_stream_refuses_a_capture_named_twice(chain, fixture_dir, tmp_path, capsys, inputs):
    """Before any flow is read: one capture would count its open window's flows twice."""
    capture = tmp_path / "test.binetflow"
    capture.write_bytes(fixture_dir["test"].read_bytes())
    other = capture
    if inputs == "hard-link":
        other = tmp_path / "link.binetflow"
        os.link(capture, other)
    assert main(["stream", "--model", str(chain["model"]), "--detector", str(chain["detector"]),
                 "--input", f"{capture},{other}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: --input paths {str(capture)!r} and "
                                   f"{str(other)!r} name one capture")


def test_stream_reads_distinct_captures_as_before(chain, fixture_dir, capsys):
    assert main(["stream", "--model", str(chain["model"]), "--detector", str(chain["detector"]),
                 "--input", f"{fixture_dir['train']},{fixture_dir['test']}"]) == 0
    captured = capsys.readouterr()
    assert captured.out and "late_dropped=" in captured.err


@pytest.mark.parametrize("command,flag,artifact,message", [
    ("fitpdf", "--scores", "features_train", "not a scores file (bad column header)"),
    ("score", "--features", "scores_train", "missing #META header line"),
])
def test_a_table_of_the_other_kind_is_a_data_error(chain, tmp_path, capsys, command, flag,
                                                    artifact, message):
    out = tmp_path / "out"
    argv = {"fitpdf": ["--detector-out", str(out)],
            "score": ["--model", str(chain["model"]), "--scores-out", str(out)]}[command]
    assert main([command, flag, str(chain[artifact]), *argv]) == 2
    assert capsys.readouterr().err == f"data error: {chain[artifact]}: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_exits_3_and_writes_nothing(chain, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["train", "--features", str(chain["features_train"]), "--model-out", str(out),
                 *FAST_TRAIN, "--lr", "1e9", "--beta-max", "100", "--anneal-steps", "1"]) == 3
    assert "numeric error: training aborted at epoch" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "model.run.json").exists()


@pytest.mark.parametrize("artifact,flag", [("model", "--model"), ("detector", "--detector")])
def test_non_utf8_json_artifact_is_a_data_error(chain, fixture_dir, tmp_path, capsys,
                                               artifact, flag):
    path = tmp_path / f"{artifact}.json"
    path.write_bytes(chain[artifact].read_bytes().replace(b"{", b"{\"\xe9\": 0, ", 1))
    argv = {"--model": str(chain["model"]), "--detector": str(chain["detector"]),
            flag: str(path)}
    assert main(["stream", *[x for kv in argv.items() for x in kv],
                 "--input", str(fixture_dir["test"])]) == 2
    assert f"data error: {path}:1: not UTF-8 text" in capsys.readouterr().err


def _record_without_verdict(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "verdict"}


@pytest.mark.parametrize("edit", [
    lambda r: {}, lambda r: [1, 2], _record_without_verdict,
    lambda r: {**r, "verdict": "maybe"}, lambda r: {**r, "window_index": "3"},
    lambda r: {**r, "window_index": True}, lambda r: {**r, "src_addr": None},
], ids=["empty", "list", "no-verdict", "bad-verdict", "text-window", "bool-window",
        "null-host"])
def test_malformed_decision_record_is_a_data_error(chain, tmp_path, capsys, edit):
    lines = chain["decisions"].read_text().splitlines()
    path = tmp_path / "decisions.jsonl"
    path.write_text("\n".join([lines[0], json.dumps(edit(json.loads(lines[1]))),
                               *lines[2:]]) + "\n")
    assert main(["evaluate", "--scores", str(chain["scores_test"]),
                 "--decisions", str(path), "--model", str(chain["model"]),
                 "--report-out", str(tmp_path / "report.json")]) == 2
    assert f"data error: {path}:2: a decision record needs" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_non_utf8_decisions_are_a_data_error(chain, tmp_path, capsys):
    path = tmp_path / "decisions.jsonl"
    path.write_bytes(chain["decisions"].read_bytes() + b"\xe9\n")
    rows = len(chain["decisions"].read_text().splitlines())
    assert main(["evaluate", "--scores", str(chain["scores_test"]),
                 "--decisions", str(path), "--report-out", str(tmp_path / "r.json")]) == 2
    assert f"data error: {path}:{rows + 1}: not UTF-8 text" in capsys.readouterr().err


# The README chain, plus one --config file, as a child that turns every text
# open without an explicit encoding into an error.
_CHAIN_WITH_EXPLICIT_ENCODINGS = """
import json, sys
from pathlib import Path
from botdet.cli import main
from botdet.synth import SynthConfig, make_fixture
make_fixture(Path("fx"), train_cfg=SynthConfig(
    seed=3, n_normal_hosts=6, n_botnet_hosts=2, n_background_hosts=1, n_windows=24))
sizes = ["--epochs", "2", "--batch-size", "16", "--hidden", "6", "--latent", "3", "--seed", "0"]
Path("train.json").write_text(json.dumps(
    {"features": "features-train.csv", "model_out": "model.json", "epochs": 2,
     "batch_size": 16, "hidden": 6, "latent": 3, "seed": 0}), encoding="utf-8")
splits = ["--manifest", "fx/manifest.json", "--train-scenarios", "synth-train",
          "--test-scenarios", "synth-test"]
for argv in (
        ["preprocess", *splits, "--out-dir", "."],
        ["train", "--config", "train.json"],
        ["score", "--model", "model.json", "--features", "features-train.csv",
         "--scores-out", "scores-train.csv"],
        ["score", "--model", "model.json", "--features", "features-test.csv",
         "--scores-out", "scores-test.csv"],
        ["fitpdf", "--scores", "scores-train.csv", "--detector-out", "detector.json",
         "--min-samples", "30", "--bins", "40"],
        ["detect", "--scores", "scores-test.csv", "--detector", "detector.json",
         "--decisions-out", "decisions.jsonl"],
        ["evaluate", "--scores", "scores-test.csv", "--decisions", "decisions.jsonl",
         "--report-out", "report.json", "--model", "model.json"],
        ["stream", "--model", "model.json", "--detector", "detector.json",
         "--input", "fx/synth-test.binetflow"],
        ["sweep", *splits, "--durations", "60", "--out-dir", "sweep", *sizes,
         "--min-samples", "30", "--bins", "40"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_every_text_artifact_and_input_names_its_encoding(tmp_path):
    # A locale's encoding (cp1252, say) would write artifacts that the
    # strictly UTF-8 readers refuse; every open must say UTF-8 itself.
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", _CHAIN_WITH_EXPLICIT_ENCODINGS],
                          cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "EncodingWarning" not in proc.stderr
    assert (tmp_path / "sweep" / "sweep-table.txt").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sizes the pipe with F_SETPIPE_SZ")
def test_a_stream_reader_that_stops_early_is_no_error(chain, fixture_dir):
    import fcntl

    read_end, write_end = os.pipe()
    # One page of pipe: the child blocks on its decisions long before the
    # last, so closing the read end after one line breaks its next write.
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "botdet.cli", "stream", "--model", str(chain["model"]),
         "--detector", str(chain["detector"]), "--input", str(fixture_dir["test"])],
        stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), text=True)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as out:
        first = out.readline()
    stderr = proc.communicate(timeout=120)[1]
    assert json.loads(first)["src_addr"]
    assert proc.returncode == 0, stderr
    assert "i/o error" not in stderr and "Traceback" not in stderr
    assert stderr.startswith("flows=") and "bad_rows=0" in stderr
