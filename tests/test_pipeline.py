import json
from dataclasses import replace

import numpy as np
import pytest

from botdet import ingest
from botdet.errors import DataError, UsageError
from botdet.features import FEATURE_NAMES
from botdet.ingest import GroundTruth
from botdet.pipeline import (
    classify_scores,
    evaluate_decisions,
    fit_detector_from_training,
    load_manifest,
    preprocess,
    resolve_scenarios,
    score_histogram_rows,
    score_split,
    train_model,
    train_model_kfold,
    window_sweep,
    write_histogram_csv,
)
from botdet.synth import SynthConfig, make_fixture
from botdet.train import TrainConfig

FAST_CFG = TrainConfig(epochs=8, batch_size=16, lr=0.01, anneal_steps=40,
                       seed=0, hidden=12, latent=4, l_max=64)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthfix")
    train_cfg = SynthConfig(seed=3, n_normal_hosts=6, n_botnet_hosts=2,
                            n_background_hosts=1, n_windows=24)
    return make_fixture(out, train_cfg=train_cfg)


@pytest.fixture(scope="module")
def pre(fixture_dir):
    return preprocess(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                      window_seconds=60.0, n_windows=3, l_max=64)


@pytest.fixture(scope="module")
def trained(pre):
    return train_model(pre.meta, pre.train.rows, FAST_CFG)


def test_load_manifest_resolves_relative_to_file(fixture_dir):
    m = load_manifest(fixture_dir["manifest"])
    assert set(m) == {"synth-train", "synth-test"}
    for p in m.values():
        assert p.exists()
        assert p.parent == fixture_dir["manifest"].parent


def test_load_manifest_rejects_garbage(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(DataError):
        load_manifest(p)
    p.write_text('{"scenarios": {}}\n')
    with pytest.raises(DataError):
        load_manifest(p)
    with pytest.raises(DataError):
        load_manifest(tmp_path / "absent.json")


def test_resolve_scenarios_flags_unknown_ids(fixture_dir):
    m = load_manifest(fixture_dir["manifest"])
    with pytest.raises(UsageError, match="nope"):
        resolve_scenarios(m, ["nope"])


def test_preprocess_requires_disjoint_splits(fixture_dir):
    with pytest.raises(UsageError, match="disjoint"):
        preprocess(fixture_dir["manifest"], ["synth-train"], ["synth-train"])
    with pytest.raises(UsageError):
        preprocess(fixture_dir["manifest"], [], ["synth-test"])


def test_preprocess_normalizer_is_fit_on_train_only(pre):
    vals = np.array([r.values for r in pre.train.rows])
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    hit_low = (vals.min(axis=0) == 0.0)
    hit_high = (vals.max(axis=0) == 1.0)
    nondegenerate = pre.meta.normalizer.vmax > pre.meta.normalizer.vmin
    assert hit_low[nondegenerate].all() and hit_high[nondegenerate].all()
    test_vals = np.array([r.values for r in pre.test.rows])
    assert test_vals.min() >= 0.0 and test_vals.max() <= 1.0


def test_preprocess_both_splits_start_at_window_zero(pre):
    assert min(r.window_index for r in pre.train.rows) == 0
    assert min(r.window_index for r in pre.test.rows) == 0


def test_preprocess_log1p_flag_sets_all_features(fixture_dir):
    out = preprocess(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                     log1p=True)
    assert out.meta.normalizer.log1p.all()
    assert out.meta.normalizer.log1p.shape == (len(FEATURE_NAMES),)


def test_train_model_rejects_unknown_arch(pre):
    with pytest.raises(UsageError):
        train_model(pre.meta, pre.train.rows, FAST_CFG, arch="transformer")


def test_score_split_checks_feature_layout(pre, trained):
    meta = replace(pre.meta, feature_names=tuple(reversed(pre.meta.feature_names)))
    with pytest.raises(DataError, match="layout"):
        score_split(trained, meta, pre.train.rows)


def test_full_batch_chain_on_synthetic_fixture(pre, trained):
    train_scored = score_split(trained, pre.meta, pre.train.rows)
    det = fit_detector_from_training(train_scored, min_samples=30, bins=60)
    test_scored = score_split(trained, pre.meta, pre.test.rows)
    decisions = classify_scores(test_scored, det)

    assert len(decisions) == len(test_scored)
    keys = [(d["window_index"], d["src_addr"]) for d in decisions]
    assert keys == sorted(keys)
    report = evaluate_decisions(test_scored, decisions,
                                config={"T": 60.0, "N": 3, "arch": "rvae"})
    assert report.tp + report.fp + report.tn + report.fn == len(test_scored)
    assert 0.0 <= report.auroc <= 1.0


def test_pipeline_is_deterministic(fixture_dir):
    def run():
        pre = preprocess(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                         n_windows=3, l_max=64)
        model = train_model(pre.meta, pre.train.rows, FAST_CFG)
        scored = score_split(model, pre.meta, pre.test.rows)
        return [s.score for s in scored]

    assert run() == run()


def test_fitpdf_requires_botnet_rows(pre, trained):
    clean = [r for r in pre.train.rows if r.label is not GroundTruth.BOTNET]
    scored = score_split(trained, pre.meta, clean)
    with pytest.raises(DataError, match="botnet"):
        fit_detector_from_training(scored)


def test_evaluate_can_exclude_background(pre, trained):
    test_scored = score_split(trained, pre.meta, pre.test.rows)
    det = fit_detector_from_training(score_split(trained, pre.meta, pre.train.rows),
                                     min_samples=30, bins=60)
    decisions = classify_scores(test_scored, det)
    full = evaluate_decisions(test_scored, decisions)
    trimmed = evaluate_decisions(test_scored, decisions, exclude_background=True)
    n_background = sum(1 for s in test_scored
                       if s.label is GroundTruth.BACKGROUND)
    assert n_background > 0
    full_n = full.tp + full.fp + full.tn + full.fn
    trim_n = trimmed.tp + trimmed.fp + trimmed.tn + trimmed.fn
    assert full_n - trim_n == n_background


def test_evaluate_requires_matching_decisions(pre, trained):
    test_scored = score_split(trained, pre.meta, pre.test.rows)
    with pytest.raises(DataError, match="no decision"):
        evaluate_decisions(test_scored, [])


def test_kfold_selects_a_fold_by_auprc(pre):
    model, reports = train_model_kfold(pre.meta, pre.train.rows, FAST_CFG, k=3)
    assert model.arch == "rvae"
    scored_folds = [r for r in reports if "fold" in r and not r["skipped"]]
    assert scored_folds, "every fold was skipped"
    best = max(r["auprc"] for r in scored_folds)
    assert reports[-1]["selected_auprc"] == best


def test_kfold_needs_enough_spans(pre):
    few = [r for r in pre.train.rows if r.window_index < 6]
    with pytest.raises(DataError, match="spans"):
        train_model_kfold(pre.meta, few, FAST_CFG, k=5)


def test_histogram_rows_cover_all_scores(pre, trained):
    scored = score_split(trained, pre.meta, pre.test.rows)
    rows = score_histogram_rows(scored, bins=40)
    assert len(rows) == 40
    lo = min(s.score for s in scored)
    hi = max(s.score for s in scored)
    assert rows[0]["bin_left"] == pytest.approx(lo)
    assert rows[-1]["bin_right"] == pytest.approx(hi)
    widths = [r["bin_right"] - r["bin_left"] for r in rows]
    mass_n = sum(r["density_normal"] * w for r, w in zip(rows, widths))
    assert mass_n == pytest.approx(1.0, abs=1e-9)


def test_histogram_csv_roundtrip(tmp_path, pre, trained):
    scored = score_split(trained, pre.meta, pre.test.rows)
    rows = score_histogram_rows(scored, bins=25)
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,density_normal,density_botnet"
    assert len(lines) == 26
    got = [float(x) for x in lines[1].split(",")]
    assert got[0] == rows[0]["bin_left"]


def test_window_sweep_single_duration(fixture_dir):
    res = list(window_sweep(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                            [60.0], FAST_CFG, min_samples=30, bins=60))
    assert len(res) == 1
    assert res[0].duration == 60.0
    assert res[0].report.config["T"] == 60.0
    assert len(res[0].histogram) == 60


def test_window_sweep_rejects_empty_durations(fixture_dir):
    with pytest.raises(UsageError):
        window_sweep(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                     [], FAST_CFG)


def test_window_sweep_reads_each_capture_once_and_matches_preprocess(fixture_dir, monkeypatch):
    opened = []
    capture = ingest._capture
    monkeypatch.setattr(ingest, "_capture", lambda path: opened.append(path) or capture(path))
    durations = [30.0, 60.0]
    swept = window_sweep(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                         durations, FAST_CFG, min_samples=30, bins=60)
    assert sorted(opened) == sorted([fixture_dir["train"], fixture_dir["test"]])
    for res, t in zip(swept, durations):
        pre = preprocess(fixture_dir["manifest"], ["synth-train"], ["synth-test"],
                         window_seconds=t, n_windows=3, l_max=FAST_CFG.l_max)
        model = train_model(pre.meta, pre.train.rows, FAST_CFG)
        det = fit_detector_from_training(score_split(model, pre.meta, pre.train.rows),
                                         min_samples=30, bins=60)
        test_scored = score_split(model, pre.meta, pre.test.rows)
        report = evaluate_decisions(test_scored, classify_scores(test_scored, det),
                                    config={"T": t, "N": 3, "arch": "rvae"})
        assert res.duration == t
        assert res.report == report
    assert len(opened) == 2 + 2 * len(durations)  # each preprocess reads both again
