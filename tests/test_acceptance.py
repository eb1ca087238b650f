"""Acceptance gate: one test per numbered criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; add ``-s`` for the measured values. Criterion 7 is the
overnight full-scale reproduction: here we verify the documented script
and its configuration, not the run itself. Criterion 8 needs the real
dataset and is skipped unless CTU13_DIR is set.
"""
import importlib.util
import json
import math
import os
import py_compile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from botdet import models
from botdet.autodiff import Tensor
from botdet.cli import main
from botdet.detector import best_fit, family_by_name, fit_family
from botdet.metrics import kfold_split, roc_auc
from botdet.models import GruCellWeights, RvaeParams
from botdet.pipeline import (
    classify_scores,
    evaluate_decisions,
    fit_detector_from_training,
    preprocess,
    score_split,
    train_model,
)
from botdet.synth import SynthConfig, make_fixture
from botdet.train import TrainConfig

from helpers import gradcheck

REPO = Path(__file__).resolve().parent.parent


def _report(n: int, detail: str) -> None:
    print(f"\n[criterion {n}] PASS: {detail}")


# ---------------------------------------------------------------- 1

def test_criterion_1_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst: dict[str, float] = {}

    cell = GruCellWeights.init(rng, n_in=6, n_hidden=7)
    xs = Tensor(rng.uniform(-1.0, 1.0, size=(3, 2, 6)), requires_grad=True)
    h0 = Tensor(rng.uniform(-0.5, 0.5, size=(2, 7)), requires_grad=True)
    lengths = np.array([3, 2])

    def pass_loss():
        total = None
        for reverse, n, h in ((False, None, h0), (True, lengths, h0), (False, lengths, None),
                              (True, None, None)):
            states, final = models.gru_pass(xs, cell, h0=h, reverse=reverse, lengths=n)
            s = models.ad.sum_all(states * states) + models.ad.sum_all(final * final)
            total = s if total is None else total + s
        return total

    worst["gru_pass"] = gradcheck(pass_loss, [*cell.named("cell").values(), xs, h0])

    p = RvaeParams.init(rng, f_dim=5, hidden=4, latent=3)
    named = p.named_parameters()
    batch = rng.uniform(0.05, 0.95, size=(2, 3, 5))
    steps = Tensor(np.moveaxis(batch, 1, 0))

    def encoder_loss():
        mu, logvar = models.encode(p, steps)
        return models.ad.sum_all(mu * mu) + models.ad.sum_all(logvar * logvar)

    enc_params = [v for k, v in named.items()
                  if k.startswith("enc.") or k.startswith("head.")]
    worst["encoder"] = gradcheck(encoder_loss, enc_params)

    z0 = rng.uniform(-0.5, 0.5, size=(2, 3))

    def decoder_loss():
        recons = models.decode(p, Tensor(z0), batch)
        total = None
        for r in recons:
            s = models.ad.sum_all(r * r)
            total = s if total is None else total + s
        return total

    dec_params = [v for k, v in named.items()
                  if k.startswith("dec.") or k.startswith("out.")]
    worst["decoder"] = gradcheck(decoder_loss, dec_params)

    lengths = np.array([3, 2])
    eps = rng.standard_normal((2, 3))

    def full_loss():
        recons, mu, logvar = models.rvae_forward(p, batch, lengths, eps)
        total, _, _ = models.vae_loss(batch, recons, mu, logvar, beta=0.7,
                                      lengths=lengths)
        return total

    worst["bce_kl_loss"] = gradcheck(full_loss, list(named.values()))

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    for part, err in worst.items():
        assert err < 1e-4, f"{part}: max relative error {err:.3e}"
    _report(1, "max rel err " +
            ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) +
            f"; {elapsed:.1f}s")


# ---------------------------------------------------------------- 2

def test_criterion_2_closed_form_checks():
    d = 6
    kl = models.kl_divergence(Tensor(np.zeros((1, d))), Tensor(np.zeros((1, d))))
    assert kl.item() == 0.0

    target = np.full((1, 25), 0.5)
    bce = models.bce_sum(target, Tensor(np.full((1, 25), 0.5)))
    assert abs(bce.item() - 25.0 * math.log(2.0)) < 1e-9

    assert models.beta_schedule(0, 500, 1.0) == 0.0
    assert models.beta_schedule(500, 500, 1.0) == 1.0
    assert models.beta_schedule(501, 500, 1.0) == 1.0
    assert models.beta_schedule(0, 200, 0.37) == 0.0
    assert models.beta_schedule(200, 200, 0.37) == 0.37
    _report(2, f"KL(0,0)=0, BCE(0.5,F=25)={bce.item():.15f}, beta endpoints ok")


# ---------------------------------------------------------------- 3

def _pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    num = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                num += 2
            elif sp == sn:
                num += 1
    return num / (2 * len(pos) * len(neg))


def test_criterion_3_metric_oracles_and_kfold_partitions():
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 12, size=n) / 7.0  # coarse grid forces ties
        assert roc_auc(scores, labels) == _pairwise_auc(scores, labels), \
            f"trial {trial}"

    for n, k in ((10, 5), (23, 4), (97, 7)):
        folds = kfold_split(n, k=k, seed=5)
        seen = []
        for train_idx, val_idx in folds:
            assert set(train_idx) | set(val_idx) == set(range(n))
            assert not set(train_idx) & set(val_idx)
            seen.extend(val_idx)
        assert sorted(seen) == list(range(n)), "folds must cover, disjointly"
    _report(3, "roc_auc == pairwise oracle on 100 instances; kfold partitions ok")


# ---------------------------------------------------------------- 4

def test_criterion_4_distribution_recovery():
    t0 = time.monotonic()
    cases = [
        ("gamma", scipy.stats.gamma(2.0), {"a": 2.0}, 0.10, True),
        ("beta", scipy.stats.beta(2.0, 3.0), {"a": 2.0, "b": 3.0}, 0.10, True),
        ("genlogistic", scipy.stats.genlogistic(3.0), {"c": 3.0}, 0.10, True),
        ("foldcauchy", scipy.stats.foldcauchy(3.0), {"c": 3.0}, 0.20, False),
        ("mielke", scipy.stats.mielke(3.0, 4.0), {"k": 3.0, "s": 4.0}, 0.20, False),
    ]
    lines = []
    for name, dist, true_shapes, tol, check_selection in cases:
        samples = dist.rvs(size=10_000, random_state=np.random.default_rng(42))
        fit = fit_family(family_by_name(name), samples)
        errs = {}
        for i, (pname, truth) in enumerate(true_shapes.items()):
            rel = abs(fit.shapes[i] - truth) / truth
            errs[pname] = rel
            assert rel <= tol, f"{name} {pname}: {fit.shapes[i]:.4f} vs {truth} " \
                               f"({rel:.1%} > {tol:.0%})"
        if check_selection:
            chosen = best_fit(samples)
            assert chosen.family == name, \
                f"best_fit picked {chosen.family} on {name} data"
        lines.append(f"{name} " +
                     ",".join(f"{p}={e:.1%}" for p, e in errs.items()) +
                     ("+sel" if check_selection else ""))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"recovery took {elapsed:.1f}s"
    _report(4, "; ".join(lines) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------- 5 and 6

@pytest.fixture(scope="module")
def synth_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptfix")
    train_cfg = SynthConfig(seed=7, n_normal_hosts=10, n_botnet_hosts=3,
                            n_background_hosts=2, n_windows=60)
    return make_fixture(out, train_cfg=train_cfg)


def test_criterion_5_synthetic_end_to_end(synth_fixture):
    t0 = time.monotonic()
    cfg = TrainConfig(epochs=50, batch_size=16, lr=0.01, anneal_steps=100,
                      seed=0, hidden=32, latent=8, l_max=128)
    pre = preprocess(synth_fixture["manifest"], ["synth-train"], ["synth-test"],
                     window_seconds=60.0, n_windows=3, l_max=128)
    model = train_model(pre.meta, pre.train.rows, cfg)
    det = fit_detector_from_training(
        score_split(model, pre.meta, pre.train.rows))
    test_scored = score_split(model, pre.meta, pre.test.rows)
    decisions = classify_scores(test_scored, det)
    report = evaluate_decisions(test_scored, decisions,
                                config={"T": 60.0, "N": 3, "arch": "rvae"})
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"end-to-end took {elapsed:.1f}s"
    assert report.auroc >= 0.90, f"AUROC {report.auroc:.4f} < 0.90"
    assert report.f1 >= 0.85, f"F1 {report.f1:.4f} < 0.85"
    _report(5, f"AUROC={report.auroc:.4f}, F1={report.f1:.4f}, "
               f"P={report.precision:.4f}, R={report.recall:.4f}; {elapsed:.0f}s")


def test_criterion_6_batch_stream_equivalence(synth_fixture, tmp_path, capsys):
    work = tmp_path / "c6"
    work.mkdir()
    fast = ["--epochs", "8", "--batch-size", "16", "--hidden", "12",
            "--latent", "4", "--anneal-steps", "40", "--seed", "0"]
    steps = [
        ["preprocess", "--manifest", str(synth_fixture["manifest"]),
         "--train-scenarios", "synth-train", "--test-scenarios", "synth-test",
         "--out-dir", str(work)],
        ["train", "--features", str(work / "features-train.csv"),
         "--model-out", str(work / "model.json"), *fast],
        ["score", "--model", str(work / "model.json"),
         "--features", str(work / "features-train.csv"),
         "--scores-out", str(work / "scores-train.csv")],
        ["score", "--model", str(work / "model.json"),
         "--features", str(work / "features-test.csv"),
         "--scores-out", str(work / "scores-test.csv")],
        ["fitpdf", "--scores", str(work / "scores-train.csv"),
         "--detector-out", str(work / "detector.json")],
        ["detect", "--scores", str(work / "scores-test.csv"),
         "--detector", str(work / "detector.json"),
         "--decisions-out", str(work / "decisions.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    capsys.readouterr()
    rc = main(["stream", "--model", str(work / "model.json"),
               "--detector", str(work / "detector.json"),
               "--input", str(synth_fixture["test"])])
    assert rc == 0
    streamed = [json.loads(line)
                for line in capsys.readouterr().out.strip().split("\n")]
    batch = [json.loads(line) for line in
             (work / "decisions.jsonl").read_text().strip().split("\n")]

    def verdicts(rows):
        return {(d["src_addr"], d["window_index"]): d["verdict"] for d in rows}

    assert verdicts(streamed) == verdicts(batch)
    assert len(streamed) == len(batch)
    _report(6, f"{len(batch)} host-window verdicts identical via detect and stream")


# ---------------------------------------------------------------- 7

def test_criterion_7_full_scale_reproduction_script_documented():
    script = REPO / "scripts" / "reproduce_ctu13.py"
    assert script.exists()
    py_compile.compile(str(script), doraise=True)
    text = script.read_text()
    for needle in ('default=512', 'default=100', 'default=500',
                   'default="60,300"', '("1", "2", "6", "8", "9")',
                   "0.95 - 0.03", "precision"):
        assert needle in text, f"reproduction script must pin {needle!r}"
    assert "overnight" in text, "script must warn about its runtime"
    _report(7, "overnight reproduction script present with paper-scale config "
               "(H=512, D=100, T=60s, N=3, 500 epochs); not run at desk scale")


# ---------------------------------------------------------------- 8

@pytest.mark.skipif(not os.environ.get("CTU13_DIR"),
                    reason="CTU13_DIR not set; scaled smoke needs the dataset")
def test_criterion_8_scaled_ctu13_smoke(tmp_path):
    t0 = time.monotonic()
    spec = importlib.util.spec_from_file_location(
        "reproduce_ctu13", REPO / "scripts" / "reproduce_ctu13.py")
    repro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(repro)

    scenarios = repro.find_scenarios(Path(os.environ["CTU13_DIR"]))
    trimmed = repro.subsample_scenarios(scenarios, 0.10, tmp_path / "sub")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"scenarios": {sid: str(p.resolve()) for sid, p in trimmed.items()}}))
    test_ids = [s for s in ("1", "2", "6", "8", "9") if s in trimmed]
    train_ids = [s for s in sorted(trimmed, key=int) if s not in test_ids]

    pre = preprocess(manifest, train_ids, test_ids, window_seconds=60.0,
                     n_windows=3, l_max=128)
    cfg = TrainConfig(epochs=30, batch_size=128, lr=0.01, anneal_steps=100,
                      seed=0, hidden=64, latent=16, l_max=128)
    aurocs = {}
    for arch in ("rvae", "mlp"):
        model = train_model(pre.meta, pre.train.rows, cfg, arch)
        det = fit_detector_from_training(
            score_split(model, pre.meta, pre.train.rows))
        scored = score_split(model, pre.meta, pre.test.rows)
        report = evaluate_decisions(scored, classify_scores(scored, det))
        aurocs[arch] = report.auroc
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0, f"smoke took {elapsed:.0f}s"
    assert aurocs["rvae"] >= aurocs["mlp"] - 0.02, \
        f"RVAE {aurocs['rvae']:.4f} vs MLP {aurocs['mlp']:.4f}"
    _report(8, f"RVAE AUROC={aurocs['rvae']:.4f} >= MLP {aurocs['mlp']:.4f} - 0.02; "
               f"{elapsed:.0f}s")
