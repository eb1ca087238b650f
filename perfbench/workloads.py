"""The benchmark's three workloads: set-up, one timed job, and output checks.

Every workload builds its inputs from the seed with ``botdet.synth``; the
system under test receives only the generated captures (or, for
``train``, the sequences ``botdet``'s own feature code builds from them).

Fixture sizes are chosen so that the full measurement protocol (three
workloads, 4 + 22 x 3 runs, each with three set-ups and 15 s of jobs)
stays well within an hour on two cores:

- ``chain`` uses 48 training windows (16 non-malicious training sequences
  of L=60, one full batch of 16) and 24 test windows: 45% of the
  ``make_fixture()`` default flows.
- the reference model keeps the acceptance criterion-5 shape (H=32,
  latent 8, batch 16) but trains for 8 updates; the synthetic classes are
  separated widely enough that AUROC stays at 1.0 on every seed tried.
- ``stream`` reads a test-profile capture of 46 hosts per window, so
  every trailing 3-window span from window 1 on holds more than
  l_max=128 host-windows, over 40 windows, so one pass gives 40 window
  closes and the p75 close latency has ten windows beyond it. Its
  batch reference is built by ``stream_reference`` once per run, apart
  from the timed set-up.
- a ``train`` job is 10 updates (about 2 s), so the host-speed probes
  that bracket each job (``hostspeed.py``) sit close to every update.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import botdet.ingest
import botdet.models
import botdet.optim
from botdet import cli, fileio, pipeline
from botdet.errors import NumericError
from botdet.features import (
    FEATURE_NAMES,
    Normalizer,
    aggregate_flows,
    build_sequences,
    non_malicious,
    rows_from_aggregates,
)
from botdet.fileio import FeaturesMeta
from botdet.streaming import run_stream
from botdet.synth import SynthConfig, generate_flows, write_scenario
from botdet.train import TrainConfig, fit_rvae

from hostspeed import Sampler
from tracing import Tracer, source_wait_iter

WINDOW_SECONDS = 60.0
N_WINDOWS = 3
L_MAX = 128
CHAIN_TRAIN_WINDOWS = 48
MODEL_CONFIG = dict(epochs=8, batch_size=16, lr=0.01, anneal_steps=100,
                    hidden=32, latent=8, l_max=L_MAX)
TRAIN_UPDATES = 10
TRAIN_CONFIG = dict(epochs=TRAIN_UPDATES, batch_size=16, hidden=64, latent=16,
                    l_max=L_MAX)
STREAM_HOSTS = dict(n_normal_hosts=40, n_botnet_hosts=2, n_background_hosts=4)
STREAM_WINDOWS = 40
SAMPLE_EVERY_FLOWS = 1000  # host-speed samples inside a stream job
AUROC_GATE = 0.90


@dataclass
class JobResult:
    start: float
    end: float
    probe_s: float  # host-speed sampling inside the job, not counted in job_s
    steps: list[tuple[float, float]]  # (start, end) of each timed step
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)

    @property
    def job_s(self) -> float:
        return self.end - self.start - self.probe_s


def _sample(sampler: Sampler | None) -> float:
    return sampler.sample() if sampler is not None else 0.0


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _featurize(flows, norm: Normalizer | None = None):
    """Normalized host-window rows of in-memory flows, as ``pipeline.preprocess`` builds them."""
    aggs = aggregate_flows(flows, flows[0].start_time, WINDOW_SECONDS)
    if norm is None:
        norm = Normalizer.fit(np.array([a.values for a in aggs]))
    return rows_from_aggregates(aggs, norm), norm, flows[0].start_time


def _meta(norm: Normalizer, t0: float) -> FeaturesMeta:
    return FeaturesMeta(feature_names=FEATURE_NAMES, normalizer=norm,
                        window_seconds=WINDOW_SECONDS, n_windows=N_WINDOWS,
                        l_max=L_MAX, t0=float(t0))


def _chain_train_config(seed: int) -> SynthConfig:
    return SynthConfig(seed=seed, n_windows=CHAIN_TRAIN_WINDOWS)


def _reference_model(seed: int, train_flows):
    rows, norm, t0 = _featurize(train_flows)
    meta = _meta(norm, t0)
    model = pipeline.train_model(meta, rows, TrainConfig(seed=seed, **MODEL_CONFIG))
    return model, meta, rows


# ------------------------------------------------------------------ chain

def setup_chain(seed: int, work: Path) -> dict:
    capture = work / "capture"
    capture.mkdir(parents=True, exist_ok=True)
    train_cfg = _chain_train_config(seed)
    # The split names and test config of synth.make_fixture, keeping the
    # generated training flows for the reference model.
    train_flows = write_scenario(capture / "synth-train.binetflow", train_cfg)
    write_scenario(capture / "synth-test.binetflow",
                   replace(train_cfg, seed=seed + 1000, profile="test",
                           n_windows=CHAIN_TRAIN_WINDOWS // 2))
    (capture / "manifest.json").write_text(json.dumps({"scenarios": {
        "synth-train": "synth-train.binetflow",
        "synth-test": "synth-test.binetflow"}}))
    model, _, _ = _reference_model(seed, train_flows)
    fileio.save_model(work / "model.json", model)
    return {"manifest": capture / "manifest.json", "model": work / "model.json",
            "out": work / "chain"}


def chain_job(ctx: dict, tracer: Tracer | None = None,
              sampler: Sampler | None = None) -> JobResult:
    out, model = ctx["out"], str(ctx["model"])
    f = {name: str(out / name) for name in (
        "features-train.csv", "features-test.csv", "scores-train.csv",
        "scores-test.csv", "detector.json", "decisions.jsonl", "report.json")}
    stages = [
        ("preprocess", ["--manifest", str(ctx["manifest"]), "--train-scenarios",
                        "synth-train", "--test-scenarios", "synth-test",
                        "--out-dir", str(out)]),
        ("score", ["--model", model, "--features", f["features-train.csv"],
                   "--scores-out", f["scores-train.csv"]]),
        ("score", ["--model", model, "--features", f["features-test.csv"],
                   "--scores-out", f["scores-test.csv"]]),
        ("fitpdf", ["--scores", f["scores-train.csv"],
                    "--detector-out", f["detector.json"]]),
        ("detect", ["--scores", f["scores-test.csv"], "--detector",
                    f["detector.json"], "--decisions-out", f["decisions.jsonl"]]),
        ("evaluate", ["--scores", f["scores-test.csv"], "--decisions",
                      f["decisions.jsonl"], "--model", model,
                      "--report-out", f["report.json"]]),
    ]
    failed = 0
    probe_s = 0.0
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), _span(tracer, "cli:chain"):
        for i, (name, argv) in enumerate(stages):
            if i:
                probe_s += _sample(sampler)
            with _span(tracer, f"cli:{name}"):
                rc = cli.main([name, *argv])
            if rc != 0:
                failed = len(stages) - i
                break
    end = perf_counter()
    if failed:
        return JobResult(start, end, probe_s, [], len(stages) + 2, failed + 2)

    report = json.loads(Path(f["report.json"]).read_text())
    with open(f["scores-test.csv"], newline="") as fh:
        scored = [(r["src_addr"], int(r["window_index"])) for r in csv.DictReader(fh)]
    with open(f["decisions.jsonl"]) as fh:
        decided = [(d["src_addr"], d["window_index"]) for d in map(json.loads, fh)]
    checks = [report["auroc"] >= AUROC_GATE,
              len(decided) == len(set(decided)) and set(decided) == set(scored)]
    return JobResult(start, end, probe_s, [], len(stages) + len(checks),
                     checks.count(False),
                     {"auroc": report["auroc"], "f1": report["f1"],
                      "host_windows": len(scored)})


def features_format_times(ctx: dict, repeats: int = 3) -> dict:
    """Median write and read time of the chain's training features as CSV and as binary."""
    meta, rows = fileio.read_features(ctx["out"] / "features-train.csv")
    out = {}
    for ext in ("csv", "bin"):
        path = ctx["out"] / f"format-check.{ext}"
        writes, reads = [], []
        for _ in range(repeats):
            t = perf_counter()
            fileio.write_features(path, meta, rows)
            writes.append(perf_counter() - t)
            t = perf_counter()
            _, back = fileio.read_features(path)
            reads.append(perf_counter() - t)
        if len(back) != len(rows):
            raise RuntimeError(f"{ext} features round trip lost rows")
        out[f"fileio.features_write_s.{ext}"] = float(np.median(writes))
        out[f"fileio.features_read_s.{ext}"] = float(np.median(reads))
    return out


# ------------------------------------------------------------------ train

def setup_train(seed: int, work: Path) -> dict:
    rows, _, _ = _featurize(generate_flows(_chain_train_config(seed)))
    seqs = build_sequences(non_malicious(rows), N_WINDOWS, L_MAX)
    return {"seqs": [s.vectors for s in seqs],
            "cfg": TrainConfig(seed=seed, **TRAIN_CONFIG)}


def train_job(ctx: dict, tracer: Tracer | None = None,
              sampler: Sampler | None = None) -> JobResult:
    starts: list[float] = []
    ends: list[float] = []
    probe_s = [0.0]
    beta_schedule = botdet.models.beta_schedule
    adam_step = botdet.optim.Adam.step

    counts = tracer.counts if tracer is not None else {"tensors": 0}
    update_tensors = []

    def marked_beta(*args, **kwargs):
        probe_s[0] += _sample(sampler)
        update_tensors.append(counts["tensors"])
        starts.append(perf_counter())
        return beta_schedule(*args, **kwargs)

    def marked_step(opt):
        adam_step(opt)
        ends.append(perf_counter())
        update_tensors[-1] = counts["tensors"] - update_tensors[-1]

    botdet.models.beta_schedule = marked_beta
    botdet.optim.Adam.step = marked_step
    start = perf_counter()
    try:
        with _span(tracer, "train:fit_rvae"):
            _, log = fit_rvae(ctx["seqs"], len(FEATURE_NAMES), ctx["cfg"])
    except NumericError:
        return JobResult(start, perf_counter(), probe_s[0], [],
                         TRAIN_UPDATES + 1, TRAIN_UPDATES + 1)
    finally:
        botdet.optim.Adam.step = adam_step
        botdet.models.beta_schedule = beta_schedule
    end = perf_counter()
    if tracer is not None:
        tracer.counts["train.tensors"] += sum(update_tensors)
        tracer.counts["train.updates"] += log.n_updates
    losses = [e["loss"] for e in log.epochs]
    failed = sum(not math.isfinite(v) for v in losses)
    failed += log.n_updates != TRAIN_UPDATES
    return JobResult(start, end, probe_s[0], list(zip(starts, ends)),
                     log.n_updates + 1, failed, {"loss_final": losses[-1]})


# ----------------------------------------------------------------- stream

def setup_stream(seed: int, work: Path) -> dict:
    model, meta, rows = _reference_model(seed, generate_flows(_chain_train_config(seed)))
    det = pipeline.fit_detector_from_training(pipeline.score_split(model, meta, rows))
    capture = work / "stream.binetflow"
    work.mkdir(parents=True, exist_ok=True)
    write_scenario(capture, SynthConfig(seed=seed + 2000, profile="test",
                                        n_windows=STREAM_WINDOWS, **STREAM_HOSTS))
    return {"model": model, "meta": meta, "det": det, "capture": capture}


def stream_reference(ctx: dict) -> dict:
    """Criterion 6 reference: the batch path's verdicts over the stream capture."""
    model = ctx["model"]
    flows, _ = botdet.ingest.read_dataset([ctx["capture"]])
    ref_rows, _, _ = _featurize(list(flows), model.normalizer)
    ref = pipeline.classify_scores(
        pipeline.score_split(model, ctx["meta"], ref_rows), ctx["det"])
    return {"reference": {(d["src_addr"], d["window_index"]): d["verdict"]
                          for d in ref}}


def stream_job(ctx: dict, tracer: Tracer | None = None,
               sampler: Sampler | None = None) -> JobResult:
    clock = [0.0, 0, 0.0]  # time of the latest pull, flows pulled, sampling time

    def source():
        for flow in botdet.ingest.iter_flows(ctx["capture"]):
            if clock[1] % SAMPLE_EVERY_FLOWS == 0:
                # Before the pull is stamped, so no close latency includes it.
                clock[2] += _sample(sampler)
            clock[0] = perf_counter()
            clock[1] += 1
            yield flow
        clock[0] = perf_counter()  # end of input closes the last window

    flows = source() if tracer is None else source_wait_iter(source(), tracer)
    verdicts: dict = {}
    closes: list[tuple[float, float]] = []
    window = close_pull = last = None
    start = perf_counter()
    with _span(tracer, "streaming:run_stream"):
        decisions, stats = run_stream(ctx["model"], ctx["det"], flows)
        for d in decisions:
            now = perf_counter()
            if d["window_index"] != window:
                if window is not None:
                    closes.append((close_pull, last))
                window, close_pull = d["window_index"], clock[0]
            last = now
            verdicts[(d["src_addr"], d["window_index"])] = d["verdict"]
    if window is not None:
        closes.append((close_pull, last))
    end = last if last is not None else perf_counter()

    ref = ctx["reference"]
    bad_windows = {k[1] for k in ref.keys() ^ verdicts.keys()}
    bad_windows |= {k[1] for k in ref.keys() & verdicts.keys() if ref[k] != verdicts[k]}
    failed = len(bad_windows) + (stats.decisions != len(verdicts))
    failed += stats.late_dropped != 0
    result = JobResult(start, end, clock[2], closes, stats.windows_closed + 2, failed)
    result.details = {"flows": clock[1], "flows_per_s": clock[1] / result.job_s,
                      "windows_closed": stats.windows_closed,
                      "decisions": stats.decisions,
                      "late_dropped": stats.late_dropped}
    return result


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], dict]
    job: Callable[..., JobResult]
    min_steps: int  # steps timed per run at least
    tail_steps: int  # samples the tail percentile is chosen for
    # Builds what the output checks compare against, once per run and
    # outside the timed set-up; its result is merged into the context.
    checks: Callable[[dict], dict] | None = None


# The tail percentile is chosen for every step of a run, but for the 40
# distinct windows of one stream pass.
WORKLOADS = {
    "chain": Workload(setup_chain, chain_job, 3, 3),
    "train": Workload(setup_train, train_job, 6 * TRAIN_UPDATES, 6 * TRAIN_UPDATES),
    "stream": Workload(setup_stream, stream_job, 3 * STREAM_WINDOWS, STREAM_WINDOWS,
                       stream_reference),
}
