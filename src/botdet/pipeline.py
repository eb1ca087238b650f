"""Batch pipeline stages: scenario manifests to features, models, verdicts, metrics.

Each stage is a pure-ish function over in-memory objects; file handling
lives in fileio and the command wiring in cli. The stage boundaries match
the artifact formats, so any stage can be re-entered from disk.
"""
from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .detector import DetectorModel, classify, fit_detector
from .errors import DataError, UsageError
from .features import (
    FEATURE_NAMES,
    FeatureRow,
    Normalizer,
    aggregate_flows,
    build_sequences,
    non_malicious,
    rows_from_aggregates,
)
from .fileio import FeaturesMeta
from .ingest import FlowTable, GroundTruth, IngestStats, read_dataset
from .metrics import MetricsReport, kfold_split, make_report, pr_auc
from .scoring import ScoredWindow, score_rows
from .train import ARCH_MLP, ARCH_RVAE, TrainConfig, TrainedModel, fit_mlp, fit_rvae

log = logging.getLogger(__name__)


# --------------------------------------------------------------- manifests

def load_manifest(path: str | Path) -> dict[str, Path]:
    """Scenario id -> capture path, resolved relative to the manifest file."""
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"{p}: cannot read manifest: {exc}") from exc
    scenarios = payload.get("scenarios") if isinstance(payload, dict) else None
    if not isinstance(scenarios, dict) or not scenarios:
        raise DataError(f"{p}: manifest needs a non-empty 'scenarios' object")
    return {str(k): p.parent / str(v) for k, v in scenarios.items()}


def resolve_scenarios(manifest: dict[str, Path],
                      ids: Sequence[str]) -> list[Path]:
    unknown = [s for s in ids if s not in manifest]
    if unknown:
        raise UsageError(
            f"unknown scenario ids {unknown}; manifest has {sorted(manifest)}")
    paths = [manifest[s] for s in ids]
    missing = [str(q) for q in paths if not q.exists()]
    if missing:
        raise DataError(f"scenario files missing: {missing}")
    return paths


# -------------------------------------------------------------- preprocess

@dataclass
class SplitFeatures:
    """One split's normalized host-window rows, parse accounting and window origin."""

    rows: list[FeatureRow]
    stats: IngestStats
    t0: float


@dataclass
class PreprocessResult:
    meta: FeaturesMeta
    train: SplitFeatures
    test: SplitFeatures


def _read_split(paths: Sequence[Path], strict: bool) -> tuple[FlowTable, IngestStats]:
    flows, stats = read_dataset(paths, strict=strict)
    if not flows:
        raise DataError(f"no parseable flows in {[str(p) for p in paths]}")
    return flows, stats


def _aggregate_split(flows: FlowTable, stats: IngestStats, window_seconds: float):
    """A split's raw rows, stats and window origin: windows count from its first flow."""
    t0 = float(flows.columns["start_time"][0])
    return aggregate_flows(flows, t0, window_seconds), stats, t0


def _split_paths(manifest_path: str | Path, train_ids: Sequence[str],
                 test_ids: Sequence[str]) -> tuple[list[Path], list[Path]]:
    """Each split's captures: each id is listed once, in one split, and names its own file."""
    ids = [*train_ids, *test_ids]
    repeated = sorted({s for s in ids if ids.count(s) > 1})
    if repeated:
        raise UsageError(f"scenario ids must be disjoint and listed once; repeated: {repeated}")
    if not train_ids or not test_ids:
        raise UsageError("need at least one train and one test scenario id")
    manifest = load_manifest(manifest_path)
    train, test = resolve_scenarios(manifest, train_ids), resolve_scenarios(manifest, test_ids)
    distinct_captures("scenarios", ids, (*train, *test))
    return train, test


def distinct_captures(what: str, names: Sequence[str], paths: Sequence[str | Path]) -> None:
    """Refuse one capture (``os.stat`` device and inode) under two of ``names``, naming both."""
    first = {}  # (device, inode) -> the position of its first name
    for i, (name, path) in enumerate(zip(names, paths)):
        try:
            st = os.stat(path)
        except OSError as exc:
            raise DataError(f"cannot open {path}: {exc}") from exc
        j = first.setdefault((st.st_dev, st.st_ino), i)
        if j != i:
            raise DataError(f"{what} {names[j]!r} and {name!r} name one capture, {path}")


def _normalized(train, test, *, window_seconds: float, n_windows: int, l_max: int,
                log1p: bool) -> PreprocessResult:
    """Both splits' rows scaled by a normalizer fitted on the training split's."""
    (train_aggs, train_stats, t0_train), (test_aggs, test_stats, t0_test) = train, test
    raw = np.array([a.values for a in train_aggs], dtype=np.float64)
    flags = np.ones(len(FEATURE_NAMES), dtype=bool) if log1p else None
    norm = Normalizer.fit(raw, log1p=flags)
    meta = FeaturesMeta(feature_names=FEATURE_NAMES, normalizer=norm,
                        window_seconds=float(window_seconds),
                        n_windows=int(n_windows), l_max=int(l_max),
                        t0=t0_train)
    return PreprocessResult(
        meta=meta,
        train=SplitFeatures(rows_from_aggregates(train_aggs, norm), train_stats, t0_train),
        test=SplitFeatures(rows_from_aggregates(test_aggs, norm), test_stats, t0_test),
    )


def preprocess(manifest_path: str | Path, train_ids: Sequence[str],
               test_ids: Sequence[str], *, window_seconds: float = 60.0,
               n_windows: int = 3, l_max: int = 128, log1p: bool = False,
               strict: bool = False) -> PreprocessResult:
    """Aggregate both splits and normalize with training-split statistics.

    Window clocks start at each split's own first flow, so window_index 0
    is the first populated window on either side. Min/max (and the
    optional log1p pre-transform, applied to every feature when enabled;
    all are non-negative counts) are fitted on the training aggregates
    only and reused verbatim for the test split. Each split is read into
    a FlowTable and aggregated before the next is read.
    """
    train_paths, test_paths = _split_paths(manifest_path, train_ids, test_ids)
    train = _aggregate_split(*_read_split(train_paths, strict), window_seconds)
    test = _aggregate_split(*_read_split(test_paths, strict), window_seconds)
    return _normalized(train, test, window_seconds=window_seconds, n_windows=n_windows,
                       l_max=l_max, log1p=log1p)


# ------------------------------------------------------------------ train

def train_model(meta: FeaturesMeta, rows: Sequence[FeatureRow],
                cfg: TrainConfig, arch: str = ARCH_RVAE) -> TrainedModel:
    """Fit the chosen architecture on the split's non-malicious rows."""
    clean = non_malicious(rows)
    if not clean:
        raise DataError("training split has no non-malicious rows")
    if arch == ARCH_RVAE:
        seqs = build_sequences(clean, meta.n_windows, meta.l_max)
        params, tlog = fit_rvae([s.vectors for s in seqs],
                                len(meta.feature_names), cfg)
    elif arch == ARCH_MLP:
        vectors = np.array([r.values for r in clean], dtype=np.float64)
        params, tlog = fit_mlp(vectors, cfg)
    else:
        raise UsageError(f"unknown arch {arch!r} (expected rvae or mlp)")
    return TrainedModel(arch=arch, params=params,
                        feature_names=meta.feature_names,
                        normalizer=meta.normalizer,
                        window_seconds=meta.window_seconds,
                        n_windows=meta.n_windows, l_max=meta.l_max,
                        seed=cfg.seed, train_summary=tlog.summary())


def train_model_kfold(meta: FeaturesMeta, rows: Sequence[FeatureRow],
                      cfg: TrainConfig, arch: str = ARCH_RVAE,
                      k: int = 5) -> tuple[TrainedModel, list[dict]]:
    """Time-blocked k-fold model selection over N-window spans.

    The cross-validation unit is a span of n_windows consecutive windows
    (the sequence-building unit), so a validation span never shares a
    sequence with its training side. Each fold trains on the non-malicious
    rows of its training spans and is ranked by AUPRC of its raw scores on
    the held-out spans' mixed rows; the best fold's model is retrained on
    nothing (kept as-is) and returned. Folds whose validation side has a
    single class are skipped.
    """
    spans = sorted({r.window_index // meta.n_windows for r in rows})
    if len(spans) < k:
        raise DataError(f"kfold: only {len(spans)} spans for k={k}")
    folds = kfold_split(spans, k=k, seed=cfg.seed)
    reports: list[dict] = []
    best: tuple[float, int, TrainedModel] | None = None
    for fold_idx, (tr_idx, va_idx) in enumerate(folds):
        tr_spans = {spans[i] for i in tr_idx}
        va_spans = {spans[i] for i in va_idx}
        tr_rows = [r for r in rows if r.window_index // meta.n_windows in tr_spans]
        va_rows = [r for r in rows if r.window_index // meta.n_windows in va_spans]
        labels = [1 if r.label is GroundTruth.BOTNET else 0 for r in va_rows]
        if len(set(labels)) < 2:
            log.warning("kfold fold %d skipped: single-class validation span",
                        fold_idx)
            reports.append({"fold": fold_idx, "auprc": None, "skipped": True})
            continue
        model = train_model(meta, tr_rows, cfg, arch)
        scored = score_rows(model, va_rows)
        auprc = pr_auc([s.score for s in scored], labels)
        reports.append({"fold": fold_idx, "auprc": auprc, "skipped": False,
                        "n_train_rows": len(tr_rows), "n_val_rows": len(va_rows)})
        if best is None or auprc > best[0]:
            best = (auprc, fold_idx, model)
    if best is None:
        raise DataError("kfold: every fold had a single-class validation side")
    reports.append({"selected_fold": best[1], "selected_auprc": best[0]})
    return best[2], reports


# ------------------------------------------------------------------ score

def score_split(model: TrainedModel, meta: FeaturesMeta,
                rows: Sequence[FeatureRow]) -> list[ScoredWindow]:
    """Score rows whose features come from the preprocess run the model was trained on.

    Feature names, window config and normalizer must equal the model's: the
    stream, which uses the model's normalizer, could not reproduce other scores.
    """
    differ = [k for k in ("feature_names", "window_seconds", "n_windows", "l_max")
              if getattr(meta, k) != getattr(model, k)]
    differ += [f"normalizer {k}" for k in ("vmin", "vmax", "log1p")
               if not np.array_equal(getattr(meta.normalizer, k), getattr(model.normalizer, k))]
    if differ:
        raise DataError("feature layout mismatch between features file and model: "
                        f"{', '.join(differ)} differ (another preprocess run?)")
    return score_rows(model, rows)


# ----------------------------------------------------------------- fitpdf

def fit_detector_from_training(scored: Sequence[ScoredWindow], *,
                               min_samples: int = 100, bins: int = 200,
                               tie_rule: str = "malicious") -> DetectorModel:
    """Best-fit PDFs from a scored TRAINING split, split by ground truth.

    Botnet-labeled host-windows feed pdf_botnet, everything else feeds
    pdf_normal; both populations come from the same trained model run on
    the training scenarios.
    """
    normal = np.array([s.score for s in scored
                       if s.label is not GroundTruth.BOTNET])
    botnet = np.array([s.score for s in scored
                       if s.label is GroundTruth.BOTNET])
    if botnet.size == 0:
        raise DataError("fitpdf: training scores contain no botnet-labeled rows")
    return fit_detector(normal, botnet, min_samples=min_samples, bins=bins,
                        tie_rule=tie_rule)


# ----------------------------------------------------------------- detect

def classify_scores(scored: Sequence[ScoredWindow],
                    det: DetectorModel) -> list[dict]:
    """One decision record per scored host-window, ordered by (window, host)."""
    return classify(sorted(scored, key=lambda s: (s.window_index, s.src_addr)), det)


# --------------------------------------------------------------- evaluate

def evaluate_decisions(scored: Sequence[ScoredWindow], decisions: Sequence[dict],
                       config: dict | None = None,
                       exclude_background: bool = False) -> MetricsReport:
    """Join scores and decisions on (src_addr, window_index) and report.

    The evaluation unit is the host-window. Every decision needs a score,
    and every score that is kept a decision. Background-labeled rows count
    as non-malicious ground truth unless excluded outright.
    """
    by_key = {(d["src_addr"], d["window_index"]): d for d in decisions}
    keys = {(s.src_addr, s.window_index) for s in scored}
    unscored = next((k for k in by_key if k not in keys), None)
    if unscored is not None:
        raise DataError(f"no score for the decision on host-window {unscored}")
    scores, labels, picks = [], [], []
    for s in scored:
        if exclude_background and s.label is GroundTruth.BACKGROUND:
            continue
        d = by_key.get((s.src_addr, s.window_index))
        if d is None:
            raise DataError(
                f"no decision for host-window ({s.src_addr}, {s.window_index})")
        scores.append(s.score)
        labels.append(1 if s.label is GroundTruth.BOTNET else 0)
        picks.append(1 if d["verdict"] == "Malicious" else 0)
    if not scores:
        raise DataError("evaluate: no host-windows left after filtering")
    return make_report(scores, labels, picks, config=config)


# ------------------------------------------------------------------ sweep

def score_histogram_rows(scored: Sequence[ScoredWindow],
                         bins: int = 200) -> list[dict]:
    """Shared-bin density rows for normal vs botnet score histograms."""
    normal = np.array([s.score for s in scored
                       if s.label is not GroundTruth.BOTNET])
    botnet = np.array([s.score for s in scored
                       if s.label is GroundTruth.BOTNET])
    all_scores = np.array([s.score for s in scored])
    if all_scores.size == 0:
        raise DataError("histogram: no scores")
    edges = np.histogram_bin_edges(all_scores, bins=bins)
    dens_n, _ = np.histogram(normal, bins=edges, density=normal.size > 0)
    dens_b, _ = np.histogram(botnet, bins=edges, density=botnet.size > 0)
    return [{"bin_left": edges[i], "bin_right": edges[i + 1],
             "density_normal": float(dens_n[i]), "density_botnet": float(dens_b[i])}
            for i in range(len(edges) - 1)]


def write_histogram_csv(path: str | Path, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "density_normal", "density_botnet"])
        for r in rows:
            w.writerow([repr(float(r["bin_left"])), repr(float(r["bin_right"])),
                        repr(float(r["density_normal"])),
                        repr(float(r["density_botnet"]))])


@dataclass
class SweepResult:
    duration: float
    model: TrainedModel
    detector: DetectorModel
    report: MetricsReport
    histogram: list[dict]


def window_sweep(manifest_path: str | Path, train_ids: Sequence[str],
                 test_ids: Sequence[str], durations: Sequence[float],
                 cfg: TrainConfig, arch: str = ARCH_RVAE, *,
                 n_windows: int = 3, log1p: bool = False,
                 strict: bool = False, min_samples: int = 100,
                 bins: int = 200, tie_rule: str = "malicious",
                 exclude_background: bool = False) -> Iterator[SweepResult]:
    """Run the full chain once per window duration, all else held fixed.

    Each split's captures are read once, here, into a FlowTable that every
    duration re-aggregates; each duration's features equal those of a
    ``preprocess`` at that duration. A duration runs when the returned
    iterator reaches it, so a caller keeps each result before the next
    duration starts. Sequences hold at most ``cfg.l_max`` elements, in
    training and scoring.
    """
    if not durations:
        raise UsageError("sweep: need at least one window duration")
    splits = [_read_split(paths, strict)
              for paths in _split_paths(manifest_path, train_ids, test_ids)]

    def run(t: float) -> SweepResult:
        pre = _normalized(*(_aggregate_split(flows, stats, t) for flows, stats in splits),
                          window_seconds=t, n_windows=n_windows, l_max=cfg.l_max,
                          log1p=log1p)
        model = train_model(pre.meta, pre.train.rows, cfg, arch)
        train_scored = score_split(model, pre.meta, pre.train.rows)
        det = fit_detector_from_training(train_scored, min_samples=min_samples,
                                         bins=bins, tie_rule=tie_rule)
        test_scored = score_split(model, pre.meta, pre.test.rows)
        decisions = classify_scores(test_scored, det)
        report = evaluate_decisions(
            test_scored, decisions, config={"T": t, "N": n_windows, "arch": arch},
            exclude_background=exclude_background)
        log.info("sweep T=%gs: auroc=%.4f f1=%.4f", t, report.auroc, report.f1)
        return SweepResult(duration=t, model=model, detector=det, report=report,
                           histogram=score_histogram_rows(test_scored, bins=bins))

    return map(run, map(float, durations))
