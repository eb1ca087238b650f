"""Evaluation metrics and fold splitting.

AUROC is computed from integer pair counts (2 per correctly ranked
positive/negative pair, 1 per tied pair) with a single final division,
so it agrees bit-for-bit with a brute-force pairwise count. AUPRC is
average precision over descending score thresholds with equal scores
grouped. Precision/recall/F1 apply on hard decisions, with zero
denominators mapping to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional")
    uniq = np.unique(arr)
    if not np.all(np.isin(uniq, (0, 1))):
        raise DataError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64)


def _score_groups(scores, labels) -> list[tuple[int, int]]:
    """(positives, negatives) per unique score, descending."""
    s = np.asarray(scores, dtype=np.float64)
    y = _as_binary(labels, "labels")
    if s.shape != y.shape:
        raise DataError(f"scores and labels differ in length: {s.shape} vs {y.shape}")
    if s.size == 0:
        raise DataError("empty score list")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite values")
    order = np.argsort(-s, kind="mergesort")
    s, y = s[order], y[order]
    starts = np.flatnonzero(np.diff(s, prepend=np.nan) != 0)
    pos = np.add.reduceat(y, starts)
    size = np.diff(starts, append=s.size)
    return list(zip(pos.tolist(), (size - pos).tolist()))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve, with half credit for tied scores."""
    groups = _score_groups(scores, labels)
    p = sum(g[0] for g in groups)
    n = sum(g[1] for g in groups)
    if p == 0 or n == 0:
        raise DataError("roc_auc needs both classes present")
    num = 0  # 2 per correctly ranked (pos, neg) pair, 1 per tie
    tp = 0
    for dtp, dfp in groups:
        num += dfp * (2 * tp + dtp)
        tp += dtp
    return num / (2 * p * n)


def pr_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Average precision over descending score thresholds."""
    groups = _score_groups(scores, labels)
    p = sum(g[0] for g in groups)
    if p == 0:
        raise DataError("pr_auc needs at least one positive")
    tp = fp = 0
    ap = 0.0
    for dtp, dfp in groups:
        tp += dtp
        fp += dfp
        if dtp:
            ap += (dtp / p) * (tp / (tp + fp))
    return ap


def confusion(decisions: Sequence[int], labels: Sequence[int]) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) counts from hard decisions."""
    d = _as_binary(decisions, "decisions")
    y = _as_binary(labels, "labels")
    if d.shape != y.shape:
        raise DataError(f"decisions and labels differ in length: {d.shape} vs {y.shape}")
    tp = int(np.sum((d == 1) & (y == 1)))
    fp = int(np.sum((d == 1) & (y == 0)))
    tn = int(np.sum((d == 0) & (y == 0)))
    fn = int(np.sum((d == 0) & (y == 1)))
    return tp, fp, tn, fn


def prf(decisions: Sequence[int], labels: Sequence[int]) -> tuple[float, float, float]:
    """(precision, recall, f1); zero denominators give 0."""
    tp, fp, _, fn = confusion(decisions, labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def kfold_split(items, k: int = 5, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded shuffle then contiguous fold slices over item indices.

    ``items`` may be a count or a sequence. Returns k (train, validation)
    index pairs; validation folds are disjoint, cover everything, and
    differ in size by at most one.
    """
    n = items if isinstance(items, int) else len(items)
    if k < 2:
        raise DataError(f"kfold_split needs k >= 2, got {k}")
    if n < k:
        raise DataError(f"kfold_split needs at least k={k} items, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        val = perm[start:start + size]
        train = np.concatenate([perm[:start], perm[start + size:]])
        folds.append((np.sort(train), np.sort(val)))
        start += size
    return folds


@dataclass(frozen=True)
class MetricsReport:
    recall: float
    precision: float
    f1: float
    auprc: float
    auroc: float
    tp: int
    fp: int
    tn: int
    fn: int
    config: dict = field(default_factory=dict)  # echo: T, N, arch, ...


def make_report(scores, labels, decisions, config: dict | None = None) -> MetricsReport:
    """Area metrics from raw scores plus P/R/F1 from hard decisions."""
    precision, recall, f1 = prf(decisions, labels)
    tp, fp, tn, fn = confusion(decisions, labels)
    return MetricsReport(
        recall=recall, precision=precision, f1=f1,
        auprc=pr_auc(scores, labels), auroc=roc_auc(scores, labels),
        tp=tp, fp=fp, tn=tn, fn=fn, config=dict(config or {}),
    )


_TABLE_COLUMNS = ("Recall", "Precision", "F1", "AUPRC", "AUROC")


def report_table(rows: Sequence[tuple[str, MetricsReport]]) -> str:
    """Aligned text table: one labeled row per report."""
    label_width = max([len("Run")] + [len(name) for name, _ in rows])
    header = "Run".ljust(label_width) + "".join(c.rjust(11) for c in _TABLE_COLUMNS)
    lines = [header]
    for name, rep in rows:
        vals = (rep.recall, rep.precision, rep.f1, rep.auprc, rep.auroc)
        lines.append(name.ljust(label_width) + "".join(f"{v:11.4f}" for v in vals))
    return "\n".join(lines)
