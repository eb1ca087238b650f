"""Metric correctness against brute-force oracles and closed forms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from botdet.errors import DataError
from botdet.metrics import (
    MetricsReport,
    _score_groups,
    confusion,
    kfold_split,
    make_report,
    pr_auc,
    prf,
    report_table,
    roc_auc,
)


def pairwise_auc(scores, labels) -> float:
    """O(n^2) ranking oracle: 2 per correct (pos, neg) pair, 1 per tie."""
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


def loop_score_groups(scores, labels) -> list[tuple[int, int]]:
    """Reference (positives, negatives) per unique score: a scan of sorted scores."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="mergesort")
    s, y = np.asarray(scores, dtype=np.float64)[order], np.asarray(labels)[order]
    groups, start = [], 0
    for i in range(1, s.size + 1):
        if i == s.size or s[i] != s[start]:
            pos = int(y[start:i].sum())
            groups.append((pos, i - start - pos))
            start = i
    return groups


@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.5, 2.0, -3.25, 1e300]),
                          st.integers(0, 1)), min_size=1, max_size=60))
def test_score_groups_match_loop_reference(pairs):
    scores, labels = [s for s, _ in pairs], [y for _, y in pairs]
    assert _score_groups(scores, labels) == loop_score_groups(scores, labels)


def test_roc_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.9, 0.8, 0.3, 0.1], [0, 0, 1, 1]) == 0.0


def test_roc_auc_known_value():
    assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == 0.75


def test_roc_auc_all_ties_is_half():
    assert roc_auc([2.0] * 6, [1, 0, 1, 0, 0, 1]) == 0.5


def test_roc_auc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        # coarse grid forces plenty of exact ties
        scores = rng.integers(0, max(2, n // 4), size=n) / 7.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = roc_auc(scores, labels)
        want = pairwise_auc(scores.tolist(), labels.tolist())
        assert got == want, f"trial {trial}: {got!r} != {want!r}"


def test_roc_auc_rejects_single_class_and_bad_input():
    with pytest.raises(DataError):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(DataError):
        roc_auc([0.1, 0.2], [0, 0])
    with pytest.raises(DataError):
        roc_auc([], [])
    with pytest.raises(DataError):
        roc_auc([0.1, 0.2], [0, 2])
    with pytest.raises(DataError):
        roc_auc([0.1, np.nan], [0, 1])
    with pytest.raises(DataError):
        roc_auc([0.1, 0.2, 0.3], [0, 1])


def test_pr_auc_perfect_and_known_values():
    assert pr_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
    assert pr_auc([0.9, 0.8], [0, 1]) == 0.5


def test_pr_auc_needs_a_positive():
    with pytest.raises(DataError):
        pr_auc([0.5, 0.4], [0, 0])
    # no negatives is fine: every threshold has precision 1
    assert pr_auc([0.5, 0.4], [1, 1]) == 1.0


def test_area_metrics_near_half_on_random_scores():
    rng = np.random.default_rng(1)
    n = 10_000
    scores = rng.random(n)
    labels = np.repeat([0, 1], n // 2)
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.05)
    assert pr_auc(scores, labels) == pytest.approx(0.5, abs=0.05)


def test_shift_invariance_of_area_metrics():
    rng = np.random.default_rng(2)
    scores = np.round(rng.random(300), 3)  # rounded so ties survive the shift
    labels = rng.integers(0, 2, size=300)
    labels[0], labels[1] = 0, 1
    assert roc_auc(scores + 10.0, labels) == roc_auc(scores, labels)
    assert pr_auc(scores + 10.0, labels) == pr_auc(scores, labels)


def test_prf_closed_forms():
    assert prf([1, 0, 1, 0], [1, 0, 1, 0]) == (1.0, 1.0, 1.0)
    p, r, f1 = prf([1, 1, 1, 1], [1, 1, 0, 0])
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2 / 3)
    assert prf([0, 0, 0], [1, 0, 1]) == (0.0, 0.0, 0.0)


def test_confusion_counts_partition_the_sample():
    rng = np.random.default_rng(3)
    d = rng.integers(0, 2, size=500)
    y = rng.integers(0, 2, size=500)
    tp, fp, tn, fn = confusion(d, y)
    assert tp + fp + tn + fn == 500
    assert tp == int(np.sum(d & y))
    assert fp == int(np.sum(d & (1 - y)))
    with pytest.raises(DataError):
        confusion([0, 1], [0, 1, 1])
    with pytest.raises(DataError):
        confusion([0, 3], [0, 1])


def test_kfold_even_split():
    folds = kfold_split(10, k=5, seed=0)
    assert len(folds) == 5
    for train, val in folds:
        assert len(val) == 2 and len(train) == 8


def test_kfold_partition_properties():
    folds = kfold_split(13, k=5, seed=7)
    sizes = sorted(len(v) for _, v in folds)
    assert sizes == [2, 2, 3, 3, 3]
    all_val = np.concatenate([v for _, v in folds])
    assert sorted(all_val.tolist()) == list(range(13))
    for train, val in folds:
        assert set(train.tolist()).isdisjoint(val.tolist())
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(13))


def test_kfold_deterministic_and_seed_sensitive():
    a = kfold_split(50, k=5, seed=11)
    b = kfold_split(50, k=5, seed=11)
    c = kfold_split(50, k=5, seed=12)
    for (ta, va), (tb, vb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)
    assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c))


def test_kfold_accepts_sequences_and_validates():
    folds = kfold_split(["a", "b", "c", "d", "e", "f"], k=3, seed=0)
    assert len(folds) == 3
    with pytest.raises(DataError):
        kfold_split(4, k=5)
    with pytest.raises(DataError):
        kfold_split(10, k=1)


def test_make_report_combines_scores_and_decisions():
    scores = [0.9, 0.8, 0.3, 0.1]
    labels = [1, 0, 1, 0]
    decisions = [1, 1, 0, 0]
    rep = make_report(scores, labels, decisions, config={"T": 60})
    assert rep.auroc == 0.75
    assert rep.precision == 0.5 and rep.recall == 0.5
    assert rep.tp == 1 and rep.fp == 1 and rep.tn == 1 and rep.fn == 1
    assert rep.config == {"T": 60}


def test_f1_matches_invariant_on_random_reports():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.integers(0, 2, size=60)
        y = rng.integers(0, 2, size=60)
        p, r, f1 = prf(d, y)
        want = 2 * p * r / (p + r) if p + r > 0 else 0.0
        assert f1 == pytest.approx(want, abs=1e-15)
        assert 0.0 <= f1 <= 1.0


def test_report_table_layout():
    rep = MetricsReport(recall=0.9, precision=0.8, f1=0.847, auprc=0.91,
                        auroc=0.95, tp=9, fp=2, tn=8, fn=1)
    text = report_table([("rvae-60s", rep), ("mlp-60s", rep)])
    lines = text.splitlines()
    assert lines[0].split() == ["Run", "Recall", "Precision", "F1", "AUPRC", "AUROC"]
    assert lines[1].startswith("rvae-60s")
    assert "0.9500" in lines[1]
    assert len(lines) == 3
