"""Reconstruction-error anomaly scores for host-window records.

The score of an element is the Bernoulli cross-entropy between its
feature vector and the model's reconstruction, summed over features;
higher means more anomalous. Scoring is deterministic: the latent is the
posterior mean (no sampling) and decoding is teacher-forced. The GRU
pass that training tapes runs here on the parameters' plain arrays
(``models.plain``): no Tensor is created, and the numbers are those of
the taped forward, bit for bit.

Sequences of any length are scored together, up to ``STACK_MAX`` at a
time, as one ragged (L, K, 1, F) stack: longest first, zero-padded to the
longest, and each item runs only the steps of its own length. Each is
still a batch of one whose state never mixes with another's. Every
product is stacked, (..., 1, n) @ (n, H), and numpy runs one kernel call
per leading index, so each sequence gets the bits it gets scored alone,
whichever prefix of the stack runs at a step (``tests/test_models.py``
pins this). A score does not depend on its stack-mates, so the batch path
(stacks over a split) and the stream (one stack per closing window of up
to ``STACK_MAX`` chunks) give bit-identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence as Seq

import numpy as np

from . import models
from .errors import DataError
from .features import FeatureRow, Sequence, trailing_sequences
from .ingest import GroundTruth
from .models import BCE_EPS
from .train import ARCH_MLP, ARCH_RVAE, TrainedModel


@dataclass(frozen=True, slots=True)
class ScoredWindow:
    src_addr: str
    window_index: int
    first_seen: float
    label: GroundTruth
    score: float


def anomaly_score(target: np.ndarray, recon: np.ndarray):
    """BCE with clamped probabilities, summed over the last (feature) axis.

    One score for a feature vector, one per row for an (L, F) matrix; 0
    only at exact binary hits.
    """
    y = np.asarray(target, dtype=np.float64)
    if y.min() < 0.0 or y.max() > 1.0:
        raise ValueError("anomaly_score: targets must lie in [0, 1]")
    p = np.clip(np.asarray(recon, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    return -np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p), axis=-1)


STACK_MAX = 16  # sequences per ragged stack; bounds each pass's (L, D, K, 1, H) state arrays


def score_elements(arch: str, params, vectors: np.ndarray,
                   lengths: np.ndarray | None = None) -> np.ndarray:
    """Per-element scores of one (L, F) sequence, or (K, L) for a (K, L, F) stack.

    A stack is ragged when ``lengths`` gives its items' non-increasing
    lengths (``models.pad_batch``; None: all are L): each item is
    zero-padded to L and runs to its own length, by the rule training's
    padded batches follow (``models.gru_pass``), and its padded scores mean
    nothing.
    """
    if arch == ARCH_RVAE:
        recons = models.rvae_forward(models.plain(params), vectors[..., None, :, :], lengths)[0]
        recon = np.moveaxis(recons[..., 0, :], 0, -2)
    elif arch == ARCH_MLP and lengths is None:
        recon = models.mlp_forward(models.plain(params), vectors)[0]
    elif arch == ARCH_MLP:  # an item's rows share one GEMM, whose bits depend on its row count
        bare, recon = models.plain(params), np.zeros(vectors.shape)
        for item, rows, n in zip(recon, vectors, lengths):
            item[:n] = models.mlp_forward(bare, rows[:n])[0]
    else:
        raise DataError(f"unknown architecture {arch!r}")
    return anomaly_score(vectors, recon)


def score_sequences(arch: str, params,
                    sequences: Iterable[Sequence]) -> list[ScoredWindow]:
    """One ScoredWindow per element in its sequence's target window, in input order.

    The sequences are trailing context (``trailing_sequences``), so each
    host-window is scored exactly once. They are sorted by length, longest
    first (stable), and that order is scored in stacks of at most
    ``STACK_MAX`` (``models.pad_batch``), each sequence to its own length
    (``score_elements``).
    """
    sequences = list(sequences)
    order = sorted(range(len(sequences)), key=lambda i: len(sequences[i]), reverse=True)
    scores: dict[int, np.ndarray] = {}
    for lo in range(0, len(order), STACK_MAX):
        stack = order[lo:lo + STACK_MAX]
        vectors, lengths = models.pad_batch([sequences[i].vectors for i in stack])
        scores.update(zip(stack, score_elements(arch, params, vectors, lengths)))
    out: list[ScoredWindow] = []
    for i, seq in enumerate(sequences):
        for r, score in zip(seq.rows, scores[i]):
            if r.window_index == seq.target_window:
                out.append(ScoredWindow(r.src_addr, r.window_index, r.first_seen,
                                        r.label, float(score)))
    return out


def score_rows(model: TrainedModel, rows: Seq[FeatureRow]) -> list[ScoredWindow]:
    """Deployment-order scoring of host-window rows in the model's feature layout.

    Rows are scored inside the trailing N-window context ending at their
    own window, matching what the streaming path sees when the window
    closes. The caller vouches for the layout: ``pipeline.score_split``
    checks a features file's against the model's.
    """
    seqs = trailing_sequences(rows, model.n_windows, model.l_max)
    return score_sequences(model.arch, model.params, seqs)
