"""Seeded minibatch training for both autoencoder architectures.

Sequences are shuffled each epoch, padded per batch, and stepped with
Adam under KL annealing and global-norm gradient clipping. Everything
random flows from one seeded generator (init, shuffles, latent draws),
so a fixed config reproduces the loss trajectory bit for bit on one
thread. A non-finite loss or gradient aborts training with a
NumericError that names the epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from . import models
from .autodiff import backward, zero_grads
from .errors import NumericError
from .features import Normalizer
from .models import MlpVaeParams, RvaeParams
from .optim import Adam, clip_global_norm

ARCH_RVAE = "rvae"
ARCH_MLP = "mlp"


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 128
    lr: float = 0.01
    anneal_steps: int = 500
    beta_max: float = 1.0
    seed: int = 0
    grad_clip: float = 5.0
    hidden: int = 64
    latent: int = 16
    l_max: int = 128
    mlp_hidden: tuple[int, ...] = (512, 512, 1024)


@dataclass
class TrainLog:
    """Per-epoch means of the objective, plus the pre-clip global gradient norm.

    ``grad_norm_mean`` and ``grad_norm_max`` summarize the norms
    ``clip_global_norm`` saw over the epoch's updates, and ``clipped``
    counts the updates it scaled down.
    """

    epochs: list[dict] = field(default_factory=list)
    n_updates: int = 0

    def record(self, epoch: int, loss: float, bce: float, kl: float, beta: float,
               grad_norms: list[float], grad_clip: float) -> None:
        self.epochs.append({"epoch": epoch, "loss": loss, "bce": bce,
                            "kl": kl, "beta": beta,
                            "grad_norm_mean": sum(grad_norms) / len(grad_norms),
                            "grad_norm_max": max(grad_norms),
                            "clipped": sum(n > grad_clip for n in grad_norms)})

    def summary(self) -> dict:
        last = self.epochs[-1] if self.epochs else {}
        return {
            "epochs": len(self.epochs),
            "updates": self.n_updates,
            "final_loss": last.get("loss"),
            "final_bce": last.get("bce"),
            "final_kl": last.get("kl"),
            "final_grad_norm_mean": last.get("grad_norm_mean"),
            "final_grad_norm_max": last.get("grad_norm_max"),
            "final_clipped": last.get("clipped"),
        }


@dataclass
class TrainedModel:
    """A trained scorer plus everything needed to reproduce its inputs."""

    arch: str
    params: RvaeParams | MlpVaeParams
    feature_names: tuple[str, ...]
    normalizer: Normalizer
    window_seconds: float
    n_windows: int
    l_max: int
    seed: int
    train_summary: dict


def fit_rvae(sequences: Sequence[np.ndarray], f_dim: int,
             cfg: TrainConfig) -> tuple[RvaeParams, TrainLog]:
    """Train the recurrent VAE on (L, F) arrays of non-malicious vectors."""
    if not sequences:
        raise ValueError("fit_rvae: no training sequences")
    rng = np.random.default_rng(cfg.seed)
    params = RvaeParams.init(rng, f_dim, cfg.hidden, cfg.latent)
    return _fit(list(sequences), params, partial(models.rvae_forward, params), cfg, rng)


def fit_mlp(vectors: np.ndarray, cfg: TrainConfig) -> tuple[MlpVaeParams, TrainLog]:
    """Train the per-vector VAE on an (n, F) matrix of non-malicious vectors."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("fit_mlp: need a non-empty (n, F) matrix")
    rng = np.random.default_rng(cfg.seed)
    params = MlpVaeParams.init(rng, vectors.shape[1], hidden=cfg.mlp_hidden,
                               latent=cfg.latent)
    items = [v[None, :] for v in vectors]  # length-1 sequences

    def forward(batch, lengths, eps):
        recon, mu, lv = models.mlp_forward(params, batch[:, 0, :], eps=eps)
        return recon[None], mu, lv

    return _fit(items, params, forward, cfg, rng)


def _fit(items: list[np.ndarray], params, forward, cfg: TrainConfig,
         rng: np.random.Generator):
    """Minibatch loop; ``forward`` maps a ``pad_batch`` batch and lengths to (recons, mu, logvar)."""
    plist = params.parameters()
    opt = Adam(plist, lr=cfg.lr)
    log = TrainLog()
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        sum_loss = sum_bce = sum_kl = 0.0
        n_batches = 0
        grad_norms = []
        beta = 0.0
        for lo in range(0, len(items), cfg.batch_size):
            chosen = [items[i] for i in order[lo:lo + cfg.batch_size]]
            batch, lengths = models.pad_batch(chosen)
            eps = rng.standard_normal((batch.shape[0], cfg.latent))
            beta = models.beta_schedule(step, cfg.anneal_steps, cfg.beta_max)
            try:
                recons, mu, lv = forward(batch, lengths, eps)
                total, bce_mean, kl_mean = models.vae_loss(
                    batch, recons, mu, lv, beta=beta, lengths=lengths)
                loss_val = total.item()
                if not math.isfinite(loss_val):
                    raise NumericError(f"non-finite loss {loss_val} at update {step}")
                zero_grads(plist)
                backward(total)
                grad_norms.append(clip_global_norm(plist, cfg.grad_clip))
                opt.step()
            except NumericError as exc:
                raise NumericError(f"training aborted at epoch {epoch}: {exc}") from exc
            step += 1
            n_batches += 1
            sum_loss += loss_val
            sum_bce += bce_mean
            sum_kl += kl_mean
        log.record(epoch, sum_loss / n_batches, sum_bce / n_batches,
                   sum_kl / n_batches, beta, grad_norms, cfg.grad_clip)
        log.n_updates = step
    return params, log
