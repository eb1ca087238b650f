"""Sequence and per-vector variational autoencoders built on the tape engine.

The recurrent model reads a sequence of feature vectors through a 2-layer
bidirectional GRU encoder, projects the concatenated final forward and
backward states to a Gaussian latent (mean and log-variance heads), and
reconstructs the sequence with a 2-layer GRU decoder whose per-layer
initial state is a projection of the latent draw. Decoding is
teacher-forced: the input at step t is the true vector at t-1 and a zero
vector at t=1. Outputs pass through a sigmoid so reconstruction error is
a per-element Bernoulli cross-entropy against [0,1] targets.

The per-vector baseline is a plain MLP encoder/decoder with ReLU hidden
layers and the same latent heads and loss.

Inputs, masks and latent draws are plain arrays. The forward functions
build a tape when given the trainable parameters and none when given
``plain(params)``: scoring runs the same code on the same arrays. Passes
are time-major: a GRU pass projects its whole (L, ..., B, n) input once
and stacks its states, and the output head and the loss read all steps
at once. numpy runs a stacked product (..., m, n) @ (n, H) as one kernel
call per leading index, so every step and every stacked item keeps its
unstacked bits. A weight's gradient sums its steps in one product, so
training differs from a per-step tape by float reassociation only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BCE_EPS = 1e-7  # reconstruction probabilities are clamped to [eps, 1-eps]

ENCODER_LAYERS = 2
DECODER_LAYERS = 2


def _uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


@dataclass
class GruCellWeights:
    """Gate parameters of one GRU cell (reset r, update u, candidate h)."""

    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_u: Tensor
    u_u: Tensor
    b_u: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, n_in: int, n_hidden: int) -> "GruCellWeights":
        def mat(n, m):
            return _uniform(rng, (n, m), n)

        def vec():
            return _uniform(rng, (n_hidden,), n_hidden)

        return cls(
            w_r=mat(n_in, n_hidden), u_r=mat(n_hidden, n_hidden), b_r=vec(),
            w_u=mat(n_in, n_hidden), u_u=mat(n_hidden, n_hidden), b_u=vec(),
            w_h=mat(n_in, n_hidden), u_h=mat(n_hidden, n_hidden), b_h=vec(),
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": getattr(self, k)
                for k in ("w_r", "u_r", "b_r", "w_u", "u_u", "b_u", "w_h", "u_h", "b_h")}


def input_projections(x, w: GruCellWeights) -> tuple:
    """``(x @ w_r, x @ w_u, x @ w_h)``: what ``gru_cell`` reads of its input."""
    return x @ w.w_r, x @ w.w_u, x @ w.w_h


def gru_cell(xp: tuple, h_prev: Tensor, w: GruCellWeights) -> Tensor:
    """One GRU step: gated blend of the previous state and a tanh candidate.

    ``xp`` is the step's ``input_projections``; each gate adds them as
    ``(xW + hU) + b``.
    """
    xr, xu, xh = xp
    r = ad.sigmoid(xr + h_prev @ w.u_r + w.b_r)
    u = ad.sigmoid(xu + h_prev @ w.u_u + w.b_u)
    cand = ad.tanh(xh + (r * h_prev) @ w.u_h + w.b_h)
    return (1.0 - u) * cand + u * h_prev


def gru_pass(xs, w: GruCellWeights,
             mask: tuple[np.ndarray, np.ndarray] | None = None,
             h0: Tensor | None = None,
             reverse: bool = False):
    """Run a GRU over time-major inputs; returns the stacked states and the final one.

    ``xs`` is the (L, ..., B, n) input and the states are (L, ..., B, H).
    The three input projections are taken once, before the recurrence.

    ``mask`` is ``make_mask``'s (m, 1-m) pair of (L, B, 1) arrays for padded
    batches: a padded step keeps the previous state, so the final state
    equals the state at each sequence's true end regardless of padding.
    For the reverse direction the padded suffix is visited first and the
    state simply stays at h0 until real elements begin.
    """
    steps = xs.shape[0]
    h = np.zeros((*xs.shape[1:-1], w.u_r.shape[0])) if h0 is None else h0
    xr, xu, xh = input_projections(xs, w)
    states = [None] * steps
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        h_new = gru_cell((xr[t], xu[t], xh[t]), h, w)
        h = h_new if mask is None else mask[0][t] * h_new + mask[1][t] * h
        states[t] = h
    return ad.stack(states), h


def make_mask(lengths: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(m, 1-m) as (L, B, 1) arrays with m[t, b] = 1 iff t < lengths[b]; None if unpadded."""
    lengths = np.asarray(lengths)
    if np.all(lengths == steps):
        return None
    m = (np.arange(steps)[:, None, None] < lengths[None, :, None]).astype(np.float64)
    return m, 1.0 - m


@dataclass
class RvaeParams:
    """All learnable tensors of the recurrent VAE, in serialization order."""

    f_dim: int
    hidden: int
    latent: int
    enc_fwd: list[GruCellWeights]
    enc_bwd: list[GruCellWeights]
    w_mu: Tensor
    b_mu: Tensor
    w_logvar: Tensor
    b_logvar: Tensor
    zproj_w: list[Tensor]
    zproj_b: list[Tensor]
    dec: list[GruCellWeights]
    w_out: Tensor
    b_out: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, f_dim: int, hidden: int,
             latent: int) -> "RvaeParams":
        enc_fwd, enc_bwd = [], []
        n_in = f_dim
        for _ in range(ENCODER_LAYERS):
            enc_fwd.append(GruCellWeights.init(rng, n_in, hidden))
            enc_bwd.append(GruCellWeights.init(rng, n_in, hidden))
            n_in = 2 * hidden  # next layer reads both directions
        fused = 2 * hidden
        dec = []
        n_in = f_dim
        for _ in range(DECODER_LAYERS):
            dec.append(GruCellWeights.init(rng, n_in, hidden))
            n_in = hidden
        return cls(
            f_dim=f_dim, hidden=hidden, latent=latent,
            enc_fwd=enc_fwd, enc_bwd=enc_bwd,
            w_mu=_uniform(rng, (fused, latent), fused),
            b_mu=_uniform(rng, (latent,), fused),
            w_logvar=_uniform(rng, (fused, latent), fused),
            b_logvar=_uniform(rng, (latent,), fused),
            zproj_w=[_uniform(rng, (latent, hidden), latent) for _ in range(DECODER_LAYERS)],
            zproj_b=[_uniform(rng, (hidden,), latent) for _ in range(DECODER_LAYERS)],
            dec=dec,
            w_out=_uniform(rng, (hidden, f_dim), hidden),
            b_out=_uniform(rng, (f_dim,), hidden),
        )

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i in range(ENCODER_LAYERS):
            out.update(self.enc_fwd[i].named(f"enc.l{i}.fwd"))
            out.update(self.enc_bwd[i].named(f"enc.l{i}.bwd"))
        out["head.mu.w"] = self.w_mu
        out["head.mu.b"] = self.b_mu
        out["head.logvar.w"] = self.w_logvar
        out["head.logvar.b"] = self.b_logvar
        for i in range(DECODER_LAYERS):
            out[f"dec.zproj.l{i}.w"] = self.zproj_w[i]
            out[f"dec.zproj.l{i}.b"] = self.zproj_b[i]
        for i in range(DECODER_LAYERS):
            out.update(self.dec[i].named(f"dec.l{i}"))
        out["out.w"] = self.w_out
        out["out.b"] = self.b_out
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())


def encode(p: RvaeParams, seq, mask=None) -> tuple[Tensor, Tensor]:
    """Bidirectional pass over the time-major ``seq``; heads read the top layer's final states."""
    for layer in range(ENCODER_LAYERS):
        states_f, hf = gru_pass(seq, p.enc_fwd[layer], mask=mask)
        states_b, hb = gru_pass(seq, p.enc_bwd[layer], mask=mask, reverse=True)
        if layer + 1 < ENCODER_LAYERS:  # the top layer's states are not read
            seq = ad.concat([states_f, states_b], axis=-1)
    fused = ad.concat([hf, hb], axis=-1)
    mu = fused @ p.w_mu + p.b_mu
    logvar = fused @ p.w_logvar + p.b_logvar
    return mu, logvar


def reparameterize(mu: Tensor, logvar: Tensor, eps: np.ndarray | None) -> Tensor:
    """z = mu + sigma * eps with sigma = exp(logvar / 2); eps=None gives z = mu."""
    if eps is None:
        return mu
    return mu + ad.exp(logvar * 0.5) * eps


def decode(p: RvaeParams, z: Tensor, targets: np.ndarray) -> Tensor:
    """Teacher-forced (L, ..., B, F) reconstruction of ``targets`` (..., B, L, F)."""
    shifted = np.moveaxis(targets, -2, 0)
    seq = np.zeros(shifted.shape)
    seq[1:] = shifted[:-1]
    for layer in range(DECODER_LAYERS):
        h0 = z @ p.zproj_w[layer] + p.zproj_b[layer]
        seq, _ = gru_pass(seq, p.dec[layer], h0=h0)
    return ad.sigmoid(seq @ p.w_out + p.b_out)


def rvae_forward(p: RvaeParams, batch: np.ndarray,
                 lengths: np.ndarray | None = None,
                 eps: np.ndarray | None = None
                 ) -> tuple[Tensor, Tensor, Tensor]:
    """Full pass over a padded batch (..., B, L, F); returns (recons, mu, logvar).

    ``recons`` is the time-major (L, ..., B, F) reconstruction.
    """
    steps = batch.shape[-2]
    mask = None if lengths is None else make_mask(lengths, steps)
    mu, logvar = encode(p, np.moveaxis(batch, -2, 0), mask=mask)
    z = reparameterize(mu, logvar, eps)
    return decode(p, z, batch), mu, logvar


@dataclass
class MlpVaeParams:
    """Per-vector VAE: ReLU MLP encoder/decoder around the same latent heads."""

    f_dim: int
    hidden: tuple[int, ...]
    latent: int
    enc: list[tuple[Tensor, Tensor]]
    w_mu: Tensor
    b_mu: Tensor
    w_logvar: Tensor
    b_logvar: Tensor
    dec: list[tuple[Tensor, Tensor]]
    w_out: Tensor
    b_out: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, f_dim: int,
             hidden: tuple[int, ...] = (512, 512, 1024),
             latent: int = 100) -> "MlpVaeParams":
        def layer(n, m):
            return (_uniform(rng, (n, m), n), _uniform(rng, (m,), n))

        enc, n_in = [], f_dim
        for width in hidden:
            enc.append(layer(n_in, width))
            n_in = width
        top = n_in
        dec, n_in = [], latent
        for width in reversed(hidden):
            dec.append(layer(n_in, width))
            n_in = width
        w_out, b_out = layer(n_in, f_dim)
        w_mu, b_mu = layer(top, latent)
        w_lv, b_lv = layer(top, latent)
        return cls(f_dim=f_dim, hidden=tuple(hidden), latent=latent, enc=enc,
                   w_mu=w_mu, b_mu=b_mu, w_logvar=w_lv, b_logvar=b_lv,
                   dec=dec, w_out=w_out, b_out=b_out)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(self.enc):
            out[f"enc.l{i}.w"], out[f"enc.l{i}.b"] = w, b
        out["head.mu.w"], out["head.mu.b"] = self.w_mu, self.b_mu
        out["head.logvar.w"], out["head.logvar.b"] = self.w_logvar, self.b_logvar
        for i, (w, b) in enumerate(self.dec):
            out[f"dec.l{i}.w"], out[f"dec.l{i}.b"] = w, b
        out["out.w"], out["out.b"] = self.w_out, self.b_out
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())


def mlp_forward(p: MlpVaeParams, x: np.ndarray,
                eps: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    h = x
    for w, b in p.enc:
        h = ad.relu(h @ w + b)
    mu = h @ p.w_mu + p.b_mu
    logvar = h @ p.w_logvar + p.b_logvar
    z = reparameterize(mu, logvar, eps)
    d = z
    for w, b in p.dec:
        d = ad.relu(d @ w + b)
    recon = ad.sigmoid(d @ p.w_out + p.b_out)
    return recon, mu, logvar


def plain(params):
    """The same parameter record with every Tensor replaced by its (shared) array."""
    def strip(v):
        if isinstance(v, (list, tuple)):
            return type(v)(strip(x) for x in v)
        if isinstance(v, GruCellWeights):
            return plain(v)
        return v.data if isinstance(v, Tensor) else v

    return type(params)(**{f.name: strip(getattr(params, f.name)) for f in fields(params)})


def kl_divergence(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, exp(logvar)) || N(0, I)), summed over every element given."""
    return ad.sum_all(mu * mu + ad.exp(logvar) - logvar - 1.0) * 0.5


def bce_sum(target: np.ndarray, recon: Tensor,
            mask_col: Tensor | None = None) -> Tensor:
    """Bernoulli cross-entropy summed over every element; ``mask_col`` broadcasts.

    Targets must already live in [0,1]; reconstruction probabilities are
    clamped to [BCE_EPS, 1-BCE_EPS] so the logs stay finite.
    """
    if target.min() < 0.0 or target.max() > 1.0:
        raise ValueError("bce: targets must lie in [0, 1]")
    prob = ad.clip(recon, BCE_EPS, 1.0 - BCE_EPS)
    term = -(ad.log(prob) * target + ad.log(1.0 - prob) * (1.0 - target))
    if mask_col is not None:
        term = term * mask_col
    return ad.sum_all(term)


def vae_loss(targets: np.ndarray, recons: Tensor, mu: Tensor,
             logvar: Tensor, beta: float,
             lengths: np.ndarray | None = None) -> tuple[Tensor, float, float]:
    """Batch objective: per-sequence (BCE sum + beta * KL), averaged over the batch.

    ``targets`` is the (B, L, F) batch and ``recons`` its time-major
    (L, B, F) reconstruction. Returns the differentiable total plus the
    plain-float BCE and KL means for logging.
    """
    batch, steps, _ = targets.shape
    mask = None if lengths is None else make_mask(lengths, steps)
    total_bce = bce_sum(np.moveaxis(targets, 1, 0), recons, None if mask is None else mask[0])
    total_kl = kl_divergence(mu, logvar)
    scale = 1.0 / batch
    total = (total_bce + total_kl * beta) * scale
    return total, total_bce.item() * scale, total_kl.item() * scale


def beta_schedule(step: int, anneal_steps: int, beta_max: float) -> float:
    """KL weight ramp: 0 at step 0, linear up to beta_max at anneal_steps."""
    if anneal_steps <= 0:
        return beta_max
    return beta_max * min(1.0, step / anneal_steps)
