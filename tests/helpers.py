"""Shared test utilities."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import betaln, gammaln

from botdet import autodiff as ad
from botdet import detector, models
from botdet.autodiff import Tensor, backward, zero_grads
from botdet.detector import Family, FittedPdf
from botdet.errors import DataError


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst-case relative disagreement between two gradient arrays.

    The denominator is floored so near-zero gradients are compared
    absolutely instead of amplifying finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def finite_difference_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``.

    Perturbs ``x.data`` in place one coordinate at a time, so ``f`` must
    re-read the tensor on every call. Used as the independent check
    against analytic gradients.
    """
    base = x.data.copy()
    out = np.zeros_like(base)
    flat = out.reshape(-1)
    for i in range(base.size):
        x.data.reshape(-1)[i] = base.reshape(-1)[i] + h
        fp = float(f(x))
        x.data.reshape(-1)[i] = base.reshape(-1)[i] - h
        fm = float(f(x))
        x.data.reshape(-1)[i] = base.reshape(-1)[i]
        flat[i] = (fp - fm) / (2.0 * h)
    x.data[...] = base
    return out


def gradcheck(f, params: list[Tensor], h: float = 1e-5) -> float:
    """Compare analytic gradients of scalar ``f()`` against central differences.

    ``f`` must rebuild its graph from the current parameter data on every
    call. Returns the worst relative error across all parameters.
    """
    zero_grads(params)
    loss = f()
    backward(loss)
    worst = 0.0
    for p in params:
        numeric = finite_difference_grad(lambda _t: f().item(), p, h=h)
        worst = max(worst, max_rel_err(p.grad, numeric))
    return worst


def bits(x) -> bytes:
    """Raw float64 bytes of an array or a Tensor's data: signed zeros and NaN signs count."""
    return np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64).tobytes()


def _slice_of(g, index):
    return g[index]


def concat(parts, axis: int = -1):
    """Taped ``np.concatenate``: each tracked part's gradient is its slice of the output's."""
    arrays = [ad._data(t) for t in parts]
    out = np.concatenate(arrays, axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    edges, lo = [], 0
    for t, x in zip(parts, arrays):
        hi = lo + x.shape[axis]
        edges.append((t, _slice_of, lead + (slice(lo, hi),)))
        lo = hi
    return ad.node(out, *edges)


def _tanh_grad(g, out):
    return g * (1.0 - out * out)


def tanh(a):
    """Taped ``np.tanh``: the per-step reference's candidate activation."""
    out = np.tanh(ad._data(a))
    return ad.node(out, (a, _tanh_grad, out))


def input_projections(x, w) -> tuple:
    """``(x @ w_r, x @ w_u, x @ w_h)``: what ``gru_cell`` reads of its input."""
    return x @ w.w_r, x @ w.w_u, x @ w.w_h


def gru_cell(xp: tuple, h_prev, w):
    """One taped GRU step: gated blend of the previous state and a tanh candidate.

    ``xp`` is the step's ``input_projections``; each gate adds them as
    ``(xW + hU) + b``, in the order ``models.gru_pass`` does.
    """
    xr, xu, xh = xp
    r = ad.sigmoid(xr + h_prev @ w.u_r + w.b_r)
    u = ad.sigmoid(xu + h_prev @ w.u_u + w.b_u)
    cand = tanh(xh + (r * h_prev) @ w.u_h + w.b_h)
    return (1.0 - u) * cand + u * h_prev


def make_mask(lengths: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(m, 1-m) as (L, B, 1) arrays with m[t, b] = 1 iff t < lengths[b]; None if unpadded."""
    lengths = np.asarray(lengths)
    if np.all(lengths == steps):
        return None
    m = (np.arange(steps)[:, None, None] < lengths[None, :, None]).astype(np.float64)
    return m, 1.0 - m


def per_step_gru_pass(xs, w, mask=None, h0=None, reverse=False):
    """The per-step taped GRU pass: a list of (B, H) states and the final one.

    Every step projects its own input ``xs[t]`` and runs ``gru_cell``; a
    padded step keeps the previous state.
    """
    steps = len(xs)
    h = np.zeros((*xs[0].shape[:-1], w.u_r.shape[0])) if h0 is None else h0
    states = [None] * steps
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        h_new = gru_cell(input_projections(xs[t], w), h, w)
        h = h_new if mask is None else mask[0][t] * h_new + mask[1][t] * h
        states[t] = h
    return states, h


def per_step_rvae_loss(p, batch: np.ndarray, lengths, eps, beta: float):
    """The per-step taped RVAE pass and loss: the reference for the taped pass.

    Every step projects its own input, states are lists, and the output
    head and ``bce_sum`` run once per step. Returns (recons, mu, logvar,
    total) with ``recons`` a list of (B, F) Tensors.
    """
    steps = batch.shape[1]
    mask = None if lengths is None else make_mask(lengths, steps)
    seq = [batch[:, t, :] for t in range(steps)]
    for layer in range(models.ENCODER_LAYERS):
        states_f, hf = per_step_gru_pass(seq, p.enc_fwd[layer], mask)
        states_b, hb = per_step_gru_pass(seq, p.enc_bwd[layer], mask, reverse=True)
        seq = [concat([f, b], axis=-1) for f, b in zip(states_f, states_b)]
    fused = concat([hf, hb], axis=-1)
    mu = fused @ p.w_mu + p.b_mu
    logvar = fused @ p.w_logvar + p.b_logvar
    z = models.reparameterize(mu, logvar, eps)
    seq = [np.zeros_like(batch[:, 0, :]), *(batch[:, t, :] for t in range(steps - 1))]
    for layer in range(models.DECODER_LAYERS):
        h0 = z @ p.zproj_w[layer] + p.zproj_b[layer]
        seq, _ = per_step_gru_pass(seq, p.dec[layer], h0=h0)
    recons = [ad.sigmoid(h @ p.w_out + p.b_out) for h in seq]
    total_bce = None
    for t, recon in enumerate(recons):
        part = models.bce_sum(batch[:, t, :], recon, None if mask is None else mask[0][t])
        total_bce = part if total_bce is None else total_bce + part
    total = (total_bce + models.kl_divergence(mu, logvar) * beta) * (1.0 / batch.shape[0])
    return recons, mu, logvar, total


# The density fit as it was before its likelihood loop was trimmed: every
# logpdf masks its support, ``_unpack`` calls np.exp per element, and each
# NLL call enters its own errstate. The trimmed fit must match it bit for bit.

def _masked_gamma_logpdf(y, shapes):
    (a,) = shapes
    out = np.full_like(y, -np.inf)
    ok = y > 0
    yo = y[ok]
    out[ok] = (a - 1.0) * np.log(yo) - yo - gammaln(a)
    if a == 1.0:
        out[y == 0] = -gammaln(a)
    return out


def _masked_foldcauchy_logpdf(y, shapes):
    (c,) = shapes
    out = np.full_like(y, -np.inf)
    ok = y >= 0
    yo = y[ok]
    dens = (1.0 / (1.0 + (yo - c) ** 2) + 1.0 / (1.0 + (yo + c) ** 2)) / np.pi
    out[ok] = np.log(dens)
    return out


def _masked_mielke_logpdf(y, shapes):
    k, s = shapes
    out = np.full_like(y, -np.inf)
    ok = y > 0
    ly = np.log(y[ok])
    out[ok] = np.log(k) + (k - 1.0) * ly - (1.0 + k / s) * np.logaddexp(0.0, s * ly)
    return out


def _masked_beta_logpdf(y, shapes):
    a, b = shapes
    out = np.full_like(y, -np.inf)
    ok = (y > 0) & (y < 1)
    yo = y[ok]
    out[ok] = (a - 1.0) * np.log(yo) + (b - 1.0) * np.log1p(-yo) - betaln(a, b)
    return out


REFERENCE_LOGPDFS = {
    "gamma": _masked_gamma_logpdf,
    "genlogistic": detector.GENLOGISTIC.logpdf,  # never masked
    "foldcauchy": _masked_foldcauchy_logpdf,
    "mielke": _masked_mielke_logpdf,
    "beta": _masked_beta_logpdf,
}


def reference_unpack(fam: Family, vec: np.ndarray, lo: float, hi: float):
    with np.errstate(over="ignore"):
        shapes = tuple(float(np.exp(v)) for v in vec[: fam.n_shapes])
        rest = vec[fam.n_shapes:]
        if fam.support == "real":
            loc, scale = float(rest[0]), float(np.exp(rest[1]))
        elif fam.support == "positive":
            loc, scale = lo - float(np.exp(rest[0])), float(np.exp(rest[1]))
        else:
            m1, m2 = np.exp(rest[0]), np.exp(rest[1])
            loc = lo - float(m1)
            scale = (hi - lo) + float(m1) + float(m2)
    return shapes, loc, scale


def reference_fit_family(fam: Family, samples: np.ndarray) -> FittedPdf:
    """``detector.fit_family`` on a valid sample, with the reference logpdf and unpack."""
    x = np.asarray(samples, dtype=np.float64)
    lo, hi = float(x.min()), float(x.max())
    logpdf = REFERENCE_LOGPDFS[fam.name]

    def nll(vec):
        shapes, loc, scale = reference_unpack(fam, vec, lo, hi)
        if not math.isfinite(scale) or scale <= 0:
            return detector._BIG
        with np.errstate(all="ignore"):
            y = (x - loc) / scale
            lp = logpdf(y, shapes)
            total = float(np.sum(lp)) - x.size * math.log(scale)
        return -total if math.isfinite(total) else detector._BIG

    best_vec, best_val = None, math.inf
    for shapes, loc, scale in fam.guesses(x):
        vec0 = detector._pack(fam, shapes, loc, scale, lo, hi)
        if not math.isfinite(nll(vec0)):
            continue
        res = minimize(nll, vec0, method="Nelder-Mead",
                       options={"maxiter": detector._MAX_ITER, "xatol": 1e-6, "fatol": 1e-6})
        if res.fun < best_val:
            best_vec, best_val = res.x, res.fun
    if best_vec is None or best_val >= detector._BIG:
        raise DataError(f"fit_family: no finite likelihood found for {fam.name}")
    shapes, loc, scale = reference_unpack(fam, best_vec, lo, hi)
    return FittedPdf(family=fam.name, shapes=shapes, loc=loc, scale=scale,
                     sse=float("nan"), n_samples=x.size)
