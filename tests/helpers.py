"""Shared test utilities."""

from __future__ import annotations

import numpy as np

from botdet.autodiff import Tensor, backward, finite_difference_grad, zero_grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst-case relative disagreement between two gradient arrays.

    The denominator is floored so near-zero gradients are compared
    absolutely instead of amplifying finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


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
