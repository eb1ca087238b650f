"""Adam optimizer and global-norm gradient clipping for Tensor parameters.

Every parameter is built with ``requires_grad=True``, so its ``grad`` is an array.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction; updates parameter arrays in place.

    Moment decays are BETA1 and BETA2. EPS sits outside the square root
    (update = lr * m_hat / (sqrt(v_hat) + EPS)). A step writes the moments,
    its two temporaries and the parameter through ``out=``, in the order of
    the plain expressions in its comments; the temporaries are views of two
    buffers sized for the largest parameter, which live only while it runs.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = BETA1, BETA2
        scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))
        for i, (p, m, v) in enumerate(zip(self.params, self.m, self.v)):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"adam: non-finite gradient in parameter {i}")
            a, b = (s[:g.size].reshape(g.shape) for s in scratch)
            np.multiply(b1, m, out=m)  # m = b1 * m + (1 - b1) * g
            np.multiply(1.0 - b1, g, out=a)
            np.add(m, a, out=m)
            np.multiply(g, g, out=a)  # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(1.0 - b2, a, out=a)
            np.multiply(b2, v, out=v)
            np.add(v, a, out=v)
            np.divide(m, 1.0 - b1 ** self.t, out=a)  # m_hat
            np.multiply(self.lr, a, out=a)
            np.divide(v, 1.0 - b2 ** self.t, out=b)  # v_hat
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)
            np.divide(a, b, out=a)  # lr * m_hat / (sqrt(v_hat) + EPS)
            np.subtract(p.data, a, out=p.data)


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Non-finite gradients are an error: clipping
    cannot repair them and silently scaling NaN would corrupt the step.
    """
    total = 0.0
    for p in params:
        sq = float(np.sum(p.grad * p.grad))
        if not math.isfinite(sq):
            raise NumericError("clip_global_norm: non-finite gradient")
        total += sq
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm
