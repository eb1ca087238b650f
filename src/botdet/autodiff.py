"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array. A primitive's output records one edge
``(operand, rule, saved)`` per tracked operand: a tensor created with
``requires_grad=True`` or one computed from such a tensor. ``rule`` is a
module-level function (or a numpy ufunc) and ``saved`` holds the values
the forward already computed, so ``rule(g, saved)`` is that operand's
vector-Jacobian product. ``backward`` walks the edges once in reverse
topological order, evaluates each rule exactly once, and accumulates
gradients into the ``grad`` field of every ``requires_grad`` tensor. No
derivative is ever evaluated for a constant operand. All math is float64
and single-threaded, so a fixed input always gives bit-identical gradients.
``matmul`` takes an (..., m, n) left operand against a 2-d right one, whose
gradient is one product over the flattened leading axes; ``take``
(``Tensor.__getitem__``) adds its gradient into a zero array of the
operand's shape.

A primitive defined outside this module builds its output with ``node``.
Its edges may share one saved record: ``backward`` runs a node's rules one
after another with the same ``g``, so the first call can compute every
operand's gradient and each call hand out its own (``models.gru_pass``
does this for a whole GRU pass).

Primitives also take plain arrays and scalars. An operand that is not a
``Tensor`` is a constant: it is read as a float64 array, never wrapped,
and never recorded. When no operand is a ``Tensor`` the primitive returns
a bare ``np.ndarray`` and builds no tape, so forward-only evaluation runs
the same code on the parameters' arrays and gives the same bits as the
taped pass.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_edges")
    __array_ufunc__ = None  # ``ndarray <op> Tensor`` defers to the reflected operator

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._edges: tuple = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # Arithmetic sugar; scalars and arrays are constant operands.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, index):
        return take(self, index)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def tracked(t) -> bool:
    """True for a Tensor whose gradient ``backward`` computes: a parameter or one made from it."""
    return isinstance(t, Tensor) and (t.requires_grad or bool(t._edges))


def node(data: np.ndarray, *edges: tuple):
    """A Tensor if any operand is one, keeping the edges of tracked operands; else ``data``.

    An edge is ``(operand, rule, saved)``: ``rule(g, saved)`` maps the
    output's gradient ``g`` to the operand's.
    """
    if not any(isinstance(e[0], Tensor) for e in edges):
        return data
    out = Tensor(data)
    out._edges = tuple(e for e in edges if tracked(e[0]))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# Gradient rules: ``rule(g, saved)`` with values the forward already has.
def _unbroadcast_neg(g, shape):
    return _unbroadcast(-g, shape)


def _unbroadcast_mul(g, saved):
    other, shape = saved
    return _unbroadcast(g * other, shape)


def _matmul_left(g, y):
    return g @ y.T


def _matmul_right(g, x):
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _scatter(g, saved):
    index, shape = saved
    out = np.zeros(shape)
    out[index] += g
    return out


def _sigmoid_grad(g, out):
    return g * out * (1.0 - out)


def _relu_grad(g, x):
    return g * (x > 0.0)


def _broadcast_copy(g, shape):
    return np.broadcast_to(g, shape).copy()


def _broadcast_op(name: str, a: np.ndarray, b: np.ndarray, fn) -> np.ndarray:
    try:
        return fn(a, b)
    except ValueError as exc:
        raise ValueError(
            f"{name}: incompatible shapes {a.shape} vs {b.shape}"
        ) from exc


def add(a, b):
    x, y = _data(a), _data(b)
    out = _broadcast_op("add", x, y, np.add)
    return node(out, (a, _unbroadcast, x.shape), (b, _unbroadcast, y.shape))


def sub(a, b):
    x, y = _data(a), _data(b)
    out = _broadcast_op("sub", x, y, np.subtract)
    return node(out, (a, _unbroadcast, x.shape), (b, _unbroadcast_neg, y.shape))


def neg(a):
    x = _data(a)
    return node(-x, (a, _unbroadcast_neg, x.shape))


def mul(a, b):
    x, y = _data(a), _data(b)
    out = _broadcast_op("mul", x, y, np.multiply)
    return node(out, (a, _unbroadcast_mul, (y, x.shape)),
                (b, _unbroadcast_mul, (x, y.shape)))


def matmul(a, b):
    x, y = _data(a), _data(b)
    if x.ndim < 2 or y.ndim != 2:
        raise ValueError(f"matmul: expects (..., m, n) @ (n, p), got {x.shape} @ {y.shape}")
    if x.shape[-1] != y.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {x.shape} @ {y.shape}")
    return node(x @ y, (a, _matmul_left, y), (b, _matmul_right, x))


def take(a, index):
    """``a[index]`` for a basic index: ints, slices, ``None`` and ``...``."""
    x = _data(a)
    return node(x[index], (a, _scatter, (index, x.shape)))


def sigmoid(a):
    x = _data(a)
    e = np.exp(np.minimum(x, -x))  # exp(-|x|) never overflows; keeps a NaN's sign
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return node(out, (a, _sigmoid_grad, out))


def relu(a):
    x = _data(a)
    return node(np.maximum(x, 0.0), (a, _relu_grad, x))


def log(a):
    x = _data(a)
    return node(np.log(x), (a, np.divide, x))


def exp(a):
    out = np.exp(_data(a))
    return node(out, (a, np.multiply, out))


def clip(a, lo: float, hi: float):
    """Clamp to [lo, hi]; gradient passes through inside the interval."""
    x = _data(a)
    inside = (x >= lo) & (x <= hi)
    return node(np.clip(x, lo, hi), (a, np.multiply, inside))


def sum_all(a):
    """Sum every element down to a scalar."""
    x = _data(a)
    return node(np.asarray(x.sum()), (a, _broadcast_copy, x.shape))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable parameter.

    ``loss`` must be scalar. The walk consumes the graph: each node drops
    its edges once their rules have run, so the arrays they saved are freed
    as the walk proceeds, and a second call on the same graph adds nothing.
    Parameters keep adding into ``grad`` across graphs; use ``zero_grads``
    between steps. Traversal order is fixed by the recorded graph, so
    accumulation order is deterministic.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p, _, _ in t._edges:
            if id(p) not in seen:
                stack.append((p, False))

    # Every node reached so far lies on a tracked path from ``loss``, so
    # each one has a gradient by the time reverse order gets to it. A rule
    # may return a view of ``g``, so gradients are summed into new arrays.
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        t = topo.pop()
        g = grads.pop(id(t))
        if t.requires_grad:
            t.grad += g
        for parent, rule, saved in t._edges:
            pg = rule(g, saved)
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
        t._edges = ()


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad[...] = 0.0
