"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array. While gradient recording is enabled,
every primitive records its parent tensors and a vector-Jacobian closure;
``backward`` replays those closures once in reverse topological order and
accumulates gradients into the ``grad`` field of every tensor created with
``requires_grad=True``. All math is float64 and single-threaded, so a
fixed input always produces bit-identical gradients.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple = ()
        self._vjp: Callable | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Arithmetic sugar; scalars and arrays are wrapped as constants.
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _node(data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(_tracked(p) for p in parents):
        out._parents = parents
        out._vjp = vjp
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


def _broadcast_op(name: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError as exc:
        raise ValueError(
            f"{name}: incompatible shapes {a.data.shape} vs {b.data.shape}"
        ) from exc


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _broadcast_op("add", a, b, np.add)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _broadcast_op("sub", a, b, np.subtract)

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (-g,)

    return _node(-a.data, (a,), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _broadcast_op("mul", a, b, np.multiply)

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"matmul: expects 2-d operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}"
        )
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _node(out, (a, b), vjp)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: no tensors given")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(ts), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _node(out, (a,), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _node(out, (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _node(out, (a,), vjp)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through inside the interval."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def vjp(g):
        return (g * inside,)

    return _node(out, (a,), vjp)


def sum_all(a) -> Tensor:
    """Sum every element down to a scalar tensor."""
    a = as_tensor(a)
    out = np.asarray(a.data.sum())

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(out, (a,), vjp)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every reachable parameter.

    ``loss`` must be scalar. Repeated calls keep adding into ``grad``;
    use ``zero_grads`` between steps. Traversal order is fixed by the
    recorded graph, so accumulation order is deterministic.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not _tracked(parent):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()


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
