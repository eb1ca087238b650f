"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array. Every primitive records its parent
tensors and a vector-Jacobian closure when at least one operand is a
tracked tensor; ``backward`` replays those closures once in reverse
topological order and accumulates gradients into the ``grad`` field of
every tensor created with ``requires_grad=True``. All math is float64 and
single-threaded, so a fixed input always produces bit-identical gradients.

Primitives also take plain arrays and scalars. An operand that is not a
``Tensor`` is a constant: it is read as a float64 array, never wrapped,
and never recorded. When no operand is a ``Tensor`` the primitive returns
a bare ``np.ndarray`` and builds no tape, so forward-only evaluation runs
the same code on the parameters' arrays and gives the same bits as the
taped pass.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")
    __array_ufunc__ = None  # ``ndarray <op> Tensor`` defers to the reflected operator

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


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and (t.requires_grad or bool(t._parents))


def _node(data: np.ndarray, operands: tuple, vjp: Callable):
    """A Tensor if any operand is one (taped if any is tracked), else ``data``."""
    if not any(isinstance(x, Tensor) for x in operands):
        return data
    out = Tensor(data)
    if any(_tracked(x) for x in operands):
        out._parents = operands
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

    def vjp(g):
        return _unbroadcast(g, x.shape), _unbroadcast(g, y.shape)

    return _node(out, (a, b), vjp)


def sub(a, b):
    x, y = _data(a), _data(b)
    out = _broadcast_op("sub", x, y, np.subtract)

    def vjp(g):
        return _unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)

    return _node(out, (a, b), vjp)


def neg(a):
    def vjp(g):
        return (-g,)

    return _node(-_data(a), (a,), vjp)


def mul(a, b):
    x, y = _data(a), _data(b)
    out = _broadcast_op("mul", x, y, np.multiply)

    def vjp(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _node(out, (a, b), vjp)


def matmul(a, b):
    x, y = _data(a), _data(b)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError(f"matmul: expects 2-d operands, got {x.shape} @ {y.shape}")
    if x.shape[1] != y.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {x.shape} @ {y.shape}")
    out = x @ y

    def vjp(g):
        return g @ y.T, x.T @ g

    return _node(out, (a, b), vjp)


def concat(parts: Iterable, axis: int = -1):
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat: no tensors given")
    arrays = [_data(t) for t in parts]
    out = np.concatenate(arrays, axis=axis)
    splits = np.cumsum([x.shape[axis] for x in arrays])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, parts, vjp)


def sigmoid(a):
    x = _data(a)
    e = np.exp(np.minimum(x, -x))  # exp(-|x|) never overflows; keeps a NaN's sign
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), vjp)


def tanh(a):
    out = np.tanh(_data(a))

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), vjp)


def relu(a):
    x = _data(a)
    out = np.maximum(x, 0.0)

    def vjp(g):
        return (g * (x > 0.0),)

    return _node(out, (a,), vjp)


def log(a):
    x = _data(a)
    out = np.log(x)

    def vjp(g):
        return (g / x,)

    return _node(out, (a,), vjp)


def exp(a):
    out = np.exp(_data(a))

    def vjp(g):
        return (g * out,)

    return _node(out, (a,), vjp)


def clip(a, lo: float, hi: float):
    """Clamp to [lo, hi]; gradient passes through inside the interval."""
    x = _data(a)
    out = np.clip(x, lo, hi)
    inside = (x >= lo) & (x <= hi)

    def vjp(g):
        return (g * inside,)

    return _node(out, (a,), vjp)


def sum_all(a):
    """Sum every element down to a scalar."""
    x = _data(a)
    out = np.asarray(x.sum())

    def vjp(g):
        return (np.broadcast_to(g, x.shape).copy(),)

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
            if isinstance(p, Tensor) and id(p) not in seen:
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
