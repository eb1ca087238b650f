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

Inputs, lengths and latent draws are plain arrays. The forward functions
build a tape when given the trainable parameters and none when given
``plain(params)``: scoring runs the same code on the same arrays. Passes
are time-major: a GRU pass projects its whole (L, ..., B, n) input once
and writes its states into one array, and the output head and the loss
read all steps at once. Each encoder layer runs its forward and backward
directions as one pass over a leading direction axis D, the backward one
on its time-reversed input. The decoder runs both its layers as one
pass over a leading layer axis, skewed by a step per layer: iteration t
runs layer l's step t - l, so the pass makes L + 1 iterations, not 2L.
Both kinds of pass run the same GRU step (``_recur``) on a slice of that
leading axis.

Sequences of different lengths share a pass zero-padded to the longest,
and one rule runs each to its own length (Schuster & Paliwal, IEEE Trans.
Signal Processing 1997): the backward direction reverses each within its
own length and leaves its padded steps in place, and its final states are
those after its own last step. So its states at its own steps and its
latent do not depend on what its padding holds.
Training's sequences are the rows of one GEMM and run every step; a
scoring stack's items lie on a leading stack axis, longest first, and
each step runs only the prefix of them still that long.

numpy runs a stacked product as one kernel call per leading index, so
every step, direction, layer and stacked item keeps its unstacked bits,
and so does every item of a prefix of the stack axis. That covers each
product a pass makes: a first cell's input projections
(L, ..., B, n) @ (n, H), on the input in its visit order; a step's
h (D, ..., B, H) @ U (2, D, 1.., H, H) for both gates and
(r*h) @ U_h (D, 1.., H, H); and an upper decoder layer's per-step input
projections (..., B, H) @ (3, 1.., H, H). Each item is the (B, H) @ (H, H)
product a separate pass makes, even when written into a slice of a
buffer (``tests/test_models.py`` pins all of them). Everything else a step
does is elementwise, and reversing time or joining directions only
copies.

A taped GRU pass is one tape node whose rule is back-propagation through
time (Werbos, Proc. IEEE 1990) over the GRU equations of Cho et al.
(arXiv:1406.1078), run once per direction or layer on that cell's states
and gates in its visit order; a layer's input gradient is the states
gradient of the layer below. A weight's gradient sums its steps, in time
order, in one product, so training differs from a per-step tape
(``tests/helpers.py``) by float reassociation only.

A taped pass allocates fresh arrays as a plain one does, and BPTT writes
through ``out=`` with the operands and order of the plain expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import accumulate, groupby, repeat

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BCE_EPS = 1e-7  # reconstruction probabilities are clamped to [eps, 1-eps]

ENCODER_LAYERS = 2
DECODER_LAYERS = 2


def _uniform(rng: np.random.Generator | None, shape: tuple, fan_in: int) -> Tensor:
    """A parameter drawn from U(-b, b), b = 1/sqrt(fan_in); given no generator, the
    model loader's stand-in: a zero-stride placeholder with no gradient, no memory."""
    if rng is None:
        return Tensor(np.broadcast_to(0.0, shape))
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


GATE_PARAMS = ("w_r", "u_r", "b_r", "w_u", "u_u", "b_u", "w_h", "u_h", "b_h")


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
    def init(cls, rng: np.random.Generator | None, n_in: int,
             n_hidden: int) -> "GruCellWeights":
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
        return {f"{prefix}.{k}": getattr(self, k) for k in GATE_PARAMS}


def gru_pass(xs, w: GruCellWeights | tuple[GruCellWeights, GruCellWeights],
             h0: Tensor | None = None,
             reverse: bool = False,
             lengths: np.ndarray | None = None):
    """Run a GRU over time-major inputs; returns the (L, ..., B, D*H) states and the final ones.

    ``xs`` is the (L, ..., B, n) input. ``w`` is one cell, run in time
    order or, with ``reverse``, against it (D = 1), or a (forward,
    backward) pair of cells run as one recurrence over a leading direction
    axis (D = 2). The backward direction reads its input time-reversed and
    its states are flipped back, so each direction's states and final
    state are those of its own single-direction pass, concatenated on the
    last axis in cell order. ``h0`` (zeros if None) starts every direction.

    ``lengths`` gives each item on the axis after time its own length
    (``_setup``), and its later steps are padding: the backward direction
    reverses each item within its own length and leaves its padded steps
    in place, and each item's final states are those after its own last
    step. An item's states at its own steps and its final states then do
    not depend on what its padding holds.

    Each cell's three input projections are taken once, before the
    recurrence, which ``_recur`` runs.

    The pass is one tape node. Only when an operand is tracked does the
    loop write each step's reset gate, update gate and candidate into
    saved arrays; ``_gru_pass_grad`` then runs back-propagation through
    time over them once per direction, for every tracked operand.
    """
    if isinstance(w, GruCellWeights):
        cells = ((w, reverse),)
    elif reverse:
        raise ValueError("gru_pass: a (forward, backward) pair sets its own directions")
    else:
        cells = ((w[0], False), (w[1], True))
    reverses = tuple(rev for _, rev in cells)
    operands, tracked, cells, x, runs = _setup(xs, [h0], [c for c, _ in cells], lengths)
    taped = any(tracked)
    xp, rows, gates = _buffers(x, cells, 0, runs, taped)
    flip = None if lengths is None else _flip(lengths, len(x))
    _project(x, cells, reverses, xp, runs, flip)
    h_init = np.zeros(rows.shape[2:]) if h0 is None else _array(h0)
    rows[0] = h_init
    _recur(xp, rows, cells, gates, runs=runs)
    del xp  # before the states are joined, so the pass's peak is its loop's
    last = rows[-1] if lengths is None else np.swapaxes(  # the states after each item's end
        rows[lengths, :, np.arange(len(lengths))], 0, 1)
    final = np.concatenate(tuple(last), axis=-1)
    states = np.concatenate([_in_visit_order(rows[1:, d], rev, flip)
                             for d, rev in enumerate(reverses)], axis=-1)
    record = ({"saved": (_bptt_directions, (tracked, x, tuple(zip(cells, reverses)), h_init,
                                            flip, states, gates))}
              if taped else None)
    out = ad.node(states, *((o, _gru_pass_grad, (record, i)) for i, o in enumerate(operands)))
    return out, ad.node(final, (out, _final_grad, (states.shape, reverses, lengths)))


def gru_layers(xs, cells: list[GruCellWeights], h0s: list, lengths: np.ndarray | None = None):
    """Run stacked GRU layers, each on the one below's states; returns the top (L, ..., B, H) ones.

    ``xs`` is the bottom layer's (L, ..., B, n) input and ``h0s`` holds each
    layer's initial state (zeros for None). The layers run as one skewed
    recurrence over a leading layer axis (``_recur``), and each layer's
    states are those of its own ``gru_pass``. The bottom layer's input
    projections are taken once, before the recurrence. ``lengths`` is
    ``gru_pass``'s (``_setup``). The pass is one tape node, whose rule runs
    ``_bptt_layers``.
    """
    n = len(cells)
    operands, tracked, cells, x, runs = _setup(xs, h0s, cells, lengths)
    taped = any(tracked)
    xp, rows, gates = _buffers(x, cells, n - 1, runs, taped)
    _project(x, cells[:1], (False,), xp, runs)
    for layer, h0 in enumerate(h0s):  # layer l's state after its step s: row s + l + 1
        rows[layer, layer] = 0.0 if h0 is None else _array(h0)
    _recur(xp, rows, cells, gates, skewed=True, runs=runs)
    del xp
    states = rows[n:, n - 1].copy()  # contiguous, like a single-layer pass's states
    record = ({"saved": (_bptt_layers, (tracked, x, cells, rows, gates))}
              if taped else None)
    return ad.node(states, *((o, _gru_pass_grad, (record, i)) for i, o in enumerate(operands)))


def _setup(xs, h0s, cells, lengths=None):
    """What both passes set up: (operands, tracked, plain cells, x, runs).

    ``lengths`` gives item k on the input's first axis after time its own
    length lengths[k] in 1..L (None: every item runs to L). Those
    items are the GEMM rows of a (L, B, n) input and a stack axis ahead of
    them otherwise. Along a stack axis lengths must not increase, so the
    items that still run at a step are a prefix of it, and slicing a stack
    axis keeps each item's bits: a plain pass runs only that prefix.
    ``runs`` then holds (length, item slice) for each run of equal lengths,
    longest first (``_buffers`` then zeroes ``rows``). A taped pass runs
    every item to L, as GEMM rows always do, since a row's bits depend on
    its GEMM's row count.
    """
    operands = (xs, *h0s, *(getattr(c, k) for c in cells for k in GATE_PARAMS))
    tracked = tuple(map(ad.tracked, operands))
    x = _array(xs)
    cells = tuple(map(plain, cells))
    steps = x.shape[0]
    runs = None
    if lengths is not None:
        stack, each = x.ndim > 3, lengths.tolist()  # a list: few items, checked in Python
        if (lengths.shape != x.shape[1:2] or min(each) < 1 or max(each) > steps
                or stack and any(a < b for a, b in zip(each, each[1:]))):
            raise ValueError("lengths give each item after the time axis its own length in "
                             "1..L, not increasing along a stack axis")
        if stack and not any(tracked):
            runs = [(n, len(list(run))) for n, run in groupby(each)]
            runs = [(n, slice(stop - k, stop))
                    for (n, k), stop in zip(runs, accumulate(k for _, k in runs))]
    return operands, tracked, cells, x, runs


def _buffers(x, cells, skew, runs, taped):
    """A pass's (xp, rows, gates): the arrays ``_recur`` fills; gates only if taped.

    The cells run as one recurrence over a leading cell axis for L + ``skew``
    iterations. ``xp`` is left for the pass to fill with each iteration's
    (xW_r, xW_u, xW_h) per cell, row t + 1 of ``rows`` takes the states
    after iteration t, and ``gates`` each iteration's (reset and update
    gates, candidate). ``rows`` starts as zeros for ragged ``runs``, so the
    states a plain pass returns stay zero past an item's end.
    """
    state = (len(cells), *x.shape[1:-1], cells[0].u_r.shape[0])  # one iteration's states
    iterations = len(x) + skew
    xp = np.empty((iterations, 3, *state))
    rows = (np.empty if runs is None else np.zeros)((iterations + 1, *state))
    gates = (np.empty((2, iterations, *state)), np.empty((iterations, *state))) if taped else None
    return xp, rows, gates


def _project(x, cells, reverses, xp, runs, flip=None):
    """Each cell's (xW_r, xW_u, xW_h) into ``xp[:L, :, d]``, its input read in its visit order.

    A ragged stack projects each run of equal lengths over its own steps
    only, and its padded steps' projections are zeros.
    """
    for d, (c, rev) in enumerate(zip(cells, reverses)):
        x_d = _in_visit_order(x, rev, flip)
        for n, items in runs or [(len(x), slice(None))]:
            for g, w_in in enumerate(_inputs(c)):
                xp[:n, g, d, items] = x_d[:n, items] @ w_in
            xp[n:len(x), :, d, items] = 0.0


def _inputs(c: GruCellWeights) -> tuple:
    return c.w_r, c.w_u, c.w_h


def _recur(xp, rows, cells, gates=None, skewed=False, runs=None):
    """The GRU recurrence over a stack of cells, an iteration per row of ``xp``.

    Iteration t runs the step of the active cells: it reads their input
    projections from ``xp[t]`` and states from ``rows[t]``, and writes
    their new states to ``rows[t + 1]`` and, for a taped pass, their gates
    to ``gates`` (``_buffers``). Every cell is active at every iteration
    unless ``skewed``: then the cells are layers, layer l runs at
    iterations l to l + L - 1, and each active layer above the first first
    projects into ``xp[t]`` the state ``rows[t]`` holds for the layer
    below. The active cells always form one slice of the cell axis. With
    ragged ``runs`` only a prefix of the items runs: those that any active
    cell still needs, so a skewed pass's lower layer may run an item one
    step past its end, into rows that nothing reads. Iterations with the
    same (cell slice, item prefix) share their views.

    A step makes one product of the states against U_r and U_u stacked on
    a leading axis, adds both gates' input projections and both biases in
    one call each, as ``(xW + hU) + b``, and blends the previous state
    with a tanh candidate. The sigmoid runs ``ad.sigmoid``'s ufunc
    sequence, the tanh is ``np.tanh``, and every temporary goes into a
    contiguous buffer allocated once per group of iterations.
    """
    state, hidden, n = rows.shape[1:], rows.shape[-1], len(cells)
    iterations = len(xp)
    lead = (n, *(1,) * (len(state) - 3))  # a weight's axes before its matrix
    u_ru = np.stack([[c.u_r, c.u_u] for c in cells], axis=1).reshape(2, *lead, hidden, hidden)
    b_ru = np.stack([[c.b_r, c.b_u] for c in cells], axis=1).reshape(2, *lead, 1, hidden)
    u_h = np.stack([c.u_h for c in cells]).reshape(*lead, hidden, hidden)
    b_h = np.stack([c.b_h for c in cells]).reshape(*lead, 1, hidden)
    w_up = (np.stack([_inputs(c) for c in cells[1:]], axis=1).reshape(3, n - 1, *lead[1:],
                                                                      hidden, hidden)
            if skewed and n > 1 else None)  # layer l > 0's (W_r, W_u, W_h) at index l - 1
    saved_ru, saved_cand = gates or (None, None)
    weights = (u_ru, b_ru), (u_h, b_h)
    steps = iterations - n + 1 if skewed else iterations
    running = None if runs is None else [0] * steps  # per step: how many items run it
    for length, items in runs or ():
        running[:length] = [items.stop] * length

    def rectangle(t):  # the active cells, and how many items the earliest step among them runs
        lo, hi = (max(0, t - steps + 1), min(n, t + 1)) if skewed else (0, n)
        return lo, hi, None if running is None else running[t - hi + 1 if skewed else t]

    end = 0
    for (lo, hi, k), run in groupby(map(rectangle, range(iterations))):
        start, end = end, end + sum(1 for _ in run)
        its, cell = slice(start, end), slice(lo, hi)
        up = max(lo, 1)  # the first active layer that reads the one below
        lift = w_up is not None and up < hi
        first = up - 1 if lift else lo  # the first cell whose states the group reads
        # A ragged prefix or a partial cell slice runs on contiguous copies, so every
        # ufunc takes numpy's contiguous loop; the states are written back after.
        rect = rows[start:end + 1, first:hi, slice(k)]
        work = rect if rect.flags.c_contiguous else rect.copy()
        xw = np.ascontiguousarray(xp[its, :, cell, slice(k)])
        step = (hi - lo, *work.shape[2:])  # one step's active states
        hu, pre, e, ru = (np.empty((2, *step)) for _ in range(4))  # hu: h @ U_r, h @ U_u
        pos = np.empty((2, *step), dtype=bool)
        rhu, cand, blend = (np.empty(step) for _ in range(3))  # rhu: (r * h) @ U_h
        (u_ru, b_ru), (u_h, b_h) = ((w[:, cell] for w in weights[0]),
                                    (w[cell] for w in weights[1]))
        per_step = (
            work[:-1, lo - first:], work[1:, lo - first:], xw[:, :2], xw[:, 2],
            zip(work[:-1, :hi - up], xw[:, :, up - lo:]) if lift else repeat(None),
            zip(np.moveaxis(saved_ru[:, its, cell], 1, 0), saved_cand[its, cell]) if gates
            else repeat((ru, cand)))
        w_lift = w_up[:, up - 1:hi - 1] if lift else None
        for h, new, xp_ru, xp_h, below, (ru, cand) in zip(*per_step):
            if below is not None:
                np.matmul(below[0], w_lift, out=below[1])
            np.matmul(h, u_ru, out=hu)
            np.add(xp_ru, hu, out=pre)
            np.add(pre, b_ru, out=pre)
            np.negative(pre, out=e)  # ad.sigmoid: exp(-|x|) never overflows; keeps a NaN's sign
            np.minimum(pre, e, out=e)
            np.exp(e, out=e)
            np.greater_equal(pre, 0, out=pos)
            num = np.where(pos, 1.0, e)
            np.add(1.0, e, out=e)
            np.divide(num, e, out=ru)
            r, u = ru
            np.multiply(r, h, out=blend)
            np.matmul(blend, u_h, out=rhu)
            np.add(xp_h, rhu, out=cand)
            np.add(cand, b_h, out=cand)
            np.tanh(cand, out=cand)
            np.subtract(1.0, u, out=blend)  # h_new = (1 - u) * cand + u * h
            np.multiply(blend, cand, out=blend)
            np.multiply(u, h, out=rhu)
            np.add(blend, rhu, out=new)
        if work is not rect:
            rect[1:] = work[1:]


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else x


def _flip(lengths: np.ndarray, steps: int) -> np.ndarray:
    """The row gather over flattened (L, N) steps that reverses each item within its own length."""
    t, n = np.arange(steps)[:, None], lengths[None, :]
    return (np.where(t < n, n - 1 - t, t) * len(lengths) + np.arange(len(lengths))).ravel()


def _in_visit_order(a: np.ndarray, reverse: bool, flip=None) -> np.ndarray:
    """A time-major array's steps in the order a pass visits them; its own inverse.

    With a ``_flip`` index each item on the axis after time is reversed
    within its own steps, by one row gather, and its padded steps stay
    where they are; without one every step is reversed.
    """
    if not reverse:
        return a
    if flip is None:
        return a[::-1]
    return np.take(a.reshape(-1, *a.shape[2:]), flip, axis=0).reshape(a.shape)


def _final_grad(g, saved):
    """The states' gradient from the final ones: each item's own last visited step."""
    shape, reverses, lengths = saved
    hidden = shape[-1] // len(reverses)
    items = slice(None) if lengths is None else np.arange(len(lengths))
    last = -1 if lengths is None else lengths - 1
    out = np.zeros(shape)
    for d, rev in enumerate(reverses):
        cols = slice(d * hidden, (d + 1) * hidden)
        out[0 if rev else last, items, ..., cols] += g[..., cols]
    return out


def _gru_pass_grad(g, saved):
    """One operand's gradient; the pass's first rule call runs BPTT for all of them."""
    record, i = saved
    if "grads" not in record:
        bptt, args = record.pop("saved")
        record["grads"] = bptt(g, *args)
    return record["grads"].pop(i)


def _bptt_directions(g, tracked, x, cells, h_init, flip, states, gates):
    """``_bptt`` once per direction, on its own states, gates and gradient in its visit order.

    Operand ``2 + 9*d + k`` is direction d's k-th gate parameter; ``xs``
    and ``h0`` are shared, so their two directions' gradients are summed.
    A direction's states and gates are views or gathered copies: ``_bptt``
    uses them only in elementwise ops and copies, never as a
    matrix-product operand, so their strides cannot change its bits.
    """
    saved_ru, saved_cand = gates
    hidden, n = states.shape[-1] // len(cells), len(GATE_PARAMS)
    grads = {}
    for d, (c, rev) in enumerate(cells):
        cols = slice(d * hidden, (d + 1) * hidden)
        own = (0, 1, *range(2 + n * d, 2 + n * (d + 1)))
        order = partial(_in_visit_order, reverse=rev, flip=flip)  # its own inverse
        mine = _bptt(order(g[..., cols]), tuple(tracked[i] for i in own), x, c, h_init,
                     order(states[..., cols]), (saved_ru[0, :, d], saved_ru[1, :, d],
                                                saved_cand[:, d]), order)
        for j, grad in mine.items():
            i = own[j]
            if i in grads:
                np.add(grads[i], grad, out=grads[i])  # grads[i] + grad, into the first's array
            else:
                grads[i] = grad
    return grads


def _bptt_layers(g, tracked, x, cells, rows, gates):
    """``_bptt`` once per layer, top first, on its own input, states and gates in time order.

    Operand 0 is ``xs``, operand ``1 + l`` is layer l's ``h0`` and
    ``1 + N + 9*l + k`` its k-th gate parameter. A layer's input gradient
    is the states gradient of the layer below, which runs only while an
    operand below is tracked. A layer's initial state, states and gates
    are views of the pass's rows, used in elementwise ops and copies; its
    input, the one product operand among them, ``_rows`` copies into the
    contiguous layout of a separate pass's states.
    """
    saved_ru, saved_cand = gates
    n, k = len(cells), len(GATE_PARAMS)
    steps = rows.shape[0] - n
    grads = {}
    for layer in reversed(range(n)):
        weights = range(1 + n + k * layer, 1 + n + k * (layer + 1))
        below = any(tracked[:1 + layer]) or any(tracked[1 + n:weights[0]])
        span = slice(layer, layer + steps)  # the rows of this layer's steps' inputs
        mine = _bptt(g, (below, tracked[1 + layer], *(tracked[i] for i in weights)),
                     x if layer == 0 else rows[span, layer - 1], cells[layer],
                     rows[layer, layer], rows[layer + 1:layer + 1 + steps, layer],
                     tuple(a[span, layer] for a in (saved_ru[0], saved_ru[1], saved_cand)),
                     partial(_in_visit_order, reverse=False))  # a layer's visit order is time's
        g = mine.pop(0, None)
        grads.update((i, mine[j]) for j, i in enumerate((0, 1 + layer, *weights)) if j in mine)
        if not below:
            break
    if g is not None:
        grads[0] = g
    return grads


def _bptt(g, tracked, x, c, h_init, states, gates, in_time_order):
    """Back-propagation through time: {operand index: gradient} for the tracked operands.

    ``g``, the loss gradient of every state, ``states`` and ``gates`` are
    in the pass's visit order, ``x`` in time order. Steps are visited in
    reverse, carrying ``dh``, the gradient of the state entering the step.
    The factors that do not depend on ``dh`` are taken for all steps before
    the loop. The reset and update gates' pre-activation gradients share
    one (L, ..., B, 2H) array, so a step makes one product for both
    recurrent weights. ``in_time_order`` (its own inverse) puts the
    per-step arrays back in time order, and each weight's gradient is one
    product over their flattened (L*...*B) rows, whose order sets the
    sum's bits. Where the visit order is a plain reversal, the per-step
    arrays are reversed views of time-order buffers, so putting them back
    in time order copies nothing.

    Every operation writes into one of the per-step arrays or into a
    step-sized buffer, with the operands and order of the plain
    expressions in the comments.
    """
    r, u, cand = gates
    hidden = states.shape[-1]
    h_prev, pre_h, pre_ru, d_cand, d_update, d_reset = (
        np.empty((*states.shape[:-1], n)) for n in (hidden, hidden, 2 * hidden,
                                                    hidden, hidden, hidden))
    h_prev, pre_h, pre_ru, d_cand = map(in_time_order, (h_prev, pre_h, pre_ru, d_cand))
    h_prev[0], h_prev[1:] = h_init, states[:-1]
    one_minus = pre_h  # 1 - u, then 1 - r, until the loop writes pre_h
    np.subtract(1.0, u, out=one_minus)
    np.multiply(cand, cand, out=d_cand)
    np.subtract(1.0, d_cand, out=d_cand)
    np.multiply(one_minus, d_cand, out=d_cand)  # (1 - u) * (1 - cand * cand)
    np.subtract(h_prev, cand, out=d_update)
    np.multiply(d_update, u, out=d_update)
    np.multiply(d_update, one_minus, out=d_update)  # (h_prev - cand) * u * (1 - u)
    np.subtract(1.0, r, out=one_minus)
    np.multiply(h_prev, r, out=d_reset)
    np.multiply(d_reset, one_minus, out=d_reset)  # h_prev * r * (1 - r)
    recurrent_ru = np.concatenate([c.u_r, c.u_u], axis=1).T
    dh = np.zeros(states.shape[1:])
    d_rh = np.empty(dh.shape)
    for t in reversed(range(len(states))):
        np.add(dh, g[t], out=dh)
        np.multiply(dh, d_cand[t], out=pre_h[t])
        np.multiply(dh, d_update[t], out=pre_ru[t, ..., hidden:])
        np.matmul(pre_h[t], c.u_h.T, out=d_rh)
        np.multiply(d_rh, d_reset[t], out=pre_ru[t, ..., :hidden])
        np.multiply(dh, u[t], out=dh)  # dh = dh * u + d_rh * r + pre_ru @ recurrent_ru
        np.multiply(d_rh, r[t], out=d_rh)
        np.add(dh, d_rh, out=dh)
        np.matmul(pre_ru[t], recurrent_ru, out=d_rh)
        np.add(dh, d_rh, out=dh)
    pre_ru, pre_h, h_prev, r, rh = map(in_time_order, (pre_ru, pre_h, h_prev, r, d_cand))
    grads = {}
    if tracked[0]:  # pre_ru @ W_ru.T + pre_h @ W_h.T
        grads[0] = pre_ru @ np.concatenate([c.w_r, c.w_u], axis=1).T
        np.add(grads[0], pre_h @ c.w_h.T, out=grads[0])
    if tracked[1]:
        grads[1] = dh
    if any(tracked[2:]):
        rows_x, rows_ru, rows_h = _rows(x), _rows(pre_ru), _rows(pre_h)
        g_w, g_u, g_b = rows_x.T @ rows_ru, _rows(h_prev).T @ rows_ru, rows_ru.sum(axis=0)
        weights = {
            "w_r": g_w[:, :hidden], "u_r": g_u[:, :hidden], "b_r": g_b[:hidden],
            "w_u": g_w[:, hidden:], "u_u": g_u[:, hidden:], "b_u": g_b[hidden:],
            "w_h": rows_x.T @ rows_h, "u_h": _rows(np.multiply(r, h_prev, out=rh)).T @ rows_h,
            "b_h": rows_h.sum(axis=0),
        }
        grads.update((i, weights[k]) for i, k in enumerate(GATE_PARAMS, start=2) if tracked[i])
    return grads


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as contiguous (N, n) rows.

    A reshape alone can keep a view's stride (a layer's input at H = 1),
    and numpy multiplies a strided operand without BLAS, in other bits.
    """
    return np.ascontiguousarray(a).reshape(-1, a.shape[-1])


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
    def init(cls, rng: np.random.Generator | None, f_dim: int, hidden: int,
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


def encode(p: RvaeParams, seq, lengths=None) -> tuple[Tensor, Tensor]:
    """Bidirectional pass over the time-major ``seq``; heads read the top layer's final states."""
    for layer in range(ENCODER_LAYERS):
        seq, fused = gru_pass(seq, (p.enc_fwd[layer], p.enc_bwd[layer]), lengths=lengths)
    mu = fused @ p.w_mu + p.b_mu
    logvar = fused @ p.w_logvar + p.b_logvar
    return mu, logvar


def reparameterize(mu: Tensor, logvar: Tensor, eps: np.ndarray | None) -> Tensor:
    """z = mu + sigma * eps with sigma = exp(logvar / 2); eps=None gives z = mu."""
    if eps is None:
        return mu
    return mu + ad.exp(logvar * 0.5) * eps


def decode(p: RvaeParams, z: Tensor, targets: np.ndarray, lengths=None) -> Tensor:
    """Teacher-forced (L, ..., B, F) reconstruction of ``targets`` (..., B, L, F)."""
    shifted = np.moveaxis(targets, -2, 0)
    seq = np.zeros(shifted.shape)
    seq[1:] = shifted[:-1]
    h0s = [z @ w + b for w, b in zip(p.zproj_w, p.zproj_b)]
    return ad.sigmoid(gru_layers(seq, p.dec, h0s, lengths) @ p.w_out + p.b_out)


def pad_batch(seqs) -> tuple[np.ndarray, np.ndarray | None]:
    """(L_i, F) sequences zero-padded into a (K, L, F) batch, L the longest, and their lengths.

    The lengths come back None when all are equal. Every caller gets its
    batches here, so ``lengths=None`` means unpadded and an array padded.
    """
    lengths = np.array([len(s) for s in seqs])
    batch = np.zeros((len(seqs), lengths.max(), seqs[0].shape[-1]))
    for item, s in zip(batch, seqs):
        item[:len(s)] = s
    return batch, None if lengths.min() == lengths.max() else lengths


def rvae_forward(p: RvaeParams, batch: np.ndarray,
                 lengths: np.ndarray | None = None,
                 eps: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Full pass over a batch (..., B, L, F); returns (recons, mu, logvar).

    ``recons`` is the time-major (L, ..., B, F) reconstruction. ``lengths``
    (``pad_batch``) holds the true length of each sequence on the batch's
    first axis: the rows of a (B, L, F) batch, or the items of a
    (K, ..., B, L, F) stack; None runs every sequence to L.
    Every pass runs each sequence to its own length (``gru_pass``), so its
    latent and its reconstruction at its own steps do not depend on its
    padding; the reconstruction of a padded step means nothing.
    """
    mu, logvar = encode(p, np.moveaxis(batch, -2, 0), lengths)
    z = reparameterize(mu, logvar, eps)
    return decode(p, z, batch, lengths), mu, logvar


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
    def init(cls, rng: np.random.Generator | None, f_dim: int,
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
    (L, B, F) reconstruction; the steps past each sequence's ``lengths``
    (``pad_batch``; None: no padded step) add nothing. Returns the
    differentiable total plus the plain-float BCE and KL means for logging.
    """
    batch, steps, _ = targets.shape
    real = (None if lengths is None  # (L, B, 1): 1 at real steps
            else (np.arange(steps)[:, None, None] < lengths[:, None]).astype(np.float64))
    total_bce = bce_sum(np.moveaxis(targets, 1, 0), recons, real)
    total_kl = kl_divergence(mu, logvar)
    scale = 1.0 / batch
    total = (total_bce + total_kl * beta) * scale
    return total, total_bce.item() * scale, total_kl.item() * scale


def beta_schedule(step: int, anneal_steps: int, beta_max: float) -> float:
    """KL weight ramp: 0 at step 0, linear up to beta_max at anneal_steps."""
    if anneal_steps <= 0:
        return beta_max
    return beta_max * min(1.0, step / anneal_steps)
