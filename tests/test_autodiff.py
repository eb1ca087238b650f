"""Tape engine: forward values, backward gradients, finite-difference agreement."""

import collections
import itertools
import operator

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from botdet import autodiff as ad
from botdet.autodiff import Tensor
from botdet.features import N_FEATURES
from botdet import models
from botdet.models import RvaeParams, rvae_forward, vae_loss
from botdet.optim import Adam, clip_global_norm
from botdet.errors import NumericError
from botdet.train import TrainConfig, fit_rvae

from helpers import bits, concat, finite_difference_grad, gradcheck, max_rel_err, tanh


class TestForward:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_matmul_identity(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        out = ad.matmul(Tensor(a), Tensor(np.eye(3)))
        npt.assert_array_equal(out.data, a)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_elementwise_shape_error_names_op(self):
        with pytest.raises(ValueError, match="add"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_concat_and_slice_round_trip(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        c = concat([a, b], axis=1)
        assert c.shape == (2, 5)
        npt.assert_array_equal(c.data[:, :2], a.data)
        npt.assert_array_equal(c.data[:, 2:], b.data)

    def test_clip_values(self):
        out = ad.clip(Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0)
        npt.assert_array_equal(out.data, [0.0, 0.5, 1.0])


class TestBackward:
    def test_sigmoid_grad_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        ad.backward(ad.sigmoid(x))
        npt.assert_allclose(x.grad, 0.25, rtol=1e-12)

    def test_product_grads(self):
        w = Tensor(3.0, requires_grad=True)
        x = Tensor(2.0, requires_grad=True)
        ad.backward(w * x)
        assert w.grad == 2.0 and x.grad == 3.0

    def test_disconnected_param_grad_stays_zero(self):
        w = Tensor(3.0, requires_grad=True)
        unused = Tensor(np.ones(4), requires_grad=True)
        ad.backward(w * 2.0)
        npt.assert_array_equal(unused.grad, np.zeros(4))

    def test_backward_twice_accumulates(self):
        x = Tensor(1.0, requires_grad=True)
        ad.backward(x * 5.0)
        ad.backward(x * 5.0)
        assert x.grad == 10.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(x * 2.0)

    def test_bias_broadcast_grad_sums_over_batch(self):
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        ad.backward(ad.sum_all(x + b))
        npt.assert_array_equal(b.grad, np.full(3, 4.0))

    def test_shared_subexpression_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x  # dy/dx = 2x = 4
        ad.backward(ad.add(y, x))
        npt.assert_allclose(x.grad, 5.0, rtol=1e-12)

    def test_plain_operands_return_arrays_and_record_nothing(self):
        x = np.array([[-1.0, 0.5]])
        w = np.array([[2.0], [3.0]])
        y = ad.sigmoid(ad.matmul(x, w) * 3.0 + ad.take(x, (slice(None), slice(0, 1))))
        assert type(y) is np.ndarray
        taped = ad.sigmoid(ad.matmul(Tensor(x), Tensor(w)) * 3.0 + Tensor(x)[:, :1])
        assert taped._edges == ()  # untracked tensors record nothing either
        npt.assert_array_equal(y, taped.data)


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        x = Tensor(3.0)
        g = finite_difference_grad(lambda t: float(t.data) ** 2, x)
        npt.assert_allclose(g, 6.0, rtol=1e-6)

    def test_sum(self):
        x = Tensor(np.arange(4, dtype=float))
        g = finite_difference_grad(lambda t: float(t.data.sum()), x)
        npt.assert_allclose(g, np.ones(4), rtol=1e-8)

    def test_leaves_input_untouched(self):
        x = Tensor(np.array([1.0, 2.0]))
        before = x.data.copy()
        finite_difference_grad(lambda t: float((t.data ** 3).sum()), x)
        npt.assert_array_equal(x.data, before)


class TestGradcheckPrimitives:
    """Every primitive, random small shapes, analytic vs central differences."""

    def test_linear_sigmoid_chain(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))

        def f():
            return ad.sum_all(ad.sigmoid(ad.matmul(x, w) + b))

        assert gradcheck(f, [w, b]) < 1e-4

    @pytest.mark.parametrize("op", [ad.sigmoid, tanh, ad.relu, ad.exp])
    def test_unary_ops(self, op):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 3)) + 0.05, requires_grad=True)

        def f():
            return ad.sum_all(op(x) * op(x))

        assert gradcheck(f, [x]) < 1e-4

    def test_log_clip(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(0.2, 0.8, size=(4, 3)), requires_grad=True)

        def f():
            return ad.sum_all(ad.log(ad.clip(x, 1e-7, 1.0 - 1e-7)))

        assert gradcheck(f, [x]) < 1e-4

    def test_concat_slice_mix(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        cols = np.array([0.0, 1.0, 1.0, 1.0, 0.0])  # keeps columns 1:4

        def f():
            c = concat([a, b], axis=1)
            return ad.sum_all(tanh(c) * cols)

        assert gradcheck(f, [a, b]) < 1e-4

    def test_sub_neg_mul(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def f():
            return ad.sum_all((1.0 - a) * (-b) - a * 0.5)

        assert gradcheck(f, [a, b]) < 1e-4

    def test_stacked_matmul_take(self):
        rng = np.random.default_rng(29)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)

        def f():
            y = tanh(x @ w)  # (5, 2, 4)
            h = concat([(y[t] * y[t - 1])[None] for t in range(1, 5)], axis=0)
            return ad.sum_all(h * y[1:]) + ad.sum_all(y[None, 2] * y[2:3])

        assert gradcheck(f, [w, x]) < 1e-4


def _piecewise_sigmoid(x: np.ndarray) -> np.ndarray:
    """The two-branch sigmoid the engine used before, kept as the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                 36.7, -36.7, 700.0, -700.0, 745.0, -745.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan, -np.nan]


class TestPlainOperands:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(-50.0, 50.0) | st.sampled_from(SIGMOID_EDGES),
                    max_size=40))
    def test_sigmoid_matches_the_piecewise_formula_bit_for_bit(self, values):
        x = np.array(values + SIGMOID_EDGES)
        ref = _piecewise_sigmoid(x)
        assert bits(ad.sigmoid(x)) == bits(ref)
        t = Tensor(x, requires_grad=True)
        ad.backward(ad.sum_all(ad.sigmoid(t) * 1.0))
        assert bits(t.grad) == bits(1.0 * ref * (1.0 - ref))

    @pytest.mark.parametrize("op", [operator.matmul, operator.add, operator.sub,
                                    operator.mul])
    def test_array_on_the_left_acts_like_a_constant_tensor(self, op):
        rng = np.random.default_rng(23)
        arr, w0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        outs, grads = [], []
        for left in (arr, Tensor(arr)):
            w = Tensor(w0.copy(), requires_grad=True)
            out = op(left, w)
            assert isinstance(out, Tensor) and out._edges
            ad.backward(ad.sum_all(tanh(out)))
            outs.append(out.data)
            grads.append(w.grad)
        assert bits(outs[0]) == bits(outs[1])
        assert bits(grads[0]) == bits(grads[1])


class TestAdam:
    def test_first_step_magnitude(self):
        # g=1: m_hat=1, v_hat=1, step = lr/(1+eps) ~ lr
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad[...] = 1.0
        opt.step()
        npt.assert_allclose(p.data, [-0.01], atol=1e-8)

    def test_zero_grad_leaves_param_unchanged(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        npt.assert_array_equal(p.data, [1.5])

    def test_constant_gradient_step_magnitude_non_increasing(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        prev = None
        for _ in range(5):
            before = p.data.copy()
            p.grad[...] = 1.0
            opt.step()
            ad.zero_grads([p])
            delta = abs(float(p.data[0] - before[0]))
            if prev is not None:
                assert delta <= prev * (1.0 + 1e-9)
            prev = delta

    def test_non_finite_gradient_raises(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p])
        p.grad[...] = np.nan
        with pytest.raises(NumericError):
            opt.step()


class TestClipGlobalNorm:
    def test_norm_above_threshold_scaled(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad[...] = 3.0  # norm 6
        norm = clip_global_norm([p], 5.0)
        npt.assert_allclose(norm, 6.0)
        npt.assert_allclose(np.linalg.norm(p.grad), 5.0)

    def test_norm_below_threshold_untouched(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad[...] = 0.5
        clip_global_norm([p], 5.0)
        npt.assert_array_equal(p.grad, np.full(4, 0.5))

    def test_non_finite_raises(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad[...] = np.inf
        with pytest.raises(NumericError):
            clip_global_norm([p], 5.0)


def test_max_rel_err_helper():
    assert max_rel_err(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_rel_err(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)


# The per-node VJP closures the tape ran before it kept one edge per tracked
# operand: each returned one gradient per operand, constant or not. They are
# the bit-for-bit reference for the edge rules. N-d ``matmul`` and ``take``
# came later; their references are the closures they would have been.
def _old_vjps(name, g, out, xs, axis=None, lo=None, hi=None, index=None):
    unb = ad._unbroadcast
    if name == "add":
        return unb(g, xs[0].shape), unb(g, xs[1].shape)
    if name == "sub":
        return unb(g, xs[0].shape), unb(-g, xs[1].shape)
    if name == "mul":
        return unb(g * xs[1], xs[0].shape), unb(g * xs[0], xs[1].shape)
    if name == "matmul":
        k, n = xs[1].shape
        return g @ xs[1].T, xs[0].reshape(-1, k).T @ g.reshape(-1, n)
    if name == "take":
        grad = np.zeros_like(xs[0])
        grad[index] += g
        return (grad,)
    if name == "concat":
        splits = np.cumsum([x.shape[axis] for x in xs])[:-1]
        return tuple(np.split(g, splits, axis=axis))
    x = xs[0]
    return ({
        "neg": lambda: -g,
        "sigmoid": lambda: g * out * (1.0 - out),
        "tanh": lambda: g * (1.0 - out * out),
        "relu": lambda: g * (x > 0.0),
        "log": lambda: g / x,
        "exp": lambda: g * out,
        "clip": lambda: g * ((x >= lo) & (x <= hi)),
        "sum_all": lambda: np.broadcast_to(g, x.shape).copy(),
    }[name](),)


OPERAND_KINDS = ("tracked", "plain", "constant")


def _operand(kind, arr):
    if kind == "plain":
        return arr.copy()
    return Tensor(arr.copy(), requires_grad=kind == "tracked")


def _check_every_mix(name, fn, arrays, g, **args):
    """Run ``fn`` on every mix of operand kinds against the old closures."""
    ref_out = fn(*arrays)
    assert type(ref_out) is np.ndarray
    for kinds in itertools.product(OPERAND_KINDS, repeat=len(arrays)):
        ops = [_operand(k, a) for k, a in zip(kinds, arrays)]
        out = fn(*ops)
        assert bits(out) == bits(ref_out)
        if all(k == "plain" for k in kinds):
            assert type(out) is np.ndarray
            continue
        tracked = [t for k, t in zip(kinds, ops) if k == "tracked"]
        assert [e[0] for e in out._edges] == tracked
        if not tracked:
            continue
        ad.backward(ad.sum_all(out * g))  # ``out`` receives exactly ``g``
        ref = _old_vjps(name, g, ref_out, arrays, **args)
        for k, t, x, rg in zip(kinds, ops, arrays, ref):
            if k == "tracked":
                assert bits(t.grad) == bits(np.zeros_like(x) + rg), (name, kinds)
            else:
                assert getattr(t, "grad", None) is None


def _floats(shape, lo=-4.0, hi=4.0):
    """Hypothesis-chosen elements, or seeded uniform ones whose products round."""
    uniform = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(lo, hi, size=shape))
    return hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)) | uniform


dims = st.integers(1, 4)
TAKE_INDICES = [0, -1, slice(None), slice(1, None), slice(None, None, -1), None,
                (slice(None), 0), (None, ..., 0)]


class TestEdgeRules:
    @pytest.mark.parametrize("name", ["add", "sub", "mul"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=dims, n=dims, swap=st.booleans(),
           other=st.sampled_from(["same", "row", "row2d", "col", "scalar"]))
    def test_broadcasting_binary_ops(self, name, data, m, n, other, swap):
        shapes = {"same": (m, n), "row": (n,), "row2d": (1, n), "col": (m, 1),
                  "scalar": ()}
        x = data.draw(_floats((m, n)))
        y = data.draw(_floats(shapes[other]))
        g = data.draw(_floats((m, n)))
        arrays = [y, x] if swap else [x, y]
        _check_every_mix(name, getattr(ad, name), arrays, g)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.lists(dims, max_size=2), dims, dims, dims)
    def test_matmul(self, data, lead, m, k, n):
        arrays = [data.draw(_floats((*lead, m, k))), data.draw(_floats((k, n)))]
        _check_every_mix("matmul", ad.matmul, arrays, data.draw(_floats((*lead, m, n))))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), dims, dims, st.sampled_from(TAKE_INDICES))
    def test_take(self, data, m, n, index):
        x = data.draw(_floats((m, n)))
        _check_every_mix("take", lambda a: a[index], [x],
                         data.draw(_floats(x[index].shape)), index=index)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), dims, dims, st.sampled_from(TAKE_INDICES),
           st.sampled_from(TAKE_INDICES), st.booleans())
    def test_operand_taken_twice_and_used_densely(self, data, m, n, i, j, dense):
        x = data.draw(_floats((m, n)))
        small = st.integers(-8, 8).map(float)  # exact sums: the order of adding is free
        gi, gj, gd = (data.draw(hnp.arrays(np.float64, shape, elements=small))
                      for shape in (x[i].shape, x[j].shape, x.shape))
        a = Tensor(x, requires_grad=True)
        c = Tensor(np.zeros_like(x), requires_grad=True)
        loss = ad.sum_all(a[i] * gi) + ad.sum_all(a[j] * gj)
        if dense:  # ``a + c`` hands ``a`` and ``c`` one array, and ``c`` is visited last
            loss = (ad.sum_all((a + c) * gd) + loss) + ad.sum_all(c * gd)
        ad.backward(loss)
        ref = gd.copy() if dense else np.zeros_like(x)
        ref[i] += gi
        ref[j] += gj
        assert bits(a.grad) == bits(ref)
        assert bits(c.grad) == bits(gd + gd if dense else np.zeros_like(x))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.lists(dims, min_size=1, max_size=3), dims,
           st.sampled_from([0, 1, -1]))
    def test_concat(self, data, widths, m, axis):
        shapes = [(w, m) if axis == 0 else (m, w) for w in widths]
        arrays = [data.draw(_floats(s)) for s in shapes]
        total = (sum(widths), m) if axis == 0 else (m, sum(widths))
        _check_every_mix("concat", lambda *ts: concat(ts, axis=axis), arrays,
                         data.draw(_floats(total)), axis=axis)

    @pytest.mark.parametrize("name", ["neg", "sigmoid", "tanh", "relu", "log", "exp",
                                      "clip", "sum_all"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), m=dims, n=dims)
    def test_unary_ops(self, name, data, m, n):
        lo, hi = (-0.5, 0.5) if name == "clip" else (None, None)
        x = data.draw(_floats((m, n), 1e-3, 4.0) if name == "log" else _floats((m, n)))
        if name == "clip":
            x[0, 0] = lo  # the interval is closed: its ends pass gradient
        fn = {"clip": lambda a: ad.clip(a, lo, hi), "tanh": tanh}.get(name) or getattr(ad, name)
        g = data.draw(_floats(() if name == "sum_all" else (m, n)))
        _check_every_mix(name, fn, [x], g, lo=lo, hi=hi)


def test_masked_update_evaluates_one_rule_per_tracked_edge():
    rng = np.random.default_rng(5)
    batch_size, steps = 16, 60
    p = RvaeParams.init(rng, N_FEATURES, 64, 16)
    batch = rng.uniform(0.0, 1.0, size=(batch_size, steps, N_FEATURES))
    lengths = rng.integers(1, steps + 1, size=batch_size)
    lengths[0] = steps
    recons, mu, lv = rvae_forward(p, batch, lengths=lengths,
                                  eps=rng.standard_normal((batch_size, 16)))
    loss, _, _ = vae_loss(batch, recons, mu, lv, beta=0.5, lengths=lengths)

    nodes, stack, seen = [], [loss], {id(loss)}
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent, _, _ in node._edges:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    calls = collections.Counter()

    def counted(rule, key):
        def run(g, saved):
            calls[key] += 1
            return rule(g, saved)
        return run

    n_edges = 0
    for node in nodes:
        edges = []
        for parent, rule, saved in node._edges:
            assert isinstance(parent, Tensor)
            assert parent.requires_grad or parent._edges
            name = getattr(rule, "__qualname__", rule.__name__)
            assert "<lambda>" not in name and "<locals>" not in name, name
            edges.append((parent, counted(rule, n_edges), saved))
            n_edges += 1
        node._edges = tuple(edges)
    ad.backward(loss)
    assert n_edges == 109
    assert sorted(calls) == list(range(n_edges))
    assert set(calls.values()) == {1}


def test_one_training_update_builds_fewer_than_100_tensors(monkeypatch):
    """Each GRU pass is one tape node, so an update's tape does not grow with L."""
    rng = np.random.default_rng(6)
    seqs = [rng.uniform(0.0, 1.0, size=(n, N_FEATURES)) for n in rng.integers(1, 61, 16)]
    seqs[0] = rng.uniform(0.0, 1.0, size=(60, N_FEATURES))
    counts = collections.Counter()
    init, beta_schedule = Tensor.__init__, models.beta_schedule

    def counted_init(tensor, data, requires_grad=False):
        counts["tensors"] += 1
        init(tensor, data, requires_grad)

    def update_starts(*args):
        counts["before_update"] = counts["tensors"]
        return beta_schedule(*args)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(models, "beta_schedule", update_starts)
    _, log = fit_rvae(seqs, N_FEATURES, TrainConfig(epochs=1, batch_size=16, hidden=8,
                                                    latent=4, anneal_steps=2))
    assert log.n_updates == 1
    assert counts["tensors"] - counts["before_update"] < 100
