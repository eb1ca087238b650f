"""Model components: GRU semantics, latent heads, losses, schedules."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdet import autodiff as ad
from botdet import models as m
from botdet.autodiff import Tensor, backward, zero_grads

from helpers import (bits, concat, gradcheck, gru_cell, input_projections, make_mask,
                     per_step_gru_pass, per_step_rvae_loss, tanh)


def zero_all(params) -> None:
    for t in params.parameters() if hasattr(params, "parameters") else params:
        t.data[...] = 0.0


def rand_rvae(seed=0, f=3, h=4, d=2):
    return m.RvaeParams.init(np.random.default_rng(seed), f, h, d)


class TestGruCell:
    def test_zero_weights_halve_previous_state(self):
        w = m.GruCellWeights.init(np.random.default_rng(0), 3, 4)
        zero_all([t for t in w.named("x").values()])
        h0 = Tensor(np.full((1, 4), 0.8))
        states, out = m.gru_pass(np.zeros((1, 1, 3)), w, h0=h0)
        npt.assert_allclose(out.data, 0.4)  # u = sigmoid(0) = 0.5, cand = 0
        assert bits(states[0]) == bits(out)

    def test_zero_everything_stays_zero(self):
        w = m.GruCellWeights.init(np.random.default_rng(0), 3, 4)
        zero_all(list(w.named("x").values()))
        states, out = m.gru_pass(Tensor(np.zeros((5, 2, 3))), w, reverse=True)
        npt.assert_array_equal(states.data, np.zeros((5, 2, 4)))
        npt.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_gradcheck_cell(self):
        """The per-step reference cell itself agrees with finite differences."""
        rng = np.random.default_rng(3)
        w = m.GruCellWeights.init(rng, 3, 4)
        x = Tensor(rng.normal(size=(2, 3)))
        h0 = Tensor(rng.normal(size=(2, 4)))
        params = list(w.named("c").values())

        def f():
            return ad.sum_all(tanh(gru_cell(input_projections(x, w), h0, w)))

        assert gradcheck(f, params) < 1e-4


class TestEncoder:
    def test_zero_weights_heads_emit_biases(self):
        p = rand_rvae()
        zero_all(p)
        p.b_mu.data[...] = [0.3, -0.2]
        p.b_logvar.data[...] = [0.1, 0.4]
        xs = Tensor(np.zeros((3, 1, 3)))
        mu, logvar = m.encode(p, xs)
        npt.assert_allclose(mu.data, [[0.3, -0.2]])
        npt.assert_allclose(logvar.data, [[0.1, 0.4]])

    def test_length_one_directions_agree_with_tied_weights(self):
        p = rand_rvae(seed=5)
        for fwd, bwd in zip(p.enc_fwd, p.enc_bwd):
            for k in ("w_r", "u_r", "b_r", "w_u", "u_u", "b_u", "w_h", "u_h", "b_h"):
                getattr(bwd, k).data[...] = getattr(fwd, k).data
        xs = Tensor(np.random.default_rng(6).normal(size=(2, 3))[None])
        states_f, hf = m.gru_pass(xs, p.enc_fwd[0])
        states_b, hb = m.gru_pass(xs, p.enc_fwd[0], reverse=True)
        npt.assert_array_equal(hf.data, hb.data)

    def test_permuting_elements_changes_mu(self):
        p = rand_rvae(seed=7)
        rng = np.random.default_rng(8)
        batch = rng.uniform(0, 1, size=(1, 5, 3))
        _, mu_a, _ = m.rvae_forward(p, batch)
        perm = batch[:, ::-1, :].copy()
        _, mu_b, _ = m.rvae_forward(p, perm)
        assert np.max(np.abs(mu_a.data - mu_b.data)) > 1e-9

    def test_masked_padding_matches_unpadded(self):
        p = rand_rvae(seed=9)
        rng = np.random.default_rng(10)
        seq = rng.uniform(0, 1, size=(1, 3, 3))
        _, mu_short, _ = m.rvae_forward(p, seq)
        padded = np.zeros((1, 6, 3))
        padded[:, :3, :] = seq
        xs = Tensor(np.moveaxis(padded, 1, 0))
        mu_pad, _ = m.encode(p, xs, lengths=np.array([3]))
        npt.assert_allclose(mu_pad.data, mu_short.data, rtol=1e-12)


    def test_one_encode_runs_one_two_direction_pass_per_layer(self, monkeypatch):
        passes, gru_pass = [], m.gru_pass

        def counted(xs, w, **kwargs):
            passes.append(w)
            return gru_pass(xs, w, **kwargs)

        monkeypatch.setattr(m, "gru_pass", counted)
        p = rand_rvae(seed=9)
        xs = np.random.default_rng(10).uniform(0, 1, size=(4, 2, 3))
        for params in (p, m.plain(p)):
            passes.clear()
            mu, _ = m.encode(params, xs)
            assert mu.shape == (2, 2)
            assert len(passes) == m.ENCODER_LAYERS
            assert all(f is pf and b is pb for (f, b), pf, pb
                       in zip(passes, params.enc_fwd, params.enc_bwd))


class TestLatent:
    def test_eps_none_returns_mu(self):
        mu = Tensor(np.array([[1.0, 2.0]]))
        lv = Tensor(np.array([[0.3, -0.1]]))
        z = m.reparameterize(mu, lv, None)
        assert z is mu

    def test_unit_gaussian_passthrough(self):
        mu = Tensor(np.zeros((1, 3)))
        lv = Tensor(np.zeros((1, 3)))
        eps = np.array([[0.5, -1.0, 2.0]])
        z = m.reparameterize(mu, lv, eps)
        npt.assert_allclose(z.data, eps)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(11)
        n = 100_000
        mu = Tensor(np.full((n, 1), 1.0))
        lv = Tensor(np.full((n, 1), math.log(0.25)))  # sigma = 0.5
        z = m.reparameterize(mu, lv, rng.standard_normal((n, 1))).data
        assert abs(z.mean() - 1.0) < 3 * 0.5 / math.sqrt(n)
        assert abs(z.std() - 0.5) < 0.01

    def test_kl_closed_forms(self):
        zero = m.kl_divergence(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
        assert zero.item() == 0.0
        kl = m.kl_divergence(Tensor(np.array([[1.0, 0.0]])), Tensor(np.zeros((1, 2))))
        npt.assert_allclose(kl.item(), 0.5, rtol=1e-12)

    def test_kl_non_negative_everywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            mu = Tensor(rng.normal(scale=3, size=(1, 5)))
            lv = Tensor(rng.normal(scale=2, size=(1, 5)))
            assert m.kl_divergence(mu, lv).item() >= 0.0

    def test_kl_gradcheck(self):
        rng = np.random.default_rng(13)
        mu = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        lv = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def f():
            return m.kl_divergence(mu, lv)

        assert gradcheck(f, [mu, lv]) < 1e-4


class TestDecoder:
    def test_zero_weights_emit_sigmoid_bias(self):
        p = rand_rvae()
        zero_all(p)
        p.b_out.data[...] = [0.5, -0.5, 0.0]
        targets = np.random.default_rng(1).uniform(0, 1, size=(2, 4, 3))
        outs = m.decode(p, Tensor(np.zeros((2, 2))), targets)
        expect = 1.0 / (1.0 + np.exp(-np.array([0.5, -0.5, 0.0])))
        for out in outs:
            npt.assert_allclose(out.data, np.tile(expect, (2, 1)))

    def test_outputs_in_unit_interval(self):
        p = rand_rvae(seed=21)
        batch = np.random.default_rng(22).uniform(0, 1, size=(3, 5, 3))
        recons, _, _ = m.rvae_forward(p, batch)
        for r in recons:
            assert r.data.min() > 0.0 and r.data.max() < 1.0

    def test_one_decode_runs_one_pass_for_all_layers(self, monkeypatch):
        passes, gru_layers = [], m.gru_layers

        def counted(xs, cells, h0s, lengths=None):
            passes.append((cells, len(h0s)))
            return gru_layers(xs, cells, h0s, lengths)

        def single(*args, **kwargs):
            raise AssertionError("decode ran a single-layer gru_pass")

        monkeypatch.setattr(m, "gru_layers", counted)
        monkeypatch.setattr(m, "gru_pass", single)
        p = rand_rvae(seed=23)
        targets = np.random.default_rng(24).uniform(0, 1, size=(2, 4, 3))
        for params, z in ((p, Tensor(np.ones((2, 2)))), (m.plain(p), np.ones((2, 2)))):
            passes.clear()
            recons = m.decode(params, z, targets)
            assert recons.shape == (4, 2, 3)
            assert len(passes) == 1
            cells, n_h0 = passes[0]
            assert len(cells) == n_h0 == m.DECODER_LAYERS
            assert all(c is pc for c, pc in zip(cells, params.dec))


class TestLoss:
    def test_uniform_half_gives_n_f_ln2(self):
        p = rand_rvae(f=4)
        zero_all(p)  # reconstructions are exactly 0.5
        n, f = 6, 4
        targets = np.full((1, n, f), 0.5)
        recons, mu, lv = m.rvae_forward(p, targets)
        total, bce, kl = m.vae_loss(targets, recons, mu, lv, beta=0.0)
        npt.assert_allclose(total.item(), n * f * math.log(2), rtol=1e-12)
        assert kl == 0.0

    def test_beta_weights_kl_exactly(self):
        p = rand_rvae(seed=31)
        targets = np.random.default_rng(32).uniform(0, 1, size=(2, 3, 3))
        recons, mu, lv = m.rvae_forward(p, targets)
        t0, bce, kl = m.vae_loss(targets, recons, mu, lv, beta=0.0)
        t1, _, _ = m.vae_loss(targets, recons, mu, lv, beta=1.0)
        t2, _, _ = m.vae_loss(targets, recons, mu, lv, beta=2.0)
        npt.assert_allclose(t1.item() - t0.item(), kl, rtol=1e-9)
        npt.assert_allclose(t2.item() - t0.item(), 2 * kl, rtol=1e-9)

    def test_targets_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            m.bce_sum(np.array([[1.5]]), Tensor(np.array([[0.5]])))

    def test_batch_average_of_identical_sequences_matches_single(self):
        p = rand_rvae(seed=33)
        seq = np.random.default_rng(34).uniform(0, 1, size=(1, 4, 3))
        recons1, mu1, lv1 = m.rvae_forward(p, seq)
        single, _, _ = m.vae_loss(seq, recons1, mu1, lv1, beta=0.7)
        rep = np.repeat(seq, 5, axis=0)
        recons5, mu5, lv5 = m.rvae_forward(p, rep)
        mean5, _, _ = m.vae_loss(rep, recons5, mu5, lv5, beta=0.7)
        npt.assert_allclose(mean5.item(), single.item(), rtol=1e-9)

    def test_end_to_end_gradcheck(self):
        rng = np.random.default_rng(35)
        p = rand_rvae(seed=36, f=3, h=4, d=2)
        batch = rng.uniform(0.1, 0.9, size=(2, 3, 3))
        eps = rng.standard_normal((2, 2))

        def f():
            recons, mu, lv = m.rvae_forward(p, batch, eps=eps)
            total, _, _ = m.vae_loss(batch, recons, mu, lv, beta=0.5)
            return total

        assert gradcheck(f, p.parameters()) < 1e-4


class TestBetaSchedule:
    def test_endpoints_and_midpoint(self):
        assert m.beta_schedule(0, 500, 1.0) == 0.0
        assert m.beta_schedule(250, 500, 1.0) == 0.5
        assert m.beta_schedule(500, 500, 1.0) == 1.0
        assert m.beta_schedule(10_000, 500, 1.0) == 1.0

    def test_scales_with_beta_max(self):
        assert m.beta_schedule(250, 500, 4.0) == 2.0

    def test_zero_anneal_steps_is_constant(self):
        assert m.beta_schedule(0, 0, 0.3) == 0.3


class TestMlpVae:
    def test_zero_weights_emit_sigmoid_bias(self):
        p = m.MlpVaeParams.init(np.random.default_rng(41), 4, hidden=(8, 8, 16), latent=3)
        zero_all(p)
        p.b_out.data[...] = [1.0, 0.0, -1.0, 2.0]
        recon, mu, lv = m.mlp_forward(p, np.random.default_rng(42).uniform(size=(2, 4)))
        expect = 1.0 / (1.0 + np.exp(-p.b_out.data))
        npt.assert_allclose(recon.data, np.tile(expect, (2, 1)))
        npt.assert_array_equal(mu.data, np.zeros((2, 3)))

    def test_head_kl_at_zero_weights_uses_biases(self):
        p = m.MlpVaeParams.init(np.random.default_rng(43), 4, hidden=(8,), latent=2)
        zero_all(p)
        p.b_mu.data[...] = [0.5, -0.5]
        p.b_logvar.data[...] = [0.2, 0.0]
        _, mu, lv = m.mlp_forward(p, np.zeros((1, 4)))
        expect = 0.5 * np.sum(p.b_mu.data ** 2 + np.exp(p.b_logvar.data)
                              - p.b_logvar.data - 1.0)
        npt.assert_allclose(m.kl_divergence(mu, lv).item(), expect, rtol=1e-12)

    def test_layer_shapes_follow_config(self):
        p = m.MlpVaeParams.init(np.random.default_rng(44), 25, hidden=(32, 32, 64), latent=10)
        assert [w.shape for w, _ in p.enc] == [(25, 32), (32, 32), (32, 64)]
        assert p.w_mu.shape == (64, 10)
        assert [w.shape for w, _ in p.dec] == [(10, 64), (64, 32), (32, 32)]
        assert p.w_out.shape == (32, 25)

    def test_gradcheck(self):
        rng = np.random.default_rng(45)
        p = m.MlpVaeParams.init(rng, 3, hidden=(4, 6), latent=2)
        x = rng.uniform(0.1, 0.9, size=(2, 3))
        eps = rng.standard_normal((2, 2))

        def f():
            recon, mu, lv = m.mlp_forward(p, x, eps=eps)
            total, _, _ = m.vae_loss(x[:, None, :], recon[None], mu, lv, beta=0.5)
            return total

        assert gradcheck(f, p.parameters()) < 1e-4


def test_named_parameters_are_stable_and_unique():
    p = rand_rvae()
    names = list(p.named_parameters())
    assert len(names) == len(set(names))
    assert names == list(rand_rvae().named_parameters())


def _same_forward(taped, bare) -> None:
    """Taped outputs are Tensors on a tape; plain ones are bit-equal bare arrays."""
    recons_t, mu_t, lv_t = taped
    recons_p, mu_p, lv_p = bare
    assert isinstance(mu_t, Tensor) and mu_t._edges
    assert all(type(x) is np.ndarray for x in (recons_p, mu_p, lv_p))
    for t, p in zip([recons_t, mu_t, lv_t], [recons_p, mu_p, lv_p]):
        assert t.shape == p.shape and bits(t) == bits(p)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 3), steps=st.integers(1, 8), masked=st.booleans(),
       sample=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_rvae_forward_on_plain_params_is_bit_identical(batch, steps, masked, sample, seed):
    rng = np.random.default_rng(seed)
    p = m.RvaeParams.init(rng, 3, 4, 2)
    x = rng.uniform(0, 1, size=(batch, steps, 3))
    lengths = rng.integers(1, steps + 1, size=batch) if masked else None
    if masked:
        x[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
    eps = rng.standard_normal((batch, 2)) if sample else None
    taped = m.rvae_forward(p, x, lengths, eps)
    _same_forward(taped, m.rvae_forward(m.plain(p), x, lengths, eps))


GRAD_RTOL = 1e-10  # one-node BPTT vs per-step gradients: float reassociation only


def _lengths(steps):
    """Per-sequence lengths in 1..steps; the ends 1 and steps are drawn often."""
    return st.integers(1, steps) | st.sampled_from([1, steps])


def _close(grad, ref) -> bool:
    return np.max(np.abs(grad - ref)) <= GRAD_RTOL * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), batch=st.integers(1, 4), steps=st.integers(1, 12),
       hidden=st.integers(1, 6), masked=st.booleans(), sample=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_pass_matches_the_per_step_pass(data, batch, steps, hidden, masked, sample,
                                                seed):
    """Forward bits equal; each gradient within GRAD_RTOL of its largest reference element."""
    rng = np.random.default_rng(seed)
    p = m.RvaeParams.init(rng, 3, hidden, 2)
    x = rng.uniform(0, 1, size=(batch, steps, 3))
    lengths = np.array(data.draw(st.lists(_lengths(steps), min_size=batch,
                                          max_size=batch))) if masked else None
    eps = rng.standard_normal((batch, 2)) if sample else None
    recons, mu, lv = m.rvae_forward(p, x, lengths, eps)
    total, _, _ = m.vae_loss(x, recons, mu, lv, beta=0.5, lengths=lengths)
    zero_grads(p.parameters())
    backward(total)
    grads = {k: v.grad.copy() for k, v in p.named_parameters().items()}
    ref_recons, ref_mu, ref_lv, ref_total = per_step_rvae_loss(p, x, lengths, eps, 0.5)
    assert recons.shape == (steps, batch, 3)
    assert [bits(recons[t]) for t in range(steps)] == [bits(r) for r in ref_recons]
    assert bits(mu) == bits(ref_mu) and bits(lv) == bits(ref_lv)
    assert abs(total.item() - ref_total.item()) <= GRAD_RTOL * abs(ref_total.item())
    zero_grads(p.parameters())
    backward(ref_total)
    for k, v in p.named_parameters().items():
        assert _close(grads[k], v.grad), k


@settings(max_examples=80, deadline=None)
@given(data=st.data(), batch=st.integers(1, 4), steps=st.integers(1, 10),
       n_in=st.integers(1, 5), hidden=st.integers(1, 6), masked=st.booleans(),
       reverse=st.booleans(), with_h0=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gru_pass_gradients_of_xs_and_h0_match_the_per_step_pass(
        data, batch, steps, n_in, hidden, masked, reverse, with_h0, seed):
    """One pass with tracked ``xs`` and ``h0`` against the per-step reference, padded or not.

    The reference's mask keeps a padded step's state, and ``lengths`` runs
    each row to its own length, so only the real steps' states are
    compared, and the loss reads no padded state.
    """
    rng = np.random.default_rng(seed)
    w = m.GruCellWeights.init(rng, n_in, hidden)
    lengths = np.array(data.draw(st.lists(_lengths(steps), min_size=batch, max_size=batch)))
    mask = make_mask(lengths, steps) if masked else None
    real = np.arange(steps)[:, None] < (lengths if masked else np.full(batch, steps))
    xs0 = rng.normal(size=(steps, batch, n_in))
    h00 = rng.normal(size=(batch, hidden)) if with_h0 else None
    g_states = rng.normal(size=(steps, batch, hidden)) * real[..., None]
    g_final = rng.normal(size=(batch, hidden))
    runs = []
    for per_step in (False, True):
        xs = Tensor(xs0.copy(), requires_grad=True)
        h0 = None if h00 is None else Tensor(h00.copy(), requires_grad=True)
        zero_grads(list(w.named("c").values()))
        if per_step:
            states, final = per_step_gru_pass([xs[t] for t in range(steps)], w, mask, h0,
                                              reverse)
            states = concat([s_t[None] for s_t in states], axis=0)
        else:
            states, final = m.gru_pass(xs, w, h0, reverse, lengths if masked else None)
        loss = ad.sum_all(states * g_states) + ad.sum_all(final * g_final)
        backward(loss)
        grads = {k: v.grad.copy() for k, v in w.named("c").items()}
        grads["xs"] = xs.grad
        if h0 is not None:
            grads["h0"] = h0.grad
        runs.append((bits(states.data[real]), bits(final), grads))
    (states, final, grads), (ref_states, ref_final, ref_grads) = runs
    assert states == ref_states and final == ref_final
    assert grads.keys() == ref_grads.keys()
    for k, ref in ref_grads.items():
        assert _close(grads[k], ref), k


@settings(max_examples=60, deadline=None)
@given(data=st.data(), stack=st.integers(1, 3), batch=st.integers(1, 4),
       steps=st.integers(1, 10), n_in=st.integers(1, 5), hidden=st.integers(1, 6),
       masked=st.booleans(), with_h0=st.booleans(), taped_weights=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_two_direction_pass_equals_two_single_direction_passes(
        data, stack, batch, steps, n_in, hidden, masked, with_h0, taped_weights, seed):
    """States, finals and every gradient bit for bit; a plain pass gives the taped bits.

    Padded items lie on the stack axis, longest first. The taped pass runs
    every item to L and the plain one only each item's own steps, so
    there the two are compared at real steps.
    """
    rng = np.random.default_rng(seed)
    cells = tuple(m.GruCellWeights.init(rng, n_in, hidden) for _ in range(2))
    if not taped_weights:
        cells = tuple(m.plain(c) for c in cells)
    weights = {f"{d}.{k}": v for d, c in enumerate(cells) for k, v in c.named("c").items()}
    lengths = np.array(sorted(data.draw(st.lists(_lengths(steps), min_size=stack,
                                                 max_size=stack)), reverse=True))
    lengths = lengths if masked else None
    real = np.arange(steps)[:, None] < (np.full(stack, steps) if lengths is None else lengths)
    xs0 = rng.normal(size=(steps, stack, batch, n_in))
    h00 = rng.normal(size=(stack, batch, hidden)) if with_h0 else None
    g_states = rng.normal(size=(steps, stack, batch, 2 * hidden))
    g_final = rng.normal(size=(stack, batch, 2 * hidden))
    fwd, bwd = slice(0, hidden), slice(hidden, None)
    runs = []
    for stacked in (True, False):
        xs = Tensor(xs0.copy(), requires_grad=True)
        h0 = None if h00 is None else Tensor(h00.copy(), requires_grad=True)
        if taped_weights:
            zero_grads(weights.values())
        if stacked:
            states, final = m.gru_pass(xs, cells, h0, lengths=lengths)
            loss = ad.sum_all(states * g_states) + ad.sum_all(final * g_final)
            taped_states, states, final = states.data, bits(states), bits(final)
        else:
            states_f, final_f = m.gru_pass(xs, cells[0], h0, lengths=lengths)
            states_b, final_b = m.gru_pass(xs, cells[1], h0, reverse=True, lengths=lengths)
            loss = (ad.sum_all(states_f * g_states[..., fwd])
                    + ad.sum_all(states_b * g_states[..., bwd])
                    + ad.sum_all(final_f * g_final[..., fwd])
                    + ad.sum_all(final_b * g_final[..., bwd]))
            states = bits(np.concatenate([states_f.data, states_b.data], axis=-1))
            final = bits(np.concatenate([final_f.data, final_b.data], axis=-1))
        backward(loss)
        grads = {k: bits(v.grad) for k, v in weights.items() if taped_weights}
        grads["xs"] = bits(xs.grad)
        if h0 is not None:
            grads["h0"] = bits(h0.grad)
        runs.append((states, final, grads))
    (states, final, grads), (ref_states, ref_final, ref_grads) = runs
    assert states == ref_states and final == ref_final
    assert len(grads) == (18 if taped_weights else 0) + 1 + with_h0
    assert grads == ref_grads
    plain_states, plain_final = m.gru_pass(xs0, tuple(m.plain(c) for c in cells), h00,
                                           lengths=lengths)
    assert type(plain_states) is np.ndarray and bits(plain_final) == final
    assert bits(plain_states[real]) == bits(taped_states[real])


@settings(max_examples=60, deadline=None)
@given(stack=st.integers(1, 3), batch=st.sampled_from([1, 2, 4]), steps=st.integers(1, 10),
       n_in=st.integers(1, 5), hidden=st.integers(1, 6),
       with_h0=st.tuples(st.booleans(), st.booleans()), taped_weights=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_layer_pass_equals_two_single_layer_passes(stack, batch, steps, n_in, hidden, with_h0,
                                                   taped_weights, seed):
    """Top states, final state and every gradient bit for bit; a plain pass gives the taped bits."""
    rng = np.random.default_rng(seed)
    cells = [m.GruCellWeights.init(rng, n, hidden) for n in (n_in, hidden)]
    if not taped_weights:
        cells = [m.plain(c) for c in cells]
    weights = {f"{i}.{k}": v for i, c in enumerate(cells) for k, v in c.named("c").items()}
    xs0 = rng.normal(size=(steps, stack, batch, n_in))
    h00 = [rng.normal(size=(stack, batch, hidden)) if w else None for w in with_h0]
    g_states = rng.normal(size=(steps, stack, batch, hidden))
    runs = []
    for stacked in (True, False):
        xs = Tensor(xs0.copy(), requires_grad=True)
        h0s = [None if h is None else Tensor(h.copy(), requires_grad=True) for h in h00]
        if taped_weights:
            zero_grads(weights.values())
        if stacked:
            states = m.gru_layers(xs, cells, h0s)
            final = states.data[-1]
        else:
            below, _ = m.gru_pass(xs, cells[0], h0=h0s[0])
            states, final = m.gru_pass(below, cells[1], h0=h0s[1])
            final = final.data
        backward(ad.sum_all(states * g_states))
        grads = {k: bits(v.grad) for k, v in weights.items() if taped_weights}
        grads["xs"] = bits(xs.grad)
        grads.update((f"h0.{i}", bits(h.grad)) for i, h in enumerate(h0s) if h is not None)
        runs.append((bits(states), bits(final), grads))
    (states, final, grads), (ref_states, ref_final, ref_grads) = runs
    assert states == ref_states and final == ref_final
    assert len(grads) == (18 if taped_weights else 0) + 1 + sum(with_h0)
    assert grads == ref_grads
    plain_states = m.gru_layers(xs0, [m.plain(c) for c in cells], h00)
    assert type(plain_states) is np.ndarray and bits(plain_states) == states


@settings(max_examples=60, deadline=None)
@given(data=st.data(), batch=st.integers(1, 8), steps=st.integers(1, 12),
       hidden=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_padded_values_change_no_bit_of_a_training_update(data, batch, steps, hidden, seed):
    """New values at a batch's padded steps change no bit of the loss, latent or gradients."""
    rng = np.random.default_rng(seed)
    p = m.RvaeParams.init(rng, 3, hidden, 2)
    lengths = np.array(data.draw(st.lists(_lengths(steps), min_size=batch, max_size=batch)))
    padded = np.arange(steps)[None, :] >= lengths[:, None]
    x = rng.uniform(0, 1, size=(batch, steps, 3))
    eps = rng.standard_normal((batch, 2))
    runs = []
    for _ in range(2):
        recons, mu, lv = m.rvae_forward(p, x, lengths, eps)
        total, _, _ = m.vae_loss(x, recons, mu, lv, beta=0.5, lengths=lengths)
        zero_grads(p.parameters())
        backward(total)
        runs.append((bits(total), bits(mu), bits(lv),
                     {k: bits(v.grad) for k, v in p.named_parameters().items()}))
        x = x.copy()
        x[padded] = rng.uniform(0, 1, size=(int(padded.sum()), 3))
    assert runs[0] == runs[1]


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=16),
       f=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_pad_batch_zero_pads_and_returns_no_lengths_for_equal_ones(lengths, f, seed):
    """Each item holds its sequence's bits, then zeros; lengths are None exactly when equal."""
    rng = np.random.default_rng(seed)
    seqs = [rng.uniform(0, 1, size=(n, f)) for n in lengths]
    batch, got = m.pad_batch(seqs)
    assert batch.shape == (len(seqs), max(lengths), f)
    for item, seq in zip(batch, seqs):
        assert bits(item[:len(seq)]) == bits(seq)
        assert not item[len(seq):].any()
    if len(set(lengths)) == 1:
        assert got is None
    else:
        assert got.tolist() == lengths


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 8), steps=st.integers(1, 12), f=st.integers(1, 6),
       hidden=st.sampled_from([1, 3, 8, 16]), seed=st.integers(0, 2**32 - 1))
def test_lengths_all_l_give_the_unpadded_update_bit_for_bit(batch, steps, f, hidden, seed):
    """A taped update with ``np.full(B, L)`` gives the bits of ``lengths=None``."""
    rng = np.random.default_rng(seed)
    p = m.RvaeParams.init(rng, f, hidden, 2)
    x = rng.uniform(0, 1, size=(batch, steps, f))
    eps = rng.standard_normal((batch, 2))
    runs = []
    for lengths in (None, np.full(batch, steps)):
        recons, mu, lv = m.rvae_forward(p, x, lengths, eps)
        total, _, _ = m.vae_loss(x, recons, mu, lv, beta=0.5, lengths=lengths)
        zero_grads(p.parameters())
        backward(total)
        runs.append((bits(total), bits(recons), bits(mu), bits(lv),
                     {k: bits(v.grad) for k, v in p.named_parameters().items()}))
    assert runs[0] == runs[1]


def test_lengths_outside_one_to_l_are_refused():
    cell = m.GruCellWeights.init(np.random.default_rng(0), 2, 3)
    for lengths in ([0, 3], [4, 1]):
        with pytest.raises(ValueError, match=r"1\.\.L"):
            m.gru_pass(np.zeros((3, 2, 2)), cell, lengths=np.array(lengths))


def test_lengths_that_rise_along_a_stack_axis_are_refused():
    """Items on a stack axis come longest first; GEMM rows may come in any order."""
    cells = tuple(m.plain(m.GruCellWeights.init(np.random.default_rng(d), 2, 3)) for d in (0, 1))
    with pytest.raises(ValueError, match="stack axis"):
        m.gru_pass(np.zeros((3, 2, 1, 2)), cells, lengths=np.array([1, 3]))
    states, final = m.gru_pass(np.zeros((3, 2, 2)), cells, lengths=np.array([1, 3]))
    assert states.shape == (3, 2, 6) and final.shape == (2, 6)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 3), hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       sample=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mlp_forward_on_plain_params_is_bit_identical(batch, hidden, sample, seed):
    rng = np.random.default_rng(seed)
    p = m.MlpVaeParams.init(rng, 3, hidden=tuple(hidden), latent=2)
    x = rng.uniform(0, 1, size=(batch, 3))
    eps = rng.standard_normal((batch, 2)) if sample else None
    recon_t, mu_t, lv_t = m.mlp_forward(p, x, eps)
    recon_p, mu_p, lv_p = m.mlp_forward(m.plain(p), x, eps)
    _same_forward((recon_t, mu_t, lv_t), (recon_p, mu_p, lv_p))


def test_plain_shares_every_array_and_keeps_the_record_type():
    for p in (rand_rvae(), m.MlpVaeParams.init(np.random.default_rng(2), 3, (4, 5), 2)):
        bare = m.plain(p)
        assert type(bare) is type(p) and bare.hidden == p.hidden
        named, bare_named = p.named_parameters(), bare.named_parameters()
        assert list(bare_named) == list(named)
        assert all(bare_named[k] is v.data for k, v in named.items())


STACKING = ("stacked scoring (scoring.score_sequences, models.gru_pass on plain arrays) "
            "relies on numpy running a stacked product as one kernel call per leading "
            "index, so that its bits equal the unstacked product's; this numpy/BLAS "
            "build breaks that, and stacked scores would drift from scoring one "
            "sequence at a time")

STEP_STACKING = ("models.gru_pass's step, which training, batch scoring and streaming all "
                 "run, multiplies every direction's state by both gates' recurrent weights "
                 "stacked on a leading axis, writing into a slice of a buffer, and relies on "
                 "each stacked item getting the bits of its own (B,H)@(H,H) product; this "
                 "numpy/BLAS build breaks that, and the two-direction encoder pass would "
                 "drift from two single-direction passes")

LAYER_STACKING = ("models.gru_layers projects each upper decoder layer's input one step at "
                  "a time, from the state the layer below just wrote, against (W_r, W_u, "
                  "W_h) stacked on a leading axis, and relies on that giving the bits of the "
                  "single-layer pass's (L,K,B,H)@(H,H) projection of the layer below's "
                  "states; this numpy/BLAS build breaks that, and the layer pass would drift "
                  "from two single-layer passes")

PREFIX_STACKING = ("a ragged stack (scoring.score_sequences) runs only a prefix of its items "
                   "at a step, slicing the stack axis of every product, and relies on each "
                   "item keeping the bits it gets in the whole stack; this numpy/BLAS build "
                   "breaks that, and ragged scores would drift from scoring one sequence at "
                   "a time")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), hidden=st.integers(1, 130), steps=st.integers(1, 40),
       stack=st.integers(1, 20), batch=st.integers(2, 8), directions=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_products_equal_the_unstacked_ones_bit_for_bit(n, hidden, steps, stack, batch,
                                                               directions, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, hidden))
    u = rng.standard_normal((hidden, hidden))
    xs = rng.standard_normal((steps, stack, 1, n))
    projected = xs @ w
    assert all(bits(projected[t, k]) == bits(xs[t, k] @ w)
               for t in range(steps) for k in range(stack)), \
        f"(L,K,1,n)@(n,H) differs from the per-step (1,n)@(n,H) products: {STACKING}"
    h = rng.standard_normal((stack, 1, hidden))
    recurrent = h @ u
    assert all(bits(recurrent[k]) == bits(h[k] @ u) for k in range(stack)), \
        f"(K,1,H)@(H,H) differs from K separate (1,H)@(H,H) products: {STACKING}"
    items = rng.standard_normal((stack, steps, n))
    per_item = items @ w
    assert all(bits(per_item[k]) == bits(items[k] @ w) for k in range(stack)), \
        f"(K,L,n)@(n,H) differs from the per-item (L,n)@(n,H) products: {STACKING}"
    gates = 2
    u_gates = rng.standard_normal((gates, directions, 1, hidden, hidden))
    for b in (1, batch):  # gemv, then gemm
        h = rng.standard_normal((directions, stack, b, hidden))
        buf = np.empty((gates + 1, directions, stack, b, hidden))
        np.matmul(h, u_gates, out=buf[:gates])
        recurrent_gates = buf[:gates].copy()
        assert all(bits(buf[g, d, k]) == bits(h[d, k] @ u_gates[g, d, 0])
                   for g in range(gates) for d in range(directions) for k in range(stack)), \
            f"(D,K,{b},H)@(G,D,1,H,H) into a buffer slice differs from per-item products: " \
            f"{STEP_STACKING}"
        np.matmul(h, u_gates[0], out=buf[gates])  # the candidate's (r*h) @ U_h
        assert all(bits(buf[gates, d, k]) == bits(h[d, k] @ u_gates[0, d, 0])
                   for d in range(directions) for k in range(stack)), \
            f"(D,K,{b},H)@(D,1,H,H) into a buffer slice differs from per-item products: " \
            f"{STEP_STACKING}"
        below = rng.standard_normal((steps + 1, 2, stack, b, hidden))  # a layer pass's rows
        w_up = rng.standard_normal((gates + 1, 1, 1, hidden, hidden))
        lifted = np.empty((steps, gates + 1, 2, stack, b, hidden))  # its input projections
        for t in range(steps):
            np.matmul(below[t + 1, 0:1], w_up, out=lifted[t, :, 1:2])
        for g in range(gates + 1):
            precomputed = np.ascontiguousarray(below[1:, 0]) @ w_up[g, 0, 0]
            assert bits(lifted[:, g, 1]) == bits(precomputed), \
                f"(1,K,{b},H)@(3,1,1,H,H) into a buffer slice differs from the precomputed " \
                f"(L,K,{b},H)@(H,H) projection: {LAYER_STACKING}"
        part, part_lift = np.empty_like(buf), np.empty_like(lifted[0])
        for k in range(1, stack + 1):  # the items that still run, longest first
            np.matmul(h[:, :k], u_gates, out=part[:gates, :, :k])
            np.matmul(h[:, :k], u_gates[0], out=part[gates, :, :k])
            assert bits(part[:gates, :, :k]) == bits(recurrent_gates[:, :, :k]) and \
                bits(part[gates, :, :k]) == bits(buf[gates, :, :k]), \
                f"(D,{k},{b},H) prefix products into buffer slices differ from the whole " \
                f"stack's: {PREFIX_STACKING}"
            np.matmul(below[1, 0:1, :k], w_up, out=part_lift[:, 1:2, :k])
            assert bits(part_lift[:, 1:2, :k]) == bits(lifted[0, :, 1:2, :k]), \
                f"(1,{k},{b},H)@(3,1,1,H,H) prefix lift differs from the whole stack's: " \
                f"{PREFIX_STACKING}"
