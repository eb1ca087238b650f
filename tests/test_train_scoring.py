"""Training loop behavior and anomaly scoring."""

import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botdet import models, scoring, train
from botdet.autodiff import Tensor
from botdet.errors import NumericError
from botdet.features import FEATURE_NAMES, FeatureRow, Normalizer, Sequence, trailing_sequences
from botdet.ingest import GroundTruth
from botdet.train import TrainConfig, TrainedModel

from helpers import bits

ROOT = Path(__file__).resolve().parent.parent


def tiny_sequences(n=12, length=5, f=6, seed=0):
    """Low-entropy repetitive sequences the model can actually learn."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=(3, f))
    seqs = []
    for i in range(n):
        pattern = base[i % 3]
        noise = rng.normal(scale=0.01, size=(length, f))
        seqs.append(np.clip(pattern + noise, 0.0, 1.0))
    return seqs


def small_cfg(**kw):
    base = dict(epochs=15, batch_size=4, lr=0.01, anneal_steps=50, beta_max=1.0,
                seed=7, grad_clip=5.0, hidden=8, latent=3, l_max=16,
                mlp_hidden=(8, 8))
    base.update(kw)
    return TrainConfig(**base)


class TestFitRvae:
    def test_loss_decreases(self):
        params, log = train.fit_rvae(tiny_sequences(), f_dim=6, cfg=small_cfg())
        assert log.epochs[-1]["loss"] < log.epochs[0]["loss"]

    def test_deterministic_trajectory(self):
        _, log_a = train.fit_rvae(tiny_sequences(), 6, small_cfg(epochs=5))
        _, log_b = train.fit_rvae(tiny_sequences(), 6, small_cfg(epochs=5))
        assert log_a.epochs == log_b.epochs  # bit-identical floats

    def test_different_seed_differs(self):
        _, log_a = train.fit_rvae(tiny_sequences(), 6, small_cfg(epochs=3, seed=1))
        _, log_b = train.fit_rvae(tiny_sequences(), 6, small_cfg(epochs=3, seed=2))
        assert log_a.epochs != log_b.epochs

    def test_update_counter(self):
        _, log = train.fit_rvae(tiny_sequences(n=10), 6, small_cfg(epochs=4, batch_size=4))
        assert log.n_updates == 4 * 3  # ceil(10/4) = 3 batches per epoch

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train.fit_rvae([], 6, small_cfg())

    def test_log_keeps_the_pre_clip_gradient_norms(self, monkeypatch):
        norms, clip = [], train.clip_global_norm

        def seen(params, max_norm):
            norms.append(clip(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(train, "clip_global_norm", seen)
        _, log = train.fit_rvae(tiny_sequences(n=10), 6, small_cfg(epochs=3, grad_clip=2.0))
        per_epoch = [norms[i:i + 3] for i in range(0, 9, 3)]
        assert len(norms) == 9 and 0 < sum(n > 2.0 for n in norms) < 9
        for entry, epoch in zip(log.epochs, per_epoch):
            assert entry["grad_norm_mean"] == sum(epoch) / 3
            assert entry["grad_norm_max"] == max(epoch)
            assert entry["clipped"] == sum(n > 2.0 for n in epoch)
        summary = log.summary()
        assert summary["final_grad_norm_mean"] == log.epochs[-1]["grad_norm_mean"]
        assert summary["final_grad_norm_max"] == log.epochs[-1]["grad_norm_max"]
        assert summary["final_clipped"] == log.epochs[-1]["clipped"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_naming_the_epoch(self):
        with pytest.raises(NumericError, match="training aborted at epoch"):
            train.fit_rvae(tiny_sequences(), 6,
                           small_cfg(epochs=50, lr=1e9, anneal_steps=1, beta_max=100.0))


# Fits run one after another in one process, each against itself in a fresh one: the
# batches of "ragged" vary in B (4, 4, 1) and in padded L, "other H" changes every
# shape, and "diverges" aborts with NumericError mid-fit.
_FITS = {
    "ragged": ((5, 9, 2, 7, 4, 11, 3, 6, 9), dict(epochs=3, hidden=8)),
    "other H": ((4, 4, 4, 4, 4, 4), dict(epochs=2, hidden=5, latent=2)),
    "diverges": (None, dict(epochs=50, lr=1e9, anneal_steps=1, beta_max=100.0)),
    "clean": ((6, 3, 6, 5, 2), dict(epochs=3, batch_size=2)),
}


def _fit_digest(name: str) -> str:
    """sha256 of a ``_FITS`` fit's parameters and epoch log, or its NumericError."""
    lengths, cfg = _FITS[name]
    rng = np.random.default_rng(len(name))
    seqs = tiny_sequences() if lengths is None else [rng.uniform(0, 1, (n, 6)) for n in lengths]
    try:
        params, log = train.fit_rvae(seqs, 6, small_cfg(**cfg))
    except NumericError as exc:
        return f"NumericError: {exc}"
    digest = hashlib.sha256(repr(log.epochs).encode())
    for key, t in params.named_parameters().items():
        digest.update(key.encode() + t.data.tobytes())
    return digest.hexdigest()


class TestFitCarriesNoState:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fits_in_one_process_give_the_bits_of_fresh_processes(self):
        here = [_fit_digest(name) for name in _FITS]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])}
        fresh = [subprocess.run(
            [sys.executable, "-W", "ignore", "-c",
             f"import test_train_scoring as t; print(t._fit_digest({name!r}))"],
            capture_output=True, text=True, env=env, timeout=120, check=True).stdout.strip()
            for name in _FITS]
        assert here == fresh
        assert here[2].startswith("NumericError: training aborted at epoch")

    def test_a_fit_holds_no_update_sized_memory_between_updates(self, monkeypatch):
        """Traced memory between updates comes back to its level before the first.

        At H=16, L=12, B=4 (one unit = L*B*H*8 bytes = 6 KiB) the level is
        sampled at each update's ``beta_schedule`` call, after a collection
        (``plain``'s closures form reference cycles). The first update is a
        warm-up. The slack of 4 units covers what ``_fit`` still binds from
        the last update (its batch, latent draw and reconstruction, about
        1.4 units at F=6); an update's own arrays are 50-odd units at peak,
        and the peak must stay under 64.
        """
        hidden, length, batch = 16, 12, 4
        unit = length * batch * hidden * 8
        rng = np.random.default_rng(5)
        seqs = [rng.uniform(0, 1, (length, 6)) for _ in range(3 * batch)]
        levels, beta_schedule = [], models.beta_schedule

        def sampled(*args):
            gc.collect()
            levels.append(tracemalloc.get_traced_memory()[0])
            if len(levels) == 2:  # after the warm-up update
                tracemalloc.reset_peak()
            return beta_schedule(*args)

        monkeypatch.setattr(models, "beta_schedule", sampled)
        tracemalloc.start()
        try:
            train.fit_rvae(seqs, 6, small_cfg(epochs=2, batch_size=batch, hidden=hidden))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [(level - levels[0]) / unit for level in levels[2:]]
        assert len(held) == 4 and max(held) < 4, held
        assert (peak - levels[0]) / unit < 64


class TestFitMlp:
    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.3, 0.7, size=6)
        x = np.clip(base + rng.normal(scale=0.02, size=(60, 6)), 0, 1)
        _, log = train.fit_mlp(x, small_cfg(epochs=20, batch_size=16))
        assert log.epochs[-1]["loss"] < log.epochs[0]["loss"]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            train.fit_mlp(np.zeros((0, 6)), small_cfg())


class TestAnomalyScore:
    def test_exact_binary_match_is_tiny(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert scoring.anomaly_score(y, y) < 1e-5

    def test_uniform_half_is_f_ln2(self):
        y = np.full(25, 0.37)  # any target: p=0.5 costs ln 2 per feature
        npt.assert_allclose(scoring.anomaly_score(y, np.full(25, 0.5)),
                            25 * math.log(2), rtol=1e-12)

    def test_frozen_hand_case(self):
        # -(ln 0.9 + ln 0.8) for a perfect hit on [1, 0] probabilities [0.9, 0.2]
        got = scoring.anomaly_score(np.array([1.0, 0.0]), np.array([0.9, 0.2]))
        npt.assert_allclose(got, 0.328504066972036, rtol=1e-12)

    def test_cross_entropy_at_least_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = rng.uniform(0, 1, size=8)
            p = rng.uniform(0.01, 0.99, size=8)
            assert scoring.anomaly_score(y, p) >= scoring.anomaly_score(y, y) - 1e-9

    def test_target_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            scoring.anomaly_score(np.array([1.2]), np.array([0.5]))
        with pytest.raises(ValueError):
            scoring.anomaly_score(np.array([[0.5], [-0.1]]), np.full((2, 1), 0.5))

    @settings(max_examples=60, deadline=None)
    @given(length=st.sampled_from([1, 2, 5, 60, 128]), seed=st.integers(0, 2**32 - 1))
    def test_matrix_rows_score_bit_for_bit_like_single_vectors(self, length, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0, 1, size=(length, 25))
        p = rng.uniform(0, 1, size=(length, 25))
        rows = np.array([scoring.anomaly_score(y[t], p[t]) for t in range(length)])
        assert np.array_equal(scoring.anomaly_score(y, p), rows)


def make_model(f=6, seed=1, n_windows=3, l_max=8):
    params, _ = train.fit_rvae(tiny_sequences(f=f, seed=seed), f, small_cfg(epochs=2))
    norm = Normalizer.fit(np.zeros((2, f)) + [[0.0] * f, [1.0] * f])
    return TrainedModel(arch="rvae", params=params,
                        feature_names=tuple(f"f{i}" for i in range(f)),
                        normalizer=norm, window_seconds=60.0, n_windows=n_windows,
                        l_max=l_max, seed=1, train_summary={})


def make_row(src, w, f=6, value=0.5, label=GroundTruth.NORMAL):
    return FeatureRow(src_addr=src, window_index=w, first_seen=w * 60.0,
                      label=label, values=np.full(f, value))


class TestScoreSequences:
    def test_identical_sequences_identical_scores(self):
        model = make_model()
        rows = [make_row(f"h{i}", w) for w in range(3) for i in range(4)]
        seqs = trailing_sequences(rows, 3, 8)
        a = scoring.score_sequences("rvae", model.params, seqs)
        b = scoring.score_sequences("rvae", model.params, seqs)
        assert [s.score for s in a] == [s.score for s in b]

    def test_scores_finite(self):
        model = make_model()
        rows = [make_row(f"h{i}", w, value=0.1 * i) for w in range(4) for i in range(3)]
        scored = scoring.score_rows(model, rows)
        assert all(math.isfinite(s.score) for s in scored)

    def test_one_score_per_row(self):
        model = make_model()
        rows = [make_row(f"h{i}", w) for w in range(5) for i in range(3)]
        scored = scoring.score_rows(model, rows)
        assert len(scored) == len(rows)
        keys = {(s.src_addr, s.window_index) for s in scored}
        assert len(keys) == len(rows)

    def test_scoring_builds_no_tensor_and_matches_the_taped_forward(self, monkeypatch):
        model = make_model()
        rows = [make_row(f"h{i}", w, value=0.1 * (i + w)) for w in range(4) for i in range(3)]
        built = []
        init = Tensor.__init__

        def counted(tensor, data, requires_grad=False):
            built.append(1)
            init(tensor, data, requires_grad)

        monkeypatch.setattr(Tensor, "__init__", counted)
        scored = scoring.score_rows(model, rows)
        monkeypatch.undo()
        assert built == []
        expected = []
        for seq in trailing_sequences(rows, model.n_windows, model.l_max):
            recons, mu, _ = models.rvae_forward(model.params, seq.vectors[None])
            assert mu._edges  # the reference ran on the tape
            scores = scoring.anomaly_score(seq.vectors, np.stack([r.data[0] for r in recons]))
            expected += [float(x) for r, x in zip(seq.rows, scores)
                         if r.window_index == seq.target_window]
        assert [s.score for s in scored] == expected

    def test_mlp_scoring_ignores_context(self):
        f = 6
        rng = np.random.default_rng(5)
        x = np.clip(rng.uniform(0.3, 0.7, size=(40, f)), 0, 1)
        params, _ = train.fit_mlp(x, small_cfg(epochs=2))
        vec = rng.uniform(0.2, 0.8, size=f)
        alone = scoring.score_elements("mlp", params, vec[None, :])[0]
        with_context = scoring.score_elements(
            "mlp", params, np.vstack([rng.uniform(size=(3, f)), vec[None, :]]))[-1]
        npt.assert_allclose(alone, with_context, rtol=1e-12)


def _scored_one_at_a_time(arch, params, sequences):
    """The reference: each sequence alone, as a batch of one, on the tape."""
    out = []
    for seq in sequences:
        if arch == "rvae":
            recons, _, _ = models.rvae_forward(params, seq.vectors[None])
            recon = np.stack([r.data[0] for r in recons])
        else:
            recon = models.mlp_forward(params, seq.vectors)[0].data
        scores = scoring.anomaly_score(seq.vectors, recon)
        out += [(r.src_addr, r.window_index, bits(x)) for r, x in zip(seq.rows, scores)
                if r.window_index == seq.target_window]
    return out


@settings(max_examples=40, deadline=None)
@given(arch=st.sampled_from(["rvae", "mlp"]), hidden=st.integers(1, 6),
       lengths=st.lists(st.integers(1, 5), max_size=10),
       crowd=st.integers(scoring.STACK_MAX + 1, 2 * scoring.STACK_MAX + 2),
       crowd_length=st.integers(1, 4), repeats=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_scores_equal_one_at_a_time_scores_bit_for_bit(
        arch, hidden, lengths, crowd, crowd_length, repeats, seed):
    f = 3
    rng = np.random.default_rng(seed)
    params = (models.RvaeParams.init(rng, f, hidden, 2) if arch == "rvae" else
              models.MlpVaeParams.init(rng, f, hidden=(hidden, hidden + 1), latent=2))
    vectors = [rng.uniform(0, 1, size=(n, f)) for n in [1, *lengths, *[crowd_length] * crowd]]
    vectors += [vectors[i].copy() for i in rng.integers(0, len(vectors), size=repeats)]
    sequences = []
    for i in rng.permutation(len(vectors)):
        windows = np.sort(rng.integers(0, 3, size=len(vectors[i])))
        rows = tuple(FeatureRow(f"h{i}", int(w), float(t), GroundTruth.NORMAL, v)
                     for t, (w, v) in enumerate(zip(windows, vectors[i])))
        sequences.append(Sequence(rows, vectors[i], int(windows[-1])))
    stacked = [(s.src_addr, s.window_index, bits(s.score))
               for s in scoring.score_sequences(arch, params, sequences)]
    assert stacked == _scored_one_at_a_time(arch, params, sequences)


@settings(max_examples=30, deadline=None)
@given(arch=st.sampled_from(["rvae", "mlp"]), hidden=st.integers(1, 4),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=scoring.STACK_MAX),
       seed=st.integers(0, 2**32 - 1))
@example(arch="rvae", hidden=4, lengths=[128, 10], seed=7)
@example(arch="mlp", hidden=4, lengths=[128, 10], seed=7)
def test_a_ragged_stack_scores_each_sequence_as_alone_bit_for_bit(arch, hidden, lengths, seed):
    """Any mix of lengths fits one stack, and every element keeps its batch-of-one bits."""
    f = 3
    rng = np.random.default_rng(seed)
    params = (models.RvaeParams.init(rng, f, hidden, 2) if arch == "rvae" else
              models.MlpVaeParams.init(rng, f, hidden=(hidden, hidden + 1), latent=2))
    sequences = []
    for i, n in enumerate(lengths):
        vectors = rng.uniform(0, 1, size=(n, f))
        rows = tuple(FeatureRow(f"h{i}", 0, float(t), GroundTruth.NORMAL, v)
                     for t, v in enumerate(vectors))
        sequences.append(Sequence(rows, vectors, 0))
    stacks, score_elements = [], scoring.score_elements

    def recorded(arch, params, vectors, lengths=None):
        stacks.append(vectors.shape)
        return score_elements(arch, params, vectors, lengths)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "score_elements", recorded)
        stacked = [(s.src_addr, s.window_index, bits(s.score))
                   for s in scoring.score_sequences(arch, params, sequences)]
    assert stacks == [(len(lengths), max(lengths), f)]
    assert len(stacked) == sum(lengths)
    assert stacked == _scored_one_at_a_time(arch, params, sequences)
