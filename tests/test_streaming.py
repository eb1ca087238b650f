from dataclasses import replace

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from botdet import models, scoring, streaming
from botdet.errors import DataError
from botdet.features import FEATURE_NAMES, aggregate_flows, rows_from_aggregates, trailing_sequences, window_index
from botdet.ingest import FlowRecord, iter_flows
from botdet.pipeline import (
    classify_scores,
    fit_detector_from_training,
    preprocess,
    score_split,
    train_model,
)
from botdet.scoring import score_rows, score_sequences
from botdet.streaming import run_stream
from botdet.synth import SynthConfig, make_fixture
from botdet.train import TrainConfig

FAST_CFG = TrainConfig(epochs=8, batch_size=16, lr=0.01, anneal_steps=40,
                       seed=0, hidden=12, latent=4, l_max=64)


def stream_decisions(model, det, flows):
    it, stats = run_stream(model, det, flows)
    return list(it), stats


def make_flow(t: float, src: str, dst: str = "198.18.0.9",
              label: str = "flow=From-Normal-V44-HTTP") -> FlowRecord:
    return FlowRecord(start_time=t, duration=0.2, proto="tcp", src_addr=src,
                      src_port="1024", direction="<->", dst_addr=dst,
                      dst_port="80", state="FSPA_FSPA",
                      tot_pkts=8, tot_bytes=900, src_bytes=400,
                      label_raw=label)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("streamfix")
    fx = make_fixture(out, train_cfg=SynthConfig(
        seed=3, n_normal_hosts=6, n_botnet_hosts=2, n_background_hosts=1,
        n_windows=24))
    pre = preprocess(fx["manifest"], ["synth-train"], ["synth-test"],
                     window_seconds=60.0, n_windows=3, l_max=64)
    model = train_model(pre.meta, pre.train.rows, FAST_CFG)
    det = fit_detector_from_training(score_split(model, pre.meta, pre.train.rows),
                                     min_samples=30, bins=60)
    return fx, pre, model, det


def test_empty_input_no_output(fitted):
    _, _, model, det = fitted
    decisions, stats = stream_decisions(model, det, [])
    assert decisions == []
    assert stats.flows_in == 0
    assert stats.windows_closed == 0
    assert stats.late_dropped == 0


@pytest.mark.parametrize("names", [
    (FEATURE_NAMES[4], *FEATURE_NAMES[1:4], FEATURE_NAMES[0], *FEATURE_NAMES[5:]),
    FEATURE_NAMES[:24],
], ids=["swapped", "short"])
def test_foreign_feature_layout_is_refused_before_any_flow(fitted, names):
    _, _, model, det = fitted
    pulled = []

    def source():
        pulled.append(1)
        yield make_flow(1000.0, "10.1.1.1")

    with pytest.raises(DataError, match="feature layout mismatch"):
        run_stream(replace(model, feature_names=names), det, source())
    assert pulled == []


def test_stream_matches_batch_verdicts_exactly(fitted):
    fx, pre, model, det = fitted
    batch = classify_scores(score_split(model, pre.meta, pre.test.rows), det)
    flows = list(iter_flows(fx["test"]))
    streamed, stats = stream_decisions(model, det, flows)

    def project(rows):
        return {(d["src_addr"], d["window_index"]):
                {k: v for k, v in d.items() if k != "emit_latency"}
                for d in rows}

    assert stats.late_dropped == 0
    assert all("emit_latency" in d for d in streamed)
    assert project(streamed) == project(batch)


def test_stream_emission_order_is_window_then_host(fitted):
    fx, _, model, det = fitted
    streamed, _ = stream_decisions(model, det, list(iter_flows(fx["test"])))
    keys = [(d["window_index"], d["src_addr"]) for d in streamed]
    assert keys == sorted(keys)


def test_window_zero_decisions_arrive_at_window_one_boundary(fitted):
    _, _, model, det = fitted
    t0 = 1000.0
    flows = [make_flow(t0 + dt, "10.1.1.1") for dt in (0.0, 5.0, 30.0)]
    flows += [make_flow(t0 + 61.0, "10.1.1.1"), make_flow(t0 + 70.0, "10.1.1.2")]
    pulled = []

    def source():
        for f in flows:
            pulled.append(f.start_time)
            yield f

    it, _ = run_stream(model, det, source())
    first = next(it)
    assert first["window_index"] == 0
    assert len(pulled) == 4, "window 0 must close on the first window-1 flow"
    rest = list(it)
    assert {d["window_index"] for d in rest} == {1}


def test_late_flows_are_counted_and_dropped(fitted):
    _, _, model, det = fitted
    t0 = 1000.0
    base = [make_flow(t0, "10.1.1.1"), make_flow(t0 + 65.0, "10.1.1.1"),
            make_flow(t0 + 130.0, "10.1.1.1")]
    late = [make_flow(t0 + 3.0, "10.1.1.9"), make_flow(t0 - 50.0, "10.1.1.9")]
    with_late = base[:2] + late + base[2:]

    clean, clean_stats = stream_decisions(model, det, base)
    noisy, noisy_stats = stream_decisions(model, det, with_late)
    assert clean_stats.late_dropped == 0
    assert noisy_stats.late_dropped == 2
    assert noisy == clean


def test_gap_windows_are_flushed_and_stay_decision_free(fitted):
    _, _, model, det = fitted
    t0 = 1000.0
    flows = [make_flow(t0 + 1.0, "10.1.1.1"),
             make_flow(t0 + 4 * 60.0 + 1.0, "10.1.1.1")]
    decisions, stats = stream_decisions(model, det, flows)
    assert stats.windows_closed == 5
    assert sorted(d["window_index"] for d in decisions) == [0, 4]


def test_long_gap_closes_its_empty_windows_without_visiting_them(fitted, monkeypatch):
    _, _, model, det = fitted
    t0, far = 1000.0, 10**9
    flows = [make_flow(t0 + 1.0, "10.1.1.1"), make_flow(t0 + 61.0, "10.1.1.2"),
             make_flow(t0 + far * 60.0 + 1.0, "10.1.1.1")]
    populated = []

    def counted(aggs, norm):
        populated.append(len(aggs))
        return rows_from_aggregates(aggs, norm)

    monkeypatch.setattr(streaming, "rows_from_aggregates", counted)
    decisions, stats = stream_decisions(model, det, flows)
    assert populated == [1, 1, 1]
    assert stats.windows_closed == far + 1
    assert [d["window_index"] for d in decisions] == [0, 1, far]
    # No history survives the gap: the far window scores as if it came first.
    (alone,), _ = stream_decisions(model, det, flows[2:])
    assert (alone["score"], alone["verdict"]) == (decisions[2]["score"],
                                                  decisions[2]["verdict"])


@pytest.mark.parametrize("windows", [[0, 2, 3], [0, 1, 4, 5, 9], [0, 3, 4]])
def test_stream_with_gaps_matches_batch(fitted, windows):
    _, _, model, det = fitted
    t0 = 1000.0
    flows = [make_flow(t0 + w * 60.0 + 1.0 + i, f"10.1.1.{i}")
             for w in windows for i in range(1 + w % 3)]
    rows = rows_from_aggregates(aggregate_flows(flows, t0, model.window_seconds),
                                model.normalizer)
    batch = classify_scores(score_rows(model, rows), det)
    streamed, stats = stream_decisions(model, det, flows)
    assert stats.windows_closed == windows[-1] + 1
    assert [{k: v for k, v in d.items() if k != "emit_latency"} for d in streamed] == batch


def test_emit_latency_is_watermark_minus_window_end(fitted):
    _, _, model, det = fitted
    t0 = 1000.0
    watermark = t0 + 60.0 + 17.25
    flows = [make_flow(t0, "10.1.1.1"), make_flow(watermark, "10.1.1.1")]
    decisions, _ = stream_decisions(model, det, flows)
    by_w = {d["window_index"]: d for d in decisions}
    assert by_w[0]["emit_latency"] == pytest.approx(17.25)
    assert by_w[1]["emit_latency"] == 0.0, "final flush clamps to zero"
    assert all(d["emit_latency"] >= 0.0 for d in decisions)


def test_history_window_is_bounded_by_n_windows(fitted):
    _, _, model, det = fitted
    t0 = 1000.0
    flows = [make_flow(t0 + w * 60.0 + 1.0, "10.1.1.1") for w in range(40)]
    decisions, stats = stream_decisions(model, det, flows)
    assert stats.windows_closed == 40
    assert len(decisions) == 40
    scores = {d["score"] for d in decisions[model.n_windows:]}
    assert len(scores) == 1, "steady-state context must give a steady score"


def test_out_of_order_within_window_is_accepted(fitted):
    _, _, model, det = fitted
    t0 = 1000.0
    in_order = [make_flow(t0, "10.1.1.1"), make_flow(t0 + 10.0, "10.1.1.1"),
                make_flow(t0 + 20.0, "10.1.1.1"), make_flow(t0 + 70.0, "10.1.1.1")]
    shuffled = [in_order[0], in_order[2], in_order[1], in_order[3]]
    a, sa = stream_decisions(model, det, in_order)
    b, sb = stream_decisions(model, det, shuffled)
    assert sb.late_dropped == 0
    assert a == b


def test_stream_builds_only_the_closing_windows_spans(fitted, monkeypatch):
    fx, _, model, det = fitted
    flows = list(iter_flows(fx["test"]))
    built, scored, every = [], [], []

    def every_span(rows, n_windows, l_max, targets):
        # Spans of every populated context window, filtered down to the target's.
        seqs = trailing_sequences(rows, n_windows, l_max)
        every.extend(seqs)
        return [s for s in seqs if s.target_window in targets]

    def counted_build(*args, **kwargs):
        seqs = trailing_sequences(*args, **kwargs)
        built.extend(seqs)
        return seqs

    def counted_score(arch, params, seqs):
        scored.extend(seqs)
        return score_sequences(arch, params, seqs)

    monkeypatch.setattr(streaming, "trailing_sequences", every_span)
    reference, _ = stream_decisions(model, det, flows)
    monkeypatch.setattr(streaming, "trailing_sequences", counted_build)
    monkeypatch.setattr(streaming, "score_sequences", counted_score)
    decisions, _ = stream_decisions(model, det, flows)
    assert len(built) == len(scored) == 12
    assert len(every) == 33
    assert decisions == reference


def test_one_close_scores_several_equal_length_chunks_as_batch_does(fitted, monkeypatch):
    _, _, model, det = fitted
    hosts = 6
    model = replace(model, l_max=hosts)  # a full 3-window span splits into 3 chunks of 6
    t0 = 1000.0
    flows = [make_flow(t0 + w * 60.0 + 1.0 + i, f"10.1.1.{i}")._replace(
                 tot_bytes=300 + 97 * i + 31 * w, duration=0.1 * (1 + i * w % 5))
             for w in range(8) for i in range(hosts)]
    rows = rows_from_aggregates(aggregate_flows(flows, t0, model.window_seconds),
                                model.normalizer)
    batch = classify_scores(score_rows(model, rows), det)
    shapes = []
    score_elements = scoring.score_elements

    def recorded(arch, params, vectors, lengths=None):
        shapes.append(vectors.shape)
        return score_elements(arch, params, vectors, lengths)

    monkeypatch.setattr(scoring, "score_elements", recorded)
    streamed, stats = stream_decisions(model, det, flows)
    assert stats.windows_closed == 8 and stats.late_dropped == 0
    assert shapes == [(1, 6, 25), (2, 6, 25)] + [(3, 6, 25)] * 6
    assert [{k: v for k, v in d.items() if k != "emit_latency"} for d in streamed] == batch
    assert len({d["score"] for d in streamed}) > hosts
    assert ([np.float64(d["score"]).tobytes() for d in streamed] ==
            [np.float64(d["score"]).tobytes() for d in batch])


def test_one_close_scores_chunks_of_different_lengths_in_one_forward(fitted, monkeypatch):
    _, _, model, det = fitted
    hosts = 6
    model = replace(model, l_max=4)  # a span of 6, 12 or 18 rows ends in a shorter chunk
    t0 = 1000.0
    flows = [make_flow(t0 + w * 60.0 + 1.0 + i, f"10.1.2.{i}")._replace(
                 tot_bytes=500 + 89 * i + 17 * w, duration=0.1 * (1 + (i + w) % 4))
             for w in range(6) for i in range(hosts)]
    rows = rows_from_aggregates(aggregate_flows(flows, t0, model.window_seconds),
                                model.normalizer)
    batch = classify_scores(score_rows(model, rows), det)
    stacks = []
    rvae_forward = models.rvae_forward

    def recorded(params, stack, lengths=None, eps=None):
        stacks.append(None if lengths is None else list(lengths))  # None: equal lengths
        return rvae_forward(params, stack, lengths, eps)

    monkeypatch.setattr(models, "rvae_forward", recorded)
    streamed, stats = stream_decisions(model, det, flows)
    assert stats.windows_closed == 6 and stats.late_dropped == 0
    assert stacks == [[4, 2], None] + [[4, 4, 4, 4, 2]] * 4
    assert ([np.float64(d["score"]).tobytes() for d in streamed] ==
            [np.float64(d["score"]).tobytes() for d in batch])
    assert [{k: v for k, v in d.items() if k != "emit_latency"} for d in streamed] == batch


@st.composite
def ordered_captures(draw):
    """A small time-ordered capture whose first flow opens window 0 at t0 = 1000.

    1-5 hosts; window gaps of up to 6; offsets from a short list, so
    ``first_seen`` ties and flows exactly on a window boundary are common;
    some flows repeated verbatim.
    """
    t0, T = 1000.0, 60.0
    hosts = [f"10.2.0.{i}" for i in range(draw(st.integers(1, 5)))]
    gaps = draw(st.lists(st.integers(1, 6), max_size=5))
    windows = np.cumsum([0] + gaps).tolist()
    flow = st.builds(
        lambda host, offset, pkts, extra, dur, port: make_flow(
            offset, host, dst=f"198.18.0.{port}")._replace(tot_pkts=pkts,
            tot_bytes=pkts * 60 + extra, src_bytes=pkts * 30, duration=dur),
        st.sampled_from(hosts), st.sampled_from([0.0, 0.5, 17.0, 59.75]),
        st.integers(1, 40), st.integers(0, 4000),
        st.sampled_from([0.0, 0.1, 0.2, 3.5]), st.integers(1, 3))
    flows = [draw(flow)._replace(start_time=t0)]  # opens window 0
    for w in windows:
        for f in draw(st.lists(flow, min_size=1, max_size=6)):
            f = f._replace(start_time=t0 + w * T + f.start_time)
            flows += [f] * draw(st.integers(1, 2))
    flows.sort(key=lambda f: f.start_time)  # stable: the opening flow stays first
    return flows


def _bits(records):
    return [np.float64([d["score"], d["likelihood_normal"], d["likelihood_botnet"]]).tobytes()
            for d in records]


@settings(max_examples=60, deadline=None)
@given(flows=ordered_captures(), data=st.data())
def test_stream_equals_batch_on_drawn_captures(fitted, flows, data):
    _, _, model, det = fitted
    rows = rows_from_aggregates(aggregate_flows(flows, flows[0].start_time,
                                                model.window_seconds),
                                model.normalizer)
    batch = classify_scores(score_rows(model, rows), det)
    streamed, stats = stream_decisions(model, det, flows)
    assert stats.late_dropped == 0
    assert [{k: v for k, v in d.items() if k != "emit_latency"} for d in streamed] == batch
    assert _bits(streamed) == _bits(batch)
    again, _ = stream_decisions(model, det, flows)
    assert again == streamed and _bits(again) == _bits(streamed)

    # Late flows: each is inserted after flows[i - 1] and dated before that
    # flow's window opened, so it is dropped and nothing else changes.
    t0, T, N = flows[0].start_time, model.window_seconds, model.n_windows
    late = data.draw(st.lists(st.tuples(
        st.integers(1, len(flows)), st.sampled_from([0.25, 17.0, 60.0, 61.0, 200.0]),
        st.sampled_from(flows)), max_size=4))
    noisy = list(flows)
    for i, back, f in sorted(late, key=lambda x: x[0], reverse=True):
        opened = t0 + window_index(flows[i - 1].start_time, t0, T) * T
        noisy.insert(i, f._replace(start_time=opened - back))
    contexts = []

    def recorded(rows, n_windows, l_max, targets):
        contexts.append((targets, sorted({r.window_index for r in rows})))
        return trailing_sequences(rows, n_windows, l_max, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streaming, "trailing_sequences", recorded)
        late_streamed, late_stats = stream_decisions(model, det, noisy)
    assert late_stats.late_dropped == len(late)
    assert late_streamed == streamed and _bits(late_streamed) == _bits(streamed)
    assert [w for (w,), _ in contexts] == sorted({r.window_index for r in rows})
    for (w,), windows in contexts:
        assert all(w - N < x <= w for x in windows), (w, windows)
