"""Windowing, aggregation, normalization, and sequence assembly."""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdet import features as feat
from botdet import ingest
from botdet.errors import DataError
from botdet.features import FEATURE_NAMES, FeatureRow, Normalizer
from botdet.ingest import FlowRecord, GroundTruth


def make_flow(t=0.0, src="10.0.0.1", dst="10.0.0.2", sport="1024", dport="80",
              proto="tcp", state="FSPA_FSPA", dur=1.0, pkts=2, tot=100, sb=50,
              label="flow=Background"):
    return FlowRecord(
        start_time=t, duration=dur, proto=proto, src_addr=src, src_port=sport,
        direction="->", dst_addr=dst, dst_port=dport, state=state,
        tot_pkts=pkts, tot_bytes=tot,
        src_bytes=sb, label_raw=label,
    )


def make_row(src="h", w=0, t=None, label=GroundTruth.NORMAL, vec=None):
    return FeatureRow(
        src_addr=src, window_index=w,
        first_seen=float(w * 60 if t is None else t),
        label=label,
        values=np.zeros(feat.N_FEATURES) if vec is None else vec,
    )


class TestWindowIndex:
    def test_basic_cases(self):
        assert feat.window_index(59.9, 0.0, 60.0) == 0
        assert feat.window_index(60.0, 0.0, 60.0) == 1
        assert feat.window_index(12.3, 0.0, 5.0) == 2
        assert feat.window_index(0.0, 0.0, 60.0) == 0

    def test_before_origin_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            feat.window_index(-0.1, 0.0, 60.0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            feat.window_index(1.0, 0.0, 0.0)


class TestStateCategory:
    @pytest.mark.parametrize("state,cat", [
        ("CON", "con"), ("INT", "int"), ("URP", "urp"),
        ("FSPA_FSPA", "est"), ("SPA_SPA", "est"), ("PA_PA", "est"), ("A_A", "est"),
        ("S_RA", "rst"), ("FSRPA_SPA", "rst"), ("RSTO", "rst"),
        ("S_", "other"), ("", "other"), ("ECO", "other"), ("con", "con"),
    ])
    def test_mapping(self, state, cat):
        assert feat.state_category(state) == cat


class TestAggregate:
    def test_three_flow_example(self):
        flows = [
            make_flow(t=1.0, dst="1.1.1.1", dport="53", proto="udp", state="CON",
                      dur=0.5, pkts=2, tot=200, sb=80),
            make_flow(t=2.0, dst="1.0.0.1", dport="53", proto="udp", state="CON",
                      dur=0.5, pkts=2, tot=300, sb=100),
            make_flow(t=3.0, dst="93.184.216.34", dport="80", proto="tcp",
                      state="FSPA_FSPA", dur=1.0, pkts=10, tot=1500, sb=700),
        ]
        (agg,) = feat.aggregate_flows(flows, t0=0.0, window_seconds=60.0)
        assert agg.src_addr == "10.0.0.1"
        assert agg.first_seen == 1.0
        assert agg.value("n_connections") == 3
        assert agg.value("n_unique_dst_addrs") == 3
        assert agg.value("n_unique_dst_ports") == 2
        assert agg.value("n_unique_src_ports") == 1
        assert agg.value("sum_bytes") == 2000
        assert agg.value("sum_pkts") == 14
        assert agg.value("sum_dur") == pytest.approx(2.0)
        assert agg.value("proto_udp") == 2 and agg.value("proto_tcp") == 1
        assert agg.value("state_con") == 2 and agg.value("state_est") == 1
        assert agg.value("service_dns") == 2 and agg.value("service_http") == 1
        assert agg.value("n_distinct_proto") == 2
        assert agg.value("n_distinct_state") == 2
        assert agg.value("n_distinct_service") == 2

    def test_category_counts_sum_to_n_connections(self):
        rng = np.random.default_rng(5)
        flows = [
            make_flow(t=float(i), proto=rng.choice(["tcp", "udp", "icmp", "gre"]),
                      state=rng.choice(["CON", "INT", "S_RA", "FSPA_FSPA", "ECO"]),
                      dport=rng.choice(["53", "80", "443", "25", "9999"]))
            for i in range(40)
        ]
        (agg,) = feat.aggregate_flows(flows, t0=0.0, window_seconds=60.0)
        n = agg.value("n_connections")
        for group in ("proto", "state", "service"):
            total = sum(agg.value(k) for k in FEATURE_NAMES if k.startswith(group + "_"))
            assert total == n

    def test_any_botnet_label_wins(self):
        flows = [
            make_flow(t=1.0, label="flow=To-Normal-stuff"),
            make_flow(t=2.0, label="flow=From-Botnet-V1"),
            make_flow(t=3.0, label="flow=Background"),
        ]
        (agg,) = feat.aggregate_flows(flows, t0=0.0, window_seconds=60.0)
        assert agg.label is GroundTruth.BOTNET

    def test_normal_beats_background(self):
        flows = [make_flow(t=1.0, label="flow=Background"),
                 make_flow(t=2.0, label="flow=To-Normal")]
        (agg,) = feat.aggregate_flows(flows, t0=0.0, window_seconds=60.0)
        assert agg.label is GroundTruth.NORMAL

    def test_single_flow_aggregate(self):
        (agg,) = feat.aggregate_flows([make_flow(t=7.0)], t0=0.0, window_seconds=2.0)
        assert agg.value("n_connections") == 1
        assert agg.window_index == 3
        assert agg.first_seen == 7.0

    def test_conservation_across_windows(self):
        rng = np.random.default_rng(9)
        flows = [
            make_flow(t=float(rng.uniform(0, 600)),
                      src=f"10.0.0.{rng.integers(1, 6)}")
            for _ in range(200)
        ]
        aggs = feat.aggregate_flows(flows, t0=0.0, window_seconds=60.0)
        assert sum(a.value("n_connections") for a in aggs) == 200

    def test_aggregates_sorted(self):
        flows = [make_flow(t=130.0, src="b"), make_flow(t=125.0, src="c"),
                 make_flow(t=10.0, src="a")]
        aggs = feat.aggregate_flows(flows, t0=0.0, window_seconds=60.0)
        assert [(a.window_index, a.src_addr) for a in aggs] == [(0, "a"), (2, "c"), (2, "b")]


class _ReferenceAggBuilder:
    """The dict-based builder that the counter-row AggBuilder replaced, kept as its oracle."""

    def __init__(self, src_addr, window_idx):
        self.src_addr, self.window_index = src_addr, window_idx
        self.first_seen = float("inf")
        self.n = 0
        self.dst_addrs, self.dst_ports, self.src_ports = set(), set(), set()
        self.sum_bytes = self.sum_pkts = 0
        self.sum_dur = 0.0
        self.proto_counts = dict.fromkeys(feat.PROTO_CATEGORIES + ("other",), 0)
        self.state_counts = dict.fromkeys(feat.STATE_CATEGORIES + ("other",), 0)
        self.service_counts = dict.fromkeys(feat.SERVICE_CATEGORIES + ("other",), 0)
        self.protos, self.states, self.services = set(), set(), set()
        self.any_botnet = self.any_normal = False

    def add(self, flow):
        self.n += 1
        self.first_seen = min(self.first_seen, flow.start_time)
        self.dst_addrs.add(flow.dst_addr)
        self.dst_ports.add(flow.dst_port)
        self.src_ports.add(flow.src_port)
        self.sum_bytes += flow.tot_bytes
        self.sum_pkts += flow.tot_pkts
        self.sum_dur += flow.duration
        self.proto_counts[feat.proto_category(flow.proto)] += 1
        self.state_counts[feat.state_category(flow.state)] += 1
        self.service_counts[flow.service] += 1
        self.protos.add(flow.proto.lower())
        self.states.add(flow.state)
        self.services.add(flow.service)
        self.any_botnet |= flow.label is GroundTruth.BOTNET
        self.any_normal |= flow.label is GroundTruth.NORMAL

    def finalize(self):
        idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
        values = np.zeros(feat.N_FEATURES, dtype=np.float64)
        values[idx["n_connections"]] = self.n
        values[idx["n_unique_dst_addrs"]] = len(self.dst_addrs)
        values[idx["n_unique_dst_ports"]] = len(self.dst_ports)
        values[idx["n_unique_src_ports"]] = len(self.src_ports)
        values[idx["sum_bytes"]] = self.sum_bytes
        values[idx["sum_pkts"]] = self.sum_pkts
        values[idx["sum_dur"]] = self.sum_dur
        for group, counts in (("proto", self.proto_counts), ("state", self.state_counts),
                              ("service", self.service_counts)):
            for cat, count in counts.items():
                values[idx[f"{group}_{cat}"]] = count
        values[idx["n_distinct_proto"]] = len(self.protos)
        values[idx["n_distinct_state"]] = len(self.states)
        values[idx["n_distinct_service"]] = len(self.services)
        label = (GroundTruth.BOTNET if self.any_botnet else
                 GroundTruth.NORMAL if self.any_normal else GroundTruth.BACKGROUND)
        return self.src_addr, self.window_index, self.first_seen, label, values


FLOWS = st.lists(st.builds(
    make_flow,
    t=st.floats(0.0, 300.0),
    src=st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.7"]),
    dst=st.sampled_from(["1.1.1.1", "8.8.8.8", "93.184.216.34"]),
    sport=st.sampled_from(["1024", "2000", "0x0400", ""]),
    dport=st.sampled_from(["53", "25", "443", "80", "0x0035", "9999", ""]),
    proto=st.sampled_from(["tcp", "udp", "icmp", "TCP", "gre", "arp", ""]),
    state=st.one_of(st.sampled_from(["CON", "INT", "URP", "S_RA", "FSPA_FSPA", "RSTO"]),
                    st.text("ACFINOPRSTUc_ ", max_size=6)),
    dur=st.floats(0.0, 1e4), pkts=st.integers(0, 10**6), tot=st.integers(0, 10**12),
    sb=st.just(0),
    label=st.sampled_from(["flow=From-Botnet-V42", "flow=To-Normal-V42",
                           "flow=Background-UDP", "Background"]),
), max_size=80)


@settings(max_examples=200, deadline=None)
@given(FLOWS, st.sampled_from([1.0, 7.5, 60.0]))
def test_aggregate_flows_matches_reference_builder_bit_for_bit(flows, window_seconds):
    builders = {}
    for f in flows:
        w = feat.window_index(f.start_time, 0.0, window_seconds)
        builders.setdefault((f.src_addr, w), _ReferenceAggBuilder(f.src_addr, w)).add(f)
    ref = sorted((b.finalize() for b in builders.values()),
                 key=lambda a: (a[1], a[2], a[0]))
    got = feat.aggregate_flows(flows, 0.0, window_seconds)
    assert len(got) == len(ref)
    for row, (src, w, first_seen, label, values) in zip(got, ref):
        assert (row.src_addr, row.window_index, row.label) == (src, w, label)
        assert row.first_seen == first_seen
        assert row.values.dtype == np.float64
        assert row.values.tobytes() == values.tobytes()


def _reference_rows(flows, window_seconds):
    builders = {}
    for f in flows:
        w = feat.window_index(f.start_time, 0.0, window_seconds)
        builders.setdefault((f.src_addr, w), _ReferenceAggBuilder(f.src_addr, w)).add(f)
    return sorted((b.finalize() for b in builders.values()), key=lambda a: (a[1], a[2], a[0]))


def test_category_and_label_caches_stay_within_their_bounds():
    caches = (feat._category_columns, GroundTruth.from_label)
    for cache in caches:
        cache.cache_clear()
    n = 5_000
    flows = [make_flow(t=float(i % 300), src=f"10.0.{i % 7}.1", state=f"S{i}_A{i}",
                       label=f"flow=From-{('Botnet', 'Normal', 'Background')[i % 3]}-{i}")
             for i in range(n)]
    for cache in caches:
        assert cache.cache_info().maxsize == 4096
    got = feat.aggregate_flows(flows, 0.0, 60.0)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == n and info.currsize <= info.maxsize
    want = _reference_rows(flows, 60.0)
    assert [(r.src_addr, r.window_index, r.first_seen, r.label, r.values.tobytes())
            for r in got] == [(*ref[:4], ref[4].tobytes()) for ref in want]


def _window_shuffles(flows, window_seconds, rnd):
    """The flows grouped by window in window order, each window's flows permuted."""
    by_window = {}
    for f in flows:
        by_window.setdefault(feat.window_index(f.start_time, 0.0, window_seconds), []).append(f)
    out = []
    for w in sorted(by_window):
        group = by_window[w]
        rnd.shuffle(group)
        out += group
    return out


@settings(max_examples=200, deadline=None)
@given(FLOWS, st.sampled_from([1.0, 7.5, 60.0]), st.randoms(use_true_random=False))
def test_aggregation_does_not_depend_on_flow_order_within_a_window(flows, window_seconds,
                                                                   rnd):
    """Only sum_dur, a float sum in flow order, may move: within (n-1)*eps*sum|d|.

    Recursive summation errs from the exact sum by at most about
    (n-1)*(eps/2)*sum|d| in any order, so two orders differ by at most
    about twice that.
    """
    want = feat.aggregate_flows(flows, 0.0, window_seconds)
    shuffled = _window_shuffles(list(flows), window_seconds, rnd)
    got = feat.aggregate_flows(shuffled, 0.0, window_seconds)
    assert [(r.src_addr, r.window_index, r.first_seen, r.label) for r in got] == \
           [(r.src_addr, r.window_index, r.first_seen, r.label) for r in want]
    dur = feat._DUR_COL
    for g, w in zip(got, want):
        assert np.delete(g.values, dur).tobytes() == np.delete(w.values, dur).tobytes()
        durs = [f.duration for f in flows
                if (f.src_addr, feat.window_index(f.start_time, 0.0, window_seconds))
                == (w.src_addr, w.window_index)]
        bound = (len(durs) - 1) * np.finfo(np.float64).eps * math.fsum(map(abs, durs))
        assert abs(g.values[dur] - w.values[dur]) <= bound


class TestNormalizer:
    def test_fit_and_transform(self):
        raw = np.array([[0.0], [10.0], [4.0]])
        norm = Normalizer.fit(raw)
        assert norm.vmin[0] == 0.0 and norm.vmax[0] == 10.0
        npt.assert_allclose(norm.transform(np.array([5.0])), [0.5])

    def test_clamping_out_of_range(self):
        norm = Normalizer.fit(np.array([[0.0], [10.0]]))
        npt.assert_allclose(norm.transform(np.array([20.0])), [1.0])
        npt.assert_allclose(norm.transform(np.array([-3.0])), [0.0])

    def test_constant_feature_maps_to_zero(self):
        norm = Normalizer.fit(np.array([[7.0], [7.0]]))
        npt.assert_allclose(norm.transform(np.array([7.0])), [0.0])
        npt.assert_allclose(norm.transform(np.array([100.0])), [0.0])

    def test_log1p_flag(self):
        raw = np.array([[0.0], [np.e - 1.0]])
        norm = Normalizer.fit(raw, log1p=np.array([True]))
        npt.assert_allclose(norm.vmax, [1.0])
        mid = np.exp(0.5) - 1.0  # halfway in log space
        npt.assert_allclose(norm.transform(np.array([mid])), [0.5], rtol=1e-12)

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 1e6, size=(50, feat.N_FEATURES))
        norm = Normalizer.fit(raw)
        out = norm.transform(rng.uniform(-10, 2e6, size=(200, feat.N_FEATURES)))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty_fit_rejected(self):
        with pytest.raises(DataError):
            Normalizer.fit(np.zeros((0, feat.N_FEATURES)))

    @settings(max_examples=40, deadline=None)
    @given(n_fit=st.integers(1, 20), n_rows=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    def test_rows_from_aggregates_equal_the_per_row_transform(self, n_fit, n_rows, seed):
        rng = np.random.default_rng(seed)
        f = feat.N_FEATURES
        raw = rng.uniform(0, 1e4, size=(n_fit, f))
        raw[:, 3] = 7.0  # a constant feature
        flags = rng.integers(0, 2, size=f).astype(bool)
        flags[:2] = (True, False)
        norm = Normalizer.fit(raw, log1p=flags)
        values = rng.uniform(-1e3, 2e4, size=(n_rows, f))  # also outside the fitted range
        aggs = [FeatureRow(f"h{i}", i % 3, float(i), GroundTruth.NORMAL, v)
                for i, v in enumerate(values)]
        got = feat.rows_from_aggregates(aggs, norm)
        assert len(got) == n_rows
        for a, g in zip(aggs, got):
            assert (g.src_addr, g.window_index, g.first_seen, g.label) == \
                (a.src_addr, a.window_index, a.first_seen, a.label)
            assert g.values.shape == (f,)
            assert g.values.tobytes() == norm.transform(a.values).tobytes()


class TestBuildSequences:
    def test_five_rows_one_sequence(self):
        rows = [make_row(src=f"h{i}", w=w) for i, w in enumerate([0, 0, 1, 2, 2])]
        seqs = feat.build_sequences(rows, n_windows=3, l_max=10)
        assert len(seqs) == 1
        assert len(seqs[0]) == 5
        assert sorted(r.src_addr for r in seqs[0].rows) == [f"h{i}" for i in range(5)]

    def test_chunking_long_span(self):
        rows = [make_row(src=f"h{i:03d}", w=0, t=float(i)) for i in range(130)]
        seqs = feat.build_sequences(rows, n_windows=3, l_max=128)
        assert [len(s) for s in seqs] == [128, 2]

    def test_empty_input(self):
        assert feat.build_sequences([], 3, 128) == []

    def test_partition_property_default_stride(self):
        rng = np.random.default_rng(21)
        rows = [make_row(src=f"h{rng.integers(0, 7)}", w=int(rng.integers(0, 20)),
                         t=float(rng.uniform(0, 1200)))
                for _ in range(300)]
        seqs = feat.build_sequences(rows, n_windows=3, l_max=16)
        seen = sorted(id(r) for s in seqs for r in s.rows)
        assert seen == sorted(id(r) for r in rows)
        for s in seqs:
            assert len({r.window_index // 3 for r in s.rows}) == 1

    def test_elements_sorted_within_sequence(self):
        rows = [make_row(src="b", w=1, t=50.0), make_row(src="a", w=0, t=10.0),
                make_row(src="c", w=0, t=10.0)]
        (seq,) = feat.build_sequences(rows, 3, 10)
        assert [r.src_addr for r in seq.rows] == ["a", "c", "b"]

    def test_long_gap_visits_only_populated_spans(self):
        far = 10**9  # ~1.9e4 years of 60 s windows; a walk over every span would not finish
        rows = [make_row(src="a", w=0), make_row(src="b", w=1),
                make_row(src="c", w=far), make_row(src="d", w=far + 2)]
        seqs = feat.build_sequences(rows, n_windows=3, l_max=10)
        assert [[r.src_addr for r in s.rows] for s in seqs] == [["a", "b"], ["c"], ["d"]]

    def test_deterministic(self):
        rows = [make_row(src=f"h{i}", w=i % 4, t=float(i)) for i in range(30)]
        a = feat.build_sequences(rows, 2, 8)
        b = feat.build_sequences(rows, 2, 8)
        assert ([[r.src_addr for r in s.rows] for s in a]
                == [[r.src_addr for r in s.rows] for s in b])


class TestTrailingSequences:
    def test_context_per_window(self):
        rows = [make_row(src="h", w=w) for w in range(4)]
        seqs = feat.trailing_sequences(rows, n_windows=3, l_max=10)
        by_target = {s.target_window: s for s in seqs}
        assert sorted(by_target) == [0, 1, 2, 3]
        assert len(by_target[0]) == 1   # no history yet
        assert len(by_target[1]) == 2
        assert len(by_target[2]) == 3
        assert len(by_target[3]) == 3   # windows 1..3
        assert [r.window_index for r in by_target[3].rows] == [1, 2, 3]

    def test_every_row_is_target_exactly_once(self):
        rng = np.random.default_rng(31)
        rows = [make_row(src=f"h{i}", w=int(rng.integers(0, 10)), t=float(i))
                for i in range(100)]
        seqs = feat.trailing_sequences(rows, 3, 8)
        targets = [id(r) for s in seqs for r in s.rows
                   if r.window_index == s.target_window]
        assert sorted(targets) == sorted(id(r) for r in rows)

    def test_gap_windows_shrink_context(self):
        rows = [make_row(src="h", w=0), make_row(src="h", w=5)]
        seqs = feat.trailing_sequences(rows, 3, 10)
        by_target = {s.target_window: len(s) for s in seqs}
        assert by_target == {0: 1, 5: 1}


# One row per (host, window); windows leave gaps, and first_seen takes few
# values so hosts tie on it and order falls to src_addr.
HOST_WINDOWS = st.lists(st.tuples(st.sampled_from("abcdef"), st.integers(0, 30),
                                  st.integers(0, 2)),
                        max_size=60, unique_by=lambda hw: hw[:2])


def _rows(host_windows):
    return [make_row(src=h, w=w, t=w * 60.0 + dt,
                     vec=np.full(feat.N_FEATURES, i / 100.0))
            for i, (h, w, dt) in enumerate(host_windows)]


def _check_members(s):
    """Members sorted by (first_seen, src_addr); vectors are their stacked values."""
    keys = [(r.first_seen, r.src_addr) for r in s.rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    npt.assert_array_equal(s.vectors, np.stack([r.values for r in s.rows]))


@settings(max_examples=200, deadline=None)
@given(HOST_WINDOWS, st.integers(1, 5), st.integers(1, 6))
def test_build_sequences_partitions_rows_into_span_chunks(host_windows, n, l_max):
    rows = _rows(host_windows)
    seqs = feat.build_sequences(rows, n, l_max)
    assert sorted(id(r) for s in seqs for r in s.rows) == sorted(id(r) for r in rows)
    spans: dict[int, list] = {}
    for s in seqs:
        assert s.target_window is None
        _check_members(s)
        (k,) = {r.window_index // n for r in s.rows}
        spans.setdefault(k, []).append(s)
    for chunks in spans.values():
        assert all(len(c) == l_max for c in chunks[:-1])
        assert 1 <= len(chunks[-1]) <= l_max
        keys = [(r.first_seen, r.src_addr) for c in chunks for r in c.rows]
        assert keys == sorted(keys)  # chunks cut one sorted span in order


@settings(max_examples=200, deadline=None)
@given(HOST_WINDOWS, st.integers(1, 5), st.integers(1, 6))
def test_trailing_sequences_target_every_row_once(host_windows, n, l_max):
    rows = _rows(host_windows)
    seqs = feat.trailing_sequences(rows, n, l_max)
    targets = [id(r) for s in seqs for r in s.rows if r.window_index == s.target_window]
    assert sorted(targets) == sorted(id(r) for r in rows)
    for s in seqs:
        _check_members(s)
        assert all(s.target_window - n < r.window_index <= s.target_window
                   for r in s.rows)


def _sequence_key(seqs):
    return [([(r.src_addr, r.window_index) for r in s.rows], s.target_window,
             s.vectors.tobytes()) for s in seqs]


def test_sequence_cost_follows_the_populated_windows_not_n_windows():
    # 24 windows, each holding 1-3 hosts: a span of 10**7 windows reaches
    # no further than one of 10**4, and is walked no longer.
    rows = [make_row(src=h, w=w, t=w * 60.0 + i, vec=np.full(feat.N_FEATURES, w / 24))
            for w in range(24) for i, h in enumerate("abc"[:1 + w % 3])]
    builds = (feat.build_sequences, feat.trailing_sequences)
    started = time.perf_counter()
    got = [build(rows, 10**7, 16) for build in builds]
    assert time.perf_counter() - started < 1.0
    assert [_sequence_key(g) for g in got] == [_sequence_key(build(rows, 10**4, 16))
                                               for build in builds]


@pytest.mark.parametrize("build", [feat.build_sequences, feat.trailing_sequences])
@pytest.mark.parametrize("n,l_max", [(0, 4), (3, 0)])
def test_sequence_sizes_must_be_positive(build, n, l_max):
    with pytest.raises(ValueError, match="must be >= 1"):
        build([make_row(w=0)], n, l_max)


def test_non_malicious_filter():
    rows = [make_row(label=GroundTruth.NORMAL), make_row(label=GroundTruth.BOTNET),
            make_row(label=GroundTruth.BACKGROUND)]
    kept = feat.non_malicious(rows)
    assert [r.label for r in kept] == [GroundTruth.NORMAL, GroundTruth.BACKGROUND]


def test_the_service_vocabulary_is_ingests():
    assert ({"other", *ingest._SERVICE_TABLE.values()}
            == {"other", *feat.SERVICE_CATEGORIES})


def test_feature_name_count():
    assert feat.N_FEATURES == 25
    assert len(set(FEATURE_NAMES)) == 25
