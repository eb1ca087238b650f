"""Per-host time-window aggregation, [0,1] normalization, and sequence assembly.

Flows are bucketed by source address into fixed-duration windows counted
from the first flow's timestamp. Each (host, window) bucket becomes one
``FeatureRow`` of 25 raw values in FEATURE_NAMES order: connection and
uniqueness counts, byte/packet/duration sums, protocol/state/service
category counts, and distinct-value counts. ``aggregate_flows`` builds
these rows for the batch and the streaming path alike, in two ways that
give the same bits:

- a ``FlowTable`` (the batch path, from ``read_dataset``) is reduced with
  array operations over its (host, window) groups at any window length:
  ``np.unique``, ``bincount`` and ``reduceat``, with no object per flow
  and one ``service_of`` call per distinct (protocol, port) pair;
- any other iterable of records (the stream's closed windows, synthetic
  flows) goes through ``AggBuilder``, which adds each flow straight into
  a row's columns, one ``service_of`` call per flow. On the stream's
  small windows a few hundred adds cost less than the array reduction's
  fixed cost per call.

The rows are then min-max scaled to [0,1] with statistics fitted on the
training split, and chained into model-ready sequences.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence as Seq

import numpy as np

from .errors import DataError
from .ingest import FlowRecord, FlowTable, GroundTruth, service_of

FEATURE_NAMES: tuple[str, ...] = (
    "n_connections",
    "n_unique_dst_addrs",
    "n_unique_dst_ports",
    "n_unique_src_ports",
    "sum_bytes",
    "sum_pkts",
    "sum_dur",
    "proto_tcp",
    "proto_udp",
    "proto_icmp",
    "proto_other",
    "state_con",
    "state_int",
    "state_urp",
    "state_rst",
    "state_est",
    "state_other",
    "service_dns",
    "service_smtp",
    "service_ssl",
    "service_http",
    "service_other",
    "n_distinct_proto",
    "n_distinct_state",
    "n_distinct_service",
)

N_FEATURES = len(FEATURE_NAMES)

PROTO_CATEGORIES = ("tcp", "udp", "icmp")
STATE_CATEGORIES = ("con", "int", "urp", "rst", "est")
SERVICE_CATEGORIES = ("dns", "smtp", "ssl", "http")

_IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def proto_category(proto: str) -> str:
    p = proto.lower()
    return p if p in PROTO_CATEGORIES else "other"


def state_category(state: str) -> str:
    """Bucket a flow-state string.

    CON/INT/URP are matched exactly (connectionless summaries). For
    flag-pair forms like FSPA_FSPA, a reset flag on either side wins,
    otherwise acknowledgement on both sides counts as an established
    exchange. Everything else, including empty states, is "other".
    """
    s = state.strip().upper()
    if s in ("CON", "INT", "URP"):
        return s.lower()
    if "_" in s:
        left, right = s.split("_", 1)
        if "R" in left or "R" in right:
            return "rst"
        if "A" in left and "A" in right:
            return "est"
        return "other"
    if s.startswith("RST"):
        return "rst"
    return "other"


def window_index(t: float, t0: float, window_seconds: float) -> int:
    """Zero-based window number of ``t`` from ``t0``; DataError if it overflows float64."""
    if window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    if t < t0:
        raise ValueError(f"timestamp {t} precedes stream origin {t0}")
    w = (t - t0) // window_seconds
    if w == np.inf:
        raise DataError(f"window_seconds {window_seconds!r} is too short: window numbers "
                        f"overflow float64 {t - t0!r} s after the first flow")
    return int(w)


@dataclass(frozen=True, slots=True)
class FeatureRow:
    """One source host's record for one time window: the unit scored and classified.

    ``AggBuilder.finalize`` gives raw counts; ``rows_from_aggregates``
    gives the same record with its values scaled to [0,1].
    """

    src_addr: str
    window_index: int
    first_seen: float
    label: GroundTruth
    values: np.ndarray  # (N_FEATURES,)

    def value(self, name: str) -> float:
        return float(self.values[_IDX[name]])


def _columns(prefix: str, categories: tuple[str, ...]) -> dict[str, int]:
    return {c: _IDX[f"{prefix}_{c}"] for c in categories + ("other",)}


_N_COL = _IDX["n_connections"]
_BYTES_COL = _IDX["sum_bytes"]
_PKTS_COL = _IDX["sum_pkts"]
_DUR_COL = _IDX["sum_dur"]
_PROTO_COLS = _columns("proto", PROTO_CATEGORIES)
_STATE_COLS = _columns("state", STATE_CATEGORIES)
_SERVICE_COLS = _columns("service", SERVICE_CATEGORIES)


@functools.lru_cache(maxsize=4096)
def _category_columns(proto: str, state: str, service: str) -> tuple[int, int, int, str]:
    """A flow's proto, state and service columns, and its lowercased proto."""
    return (_PROTO_COLS[proto_category(proto)], _STATE_COLS[state_category(state)],
            _SERVICE_COLS[service], proto.lower())


# filled from the builder's sets, in the order finalize lists them
_DISTINCT_COLS = [_IDX[n] for n in (
    "n_unique_dst_addrs", "n_unique_dst_ports", "n_unique_src_ports",
    "n_distinct_proto", "n_distinct_state", "n_distinct_service")]


class AggBuilder:
    """Incremental accumulator behind a (host, window) row.

    ``counts`` holds the features in FEATURE_NAMES order; every flow adds
    to its count, sum and category columns, its service derived from its
    protocol and port. Only ``aggregate_flows`` creates builders, for flows
    given as records (the streaming detector's windows); the batch
    preprocessor's FlowTable takes its array path, which gives the same
    rows from the same flows.
    """

    __slots__ = ("src_addr", "window_index", "first_seen", "label", "counts",
                 "dst_addrs", "dst_ports", "src_ports", "protos", "states",
                 "services")

    def __init__(self, src_addr: str, window_idx: int):
        self.src_addr = src_addr
        self.window_index = window_idx
        self.first_seen = float("inf")
        self.label = GroundTruth.BACKGROUND
        self.counts: list[int | float] = [0] * N_FEATURES
        self.dst_addrs: set[str] = set()
        self.dst_ports: set[str] = set()
        self.src_ports: set[str] = set()
        self.protos: set[str] = set()
        self.states: set[str] = set()
        self.services: set[str] = set()

    def add(self, flow: FlowRecord) -> None:
        (start, dur, proto, _, src_port, _, dst_addr, dst_port, state,
         pkts, nbytes, _, label_raw) = flow
        service = service_of(proto, dst_port)
        proto_col, state_col, service_col, proto_low = _category_columns(proto, state, service)
        counts = self.counts
        counts[_N_COL] += 1
        counts[_BYTES_COL] += nbytes
        counts[_PKTS_COL] += pkts
        counts[_DUR_COL] += dur  # in flow order: a float sum's bits depend on it
        counts[proto_col] += 1
        counts[state_col] += 1
        counts[service_col] += 1
        if start < self.first_seen:
            self.first_seen = start
        self.dst_addrs.add(dst_addr)
        self.dst_ports.add(dst_port)
        self.src_ports.add(src_port)
        self.protos.add(proto_low)
        self.states.add(state)
        self.services.add(service)
        # any botnet flow makes the window botnet, else any normal flow normal
        label = GroundTruth.from_label(label_raw)
        if label is GroundTruth.BOTNET or (label is GroundTruth.NORMAL
                                           and self.label is GroundTruth.BACKGROUND):
            self.label = label

    def finalize(self) -> FeatureRow:
        """The raw row; only the distinct-count columns are filled here."""
        values = np.array(self.counts, dtype=np.float64)
        values[_DISTINCT_COLS] = [len(s) for s in (
            self.dst_addrs, self.dst_ports, self.src_ports,
            self.protos, self.states, self.services)]
        return FeatureRow(self.src_addr, self.window_index, self.first_seen,
                          self.label, values)


def aggregate_flows(records: Iterable[FlowRecord], t0: float,
                    window_seconds: float) -> list[FeatureRow]:
    """Bucket a flow stream into raw (host, window) rows.

    Accepts flows in any order; ``first_seen`` and the label are
    order-independent, and ``sum_dur`` adds in the order given. Results are
    sorted by (window, first_seen, host). A FlowTable is reduced as arrays
    (``_aggregate_table``), any other iterable by AggBuilders; both give
    the same rows, bit for bit.
    """
    if isinstance(records, FlowTable):
        return _aggregate_table(records, t0, window_seconds)
    builders: dict[tuple[str, int], AggBuilder] = {}
    for flow in records:
        w = window_index(flow.start_time, t0, window_seconds)
        key = (flow.src_addr, w)
        b = builders.get(key)
        if b is None:
            b = builders[key] = AggBuilder(flow.src_addr, w)
        b.add(flow)
    done = [b.finalize() for b in builders.values()]
    done.sort(key=lambda a: (a.window_index, a.first_seen, a.src_addr))
    return done


_LABEL_RANK = (GroundTruth.BACKGROUND, GroundTruth.NORMAL, GroundTruth.BOTNET)


def _group_sums(values: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact integer sums of non-negative int64 counts per group, rounded once to float64.

    int64 sums where they cannot overflow; Python ints otherwise, as
    AggBuilder's sums are.
    """
    if len(values) and int(values.max()) * len(values) > np.iinfo(np.int64).max:
        values = values.astype(object)
    return np.add.reduceat(values[order], starts).astype(np.float64)


def _aggregate_table(table: FlowTable, t0: float, window_seconds: float) -> list[FeatureRow]:
    """aggregate_flows of a FlowTable by array reductions over its (host, window) groups.

    Window numbers are ``(t - t0) // T`` as window_index computes them, and
    stay float64, which holds each finite one exactly; a row's number is
    its ``int``; the table is sorted by start time, so window_index checks
    them all on its first and last flows. ``sum_dur`` is a ``bincount`` in
    table order, which adds each group's durations one by one in the order
    AggBuilder would. Each distinct (proto, dst_port) pair's service is
    derived once; its column, one per service, gives the pair's flows both
    counts.
    Nothing allocated here scales with the span of window numbers.
    """
    cols, vocab = table.columns, table.vocab
    start = cols["start_time"]
    n = len(start)
    if not n:
        return []
    for t in (start[0], start[-1]):  # raises as the records' path would
        window_index(float(t), t0, window_seconds)
    windows = np.floor_divide(start - t0, window_seconds)
    # Group by (window, host): the window's rank among the distinct ones,
    # times the host count, plus the host code.
    key = np.unique(windows, return_inverse=True)[1] * len(vocab["src_addr"]) + cols["src_addr"]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_group = np.r_[True, key[1:] != key[:-1]]
    del key
    starts = np.flatnonzero(new_group)
    g = len(starts)
    group = np.empty(n, dtype=np.int64)
    group[order] = np.cumsum(new_group) - 1
    first = order[starts]  # each group's first flow in table order

    values = np.zeros((g, N_FEATURES))
    values[:, _N_COL] = np.diff(np.r_[starts, n])
    values[:, _BYTES_COL] = _group_sums(cols["tot_bytes"], order, starts)
    values[:, _PKTS_COL] = _group_sums(cols["tot_pkts"], order, starts)
    values[:, _DUR_COL] = np.bincount(group, weights=cols["duration"], minlength=g)
    n_ports = len(vocab["dst_port"])
    pairs, pair = np.unique(cols["proto"] * np.int64(n_ports) + cols["dst_port"],
                            return_inverse=True)
    services = np.array([_SERVICE_COLS[service_of(p, d)] for p, d in zip(
        vocab["proto"][pairs // n_ports].tolist(), vocab["dst_port"][pairs % n_ports].tolist())])
    category = ((np.array([_PROTO_COLS[proto_category(p)] for p in vocab["proto"]]), cols["proto"]),
                (np.array([_STATE_COLS[state_category(s)] for s in vocab["state"]]), cols["state"]),
                (services, pair))
    flat = values.reshape(-1)
    for column, codes in category:
        flat += np.bincount(group * N_FEATURES + column[codes], minlength=g * N_FEATURES)
    # A table's protos are parse_flow's, already lowercased, so their codes
    # count the distinct proto.lower() values that AggBuilder counts.
    distinct = (cols["dst_addr"], cols["dst_port"], cols["src_port"],
                cols["proto"], cols["state"], services[pair])
    for col, codes in zip(_DISTINCT_COLS, distinct):
        m = int(codes.max()) + 1
        values[:, col] = np.bincount(np.unique(group * m + codes) // m, minlength=g)

    first_seen = np.minimum.reduceat(start[order], starts)
    rank = np.array([_LABEL_RANK.index(GroundTruth.from_label(w)) for w in vocab["label_raw"]])
    labels = np.maximum.reduceat(rank[cols["label_raw"]][order], starts)
    hosts = cols["src_addr"][first]
    host_order = np.empty(len(vocab["src_addr"]), dtype=np.int64)
    host_order[np.argsort(vocab["src_addr"])] = np.arange(len(host_order))
    out = np.lexsort((host_order[hosts], first_seen, windows[first]))
    return [FeatureRow(vocab["src_addr"][h], int(w), t, _LABEL_RANK[label], v)
            for h, w, t, label, v in zip(hosts[out].tolist(), windows[first][out].tolist(),
                                         first_seen[out].tolist(), labels[out].tolist(),
                                         values[out])]


def _apply_log1p(x: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """log1p flagged columns; counts are floored at 0 to keep the log real."""
    if not flags.any():
        return x
    out = np.array(x, dtype=np.float64, copy=True)
    out[..., flags] = np.log1p(np.maximum(out[..., flags], 0.0))
    return out


@dataclass
class Normalizer:
    """Per-feature min-max scaling to [0,1], with optional log1p pre-transform.

    Statistics must be fitted on the training split only; values outside
    the fitted range clamp to the interval ends, and a constant feature
    maps to 0.
    """

    vmin: np.ndarray
    vmax: np.ndarray
    log1p: np.ndarray  # bool flags, applied before min/max

    @classmethod
    def fit(cls, raw: np.ndarray, log1p: np.ndarray | None = None) -> "Normalizer":
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[0] < 1:
            raise DataError("normalizer: need at least one aggregate to fit")
        flags = (np.zeros(raw.shape[1], dtype=bool) if log1p is None
                 else np.asarray(log1p, dtype=bool))
        x = _apply_log1p(raw, flags)
        return cls(vmin=x.min(axis=0), vmax=x.max(axis=0), log1p=flags)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        x = _apply_log1p(np.asarray(raw, dtype=np.float64), self.log1p)
        span = self.vmax - self.vmin
        out = np.divide(x - self.vmin, span, out=np.zeros_like(x), where=span != 0)
        return np.clip(out, 0.0, 1.0)


def rows_from_aggregates(aggs: Seq[FeatureRow],
                         norm: Normalizer) -> list[FeatureRow]:
    """The raw rows with their values scaled by ``norm``, in one transform of their stack."""
    if not aggs:
        return []
    scaled = norm.transform(np.stack([a.values for a in aggs]))
    return [FeatureRow(a.src_addr, a.window_index, a.first_seen, a.label, values)
            for a, values in zip(aggs, scaled)]


@dataclass
class Sequence:
    """Time-ordered host-window rows from one span of consecutive windows."""

    rows: tuple[FeatureRow, ...]
    vectors: np.ndarray  # (L, F), the rows' values stacked
    target_window: int | None = None  # set when built as trailing context

    def __len__(self) -> int:
        return len(self.rows)


def _span_sequences(rows: Seq[FeatureRow], n_windows: int, l_max: int,
                    spans: Callable[[list[int]], Iterable[tuple[int, int | None]]]
                    ) -> list[Sequence]:
    """Sequences over the spans that ``spans`` names from the sorted populated windows.

    A span is (first window, target window or None) and covers ``n_windows``
    windows; its members sort by (first_seen, src_addr), unique since a host
    has one row per window, into chunks of at most ``l_max``. Only populated
    windows are visited, so the cost does not grow with ``n_windows``.
    """
    if n_windows < 1 or l_max < 1:
        raise ValueError("n_windows and l_max must be >= 1")
    by_window: dict[int, list[FeatureRow]] = {}
    for r in rows:
        by_window.setdefault(r.window_index, []).append(r)
    windows = sorted(by_window)
    out: list[Sequence] = []
    for first, target in spans(windows):
        inside = windows[bisect_left(windows, first):bisect_left(windows, first + n_windows)]
        members = sorted((r for w in inside for r in by_window[w]),
                         key=lambda r: (r.first_seen, r.src_addr))
        for lo in range(0, len(members), l_max):
            chunk = tuple(members[lo:lo + l_max])
            out.append(Sequence(chunk, np.stack([r.values for r in chunk]), target))
    return out


def build_sequences(rows: Seq[FeatureRow], n_windows: int,
                    l_max: int) -> list[Sequence]:
    """Chain host-window rows into sequences over spans of ``n_windows`` windows.

    Spans start at window 0 and do not overlap, so every row lands in
    exactly one sequence. Only populated spans are visited, so a long gap
    between windows costs nothing.
    """
    return _span_sequences(
        rows, n_windows, l_max,
        lambda ws: [(k, None) for k in sorted({w - w % n_windows for w in ws if w >= 0})])


def trailing_sequences(rows: Seq[FeatureRow], n_windows: int, l_max: int,
                       targets: Iterable[int] | None = None) -> list[Sequence]:
    """One span per target window ``w``, covering windows (w-N, w].

    ``targets`` defaults to every populated window. This is the
    scoring-time construction: each row is judged in the context of the
    N-window history ending at its own window, which is exactly what the
    streaming path can know at the moment window ``w`` closes. Missing
    history windows simply contribute no elements. Scores are kept only
    for elements whose window equals ``target_window``, so every row is
    scored exactly once.
    """
    return _span_sequences(rows, n_windows, l_max,
                           lambda ws: [(w - n_windows + 1, w)
                                       for w in (ws if targets is None else targets)])


def non_malicious(rows: Iterable[FeatureRow]) -> list[FeatureRow]:
    return [r for r in rows if r.label is not GroundTruth.BOTNET]
