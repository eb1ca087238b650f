"""On-line detection over a time-ordered flow stream with bounded state.

Window 0 starts at the first flow's timestamp. An in-order filter numbers
each flow's window, counts and drops every flow whose window is below the
open one, and passes the rest on grouped by that number; each group is
aggregated by the batch's own ``aggregate_flows``. The first flow of a
later window ends a group and so acts as the watermark: the closed window
is scored inside its trailing N-window context and classified. The
context is built by the batch's ``trailing_sequences``, so identical
flows give identical verdicts. Between closes the loop holds the open
window's aggregates and the rows of the previous N-1 windows, nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from .detector import DetectorModel, classify
from .errors import DataError
from .features import (FEATURE_NAMES, FeatureRow, aggregate_flows, rows_from_aggregates,
                       trailing_sequences, window_index)
from .ingest import FlowRecord
from .scoring import score_sequences
from .train import TrainedModel


@dataclass
class StreamStats:
    flows_in: int = 0
    late_dropped: int = 0
    windows_closed: int = 0
    decisions: int = 0


def run_stream(model: TrainedModel, det: DetectorModel,
               flows: Iterable[FlowRecord]
               ) -> tuple[Iterator[dict], StreamStats]:
    """Decision-record generator plus live counters.

    Decisions for window w are emitted when the first flow of a later
    window arrives, or at end of input. Empty windows close with no
    decisions, and missing history windows contribute no sequence
    elements. A flow whose window is below the open one, which includes
    any flow older than the first, is counted and dropped.

    emit_latency is measured on the data clock: the time of the last
    in-order flow read when window w closes, minus the window's end time,
    clamped to 0. That flow is the watermark that closed the window; at
    end of input it is the window's own last flow, which gives 0.

    Raises DataError before reading any flow when the model's feature
    layout is not FEATURE_NAMES, the one ``aggregate_flows`` builds.
    """
    if tuple(model.feature_names) != FEATURE_NAMES:
        raise DataError(
            "feature layout mismatch between the stream's aggregation and the model: "
            f"{list(FEATURE_NAMES)[:3]}... vs {list(model.feature_names)[:3]}...")
    stats = StreamStats()
    T, N = model.window_seconds, model.n_windows

    def gen() -> Iterator[dict]:
        t0: float | None = None
        last = 0.0
        open_w = 0

        def in_order() -> Iterator[tuple[int, FlowRecord]]:
            nonlocal t0, last, open_w
            for flow in flows:
                stats.flows_in += 1
                if t0 is None:
                    t0 = flow.start_time
                if flow.start_time < t0 or (w := window_index(flow.start_time, t0, T)) < open_w:
                    stats.late_dropped += 1
                    continue
                open_w, last = w, flow.start_time
                yield w, flow

        history: list[FeatureRow] = []
        for w, group in groupby(in_order(), key=itemgetter(0)):
            rows = rows_from_aggregates(aggregate_flows((f for _, f in group), t0, T),
                                        model.normalizer)
            history = [r for r in history if r.window_index > w - N] + rows
            seqs = trailing_sequences(history, N, model.l_max, targets=(w,))
            scored = score_sequences(model.arch, model.params, seqs)
            decisions = classify(sorted(scored, key=lambda s: s.src_addr), det)
            # aggregate_flows has drained the group, so ``last`` is the watermark
            latency = max(last - (t0 + (w + 1) * T), 0.0)
            for record in decisions:
                record["emit_latency"] = latency
            stats.windows_closed = w + 1
            stats.decisions += len(decisions)
            yield from decisions

    return gen(), stats
