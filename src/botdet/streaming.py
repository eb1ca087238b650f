"""On-line detection over a time-ordered flow stream with bounded state.

The loop keeps open aggregates for the current window plus the rows of
the previous N-1 closed windows, nothing else. A flow whose timestamp
crosses into a later window acts as the watermark: every window up to
that point is closed, scored inside its trailing N-window context, and
classified. The sequence construction is the same code the batch path
uses, so identical flows give identical verdicts.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .detector import DetectorModel, classify
from .features import AggBuilder, FeatureRow, rows_from_aggregates, trailing_sequences, window_index
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

    Window 0 starts at the first flow's timestamp. Decisions for window w
    are emitted when the first flow of a later window arrives (or at end
    of input); missing history windows contribute no sequence elements,
    so decisions flow from the first window boundary onward. Flows older
    than the current open window are counted and dropped.

    emit_latency is measured on the data clock: the watermark timestamp
    that closed the window minus the window's end time. The end-of-input
    flush has no later flow to act as watermark, so its latency is
    clamped to 0.
    """
    stats = StreamStats()

    def gen() -> Iterator[dict]:
        t0: float | None = None
        current_w = 0
        builders: dict[str, AggBuilder] = {}
        history: deque[list[FeatureRow]] = deque(maxlen=max(model.n_windows - 1, 0))

        def flush(w: int, watermark: float) -> Iterator[dict]:
            rows = rows_from_aggregates([b.finalize() for b in builders.values()],
                                        model.normalizer)
            builders.clear()
            stats.windows_closed += 1
            decisions: list[dict] = []
            if rows:
                context = [r for past in history for r in past] + rows
                seqs = trailing_sequences(context, model.n_windows, model.l_max,
                                          targets=(w,))
                scored = score_sequences(model.arch, model.params, seqs)
                decisions = classify(sorted(scored, key=lambda s: s.src_addr), det)
                window_end = t0 + (w + 1) * model.window_seconds
                latency = max(watermark - window_end, 0.0)
                for record in decisions:
                    record["emit_latency"] = latency
            history.append(rows)
            stats.decisions += len(decisions)
            yield from decisions

        last_time: float | None = None
        for flow in flows:
            stats.flows_in += 1
            if t0 is None:
                t0 = flow.start_time
            if flow.start_time < t0:
                stats.late_dropped += 1
                continue
            w = window_index(flow.start_time, t0, model.window_seconds)
            if w < current_w:
                stats.late_dropped += 1
                continue
            if w > current_w:
                yield from flush(current_w, flow.start_time)
                # The windows in between are empty: they close with no
                # decisions, and only the last N-1 of them stay in history.
                skipped = w - current_w - 1
                stats.windows_closed += skipped
                history.extend([[]] * min(skipped, history.maxlen))
                current_w = w
            b = builders.get(flow.src_addr)
            if b is None:
                b = builders[flow.src_addr] = AggBuilder(flow.src_addr, w)
            b.add(flow)
            last_time = flow.start_time

        if t0 is not None and last_time is not None:
            yield from flush(current_w, last_time)

    return gen(), stats
