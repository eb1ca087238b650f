"""Span tracer that wraps botdet's public functions from outside the package.

Each wrapped function is replaced at the module attribute its callers
resolve at call time (``botdet.pipeline.aggregate_flows``,
``botdet.train.backward``, ``botdet.optim.Adam.step`` and so on), so no
file under ``src/botdet`` changes. A span records its name, start, end
and parent; a layer's self time is its span's duration minus the time
its child spans cover. Calls made once per flow (parsing a row, adding a
flow to a host builder) are folded into per-name totals instead of
stored one span each. Spans stay in memory and are written once, by
``Tracer.dump``, after the run.

Every span name is ``<group>:<function>``. A group's busy time counts the
wall time during which at least one of its spans was open, so a call
nested inside another call of the same group is not counted twice.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import botdet.autodiff
import botdet.features
import botdet.fileio
import botdet.ingest
import botdet.models
import botdet.optim
import botdet.pipeline
import botdet.scoring
import botdet.streaming
import botdet.train

# (owner, attribute, group). The owner is the namespace the caller looks the
# name up in, which for ``from .x import f`` is the importing module.
FUNCTION_TARGETS = [
    (botdet.pipeline, "aggregate_flows", "features.aggregate"),
    (botdet.pipeline, "rows_from_aggregates", "features.aggregate"),
    (botdet.streaming, "rows_from_aggregates", "features.aggregate"),
    (botdet.pipeline, "build_sequences", "features.sequences"),
    (botdet.scoring, "trailing_sequences", "features.sequences"),
    (botdet.streaming, "trailing_sequences", "features.sequences"),
    (botdet.models, "rvae_forward", "models.forward"),
    (botdet.models, "vae_loss", "models.loss"),
    (botdet.train, "backward", "autodiff.backward"),
    (botdet.train, "clip_global_norm", "optim.step"),
    (botdet.optim.Adam, "step", "optim.step"),
    (botdet.pipeline, "fit_detector", "detector.fit"),
    (botdet.pipeline, "make_report", "metrics.evaluate"),
    *[(botdet.pipeline, name, "pipeline")
      for name in ("preprocess", "score_split", "fit_detector_from_training",
                   "classify_scores", "evaluate_decisions", "load_manifest")],
    *[(botdet.fileio, name, "fileio")
      for name in ("write_features", "read_features", "save_model",
                   "load_model", "save_detector", "load_detector",
                   "write_scores_csv", "read_scores_csv",
                   "write_decisions_jsonl", "read_decisions_jsonl",
                   "dump_json", "write_run_manifest")],
]

# Called once per flow or per score: folded into totals, not stored as spans.
LIGHT_TARGETS = [
    (botdet.features.AggBuilder, "add", "features.aggregate"),
    (botdet.pipeline, "classify", "detector.classify"),
    (botdet.streaming, "classify", "detector.classify"),
]

SCORING_TARGETS = [botdet.scoring, botdet.streaming]

COUNT_RESULTS = {"features.aggregate:rows_from_aggregates": "features.host_windows"}


class Tracer:
    """In-memory spans, per-group busy time and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, self_s)
        self.light: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [index, name, start, child_s, parent]
        self._open: dict[str, int] = defaultdict(int)
        self._group_start: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- spans

    def _enter_group(self, group: str, now: float) -> None:
        if self._open[group] == 0:
            self._group_start[group] = now
        self._open[group] += 1

    def _leave_group(self, group: str, now: float) -> None:
        self._open[group] -= 1
        if self._open[group] == 0:
            self.busy[group] += now - self._group_start[group]

    def enter(self, name: str) -> None:
        now = perf_counter()
        self._enter_group(name.split(":", 1)[0], now)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, now, 0.0, parent])

    def leave(self) -> None:
        now = perf_counter()
        index, name, start, child, parent = self._stack.pop()
        self.spans[index] = (name, start, now, parent, now - start - child)
        if self._stack:
            self._stack[-1][3] += now - start
        self._leave_group(name.split(":", 1)[0], now)

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def light_call(self, name: str, start: float, end: float) -> None:
        """Fold one short call into totals and into its parent's child time."""
        entry = self.light[name]
        entry[0] += 1
        entry[1] += end - start
        if self._stack:
            self._stack[-1][3] += end - start

    # ----------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, group in FUNCTION_TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr),
                                                f"{group}:{attr}"))
        for owner, attr, group in LIGHT_TARGETS:
            self._patch(owner, attr, self._wrap_light(getattr(owner, attr),
                                                      f"{group}:{attr}"))
        for owner in SCORING_TARGETS:
            self._patch(owner, "score_sequences",
                        self._wrap_scoring(owner.score_sequences))
        self._patch(botdet.ingest, "iter_flows",
                    self._wrap_iter_flows(botdet.ingest.iter_flows))
        tensor_init = botdet.autodiff.Tensor.__init__
        counts = self.counts

        def counted_init(tensor, data, requires_grad=False):
            counts["tensors"] += 1
            tensor_init(tensor, data, requires_grad)

        self._patch(botdet.autodiff.Tensor, "__init__", counted_init)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        counter = COUNT_RESULTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave()
            if counter is not None:
                self.counts[counter] += len(out)
            return out
        return wrapper

    def _wrap_light(self, fn, name: str):
        group = name.split(":", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            self._enter_group(group, start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._leave_group(group, end)
                self.light_call(name, start, end)
        return wrapper

    def _wrap_scoring(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(arch, params, sequences):
            seqs = list(sequences)
            tensors_before = counts["tensors"]
            self.enter("scoring:score_sequences")
            try:
                out = fn(arch, params, seqs)
            finally:
                self.leave()
            counts["scoring.tensors"] += counts["tensors"] - tensors_before
            counts["scoring.sequences"] += len(seqs)
            counts["scoring.elements"] += sum(len(s) for s in seqs)
            counts["scoring.emitted"] += len(out)
            return out
        return wrapper

    def _wrap_iter_flows(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, strict=False, stats=None):
            stats = botdet.ingest.IngestStats() if stats is None else stats
            inner = fn(path, strict=strict, stats=stats)
            while True:
                start = perf_counter()
                tracer._enter_group("ingest", start)
                try:
                    flow = next(inner)
                except StopIteration:
                    break
                finally:
                    end = perf_counter()
                    tracer._leave_group("ingest", end)
                    tracer.light_call("ingest:iter_flows", start, end)
                tracer.counts["ingest.flows"] += 1
                yield flow
            tracer.counts["ingest.rows_bad"] += stats.files[-1].errors
        return wrapper

    # ------------------------------------------------------------- output

    def self_time(self, prefix: str) -> float:
        return sum(s[4] for s in self.spans if s[0].startswith(prefix))

    def dump(self, path: Path, extra: dict) -> None:
        payload = {
            "spans": [{"name": n, "start": a, "end": b, "parent": p, "self_s": s}
                      for n, a, b, p, s in self.spans],
            "folded_calls": {k: {"calls": v[0], "total_s": v[1]}
                             for k, v in self.light.items()},
            "group_busy_s": dict(self.busy),
            "counts": dict(self.counts),
            **extra,
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def source_wait_iter(flows, tracer: Tracer):
    """Iterate ``flows`` while charging the time spent in its ``next`` to the stream source."""
    it = iter(flows)
    while True:
        start = perf_counter()
        try:
            flow = next(it)
        except StopIteration:
            return
        finally:
            tracer.counts["streaming.source_wait_s"] += perf_counter() - start
        yield flow



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: int, names) -> dict:
    """Every per-layer metric in ``names``, 0 for a layer the workload does not use.

    Times and counts are per job; rates are over the whole traced run.
    """
    busy, c = tracer.busy, tracer.counts
    forward_calls = sum(1 for s in tracer.spans if s[0] == "models.forward:rvae_forward")
    updates = c["train.updates"]
    classify = tracer.light["detector.classify:classify"]
    out = dict.fromkeys(names, 0.0)
    out.update({
        "ingest.flows_per_s": _ratio(c["ingest.flows"], busy["ingest"]),
        "ingest.busy_s": busy["ingest"] / jobs,
        "ingest.rows_bad": c["ingest.rows_bad"] / jobs,
        "features.aggregate_s": busy["features.aggregate"] / jobs,
        "features.sequences_s": busy["features.sequences"] / jobs,
        "features.host_windows": c["features.host_windows"] / jobs,
        "scoring.busy_s": busy["scoring"] / jobs,
        "scoring.host_windows_per_s": _ratio(c["scoring.emitted"], busy["scoring"]),
        "scoring.sequences": c["scoring.sequences"] / jobs,
        "scoring.emit_ratio": _ratio(c["scoring.emitted"], c["scoring.elements"]),
        "autodiff.tensors_per_host_window": _ratio(c["scoring.tensors"], c["scoring.emitted"]),
        "autodiff.tensors_per_update": _ratio(c["train.tensors"], updates),
        "autodiff.backward_ms": _ratio(busy["autodiff.backward"], updates) * 1000.0,
        "models.forward_ms": _ratio(busy["models.forward"], forward_calls) * 1000.0,
        "optim.step_ms": _ratio(busy["optim.step"], updates) * 1000.0,
        "detector.fit_s": busy["detector.fit"] / jobs,
        "detector.classify_per_s": _ratio(classify[0], classify[1]),
        "metrics.evaluate_s": busy["metrics.evaluate"] / jobs,
        "fileio.busy_s": busy["fileio"] / jobs,
        "pipeline.self_s": tracer.self_time("pipeline:") / jobs,
        "cli.self_s": tracer.self_time("cli:") / jobs,
        "streaming.source_wait_s": c["streaming.source_wait_s"] / jobs,
    })
    return out
