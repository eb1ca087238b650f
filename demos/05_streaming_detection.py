#!/usr/bin/env python3
"""On-line detection over a flow stream with bounded memory.

Trains a small model, then replays the held-out capture as a stream:
aggregates stay open for the current 60-second window only, and verdicts
for a window are emitted the moment the first flow of a later window
arrives. The final comparison shows the stream reproduced the batch
verdicts exactly.
"""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from botdet.ingest import iter_flows
from botdet.pipeline import (
    classify_scores,
    fit_detector_from_training,
    preprocess,
    score_split,
    train_model,
)
from botdet.streaming import run_stream
from botdet.synth import SynthConfig, make_fixture
from botdet.train import TrainConfig


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="botdet-demo-") as tmp:
        fx = make_fixture(tmp, train_cfg=SynthConfig(
            seed=3, n_normal_hosts=6, n_botnet_hosts=2, n_background_hosts=1,
            n_windows=24))
        pre = preprocess(fx["manifest"], ["synth-train"], ["synth-test"],
                         window_seconds=60.0, n_windows=3, l_max=64)
        cfg = TrainConfig(epochs=8, batch_size=16, lr=0.01, anneal_steps=40,
                          seed=0, hidden=12, latent=4, l_max=64)
        model = train_model(pre.meta, pre.train.rows, cfg)
        det = fit_detector_from_training(
            score_split(model, pre.meta, pre.train.rows), min_samples=30, bins=60)

        decisions, stats = run_stream(model, det, iter_flows(fx["test"]))
        print("first decisions as they are emitted "
              "(window w closes when window w+1 starts):")
        streamed = []
        for d in decisions:
            if len(streamed) < 8:
                print(f"  window {d['window_index']:2d} host {d['src_addr']:15s} "
                      f"score={d['score']:7.2f} verdict={d['verdict']:12s} "
                      f"latency={d['emit_latency']:5.1f}s")
            streamed.append(d)
        print(f"...\nstream totals: flows={stats.flows_in} "
              f"windows={stats.windows_closed} decisions={stats.decisions} "
              f"late_dropped={stats.late_dropped}")

        batch = classify_scores(score_split(model, pre.meta, pre.test.rows), det)
        stream_v = {(d["src_addr"], d["window_index"]): d["verdict"] for d in streamed}
        batch_v = {(d["src_addr"], d["window_index"]): d["verdict"] for d in batch}
        print(f"\nbatch and stream verdicts identical: {stream_v == batch_v} "
              f"({len(batch_v)} host-windows)")
        n_mal = sum(1 for v in stream_v.values() if v == "Malicious")
        print(f"flagged Malicious: {n_mal}/{len(stream_v)}")


if __name__ == "__main__":
    main()
