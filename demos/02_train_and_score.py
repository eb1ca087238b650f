#!/usr/bin/env python3
"""Train the recurrent VAE on non-malicious traffic and score everything.

The model never sees a botnet-labeled host-window during training, so
botnet bursts reconstruct poorly and collect visibly higher
cross-entropy anomaly scores.
"""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from botdet.ingest import GroundTruth
from botdet.pipeline import preprocess, score_split, train_model
from botdet.synth import SynthConfig, make_fixture
from botdet.train import TrainConfig


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="botdet-demo-") as tmp:
        fx = make_fixture(tmp, train_cfg=SynthConfig(
            seed=3, n_normal_hosts=6, n_botnet_hosts=2, n_background_hosts=1,
            n_windows=24))
        pre = preprocess(fx["manifest"], ["synth-train"], ["synth-test"],
                         window_seconds=60.0, n_windows=3, l_max=64)
        n_mal = sum(1 for r in pre.train.rows if r.label is GroundTruth.BOTNET)
        print(f"training split: {len(pre.train.rows)} host-windows "
              f"({n_mal} botnet-labeled, excluded from training)")

        cfg = TrainConfig(epochs=10, batch_size=16, lr=0.01, anneal_steps=50,
                          seed=0, hidden=16, latent=4, l_max=64)
        model = train_model(pre.meta, pre.train.rows, cfg)
        print(f"trained: arch={model.arch} H={cfg.hidden} D={cfg.latent} "
              f"summary={model.train_summary}")

        scored = score_split(model, pre.meta, pre.test.rows)
        by_label = {}
        for s in scored:
            by_label.setdefault(s.label.value, []).append(s.score)
        print("\nanomaly score distribution on the held-out split:")
        for label, vals in sorted(by_label.items()):
            v = np.array(vals)
            print(f"  {label:10s} n={len(v):4d}  median={np.median(v):7.3f}  "
                  f"p90={np.quantile(v, 0.9):7.3f}  max={v.max():7.3f}")

        worst = max(scored, key=lambda s: s.score)
        best = min(scored, key=lambda s: s.score)
        print(f"\nmost anomalous: {worst.src_addr} window {worst.window_index} "
              f"({worst.label.value}), score {worst.score:.2f}")
        print(f"least anomalous: {best.src_addr} window {best.window_index} "
              f"({best.label.value}), score {best.score:.2f}")


if __name__ == "__main__":
    main()
