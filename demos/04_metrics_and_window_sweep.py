#!/usr/bin/env python3
"""Evaluation metrics and the window-duration sweep.

Runs the whole pipeline twice on the same synthetic data, once with
30-second and once with 60-second windows, and prints the comparison
table (recall, precision, F1, AUPRC, AUROC per duration) plus a coarse
text rendering of the score histograms behind it.
"""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from botdet.metrics import report_table
from botdet.pipeline import window_sweep
from botdet.synth import SynthConfig, make_fixture
from botdet.train import TrainConfig


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="botdet-demo-") as tmp:
        fx = make_fixture(tmp, train_cfg=SynthConfig(
            seed=3, n_normal_hosts=6, n_botnet_hosts=2, n_background_hosts=1,
            n_windows=24))
        cfg = TrainConfig(epochs=8, batch_size=16, lr=0.01, anneal_steps=40,
                          seed=0, hidden=12, latent=4, l_max=64)
        results = list(window_sweep(fx["manifest"], ["synth-train"], ["synth-test"],
                                    durations=[30.0, 60.0], cfg=cfg,
                                    min_samples=30, bins=40))

        print(report_table([(f"T={r.duration:g}s", r.report) for r in results]))

        r = next(x for x in results if x.duration == 60.0)
        print("\nscore histogram at T=60s (n=normal mass, b=botnet mass per bin):")
        hist = r.histogram
        step = max(len(hist) // 20, 1)
        for i in range(0, len(hist), step):
            chunk = hist[i:i + step]
            width = sum(c["bin_right"] - c["bin_left"] for c in chunk)
            mass_n = sum(c["density_normal"] * (c["bin_right"] - c["bin_left"])
                         for c in chunk)
            mass_b = sum(c["density_botnet"] * (c["bin_right"] - c["bin_left"])
                         for c in chunk)
            lo = chunk[0]["bin_left"]
            bar_n = "n" * round(40 * mass_n)
            bar_b = "b" * round(40 * mass_b)
            print(f"  {lo:8.2f}+ |{bar_n}{bar_b}")
        print("\n(the two populations barely overlap, which is what makes the"
              "\n likelihood comparison in demo 03 work without a threshold)")


if __name__ == "__main__":
    main()
