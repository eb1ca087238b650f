#!/usr/bin/env python3
"""Time K taped RVAE training updates at a given size and report peak memory.

    PYTHONPATH=src python3 scripts/time_update.py --hidden 512 --latent 100 \\
        --length 128 --batch 16 --updates 3

One update is what ``train._fit`` does per batch: zero the gradients, run
the taped ``rvae_forward`` and ``vae_loss``, ``backward``, clip the global
gradient norm and take an Adam step. The batch is B full-length sequences
of L uniform feature vectors (F = the feature count the pipeline builds),
with a fixed seed. The script prints the milliseconds of each update, their
median, the resident set size before the first update and the process's
peak resident set size (``getrusage``), which bounds what one update
needs at that size. The times are raw wall clock: on a shared host,
compare two versions by alternating their runs in one session.

BLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` (or its OpenMP/MKL
peers) is already set, so the figures compare with the benchmark's.
"""
from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads its BLAS

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH

from botdet import models
from botdet.autodiff import backward, zero_grads
from botdet.features import N_FEATURES
from botdet.optim import Adam, clip_global_norm


def rss_mb() -> float:
    """Current resident set size in MB, from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hidden", type=int, default=512)
    ap.add_argument("--latent", type=int, default=100)
    ap.add_argument("--length", type=int, default=128)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--updates", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if min(args.hidden, args.latent, args.length, args.batch, args.updates) < 1:
        ap.error("every size must be >= 1")

    rng = np.random.default_rng(args.seed)
    params = models.RvaeParams.init(rng, N_FEATURES, args.hidden, args.latent)
    plist = params.parameters()
    opt = Adam(plist, lr=0.01)
    batch = rng.uniform(0.0, 1.0, size=(args.batch, args.length, N_FEATURES))
    lengths = np.full(args.batch, args.length)
    base_mb = rss_mb()
    times_ms = []
    for _ in range(args.updates):
        eps = rng.standard_normal((args.batch, args.latent))
        start = time.perf_counter()
        zero_grads(plist)
        recons, mu, lv = models.rvae_forward(params, batch, lengths, eps)
        total, _, _ = models.vae_loss(batch, recons, mu, lv, beta=1.0, lengths=lengths)
        backward(total)
        clip_global_norm(plist, 5.0)
        opt.step()
        end = time.perf_counter()
        times_ms.append((end - start) * 1000.0)
        del recons, mu, lv, total
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux
    print(f"H={args.hidden} latent={args.latent} L={args.length} B={args.batch} "
          f"F={N_FEATURES} updates={args.updates}")
    print("ms per update: " + " ".join(f"{t:.0f}" for t in times_ms)
          + f" (median {statistics.median(times_ms):.0f})")
    print(f"RSS before the first update {base_mb:.0f} MB, peak {peak_mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
