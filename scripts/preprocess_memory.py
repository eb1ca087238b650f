#!/usr/bin/env python3
"""Peak memory and speed of ``preprocess`` on a large synthetic capture.

    PYTHONPATH=src python3 scripts/preprocess_memory.py --flows 2000000

Builds a training capture of at least ``--flows`` flows with
``botdet.synth``, one block of windows at a time so the builder never
holds more than a block, and a test capture a tenth of its size. The
blocks vary their host counts (8 to 56 normal hosts, 1 to 6 botnet and
0 to 8 background hosts per window), so the hosts per window spread as a
real capture's do. Then ``pipeline.preprocess`` runs on the pair in a
fresh child process, and the script prints the flow counts, the child's
resident set size after its imports, its peak (``ru_maxrss``), and the
flows per second of the ``preprocess`` call alone. The times are raw wall
clock: compare two versions by alternating their runs.

The captures go to ``--work-dir`` (default: a temporary directory, removed
afterwards).
"""
from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH

from botdet.ingest import CSV_FIELD_ORDER, flow_to_row
from botdet.synth import DEFAULT_START, SynthConfig, generate_flows

BLOCK_WINDOWS = 20
CHILD = r"""
import json, resource, sys, time
sys.path.append(sys.argv[2])
from botdet import pipeline

def rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0

base = rss_mb(resource.RUSAGE_SELF)
start = time.perf_counter()
pre = pipeline.preprocess(sys.argv[1], ["synth-train"], ["synth-test"])
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "base_mb": base, "peak_mb": rss_mb(resource.RUSAGE_SELF),
                  "flows": pre.train.stats.parsed + pre.test.stats.parsed,
                  "host_windows": len(pre.train.rows) + len(pre.test.rows)}))
"""


def block_config(seed: int, block: int, profile: str) -> SynthConfig:
    """Block ``block``'s windows, starting where the previous block ended, with its own host counts."""
    return SynthConfig(seed=seed + block, n_normal_hosts=8 + 8 * (block % 7),
                       n_botnet_hosts=1 + block % 6, n_background_hosts=(3 * block) % 9,
                       n_windows=BLOCK_WINDOWS, profile=profile,
                       start_time=DEFAULT_START + block * BLOCK_WINDOWS * 60.0)


def write_capture(path: Path, flows_wanted: int, seed: int, profile: str) -> int:
    """Write blocks until the capture holds at least ``flows_wanted`` flows; return its count."""
    written = block = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELD_ORDER)
        while written < flows_wanted:
            flows = generate_flows(block_config(seed, block, profile))
            writer.writerows(map(flow_to_row, flows))
            written += len(flows)
            block += 1
    return written


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--flows", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work-dir", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.flows < 1:
        ap.error("--flows must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work_dir or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        n_train = write_capture(work / "synth-train.binetflow", args.flows, args.seed, "train")
        n_test = write_capture(work / "synth-test.binetflow", max(args.flows // 10, 1),
                               args.seed + 1000, "test")
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({"scenarios": {"synth-train": "synth-train.binetflow",
                                                      "synth-test": "synth-test.binetflow"}}))
        proc = subprocess.run([sys.executable, "-c", CHILD, str(manifest), str(ROOT / "src")],
                              capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        return 1
    child = json.loads(proc.stdout.splitlines()[-1])
    print(f"flows: train {n_train} test {n_test}, host-windows {child['host_windows']}")
    print(f"preprocess RSS after imports {child['base_mb']:.1f} MB, "
          f"peak {child['peak_mb']:.1f} MB")
    print(f"preprocess {child['seconds']:.2f} s, {child['flows'] / child['seconds']:.0f} flows/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
