#!/usr/bin/env python3
"""From a raw capture file to normalized host-window feature rows.

Generates a small synthetic capture (same CSV dialect as CTU-13
binetflow files), parses it back, buckets flows into 60-second windows
per source host, and normalizes the 25 aggregate features to [0, 1].
"""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from botdet.features import FEATURE_NAMES, Normalizer, aggregate_flows, rows_from_aggregates
from botdet.ingest import IngestStats, iter_flows
from botdet.synth import SynthConfig, write_scenario


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="botdet-demo-") as tmp:
        capture = Path(tmp) / "demo.binetflow"
        write_scenario(capture, SynthConfig(seed=5, n_normal_hosts=3,
                                            n_botnet_hosts=1,
                                            n_background_hosts=1, n_windows=6))

        print(f"capture: {capture}")
        print("first three lines of the file:")
        for line in capture.read_text(encoding="utf-8").splitlines()[:3]:
            print(f"  {line[:110]}")

        stats = IngestStats()
        flows = list(iter_flows(capture, stats=stats))
        print(f"\nparsed {stats.parsed} flows, {stats.errors} malformed rows")
        f = flows[0]
        print(f"first flow: t={f.start_time:.3f} {f.proto} {f.src_addr}:{f.src_port} "
              f"-> {f.dst_addr}:{f.dst_port} state={f.state} service={f.service} "
              f"label={f.label.value}")

        t0 = flows[0].start_time
        aggs = aggregate_flows(flows, t0, window_seconds=60.0)
        print(f"\n{len(aggs)} host-window aggregates; the first one:")
        a = aggs[0]
        print(f"  host={a.src_addr} window={a.window_index} label={a.label.value}")
        for name in ("n_connections", "n_unique_dst_addrs", "sum_bytes",
                     "proto_tcp", "service_dns", "n_distinct_state"):
            print(f"  {name:22s} {a.value(name):g}")

        raw = np.array([x.values for x in aggs])
        norm = Normalizer.fit(raw)
        rows = rows_from_aggregates(aggs, norm)
        mat = np.array([r.values for r in rows])
        print(f"\nnormalized matrix: shape={mat.shape}, "
              f"min={mat.min():.3f}, max={mat.max():.3f}")
        print(f"feature order is fixed: {FEATURE_NAMES[:4]} ... "
              f"({len(FEATURE_NAMES)} total)")

        botnet = mat[[r.label.value == "Botnet" for r in rows]].mean(axis=0)
        normal = mat[[r.label.value == "Normal" for r in rows]].mean(axis=0)
        gap = np.abs(botnet - normal)
        top = np.argsort(gap)[::-1][:5]
        print("\nlargest normalized mean gaps between botnet and normal hosts:")
        for i in top:
            print(f"  {FEATURE_NAMES[i]:22s} botnet={botnet[i]:.3f} normal={normal[i]:.3f}")


if __name__ == "__main__":
    main()
