"""Deterministic synthetic flow scenarios for end-to-end checks.

Normal hosts speak to a small fixed set of servers with gently periodic
request counts (low-entropy patterns a sequence model can learn).
Botnet hosts burst every window: TCP port sweeps with rejected or
interrupted states, or SMTP spam fan-out, hundreds of flows against the
normal hosts' handful. Background hosts add unlabeled-ish filler under
the Background ground truth. The "train" and "test" profiles differ in
burst sizes and mix so the held-out scenario is not a parameter copy of
the training one.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ingest import FlowRecord, parse_timestamp, write_flows_csv

DEFAULT_START = parse_timestamp("2011/08/10 09:00:00.000000")


@dataclass(frozen=True)
class SynthProfile:
    scan_flows: tuple[int, int]
    spam_flows: tuple[int, int]
    scan_fraction: float
    spam_reject_rate: float


PROFILES = {
    "train": SynthProfile(scan_flows=(140, 260), spam_flows=(110, 190),
                          scan_fraction=0.70, spam_reject_rate=0.55),
    "test": SynthProfile(scan_flows=(190, 380), spam_flows=(140, 260),
                         scan_fraction=0.55, spam_reject_rate=0.72),
}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 7
    n_normal_hosts: int = 16
    n_botnet_hosts: int = 4
    n_background_hosts: int = 4
    n_windows: int = 120
    window_seconds: float = 60.0
    start_time: float = DEFAULT_START
    profile: str = "train"


def _cdf(p):
    """Generator.choice's cumulative weights: bisect_right(cdf, rng.random()) draws as it does."""
    cdf = np.cumsum(p)
    return (cdf / cdf[-1]).tolist()


_SCAN_STATES, _SCAN_STATE_CDF = ("S_", "S_RA", "INT"), _cdf((0.5, 0.3, 0.2))
_BACKGROUND_PROTOS, _BACKGROUND_PROTO_CDF = ("tcp", "udp", "icmp"), _cdf((0.6, 0.3, 0.1))
_DNS_SERVER = "198.18.0.9"
_SSL_SERVER = "198.18.3.4"


def _flow(t, dur, proto, src, sport, dst, dport, state, pkts, byts, src_bytes, label):
    return FlowRecord(start_time=t, duration=dur, proto=proto, src_addr=src,
                      src_port=str(sport), direction="->", dst_addr=dst,
                      dst_port=str(dport), state=state, tot_pkts=pkts,
                      tot_bytes=byts, src_bytes=src_bytes, label_raw=label)


def _normal_host_flows(rng, cfg, host_idx, window, base_t):
    src = f"192.168.1.{10 + host_idx}"
    phase = 2.0 * math.pi * host_idx / max(cfg.n_normal_hosts, 1)
    n_http = max(1, round(4 + 2.2 * math.sin(2 * math.pi * window / 8 + phase)
                          + rng.normal(0.0, 0.5)))
    n_dns = 1 + (window + host_idx) % 2
    n_ssl = 1 if (window + host_idx) % 3 == 0 else 0
    flows = []
    t_hi = cfg.window_seconds - 0.5
    for k in range(n_dns):
        off = 0.0 if (host_idx == 0 and window == 0 and k == 0) \
            else float(rng.uniform(0.2, t_hi))
        flows.append(_flow(base_t + off, float(rng.uniform(0.001, 0.05)), "udp",
                           src, 1024 + int(rng.integers(0, 60000)), _DNS_SERVER,
                           53, "CON", 2, int(rng.integers(120, 260)),
                           int(rng.integers(50, 90)),
                           "flow=From-Normal-V44-DNS"))
    for _ in range(n_http):
        server = f"198.18.1.{host_idx % 5}" if rng.random() < 0.7 \
            else f"198.18.2.{(host_idx * 3) % 7}"
        pkts = int(rng.integers(8, 22))
        byts = pkts * int(rng.integers(70, 140))
        flows.append(_flow(base_t + float(rng.uniform(0.2, t_hi)),
                           float(rng.uniform(0.3, 1.8)), "tcp", src,
                           1024 + int(rng.integers(0, 60000)), server, 80,
                           "FSPA_FSPA", pkts, byts, int(byts * 0.4),
                           "flow=From-Normal-V44-HTTP"))
    for _ in range(n_ssl):
        pkts = int(rng.integers(12, 30))
        byts = pkts * int(rng.integers(80, 160))
        flows.append(_flow(base_t + float(rng.uniform(0.2, t_hi)),
                           float(rng.uniform(0.5, 3.0)), "tcp", src,
                           1024 + int(rng.integers(0, 60000)), _SSL_SERVER, 443,
                           "FSPA_FSPA", pkts, byts, int(byts * 0.35),
                           "flow=From-Normal-V44-SSL"))
    return flows


def _botnet_host_flows(rng, cfg, profile, host_idx, window, base_t):
    src = f"10.0.0.{20 + host_idx}"
    flows = []
    scan_sports = [2000 + host_idx, 2001 + host_idx, 3077]
    if rng.random() < profile.scan_fraction:
        n = int(rng.integers(*profile.scan_flows))
        net_a, net_b = int(rng.integers(1, 250)), int(rng.integers(1, 250))
        for k in range(n):
            state = _SCAN_STATES[bisect_right(_SCAN_STATE_CDF, rng.random())]
            flows.append(_flow(base_t + float(rng.uniform(0.1, cfg.window_seconds * 0.6)),
                               float(rng.uniform(0.0, 0.01)), "tcp", src,
                               scan_sports[k % 3], f"185.{net_a}.{net_b}.{1 + k % 250}",
                               int(rng.integers(1, 65535)), state, int(rng.integers(1, 3)),
                               int(rng.integers(60, 120)), 60,
                               "flow=From-Botnet-V51-TCP-Attempt"))
    else:
        n = int(rng.integers(*profile.spam_flows))
        for k in range(n):
            reject = rng.random() < profile.spam_reject_rate
            pkts = int(rng.integers(6, 14))
            byts = pkts * int(rng.integers(70, 110))
            flows.append(_flow(base_t + float(rng.uniform(0.1, cfg.window_seconds * 0.7)),
                               float(rng.uniform(0.2, 1.2)), "tcp", src,
                               1024 + int(rng.integers(0, 60000)),
                               f"203.0.{int(rng.integers(1, 250))}.{1 + k % 250}",
                               25, "S_RA" if reject else "FSPA_FSPA", pkts, byts,
                               int(byts * 0.8), "flow=From-Botnet-V51-TCP-SPAM"))
    return flows


def _background_host_flows(rng, cfg, host_idx, window, base_t):
    src = f"172.16.0.{30 + host_idx}"
    flows = []
    for _ in range(int(rng.integers(2, 9))):
        proto = _BACKGROUND_PROTOS[bisect_right(_BACKGROUND_PROTO_CDF, rng.random())]
        if proto == "icmp":
            state, dport, pkts = "URP", 0, 2
        elif proto == "udp":
            state, dport, pkts = "CON", (53, 123, 6881)[int(rng.integers(0, 3))], 2
        else:
            state = ("FSPA_FSPA", "S_RA", "SPA_SPA")[int(rng.integers(0, 3))]
            dport, pkts = (80, 443, 8080, 6667)[int(rng.integers(0, 4))], int(rng.integers(4, 18))
        byts = pkts * int(rng.integers(60, 150))
        flows.append(_flow(base_t + float(rng.uniform(0.2, cfg.window_seconds - 0.5)),
                           float(rng.uniform(0.01, 2.0)), proto, src,
                           1024 + int(rng.integers(0, 60000)),
                           f"198.51.100.{int(rng.integers(1, 250))}", dport, state,
                           pkts, byts, int(byts * 0.5), "Background-Established"))
    return flows


def generate_flows(cfg: SynthConfig) -> list[FlowRecord]:
    """All flows of one scenario, chronologically sorted, seed-deterministic."""
    if cfg.profile not in PROFILES:
        raise ValueError(f"unknown profile {cfg.profile!r}, "
                         f"expected one of {sorted(PROFILES)}")
    profile = PROFILES[cfg.profile]
    rng = np.random.default_rng(cfg.seed)
    flows: list[FlowRecord] = []
    for w in range(cfg.n_windows):
        base_t = cfg.start_time + w * cfg.window_seconds
        for i in range(cfg.n_normal_hosts):
            flows.extend(_normal_host_flows(rng, cfg, i, w, base_t))
        for j in range(cfg.n_botnet_hosts):
            flows.extend(_botnet_host_flows(rng, cfg, profile, j, w, base_t))
        for k in range(cfg.n_background_hosts):
            flows.extend(_background_host_flows(rng, cfg, k, w, base_t))
    flows.sort(key=lambda f: (f.start_time, f.src_addr))
    return flows


def write_scenario(path: str | Path, cfg: SynthConfig) -> list[FlowRecord]:
    flows = generate_flows(cfg)
    write_flows_csv(path, flows)
    return flows


def make_fixture(out_dir: str | Path, train_cfg: SynthConfig | None = None) -> dict:
    """Write train/test scenario CSVs plus a scenario manifest; return paths.

    The test scenario is the training one with another seed, the "test"
    profile and half the windows (at least 8).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_cfg = train_cfg or SynthConfig()
    test_cfg = replace(
        train_cfg, seed=train_cfg.seed + 1000, profile="test",
        n_windows=max(train_cfg.n_windows // 2, 8),
    )
    train_path = out / "synth-train.binetflow"
    test_path = out / "synth-test.binetflow"
    write_scenario(train_path, train_cfg)
    write_scenario(test_path, test_cfg)
    manifest = {"scenarios": {"synth-train": train_path.name,
                              "synth-test": test_path.name}}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return {"manifest": manifest_path, "train": train_path, "test": test_path,
            "train_cfg": train_cfg, "test_cfg": test_cfg}
