"""Run the benchmark over many seeds, record a baseline, and compare two records.

    python3 perfbench/sweep.py run --seeds 1-10 --out perfbench/out/new.json
    python3 perfbench/sweep.py compare perfbench/baseline.json perfbench/out/new.json

``run`` starts ``run.py`` once per (workload, seed), one process at a time,
untraced and for ``run_seconds``, and records every metric's values with their median and quartiles. The
spread of a metric is the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of its median.

``compare`` prints, for each (workload, end-to-end metric) pair, the
change of the median against the metric's bound in ``BENCHMARK.json``.
A pair is ``worse`` when the median moved the wrong way by more than the
bound, and ``unresolved`` when either record's spread exceeds the bound,
unless every run of the new record beats every run of the old one.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def run(args) -> int:
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    record: dict = {"workloads": {}}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = json.loads(lines[0][len("# env "):])
            record.setdefault("env", {k: v for k, v in env.items() if k != "seed"})
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = runs[0]["metrics"]
        record["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summarize([r["metrics"][name]["value"] for r in runs])}
                        for name in names},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print_spreads(record, spec)
    return 0


def print_spreads(record: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':8} {'metric':14} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] < bound / 3 else "  spread >= bound/3"
            print(f"{workload:8} {name:14} {m['median']:12.6g} {m['spread']:8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")


def compare(args) -> int:
    spec = load_spec()
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    worse = 0
    print(f"{'workload':8} {'metric':14} {'old':>12} {'new':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in new["workloads"]:
            if workload not in old["workloads"]:
                continue
            a = old["workloads"][workload]["metrics"][name]
            b = new["workloads"][workload]["metrics"][name]
            change = (b["median"] - a["median"]) / abs(a["median"])
            loss = change if lower else -change
            beats = (max(b["values"]) < min(a["values"]) if lower
                     else min(b["values"]) > max(a["values"]))
            if max(a["spread"], b["spread"]) > bound and not beats:
                verdict = "unresolved"
            elif loss > bound:
                verdict, worse = "worse", worse + 1
            elif loss < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:8} {name:14} {a['median']:12.6g} {b['median']:12.6g} "
                  f"{change:+8.2%} {bound:6.2f}  {verdict}")
    for workload, w in new["workloads"].items():
        if not w["correct"]:
            print(f"{workload}: {w['failed']} of {w['attempted']} operations failed")
            worse += 1
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads over seeds and record the metrics")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=run)
    p = sub.add_parser("compare", help="compare two records from run")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
