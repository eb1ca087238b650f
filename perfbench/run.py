"""Run one botdet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/botdet``. Workloads:
``chain`` (the CLI batch chain), ``train`` (RVAE updates) and ``stream``
(on-line detection); see ``workloads.py`` and ``README.md``.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer metrics from a traced run. Earlier lines, and
``perfbench/out/result-*.json``, hold the environment and the details.
"""
from __future__ import annotations

import os

# Pinned before numpy loads so every workload measures one BLAS thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import multiprocessing
import platform
import resource
import shutil
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_ROUNDS = 3
# Timed jobs start no later than this many seconds into the run, so a run
# on a slow host still ends well within the three minutes it may take.
JOBS_UNTIL_S = 120.0
STARTED = perf_counter()
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten of ``n`` samples beyond it; else the maximum."""
    for pct in TAIL_CANDIDATES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 100.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "host_probe_reference_s": hostspeed.REFERENCE_S,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit(), "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child process and return its result.

    Fixture generation, model training and the batch reference of the
    output checks peak far above the timed jobs; in a child, that peak stays
    out of this process's ``ru_maxrss``, so ``peak_rss_mb`` measures the jobs.
    """
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        return pool.submit(fn, *args).result()


def run_jobs(job, ctx, seconds: float, min_steps: int, sampler, tracer=None):
    """Repeat ``job`` until its jobs took ``seconds`` and ``min_steps`` steps were timed.

    The host is sampled before the first job and after each one, and by
    the job itself while it runs, except under tracing.
    """
    results, steps, spent = [], 0, 0.0
    sampler.bracket()
    while not results or spent < seconds or steps < min_steps:
        if results and perf_counter() - STARTED > JOBS_UNTIL_S:
            break
        try:
            res = job(ctx, tracer, None if tracer else sampler)
        except Exception:
            traceback.print_exc()
            return results, True
        sampler.bracket()
        results.append(res)
        steps += len(res.steps) or 1
        spent += res.job_s
    return results, False


def scaled_jobs(results, sampler) -> list[tuple[float, float]]:
    """(measured, scale) of every job."""
    return [(r.job_s, sampler.scale(r.start, r.end)) for r in results]


def scaled_steps(results, sampler) -> list[tuple[float, float]]:
    """(measured ms, scale) of every step; a job without steps is one step."""
    out = []
    for r in results:
        if r.steps:
            out += [((b - a) * 1000.0, sampler.scale(a, b)) for a, b in r.steps]
        else:
            out.append((r.job_s * 1000.0, sampler.scale(r.start, r.end)))
    return out


def end_to_end(results, setups, sampler, tail_steps) -> tuple[dict, dict]:
    import numpy as np
    pct = tail_percentile(tail_steps)
    jobs = scaled_jobs(results, sampler)
    steps = scaled_steps(results, sampler)

    def summary(scaled: bool) -> dict:
        def val(pairs):
            return np.array([t * k if scaled else t for t, k in pairs])
        step_ms = val(steps)
        return {"setup_s": float(np.median(val(setups))),
                "job_s": float(np.median(val(jobs))),
                "step_ms_p50": float(np.percentile(step_ms, 50)),
                "step_ms_tail": float(np.percentile(step_ms, pct))}

    metrics = {**summary(scaled=True), "peak_rss_mb": peak_rss_mb()}
    return metrics, {"tail_percentile": pct, "steps": len(steps),
                     "jobs": len(results), "measured": summary(scaled=False),
                     "host_scale_median": float(np.median([k for _, k in jobs]))}


def per_layer(tracer, results, base, sampler, workload, ctx, names) -> dict:
    import numpy as np
    import tracing
    import workloads
    metrics = tracing.layer_metrics(tracer, len(results), names)
    details = results[0].details
    traced_job_s = float(np.median([t * k for t, k in scaled_jobs(results, sampler)]))
    base_job_s = float(np.median([t * k for t, k in scaled_jobs(base, sampler)]))
    metrics["trace.overhead_pct"] = (traced_job_s / base_job_s - 1.0) * 100.0
    if workload == "chain":
        metrics["metrics.auroc"] = details["auroc"]
        metrics["metrics.f1"] = details["f1"]
        metrics.update(workloads.features_format_times(ctx))
    if workload == "train":
        metrics["train.loss_final"] = details["loss_final"]
    if workload == "stream":
        for key in ("windows_closed", "late_dropped", "decisions"):
            metrics[f"streaming.{key}"] = details[key]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "botdet" / "__init__.py").is_file():
        print(f"perfbench: no botdet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    base: list = []
    results: list = []
    setups: list = []  # (measured seconds, host scale)
    sampler = hostspeed.Sampler()
    crashed = False
    tracer = None
    checks = None
    try:
        # Each set-up is followed by its share of the timed jobs, so the
        # samples span the whole run.
        rounds = 1 if args.trace else SETUP_ROUNDS
        for k in range(rounds):
            sampler.bracket()
            start = perf_counter()
            ctx = in_child(wl.setup, args.seed, work)
            end = perf_counter()
            sampler.bracket()
            setups.append((end - start, sampler.scale(start, end)))
            if wl.checks is not None:
                # Set-up is deterministic for a seed: one reference serves every round.
                checks = checks or in_child(wl.checks, ctx)
                ctx.update(checks)
            if args.trace:
                break
            spent = sum(r.job_s for r in results)
            more, crashed = run_jobs(wl.job, ctx, args.seconds * (k + 1) / rounds - spent,
                                     -(-wl.min_steps // rounds), sampler)
            results += more
            if crashed:
                break

        if args.trace:
            # Untraced jobs first, for a third of the time, as the base of
            # the tracing overhead.
            base, crashed = run_jobs(wl.job, ctx, args.seconds / 3, 0, sampler)
            if not crashed:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    results, crashed = run_jobs(wl.job, ctx, args.seconds, 0, sampler,
                                                tracer)
                finally:
                    tracer.restore()
        if not results:
            return 1
        if args.trace:
            metrics = per_layer(tracer, results, base, sampler, args.workload, ctx,
                                units)
            info = {"jobs": len(results)}
        else:
            metrics, info = end_to_end(results, setups, sampler, wl.tail_steps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in base + results) + crashed
    failed = sum(r.failed for r in base + results) + crashed
    if metrics.keys() != units.keys():
        print(f"perfbench: metrics {sorted(metrics.keys() ^ units.keys())} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    details = results[0].details
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"trace-{tag}.json", {"env": env})
    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "setups": [{"measured_s": t, "scale": k} for t, k in setups],
              "info": info, "details": details,
              "jobs": [{"measured_s": t, "scale": k}
                       for t, k in scaled_jobs(results, sampler)],
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "host_samples": sampler.samples}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# info " + json.dumps({**info, **details}, sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
