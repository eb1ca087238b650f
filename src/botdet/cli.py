"""Command-line pipeline driver.

Eight subcommands cover the batch chain (preprocess, train, score,
fitpdf, detect, evaluate, sweep) plus on-line detection (stream). Every
flag has a config-file equivalent: pass ``--config file.json`` holding an
object keyed by the flag names with underscores; explicit flags win over
config values, which win over built-in defaults, and a value from either
source is checked by its option's ``fileio`` rule, which a reader applies
to the artifact field that records it. Each batch stage writes
its artifact plus a ``*.run.json`` reproducibility manifest (config hash,
input hashes, seed, library versions). Exit codes: 0 ok, 1 usage error,
2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from . import __version__, fileio, pipeline
from .detector import TIE_RULES
from .errors import DataError, NumericError, UsageError
from .fileio import BOOL, COUNT, INDEX, INTEGER, NONNEGATIVE, POSITIVE, TEXT, rule
from .ingest import IngestStats, iter_flows
from .metrics import report_table
from .streaming import run_stream
from .train import TrainConfig


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise UsageError(message)


# ------------------------------------------------------------- opt merging

def _listed(item: Callable) -> Callable:
    """The rule of a list option: a comma-separated string or a JSON list of ``item``s."""
    def check(v, text: bool = False) -> tuple:
        if isinstance(v, str):
            v = [s.strip() for s in v.split(",") if s.strip()]
        elif not isinstance(v, (list, tuple)):
            raise TypeError(f"expected a comma-separated string or a list, got {v!r}")
        return tuple(item(s, text) for s in v)
    return check


@dataclass(frozen=True)
class Opt:
    """One option; its rule and choices apply to flag and config values alike."""

    default: object = None
    cast: Callable = TEXT
    required: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _load_config_file(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    return payload


def _finalize(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve each option as flag > config file > default, then cast and check it."""
    spec: dict[str, Opt] = args._spec
    cfg = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise UsageError(f"config file has unknown keys {unknown}; "
                         f"valid keys: {sorted(spec)}")
    for name, opt in spec.items():
        flag = "--" + name.replace("_", "-")
        v = getattr(args, name)
        if v is None:
            v = cfg.get(name, opt.default)
        if v is None:
            if opt.required:
                raise UsageError(f"missing required option {flag}")
        else:
            try:
                v = opt.cast(v, text=True)
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"{flag}: {exc}") from None
            if opt.choices and v not in opt.choices:
                raise UsageError(f"{flag}: invalid choice {v!r} "
                                 f"(choose from {', '.join(opt.choices)})")
        setattr(args, name, v)
    return args


# l_max is not a train option: train reads it from the features header
_TRAIN_FIELDS = [f for f in fields(TrainConfig) if f.name != "l_max"]
# sizes and widths are counts; lr and grad_clip are > 0 (<= 0 climbs the loss or
# zeroes every gradient); anneal_steps <= 0 turns annealing off; beta_max 0 drops KL
_CAST_BY_TYPE = {int: COUNT, float: POSITIVE, tuple: _listed(COUNT)}
_CAST_BY_NAME = {"anneal_steps": INTEGER, "seed": INDEX, "beta_max": NONNEGATIVE}

_TRAIN_HYPER: dict[str, Opt] = {
    "arch": Opt("rvae", choices=("rvae", "mlp")),
    **{f.name: Opt(f.default, _CAST_BY_NAME.get(f.name, _CAST_BY_TYPE[type(f.default)]))
       for f in _TRAIN_FIELDS},
}

_PDF_OPTS: dict[str, Opt] = {
    "bins": Opt(200, COUNT),
    "min_samples": Opt(100, COUNT),
    "tie_rule": Opt("malicious", choices=TIE_RULES),
}

# sweep takes T from --durations alone, so window_seconds is preprocess's
_WINDOW_OPTS: dict[str, Opt] = {
    "n_windows": Opt(3, COUNT, help="sequence length N in windows"),
    "l_max": Opt(128, COUNT, help="max elements per sequence"),
    "log1p": Opt(False, BOOL),
    "strict": Opt(False, BOOL),
}

_IDS = _listed(rule("a string or an integer", str, str, int))
_SCENARIO_OPTS: dict[str, Opt] = {
    "manifest": Opt(required=True),
    "train_scenarios": Opt(cast=_IDS, required=True, help="comma-separated scenario ids"),
    "test_scenarios": Opt(cast=_IDS, required=True, help="comma-separated scenario ids"),
}


def _train_config(args, l_max: int) -> TrainConfig:
    return TrainConfig(l_max=l_max, **{f.name: getattr(args, f.name) for f in _TRAIN_FIELDS})


def _run_manifest_path(artifact: Path) -> Path:
    return artifact.with_name(artifact.stem + ".run.json")


def _record_run(args, path: Path, inputs: Sequence, outputs: Sequence,
                seed: int | None = None, **derived) -> None:
    """Write the stage's run manifest.

    Its config holds every option of the subcommand except the ones that
    name where the stage writes (``out_dir``, ``*_out``), plus ``derived``.
    """
    config = {n: getattr(args, n) for n in args._spec
              if n != "out_dir" and not n.endswith("_out")}
    fileio.write_run_manifest(path, args.command, {**config, **derived},
                              inputs=inputs, outputs=outputs, seed=seed)


# ------------------------------------------------------------- subcommands

def cmd_preprocess(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res = pipeline.preprocess(args.manifest, args.train_scenarios, args.test_scenarios,
                              window_seconds=args.window_seconds,
                              n_windows=args.n_windows, l_max=args.l_max,
                              log1p=args.log1p, strict=args.strict)
    train_path = out / "features-train.csv"
    test_path = out / "features-test.csv"
    for path, split in ((train_path, res.train), (test_path, res.test)):
        fileio.write_features(path, replace(res.meta, t0=split.t0), split.rows)
    manifest = pipeline.load_manifest(args.manifest)
    _record_run(args, out / "preprocess.run.json",
                [manifest[s] for s in (*args.train_scenarios, *args.test_scenarios)],
                [train_path, test_path])
    for name, split in (("train", res.train), ("test", res.test)):
        print(f"{name}: {len(split.rows)} host-windows from "
              f"{split.stats.parsed} flows ({split.stats.errors} bad rows)")
        if split.stats.errors:
            first = next(f.first_error for f in split.stats.files if f.errors)
            print(f"  first bad row: {first}")
    return 0


def cmd_train(args) -> int:
    meta, rows = fileio.read_features(args.features)
    cfg = _train_config(args, meta.l_max)
    if args.kfold:
        model, reports = pipeline.train_model_kfold(meta, rows, cfg,
                                                    arch=args.arch, k=args.kfold)
        for r in reports:
            print(json.dumps(r, sort_keys=True))
    else:
        model = pipeline.train_model(meta, rows, cfg, arch=args.arch)
    model_out = Path(args.model_out)
    fileio.save_model(model_out, model)
    _record_run(args, _run_manifest_path(model_out), [args.features], [model_out],
                seed=cfg.seed, l_max=cfg.l_max)
    print(f"trained {model.arch}: {model.train_summary}")
    return 0


def cmd_score(args) -> int:
    meta, rows = fileio.read_features(args.features)
    model = fileio.load_model(args.model)
    scored = pipeline.score_split(model, meta, rows)
    scores_out = Path(args.scores_out)
    fileio.write_scores_csv(scores_out, scored)
    _record_run(args, _run_manifest_path(scores_out), [args.model, args.features],
                [scores_out], seed=model.seed)
    print(f"scored {len(scored)} host-windows")
    return 0


def cmd_fitpdf(args) -> int:
    scored = fileio.read_scores_csv(args.scores)
    det = pipeline.fit_detector_from_training(
        scored, min_samples=args.min_samples, bins=args.bins,
        tie_rule=args.tie_rule)
    det_out = Path(args.detector_out)
    fileio.save_detector(det_out, det)
    _record_run(args, _run_manifest_path(det_out), [args.scores], [det_out])
    print(f"pdf_normal: {det.pdf_normal.family} sse={det.pdf_normal.sse:.3g}  "
          f"pdf_botnet: {det.pdf_botnet.family} sse={det.pdf_botnet.sse:.3g}")
    return 0


def cmd_detect(args) -> int:
    scored = fileio.read_scores_csv(args.scores)
    det = fileio.load_detector(args.detector)
    decisions = pipeline.classify_scores(scored, det)
    dec_out = Path(args.decisions_out)
    fileio.write_decisions_jsonl(dec_out, decisions)
    _record_run(args, _run_manifest_path(dec_out), [args.scores, args.detector],
                [dec_out])
    n_mal = sum(1 for d in decisions if d["verdict"] == "Malicious")
    print(f"{n_mal}/{len(decisions)} host-windows flagged Malicious")
    return 0


def cmd_evaluate(args) -> int:
    scored = fileio.read_scores_csv(args.scores)
    decisions = fileio.read_decisions_jsonl(args.decisions)
    config = None
    if args.model:
        m = fileio.load_model(args.model)
        config = {"T": m.window_seconds, "N": m.n_windows, "arch": m.arch}
    report = pipeline.evaluate_decisions(scored, decisions, config=config,
                                         exclude_background=args.exclude_background)
    report_out = Path(args.report_out)
    fileio.save_report(report_out, report)
    inputs = [args.scores, args.decisions] + ([args.model] if args.model else [])
    _record_run(args, _run_manifest_path(report_out), inputs, [report_out])
    print(report_table([("run", report)]))
    return 0


def cmd_sweep(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _train_config(args, args.l_max)
    results, outputs = [], []
    for r in pipeline.window_sweep(
            args.manifest, args.train_scenarios, args.test_scenarios, args.durations, cfg,
            arch=args.arch, n_windows=args.n_windows, log1p=args.log1p,
            strict=args.strict, min_samples=args.min_samples, bins=args.bins,
            tie_rule=args.tie_rule, exclude_background=args.exclude_background):
        tag = f"{r.duration:g}s"
        report_path = out / f"report-T{tag}.json"
        hist_path = out / f"hist-T{tag}.csv"
        fileio.save_report(report_path, r.report)
        pipeline.write_histogram_csv(hist_path, r.histogram)
        outputs += [report_path, hist_path]
        results.append(r)
    table = report_table([(f"T={r.duration:g}s", r.report) for r in results])
    table_path = out / "sweep-table.txt"
    table_path.write_text(table + "\n", encoding="utf-8")
    outputs.append(table_path)
    manifest = pipeline.load_manifest(args.manifest)
    _record_run(args, out / "sweep.run.json",
                [manifest[s] for s in (*args.train_scenarios, *args.test_scenarios)],
                outputs, seed=cfg.seed)
    print(table)
    return 0


def cmd_stream(args) -> int:
    model = fileio.load_model(args.model)
    det = fileio.load_detector(args.detector)
    ingest_stats = IngestStats()
    flows = (f for p in args.input
             for f in iter_flows(p, strict=args.strict, stats=ingest_stats))
    decisions, stats = run_stream(model, det, flows)
    try:
        for record in decisions:
            sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
            sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early (| head): stop, and flush nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"flows={stats.flows_in} windows={stats.windows_closed} "
          f"decisions={stats.decisions} late_dropped={stats.late_dropped} "
          f"bad_rows={ingest_stats.errors}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- parser

def _add_opts(sub: argparse.ArgumentParser, spec: dict[str, Opt]) -> None:
    """Register every option as a raw flag; _finalize casts and checks it."""
    sub.add_argument("--config", help="JSON file with flag equivalents")
    for name, opt in spec.items():
        kwargs = {"default": None, "help": opt.help}
        if opt.choices:
            kwargs["metavar"] = "{" + ",".join(opt.choices) + "}"
        if isinstance(opt.default, bool):
            kwargs["action"] = argparse.BooleanOptionalAction
        sub.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="botdet",
                        description="Botnet detection over NetFlow captures")
    parser.add_argument("--version", action="version",
                        version=f"botdet {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="subcommand")

    def sub(name, func, spec, help_):
        p = subs.add_parser(name, help=help_)
        _add_opts(p, spec)
        p.set_defaults(func=func, _spec=spec)
        return p

    sub("preprocess", cmd_preprocess, {
        **_SCENARIO_OPTS,
        "out_dir": Opt(required=True),
        "window_seconds": Opt(60.0, POSITIVE, help="window duration T in seconds"),
        **_WINDOW_OPTS,
    }, "aggregate scenarios into normalized host-window features")

    sub("train", cmd_train, {
        "features": Opt(required=True),
        "model_out": Opt(required=True),
        "kfold": Opt(0, rule("0 or an integer >= 2", int, int, ok=lambda x: x == 0 or x >= 2),
                      help="folds for time-blocked model selection (0: off)"),
        **_TRAIN_HYPER,
    }, "fit the VAE on non-malicious training rows")

    sub("score", cmd_score, {
        "model": Opt(required=True),
        "features": Opt(required=True),
        "scores_out": Opt(required=True),
    }, "anomaly-score host-windows with a trained model")

    sub("fitpdf", cmd_fitpdf, {
        "scores": Opt(required=True),
        "detector_out": Opt(required=True),
        **_PDF_OPTS,
    }, "fit best-PDF pair on training scores split by ground truth")

    sub("detect", cmd_detect, {
        "scores": Opt(required=True),
        "detector": Opt(required=True),
        "decisions_out": Opt(required=True),
    }, "classify scored host-windows by likelihood comparison")

    sub("evaluate", cmd_evaluate, {
        "scores": Opt(required=True),
        "decisions": Opt(required=True),
        "report_out": Opt(required=True),
        "model": Opt(),
        "exclude_background": Opt(False, BOOL),
    }, "metrics report from scores plus decisions")

    sub("sweep", cmd_sweep, {
        **_SCENARIO_OPTS,
        "durations": Opt(cast=_listed(POSITIVE), required=True,
                         help="comma-separated window durations in seconds"),
        "out_dir": Opt(required=True),
        "exclude_background": Opt(False, BOOL),
        **_WINDOW_OPTS, **_TRAIN_HYPER, **_PDF_OPTS,
    }, "re-run the whole pipeline per window duration")

    sub("stream", cmd_stream, {
        "model": Opt(required=True),
        "detector": Opt(required=True),
        "input": Opt(cast=_listed(TEXT), required=True,
                     help="comma-separated flow capture paths"),
        "strict": Opt(False, BOOL),
    }, "emit JSON-lines decisions from a time-ordered flow stream")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("missing subcommand (see --help)")
        _finalize(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
