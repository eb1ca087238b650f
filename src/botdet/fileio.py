"""On-disk artifact formats.

Every artifact is versioned and self-describing:

- features and scores files: one host-window table, a CSV of the key
  columns src_addr,window_index,first_seen,label, then the values: the
  features (each in [0, 1]) after a ``#META`` line holding the header JSON
  (names, normalizer stats, window config, t0), or a score, with no header
- model file: JSON with named flat parameter arrays; floats survive a
  save/load round trip bit for bit (shortest-repr encoding)
- detector file: JSON with the two fitted densities
- decisions file: JSON lines
- run manifest: config hash, input digests, seed, library versions; no
  timestamps, so reruns produce identical bytes

Readers verify format_version and artifact kind and raise DataError with
the offending path on any mismatch, or on a payload that is missing a key
or holds a value of the wrong type. Each kind of value has one rule below
(COUNT, INDEX, POSITIVE, ...): the CLI checks its options with them, and a
reader checks each scalar field with the rule of the option that records
it, naming the path and the key of a value it refuses. An array of numbers
(normalizer ``min`` and ``max``, a parameter's ``data``) must hold finite
JSON numbers, none of them a bool. The table and decisions readers also
refuse a host-window (src_addr, window_index) that repeats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import io
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy

from . import __version__
from .detector import DetectorModel, FittedPdf, family_by_name
from .errors import DataError
from .features import FeatureRow, Normalizer
from .ingest import GroundTruth
from .metrics import MetricsReport
from .models import MlpVaeParams, RvaeParams
from .scoring import ScoredWindow
from .train import TrainedModel

FORMAT_VERSION = 1


# ------------------------------------------------------------------ rules

def rule(what: str, convert: Callable, *accepts: type,
         ok: Callable = lambda x: True) -> Callable:
    """The check of one kind of value: a JSON type in ``accepts``, converted, passing ``ok``.

    ``check(v, text=True)`` also takes the str of an int or float (a flag, a config value, a
    CSV cell). A refused value raises TypeError or ValueError saying what was expected, and
    a JSON integer beyond float64 raises OverflowError."""
    def check(v, text: bool = False):
        if type(v) not in accepts and not (text and type(v) is str and convert in (int, float)):
            raise TypeError(f"expected {what}, got {v!r}")
        x = convert(v)
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"expected a finite number, got {v!r}")
        if not ok(x):
            raise ValueError(f"expected {what}, got {v!r}")
        return x
    return check


TEXT = rule("a string", str, str)
BOOL = rule("true or false", bool, bool)
INTEGER = rule("an integer", int, int)
COUNT = rule("an integer >= 1", int, int, ok=lambda x: x >= 1)
INDEX = rule("an integer >= 0", int, int, ok=lambda x: x >= 0)
NUMBER = rule("a number", float, int, float)
POSITIVE = rule("a number > 0", float, int, float, ok=lambda x: x > 0)
NONNEGATIVE = rule("a number >= 0", float, int, float, ok=lambda x: x >= 0)


def _field(value, rule: Callable, key: str, where, text: bool = False):
    """``rule(value, text)``; a refused value is a DataError naming ``where`` (path[:line]) and key."""
    try:
        return rule(value, text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: {key}: {exc}") from None


def dump_json(payload: dict, path: str | Path) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _decode(payload, kind: str, path: Path, decode: Callable):
    """Check an artifact's envelope, then build the object from its payload.

    ``decode(payload, path)`` may index and convert freely: a missing key
    or a value of the wrong type becomes a DataError naming path and kind.
    """
    got_kind = payload.get("kind") if isinstance(payload, dict) else None
    if got_kind != kind:
        raise DataError(f"{path}: expected a {kind} file, found kind={got_kind!r}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}, "
                        f"this build reads {FORMAT_VERSION}")
    try:
        return decode(payload, path)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} file "
                        f"({type(exc).__name__}: {exc})") from None


def _open_text(p: Path) -> io.StringIO:
    """An artifact's text; bytes that are not UTF-8 raise DataError naming the line."""
    data = p.read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{p}:{line}: not UTF-8 text ({exc.reason})") from None


def _load_json(path: str | Path, kind: str, decode: Callable):
    p = Path(path)
    try:
        with _open_text(p) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{p}: file not found")
    except json.JSONDecodeError as exc:
        raise DataError(f"{p}: not valid JSON ({exc})")
    return _decode(payload, kind, p, decode)


def sha256_of(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _normalizer_payload(nz: Normalizer) -> dict:
    return {"min": nz.vmin.tolist(), "max": nz.vmax.tolist(),
            "log1p": nz.log1p.tolist()}


def _normalizer_from_payload(entry: dict, names: tuple[str, ...],
                             path: Path) -> Normalizer:
    flags = entry["log1p"]
    if not (isinstance(flags, list) and all(type(f) is bool for f in flags)):
        raise DataError(f"{path}: normalizer log1p must be a list of JSON bools, got {flags!r}")
    nz = Normalizer(vmin=_numbers(entry["min"], "normalizer min", path),
                    vmax=_numbers(entry["max"], "normalizer max", path),
                    log1p=np.array(flags, dtype=bool))
    if any(a.shape != (len(names),) for a in (nz.vmin, nz.vmax, nz.log1p)):
        raise DataError(f"{path}: normalizer stats do not match feature names")
    _check_finite(nz.vmin, "normalizer min", path)
    _check_finite(nz.vmax, "normalizer max", path)
    above = np.flatnonzero(nz.vmin > nz.vmax)
    if above.size:
        i = above[0]
        raise DataError(f"{path}: normalizer min is above max for feature {names[i]!r} "
                        f"({nz.vmin[i]!r} > {nz.vmax[i]!r})")
    return nz


def _check_finite(values: np.ndarray, name: str, path: Path) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataError(f"{path}: {name} holds a non-finite value "
                        f"({values.flat[bad[0]]!r} at flat index {bad[0]})")


def _holds_bool(value) -> bool:
    if type(value) is not list:
        return type(value) is bool
    kinds = set(map(type, value))
    return bool in kinds or (list in kinds and any(map(_holds_bool, value)))


def _numbers(value, key: str, path: Path) -> np.ndarray:
    """A float64 array read from key ``key``: JSON numbers, none of them a bool at any depth."""
    if _holds_bool(value):
        raise DataError(f"{path}: {key} must hold JSON numbers, not bools")
    return np.asarray(value, dtype=np.float64)


# The keys of ``TrainLog.summary()``, each with the rule of the value it holds.
_SUMMARY_RULES = {"epochs": COUNT, "updates": COUNT,
                  **dict.fromkeys(("final_loss", "final_bce", "final_kl", "final_grad_norm_mean",
                                   "final_grad_norm_max"), NUMBER),
                  "final_clipped": INDEX}


def _train_summary(summary, path: Path) -> dict:
    """A model's ``training_log_summary``: an object of exactly the summary's keys, each
    read by its rule."""
    key = "training_log_summary"
    if type(summary) is not dict or set(summary) != set(_SUMMARY_RULES):
        raise DataError(f"{path}: {key}: expected an object with the keys "
                        f"{', '.join(_SUMMARY_RULES)}, got {summary!r}")
    return {k: _field(summary[k], rule, f"{key}.{k}", path) for k, rule in _SUMMARY_RULES.items()}


def _window_config(src: dict, path: Path) -> dict:
    """``window_seconds``, ``n_windows`` and ``l_max`` of an artifact, each checked by its rule."""
    return {"window_seconds": _field(src["window_seconds"], POSITIVE, "window_seconds", path),
            **{k: _field(src[k], COUNT, k, path) for k in ("n_windows", "l_max")}}


def _check_new(seen: dict, src_addr: str, window: int, line: int, p: Path) -> None:
    """Note a host-window's line; one already noted raises DataError naming both lines."""
    first = seen.setdefault((src_addr, window), line)
    if first != line:
        raise DataError(f"{p}:{line}: host-window ({src_addr!r}, {window}) "
                        f"repeats line {first}")


# ------------------------------------------ host-window table: features, scores

_KEYS = ("src_addr", "window_index", "first_seen", "label")


def _write_table(path: str | Path, head: str, value_names: Sequence[str],
                 records: Iterable, values: Callable) -> None:
    """``head``, the column header, then per record its key cells and ``values(record)``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(head)
        writer = csv.writer(fh)
        writer.writerow([*_KEYS, *value_names])
        writer.writerows([r.src_addr, r.window_index, repr(r.first_seen), r.label.value,
                          *[repr(float(v)) for v in values(r)]] for r in records)


def _read_table(p: Path, fh, kind: str, value_names: Sequence[str], make: Callable,
                values: Callable, head_lines: int = 0) -> list:
    """``make(*key cells, values(value cells, "path:line"))`` per row of ``fh``, whose column
    header follows ``head_lines`` lines already read; any refusal names the path (and line)."""
    reader = csv.reader(fh)
    columns = [*_KEYS, *value_names]
    if next(reader, None) != columns:
        raise DataError(f"{p}: not a {kind} file (bad column header)")
    out, seen = [], {}
    for rec in reader:
        line = reader.line_num + head_lines
        at = f"{p}:{line}"
        try:
            if len(rec) != len(columns):
                raise ValueError(f"{len(rec)} columns, expected {len(columns)}")
            window = _field(rec[1], INDEX, "window_index", at, text=True)
            out.append(make(rec[0], window, _field(rec[2], NUMBER, "first_seen", at, text=True),
                            GroundTruth(rec[3]), values(rec[4:], at)))
        except ValueError as exc:
            raise DataError(f"{at}: bad {kind} row ({exc})")
        _check_new(seen, rec[0], window, line, p)
    return out


def write_scores_csv(path: str | Path, scored: Iterable[ScoredWindow]) -> None:
    _write_table(path, "", ("score",), scored, lambda s: (s.score,))


def read_scores_csv(path: str | Path) -> list[ScoredWindow]:
    with _open_text(p := Path(path)) as fh:
        return _read_table(p, fh, "scores", ("score",), ScoredWindow,
                           lambda cells, at: _field(cells[0], NUMBER, "score", at, text=True))


# ---------------------------------------------------------------- features

@dataclass(frozen=True)
class FeaturesMeta:
    """Everything a consumer needs to interpret feature rows."""

    feature_names: tuple[str, ...]
    normalizer: Normalizer
    window_seconds: float
    n_windows: int
    l_max: int
    t0: float

    def to_header(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "features",
            "feature_names": list(self.feature_names),
            "normalizer": _normalizer_payload(self.normalizer),
            "window_seconds": self.window_seconds,
            "n_windows": self.n_windows,
            "l_max": self.l_max,
            "t0": self.t0,
        }

    @classmethod
    def from_header(cls, header: dict, path: Path) -> "FeaturesMeta":
        names = tuple(header["feature_names"])
        normalizer = _normalizer_from_payload(header["normalizer"], names, path)
        return cls(feature_names=names, normalizer=normalizer,
                   **_window_config(header, path), t0=_field(header["t0"], NUMBER, "t0", path))


def write_features(path: str | Path, meta: FeaturesMeta, rows: Iterable[FeatureRow]) -> None:
    header_json = json.dumps(meta.to_header(), sort_keys=True)
    _write_table(path, f"#META {header_json}\n", meta.feature_names, rows, lambda r: r.values)


def read_features(path: str | Path) -> tuple[FeaturesMeta, list[FeatureRow]]:
    with _open_text(p := Path(path)) as fh:
        first = fh.readline()
        if not first.startswith("#META "):
            raise DataError(f"{p}: missing #META header line")
        try:
            header = json.loads(first[len("#META "):])
        except json.JSONDecodeError as exc:
            raise DataError(f"{p}:1: #META header is not valid JSON ({exc})")
        meta = _decode(header, "features", p, FeaturesMeta.from_header)
        rows = _read_table(p, fh, "features", meta.feature_names, FeatureRow, _feature_values,
                           head_lines=1)
    return meta, rows


def _feature_values(cells: list[str], at: str) -> np.ndarray:
    values = np.array([float(v) for v in cells], dtype=np.float64)
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise ValueError("feature values must be finite and in [0, 1]")
    return values


# ------------------------------------------------------------------ model

def save_model(path: str | Path, model: TrainedModel) -> None:
    named = model.params.named_parameters()
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "model",
        "arch": model.arch,
        "config": {
            "f_dim": model.params.f_dim,
            "hidden": model.params.hidden,
            "latent": model.params.latent,
            "l_max": model.l_max,
            "window_seconds": model.window_seconds,
            "n_windows": model.n_windows,
        },
        "feature_names": list(model.feature_names),
        "normalizer": _normalizer_payload(model.normalizer),
        "parameters": {
            name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
            for name, t in named.items()
        },
        "rng_seed": model.seed,
        "training_log_summary": model.train_summary,
    }
    dump_json(payload, path)


def load_model(path: str | Path) -> TrainedModel:
    return _load_json(path, "model", _model_from_payload)


def _model_from_payload(payload: dict, p: Path) -> TrainedModel:
    """The stored model; each stored shape is checked against the config's before any
    array of the config's size exists (``init(None, ...)`` gives placeholders)."""
    arch = payload["arch"]
    cfg = payload["config"]
    names = tuple(payload["feature_names"])
    f_dim, latent = (_field(cfg[k], COUNT, k, p) for k in ("f_dim", "latent"))
    if f_dim != len(names):
        raise DataError(f"{p}: config.f_dim {f_dim} does not match "
                        f"the {len(names)} feature names")
    if arch == "rvae":
        params = RvaeParams.init(None, f_dim, _field(cfg["hidden"], COUNT, "hidden", p), latent)
    elif arch == "mlp":
        params = MlpVaeParams.init(None, f_dim, tuple(_field(n, COUNT, "hidden", p)
                                                      for n in cfg["hidden"]), latent)
    else:
        raise DataError(f"{p}: unknown arch {arch!r}")
    named = params.named_parameters()
    stored = payload["parameters"]
    if set(named) != set(stored):
        missing = sorted(set(named) - set(stored))
        extra = sorted(set(stored) - set(named))
        raise DataError(f"{p}: parameter names do not match arch {arch!r} "
                        f"(missing {missing}, extra {extra})")
    for name, tensor in named.items():
        entry = stored[name]
        shape = entry["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise DataError(f"{p}: parameter {name} shape must be a list of non-negative "
                            f"ints, got {shape!r}")
        arr = _numbers(entry["data"], f"parameter {name} data", p).reshape(shape)
        if arr.shape != tensor.data.shape:
            raise DataError(f"{p}: parameter {name} has shape {arr.shape}, "
                            f"expected {tensor.data.shape}")
        _check_finite(arr, f"parameter {name}", p)
        tensor.data = arr
    return TrainedModel(arch=arch, params=params, feature_names=names,
                        normalizer=_normalizer_from_payload(payload["normalizer"],
                                                            names, p),
                        **_window_config(cfg, p), seed=_field(payload["rng_seed"], INDEX,
                                                              "rng_seed", p),
                        train_summary=_train_summary(payload["training_log_summary"], p))


# --------------------------------------------------------------- detector

def _pdf_payload(fit: FittedPdf) -> dict:
    return {"family": fit.family, "params": list(fit.shapes), "loc": fit.loc,
            "scale": fit.scale, "sse": fit.sse, "n": fit.n_samples}


def _pdf_from_payload(entry: dict, name: str, path: Path) -> FittedPdf:
    """A fitted density that its family can evaluate.

    A params list of the wrong length, a shape or scale that is not finite
    and positive, or a loc that is not finite is refused here; otherwise
    it gives a traceback or wrong verdicts with exit 0 at detect time.
    """
    fam = family_by_name(entry["family"])
    params = entry["params"]
    if type(params) is not list:
        raise DataError(f"{path}: {name}.params must be a list, got {params!r}")
    shapes = tuple(_field(v, POSITIVE, f"{name}.params", path) for v in params)
    if len(shapes) != fam.n_shapes:
        raise DataError(f"{path}: {name} family {fam.name} takes {fam.n_shapes} "
                        f"shape parameter(s), params holds {len(shapes)}")
    return FittedPdf(family=fam.name, shapes=shapes,
                     loc=_field(entry["loc"], NUMBER, f"{name}.loc", path),
                     scale=_field(entry["scale"], POSITIVE, f"{name}.scale", path),
                     sse=_field(entry["sse"], NONNEGATIVE, f"{name}.sse", path),
                     n_samples=_field(entry["n"], COUNT, f"{name}.n", path))


def save_detector(path: str | Path, det: DetectorModel) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "detector",
        "pdf_normal": _pdf_payload(det.pdf_normal),
        "pdf_botnet": _pdf_payload(det.pdf_botnet),
        "tie_rule": det.tie_rule,
        "bins": det.bins,
        "min_samples": det.min_samples,
    }
    dump_json(payload, path)


def load_detector(path: str | Path) -> DetectorModel:
    return _load_json(path, "detector", _detector_from_payload)


def _detector_from_payload(payload: dict, path: Path) -> DetectorModel:
    return DetectorModel(
        pdf_normal=_pdf_from_payload(payload["pdf_normal"], "pdf_normal", path),
        pdf_botnet=_pdf_from_payload(payload["pdf_botnet"], "pdf_botnet", path),
        tie_rule=payload["tie_rule"],
        bins=_field(payload["bins"], COUNT, "bins", path),
        min_samples=_field(payload["min_samples"], COUNT, "min_samples", path),
    )


# ----------------------------------------------------------------- report

def save_report(path: str | Path, report: MetricsReport) -> None:
    dump_json({"format_version": FORMAT_VERSION, "kind": "metrics-report",
               **asdict(report)}, path)


# -------------------------------------------------------------- decisions

def write_decisions_jsonl(path: str | Path, decisions: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in decisions:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_decisions_jsonl(path: str | Path) -> list[dict]:
    """One decision record per host-window: a str src_addr, a window_index >= 0 and a verdict."""
    p = Path(path)
    out, seen = [], {}
    with _open_text(p) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                INDEX(record["window_index"])
                if not (type(record["src_addr"]) is str
                        and record["verdict"] in ("Malicious", "NonMalicious")):
                    raise ValueError
            except json.JSONDecodeError as exc:
                raise DataError(f"{p}:{i}: bad decision record ({exc})")
            except (KeyError, TypeError, ValueError):
                raise DataError(f"{p}:{i}: a decision record needs a string src_addr, an "
                                "integer window_index >= 0 and a verdict of Malicious or "
                                "NonMalicious") from None
            _check_new(seen, record["src_addr"], record["window_index"], i, p)
            out.append(record)
    return out


# ------------------------------------------------------------ run manifest

def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_run_manifest(path: str | Path, stage: str, config: dict,
                       inputs: Sequence[str | Path],
                       outputs: Sequence[str | Path], seed: int | None) -> dict:
    """Reproducibility sidecar: hashes of config and inputs, no timestamps."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "run-manifest",
        "stage": stage,
        "config": config,
        "config_sha256": config_hash(config),
        "inputs": {str(p): sha256_of(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "versions": {
            "botdet": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    dump_json(payload, path)
    return payload
