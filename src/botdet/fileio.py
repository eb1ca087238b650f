"""On-disk artifact formats.

Every artifact is versioned and self-describing:

- features file: CSV with a ``#META`` first line holding the header JSON
  (feature names, normalizer stats, window config, t0), then one record
  per host-window
- model file: JSON with named flat parameter arrays; floats survive a
  save/load round trip bit for bit (shortest-repr encoding)
- detector file: JSON with the two fitted densities
- scores file: CSV src_addr,window_index,first_seen,label,score
- decisions file: JSON lines
- run manifest: config hash, input digests, seed, library versions; no
  timestamps, so reruns produce identical bytes

Readers verify format_version and artifact kind and raise DataError with
the offending path on any mismatch, or on a payload that is missing a key
or holds a value of the wrong type: a count (``n_windows``, ``l_max``, a
model's sizes and seed, a detector's ``bins`` and ``min_samples``, a
density's ``n``) must be a JSON integer, and a time (``window_seconds``,
``t0``) or any other number (normalizer ``min`` and ``max``, a
parameter's ``data``, a density's ``params``, ``loc``, ``scale`` and
``sse``) a JSON number; none of them may be a bool. The features,
scores and decisions readers also refuse a host-window (src_addr,
window_index) that repeats.
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


def _count(value, key: str, path: Path) -> int:
    """A count read from key ``key``: a JSON integer, not a bool or a fraction."""
    if type(value) is not int:
        raise DataError(f"{path}: {key} must be a JSON integer, got {value!r}")
    return value


def _number(value, key: str, path: Path) -> float:
    """A number read from key ``key``: a JSON number, not a bool."""
    if type(value) not in (int, float):
        raise DataError(f"{path}: {key} must be a JSON number, got {value!r}")
    return float(value)


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


def _window_config(src: dict, path: Path) -> dict:
    """``window_seconds``, ``n_windows`` and ``l_max`` of an artifact, type- and range-checked."""
    cfg = {"window_seconds": _number(src["window_seconds"], "window_seconds", path),
           **{k: _count(src[k], k, path) for k in ("n_windows", "l_max")}}
    if not 0.0 < cfg["window_seconds"] < np.inf or min(cfg["n_windows"], cfg["l_max"]) < 1:
        raise DataError(f"{path}: window config out of range {cfg}: window_seconds must "
                        "be finite and > 0, n_windows and l_max >= 1")
    return cfg


def _window(text: str) -> int:
    """A host-window row's window_index: windows count from 0 at t0."""
    w = int(text)
    if w < 0:
        raise ValueError(f"negative window_index {w}")
    return w


def _check_new(seen: dict, src_addr: str, window: int, line: int, p: Path) -> None:
    """Note a host-window's line; one already noted raises DataError naming both lines."""
    first = seen.setdefault((src_addr, window), line)
    if first != line:
        raise DataError(f"{p}:{line}: host-window ({src_addr!r}, {window}) "
                        f"repeats line {first}")


def _finite(text: str, name: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite {name} {text!r}")
    return x


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
                   **_window_config(header, path), t0=_number(header["t0"], "t0", path))


def write_features(path: str | Path, meta: FeaturesMeta,
                   rows: Iterable[FeatureRow]) -> None:
    header_json = json.dumps(meta.to_header(), sort_keys=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"#META {header_json}\n")
        writer = csv.writer(fh)
        writer.writerow(["src_addr", "window_index", "first_seen", "label",
                         *meta.feature_names])
        for row in rows:
            writer.writerow([row.src_addr, row.window_index, repr(row.first_seen),
                             row.label.value, *[repr(float(v)) for v in row.values]])


def read_features(path: str | Path) -> tuple[FeaturesMeta, list[FeatureRow]]:
    p = Path(path)
    with _open_text(p) as fh:
        first = fh.readline()
        if not first.startswith("#META "):
            raise DataError(f"{p}: missing #META header line")
        try:
            header = json.loads(first[len("#META "):])
        except json.JSONDecodeError as exc:
            raise DataError(f"{p}:1: #META header is not valid JSON ({exc})")
        meta = _decode(header, "features", p, FeaturesMeta.from_header)
        reader = csv.reader(fh)
        columns = next(reader, None)
        expected = ["src_addr", "window_index", "first_seen", "label",
                    *meta.feature_names]
        if columns != expected:
            raise DataError(f"{p}: column header does not match feature names")
        rows, seen = [], {}
        for rec in reader:
            line = reader.line_num + 1  # the reader started after the #META line
            try:
                if len(rec) != len(expected):
                    raise ValueError(f"{len(rec)} columns, expected {len(expected)}")
                values = np.array([float(v) for v in rec[4:]], dtype=np.float64)
                if not ((values >= 0.0) & (values <= 1.0)).all():
                    raise ValueError("feature values must be finite and in [0, 1]")
                row = FeatureRow(src_addr=rec[0], window_index=_window(rec[1]),
                                 first_seen=_finite(rec[2], "first_seen"),
                                 label=GroundTruth(rec[3]), values=values)
            except ValueError as exc:
                raise DataError(f"{p}:{line}: bad features row ({exc})")
            _check_new(seen, row.src_addr, row.window_index, line, p)
            rows.append(row)
    return meta, rows


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
    f_dim, latent = (_count(cfg[k], k, p) for k in ("f_dim", "latent"))
    if f_dim != len(names):
        raise DataError(f"{p}: config.f_dim {f_dim} does not match "
                        f"the {len(names)} feature names")
    if arch == "rvae":
        params = RvaeParams.init(None, f_dim, _count(cfg["hidden"], "hidden", p), latent)
    elif arch == "mlp":
        params = MlpVaeParams.init(None, f_dim, tuple(_count(n, "hidden", p)
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
                        **_window_config(cfg, p), seed=_count(payload["rng_seed"], "rng_seed", p),
                        train_summary=payload["training_log_summary"])


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
    shapes = tuple(_number(v, f"{name}.params", path) for v in params)
    loc, scale = (_number(entry[k], f"{name}.{k}", path) for k in ("loc", "scale"))
    if len(shapes) != fam.n_shapes:
        raise DataError(f"{path}: {name} family {fam.name} takes {fam.n_shapes} "
                        f"shape parameter(s), params holds {len(shapes)}")
    if not all(math.isfinite(v) and v > 0 for v in (*shapes, scale)):
        raise DataError(f"{path}: {name} shapes and scale must be finite and > 0, "
                        f"got params={list(shapes)} scale={scale}")
    if not math.isfinite(loc):
        raise DataError(f"{path}: {name} loc must be finite, got {loc}")
    return FittedPdf(family=fam.name, shapes=shapes, loc=loc, scale=scale,
                     sse=_number(entry["sse"], f"{name}.sse", path),
                     n_samples=_count(entry["n"], f"{name}.n", path))


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
    bins, min_samples = (_count(payload[k], k, path) for k in ("bins", "min_samples"))
    if bins < 1 or min_samples < 1:
        raise DataError(f"{path}: bins and min_samples must be >= 1, "
                        f"got bins={bins} min_samples={min_samples}")
    return DetectorModel(
        pdf_normal=_pdf_from_payload(payload["pdf_normal"], "pdf_normal", path),
        pdf_botnet=_pdf_from_payload(payload["pdf_botnet"], "pdf_botnet", path),
        tie_rule=payload["tie_rule"],
        bins=bins,
        min_samples=min_samples,
    )


# ----------------------------------------------------------------- report

def save_report(path: str | Path, report: MetricsReport) -> None:
    dump_json({"format_version": FORMAT_VERSION, "kind": "metrics-report",
               **asdict(report)}, path)


# ----------------------------------------------------------------- scores

SCORES_HEADER = ("src_addr", "window_index", "first_seen", "label", "score")


def write_scores_csv(path: str | Path, scored: Iterable[ScoredWindow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for s in scored:
            writer.writerow([s.src_addr, s.window_index, repr(s.first_seen),
                             s.label.value, repr(s.score)])


def read_scores_csv(path: str | Path) -> list[ScoredWindow]:
    p = Path(path)
    with _open_text(p) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(SCORES_HEADER):
            raise DataError(f"{p}: not a scores file (bad column header)")
        out, seen = [], {}
        for rec in reader:
            try:
                src_addr, window, first_seen, label, score = rec
                s = ScoredWindow(src_addr=src_addr, window_index=_window(window),
                                 first_seen=_finite(first_seen, "first_seen"),
                                 label=GroundTruth(label), score=_finite(score, "score"))
            except ValueError as exc:
                raise DataError(f"{p}:{reader.line_num}: bad scores row ({exc})")
            _check_new(seen, s.src_addr, s.window_index, reader.line_num, p)
            out.append(s)
    return out


# -------------------------------------------------------------- decisions

def write_decisions_jsonl(path: str | Path, decisions: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in decisions:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_decisions_jsonl(path: str | Path) -> list[dict]:
    """One decision record per host-window: a str src_addr, an int window_index and a verdict."""
    p = Path(path)
    out, seen = [], {}
    with _open_text(p) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{p}:{i}: bad decision record ({exc})")
            if not (isinstance(record, dict) and isinstance(record.get("src_addr"), str)
                    and type(record.get("window_index")) is int
                    and record.get("verdict") in ("Malicious", "NonMalicious")):
                raise DataError(f"{p}:{i}: a decision record needs a string src_addr, an "
                                "integer window_index and a verdict of Malicious or "
                                "NonMalicious")
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
