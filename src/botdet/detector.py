"""Threshold-free classification by comparing fitted score densities.

Anomaly scores from known-normal and known-botnet traffic are each fitted
with five candidate density families (gamma, generalized logistic, folded
Cauchy, Mielke, beta). Parameters come from maximum likelihood via
derivative-free simplex search restarted from moment-based guesses; the
family whose density best matches a 200-bin score histogram (least sum of
squared errors) is kept. A new score is called malicious when the botnet
density assigns it at least as much likelihood as the normal density;
exact ties and points outside both supports default to malicious, the
cautious choice for a detector. ``classify`` turns scored host-windows
into their decision records, one array pass per call, for the batch and
the streaming path alike.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import betaln, gammaln

from .errors import DataError
from .scoring import ScoredWindow

log = logging.getLogger(__name__)

_BIG = 1e18  # simplex penalty for out-of-domain parameter vectors
_MAX_ITER = 500  # Nelder-Mead iterations per restart
_TIE_TOL = 0.05  # relative SSE margin within which families count as tied


@dataclass(frozen=True)
class Family:
    """One candidate density family over standardized y = (x - loc) / scale."""

    name: str
    n_shapes: int
    support: str  # "positive" (y > 0), "real", or "unit" (0 < y < 1)
    logpdf: Callable[[np.ndarray, tuple[float, ...]], np.ndarray]
    guesses: Callable[[np.ndarray], list[tuple[tuple[float, ...], float, float]]]


def _on_support(y, ok, logpdf):
    """``logpdf`` where ``ok`` holds and -inf elsewhere.

    When every point is inside the support the mask is skipped; the
    elementwise formula gives the same bits on the whole array.
    """
    if ok.all():
        return logpdf(y)
    out = np.full_like(y, -np.inf)
    out[ok] = logpdf(y[ok])
    return out


def _gamma_logpdf(y, shapes):
    (a,) = shapes
    lp = _on_support(y, y > 0, lambda v: (a - 1.0) * np.log(v) - v - gammaln(a))
    if a == 1.0:  # exponential: finite boundary value at y = 0
        lp = np.where(y == 0, -gammaln(a), lp)
    return lp


def _genlogistic_logpdf(y, shapes):
    (c,) = shapes
    # log f = log c - y - (c+1) log(1 + e^-y), stable via logaddexp
    return np.log(c) - y - (c + 1.0) * np.logaddexp(0.0, -y)


def _foldcauchy_logpdf(y, shapes):
    (c,) = shapes
    return _on_support(y, y >= 0, lambda v: np.log(
        (1.0 / (1.0 + (v - c) ** 2) + 1.0 / (1.0 + (v + c) ** 2)) / np.pi))


def _mielke_logpdf(y, shapes):
    k, s = shapes

    def inside(v):
        lv = np.log(v)
        return np.log(k) + (k - 1.0) * lv - (1.0 + k / s) * np.logaddexp(0.0, s * lv)
    return _on_support(y, y > 0, inside)


def _beta_logpdf(y, shapes):
    a, b = shapes
    return _on_support(y, (y > 0) & (y < 1), lambda v: (
        (a - 1.0) * np.log(v) + (b - 1.0) * np.log1p(-v) - betaln(a, b)))


def _spread(x: np.ndarray) -> float:
    s = float(x.std())
    return s if s > 0 else 1.0


def _robust_spread(x: np.ndarray) -> float:
    # Heavy-tailed candidates need an outlier-proof width estimate; the
    # sample std of a Cauchy-like draw is dominated by its extremes.
    q75, q25 = np.percentile(x, [75, 25])
    s = float(q75 - q25)
    return s if s > 0 else _spread(x)


def _gamma_guesses(x):
    out = []
    for frac in (0.5, 0.02):
        loc = float(x.min()) - frac * _spread(x)
        m = float(x.mean()) - loc
        v = float(x.var())
        a = max(m * m / v, 0.1) if v > 0 else 1.0
        scale = max(v / m, 1e-6) if m > 0 else _spread(x)
        out.append(((a,), loc, scale))
    return out


def _genlogistic_guesses(x):
    scale = _spread(x) * math.sqrt(3.0) / math.pi
    med = float(np.median(x))
    return [((1.0,), med, scale), ((3.0,), med - scale, scale)]


def _foldcauchy_guesses(x):
    out = []
    scale = max(_robust_spread(x) / 2.0, 1e-6)
    for frac in (0.25, 0.02):
        loc = float(x.min()) - frac * _robust_spread(x)
        c = max(float(np.median(x) - loc) / scale, 0.1)
        out.append(((c,), loc, scale))
    return out


def _mielke_guesses(x):
    loc = float(x.min()) - 0.05 * _robust_spread(x)
    scale = max(float(np.median(x)) - loc, 1e-6)
    return [((2.0, 3.0), loc, scale), ((1.0, 2.0), loc, scale),
            ((4.0, 6.0), loc, scale)]


def _beta_guesses(x):
    lo, hi = float(x.min()), float(x.max())
    rng = max(hi - lo, 1e-9)
    out = []
    for margin in (0.01, 0.10):
        m = margin * rng
        loc, scale = lo - m, rng + 2 * m
        y = (x - loc) / scale
        ym, yv = float(y.mean()), float(y.var())
        if 0 < ym < 1 and yv > 0:
            common = ym * (1.0 - ym) / yv - 1.0
            a = max(ym * common, 0.1)
            b = max((1.0 - ym) * common, 0.1)
        else:
            a = b = 1.0
        out.append(((min(a, 100.0), min(b, 100.0)), loc, scale))
    return out


GAMMA = Family("gamma", 1, "positive", _gamma_logpdf, _gamma_guesses)
GENLOGISTIC = Family("genlogistic", 1, "real", _genlogistic_logpdf, _genlogistic_guesses)
FOLDCAUCHY = Family("foldcauchy", 1, "positive", _foldcauchy_logpdf, _foldcauchy_guesses)
MIELKE = Family("mielke", 2, "positive", _mielke_logpdf, _mielke_guesses)
BETA = Family("beta", 2, "unit", _beta_logpdf, _beta_guesses)

FAMILIES: tuple[Family, ...] = (GAMMA, GENLOGISTIC, FOLDCAUCHY, MIELKE, BETA)
_BY_NAME = {f.name: f for f in FAMILIES}


def family_by_name(name: str) -> Family:
    if name not in _BY_NAME:
        raise DataError(f"unknown density family {name!r}")
    return _BY_NAME[name]


@dataclass(frozen=True)
class FittedPdf:
    family: str
    shapes: tuple[float, ...]
    loc: float
    scale: float
    sse: float
    n_samples: int


def pdf_eval(fit: FittedPdf, x: np.ndarray) -> np.ndarray:
    """Density of the fitted family at each point of ``x``; zero outside the support."""
    fam = family_by_name(fit.family)
    y = (np.asarray(x, dtype=np.float64) - fit.loc) / fit.scale
    with np.errstate(all="ignore"):
        lp = fam.logpdf(y, fit.shapes)
        return np.where(np.isfinite(lp), np.exp(lp) / fit.scale, 0.0)


# Optimizer-space packing. Shapes and scale live in log space so the
# simplex can roam freely; loc is tied to the sample minimum for
# bounded-below supports so every sample stays inside the support.

def _unpack(fam: Family, vec: np.ndarray, lo: float, hi: float):
    n = fam.n_shapes
    e = np.exp(vec).tolist()  # an overflow to inf maps to the simplex penalty
    shapes = tuple(e[:n])
    if fam.support == "real":
        loc, scale = float(vec[n]), e[n + 1]
    elif fam.support == "positive":
        loc, scale = lo - e[n], e[n + 1]
    else:  # unit: [loc, loc+scale] must cover [lo, hi]
        m1, m2 = e[n], e[n + 1]
        loc = lo - m1
        scale = (hi - lo) + m1 + m2
    return shapes, loc, scale


def _pack(fam: Family, shapes, loc: float, scale: float, lo: float, hi: float) -> np.ndarray:
    head = [math.log(max(s, 1e-12)) for s in shapes]
    if fam.support == "real":
        tail = [loc, math.log(max(scale, 1e-12))]
    elif fam.support == "positive":
        tail = [math.log(max(lo - loc, 1e-9)), math.log(max(scale, 1e-12))]
    else:
        m1 = max(lo - loc, 1e-9)
        m2 = max(loc + scale - hi, 1e-9)
        tail = [math.log(m1), math.log(m2)]
    return np.array(head + tail, dtype=np.float64)


def fit_family(fam: Family, samples: np.ndarray, min_samples: int = 100) -> FittedPdf:
    """Maximum-likelihood fit of one family via restarted Nelder-Mead.

    The SSE field is left at nan; ``sse`` / ``best_fit`` fill it in.
    Degenerate samples (zero spread) cannot identify any density and are
    an error.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < max(min_samples, 2):
        raise DataError(f"fit_family: need a 1-d sample of at least "
                        f"{max(min_samples, 2)} points, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DataError("fit_family: samples contain non-finite values")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise DataError("fit_family: degenerate samples (all values equal)")

    def nll(vec: np.ndarray) -> float:
        shapes, loc, scale = _unpack(fam, vec, lo, hi)
        if not math.isfinite(scale) or scale <= 0:
            return _BIG
        lp = fam.logpdf((x - loc) / scale, shapes)
        total = float(lp.sum()) - x.size * math.log(scale)
        return -total if math.isfinite(total) else _BIG

    best_vec, best_val = None, math.inf
    guesses = fam.guesses(x)
    with np.errstate(all="ignore"):  # overflow and log(0) map to the simplex penalty
        for shapes, loc, scale in guesses:
            vec0 = _pack(fam, shapes, loc, scale, lo, hi)
            if not math.isfinite(nll(vec0)):
                continue
            res = minimize(nll, vec0, method="Nelder-Mead",
                           options={"maxiter": _MAX_ITER, "xatol": 1e-6, "fatol": 1e-6})
            if res.fun < best_val:
                best_vec, best_val = res.x, res.fun
        if best_vec is None or best_val >= _BIG:
            raise DataError(f"fit_family: no finite likelihood found for {fam.name}")
        shapes, loc, scale = _unpack(fam, best_vec, lo, hi)
    return FittedPdf(family=fam.name, shapes=shapes, loc=loc, scale=scale,
                     sse=float("nan"), n_samples=x.size)


def sse(fit: FittedPdf, samples: np.ndarray, bins: int = 200) -> float:
    """Sum of squared errors between the fitted density and a histogram.

    The histogram uses ``bins`` equal-width bins over the sample range
    with density normalization; the fit is evaluated at bin centers.
    Always finite, even for a degenerate single-spike histogram.
    """
    x = np.asarray(samples, dtype=np.float64)
    density, edges = np.histogram(x, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum((density - pdf_eval(fit, centers)) ** 2))


def best_fit(samples: np.ndarray, min_samples: int = 100, bins: int = 200) -> FittedPdf:
    """Fit every family and keep the lowest-SSE one.

    SSE values within ``_TIE_TOL`` relative of the minimum count as tied;
    ties break toward fewer shape parameters, then family declaration
    order. A flexible family can shadow a simpler one arbitrarily well
    (beta with a huge right margin reproduces gamma), so an exact-equality
    tie rule would never fire and selection between them would be
    histogram noise. Degenerate samples (all values equal) fit no family
    and are an error. Families whose fit fails outright are skipped with a
    warning; at least one must survive.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < min_samples:
        raise DataError(f"best_fit: {x.size} samples, need at least {min_samples}")
    if x.size and np.all(np.isfinite(x)) and x.min() == x.max():
        raise DataError("best_fit: degenerate samples (all values equal)")
    candidates: list[tuple[float, int, int, FittedPdf]] = []
    for order, fam in enumerate(FAMILIES):
        try:
            fit = fit_family(fam, x, min_samples=min_samples)
            err = sse(fit, x, bins=bins)
        except Exception as exc:
            log.warning("density family %s skipped: %s", fam.name, exc)
            continue
        candidates.append((err, fam.n_shapes, order, replace(fit, sse=err)))
    if not candidates:
        raise DataError("best_fit: every family failed to fit")
    min_sse = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= min_sse * (1.0 + _TIE_TOL)]
    tied.sort(key=lambda c: (c[1], c[0], c[2]))
    return tied[0][3]


TIE_RULES = ("malicious", "benign")


@dataclass(frozen=True)
class DetectorModel:
    """Best-fit score densities for normal and botnet traffic."""

    pdf_normal: FittedPdf
    pdf_botnet: FittedPdf
    tie_rule: str = "malicious"  # or "benign"
    bins: int = 200
    min_samples: int = 100

    def __post_init__(self):
        if self.tie_rule not in TIE_RULES:
            raise DataError(f"unknown tie rule {self.tie_rule!r}")


def classify(scored: Sequence[ScoredWindow], det: DetectorModel) -> list[dict]:
    """The JSON decision records of scored host-windows, in input order.

    Each density is evaluated once over the whole score array. This is the
    only builder of decision records: ``pipeline.classify_scores`` and
    ``run_stream`` both call it. Values stay Python types (``float``
    likelihoods, ``bool`` ``out_of_support``), so a record goes to
    ``json.dumps`` as it is.
    """
    scores = np.array([s.score for s in scored], dtype=np.float64)
    ln = pdf_eval(det.pdf_normal, scores)
    lb = pdf_eval(det.pdf_botnet, scores)
    malicious = (lb > ln) | ((lb == ln) & (det.tie_rule == "malicious"))
    out = (ln == 0.0) & (lb == 0.0)
    return [{
        "src_addr": s.src_addr,
        "window_index": s.window_index,
        "score": s.score,
        "likelihood_normal": n,
        "likelihood_botnet": b,
        "verdict": "Malicious" if m else "NonMalicious",
        "out_of_support": o,
    } for s, n, b, m, o in zip(scored, ln.tolist(), lb.tolist(),
                               malicious.tolist(), out.tolist())]


def fit_detector(normal_scores: Sequence[float], botnet_scores: Sequence[float],
                 min_samples: int = 100, bins: int = 200,
                 tie_rule: str = "malicious") -> DetectorModel:
    return DetectorModel(
        pdf_normal=best_fit(np.asarray(normal_scores), min_samples, bins),
        pdf_botnet=best_fit(np.asarray(botnet_scores), min_samples, bins),
        tie_rule=tie_rule, bins=bins, min_samples=min_samples,
    )
