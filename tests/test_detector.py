"""Density families, likelihood fitting, SSE selection, and classification."""

import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from botdet import detector
from botdet.detector import (
    BETA,
    FAMILIES,
    FOLDCAUCHY,
    GAMMA,
    GENLOGISTIC,
    MIELKE,
    TIE_RULES,
    DetectorModel,
    FittedPdf,
    best_fit,
    classify,
    family_by_name,
    fit_detector,
    fit_family,
    pdf_eval,
    sse,
)
from botdet.errors import DataError
from botdet.ingest import GroundTruth
from botdet.scoring import ScoredWindow
from helpers import REFERENCE_LOGPDFS, reference_fit_family, reference_unpack


def quad_mass(fit: FittedPdf, y_lo: float, y_hi: float, n: int = 400_000) -> float:
    """Trapezoid integral of the fitted density over loc + scale * [y_lo, y_hi]."""
    y = np.linspace(y_lo, y_hi, n)
    x = fit.loc + fit.scale * y
    return float(trapezoid(pdf_eval(fit, x), x))


# Independent check of each closed form: total mass must be 1.
# Singular-at-the-boundary shapes (gamma a<1, beta a,b<1) are excluded here
# because trapezoid sums diverge near the spike; those shapes are covered by
# the reference-implementation spot check below.
INTEGRAL_CASES = [
    (FittedPdf("gamma", (2.0,), 0.5, 2.0, 0.0, 0), 0.0, 60.0, 1e-6),
    (FittedPdf("gamma", (1.5,), -1.0, 0.5, 0.0, 0), 0.0, 60.0, 1e-5),
    (FittedPdf("genlogistic", (2.0,), -1.0, 1.5, 0.0, 0), -60.0, 120.0, 1e-6),
    (FittedPdf("foldcauchy", (3.0,), 0.0, 1.0, 0.0, 0), 0.0, 5000.0, 5e-4),
    (FittedPdf("mielke", (3.0, 4.0), 0.0, 2.0, 0.0, 0), 0.0, 2000.0, 1e-3),
    (FittedPdf("beta", (2.0, 3.0), 0.0, 1.0, 0.0, 0), 0.0, 1.0, 1e-6),
    (FittedPdf("beta", (1.5, 2.5), 2.0, 3.0, 0.0, 0), 0.0, 1.0, 1e-5),
]


@pytest.mark.parametrize("fit,y_lo,y_hi,tol", INTEGRAL_CASES,
                         ids=[c[0].family + str(i) for i, c in enumerate(INTEGRAL_CASES)])
def test_pdf_integrates_to_one(fit, y_lo, y_hi, tol):
    assert abs(quad_mass(fit, y_lo, y_hi) - 1.0) < tol


@pytest.mark.parametrize("fit", [
    FittedPdf("gamma", (2.0,), 1.0, 1.0, 0.0, 0),
    FittedPdf("foldcauchy", (1.0,), 1.0, 1.0, 0.0, 0),
    FittedPdf("mielke", (2.0, 3.0), 1.0, 1.0, 0.0, 0),
], ids=["gamma", "foldcauchy", "mielke"])
def test_density_zero_below_support(fit):
    assert pdf_eval(fit, 0.5) == 0.0
    assert pdf_eval(fit, 1.0 - 1e-12) == 0.0


def test_beta_density_zero_outside_unit_interval():
    fit = FittedPdf("beta", (2.0, 2.0), 1.0, 2.0, 0.0, 0)
    assert pdf_eval(fit, 0.9) == 0.0
    assert pdf_eval(fit, 3.1) == 0.0
    assert pdf_eval(fit, 2.0) > 0.0


def test_pdf_eval_matches_reference_implementation():
    # Spot-check every closed form against scipy.stats at scattered points.
    x = np.array([0.3, 1.1, 2.7, 5.9])
    cases = [
        (FittedPdf("gamma", (2.5,), 0.1, 1.3, 0.0, 0), scipy.stats.gamma(2.5, 0.1, 1.3)),
        (FittedPdf("gamma", (0.7,), -1.0, 0.5, 0.0, 0), scipy.stats.gamma(0.7, -1.0, 0.5)),
        (FittedPdf("genlogistic", (4.0,), 1.0, 0.7, 0.0, 0), scipy.stats.genlogistic(4.0, 1.0, 0.7)),
        (FittedPdf("foldcauchy", (2.0,), 0.2, 0.9, 0.0, 0), scipy.stats.foldcauchy(2.0, 0.2, 0.9)),
        (FittedPdf("mielke", (3.0, 2.0), 0.0, 1.5, 0.0, 0), scipy.stats.mielke(3.0, 2.0, 0.0, 1.5)),
        (FittedPdf("beta", (2.0, 5.0), 0.0, 8.0, 0.0, 0), scipy.stats.beta(2.0, 5.0, 0.0, 8.0)),
        (FittedPdf("beta", (0.5, 0.5), 2.0, 3.0, 0.0, 0), scipy.stats.beta(0.5, 0.5, 2.0, 3.0)),
    ]
    for fit, ref in cases:
        np.testing.assert_allclose(pdf_eval(fit, x), ref.pdf(x), rtol=1e-12,
                                   err_msg=fit.family)


def test_pdf_eval_scalar_and_array_forms():
    # The output takes the input's shape: a scalar gives a 0-d array.
    fit = FittedPdf("gamma", (2.0,), 0.0, 1.0, 0.0, 0)
    s = pdf_eval(fit, 1.0)
    assert s.shape == () and s == pytest.approx(np.exp(-1.0))
    arr = pdf_eval(fit, np.array([1.0, 2.0]))
    assert arr.shape == (2,) and arr[0] == s


def test_pdf_eval_standard_boundary_values():
    exponential = FittedPdf("gamma", (1.0,), 0.0, 1.0, 0.0, 0)
    assert pdf_eval(exponential, 0.0) == pytest.approx(1.0)
    uniform = FittedPdf("beta", (1.0, 1.0), 0.0, 1.0, 0.0, 0)
    assert pdf_eval(uniform, 0.3) == pytest.approx(1.0)


def test_gamma_parameter_recovery():
    rng = np.random.default_rng(7)
    x = scipy.stats.gamma.rvs(2.0, loc=0.0, scale=1.0, size=10_000, random_state=rng)
    fit = fit_family(GAMMA, x)
    assert 1.8 <= fit.shapes[0] <= 2.2
    assert 0.9 <= fit.scale <= 1.1
    assert abs(fit.loc) < 0.1


def test_genlogistic_parameter_recovery():
    rng = np.random.default_rng(8)
    x = scipy.stats.genlogistic.rvs(3.0, loc=2.0, scale=1.5, size=8_000, random_state=rng)
    fit = fit_family(GENLOGISTIC, x)
    assert fit.shapes[0] == pytest.approx(3.0, rel=0.3)
    assert fit.loc == pytest.approx(2.0, abs=0.5)
    assert fit.scale == pytest.approx(1.5, rel=0.15)


def test_fitted_loc_never_exceeds_sample_min():
    rng = np.random.default_rng(9)
    x = scipy.stats.gamma.rvs(1.2, loc=3.0, scale=2.0, size=2_000, random_state=rng)
    for fam in (GAMMA, FOLDCAUCHY, MIELKE, BETA):
        fit = fit_family(fam, x)
        assert fit.loc <= x.min(), fam.name
        if fam.support == "unit":
            assert fit.loc + fit.scale >= x.max()


def test_scale_equivariance_of_gamma_fit():
    rng = np.random.default_rng(10)
    x = scipy.stats.gamma.rvs(3.0, loc=0.0, scale=1.0, size=5_000, random_state=rng)
    base = fit_family(GAMMA, x)
    moved = fit_family(GAMMA, 10.0 * x)
    assert moved.shapes[0] == pytest.approx(base.shapes[0], rel=1e-3)
    assert moved.scale == pytest.approx(10.0 * base.scale, rel=1e-3)
    assert moved.loc == pytest.approx(10.0 * base.loc, abs=1e-3 * base.scale * 10)


def test_fit_family_input_validation():
    with pytest.raises(DataError):
        fit_family(GAMMA, np.full(200, 4.0))  # zero spread
    with pytest.raises(DataError):
        fit_family(GAMMA, np.arange(99, dtype=float))  # below min_samples
    bad = np.linspace(0.1, 5.0, 200)
    bad[17] = np.nan
    with pytest.raises(DataError):
        fit_family(GAMMA, bad)
    with pytest.raises(DataError):
        family_by_name("gaussian")


def test_family_by_name_roundtrip():
    for fam in FAMILIES:
        assert family_by_name(fam.name) is fam


def test_sse_definition_matches_manual_histogram():
    rng = np.random.default_rng(11)
    x = rng.gamma(2.0, 1.0, size=1_000)
    fit = fit_family(GAMMA, x)
    got = sse(fit, x, bins=50)
    density, edges = np.histogram(x, bins=50, density=True)
    centers = (edges[:-1] + edges[1:]) / 2
    want = float(np.sum((density - pdf_eval(fit, centers)) ** 2))
    assert got == pytest.approx(want, rel=1e-12)
    assert got >= 0.0


def test_sse_stays_finite_on_degenerate_histograms():
    fit = FittedPdf("gamma", (2.0,), 0.0, 1.0, 0.0, 0)
    assert np.isfinite(sse(fit, np.full(300, 2.5)))  # single-spike sample
    rng = np.random.default_rng(19)
    assert np.isfinite(sse(fit, rng.gamma(2.0, size=300), bins=1))


def test_sse_prefers_generating_family():
    rng = np.random.default_rng(12)
    x = scipy.stats.gamma.rvs(2.0, size=5_000, random_state=rng)
    good = fit_family(GAMMA, x)
    bad = fit_family(FOLDCAUCHY, x)
    assert sse(good, x) < sse(bad, x)


def test_best_fit_enforces_min_samples():
    rng = np.random.default_rng(13)
    with pytest.raises(DataError):
        best_fit(rng.gamma(2.0, size=99))
    best_fit(rng.gamma(2.0, size=100))  # boundary is allowed


def test_constant_samples_are_rejected_before_any_family_is_fitted(monkeypatch):
    fitted = []
    real = detector.fit_family

    def spy(fam, *args, **kwargs):
        fitted.append(fam.name)
        return real(fam, *args, **kwargs)

    monkeypatch.setattr(detector, "fit_family", spy)
    constant, varied = np.full(200, 4.0), np.random.default_rng(21).gamma(2.0, size=200)
    every = [fam.name for fam in FAMILIES]
    for call, want in ((lambda: best_fit(constant), []),
                       (lambda: fit_detector(constant, varied), []),
                       (lambda: fit_detector(varied, constant), every)):
        fitted.clear()
        with pytest.raises(DataError, match="degenerate samples"):
            call()
        assert fitted == want


@pytest.mark.parametrize("samples,min_samples,message", [
    (np.array([]), 0, "every family failed"),
    (np.full(200, np.inf), 100, "every family failed"),
    (np.r_[np.full(199, 2.0), np.nan], 100, "every family failed"),
    (np.array([3.0]), 1, "degenerate samples"),
])
def test_samples_no_family_can_fit_are_data_errors(samples, min_samples, message):
    """Empty and non-finite samples fail in every family; one point is degenerate."""
    with pytest.raises(DataError, match=message):
        best_fit(samples, min_samples=min_samples)


def test_a_family_whose_fit_fails_is_skipped_with_a_warning(monkeypatch, caplog):
    real = detector.fit_family
    failures = {"beta": RuntimeError("no convergence"),
                "gamma": DataError("fit_family: degenerate samples (all values equal)")}

    def flaky(fam, *args, **kwargs):
        if fam.name in failures:
            raise failures[fam.name]
        return real(fam, *args, **kwargs)

    monkeypatch.setattr(detector, "fit_family", flaky)
    x = np.random.default_rng(22).uniform(0.0, 1.0, size=2_000)
    with caplog.at_level("WARNING", logger="botdet.detector"):
        fit = best_fit(x)
    assert fit.family not in failures
    skipped = sorted(r.getMessage() for r in caplog.records)
    assert skipped == ["density family beta skipped: no convergence",
                       "density family gamma skipped: "
                       "fit_family: degenerate samples (all values equal)"]


def test_best_fit_records_sse_and_sample_count():
    rng = np.random.default_rng(14)
    x = rng.gamma(2.0, 1.0, size=500)
    fit = best_fit(x, min_samples=100)
    assert np.isfinite(fit.sse)
    assert fit.n_samples == 500
    others = [f for f in FAMILIES if f.name != fit.family]
    for fam in others[:2]:
        alt = fit_family(fam, x)
        assert fit.sse <= sse(alt, x) + 1e-12


def test_uniform_scores_select_beta():
    rng = np.random.default_rng(15)
    x = rng.uniform(0.0, 1.0, size=5_000)
    fit = best_fit(x)
    assert fit.family == "beta"
    assert fit.shapes[0] == pytest.approx(1.0, abs=0.3)
    assert fit.shapes[1] == pytest.approx(1.0, abs=0.3)


def test_foldcauchy_shape_recovery():
    rng = np.random.default_rng(16)
    x = scipy.stats.foldcauchy.rvs(3.0, size=10_000, random_state=rng)
    fit = fit_family(FOLDCAUCHY, x)
    assert fit.shapes[0] == pytest.approx(3.0, rel=0.2)
    assert fit.scale == pytest.approx(1.0, rel=0.2)
    assert abs(fit.loc) < 0.2


def test_best_fit_parsimony_breaks_near_ties():
    # Beta with a huge upper margin shadows gamma almost exactly; the
    # relative tie tolerance must hand the win to the 1-shape family.
    rng = np.random.default_rng(2)
    x = scipy.stats.gamma.rvs(2.0, size=10_000, random_state=rng)
    fit = best_fit(x)
    assert fit.family == "gamma"
    assert fit.shapes[0] == pytest.approx(2.0, rel=0.1)


def test_mielke_best_fit_selection():
    rng = np.random.default_rng(20)
    x = scipy.stats.mielke.rvs(3.0, 4.0, size=6_000, random_state=rng)
    fit = best_fit(x)
    assert fit.family == "mielke"
    assert fit.shapes[0] == pytest.approx(3.0, rel=0.2)
    assert fit.shapes[1] == pytest.approx(4.0, rel=0.2)


def windows(*scores: float) -> list[ScoredWindow]:
    return [ScoredWindow(f"10.0.0.{i}", i, 0.0, GroundTruth.NORMAL, x)
            for i, x in enumerate(scores)]


def reference_record(s: ScoredWindow, det: DetectorModel) -> dict:
    """The per-score rule: two one-point density calls and an if-chain."""
    ln = float(pdf_eval(det.pdf_normal, np.array([s.score]))[0])
    lb = float(pdf_eval(det.pdf_botnet, np.array([s.score]))[0])
    if lb > ln:
        malicious = True
    elif lb < ln:
        malicious = False
    else:
        malicious = det.tie_rule == "malicious"
    return {"src_addr": s.src_addr, "window_index": s.window_index,
            "score": s.score, "likelihood_normal": ln, "likelihood_botnet": lb,
            "verdict": "Malicious" if malicious else "NonMalicious",
            "out_of_support": ln == 0.0 and lb == 0.0}


# Every family; the positive-support ones start at 0 or above, so negative
# scores lie outside both supports of any pair drawn from them.
CLASSIFY_FITS = [
    FittedPdf("gamma", (2.0,), 0.0, 1.0, 0.0, 200),
    FittedPdf("gamma", (1.0,), 1.0, 0.5, 0.0, 200),  # finite value at its loc
    FittedPdf("genlogistic", (2.0,), 3.0, 1.5, 0.0, 200),
    FittedPdf("foldcauchy", (3.0,), 0.5, 1.0, 0.0, 200),
    FittedPdf("mielke", (3.0, 4.0), 0.0, 2.0, 0.0, 200),
    FittedPdf("beta", (2.0, 3.0), 1.0, 4.0, 0.0, 200),
]
EDGES = [0.0, -0.0, 0.5, 1.0, 3.0, 5.0, -1.0, 1e-300, 1e300, -1e300]


@settings(max_examples=300, deadline=None)
@given(normal=st.sampled_from(CLASSIFY_FITS), botnet=st.sampled_from(CLASSIFY_FITS),
       tie_rule=st.sampled_from(TIE_RULES),
       scores=st.lists(st.one_of(st.sampled_from(EDGES),
                                 st.floats(-5.0, 20.0, allow_nan=False)), max_size=40))
def test_classify_matches_the_per_score_rule(normal, botnet, tie_rule, scores):
    det = DetectorModel(normal, botnet, tie_rule=tie_rule)
    scored = windows(*scores)
    records = classify(scored, det)
    want = [reference_record(s, det) for s in scored]
    assert records == want
    for r, w, s in zip(records, want, scored):
        for key in ("likelihood_normal", "likelihood_botnet"):
            assert type(r[key]) is float
            assert np.float64(r[key]).tobytes() == np.float64(w[key]).tobytes()
        assert type(r["out_of_support"]) is bool
        assert type(r["window_index"]) is int
        assert r["score"] is s.score
    json.dumps(records)  # no numpy scalar left in a record


def _tie_detector(tie_rule="malicious"):
    pdf = FittedPdf("gamma", (2.0,), 0.0, 1.0, 0.0, 200)
    return DetectorModel(pdf_normal=pdf, pdf_botnet=pdf, tie_rule=tie_rule)


def test_classify_prefers_higher_likelihood():
    det = DetectorModel(
        pdf_normal=FittedPdf("gamma", (2.0,), 0.0, 1.0, 0.0, 200),
        pdf_botnet=FittedPdf("gamma", (2.0,), 5.0, 1.0, 0.0, 200),
    )
    low, high = classify(windows(1.0, 7.0), det)
    assert low["verdict"] == "NonMalicious" and low["likelihood_botnet"] == 0.0
    assert high["verdict"] == "Malicious"
    assert high["likelihood_normal"] < high["likelihood_botnet"]
    assert not low["out_of_support"] and not high["out_of_support"]


def test_classify_tie_rule_controls_ties():
    s = windows(1.7)
    assert classify(s, _tie_detector("malicious"))[0]["verdict"] == "Malicious"
    assert classify(s, _tie_detector("benign"))[0]["verdict"] == "NonMalicious"


def test_classify_out_of_support_defaults_to_malicious():
    det = DetectorModel(
        pdf_normal=FittedPdf("gamma", (2.0,), 1.0, 1.0, 0.0, 200),
        pdf_botnet=FittedPdf("gamma", (2.0,), 2.0, 1.0, 0.0, 200),
    )
    (r,) = classify(windows(0.5), det)
    assert r["out_of_support"]
    assert r["likelihood_normal"] == 0.0 and r["likelihood_botnet"] == 0.0
    assert r["verdict"] == "Malicious"
    benign_det = DetectorModel(det.pdf_normal, det.pdf_botnet, tie_rule="benign")
    assert classify(windows(0.5), benign_det)[0]["verdict"] == "NonMalicious"


def test_fit_detector_separates_shifted_populations():
    rng = np.random.default_rng(17)
    normal = rng.gamma(2.0, 1.0, size=400)
    botnet = rng.gamma(2.0, 1.0, size=400) + 12.0
    det = fit_detector(normal, botnet, min_samples=100)
    mid_normal, mid_botnet = classify(
        windows(float(np.median(normal)), float(np.median(botnet))), det)
    assert mid_normal["verdict"] == "NonMalicious"
    assert mid_botnet["verdict"] == "Malicious"
    assert det.pdf_normal.n_samples == 400


def test_detector_model_rejects_unknown_tie_rule():
    with pytest.raises(DataError, match="unknown tie rule"):
        _tie_detector("bogus")


def test_fit_detector_rejects_unknown_tie_rule():
    rng = np.random.default_rng(18)
    x = rng.gamma(2.0, size=200)
    with pytest.raises(DataError):
        fit_detector(x, x + 1.0, tie_rule="coin-flip")


# ------------------------------------------- the trimmed likelihood loop vs its oracle

def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(fam=st.sampled_from(FAMILIES), data=st.data())
def test_logpdf_matches_the_masked_reference_bit_for_bit(fam, data):
    shapes = tuple(data.draw(st.lists(st.floats(0.05, 50.0), min_size=fam.n_shapes,
                                      max_size=fam.n_shapes)))
    # from all inside the support (the unmasked path) to points on and past its edges
    y = np.array(data.draw(st.lists(st.one_of(
        st.floats(1e-9, 1.0 - 1e-9), st.floats(-5.0, 50.0), st.sampled_from([0.0, 1.0, -0.0])),
        min_size=1, max_size=40)))
    with np.errstate(all="ignore"):
        assert fam.logpdf(y, shapes).tobytes() == REFERENCE_LOGPDFS[fam.name](y, shapes).tobytes()


@settings(max_examples=300, deadline=None)
@given(fam=st.sampled_from(FAMILIES), data=st.data(), lo=st.floats(-1e3, 1e3),
       width=st.floats(1e-6, 1e3))
def test_unpack_matches_the_per_element_reference_bit_for_bit(fam, data, lo, width):
    vec = np.array(data.draw(st.lists(st.floats(-800.0, 800.0), min_size=fam.n_shapes + 2,
                                      max_size=fam.n_shapes + 2)))
    with np.errstate(over="ignore"):
        shapes, loc, scale = detector._unpack(fam, vec, lo, lo + width)
    want_shapes, want_loc, want_scale = reference_unpack(fam, vec, lo, lo + width)
    assert _hex([*shapes, loc, scale]) == _hex([*want_shapes, want_loc, want_scale])


SAMPLERS = {
    "gamma": lambda rng, n: rng.gamma(2.0, 1.5, n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 0.8, n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 3.0, n),
    "foldcauchy": lambda rng, n: np.abs(rng.standard_cauchy(n)),
    "logistic": lambda rng, n: rng.logistic(5.0, 2.0, n),
    "beta": lambda rng, n: rng.beta(0.7, 2.5, n),
}


def _fit_outcome(fit, fam, x):
    try:
        got = fit(fam, x)
    except DataError as exc:
        return str(exc)
    return (got.family, _hex(got.shapes), _hex([got.loc, got.scale]), got.n_samples)


@settings(max_examples=12, deadline=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(100, 300), shift=st.sampled_from([0.0, -40.0, 1e3]),
       stretch=st.sampled_from([1.0, 1e-3, 50.0]))
def test_fit_family_matches_the_reference_fit_bit_for_bit(sampler, seed, n, shift, stretch):
    x = shift + stretch * SAMPLERS[sampler](np.random.default_rng(seed), n)
    for fam in FAMILIES:
        assert _fit_outcome(fit_family, fam, x) == _fit_outcome(reference_fit_family, fam, x)
