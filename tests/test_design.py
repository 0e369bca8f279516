"""Design calculators: matched pump waist, pump-bandwidth threshold, regime
flags, and the photon-economy benchmark records."""

import math

import numpy as np
import pytest

from biphoton import design, dispersion, schmidt, spectra
from biphoton.errors import ValidationError

THETA3 = math.radians(3.0)
W0_BBO_1MM = 0.0002870538672664499       # m, 400 nm pump, theta = 3 deg
W0_BBO_1MM_5DEG = 0.00016981642086467274
SP_MIN_BBO_1MM = 38142788389832.3        # rad/s


# ----------------------------------------------------------------------
# matched waist
# ----------------------------------------------------------------------

def test_factorable_waist_pinned(bbo):
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, THETA3)
    assert w0 == pytest.approx(W0_BBO_1MM, rel=1e-12)
    assert w0 == pytest.approx(287e-6, abs=5e-6)


def test_factorable_waist_linear_in_length(bbo):
    w1 = design.factorable_waist(bbo, 0.4, 1e-3, THETA3)
    w2 = design.factorable_waist(bbo, 0.4, 2e-3, THETA3)
    assert w2 == pytest.approx(2.0 * w1, rel=1e-12)


def test_factorable_waist_five_degrees(bbo):
    assert design.factorable_waist(bbo, 0.4, 1e-3, math.radians(5.0)) == \
        pytest.approx(W0_BBO_1MM_5DEG, rel=1e-12)


def test_factorable_waist_from_primitives(bbo):
    # independent reassembly from the dispersion primitives
    theta_pm = dispersion.noncollinear_cut_angle(bbo, 0.4, THETA3)
    kp = dispersion.group_slope(bbo, 0.4, ("e", theta_pm))
    kd = dispersion.group_slope(bbo, 0.8, "o")
    manual = 1e-3 * math.sqrt(spectra.gaussian_sinc_gamma()) \
        * (kp - kd * math.cos(THETA3)) / (kd * math.sin(THETA3))
    assert design.factorable_waist(bbo, 0.4, 1e-3, THETA3) == \
        pytest.approx(manual, rel=1e-12)


def test_factorable_waist_validation(bbo):
    # every entry point refuses with the one message the report raises
    lever = "collinear geometry has no transverse lever (theta must be > 0)"
    for L, theta, message in ((1e-3, 0.0, lever), (1e-3, -0.1, lever),
                              (0.0, THETA3, "crystal length must be positive"),
                              (-1e-3, THETA3, "crystal length must be positive")):
        for call in (design.factorable_waist, design.design_report,
                     lambda *a: design.freq_correlated_margin(*a, 1e-3)):
            with pytest.raises(ValidationError) as info:
                call(bbo, 0.4, L, theta)
            assert str(info.value) == message


@pytest.mark.parametrize("L", [0.2e-3, 1e-3, 2e-3])
@pytest.mark.parametrize("theta_deg", [3.0, 5.0])
def test_scalar_rules_read_the_report(bbo, L, theta_deg):
    theta = math.radians(theta_deg)
    rep = design.design_report(bbo, 0.4, L, theta, w0=1e-3)
    assert design.factorable_waist(bbo, 0.4, L, theta) == rep.factorable_waist
    assert design.freq_correlated_margin(bbo, 0.4, L, theta, 1e-3) \
        == rep.margin


# ----------------------------------------------------------------------
# pump-bandwidth threshold
# ----------------------------------------------------------------------

def test_bandwidth_threshold_pinned_and_scaling(bbo):
    sp1 = design.design_report(bbo, 0.4, 1e-3, THETA3).sigma_p_min
    assert sp1 == pytest.approx(SP_MIN_BBO_1MM, rel=1e-9)
    sp2 = design.design_report(bbo, 0.4, 2e-3, THETA3).sigma_p_min
    assert sp2 == pytest.approx(0.5 * sp1, rel=1e-12)


def test_ten_nm_pump_clears_threshold(bbo):
    sigma_p = spectra.sigma_p_from_fwhm(10e-9, 400e-9)
    rep = design.design_report(bbo, 0.4, 1e-3, THETA3, sigma_p=sigma_p)
    assert rep.pump_above_threshold is True
    assert sigma_p > 2.0 * rep.sigma_p_min


def test_narrow_pump_degrades_cooperativity(bbo):
    # consistency loop: the threshold actually separates good from degraded
    # factorability when the full JSA is built and decomposed
    theta = THETA3
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, theta)
    beam = spectra.BeamGeometry(w0=w0, theta=theta, L=1e-3)
    sp_min = design.design_report(bbo, 0.4, 1e-3, theta).sigma_p_min

    def K_at(sigma_p):
        pump = spectra.PumpEnvelope(pump_um=0.4, sigma_p=sigma_p)
        grid = spectra.default_pump_grid(pump, n_points=128, span_factor=3.0)
        jsa = spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam, grid)
        return schmidt.schmidt_svd(jsa).K

    k_narrow = K_at(0.5 * sp_min)
    k_wide = K_at(3.0 * sp_min)
    assert k_wide < 1.01
    assert k_narrow > k_wide + 0.05


# ----------------------------------------------------------------------
# regime checks
# ----------------------------------------------------------------------

def test_margin_linear_and_flagged(bbo):
    m1 = design.freq_correlated_margin(bbo, 0.4, 200e-6, THETA3, 1e-3)
    assert m1 == pytest.approx(17.418333526086542, rel=1e-9)
    assert m1 >= design.REGIME_FACTOR
    m2 = design.freq_correlated_margin(bbo, 0.4, 200e-6, THETA3, 2e-3)
    assert m2 == pytest.approx(2.0 * m1, rel=1e-12)
    # the margin checks its waist before anything is solved, the report in
    # the regime check
    for w0 in (0.0, -1e-3):
        with pytest.raises(ValidationError, match="^waist must be positive$"):
            design.freq_correlated_margin(bbo, 0.4, 200e-6, THETA3, w0)
        with pytest.raises(ValidationError,
                           match="^w0 and L must be positive$"):
            design.design_report(bbo, 0.4, 200e-6, THETA3, w0=w0)


def test_matched_waist_margin_is_one(bbo):
    rep = design.design_report(bbo, 0.4, 1e-3, THETA3)
    assert rep.margin == pytest.approx(1.0, rel=1e-12)
    assert rep.freq_correlated is False
    assert rep.waist == rep.factorable_waist


def test_waist_regime_ratio(bbo):
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, THETA3)
    ratio, ok = design.validate_waist_regime(w0, 1e-3, THETA3)
    manual = (w0 / 1e-3) / (math.sqrt(spectra.gaussian_sinc_gamma())
                            * math.sin(THETA3) ** 2)
    assert ratio == pytest.approx(manual, rel=1e-12)
    assert ratio > 200 and ok
    # exactly at the knee the expansion is judged unreliable
    w_knee = 1e-3 * math.sqrt(spectra.gaussian_sinc_gamma()) \
        * math.sin(THETA3) ** 2
    ratio1, ok1 = design.validate_waist_regime(w_knee, 1e-3, THETA3)
    assert ratio1 == pytest.approx(1.0, rel=1e-12) and not ok1
    assert design.validate_waist_regime(1e-3, 1e-3, 0.0) == (math.inf, True)
    with pytest.raises(ValidationError):
        design.validate_waist_regime(-1.0, 1e-3, THETA3)


def test_overfocusing_increases_cooperativity(bbo, jsa_factorable):
    # consistency loop: moving w0 off the matched point in either direction
    # raises K above the matched-design value
    k_matched = schmidt.schmidt_svd(jsa_factorable).K
    theta = THETA3
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, theta)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    grid = spectra.default_pump_grid(pump, n_points=128, span_factor=3.0)
    for scale in (0.5, 1.5):
        beam = spectra.BeamGeometry(w0=scale * w0, theta=theta, L=1e-3)
        jsa = spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam, grid)
        assert schmidt.schmidt_svd(jsa).K > k_matched + 0.01


def test_design_report_fields(bbo):
    rep = design.design_report(bbo, 0.4, 200e-6, THETA3, w0=1e-3)
    assert rep.material == "BBO"
    assert rep.margin == pytest.approx(1e-3 / rep.factorable_waist, rel=1e-12)
    assert rep.freq_correlated is True       # margin ~17 at this short length
    assert rep.gamma == spectra.gaussian_sinc_gamma()
    assert rep.theta_pm == pytest.approx(
        dispersion.noncollinear_cut_angle(bbo, 0.4, THETA3), rel=1e-12)
    assert rep.pump_above_threshold is None


# ----------------------------------------------------------------------
# photon economy
# ----------------------------------------------------------------------

def test_economy_figure_arithmetic():
    rec = design.economy_figure("x", 100.0, 1.0e-5, 6.5e4, 0.75)
    assert rec.r_figure == pytest.approx(6.5e7, rel=1e-12)
    assert rec.flagged is False and rec.r_printed is None
    rec2 = design.economy_figure("x", 100.0, 1.0e-5, 2 * 6.5e4, 0.75)
    assert rec2.r_figure == pytest.approx(2 * rec.r_figure, rel=1e-12)


def test_economy_validation():
    with pytest.raises(ValidationError):
        design.economy_figure("x", 0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        design.economy_figure("x", 1.0, 1.0, 1.0, 1.5)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, -math.inf])
def test_economy_rel_tol_must_be_non_negative(tmp_path, tol):
    # a negative tolerance flagged every row and NaN none; also refused
    # for a row without a quoted value
    p = tmp_path / "rows.csv"
    p.write_text("src a,2.0,0.5,1e6,0.3,1e6\n")
    for build in (lambda: design.economy_figure("x", 1.0, 1.0, 1.0, 0.5,
                                                 rel_tol=tol),
                  lambda: design.builtin_economy_records(rel_tol=tol),
                  lambda: design.load_economy_csv(p, rel_tol=tol)):
        with pytest.raises(ValidationError):
            build()
    assert design.economy_figure("x", 1.0, 1.0, 1.0, 0.5, r_printed=1.0,
                                 rel_tol=0.0).flagged is False


def test_builtin_benchmark_rows():
    rows = design.builtin_economy_records()
    assert [r.flagged for r in rows] == [False, True, False]
    assert rows[0].r_figure == pytest.approx(6.5e7, rel=1e-12)
    assert rows[1].r_figure == pytest.approx(1.25e6 / (2.0 * 0.465), rel=1e-12)
    assert rows[1].r_printed == 2.7e6      # quoted ~2x above the recomputation
    assert rows[2].r_figure == pytest.approx(3.3e10, rel=0.02)
    # the waveguide wins the bulk sources by orders of magnitude
    assert rows[2].r_figure > 100.0 * max(rows[0].r_figure, rows[1].r_figure)


def test_economy_csv_load(tmp_path):
    text = (
        "# benchmark rows\n"
        "label,L_mm,P_W,Rs_Hz,ratio,R_printed_Hz\n"
        "src a,2.0,0.5,1e6,0.3,1e6\n"
        "src b,1.0,1.0,4e5,0.2\n"
    )
    p = tmp_path / "rows.csv"
    p.write_text(text)
    recs = design.load_economy_csv(p)
    assert [r.label for r in recs] == ["src a", "src b"]
    assert recs[0].r_figure == pytest.approx(1e6, rel=1e-12)
    assert recs[0].flagged is False
    assert recs[1].r_printed is None
    assert design.load_economy_csv(str(p)) == recs


def test_economy_csv_bad_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,1.0,1.0\n")
    with pytest.raises(ValidationError):
        design.load_economy_csv(p)


def test_economy_csv_output():
    out = design.economy_csv_text(design.builtin_economy_records())
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,") and lines[0].endswith(",flagged")
    assert len(lines) == 4
    assert lines[2].endswith(",1")         # the over-quoted row is flagged
    assert lines[1].endswith(",0") and lines[3].endswith(",0")
