"""Sellmeier evaluation, phase-matching solvers, group-velocity matching.

Derivative results are checked against central finite differences, and
root results against independent bisection, before any pinned constant is
trusted.
"""

import math

import numpy as np
import pytest

from biphoton import dispersion
from biphoton.errors import PhaseMatchError, RangeError, ValidationError
from tests import oracles

# Frozen outputs of the shipped coefficient files (computed once from the
# data file by hand-evaluating the fits; they guard against accidental
# edits of the coefficients).
N_O_BBO_800 = 1.660553524880645
KPRIME_BBO_800 = 5.618866816350568e-09   # s/m
K_BBO_800 = 13041956.886644175           # rad/m
GVM_BBO_UM = 1.5147266432755926
GVM_KTP_UM = 1.5845771642938342
THETA_INT_BBO_400 = 2.997069890437516    # deg, at 30.32 deg cut
COLLINEAR_CUT_BBO_400 = 29.17808291981387  # deg


def test_refractive_index_pinned(bbo):
    assert dispersion.refractive_index(bbo, 0.8, "o") == pytest.approx(
        N_O_BBO_800, abs=1e-12)


def test_index_above_unity_everywhere(bbo, ktp, kdp):
    rng = np.random.default_rng(42)
    for mat in (bbo, ktp, kdp):
        lo, hi = mat.range_um
        lams = rng.uniform(lo, hi, size=200)
        for ray in ("o", "e"):
            n = dispersion.refractive_index(mat, lams, ray)
            assert np.all(n > 1.0)


def test_extraordinary_at_zero_angle_is_ordinary(bbo):
    for lam in (0.4, 0.8, 1.2):
        n_mix = dispersion.refractive_index(bbo, lam, ("e", 0.0))
        n_o = dispersion.refractive_index(bbo, lam, "o")
        assert n_mix == pytest.approx(n_o, rel=1e-14)


def test_extraordinary_at_right_angle_is_principal(bbo):
    n_mix = dispersion.refractive_index(bbo, 0.8, ("e", math.pi / 2))
    n_e = dispersion.refractive_index(bbo, 0.8, "e")
    assert n_mix == pytest.approx(n_e, rel=1e-14)


def test_out_of_range_raises(bbo):
    with pytest.raises(RangeError):
        dispersion.refractive_index(bbo, 12.0, "o")


def test_bad_ray_spec_raises(bbo):
    with pytest.raises(ValidationError):
        dispersion.refractive_index(bbo, 0.8, "q")


def test_wavevector_normal_dispersion(bbo):
    assert dispersion.wave_props(bbo, 0.4, "o").k > dispersion.wave_props(
        bbo, 0.8, "o").k


def test_wave_props_pinned(bbo):
    wp = dispersion.wave_props(bbo, 0.8, "o")
    assert wp.k == pytest.approx(K_BBO_800, rel=1e-12)
    assert wp.k_prime == pytest.approx(KPRIME_BBO_800, rel=1e-12)


def _k_of_omega(mat, omega, ray):
    lam_um = 2.0 * math.pi * 2.99792458e8 / omega * 1e6
    return dispersion.wave_props(mat, lam_um, ray).k


def test_group_slope_matches_finite_difference(bbo, ktp, kdp):
    rng = np.random.default_rng(7)
    for mat in (bbo, ktp, kdp):
        lo, hi = mat.range_um
        # keep the stencil inside the validity window
        lams = rng.uniform(lo * 1.05, hi * 0.95, size=200)
        for ray in ("o", "e"):
            for lam in lams[:67]:
                wp = dispersion.wave_props(mat, float(lam), ray)
                h = 1e-6 * wp.omega
                fd = (_k_of_omega(mat, wp.omega + h, ray)
                      - _k_of_omega(mat, wp.omega - h, ray)) / (2.0 * h)
                assert wp.k_prime == pytest.approx(fd, rel=1e-6)


def test_noncollinear_angle_reference_geometry(bbo):
    theta = dispersion.degenerate_noncollinear_angle(
        bbo, 0.4, math.radians(30.32))
    assert math.degrees(theta) == pytest.approx(3.0, abs=0.2)
    assert math.degrees(theta) == pytest.approx(THETA_INT_BBO_400, abs=1e-9)


def test_noncollinear_angle_closes_momentum(bbo):
    theta = dispersion.degenerate_noncollinear_angle(
        bbo, 0.4, math.radians(30.32))
    kp = dispersion.wave_props(bbo, 0.4, ("e", math.radians(30.32))).k
    kd = dispersion.wave_props(bbo, 0.8, "o").k
    assert abs(kp - 2.0 * kd * math.cos(theta)) < 1e-6 * kp


def test_collinear_cut_angle_below_noncollinear_cut(bbo):
    cut = dispersion.noncollinear_cut_angle(bbo, 0.4, 0.0)
    assert math.degrees(cut) == pytest.approx(COLLINEAR_CUT_BBO_400, abs=1e-6)
    assert math.degrees(cut) < 30.32
    # independent bisection on kp(e at cut) - 2 k(o) over the cut angle
    kd = dispersion.wave_props(bbo, 0.8, "o").k

    def mismatch(tpm):
        return dispersion.wave_props(bbo, 0.4, ("e", tpm)).k - 2.0 * kd

    lo_a, hi_a = 0.0, math.pi / 2
    assert mismatch(lo_a) > 0 and mismatch(hi_a) < 0
    for _ in range(60):
        mid = 0.5 * (lo_a + hi_a)
        if mismatch(mid) > 0:
            lo_a = mid
        else:
            hi_a = mid
    assert cut == pytest.approx(0.5 * (lo_a + hi_a), abs=1e-10)
    # at the collinear cut the internal angle collapses to zero
    assert dispersion.degenerate_noncollinear_angle(
        bbo, 0.4, cut) == pytest.approx(0.0, abs=1e-6)


def test_closed_form_type_I_cut_matches_brentq(bbo):
    for pump_um in (0.35, 0.4, 0.405, 0.5):
        for theta in np.linspace(0.0, 0.07, 8):
            want = oracles.noncollinear_cut_angle(bbo, pump_um, float(theta))
            got = dispersion.noncollinear_cut_angle(bbo, pump_um, float(theta))
            assert got == pytest.approx(want, abs=2e-14)


def test_closed_form_type_I_cut_raises_where_brentq_is_unbracketed(bbo, ktp):
    # past the largest emission angle (~0.336 rad for BBO at 0.4 um) the
    # cut runs off the (0, pi/2) bracket
    unmatched = 0
    for theta in np.linspace(0.30, 0.40, 11):
        want = oracles.noncollinear_cut_angle(bbo, 0.4, float(theta))
        if want is None:
            unmatched += 1
            with pytest.raises(PhaseMatchError):
                dispersion.noncollinear_cut_angle(bbo, 0.4, float(theta))
        else:
            assert dispersion.noncollinear_cut_angle(
                bbo, 0.4, float(theta)) == pytest.approx(want, abs=2e-14)
    assert 0 < unmatched < 11
    assert oracles.noncollinear_cut_angle(ktp, 0.45, 0.0) is None


def test_typeII_cut_angle_matches_brentq(bbo):
    for lam in (0.8, 1.0, 1.5147):
        assert dispersion.typeII_cut_angle(bbo, lam) == pytest.approx(
            oracles.typeII_cut_angle(bbo, lam), abs=2e-14)


def test_bisect_root_stops_at_the_bracket_width():
    root = dispersion.bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-12)
    assert abs(root - math.sqrt(2.0)) <= 0.5e-12
    # a bracket that cannot shrink further in floating point ends the search
    root = dispersion.bisect_root(lambda x: x - math.pi, 3.0, 4.0, xtol=0.0)
    assert root == pytest.approx(math.pi, abs=4.5e-16)
    # decreasing functions are bracketed the other way round
    assert dispersion.bisect_root(lambda x: 1.0 - x, 0.0, 3.0,
                                  xtol=1e-14) == pytest.approx(1.0, abs=1e-14)


def test_unmatchable_cut_raises(bbo, ktp):
    with pytest.raises(PhaseMatchError):
        dispersion.degenerate_noncollinear_angle(bbo, 0.4, 0.0)
    with pytest.raises(PhaseMatchError):
        dispersion.noncollinear_cut_angle(ktp, 0.45, 0.0)


def test_gvm_wavelength_bbo(bbo):
    lam = dispersion.gvm_wavelength(bbo)
    assert lam == pytest.approx(1.51, abs=0.02)
    assert lam == pytest.approx(GVM_BBO_UM, abs=1e-9)


def test_gvm_root_residual(bbo):
    lam = dispersion.gvm_wavelength(bbo)
    kp_p = dispersion.wave_props(
        bbo, lam / 2.0, ("e", dispersion.typeII_cut_angle(bbo, lam))).k_prime
    kp_o = dispersion.wave_props(bbo, lam, "o").k_prime
    kp_e = dispersion.wave_props(
        bbo, lam, ("e", dispersion.typeII_cut_angle(bbo, lam))).k_prime
    assert abs(kp_p - 0.5 * (kp_o + kp_e)) < 1e-9 * kp_p


def test_gvm_wavelength_ktp_pinned(ktp):
    assert dispersion.gvm_wavelength(ktp) == pytest.approx(
        GVM_KTP_UM, abs=1e-9)


@pytest.mark.parametrize("name", ["BBO", "KTP"])
def test_gvm_wavelength_matches_brentq(name):
    mat = dispersion.get_material(name)
    assert dispersion.gvm_wavelength(mat) == pytest.approx(
        oracles.gvm_wavelength(mat), abs=2e-12)


def test_contour_slope_signs(bbo):
    assert dispersion.typeII_contour_slope(bbo, 0.8) < 0.0
    assert dispersion.typeII_contour_slope(bbo, 1.5) > 0.0
    for lam in np.arange(1.20, 1.9001, 0.05):
        assert dispersion.typeII_contour_slope(bbo, float(lam)) > 0.0
    for lam in np.arange(0.70, 1.1001, 0.05):
        assert dispersion.typeII_contour_slope(bbo, float(lam)) < 0.0


def test_contour_slope_sign_change_location(bbo):
    lams = np.arange(1.10, 1.2501, 0.01)
    signs = np.sign([dispersion.typeII_contour_slope(bbo, float(l))
                     for l in lams])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    lo = lams[flips[0]]
    assert 1.10 <= lo <= 1.20


def test_materials_file_roundtrip(tmp_path, bbo):
    # the builtin table reloads identically from a copy of its file
    import importlib.resources as res
    text = (res.files("biphoton") / "data" / "materials.txt").read_text()
    p = tmp_path / "mats.txt"
    p.write_text(text)
    table = dispersion.load_materials(p)
    assert set(table) >= {"BBO", "KTP", "KDP"}
    assert table["BBO"].sellmeier_o == bbo.sellmeier_o
    assert dispersion.get_material("BBO", materials_path=str(p)) == bbo
