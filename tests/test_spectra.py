"""Joint-spectral-amplitude construction: the two-width Gaussian model,
sinc phase matching, the gaussian-beam factorized builder, filters, and
the CSV dump format."""

import dataclasses
import decimal
import io
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biphoton import cli, design, dispersion, interference, schmidt, spectra
from biphoton.errors import RegimeError, ValidationError
from tests import oracles
from tests.conftest import chirped_jsa

pytestmark = pytest.mark.usefixtures("no_leaked_fds")

SIGMA_P_400_10NM = 99989146266381.52    # rad/s, 10 nm FWHM at 400 nm
GAMMA = 0.19292144696099914


# ----------------------------------------------------------------------
# scalar building blocks
# ----------------------------------------------------------------------

def test_pump_envelope_peak_and_efold():
    pump = spectra.PumpEnvelope(pump_um=0.8, sigma_p=3e13)
    assert spectra.pump_envelope_value(pump, 0.0) == 1.0
    assert spectra.pump_envelope_value(pump, pump.sigma_p) == pytest.approx(
        math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("pump_um", [0.0, -0.4, math.inf, math.nan])
def test_pump_envelope_needs_finite_positive_wavelength(pump_um):
    with pytest.raises(ValidationError, match="pump_um"):
        spectra.PumpEnvelope(pump_um=pump_um, sigma_p=3e13)


def test_pump_envelope_omega0_is_half_the_pump_frequency():
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    assert pump.pump_um == 0.4
    assert pump.omega0 == math.pi * spectra.C_LIGHT / 4e-7
    assert pump.sigma_p == SIGMA_P_400_10NM


def test_pump_envelope_even():
    pump = spectra.PumpEnvelope(pump_um=0.8, sigma_p=3e13)
    xs = np.random.default_rng(3).uniform(-1e14, 1e14, size=100)
    for x in xs:
        assert spectra.pump_envelope_value(pump, x) == pytest.approx(
            spectra.pump_envelope_value(pump, -x), rel=1e-14)


def test_sinc_phasematch_points():
    L = 1e-3
    assert spectra.sinc_phasematch(0.0, L) == 1.0
    assert spectra.sinc_phasematch(2.0 * math.pi / L, L) == pytest.approx(
        0.0, abs=1e-12)
    assert spectra.sinc_phasematch(math.pi / L, L) == pytest.approx(
        2.0 / math.pi, rel=1e-14)


def test_envelope_and_sinc_bit_identical_to_numpy_forms():
    # the in-place forms keep np.exp(-(x**2)) and np.sinc's bits, scalar or array
    pump = spectra.PumpEnvelope(pump_um=0.8, sigma_p=3e13)
    L = 1e-3
    xs = np.concatenate([np.random.default_rng(5).uniform(-3e4, 3e4, 2000),
                         [0.0, -0.0, math.pi / L, 2e8, math.nan]])
    for x in (xs, xs.reshape(-1, 5), *xs):
        want_env = np.exp(-((np.asarray(x * 3e9) / pump.sigma_p) ** 2))
        want_sinc = np.sinc(np.asarray(x) * L / (2.0 * math.pi))
        got_env = spectra.pump_envelope_value(pump, x * 3e9)
        got_sinc = spectra.sinc_phasematch(x, L)
        assert type(got_env) is type(want_env)
        assert type(got_sinc) is type(want_sinc)
        assert np.array_equal(got_env, want_env, equal_nan=True)
        assert np.array_equal(got_sinc, want_sinc, equal_nan=True)


def test_gamma_value_and_definition():
    g = spectra.gaussian_sinc_gamma()
    assert g == pytest.approx(0.193, abs=1e-3)
    assert g == pytest.approx(GAMMA, rel=1e-15)
    xh = spectra._SINC_HALF
    assert math.exp(-g * xh**2) == pytest.approx(0.5, abs=1e-12)


def test_half_point_against_bisection():
    lo, hi = 1e-9, math.pi - 1e-9
    f = lambda x: math.sin(x) / x - 0.5
    assert f(lo) > 0 and f(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert spectra._SINC_HALF == pytest.approx(
        0.5 * (lo + hi), abs=1e-10)


def test_half_point_matches_brentq():
    assert spectra._SINC_HALF == pytest.approx(
        oracles.sinc_half_point(), abs=2e-15)


def test_sigma_p_from_fwhm_pinned():
    got = spectra.sigma_p_from_fwhm(10e-9, 400e-9)
    assert got == pytest.approx(SIGMA_P_400_10NM, rel=1e-12)
    # linear in the FWHM
    assert spectra.sigma_p_from_fwhm(20e-9, 400e-9) == pytest.approx(
        2.0 * got, rel=1e-12)


# ----------------------------------------------------------------------
# Gaussian model source
# ----------------------------------------------------------------------

def test_model_jsa_normalization(jsa_equal):
    assert jsa_equal.norm() == pytest.approx(1.0, abs=1e-10)
    again = jsa_equal.normalized()
    assert np.max(np.abs(again.values - jsa_equal.values)) < 1e-12 * np.max(
        np.abs(jsa_equal.values))


def test_model_no_filter_sentinel():
    sigma = 4e13
    model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=math.inf)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=8e13, n_points=64)
    j = spectra.gaussian_model_jsa(model, grid)
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    expect = np.exp(-2.0 * (ns + ni) ** 2 / sigma**2)
    expect = expect / np.sqrt(np.sum(expect**2) * j.measure)
    assert np.max(np.abs(j.values - expect)) < 1e-12 * np.max(expect)


def test_model_strong_filter_limit():
    sigma = 4e13
    model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma / 100.0)
    # grid matched to the filtered state (the filter sets the support)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=3.0 * model.sigma_F,
                                 n_points=64)
    j = spectra.gaussian_model_jsa(model, grid)
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    ref = np.exp(-2.0 * (ns**2 + ni**2) / model.sigma_F**2)
    got = np.abs(j.values) / np.max(np.abs(j.values))
    assert np.max(np.abs(got - ref / ref.max())) < 0.01


def test_model_grid_span_precondition():
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=4e13, n_points=16)
    with pytest.raises(ValidationError):
        spectra.gaussian_model_jsa(model, grid)


def test_boundary_warning_on_cramped_grid():
    # weak filter: the anti-diagonal ridge runs out to ~sigma_F, so a grid
    # sized to the narrow sum-frequency width truncates visible amplitude
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e14)
    tight = spectra.FrequencyGrid(omega0=0.0, half_span=6.1e13, n_points=64)
    wide = spectra.default_model_grid(model, n_points=64)
    assert spectra.gaussian_model_jsa(model, tight).boundary_warning
    assert not spectra.gaussian_model_jsa(model, wide).boundary_warning


def test_model_invalid_widths():
    with pytest.raises(ValidationError):
        spectra.GaussianSourceModel(sigma=-1.0, sigma_F=1.0)
    with pytest.raises(ValidationError):
        spectra.GaussianSourceModel(sigma=1.0, sigma_F=0.0)


@pytest.mark.parametrize("sigma, sigma_F, what", [
    (1e10, 1e-300, "sigma/sigma_F"), (1e-300, 1e10, "sigma_F/sigma"),
    (1e-320, 4e13, "1/sigma"), (4e13, 1e-320, "1/sigma_F"),
    (1e-320, math.inf, "1/sigma"), (math.inf, 4e13, "sigma/sigma_F"),
    (math.inf, math.inf, "sigma/sigma_F")])
def test_model_refuses_widths_past_float_range(sigma, sigma_F, what):
    # their ratio or a reciprocal overflowed into nan visibilities and dips
    with pytest.raises(ValidationError, match=f"finite {what}, got "
                       f"sigma={sigma!r}, sigma_F={sigma_F!r}"):
        spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma_F)
    # unfiltered, sigma_F / sigma is inf by design
    assert spectra.GaussianSourceModel(1e-300, math.inf).ratio == 0.0


# ----------------------------------------------------------------------
# dispersion-fed builders
# ----------------------------------------------------------------------

def test_cw_pump_limit_antidiagonal(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 0.05)
    grid = spectra.default_pump_grid(pump, n_points=128, span_factor=10.0)
    j = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
    assert spectra.intensity_correlation(j) < -0.99


def test_typeI_collinear_exchange_symmetric(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=96, span_factor=3.0)
    j = spectra.build_jsa_collinear(bbo, "I_eoo", 1e-3, pump, grid)
    assert np.max(np.abs(j.values - j.values.T)) < 1e-12 * np.max(
        np.abs(j.values))
    assert np.array_equal(j.values, spectra.build_jsa_noncollinear_sinc(
        bbo, 1e-3, pump, 0.0, grid).values)


@pytest.mark.parametrize("name", ["BBO", "KDP"])
@pytest.mark.parametrize("theta_deg", [0.0, 3.0, 5.0])
def test_noncollinear_sinc_matches_oracle(name, theta_deg):
    # the shared sinc body rounds in another order than the oracle's
    # (k + k) cos(theta) and omega_p - 2 omega0; that moves last digits only
    mat = dispersion.get_material(name)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    grid = spectra.default_pump_grid(pump, n_points=64, span_factor=3.0)
    theta = math.radians(theta_deg)
    j = spectra.build_jsa_noncollinear_sinc(mat, 1e-3, pump, theta, grid)
    ref = oracles.noncollinear_sinc_values(mat, 1e-3, pump, theta, grid)
    assert np.max(np.abs(j.values - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [64, 256])
def test_builders_bit_identical_to_new_array_oracles(bbo, n):
    # every builder, built in place, keeps the bits of the one that makes
    # a new array at each N^2 stage; jittered draws as in the benchmark
    rng = np.random.default_rng(n)
    for _ in range(3):
        j = lambda: rng.uniform(0.9, 1.1)
        L, theta = 1e-3 * j(), math.radians(3.0 * j())
        p8 = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0 * j())
        g8 = spectra.default_pump_grid(p8, n_points=n)
        p4 = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0 * j())
        g4 = spectra.default_pump_grid(p4, n_points=n)
        beam = spectra.BeamGeometry(
            j() * design.factorable_waist(bbo, 0.4, L, theta), theta, L)
        th2 = dispersion.typeII_cut_angle(bbo, 1.6)
        th1 = dispersion.noncollinear_cut_angle(bbo, 0.8, theta)
        col = spectra.build_jsa_collinear(bbo, "II_eoe", L, p8, g8)
        cases = [
            (col, oracles.sellmeier_sinc_jsa(bbo, L, p8, g8, th2, ("e", th2),
                                             1.0)),
            (spectra.build_jsa_noncollinear_sinc(bbo, L, p8, theta, g8),
             oracles.sellmeier_sinc_jsa(bbo, L, p8, g8, th1, "o",
                                        math.cos(theta))),
            (spectra.build_jsa_noncollinear_gaussian_beam(bbo, p4, beam, g4),
             oracles.gaussian_beam_jsa(bbo, p4, beam, g4))]
        sigma_f = 3e13 * j()   # the filter's new array, divided in place
        t = np.exp(-2.0 * g8.detunings**2 / sigma_f**2)
        cases.append((spectra.apply_gaussian_filter(col, sigma_f)[0],
                      oracles.normalized_jsa(g8, col.values * t[:, None]
                                             * t[None, :])))
        for model in (spectra.GaussianSourceModel(4e13 * j(), 4e13 * j()),
                      spectra.GaussianSourceModel(4e13 * j())):
            grid = spectra.default_model_grid(model, n_points=n)
            cases.append((spectra.gaussian_model_jsa(model, grid),
                           oracles.gaussian_model_jsa(model, grid)))
        for got, want in cases:
            # float64, with the bits of the complex copy's quotient
            assert got.values.dtype == np.float64
            assert np.asarray(got.values, complex).tobytes() == \
                want.values.tobytes()
            assert got.norm_flag and want.norm_flag
            assert got.boundary_warning == want.boundary_warning
        for got, want in zip(
                spectra.noncollinear_gaussian_beam_factors(bbo, p4, beam, g4),
                oracles.gaussian_beam_factors(bbo, p4, beam, g4)):
            assert np.array_equal(got, want)


_edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.225073858507201e-308, 1e-300, -1e-300, 1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 5), half_span=st.sampled_from([1e-3, 1.0, 7e13]),
       data=st.data())
def test_finish_real_quotient_is_complex_quotient_property(n, half_span, data):
    # a real array normalized in place keeps the bits of numpy's complex
    # quotient (x + 0i) / (n + 0i): -0.0, subnormals, overflow of the norm
    vals = np.array(data.draw(st.lists(_edge_floats, min_size=n * n,
                                       max_size=n * n))).reshape(n, n)
    grid = spectra.FrequencyGrid(0.0, half_span, n)
    with np.errstate(all="ignore"):
        try:
            want = oracles.normalized_jsa(grid, vals)
        except ValidationError:   # the norm is 0: both refuse
            with pytest.raises(ValidationError, match="all-zero"):
                spectra._finish(grid, grid, vals.copy())
            return
        got = spectra._finish(grid, grid, vals.copy())
    assert got.values.dtype == np.float64
    assert np.asarray(got.values, complex).tobytes() == want.values.tobytes()
    assert got.boundary_warning == want.boundary_warning
    # a complex array takes the complex quotient itself
    with np.errstate(all="ignore"):
        again = spectra._finish(grid, grid, vals.astype(complex))
    assert again.values.tobytes() == want.values.tobytes()


def test_complex_jsas_stay_complex_and_user_arrays_stay_as_given():
    # builders give float64 (test_builders_bit_identical_to_new_array_oracles)
    chirped = chirped_jsa(8, 6)
    assert spectra.apply_gaussian_filter(chirped, 3e13)[0].values.dtype \
        == np.complex128
    for values in (chirped.values, chirped.values.real.copy()):
        kept = spectra.JointSpectralAmplitude(chirped.grid_s, chirped.grid_i,
                                              values)
        assert kept.values is values   # a user's array is kept as given


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan), complex(1.0, -math.inf),
                                 complex(math.inf, 0.0)])
def test_jsa_refuses_non_finite_entries(bad):
    grid = spectra.FrequencyGrid(0.0, 1.0, 3)
    values = np.ones((3, 3), dtype=type(bad))
    values[1, 2] = bad
    with pytest.raises(ValidationError, match="JSA contains non-finite entries"):
        spectra.JointSpectralAmplitude(grid, grid, values)


@pytest.mark.parametrize("stage", ["collinear", "noncollinear-sinc",
                                   "gaussian-beam", "model", "dip"])
def test_working_set_peak_at_n1024(bbo, stage):
    # each N^2 stage overwrites arrays it owns: no build and no numeric dip
    # holds more than about three complex N x N arrays (16 N^2 bytes) at once
    n, theta = 1024, math.radians(3.0)
    p8 = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    p4 = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    model = spectra.GaussianSourceModel(4e13, 4e13)
    beam = spectra.BeamGeometry(design.factorable_waist(bbo, 0.4, 1e-3, theta),
                                theta, 1e-3)
    build = {
        "collinear": lambda: spectra.build_jsa_collinear(
            bbo, "II_eoe", 1e-3, p8, spectra.default_pump_grid(p8, n)),
        "noncollinear-sinc": lambda: spectra.build_jsa_noncollinear_sinc(
            bbo, 1e-3, p8, theta, spectra.default_pump_grid(p8, n)),
        "gaussian-beam": lambda: spectra.build_jsa_noncollinear_gaussian_beam(
            bbo, p4, beam, spectra.default_pump_grid(p4, n)),
        "model": lambda: spectra.gaussian_model_jsa(
            model, spectra.default_model_grid(model, n))}
    if stage == "dip":
        jsa = build["model"]()
        taus = interference.default_tau_grid(model, 81)
        fn = lambda: interference.two_crystal_homi_numeric(jsa, taus)
    else:
        fn = build[stage]
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * 16 * n * n


def test_collinear_grid_refinement(bbo):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    ks = []
    for n in (256, 512):
        grid = spectra.default_pump_grid(pump, n_points=n, span_factor=3.0)
        j = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
        ks.append(schmidt.schmidt_svd(j).K)
    assert abs(ks[1] - ks[0]) / ks[1] < 0.005


def test_noncollinear_cut_angle_consistency(bbo):
    theta = math.radians(3.0)
    cut = dispersion.noncollinear_cut_angle(bbo, 0.4, theta)
    n_p = dispersion.refractive_index(bbo, 0.4, ("e", cut))
    n_d = dispersion.refractive_index(bbo, 0.8, "o")
    assert n_p == pytest.approx(n_d * math.cos(theta), rel=1e-12)
    # and the angle solver inverts the same cut back to the emission angle
    back = dispersion.degenerate_noncollinear_angle(bbo, 0.4, cut)
    assert back == pytest.approx(theta, abs=1e-9)


@pytest.mark.parametrize("build", [
    spectra.build_jsa_noncollinear_gaussian_beam,
    spectra.noncollinear_gaussian_beam_factors], ids=["builder", "factors"])
def test_beam_builder_regime_error(bbo, build):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(w0=1e-6, theta=math.radians(3.0), L=1e-3)
    grid = spectra.default_pump_grid(pump, n_points=32, span_factor=3.0)
    with pytest.raises(RegimeError) as exc:
        build(bbo, pump, beam, grid)
    assert exc.value.lhs < exc.value.rhs


def test_beam_builder_contour_slopes(bbo, jsa_factorable):
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(
        w0=design.factorable_waist(bbo, 0.4, 1e-3, math.radians(3.0)),
        theta=math.radians(3.0), L=1e-3)
    grid = jsa_factorable.grid_s
    pump_f, long_f, trans_f = spectra.noncollinear_gaussian_beam_factors(
        bbo, pump, beam, grid)
    prod = pump_f * long_f * trans_f
    built = np.abs(jsa_factorable.values)
    assert np.max(np.abs(prod / prod.max() - built / built.max())) < 1e-10

    # A function of nu_s + nu_i is exactly constant along index antidiagonals
    # of a shared square grid (shift +1 in s, +1 in i leaves nu_s - nu_i
    # unchanged; +1 in s vs +1 in i leaves nu_s + nu_i unchanged).  This is
    # an exact discrete statement, unlike finite-difference flatness, which
    # fails on surfaces this steep relative to the grid step.
    assert np.max(np.abs(long_f[1:, :-1] - long_f[:-1, 1:])) < 1e-9
    assert np.max(np.abs(trans_f[1:, 1:] - trans_f[:-1, :-1])) < 1e-9
    # ... and genuinely varies across those lines (the claim is directional)
    assert np.max(np.abs(long_f[1:, 1:] - long_f[:-1, :-1])) > 0.1
    assert np.max(np.abs(trans_f[1:, :-1] - trans_f[:-1, 1:])) > 0.1


def test_factorable_design_kills_cross_term(bbo, jsa_factorable):
    # The matched waist cancels the cross term of the phase-matching product
    # (longitudinal x transverse), so that product is rank one: the outer
    # product of its central row and column.  The pump envelope always
    # contributes its own -2/sigma_p^2 cross term on top, so test the PM
    # product alone, and check that a 0.1 % waist error breaks the property.
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, math.radians(3.0))
    grid = jsa_factorable.grid_s
    c = grid.n_points // 2
    for scale, rank_one in ((1.0, True), (1.001, False)):
        beam = spectra.BeamGeometry(w0=scale * w0, theta=math.radians(3.0),
                                    L=1e-3)
        _, long_f, trans_f = spectra.noncollinear_gaussian_beam_factors(
            bbo, pump, beam, grid)
        pm = long_f * trans_f
        outer = np.outer(pm[:, c], pm[c, :]) / pm[c, c]
        assert (np.max(np.abs(pm - outer)) < 1e-9 * pm.max()) == rank_one


def test_matched_waist_margin_one_uncorrelated(jsa_factorable):
    assert abs(spectra.intensity_correlation(jsa_factorable)) < 0.1


# ----------------------------------------------------------------------
# filtering
# ----------------------------------------------------------------------

def test_filter_infinite_identity(jsa_equal):
    out, frac = spectra.apply_gaussian_filter(jsa_equal, math.inf)
    assert frac == 1.0
    assert np.array_equal(out.values, jsa_equal.values)


def test_filter_composes_widths():
    sigma = 4e13
    f1, f2 = 5e13, 7e13
    combo = 1.0 / math.sqrt(1.0 / f1**2 + 1.0 / f2**2)
    base = spectra.GaussianSourceModel(sigma=sigma, sigma_F=f1)
    target = spectra.GaussianSourceModel(sigma=sigma, sigma_F=combo)
    grid = spectra.default_model_grid(target, n_points=64)
    filtered, _ = spectra.apply_gaussian_filter(
        spectra.gaussian_model_jsa(base, grid), f2)
    direct = spectra.gaussian_model_jsa(target, grid)
    assert np.max(np.abs(filtered.values - direct.values)) < 1e-12 * np.max(
        np.abs(direct.values))


def test_filter_fraction_is_norm_ratio(jsa_equal):
    sig_f = 3e13
    filtered, frac = spectra.apply_gaussian_filter(jsa_equal, sig_f)
    ts = np.exp(-2.0 * jsa_equal.grid_s.detunings**2 / sig_f**2)
    ti = np.exp(-2.0 * jsa_equal.grid_i.detunings**2 / sig_f**2)
    raw = jsa_equal.values * ts[:, None] * ti[None, :]
    expect = np.sum(np.abs(raw) ** 2) / np.sum(np.abs(jsa_equal.values) ** 2)
    assert frac == pytest.approx(expect, rel=1e-12)
    assert 0.0 < frac < 1.0
    assert filtered.norm() == pytest.approx(1.0, abs=1e-10)


def test_filter_rejects_bad_width(jsa_equal):
    with pytest.raises(ValidationError):
        spectra.apply_gaussian_filter(jsa_equal, 0.0)


# ----------------------------------------------------------------------
# grids, dump format, metadata
# ----------------------------------------------------------------------

def test_grid_omegas_and_spacing():
    g = spectra.FrequencyGrid(omega0=5e14, half_span=1e13, n_points=11)
    assert g.spacing == pytest.approx(2e12, rel=1e-14)
    assert np.allclose(g.omegas, g.omega0 + g.detunings)
    assert g.detunings[0] == -g.half_span and g.detunings[-1] == g.half_span


def test_default_pump_grid_centered():
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    g = spectra.default_pump_grid(pump, n_points=32, span_factor=3.0)
    assert g.omega0 == pump.omega0
    assert g.half_span == pytest.approx(3.0 * pump.sigma_p, rel=1e-14)


def test_csv_roundtrip_preserves_cooperativity(tmp_path, jsa_typeII):
    path = tmp_path / "dump.csv"
    spectra.write_jsa_csv(jsa_typeII, path)
    head = path.read_text().splitlines()[0]
    assert head.startswith("# omega0_rad_s=")
    back = spectra.read_jsa_csv(path)
    assert back.grid_s.n_points == jsa_typeII.grid_s.n_points
    k0 = schmidt.schmidt_svd(jsa_typeII).K
    k1 = schmidt.schmidt_svd(back).K
    assert abs(k1 - k0) < 1e-9 * k0


def _csv_cases(jsa_typeII):
    rect = chirped_jsa(12, 7, omega0_offset=3e13)
    raw = spectra.JointSpectralAmplitude(rect.grid_s, rect.grid_i,
                                         3.7 * rect.values)   # not normalized
    return [jsa_typeII, rect, raw]


def _same_jsa(a, b):
    return (a.grid_s == b.grid_s and a.grid_i == b.grid_i
            and a.norm_flag == b.norm_flag
            and a.values.tobytes() == b.values.tobytes())


def test_csv_writer_and_reader_match_per_cell_oracles(tmp_path, jsa_typeII):
    for k, jsa in enumerate(_csv_cases(jsa_typeII)):
        fast, slow = tmp_path / f"fast{k}.csv", tmp_path / f"slow{k}.csv"
        spectra.write_jsa_csv(jsa, fast)
        oracles.write_jsa_csv(jsa, slow)
        assert fast.read_bytes() == slow.read_bytes()
        back = spectra.read_jsa_csv(fast)
        assert _same_jsa(back, oracles.read_jsa_csv(fast))
        # a built JSA is float64; the reader gives complex128
        assert _same_jsa(back, dataclasses.replace(
            jsa, values=np.asarray(jsa.values, dtype=complex)))


def test_surface_csv_matches_per_cell_oracle(tmp_path, capsys):
    jsa = chirped_jsa(9, 5, omega0_offset=-2e13)
    path = tmp_path / "surface.csv"
    for surf in (np.abs(jsa.values), jsa.values.real):
        cli._write_surface_csv(str(path), jsa.grid_s, jsa.grid_i, surf)
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert path.read_bytes().decode() == \
            oracles.surface_csv(jsa.grid_s, jsa.grid_i, surf)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_s=st.integers(2, 9), n_i=st.integers(2, 9),
       omega0=st.tuples(_finite, _finite),
       half_span=st.tuples(*[st.floats(1e-300, 1e300)] * 2),
       normalized=st.booleans(), data=st.data())
def test_csv_roundtrip_bit_exact_property(tmp_path, n_s, n_i, omega0,
                                          half_span, normalized, data):
    vals = data.draw(st.lists(_finite, min_size=2 * n_s * n_i,
                              max_size=2 * n_s * n_i))
    jsa = spectra.JointSpectralAmplitude(
        spectra.FrequencyGrid(omega0[0], half_span[0], n_s),
        spectra.FrequencyGrid(omega0[1], half_span[1], n_i),
        np.array(vals).view(complex).reshape(n_s, n_i), norm_flag=normalized)
    path = tmp_path / "prop.csv"
    spectra.write_jsa_csv(jsa, path)
    assert _same_jsa(spectra.read_jsa_csv(path), jsa)


def _corrupt(lines, kind, row=4):
    """Damage the data rows (which start at line 6) of a written JSA."""
    body = lines[6:]
    if kind == "three_fields":
        body[row] = body[row].rsplit(",", 1)[0]
    elif kind == "five_fields":
        body[row] += ",0"
    elif kind == "missing_row":
        body.pop()
    elif kind == "no_rows":
        body = []
    elif kind == "extra_row":
        body.append(body[-1])
    else:   # shift one detuning column by 1e-6 of its half span
        col = 0 if kind == "nu_s_off" else 1
        fields = body[row].split(",")
        fields[col] = "%.17g" % (float(fields[col]) + 1.5e8)
        body[row] = ",".join(fields)
    return "\n".join(lines[:6] + body) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["three_fields", "five_fields",
                                  "missing_row", "no_rows", "extra_row",
                                  "nu_s_off", "nu_i_off"])
def test_read_jsa_csv_rejects_corrupt_files(tmp_path, capsys, monkeypatch,
                                            kind):
    jsa = chirped_jsa(4, 3)
    good = tmp_path / "good.csv"
    spectra.write_jsa_csv(jsa, good)
    bad = tmp_path / "bad.csv"
    bad.write_text(_corrupt(good.read_text().splitlines(), kind))
    with pytest.raises(ValidationError):
        spectra.read_jsa_csv(bad)
    # a CLI command that loads such a file ends with exit 2 and a JSON error
    monkeypatch.setattr(cli, "_build_jsa",
                        lambda args: (spectra.read_jsa_csv(bad), {}))
    assert cli.main(["jsa", "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and err["exit_code"] == 2


@pytest.mark.parametrize("field", ["omega0_i_rad_s", "normalized"])
def test_read_jsa_csv_requires_every_header_field(tmp_path, field):
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(4, 3), path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith(f"# {field}=")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="missing JSA header field"):
        spectra.read_jsa_csv(path)


def test_read_jsa_csv_tolerates_rounding_in_detuning_columns(tmp_path):
    jsa = chirped_jsa(4, 3)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(jsa, path)
    lines = path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[0] = "%.12g" % float(fields[0])   # rounding well inside 1e-9
    lines[10] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert _same_jsa(spectra.read_jsa_csv(path), jsa)


# ----------------------------------------------------------------------
# the CSV round trip in row blocks: one per CPU, forced here to 1, 2 or 3
# ----------------------------------------------------------------------

_CORRUPT = ["three_fields", "five_fields", "missing_row", "no_rows",
            "extra_row", "nu_s_off", "nu_i_off"]


def _moved(lines, col, rel):
    """Move the nu_s (col 0) or nu_i (col 1) entry of grid cell (5, 3) by
    rel of its grid's half span (1.5e14 and 1.2e14 in chirped_jsa)."""
    body = lines[6:]
    row = 5 * 5 + 3
    fields = body[row].split(",")
    fields[col] = "%.17g" % (float(fields[col]) + rel * (1.5e14, 1.2e14)[col])
    body[row] = ",".join(fields)
    return "\n".join(lines[:6] + body) + "\n"


def _variant(lines, case):
    """(text, accepted) of one reader case built from a written 7 x 5 JSA."""
    head, body = lines[:6], lines[6:]
    join = lambda rows: "\n".join(head + rows) + "\n"
    if case == "plain":
        return join(body), True
    if case == "crlf":
        return "\r\n".join(head + body) + "\r\n", True
    if case == "trailing_blank_lines":
        return join(body) + "\n\n\n", True
    if case in ("blank_lines_inside", "comment_lines_inside"):
        extra = "" if case == "blank_lines_inside" else "# a comment, 1,2"
        for at in (31, 17, 9, 2):   # in every block at every count
            body.insert(at, extra)
        return join(body), True
    if case == "inline_comment":
        body[20] += " # x"
        return join(body), True
    if case == "comma_space_separators":
        return join([ln.replace(",", ", ") for ln in body]), True
    if case.startswith("moved_"):
        col, rel = case[len("moved_"):].rsplit("_", 1)
        return _moved(lines, ("nu_s", "nu_i").index(col), float(rel)), \
            rel == "1e-12"
    kind, _, where = case.rpartition("@")
    return _corrupt(lines, kind, row=int(where)), False


_READER_CASES = (
    ["plain", "crlf", "trailing_blank_lines", "blank_lines_inside",
     "comment_lines_inside", "inline_comment", "comma_space_separators"]
    + [f"{k}@{row}" for k in _CORRUPT for row in (4, 30)]
    + [f"moved_{col}_{rel}" for col in ("nu_s", "nu_i")
       for rel in ("1e-12", "1e-6")])


def _read_or_none(read, path):
    try:
        return read(path)
    except ValidationError:
        return None


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("case", _READER_CASES)
def test_read_jsa_csv_matches_loadtxt_oracle(tmp_path, monkeypatch, case,
                                             blocks):
    # 7 rows of 5 cells: no block count here divides the row count
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    jsa = chirped_jsa(7, 5)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(jsa, path)
    text, accepted = _variant(path.read_text().splitlines(), case)
    path.write_bytes(text.encode())
    want = _read_or_none(oracles.read_jsa_csv_loadtxt, path)
    got = _read_or_none(spectra.read_jsa_csv, path)
    assert (want is not None) == accepted
    assert (got is not None) == accepted
    if accepted:
        assert _same_jsa(got, want)
        assert _same_jsa(got, jsa)


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.parametrize("kind, message", [
    ("three_fields", "bad JSA data row"),
    ("nu_i_off", "nu_s/nu_i columns disagree"),
    ("missing_row", "expected 35 data rows of 4 fields, got 34 of 4"),
    ("extra_row", "expected 35 data rows of 4 fields, got 36 of 4")])
def test_read_jsa_csv_error_from_a_worker_block(tmp_path, monkeypatch,
                                                blocks, kind, message):
    # the damage sits in the last rows, which a forked worker reads
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(7, 5), path)
    path.write_text(_corrupt(path.read_text().splitlines(), kind, row=-2))
    with pytest.raises(ValidationError, match=message):
        spectra.read_jsa_csv(path)


def test_read_jsa_csv_worker_that_dies_is_an_error(tmp_path, monkeypatch):
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 2)
    parse = spectra._piece_values

    def dying(path, piece, first, grids, texts):
        if first > 0:   # only the worker reads past row 0
            os._exit(3)
        return parse(path, piece, first, grids, texts)

    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(7, 5), path)
    monkeypatch.setattr(spectra, "_piece_values", dying)
    with pytest.raises(ValidationError, match="worker ended before finishing"):
        spectra.read_jsa_csv(path)


@pytest.mark.parametrize("blocks", [2, 3])
def test_read_jsa_csv_in_pieces_without_rows(tmp_path, monkeypatch, blocks):
    # 64-byte reads are shorter than a row, so most pieces hold no row and
    # parse to no values: a worker's empty pieces neither end nor shorten
    # its block
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    monkeypatch.setattr(spectra, "_CHUNK", 64)
    monkeypatch.setattr(spectra, "_PIECE", 64)
    jsa = chirped_jsa(7, 5)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(jsa, path)
    assert _same_jsa(spectra.read_jsa_csv(path), jsa)


def test_read_jsa_csv_rejects_nan_detunings(tmp_path):
    # the loadtxt reader let nan through: max(nan, x) > 1e-9 is False
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(4, 3), path)
    lines = path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[0] = "nan"
    lines[10] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="disagree with the header grid"):
        spectra.read_jsa_csv(path)


# ----------------------------------------------------------------------
# the reader's numpy path for the writer's own %.17g text
# ----------------------------------------------------------------------

_bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, np.uint64).view(np.float64))).filter(
        math.isfinite)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blocks=st.integers(1, 3), complex_=st.booleans(),
       n_s=st.integers(2, 6), n_i=st.integers(2, 6), data=st.data())
def test_read_jsa_csv_keeps_every_bit_property(tmp_path, monkeypatch, blocks,
                                               complex_, n_s, n_i, data):
    # any finite value, written by write_jsa_csv, reads back with the bits
    # of the loadtxt reader: +-0, subnormals, ~1e-308 tails, 1e+-300 and
    # every exponent between, through the numpy path or float()
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    size = n_s * n_i * (2 if complex_ else 1)
    vals = np.array(data.draw(st.lists(
        st.one_of(_bit_patterns, _edge_floats, st.floats(1e-20, 1e-10),
                  st.floats(-1e300, -1e-300)),
        min_size=size, max_size=size)))
    jsa = spectra.JointSpectralAmplitude(
        spectra.FrequencyGrid(2.35e15, 1.5e14, n_s),
        spectra.FrequencyGrid(2.36e15, 1.2e14, n_i),
        (vals.view(complex) if complex_ else vals).reshape(n_s, n_i))
    path = tmp_path / "bits.csv"
    spectra.write_jsa_csv(jsa, path)
    got = spectra.read_jsa_csv(path)
    assert _same_jsa(got, oracles.read_jsa_csv_loadtxt(path))
    assert got.values.tobytes() == np.asarray(jsa.values, complex).tobytes()


def _sci17(digits: int, exp10: int) -> str:
    """The 17-digit integer `digits` times 10**(exp10 - 16) as
    'd.dddddddddddddddde±xx', %.17g's scientific form with its zeros."""
    text = str(digits)
    assert len(text) == 17
    return f"{text[0]}.{text[1:]}e{exp10:+03d}"


def _midpoint_texts(x: float):
    """(texts, ties): 17-digit texts at, just under and just over the exact
    decimal midpoints of x and its two neighbours, and one unit of the 17th
    digit beyond each: at most 1/22 ulp and often far less from a tie.
    ties are the texts that are a midpoint exactly."""
    texts, ties = [], []
    with decimal.localcontext(prec=1200):
        for y in (math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
            mid = (decimal.Decimal(x) + decimal.Decimal(y)) / 2
            e = mid.adjusted()
            digits = mid.scaleb(16 - e)
            low = int(digits.to_integral_value(decimal.ROUND_FLOOR))
            texts += [_sci17(d, e) for d in range(low - 1, low + 3)
                      if 10 ** 16 <= d < 10 ** 17]
            if digits == low:
                ties.append(_sci17(low, e))
    return texts, ties


def _read_re_texts(tmp_path, texts):
    """Write a 6 x 4 JSA, put each text in the re column of one row, and
    read it back: every value as float(text) gives it, the rest unmoved."""
    jsa = chirped_jsa(6, 4)
    path = tmp_path / "texts.csv"
    spectra.write_jsa_csv(jsa, path)
    lines = path.read_text().splitlines()
    want = jsa.values.ravel().copy()
    for k, text in enumerate(texts):
        row = 6 + (5 * k) % 24
        fields = lines[row].split(",")
        fields[2] = text
        lines[row] = ",".join(fields)
        want[row - 6] = complex(float(text), want[row - 6].imag)
    path.write_text("\n".join(lines) + "\n")
    got = spectra.read_jsa_csv(path)
    assert got.values.ravel().tobytes() == want.tobytes()
    assert _same_jsa(got, oracles.read_jsa_csv_loadtxt(path))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x=st.one_of(st.floats(2.0 ** 52, 1e17),   # exact 17-digit midpoints
                   st.integers(-1000, 1000).map(lambda k: 2.0 ** k),
                   st.floats(1e-20, 1e-10), st.floats(1e-260, 1e240),
                   st.floats(2.2250738585072014e-308, 1e300)),
       negative=st.booleans(), blocks=st.integers(1, 2))
def test_read_jsa_csv_at_decimal_ties(tmp_path, monkeypatch, x, negative,
                                      blocks):
    # re texts at and next to the midpoints between adjacent doubles (below
    # a power of two, half as far apart as above it), the nu columns the
    # grid's own: each reads as float() reads it, and the numpy path
    # leaves every exact tie to float()
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    texts, ties = _midpoint_texts(x)
    sign = "-" if negative else ""
    _read_re_texts(tmp_path, [sign + t for t in texts])
    for tie in ties:
        field = (sign + tie).encode() + b"\n"
        w = np.ndarray((len(field) - 7,), "<u8", field, 0, (1,))
        assert not spectra._g17_parse(w, np.array([0]),
                                      np.array([len(field) - 1]))[1][0]


@pytest.mark.parametrize("blocks", [1, 2])
def test_read_jsa_csv_fixed_notation_and_other_texts(tmp_path, monkeypatch,
                                                     blocks):
    # texts %.17g writes in fixed notation, and forms it never writes
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    _read_re_texts(tmp_path, [
        "0.5", "123.25", "0.000123", "-0.000123", "12345678901234567",
        "0", "-0", "7", "-7", "1e-300", "5e-324", "4.9406564584124654e-324",
        "2.2250738585072014e-308", "1.7976931348623157e+308", "1E-14",
        "1.5e-014", "+1.5e-14", "1.e-14", ".5e-14",
        "1.2345678901234567890e-14", "0.00000000000000000000e-14", "1.5e-5",
        "9.9999999999999999e+22"])


@pytest.mark.parametrize("col, text", [(2, t) for t in (
    "1.2345678x01234567e-14", "1.234567890123456x7e-14", "x.5e-14",
    "1.5e-1x", "1.5e-x4", "1.5e*14", "1.5f-14", "1.5x-100", "1..5e-14",
    "--1.5e-14", "1.5e+-14", "1.5e-1234", "1.5-14", "1.5e", "e-14", "", "-",
    " 1.5e-14", "1.5e-14 ", "1_5e-14", "1.5e-14e-14", "0x1p-40", "nan",
    "inf")] + [(col, t) for col in (0, 1) for t in (
        "{}1", "{}0", "{}.0", "{}e0", "0{}", "+{}", "{} ", "{}x")])
def test_read_jsa_csv_refuses_what_loadtxt_refuses(tmp_path, col, text):
    # a damaged re text, or a nu text ({} the grid's own) other than the
    # grid's: refused by both readers, or read by both alike
    jsa = chirped_jsa(6, 4)
    path = tmp_path / "bad.csv"
    spectra.write_jsa_csv(jsa, path)
    lines = path.read_text().split("\n")
    fields = lines[14].split(",")
    fields[col] = text.format(fields[col])
    lines[14] = ",".join(fields)
    path.write_text("\n".join(lines))
    got = _read_or_none(spectra.read_jsa_csv, path)
    want = _read_or_none(oracles.read_jsa_csv_loadtxt, path)
    assert (got is None) == (want is None)
    if got is not None:
        assert _same_jsa(got, want)


def _builder_jsas(bbo, n):
    """A JSA of every builder on n points."""
    theta = math.radians(3.0)
    p8 = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    g8 = spectra.default_pump_grid(p8, n_points=n)
    p4 = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(design.factorable_waist(bbo, 0.4, 1e-3, theta),
                                theta, 1e-3)
    model = spectra.GaussianSourceModel(4e13, 4e13)
    return [spectra.gaussian_model_jsa(model, spectra.default_model_grid(
                model, n_points=n)),
            spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, p8, g8),
            spectra.build_jsa_noncollinear_sinc(bbo, 1e-3, p8, theta, g8),
            spectra.build_jsa_noncollinear_gaussian_beam(
                bbo, p4, beam, spectra.default_pump_grid(p4, n_points=n))]


@pytest.mark.parametrize("blocks", [1, 2])
def test_read_jsa_csv_of_every_builder_never_calls_loadtxt(
        tmp_path, monkeypatch, bbo, blocks):
    # a silent fall-back to np.loadtxt keeps the values right and loses
    # the speed: in a worker its call ends the read with its error
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    calls = []

    def loadtxt(*args, **kwargs):
        calls.append(args)
        raise AssertionError("np.loadtxt called")

    for k, jsa in enumerate(_builder_jsas(bbo, 64)):
        chirp = np.exp(1j * np.linspace(0.0, 3.0, 64))
        for values in (jsa.values, jsa.values * chirp):
            path = tmp_path / f"b{k}.csv"
            spectra.write_jsa_csv(dataclasses.replace(jsa, values=values),
                                  path)
            with monkeypatch.context() as m:
                m.setattr(np, "loadtxt", loadtxt)
                got = spectra.read_jsa_csv(path)
            assert got.values.tobytes() == \
                np.asarray(values, complex).tobytes()
    assert calls == []


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_csv_writers_match_oracles_in_blocks(tmp_path, monkeypatch, capsys,
                                             blocks):
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    for n_s in (5, 7):
        jsa = chirped_jsa(n_s, 4, omega0_offset=1e13)
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        spectra.write_jsa_csv(jsa, fast)
        oracles.write_jsa_csv(jsa, slow)
        assert fast.read_bytes() == slow.read_bytes()
        assert fast.read_text().count("# omega0_rad_s=") == 1
        assert fast.read_text().count("nu_s,nu_i,re,im") == 1
        surface = tmp_path / "surface.csv"
        cli._write_surface_csv(str(surface), jsa.grid_s, jsa.grid_i,
                               np.abs(jsa.values))
        assert capsys.readouterr().out == f"wrote {surface}\n"
        assert surface.read_bytes().decode() == oracles.surface_csv(
            jsa.grid_s, jsa.grid_i, np.abs(jsa.values))


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("cells", [5, 1 << 13])
def test_float64_jsa_writes_the_bytes_of_its_complex_copy(
        tmp_path, monkeypatch, blocks, cells):
    # a float64 JSA is written without a complex copy, its im as the '0'
    # of +0.0 after each re text: -0.0, subnormals, the ~1e-308 tails of a
    # Gaussian-beam build and every other %.17g layout give the bytes of
    # the same values stored complex128
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    monkeypatch.setattr(spectra, "_CELLS", cells)
    rng = np.random.default_rng(blocks * cells)
    bits = rng.integers(0, 2 ** 64, size=9 * 8, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.225073858507201e-308, 1.3e-308, -4.9e-309, 1e-300, 1e290],
        _every_layout(rng, 9 * 8), bits[np.isfinite(bits)]])[:9 * 16]
    values = values.reshape(9, 16)
    assert values.dtype == np.float64
    grid_s = spectra.FrequencyGrid(2.35e15, 1.5e14, 9)
    grid_i = spectra.FrequencyGrid(2.36e15, 1.2e14, 16)
    real = spectra.JointSpectralAmplitude(grid_s, grid_i, values)
    both = dataclasses.replace(real, values=values.astype(complex))
    for jsa, name in ((real, "real.csv"), (both, "complex.csv")):
        spectra.write_jsa_csv(jsa, tmp_path / name)
    text = (tmp_path / "real.csv").read_bytes()
    assert text == (tmp_path / "complex.csv").read_bytes()
    oracles.write_jsa_csv(real, tmp_path / "slow.csv")
    assert text == (tmp_path / "slow.csv").read_bytes()
    assert _same_jsa(spectra.read_jsa_csv(tmp_path / "real.csv"), both)


def test_float64_jsa_write_peak_at_n1024(tmp_path, bbo):
    # the complex copy of the JSA was 1.36 complex N x N arrays of
    # tracemalloc peak beside it (1.30 at these parameters); without it
    # the pieces of text are all that is left
    n = 1024
    p4 = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    theta = math.radians(3.0)
    beam = spectra.BeamGeometry(design.factorable_waist(bbo, 0.4, 1e-3, theta),
                                theta, 1e-3)
    jsa = spectra.build_jsa_noncollinear_gaussian_beam(
        bbo, p4, beam, spectra.default_pump_grid(p4, n))
    assert jsa.values.dtype == np.float64
    tracemalloc.start()
    try:
        spectra.write_jsa_csv(jsa, tmp_path / "j.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * 16 * n * n


def _g17_texts(x):
    """The texts spectra._g17_bytes makes for x, with their NULs deleted."""
    text = spectra._g17_bytes(x)
    assert not text[:, -1].any()   # a row's last byte is always NUL
    text[:, -1] = 10
    return text.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def _assert_g17(x):
    """spectra._g17_bytes gives Python's '%.17g' % v for every v of x."""
    x = np.asarray(x, dtype=np.float64)
    got = _g17_texts(x)
    want = [("%.17g" % v).encode() for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def _count_slow(monkeypatch):
    """A list that grows by the number of values each call to the Python
    %.17g path takes."""
    sent, slow = [], spectra._g17_slow
    monkeypatch.setattr(spectra, "_g17_slow",
                        lambda x: sent.append(len(x)) or slow(x))
    return sent


def test_g17_matches_python_on_random_bit_patterns():
    # both signs and every exponent field: subnormals, inf and nans too
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    assert len(np.unique(bits >> np.uint64(52) & np.uint64(0x7FF))) == 2048
    _assert_g17(bits.view(np.float64))
    subnormal = (rng.integers(1, 2 ** 52, size=20_000, dtype=np.uint64)
                 | rng.integers(0, 2, size=20_000, dtype=np.uint64) << np.uint64(63))
    _assert_g17(subnormal.view(np.float64))


def test_g17_matches_python_on_fixed_notation_and_short_digits():
    # every fixed-notation exponent, trailing '0's in the integer part and
    # in the fraction
    rng = np.random.default_rng(3)
    scale = 10.0 ** rng.integers(-6, 19, size=200_000)
    _assert_g17(rng.normal(size=200_000) * scale)
    ints = rng.integers(-2 ** 53, 2 ** 53, size=50_000)
    _assert_g17(ints // 10 ** rng.integers(0, 16, size=50_000)
                * 10.0 ** rng.integers(0, 4, size=50_000))
    _assert_g17(rng.integers(-10 ** 6, 10 ** 6, size=50_000)
                / 2.0 ** rng.integers(0, 30, size=50_000))


def test_g17_matches_python_on_powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    x = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    _assert_g17(np.concatenate([x, -x]))


def test_g17_ties_round_half_to_even(monkeypatch):
    # k + 1/4 and k + 3/4 have 18 significant digits ending in 5, which
    # Python rounds half to even; 10**1 is exact, so numpy rounds them
    k = np.random.default_rng(5).integers(2 ** 50, 2 ** 51, size=50_000)
    x = np.concatenate([k + 0.25, k + 0.75])
    sent = _count_slow(monkeypatch)
    _assert_g17(np.concatenate([x, -x]))
    assert sum(sent) == 0


def test_g17_special_values():
    big, tiny = np.finfo(float).max, 5e-324
    x = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, big, -big,
         tiny, -tiny, np.finfo(float).tiny, 1e290, -9.99e289]
    _assert_g17(x)
    assert _g17_texts(x[:6]) == [b"0", b"-0", b"inf", b"-inf", b"nan", b"nan"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_property(xs):
    _assert_g17(xs)


def test_g17_fallback_is_rare_on_fig1_jsas(tmp_path, monkeypatch, capsys):
    # a change that sends every float to Python again shows here
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 1)   # all in-process
    sent = _count_slow(monkeypatch)
    assert cli.main(["reproduce", "fig1", "--grid", "256",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    floats = 2 * (256 * 256 * 2 + 2 * 256)   # two JSAs: re, im and the grids
    assert sum(sent) < 1e-4 * floats


def _every_layout(rng, n):
    """n floats of every %.17g layout: fixed at every exponent, scientific
    with 2- and 3-digit exponents, short digit strings, ties, both zeros."""
    x = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    x[::3] = rng.normal(size=len(x[::3])) * 10.0 ** rng.integers(-6, 19, size=len(x[::3]))
    special = [0.0, -0.0, 0.5, -1e16, 12345.0, 2.0 ** 50 + 0.25, 1e-5,
               -0.0001, 1e17, 100.0, 5e-324, 1e23]
    x[:len(special)] = special
    return x


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("cells", [4, 12, 1 << 15])
def test_grid_rows_match_template_oracle(tmp_path, monkeypatch, blocks,
                                         cells):
    # 7 rows of 4 cells: 12 cells make 3-row pieces, so neither the row
    # count nor a block's is a multiple of the piece
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    monkeypatch.setattr(spectra, "_CELLS", cells)
    rng = np.random.default_rng(blocks * cells)
    jsa = chirped_jsa(7, 4, omega0_offset=1e13)
    nu_s, nu_i = jsa.grid_s.detunings, jsa.grid_i.detunings
    mixed = _every_layout(rng, 56)
    surface = mixed[:28].reshape(7, 4).copy()
    surface.ravel()[-3:] = [math.inf, -math.inf, math.nan]
    for values in (jsa.values, mixed.view(complex).reshape(7, 4), surface,
                   np.abs(jsa.values)):
        path = tmp_path / "rows.csv"
        with open(path, "w", newline="") as fh:
            spectra.write_grid_rows(fh, nu_s, nu_i, values)
        assert path.read_bytes().decode() == oracles.grid_rows_text(
            nu_s, nu_i, values)
    spectra.write_jsa_csv(jsa, tmp_path / "fast.csv")
    oracles.write_jsa_csv(jsa, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("in_worker", [True, False])
def test_write_grid_rows_formatter_error_reaches_the_caller(
        tmp_path, monkeypatch, in_worker):
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 2)
    fmt = spectra._grid_text

    def failing(nu_s, nu_i, values, lo, hi, *args):
        if (lo > 0) == in_worker:
            raise RuntimeError("formatter broke")
        return fmt(nu_s, nu_i, values, lo, hi, *args)

    monkeypatch.setattr(spectra, "_grid_text", failing)
    raised = ValidationError if in_worker else RuntimeError
    with pytest.raises(raised, match="formatter broke"):
        spectra.write_jsa_csv(chirped_jsa(5, 3), tmp_path / "j.csv")


def _assert_no_children(info):
    """No child is left, running or unreaped, while the traceback of info
    still holds the frames of the failed call."""
    assert info.tb is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _FailingFile:
    """A text file whose write of piece fail_at (from 1) raises OSError."""

    def __init__(self, fail_at):
        self.fail_at, self.pieces = fail_at, 0

    def flush(self):
        pass

    def write(self, text):
        self.pieces += 1
        if self.pieces == self.fail_at:
            raise OSError("disk full")


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.parametrize("in_worker", [False, True])
def test_write_grid_rows_consumer_error_kills_the_workers(monkeypatch, blocks,
                                                         in_worker):
    # 5 of the 90 rows a piece: the parent's write fails on the second
    # piece of its own block, while the workers may still be writing, or on
    # the first piece read back from a worker's file, after that worker was
    # reaped; either way every worker is gone when the error arrives
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    monkeypatch.setattr(spectra, "_CELLS", 5 * 90)
    jsa = chirped_jsa(90, 90)
    fh = _FailingFile(90 // blocks // 5 + 1 if in_worker else 2)
    with pytest.raises(OSError, match="disk full") as info:
        spectra.write_grid_rows(fh, jsa.grid_s.detunings,
                                jsa.grid_i.detunings, jsa.values)
    assert fh.pieces == fh.fail_at
    _assert_no_children(info)


@pytest.mark.parametrize("blocks", [2, 3])
def test_read_jsa_csv_error_in_its_own_block_kills_the_workers(
        tmp_path, monkeypatch, blocks):
    # 200 x 200 rows: the parent's first piece fails while the workers
    # may still be parsing theirs
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)
    path = tmp_path / "j.csv"
    spectra.write_jsa_csv(chirped_jsa(200, 200), path)
    parse = spectra._piece_values

    def failing(path, piece, first, grids, texts):
        if first == 0:   # only the parent's block starts at row 0
            raise ValidationError("parent block broke")
        return parse(path, piece, first, grids, texts)

    monkeypatch.setattr(spectra, "_piece_values", failing)
    with pytest.raises(ValidationError, match="parent block broke") as info:
        spectra.read_jsa_csv(path)
    _assert_no_children(info)


@pytest.mark.parametrize("blocks", [2, 3])
def test_csv_error_in_its_own_block_kills_workers_still_making_theirs(
        monkeypatch, blocks):
    # the workers' formatter sleeps for a minute while the parent's fails
    # at once: the call returns within seconds only if they are killed
    monkeypatch.setattr(spectra, "_cpu_count", lambda: blocks)

    def failing(nu_s, nu_i, values, lo, hi, *args):
        if lo > 0:   # only a worker's block starts past row 0
            time.sleep(60)
        raise RuntimeError("parent block broke")

    monkeypatch.setattr(spectra, "_grid_text", failing)
    jsa = chirped_jsa(5, 3)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="parent block broke") as info:
        spectra.write_grid_rows(io.StringIO(), jsa.grid_s.detunings,
                                jsa.grid_i.detunings, jsa.values)
    assert time.perf_counter() - t0 < 5
    _assert_no_children(info)


def test_csv_blocks_never_outnumber_rows(tmp_path, monkeypatch):
    forks = []
    fork = spectra._fork
    monkeypatch.setattr(spectra, "_cpu_count", lambda: 3)
    monkeypatch.setattr(spectra, "_fork", lambda: forks.append(1) or fork())
    jsa = chirped_jsa(2, 9)
    spectra.write_jsa_csv(jsa, tmp_path / "j.csv")
    assert len(forks) == 1
    assert _same_jsa(spectra.read_jsa_csv(tmp_path / "j.csv"), jsa)
    assert len(forks) == 2


def test_csv_without_fork_runs_one_block(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert spectra._cpu_count() == 1
    monkeypatch.setattr(spectra, "_fork", None)   # never called
    jsa = chirped_jsa(5, 4)
    spectra.write_jsa_csv(jsa, tmp_path / "j.csv")
    assert _same_jsa(spectra.read_jsa_csv(tmp_path / "j.csv"), jsa)


def test_metadata_fields(jsa_typeII):
    meta = spectra.jsa_metadata(jsa_typeII)
    assert meta["normalized"] is True
    assert meta["grid_s"]["n_points"] == 128
    assert meta["grid_i"]["n_points"] == 128
    assert meta["grid_s"]["omega0_rad_s"] == jsa_typeII.grid_s.omega0
    assert meta["boundary_warning"] in (False, True)
    assert meta["l2_norm"] == pytest.approx(1.0, abs=1e-10)


def test_transpose_helper_preserves_norm(jsa_typeII):
    t = jsa_typeII.transposed()
    assert t.norm() == pytest.approx(1.0, abs=1e-10)
    assert t.values[3, 5] == jsa_typeII.values[5, 3]
