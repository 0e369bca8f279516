"""Release gate: one test per headline result, each at its published
tolerance.  Run with -v to get a pass/fail line per criterion.  These
tests deliberately re-derive their inputs instead of trusting fixtures
wherever a runtime bound is part of the contract."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from biphoton import design, dispersion, focksim, interference, schmidt, spectra
from tests.conftest import SUITE_BUDGET_S


def _best_time(fn, repeats=20):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_gamma_constant():
    """Gaussian-sinc width-matching constant: 0.193 +- 0.001, < 1 ms."""
    value = spectra.gaussian_sinc_gamma()      # warm-up + value
    assert value == pytest.approx(0.193, abs=1e-3)
    assert _best_time(spectra.gaussian_sinc_gamma) < 1e-3


def test_criterion_02_factorable_design_number(bbo):
    """Matched waist 287 +- 5 um; resulting 256^2 JSA has K < 1.05; < 5 s."""
    t0 = time.perf_counter()
    theta = math.radians(3.0)
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, theta)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(w0=w0, theta=theta, L=1e-3)
    grid = spectra.default_pump_grid(pump, n_points=256, span_factor=3.0)
    jsa = spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam, grid)
    K = schmidt.schmidt_svd(jsa).K
    elapsed = time.perf_counter() - t0
    assert w0 == pytest.approx(287e-6, abs=5e-6)
    assert K < 1.05
    assert elapsed < 5.0


def test_criterion_03_phase_matching_geometry(bbo):
    """30.32 deg cut, 400 nm pump: degenerate emission at 3.0 +- 0.2 deg."""
    theta = dispersion.degenerate_noncollinear_angle(
        bbo, 0.4, math.radians(30.32))
    assert math.degrees(theta) == pytest.approx(3.0, abs=0.2)


def test_criterion_04_group_velocity_matching(bbo):
    """Symmetric-JSA wavelength 1.51 +- 0.02 um; type-II contour slope
    positive across [1.20, 1.90] um and negative at 0.8 um."""
    assert dispersion.gvm_wavelength(bbo) == pytest.approx(1.51, abs=0.02)
    for lam in np.linspace(1.20, 1.90, 15):
        assert dispersion.typeII_contour_slope(bbo, float(lam)) > 0.0
    assert dispersion.typeII_contour_slope(bbo, 0.8) < 0.0


def test_criterion_05_visibility_rate_tradeoff(model_equal):
    """Closed-form dip visibility and transmitted fraction: V -> 1, R0 -> 0
    for narrow filters; V -> 0, R0 -> 1 for open filters; exact anchors at
    equal widths."""
    sigma = model_equal.sigma
    narrow = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma * 1e-4)
    assert interference.homi_visibility_analytic(narrow) > 1.0 - 1e-6
    assert interference.homi_baseline_analytic(narrow) < 1e-6
    wide = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma * 1e4)
    assert interference.homi_visibility_analytic(wide) < 1e-3
    assert interference.homi_baseline_analytic(wide) > 1.0 - 1e-6
    assert interference.homi_visibility_analytic(model_equal) == pytest.approx(
        math.sqrt(3.0) / 2.0, abs=1e-12)
    assert interference.homi_baseline_analytic(model_equal) == pytest.approx(
        2.0 / 3.0, abs=1e-12)


def test_criterion_06_visibility_purity_cooperativity_identity():
    """V = 1/K to 1e-9 analytically and to 1e-3 against the 256^2 numeric
    dip for five width ratios; the reduced-kernel contraction matches a
    brute-force quadruple sum to 1e-10 on 16^2; total < 60 s."""
    t0 = time.perf_counter()
    sigma = 4e13
    for ratio in (0.1, 0.5, 1.0, 2.0, 5.0):
        model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma / ratio)
        v = interference.homi_visibility_analytic(model)
        K = schmidt.analytic_K(schmidt.analytic_mu(model))
        assert abs(v - 1.0 / K) < 1e-9
        jsa = spectra.gaussian_model_jsa(
            model, spectra.default_model_grid(model, n_points=256))
        v_num = interference.two_crystal_homi_numeric(jsa, [0.0]).visibility
        assert abs(v - v_num) < 1e-3

    model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma)
    jsa = spectra.gaussian_model_jsa(
        model, spectra.default_model_grid(model, n_points=16))
    ds, di = jsa.grid_s.spacing, jsa.grid_i.spacing
    f, nu = jsa.values, jsa.grid_s.detunings
    taus = [0.0, 2e-14, 1e-13]
    curve = interference.two_crystal_homi_numeric(jsa, taus)
    for tau, rate in zip(taus, curve.rates):
        cosm = np.cos((nu[:, None] - nu[None, :]) * tau)
        quad = np.einsum("ac,bc,ad,bd,ab->", f, f.conj(), f.conj(), f, cosm)
        assert rate == pytest.approx(
            1.0 - float(quad.real) * ds**2 * di**2, abs=1e-10)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_schmidt_cross_validation():
    """SVD cooperativity matches the closed form within 1% across the
    width-ratio sweep; 32-term kernel resummation reproduces the closed
    form to 1e-8 of the peak at mu = 0.27."""
    sigma = 4e13
    for ratio in (0.1, 0.5, 1.0, 2.0, 5.0):
        model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma / ratio)
        jsa = spectra.gaussian_model_jsa(
            model, spectra.default_model_grid(model, n_points=256))
        K_num = schmidt.schmidt_svd(jsa).K
        K_ana = schmidt.analytic_K(schmidt.analytic_mu(model))
        assert K_num == pytest.approx(K_ana, rel=0.01)

    grid = spectra.FrequencyGrid(omega0=0.0, half_span=6.0, n_points=96)
    params = schmidt.MehlerParams(mu=0.27, alpha1=1.0, alpha2=1.0)
    series, closed = schmidt.mehler_reconstruct(params, grid, N=32)
    err = np.max(np.abs(series.values.real - closed))
    assert err < 1e-8 * np.max(np.abs(closed))


def test_criterion_08_bell_analyzer(bbo, jsa_typeII):
    """Transposition-paired states: sum port dark at zero delay, difference
    port at unity, ports summing to one at random delays; an asymmetric
    amplitude paired with itself leaks above 1%."""
    pair = interference.PolarizedPairState(
        f=jsa_typeII, g=jsa_typeII.transposed())
    r_plus, r_minus = interference.bell_analyzer_rates(pair, 0.0)
    assert r_plus < 1e-8
    assert r_minus == pytest.approx(1.0, abs=1e-8)
    for tau in np.random.default_rng(5).uniform(-2e-12, 2e-12, 20):
        r_plus, r_minus = interference.bell_analyzer_rates(pair, float(tau))
        assert r_plus + r_minus == pytest.approx(1.0, abs=1e-10)

    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=256, span_factor=6.0)
    asym = spectra.build_jsa_collinear(bbo, "II_eoe", 2e-3, pump, grid)
    naive = interference.PolarizedPairState(f=asym, g=asym)
    assert interference.bell_analyzer_rates(naive, 0.0)[0] > 0.01


def test_criterion_09_polarization_fringes(jsa_equal, jsa_typeII):
    """Identically-paired states trace sin^2(theta_a +- theta_b) fringes to
    1e-9 over a 19x19 grid; satisfying only the analyzer pairing (via
    transposition) costs fringe visibility."""
    thetas = np.linspace(0.0, math.pi, 19)
    for sign, combine in (("+", lambda a, b: a + b),
                          ("-", lambda a, b: a - b)):
        pair = interference.PolarizedPairState(
            f=jsa_equal, g=jsa_equal, sign=sign)
        for ta in thetas:
            for tb in thetas:
                got = interference.polarization_fringe(pair, float(ta), float(tb))
                assert got == pytest.approx(
                    math.sin(combine(ta, tb)) ** 2, abs=1e-9)

    paired = interference.PolarizedPairState(f=jsa_equal, g=jsa_equal)
    bell_only = interference.PolarizedPairState(
        f=jsa_typeII, g=jsa_typeII.transposed())
    v_paired = interference.fringe_visibility(paired)
    v_bell = interference.fringe_visibility(bell_only)
    assert v_paired == pytest.approx(1.0, abs=1e-6)
    assert v_bell < v_paired - 1e-3


def test_criterion_10_spectral_entanglement_ordering(bbo):
    """Ultrafast 1 mm BBO: noncollinear type-I carries more spectral
    entanglement than collinear type-II, and neither is factorable."""
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=256, span_factor=3.0)
    j_typeI = spectra.build_jsa_noncollinear_sinc(
        bbo, 1e-3, pump, math.radians(3.0), grid)
    j_typeII = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
    K_I = schmidt.schmidt_svd(j_typeI).K
    K_II = schmidt.schmidt_svd(j_typeII).K
    assert K_I > K_II > 1.0


def test_criterion_11_frequency_correlated_design(bbo):
    """Short crystal + wide waist: margin >= 10 and strongly positive
    intensity correlation."""
    theta = math.radians(3.0)
    margin = design.freq_correlated_margin(bbo, 0.4, 200e-6, theta, 1e-3)
    assert margin >= 10.0
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 15.0)
    beam = spectra.BeamGeometry(w0=1e-3, theta=theta, L=200e-6)
    grid = spectra.default_pump_grid(pump, n_points=256, span_factor=3.0)
    jsa = spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam, grid)
    assert spectra.intensity_correlation(jsa) > 0.9


def test_criterion_12_ns_gate_contract():
    """Published reflectivities give the (1, 1, -1) conditional map at
    success 0.25 +- 1e-6; the optimizer re-finds them to 1e-3; the
    interferometric phase test is exact to 1e-10 at both endpoints."""
    cfg = focksim.NSGateConfig(r=focksim.IDEAL_NS_R, s=focksim.IDEAL_NS_S)
    m = focksim.ns_conditional_map(cfg)
    assert m.c1 / m.c0 == pytest.approx(1.0, abs=1e-6)
    assert m.c2 / m.c0 == pytest.approx(-1.0, abs=1e-6)
    assert m.success == pytest.approx(0.25, abs=1e-6)

    found = focksim.ns_search()
    assert found.r == pytest.approx(focksim.IDEAL_NS_R, abs=1e-3)
    assert found.s == pytest.approx(focksim.IDEAL_NS_S, abs=1e-3)

    assert focksim.homi_mz_stage_states(0.0).coincidence_probability == \
        pytest.approx(1.0, abs=1e-10)
    assert focksim.homi_mz_stage_states(math.pi).coincidence_probability == \
        pytest.approx(0.0, abs=1e-10)


def test_criterion_13_sixfold_property_suite():
    """Sixfold coincidence rate: dark for a factorable source, strictly
    increasing with the mode parameter, mode-count converged below 1%,
    and unitary up to the reported truncation.  The suite-level runtime
    guard in conftest enforces the time budget."""
    assert focksim.ns_sixfold_rate(mu=1e-12).rate < 1e-8
    rates = [focksim.ns_sixfold_rate(mu=mu).rate
             for mu in (0.1, 0.2, 0.3, 0.5, 0.7)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    for mu in (0.1, 0.2, 0.3, 0.5):
        r6 = focksim.ns_sixfold_rate(mu=mu, n_modes=6).rate
        r8 = focksim.ns_sixfold_rate(mu=mu, n_modes=8).rate
        assert abs(r8 - r6) / r8 < 0.01
    net = focksim.sixfold_network()
    inp = focksim.sixfold_input(0.3, 3)
    assert focksim.total_probability_check(net, inp) == pytest.approx(
        1.0 - inp.truncation_mass, abs=1e-8)
    assert SUITE_BUDGET_S <= 600.0


def test_criterion_14_economy_table():
    """Pairs-per-joule ledger: end rows within 2% of their printed values
    and unflagged; the middle row carries the discrepancy flag with its
    recomputed figure."""
    records = design.builtin_economy_records()
    assert len(records) == 3
    first, middle, last = records
    assert first.r_figure == pytest.approx(6.5e7, rel=0.02)
    assert not first.flagged
    assert last.r_figure == pytest.approx(3.3e10, rel=0.02)
    assert not last.flagged
    assert middle.flagged
    assert middle.r_figure > 0.0
    assert abs(middle.r_figure - middle.r_printed) > 0.02 * middle.r_printed
