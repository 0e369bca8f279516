"""Two-photon interference: the two-crystal coincidence dip (analytic vs
reduced-kernel numeric vs brute-force quadruple sum), Bell-analyzer rates,
and polarization fringes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import interference, schmidt, spectra
from biphoton.errors import ValidationError
from tests import oracles
from tests.conftest import chirped_jsa

V_EQUAL = math.sqrt(3.0) / 2.0
R0_EQUAL = 2.0 / 3.0
RESID_EQUAL = 7.0 - 4.0 * math.sqrt(3.0)   # 1 - lambda_0 = mu^2 at sigma = sigma_F


def _separable_jsa(n=64):
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=2e14, n_points=n)
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    vals = np.exp(-(ns / 5e13) ** 2 - (ni / 3e13) ** 2)
    return spectra.JointSpectralAmplitude(grid, grid, vals.astype(complex)).normalized()


# ----------------------------------------------------------------------
# analytic dip
# ----------------------------------------------------------------------

def test_analytic_visibility_and_baseline(model_equal):
    assert interference.homi_visibility_analytic(model_equal) == pytest.approx(
        V_EQUAL, rel=1e-14)
    assert interference.homi_baseline_analytic(model_equal) == pytest.approx(
        R0_EQUAL, rel=1e-14)


def test_analytic_no_filter_sentinel():
    m = spectra.GaussianSourceModel(sigma=4e13, sigma_F=math.inf)
    assert interference.homi_visibility_analytic(m) == 0.0
    assert interference.homi_baseline_analytic(m) == 1.0
    curve = interference.homi_dip_analytic(m, [0.0, 1e-13])
    assert np.all(curve.rates == 1.0)


def test_analytic_strong_filter_limit():
    m = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e9)
    assert interference.homi_visibility_analytic(m) > 0.999999
    assert interference.homi_baseline_analytic(m) < 1e-5


def test_visibility_monotone_in_filter():
    sigma = 4e13
    vs = [interference.homi_visibility_analytic(
        spectra.GaussianSourceModel(sigma=sigma, sigma_F=f))
        for f in np.logspace(12, 15, 40)]
    assert np.all(np.diff(vs) < 0)     # wider filter, less pure, lower V


def test_analytic_dip_shape(model_equal):
    w = interference.analytic_dip_width(model_equal)
    curve = interference.homi_dip_analytic(
        model_equal, [0.0, w * math.sqrt(math.log(2.0)), w, 50.0 * w])
    r0, v = curve.baseline, curve.visibility
    assert curve.rates[0] == pytest.approx(r0 * (1.0 - v), rel=1e-12)
    assert curve.rates[1] == pytest.approx(r0 * (1.0 - 0.5 * v), rel=1e-12)
    assert curve.rates[2] == pytest.approx(r0 * (1.0 - v / math.e), rel=1e-12)
    assert curve.rates[3] == pytest.approx(r0, rel=1e-12)


def test_default_tau_grid(model_equal):
    taus = interference.default_tau_grid(model_equal, n=41, span_widths=4.0)
    assert len(taus) == 41
    assert taus[0] == -taus[-1]
    assert taus[-1] == pytest.approx(
        4.0 * interference.analytic_dip_width(model_equal), rel=1e-12)


# ----------------------------------------------------------------------
# numeric dip
# ----------------------------------------------------------------------

def test_reduced_kernel_trace_and_hermiticity(jsa_equal):
    rho = interference.reduced_signal_kernel(jsa_equal)
    assert float(np.trace(rho).real) * jsa_equal.grid_s.spacing == pytest.approx(
        1.0, abs=1e-10)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14 * np.max(np.abs(rho))


def test_rank_one_source_interferes_perfectly():
    curve = interference.two_crystal_homi_numeric(_separable_jsa(), [0.0])
    assert curve.visibility == pytest.approx(1.0, abs=1e-8)
    assert curve.rates[0] < 1e-8


def test_numeric_dip_matches_analytic(model_equal, jsa_equal):
    taus = interference.default_tau_grid(model_equal, n=21)
    num = interference.two_crystal_homi_numeric(jsa_equal, taus)
    ana = interference.homi_dip_analytic(model_equal, taus)
    assert num.visibility == pytest.approx(ana.visibility, rel=1e-6)
    # numeric curve is normalized to unit baseline
    assert np.max(np.abs(num.rates - ana.rates / ana.baseline)) < 1e-6


def test_numeric_dip_against_quadruple_sum():
    # brute-force evaluation of the four-frequency integral on a small grid
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)
    jsa = spectra.gaussian_model_jsa(
        model, spectra.default_model_grid(model, n_points=16))
    ds, di = jsa.grid_s.spacing, jsa.grid_i.spacing
    f = jsa.values
    nu = jsa.grid_s.detunings
    taus = [0.0, 2e-14, 1e-13]
    curve = interference.two_crystal_homi_numeric(jsa, taus)
    for tau, rate in zip(taus, curve.rates):
        cosm = np.cos((nu[:, None] - nu[None, :]) * tau)
        quad = np.einsum("ac,bc,ad,bd,ab->", f, f.conj(), f.conj(), f, cosm)
        brute = 1.0 - float(quad.real) * ds**2 * di**2
        assert rate == pytest.approx(brute, abs=1e-10)


def test_numeric_dip_matches_per_delay_oracle(jsa_typeII):
    taus = np.linspace(-3e-13, 3e-13, 31)
    for jsa in (jsa_typeII, chirped_jsa(24, 40, omega0_offset=5e13)):
        fast = interference.two_crystal_homi_numeric(jsa, taus).rates
        assert np.max(np.abs(fast - oracles.homi_rates(jsa, taus))) < 1e-14


def test_flushed_dip_equals_unflushed_oracle(jsa_factorable, monkeypatch):
    # most of a Gaussian-beam JSA lies below 2^-200 of its peak; zeroing it
    # before rho = f f^H leaves the dip bit for bit as it was
    mags = np.abs(jsa_factorable.values)
    assert np.mean(mags < 2.0**-200 * mags.max()) > 0.5
    taus = np.linspace(-3e-13, 3e-13, 81)
    fast = interference.two_crystal_homi_numeric(jsa_factorable, taus)
    monkeypatch.setattr(interference, "reduced_signal_kernel",
                        oracles.reduced_signal_kernel)
    slow = interference.two_crystal_homi_numeric(jsa_factorable, taus)
    assert np.array_equal(fast.rates, slow.rates)
    assert fast.visibility == slow.visibility


def test_visibility_equals_schmidt_purity(jsa_equal, jsa_typeII):
    for jsa in (jsa_equal, jsa_typeII):
        v = interference.two_crystal_homi_numeric(jsa, [0.0]).visibility
        lam = schmidt.schmidt_svd(jsa).eigenvalues
        assert v == pytest.approx(float(np.sum(lam**2)), abs=1e-6)


# ----------------------------------------------------------------------
# factorability / symmetry diagnostics
# ----------------------------------------------------------------------

def test_factorability_residual_cases(jsa_equal, bbo):
    assert interference.factorability_residual(_separable_jsa()) < 1e-10
    assert interference.factorability_residual(jsa_equal) == pytest.approx(
        RESID_EQUAL, rel=1e-3)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 0.05)
    grid = spectra.default_pump_grid(pump, n_points=128, span_factor=10.0)
    cw = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
    assert interference.factorability_residual(cw) > 0.5


def test_symmetry_residual_cases(jsa_equal, jsa_typeII):
    assert oracles.symmetry_residual(jsa_equal) < 1e-12
    r = oracles.symmetry_residual(jsa_typeII)
    assert r > 0.1
    assert oracles.symmetry_residual(jsa_typeII.transposed()) == \
        pytest.approx(r, rel=1e-12)


def test_symmetry_residual_needs_square_grids():
    ga = spectra.FrequencyGrid(omega0=0.0, half_span=1e14, n_points=16)
    gb = spectra.FrequencyGrid(omega0=0.0, half_span=1e14, n_points=24)
    jsa = spectra.JointSpectralAmplitude(
        ga, gb, np.ones((16, 24), dtype=complex))
    with pytest.raises(ValidationError):
        oracles.symmetry_residual(jsa)


def test_effective_mode_factorization():
    sep = _separable_jsa()
    assert interference.factorability_residual(sep) < 1e-10
    # the leading Schmidt pair alone, p(nu_s) q(nu_i), rebuilds the amplitude
    lead = schmidt.schmidt_svd(sep, keep_tol=0.5)
    assert lead.n_modes == 1
    peak = np.max(np.abs(sep.values))
    assert np.max(np.abs(oracles.schmidt_reconstruct(lead) - sep.values)) < 1e-8 * peak


def test_effective_mode_residuals_by_source(jsa_equal, jsa_factorable):
    r_model = interference.factorability_residual(jsa_equal)
    assert r_model == pytest.approx(RESID_EQUAL, rel=1e-3)
    r_eng = interference.factorability_residual(jsa_factorable)
    assert r_eng < 0.05                    # engineered source is near-factorable


# ----------------------------------------------------------------------
# Bell analyzer
# ----------------------------------------------------------------------

def _pair(f, g=None, sign="+"):
    return interference.PolarizedPairState(
        f=f, g=f.transposed() if g is None else g, sign=sign)


def test_bell_rates_ideal_pairing(jsa_typeII):
    pair = _pair(jsa_typeII)               # g = f transposed
    r_plus, r_minus = interference.bell_analyzer_rates(pair, 0.0)
    assert r_plus < 1e-8
    assert r_minus == pytest.approx(1.0, abs=1e-8)


def test_bell_rates_match_full_phase_oracle(jsa_typeII):
    taus = [0.0, -2e-13, 7e-14, 1.5e-12]
    pairs = [_pair(jsa_typeII),
             interference.PolarizedPairState(
                 f=chirped_jsa(20, 20, omega0_offset=4e13),
                 g=chirped_jsa(20, 20, omega0_offset=4e13, chirp=-1.1, tilt=0.2),
                 sign="-")]
    for pair in pairs:
        for tau in taus:
            fast = interference.bell_analyzer_rates(pair, tau)
            slow = oracles.bell_analyzer_rates(pair, tau)
            assert np.max(np.abs(np.subtract(fast, slow))) < 1e-14
    # the phase is exactly 1 at tau = 0, so an ideal pairing gives exactly 0
    assert interference.bell_analyzer_rates(pairs[0], 0.0)[0] == 0.0


def _random_jsa(rng, n, half_span_s, half_span_i, omega0_offset):
    """Normalized random complex amplitude on an n x n grid pair."""
    gs = spectra.FrequencyGrid(omega0=2.35e15, half_span=half_span_s,
                               n_points=n)
    gi = spectra.FrequencyGrid(omega0=2.35e15 + omega0_offset,
                               half_span=half_span_i, n_points=n)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return spectra.JointSpectralAmplitude(gs, gi, vals).normalized()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), n_taus=st.integers(1, 12),
       half_spans=st.tuples(st.floats(5e13, 3e14), st.floats(5e13, 3e14)),
       omega0_offset=st.floats(-1e14, 1e14), sign=st.sampled_from("+-"),
       seed=st.integers(0, 2**32 - 1))
def test_delay_scans_match_per_delay_oracles_property(
        n, n_taus, half_spans, omega0_offset, sign, seed):
    rng = np.random.default_rng(seed)
    f, g = (_random_jsa(rng, n, *half_spans, omega0_offset) for _ in "fg")
    pair = interference.PolarizedPairState(f=f, g=g, sign=sign)
    taus = rng.uniform(-3e-13, 3e-13, n_taus)
    taus[rng.integers(n_taus)] = 0.0
    r_plus, r_minus = interference.bell_analyzer_rates(pair, taus)
    scalar = [interference.bell_analyzer_rates(pair, tau) for tau in taus]
    for j, tau in enumerate(taus):
        want = oracles.bell_analyzer_rates(pair, tau)
        assert abs(r_plus[j] - want[0]) < 1e-14
        assert abs(r_minus[j] - want[1]) < 1e-14
        assert all(type(r) is float for r in scalar[j])
        # one delay and many round alike up to the product's summation order
        assert abs(scalar[j][0] - r_plus[j]) < 1e-15
        assert abs(scalar[j][1] - r_minus[j]) < 1e-15
    dip = interference.two_crystal_homi_numeric(f, taus)
    assert np.max(np.abs(dip.rates - oracles.homi_rates(f, taus))) < 1e-14
    assert dip.rates[taus == 0.0][0] == 1.0 - dip.visibility


def test_bell_rates_need_square_grids():
    f = chirped_jsa(20, 30)
    pair = interference.PolarizedPairState(f=f, g=f)
    for call in (lambda: interference.bell_analyzer_rates(pair, 0.0),
                 lambda: interference.bell_condition_residual(pair)):
        with pytest.raises(ValidationError,
                           match=r"f is \(20, 30\), g is \(20, 30\)"):
            call()


def test_bell_rates_sum_to_one(jsa_typeII):
    pair = _pair(jsa_typeII)
    for tau in np.random.default_rng(11).uniform(-2e-12, 2e-12, 20):
        r_plus, r_minus = interference.bell_analyzer_rates(pair, float(tau))
        assert r_plus + r_minus == pytest.approx(1.0, abs=1e-10)


def test_bell_rates_lose_coherence_at_large_delay(jsa_typeII):
    pair = _pair(jsa_typeII)
    r_plus, r_minus = interference.bell_analyzer_rates(pair, 3e-13)
    assert r_plus == pytest.approx(0.5, abs=0.05)
    assert r_minus == pytest.approx(0.5, abs=0.05)


def test_bell_rates_expose_exchange_asymmetry(jsa_typeII):
    # without the transposition trick the analyzer leaks: the residual is
    # set by the exchange asymmetry of the amplitude
    pair = interference.PolarizedPairState(f=jsa_typeII, g=jsa_typeII)
    r_plus, _ = interference.bell_analyzer_rates(pair, 0.0)
    assert r_plus > 1e-3
    expected = 0.25 * oracles.symmetry_residual(jsa_typeII) ** 2
    assert r_plus == pytest.approx(expected, rel=1e-9)


def test_condition_residuals_and_hwp(jsa_typeII, jsa_equal):
    pair = _pair(jsa_typeII)
    assert interference.bell_condition_residual(pair) < 1e-12
    assert interference.pol_pairing_residual(pair) > 0.1
    # a half-wave plate on one arm transposes g
    swapped = interference.PolarizedPairState(f=pair.f, g=pair.g.transposed())
    assert interference.pol_pairing_residual(swapped) < 1e-12
    assert interference.bell_condition_residual(swapped) == pytest.approx(
        interference.pol_pairing_residual(pair), rel=1e-12)
    # exchange-symmetric amplitude satisfies both conditions at once
    sym = interference.PolarizedPairState(f=jsa_equal, g=jsa_equal)
    assert interference.bell_condition_residual(sym) < 1e-10
    assert interference.pol_pairing_residual(sym) < 1e-14


def test_pair_state_validation(jsa_typeII):
    with pytest.raises(ValidationError):
        interference.PolarizedPairState(f=jsa_typeII, g=jsa_typeII, sign="x")
    raw = spectra.JointSpectralAmplitude(
        jsa_typeII.grid_s, jsa_typeII.grid_i, 2.0 * jsa_typeII.values)
    with pytest.raises(ValidationError):
        interference.PolarizedPairState(f=raw, g=raw)


# ----------------------------------------------------------------------
# polarization fringes
# ----------------------------------------------------------------------

def test_fringe_closed_form_when_paired(jsa_equal):
    thetas = np.linspace(0.0, math.pi, 19)
    for sign, combine in (("+", lambda a, b: a + b), ("-", lambda a, b: a - b)):
        pair = interference.PolarizedPairState(
            f=jsa_equal, g=jsa_equal, sign=sign)
        for ta in thetas:
            for tb in thetas:
                want = math.sin(combine(ta, tb)) ** 2
                got = interference.polarization_fringe(pair, ta, tb)
                assert got == pytest.approx(want, abs=1e-9)


def test_fringe_specific_settings(jsa_equal):
    pair = interference.PolarizedPairState(f=jsa_equal, g=jsa_equal, sign="-")
    assert interference.polarization_fringe(
        pair, math.pi / 4, -math.pi / 4) == pytest.approx(1.0, abs=1e-9)
    for tb in (0.1, 0.7, 1.3):
        assert interference.polarization_fringe(pair, 0.0, tb) == \
            pytest.approx(math.sin(tb) ** 2, abs=1e-12)


def test_fringe_swap_symmetry(jsa_typeII):
    pair = _pair(jsa_typeII)
    for ta, tb in ((0.3, 1.1), (0.9, 0.2), (1.4, 1.4)):
        assert interference.polarization_fringe(pair, ta, tb) == \
            pytest.approx(interference.polarization_fringe(pair, tb, ta),
                          abs=1e-14)


def test_fringe_visibility_orthogonal_pairing():
    # f and g built from orthogonal mode profiles: the fringe washes out
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=6.0, n_points=96)
    u = schmidt.hermite_modes_upto(1, grid.detunings)
    f = spectra.JointSpectralAmplitude(
        grid, grid, np.outer(u[0], u[0]).astype(complex)).normalized()
    g = spectra.JointSpectralAmplitude(
        grid, grid, np.outer(u[1], u[1]).astype(complex)).normalized()
    pair = interference.PolarizedPairState(f=f, g=g)
    assert abs(interference.pair_overlap(pair)) < 1e-12
    assert interference.fringe_visibility(pair) < 1e-6


def test_fringe_visibility_unit_when_paired(jsa_equal):
    pair = interference.PolarizedPairState(f=jsa_equal, g=jsa_equal)
    assert interference.fringe_visibility(pair) == pytest.approx(1.0, abs=1e-6)


def test_fringe_matches_per_angle_oracle(jsa_typeII):
    thetas = np.linspace(0.0, math.pi, 37)
    f = chirped_jsa(16, 16)
    pairs = [_pair(jsa_typeII), _pair(jsa_typeII, sign="-"),
             interference.PolarizedPairState(
                 f=f, g=chirped_jsa(16, 16, chirp=-0.4), sign="-")]
    for pair in pairs:
        for tb in (0.3, math.pi / 4):
            rates = interference.polarization_fringe(pair, thetas, tb)
            slow = [oracles.polarization_fringe(pair, ta, tb) for ta in thetas]
            assert np.max(np.abs(rates - slow)) < 1e-14
            one = interference.polarization_fringe(pair, 0.7, tb)
            assert isinstance(one, float)
            assert one == pytest.approx(
                oracles.polarization_fringe(pair, 0.7, tb), abs=1e-14)
            # rate = 1/2 - A/2 cos(2 ta - phi), A cos phi = cos 2tb and
            # A sin phi = -/+ Re<f,g> sin 2tb: a dip at 2 ta = phi and a
            # peak half a period later
            ov = (np.vdot(pair.f.values, pair.g.values) * pair.f.measure).real
            sign = 1.0 if pair.sign == "+" else -1.0
            phi = math.atan2(-sign * ov * math.sin(2 * tb), math.cos(2 * tb))
            lo = oracles.polarization_fringe(pair, phi / 2, tb)
            hi = oracles.polarization_fringe(pair, (phi + math.pi) / 2, tb)
            assert lo <= min(slow) + 1e-15 and hi >= max(slow) - 1e-15
            assert interference.fringe_visibility(pair, tb) == pytest.approx(
                (hi - lo) / (hi + lo), abs=1e-14)
        # at tb = pi/4 the 721-point scan holds both extrema
        assert interference.fringe_visibility(pair) == pytest.approx(
            oracles.fringe_visibility(pair), abs=1e-14)
