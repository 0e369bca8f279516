"""Schmidt decomposition: SVD route vs the analytic geometric spectrum of
the two-width Gaussian model, Hermite-Gaussian mode identities, and the
Mehler kernel resummation."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import biphoton
from biphoton import cli, design, interference, schmidt, spectra
from biphoton.errors import ValidationError
from tests import oracles

MU_EQUAL = 2.0 - math.sqrt(3.0)        # sigma = sigma_F
K_EQUAL = 2.0 / math.sqrt(3.0)


def _discrete_unit(v):
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(np.sum(v * v)))


# ----------------------------------------------------------------------
# SVD route
# ----------------------------------------------------------------------

def test_separable_jsa_is_rank_one():
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=2e14, n_points=96)
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    vals = np.exp(-(ns / 5e13) ** 2) * np.exp(-(ni / 2.5e13) ** 2)
    jsa = spectra.JointSpectralAmplitude(grid, grid, vals.astype(complex))
    jsa = jsa.normalized()
    dec = schmidt.schmidt_svd(jsa)
    assert dec.K == pytest.approx(1.0, abs=1e-9)
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)


def test_equal_widths_cooperativity(jsa_equal):
    dec = schmidt.schmidt_svd(jsa_equal)
    assert dec.K == pytest.approx(K_EQUAL, rel=1e-6)


def test_modes_orthonormal_continuum(jsa_equal):
    dec = schmidt.schmidt_svd(jsa_equal)
    ds = jsa_equal.grid_s.spacing
    n = min(6, dec.n_modes)
    g = dec.signal_modes[:n] @ dec.signal_modes[:n].T * ds
    assert np.max(np.abs(g - np.eye(n))) < 1e-9


def test_reconstruction_matches_input(jsa_typeII):
    dec = schmidt.schmidt_svd(jsa_typeII)
    rec = oracles.schmidt_reconstruct(dec)
    peak = np.max(np.abs(jsa_typeII.values))
    assert np.max(np.abs(rec - jsa_typeII.values)) < 1e-6 * peak


def test_transpose_swaps_parties_same_spectrum(jsa_typeII):
    a = schmidt.schmidt_svd(jsa_typeII)
    b = schmidt.schmidt_svd(jsa_typeII.transposed())
    n = min(a.n_modes, b.n_modes)
    assert np.max(np.abs(a.eigenvalues[:n] - b.eigenvalues[:n])) < 1e-10
    assert b.K == pytest.approx(a.K, rel=1e-10)


def test_sign_convention_first_peak_positive(jsa_typeII):
    # pivot = first sample within 1e-6 of the magnitude max (a plain argmax
    # is noise-unstable when mirror samples tie on symmetric profiles)
    dec = schmidt.schmidt_svd(jsa_typeII)
    for n in range(dec.n_modes):
        if dec.eigenvalues[n] < 1e-6:
            break
        row = dec.signal_modes[n]
        mags = np.abs(row)
        piv = row[int(np.argmax(mags >= (1.0 - 1e-6) * mags.max()))]
        assert piv.real > 0 and abs(piv.imag) < 1e-12 * abs(piv)


def test_sign_convention_reproducible_on_symmetric_modes(jsa_equal):
    # decomposing the same symmetric amplitude twice (fresh array copy) must
    # orient every mode identically, including the odd ones whose magnitude
    # profile has two equal peaks
    import dataclasses
    copy = dataclasses.replace(jsa_equal, values=jsa_equal.values.copy())
    a = schmidt.schmidt_svd(jsa_equal, keep_tol=1e-8)
    b = schmidt.schmidt_svd(copy, keep_tol=1e-8)
    n = min(a.n_modes, b.n_modes)
    g = (a.signal_modes[:n].conj() @ b.signal_modes[:n].T) \
        * jsa_equal.grid_s.spacing
    assert np.max(np.abs(g - np.eye(n))) < 1e-6


def test_truncation_report():
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)
    jsa = spectra.gaussian_model_jsa(model, spectra.default_model_grid(model, 128))
    dec = schmidt.schmidt_svd(jsa, keep_tol=0.05)
    assert np.all(dec.eigenvalues >= 0.05)
    assert dec.eigenvalues.sum() + dec.truncated_mass == pytest.approx(1.0, abs=1e-9)
    assert dec.n_modes == len(dec.eigenvalues)


def test_unnormalized_input_rejected():
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=1e14, n_points=32)
    vals = np.ones((32, 32), dtype=complex)
    jsa = spectra.JointSpectralAmplitude(grid, grid, vals)
    with pytest.raises(ValidationError):
        schmidt.schmidt_svd(jsa)


def test_purity_equals_density_matrix_trace(jsa_equal):
    # Tr(rho_s^2) computed by plain matrix algebra, no SVD involved
    dec = schmidt.schmidt_svd(jsa_equal)
    ds = jsa_equal.grid_s.spacing
    di = jsa_equal.grid_i.spacing
    a = jsa_equal.values * math.sqrt(ds * di)
    rho = a @ a.conj().T
    purity = float(np.trace(rho @ rho).real)
    assert purity == pytest.approx(float(np.sum(dec.eigenvalues**2)), abs=1e-8)


# ----------------------------------------------------------------------
# rank-adaptive sketch against the full SVD
# ----------------------------------------------------------------------

def _random_jsa(n, rank, ratio, seed):
    """Normalized JSA on an n-point grid whose weighted amplitude has the
    spectrum lambda_j ~ ratio^j, j < rank, in random complex bases, plus
    complex noise of Frobenius norm ~1e-14."""
    rng = np.random.default_rng(seed)
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=1e14, n_points=n)

    def basis():
        z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        return np.linalg.qr(z)[0]

    m = (basis() * ratio ** (0.5 * np.arange(rank))) @ basis().conj().T
    m += 1e-14 / n * (rng.standard_normal((n, n))
                      + 1j * rng.standard_normal((n, n)))
    return spectra.JointSpectralAmplitude(grid, grid, m / grid.spacing
                                          ).normalized()


def _decompose(jsa):
    """schmidt_svd(jsa) and the shapes of the matrices it handed to the SVD."""
    shapes, svd = [], np.linalg.svd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd",
                   lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        dec = schmidt.schmidt_svd(jsa)
    return dec, shapes


def _assert_matches_oracle(dec, want, jsa):
    assert dec.n_modes == want.n_modes
    assert dec.K == pytest.approx(want.K, rel=1e-10)
    assert np.max(np.abs(dec.eigenvalues - want.eigenvalues)) < 1e-12
    peak = np.max(np.abs(jsa.values))
    assert np.max(np.abs(oracles.schmidt_reconstruct(dec) - oracles.schmidt_reconstruct(want))) < 1e-10 * peak
    # leading modes, each oriented by the first-peak phase convention
    lead = int(np.sum(want.eigenvalues >= 1e-6))
    for got, ref, d in ((dec.signal_modes, want.signal_modes, jsa.grid_s),
                        (dec.idler_modes, want.idler_modes, jsa.grid_i)):
        assert np.max(np.abs(got[:lead] - ref[:lead])) * math.sqrt(
            d.spacing) < 1e-10


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([300, 512]), rank=st.integers(1, 40),
       ratio=st.floats(0.3, 0.8), full=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sketch_matches_full_svd_oracle(n, rank, ratio, full, seed):
    # low rank takes the rank-64 sketch; a full-rank spectrum (down to 1e-8
    # of the top) fails it and falls through to the full SVD
    if full:
        rank, ratio = n, 1e-8 ** (1.0 / n)
    lam = ratio ** np.arange(rank)
    assume(np.all(np.abs(np.log(lam / lam.sum() / schmidt.KEEP_TOL)) > 0.01))
    jsa = _random_jsa(n, rank, ratio, seed)
    dec, shapes = _decompose(jsa)
    assert shapes[-1] == ((n, n) if full else (64, n))
    _assert_matches_oracle(dec, oracles.schmidt_svd(jsa), jsa)


@pytest.mark.parametrize("builder", ["collinear", "noncollinear-sinc",
                                     "gaussian-beam", "model"])
def test_sketch_matches_full_svd_on_1024_grids(builder, bbo):
    theta = math.radians(3.0)
    if builder == "model":
        model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)
        jsa = spectra.gaussian_model_jsa(
            model, spectra.default_model_grid(model, n_points=1024))
    else:
        pump_um, fwhm = (0.4, 10.0) if builder == "gaussian-beam" else (0.8, 15.0)
        pump = spectra.PumpEnvelope.from_pump_fwhm(pump_um, fwhm)
        grid = spectra.default_pump_grid(pump, n_points=1024, span_factor=3.0)
        if builder == "collinear":
            jsa = spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)
        elif builder == "noncollinear-sinc":
            jsa = spectra.build_jsa_noncollinear_sinc(bbo, 1e-3, pump, theta,
                                                      grid)
        else:
            beam = spectra.BeamGeometry(
                w0=design.factorable_waist(bbo, 0.4, 1e-3, theta), theta=theta,
                L=1e-3)
            jsa = spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam,
                                                               grid)
    dec, shapes = _decompose(jsa)
    assert shapes == [(64, 1024)]           # resolved in one sketch round
    _assert_matches_oracle(dec, oracles.schmidt_svd(jsa), jsa)


def _jittered_builder_jsas(bbo, n, seed):
    """One JSA of each builder on an n-point grid, its parameters jittered
    by up to 10 % around the paper's defaults as spectral_grid's jobs draw
    them."""
    rng = random.Random(seed)
    j = lambda: rng.uniform(0.9, 1.1)
    theta, L = math.radians(3.0 * j()), 1e-3 * j()
    p8 = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0 * j())
    g8 = spectra.default_pump_grid(p8, n_points=n, span_factor=3.0)
    p4 = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0 * j())
    beam = spectra.BeamGeometry(
        j() * design.factorable_waist(bbo, 0.4, L, theta), theta, L)
    model = spectra.GaussianSourceModel(4e13 * j(), 4e13 * j())
    return [
        spectra.build_jsa_collinear(bbo, "II_eoe", L, p8, g8),
        spectra.build_jsa_noncollinear_sinc(bbo, L, p8, theta, g8),
        spectra.build_jsa_noncollinear_gaussian_beam(
            bbo, p4, beam, spectra.default_pump_grid(p4, n_points=n,
                                                     span_factor=3.0)),
        spectra.gaussian_model_jsa(model, spectra.default_model_grid(
            model, n_points=n))]


@pytest.mark.parametrize("n", [512, 1024])
def test_real_sketch_within_its_bound_and_as_complex_storage(bbo, n):
    # a builder's float64 JSA takes the real sketch: each eigenvalue lies at
    # most the unresolved mass (< KEEP_TOL, Weyl) below the full SVD's, and
    # the same values stored complex give K to 1e-12 at the same final rank
    slack = n * np.finfo(float).eps
    for jsa in _jittered_builder_jsas(bbo, n, seed=n):
        assert jsa.values.dtype == np.float64
        dec, shapes = _decompose(jsa)
        want = oracles.schmidt_svd(jsa)
        k = min(dec.n_modes, want.n_modes)
        below = want.eigenvalues[:k] - dec.eigenvalues[:k]
        assert np.all(below >= -slack)
        assert np.all(below <= schmidt.KEEP_TOL + slack)
        stored = dataclasses.replace(jsa, values=jsa.values.astype(complex))
        cdec, cshapes = _decompose(stored)
        assert dec.K == pytest.approx(cdec.K, rel=1e-12, abs=0.0)
        assert shapes[-1] == cshapes[-1]


def test_sketch_reruns_bit_identical():
    jsa = _random_jsa(512, 12, 0.5, seed=3)
    a = schmidt.schmidt_svd(jsa)
    b = schmidt.schmidt_svd(dataclasses.replace(jsa, values=jsa.values.copy()))
    for field in ("eigenvalues", "signal_modes", "idler_modes"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.K, a.truncated_mass) == (b.K, b.truncated_mass)


@pytest.mark.parametrize("n", [256, 1024])
def test_truncated_mass_stable_under_rounding(bbo, n):
    # a 5e-15 relative change of L moves 1 - sum(kept) by ~1 %; the sum of
    # the discarded eigenvalues stays put
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=n, span_factor=3.0)
    masses = [schmidt.schmidt_svd(spectra.build_jsa_collinear(
        bbo, "II_eoe", 1e-3 * (1.0 + e), pump, grid)).truncated_mass
        for e in (0.0, 5e-15, -5e-15)]
    assert masses[0] > 0.0
    assert max(masses) - min(masses) <= 1e-8 * masses[0]


def test_small_grids_do_not_load_numpy_random(tmp_path):
    # 256 points take the exact path: a fresh interpreter running
    # `schmidt --grid 256` never imports numpy.random; 260 points sketch
    script = ("import sys\n"
              "import biphoton.cli as cli\n"
              "for n in ('256', '260'):\n"
              f"    cli.main(['schmidt', '--grid', n, '--out', {str(tmp_path)!r}])\n"
              "    print('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert [ln for ln in proc.stdout.splitlines()
            if ln in ("True", "False")] == ["False", "True"]


# ----------------------------------------------------------------------
# cooperativity on explicit spectra
# ----------------------------------------------------------------------

def test_cooperativity_values():
    assert schmidt.cooperativity([1.0]) == 1.0
    assert schmidt.cooperativity([0.5, 0.5]) == pytest.approx(2.0, rel=1e-14)
    lam, _ = oracles.analytic_eigenvalues(0.5, 400)
    assert schmidt.cooperativity(lam) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_cooperativity_validation():
    with pytest.raises(ValidationError):
        schmidt.cooperativity([])
    with pytest.raises(ValidationError):
        schmidt.cooperativity([0.7, 0.2])          # does not sum to 1
    with pytest.raises(ValidationError):
        schmidt.cooperativity([1.1, -0.1])


# ----------------------------------------------------------------------
# analytic spectrum
# ----------------------------------------------------------------------

def test_analytic_mu_equal_widths():
    model = spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)
    assert schmidt.analytic_mu(model) == pytest.approx(MU_EQUAL, rel=1e-14)


def test_analytic_mu_limits_and_monotonic():
    sigma = 4e13
    mus = []
    for r in np.logspace(-2, 2, 100):
        model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma / r)
        mu = schmidt.analytic_mu(model)
        assert 0.0 < mu < 1.0
        mus.append(mu)
    assert np.all(np.diff(mus) < 0)                # tighter filter, purer state
    # no filter at all: mu -> 1 (the state is not normalizable)
    unfiltered = spectra.GaussianSourceModel(sigma=sigma, sigma_F=math.inf)
    assert schmidt.analytic_mu(unfiltered) == 1.0


def test_analytic_eigenvalues_telescoping():
    for mu in (0.0, 0.3, 0.77, 0.95):
        lam, tail = oracles.analytic_eigenvalues(mu, 37)
        assert lam[0] == pytest.approx(1.0 - mu**2, rel=1e-14)
        assert float(lam.sum()) + tail == pytest.approx(1.0, abs=1e-12)
    lam, tail = oracles.analytic_eigenvalues(0.0, 5)
    assert lam[0] == 1.0 and np.all(lam[1:] == 0.0) and tail == 0.0
    with pytest.raises(ValidationError):
        oracles.analytic_eigenvalues(1.0, 5)
    with pytest.raises(ValidationError):
        oracles.analytic_eigenvalues(-0.1, 5)


def test_analytic_K_closed_form():
    assert schmidt.analytic_K(0.0) == 1.0
    assert schmidt.analytic_K(MU_EQUAL) == pytest.approx(K_EQUAL, rel=1e-13)
    for mu in np.linspace(0.0, 0.9, 10):
        lam, _ = oracles.analytic_eigenvalues(mu, 200)
        assert schmidt.analytic_K(mu) == pytest.approx(
            schmidt.cooperativity(lam), rel=1e-10)


def test_svd_matches_analytic_over_width_ratios():
    sigma = 4e13
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma / r)
        jsa = spectra.gaussian_model_jsa(
            model, spectra.default_model_grid(model, n_points=512))
        dec = schmidt.schmidt_svd(jsa)
        mu = schmidt.analytic_mu(model)
        assert dec.K == pytest.approx(schmidt.analytic_K(mu), rel=1e-9)
        lam, _ = oracles.analytic_eigenvalues(mu, dec.n_modes - 1)
        assert np.max(np.abs(dec.eigenvalues - lam)) < 1e-9


def test_half_half_ratio_pinned():
    # r = 1/2 lands on exact rationals: mu = 1/2, K = 5/3
    model = spectra.GaussianSourceModel(sigma=2e13, sigma_F=4e13)
    assert schmidt.analytic_mu(model) == pytest.approx(0.5, rel=1e-14)
    assert schmidt.analytic_K(0.5) == pytest.approx(5.0 / 3.0, rel=1e-14)


def _ulps_off(got: float, want: Fraction) -> float:
    """|got - want| in units in the last place of want.  Below the normal
    range a float keeps no relative precision: there an error under the
    smallest normal float counts 0, a larger one infinitely many."""
    err = abs(Fraction(got) - want)
    if want < Fraction(sys.float_info.min):
        return 0.0 if err < Fraction(sys.float_info.min) else math.inf
    return float(err / Fraction(math.ulp(float(want))))


_WIDTH = st.floats(math.log(1e-150), math.log(1e150)).map(math.exp)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(sigma=4e13, sigma_f=4e9)         # r = 1e4: mu was 0.0
@example(sigma=4e13, sigma_f=4e5)         # r = 1e8: mu was -2.0
@example(sigma=4e5, sigma_f=4e13)         # r = 1e-8: V was 5.4 % low
@example(sigma=1e150, sigma_f=1e-150)
@example(sigma=1e-150, sigma_f=1e150)
@given(sigma=_WIDTH, sigma_f=_WIDTH)
def test_gaussian_closed_forms_to_last_bits_property(sigma, sigma_f):
    # against the textbook forms in the widths at 50 digits beyond their
    # cancellation: the forms in r = sigma / sigma_F cancel nothing and
    # overflow nowhere, so each holds a few ulps over 300 decades of
    # widths (the bars sit above the worst of 128000 random draws: 4.4
    # ulps for mu, 3.4 for V and the baseline, 2.5 for K and 1.96 for V K)
    model = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma_f)
    want = oracles.gaussian_model_exact(sigma, sigma_f)
    mu = schmidt.analytic_mu(model)
    v = interference.homi_visibility_analytic(model)
    assert _ulps_off(mu, want["mu"]) <= 5
    assert _ulps_off(v, want["V"]) <= 5
    assert _ulps_off(interference.homi_baseline_analytic(model),
                     want["baseline"]) <= 5
    # V K = 1 for K the widths' exact 1 / V
    assert abs(Fraction(v) * want["K"] - 1) <= 2 * Fraction(math.ulp(1.0))
    if mu < 1.0:
        # K of the float mu it is handed, to mu -> 1
        m = Fraction(mu)
        assert _ulps_off(schmidt.analytic_K(mu),
                         (1 + m * m) / (1 - m * m)) <= 5


# ----------------------------------------------------------------------
# Hermite-Gaussian modes
# ----------------------------------------------------------------------

def test_hermite_low_order_values():
    u0, u1, _ = schmidt.hermite_modes_upto(2, 0.0)[:, 0]
    assert u0 == 1.0
    assert u1 == 0.0
    x = 0.83
    gauss = math.exp(-0.5 * x * x)
    _, u1, u2 = schmidt.hermite_modes_upto(2, x)[:, 0]
    assert u1 == pytest.approx(math.sqrt(2.0) * x * gauss, rel=1e-13)
    # (2^2 2!)^{-1/2} H_2(x) exp(-x^2/2) with H_2 = 4x^2 - 2
    assert u2 == pytest.approx(
        (4.0 * x * x - 2.0) / math.sqrt(8.0) * gauss, rel=1e-13)


def test_hermite_orthonormal_quadrature():
    x = np.linspace(-12.0, 12.0, 4001)
    dx = x[1] - x[0]
    u = schmidt.hermite_modes_upto(10, x) * math.pi ** (-0.25)
    g = u @ u.T * dx
    assert np.max(np.abs(g - np.eye(11))) < 1e-6


def test_hermite_invalid_order():
    with pytest.raises(ValidationError):
        schmidt.hermite_modes_upto(-1, [0.0])


def test_model_modes_are_hermite(jsa_equal, model_equal):
    # the numerically extracted Schmidt modes of the model source are
    # Hermite-Gaussians at the predicted inverse-width scale
    dec = schmidt.schmidt_svd(jsa_equal)
    # inverse width alpha of u_n(alpha nu): alpha^2 = 2 a / K with the
    # diagonal log-amplitude coefficient a = 2/sigma^2 + 2/sigma_F^2
    a = 2.0 / model_equal.sigma**2 + 2.0 / model_equal.sigma_F**2
    alpha = math.sqrt(2.0 * a / schmidt.analytic_K(
        schmidt.analytic_mu(model_equal)))
    x = alpha * jsa_equal.grid_s.detunings
    u = schmidt.hermite_modes_upto(3, x)
    for n in range(4):
        overlap = float(np.dot(_discrete_unit(u[n]),
                               _discrete_unit(dec.signal_modes[n].real)))
        assert abs(overlap) > 0.999


# ----------------------------------------------------------------------
# Mehler resummation
# ----------------------------------------------------------------------

def test_mehler_series_converges_to_closed_form():
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=3.0, n_points=65)
    params = schmidt.MehlerParams(mu=0.5, alpha1=1.0, alpha2=1.0)
    devs = []
    for N in (4, 8, 16, 32):
        series, closed = schmidt.mehler_reconstruct(params, grid, N=N)
        devs.append(float(np.max(np.abs(series.values.real - closed))))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-8


def test_mehler_small_mu_separable():
    grid = spectra.FrequencyGrid(omega0=0.0, half_span=3.0, n_points=33)
    params = schmidt.MehlerParams(mu=1e-7, alpha1=1.0, alpha2=1.0)
    series, closed = schmidt.mehler_reconstruct(params, grid, N=0)
    x = grid.detunings
    sep = np.exp(-0.5 * x[:, None] ** 2) * np.exp(-0.5 * x[None, :] ** 2)
    assert np.max(np.abs(series.values.real - sep)) < 1e-6
    assert np.max(np.abs(closed - sep)) < 1e-6


def test_mehler_params_validation():
    with pytest.raises(ValidationError):
        schmidt.MehlerParams(mu=0.0, alpha1=1.0, alpha2=1.0)
    with pytest.raises(ValidationError):
        schmidt.MehlerParams(mu=1.0, alpha1=1.0, alpha2=1.0)


def test_summary_keys(jsa_equal, tmp_path):
    dec = schmidt.schmidt_svd(jsa_equal)
    assert dec.K == pytest.approx(K_EQUAL, rel=1e-6)
    assert dec.n_modes == len(dec.eigenvalues)
    assert sum(dec.eigenvalues) + dec.truncated_mass == pytest.approx(
        1.0, abs=1e-9)
    # the one summary of a decomposition is the schmidt command's
    assert cli.main(["schmidt", "--grid", "64", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "schmidt.json").read_text())
    assert set(doc) == {"config", "K", "eigenvalues_head", "n_modes_kept",
                        "truncated_mass", "model"}
