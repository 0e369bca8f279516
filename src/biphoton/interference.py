"""Two-photon interference observables.

All rates are reported normalized: the two-crystal coincidence dip has unit
baseline (its tau -> inf value), and the Bell-analyzer / polarization rates
are probabilities conditioned on one pair per source, so that
Rc+ + Rc- = 1.  Absolute pair-production rates are out of scope.

Closed forms for the two-width Gaussian model source (sigma along the sum
frequency, per-arm filter sigma_F):

    V   = sqrt(1 - sigma_F^4 / (sigma_F^2 + sigma^2)^2)
    R0  = 2 sigma_F^2 / (2 sigma_F^2 + sigma^2)
    Rc(tau) = R0 [1 - V exp(-sigma^2 sigma_F^2 tau^2 / (8 (sigma_F^2 + sigma^2)))]

The numeric dip evaluates the four-frequency coincidence integral through
the reduced single-photon kernel rho(w, w') = int f(w, v) conj(f(w', v)) dv,
which turns the quadruple integral into one matrix contraction; the test
suite checks this against the brute-force quadruple sum on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .schmidt import schmidt_svd
from .spectra import GaussianSourceModel, JointSpectralAmplitude


@dataclass(frozen=True)
class PolarizedPairState:
    """Polarization-entangled pair f a1 b2 +/- g b1 a2 (|HV> amplitude f,
    |VH> amplitude g) with its relative sign."""

    f: JointSpectralAmplitude
    g: JointSpectralAmplitude
    sign: str = "+"

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValidationError("sign must be '+' or '-'")
        if (self.f.grid_s, self.f.grid_i) != (self.g.grid_s, self.g.grid_i):
            raise ValidationError("f and g must share the same grid pair")
        self.f.require_normalized()
        self.g.require_normalized()


@dataclass(frozen=True)
class DipCurve:
    taus: np.ndarray
    rates: np.ndarray
    visibility: float
    baseline: float


# ----------------------------------------------------------------------
# Analytic model-source results
# ----------------------------------------------------------------------

def homi_visibility_analytic(model: GaussianSourceModel) -> float:
    if math.isinf(model.sigma_F):
        return 0.0
    q = model.sigma_F**2 / (model.sigma_F**2 + model.sigma**2)
    return math.sqrt(max(0.0, 1.0 - q * q))


def homi_baseline_analytic(model: GaussianSourceModel) -> float:
    if math.isinf(model.sigma_F):
        return 1.0
    return 2.0 * model.sigma_F**2 / (2.0 * model.sigma_F**2 + model.sigma**2)


def _dip_exponent_coeff(model: GaussianSourceModel) -> float:
    """c in Rc = R0 (1 - V exp(-c tau^2))."""
    if math.isinf(model.sigma_F):
        return model.sigma**2 / 8.0
    return (model.sigma**2 * model.sigma_F**2
            / (8.0 * (model.sigma_F**2 + model.sigma**2)))


def analytic_dip_width(model: GaussianSourceModel) -> float:
    """1/e half-width of the dip: sqrt(8 (sigma^2+sigma_F^2)) / (sigma sigma_F)."""
    return 1.0 / math.sqrt(_dip_exponent_coeff(model))


def default_tau_grid(model: GaussianSourceModel, n: int = 41,
                     span_widths: float = 4.0) -> np.ndarray:
    w = analytic_dip_width(model)
    return np.linspace(-span_widths * w, span_widths * w, n)


def homi_dip_analytic(model: GaussianSourceModel,
                      taus: Sequence[float]) -> DipCurve:
    taus = np.asarray(taus, dtype=float)
    r0 = homi_baseline_analytic(model)
    v = homi_visibility_analytic(model)
    c = _dip_exponent_coeff(model)
    rates = r0 * (1.0 - v * np.exp(-c * taus**2))
    return DipCurve(taus=taus, rates=rates, visibility=v, baseline=r0)


# ----------------------------------------------------------------------
# Numeric two-crystal dip
# ----------------------------------------------------------------------

def reduced_signal_kernel(jsa: JointSpectralAmplitude) -> np.ndarray:
    """rho(w, w') = int f(w, v) conj(f(w', v)) dv; trace(rho) dnu_s = 1 for a
    normalized input.  Entries below 2^-200 of the peak are zeroed first:
    their products lie ~2^-150 below double resolution, and as subnormals
    (Gaussian-beam tails reach 1e-308) they slow the product several-fold."""
    f, mag = jsa.values.copy(), np.abs(jsa.values)
    f[mag < 2.0**-200 * mag.max()] = 0.0
    return (f @ f.conj().T) * jsa.grid_i.spacing


def two_crystal_homi_numeric(jsa: JointSpectralAmplitude,
                             taus: Sequence[float]) -> DipCurve:
    """Coincidence dip of two identical single-pair sources whose signal
    photons meet on a 50:50 splitter with relative delay tau:

        Rc(tau) = 1 - sum_ab |rho_ab|^2 cos((nu_a - nu_b) tau) ds^2,

    normalized to unit baseline.  Visibility = 1 - Rc(0) = Tr rho^2 (the
    single-source spectral purity)."""
    jsa.require_normalized()
    taus = np.asarray(taus, dtype=float)
    w2 = np.abs(reduced_signal_kernel(jsa)) ** 2
    ds, nu = jsa.grid_s.spacing, jsa.grid_s.detunings
    visibility = float(np.sum(w2)) * ds**2  # = 1 - Rc(0) = Tr rho^2
    rates = 1.0 - visibility + ds**2 * _dephasing(w2, nu, nu, taus)
    return DipCurve(taus=taus, rates=rates, visibility=visibility, baseline=1.0)


def _dephasing(w, alpha, beta, taus) -> np.ndarray:
    """Re sum_ab w_ab (1 - e^{i (alpha_a - beta_b) tau}) for every tau: with
    x = alpha tau / 2, y = beta tau / 2, 1 - e^{i (2x - 2y)} is 2i e^{ix}
    e^{-iy} (cos x sin y - sin x cos y), two bilinear forms in w that one
    (N, N) x (N, 2T) product gives on any grid pair, 0 at tau = 0 exactly."""
    x, y = (np.multiply.outer(v, 0.5 * taus) for v in (alpha, beta))
    ey = np.exp(-1j * y)
    ws, wc = np.hsplit(w @ np.hstack((ey * np.sin(y), ey * np.cos(y))), 2)
    s = np.sum(np.exp(1j * x) * (np.cos(x) * ws - np.sin(x) * wc), axis=0)
    return -2.0 * s.imag


def factorability_residual(jsa: JointSpectralAmplitude) -> float:
    """Mass outside the leading Schmidt mode, 1 - lambda_0; zero iff the
    four-frequency factorization condition holds exactly."""
    dec = schmidt_svd(jsa)
    return float(1.0 - dec.eigenvalues[0])


def _l2_distance(a, b, measure: float) -> float:
    """L2 norm of a - b under the grid measure."""
    return float(math.sqrt(np.sum(np.abs(a - b) ** 2) * measure))


# ----------------------------------------------------------------------
# Bell analyzer and polarization fringes
# ----------------------------------------------------------------------

def bell_analyzer_rates(pair: PolarizedPairState, tau):
    """(Rc for psi+ input, Rc for psi- input) of the beamsplitter +
    polarizing-splitter analyzer with relative delay tau in one cross term:

        Rc+-(tau) = 1/4 intint |f(w1,w2) -+ e^{i (w1-w2) tau} g(w2,w1)|^2.

    Rc+ = 1/4 (||f - g^T||^2 + 2 _dephasing(conj(f) g^T)), and the rates sum
    to (||f||^2 + ||g||^2) / 2, 1 for normalized f, g.  A scalar tau gives
    floats, an array tau arrays from one _dephasing evaluation."""
    f, g = _exchange_pair(pair)
    gs, gi, meas = pair.f.grid_s, pair.f.grid_i, pair.f.measure
    deph = _dephasing(f.conj() * g.T, gs.omega0 - gi.omega0 + gs.detunings,
                      gi.detunings, np.atleast_1d(tau))
    r_plus = 0.25 * (float(np.sum(np.abs(f - g.T) ** 2)) + 2.0 * deph) * meas
    r_minus = 0.5 * float(np.vdot(f, f).real + np.vdot(g, g).real) * meas \
        - r_plus
    return ((float(r_plus[0]), float(r_minus[0])) if np.ndim(tau) == 0
            else (r_plus, r_minus))


def bell_condition_residual(pair: PolarizedPairState) -> float:
    """L2 norm of g - f-transposed: zero iff the analyzer distinguishes the
    two Bell states perfectly at tau = 0."""
    f, g = _exchange_pair(pair)
    return _l2_distance(g, f.T, pair.f.measure)


def _exchange_pair(pair: PolarizedPairState):
    """(f, g) values; the analyzer compares f with g transposed."""
    f, g = pair.f.values, pair.g.values
    if f.shape != g.T.shape:
        raise ValidationError("the Bell analyzer needs square grids: "
                              f"f is {f.shape}, g is {g.shape}")
    return f, g


def pol_pairing_residual(pair: PolarizedPairState) -> float:
    """L2 norm of g - f: zero iff the polarization-fringe rate reduces to
    sin^2(theta_a +/- theta_b) with unit visibility."""
    return _l2_distance(pair.g.values, pair.f.values, pair.f.measure)


def pair_overlap(pair: PolarizedPairState) -> complex:
    """<f, g> under the grid measure."""
    return complex(np.sum(pair.f.values.conj() * pair.g.values) * pair.f.measure)


def polarization_fringe(pair: PolarizedPairState, theta_a, theta_b: float):
    """Coincidence rate behind polarizers rotated by theta_a, theta_b:

        Rc = intint |cos(ta) sin(tb) f +/- sin(ta) cos(tb) g|^2

    (sign from the pair).  Reduces to sin^2(ta +/- tb) when f = g.  An
    array theta_a gives an array of rates from one overlap evaluation."""
    a = np.cos(theta_a) * math.sin(theta_b)
    b = np.sin(theta_a) * math.cos(theta_b)
    if pair.sign == "-":
        b = -b
    # expand |a f + b g|^2 with unit-norm f, g and their overlap
    ov = pair_overlap(pair).real
    rates = a * a + b * b + 2.0 * a * b * ov
    return float(rates) if np.ndim(rates) == 0 else rates


def fringe_visibility(pair: PolarizedPairState,
                      theta_b: float = math.pi / 4) -> float:
    """(max - min)/(max + min) of the fringe over theta_a.  The rate is
    1/2 - 1/2 cos 2tb cos 2ta +/- 1/2 Re<f,g> sin 2tb sin 2ta, a sinusoid in
    2 ta about 1/2, so the visibility is its amplitude
    hypot(cos 2tb, Re<f,g> sin 2tb) for either sign."""
    ov = pair_overlap(pair).real
    return math.hypot(math.cos(2.0 * theta_b), ov * math.sin(2.0 * theta_b))

