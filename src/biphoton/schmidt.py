"""Schmidt decomposition of joint spectral amplitudes.

Numerical route: SVD of the grid-discretized amplitude with the integration
measure folded in, so mode functions are orthonormal under the *discrete*
inner product ``sum psi_n(nu) conj(psi_m(nu)) dnu = delta_nm``.

Analytic route (two-width Gaussian model source): geometric eigenvalue
spectrum ``lambda_n = (1 - mu^2) mu^(2n)`` with

    mu = 1 + r^2 - sqrt(2 r^2 + r^4),      r = sigma / sigma_F,
    K  = (1 + mu^2) / (1 - mu^2),

and Hermite-Gaussian mode functions.  The two routes are cross-validated in
the test suite.

Hermite-mode convention: ``u_n(x) = (2^n n!)^{-1/2} H_n(x) exp(-x^2/2)``.
This deliberately omits the pi^(-1/4) of the L2-normalized oscillator
function — it is the convention under which the kernel identity

    sqrt(1-mu^2) sum_n mu^n u_n(x) u_n(y)
        = exp[-(x^2+y^2)(1+mu^2) / (2(1-mu^2)) + 2 x y mu / (1-mu^2)]

holds with no prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectra import FrequencyGrid, GaussianSourceModel, JointSpectralAmplitude

KEEP_TOL = 1e-12


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Eigenvalues descending and summing to 1 (up to the reported truncated
    mass); mode rows are discretized functions on the source grids."""

    eigenvalues: np.ndarray          # (n_kept,)
    signal_modes: np.ndarray         # (n_kept, n_s)
    idler_modes: np.ndarray          # (n_kept, n_i)
    K: float
    truncated_mass: float
    grid_s: FrequencyGrid
    grid_i: FrequencyGrid

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class MehlerParams:
    mu: float
    alpha1: float  # inverse-width scaling of the first argument [s/rad]
    alpha2: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValidationError("Mehler kernel needs 0 < mu < 1")


def schmidt_svd(jsa: JointSpectralAmplitude, keep_tol: float = KEEP_TOL
                ) -> SchmidtDecomposition:
    """SVD-based Schmidt decomposition of a normalized JSA.

    Above 256 points a grid is sketched first (Halko, Martinsson & Tropp,
    SIAM Rev. 53, 217 (2011)): B = Q^H M, Q an orthonormal basis of M Omega
    after one power step, Omega a fixed-seed Gaussian n_i x r test matrix.
    r = 64, 128, ... doubles until the unresolved mass ||M||_F^2 - sum s_B^2
    is below ``min(keep_tol, KEEP_TOL)``; it bounds how far each computed
    eigenvalue lies below the exact one (Weyl).  Once 4 r reaches the grid
    size, B = M: the full SVD.

    Modes with eigenvalue below ``keep_tol`` are dropped.  Their mass,
    ``truncated_mass``, is the sum of the discarded computed eigenvalues,
    plus the unresolved mass where that exceeds its rounding bound
    n eps ||M||_F^2 (n the smaller grid size).  SVD sign ambiguity is fixed by
    making the first sample within 1e-6 of each signal mode's magnitude
    maximum real positive — "first within tolerance" rather than a plain
    argmax because symmetric mode profiles (odd Hermite modes on a centered
    grid) carry two mirror samples tied to machine precision, and the tie
    must not be broken by floating noise.
    """
    jsa.require_normalized()
    ds, di = jsa.grid_s.spacing, jsa.grid_i.spacing
    m = jsa.values * math.sqrt(ds * di)
    size, total = min(m.shape), float(np.vdot(m, m).real)
    r = 64
    while True:
        if 4 * r >= size:
            q, b = None, m
        else:
            rng = np.random.default_rng(0)
            omega = rng.standard_normal((m.shape[1], r))
            if np.iscomplexobj(m):
                omega = omega + 1j * rng.standard_normal(omega.shape)
            q = np.linalg.qr(m @ omega)[0]
            q = np.linalg.qr(m @ (m.conj().T @ q))[0]
            b = q.conj().T @ m
        u, s, vh = np.linalg.svd(b, full_matrices=False)
        lam = s**2
        tail = total - float(np.sum(lam))
        if q is None or tail < min(keep_tol, KEEP_TOL):
            break
        r *= 2
    keep = lam >= keep_tol
    truncated = float(np.sum(lam[~keep])) + (
        tail if tail > size * np.finfo(float).eps * total else 0.0)
    lam, u, vh = lam[keep], u[:, keep], vh[keep, :]
    u = u if q is None else q @ u

    signal = (u / math.sqrt(ds)).T.copy()
    idler = vh / math.sqrt(di)
    for n in range(signal.shape[0]):
        mags = np.abs(signal[n])
        top = float(mags.max())
        if top == 0.0:
            continue
        j = int(np.argmax(mags >= (1.0 - 1e-6) * top))
        phase = signal[n, j] / abs(signal[n, j])
        signal[n] = signal[n] / phase
        idler[n] = idler[n] * phase
    return SchmidtDecomposition(
        eigenvalues=lam, signal_modes=signal, idler_modes=idler,
        K=cooperativity(lam / lam.sum()), truncated_mass=truncated,
        grid_s=jsa.grid_s, grid_i=jsa.grid_i)


def cooperativity(eigenvalues) -> float:
    """K = 1 / sum(lambda_n^2) for a normalized spectrum."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise ValidationError("empty eigenvalue list")
    if np.any(lam < -1e-12):
        raise ValidationError("negative Schmidt eigenvalue")
    total = lam.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"eigenvalues must sum to 1 (got {total:.8f})")
    return float(1.0 / np.sum(lam**2))


# ----------------------------------------------------------------------
# Analytic spectrum of the Gaussian model source
# ----------------------------------------------------------------------

def analytic_mu(model: GaussianSourceModel) -> float:
    """Schmidt ratio 1 + r^2 - r sqrt(2 + r^2), r = sigma / sigma_F, as the
    reciprocal of 1 + r^2 + r sqrt(2 + r^2): nothing cancels at large r,
    and the sum overflows only where mu underflows."""
    r = model.ratio
    return 1.0 / (1.0 + r * r + r * math.hypot(math.sqrt(2.0), r))


def analytic_K(mu: float) -> float:
    """(1 + mu^2) / (1 - mu^2).  From mu = 1/2 on, 1 - mu is exact and
    1 - mu^2 is taken as (1 - mu)(1 + mu), so K keeps its precision as
    mu -> 1; below, 1 - mu^2 >= 3/4 cancels nothing and rounds less."""
    if not 0.0 <= mu < 1.0:
        raise ValidationError("need 0 <= mu < 1")
    return (1.0 + mu * mu) / (1.0 - mu * mu if mu < 0.5
                              else (1.0 - mu) * (1.0 + mu))


# ----------------------------------------------------------------------
# Hermite-Gaussian modes and the Mehler kernel
# ----------------------------------------------------------------------

def hermite_modes_upto(n_max: int, x) -> np.ndarray:
    """u_0..u_n_max evaluated on x, shape (n_max+1, len(x)).  Three-term
    recurrence on the scaled functions themselves (stable; no factorial
    overflow): u_{n+1} = x sqrt(2/(n+1)) u_n - sqrt(n/(n+1)) u_{n-1}."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, xv.size))
    out[0] = np.exp(-0.5 * xv**2)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xv * out[0]
    for n in range(1, n_max):
        out[n + 1] = xv * math.sqrt(2.0 / (n + 1)) * out[n] \
            - math.sqrt(n / (n + 1)) * out[n - 1]
    return out


def mehler_closed_form(mu: float, x, y):
    """Right-hand side of the kernel identity (see module docstring)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    om = 1.0 - mu**2
    return np.exp(-(x**2 + y**2) * (1.0 + mu**2) / (2.0 * om)
                  + 2.0 * x * y * mu / om)


def mehler_reconstruct(params: MehlerParams, grid: FrequencyGrid, N: int = 32):
    """Evaluate the truncated mode sum
    sqrt(1-mu^2) sum_{n<=N} mu^n u_n(alpha1 nu_s) u_n(alpha2 nu_i)
    on grid x grid and return ``(series_jsa, closed_form_matrix)`` for
    direct comparison.  The returned JSA is *not* normalized — it is an
    identity check, not a state."""
    x = params.alpha1 * grid.detunings
    y = params.alpha2 * grid.detunings
    ux = hermite_modes_upto(N, x)
    uy = hermite_modes_upto(N, y)
    w = params.mu ** np.arange(N + 1)
    series = math.sqrt(1.0 - params.mu**2) * ((ux.T * w) @ uy)
    closed = mehler_closed_form(params.mu, x[:, None], y[None, :])
    jsa = JointSpectralAmplitude(grid, grid, series.astype(complex),
                                 norm_flag=False)
    return jsa, closed

