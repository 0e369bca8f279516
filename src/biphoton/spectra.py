"""Joint spectral amplitudes: discretized pump-envelope x phase-matching
products on uniform detuning grids.

Unit conventions (documented once, used everywhere):

* All frequencies/bandwidths are **angular** (rad/s).  A pump quoted as an
  intensity FWHM in nm converts via
  ``delta_omega = 2 pi c fwhm / lambda^2`` and
  ``sigma_p = delta_omega / sqrt(2 ln 2)``
  matching the amplitude envelope ``exp[-(omega_p - 2 omega0)^2 / sigma_p^2]``.
* Detunings ``nu = omega - omega0`` are measured from the degenerate center
  ``omega0``; the pump is centered at ``2 omega0``.
* A normalized JSA has unit discrete L2 norm: ``sum |S|^2 dnu_s dnu_i = 1``.

The two-width Gaussian model source is

    f(nu_s, nu_i) = A exp[-2(nu_s^2 + nu_i^2)/sigma_F^2
                          - 2(nu_s + nu_i)^2/sigma^2]

i.e. a pump-and-phasematching factor of width ``sigma`` along the sum
frequency multiplied by a Gaussian spectral filter of width ``sigma_F`` on
each arm.  ``sigma_F = inf`` is the documented "no filter" sentinel.  This
form is what makes the closed-form visibility, baseline and Schmidt
expressions used elsewhere in the package mutually consistent (the cross
term is exactly ``-4 nu_s nu_i / sigma^2``).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dispersion
from .dispersion import C_LIGHT, Material, bisect_root
from .errors import RegimeError, ValidationError

NO_FILTER = math.inf

NORM_TOL = 1e-8     # |norm - 1| a normalized JSA may carry
BOUNDARY_LEAK = 1e-3
# Weak-focusing bar of the Gaussian-beam model: (w0/L) / (sqrt(gamma)
# sin^2 theta) must reach it (design.validate_waist_regime reports the ratio).
REGIME_FACTOR = 10.0
# Complex N_s x N_i arrays in a JSA's working set: a build peaks at 5.5
# (tracemalloc, all four builders) and the Schmidt SVD adds its factors.
WORKING_ARRAYS = 8


# ----------------------------------------------------------------------
# Domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric detuning grid around a center frequency omega0."""

    omega0: float
    half_span: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValidationError("FrequencyGrid needs n_points >= 2")
        if not self.half_span > 0:
            raise ValidationError("FrequencyGrid needs half_span > 0")

    @property
    def detunings(self) -> np.ndarray:
        return np.linspace(-self.half_span, self.half_span, self.n_points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_span / (self.n_points - 1)

    @property
    def omegas(self) -> np.ndarray:
        return self.omega0 + self.detunings


@dataclass(frozen=True)
class PumpEnvelope:
    """Gaussian pump amplitude exp[-(omega_p - 2 omega0)^2 / sigma_p^2]."""

    omega0: float
    sigma_p: float

    def __post_init__(self):
        if not self.sigma_p > 0:
            raise ValidationError("PumpEnvelope needs sigma_p > 0")

    @classmethod
    def from_pump_fwhm(cls, pump_um: float, fwhm_nm: float) -> "PumpEnvelope":
        lam_p = pump_um * 1e-6
        omega0 = math.pi * C_LIGHT / lam_p  # half the pump frequency
        return cls(omega0=omega0, sigma_p=sigma_p_from_fwhm(fwhm_nm * 1e-9, lam_p))


@dataclass(frozen=True)
class GaussianSourceModel:
    """Two-width model source; sigma_F = inf means no spectral filter."""

    sigma: float
    sigma_F: float = NO_FILTER

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError("model needs sigma > 0")
        if not self.sigma_F > 0:
            raise ValidationError("model needs sigma_F > 0 (inf = no filter)")

    @property
    def ratio(self) -> float:
        """sigma / sigma_F (0 when unfiltered)."""
        return 0.0 if math.isinf(self.sigma_F) else self.sigma / self.sigma_F


@dataclass(frozen=True)
class BeamGeometry:
    """Pump waist diameter w0 [m], internal emission angle theta [rad] and
    crystal length L [m]."""

    w0: float
    theta: float
    L: float

    def __post_init__(self):
        if not (self.w0 > 0 and self.L > 0):
            raise ValidationError("BeamGeometry needs w0 > 0 and L > 0")


@dataclass(frozen=True)
class JointSpectralAmplitude:
    grid_s: FrequencyGrid
    grid_i: FrequencyGrid
    values: np.ndarray
    norm_flag: bool = False
    boundary_warning: bool = False

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid_s.n_points, self.grid_i.n_points):
            raise ValidationError(
                f"JSA values shape {v.shape} does not match grids "
                f"({self.grid_s.n_points}, {self.grid_i.n_points})"
            )
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValidationError("JSA contains non-finite entries")

    @property
    def measure(self) -> float:
        """Area element dnu_s * dnu_i of the discrete double integral."""
        return self.grid_s.spacing * self.grid_i.spacing

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.measure))

    def normalized(self) -> "JointSpectralAmplitude":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize an all-zero JSA")
        return replace(self, values=self.values / n, norm_flag=True)

    def require_normalized(self) -> None:
        if not self.norm_flag or abs(self.norm() - 1.0) > NORM_TOL:
            raise ValidationError(
                f"operation requires a normalized JSA (norm = {self.norm():.3e})"
            )

    def transposed(self) -> "JointSpectralAmplitude":
        """S(a, b) -> S(b, a) with the grids swapped to match."""
        return replace(self, grid_s=self.grid_i, grid_i=self.grid_s,
                       values=self.values.T.copy())


def _check_memory(grid: FrequencyGrid) -> None:
    """Refuse a square JSA on ``grid`` whose estimated working set exceeds
    the machine's physical memory, before anything is allocated."""
    n = grid.n_points
    need = WORKING_ARRAYS * 16 * n * n
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):   # no sysconf: no estimate
        return
    if need > have:
        raise ValidationError(
            f"a {n} x {n} grid needs about {need / 2**30:.3g} GiB, more than "
            f"the {have / 2**30:.3g} GiB of physical memory; use a smaller grid")


def _boundary_leakage(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    edges = [values[0, :], values[-1, :], values[:, 0], values[:, -1]]
    return float(max(np.max(np.abs(e)) for e in edges) / peak)


def _finish(grid_s, grid_i, values) -> JointSpectralAmplitude:
    warn = _boundary_leakage(values) > BOUNDARY_LEAK
    jsa = JointSpectralAmplitude(grid_s, grid_i, np.asarray(values, dtype=complex),
                                 norm_flag=False, boundary_warning=warn)
    return jsa.normalized()


# ----------------------------------------------------------------------
# Elementary factors
# ----------------------------------------------------------------------

def pump_envelope_value(pump: PumpEnvelope, nu_sum):
    """Pump amplitude as a function of nu_s + nu_i."""
    x = np.asarray(nu_sum, dtype=float) / pump.sigma_p
    return np.exp(-(x**2))


def sinc_phasematch(delta_k, L: float):
    """phi = sinc(L delta_k / 2) with sinc(0) = 1 (np.sinc is sin(pi x)/(pi x))."""
    return np.sinc(np.asarray(delta_k, dtype=float) * L / (2.0 * math.pi))


_GAMMA_CACHE: dict = {}


def sinc_half_point() -> float:
    """Positive root of sinc(x) = 1/2 in (0, pi)."""
    if "xhalf" not in _GAMMA_CACHE:
        _GAMMA_CACHE["xhalf"] = bisect_root(
            lambda x: math.sin(x) / x - 0.5, 1e-9, math.pi - 1e-9, xtol=1e-15)
    return _GAMMA_CACHE["xhalf"]


def gaussian_sinc_gamma() -> float:
    """Constant gamma of the Gaussian stand-in exp(-gamma x^2) that shares its
    intensity FWHM with sinc(x): gamma = ln 2 / x_half^2 ~= 0.193."""
    if "gamma" not in _GAMMA_CACHE:
        _GAMMA_CACHE["gamma"] = math.log(2.0) / sinc_half_point() ** 2
    return _GAMMA_CACHE["gamma"]


def sigma_p_from_fwhm(fwhm_m: float, wavelength_m: float) -> float:
    """Amplitude width sigma_p [rad/s] of exp[-(domega/sigma_p)^2] from an
    intensity-FWHM bandwidth given in wavelength terms."""
    if not (fwhm_m > 0 and wavelength_m > 0):
        raise ValidationError("fwhm and wavelength must be positive")
    delta_omega = 2.0 * math.pi * C_LIGHT * fwhm_m / wavelength_m**2
    return delta_omega / math.sqrt(2.0 * math.log(2.0))


# ----------------------------------------------------------------------
# Model-source JSA
# ----------------------------------------------------------------------

def default_model_grid(model: GaussianSourceModel, n_points: int = 256,
                       span_factor: float = 2.5) -> FrequencyGrid:
    """Detuning grid (omega0 = 0) wide enough for the model's largest
    feature: the filter width up to a 10*sigma cap (an unfiltered ridge is
    infinite along nu_s = -nu_i, so some truncation is unavoidable there)."""
    sf = model.sigma_F if math.isfinite(model.sigma_F) else 10.0 * model.sigma
    half = span_factor * max(model.sigma, min(sf, 10.0 * model.sigma))
    return FrequencyGrid(omega0=0.0, half_span=half, n_points=n_points)


def default_pump_grid(pump: PumpEnvelope, n_points: int = 256,
                      span_factor: float = 3.0) -> FrequencyGrid:
    """Daughter grid centered on degeneracy (pump.omega0) and spanning a few
    pump widths.  The phase-matching ridge can run much further than the
    pump envelope; widen span_factor when the sinc wings matter."""
    return FrequencyGrid(omega0=pump.omega0,
                         half_span=span_factor * pump.sigma_p,
                         n_points=n_points)


def gaussian_model_jsa(model: GaussianSourceModel,
                       grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Discretize the two-width model source (docstring at module top) on
    grid x grid and normalize.  Sets ``boundary_warning`` when the grid
    truncates more than 1e-3 of the peak amplitude at its edge."""
    _check_memory(grid)
    smallest = model.sigma if math.isinf(model.sigma_F) else min(model.sigma, model.sigma_F)
    if 2.0 * grid.half_span < 3.0 * smallest:
        raise ValidationError("grid span must cover at least 3x the smaller model width")
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    expo = -2.0 * (ns + ni) ** 2 / model.sigma**2
    if math.isfinite(model.sigma_F):
        expo = expo - 2.0 * (ns**2 + ni**2) / model.sigma_F**2
    return _finish(grid, grid, np.exp(expo))


# ----------------------------------------------------------------------
# Dispersion-based JSAs
# ----------------------------------------------------------------------

def _center_wavelengths(pump: PumpEnvelope):
    """(lam0_um, lam_p_um) of the degenerate photons and the pump."""
    lam0 = 2.0 * math.pi * C_LIGHT / pump.omega0
    return lam0 * 1e6, 0.5 * lam0 * 1e6


def build_jsa_collinear(material: Material, pdc_type: str, L: float,
                        pump: PumpEnvelope, grid: FrequencyGrid
                        ) -> JointSpectralAmplitude:
    """S = alpha(nu_s + nu_i) sinc(L dk / 2) with the true sinc and the full
    Sellmeier dk = kp - ks - ki for collinear propagation, on grid x grid.

    pdc_type "I_eoo": both daughters ordinary; "II_eoe": signal ordinary,
    idler extraordinary at the cut angle.  The cut angle is the one that
    phase-matches exactly at degeneracy.
    """
    _check_memory(grid)
    lam0_um, lam_p_um = _center_wavelengths(pump)
    if pdc_type == "I_eoo":
        th = dispersion.noncollinear_cut_angle(material, lam_p_um, 0.0)
        ray_s, ray_i = "o", "o"
    elif pdc_type == "II_eoe":
        th = dispersion.typeII_cut_angle(material, lam0_um)
        ray_s, ray_i = "o", ("e", th)
    else:
        raise ValidationError(f"unknown pdc_type {pdc_type!r} (I_eoo or II_eoe)")

    lam_um = lambda omega: 2.0 * math.pi * C_LIGHT / np.asarray(omega) * 1e6

    omega = grid.omegas
    ks = dispersion.wavevector(material, lam_um(omega), ray_s)
    ki = dispersion.wavevector(material, lam_um(omega), ray_i)
    omega_p = omega[:, None] + omega[None, :]
    kp = dispersion.wavevector(material, lam_um(omega_p), ("e", th))

    dk = kp - ks[:, None] - ki[None, :]
    nu_sum = (omega[:, None] - pump.omega0) + (omega[None, :] - pump.omega0)
    values = pump_envelope_value(pump, nu_sum) * sinc_phasematch(dk, L)
    return _finish(grid, grid, values)


def build_jsa_noncollinear_sinc(material: Material, L: float, pump: PumpEnvelope,
                                theta: float, grid: FrequencyGrid
                                ) -> JointSpectralAmplitude:
    """Degenerate type-I PDC into two fixed directions at +/- theta from the
    pump axis: S = alpha(nu_s+nu_i) sinc(L dk_z / 2) on grid x grid, with the
    longitudinal mismatch dk_z = kp - (ks + ki) cos(theta), both daughters
    ordinary and the pump cut to phase-match at degeneracy."""
    _check_memory(grid)
    _, lam_p_um = _center_wavelengths(pump)
    th_pm = dispersion.noncollinear_cut_angle(material, lam_p_um, theta)

    lam_um = lambda omega: 2.0 * math.pi * C_LIGHT / np.asarray(omega) * 1e6
    omega = grid.omegas
    k = dispersion.wavevector(material, lam_um(omega), "o")
    omega_p = omega[:, None] + omega[None, :]
    kp = dispersion.wavevector(material, lam_um(omega_p), ("e", th_pm))

    dkz = kp - (k[:, None] + k[None, :]) * math.cos(theta)
    nu_sum = omega_p - 2.0 * pump.omega0
    values = pump_envelope_value(pump, nu_sum) * sinc_phasematch(dkz, L)
    return _finish(grid, grid, values)


def build_jsa_noncollinear_gaussian_beam(material: Material, pump: PumpEnvelope,
                                         beam: BeamGeometry, grid: FrequencyGrid
                                         ) -> JointSpectralAmplitude:
    """Factorized Gaussian-beam phase matching for degenerate noncollinear
    type-I PDC, on grid x grid:

        S = alpha(nu_s+nu_i) exp[-gamma dkz^2 L^2 / 4] exp[-dkt^2 w0^2 / 4]
        dkz = (kp' - k' cos theta)(nu_s + nu_i)
        dkt = -k' sin(theta) (nu_s - nu_i)

    Valid only for weak focusing, w0/L >= REGIME_FACTOR * sqrt(gamma) sin^2(theta);
    otherwise raises RegimeError carrying both sides of the inequality.
    """
    _check_memory(grid)
    gam = gaussian_sinc_gamma()
    lhs = beam.w0 / beam.L
    rhs = REGIME_FACTOR * math.sqrt(gam) * math.sin(beam.theta) ** 2
    if lhs < rhs:
        raise RegimeError(
            f"focusing too strong for the factorized phase-matching model: "
            f"w0/L = {lhs:.4g} < {rhs:.4g}", lhs=lhs, rhs=rhs)

    pump_f, long_f, trans_f = noncollinear_gaussian_beam_factors(
        material, pump, beam, grid)
    return _finish(grid, grid, pump_f * long_f * trans_f)


def noncollinear_gaussian_beam_factors(material: Material, pump: PumpEnvelope,
                                       beam: BeamGeometry, grid: FrequencyGrid):
    """The three unnormalized surfaces whose product is the engineered JSA:
    (pump envelope, longitudinal phase matching, transverse phase matching),
    each as a 2-D array over grid x grid (nu_s, nu_i).  No regime check
    here — use build_jsa_noncollinear_gaussian_beam for a validated
    amplitude."""
    _check_memory(grid)
    gam = gaussian_sinc_gamma()
    _, lam_p_um = _center_wavelengths(pump)
    kp_prime, k_prime = dispersion.noncollinear_group_slopes(
        material, lam_p_um, beam.theta)

    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    dkz = (kp_prime - k_prime * math.cos(beam.theta)) * (ns + ni)
    dkt = -k_prime * math.sin(beam.theta) * (ns - ni)
    pump_f = pump_envelope_value(pump, ns + ni)
    long_f = np.exp(-gam * dkz**2 * beam.L**2 / 4.0)
    trans_f = np.exp(-(dkt**2) * beam.w0**2 / 4.0)
    return pump_f, long_f, trans_f


# ----------------------------------------------------------------------
# Filtering and diagnostics
# ----------------------------------------------------------------------

def apply_gaussian_filter(jsa: JointSpectralAmplitude, sigma_F: float):
    """Multiply by the per-arm filter amplitude exp(-2 nu^2 / sigma_F^2) on
    both arms, renormalize, and return ``(filtered, transmitted_fraction)``
    where the fraction is the intensity passed by the filter,
    ||t f||^2 / ||f||^2.  ``sigma_F = inf`` is the identity."""
    if not sigma_F > 0:
        raise ValidationError("filter width must be positive (inf = no filter)")
    if math.isinf(sigma_F):
        return jsa, 1.0
    ts = np.exp(-2.0 * jsa.grid_s.detunings**2 / sigma_F**2)
    ti = np.exp(-2.0 * jsa.grid_i.detunings**2 / sigma_F**2)
    values = jsa.values * ts[:, None] * ti[None, :]
    before = np.sum(np.abs(jsa.values) ** 2)
    after = np.sum(np.abs(values) ** 2)
    if after == 0.0:
        raise ValidationError("filter removed all amplitude on this grid")
    return _finish(jsa.grid_s, jsa.grid_i, values), float(after / before)


def intensity_correlation(jsa: JointSpectralAmplitude) -> float:
    """Pearson correlation coefficient of |S|^2 over the (nu_s, nu_i) plane."""
    w = np.abs(jsa.values) ** 2
    w = w / np.sum(w)
    ns = jsa.grid_s.detunings
    ni = jsa.grid_i.detunings
    ms = float(np.sum(w * ns[:, None]))
    mi = float(np.sum(w * ni[None, :]))
    vs = float(np.sum(w * (ns[:, None] - ms) ** 2))
    vi = float(np.sum(w * (ni[None, :] - mi) ** 2))
    cov = float(np.sum(w * (ns[:, None] - ms) * (ni[None, :] - mi)))
    return cov / math.sqrt(vs * vi)


# ----------------------------------------------------------------------
# CSV round-trip
# ----------------------------------------------------------------------

def write_grid_rows(fh, nu_s, nu_i, values) -> None:
    """One "nu_s,nu_i,<value>" line per grid cell in %.17g (re,im for complex
    values), written one grid row at a time so memory stays bounded."""
    cplx = np.iscomplexobj(values)
    fields = ",%.17g,%.17g\n" if cplx else ",%.17g\n"
    # "\0" stands for the row's nu_s; "%.17g" text holds no "%" or "\0"
    template = "".join("\0,%.17g" % x + fields for x in nu_i)
    for ns, row in zip(nu_s, values):
        row = np.ascontiguousarray(row, dtype=complex if cplx else float)
        fh.write(template.replace("\0", "%.17g" % ns)
                 % tuple(row.view(np.float64).tolist()))


def write_jsa_csv(jsa: JointSpectralAmplitude, path) -> None:
    """Header comments carry the grid; rows are nu_s,nu_i,re,im."""
    gs, gi = jsa.grid_s, jsa.grid_i
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# omega0_rad_s={gs.omega0:.17g}\n")
        fh.write(f"# n_s={gs.n_points} n_i={gi.n_points}\n")
        fh.write(f"# half_span_s_rad_s={gs.half_span:.17g} "
                 f"half_span_i_rad_s={gi.half_span:.17g}\n")
        fh.write(f"# omega0_i_rad_s={gi.omega0:.17g}\n")
        fh.write(f"# normalized={int(jsa.norm_flag)}\n")
        fh.write("nu_s,nu_i,re,im\n")
        write_grid_rows(fh, gs.detunings, gi.detunings,
                        np.asarray(jsa.values, dtype=complex))


def read_jsa_csv(path) -> JointSpectralAmplitude:
    """Inverse of write_jsa_csv.  Raises ValidationError unless every row
    has 4 fields, there are exactly n_s * n_i rows, and the nu_s / nu_i
    columns match the header grid to 1e-9 of its half span."""
    header: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("#"):
                for tok in ln[1:].split():
                    if "=" in tok:
                        k, vv = tok.split("=", 1)
                        header[k] = vv
            elif ln.startswith("nu_s"):
                break
        try:
            with warnings.catch_warnings():   # an empty body fails below
                warnings.simplefilter("ignore", UserWarning)
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:   # ragged or non-numeric rows
            raise ValidationError(f"{path}: bad JSA data row: {exc}") from None
    try:
        n_s = int(header["n_s"])
        n_i = int(header["n_i"])
        grid_s = FrequencyGrid(float(header["omega0_rad_s"]),
                               float(header["half_span_s_rad_s"]), n_s)
        grid_i = FrequencyGrid(float(header.get("omega0_i_rad_s",
                                                header["omega0_rad_s"])),
                               float(header["half_span_i_rad_s"]), n_i)
        normalized = bool(int(header.get("normalized", "0")))
    except KeyError as exc:
        raise ValidationError(f"{path}: missing JSA header field {exc}") from None
    if body.shape != (n_s * n_i, 4):
        raise ValidationError(f"{path}: expected {n_s * n_i} data rows of 4 "
                              f"fields, got {body.shape[0]} of {body.shape[1]}")
    body = body.reshape(n_s, n_i, 4)
    off_s = np.max(np.abs(body[:, :, 0] - grid_s.detunings[:, None]))
    off_i = np.max(np.abs(body[:, :, 1] - grid_i.detunings))
    if max(off_s / grid_s.half_span, off_i / grid_i.half_span) > 1e-9:
        raise ValidationError(f"{path}: nu_s/nu_i columns disagree with the "
                              "header grid")
    vals = np.ascontiguousarray(body[:, :, 2:]).view(complex)[:, :, 0]
    return JointSpectralAmplitude(grid_s, grid_i, vals, norm_flag=normalized)


def jsa_metadata(jsa: JointSpectralAmplitude) -> dict:
    """Sidecar metadata for a dumped JSA (grid + normalization fields)."""
    return {
        "grid_s": {"omega0_rad_s": jsa.grid_s.omega0,
                   "half_span_rad_s": jsa.grid_s.half_span,
                   "n_points": jsa.grid_s.n_points},
        "grid_i": {"omega0_rad_s": jsa.grid_i.omega0,
                   "half_span_rad_s": jsa.grid_i.half_span,
                   "n_points": jsa.grid_i.n_points},
        "normalized": jsa.norm_flag,
        "boundary_warning": jsa.boundary_warning,
        "l2_norm": jsa.norm(),
    }
