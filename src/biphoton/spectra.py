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

import io
import math
import os
import signal
import struct
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
# CSV round trip: bytes a JSA reader parses in one piece
_CHUNK = 1 << 20
_FRAME = struct.Struct("<q")   # a frame's size; 0 ends a block, < 0 an error
# a JSA body row as read: nu_s, nu_i as text (any %.17g fits), re, im
_TEXT_ROW = np.dtype([("nu", "S32", (2,)), ("v", "f8", (2,))])
# Grid cells whose text a CSV writer makes in one pass: the temporaries
# stay near 3 MB, and larger pieces write an N=1024 JSA no faster
_CELLS = 1 << 13
# %.17g in numpy (_g17_bytes): |x| 10**q, q = 16 - floor(log10 |x|), as a
# double-double gives the 17 digits; the rest of a value's text is table
# lookups and byte moves.  A value whose fraction lies within _G17_TIE of
# 1/2, whose digits fall outside [1e16, 1e17) or that is at least _G17_BIG
# (where the Dekker split overflows) goes to Python's own '%.17g'.
_G17 = 28                 # bytes a value's text is made in; the text is 24 at most
_G17_TIE = 1e-9           # the double-double is good to about 1e-14 here
_G17_BIG = 1e290
_Q_MIN, _Q_MAX = -280, 345
_Q_SCALED = 227           # past this q, |x| times 2**700 and 10**q times 2**-700
_P10 = None               # hi, lo of 10**q by q - _Q_MIN: filled as values need them
_TABLES = None            # digit and exponent words of _tables()
_DIGIT_COLS = [1, *range(4, 20)]   # the 17 digits in a value's scientific text
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
        if not 0 < self.half_span < math.inf:
            raise ValidationError("FrequencyGrid needs a finite half_span > 0")

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
    """Gaussian pump amplitude exp[-(omega_p - 2 omega0)^2 / sigma_p^2] at
    vacuum wavelength pump_um [um]; every stage takes the wavelength here."""

    pump_um: float
    sigma_p: float

    def __post_init__(self):
        if not 0 < self.pump_um < math.inf:
            raise ValidationError(
                f"PumpEnvelope needs a finite pump_um > 0, got {self.pump_um!r}")
        if not self.sigma_p > 0:
            raise ValidationError("PumpEnvelope needs sigma_p > 0")

    @property
    def omega0(self) -> float:
        """Half the pump frequency: the degenerate daughter frequency."""
        return math.pi * C_LIGHT / (self.pump_um * 1e-6)

    @classmethod
    def from_pump_fwhm(cls, pump_um: float, fwhm_nm: float) -> "PumpEnvelope":
        return cls(pump_um=pump_um,
                   sigma_p=sigma_p_from_fwhm(fwhm_nm * 1e-9, pump_um * 1e-6))


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


_SINC_HALF = bisect_root(lambda x: math.sin(x) / x - 0.5, 1e-9,
                         math.pi - 1e-9, xtol=1e-15)


def gaussian_sinc_gamma() -> float:
    """Constant gamma of the Gaussian stand-in exp(-gamma x^2) that shares its
    intensity FWHM with sinc(x): gamma = ln 2 / x_half^2 ~= 0.193."""
    return math.log(2.0) / _SINC_HALF ** 2


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

def build_jsa_collinear(material: Material, pdc_type: str, L: float,
                        pump: PumpEnvelope, grid: FrequencyGrid
                        ) -> JointSpectralAmplitude:
    """S = alpha(nu_s + nu_i) sinc(L dk / 2) with the true sinc and the full
    Sellmeier dk = kp - ks - ki for collinear propagation, on grid x grid.

    pdc_type "I_eoo": both daughters ordinary, which is the noncollinear
    sinc builder at theta = 0; "II_eoe": signal ordinary, idler
    extraordinary at the cut angle.  The cut angle is the one that
    phase-matches exactly at degeneracy.
    """
    if pdc_type == "I_eoo":
        return build_jsa_noncollinear_sinc(material, L, pump, 0.0, grid)
    if pdc_type != "II_eoe":
        raise ValidationError(f"unknown pdc_type {pdc_type!r} (I_eoo or II_eoe)")
    th = dispersion.typeII_cut_angle(material, 2.0 * pump.pump_um)
    return _sellmeier_sinc(material, L, pump, grid, th, ("e", th), 1.0)


def build_jsa_noncollinear_sinc(material: Material, L: float, pump: PumpEnvelope,
                                theta: float, grid: FrequencyGrid
                                ) -> JointSpectralAmplitude:
    """Degenerate type-I PDC into two fixed directions at +/- theta from the
    pump axis: S = alpha(nu_s+nu_i) sinc(L dk_z / 2) on grid x grid, with the
    longitudinal mismatch dk_z = kp - (ks + ki) cos(theta), both daughters
    ordinary and the pump cut to phase-match at degeneracy."""
    th_pm = dispersion.noncollinear_cut_angle(material, pump.pump_um, theta)
    return _sellmeier_sinc(material, L, pump, grid, th_pm, "o",
                           math.cos(theta))


def _sellmeier_sinc(material: Material, L: float, pump: PumpEnvelope,
                    grid: FrequencyGrid, th_pm: float, ray_i, cos_theta: float
                    ) -> JointSpectralAmplitude:
    """alpha(nu_s + nu_i) sinc(L dk / 2) with dk = kp - (ks + ki) cos_theta:
    the signal ordinary, the idler on ray_i, the pump extraordinary at the
    cut angle th_pm."""
    if not 0 < L < math.inf:
        raise ValidationError(f"crystal length must be finite and > 0, got {L!r}")
    _check_memory(grid)
    lam_um = lambda omega: 2.0 * math.pi * C_LIGHT / np.asarray(omega) * 1e6
    omega = grid.omegas
    ks = dispersion.wavevector(material, lam_um(omega), "o")
    ki = dispersion.wavevector(material, lam_um(omega), ray_i)
    omega_p = omega[:, None] + omega[None, :]
    kp = dispersion.wavevector(material, lam_um(omega_p), ("e", th_pm))
    dk = kp - ks[:, None] * cos_theta - ki[None, :] * cos_theta
    nu_sum = (omega[:, None] - pump.omega0) + (omega[None, :] - pump.omega0)
    values = pump_envelope_value(pump, nu_sum) * sinc_phasematch(dk, L)
    return _finish(grid, grid, values)


def build_jsa_noncollinear_gaussian_beam(material: Material, pump: PumpEnvelope,
                                         beam: BeamGeometry, grid: FrequencyGrid
                                         ) -> JointSpectralAmplitude:
    """Factorized Gaussian-beam phase matching for degenerate noncollinear
    type-I PDC, on grid x grid: the normalized product of the three
    surfaces of noncollinear_gaussian_beam_factors,

        S = alpha(nu_s+nu_i) exp[-gamma dkz^2 L^2 / 4] exp[-dkt^2 w0^2 / 4]
        dkz = (kp' - k' cos theta)(nu_s + nu_i)
        dkt = -k' sin(theta) (nu_s - nu_i)

    Raises RegimeError outside weak focusing, as the factors do.
    """
    pump_f, long_f, trans_f = noncollinear_gaussian_beam_factors(
        material, pump, beam, grid)
    return _finish(grid, grid, pump_f * long_f * trans_f)


def noncollinear_gaussian_beam_factors(material: Material, pump: PumpEnvelope,
                                       beam: BeamGeometry, grid: FrequencyGrid):
    """The three unnormalized surfaces whose product is the engineered JSA:
    (pump envelope, longitudinal phase matching, transverse phase matching),
    each as a 2-D array over grid x grid (nu_s, nu_i).

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
    kp_prime, k_prime = dispersion.cut_group_slopes(
        material, pump.pump_um,
        dispersion.noncollinear_cut_angle(material, pump.pump_um, beam.theta))

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

def _cpu_count() -> int:
    """Blocks a CSV write or read splits its rows into: the CPUs this
    process may run on, or 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return os.cpu_count() or 1


def _fork() -> int:
    # A child only formats or parses its block, writes it to its pipe and
    # leaves through os._exit.  It takes no lock that another thread of the
    # parent (a BLAS worker, say) may hold at the fork, which is the hazard
    # behind Python 3.12's warning about forking a multi-threaded process.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        return os.fork()


def _child(w, files, make, block) -> None:
    """Body of a forked child: send the bytes of every piece make(block)
    yields on pipe end w, one frame each, then an end frame (an error
    frame if making them fails), and leave through os._exit.  The
    inherited read ends in files are closed first, so a sibling's pipe
    breaks when the parent closes it."""
    code = 1
    try:
        for f in files:
            f.close()
        with open(w, "wb") as out:
            try:
                # the whole block first: the parent reads it only after its own
                views = [memoryview(p).cast("B") for p in make(block)]
                for v in filter(len, views):   # an empty frame ends the block
                    out.write(_FRAME.pack(len(v)))
                    out.write(v)
                out.write(_FRAME.pack(0))
            except Exception as exc:
                msg = (str(exc) if isinstance(exc, ValidationError)
                       else f"{type(exc).__name__}: {exc}").encode()
                out.write(_FRAME.pack(-len(msg)))
                out.write(msg)
        code = 0
    finally:
        os._exit(code)


def _blockwise(blocks, make):
    """The bytes-like pieces that make(block) yields, block by block in
    order: block 0's made here, each other block's by one forked child and
    read back from its pipe.  A child's error frame raises ValidationError
    with its message.  On any error, the consumer's own included when it
    closes this generator, every child is killed; on the way out every
    child is reaped."""
    pids, files = [], []
    try:
        for block in blocks[1:]:
            r, w = os.pipe()
            files.append(open(r, "rb"))
            try:
                pid = _fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:
                _child(w, files, make, block)
            os.close(w)
            pids.append(pid)
        yield from make(blocks[0])
        for f in files:
            while True:
                head = f.read(_FRAME.size)
                if len(head) < _FRAME.size:   # a short piece ends here too
                    raise ValidationError(
                        "a CSV worker ended before finishing its block")
                (size,) = _FRAME.unpack(head)
                if size < 0:
                    raise ValidationError(f.read(-size).decode())
                if size == 0:
                    break
                yield f.read(size)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for f in files:
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _pow10(q):
    """(hi, lo, hi's Dekker halves): the double-double of 10**q (of
    10**q / 2**700 past _Q_SCALED) for every q, each rounded from Python
    integers the first time a value needs it."""
    global _P10
    if _P10 is None:
        _P10 = np.full((4, _Q_MAX - _Q_MIN + 1), np.nan)
    j = q - _Q_MIN
    if j.size:
        lo, hi = j.min(), j.max() + 1
        for i in (np.flatnonzero(np.isnan(_P10[0, lo:hi])) + lo).tolist():
            e = i + _Q_MIN
            num = 10 ** max(e, 0)
            den = 10 ** max(-e, 0) << (700 if e > _Q_SCALED else 0)
            h = num / den   # int / int rounds correctly
            hn, hd = h.as_integer_ratio()
            _P10[:, i] = (h, (num * hd - hn * den) / (den * hd),
                          *_split(np.float64(h)))
    return [np.take(row, j) for row in _P10]


def _tables():
    """(digits, exponents), built on first use.  digits[g] is '%04d' % g as
    '<u4' bytes and digits[10000 + g] the same with its trailing '0's as
    NUL; exponents[:, 330 + e] are the two '<u4' words of 'e+dd', 'e-ddd'
    and so on for an exponent e that %g writes in scientific notation,
    zero for the rest."""
    global _TABLES
    if _TABLES is None:
        g = np.arange(10000)
        d = [g // 1000, g // 100 % 10, g // 10 % 10, g % 10]
        plain = sum((x + 48) << 8 * i for i, x in enumerate(d))
        zeros = sum(np.cumprod([x == 0 for x in d[::-1]], axis=0))  # trailing
        e = np.arange(-330, 330)
        m = np.abs(e)
        expo = np.where((e < -4) | (e >= 17), [
            0x65 | np.where(e < 0, 45, 43) << 8            # 'e-', 'e+'
            | np.where(m >= 100, m // 100 + 48, 0) << 16 | (m // 10 % 10 + 48) << 24,
            m % 10 + 48], 0)
        _TABLES = (np.concatenate([plain, plain & 0xFFFFFFFF >> 8 * zeros]
                                  ).astype("<u4"), expo.astype("<u4"))
    return _TABLES


def _split(a):
    """Dekker's split of a into two 26-bit halves."""
    c = a * 134217729.0
    h = c - (c - a)
    return h, a - h


def _g17_slow(x) -> np.ndarray:
    """'%.17g' % v by Python for each v of x, as S{_G17}."""
    return np.array(["%.17g" % v for v in x.tolist()], dtype=f"S{_G17}")


def _g17_bytes(x) -> np.ndarray:
    """(m, _G17) uint8 holding '%.17g' % v for each v of the flat float64
    array x, with NUL bytes at places: deleting the NULs of a row leaves
    the text.  The last byte of a row is always NUL."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    a = np.abs(x)
    fast = (a > 0) & (a < _G17_BIG)   # false for nan
    big = (a >= _G17_BIG) & (a < np.inf)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)   # the decimal exponent
    q = 16 - k
    if q.size and q.max() > _Q_SCALED:
        a *= np.where(q > _Q_SCALED, 2.0 ** 700, 1.0)
    hi, lo, hh, hl = _pow10(q)
    # a * 10**q = p + t: a * hi = p + e exactly (Dekker), t = e + a * lo
    p = a * hi
    ah, al = _split(a)
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    f = np.floor(t)
    frac = t - f
    d = p.astype(np.int64) + f.astype(np.int64)   # the digits, truncated
    # with lo = 0 (10**q exact for 0 <= q <= 22) the sum is exact and a
    # tie rounds half to even here; ties need such a q, the rest are near
    # ties only, and those within _G17_TIE of one go to Python
    slow = fast & (((lo != 0) & (np.abs(frac - 0.5) < _G17_TIE))
                   | (d < 10 ** 16))
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))
    slow |= big | (d >= 10 ** 17)
    fast &= ~slow
    d = np.where(fast, d, 10 ** 16)
    # the words of the text: sign, lead and '.'; four groups of four
    # digits, the trailing '0's as NUL; the exponent
    digits, expo = _tables()
    words = np.empty((_G17 // 4, len(x)), "<u4")
    lead = d // 10 ** 16
    r = d - lead * 10 ** 16
    h = (r // 10 ** 8).astype(np.int32)
    low = (r - h * 10 ** 8).astype(np.int32)
    zero = np.full(len(x), 10000, np.int32)   # every group after this is 0
    for col, n in ((4, low), (3, low), (2, h), (1, h)):
        g = n % 10 ** 4 if col % 2 == 0 else n // 10 ** 4
        np.take(digits, g + zero, out=words[col])
        zero *= g == 0
    words[0] = np.where(fast, (lead.astype(np.uint32) + 48) << 8
                        | np.where(zero, 0, 46 << 16),   # '.'
                        np.where(x == 0, 0x3000, 0x666E6900)  # '0', 'inf'
                        ) | np.signbit(x) * np.uint32(45)       # '-'
    words[0, np.isnan(x)] = 0x6E616E   # 'nan', no sign
    np.take(expo[0], k + 330, out=words[5])
    np.take(expo[1], k + 330, out=words[6])
    words = np.ascontiguousarray(words.T)
    text = words.view(np.uint8)
    rows = np.flatnonzero(fast & (k >= -4) & (k < 17))
    xs = k[rows]
    for xe in np.unique(xs).tolist():   # fixed notation, by exponent
        at = rows[xs == xe]
        text[at] = _fixed(text[at], xe)
    if slow.any():
        text[slow] = _g17_slow(x[slow]).view(np.uint8).reshape(-1, _G17)
    return text


def _fixed(text, xe):
    """The rows of scientific text (sign, lead, '.', digits) of values with
    decimal exponent -4 <= xe < 17 laid out in fixed notation."""
    digits = text[:, _DIGIT_COLS]
    out = np.zeros_like(text)
    out[:, 0] = text[:, 0]
    if xe >= 0:   # the integer part keeps its '0's; a '.' if digits follow
        out[:, 1:xe + 2] = np.maximum(digits[:, :xe + 1], 48)
        if xe < 16:
            out[:, xe + 2] = np.where(digits[:, xe + 1] != 0, 46, 0)
            out[:, xe + 3:19] = digits[:, xe + 1:]
    else:         # '0.', then -xe - 1 '0's
        out[:, 1:2 - xe] = 48
        out[:, 2] = 46
        out[:, 2 - xe:19 - xe] = digits
    return out


def _grid_text(nu_s, nu_i, values, lo, hi):
    """The text of grid rows lo..hi-1 in pieces of whole rows of about
    _CELLS cells: each cell's nu_s, nu_i and value texts (_g17_bytes) and
    separators, made in one byte matrix whose NULs are then deleted."""
    parts = 2 if np.iscomplexobj(values) else 1
    nu = [_g17_bytes(v) for v in (nu_s, nu_i)]
    step = max(1, _CELLS // max(1, len(nu_i)))
    for a in range(lo, hi, step):
        b = min(hi, a + step)
        block = np.ascontiguousarray(values[a:b], dtype=complex if parts == 2
                                     else float)
        cells = np.empty((b - a, len(nu_i), 2 + parts, _G17), np.uint8)
        cells[:, :, 0] = nu[0][a:b, None]
        cells[:, :, 1] = nu[1]
        cells[:, :, 2:] = _g17_bytes(block.view(np.float64)).reshape(
            b - a, len(nu_i), parts, _G17)
        cells[..., -1] = 44               # ',' in place of each text's last NUL
        cells[:, :, -1, -1] = 10          # '\n'
        yield cells.tobytes().translate(None, b"\0")


def write_grid_rows(fh, nu_s, nu_i, values) -> None:
    """One "nu_s,nu_i,<value>" line per grid cell in %.17g (re,im for complex
    values), each number's text made in numpy by _g17_bytes, whole rows
    of about _CELLS cells at a time.  The rows go in one block per CPU,
    at most one per row: forked children make the text of the blocks after
    the first while the parent writes the first, then their text follows in
    row order, so the bytes do not depend on the split and the parent holds
    one piece at a time."""
    fh.flush()   # nothing buffered may be left for a child to inherit
    n = len(nu_s)
    k = max(1, min(_cpu_count(), n))
    blocks = [(n * j // k, n * (j + 1) // k) for j in range(k)]
    pieces = _blockwise(blocks, lambda b: _grid_text(nu_s, nu_i, values, *b))
    try:
        for text in pieces:
            fh.write(text.decode())
    finally:
        pieces.close()   # kills and reaps the children if fh.write raised


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


def _read_header(path):
    """(fields, offset): the "# key=value" fields before the "nu_s" column
    line, and the byte offset of the line after it (the end of the file if
    there is none).  Lines split as universal newlines split them."""
    header: dict = {}
    offset = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for ln in fh:
            offset += len(ln.encode("utf-8"))
            if ln.startswith("#"):
                for tok in ln[1:].split():
                    if "=" in tok:
                        k, vv = tok.split("=", 1)
                        header[k] = vv
            elif ln.startswith("nu_s"):
                break
    return header, offset


def _line_ranges(fh, start: int, end: int, k: int):
    """k byte ranges tiling start..end of fh, each after the first beginning
    just after a "\n" (or at the end)."""
    cuts = [start]
    for j in range(1, k):
        fh.seek(max(cuts[-1], start + (end - start) * j // k) - 1)
        fh.readline()
        cuts.append(min(fh.tell(), end))
    cuts.append(end)
    return list(zip(cuts[:-1], cuts[1:]))


def _pieces(fh, lo: int, hi: int):
    """Bytes lo..hi of fh in pieces of about _CHUNK bytes, each ending on a
    line end, with "\r" read as "\n" (universal newlines; the empty line
    this leaves after "\r\n" is skipped like any empty line)."""
    fh.seek(lo)
    left, carry = hi - lo, b""
    while left > 0:
        data = fh.read(min(_CHUNK, left))
        if not data:
            break
        left -= len(data)
        buf = carry + data.replace(b"\r", b"\n")
        cut = len(buf) if left <= 0 else buf.rfind(b"\n") + 1
        carry = buf[cut:]
        yield buf[:cut]
    if carry:
        yield carry


def _data_lines(piece: bytes) -> int:
    """Lines of a piece that np.loadtxt parses as rows: all but the empty
    ones and the "#" comments (a piece starts on a line)."""
    a = np.frombuffer(b"\n" + piece, np.uint8)
    heads = a[1:][a[:-1] == 10]
    return int(np.count_nonzero((heads != 10) & (heads != 35)))


def _piece_values(path, piece: bytes, first: int, grids, texts):
    """(m, 2) re/im of the data rows in one piece whose first row is grid
    cell `first`.  Each cell's nu_s and nu_i must lie within 1e-9 of their
    grid's half span of the cell's detunings; rows past the grid are left
    to the row count."""
    def cells(m):
        n_i = grids[1].n_points
        return np.divmod(np.arange(first, min(first + m, grids[0].n_points * n_i)),
                         n_i)

    try:
        text = piece.decode("utf-8")
        with warnings.catch_warnings():   # a piece may hold no data rows
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(io.StringIO(text), delimiter=",",
                                  dtype=_TEXT_ROW, ndmin=1)
                if all(np.array_equal(rows["nu"][:len(c), k], texts[k][c])
                       for k, c in enumerate(cells(len(rows)))):
                    return rows["v"]
            except ValueError:
                pass
            # nu not written as the grid's own %.17g text: parse four
            # floats and compare the values
            body = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    except ValueError as exc:   # ragged or non-numeric rows
        raise ValidationError(f"{path}: bad JSA data row: {exc}") from None
    if len(body) and body.shape[1] != 4:
        raise ValidationError(f"{path}: bad JSA data row: "
                              f"{body.shape[1]} fields, not 4")
    for k, c in enumerate(cells(len(body))):
        off = np.max(np.abs(body[:len(c), k] - grids[k].detunings[c]),
                     initial=0.0)
        if not off / grids[k].half_span <= 1e-9:
            raise ValidationError(f"{path}: nu_s/nu_i columns disagree with "
                                  "the header grid")
    return body[:, 2:]


def read_jsa_csv(path) -> JointSpectralAmplitude:
    """Inverse of write_jsa_csv.  Raises ValidationError unless every row
    has 4 fields, there are exactly n_s * n_i rows, and the nu_s / nu_i
    columns match the header grid to 1e-9 of its half span.

    The body is read in one byte range per CPU, split on line ends: forked
    children parse the ranges after the first (each first counts the rows
    before its range) while the parent parses the first, and their values
    are copied into the result in row order.  Only re/im are converted to
    floats as long as nu_s/nu_i are the grid's own %.17g text."""
    header, start = _read_header(path)
    try:
        n_s = int(header["n_s"])
        n_i = int(header["n_i"])
        grid_s = FrequencyGrid(float(header["omega0_rad_s"]),
                               float(header["half_span_s_rad_s"]), n_s)
        grid_i = FrequencyGrid(float(header["omega0_i_rad_s"]),
                               float(header["half_span_i_rad_s"]), n_i)
        normalized = bool(int(header["normalized"]))
    except KeyError as exc:
        raise ValidationError(f"{path}: missing JSA header field {exc}") from None
    grids = (grid_s, grid_i)
    # S32 as in the rows: two widths compare through a copy (+8 MB peak RSS)
    texts = [_g17_slow(g.detunings).astype(_TEXT_ROW["nu"].base)
             for g in grids]

    def values(lo, hi):
        with open(path, "rb") as fh:
            first = sum(map(_data_lines, _pieces(fh, start, lo)))
            for piece in _pieces(fh, lo, hi):
                v = _piece_values(path, piece, first, grids, texts)
                first += len(v)
                yield np.ascontiguousarray(v).view(np.uint8).ravel()

    out = np.empty((n_s * n_i, 2))
    flat = memoryview(out).cast("B")
    got = 0   # bytes of re/im so far, 16 a row
    with open(path, "rb") as fh:
        ranges = _line_ranges(fh, start, os.fstat(fh.fileno()).st_size,
                              min(_cpu_count(), n_s))
    pieces = _blockwise(ranges, lambda r: values(*r))
    try:
        for v in pieces:
            if got + len(v) <= len(flat):   # rows past the grid: counted
                flat[got:got + len(v)] = v
            got += len(v)
    finally:
        pieces.close()
    if got != flat.nbytes:
        raise ValidationError(f"{path}: expected {n_s * n_i} data rows of 4 "
                              f"fields, got {got // 16} of 4")
    vals = out.view(complex).reshape(n_s, n_i)
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
