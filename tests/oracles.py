"""Reference implementations kept as test oracles.

Each function is the direct per-point form of a vectorized path in the
package: the per-cell JSA CSV writer and reader, the per-row template
text of a grid's CSV body through Python's %.17g (the byte oracle of the
numpy formatter), the np.loadtxt reader
that converts every field (the oracle of the block-parallel one that
converts only re/im), the per-cell surface
table of `biphoton reproduce fig5|fig7`, the per-delay cosine sum of the
numeric dip, the per-angle polarization fringe, and the Bell-analyzer rate
with the full N^2 phase exp(i dw tau), and the noncollinear sinc JSA in
its own arithmetic order from before the sinc builders shared one body.
The tests compare the fast paths against these on small grids.  The cut-angle, sinc half-point and
group-velocity-matching solves are scipy's ``brentq`` at the tolerances the
package's bisection and closed-form type-I cut replaced.  The Schmidt
decomposition by one full SVD is the oracle of the rank-adaptive sketch,
the reduced kernel without its subnormal flush that of the flushed one, and
the type-II bisection over per-step ``refractive_index`` calls that of the
bisection over indices evaluated once.  Fock amplitudes come from Ryser
permanents of block-diagonal channel matrices, one spectral-label split at
a time, and two-mode Fock states go through a 2x2 splitter by their own
creation-operator expansion: the oracles of the one expansion engine.  The
pair-source permutation-pair sum that enumerates S_n, its partners and its
cycles on every call is the oracle of the six-fold rate's moment form, and
its Gram terms grouped by cycle type that of the moment form's constants.
The NS-gate reflectivities from a 41 x 41 grid polished by Nelder-Mead are
the oracle of the search that solves the reduced system by bisection.
The exchange-symmetry residual, the Schmidt-sum reconstruction and the
Gaussian model's geometric Schmidt spectrum with its truncated tail are
kept here for the tests that check the package against them.  The JSA
builders that make a new array at every N^2 stage (np.sinc, the
three-factor Gaussian-beam product, the model exponent, normalized()'s
quotient), the index taken as the first half of (n, dn/dlambda), and the
Bell analyzer with its four N^2 temporaries are the bit-for-bit oracles of
the in-place ones.
"""

import csv
import io
import itertools
import math
import warnings
from collections import Counter

import numpy as np
from scipy.optimize import brentq, minimize

from biphoton import dispersion, focksim, interference, schmidt, spectra
from biphoton.dispersion import C_LIGHT
from biphoton.errors import PhaseMatchError, ValidationError
from biphoton.spectra import FrequencyGrid, JointSpectralAmplitude


def write_jsa_csv(jsa, path) -> None:
    gs, gi = jsa.grid_s, jsa.grid_i
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# omega0_rad_s={gs.omega0:.17g}\n")
        fh.write(f"# n_s={gs.n_points} n_i={gi.n_points}\n")
        fh.write(f"# half_span_s_rad_s={gs.half_span:.17g} "
                 f"half_span_i_rad_s={gi.half_span:.17g}\n")
        fh.write(f"# omega0_i_rad_s={gi.omega0:.17g}\n")
        fh.write(f"# normalized={int(jsa.norm_flag)}\n")
        fh.write("nu_s,nu_i,re,im\n")
        ns, ni = gs.detunings, gi.detunings
        v = jsa.values
        for a in range(gs.n_points):
            for b in range(gi.n_points):
                fh.write(f"{ns[a]:.17g},{ni[b]:.17g},"
                         f"{v[a, b].real:.17g},{v[a, b].imag:.17g}\n")


def grid_rows_text(nu_s, nu_i, values) -> str:
    """The body spectra.write_grid_rows writes, made by Python's %.17g one
    row at a time through a template that holds the row's nu_i texts."""
    complex_values = np.iscomplexobj(values)
    fields = ",%.17g,%.17g\n" if complex_values else ",%.17g\n"
    # "\0" stands for the row's nu_s; "%.17g" text holds no "%" or "\0"
    template = "".join("\0,%.17g" % x + fields for x in nu_i)
    out = []
    for ns, row in zip(nu_s, values):
        row = np.ascontiguousarray(row, dtype=complex if complex_values
                                   else float)
        out.append(template.replace("\0", "%.17g" % ns)
                   % tuple(row.view(np.float64).tolist()))
    return "".join(out)


def read_jsa_csv(path) -> JointSpectralAmplitude:
    header: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body_start = 0
    for i, ln in enumerate(lines):
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    k, vv = tok.split("=", 1)
                    header[k] = vv
        elif ln.startswith("nu_s"):
            body_start = i + 1
            break
    n_s = int(header["n_s"])
    n_i = int(header["n_i"])
    grid_s = FrequencyGrid(float(header["omega0_rad_s"]),
                           float(header["half_span_s_rad_s"]), n_s)
    grid_i = FrequencyGrid(float(header.get("omega0_i_rad_s",
                                            header["omega0_rad_s"])),
                           float(header["half_span_i_rad_s"]), n_i)
    normalized = bool(int(header.get("normalized", "0")))
    vals = np.zeros((n_s, n_i), dtype=complex)
    rows = lines[body_start:]
    if len(rows) < n_s * n_i:
        raise ValidationError(f"expected {n_s * n_i} data rows, got {len(rows)}")
    idx = 0
    for a in range(n_s):
        for b in range(n_i):
            parts = rows[idx].split(",")
            vals[a, b] = complex(float(parts[2]), float(parts[3]))
            idx += 1
    return JointSpectralAmplitude(grid_s, grid_i, vals, norm_flag=normalized)


def read_jsa_csv_loadtxt(path) -> JointSpectralAmplitude:
    """The np.loadtxt reader: every field of the body converted to a float,
    then the nu_s/nu_i columns compared with the header grid by value."""
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
        grid_i = FrequencyGrid(float(header["omega0_i_rad_s"]),
                               float(header["half_span_i_rad_s"]), n_i)
        normalized = bool(int(header["normalized"]))
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


def symmetry_residual(jsa) -> float:
    """L2 norm of S(nu_s, nu_i) - S(nu_i, nu_s); requires a square grid pair."""
    if (jsa.grid_s.n_points != jsa.grid_i.n_points
            or jsa.grid_s.half_span != jsa.grid_i.half_span):
        raise ValidationError("symmetry residual needs identical square grids")
    return float(math.sqrt(np.sum(np.abs(jsa.values - jsa.values.T) ** 2)
                           * jsa.measure))


def schmidt_reconstruct(dec) -> np.ndarray:
    """sum_n sqrt(lambda_n) psi_n(nu_s) phi_n(nu_i) on the grid."""
    w = np.sqrt(dec.eigenvalues)
    return (dec.signal_modes.T * w) @ dec.idler_modes


def surface_csv(grid_s, grid_i, values) -> str:
    out = io.StringIO()
    out.write("# columns: nu_s_rad_s,nu_i_rad_s,value\n")
    out.write("# omega0_s_rad_s=%.17g omega0_i_rad_s=%.17g\n"
              % (grid_s.omega0, grid_i.omega0))
    w = csv.writer(out, lineterminator="\n")
    for i, ns in enumerate(grid_s.detunings):
        for j, ni in enumerate(grid_i.detunings):
            w.writerow(["%.17g" % ns, "%.17g" % ni, "%.17g" % values[i, j]])
    return out.getvalue()


def noncollinear_sinc_values(material, L: float, pump, theta: float,
                             grid) -> np.ndarray:
    """Normalized alpha(nu_s + nu_i) sinc(L dk_z / 2) on grid x grid with one
    ordinary wavevector k for both arms, dk_z = kp - (k + k) cos(theta),
    and the pump detuning taken as omega_p - 2 omega0."""
    lam_um = lambda omega: 2.0 * math.pi * C_LIGHT / np.asarray(omega) * 1e6
    th_pm = dispersion.noncollinear_cut_angle(
        material, 0.5 * lam_um(pump.omega0), theta)
    omega = grid.omegas
    k = dispersion.wavevector(material, lam_um(omega), "o")
    omega_p = omega[:, None] + omega[None, :]
    kp = dispersion.wavevector(material, lam_um(omega_p), ("e", th_pm))
    dkz = kp - (k[:, None] + k[None, :]) * math.cos(theta)
    alpha = np.exp(-(((omega_p - 2.0 * pump.omega0) / pump.sigma_p) ** 2))
    values = alpha * np.sinc(dkz * L / (2.0 * math.pi))
    return values / np.sqrt(np.sum(values**2) * grid.spacing**2)


def refractive_index(material, wavelength_um, ray):
    """The index as the first half of (n, dn/dlambda)."""
    return dispersion._index_and_slope(material, wavelength_um, ray)[0]


def wavevector(material, wavelength_um, ray):
    lam_m = np.asarray(wavelength_um, dtype=float) * 1e-6
    return 2.0 * math.pi * refractive_index(material, wavelength_um, ray) / lam_m


def normalized_jsa(grid, values) -> JointSpectralAmplitude:
    """values on grid x grid, flagged and normalized through a complex copy
    and normalized()'s quotient array."""
    warn = spectra._boundary_leakage(values) > spectra.BOUNDARY_LEAK
    return JointSpectralAmplitude(grid, grid, np.asarray(values, dtype=complex),
                                  boundary_warning=warn).normalized()


def sellmeier_sinc_jsa(material, L: float, pump, grid, th_pm: float, ray_i,
                       cos_theta: float) -> JointSpectralAmplitude:
    """alpha(nu_s + nu_i) sinc(L dk / 2) with np.sinc, each N^2 stage a new
    array: the body both Sellmeier-sinc builders share."""
    lam_um = lambda omega: 2.0 * math.pi * C_LIGHT / np.asarray(omega) * 1e6
    omega = grid.omegas
    ks = wavevector(material, lam_um(omega), "o")
    ki = wavevector(material, lam_um(omega), ray_i)
    omega_p = omega[:, None] + omega[None, :]
    kp = wavevector(material, lam_um(omega_p), ("e", th_pm))
    dk = kp - ks[:, None] * cos_theta - ki[None, :] * cos_theta
    nu_sum = (omega[:, None] - pump.omega0) + (omega[None, :] - pump.omega0)
    alpha = np.exp(-((np.asarray(nu_sum, dtype=float) / pump.sigma_p) ** 2))
    phi = np.sinc(np.asarray(dk, dtype=float) * L / (2.0 * math.pi))
    return normalized_jsa(grid, alpha * phi)


def gaussian_beam_factors(material, pump, beam, grid):
    """(pump envelope, longitudinal, transverse) surfaces, each a new array."""
    gam = spectra.gaussian_sinc_gamma()
    kp_prime, k_prime = dispersion.cut_group_slopes(
        material, pump.pump_um,
        dispersion.noncollinear_cut_angle(material, pump.pump_um, beam.theta))
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    dkz = (kp_prime - k_prime * math.cos(beam.theta)) * (ns + ni)
    dkt = -k_prime * math.sin(beam.theta) * (ns - ni)
    pump_f = np.exp(-(((ns + ni) / pump.sigma_p) ** 2))
    long_f = np.exp(-gam * dkz**2 * beam.L**2 / 4.0)
    trans_f = np.exp(-(dkt**2) * beam.w0**2 / 4.0)
    return pump_f, long_f, trans_f


def gaussian_beam_jsa(material, pump, beam, grid) -> JointSpectralAmplitude:
    pump_f, long_f, trans_f = gaussian_beam_factors(material, pump, beam, grid)
    return normalized_jsa(grid, pump_f * long_f * trans_f)


def gaussian_model_jsa(model, grid) -> JointSpectralAmplitude:
    ns = grid.detunings[:, None]
    ni = grid.detunings[None, :]
    expo = -2.0 * (ns + ni) ** 2 / model.sigma**2
    if math.isfinite(model.sigma_F):
        expo = expo - 2.0 * (ns**2 + ni**2) / model.sigma_F**2
    return normalized_jsa(grid, np.exp(expo))


def homi_rates(jsa, taus) -> np.ndarray:
    """Rc(tau) = 1 - sum_ab |rho_ab|^2 cos((nu_a - nu_b) tau) ds^2, one N^2
    cosine per delay."""
    f = jsa.values
    rho = (f @ f.conj().T) * jsa.grid_i.spacing
    ds = jsa.grid_s.spacing
    w2 = np.abs(rho) ** 2
    nu = jsa.grid_s.detunings
    diff = nu[:, None] - nu[None, :]
    rates = np.empty(len(taus))
    for j, tau in enumerate(taus):
        rates[j] = 1.0 - float(np.sum(w2 * np.cos(diff * tau))) * ds**2
    return rates


def reduced_signal_kernel(jsa) -> np.ndarray:
    """rho = f f^H dnu_i with every entry of f, subnormal ones included."""
    return (jsa.values @ jsa.values.conj().T) * jsa.grid_i.spacing


def schmidt_svd(jsa, keep_tol: float = schmidt.KEEP_TOL):
    """Schmidt decomposition from one full SVD of the weighted amplitude,
    truncated at keep_tol, each signal mode's first sample within 1e-6 of
    its magnitude maximum made real positive; ``truncated_mass`` is
    1 - sum of the kept eigenvalues."""
    ds, di = jsa.grid_s.spacing, jsa.grid_i.spacing
    u, s, vh = np.linalg.svd(jsa.values * math.sqrt(ds * di),
                             full_matrices=False)
    lam = s**2
    keep = lam >= keep_tol
    lam, u, vh = lam[keep], u[:, keep], vh[keep, :]
    signal = (u / math.sqrt(ds)).T.copy()
    idler = vh / math.sqrt(di)
    for n in range(signal.shape[0]):
        mags = np.abs(signal[n])
        j = int(np.argmax(mags >= (1.0 - 1e-6) * mags.max()))
        phase = signal[n, j] / abs(signal[n, j])
        signal[n] = signal[n] / phase
        idler[n] = idler[n] * phase
    return schmidt.SchmidtDecomposition(
        eigenvalues=lam, signal_modes=signal, idler_modes=idler,
        K=schmidt.cooperativity(lam / lam.sum()),
        truncated_mass=float(max(0.0, 1.0 - lam.sum())),
        grid_s=jsa.grid_s, grid_i=jsa.grid_i)


def polarization_fringe(pair, theta_a: float, theta_b: float) -> float:
    """One angle at a time, the overlap recomputed on every call."""
    a = math.cos(theta_a) * math.sin(theta_b)
    b = math.sin(theta_a) * math.cos(theta_b)
    if pair.sign == "-":
        b = -b
    ov = complex(np.sum(pair.f.values.conj() * pair.g.values)
                 * pair.f.measure).real
    return a * a + b * b + 2.0 * a * b * ov


def fringe_visibility(pair, theta_b: float = math.pi / 4,
                      n_scan: int = 721) -> float:
    thetas = np.linspace(0.0, math.pi, n_scan)
    rates = np.array([polarization_fringe(pair, t, theta_b) for t in thetas])
    hi, lo = float(rates.max()), float(rates.min())
    return (hi - lo) / (hi + lo)


def bell_analyzer_rates_by_temporaries(pair, tau):
    """The package's Bell-analyzer rates with a new array for each of
    conj(f), conj(f) g^T, f - g^T and its squared modulus."""
    f, g = pair.f.values, pair.g.values
    gs, gi, meas = pair.f.grid_s, pair.f.grid_i, pair.f.measure
    deph = interference._dephasing(
        f.conj() * g.T, gs.omega0 - gi.omega0 + gs.detunings, gi.detunings,
        np.atleast_1d(tau))
    r_plus = 0.25 * (float(np.sum(np.abs(f - g.T) ** 2)) + 2.0 * deph) * meas
    r_minus = 0.5 * float(np.vdot(f, f).real + np.vdot(g, g).real) * meas \
        - r_plus
    return ((float(r_plus[0]), float(r_minus[0])) if np.ndim(tau) == 0
            else (r_plus, r_minus))


def bell_analyzer_rates(pair, tau: float):
    """Rc+- with the full N^2 phase exp(i (w1 - w2) tau)."""
    f, g = pair.f.values, pair.g.values
    nu_s = pair.f.grid_s.detunings
    nu_i = pair.f.grid_i.detunings
    dw = (pair.f.grid_s.omega0 - pair.f.grid_i.omega0) \
        + nu_s[:, None] - nu_i[None, :]
    cross = np.exp(1j * dw * tau) * g.T
    meas = pair.f.measure
    r_plus = 0.25 * float(np.sum(np.abs(f - cross) ** 2)) * meas
    r_minus = 0.25 * float(np.sum(np.abs(f + cross) ** 2)) * meas
    return r_plus, r_minus


_CUT_BRACKET = (1e-9, math.pi / 2 - 1e-9)


def _brentq_cut_angle(f):
    """brentq root of f(theta_pm) on the cut-angle bracket, or None when the
    bracket holds no sign change."""
    lo, hi = _CUT_BRACKET
    if f(lo) * f(hi) > 0:
        return None
    return brentq(f, lo, hi, xtol=1e-14)


def noncollinear_cut_angle(material, pump_um: float, theta: float):
    """n_e(pump, theta_pm) = n_o(2 pump) cos(theta), or None if unmatchable."""
    n = dispersion.refractive_index
    target = n(material, 2.0 * pump_um, "o") * math.cos(theta)
    return _brentq_cut_angle(
        lambda th: n(material, pump_um, ("e", th)) - target)


def typeII_cut_angle(material, lam: float):
    """2 n_e(lam/2, theta) = n_o(lam) + n_e(lam, theta), or None."""
    n = dispersion.refractive_index
    return _brentq_cut_angle(
        lambda th: (2.0 * n(material, 0.5 * lam, ("e", th))
                    - n(material, lam, "o") - n(material, lam, ("e", th))))


def typeII_cut_angle_bisect(material, lam: float) -> float:
    """The package's bisection with three ``refractive_index`` calls, each
    range-checked, per step."""
    n = dispersion.refractive_index

    def f(th):
        return (2.0 * n(material, 0.5 * lam, ("e", th))
                - n(material, lam, "o") - n(material, lam, ("e", th)))

    lo, hi = _CUT_BRACKET
    if f(lo) * f(hi) > 0:
        raise PhaseMatchError("no type-II cut angle")
    return dispersion.bisect_root(f, lo, hi, xtol=1e-14)


def sinc_half_point() -> float:
    return brentq(lambda x: math.sin(x) / x - 0.5, 1e-9, math.pi - 1e-9,
                  xtol=1e-15)


def gvm_wavelength(material, scan_step_um: float = 0.02) -> float:
    """Scan-and-bracket over the validity window, then brentq refinement,
    with every type-II cut angle from brentq as well."""
    def resid(lam):
        th = typeII_cut_angle(material, lam)
        rays = ("o", "o", "e") if th is None else (("e", th), "o", ("e", th))
        kp = dispersion.group_slope(material, 0.5 * lam, rays[0])
        ko = dispersion.group_slope(material, lam, rays[1])
        ke = dispersion.group_slope(material, lam, rays[2])
        return float(kp) - 0.5 * (float(ko) + float(ke))

    lam, hi = 2.0 * material.range_um[0] + 1e-9, material.range_um[1]
    prev_lam, prev_val = None, None
    while lam < hi - 1e-9:
        val = resid(lam)
        if prev_val is not None and prev_val * val < 0:
            return brentq(resid, prev_lam, lam, xtol=1e-12)
        prev_lam, prev_val = lam, val
        lam += scan_step_um
    raise AssertionError(f"no sign change of the GVM residual for {material.name}")


def permanent(matrix) -> complex:
    """Permanent by Ryser's inclusion-exclusion with Gray-code updates,
    O(2^n n); capped at n = MAX_PERMANENT."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("permanent needs a square matrix")
    n = a.shape[0]
    cap = focksim.MAX_PERMANENT
    if n > cap:
        raise ValidationError(f"permanent capped at {cap}x{cap}")
    if n == 0:
        return 1.0 + 0.0j
    sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            sums += a[:, j]
        else:
            sums -= a[:, j]
        prev = gray
        if bin(gray).count("1") & 1:
            total -= np.prod(sums)
        else:
            total += np.prod(sums)
    if n & 1:
        total = -total
    return complex(total)


def _iter_mode_configs(mode_counts, capacities):
    """All ways to split each spectral mode's multiplicity over channels so
    channel totals match capacities; yields tuples of (channel, mode, k)."""
    modes = sorted(mode_counts)
    nch = len(capacities)

    def over_modes(mi, caps, acc):
        if mi == len(modes):
            yield tuple(acc)
            return
        m = modes[mi]

        def over_channels(ch, left, caps, acc2):
            if ch == nch:
                if left == 0:
                    yield from over_modes(mi + 1, caps, acc + acc2)
                return
            top = min(left, caps[ch])
            for k in range(top, -1, -1):
                if k:
                    nxt = list(caps)
                    nxt[ch] -= k
                    yield from over_channels(ch + 1, left - k, nxt,
                                             acc2 + [(ch, m, k)])
                else:
                    yield from over_channels(ch + 1, left, caps, acc2)

        yield from over_channels(0, mode_counts[m], list(caps), [])

    yield from over_modes(0, list(capacities), [])


def _config_amplitude(u, nz, photons, config):
    """<config | U | photons> for one spectral-label assignment, or None
    when a zero row/column forces a vanishing permanent."""
    slots = []
    out_norm = 1.0
    for d, m, k in config:
        out_norm *= math.factorial(k)
        slots.extend([(d, m)] * k)
    for d, ms in slots:
        if not any(mm == ms and nz[d, cc] for cc, mm in photons):
            return None
    for cc, mm in photons:
        if not any(ms == mm and nz[d, cc] for d, ms in slots):
            return None
    n = len(photons)
    mat = np.zeros((n, n), dtype=complex)
    for i, (d, ms) in enumerate(slots):
        for j, (cc, mm) in enumerate(photons):
            if mm == ms:
                mat[i, j] = u[d, cc]
    in_norm = 1.0
    for cnt in Counter(photons).values():
        in_norm *= math.factorial(cnt)
    return permanent(mat) / math.sqrt(in_norm * out_norm)


def pattern_probability(network, inp, pattern) -> float:
    """Input terms grouped by mode multiset; within a group, every output
    (channel, mode) occupation with the pattern's channel counts is a
    coherent sum over the group's terms of one permanent each."""
    u = network.unitary
    nz = np.abs(u) > 0.0
    groups = {}
    for amp, photons in inp.terms:
        key = tuple(sorted(m for _, m in photons))
        groups.setdefault(key, []).append((amp, photons))
    total = 0.0
    for key, terms in groups.items():
        mode_counts = Counter(key)
        for config in _iter_mode_configs(mode_counts, pattern.counts):
            out_amp = 0.0 + 0.0j
            for amp, photons in terms:
                a = _config_amplitude(u, nz, photons, config)
                if a is not None:
                    out_amp += amp * a
            if out_amp != 0.0:
                total += abs(out_amp) ** 2
    return total


def apply_two_mode(state: dict, b: np.ndarray) -> dict:
    """Evolve {(n0, n1): amp} under a 2x2 channel unitary b
    (a_c+ -> sum_d b[d, c] a_d+)."""
    out = {}
    for (n0, n1), amp in state.items():
        poly = {(0, 0): amp / math.sqrt(math.factorial(n0)
                                        * math.factorial(n1))}
        for col, reps in ((0, n0), (1, n1)):
            for _ in range(reps):
                nxt = {}
                for (k0, k1), cval in poly.items():
                    for d, key in ((0, (k0 + 1, k1)), (1, (k0, k1 + 1))):
                        add = cval * b[d, col]
                        if add != 0.0:
                            nxt[key] = nxt.get(key, 0.0 + 0.0j) + add
                poly = nxt
        for (k0, k1), cval in poly.items():
            amp_out = cval * math.sqrt(math.factorial(k0)
                                       * math.factorial(k1))
            if amp_out != 0.0:
                out[(k0, k1)] = out.get((k0, k1), 0.0 + 0.0j) + amp_out
    return {k: v for k, v in out.items() if v != 0.0}


def cycles(perm):
    """Cycles of a permutation given as a tuple of images."""
    seen, out = set(), []
    for start in range(len(perm)):
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        if cycle:
            out.append(cycle)
    return out


def perm_pairs(n):
    """S_n in itertools.permutations order, the partner table
    partner[p][s] = index of perms[p] o perms[s] (tau = pi o sigma, so
    tau sigma^-1 = pi) and each permutation's cycles, enumerated on each
    call."""
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    partners = [[index[tuple(pi[k] for k in sigma)] for sigma in perms]
                for pi in perms]
    return perms, partners, [cycles(pi) for pi in perms]


def pair_gram_terms(network, pairs, pattern):
    """Per permutation pi of the sources, in perm_pairs order, (its cycles,
    the Gram term sum_sigma conj(a_{pi sigma}) a_sigma), and
    |sum_sigma a_sigma|^2, for the permutation amplitudes
    a_sigma = prod_k M[k, sigma k] of the signal submatrix M (rows for the
    pattern's non-idler counts, columns for the signal inputs)."""
    n = len(pairs)
    idlers = [i for _, i in pairs]
    rows = [d for d, c in enumerate(pattern.counts) if d not in idlers
            for _ in range(c)]
    sub = network.unitary[np.ix_(rows, [s for s, _ in pairs])]
    perms, partners, cycle_lists = perm_pairs(n)
    amps = np.array([np.prod(sub[range(n), p]) for p in perms])
    terms = [(cs, np.vdot(amps[partner], amps))
             for partner, cs in zip(partners, cycle_lists)]
    return terms, abs(np.sum(amps)) ** 2


def pair_source_probability(network, pairs, weights, pattern) -> float:
    """pattern_probability of from_pair_sources(pairs, weights) when every
    idler sits on a channel the network leaves alone and is counted there
    (no input checks).  Tracing out the spectrally blind idler detectors
    leaves signal j in the diagonal state sum_n lambda_jn |n><n|, so

        P = (1 / prod_d m_d!) sum_{sigma, tau in S_n}
            prod_k M[k, sigma k] conj(M[k, tau k])
            prod_{cycles C of tau sigma^-1} sum_n prod_{j in C} lambda_jn

    (Tichy, PRA 91, 022316; Shchesnovich, PRA 91, 013844), with S_n, the
    partners and the cycles enumerated on each call.  Ladders of unequal
    length are zero-padded; the smallest cycle-trace product is split off
    against |perm M|^2 so that a pattern indistinguishable photons cannot
    reach stays dark to roundoff."""
    pairs = [(int(s), int(i)) for s, i in pairs]
    weights, _ = focksim._pair_weights(pairs, weights)
    lam = np.zeros((len(pairs), max(len(w) for w in weights)))
    for j, w in enumerate(weights):
        lam[j, :len(w)] = np.abs(w) ** 2
    terms, amp_sq = pair_gram_terms(network, pairs, pattern)
    traces = [math.prod(float(np.sum(np.prod(lam[c], axis=0))) for c in cs)
              for cs, _ in terms]
    floor = min(traces)
    total = floor * amp_sq
    for trace, (_, gram) in zip(traces, terms):
        total += (trace - floor) * gram
    norm = math.prod(math.factorial(c) for c in pattern.counts)
    return float(np.real(total)) / norm


def _ns_map_residual(x) -> float:
    """Distance from the target map shape (c0, c1, c2) proportional to
    (1, 1, -1); zero exactly on the sign-flipping solution set."""
    r, s = x
    if not (1e-6 < r < 1.0 - 1e-6 and 1e-6 < s < 1.0 - 1e-6):
        return 10.0
    m = focksim.ns_conditional_map(
        focksim.NSGateConfig(r=float(r), s=float(s)))
    return abs(m.c1 - m.c0) ** 2 + abs(m.c2 + m.c0) ** 2


def ns_search_grid_simplex() -> focksim.NSSearchResult:
    """Every strict local minimum of the map residual on a 41 x 41 (r, s)
    grid over [0.02, 0.98], polished with Nelder-Mead; among the polished
    points that satisfy the (1, 1, -1) proportionality to 1e-10, the one
    with the highest success probability |c0|^2 wins."""
    rs = np.linspace(0.02, 0.98, 41)
    vals = np.array([[_ns_map_residual((r, s)) for s in rs] for r in rs])
    starts = []
    for i in range(len(rs)):
        for j in range(len(rs)):
            patch = vals[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
            if vals[i, j] <= patch.min():
                starts.append((float(rs[i]), float(rs[j])))
    best = None
    for x0 in starts:
        res = minimize(_ns_map_residual, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-24,
                                "maxiter": 4000})
        if res.fun > 1e-10:
            continue
        r, s = float(res.x[0]), float(res.x[1])
        cand = focksim.NSSearchResult(
            r, s, float(res.fun),
            focksim.ns_conditional_map(focksim.NSGateConfig(r=r, s=s)))
        if best is None or cand.map.success > best.map.success:
            best = cand
    if best is None:
        raise ValidationError("no (r, s) satisfied the map proportionality")
    return best


def analytic_eigenvalues(mu: float, n_max: int) -> tuple:
    """Geometric spectrum lambda_n = (1-mu^2) mu^(2n) for n = 0..n_max,
    plus the truncated tail mass mu^(2(n_max+1))."""
    if not 0.0 <= mu < 1.0:
        raise ValidationError("need 0 <= mu < 1")
    n = np.arange(n_max + 1)
    lam = (1.0 - mu**2) * mu ** (2 * n)
    tail = mu ** (2 * (n_max + 1))
    return lam, float(tail)
