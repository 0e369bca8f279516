"""Reference implementations kept as test oracles.

Each function is the direct per-point form of a vectorized path in the
package: the per-cell JSA CSV writer and reader, the per-cell surface
table of `biphoton reproduce fig5|fig7`, the per-delay cosine sum of the
numeric dip, the per-angle polarization fringe, and the Bell-analyzer rate
with the full N^2 phase exp(i dw tau).  The tests compare the fast paths
against these on small grids.
"""

import csv
import io
import math

import numpy as np

from biphoton.errors import ValidationError
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
