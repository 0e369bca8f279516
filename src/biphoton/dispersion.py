"""Crystal dispersion: refractive indices, wavevectors, group slopes and
phase-matching solvers for the uniaxial crystals shipped in ``data/materials.txt``.

Conventions
-----------
* Wavelengths handed to this module are **vacuum wavelengths in micrometres**
  (the natural unit of Sellmeier fits); everything returned is SI
  (rad/s, rad/m, s/m).
* A ray is ``"o"`` (ordinary), ``"e"`` (principal extraordinary) or
  ``("e", theta)`` — extraordinary at polar angle ``theta`` [rad] from the
  optic axis, using the index ellipsoid
  ``n_e(theta)^-2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2``
  so that ``("e", 0.0)`` coincides with the ordinary index.
* All functions are pure; materials are immutable records.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import PhaseMatchError, RangeError, ValidationError

C_LIGHT = 299792458.0  # m/s, exact by the SI definition of the metre

Ray = Union[str, tuple]

_FORM = "sellmeier_v1"


@dataclass(frozen=True)
class Material:
    """Uniaxial dispersion record: one Sellmeier coefficient list per axis."""

    name: str
    sellmeier_o: tuple
    sellmeier_e: tuple
    range_um: tuple  # (lo, hi), inclusive

    def check_range(self, wavelength_um) -> None:
        lam = np.asarray(wavelength_um, dtype=float)
        lo, hi = self.range_um
        if np.any(lam < lo) or np.any(lam > hi):
            bad = float(np.min(lam)) if np.any(lam < lo) else float(np.max(lam))
            raise RangeError(
                f"wavelength {bad:.6g} um outside validity range "
                f"[{lo:g}, {hi:g}] um of material {self.name}"
            )


# ----------------------------------------------------------------------
# Materials file handling
# ----------------------------------------------------------------------

def _parse_block(lines, path, blockno):
    kv = {}
    for ln in lines:
        if "=" not in ln:
            raise ValidationError(f"{path}: malformed line {ln!r} in block {blockno}")
        key, val = ln.split("=", 1)
        kv[key.strip()] = val.strip()
    missing = {"material", "axis", "form", "coeffs", "range_um"} - set(kv)
    if missing:
        raise ValidationError(f"{path}: block {blockno} missing keys {sorted(missing)}")
    if kv["form"] != _FORM:
        raise ValidationError(f"{path}: unsupported form {kv['form']!r} (expected {_FORM})")
    if kv["axis"] not in ("o", "e"):
        raise ValidationError(f"{path}: axis must be 'o' or 'e', got {kv['axis']!r}")
    coeffs = tuple(float(x) for x in kv["coeffs"].split(","))
    if len(coeffs) < 2 or (len(coeffs) - 2) % 3 != 0:
        raise ValidationError(f"{path}: coeffs must be c0,c1 plus (A,B,C) triples")
    lo, hi = (float(x) for x in kv["range_um"].split(","))
    if not 0 < lo < hi:
        raise ValidationError(f"{path}: bad range_um {lo},{hi}")
    return kv["material"], kv["axis"], coeffs, (lo, hi)


def load_materials(path) -> dict:
    """Parse a materials file into ``{name: Material}``.

    Each (material, axis) block supplies one coefficient list; a material is
    complete once both axes are present.  The stored validity range is the
    intersection of the two axis ranges.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    label = str(path)

    blocks, cur = [], []
    for raw in text.splitlines():
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            if cur:
                blocks.append(cur)
                cur = []
            continue
        cur.append(ln)
    if cur:
        blocks.append(cur)

    partial: dict = {}
    for i, block in enumerate(blocks):
        name, axis, coeffs, rng = _parse_block(block, label, i)
        partial.setdefault(name, {})[axis] = (coeffs, rng)

    out = {}
    for name, axes in partial.items():
        if set(axes) != {"o", "e"}:
            raise ValidationError(f"{label}: material {name} needs both 'o' and 'e' blocks")
        (co, rng_o), (ce, rng_e) = axes["o"], axes["e"]
        rng = (max(rng_o[0], rng_e[0]), min(rng_o[1], rng_e[1]))
        out[name] = Material(name=name, sellmeier_o=co, sellmeier_e=ce, range_um=rng)
    return out


_BUILTIN_PATH = os.path.join(os.path.dirname(__file__), "data", "materials.txt")
_BUILTIN_CACHE: dict = {}


def get_material(name: str, materials_path: str | None = None) -> Material:
    """Look up a material by name, from ``materials_path`` if given, else the
    built-in table (cached)."""
    if materials_path is not None:
        table = load_materials(materials_path)
    else:
        if not _BUILTIN_CACHE:
            _BUILTIN_CACHE.update(load_materials(_BUILTIN_PATH))
        table = _BUILTIN_CACHE
    try:
        return table[name]
    except KeyError:
        raise ValidationError(
            f"unknown material {name!r}; available: {sorted(table)}"
        ) from None


# ----------------------------------------------------------------------
# Sellmeier evaluation
# ----------------------------------------------------------------------

def _n2(coeffs: Sequence[float], lam_um):
    """n^2(lambda) for the sellmeier_v1 form (lambda in um)."""
    lam2 = np.asarray(lam_um, dtype=float) ** 2
    val = coeffs[0] + coeffs[1] * lam2
    for i in range(2, len(coeffs), 3):
        a, b, cc = coeffs[i], coeffs[i + 1], coeffs[i + 2]
        val = val + (a * lam2 + b) / (lam2 - cc)
    return val


def _dn2_dlam2(coeffs: Sequence[float], lam_um):
    """d(n^2)/d(lambda^2); each pole term (A l^2 + B)/(l^2 - C) differentiates
    to -(A C + B)/(l^2 - C)^2."""
    lam2 = np.asarray(lam_um, dtype=float) ** 2
    val = np.full_like(lam2, coeffs[1], dtype=float)
    for i in range(2, len(coeffs), 3):
        a, b, cc = coeffs[i], coeffs[i + 1], coeffs[i + 2]
        val = val - (a * cc + b) / (lam2 - cc) ** 2
    return val


def _principal(coeffs, lam_um):
    """(n, dn/dlam) for one principal axis, lam in um."""
    n = np.sqrt(_n2(coeffs, lam_um))
    # dn/dl = l * d(n^2)/d(l^2) / n
    dn = np.asarray(lam_um, dtype=float) * _dn2_dlam2(coeffs, lam_um) / n
    return n, dn


def _ray_kind(ray: Ray):
    if ray == "o":
        return "o", None
    if ray == "e":
        return "e", None
    if isinstance(ray, tuple) and len(ray) == 2 and ray[0] == "e":
        return "e", float(ray[1])
    raise ValidationError(f"unknown ray spec {ray!r}; use 'o', 'e' or ('e', theta)")


def _index_and_slope(material: Material, lam_um, ray: Ray):
    """(n, dn/dlam_um) for any ray spec, range-checked."""
    material.check_range(lam_um)
    kind, theta = _ray_kind(ray)
    if kind == "o":
        return _principal(material.sellmeier_o, lam_um)
    no, dno = _principal(material.sellmeier_o, lam_um)
    ne, dne = _principal(material.sellmeier_e, lam_um)
    if theta is None:
        return ne, dne
    ct2, st2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    n = 1.0 / np.sqrt(ct2 / no**2 + st2 / ne**2)
    # dn/dl of the ellipsoid index at fixed theta
    dn = n**3 * (ct2 * dno / no**3 + st2 * dne / ne**3)
    return n, dn


def refractive_index(material: Material, wavelength_um, ray: Ray):
    """Phase index n(lambda) for the requested ray.  Raises RangeError outside
    the shipped validity window of the fit."""
    n, _ = _index_and_slope(material, wavelength_um, ray)
    return n


def group_slope(material: Material, wavelength_um, ray: Ray):
    """Vector-friendly analytic group slope [s/m],
    k' = dk/domega = (n - lambda * dn/dlambda) / c."""
    n, dn = _index_and_slope(material, wavelength_um, ray)
    return (n - np.asarray(wavelength_um, dtype=float) * dn) / C_LIGHT


def wavevector(material: Material, wavelength_um, ray: Ray):
    """Vector-friendly k(lambda) [rad/m]."""
    n = refractive_index(material, wavelength_um, ray)
    lam_m = np.asarray(wavelength_um, dtype=float) * 1e-6
    return 2.0 * math.pi * n / lam_m


# ----------------------------------------------------------------------
# Phase-matching solvers
# ----------------------------------------------------------------------

def degenerate_noncollinear_angle(material: Material, pump_um: float,
                                  theta_pm: float) -> float:
    """Internal emission angle theta >= 0 of degenerate type-I PDC,
    solving kp(2*omega0, e at theta_pm) = 2 k(omega0, o) cos(theta).

    pump_um is the pump wavelength; the degenerate photons sit at 2*pump_um.
    """
    lam0 = 2.0 * pump_um
    n_p = refractive_index(material, pump_um, ("e", theta_pm))
    n_o = refractive_index(material, lam0, "o")
    ratio = float(n_p / n_o)
    if ratio > 1.0:
        raise PhaseMatchError(
            f"not phase-matchable: kp exceeds 2k for {material.name} at "
            f"theta_pm={math.degrees(theta_pm):.3f} deg (n_p/n_o = {ratio:.6f})"
        )
    return math.acos(ratio)


def bisect_root(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in [lo, hi], where f(lo) and f(hi) differ in sign: the
    bracket is halved until it is no wider than xtol (or stops shrinking in
    floating point) and its midpoint is returned."""
    lo_positive = f(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid in (lo, hi):
            return mid
        if (f(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid


_CUT_LO, _CUT_HI = 1e-9, math.pi / 2 - 1e-9  # open ends of the cut-angle bracket


def noncollinear_cut_angle(material: Material, pump_um: float,
                           theta: float) -> float:
    """Cut angle theta_pm making degenerate type-I PDC phase-match at internal
    emission angle theta: n_e(pump, theta_pm) = n_o(2*pump) cos(theta) = t.
    theta = 0 is the collinear cut.  On the index ellipsoid this is closed
    form: sin^2 theta_pm = (t^-2 - n_o^-2) / (n_e^-2 - n_o^-2), both principal
    indices at the pump."""
    t = float(refractive_index(material, 2.0 * pump_um, "o")) * math.cos(theta)
    n_o = float(refractive_index(material, pump_um, "o"))
    n_e = float(refractive_index(material, pump_um, "e"))
    s2 = (t**-2 - n_o**-2) / (n_e**-2 - n_o**-2) if n_e != n_o else math.nan
    if not math.sin(_CUT_LO) ** 2 <= s2 <= math.sin(_CUT_HI) ** 2:
        raise PhaseMatchError(
            f"no cut angle phase-matches {material.name} type-I at pump "
            f"{pump_um:g} um, theta={math.degrees(theta):.3f} deg")
    return math.asin(math.sqrt(s2))


def cut_group_slopes(material: Material, pump_um: float, theta_pm: float):
    """(kp', k'): pump group slope at lambda_p, extraordinary at the cut
    angle theta_pm, and daughter ordinary group slope at 2 lambda_p."""
    return (float(group_slope(material, pump_um, ("e", theta_pm))),
            float(group_slope(material, 2.0 * pump_um, "o")))


def typeII_cut_angle(material: Material, degenerate_um: float) -> float:
    """Cut angle for degenerate collinear type-II (e -> o + e) matching:
    2 n_e(lam/2, theta) = n_o(lam) + n_e(lam, theta), bisected on the open
    bracket (0, pi/2) with the principal indices evaluated once."""
    lam = degenerate_um
    material.check_range(0.5 * lam)
    material.check_range(lam)
    no_p, ne_p, no, ne = (_principal(c, x)[0] for x in (0.5 * lam, lam)
                          for c in (material.sellmeier_o, material.sellmeier_e))

    def f(th):  # the ellipsoid index of _index_and_slope at both wavelengths
        ct2, st2 = math.cos(th) ** 2, math.sin(th) ** 2
        return (2.0 * (1.0 / np.sqrt(ct2 / no_p**2 + st2 / ne_p**2)) - no
                - 1.0 / np.sqrt(ct2 / no**2 + st2 / ne**2))

    if f(_CUT_LO) * f(_CUT_HI) > 0:
        raise PhaseMatchError(f"no cut angle phase-matches {material.name} "
                              f"collinear type-II at {lam:g} um")
    return bisect_root(f, _CUT_LO, _CUT_HI, xtol=1e-14)


def _typeII_group_slopes(material: Material, lam_um: float):
    """(kp', ko', ke') for degenerate collinear type-II PDC at lam_um.

    Preferred geometry: birefringent angle matching, with the pump and the
    extraordinary daughter evaluated at the solved cut angle.  If no cut
    angle exists (e.g. KTP in the uniaxial approximation), fall back to
    principal-axis propagation with an ordinary-polarized pump.
    """
    lam_p = 0.5 * lam_um
    try:
        th = typeII_cut_angle(material, lam_um)
        kp = group_slope(material, lam_p, ("e", th))
        ke = group_slope(material, lam_um, ("e", th))
    except PhaseMatchError:
        kp = group_slope(material, lam_p, "o")
        ke = group_slope(material, lam_um, "e")
    ko = group_slope(material, lam_um, "o")
    return float(kp), float(ko), float(ke)


def gvm_wavelength(material: Material) -> float:
    """Degenerate PDC wavelength at which the pump group slope equals the
    mean of the signal/idler slopes for collinear type-II operation:
    kp' = (ko' + ke')/2.  Scan-and-bracket root search over the validity
    window in 0.02 um steps, refined by bisection."""
    lo = 2.0 * material.range_um[0]
    hi = material.range_um[1]
    if lo >= hi:
        raise PhaseMatchError(f"validity window of {material.name} cannot host "
                              "a degenerate pair and its pump simultaneously")

    def resid(lam):
        kp, ko, ke = _typeII_group_slopes(material, lam)
        return kp - 0.5 * (ko + ke)

    lam = lo + 1e-9
    prev_lam, prev_val = None, None
    while lam < hi - 1e-9:
        try:
            val = resid(lam)
        except PhaseMatchError:
            val = None
        if val is not None and prev_val is not None and prev_val * val < 0:
            root = bisect_root(resid, prev_lam, lam, xtol=1e-12)
            return float(root)
        prev_lam, prev_val = lam, val
        lam += 0.02
    raise PhaseMatchError(
        f"no group-velocity-matched wavelength for {material.name} in "
        f"[{lo:g}, {hi:g}] um"
    )


def typeII_contour_slope(material: Material, degenerate_um: float) -> float:
    """Linearized slope of the type-II phase-matching contours in the
    (nu_s, nu_i) plane: -(kp' - ko') / (kp' - ke') with the signal ordinary
    and the idler extraordinary."""
    kp, ko, ke = _typeII_group_slopes(material, degenerate_um)
    denom = kp - ke
    if abs(denom) < 1e-15:
        raise ValidationError(
            f"degenerate contour slope at {degenerate_um:g} um: |kp'-ke'| < 1e-15 s/m"
        )
    return -(kp - ko) / denom
