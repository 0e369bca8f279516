"""Source-design calculators for the transverse-pump engineering technique,
plus the photon-economy figure of merit.

Geometry: degenerate noncollinear type-I downconversion.  Both daughter
photons are ordinary rays emitted at internal angle theta on either side of
an extraordinary pump propagating along the cut direction.  The longitudinal
phase mismatch acts on the frequency sum with strength L*(kp' - k' cos theta)
while the pump transverse profile acts on the frequency difference with
strength w0 * k' sin theta; equating the two widths removes the spectral
correlation.  gamma is the gaussian fit constant for the sinc^2 longitudinal
profile (see spectra.gaussian_sinc_gamma).

Economy records use L in mm, P in W, Rs in Hz, so R is in Hz/(mm W); several
published tables print a per-meter header over values that only work out
per-millimeter, so the unit is stated explicitly everywhere here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import dispersion
from .errors import ValidationError
from .spectra import REGIME_FACTOR, gaussian_sinc_gamma

ECONOMY_REL_TOL = 0.02


@dataclass(frozen=True)
class DesignReport:
    """Echo of a design query with the computed engineering quantities and
    the regime flags (each flag is accompanied by the ratio it was judged
    on, so a "valid" verdict is always auditable)."""

    material: str
    pump_um: float
    crystal_length: float          # m
    theta: float                   # rad, internal emission half-angle
    theta_pm: float                # rad, pump cut angle that phase-matches
    waist: float                   # m, evaluated w0 (given or factorable)
    factorable_waist: float        # m, w0 satisfying the matching condition
    sigma_p_min: float             # rad/s, pump-bandwidth threshold
    gamma: float
    margin: float                  # waist / factorable_waist
    freq_correlated: bool          # margin >= REGIME_FACTOR
    waist_regime_ratio: float      # (w0/L) / (sqrt(gamma) sin^2 theta)
    waist_regime_ok: bool
    sigma_p: Optional[float] = None
    pump_above_threshold: Optional[bool] = None


def factorable_waist(material, pump_um: float, L: float, theta: float) -> float:
    """Pump waist w0 = L sqrt(gamma) (kp' - k' cos theta)/(k' sin theta) that
    balances the longitudinal and transverse spectral widths.  L and the
    result are in meters; theta in radians.

    theta = 0 is rejected: a collinear geometry has no transverse lever arm,
    so no finite waist can do the job.
    """
    return _factorable_waist(
        dispersion.noncollinear_group_slopes(material, pump_um, theta), L, theta)


def _factorable_waist(slopes, L: float, theta: float) -> float:
    """factorable_waist from the group slopes (kp', k')."""
    if L <= 0.0:
        raise ValidationError("crystal length must be positive")
    if theta <= 0.0:
        raise ValidationError(
            "collinear geometry has no transverse lever (theta must be > 0)")
    kp, kd = slopes
    num = kp - kd * math.cos(theta)
    if num <= 0.0:
        raise ValidationError(
            "pump group slope does not exceed the daughter projection; "
            "no positive waist solves the matching condition")
    return L * math.sqrt(gaussian_sinc_gamma()) * num / (kd * math.sin(theta))


def pump_bandwidth_threshold(material, pump_um: float, L: float,
                             theta: float) -> float:
    """Minimum pump bandwidth sigma_p_min = sqrt(2)/(gamma L (kp' - k' cos
    theta)) below which the pump envelope, not the phase matching, limits the
    sum-frequency width and the factorable design degrades."""
    return _pump_bandwidth_threshold(
        dispersion.noncollinear_group_slopes(material, pump_um, theta), L, theta)


def _pump_bandwidth_threshold(slopes, L: float, theta: float) -> float:
    """pump_bandwidth_threshold from the group slopes (kp', k')."""
    if L <= 0.0:
        raise ValidationError("crystal length must be positive")
    kp, kd = slopes
    num = kp - kd * math.cos(theta)
    if abs(num) < 1e-18:
        raise ValidationError("vanishing group-slope difference")
    return math.sqrt(2.0) / (gaussian_sinc_gamma() * L * num)


def freq_correlated_margin(material, pump_um: float, L: float, theta: float,
                           w0: float) -> float:
    """w0 / factorable_waist: how far the actual focusing sits above the
    matched point.  Margins >= REGIME_FACTOR put the source in the
    frequency-correlated regime (positively correlated joint intensity);
    margin = 1 is the factorable design itself."""
    if w0 <= 0.0:
        raise ValidationError("waist must be positive")
    return w0 / factorable_waist(material, pump_um, L, theta)


def validate_waist_regime(w0: float, L: float, theta: float):
    """(ratio, flag): ratio = (w0/L)/(sqrt(gamma) sin^2 theta) must be large
    for the quadratic-in-transverse-k expansion behind the gaussian-beam JSA
    to hold; flag is ratio >= REGIME_FACTOR."""
    if w0 <= 0.0 or L <= 0.0:
        raise ValidationError("w0 and L must be positive")
    denom = math.sqrt(gaussian_sinc_gamma()) * math.sin(theta) ** 2
    ratio = math.inf if denom == 0.0 else (w0 / L) / denom
    return ratio, ratio >= REGIME_FACTOR


def design_report(material, pump_um: float, L: float, theta: float,
                  w0: Optional[float] = None,
                  sigma_p: Optional[float] = None) -> DesignReport:
    """Run all the design calculators for one configuration.  w0 defaults to
    the factorable waist (margin exactly 1)."""
    theta_pm = dispersion.noncollinear_cut_angle(material, pump_um, theta)
    slopes = dispersion.cut_group_slopes(material, pump_um, theta_pm)
    w0_fact = _factorable_waist(slopes, L, theta)
    sp_min = _pump_bandwidth_threshold(slopes, L, theta)
    w0_eval = w0_fact if w0 is None else w0
    margin = w0_eval / w0_fact
    ratio, ok = validate_waist_regime(w0_eval, L, theta)
    return DesignReport(
        material=material.name, pump_um=pump_um, crystal_length=L, theta=theta,
        theta_pm=theta_pm, waist=w0_eval, factorable_waist=w0_fact,
        sigma_p_min=sp_min, gamma=gaussian_sinc_gamma(),
        margin=margin, freq_correlated=margin >= REGIME_FACTOR,
        waist_regime_ratio=ratio, waist_regime_ok=ok,
        sigma_p=sigma_p,
        pump_above_threshold=None if sigma_p is None else sigma_p >= sp_min)


# ----------------------------------------------------------------------
# Photon economy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EconomyRecord:
    """One pair-source benchmark row.  r_figure = singles_rate_hz /
    (crystal_length_mm * pump_power_w), always recomputed from the raw
    columns; r_printed is an optional externally quoted value, and the
    record is flagged when the two disagree by more than rel_tol."""

    label: str
    crystal_length_mm: float
    pump_power_w: float
    singles_rate_hz: float
    coincidence_ratio: float       # Rc/Rs as a fraction
    r_figure: float                # Hz/(mm W)
    r_printed: Optional[float] = None
    flagged: bool = False


def economy_figure(label: str, crystal_length_mm: float, pump_power_w: float,
                   singles_rate_hz: float, coincidence_ratio: float,
                   r_printed: Optional[float] = None,
                   rel_tol: float = ECONOMY_REL_TOL) -> EconomyRecord:
    if not rel_tol >= 0.0:
        raise ValidationError(f"rel_tol must be >= 0, got {rel_tol!r}")
    if min(crystal_length_mm, pump_power_w, singles_rate_hz) <= 0.0:
        raise ValidationError("economy inputs must be positive")
    if not 0.0 <= coincidence_ratio <= 1.0:
        raise ValidationError("coincidence ratio must be a fraction in [0, 1]")
    r = singles_rate_hz / (crystal_length_mm * pump_power_w)
    flagged = (r_printed is not None
               and abs(r - r_printed) > rel_tol * abs(r_printed))
    return EconomyRecord(
        label=label, crystal_length_mm=crystal_length_mm,
        pump_power_w=pump_power_w, singles_rate_hz=singles_rate_hz,
        coincidence_ratio=coincidence_ratio, r_figure=r,
        r_printed=r_printed, flagged=flagged)


def builtin_economy_records(rel_tol: float = ECONOMY_REL_TOL) -> list:
    """Published bulk-crystal vs waveguide benchmark (quoted R values kept
    for cross-checking; the middle row's quoted figure is about a factor two
    above Rs/(L P) and comes back flagged)."""
    rows = [
        ("type-I 10 cm KDP", 100.0, 1.0e-5, 6.5e4, 0.75, 6.5e7),
        ("type-II 2 mm BBO", 2.0, 0.465, 1.25e6, 0.26, 2.7e6),
        ("1 mm KTP waveguide", 1.0, 2.2e-5, 7.2e5, 0.185, 3.3e10),
    ]
    return [economy_figure(*row[:5], r_printed=row[5], rel_tol=rel_tol)
            for row in rows]


_CSV_FIELDS = ("label", "L_mm", "P_W", "Rs_Hz", "ratio", "R_printed_Hz")


def load_economy_csv(path, *, rel_tol: float = ECONOMY_REL_TOL) -> list:
    """Read records from CSV with columns label,L_mm,P_W,Rs_Hz,ratio and an
    optional sixth column R_printed_Hz.  '#' lines are comments; a header
    row matching the field names is skipped."""
    records = []
    with open(path, "r", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip() == "label":
                continue
            if len(row) not in (5, 6):
                raise ValidationError(
                    f"expected 5 or 6 columns ({','.join(_CSV_FIELDS)}), "
                    f"got {len(row)}")
            printed = float(row[5]) if len(row) == 6 and row[5].strip() else None
            records.append(economy_figure(
                row[0].strip(), float(row[1]), float(row[2]), float(row[3]),
                float(row[4]), r_printed=printed, rel_tol=rel_tol))
    return records


def economy_csv_text(records: Sequence[EconomyRecord]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(list(_CSV_FIELDS) + ["R_Hz_per_mm_W", "flagged"])
    for r in records:
        w.writerow([
            r.label,
            "%.17g" % r.crystal_length_mm,
            "%.17g" % r.pump_power_w,
            "%.17g" % r.singles_rate_hz,
            "%.17g" % r.coincidence_ratio,
            "" if r.r_printed is None else "%.17g" % r.r_printed,
            "%.17g" % r.r_figure,
            "1" if r.flagged else "0",
        ])
    return out.getvalue()
