"""Command-line front end.

Subcommands build joint spectral amplitudes, decompose them, evaluate the
interference observables, run the design calculators, drive the Fock
simulator, and emit the data tables behind the standard figures
(`reproduce fig1|fig3|fig5|fig7|fig9`).  Figure reproduction means
emitting data as CSV (plot with any two/three-column tool), not images.

Units are parsed at the boundary with explicit suffixes: lengths `nm`,
`um`, `mm`, `m`; angles `deg`, `rad`; pump bandwidths `nm_fwhm` or
`rad_s`; delays `fs`, `ps`, `s`.  Everything internal is SI (rad/s, m, s).

All artifacts land under --out with fixed names, embed the resolved
configuration, and are byte-identical across reruns of the same
configuration (fixed 17-digit float formatting, sorted keys).  A JSON
config file (--config) supplies defaults for any long option of the same
subcommand, with explicit command-line flags winning; unknown keys are
rejected.  Exit codes: 0 success, 2 validation/usage error, 3 the
requested configuration is outside a model's validity regime.  Errors are
mirrored as JSON on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import design, dispersion, focksim, interference, schmidt, spectra
from .errors import RegimeError, ValidationError
from .serialize import to_json_text

# ----------------------------------------------------------------------
# Unit parsing
# ----------------------------------------------------------------------

_LENGTH_SUFFIXES = (("mm", 1e-3), ("um", 1e-6), ("nm", 1e-9), ("m", 1.0))
_TIME_SUFFIXES = (("fs", 1e-15), ("ps", 1e-12), ("ns", 1e-9), ("s", 1.0))


def _suffixed(text: str, suffixes, what: str) -> float:
    t = text.strip()
    for suf, scale in suffixes:
        if t.endswith(suf):
            try:
                return float(t[: -len(suf)]) * scale
            except ValueError:
                break
    units = "|".join(s for s, _ in suffixes)
    raise argparse.ArgumentTypeError(
        f"{what} needs a number with unit suffix ({units}), got {text!r}")


def parse_length_m(text: str) -> float:
    return _suffixed(text, _LENGTH_SUFFIXES, "length")


def parse_time_s(text: str) -> float:
    return _suffixed(text, _TIME_SUFFIXES, "delay")


def parse_angle_rad(text: str) -> float:
    t = text.strip()
    if t.endswith("deg"):
        return math.radians(float(t[:-3]))
    if t.endswith("rad"):
        return float(t[:-3])
    raise argparse.ArgumentTypeError(
        f"angle needs a deg or rad suffix, got {text!r}")


def parse_bandwidth(text: str):
    """('nm_fwhm', value) or ('rad_s', value)."""
    t = text.strip()
    if t.endswith("nm_fwhm"):
        return ("nm_fwhm", float(t[: -len("nm_fwhm")]))
    if t.endswith("rad_s"):
        return ("rad_s", float(t[: -len("rad_s")]))
    raise argparse.ArgumentTypeError(
        f"bandwidth needs an nm_fwhm or rad_s suffix, got {text!r}")


def parse_sigma_rad_s(text: str) -> float:
    """Model widths are always rad/s; the suffix is optional."""
    t = text.strip()
    if t.endswith("rad_s"):
        t = t[: -len("rad_s")]
    if t.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad width {text!r}")


# ----------------------------------------------------------------------
# Parser construction with a per-subcommand option registry
# ----------------------------------------------------------------------

class _Registry:
    """Remembers each option's argparse action so a JSON config file can be
    merged under explicit flags, checked like them, and unknown keys
    rejected."""

    def __init__(self, sub, suppress=False):
        self.sub = sub
        self.suppress = suppress
        self.actions = {}

    def add(self, *names, **kw):
        if self.suppress:   # only flags actually given reach the namespace
            kw["default"] = argparse.SUPPRESS
        action = self.sub.add_argument(*names, **kw)
        self.actions[action.dest] = action


def _add_common(reg: _Registry):
    reg.add("--out", default=".", help="output directory (default: .)")
    reg.add("--config", default=None,
            help="JSON file of option defaults for this subcommand")
    reg.add("--materials", default=None,
            help="materials definition file overriding the built-ins")


def _add_builder(reg: _Registry):
    reg.add("--builder", default="model",
            choices=["model", "collinear", "noncollinear-sinc",
                     "gaussian-beam"],
            help="joint-amplitude construction (default: model)")
    reg.add("--sigma", type=parse_sigma_rad_s, default=4e13,
            help="model sum-frequency width in rad/s (model builder)")
    reg.add("--sigma-f", type=parse_sigma_rad_s, default=4e13,
            help="model per-arm filter width in rad/s (the model is only "
                 "normalizable with a finite value)")
    reg.add("--material", default="BBO", help="crystal name (default: BBO)")
    reg.add("--pump", type=parse_length_m, default=400e-9,
            help="pump center wavelength, e.g. 400nm")
    reg.add("--bandwidth", type=parse_bandwidth, default=("nm_fwhm", 10.0),
            help="pump bandwidth, e.g. 10nm_fwhm or 1.5e14rad_s")
    reg.add("--length", type=parse_length_m, default=1e-3,
            help="crystal length, e.g. 1mm")
    reg.add("--theta", type=parse_angle_rad, default=math.radians(3.0),
            help="internal emission angle, e.g. 3deg")
    reg.add("--pdc-type", default="II_eoe", choices=["I_eoo", "II_eoe"],
            help="collinear builder interaction type")
    reg.add("--w0", type=parse_length_m, default=None,
            help="pump waist (gaussian-beam builder); default: the "
                 "factorable-design value")
    reg.add("--filter-sigma", type=parse_sigma_rad_s, default=None,
            help="apply a per-arm Gaussian filter of this width afterwards")
    reg.add("--grid", type=int, default=256, help="grid points per axis")
    reg.add("--span-factor", type=float, default=None,
            help="grid half-span in units of the natural width "
                 "(default 2.5 model / 3.0 pump)")


def build_parser(suppress_defaults=False):
    """(parser, registries); suppress_defaults leaves unset options out."""
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Joint-spectrum engineering toolkit for "
                    "parametric down-conversion photon pairs.")
    subs = parser.add_subparsers(dest="command")
    registries = {}

    def new(cmd, func, help_text, builder=False):
        sub = subs.add_parser(cmd, help=help_text)
        reg = _Registry(sub, suppress_defaults)
        _add_common(reg)
        if builder:
            _add_builder(reg)
        sub.set_defaults(func=func)
        registries[cmd] = reg
        return reg

    reg = new("jsa", cmd_jsa, "build a joint spectral amplitude -> CSV/JSON",
              builder=True)

    reg = new("schmidt", cmd_schmidt,
              "mode decomposition of a built amplitude", builder=True)
    reg.add("--n-report", type=int, default=16,
            help="how many eigenvalues to list in the summary")

    reg = new("homi", cmd_homi, "two-crystal coincidence-dip curves")
    reg.add("--sigma", type=parse_sigma_rad_s, default=4e13)
    reg.add("--sigma-f", type=parse_sigma_rad_s, default=4e13,
            help="per-arm filter width in rad/s (inf = unfiltered limit)")
    reg.add("--tau-points", type=int, default=81)
    reg.add("--tau-span", type=float, default=4.0,
            help="half-range of the delay grid in dip 1/e widths")
    reg.add("--numeric", action="store_true",
            help="add the grid-based dip next to the closed form")
    reg.add("--grid", type=int, default=256)

    reg = new("bell", cmd_bell,
              "two-polarization analyzer rates vs delay", builder=True)
    reg.add("--pairing", default="transpose", choices=["transpose", "same"],
            help="how the second amplitude g relates to f")
    reg.add("--tau-max", type=parse_time_s, default=1e-12)
    reg.add("--tau-points", type=int, default=81)

    reg = new("polcorr", cmd_polcorr,
              "polarizer-angle fringes of a polarization-entangled pair",
              builder=True)
    reg.add("--pairing", default="same", choices=["transpose", "same"])
    reg.add("--sign", default="+", choices=["+", "-"])
    reg.add("--theta-b", type=parse_angle_rad, default=math.radians(45.0))
    reg.add("--scan-points", type=int, default=181)

    reg = new("design", cmd_design, "source-engineering calculators")
    reg.sub.add_argument("what", choices=["factorable", "bandwidth",
                                          "margin", "regime", "report"])
    reg.add("--material", default="BBO")
    reg.add("--pump", type=parse_length_m, default=400e-9)
    reg.add("--L", dest="length", type=parse_length_m, default=1e-3)
    reg.add("--theta", type=parse_angle_rad, default=math.radians(3.0))
    reg.add("--w0", type=parse_length_m, default=None)
    reg.add("--bandwidth", type=parse_bandwidth, default=None)

    reg = new("nsgate", cmd_nsgate,
              "conditional-sign gate map, search, and the "
              "interferometer phase test")
    reg.add("--r", type=float, default=focksim.IDEAL_NS_R)
    reg.add("--s", type=float, default=focksim.IDEAL_NS_S)
    reg.add("--search", action="store_true",
            help="run the grid+simplex recovery of the ideal reflectivities")
    reg.add("--mz", type=parse_angle_rad, default=None,
            help="also run the two-photon interferometer at this phase")

    reg = new("economy", cmd_economy, "photon-economy figure of merit table")
    reg.add("--csv", default=None,
            help="CSV of rows label,L_mm,P_W,Rs_Hz,ratio[,R_printed_Hz] "
                 "(default: built-in benchmark table)")
    reg.add("--rel-tol", type=float, default=design.ECONOMY_REL_TOL,
            help="relative mismatch against a quoted R before flagging")

    reg = new("reproduce", cmd_reproduce, "emit the data behind a figure")
    reg.sub.add_argument("figure", choices=sorted(_FIGURES))
    reg.add("--grid", type=int, default=256)
    reg.add("--n-modes", type=int, default=8)

    return parser, registries


def _merge_config(args, reg: _Registry, argv=None):
    if not getattr(args, "config", None):
        return
    given = vars(build_parser(suppress_defaults=True)[0].parse_args(argv))
    with open(args.config, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, val in doc.items():
        dest = key.replace("-", "_")
        if dest in ("config", "func", "command") or dest not in reg.actions:
            raise ValidationError(f"unknown config key {key!r}")
        if dest in given:
            continue  # explicit flag wins
        setattr(args, dest, _config_value(key, val, reg.actions[dest]))


def _config_value(key: str, val, action):
    """A config value put through its flag's checks: a string through the
    option's type, then the option's choices; an integer option takes only
    an integer, a flag without argument only true or false."""
    if isinstance(val, str) and action.type is not None:
        try:
            val = action.type(val)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}")
    wrong_type = (not isinstance(val, bool) if action.nargs == 0
                  else action.type is int and type(val) is not int)
    if wrong_type or (action.choices is not None and val not in action.choices):
        raise ValidationError(f"config key {key!r}: invalid value {val!r}")
    return val


def _resolved_config(args, reg: _Registry) -> dict:
    cfg = {"command": args.command}
    for dest in sorted(reg.actions):
        if dest in ("config", "out"):   # I/O plumbing, not configuration
            continue
        val = getattr(args, dest)
        cfg[dest] = list(val) if isinstance(val, tuple) else val
    for extra in ("what", "figure"):
        if hasattr(args, extra):
            cfg[extra] = getattr(args, extra)
    return cfg


# ----------------------------------------------------------------------
# Shared construction helpers
# ----------------------------------------------------------------------

def _pump_envelope(args) -> spectra.PumpEnvelope:
    kind, val = args.bandwidth
    pump_um = args.pump * 1e6
    if kind == "nm_fwhm":
        return spectra.PumpEnvelope.from_pump_fwhm(pump_um, val)
    omega0 = math.pi * spectra.C_LIGHT / args.pump
    return spectra.PumpEnvelope(omega0=omega0, sigma_p=val)


def _build_jsa(args):
    """(jsa, extras dict) from the common builder options."""
    extras = {}
    if args.builder == "model":
        if not math.isfinite(args.sigma_f):
            raise ValidationError(
                "the model builder needs a finite --sigma-f "
                "(an unfiltered sum-frequency Gaussian is not normalizable)")
        model = spectra.GaussianSourceModel(sigma=args.sigma,
                                            sigma_F=args.sigma_f)
        grid = spectra.default_model_grid(
            model, n_points=args.grid,
            span_factor=args.span_factor if args.span_factor else 2.5)
        jsa = spectra.gaussian_model_jsa(model, grid)
        mu = schmidt.analytic_mu(model)
        extras["model"] = {"sigma": model.sigma, "sigma_F": model.sigma_F,
                           "mu": mu, "K_analytic": schmidt.analytic_K(mu)}
    else:
        material = dispersion.get_material(args.material, args.materials or None)
        pump = _pump_envelope(args)
        grid = spectra.default_pump_grid(
            pump, n_points=args.grid,
            span_factor=args.span_factor if args.span_factor else 3.0)
        if args.builder == "collinear":
            jsa = spectra.build_jsa_collinear(material, args.pdc_type,
                                              args.length, pump, grid)
        elif args.builder == "noncollinear-sinc":
            jsa = spectra.build_jsa_noncollinear_sinc(
                material, args.length, pump, args.theta, grid)
        else:  # gaussian-beam
            pump_um = args.pump * 1e6
            w0 = args.w0 if args.w0 is not None else design.factorable_waist(
                material, pump_um, args.length, args.theta)
            extras["w0"] = w0
            beam = spectra.BeamGeometry(w0=w0, theta=args.theta,
                                        L=args.length)
            jsa = spectra.build_jsa_noncollinear_gaussian_beam(
                material, pump, beam, grid)
    if args.filter_sigma is not None:
        jsa, frac = spectra.apply_gaussian_filter(jsa, args.filter_sigma)
        extras["filter_transmitted_fraction"] = frac
    return jsa, extras


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _table_csv(header, rows) -> str:
    """CSV text: the header line, then one line of %.17g numbers per row."""
    return "".join([",".join(header) + "\n"] + [
        ",".join("%.17g" % x for x in row) + "\n" for row in rows])


def _surface_csv(grid_s, grid_i, values) -> str:
    out = io.StringIO()
    out.write("# columns: nu_s_rad_s,nu_i_rad_s,value\n")
    out.write("# omega0_s_rad_s=%.17g omega0_i_rad_s=%.17g\n"
              % (grid_s.omega0, grid_i.omega0))
    spectra.write_grid_rows(out, grid_s.detunings, grid_i.detunings, values)
    return out.getvalue()


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def cmd_jsa(args, reg) -> int:
    jsa, extras = _build_jsa(args)
    out = _outdir(args)
    spectra.write_jsa_csv(jsa, os.path.join(out, "jsa.csv"))
    print(f"wrote {os.path.join(out, 'jsa.csv')}")
    summary = {
        "config": _resolved_config(args, reg),
        "metadata": spectra.jsa_metadata(jsa),
        "intensity_correlation": spectra.intensity_correlation(jsa),
    }
    summary.update(extras)
    _write(os.path.join(out, "jsa.json"), to_json_text(summary))
    return 0


def cmd_schmidt(args, reg) -> int:
    jsa, extras = _build_jsa(args)
    dec = schmidt.schmidt_svd(jsa)
    out = _outdir(args)
    _write(os.path.join(out, "schmidt_eigenvalues.csv"),
           _table_csv(["n", "eigenvalue"], enumerate(dec.eigenvalues)))
    summary = {
        "config": _resolved_config(args, reg),
        "K": dec.K,
        "eigenvalues_head": [float(v)
                             for v in dec.eigenvalues[: args.n_report]],
        "n_modes_kept": dec.n_modes,
        "truncated_mass": dec.truncated_mass,
    }
    summary.update(extras)
    _write(os.path.join(out, "schmidt.json"), to_json_text(summary))
    print(f"K = {dec.K:.6f}")
    return 0


def cmd_homi(args, reg) -> int:
    model = spectra.GaussianSourceModel(sigma=args.sigma, sigma_F=args.sigma_f)
    taus = interference.default_tau_grid(model, n=args.tau_points,
                                         span_widths=args.tau_span)
    ana = interference.homi_dip_analytic(model, taus)
    num = None
    if args.numeric:
        grid = spectra.default_model_grid(model, n_points=args.grid)
        jsa = spectra.gaussian_model_jsa(model, grid)
        num = interference.two_crystal_homi_numeric(jsa, taus)
    out = _outdir(args)
    header, cols = ["tau_s", "rate_analytic"], [taus, ana.rates]
    if num:
        header, cols = header + ["rate_numeric"], cols + [num.rates]
    _write(os.path.join(out, "homi.csv"), _table_csv(header, zip(*cols)))
    mu = schmidt.analytic_mu(model)
    summary = {
        "config": _resolved_config(args, reg),
        "visibility_analytic": ana.visibility,
        "baseline_analytic": ana.baseline,
        "dip_width_s": interference.analytic_dip_width(model),
        "K_analytic": math.inf if mu >= 1.0 else schmidt.analytic_K(mu),
        "mu": mu,
    }
    if num:
        summary["visibility_numeric"] = num.visibility
    _write(os.path.join(out, "homi.json"), to_json_text(summary))
    print(f"V = {ana.visibility:.6f}, baseline = {ana.baseline:.6f}")
    return 0


def _make_pair(args, jsa) -> interference.PolarizedPairState:
    g = jsa.transposed() if args.pairing == "transpose" else jsa
    sign = getattr(args, "sign", "+")
    return interference.PolarizedPairState(f=jsa, g=g, sign=sign)


def cmd_bell(args, reg) -> int:
    jsa, _ = _build_jsa(args)
    pair = _make_pair(args, jsa)
    taus = np.linspace(-args.tau_max, args.tau_max, args.tau_points)
    out = _outdir(args)
    _write(os.path.join(out, "bell.csv"), _table_csv(
        ["tau_s", "rate_plus", "rate_minus"],
        [(tau, *interference.bell_analyzer_rates(pair, float(tau)))
         for tau in taus]))
    rp0, rm0 = interference.bell_analyzer_rates(pair, 0.0)
    summary = {
        "config": _resolved_config(args, reg),
        "rate_plus_at_zero": rp0,
        "rate_minus_at_zero": rm0,
        "exchange_residual": interference.bell_condition_residual(pair),
        "pairing_residual": interference.pol_pairing_residual(pair),
    }
    _write(os.path.join(out, "bell.json"), to_json_text(summary))
    print(f"Rc+(0) = {rp0:.3e}, Rc-(0) = {rm0:.6f}")
    return 0


def cmd_polcorr(args, reg) -> int:
    jsa, _ = _build_jsa(args)
    pair = _make_pair(args, jsa)
    thetas = np.linspace(0.0, math.pi, args.scan_points)
    out = _outdir(args)
    rates = interference.polarization_fringe(pair, thetas, args.theta_b)
    _write(os.path.join(out, "polcorr.csv"),
           _table_csv(["theta_a_rad", "rate"], zip(thetas, rates)))
    summary = {
        "config": _resolved_config(args, reg),
        "visibility": interference.fringe_visibility(pair, args.theta_b),
        "overlap_re": interference.pair_overlap(pair).real,
        "pairing_residual": interference.pol_pairing_residual(pair),
    }
    _write(os.path.join(out, "polcorr.json"), to_json_text(summary))
    print(f"fringe visibility = {summary['visibility']:.6f}")
    return 0


def cmd_design(args, reg) -> int:
    material = dispersion.get_material(args.material, args.materials or None)
    pump_um = args.pump * 1e6
    sigma_p = None
    if args.bandwidth is not None:
        kind, val = args.bandwidth
        sigma_p = (spectra.sigma_p_from_fwhm(val * 1e-9, args.pump)
                   if kind == "nm_fwhm" else val)
    rep = design.design_report(material, pump_um, args.length, args.theta,
                               w0=args.w0, sigma_p=sigma_p)
    out = _outdir(args)
    summary = {"config": _resolved_config(args, reg), "report": rep}
    _write(os.path.join(out, "design.json"), to_json_text(summary))
    lines = {
        "factorable": f"factorable waist w0 = {rep.factorable_waist * 1e6:.2f} um",
        "bandwidth": f"pump bandwidth threshold = {rep.sigma_p_min:.6g} rad/s",
        "margin": f"margin = {rep.margin:.4g} "
                  f"({'frequency-correlated' if rep.freq_correlated else 'below the factor-10 bar'})",
        "regime": f"waist-regime ratio = {rep.waist_regime_ratio:.4g} "
                  f"({'ok' if rep.waist_regime_ok else 'outside validity'})",
    }
    if args.what == "report":
        for line in lines.values():
            print(line)
    else:
        print(lines[args.what])
    return 0


def cmd_nsgate(args, reg) -> int:
    cfg = focksim.NSGateConfig(r=args.r, s=args.s)
    cmap = focksim.ns_conditional_map(cfg)
    summary = {
        "config": _resolved_config(args, reg),
        "map": {"c0": cmap.c0, "c1": cmap.c1, "c2": cmap.c2,
                "success": cmap.success,
                "c1_over_c0": cmap.c1 / cmap.c0,
                "c2_over_c0": cmap.c2 / cmap.c0},
        "topology": focksim.NS_TOPOLOGY,
        "convention": focksim.NS_CONVENTION,
    }
    if args.search:
        res = focksim.ns_search()
        summary["search"] = {"r": res.r, "s": res.s,
                             "objective": res.objective,
                             "success": res.map.success}
    if args.mz is not None:
        rep = focksim.homi_mz_stage_states(args.mz)
        summary["mz"] = {
            "phase": rep.phase,
            "coincidence_probability": rep.coincidence_probability,
            "after_input_splitter": {str(k): v for k, v
                                     in rep.after_input_splitter.items()},
            "output_state": {str(k): v for k, v
                             in rep.output_state.items()},
        }
    out = _outdir(args)
    _write(os.path.join(out, "nsgate.json"), to_json_text(summary))
    print(f"(c0, c1, c2) = ({cmap.c0.real:+.6f}, {cmap.c1.real:+.6f}, "
          f"{cmap.c2.real:+.6f}), success = {cmap.success:.6f}")
    return 0


def cmd_economy(args, reg) -> int:
    if args.csv:
        records = design.load_economy_csv(args.csv, rel_tol=args.rel_tol)
    else:
        records = design.builtin_economy_records(rel_tol=args.rel_tol)
    out = _outdir(args)
    _write(os.path.join(out, "economy.csv"),
           design.economy_csv_text(records))
    summary = {"config": _resolved_config(args, reg), "records": records}
    _write(os.path.join(out, "economy.json"), to_json_text(summary))
    for r in records:
        flag = "  [flagged: quoted value disagrees]" if r.flagged else ""
        print(f"{r.label}: R = {r.r_figure:.4g} Hz/(mm W){flag}")
    return 0


# ----------------------------------------------------------------------
# Figure data
# ----------------------------------------------------------------------

def _fig1(args, out) -> dict:
    material = dispersion.get_material("BBO")
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=args.grid,
                                     span_factor=3.0)
    jsas = {"typeI_noncollinear": spectra.build_jsa_noncollinear_sinc(
                material, 1e-3, pump, math.radians(3.0), grid),
            "typeII_collinear": spectra.build_jsa_collinear(
                material, "II_eoe", 1e-3, pump, grid)}
    for tag, jsa in jsas.items():
        spectra.write_jsa_csv(jsa, os.path.join(out, f"fig1_{tag}.csv"))
    return {f"K_{tag}": schmidt.schmidt_svd(jsa).K for tag, jsa in jsas.items()}


def _fig3(args, out) -> dict:
    sigma = 4e13
    ratios = np.logspace(-2.0, 2.0, 81)   # sigma_F / sigma
    models = [spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma * x)
              for x in ratios]
    _write(os.path.join(out, "fig3.csv"), _table_csv(
        ["sigma_F_rad_s", "visibility", "baseline"],
        [(m.sigma_F, interference.homi_visibility_analytic(m),
          interference.homi_baseline_analytic(m)) for m in models]))
    eq = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma)
    return {"sigma": sigma,
            "at_equal_widths": {
                "visibility": interference.homi_visibility_analytic(eq),
                "baseline": interference.homi_baseline_analytic(eq)}}


def _beam_figure(args, out, tag, L, w0, fwhm_nm) -> dict:
    material = dispersion.get_material("BBO")
    pump_um = 0.4
    theta = math.radians(3.0)
    pump = spectra.PumpEnvelope.from_pump_fwhm(pump_um, fwhm_nm)
    grid = spectra.default_pump_grid(pump, n_points=args.grid,
                                     span_factor=2.5)
    if w0 is None:
        w0 = design.factorable_waist(material, pump_um, L, theta)
    beam = spectra.BeamGeometry(w0=w0, theta=theta, L=L)
    pump_f, long_f, trans_f = spectra.noncollinear_gaussian_beam_factors(
        material, pump, beam, grid)
    for name, surf in (("pump", pump_f), ("longitudinal", long_f),
                       ("transverse", trans_f),
                       ("product", pump_f * long_f * trans_f)):
        _write(os.path.join(out, f"{tag}_{name}.csv"),
               _surface_csv(grid, grid, surf))
    jsa = spectra.build_jsa_noncollinear_gaussian_beam(material, pump, beam,
                                                       grid)
    return {"w0": w0, "L": L, "theta": theta, "pump_fwhm_nm": fwhm_nm,
            "K": schmidt.schmidt_svd(jsa).K,
            "margin": design.freq_correlated_margin(material, pump_um, L,
                                                    theta, w0),
            "intensity_correlation": spectra.intensity_correlation(jsa)}


def _fig9(args, out) -> dict:
    mus = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    res = [focksim.ns_sixfold_rate(mu=mu, n_modes=args.n_modes) for mu in mus]
    _write(os.path.join(out, "fig9.csv"), _table_csv(
        ["K", "rate", "trunc_mass"],
        [(r.cooperativity, r.rate, r.truncation_mass) for r in res]))
    return {"mus": mus, "n_modes": args.n_modes}


_FIGURES = {
    "fig1": _fig1,
    "fig3": _fig3,
    "fig5": lambda args, out: _beam_figure(args, out, "fig5", L=1e-3, w0=None,
                                           fwhm_nm=10.0),
    "fig7": lambda args, out: _beam_figure(args, out, "fig7", L=200e-6,
                                           w0=1e-3, fwhm_nm=15.0),
    "fig9": _fig9,
}


def cmd_reproduce(args, reg) -> int:
    out = _outdir(args)
    fig = args.figure
    info = _FIGURES[fig](args, out)
    manifest = {"config": _resolved_config(args, reg), "figure": fig,
                "results": info}
    _write(os.path.join(out, f"{fig}.json"), to_json_text(manifest))
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _emit_error(exc: BaseException, code: int):
    doc = {"error": type(exc).__name__, "message": str(exc),
           "exit_code": code}
    if isinstance(exc, RegimeError):
        doc["lhs"] = exc.lhs
        doc["rhs"] = exc.rhs
    sys.stderr.write(to_json_text(doc))


def main(argv=None) -> int:
    parser, registries = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        _merge_config(args, registries[args.command], argv)
        return args.func(args, registries[args.command])
    except RegimeError as exc:
        _emit_error(exc, 3)
        return 3
    except (ValueError, OSError) as exc:   # ValidationError subclasses ValueError
        _emit_error(exc, 2)
        return 2


if __name__ == "__main__":
    sys.exit(main())
