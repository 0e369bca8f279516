"""Command-line front end.

Subcommands build joint spectral amplitudes, decompose them, evaluate the
interference observables, run the design calculators, drive the Fock
simulator, and emit the data tables behind the standard figures
(`reproduce fig1|fig3|fig5|fig7|fig9`).  Figure reproduction means
emitting data as CSV (plot with any two/three-column tool), not images.

Units are parsed at the boundary with explicit suffixes: lengths `nm`,
`um`, `mm`, `m`; angles `deg`, `rad`; pump bandwidths `nm_fwhm` or
`rad_s`; delays `fs`, `ps`, `s`.  Everything internal is SI (rad/s, m, s).

All artifacts land under --out with fixed names and are byte-identical
across reruns of the same configuration (fixed 17-digit float formatting,
sorted keys).  Each handler writes its data files and returns (summary,
lines); main then writes the one summary JSON, `<subcommand>.json`
(`<figure>.json` for reproduce) with the resolved configuration under
"config", and prints the lines.  A JSON config file (--config) supplies
defaults for any long option of the same subcommand, with explicit
command-line flags winning; unknown keys are rejected.  Exit codes: 0
success, 2 validation/usage error, 3 the requested configuration is
outside a model's validity regime.  Errors, argparse usage errors
included, are reported as JSON on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from . import design, dispersion, focksim, interference, schmidt, spectra
from .errors import RegimeError, ValidationError
from .serialize import to_json_text

# ----------------------------------------------------------------------
# Unit parsing
# ----------------------------------------------------------------------

# decimal suffixes shift the exponent: 400nm is float("400e-9"); deg is a factor
_LENGTH_SUFFIXES = (("mm", -3), ("um", -6), ("nm", -9), ("m", 0))
_TIME_SUFFIXES = (("fs", -15), ("ps", -12), ("ns", -9), ("s", 0))
_ANGLE_SUFFIXES = (("deg", math.pi / 180.0), ("rad", 1.0))


def _suffixed(text: str, suffixes, what: str) -> float:
    t = text.strip()
    for suf, scale in suffixes:
        if t.endswith(suf):
            number = t[: -len(suf)].strip()
            try:
                value = float(number)
            except ValueError:
                break
            if not math.isfinite(value):
                raise argparse.ArgumentTypeError(
                    f"{what} must be finite, got {text!r}")
            if isinstance(scale, float):
                return value * scale
            digits, _, exp = number.lower().partition("e")
            return float(f"{digits}e{int(exp or 0) + scale}")
    units = "|".join(s for s, _ in suffixes)
    raise argparse.ArgumentTypeError(
        f"{what} needs a number with unit suffix ({units}), got {text!r}")


def parse_length_m(text: str) -> float:
    return _suffixed(text, _LENGTH_SUFFIXES, "length")


def parse_time_s(text: str) -> float:
    return _suffixed(text, _TIME_SUFFIXES, "delay")


def parse_angle_rad(text: str) -> float:
    return _suffixed(text, _ANGLE_SUFFIXES, "angle")


def parse_bandwidth(text: str):
    """('nm_fwhm', value) or ('rad_s', value), the value finite and > 0."""
    t = text.strip()
    for suffix in ("nm_fwhm", "rad_s"):
        if t.endswith(suffix):
            value = float(t[: -len(suffix)])
            if not 0 < value < math.inf:
                raise argparse.ArgumentTypeError(
                    f"bandwidth must be finite and positive, got {text!r}")
            return (suffix, value)
    raise argparse.ArgumentTypeError(
        f"bandwidth needs an nm_fwhm or rad_s suffix, got {text!r}")


def parse_sigma_rad_s(text: str) -> float:
    """Model widths are always rad/s; the suffix is optional."""
    t = text.strip()
    if t.endswith("rad_s"):
        t = t[: -len("rad_s")]
    try:
        return float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad width {text!r}")


# ----------------------------------------------------------------------
# Parser construction with a per-subcommand option registry
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors leave through main's JSON error channel (exit 2)
    instead of argparse's usage text; the subparsers inherit this.  An
    argument starting -<digit> or -.<digit> is a value (--theta-b -45deg)."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValidationError(message)


class _Registry:
    """Remembers each option's argparse action and default, which the parser
    replaces by SUPPRESS so that only flags actually given reach the
    namespace; _merge_config then fills the rest from a JSON config file,
    checked like the flags, or from the defaults."""

    def __init__(self, sub):
        self.sub = sub
        self.actions = {}
        self.defaults = {}

    def add(self, *names, **kw):
        action = self.sub.add_argument(*names, **kw)
        self.actions[action.dest] = action
        self.defaults[action.dest] = action.default
        action.default = argparse.SUPPRESS


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


def build_parser():
    """(parser, registries); _merge_config fills the options not given."""
    parser = _Parser(
        prog="biphoton",
        description="Joint-spectrum engineering toolkit for "
                    "parametric down-conversion photon pairs.")
    subs = parser.add_subparsers(dest="command")
    registries = {}

    def new(cmd, func, help_text, builder=False):
        sub = subs.add_parser(cmd, help=help_text)
        reg = _Registry(sub)
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
            help="re-derive the ideal reflectivities from the network")
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


def _merge_config(args, reg: _Registry):
    """Fill each option not given on the command line from the --config
    file if it names it, else from the option's default."""
    given = set(vars(args))
    for dest, default in reg.defaults.items():
        if dest not in given:
            setattr(args, dest, default)
    if not args.config:
        return
    with open(args.config, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, val in doc.items():
        dest = key.replace("-", "_")
        if dest == "config" or dest not in reg.actions:
            raise ValidationError(f"unknown config key {key!r}")
        if dest in given:
            continue  # explicit flag wins
        setattr(args, dest, _config_value(key, val, reg.actions[dest]))


def _config_value(key: str, val, action):
    """A config value through its flag's checks: true/false for an on/off
    flag, a string for an untyped option (a name, a path), else a string,
    number or boolean put as its JSON text through the type; then choices."""
    ok = isinstance(val, bool if action.nargs == 0 else
                    str if action.type is None else (str, int, float))
    if ok and action.type is not None:
        try:
            val = action.type(val if isinstance(val, str) else json.dumps(val))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}")
    if not ok or (action.choices is not None and val not in action.choices):
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

def _cli_source(args):
    """(material, pump_um, pump envelope or None without --bandwidth): --pump
    is converted here only, so every stage of a run solves at one wavelength."""
    material = dispersion.get_material(args.material, args.materials or None)
    pump_um = args.pump * 1e6
    if args.bandwidth is None:
        return material, pump_um, None
    kind, val = args.bandwidth
    if kind == "nm_fwhm":
        pump = spectra.PumpEnvelope.from_pump_fwhm(pump_um, val)
    else:
        pump = spectra.PumpEnvelope(pump_um=pump_um, sigma_p=val)
    return material, pump_um, pump


def _model_jsa(args, **span):
    """(model, jsa) of the two-width Gaussian model on --grid points."""
    if not math.isfinite(args.sigma_f):
        raise ValidationError(
            "the model builder needs a finite --sigma-f "
            "(an unfiltered sum-frequency Gaussian is not normalizable)")
    model = spectra.GaussianSourceModel(sigma=args.sigma, sigma_F=args.sigma_f)
    grid = spectra.default_model_grid(model, n_points=args.grid, **span)
    return model, spectra.gaussian_model_jsa(model, grid)


def _build_jsa(args):
    """(jsa, extras dict) from the common builder options."""
    extras = {}
    span = {} if args.span_factor is None else {"span_factor": args.span_factor}
    if args.builder == "model":
        model, jsa = _model_jsa(args, **span)
        mu = schmidt.analytic_mu(model)
        extras["model"] = {"sigma": model.sigma, "sigma_F": model.sigma_F,
                           "mu": mu, "K_analytic": schmidt.analytic_K(mu)}
    else:
        material, _, pump = _cli_source(args)
        grid = spectra.default_pump_grid(pump, n_points=args.grid, **span)
        if args.builder == "collinear":
            jsa = spectra.build_jsa_collinear(material, args.pdc_type,
                                              args.length, pump, grid)
        elif args.builder == "noncollinear-sinc":
            jsa = spectra.build_jsa_noncollinear_sinc(
                material, args.length, pump, args.theta, grid)
        else:  # gaussian-beam
            w0 = args.w0 if args.w0 is not None else design.factorable_waist(
                material, pump.pump_um, args.length, args.theta)
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


def _write_jsa_csv(path: str, jsa):
    spectra.write_jsa_csv(jsa, path)
    print(f"wrote {path}")


def _table_csv(header, rows) -> str:
    """CSV text: the header line, then one line of %.17g numbers per row."""
    return "".join([",".join(header) + "\n"] + [
        ",".join("%.17g" % x for x in row) + "\n" for row in rows])


def _write_surface_csv(path: str, grid_s, grid_i, values):
    """A real surface on grid_s x grid_i, streamed row by row into path."""
    with open(path, "w", newline="") as fh:
        fh.write("# columns: nu_s_rad_s,nu_i_rad_s,value\n")
        fh.write("# omega0_s_rad_s=%.17g omega0_i_rad_s=%.17g\n"
                 % (grid_s.omega0, grid_i.omega0))
        spectra.write_grid_rows(fh, grid_s.detunings, grid_i.detunings,
                                values)
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# Subcommand handlers: each writes its data files and returns (summary,
# lines); main writes the summary JSON and then prints the lines
# ----------------------------------------------------------------------

def cmd_jsa(args):
    jsa, extras = _build_jsa(args)
    _write_jsa_csv(os.path.join(_outdir(args), "jsa.csv"), jsa)
    return {"metadata": spectra.jsa_metadata(jsa),
            "intensity_correlation": spectra.intensity_correlation(jsa),
            **extras}, []


def cmd_schmidt(args):
    jsa, extras = _build_jsa(args)
    dec = schmidt.schmidt_svd(jsa)
    out = _outdir(args)
    _write(os.path.join(out, "schmidt_eigenvalues.csv"),
           _table_csv(["n", "eigenvalue"], enumerate(dec.eigenvalues)))
    return {"K": dec.K,
            "eigenvalues_head": [float(v)
                                 for v in dec.eigenvalues[: args.n_report]],
            "n_modes_kept": dec.n_modes,
            "truncated_mass": dec.truncated_mass,
            **extras}, [f"K = {dec.K:.6f}"]


def cmd_homi(args):
    model = spectra.GaussianSourceModel(sigma=args.sigma, sigma_F=args.sigma_f)
    taus = interference.default_tau_grid(model, n=args.tau_points,
                                         span_widths=args.tau_span)
    ana = interference.homi_dip_analytic(model, taus)
    num = None
    if args.numeric:
        num = interference.two_crystal_homi_numeric(_model_jsa(args)[1], taus)
    out = _outdir(args)
    header, cols = ["tau_s", "rate_analytic"], [taus, ana.rates]
    if num:
        header, cols = header + ["rate_numeric"], cols + [num.rates]
    _write(os.path.join(out, "homi.csv"), _table_csv(header, zip(*cols)))
    mu = schmidt.analytic_mu(model)
    summary = {
        "visibility_analytic": ana.visibility,
        "baseline_analytic": ana.baseline,
        "dip_width_s": interference.analytic_dip_width(model),
        "K_analytic": math.inf if mu >= 1.0 else schmidt.analytic_K(mu),
        "mu": mu,
    }
    if num:
        summary["visibility_numeric"] = num.visibility
    return summary, [f"V = {ana.visibility:.6f}, baseline = {ana.baseline:.6f}"]


def _make_pair(args, jsa) -> interference.PolarizedPairState:
    g = jsa.transposed() if args.pairing == "transpose" else jsa
    sign = getattr(args, "sign", "+")
    return interference.PolarizedPairState(f=jsa, g=g, sign=sign)


def cmd_bell(args):
    if not 0.0 < args.tau_max < math.inf:
        raise ValidationError(
            f"--tau-max must be finite and > 0, got {args.tau_max!r}")
    jsa, _ = _build_jsa(args)
    pair = _make_pair(args, jsa)
    taus = np.linspace(-args.tau_max, args.tau_max, args.tau_points)
    out = _outdir(args)
    rp, rm = interference.bell_analyzer_rates(pair, np.append(taus, 0.0))
    _write(os.path.join(out, "bell.csv"), _table_csv(
        ["tau_s", "rate_plus", "rate_minus"], zip(taus, rp[:-1], rm[:-1])))
    rp0, rm0 = float(rp[-1]), float(rm[-1])
    return {"rate_plus_at_zero": rp0,
            "rate_minus_at_zero": rm0,
            "exchange_residual": interference.bell_condition_residual(pair),
            "pairing_residual": interference.pol_pairing_residual(pair),
            }, [f"Rc+(0) = {rp0:.3e}, Rc-(0) = {rm0:.6f}"]


def cmd_polcorr(args):
    jsa, _ = _build_jsa(args)
    pair = _make_pair(args, jsa)
    thetas = np.linspace(0.0, math.pi, args.scan_points)
    out = _outdir(args)
    rates = interference.polarization_fringe(pair, thetas, args.theta_b)
    _write(os.path.join(out, "polcorr.csv"),
           _table_csv(["theta_a_rad", "rate"], zip(thetas, rates)))
    visibility = interference.fringe_visibility(pair, args.theta_b)
    return {"visibility": visibility,
            "overlap_re": interference.pair_overlap(pair).real,
            "pairing_residual": interference.pol_pairing_residual(pair),
            }, [f"fringe visibility = {visibility:.6f}"]


def cmd_design(args):
    material, pump_um, pump = _cli_source(args)
    rep = design.design_report(material, pump_um, args.length, args.theta,
                               w0=args.w0, sigma_p=pump and pump.sigma_p)
    lines = {
        "factorable": f"factorable waist w0 = {rep.factorable_waist * 1e6:.2f} um",
        "bandwidth": f"pump bandwidth threshold = {rep.sigma_p_min:.6g} rad/s",
        "margin": f"margin = {rep.margin:.4g} "
                  f"({'frequency-correlated' if rep.freq_correlated else 'below the factor-10 bar'})",
        "regime": f"waist-regime ratio = {rep.waist_regime_ratio:.4g} "
                  f"({'ok' if rep.waist_regime_ok else 'outside validity'})",
    }
    return {"report": rep}, (list(lines.values()) if args.what == "report"
                             else [lines[args.what]])


def cmd_nsgate(args):
    cfg = focksim.NSGateConfig(r=args.r, s=args.s)
    cmap = focksim.ns_conditional_map(cfg)
    summary = {
        "map": {**dataclasses.asdict(cmap),
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
    return summary, [f"(c0, c1, c2) = ({cmap.c0.real:+.6f}, "
                     f"{cmap.c1.real:+.6f}, {cmap.c2.real:+.6f}), "
                     f"success = {cmap.success:.6f}"]


def cmd_economy(args):
    if args.csv:
        records = design.load_economy_csv(args.csv, rel_tol=args.rel_tol)
    else:
        records = design.builtin_economy_records(rel_tol=args.rel_tol)
    out = _outdir(args)
    _write(os.path.join(out, "economy.csv"),
           design.economy_csv_text(records))
    return {"records": records}, [
        f"{r.label}: R = {r.r_figure:.4g} Hz/(mm W)"
        + ("  [flagged: quoted value disagrees]" if r.flagged else "")
        for r in records]


# ----------------------------------------------------------------------
# Figure data
# ----------------------------------------------------------------------

def _fig1(args) -> dict:
    material = dispersion.get_material("BBO", args.materials or None)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=args.grid,
                                     span_factor=3.0)
    jsas = {"typeI_noncollinear": spectra.build_jsa_noncollinear_sinc(
                material, 1e-3, pump, math.radians(3.0), grid),
            "typeII_collinear": spectra.build_jsa_collinear(
                material, "II_eoe", 1e-3, pump, grid)}
    for tag, jsa in jsas.items():
        _write_jsa_csv(os.path.join(_outdir(args), f"fig1_{tag}.csv"), jsa)
    return {f"K_{tag}": schmidt.schmidt_svd(jsa).K for tag, jsa in jsas.items()}


def _fig3(args) -> dict:
    sigma = 4e13
    ratios = np.logspace(-2.0, 2.0, 81)   # sigma_F / sigma
    models = [spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma * x)
              for x in ratios]
    _write(os.path.join(_outdir(args), "fig3.csv"), _table_csv(
        ["sigma_F_rad_s", "visibility", "baseline"],
        [(m.sigma_F, interference.homi_visibility_analytic(m),
          interference.homi_baseline_analytic(m)) for m in models]))
    eq = spectra.GaussianSourceModel(sigma=sigma, sigma_F=sigma)
    return {"sigma": sigma,
            "at_equal_widths": {
                "visibility": interference.homi_visibility_analytic(eq),
                "baseline": interference.homi_baseline_analytic(eq)}}


def _beam_figure(args, tag, L, w0, fwhm_nm) -> dict:
    material = dispersion.get_material("BBO", args.materials or None)
    theta = math.radians(3.0)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, fwhm_nm)
    grid = spectra.default_pump_grid(pump, n_points=args.grid,
                                     span_factor=2.5)
    rep = design.design_report(material, pump.pump_um, L, theta, w0=w0)
    beam = spectra.BeamGeometry(w0=rep.waist, theta=theta, L=L)
    pump_f, long_f, trans_f = spectra.noncollinear_gaussian_beam_factors(
        material, pump, beam, grid)
    product = pump_f * long_f * trans_f
    for name, surf in (("pump", pump_f), ("longitudinal", long_f),
                       ("transverse", trans_f), ("product", product)):
        _write_surface_csv(os.path.join(_outdir(args), f"{tag}_{name}.csv"),
                           grid, grid, surf)
    jsa = spectra.JointSpectralAmplitude(grid, grid,
                                         product.astype(complex)).normalized()
    return {"w0": rep.waist, "L": L, "theta": theta, "pump_fwhm_nm": fwhm_nm,
            "K": schmidt.schmidt_svd(jsa).K,
            "margin": rep.margin,
            "intensity_correlation": spectra.intensity_correlation(jsa)}


def _fig9(args) -> dict:
    mus = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    res = [focksim.ns_sixfold_rate(mu, args.n_modes) for mu in mus]
    _write(os.path.join(_outdir(args), "fig9.csv"), _table_csv(
        ["K", "rate", "trunc_mass"],
        [(r.cooperativity, r.rate, r.truncation_mass) for r in res]))
    return {"mus": mus, "n_modes": args.n_modes}


_FIGURES = {
    "fig1": _fig1,
    "fig3": _fig3,
    "fig5": lambda args: _beam_figure(args, "fig5", L=1e-3, w0=None,
                                      fwhm_nm=10.0),
    "fig7": lambda args: _beam_figure(args, "fig7", L=200e-6, w0=1e-3,
                                      fwhm_nm=15.0),
    "fig9": _fig9,
}


def cmd_reproduce(args):
    results = _FIGURES[args.figure](args)
    return {"figure": args.figure, "results": results}, []


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
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 2
        reg = registries[args.command]
        _merge_config(args, reg)
        for dest, least in (("n_report", 0), ("tau_points", 1),
                            ("scan_points", 1)):
            if getattr(args, dest, least) < least:
                raise ValidationError(
                    f"--{dest.replace('_', '-')} must be >= {least}")
        summary, lines = args.func(args)
        name = getattr(args, "figure", args.command)
        _write(os.path.join(_outdir(args), f"{name}.json"),
               to_json_text({"config": _resolved_config(args, reg), **summary}))
        for line in lines:
            print(line)
        return 0
    except SystemExit as exc:   # --help; usage errors raise ValidationError
        return int(exc.code) if exc.code else 0
    except RegimeError as exc:
        _emit_error(exc, 3)
        return 3
    except (ValueError, OSError) as exc:   # ValidationError subclasses ValueError
        _emit_error(exc, 2)
        return 2


if __name__ == "__main__":
    sys.exit(main())
