"""The benchmark's three workloads.

Each workload turns a seed into a job sequence (`jobs`), runs one job with
the program (`run`, the part the benchmark times) and checks its outputs
against an oracle (`check`, untimed; returns a list of failures, empty when
correct).
Jobs reach the program only through module attributes looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import artifacts

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
CLI_JOB_TIMEOUT_S = 120.0


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


class Workload:
    """Defaults shared by the workloads."""

    in_process = True       # jobs run in the benchmark process
    cycle = 1               # jobs per cycle; a run ends on a whole cycle
    calibration = "interpreter"     # host speed probe, see run.py
    speed_sampler = None    # set by the untraced run
    paused_s = 0.0          # time this job spent in checkpoints

    def checkpoint(self) -> None:
        """Called between the stages of a job: samples the host speed when
        the untraced run asked for it, off the job's clock."""
        if self.speed_sampler is not None:
            t0 = time.perf_counter()
            self.speed_sampler()
            self.paused_s += time.perf_counter() - t0

    def setup(self) -> None:
        """Lazy first-call set-up, done before timing starts."""

    def collect(self, out) -> dict:
        """Untimed post-processing of a job's raw outputs."""
        return out


# ---------------------------------------------------------------------------
# spectral_grid
# ---------------------------------------------------------------------------

class SpectralGrid(Workload):
    """N=1024 joint spectral amplitudes through the whole numeric pipeline:
    Schmidt SVD, numeric two-crystal dip, polarization-fringe visibility,
    a Bell-analyzer delay scan and a CSV write/read round trip.  The 16 MiB
    complex arrays exceed L2, and the per-point O(N^2) loops, the O(N^3)
    SVD and the CSV loops dominate; focksim and import do no work."""

    name = "spectral_grid"
    calibration = "memory"
    grid = 1024
    homi_delays = 81
    bell_delays = 9
    sinc_builders = ("collinear", "noncollinear-sinc")
    gaussian_builders = ("gaussian-beam", "model")
    # Jobs run in pairs, a Gaussian builder then a Sellmeier-sinc one: a
    # process's peak resident memory is set by its second job, which peaks
    # ~8 % higher for a sinc builder than for a Gaussian one, so any other
    # order or grouping would make peak_rss_mb depend on the draw.
    cycle = 2
    setup_code = ("import biphoton\n"
                  "from biphoton import dispersion, spectra\n"
                  "dispersion.get_material('BBO')\n"
                  "spectra.gaussian_sinc_gamma()\n")
    trace_jobs = 1

    def __init__(self, biphoton, workdir: str, src: str):
        self.bp = biphoton
        self.workdir = workdir

    def jobs(self, seed: int):
        """Endless seeded draws in pairs (a Gaussian builder, then a
        Sellmeier-sinc builder), parameters jittered by up to 10 % around
        the paper's defaults."""
        rng = random.Random(seed)

        def j():
            return rng.uniform(0.9, 1.1)

        while True:
            for builder in (rng.choice(self.gaussian_builders),
                            rng.choice(self.sinc_builders)):
                if builder == "model":
                    yield {"builder": builder, "sigma": 4e13 * j(),
                           "sigma_F": 4e13 * j()}
                elif builder == "gaussian-beam":
                    yield {"builder": builder, "pump_um": 0.4,
                           "fwhm_nm": 10.0 * j(), "L": 1e-3 * j(),
                           "theta_deg": 3.0 * j(), "waist_factor": j()}
                else:
                    yield {"builder": builder, "pump_um": 0.8,
                           "fwhm_nm": 15.0 * j(), "L": 1e-3 * j(),
                           "theta_deg": 3.0 * j()}

    def setup(self) -> None:
        self.bp.dispersion.get_material("BBO")
        self.bp.spectra.gaussian_sinc_gamma()

    def _build(self, job):
        sp, n = self.bp.spectra, self.grid
        if job["builder"] == "model":
            model = sp.GaussianSourceModel(job["sigma"], job["sigma_F"])
            jsa = sp.gaussian_model_jsa(model, sp.default_model_grid(
                model, n_points=n))
            taus = self.bp.interference.default_tau_grid(
                model, self.homi_delays)
            return jsa, taus
        bbo = self.bp.dispersion.get_material("BBO")
        pump = sp.PumpEnvelope.from_pump_fwhm(job["pump_um"], job["fwhm_nm"])
        grid = sp.default_pump_grid(pump, n_points=n, span_factor=3.0)
        theta = math.radians(job["theta_deg"])
        if job["builder"] == "collinear":
            jsa = sp.build_jsa_collinear(bbo, "II_eoe", job["L"], pump, grid)
        elif job["builder"] == "noncollinear-sinc":
            jsa = sp.build_jsa_noncollinear_sinc(bbo, job["L"], pump, theta,
                                                 grid)
        else:
            w0 = job["waist_factor"] * self.bp.design.factorable_waist(
                bbo, job["pump_um"], job["L"], theta)
            jsa = sp.build_jsa_noncollinear_gaussian_beam(
                bbo, pump, sp.BeamGeometry(w0=w0, theta=theta, L=job["L"]),
                grid)
        # +-4 dip widths of a sum-frequency width sigma_p = half_span / 3
        half = 4.0 * math.sqrt(8.0) * 3.0 / grid.half_span
        return jsa, np.linspace(-half, half, self.homi_delays)

    def run(self, job, tag: str) -> dict:
        itf = self.bp.interference
        jsa, taus = self._build(job)
        self.checkpoint()
        dec = self.bp.schmidt.schmidt_svd(jsa)
        self.checkpoint()
        dip = itf.two_crystal_homi_numeric(jsa, taus)
        self.checkpoint()
        g = replace(jsa, grid_s=jsa.grid_i, grid_i=jsa.grid_s,
                    values=jsa.values.T.copy())
        pair = itf.PolarizedPairState(f=jsa, g=g)
        fringe = itf.fringe_visibility(pair)
        self.checkpoint()
        bell_taus = np.linspace(-taus[-1], taus[-1], self.bell_delays)
        bell = [itf.bell_analyzer_rates(pair, float(t)) for t in bell_taus]
        self.checkpoint()
        path = os.path.join(self.workdir, f"jsa-{tag}.csv")
        try:
            self.bp.spectra.write_jsa_csv(jsa, path)
            self.checkpoint()
            back = self.bp.spectra.read_jsa_csv(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        return {"jsa": jsa, "pair": pair, "eigenvalues": dec.eigenvalues,
                "K": dec.K, "taus": taus, "dip_rates": dip.rates,
                "dip_visibility": dip.visibility, "fringe_visibility": fringe,
                "bell": bell, "roundtrip": back}

    def check(self, job, out) -> list:
        bp, errors = self.bp, []
        lam = np.asarray(out["eigenvalues"])
        if abs(lam.sum() - 1.0) > 1e-8:
            errors.append(f"sum of Schmidt eigenvalues {lam.sum()!r} != 1")
        purity = float(np.sum(lam ** 2))
        if _rel_err(out["dip_visibility"], purity) > 1e-9:
            errors.append(f"dip visibility {out['dip_visibility']!r} != "
                          f"Tr rho^2 {purity!r}")
        if job["builder"] == "model":
            model = bp.spectra.GaussianSourceModel(job["sigma"], job["sigma_F"])
            mu = bp.schmidt.analytic_mu(model)
            k_exact = (1.0 + mu * mu) / (1.0 - mu * mu)
            if _rel_err(out["K"], k_exact) > 1e-9:
                errors.append(f"K {out['K']!r} != analytic {k_exact!r}")
            ana = bp.interference.homi_dip_analytic(model, out["taus"])
            if abs(out["dip_visibility"] - ana.visibility) > 1e-8:
                errors.append("dip visibility differs from the analytic dip")
            if np.max(np.abs(out["dip_rates"] - ana.rates / ana.baseline)) > 1e-8:
                errors.append("dip curve differs from the analytic dip")
        f, g = out["pair"].f, out["pair"].g
        overlap = (np.vdot(f.values, g.values) * f.measure).real
        thetas = np.linspace(0.0, math.pi, 721)
        a = np.cos(thetas) * math.sin(math.pi / 4)
        b = np.sin(thetas) * math.cos(math.pi / 4)
        rates = a * a + b * b + 2.0 * a * b * overlap
        closed = (rates.max() - rates.min()) / (rates.max() + rates.min())
        if _rel_err(out["fringe_visibility"], closed) > 1e-9:
            errors.append(f"fringe visibility {out['fringe_visibility']!r} != "
                          f"closed form {closed!r}")
        for rp, rm in out["bell"]:
            if abs(rp + rm - 1.0) > 1e-9:
                errors.append(f"Bell rates {rp!r} + {rm!r} != 1")
                break
        back, jsa = out["roundtrip"], out["jsa"]
        if (back.grid_s != jsa.grid_s or back.grid_i != jsa.grid_i
                or back.norm_flag != jsa.norm_flag
                or not np.array_equal(back.values, jsa.values)):
            errors.append("JSA CSV round trip is not bit-exact")
        return errors


# ---------------------------------------------------------------------------
# sixfold_sweep
# ---------------------------------------------------------------------------

class SixfoldSweep(Workload):
    """One ns_sixfold_rate(mu, n_modes=8) per job, mu from a fixed set over
    the fig9 range.  Interpreter-bound enumeration and Ryser permanents on
    tiny matrices; no grid, CSV or SVD work."""

    name = "sixfold_sweep"
    n_modes = 8
    mus = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.7)
    # A run ends on two rounds of the mu set: over ten seeds job_p50_s
    # spread 15 % with one round (8 jobs) and 6-8 % with two.
    cycle = 2 * len(mus)
    setup_code = ("import biphoton\n"
                  "from biphoton import focksim\n"
                  "focksim.sixfold_network()\n")
    trace_jobs = 4

    def __init__(self, biphoton, workdir: str, src: str):
        self.bp = biphoton
        ref = json.loads((REFERENCE / "sixfold_sweep.json").read_text())
        self.reference = {float(k): v for k, v in ref["rates"].items()}

    def jobs(self, seed: int):
        """Rounds of the mu set, each in a fresh seeded order."""
        rng = random.Random(seed)
        while True:
            for mu in rng.sample(self.mus, len(self.mus)):
                yield {"mu": mu}

    def setup(self) -> None:
        self.bp.focksim.sixfold_network()

    def run(self, job, tag: str) -> dict:
        res = self.bp.focksim.ns_sixfold_rate(mu=job["mu"],
                                              n_modes=self.n_modes)
        return {"rate": res.rate, "truncation_mass": res.truncation_mass,
                "cooperativity": res.cooperativity}

    def check(self, job, out) -> list:
        mu, errors = job["mu"], []
        want = self.reference[mu]
        if _rel_err(out["rate"], want) > 1e-9:
            errors.append(f"rate {out['rate']!r} != reference {want!r}")
        # kept mass of each source is 1 - mu^(2 n_modes)
        kept = math.log1p(-mu ** (2 * self.n_modes))
        tm = -math.expm1(3.0 * kept)
        if abs(out["truncation_mass"] - tm) > 1e-13 + 1e-9 * tm:
            errors.append(f"truncation mass {out['truncation_mass']!r} != {tm!r}")
        k = (1.0 + mu * mu) / (1.0 - mu * mu)
        if _rel_err(out["cooperativity"], k) > 1e-12:
            errors.append(f"cooperativity {out['cooperativity']!r} != {k!r}")
        return errors


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CONFIG_JOB = {"builder": "gaussian-beam", "grid": 256, "theta": "2.5deg",
              "length": "1.5mm"}

CLI_KINDS = {
    "design-report": ["design", "report"],
    "jsa-model": ["jsa", "--builder", "model", "--grid", "256"],
    "jsa-collinear": ["jsa", "--builder", "collinear", "--grid", "256"],
    "jsa-noncollinear-sinc": ["jsa", "--builder", "noncollinear-sinc",
                              "--grid", "256"],
    "jsa-gaussian-beam": ["jsa", "--builder", "gaussian-beam",
                          "--grid", "256"],
    "schmidt": ["schmidt", "--builder", "collinear", "--grid", "256"],
    "bell": ["bell", "--builder", "collinear", "--grid", "256"],
    "polcorr": ["polcorr", "--builder", "collinear", "--pairing", "transpose",
                "--grid", "256"],
    "homi-numeric": ["homi", "--numeric", "--grid", "256"],
    "nsgate": ["nsgate", "--search", "--mz", "180deg"],
    "economy": ["economy"],
    "fig1": ["reproduce", "fig1", "--grid", "256"],
    "fig3": ["reproduce", "fig3", "--grid", "256"],
    "fig5": ["reproduce", "fig5", "--grid", "256"],
    "config": ["schmidt", "--config", "config.json"],
}


def cli_job_dir(root: str, kind: str) -> tuple:
    """Fresh job directory holding the job's generated inputs; returns
    (directory, argv with --out pointing into it)."""
    jobdir = tempfile.mkdtemp(prefix=kind + "-", dir=root)
    if kind == "config":
        with open(os.path.join(jobdir, "config.json"), "w") as fh:
            json.dump(CONFIG_JOB, fh)
    argv = [os.path.join(jobdir, a) if a == "config.json" else a
            for a in CLI_KINDS[kind]]
    return jobdir, argv + ["--out", os.path.join(jobdir, "out")]


class CliSession(Workload):
    """One `python -m biphoton.cli` subprocess per job over the whole
    subcommand set at --grid 256.  Import, argparse and artifact writing
    dominate and the grids fit in L2: the opposite regime to spectral_grid."""

    name = "cli_session"
    in_process = False
    setup_code = ("import biphoton.cli\n"
                  "from biphoton import dispersion, spectra\n"
                  "dispersion.get_material('BBO')\n"
                  "spectra.gaussian_sinc_gamma()\n")
    cycle = len(CLI_KINDS)
    trace_jobs = cycle

    def __init__(self, biphoton, workdir: str, src: str):
        self.bp = biphoton
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.reference = json.loads(
            (REFERENCE / "cli_session.json").read_text())
        self.max_child_rss_kb = 0
        self.in_process_cli = False     # the traced run calls cli.main

    def jobs(self, seed: int):
        """Every subcommand kind once per cycle, in a fresh seeded order."""
        rng = random.Random(seed)
        kinds = sorted(CLI_KINDS)
        while True:
            for kind in rng.sample(kinds, len(kinds)):
                yield {"kind": kind}

    def run(self, job, tag: str) -> dict:
        jobdir, argv = cli_job_dir(self.workdir, job["kind"])
        if self.in_process_cli:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = self.bp.cli.main(argv)
            return {"exit_code": code, "stderr": sink.getvalue(),
                    "jobdir": jobdir}
        with open(os.path.join(jobdir, "stderr.txt"), "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "biphoton.cli"] + argv, cwd=jobdir,
                env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CLI_JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb,
                                        usage.ru_maxrss)
            err.seek(0)
            return {"exit_code": code, "stderr": err.read(), "jobdir": jobdir}

    def collect(self, out) -> dict:
        """Digest the job's artifacts and remove its directory."""
        jobdir = out.pop("jobdir")
        out_dir = os.path.join(jobdir, "out")
        try:
            if out["exit_code"] == 0:
                out["artifacts"] = artifacts.dir_digest(out_dir)
                out["artifact_bytes"] = sum(
                    os.path.getsize(os.path.join(out_dir, f))
                    for f in os.listdir(out_dir))
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        out["stderr"] = out["stderr"][-2000:]
        return out

    def check(self, job, out) -> list:
        if out["exit_code"] != 0:
            return [f"exit code {out['exit_code']}: {out['stderr']}"]
        return artifacts.compare_digests(self.reference[job["kind"]],
                                         out["artifacts"])


WORKLOADS = {w.name: w for w in (SpectralGrid, SixfoldSweep, CliSession)}
