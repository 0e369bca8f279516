#!/usr/bin/env python3
"""Self-test of the benchmark: one job of each workload must pass its
oracle, the same outputs with one number moved by a relative 1e-6 must
fail it, and the tracer must see calls made through names one module
imported from another.

    python3 benchmarks/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import math
import shutil
import sys
import tempfile
from dataclasses import replace

import run  # pins BLAS threads before numpy loads
import tracing
import workloads

BUMP = 1.0 + 1e-6


def _caught(w, job, out, what: str, problems: list) -> None:
    if not w.check(job, out):
        problems.append(f"{w.name}: perturbed {what} passed the oracle")


def spectral_grid_cases(w, job, out, problems):
    for key in ("dip_visibility", "fringe_visibility", "K"):
        _caught(w, job, dict(out, **{key: out[key] * BUMP}), key, problems)
    rp, rm = out["bell"][0]
    _caught(w, job, dict(out, bell=[(rp * BUMP, rm)] + out["bell"][1:]),
            "Bell rate", problems)
    lam = out["eigenvalues"].copy()
    lam[0] *= BUMP
    _caught(w, job, dict(out, eigenvalues=lam), "eigenvalue", problems)
    back = out["roundtrip"]
    values = back.values.copy()
    flat = abs(values).argmax()
    values.flat[flat] *= BUMP
    _caught(w, job, dict(out, roundtrip=replace(back, values=values)),
            "CSV round trip", problems)


def sixfold_sweep_cases(w, job, out, problems):
    for key in ("rate", "truncation_mass", "cooperativity"):
        _caught(w, job, dict(out, **{key: out[key] * BUMP}), key, problems)


def cli_session_cases(w, job, out, problems):
    bad = copy.deepcopy(out)
    bad["artifacts"]["schmidt.json"]["json"]["K"] *= BUMP
    _caught(w, job, bad, "K in schmidt.json", problems)
    bad = copy.deepcopy(out)
    bad["artifacts"]["schmidt_eigenvalues.csv"]["csv"]["columns"][1][
        "values"][0] *= BUMP
    _caught(w, job, bad, "eigenvalue in schmidt_eigenvalues.csv", problems)
    bad = copy.deepcopy(out)
    del bad["artifacts"]["schmidt.json"]
    _caught(w, job, bad, "artifact set", problems)
    _caught(w, job, dict(out, exit_code=2), "exit code", problems)


def tracer_cases(biphoton, problems):
    from biphoton import design, dispersion, interference, spectra
    original = interference.schmidt_svd
    tracer = tracing.Tracer()
    tracer.install(biphoton)
    try:
        tracer.job = 0
        model = spectra.GaussianSourceModel(4e13, 4e13)
        jsa = spectra.gaussian_model_jsa(model, spectra.default_model_grid(
            model, n_points=64))
        interference.factorability_residual(jsa)
        design.factorable_waist(dispersion.get_material("BBO"), 0.4, 1e-3,
                                math.radians(3.0))
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1)
    if m["schmidt.svd.calls"] != 1:
        problems.append("tracer missed schmidt_svd called via interference")
    if m["design.calls"] != 1 or m["dispersion.index_evals"] == 0:
        problems.append("tracer missed the cut-angle solve under design")
    if interference.schmidt_svd is not original:
        problems.append("tracer left a wrapper installed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import biphoton
    import biphoton.cli  # noqa: F401  (cli_session needs it loaded)

    problems = []
    cases = {"spectral_grid": spectral_grid_cases,
             "sixfold_sweep": sixfold_sweep_cases,
             "cli_session": cli_session_cases}
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=str(run.WORK))
    try:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(biphoton, workdir, str(run.SRC))
            w.setup()
            if name == "cli_session":
                job = {"kind": "schmidt"}
            elif name == "spectral_grid":      # the builder with every check
                job = next(j for j in w.jobs(0) if j["builder"] == "model")
            else:
                job = next(w.jobs(0))
            seconds, out, errors = run.run_job(w, job, "selftest")
            if errors:
                problems.append(f"{name}: unperturbed job failed: {errors}")
            if out is None:
                continue
            print(f"{name}: {job} ran in {seconds:.2f} s")
            cases[name](w, job, out, problems)
        tracer_cases(biphoton, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    for p in problems:
        print("PROBLEM", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
