#!/usr/bin/env python3
"""Capture the reference outputs the sixfold_sweep and cli_session oracles
compare against, from the program in this checkout.

    python3 benchmarks/capture_reference.py

The files in benchmarks/reference/ were captured once from the commit that
introduced the benchmark.  Recapture only for a deliberate, documented
change of results, never to make a failing check pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from biphoton import focksim
    import artifacts
    import workloads

    ref_dir = HERE / "reference"
    ref_dir.mkdir(exist_ok=True)
    sweep = workloads.SixfoldSweep
    rates = {repr(mu): focksim.ns_sixfold_rate(mu=mu, n_modes=sweep.n_modes).rate
             for mu in sweep.mus}
    (ref_dir / "sixfold_sweep.json").write_text(json.dumps(
        {"n_modes": sweep.n_modes, "rates": rates}, indent=1) + "\n")

    work = tempfile.mkdtemp(prefix="capture-", dir=str(ROOT))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    digests = {}
    try:
        for kind in sorted(workloads.CLI_KINDS):
            jobdir, argv = workloads.cli_job_dir(work, kind)
            subprocess.run([sys.executable, "-m", "biphoton.cli"] + argv,
                           cwd=jobdir, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            digests[kind] = artifacts.dir_digest(argv[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (ref_dir / "cli_session.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
