#!/usr/bin/env python3
"""Benchmark for biphoton: one seeded workload per run, closed loop, one
client in one process.

    python3 benchmarks/run.py --workload spectral_grid --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics (job times scaled to a reference
host speed, see CALIBRATION_REF_S); --trace 1 runs a fixed,
seed-chosen job list untraced, traced and untraced again, and reports the
per-layer metrics.  Every job's output is checked by an oracle.  The last line of
standard output is the result as one JSON object; the full record (with the
environment and, when traced, the spans) goes to .bench_out/ in the checkout.
Run it from any directory; it works on the checkout it sits in.
"""

import os
import sys

# Pin BLAS threads before numpy loads; cli_session children inherit this.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

# A shared host's speed swings by up to ~2x over seconds and minutes, and
# flips between a fast and a slow state, which swamps changes to the
# program.  Every untraced run therefore samples the host speed with a
# fixed probe of its own just before and just after each job and, for jobs
# made of stages, between the stages, off the job's clock; it multiplies
# each job's time by CALIBRATION_REF_S / (median of that job's samples).
# The probe matches what bounds the workload's jobs: a pure-Python loop
# (median of three runs) for the interpreter-bound workloads, one vdot over
# a 16 MiB complex array (the size of an N=1024 JSA) for spectral_grid,
# whose jobs are bound by memory traffic.  That array stays resident (it
# adds 16 MiB to spectral_grid's peak_rss_mb) and is read once per sample,
# after a job stage has evicted it from the caches.  Each set-up sample
# (a fresh interpreter importing the package) is scaled the same way by
# the pure-Python loop.  See README.md for the spreads this gives.
# CALIBRATION_REF_S is each probe's time on a 2.0 GHz Xeon vCPU at full
# speed, so scaled times read as seconds on that host at that speed.
CALIBRATION_LOOP = 100_000
CALIBRATION_REF_S = {"interpreter": 0.007, "memory": 0.001}

END_TO_END = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"],
                   help="one workload, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cache_bytes(level: int):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) != level \
                    or (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        return int(size.rstrip("KMG")) * mult
    return None


def _openblas():
    """(config string, threads in use) from the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    cfg = getattr(dll, f"{prefix}_get_config{suffix}", None)
                    nth = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                    if cfg is not None and nth is not None:
                        cfg.restype, nth.restype = ctypes.c_char_p, ctypes.c_int
                        return cfg().decode(), int(nth())
    except OSError:
        pass
    return None, None


def environment() -> dict:
    import numpy
    import scipy
    blas_config, blas_threads = _openblas()
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_config,
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_in_use": blas_threads, "nproc": NPROC,
            "cpu": cpu, "l2_bytes": _cache_bytes(2),
            "l3_bytes": _cache_bytes(3)}


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def fresh_import_seconds(code: str, repeats: int = SETUP_REPEATS) -> list:
    """(wall time, host speed samples just before and after it) of `code`
    in each of `repeats` fresh interpreters, after one untimed warm-up
    that fills the bytecode and file caches."""
    prog = ("import time\n_t0 = time.perf_counter()\n" + code
            + "print(time.perf_counter() - _t0)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats + 1):
        before = calibration_seconds("interpreter")
        done = subprocess.run([sys.executable, "-c", prog], env=env,
                              cwd=str(ROOT), capture_output=True, text=True,
                              timeout=60, check=True)
        after = calibration_seconds("interpreter")
        out.append((float(done.stdout.strip().splitlines()[-1]),
                    [before, after]))
    return out[1:]


def scaled_seconds(seconds: float, samples: list, kind: str) -> float:
    """`seconds` at the reference host speed of the `kind` probe."""
    return seconds * CALIBRATION_REF_S[kind] / statistics.median(samples)


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def tail(times: list):
    """(value, percentile, jobs beyond it): the highest of TAIL_PERCENTILES
    that still has at least ten jobs beyond it.  Below 40 jobs not even p75
    has, and p75 is reported with the jobs it does have beyond it (a higher
    percentile of so few jobs is one outlier's time)."""
    n = len(times)
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10),
               TAIL_PERCENTILES[-1])
    xs = sorted(times)
    pos = (n - 1) * pct / 100.0          # linear interpolation between ranks
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, pct, sum(1 for x in xs if x > value)


def run_job(w, job, tag: str):
    """(seconds, outputs, failures) of one job and its oracle check; only
    the job is timed, less the time its checkpoints paused.  Seconds and
    outputs are None when the job raised."""
    try:
        w.checkpoint()          # host speed just before the job ...
        w.paused_s = 0.0
        t0 = time.perf_counter()
        out = w.run(job, tag)
        seconds = time.perf_counter() - t0 - w.paused_s
        w.checkpoint()          # ... and just after it
    except Exception as exc:    # a job that raises counts as failed
        return None, None, [f"{type(exc).__name__}: {exc}"]
    try:
        out = w.collect(out)
        return seconds, out, w.check(job, out)
    except Exception as exc:
        return seconds, out, [f"oracle raised {type(exc).__name__}: {exc}"]


def _interpreter_probe() -> float:
    """Median wall time of three runs of a fixed pure-Python loop."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(CALIBRATION_LOOP):
            acc += k * k
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


_PROBE_ARRAY = []


def _memory_probe() -> float:
    """Wall time of one vdot over a 16 MiB array that stays resident and
    untouched between samples, so the job's traffic has evicted it from
    the caches when it is read."""
    if not _PROBE_ARRAY:
        _PROBE_ARRAY.append(np.full((1024, 1024), 1.0 + 1.0j))
    a = _PROBE_ARRAY[0]
    t0 = time.perf_counter()
    np.vdot(a, a)
    return time.perf_counter() - t0


def calibration_seconds(kind: str) -> float:
    """One host speed sample of the `kind` probe."""
    return _memory_probe() if kind == "memory" else _interpreter_probe()


def timings(times: list, passed: int) -> dict:
    """Job-time metrics of one run, with the tail percentile used."""
    value, pct, beyond = tail(times) if times else (float("nan"), 0, 0)
    return {"job_p50_s": statistics.median(times) if times else float("nan"),
            "job_tail_s": value,
            "jobs_per_s": passed / sum(times) if times else 0.0,
            "tail_percentile": pct, "tail_jobs_beyond": beyond}


def untraced(w, seed: int, seconds: float) -> dict:
    """Closed loop until `seconds` have passed and the last job cycle is
    whole; end-to-end metrics."""
    kind = w.calibration
    calibration_seconds(kind)   # warm-up; allocates the memory probe's array
    setup = fresh_import_seconds(w.setup_code)
    w.setup()
    probes = []                 # per job: host speed samples around it
    w.speed_sampler = lambda: probes[-1].append(calibration_seconds(kind))
    jobs = w.jobs(seed)
    times, scaled, failures, log, attempted = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        job = next(jobs)
        attempted += 1
        probes.append([])
        dt, out, errors = run_job(w, job, str(attempted))
        del out                 # free this job's arrays before the next one
        log.append([job, dt])
        if dt is not None:
            times.append(dt)
            scaled.append(scaled_seconds(dt, probes[-1], kind))
        if errors:
            failures.append({"job": job, "errors": errors[:5]})
        if time.perf_counter() - start >= seconds and attempted % w.cycle == 0:
            break
    wall = time.perf_counter() - start
    w.speed_sampler = None
    rss_kb = (w.max_child_rss_kb if not w.in_process
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    passed = attempted - len(failures)
    raw, fit = timings(times, passed), timings(scaled, passed)
    metrics = {"setup_s": statistics.median(
                   scaled_seconds(t, p, "interpreter") for t, p in setup),
               "job_p50_s": fit["job_p50_s"], "job_tail_s": fit["job_tail_s"],
               "jobs_per_s": fit["jobs_per_s"], "peak_rss_mb": rss_kb / 1024.0}
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "failures": failures,
            "detail": {"unscaled": {
                           "setup_s": statistics.median(t for t, _ in setup),
                           **{k: raw[k] for k in END_TO_END if k in raw}},
                       "speed_scale": sum(scaled) / sum(times) if times else 0.0,
                       "calibration": kind, "calibration_s": probes,
                       "setup_samples_s": setup, "job_log": log,
                       "scaled_s": scaled,
                       "tail_percentile": fit["tail_percentile"],
                       "tail_jobs_beyond": fit["tail_jobs_beyond"],
                       "jobs": len(times),
                       "error_ratio": len(failures) / attempted,
                       "wall_s": wall}}


def traced(w, seed: int, biphoton) -> dict:
    """The first `w.trace_jobs` jobs of the seed, untraced, traced and
    untraced again, in this process; per-layer metrics, per job."""
    jobs, stream = [], w.jobs(seed)
    for _ in range(w.trace_jobs):
        jobs.append(next(stream))
    w.setup()
    if not w.in_process:
        w.in_process_cli = True        # cli.main(argv), not a subprocess
    failures, plain = [], []

    def untraced_pass(label):
        total = 0.0
        for i, job in enumerate(jobs):
            dt, out, errors = run_job(w, job, f"{label}{i}")
            del out
            total += dt or 0.0
            if errors:
                failures.append({"job": job, "pass": label, "errors": errors})
        plain.append(total)

    untraced_pass("before")
    tracer = tracing.Tracer()
    tracer.install(biphoton)
    traced_s = 0.0
    try:
        for i, job in enumerate(jobs):
            tracer.job = i
            dt, out, errors = run_job(w, job, f"t{i}")
            tracer.job = None
            if out is not None and "artifact_bytes" in out:
                tracer.add("cli.artifact_bytes", out["artifact_bytes"])
            del out
            traced_s += dt or 0.0
            if errors:
                failures.append({"job": job, "pass": "traced",
                                 "errors": errors})
    finally:
        tracer.uninstall()
    untraced_pass("after")      # bracket the traced pass against drift
    metrics = tracer.layer_metrics(len(jobs))
    metrics["cli.import_s"] = statistics.median(
        t for t, _ in fresh_import_seconds("import biphoton.cli\n"))
    metrics["trace.overhead_s"] = (traced_s - statistics.mean(plain)) / len(jobs)
    shares = tracer.self_times()
    return {"metrics": metrics, "attempted": 3 * len(jobs),
            "failed": len(failures), "failures": failures,
            "detail": {"jobs": jobs, "untraced_s": plain, "traced_s": traced_s,
                       "self_s_by_group_per_job": {
                           g: v / len(jobs) for g, v in sorted(shares.items())},
                       "spans": len(tracer.spans)},
            "spans": tracer.span_records()}


def run_all(args) -> int:
    """Each workload in a fresh process; the last line combines them, with
    metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    if not (SRC / "biphoton" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no biphoton package under {SRC}; run it "
                         "from a full checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import biphoton
    import biphoton.cli  # noqa: F401  (cli_session traces cli.main)

    cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(WORK))
    try:
        w = cls(biphoton, workdir, str(SRC))
        if args.trace:
            result = traced(w, args.seed, biphoton)
            units = tracing.PER_LAYER
        else:
            result = untraced(w, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **result}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, unit in units.items():
        print(f"{name:38s} {result['metrics'][name]:14.6g} {unit}")
    if not args.trace:
        d = result["detail"]
        print(f"{'error_ratio':38s} {d['error_ratio']:14.6g} "
              f"({result['failed']}/{result['attempted']})")
        print(f"tail is p{d['tail_percentile']:.1f} of {d['jobs']} jobs "
              f"({d['tail_jobs_beyond']} beyond it)")
        print(f"job timings scaled to the reference host speed by the "
              f"{d['calibration']} probe (overall x{d['speed_scale']:.4f}); "
              "unscaled: " + ", ".join(f"{k} {v:.6g}"
                                       for k, v in d["unscaled"].items()))
    else:
        d = result["detail"]
        print("self time per job by group:")
        for g, v in sorted(d["self_s_by_group_per_job"].items(),
                           key=lambda kv: -kv[1]):
            print(f"  {g:36s} {v:12.6g} s")
    for f in result["failures"][:5]:
        print("FAILED", json.dumps(f, default=str)[:500])
    print(f"full record: {stem}.json")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
