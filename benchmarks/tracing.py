"""Span tracer for the traced benchmark run.

Wraps the public module-level functions of every ``biphoton`` module from
outside the package (nothing in ``src/`` changes).  Names a module imported
from another one (``interference.schmidt_svd``, ``design.noncollinear_cut_angle``,
``cli.to_json_text``...) are rebound to the same wrapper, so a call is traced
whichever module it goes through.

Each span records (name, start, end, parent span, job id) and stays in
memory until the run writes it out.  A span belongs to a *group*, the unit
the per-layer metrics are reported in.  A function with no group of its own
takes the group of the nearest enclosing span of its own module (so the
helpers ``ns_search`` calls count as ``focksim.ns_search``), else
``<module>.other``.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time

MODULES = ("dispersion", "spectra", "schmidt", "interference", "design",
           "focksim", "serialize", "cli")

# function -> group; every other dispersion/design function is in the
# module-wide group, the rest fall back as described above.
GROUPS = {
    "spectra.build_jsa_collinear": "spectra.build",
    "spectra.build_jsa_noncollinear_sinc": "spectra.build",
    "spectra.build_jsa_noncollinear_gaussian_beam": "spectra.build",
    "spectra.noncollinear_gaussian_beam_factors": "spectra.build",
    "spectra.gaussian_model_jsa": "spectra.build",
    "spectra.write_jsa_csv": "spectra.csv_write",
    "spectra.read_jsa_csv": "spectra.csv_read",
    "schmidt.schmidt_svd": "schmidt.svd",
    "interference.two_crystal_homi_numeric": "interference.homi_numeric",
    "interference.fringe_visibility": "interference.fringe",
    "interference.polarization_fringe": "interference.fringe",
    "interference.pair_overlap": "interference.fringe",
    "interference.bell_analyzer_rates": "interference.bell",
    "focksim.pattern_probability": "focksim.pattern_probability",
    "focksim.permanent": "focksim.permanent",
    "focksim.ns_search": "focksim.ns_search",
    "serialize.to_json_text": "serialize.to_json",
    "cli.main": "cli.main",
}
MODULE_GROUPS = {"dispersion": "dispersion", "design": "design",
                 "cli": "cli.main"}

# Per-layer metrics of a traced run, all per job: name -> unit.
PER_LAYER = {
    "spectra.build.calls": "count",
    "spectra.build.self_s": "s",
    "spectra.build.cells": "count",
    "dispersion.calls": "count",
    "dispersion.self_s": "s",
    "dispersion.index_evals": "count",
    "spectra.csv_write.self_s": "s",
    "spectra.csv_write.bytes": "count",
    "spectra.csv_read.self_s": "s",
    "spectra.csv_read.bytes": "count",
    "schmidt.svd.calls": "count",
    "schmidt.svd.self_s": "s",
    "schmidt.svd.per_jsa": "ratio",
    "schmidt.svd.flops_computed": "flop",
    "interference.homi_numeric.self_s": "s",
    "interference.homi_numeric.delays": "count",
    "interference.fringe.self_s": "s",
    "interference.fringe.overlap_evals": "count",
    "interference.bell.self_s": "s",
    "design.calls": "count",
    "design.self_s": "s",
    "focksim.pattern_probability.calls": "count",
    "focksim.pattern_probability.self_s": "s",
    "focksim.permanent.calls": "count",
    "focksim.permanent.self_s": "s",
    "focksim.permanent.mean_n": "count",
    "focksim.input_terms": "count",
    "focksim.ns_search.self_s": "s",
    "serialize.to_json.self_s": "s",
    "serialize.to_json.bytes": "count",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def _svd_flops(m: int, n: int) -> float:
    """Real flops of a thin complex SVD with both singular-vector sets:
    Golub & Van Loan's 4m^2n + 8mn^2 + 9n^3 (m >= n), times 4 for complex
    arithmetic.  Computed from the shape, not counted."""
    m, n = max(m, n), min(m, n)
    return 4.0 * (4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3)


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self):
        self.spans = []          # [name, group, start, end, parent, job]
        self.stack = []
        self.job = None
        self.counts = {}
        self.svd_inputs = set()
        self._saved = []         # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        wrappers = {}
        mods = {name: getattr(package, name) for name in MODULES}
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._wrap(f"{name}.{attr}", name, fn)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, qualname: str, module: str, fn):
        own_group = GROUPS.get(qualname, MODULE_GROUPS.get(module))
        counter = _COUNTERS.get(qualname)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            group = own_group
            if group is None:
                pspan = spans[parent] if parent is not None else None
                group = (pspan[1] if pspan is not None
                         and pspan[1].split(".")[0] == module
                         else module + ".other")
            index = len(spans)
            span = [qualname, group, time.perf_counter(), None, parent,
                    self.job]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    # -- counts --------------------------------------------------------------

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict:
        """group -> summed self time over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, group, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, group, start, end, parent, job) in enumerate(self.spans):
            out[group] = out.get(group, 0.0) + (end - start) - child_time[i]
        return out

    def outermost_calls(self, group: str) -> int:
        """Spans of `group` whose parent is not in the same group."""
        spans = self.spans
        return sum(1 for s in spans if s[1] == group
                   and (s[4] is None or spans[s[4]][1] != group))

    def layer_metrics(self, n_jobs: int) -> dict:
        """Per-job per-layer metrics (every key of PER_LAYER except the two
        the run measures outside the tracer: cli.import_s, trace.overhead_s)."""
        st = self.self_times()
        c = self.counts
        perm_calls = c.get("focksim.permanent.calls", 0)
        svd_calls = c.get("schmidt.svd.calls", 0)
        total = {
            "spectra.build.calls": self.outermost_calls("spectra.build"),
            "spectra.build.cells": c.get("spectra.build.cells", 0),
            "dispersion.calls": self.outermost_calls("dispersion"),
            "dispersion.index_evals": c.get("dispersion.index_evals", 0),
            "spectra.csv_write.bytes": c.get("spectra.csv_write.bytes", 0),
            "spectra.csv_read.bytes": c.get("spectra.csv_read.bytes", 0),
            "schmidt.svd.calls": svd_calls,
            "schmidt.svd.flops_computed": c.get("schmidt.svd.flops", 0.0),
            "interference.homi_numeric.delays":
                c.get("interference.homi_numeric.delays", 0),
            "interference.fringe.overlap_evals":
                c.get("interference.fringe.overlap_evals", 0),
            "design.calls": self.outermost_calls("design"),
            "focksim.pattern_probability.calls":
                c.get("focksim.pattern_probability.calls", 0),
            "focksim.permanent.calls": perm_calls,
            "focksim.input_terms": c.get("focksim.input_terms", 0),
            "serialize.to_json.bytes": c.get("serialize.to_json.bytes", 0),
            "cli.artifact_bytes": c.get("cli.artifact_bytes", 0),
        }
        for group in ("spectra.build", "dispersion", "spectra.csv_write",
                      "spectra.csv_read", "schmidt.svd",
                      "interference.homi_numeric", "interference.fringe",
                      "interference.bell", "design",
                      "focksim.pattern_probability", "focksim.permanent",
                      "focksim.ns_search", "serialize.to_json", "cli.main"):
            total[group + ".self_s"] = st.get(group, 0.0)
        out = {k: v / n_jobs for k, v in total.items()}
        # ratios are not divided by the job count
        out["schmidt.svd.per_jsa"] = (svd_calls / len(self.svd_inputs)
                                      if self.svd_inputs else 0.0)
        out["focksim.permanent.mean_n"] = (
            c.get("focksim.permanent.n_sum", 0) / perm_calls
            if perm_calls else 0.0)
        return out

    def span_records(self) -> list:
        return [{"name": n, "group": g, "start": s, "end": e, "parent": p,
                 "job": j} for n, g, s, e, p, j in self.spans]


# -- boundary counters: (tracer, args, kwargs, result) -> None ---------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_build(tr, args, kwargs, result):
    parent = tr.stack[-1] if tr.stack else None
    if parent is not None and tr.spans[parent][1] == "spectra.build":
        return        # nested build, cells already counted by the outer one
    shape = (result[0].shape if isinstance(result, tuple)
             else result.values.shape)
    tr.add("spectra.build.cells", int(shape[0]) * int(shape[1]))


def _count_csv(key, pos):
    def count(tr, args, kwargs, result):
        tr.add(key, os.path.getsize(_arg(args, kwargs, pos, "path")))
    return count


def _count_svd(tr, args, kwargs, result):
    values = _arg(args, kwargs, 0, "jsa").values
    tr.add("schmidt.svd.calls")
    tr.add("schmidt.svd.flops", _svd_flops(*values.shape))
    digest = hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()
    tr.svd_inputs.add((tr.job, digest))


def _count_pattern(tr, args, kwargs, result):
    tr.add("focksim.pattern_probability.calls")
    tr.add("focksim.input_terms", len(_arg(args, kwargs, 1, "inp").terms))


def _count_permanent(tr, args, kwargs, result):
    tr.add("focksim.permanent.calls")
    tr.add("focksim.permanent.n_sum", len(_arg(args, kwargs, 0, "matrix")))


_COUNTERS = {
    "spectra.build_jsa_collinear": _count_build,
    "spectra.build_jsa_noncollinear_sinc": _count_build,
    "spectra.build_jsa_noncollinear_gaussian_beam": _count_build,
    "spectra.noncollinear_gaussian_beam_factors": _count_build,
    "spectra.gaussian_model_jsa": _count_build,
    "spectra.write_jsa_csv": _count_csv("spectra.csv_write.bytes", 1),
    "spectra.read_jsa_csv": _count_csv("spectra.csv_read.bytes", 0),
    "dispersion.refractive_index":
        lambda tr, a, k, r: tr.add("dispersion.index_evals"),
    "schmidt.schmidt_svd": _count_svd,
    "interference.two_crystal_homi_numeric":
        lambda tr, a, k, r: tr.add("interference.homi_numeric.delays",
                                   len(_arg(a, k, 1, "taus"))),
    "interference.pair_overlap":
        lambda tr, a, k, r: tr.add("interference.fringe.overlap_evals"),
    "focksim.pattern_probability": _count_pattern,
    "focksim.permanent": _count_permanent,
    "serialize.to_json_text":
        lambda tr, a, k, r: tr.add("serialize.to_json.bytes",
                                   len(r.encode("utf-8"))),
}
