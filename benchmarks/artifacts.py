"""Numeric digests of CLI artifacts, for checking a run against the
reference captured at the seed commit.

A JSON artifact is kept whole except its echoed ``config`` block.  A CSV
artifact keeps its comment tokens, header and text columns verbatim; a
numeric column keeps every value when short and otherwise a set of sums
(plain, absolute, squared, and weighted by a fixed pseudo-random sequence)
plus its extremes, so a 1e-6 change anywhere that matters to the sums shows.
Numbers compare to a relative tolerance RTOL of their column's scale, so a
later change that only reorders floating-point arithmetic still passes.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RTOL = 1e-9
FULL_ROWS = 256          # numeric columns up to this length are kept whole

# Dimensionless JSON fields whose reference value is rounding noise (an
# optimizer residual, an exactly cancelling amplitude, 1 - sum of
# eigenvalues): compared to an absolute tolerance on top of RTOL.
ABS_TOL = (("schmidt.json.truncated_mass", 1e-9),
           ("nsgate.json.search.objective", 1e-10),
           ("nsgate.json.map.", 1e-12),
           ("nsgate.json.mz.", 1e-12))


def _num(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _weights(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.uint64)
    return ((i * np.uint64(2654435761)) % np.uint64(4294967296)
            ).astype(float) / 4294967296.0 - 0.5


def _tokens(line: str) -> list:
    out = []
    for tok in line.lstrip("#").replace("=", " ").replace(",", " ").split():
        x = _num(tok)
        out.append(tok if x is None else x)
    return out


def csv_digest(text: str) -> dict:
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(_tokens(line))
            continue
        fields = line.split(",")
        if header is None and not rows and any(_num(f) is None for f in fields):
            header = fields
            continue
        rows.append(fields)
    columns = []
    for col in (zip(*rows) if rows else []):
        values = [_num(f) for f in col]
        if any(v is None for v in values):
            columns.append({"text": list(col)})
        elif len(values) <= FULL_ROWS:
            columns.append({"values": values})
        else:
            x = np.array(values)
            columns.append({"n": len(values), "sum": float(x.sum()),
                            "sum_abs": float(np.abs(x).sum()),
                            "sum_sq": float((x * x).sum()),
                            "wsum": float((x * _weights(len(x))).sum()),
                            "min": float(x.min()), "max": float(x.max())})
    return {"comments": comments, "header": header, "rows": len(rows),
            "columns": columns}


def file_digest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc.pop("config", None)
        return {"json": doc}
    if path.endswith(".csv"):
        return {"csv": csv_digest(text)}
    return {"text": text}


def dir_digest(out: str) -> dict:
    return {name: file_digest(os.path.join(out, name))
            for name in sorted(os.listdir(out))}


# -- comparison ----------------------------------------------------------------

def _close(a: float, b: float, scale: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * scale + atol


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scale(values) -> float:
    finite = [abs(v) for v in values if _is_number(v) and math.isfinite(v)]
    return max(finite, default=0.0)


def _compare_tree(ref, got, where: str, scale: float, errors: list) -> None:
    if _is_number(ref) and _is_number(got):
        s = max(scale, abs(ref)) if math.isfinite(ref) else 0.0
        atol = next((t for prefix, t in ABS_TOL if where.startswith(prefix)),
                    0.0)
        if not _close(float(got), float(ref), s, atol):
            errors.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            errors.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            return
        for k in ref:
            _compare_tree(ref[k], got[k], f"{where}.{k}", 0.0, errors)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            errors.append(f"{where}: length {len(got)} != {len(ref)}")
            return
        s = _scale(ref)
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_tree(r, g, f"{where}[{i}]", s, errors)
    elif ref != got:
        errors.append(f"{where}: {got!r} != reference {ref!r}")


def _compare_column(ref: dict, got: dict, where: str, errors: list) -> None:
    if sorted(ref) != sorted(got):
        errors.append(f"{where}: column kind changed")
    elif "n" in ref:
        if ref["n"] != got["n"]:
            errors.append(f"{where}: {got['n']} rows != {ref['n']}")
            return
        extreme = max(abs(ref["min"]), abs(ref["max"]))
        for key, scale in (("sum", ref["sum_abs"]), ("wsum", ref["sum_abs"]),
                           ("sum_abs", ref["sum_abs"]),
                           ("sum_sq", ref["sum_sq"]),
                           ("min", extreme), ("max", extreme)):
            if not _close(got[key], ref[key], scale):
                errors.append(f"{where}.{key}: {got[key]!r} != "
                              f"reference {ref[key]!r}")
    else:
        _compare_tree(ref, got, where, 0.0, errors)


def compare_digests(ref: dict, got: dict) -> list:
    """Mismatches between two dir_digest results, as readable strings."""
    errors = []
    if sorted(ref) != sorted(got):
        return [f"artifact set {sorted(got)} != reference {sorted(ref)}"]
    for name in ref:
        r, g = ref[name], got[name]
        if "csv" in r and "csv" in g:
            rc, gc = r["csv"], g["csv"]
            _compare_tree(rc["comments"], gc["comments"], f"{name}#", 0.0,
                          errors)
            if rc["header"] != gc["header"] or rc["rows"] != gc["rows"] \
                    or len(rc["columns"]) != len(gc["columns"]):
                errors.append(f"{name}: header or shape changed")
                continue
            for i, (a, b) in enumerate(zip(rc["columns"], gc["columns"])):
                _compare_column(a, b, f"{name}[col {i}]", errors)
        elif "json" in r and "json" in g:
            _compare_tree(r["json"], g["json"], name, 0.0, errors)
        else:
            _compare_tree(r, g, name, 0.0, errors)
    return errors
