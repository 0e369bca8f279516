"""Deterministic JSON emission.

The stdlib json module cannot pin float formatting, and reproducible
artifacts (byte-identical reruns) are part of the CLI contract, so this
small serializer renders every float with %.17g (lossless round-trip),
sorts mapping keys, and expands numpy scalars/arrays and complex numbers
into plain JSON structures.  Parsing back is plain json.loads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

_INDENT = 2


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable but unambiguous
        return "%.1f" % x
    return "%.17g" % x


def _render(obj, level: int) -> str:
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, (np.floating, float)):
        return format_float(float(obj))
    if isinstance(obj, (np.complexfloating, complex)):
        c = complex(obj)
        return _render({"re": c.real, "im": c.imag}, level)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _render(asdict(obj), level)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), level)
    if isinstance(obj, dict):
        keys = sorted(obj.keys())
        if not keys:
            return "{}"
        items = [
            '%s%s: %s' % (pad_in, _render(str(k), level + 1),
                          _render(obj[k], level + 1))
            for k in keys
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [pad_in + _render(v, level + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    """Render obj as deterministic JSON (sorted keys, fixed float format,
    two-space indent), terminated with a newline."""
    return _render(obj, 0) + "\n"
