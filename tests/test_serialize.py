"""Deterministic JSON emission: float spelling, key order, numpy and
complex expansion, and string escaping that json.loads reads back."""

import json
import math

import numpy as np
import pytest

from biphoton.serialize import format_float, to_json_text


@pytest.mark.parametrize("x", [0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23,
                               math.pi, 5e-324, 1e16, -0.0])
def test_float_round_trip(x):
    text = to_json_text(x)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


def test_float_spelling():
    assert format_float(3.0) == "3.0"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"
    back = json.loads(to_json_text([math.inf, -math.inf, math.nan]))
    assert back[:2] == [math.inf, -math.inf] and math.isnan(back[2])


def test_keys_sorted_and_layout():
    text = to_json_text({"b": 1, "a": {"d": [], "c": {}}})
    assert text == ('{\n  "a": {\n    "c": {},\n    "d": []\n  },\n'
                    '  "b": 1\n}\n')


def test_complex_and_numpy_values():
    doc = json.loads(to_json_text({
        "z": 1.5 - 2.0j,
        "nz": np.complex128(0.25 + 1j),
        "i": np.int64(7),
        "f": np.float32(0.5),
        "a": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "t": (1, True, None),
    }))
    assert doc["z"] == {"re": 1.5, "im": -2.0}
    assert doc["nz"] == {"re": 0.25, "im": 1.0}
    assert doc["i"] == 7 and doc["f"] == 0.5
    assert doc["a"] == [[1.0, 2.0], [3.0, 4.0]]
    assert doc["t"] == [1, True, None]
    with pytest.raises(TypeError):
        to_json_text({"s": {1, 2}})


def test_strings_round_trip():
    control = "".join(chr(c) for c in range(0x20))
    for s in (control, 'quote " backslash \\ slash /', "µm ψ 光子 \U0001F4A1",
              "\x7f  ", ""):
        assert json.loads(to_json_text(s)) == s
        assert json.loads(to_json_text({s: s})) == {s: s}
    assert to_json_text("a\nb\tc\x01") == '"a\\nb\\tc\\u0001"\n'
