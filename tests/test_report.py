"""``report.to_json`` against its reference, ``json.dumps(payload, indent=2)``."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cflab import report
from cflab.casebook import CheckReport

# Text with non-ASCII and control characters, and the floats json names
_TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "é ü ∂ 𝔽", "\u2028\ud800"])
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
_PARAMS = st.dictionaries(_TEXT, st.booleans() | st.integers() | _FLOATS | _TEXT,
                          max_size=4)


@st.composite
def _check(draw):
    return CheckReport(
        id=draw(_TEXT), params=draw(_PARAMS),
        computed=complex(draw(_FLOATS), draw(_FLOATS)),
        expected=complex(draw(_FLOATS), draw(_FLOATS)),
        abs_error=draw(_FLOATS), tol=draw(_FLOATS), passed=draw(st.booleans()),
        quad_sizes=tuple(draw(st.lists(st.integers(0, 1 << 40), max_size=3))),
        runtime_ms=draw(_FLOATS))


def _reference(checks, version, seed):
    return json.dumps({"version": version, "seed": seed,
                       "all_pass": all(c.passed for c in checks),
                       "checks": [report.check_to_dict(c) for c in checks]}, indent=2)


_EDGES = CheckReport("nan\x01é", {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                                  "zero": -0.0, "on": True, "n": 3, "s": "\t∂"},
                     complex(math.nan, -0.0), complex(math.inf, -math.inf),
                     math.nan, -0.0, False, (), -math.inf)


@settings(settings.get_profile("cflab"), max_examples=400)
@given(st.lists(_check(), max_size=3), _TEXT, st.integers())
@example([], "0.1.0", 7)
@example([CheckReport("", {}, 0j, 0j, 0.0, 0.0, True, ())], "", -1)
@example([_EDGES, _EDGES], "ü", 0)
def test_to_json_writes_the_bytes_of_json_dumps(checks, version, seed):
    assert report.to_json(checks, version, seed) == _reference(checks, version, seed)


def test_to_json_writes_a_suite_as_json_dumps_does(seed7_report):
    checks = list(seed7_report)
    assert report.to_json(checks, "0.1.0", 7) == _reference(checks, "0.1.0", 7)


def test_render_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        report.render([], "xml", "0.1.0", 7)


@pytest.mark.parametrize("value", [1j, object(), {1, 2}, b"x"])
def test_to_json_rejects_a_param_json_rejects(value):
    checks = [CheckReport("id", {"p": value}, 0j, 0j, 0.0, 1.0, True, ())]
    with pytest.raises(TypeError):
        _reference(checks, "0.1.0", 7)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        report.to_json(checks, "0.1.0", 7)
