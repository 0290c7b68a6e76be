"""Fault injection: each named fault is a monkeypatch of one piece of the
code behind the report, and the exact set of rows of ``full_report(7)``
(without the ``core`` group) that must turn FAIL under it.

A row that stops catching its fault is seen, and so is a row that starts
failing under an unrelated one.  The faults here cover the shared Example C
and D/E constructions of the catalog, the intersection candidates and the
samplers, Example B's fixed points, the C2 fibre check and Example A's
residue form.
"""

import dataclasses

import pytest

from cflab import casebook, geometry, kernels

_CATALOG = dict(geometry._CATALOG)
_P_CAP_S = geometry._p_cap_s
_CASEBOOK_FORM = kernels.casebook_form
_S_C2_HOMOGENEOUS = casebook._s_C2_homogeneous


def _surface(name, chart, field, source):
    """(key, builder): the catalog entry (name, chart) with its ``field``
    taken from the entry ``source``."""
    def build(params):
        return dataclasses.replace(_CATALOG[name, chart](params),
                                   **{field: getattr(_CATALOG[source](params), field)})
    return (name, chart), build


def _p_cap_s_as(example, other):
    """``_p_cap_s`` building ``example``'s P_S candidate as ``other``'s."""
    return lambda ex, rng: _P_CAP_S(other if ex == example else ex, rng)


def _residue_A_scaled(factor):
    """``casebook_form`` with residue_A's parameter a times ``factor``."""
    def form(form_id, params=None, f=None):
        if form_id == "residue_A":
            params = {"a": complex(params["a"]) * factor}
        return _CASEBOOK_FORM(form_id, params, f)
    return form


# (fault, (kind, target, name, replacement), FAIL ids).  ``setattr`` replaces
# the module attribute ``name``; ``setitem`` the dict entry ``name``.
FAULTS = (
    ("S_C2 value without its 2 y1^2 term",
     ("setitem", geometry._CATALOG,
      *_surface("S_C2", "U2", "value", ("S_C1", "U2"))),
     {"transv_C2_P_S", "transv_C2_Q_S", "transv_C2_P_Q_S"}),
    # No row sees a wrong C1/C2 gradient: each margin stays far above 1e-6.
    # Only the catalog's tests (finite differences, Python reference) catch it.
    ("S_C2 gradient without its 4 y1 term",
     ("setitem", geometry._CATALOG,
      *_surface("S_C2", "U2", "gradient", ("S_C1", "U2"))),
     set()),
    ("C2 P_S candidate built as C1",
     ("setattr", geometry, "_p_cap_s", _p_cap_s_as("C2", "C1")),
     {"transv_C2_P_S"}),
    ("D P_S candidate built as E",
     ("setattr", geometry, "_p_cap_s", _p_cap_s_as("D", "E")),
     {"transv_D_P_S"}),
    ("S_D sampled with the S_E solver",
     ("setitem", geometry._CATALOG,
      *_surface("S_D", "U2", "solve", ("S_E", "U2"))),
     {"vanish_tauD_SD"}),
    ("_s_C2_homogeneous plus 1e-9 xi2^3 x2",
     ("setattr", casebook, "_s_C2_homogeneous",
      lambda xi0, xi1, xi2, x1, x2: (_S_C2_HOMOGENEOUS(xi0, xi1, xi2, x1, x2)
                                     + 1e-9 * xi2 ** 3 * x2)),
     {"fibration_C2"}),
    ("B P_S point moved to x = 1.001",
     ("setitem", geometry._B_POINTS, "P_S", (0j, 1.001 + 0j)),
     {"transv_B_P_S"}),
    # identity_exact_A takes d(f g) from residue_A too: its gap is 4.8 times
    # the fault, under its 1e-5 tolerance at 1e-6 and above it at 1e-5.
    ("residue_A with a times 1 + 1e-6",
     ("setattr", kernels, "casebook_form", _residue_A_scaled(1 + 1e-6)),
     {"third_A_a1", "third_A_a2"}),
    ("residue_A with a times 1 + 1e-5",
     ("setattr", kernels, "casebook_form", _residue_A_scaled(1 + 1e-5)),
     {"third_A_a1", "third_A_a2", "identity_exact_A"}),
)


def _failing():
    """The FAIL ids of ``full_report(7)`` without the core group, with the
    margin specs built afresh and none kept for later tests."""
    casebook._margin_specs.cache_clear()
    try:
        return {r.id for r in casebook.full_report(7, skip=("core",)) if not r.passed}
    finally:
        casebook._margin_specs.cache_clear()


def test_the_unfaulted_report_passes():
    assert _failing() == set()


@pytest.mark.parametrize("patch, want", [fault[1:] for fault in FAULTS],
                         ids=[fault[0] for fault in FAULTS])
def test_a_fault_fails_exactly_its_rows(monkeypatch, patch, want):
    kind, *args = patch
    getattr(monkeypatch, kind)(*args)
    assert _failing() == want
