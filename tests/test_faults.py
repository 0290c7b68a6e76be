"""Fault injection: each named fault is a monkeypatch of one piece of the
code behind the report, and the exact set of rows of ``full_report(7)`` that
must turn FAIL under it.

A row that stops catching its fault is seen, and so is a row that starts
failing under an unrelated one.  Every one of the report's 48 rows is in
some fault's set.  The faults cover the kernels phi and psi, the casebook
forms and the residue oracles, the catalog's values, gradients and
samplers, the intersection candidates, Example B's fixed points, the C2
fibre check, Example A's residue form and the expression compiler's fused
and generic closures.  A fault that fails no row names where it is caught instead, or
says that nothing catches it.

The two ``first_n2_*`` rows take most of the report's time, so they run only
under a fault whose set names one of them.
"""

import dataclasses
import math

import numpy as np
import pytest

from cflab import casebook, cycles, exprlang, forms, geometry, kernels
from cflab.forms import KForm

_CATALOG = dict(geometry._CATALOG)
_P_CAP_S = geometry._p_cap_s
_CASEBOOK_FORM = kernels.casebook_form
_S_C2_HOMOGENEOUS = casebook._s_C2_homogeneous
_PHI, _PSI = kernels.phi, kernels.psi
_ORACLE_D, _ORACLE_E = casebook.residue_oracle_D, casebook.residue_oracle_E
_N2_SPHERE_ROWS = frozenset({"first_n2_const", "first_n2_poly"})
_CLOSURES = dict(exprlang._CLOSURES)
# closure, constant and coordinate operands
_X, _C, _COORD = exprlang._FN, exprlang._CONST, exprlang._COORD


def _surface(name, chart, field, source):
    """(key, builder): the catalog entry (name, chart) with its ``field``
    taken from the entry ``source``."""
    def build(params):
        return dataclasses.replace(_CATALOG[name, chart](params),
                                   **{field: getattr(_CATALOG[source](params), field)})
    return (name, chart), build


def _gradient_entry_plus_one(name, chart, index):
    """(key, builder): the catalog entry (name, chart) with 1 added to its
    gradient's entry ``index``."""
    def build(params):
        spec = _CATALOG[name, chart](params)
        gradient = list(spec.gradient)
        entry = gradient[index]
        gradient[index] = lambda p: entry(p) + 1
        return dataclasses.replace(spec, gradient=tuple(gradient))
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


def _term_changed(target, key, change):
    """``casebook_form`` with the ``key`` coefficient c of the form
    ``target`` replaced by ``change(c(p), p)``."""
    def form(form_id, params=None, f=None):
        built = _CASEBOOK_FORM(form_id, params, f)
        if form_id != target:
            return built
        coeff = built.terms[key]
        terms = {**built.terms, key: lambda p: change(coeff(p), p)}
        return KForm(built.degree, built.dim, terms=terms)
    return form


def _negated(target, key):
    return _term_changed(target, key, lambda value, p: -value)


def _scaled(target, key, factor):
    return _term_changed(target, key, lambda value, p: value * factor)


def _closure_changed(key, change):
    """The ``exprlang._CLOSURES`` builder ``key`` with each closure it builds
    returning ``change`` of its value."""
    def build(*operands):
        fn = _CLOSURES[key](*operands)
        return lambda p: change(fn(p))
    return build


def _kernel_scaled(kernel, factor):
    """The kernel builder ``kernel`` with each kernel it builds times
    ``factor``, a number or a coefficient function."""
    return lambda *args: forms.scale(kernel(*args), factor)


# The P_Q and P_Q_S rows of C1, C2, D and E: each takes Q's U2 gradient.
_Q_U2_ROWS = {f"transv_{example}_{which}" for example in ("C1", "C2", "D", "E")
              for which in ("P_Q", "P_Q_S")}

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
    # -- the kernels
    ("phi times 1 + 1e-5",
     ("setattr", kernels, "phi", _kernel_scaled(_PHI, 1 + 1e-5)),
     {"first_n1", "first_n2_const", "first_n2_poly", "second_exp", "second_square",
      "identity_chart_phi_n2", "identity_chart_phi_n3", "identity_dPhi_nPsi_n1",
      "identity_dPhi_nPsi_n2", "identity_extend_B", "identity_extend_C"}),
    ("psi times 1 + 1e-5",
     ("setattr", kernels, "psi", _kernel_scaled(_PSI, 1 + 1e-5)),
     {"identity_dPhi_nPsi_n1", "identity_dPhi_nPsi_n2", "identity_exact_A",
      "identity_exact_D"}),
    ("psi times 1 + 1e-9 xi_0",
     ("setattr", kernels, "psi", _kernel_scaled(_PSI, lambda p: 1 + 1e-9 * p[0])),
     {"identity_scale_invariance"}),
    # Below every row's tolerance: the identity rows allow 1e-5, and d phi is
    # a finite difference.  test_kernels catches it: the closed form of
    # test_psi_n2_u2_chart_formula (relative 1e-12, n = 2, z = 0) and the
    # wedge-and-scale reference of
    # test_fused_kernel_equals_wedge_and_scale_reference (bit for bit).
    ("psi times 1 + 1e-8",
     ("setattr", kernels, "psi", _kernel_scaled(_PSI, 1 + 1e-8)),
     set()),
    # -- the casebook forms and the oracles
    # A holomorphic term would integrate to 0 over the torus; conj(y1 x2)
    # does not.  Both tori see it, at different sizes.
    ("theta_D plus 1e-6 conj(y1 x2)",
     ("setattr", kernels, "casebook_form",
      _term_changed("theta_D", (0, 1), lambda value, p: value + 1e-6 * np.conj(p[0] * p[1]))),
     {"necessary_D", "necessary_D_eps_invariance"}),
    ("integrand_E times 1 + 1e-6",
     ("setattr", kernels, "casebook_form", _scaled("integrand_E", (0, 1), 1 + 1e-6)),
     {"necessary_E"}),
    ("residue_B times 1 + 1e-6",
     ("setattr", kernels, "casebook_form", _scaled("residue_B", (0,), 1 + 1e-6)),
     {"third_B"}),
    # third_A_a1 has f = 1 and a = 1, so its residue form is 0.
    ("residue_A times 1 + 1e-6",
     ("setattr", kernels, "casebook_form", _scaled("residue_A", (0,), 1 + 1e-6)),
     {"third_A_a0", "third_A_a2"}),
    ("sigma_A's d eta term negated",
     ("setattr", kernels, "casebook_form", _negated("sigma_A", (0,))),
     {"identity_exact_A", "vanish_sigmaA_Q", "vanish_sigmaA_SA"}),
    ("sigma_B's d eta term negated",
     ("setattr", kernels, "casebook_form", _negated("sigma_B", (0,))),
     {"vanish_sigmaB_Q", "vanish_sigmaB_SB"}),
    ("tau_E's lead term negated",
     ("setattr", kernels, "casebook_form", _negated("tau_E", (1, 2, 3))),
     {"vanish_tauE_SE"}),
    ("residue_oracle_D times 1 + 1e-6",
     ("setattr", casebook, "residue_oracle_D", lambda *args: _ORACLE_D(*args) * (1 + 1e-6)),
     {"necessary_D"}),
    ("residue_oracle_E times 1 + 1e-6",
     ("setattr", casebook, "residue_oracle_E", lambda *args: _ORACLE_E(*args) * (1 + 1e-6)),
     {"necessary_E"}),
    # -- the catalog's gradients
    ("Q's U2 gradient replaced by P's",
     ("setitem", geometry._CATALOG, *_surface("Q", "U2", "gradient", ("P", "U2"))),
     _Q_U2_ROWS),
    ("Q's eta gradient replaced by P's",
     ("setitem", geometry._CATALOG, *_surface("Q", "eta", "gradient", ("P", "eta"))),
     {"transv_B_P_Q", "vanish_sigmaA_Q", "vanish_sigmaB_Q"}),
    ("S_B's gradient replaced by Q's",
     ("setitem", geometry._CATALOG, *_surface("S_B", "eta", "gradient", ("Q", "eta"))),
     {"transv_B_Q_S", "vanish_sigmaB_SB"}),
    ("S_C1's gradient replaced by P's",
     ("setitem", geometry._CATALOG, *_surface("S_C1", "U2", "gradient", ("P", "U2"))),
     {"transv_C1_P_S", "transv_C1_P_Q_S"}),
    ("S_C1's gradient replaced by Q's",
     ("setitem", geometry._CATALOG, *_surface("S_C1", "U2", "gradient", ("Q", "U2"))),
     {"transv_C1_Q_S", "transv_C1_P_Q_S"}),
    # vanish_tauD_SD takes its frames from the same gradient as tau_D's ds,
    # so tau_D ^ ds vanishes on them whatever the gradient.
    ("S_D's U2 gradient replaced by Q's",
     ("setitem", geometry._CATALOG, *_surface("S_D", "U2", "gradient", ("Q", "U2"))),
     {"identity_exact_D", "transv_D_Q_S", "transv_D_P_Q_S"}),
    ("S_D's U1 gradient with 1 added to its x1 entry",
     ("setitem", geometry._CATALOG, *_gradient_entry_plus_one("S_D", "U1", 2)),
     {"transv_D_degenerate_over_1_0"}),
    ("S_E's gradient replaced by P's",
     ("setitem", geometry._CATALOG, *_surface("S_E", "U2", "gradient", ("P", "U2"))),
     {"transv_E_P_S", "transv_E_P_Q_S"}),
    ("S_E's gradient replaced by Q's",
     ("setitem", geometry._CATALOG, *_surface("S_E", "U2", "gradient", ("Q", "U2"))),
     {"transv_E_Q_S", "transv_E_P_Q_S"}),
    # Both margins stay far above 1e-6, and vanish_tauE_SE cannot see it (as
    # for S_D above).  test_gradients_match_finite_differences catches it.
    ("S_E's gradient replaced by S_D's",
     ("setitem", geometry._CATALOG, *_surface("S_E", "U2", "gradient", ("S_D", "U2"))),
     set()),
    # -- the expression compiler's fused closures (exprlang._CLOSURES)
    # third_B's g = (x-1)^2 puts x - 1 into d(f g), read in Sub's own closure.
    ("x - c read in Sub's own closure computed as c - x",
     ("setitem", exprlang._CLOSURES, (exprlang.Sub, _COORD, _C),
      lambda index, c: lambda p: c - exprlang._coordinate(index)(p)),
     {"third_B"}),
    # residue_A's g = (a-1)*x + 1 puts c*x into d(f g); third_A_a1 (f = 1,
    # a = 1) differentiates to the number 0 and passes.
    ("c*x read in Mul's own closure from the next coordinate",
     ("setitem", exprlang._CLOSURES, (exprlang.Mul, _C, _COORD),
      lambda c, index: _CLOSURES[exprlang.Mul, _C, _COORD](c, index + 1)),
     {"identity_exact_A", "third_A_a0", "third_A_a2"}),
    # a a closure: first_n2_poly's x1^2*x2 then reads past the end of the point.
    ("a*x read in Mul's own closure from the next coordinate",
     ("setitem", exprlang._CLOSURES, (exprlang.Mul, _X, _COORD),
      lambda a, index: _CLOSURES[exprlang.Mul, _X, _COORD](a, index + 1)),
     {"first_n2_poly"}),
    # An n = 1 f then reads a missing x2 (an error row).  first_n2_poly's
    # x1^2*x2+3 becomes x2^3+3, which the first formula reproduces as well,
    # and its expected f(z) comes from the same compiled tree: it passes.
    ("x^k reading the next coordinate",
     ("setitem", exprlang._CLOSURES, (exprlang.Pow, _COORD),
      lambda index, k: _CLOSURES[exprlang.Pow, _COORD](index + 1, k)),
     {"first_n1", "second_square", "identity_exact_A", "vanish_sigmaA_Q",
      "vanish_sigmaA_SA", "vanish_sigmaB_Q", "vanish_sigmaB_SB"}),
    # -- the generic closures, of two closure operands.  A wrong Mul or Add
    # turns f into another function, and the first and second formulas hold
    # for that one too; the third formula sees it through d(f g).
    ("a*b times 1 + 1e-9",
     ("setitem", exprlang._CLOSURES, (exprlang.Mul, _X, _X),
      _closure_changed((exprlang.Mul, _X, _X), lambda value: value * (1 + 1e-9))),
     {"third_A_a0", "third_B"}),
    ("a + b plus 1e-9",
     ("setitem", exprlang._CLOSURES, (exprlang.Add, _X, _X),
      _closure_changed((exprlang.Add, _X, _X), lambda value: value + 1e-9)),
     {"third_A_a0", "third_A_a2", "third_B"}),
    # No row's expression has a difference of two closures (x - 1 reads its
    # coordinate in Sub's own closure):
    # test_compiled_eval_matches_reference_walk_and_text_roundtrips catches it.
    ("a - b computed as b - a",
     ("setitem", exprlang._CLOSURES, (exprlang.Sub, _X, _X),
      lambda a, b: lambda p: b(p) - a(p)),
     set()),
    # No row's expression has a quotient:
    # test_compiled_eval_matches_reference_walk_and_text_roundtrips catches it.
    ("a / b times 1 + 1e-9",
     ("setitem", exprlang._CLOSURES, (exprlang.Div, _X, _X),
      _closure_changed((exprlang.Div, _X, _X), lambda value: value * (1 + 1e-9))),
     set()),
)


def _failing(skip=()):
    """The FAIL ids of ``full_report(7, skip)``, with the margin specs and
    the generic f (whose compiled closures it caches) built afresh and none
    kept for later tests."""
    caches = (casebook._margin_specs, casebook._generic_f)
    for cache in caches:
        cache.cache_clear()
    try:
        return {r.id for r in casebook.full_report(7, skip=skip) if not r.passed}
    finally:
        for cache in caches:
            cache.cache_clear()


def test_the_unfaulted_report_passes():
    assert _failing(tuple(_N2_SPHERE_ROWS)) == set()


def test_every_row_is_in_some_faults_set():
    rows = {check_id for check_id, _, _ in casebook.CHECKS}
    assert len(rows) == 48
    assert set().union(*(want for _, _, want in FAULTS)) == rows


@pytest.mark.parametrize("patch, want", [fault[1:] for fault in FAULTS],
                         ids=[fault[0] for fault in FAULTS])
def test_a_fault_fails_exactly_its_rows(monkeypatch, patch, want):
    kind, *args = patch
    getattr(monkeypatch, kind)(*args)
    assert _failing(() if want & _N2_SPHERE_ROWS else tuple(_N2_SPHERE_ROWS)) == want


# ------------------------------------------------------- oracle independence
# The residue oracles of the necessary_D and necessary_E rows must not run
# through the code their rows test: with the integrator, the batched form
# evaluation and the kernel builders poisoned they return the same bits,
# which are those of one node table per loop.

def _one_table_per_loop(fn, center, radius, n):
    h = 2.0 * math.pi / n
    e = np.exp(1j * (h * np.arange(n)))
    with np.errstate(all="ignore"):
        return complex(np.cumsum(fn(center + radius * e) * 1j * radius * e * h)[-1])


def _oracle_D_by_loops(eps, n):
    return (_one_table_per_loop(lambda y1: 1 / (y1 * (y1 + 1)), 0j, eps, n)
            * _one_table_per_loop(lambda x2: (x2 * x2 + 1) / x2, 0j, eps, n))


def _oracle_E_by_loops(r1, r2, n):
    def inner(us):
        return np.array([_one_table_per_loop(lambda v: ((v - u) ** 3 + 1) / (u * v), 0j, r2, n)
                         for u in us.tolist()])
    return _one_table_per_loop(inner, 0j, r1, n)


def _poisoned(*args, **kwargs):
    raise AssertionError("an oracle ran the code under test")


@pytest.mark.parametrize("oracle, by_loops, args", [
    (casebook.residue_oracle_D, _oracle_D_by_loops, (0.5, 512)),
    (casebook.residue_oracle_D, _oracle_D_by_loops, (0.3, 48)),
    (casebook.residue_oracle_E, _oracle_E_by_loops, (0.5, 0.5, 512)),
    (casebook.residue_oracle_E, _oracle_E_by_loops, (0.6, 0.4, 48)),
])
def test_residue_oracles_run_without_the_code_under_test(monkeypatch, oracle, by_loops, args):
    unpatched = oracle(*args)
    monkeypatch.setattr(cycles, "integrate", _poisoned)
    monkeypatch.setattr(forms.KForm, "evaluate_many", _poisoned)
    for name in ("phi", "psi", "casebook_form", "_kernel"):
        monkeypatch.setattr(kernels, name, _poisoned)
    poisoned = oracle(*args)
    assert repr(poisoned) == repr(unpatched) == repr(by_loops(*args))
