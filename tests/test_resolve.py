"""Minimal semifree resolutions, derived fibers, class, and freeness over
homology."""

import pytest

from dgkoszul.gradedcomplex import (
    DegreeWindow,
    StructureError,
    check_d_squared,
    homology,
    is_quasi_iso,
)
from dgkoszul.dgstruct import (
    exterior_algebra,
    free_module,
    polynomial_algebra,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
)
from dgkoszul.resolve import (
    class_of,
    derived_fiber,
    is_free_over_homology,
    lemma1_report,
    minimize,
    semifree_resolve,
)


def resolve_min(m, a, depth=None):
    return minimize(semifree_resolve(m, a, depth))


def test_koszul_resolution_of_k_over_poly(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    r = resolve_min(trivial_module(a), a)
    assert r.is_minimal()
    gens = sorted((d, l) for l, d, _ in r.generators)
    assert [d for d, _ in gens] == [0, 1]
    e0 = gens[0][1]
    e1 = gens[1][1]
    # d(e1) = ±y·e0
    ((g, al, c),) = r.differential[e1]
    assert g == e0 and al == "y" and not F5.is_zero(c)
    assert class_of(r) == (2, True)


def test_resolution_realization_is_quasi_iso(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    m = trivial_module(a)
    r = resolve_min(m, a)
    cx, eps = r.realize()
    assert check_d_squared(cx)
    verdicts = is_quasi_iso(eps, cx, m.carrier)
    assert all(v is not False for v in verdicts.values())
    assert any(v is True for v in verdicts.values())


def test_truncated_module_resolution(F5, window):
    # K[y]/(y^3) over K[y]: two generators, the syzygy in degree 5
    a = polynomial_algebra(F5, window, [("y", 2)])
    r = resolve_min(truncated_module(a, "y", 2, 3), a)
    degs = sorted(d for _, d, _ in r.generators)
    assert degs == [0, 5]
    assert class_of(r) == (2, True)


def test_k_over_truncated_algebra_periodic(F5, window):
    # K over K[y]/(y^3): the periodic resolution with generators in
    # degrees 0,1,4,5,8,9,... never exhausts a finite window
    a = truncated_polynomial_algebra(F5, window, "y", 2, 3)
    r = resolve_min(trivial_module(a), a)
    degs = sorted(d for _, d, _ in r.generators)
    assert degs[:4] == [0, 1, 4, 5]
    cls, exhausted = class_of(r)
    assert not exhausted


def test_class_two_variables(F5, window):
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    r = resolve_min(trivial_module(a), a)
    assert class_of(r) == (3, True)
    degs = sorted(d for _, d, _ in r.generators)
    assert degs == [0, 1, 1, 2]


def test_minimize_removes_unit_arrows(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    m = truncated_module(a, "y", 2, 3)
    raw = semifree_resolve(m, a)
    r = minimize(raw)
    assert r.is_minimal()
    assert len(r.generators) <= len(raw.generators)
    cx, eps = r.realize()
    verdicts = is_quasi_iso(eps, cx, m.carrier)
    assert all(v is not False for v in verdicts.values())


def test_derived_fiber_exterior_not_exhausted(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    fib = derived_fiber(resolve_min(trivial_module(e), e))
    assert fib.dimensions == {0: 1, -4: 1, -8: 1, -12: 1}
    assert not fib.exhausted  # the pattern continues past any window


def test_derived_fiber_poly(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    fib = derived_fiber(resolve_min(trivial_module(a), a))
    assert fib.dimensions == {0: 1, 1: 1}
    assert fib.exhausted


def test_lemma1_dim_at_least_class(F5, Q, window):
    cases = [
        (polynomial_algebra(F5, window, [("y", 2)]), 2, 2),
        (polynomial_algebra(Q, window, [("y", 2)]), 2, 2),
        (polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)]), 4, 3),
        (truncated_polynomial_algebra(F5, window, "y", 2, 3), None, None),
        (exterior_algebra(F5, window, [("x", -3)]), None, None),
    ]
    for a, dim, cls in cases:
        rep = lemma1_report(trivial_module(a), a)
        assert rep["ok"]
        assert rep["fiber_dim"] >= rep["class"]
        if dim is not None:
            assert rep["fiber_dim"] == dim
        if cls is not None:
            assert rep["class"] == cls


def test_class_requires_minimal(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    raw = semifree_resolve(truncated_module(a, "y", 2, 3), a)
    if not raw.is_minimal():
        with pytest.raises(StructureError):
            class_of(raw)


def test_free_module_is_free_over_homology(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    rep = is_free_over_homology(free_module(a), a)
    assert rep["free"]
    assert all(v == 0 for v in rep["tor1"].values())


def test_trivial_module_not_free(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    rep = is_free_over_homology(trivial_module(a), a)
    assert not rep["free"]
    assert rep["tor1"].get(2) == 1  # relation y·1 = 0 in degree 2


def test_resolution_over_exterior(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    r = resolve_min(trivial_module(e), e)
    cls, exhausted = class_of(r)
    assert cls >= 2 and not exhausted
