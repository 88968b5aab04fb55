"""Bar/cobar constructions and twisted tensor products: homology oracles,
Maurer-Cartan residuals, acyclicity, duality."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    DegreeWindow,
    check_d_squared,
    homology,
)
from dgkoszul.dgstruct import (
    TwistingCochain,
    comodule_over_self,
    exterior_algebra,
    exterior_coalgebra,
    free_module,
    graded_dual_algebra,
    polynomial_algebra,
    trivial_module,
    truncated_polynomial_algebra,
    validate_algebra,
    validate_coalgebra,
    validate_comodule,
    validate_module,
    validate_twisting_cochain,
)
from dgkoszul.gradedcomplex import GradedMap
from dgkoszul.barcobar import (
    bar,
    bar_cobar_duality_check,
    canonical_tau,
    canonical_tau0,
    cobar,
    two_sided_check,
    twisted_tensor_left,
    twisted_tensor_right,
)


def homology_dims(cx):
    dims = {}
    for n in cx.space.degrees():
        if (cx.space.complete_at(n - 1) and cx.space.complete_at(n)
                and cx.space.complete_at(n + 1)):
            h = homology(cx, n)
            if h.dimension:
                dims[n] = h.dimension
    return dims


TRUNCATED_BAR_ALGEBRAS = {
    "K[y]": lambda f, w: polynomial_algebra(f, w, [("y", 2)]),
    "K[y]/(y^4)": lambda f, w: truncated_polynomial_algebra(f, w, "y", 2, 4),
    "K[y,z]": lambda f, w: polynomial_algebra(f, w, [("y", 2), ("z", 2)]),
}


@pytest.mark.parametrize("name,field,lo,hi", [
    pytest.param(name, field, lo, hi, id=f"{name}-{fid}-{lo}:{hi}")
    for name in TRUNCATED_BAR_ALGEBRAS
    for fid, field, lo, hi in (("F5", FieldSpec.prime(5), -9, 7),
                               ("Q", FieldSpec.rationals(), -9, 7),
                               ("F5", FieldSpec.prime(5), -16, 16))
    # two-generator bar words at -16:16 take minutes
    if not (name == "K[y,z]" and hi == 16)])
@pytest.mark.parametrize("module", [trivial_module, free_module],
                         ids=["trivial", "free"])
def test_truncated_bar_comodule_validates(name, field, lo, hi, module):
    # B(m;A) is cut at the window top, where d of a top-degree word is
    # truncated: co-Leibniz is unverifiable there and must be skipped
    w = DegreeWindow(lo, hi)
    a = TRUNCATED_BAR_ALGEBRAS[name](field, w)
    rep = validate_comodule(bar(a, w, m=module(a)))
    assert rep.ok, rep.violations


def test_bar_poly_is_coalgebra_with_torus_homology(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    b = bar(a, window)
    assert validate_coalgebra(b).ok
    assert check_d_squared(b.carrier)
    # Tor^{K[y]}(K, K) = K ⊕ Σ^{-1}K: the class of [y] sits in degree 1
    assert homology_dims(b.carrier) == {0: 1, 1: 1}


def test_bar_exterior_divided_powers(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    b = bar(e, window)
    assert check_d_squared(b.carrier)
    assert homology_dims(b.carrier) == {0: 1, -4: 1, -8: 1, -12: 1}


def test_bar_rejects_mixed_polarity(F5, window):
    from dgkoszul.gradedcomplex import StructureError
    from dgkoszul.dgstruct import DGAlgebra, GradedSpace, Complex
    sp = GradedSpace(F5, window, {0: ["1"], 2: ["y"], -3: ["x"]},
                     bounds=(-3, 2))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    mult = {}
    for a in ("1", "y", "x"):
        mult[("1", a)] = {a: F5.one}
        mult[(a, "1")] = {a: F5.one}
    mult[("y", "y")] = {}
    mult[("y", "x")] = {}
    mult[("x", "y")] = {}
    mult[("x", "x")] = {}
    a = DGAlgebra.from_table(cx, "1", mult, "non-negative")
    with pytest.raises(StructureError):
        bar(a, window)


def test_cobar_dual_poly(F5, window):
    s = polynomial_algebra(F5, window, [("y", 2)])
    om = cobar(graded_dual_algebra(s), window)
    assert check_d_squared(om.carrier)
    assert homology_dims(om.carrier) == {0: 1, -1: 1}
    # full algebra validation on a smaller window (quadratic in dimension)
    small = DegreeWindow(-8, 8)
    s8 = polynomial_algebra(F5, small, [("y", 2)])
    assert validate_algebra(cobar(graded_dual_algebra(s8), small)).ok


def test_cobar_dual_exterior_polynomial(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    om = cobar(graded_dual_algebra(e), window)
    assert homology_dims(om.carrier) == {0: 1, 4: 1, 8: 1, 12: 1}


def test_canonical_tau_mc_residual_zero(F5, window):
    for a in (polynomial_algebra(F5, window, [("y", 2)]),
              exterior_algebra(F5, window, [("x", -3)])):
        assert validate_twisting_cochain(canonical_tau(a, window)).ok


def test_canonical_tau0_mc_residual_zero(F5, window):
    for c in (exterior_coalgebra(F5, window, [("sy", 1)]),
              graded_dual_algebra(
                  exterior_algebra(F5, window, [("x", -3)]))):
        assert validate_twisting_cochain(canonical_tau0(c, window)).ok


def koszul_tau(f, window):
    s = polynomial_algebra(f, window, [("y", 2)])
    c = exterior_coalgebra(f, window, [("sy", 1)])
    return TwistingCochain(c, s, GradedMap(c.space, s.space, 1,
                                           {"sy": {"y": f.one}}))


def test_koszul_complex_acyclic(F5, window):
    t = koszul_tau(F5, window)
    k = twisted_tensor_right(free_module(t.target), t)
    assert validate_comodule(k).ok
    assert homology_dims(k.carrier) == {0: 1}


def test_acyclic_bar_complex(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    t = canonical_tau(a, window)
    # A ⊗_τ B(A) is acyclic onto K
    k = twisted_tensor_right(free_module(a), t)
    assert homology_dims(k.carrier) == {0: 1}


def test_bar_module_matches_trivial_coefficients(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    bm = bar(a, window, m=trivial_module(a))
    b = bar(a, window)
    for n in b.carrier.space.degrees():
        assert bm.space.dim(n) == b.space.dim(n)


def test_twisted_tensor_left_d_squared(F5):
    # small window: module validation is quadratic in total dimension
    window = DegreeWindow(-8, 8)
    c = exterior_coalgebra(F5, window, [("sx1", 1), ("sx2", 1)])
    om = cobar(c, window)
    t = canonical_tau0(c, window, om)
    from dgkoszul.dgstruct import comodule_over_self
    m = twisted_tensor_left(comodule_over_self(c), t)
    assert validate_module(m).ok
    assert check_d_squared(m.carrier)


def test_two_sided_quasi_iso(F5, window):
    t = koszul_tau(F5, window)
    r = two_sided_check(t.target, t.source, t, window)
    assert r["ok"]
    assert all(v is True or v == "unverifiable at boundary"
               for v in r["by_degree"].values())


def test_bar_cobar_duality(F5, window):
    for a in (polynomial_algebra(F5, window, [("y", 2)]),
              exterior_algebra(F5, window, [("x", -3)])):
        r = bar_cobar_duality_check(trivial_module(a), window)
        assert r["ok"], r
        assert all(r["dims_equal"].values())
        assert r["iso_found"]
        assert r["letter_order"] in ("direct", "reversed")


@pytest.mark.parametrize("fieldname", ["F2", "F5", "Q"])
def test_d_squared_all_fixture_algebras(request, fieldname):
    f = request.getfixturevalue(fieldname)
    from dgkoszul.dgstruct import trivial_algebra
    # word counts grow exponentially with the window, so the bigger
    # fixtures get a tighter one
    w12 = DegreeWindow(-12, 12)
    w8 = DegreeWindow(-8, 8)
    algebras = [
        trivial_algebra(f, w12),
        polynomial_algebra(f, w12, [("y", 2)]),
        polynomial_algebra(f, w8, [("y1", 2), ("y2", 2)]),
        exterior_algebra(f, w12, [("x", -3)]),
        exterior_algebra(f, w12, [("x1", -3), ("x2", -5)]),
        truncated_polynomial_algebra(f, w12, "y", 2, 3),
    ]
    for a in algebras:
        w = a.space.window
        b = bar(a, w)
        assert check_d_squared(b.carrier)
        t = canonical_tau(a, w, b)
        tw = twisted_tensor_right(free_module(a), t)
        assert check_d_squared(tw.carrier)
        om = cobar(graded_dual_algebra(a), w)
        assert check_d_squared(om.carrier)


# -------------------------------------------------------------------------
# bar and cobar signs pinned to each other on random small presets
# -------------------------------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_algebras(draw):
    """Polynomial, truncated or exterior presets with 1–2 generators over
    F_2, F_5 or Q on windows up to ±10; a two-generator polynomial algebra
    stays within ±7, since its bar construction grows exponentially."""
    f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                              FieldSpec.rationals()]))
    kind = draw(st.sampled_from(["polynomial", "truncated", "exterior"]))
    if kind == "truncated":
        hi = draw(st.integers(4, 10))
        return truncated_polynomial_algebra(
            f, DegreeWindow(-hi, hi), "y", draw(st.sampled_from([2, 4])),
            draw(st.integers(2, 4)))
    if kind == "polynomial":
        degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1,
                             max_size=2))
        hi = draw(st.integers(4, 10 if len(degs) == 1 else 7))
        return polynomial_algebra(f, DegreeWindow(-hi, hi),
                                  [(f"y{i}", d) for i, d in enumerate(degs)])
    # one sign for all generators, so that the bar letters share a sign
    sign = draw(st.sampled_from([1, -1]))
    degs = draw(st.lists(st.sampled_from([3, 5]), min_size=1, max_size=2))
    hi = draw(st.integers(max(4, sum(degs)), 10))
    return exterior_algebra(f, DegreeWindow(-hi, hi),
                            [(f"x{i}", sign * d) for i, d in enumerate(degs)])


@PROPERTY
@given(small_algebras())
def test_bar_and_cobar_square_to_zero(a):
    c = graded_dual_algebra(a)
    assert check_d_squared(bar(a).carrier)
    assert check_d_squared(cobar(c).carrier)
    for m in (trivial_module(a), free_module(a)):
        assert check_d_squared(bar(a, m=m).carrier)
    assert check_d_squared(cobar(c, n=comodule_over_self(c)).carrier)


@PROPERTY
@given(small_algebras())
def test_bar_cobar_duality_property(a):
    # the explicit signed isomorphism B(K;A)^∨ ≅ Ω(K^∨;A^∨) catches a sign
    # slip in one of the two constructions that d² = 0 alone may not
    r = bar_cobar_duality_check(trivial_module(a))
    assert r["ok"], r
