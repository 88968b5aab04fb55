"""DG structures: preset validation, duals, the functor F, twisting
cochains."""

import pytest

from dgkoszul.exactlinalg import vec_scale
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
    DGCoalgebra,
    DGComodule,
    DGModule,
    TwistingCochain,
    ValidationReport,
    comodule_over_self,
    comodule_to_module_F,
    dual_complex,
    dual_label,
    exterior_algebra,
    exterior_coalgebra,
    free_module,
    graded_dual_algebra,
    graded_dual_coalgebra,
    module_direct_sum,
    module_shift,
    polynomial_algebra,
    trivial_algebra,
    trivial_comodule,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
    validate_algebra,
    validate_coalgebra,
    validate_comodule,
    validate_module,
    validate_twisting_cochain,
)


def test_validation_reports_never_share_a_violations_list():
    a, b = ValidationReport(True), ValidationReport(True)
    a.fail("first")
    assert (a.ok, a.violations, bool(a)) == (False, ["first"], False)
    assert (b.ok, b.violations, bool(b)) == (True, [], True)
    assert ValidationReport(False).violations == []


@pytest.mark.parametrize("build", [
    lambda f, w: trivial_algebra(f, w),
    lambda f, w: polynomial_algebra(f, w, [("y", 2)]),
    lambda f, w: polynomial_algebra(f, w, [("y1", 2), ("y2", 4)]),
    lambda f, w: truncated_polynomial_algebra(f, w, "y", 2, 3),
    lambda f, w: exterior_algebra(f, w, [("x", -3)]),
    lambda f, w: exterior_algebra(f, w, [("x1", -3), ("x2", -5)]),
])
def test_preset_algebras_validate(F5, window, build):
    assert validate_algebra(build(F5, window)).ok


def test_polynomial_rejects_odd(F5, window):
    with pytest.raises(ValueError):
        polynomial_algebra(F5, window, [("y", 3)])


def test_exterior_rejects_even(F5, window):
    with pytest.raises(ValueError):
        exterior_algebra(F5, window, [("x", -2)])


def test_exterior_square_zero_and_sign(F5, window):
    e = exterior_algebra(F5, window, [("x1", -3), ("x2", -5)])
    assert e.mult_pair("x1", "x1") == {}
    ab = e.mult_pair("x1", "x2")
    ba = e.mult_pair("x2", "x1")
    ((l1, c1),) = ab.items()
    ((l2, c2),) = ba.items()
    assert l1 == l2
    assert c2 == F5.neg(c1)  # odd generators anticommute


def test_exterior_coalgebra_validates(F5, window):
    for gens in ([("sx", 1)], [("sx1", 1), ("sx2", 3)]):
        assert validate_coalgebra(exterior_coalgebra(F5, window, gens)).ok


def test_preset_modules_validate(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    for m in (trivial_module(a), free_module(a),
              truncated_module(a, "y", 2, 3),
              module_shift(trivial_module(a), 3)):
        assert validate_module(m).ok
    s = module_direct_sum([trivial_module(a), free_module(a)])
    assert validate_module(s).ok


@pytest.mark.parametrize("power", [0, -1])
def test_truncated_module_refuses_a_power_below_one(F5, power):
    """K[y]/(y^power) with power < 1 would be the zero module; power 1 is
    K, one basis label in degree 0 on which y acts as zero."""
    a = polynomial_algebra(F5, DegreeWindow(-8, 8), [("y", 2)])
    with pytest.raises(StructureError,
                       match=f"module power {power} must be at least 1"):
        truncated_module(a, "y", 2, power)
    k = truncated_module(a, "y", 2, 1)
    assert k.space.basis == {0: ("m:1",)} and validate_module(k).ok
    assert k.act_pair("m:1", "y") == {}


def test_truncated_module_refuses_a_degree_it_cannot_divide(F5):
    """K[y1]/(y1^3) with |y1| = 4 over K[y1, y2], |y2| = 2: y2 would act
    with degree 0, so the module is refused; with |y1| = 2 and |y2| = 4
    both act as powers of y1 and the module validates."""
    w = DegreeWindow(-12, 12)
    a = polynomial_algebra(F5, w, [("y1", 4), ("y2", 2)])
    with pytest.raises(StructureError, match="algebra basis degree 2 is "
                       "not a multiple of the module generator degree 4"):
        truncated_module(a, "y1", 4, 3)
    b = polynomial_algebra(F5, w, [("y1", 2), ("y2", 4)])
    m = truncated_module(b, "y1", 2, 3)
    assert validate_module(m).ok
    assert m.act_pair("m:1", "y2") == {"m:y1^2": F5.one}
    assert m.act_pair("m:y1", "y2") == {}  # y1^3 = 0


def lookup(table):
    """A coproduct or coaction rule read from a per-label table."""
    return lambda l: table.get(l, [])


def test_comodules_validate(F5, window):
    c = exterior_coalgebra(F5, window, [("sx1", 1), ("sx2", 1)])
    assert validate_comodule(comodule_over_self(c)).ok
    assert validate_comodule(trivial_comodule(c)).ok


def test_comodule_co_leibniz_checked_below_the_window_top(F5, window):
    # N = <a, b> with Δa = a⊗1, Δb = b⊗1 + a⊗sy is a comodule over Λ(sy),
    # but d(a) = b breaks co-Leibniz at a: Δ(da) has the extra a⊗sy.
    # Degree 1 lies inside the window, so the check must not be skipped.
    c = exterior_coalgebra(F5, window, [("sy", 1)])
    sp = GradedSpace(F5, window, {0: ["a"], 1: ["b"]}, bounds=(0, 1))
    coaction = {"a": [("a", "1", 1)], "b": [("b", "1", 1), ("a", "sy", 1)]}
    flat = Complex(sp, GradedMap.zero(sp, sp, 1))
    assert validate_comodule(DGComodule(flat, c, lookup(coaction))).ok
    cx = Complex(sp, GradedMap(sp, sp, 1, {"a": {"b": 1}}))
    rep = validate_comodule(DGComodule(cx, c, lookup(coaction)))
    assert rep.violations == ["co-Leibniz fails at 'a'"]


def test_dual_labels_roundtrip():
    # a dual label is the label with a star appended, so stripping the
    # star gives the label back
    assert dual_label("y^2") == "y^2*"


def test_dual_complex_squares(F5, window):
    a = exterior_algebra(F5, window, [("x", -3)])
    d = dual_complex(a.carrier)
    assert d.space.deg(dual_label("x")) == 3


def test_graded_dual_algebra_coalgebra_validate(F5, window):
    s = polynomial_algebra(F5, window, [("y", 2)])
    assert validate_coalgebra(graded_dual_algebra(s)).ok
    c = exterior_coalgebra(F5, window, [("sy", 1)])
    assert validate_algebra(graded_dual_coalgebra(c)).ok


def test_functor_F_gives_valid_module(F5, window):
    c = exterior_coalgebra(F5, window, [("sy", 1)])
    n = comodule_over_self(c)
    m = comodule_to_module_F(n)
    assert m.side == "left"
    assert validate_module(m).ok


def test_twisting_cochain_koszul_residual_zero(F5, window):
    s = polynomial_algebra(F5, window, [("y", 2)])
    c = exterior_coalgebra(F5, window, [("sy", 1)])
    t = TwistingCochain(c, s, GradedMap(c.space, s.space, 1,
                                        {"sy": {"y": F5.one}}))
    assert validate_twisting_cochain(t).ok


def test_twisting_cochain_bad_residual_caught(F5, window):
    from dgkoszul.barcobar import bar, canonical_tau
    a = polynomial_algebra(F5, window, [("y", 2)])
    t = canonical_tau(a, window)
    # scaling τ breaks the balance between the linear part (against the
    # bar differential) and the quadratic Maurer-Cartan term
    m = t.map
    bad = TwistingCochain(t.source, t.target, GradedMap(
        m.source, m.target, m.shift,
        {l: vec_scale(F5, F5.from_int(2), v) for l, v in m.cols.items()}))
    assert not validate_twisting_cochain(bad).ok


# -------------------------------------------------------------------------
# products must be graded
# -------------------------------------------------------------------------

def _zero_d_complex(f, window, basis):
    sp = GradedSpace(f, window, basis, bounds=(min(basis), max(basis)))
    return Complex(sp, GradedMap.zero(sp, sp, 1))


@pytest.mark.parametrize("ydeg,yy", [
    (2, {"1": 1}),    # y·y = 1 lands in degree 0, not 4
    (2, {"y": 1}),    # y·y = y lands in degree 2, not 4
    (10, {"1": 1}),   # the pair's degree 20 lies outside the window
])
def test_ungraded_table_algebra_fails(F5, window, ydeg, yy):
    cx = _zero_d_complex(F5, window, {0: ["1"], ydeg: ["y"]})
    table = {("1", "1"): {"1": 1}, ("1", "y"): {"y": 1},
             ("y", "1"): {"y": 1}, ("y", "y"): yy}
    a = DGAlgebra.from_table(cx, "1", table, "non-negative")
    rep = validate_algebra(a)
    assert not rep.ok
    assert rep.violations[0] == "product not of degree |x|+|y| at ('y', 'y')"


def test_graded_table_algebra_passes(F5, window):
    cx = _zero_d_complex(F5, window, {0: ["1"], 10: ["y"]})
    table = {("1", "1"): {"1": 1}, ("1", "y"): {"y": 1},
             ("y", "1"): {"y": 1}, ("y", "y"): {}}
    assert validate_algebra(
        DGAlgebra.from_table(cx, "1", table, "non-negative")).ok


@pytest.mark.parametrize("side", ["right", "left"])
def test_ungraded_table_module_fails(F5, window, side):
    a = polynomial_algebra(F5, DegreeWindow(-4, 4), [("y", 2)])
    cx = _zero_d_complex(F5, a.space.window, {0: ["m"]})
    # y acts on m as the identity: degree 0 instead of 2
    action = {("m", "1"): {"m": 1}, ("m", "y"): {"m": 1},
              ("m", "y^2"): {}}
    if side == "left":
        action = {(x, m): v for (m, x), v in action.items()}
    rep = validate_module(DGModule.from_table(cx, a, action, side=side))
    assert not rep.ok
    assert rep.violations[0] == "product not of degree |x|+|y| at ('m', 'y')"


def test_trivial_table_module_passes(F5):
    a = polynomial_algebra(F5, DegreeWindow(-4, 4), [("y", 2)])
    cx = _zero_d_complex(F5, a.space.window, {0: ["m"]})
    action = {("m", "1"): {"m": 1}, ("m", "y"): {}, ("m", "y^2"): {}}
    assert validate_module(DGModule.from_table(cx, a, action)).ok


# -------------------------------------------------------------------------
# broken coalgebras and comodules report their first violation
# -------------------------------------------------------------------------

def _coalgebra(f, window, basis, comult, d=None, counit=None):
    sp = GradedSpace(f, window, basis, bounds=(min(basis), max(basis)))
    cx = Complex(sp, GradedMap(sp, sp, 1, d or {}))
    return DGCoalgebra(cx, lookup(comult), counit or {"1": f.one}, "1")


def _prim(l):
    return [(l, "1", 1), ("1", l, 1)]


# Δu = u⊗1 + 1⊗u + p⊗p is coassociative
UNIT = {"1": [("1", "1", 1)]}
P_U = {0: ["1"], 1: ["p"], 2: ["u"]}
P_U_COMULT = dict(UNIT, p=_prim("p"), u=_prim("u") + [("p", "p", 1)])


def test_valid_hand_built_coalgebra(F5, window):
    assert validate_coalgebra(_coalgebra(F5, window, P_U, P_U_COMULT)).ok


def test_coalgebra_wrong_counit(F5, window):
    c = _coalgebra(F5, window, P_U, P_U_COMULT, counit={"1": 1, "p": 1})
    assert validate_coalgebra(c).violations == [
        "right counit law fails at 'p'", "left counit law fails at 'p'"]


def test_coalgebra_not_coassociative(F5, window):
    # Δx = x⊗1 + 1⊗x + u⊗p: (Δ⊗1)Δx has p⊗p⊗p, (1⊗Δ)Δx has not
    basis = {**P_U, 3: ["x"]}
    comult = dict(P_U_COMULT, x=_prim("x") + [("u", "p", 1)])
    c = _coalgebra(F5, window, basis, comult)
    assert validate_coalgebra(c).violations == ["coassociativity fails at 'x'"]


def test_coalgebra_co_leibniz_fails(F5, window):
    # d a = b, Δa primitive, Δb = b⊗1 + 1⊗b + a⊗a: Δ(da) has a⊗a,
    # (d⊗1 + 1⊗d)Δa has not
    basis = {0: ["1"], 1: ["a"], 2: ["b"]}
    comult = dict(UNIT, a=_prim("a"), b=_prim("b") + [("a", "a", 1)])
    c = _coalgebra(F5, window, basis, comult, d={"a": {"b": 1}})
    assert validate_coalgebra(c).violations == ["co-Leibniz fails at 'a'"]


def _comodule(f, window, c, coaction):
    basis = {0: ["n0"], 1: ["n1"], 2: ["n2"]}
    sp = GradedSpace(f, window, basis, bounds=(0, 2))
    return DGComodule(Complex(sp, GradedMap.zero(sp, sp, 1)), c,
                      lookup(coaction))


COACTION = {"n0": [("n0", "1", 1)],
            "n1": [("n1", "1", 1), ("n0", "p", 1)],
            "n2": [("n2", "1", 1), ("n0", "u", 1), ("n1", "p", 1)]}


def test_valid_hand_built_comodule(F5, window):
    c = _coalgebra(F5, window, P_U, P_U_COMULT)
    assert validate_comodule(_comodule(F5, window, c, COACTION)).ok


def test_comodule_counitality_fails(F5, window):
    c = _coalgebra(F5, window, P_U, P_U_COMULT)
    coaction = dict(COACTION, n0=[("n0", "1", 2)])
    rep = validate_comodule(_comodule(F5, window, c, coaction))
    assert rep.violations[0] == "right counit law fails at 'n0'"


def test_comodule_coassociativity_fails(F5, window):
    # without n1⊗p, (1⊗Δ)Δ_N(n2) keeps n0⊗p⊗p and (Δ_N⊗1)Δ_N(n2) loses it
    c = _coalgebra(F5, window, P_U, P_U_COMULT)
    coaction = dict(COACTION, n2=[("n2", "1", 1), ("n0", "u", 1)])
    rep = validate_comodule(_comodule(F5, window, c, coaction))
    assert rep.violations == ["coassociativity fails at 'n2'"]


# -------------------------------------------------------------------------
# unit laws
# -------------------------------------------------------------------------

@pytest.mark.parametrize("one_y,y_one,side", [
    ({}, {"y": 1}, "left"),     # 1·y = 0
    ({"y": 1}, {}, "right"),    # y·1 = 0
])
def test_table_algebra_unit_law_fails(F5, window, one_y, y_one, side):
    # |y| = 10 puts y·y outside the window, so no other axiom is touched
    cx = _zero_d_complex(F5, window, {0: ["1"], 10: ["y"]})
    table = {("1", "1"): {"1": 1}, ("1", "y"): one_y, ("y", "1"): y_one,
             ("y", "y"): {}}
    rep = validate_algebra(DGAlgebra.from_table(cx, "1", table,
                                                "non-negative"))
    assert rep.violations == [f"{side} unit law fails at 'y'"]


@pytest.mark.parametrize("side", ["right", "left"])
def test_table_module_unit_law_fails(F5, side):
    a = polynomial_algebra(F5, DegreeWindow(-4, 4), [("y", 2)])
    cx = _zero_d_complex(F5, a.space.window, {0: ["m"]})
    # the unit acts by 0
    action = {("m", "1"): {}, ("m", "y"): {}, ("m", "y^2"): {}}
    if side == "left":
        action = {(x, m): v for (m, x), v in action.items()}
    rep = validate_module(DGModule.from_table(cx, a, action, side=side))
    assert rep.violations == [f"{side} unit law fails at 'm'"]
