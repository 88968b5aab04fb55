"""Exterior/polynomial Koszul duality: pairs, Loewy lengths, level
duality, Ext tables."""

from types import SimpleNamespace

import pytest

from dgkoszul import koszul
from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    check_d_squared,
)
from dgkoszul.dgstruct import (
    DGModule,
    exterior_algebra,
    polynomial_algebra,
    trivial_module,
    truncated_module,
    validate_comodule,
    validate_module,
)
from dgkoszul.barcobar import WordComplex, twisted_tensor_left
from dgkoszul.koszul import (
    chain_loewy_length,
    cobar_polynomial_check,
    eta,
    ext_algebra,
    exterior_tor_check,
    koszul_R,
    koszul_pair_check,
    level_duality_check,
    loewy_length,
    make_koszul_pair,
)
from dgkoszul.resolve import is_free_over_homology
from test_gradedcomplex import ref_homology_dims


@pytest.fixture(scope="module")
def pair2(F5, window):
    return make_koszul_pair(F5, window, [2])


def test_make_pair_validates(F5, window, pair2):
    assert pair2.algebra.space.deg("y1") == 2
    assert pair2.coalgebra.space.deg("sy1") == 1
    p22 = make_koszul_pair(F5, window, [2, 2])
    assert p22.coalgebra.space.deg("sy2") == 1


def test_make_pair_rejects_odd_or_negative(F5, window):
    for degs in ([3], [-2], [0], [2, 3]):
        with pytest.raises(StructureError):
            make_koszul_pair(F5, window, degs)


def test_R_of_free_module_acyclic(F5, window, pair2):
    from dgkoszul.dgstruct import free_module
    from dgkoszul.gradedcomplex import homology
    r = koszul_R(pair2, free_module(pair2.algebra))
    assert validate_comodule(r).ok
    cx = r.carrier
    dims = {}
    for n in cx.space.degrees():
        if (cx.space.complete_at(n - 1) and cx.space.complete_at(n)
                and cx.space.complete_at(n + 1)):
            h = homology(cx, n)
            if h.dimension:
                dims[n] = h.dimension
    assert dims == {0: 1}


def test_L_valid_module(F5, window, pair2):
    from dgkoszul.dgstruct import trivial_comodule
    m = twisted_tensor_left(trivial_comodule(pair2.coalgebra), pair2.tau)
    assert m.side == "right"
    assert check_d_squared(m.carrier)


def test_eta_loewy_lengths(F5, window, pair2):
    sv = pair2.algebra
    # η(K): homology K ⊕ ΣK with a nontrivial action, Loewy length 2
    n_free = eta(pair2, trivial_module(sv))
    lw = loewy_length(n_free)
    assert lw["length"] == 2
    assert lw["homology_dims"] == {0: 1, 1: 1}
    # η(SV) ≃ K: one class, Loewy length 1
    from dgkoszul.dgstruct import free_module
    n_sv = eta(pair2, free_module(sv))
    lw2 = loewy_length(n_sv)
    assert lw2["length"] == 1
    assert lw2["homology_dims"] == {0: 1}
    assert chain_loewy_length(n_free) >= lw["length"]


def test_level_duality_values(F5, window, pair2):
    sv = pair2.algebra
    from dgkoszul.dgstruct import free_module
    # level^{SV}(SV) = 1
    r1 = level_duality_check(pair2, free_module(sv))
    assert r1["value"] == 1
    assert r1["intervals_intersect"]
    assert r1.get("eta_trivial_qiso") is True
    # level^{SV}(K) = 2
    r2 = level_duality_check(pair2, trivial_module(sv))
    assert r2["value"] == 2
    assert r2["side_a"]["class"] == 2 and r2["side_a"]["exhausted"]
    assert r2["side_b"]["lower"] == 2 and r2["side_b"]["upper"] == 2
    # level^{SV}(SV/(y^2)) = 2
    r3 = level_duality_check(pair2, truncated_module(sv, "y1", 2, 2))
    assert r3["value"] == 2
    assert r3["intervals_intersect"]


def test_ext_algebra_of_poly(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    r = ext_algebra(a)
    assert r["dims"] == {-1: 1, 0: 1}
    # the exterior generator squares to zero
    sq = r["products"].get(((-1, 0), (-1, 0)))
    assert sq == {}


def test_ext_algebra_of_exterior_is_polynomial(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    r = ext_algebra(e)
    assert r["dims"] == {0: 1, 4: 1, 8: 1, 12: 1}
    prod = r["products"][((4, 0), (4, 0))]
    assert list(prod) == [(8, 0)] and not F5.is_zero(prod[(8, 0)])
    prod2 = r["products"][((4, 0), (8, 0))]
    assert list(prod2) == [(12, 0)]


@pytest.mark.parametrize("fieldname", ["F2", "Q"])
def test_exterior_tor_check_one_var(request, window, fieldname):
    f = request.getfixturevalue(fieldname)
    r = exterior_tor_check(f, [-3], window)
    assert r["ok"], r
    assert {n: v for n, v in r["dims"].items() if v} \
        == {0: 1, -4: 1, -8: 1, -12: 1}


def test_exterior_tor_check_two_vars(F5, window):
    assert exterior_tor_check(F5, [-3, -5], window)["ok"]


@pytest.mark.parametrize("fieldname", ["F2", "Q"])
def test_cobar_polynomial_check_one_var(request, window, fieldname):
    f = request.getfixturevalue(fieldname)
    r = cobar_polynomial_check(f, [-3], window)
    assert r["ok"], r
    assert {n: v for n, v in r["dims"].items() if v} \
        == {0: 1, 4: 1, 8: 1, 12: 1}


def test_cobar_polynomial_check_two_vars(F5, window):
    r = cobar_polynomial_check(F5, [-3, -3], window)
    assert r["ok"], r
    assert {n: v for n, v in r["dims"].items() if v} \
        == {0: 1, 4: 2, 8: 3, 12: 4}
    assert r["commutators_bound"]


@pytest.mark.parametrize("check,construct", [
    (exterior_tor_check, "bar"), (cobar_polynomial_check, "cobar")],
    ids=["tor", "cobar"])
def test_tor_and_cobar_checks_read_homology_of_a_d_squared_checked_complex(
        monkeypatch, check, construct):
    """Criterion 3's calls: each bar or cobar whose homology is read has
    passed its d² check, and each report is the one that one rank per
    block gives."""
    built, real = [], getattr(koszul, construct)

    def keep(x, window):
        built.append(real(x, window))
        return built[-1]

    monkeypatch.setattr(koszul, construct, keep)
    w12 = DegreeWindow(-12, 12)
    for f in (FieldSpec.prime(2), FieldSpec.rationals()):
        for degs in ([-3], [-3, -3]):
            rep = check(f, degs, w12)
            assert rep["ok"] and built[-1].carrier._d_squared
            with monkeypatch.context() as m:
                m.setattr(koszul, "homology_dims", ref_homology_dims)
                assert check(f, degs, w12) == rep
                assert built[-1].carrier._d_squared is None


@pytest.mark.parametrize("check,construct", [
    (exterior_tor_check, "bar"), (cobar_polynomial_check, "cobar")],
    ids=["tor", "cobar"])
def test_tor_and_cobar_checks_refuse_a_wrong_sign(F5, window, monkeypatch,
                                                  check, construct):
    """A sign flipped in the bar or cobar that the check reads, at an
    entry whose target has a nonzero column (at ±16; in the bar at ±12
    every target's column is 0): refused with the first failing degree
    and label, where the dimensions were once read."""
    real, planted = getattr(koszul, construct), []

    def flipped(x, window):
        cx = real(x, window).carrier
        cols = {n: [dict(col) for col in cx.columns(n)]
                for n in cx.space.degrees()}
        n, j, t = next((n, j, t) for n in sorted(cols)
                       for j, col in enumerate(cols[n]) for t in col
                       if cx.columns(n + 1)[t])
        cols[n][j][t] = F5.neg(cols[n][j][t])
        planted.append(WordComplex(cx.space, cols, cx.pol, cx.mag, cx.start))
        return SimpleNamespace(carrier=planted[-1])

    monkeypatch.setattr(koszul, construct, flipped)
    with pytest.raises(StructureError, match="d\\^2 != 0") as e:
        check(F5, [-3, -3], window)
    r = check_d_squared(planted[-1])
    assert not r and str(e.value) == \
        f"d^2 != 0 at degree {r.degree}, label {r.label!r}"


def test_koszul_pair_check_two_sided(F5, window, pair2):
    r = koszul_pair_check(pair2, window)
    assert r["ok"] and r["tau_ok"] and r["two_sided"]["ok"]


def test_koszul_pair_check_rank_two(F5, window):
    p = make_koszul_pair(F5, window, [2, 2])
    r = koszul_pair_check(p, window)
    assert r["ok"]


@pytest.mark.parametrize("side", ["left", "right"])
def test_image_of_a_cycle_that_is_no_cycle_is_refused(F5, side):
    # Λ(x), |x| = -3, on b (degree 0), c and a (-3), t (-2) with d a = t
    # and x sending the cycle b to a, which is no cycle: Leibniz fails, and
    # the readers of classes refuse it instead of reading a zero class
    e = exterior_algebra(F5, DegreeWindow(-8, 8), [("x", -3)])
    sp = GradedSpace(F5, DegreeWindow(-8, 8),
                     {0: ["b"], -3: ["c", "a"], -2: ["t"]}, bounds=(-3, 0))
    cx = Complex(sp, GradedMap(sp, sp, 1, {"a": {"t": F5.one}}))

    def act(al, m):
        return {m: F5.one} if al == "1" else {"a": F5.one} if m == "b" else {}

    m = DGModule(cx, e, act if side == "left" else lambda m, al: act(al, m),
                 side=side)
    assert not validate_module(m).ok
    with pytest.raises(StructureError, match="not a cycle"):
        if side == "left":
            loewy_length(m)
        else:
            is_free_over_homology(m)
