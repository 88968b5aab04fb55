"""Graded complexes: homology oracles, cones, diagonal isos."""

import pytest

from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
    check_d_squared,
    check_mutually_inverse,
    cone,
    direct_sum,
    homology,
    homology_class,
    is_chain_map,
    is_quasi_iso,
    shift_complex,
    solve_diagonal_chain_iso,
)


def two_step(f, w=None):
    """0 -> K -> K -> 0 with the identity differential: acyclic."""
    w = w or DegreeWindow(-4, 4)
    sp = GradedSpace(f, w, {0: ["a"], 1: ["b"]}, bounds=(0, 1))
    d = GradedMap(sp, sp, 1, {"a": {"b": f.one}})
    return Complex(sp, d)


def split_circle(f, w=None):
    """Degrees 0,1 with zero differential: H = K in both."""
    w = w or DegreeWindow(-4, 4)
    sp = GradedSpace(f, w, {0: ["u"], 1: ["v"]}, bounds=(0, 1))
    return Complex(sp, GradedMap.zero(sp, sp, 1))


def test_acyclic_two_step(F5):
    c = two_step(F5)
    assert check_d_squared(c)
    for n in (-1, 0, 1, 2):
        assert homology(c, n).dimension == 0


def test_homology_oracle_split(F5):
    c = split_circle(F5)
    assert homology(c, 0).dimension == 1
    assert homology(c, 1).dimension == 1
    assert homology(c, 0).representatives == [{"u": F5.one}]


def test_homology_refuses_incomplete(F5):
    w = DegreeWindow(0, 2)
    sp = GradedSpace(F5, w, {0: ["a"]}, bounds=(-5, 5))
    c = Complex(sp, GradedMap.zero(sp, sp, 1))
    with pytest.raises(WindowError):
        homology(c, 0)


def test_homology_class_boundary_is_zero(F5):
    c = two_step(F5)
    assert homology_class(c, 1, {"b": F5.one}) == {}


def test_shift_sign_and_degrees(F5):
    c = split_circle(F5)
    s = shift_complex(c, 1)
    assert s.space.deg("u") == -1
    s2 = two_step(F5)
    sh = shift_complex(s2, 1)
    assert sh.d("a") == {"b": F5.from_int(-1)}
    assert check_d_squared(sh)


def test_cone_of_identity_acyclic(F5):
    c = split_circle(F5)
    ident = GradedMap.identity(c.space)
    cx = cone(ident, c, c)
    assert check_d_squared(cx)
    for n in range(-2, 3):
        if cx.space.complete_at(n - 1) and cx.space.complete_at(n + 1):
            assert homology(cx, n).dimension == 0


def test_cone_of_zero_splits(F5):
    c = split_circle(F5)
    z = GradedMap.zero(c.space, c.space, 0)
    cx = cone(z, c, c)
    assert check_d_squared(cx)
    # cone(0: C -> C) = ΣC ⊕ C
    assert homology(cx, 0).dimension == 2


def test_is_chain_map_witness(F5):
    c = split_circle(F5)
    t = two_step(F5)
    bad = GradedMap(c.space, t.space, 0, {"u": {"a": F5.one}})
    ok, witness = is_chain_map(bad, c, t)
    assert not ok and witness[:2] == (0, "u")


def test_is_chain_map_rejects_stray_images(F5):
    # zero differentials commute with anything; the images must still
    # land in the target, in the right degree
    c = split_circle(F5)
    ident = GradedMap.identity(c.space)
    empty = GradedSpace(F5, c.window, {}, bounds=(1, 0))
    ok, witness = is_chain_map(ident, c, Complex(empty, GradedMap.zero(
        empty, empty, 1)))
    assert not ok and witness == (0, "u", {"u": F5.one})
    swapped = GradedSpace(F5, c.window, {0: ["v"], 1: ["u"]}, bounds=(0, 1))
    ok, witness = is_chain_map(ident, c, Complex(swapped, GradedMap.zero(
        swapped, swapped, 1)))
    assert not ok and witness == (0, "u", {"u": F5.one})


def test_direct_sum_tags_and_projections(F5):
    c = split_circle(F5)
    total, incs, projs = direct_sum([c, c], ["l", "r"])
    assert total.space.dim(0) == 2
    assert "l:u" in total.space and "r:u" in total.space
    assert projs[0].compose(incs[0]) == GradedMap.identity(c.space)


def test_solve_diagonal_chain_iso_signs(F5):
    c = two_step(F5)
    # target with differential scaled by -1; iso must pick up a sign
    sp = c.space
    d2 = GradedMap(sp, sp, 1, {"a": {"b": F5.from_int(-1)}})
    c2 = Complex(sp, d2)
    gm = solve_diagonal_chain_iso(c, c2, {"a": "a", "b": "b"})
    assert gm is not None
    coeffs = {l: next(iter(col.values())) for l, col in gm.cols.items()}
    assert F5.mul(coeffs["a"], F5.inv(coeffs["b"])) == F5.from_int(-1)


def test_solve_diagonal_rejects_impossible(F5):
    c = two_step(F5)
    z = split_circle(F5)
    assert solve_diagonal_chain_iso(c, z, {"a": "u", "b": "v"}) is None


@pytest.mark.parametrize("bijection", [
    pytest.param({"u": "u"}, id="misses-a-label"),
    pytest.param({"u": "u", "v": "w"}, id="outside-the-target"),
    pytest.param({"u": "v", "v": "u"}, id="wrong-degree"),
])
def test_solve_diagonal_rejects_bad_bijection(F5, bijection):
    c = split_circle(F5)
    assert solve_diagonal_chain_iso(c, c, bijection) is None


def test_quasi_iso_detection(F5):
    c = split_circle(F5)
    ident = GradedMap.identity(c.space)
    verdicts = is_quasi_iso(ident, c, c)
    assert all(v is True or v == "unverifiable at boundary"
               for v in verdicts.values())


def test_check_mutually_inverse_raises(F5):
    c = split_circle(F5)
    z = GradedMap.zero(c.space, c.space, 0)
    with pytest.raises(StructureError):
        check_mutually_inverse(z, z, c, c)
