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
    bar_word_label,
    canonical_tau,
    canonical_tau0,
    cobar,
    cobar_word_label,
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


# -------------------------------------------------------------------------
# bar and cobar against a reference word-complex builder
# -------------------------------------------------------------------------

def reference_word_complex(carrier, shift, win, skip, quadratic, label):
    """Labels per degree and differential columns of the word complex on
    the letters s^shift x, x ≠ skip, over the window ``win``.  Every term
    of every word is labelled, tested against the basis and added in turn;
    ``quadratic(entries, i)`` gives the terms (replacement, width, sign,
    coefficient) at the i-th letter."""
    sp = carrier.space
    f = sp.field
    letters = sorted((l, sp.deg(l) + shift) for l in sp if l != skip)
    top = max(-win.lo, win.hi)
    words: dict = {}

    def rec(word, n):
        # the letters share a sign, so |n| only grows along a word
        if n in win:
            words.setdefault(n, []).append(word)
        for l, d in letters:
            if abs(n + d) <= top:
                rec(word + (l,), n + d)

    rec((), 0)
    words = {n: sorted(ws) for n, ws in sorted(words.items())}
    labels = {n: [label(e) for e in ws] for n, ws in words.items()}
    basis = {l for ls in labels.values() for l in ls}
    minus = f.from_int(-1)
    odd = {l for l, d in letters if d % 2}
    internal = {l: [((t,), 1, minus, v)
                    for t, v in carrier.d(l).items() if t != skip]
                for l, _ in letters}
    cols: dict = {}
    for n, ws in words.items():
        for source, entries in zip(labels[n], ws):
            col: dict = {}
            psgn = f.one
            for i, x in enumerate(entries):
                for terms in (internal[x], quadratic(entries, i)):
                    for rep, width, sign, v in terms:
                        tgt = label(entries[:i] + rep + entries[i + width:])
                        if tgt in basis:
                            s = f.add(col.get(tgt, f.zero),
                                      f.mul(f.mul(sign, psgn), v))
                            if f.is_zero(s):
                                col.pop(tgt, None)
                            else:
                                col[tgt] = s
                if x in odd:
                    psgn = f.mul(minus, psgn)
            if col:
                cols[source] = col
    return labels, cols


def reference_bar(a, win):
    f = a.field

    def merge(entries, i):
        if i + 1 == len(entries):
            return []
        x = entries[i]
        sign = f.from_int(-1 if a.space.deg(x) % 2 else 1)
        return [((t,), 2, sign, v)
                for t, v in a.mult_pair(x, entries[i + 1]).items()
                if t != a.unit]

    return reference_word_complex(a.carrier, -1, win, a.unit, merge,
                                  bar_word_label)


def reference_cobar(c, win):
    f = c.field
    sp = c.space

    def split(entries, i):
        return [((c1, c2), 1, f.from_int(1 if sp.deg(c1) % 2 else -1), v)
                for c1, c2, v in c.reduced_comult(entries[i])]

    return reference_word_complex(c.carrier, 1, win, c.coaug, split,
                                  cobar_word_label)


def assert_matches_reference(cx, reference):
    labels, cols = reference
    sp = cx.space
    assert {n: list(sp.labels(n)) for n in sp.degrees()} == labels
    for l in sp:
        # the same key order too: reports and eliminations follow it
        assert list(cx.d(l).items()) == list(cols.get(l, {}).items()), l


@PROPERTY
@given(small_algebras())
def test_bar_and_cobar_match_reference_builder(a):
    b = bar(a)
    assert_matches_reference(b.carrier, reference_bar(a, b.space.window))
    c = graded_dual_algebra(a)
    om = cobar(c)
    assert_matches_reference(om.carrier, reference_cobar(c, om.space.window))
