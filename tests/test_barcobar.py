"""Bar/cobar constructions and twisted tensor products: homology oracles,
Maurer-Cartan residuals, acyclicity, the letter-by-letter reference and
the label-keyed builder."""

import contextlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul import barcobar, cli
from dgkoszul.exactlinalg import FieldSpec, vec_iadd
from dgkoszul.gradedcomplex import (
    NEG_INF,
    POS_INF,
    Complex,
    DegreeWindow,
    GradedSpace,
    StructureError,
    WindowError,
    check_d_squared,
    homology,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
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
    bar_word_label,
    canonical_tau,
    canonical_tau0,
    cobar,
    cobar_word_label,
    two_sided_check,
    twisted_tensor_left,
    twisted_tensor_right,
)
from test_resolve import hypersurface


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
    rep = validate_comodule(
        twisted_tensor_right(module(a), canonical_tau(a, w), w))
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
    bm = twisted_tensor_right(trivial_module(a), canonical_tau(a, window),
                              window)
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
    r = two_sided_check(t)
    assert r["ok"]
    assert all(v is True or v == "unverifiable at boundary"
               for v in r["by_degree"].values())


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
        assert check_d_squared(
            twisted_tensor_right(m, canonical_tau(a)).carrier)
    assert check_d_squared(twisted_tensor_left(
        comodule_over_self(c), canonical_tau0(c)).carrier)


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
                            s = f.from_int(col.get(tgt, f.zero)
                                           + f.mul(f.mul(sign, psgn), v))
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


# -------------------------------------------------------------------------
# the tail recurrence against the letter-by-letter builder
# -------------------------------------------------------------------------

def letter_by_letter(carrier, shift, win, skip, quadratic, label):
    """The builder before the tail recurrence, on the trimmed window
    ``win``: words by recursion, sorted per degree, and each column summed
    over every position of its word, with the terms of ``quadratic(x, y)``
    at a letter x followed by y (None at the end).  Returns the labels per
    degree and the columns."""
    sp = carrier.space
    f = sp.field
    letters = sorted((l, sp.deg(l) + shift) for l in sp if l != skip)
    pol = 1 if not letters or letters[0][1] > 0 else -1
    lim = win.hi if pol > 0 else -win.lo
    words: dict = {}

    def rec(word, wdeg):
        mag = wdeg if pol > 0 else -wdeg
        if wdeg in win:
            words.setdefault(wdeg, []).append(tuple(l for l, _ in word))
        for l, d in letters:
            if mag + (d if pol > 0 else -d) <= lim:
                word.append((l, d))
                rec(word, wdeg + d)
                word.pop()

    rec([], 0)
    labels = {n: [label(e) for e in sorted(ws)]
              for n, ws in sorted(words.items())}
    index = {e: label(e) for ws in words.values() for e in ws}
    odd = {l for l, d in letters if d % 2}
    internal = {l: [((t,), 1, f.neg(v))
                    for t, v in carrier.d(l).items() if t != skip]
                for l, _ in letters}
    cols: dict = {}
    for entries, source in index.items():
        col: dict = {}
        neg = False
        for i, (x, y) in enumerate(zip(entries, entries[1:] + (None,))):
            for rep, width, v in internal[x] + quadratic(x, y):
                tgt = index.get(entries[:i] + rep + entries[i + width:])
                if tgt is not None:
                    s = f.from_int(col.get(tgt, f.zero)
                                   + (f.neg(v) if neg else v))
                    if s:
                        col[tgt] = s
                    else:
                        col.pop(tgt, None)
            if x in odd:
                neg = not neg
        if col:
            cols[source] = col
    return labels, cols


@st.composite
def word_complex_inputs(draw):
    """The arguments of ``_word_complex`` over F_2, F_5 or Q: 1–4 letters
    of one sign, odd and even suspended degree, none of carrier degree 0;
    a random internal d; a bar-shaped rule (one letter for x and the next)
    or a cobar-shaped one (two letters for x); and a window whose near end
    may lie past 0.  The carrier need not square to zero: the builders
    must agree on any input."""
    f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                              FieldSpec.rationals()]))
    shift = draw(st.sampled_from([-1, 1]))
    sign = draw(st.sampled_from([-1, 1]))
    # a run of magnitudes in steps of 0 or 1, so that d and the rule find
    # targets; only magnitude 1 can be of carrier degree 0
    mags = [draw(st.integers(1, 3).filter(lambda m: sign * m != shift))]
    for _ in range(draw(st.integers(0, 3))):
        mags.append(mags[-1] + draw(st.integers(0, 1)))
    names = "abcd"[:len(mags)]
    susp = dict(zip(names, (sign * m for m in mags)))
    deg = {l: d - shift for l, d in susp.items()}
    basis: dict = {0: ["1"]}
    for l in names:
        basis.setdefault(deg[l], []).append(l)
    sp = GradedSpace(f, DegreeWindow(-12, 12), basis,
                     bounds=(min(basis), max(basis)))
    coefficients = scalars_of(f)
    d = {x: {t: draw(coefficients) for t in names
             if deg[t] == deg[x] + 1 and draw(st.booleans())}
         for x in names}
    carrier = Complex(sp, GradedMap(sp, sp, 1,
                                    {x: c for x, c in d.items() if c}))
    ends = list(names) + [None]
    table = {}
    for x in names:
        for y in ends:
            if shift < 0:  # merge x and y into one letter
                reps = [(t,) for t in names
                        if y is not None and susp[t] == susp[x] + susp[y] + 1]
            else:  # split x into two letters
                reps = [(a, b) for a in names for b in names
                        if susp[a] + susp[b] == susp[x] + 1]
            picked = draw(st.lists(st.sampled_from(reps), min_size=1,
                                   max_size=3)
                          if reps and draw(st.booleans()) else st.just([]))
            table[x, y] = [(rep, 2 if shift < 0 else 1, draw(coefficients))
                           for rep in picked]
    # words grow exponentially; keep the far end near 500 words
    count, far = [1], 0
    while far < 14 and sum(count) < 500:
        far += 1
        count.append(sum(count[far - m] for m in mags if m <= far))
    near = draw(st.integers(-2, far // 2))
    hi = max(near, far - draw(st.integers(0, 2)))
    window = (DegreeWindow(near, hi) if sign > 0
              else DegreeWindow(-hi, -near))
    label = bar_word_label if shift < 0 else cobar_word_label
    return (carrier, shift, window, "1",
            lambda x, y: table[x, y], label)


def scalars_of(f):
    if f.kind == "prime":
        return st.integers(1, f.p - 1)
    return st.builds(Fraction, st.integers(-3, 3).filter(bool),
                     st.integers(1, 4))


def assert_same_words_and_columns(cx, reference):
    labels, cols = reference
    sp = cx.space
    assert {n: list(sp.labels(n)) for n in sp.degrees()} == labels
    assert cx.differential.cols.keys() == cols.keys()
    for l, col in cols.items():
        assert list(cx.d(l).items()) == list(col.items()), l


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(word_complex_inputs())
def test_tail_recurrence_matches_the_letter_by_letter_builder(args):
    carrier, shift, window, skip, quadratic, label = args
    cx = barcobar._word_complex(carrier, shift, window, skip, quadratic,
                                label, "test")
    assert_same_words_and_columns(cx, letter_by_letter(
        carrier, shift, cx.space.window, skip, quadratic, label))


def test_word_complex_refusals(F5):
    """Letters of mixed suspended sign, which validation's polarity check
    keeps from every presentation, so ``bar`` is called directly; and a
    ``quadratic`` term of the wrong degree, from a hand-built rule."""
    sp = GradedSpace(F5, DegreeWindow(-4, 4),
                     {-1: ["w"], 0: ["1"], 3: ["z"]}, bounds=(-1, 3))
    carrier = Complex(sp, GradedMap.zero(sp, sp, 1))
    a = DGAlgebra(carrier, "1", lambda x, y: {}, "non-negative")
    with pytest.raises(StructureError, match="^bar construction: letters "
                       "of mixed suspended sign; word enumeration does "
                       "not terminate$"):
        bar(a)
    sp = GradedSpace(F5, DegreeWindow(-4, 4), {0: ["1"], 2: ["a"]},
                     bounds=(0, 2))
    carrier = Complex(sp, GradedMap.zero(sp, sp, 1))
    # s⁻¹a·s⁻¹a merged into s⁻¹a: degree 1, where 3 is due
    with pytest.raises(StructureError, match="^test: a term of d at 'a' "
                       "is not of degree one more$"):
        barcobar._word_complex(carrier, -1, None, "1",
                               lambda x, y: [] if y is None
                               else [(("a",), 2, 1)], bar_word_label, "test")


def koszul_dga(f, e):
    """Λ(x)⊗K[y]/(y²) with |y| = 2e (e ≠ 0), |x| = 2e − 1 and dx = y."""
    y, x = 2 * e, 2 * e - 1
    basis = {0: ["1"], x: ["x"], y: ["y"], x + y: ["x*y"]}
    lo, hi = min(basis), max(basis)
    sp = GradedSpace(f, DegreeWindow(lo, hi), basis, bounds=(lo, hi))
    exps = {"1": (0, 0), "x": (1, 0), "y": (0, 1), "x*y": (1, 1)}
    label = {v: l for l, v in exps.items()}

    def mult_pair(a, b):
        # y is even, so no sign moves it past x
        t = label.get((exps[a][0] + exps[b][0], exps[a][1] + exps[b][1]))
        return {t: f.one} if t else {}

    cx = Complex(sp, GradedMap(sp, sp, 1, {"x": {"y": f.one}}))
    return DGAlgebra(cx, "1", mult_pair,
                     "non-negative" if e > 0 else "non-positive")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                        FieldSpec.rationals()]),
       st.sampled_from([-2, -1, 2, 3]), st.integers(-2, 6), st.integers(0, 10))
def test_bar_and_cobar_of_a_dga_match_the_letter_by_letter_builder(
        f, e, near, span):
    """bar and cobar of Λ(x)⊗K[y]/(y²) with dx = y, in both polarities, on
    windows whose near end may lie past 0 (lo > 0 for the bar of a
    non-negative algebra, hi < 0 for its dual's cobar)."""
    a = koszul_dga(f, e)
    sign = 1 if e > 0 else -1
    calls = []
    build = barcobar._word_complex

    def spy(carrier, shift, window, skip, quadratic, label, what):
        cx = build(carrier, shift, window, skip, quadratic, label, what)
        calls.append((cx, (carrier, shift, cx.space.window, skip, quadratic,
                           label)))
        return cx

    lo, hi = near, near + span
    with mock.patch.object(barcobar, "_word_complex", spy):
        bar(a, DegreeWindow(lo, hi) if sign > 0 else DegreeWindow(-hi, -lo))
        cobar(graded_dual_algebra(a),
              DegreeWindow(-hi, -lo) if sign > 0 else DegreeWindow(lo, hi))
    assert len(calls) == 2
    for cx, args in calls:
        assert_same_words_and_columns(cx, letter_by_letter(*args))


# -------------------------------------------------------------------------
# the word complex on positions against the label-keyed builder
# -------------------------------------------------------------------------

def label_keyed_word_complex(carrier, shift, window, skip, quadratic, label,
                             what):
    """The word-complex builder as it was before words were kept by their
    positions: every word spelled and looked up by its letters, the
    columns keyed by labels.  The oracle for ``barcobar._word_complex``."""
    sp = carrier.space
    f = sp.field
    w = window or sp.window
    letters = sorted((l, sp.deg(l) + shift) for l in sp if l != skip)
    if not letters:
        win, bounds, pol, near, far = w, (0, 0), 1, 0, 0
    else:
        degs = [d for _, d in letters]
        assert 0 not in degs and not min(degs) < 0 < max(degs)
        pol = 1 if degs[0] > 0 else -1
        if pol > 0:
            ka = POS_INF if sp.bounds[1] <= sp.window.hi else sp.window.hi
            hi = w.hi if ka == POS_INF else min(w.hi, int(ka) + shift)
            win = DegreeWindow(max(w.lo, 0), max(hi, 0))
            bounds = (0, POS_INF)
        else:
            kb = NEG_INF if sp.bounds[0] >= sp.window.lo else sp.window.lo
            lo = w.lo if kb == NEG_INF else max(w.lo, int(kb) - shift)
            win = DegreeWindow(min(lo, 0), min(w.hi, 0))
            bounds = (NEG_INF, 0)
        near, far = (win.lo, win.hi) if pol > 0 else (-win.hi, -win.lo)

    def spelled(m):
        for x, d in letters:
            if (k := m - pol * d) >= 0:
                for e, lu in zip(words[k], labels[k]):
                    yield x, e, lu

    words, labels = [[()]], [[label(())]]
    pre = {x: {} for x, _ in letters}
    for m in range(1, far + 1):
        ws, ls = [], []
        for x, e, lu in spelled(m):
            ws.append((x,) + e)
            ls.append(lab := label(ws[-1]))
            pre[x][lu] = lab
        words.append(ws)
        labels.append(ls)
    index = {e: l for ws, ls in zip(words, labels) for e, l in zip(ws, ls)}
    p = f.p
    minus = f.from_int(-1)
    odd = {l for l, d in letters if d % 2}
    internal = {l: [((t,), 1, f.neg(v))
                    for t, v in carrier.d(l).items() if t != skip]
                for l, _ in letters}
    memo: dict = {}
    full: dict = {}
    for m in range(1, far + (pol < 0)):
        for x, e, lu in spelled(m):
            y = e[0] if e else None
            terms = memo.get((x, y))
            if terms is None:
                terms = memo[x, y] = internal[x] + quadratic(x, y)
            col: dict = {}
            for rep, width, v in terms:
                tgt = index.get(rep + e[width - 1:])
                if tgt is not None:
                    s = col.get(tgt, 0) + v
                    if p is not None:
                        s %= p
                    if s:
                        col[tgt] = s
                    else:
                        col.pop(tgt, None)
            px = pre[x]
            if du := full.get(lu):
                vec_iadd(f, col, minus if x in odd else 1,
                         {px[t]: v for t, v in du.items()})
            if col:
                full[px[lu]] = col
    basis = {pol * m: labels[m] for m in range(near, far + 1)}
    bsp = GradedSpace(f, win, basis, bounds=bounds)
    cols = {l: full[l] for m in range(near, far + 1) if near <= m + pol <= far
            for l in labels[m] if l in full}
    return Complex(bsp, GradedMap(bsp, bsp, 1, cols))


@st.composite
def word_complex_cases(draw):
    """A preset (``small_algebras``) or K[x]⊗Λ(y) with dy = x^p, |x| = ±2
    (``hypersurface``, so the letters' internal d is nonzero), and a
    requested window for its bar and its dual's cobar that may reach past
    the algebra's window, where the builder trims it (``_known_above`` for
    positive words, ``_known_below`` for negative ones), or None."""
    if draw(st.booleans()):
        a = draw(small_algebras())
    else:
        f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                                  FieldSpec.rationals()]))
        hi = draw(st.integers(5, 10))
        a = hypersurface(f, DegreeWindow(-hi, hi),
                         draw(st.sampled_from([2, -2])), draw(st.integers(2, 3)))
    hi = a.space.window.hi
    lo = draw(st.integers(-hi - 3, hi))
    return a, draw(st.none() | st.builds(
        DegreeWindow, st.just(lo), st.integers(max(lo, -hi), hi + 3)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(word_complex_cases())
def test_word_complex_matches_the_label_keyed_builder(case):
    """bar of the algebra and cobar of its dual, in both polarities: the
    same labels in the same order in every degree, the same columns in the
    same item order, the same effective window and bounds, and position
    columns equal to those of the label-keyed complex."""
    a, window = case
    built = []
    build = barcobar._word_complex

    def spy(*args):
        try:
            old = label_keyed_word_complex(*args)
        except WindowError as e:  # a window wholly past 0 on the far side
            with pytest.raises(WindowError, match=str(e)):
                build(*args)
            raise
        built.append((build(*args), old))
        return built[-1][0]

    with mock.patch.object(barcobar, "_word_complex", spy):
        for construct, source, w in (
                (bar, a, window), (cobar, graded_dual_algebra(a),
                                   window and DegreeWindow(-window.hi,
                                                           -window.lo))):
            with contextlib.suppress(WindowError):
                construct(source, w)
    for new, old in built:
        assert (new.space.window, new.space.bounds) == (old.space.window,
                                                        old.space.bounds)
        assert new.space.degrees() == old.space.degrees()
        for n in old.space.degrees():
            assert list(new.space.labels(n)) == list(old.space.labels(n))
            assert new.columns(n) == old.columns(n)
        assert list(new.differential.cols) == list(old.differential.cols)
        for l, col in old.differential.cols.items():
            assert list(new.d(l).items()) == list(col.items()), l


def test_bar_reports_without_spelling_a_label(monkeypatch):
    """The bar command's report on K[y]/(y^4) at ±18 (dimensions, the d²
    verdict and homology dimensions) spells no word label: the only label
    made is the unit's, for the counit."""
    calls = []
    label = barcobar.bar_word_label
    monkeypatch.setattr(barcobar, "bar_word_label",
                        lambda entries: calls.append(entries) or label(entries))
    w = DegreeWindow(-18, 18)
    a = truncated_polynomial_algebra(FieldSpec.prime(5), w, "y", 2, 4)
    cx = bar(a, w).carrier
    assert sum(cli.space_dims(cx).values()) == cx.space.total_dim() == 4786
    assert check_d_squared(cx)
    assert cli.homology_dims(cx) == {"0": 1, "1": 1, "6": 1, "7": 1,
                                     "12": 1, "13": 1}
    assert calls == [()] and "basis" not in vars(cx.space)
    assert list(cx.space.labels(3)) == ["[y|y|y]", "[y^2]"]
    assert len(calls) == 1 + cx.space.total_dim()
