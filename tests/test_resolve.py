"""Minimal semifree resolutions, derived fibers, class, and freeness over
homology."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul import resolve
from dgkoszul.exactlinalg import FieldSpec, span_echelon, vec_iadd
from dgkoszul.gradedcomplex import (
    NEG_INF,
    POS_INF,
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    check_d_squared,
    homology,
    homology_by_degree,
    homology_class,
    is_chain_map,
    is_quasi_iso,
    replace,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
    DGModule,
    exterior_algebra,
    free_module,
    module_direct_sum,
    module_shift,
    polynomial_algebra,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
    validate_algebra,
    validate_module,
)
from dgkoszul.level import level_interval
from dgkoszul.resolve import (
    class_of,
    derived_fiber,
    is_free_over_homology,
    lemma1_report,
    semifree_resolve,
)


def test_koszul_resolution_of_k_over_poly(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    r = semifree_resolve(trivial_module(a))
    gens = sorted((d, l) for l, d, _ in r.generators)
    assert [d for d, _ in gens] == [0, 1]
    e0 = gens[0][1]
    e1 = gens[1][1]
    # d(e1) = ±y·e0
    ((g, al, c),) = r.differential[e1]
    assert g == e0 and al == "y" and not F5.is_zero(c)
    assert class_of(r) == (2, True)


@pytest.mark.parametrize("gens", [[("x", 1)], [("x", 1), ("z", 3)]])
def test_generators_piling_up_in_one_degree_is_refused(F5, gens):
    # over Λ(x), |x| = 1, each generator e_k of degree 0 needs another of
    # degree 0 with d = e_k·x: the resolution never stabilizes, which is
    # the input's structure (exit 3), not the loop cap (exit 5)
    a = exterior_algebra(F5, DegreeWindow(-8, 8), gens)
    with pytest.raises(StructureError, match="pile up in one degree"):
        semifree_resolve(trivial_module(a))


def test_exterior_generator_above_degree_one_still_resolves(F5):
    a = exterior_algebra(F5, DegreeWindow(-8, 8), [("x", 3)])
    r = semifree_resolve(trivial_module(a))
    assert [d for _, d, _ in r.generators] == [0, 2, 4]


def test_resolution_realization_is_quasi_iso(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    m = trivial_module(a)
    r = semifree_resolve(m)
    assert check_d_squared(r.fx)
    verdicts = is_quasi_iso(r.eps, r.fx, m.carrier)
    assert all(v is not False for v in verdicts.values())
    assert any(v is True for v in verdicts.values())


def test_truncated_module_resolution(F5, window):
    # K[y]/(y^3) over K[y]: two generators, the syzygy in degree 5
    a = polynomial_algebra(F5, window, [("y", 2)])
    r = semifree_resolve(truncated_module(a, "y", 2, 3))
    degs = sorted(d for _, d, _ in r.generators)
    assert degs == [0, 5]
    assert class_of(r) == (2, True)


def test_k_over_truncated_algebra_periodic(F5, window):
    # K over K[y]/(y^3): the periodic resolution with generators in
    # degrees 0,1,4,5,8,9,... never exhausts a finite window
    a = truncated_polynomial_algebra(F5, window, "y", 2, 3)
    r = semifree_resolve(trivial_module(a))
    degs = sorted(d for _, d, _ in r.generators)
    assert degs[:4] == [0, 1, 4, 5]
    cls, exhausted = class_of(r)
    assert not exhausted


def test_class_of_depth_at_the_window_edge(F5):
    # K over K[y], |y| = 4, at ±12: past depth 11 only degree 12 is left,
    # where homology is not computable; past depth 12 nothing is left
    a = polynomial_algebra(F5, DegreeWindow(-12, 12), [("y", 4)])
    r = semifree_resolve(trivial_module(a), depth=11)
    assert class_of(r) == (2, True)
    assert class_of(replace(r, depth=12)) == (2, True)


def test_class_two_variables(F5, window):
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    r = semifree_resolve(trivial_module(a))
    assert class_of(r) == (3, True)
    degs = sorted(d for _, d, _ in r.generators)
    assert degs == [0, 1, 1, 2]


def with_unit_arrow(f, window):
    """The resolution e0, e1 of K over K[y], |y| = 2, plus a contractible
    pair e2 → e3 with d(e2) = e3⊗1: still a resolution of K, with d² = 0
    on its F and ε a chain map, but not a minimal one.  Returns the minimal
    resolution and the fields that would replace its own."""
    a = polynomial_algebra(f, window, [("y", 2)])
    raw = semifree_resolve(trivial_module(a))
    assert [(gl, d) for gl, d, _ in raw.generators] == [("e0", 0), ("e1", 1)]
    generators = raw.generators + [("e2", 3, 1), ("e3", 4, 0)]
    differential = {**raw.differential,
                    "e2": [("e3", a.unit, f.one)], "e3": []}
    comparison = {**raw.comparison, "e2": {}, "e3": {}}
    m = raw.module
    fx, eps = resolve._realize(m, [resolve._generator_part(
        m, gl, gd, differential[gl], comparison[gl])
        for gl, gd, _ in generators])
    return raw, dict(generators=generators, differential=differential,
                     comparison=comparison, fx=fx, eps=eps)


def test_minimize_refuses_a_unit_arrow(F5, window):
    # the unit-arrow refusal once made by a separate minimize step is made
    # where the resolution is built
    raw, fields = with_unit_arrow(F5, window)
    fx, eps = fields["fx"], fields["eps"]
    assert check_d_squared(fx) and is_chain_map(eps, fx,
                                                raw.module.carrier)[0]
    with pytest.raises(RuntimeError, match="internal: resolution has a "
                                           "unit arrow"):
        replace(raw, **fields)


def test_derived_fiber_exterior_not_exhausted(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    r = semifree_resolve(trivial_module(e))
    assert derived_fiber(r) == {-12: 1, -8: 1, -4: 1, 0: 1}
    assert not class_of(r)[1]  # the pattern continues past any window


def test_derived_fiber_poly(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    r = semifree_resolve(trivial_module(a))
    assert derived_fiber(r) == {0: 1, 1: 1}
    assert class_of(r)[1]


def test_lemma1_dim_at_least_class(F5, Q, window):
    cases = [
        (polynomial_algebra(F5, window, [("y", 2)]), 2, 2),
        (polynomial_algebra(Q, window, [("y", 2)]), 2, 2),
        (polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)]), 4, 3),
        (truncated_polynomial_algebra(F5, window, "y", 2, 3), None, None),
        (exterior_algebra(F5, window, [("x", -3)]), None, None),
    ]
    for a, dim, cls in cases:
        rep = lemma1_report(trivial_module(a))
        assert rep["ok"]
        assert rep["fiber_dim"] >= rep["class"]
        if dim is not None:
            assert rep["fiber_dim"] == dim
        if cls is not None:
            assert rep["class"] == cls


def test_class_requires_minimal(F5, window):
    # class_of reads the class off a minimal resolution; a non-minimal one
    # is refused when built, so it never reaches class_of
    raw, fields = with_unit_arrow(F5, window)
    assert class_of(raw) == (2, True)
    with pytest.raises(RuntimeError, match="unit arrow"):
        class_of(replace(raw, **fields))


def test_free_module_is_free_over_homology(F5, window):
    # over K[y] the window top is undecided: H^16 of A and of M needs the
    # basis at 17; over Λ(x), |x| = 3, every degree is decided
    a = polynomial_algebra(F5, window, [("y", 2)])
    rep = is_free_over_homology(free_module(a))
    assert rep["free"] is None and rep["undecided"] == [16]
    assert list(rep["kernel"]) == list(range(16))
    assert not any(rep["kernel"].values())
    e = exterior_algebra(F5, window, [("x", 3)])
    rep = is_free_over_homology(free_module(e))
    assert rep["free"] is True and rep["undecided"] == []
    assert not any(rep["kernel"].values())


def first_kernel(rep):
    """The first (degree, dimension) of a nonzero kernel in the walk."""
    return next(((t, v) for t, v in rep["kernel"].items() if v), None)


def test_trivial_module_not_free(F5, window):
    a = polynomial_algebra(F5, window, [("y", 2)])
    rep = is_free_over_homology(trivial_module(a))
    assert rep["free"] is False
    assert first_kernel(rep) == (2, 1)  # relation y·1 = 0 in degree 2


def test_freeness_check_finds_each_product_class_once(F5, window,
                                                     monkeypatch):
    # the decomposables of H(M)_t are classified only where H(M)_t != 0,
    # each (class, class) product once: K3 over S3 = K[y1,y2,y3] needs no
    # class at all, as H(K) has nothing below degree 0; the free module
    # classifies exactly the products it forms, none twice
    classified = []
    real = resolve.homology_class

    def counted(cx, n, cycle):
        classified.append((n, cycle))
        return real(cx, n, cycle)

    monkeypatch.setattr(resolve, "homology_class", counted)
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2), ("y3", 2)])
    rep = is_free_over_homology(trivial_module(a))
    assert rep["free"] is False and first_kernel(rep) == (2, 3)
    assert classified == []
    m = free_module(a)
    pairs, act = [], m.act
    m.act = lambda x, y: pairs.append((x, y)) or act(x, y)
    rep = is_free_over_homology(m)
    assert rep["free"] is None and not any(rep["kernel"].values())
    keys = {(frozenset(x.items()), frozenset(y.items())) for x, y in pairs}
    assert len(classified) == len(pairs) == len(keys) > 0


@pytest.mark.parametrize("hi, free, first", [(16, None, None),
                                             (20, False, (16, 1))])
def test_freeness_is_not_claimed_on_undecided_degrees(F5, hi, free, first):
    # K[y]/(y^4) over K[y], |y| = 4: the relation y^4 = 0 lies in degree
    # 16, where H(K[y]) needs the basis at 17; at ±16 that degree is
    # undecided and the lower bound stays 1, at ±20 it is decided
    a = polynomial_algebra(F5, DegreeWindow(-hi, hi), [("y", 4)])
    m = truncated_module(a, "y", 4, 4)
    rep = is_free_over_homology(m)
    assert rep["free"] is free and first_kernel(rep) == first
    assert (16 in rep["undecided"]) == (hi == 16)
    if hi == 16:
        assert level_interval(semifree_resolve(m)).lower == 1


def cone_of_y(f, w):
    """The cone of y : Σ⁻²K[y] → K[y], |y| = 2, as a right K[y]-module:
    b_i in degree 2i and a_i in degree 2i+1, d(a_i) = b_{i+1}, and y^j
    sending b_i to b_{i+j} and a_i to a_{i+j}.  H(M) is K in degree 0."""
    a = polynomial_algebra(f, w, [("y", 2)])
    basis = {n: [f"{'ab'[n % 2 == 0]}{n // 2}"] for n in range(w.hi + 1)}
    sp = GradedSpace(f, w, basis, bounds=(0, POS_INF))
    d = {f"a{i}": {f"b{i + 1}": f.one} for i in range(w.hi)
         if f"a{i}" in sp and f"b{i + 1}" in sp}

    def act(m, al):
        t = f"{m[0]}{int(m[1:]) + a.space.deg(al) // 2}"
        return {t: f.one} if t in sp else {}

    return DGModule(Complex(sp, GradedMap(sp, sp, 1, d)), a, act)


@pytest.mark.parametrize("field", [FieldSpec.prime(5), FieldSpec.rationals()],
                         ids=["F5", "Q"])
def test_kernel_class_generator_takes_a_boundary_preimage(field):
    # H(ε) of F = e0⊗K[y] kills the class of e0·y, whose image b1 = d(a0)
    # is a boundary: e1 kills it, and its comparison is that preimage
    m = cone_of_y(field, DegreeWindow(-12, 12))
    assert validate_module(m).ok
    r = semifree_resolve(m)
    assert r.generators == [("e0", 0, 0), ("e1", 1, 1)]
    assert r.differential["e1"] == [("e0", "y", field.one)]
    assert r.comparison["e1"] == {"a0": field.one}
    assert class_of(r) == (2, True)
    side = level_interval(r)
    assert (side.lower, side.upper, side.valid) == (2, 2, True)


def test_resolution_over_exterior(F5, window):
    e = exterior_algebra(F5, window, [("x", -3)])
    r = semifree_resolve(trivial_module(e))
    cls, exhausted = class_of(r)
    assert cls >= 2 and not exhausted


def test_class_of_is_not_inherited_by_a_replaced_depth(F5):
    # K over K[y], |y| = 4, has generators in degrees 0 and 3; a cut at 4
    # lies within two degrees of the second, so the verdict changes with
    # depth and a copy must not keep the original's
    a = polynomial_algebra(F5, DegreeWindow(-12, 12), [("y", 4)])
    r = semifree_resolve(trivial_module(a), depth=11)
    assert class_of(r) == (2, True)
    assert class_of(replace(r, depth=4)) == (2, False)


# -------------------------------------------------------------------------
# the Nakayama count against Tor_1 from the bar complex of H(A)
# -------------------------------------------------------------------------

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]
PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ref_bar_tor1(m):
    """Tor_1^{H(A)}(H(M), K) from the bar complex H(M)⊗Ā⊗Ā → H(M)⊗Ā →
    H(M), degree by degree; a degree whose columns leave the window is
    flagged, and ``free`` reads only the computed degrees."""
    a = m.over
    f = a.field
    ha = homology_by_degree(a.carrier)
    hm = homology_by_degree(m.carrier)
    abar = [(n, i) for n, h in ha.items() if n != 0
            for i in range(h.dimension)]

    def product(cx, hx, x, hy, y, mul):
        n = x[0] + y[0]
        if n in hx:
            prod = mul(hx[x[0]].representatives[x[1]],
                       hy[y[0]].representatives[y[1]])
            return {(n, j): c for j, c
                    in homology_class(cx, n, prod).items()}

    def columns(keys, column):
        cols = [column(*k) for k in keys]
        return None if None in cols else cols

    def b1(mm, x):
        act = product(m.carrier, hm, mm, ha, x, m.act)
        return None if act is None else {j: c for (_, j), c in act.items()}

    def b2(mm, x, y):
        act = product(m.carrier, hm, mm, ha, x, m.act)
        pr = product(a.carrier, ha, x, ha, y, a.multiply)
        if act is None or pr is None:
            return None
        col = {idx1[(k, y)]: c for k, c in act.items() if (k, y) in idx1}
        return vec_iadd(f, col, f.from_int(-1), {idx1[(mm, k)]: c
                                                 for k, c in pr.items()
                                                 if (mm, k) in idx1})

    mcls = [(n, i) for n, h in hm.items() for i in range(h.dimension)]
    tor1, flagged = {}, []
    abar_at: dict = {}
    for x in abar:
        abar_at.setdefault(x[0], []).append(x)
    for t in sorted({mm[0] + n for mm in mcls for n in abar_at}):
        d1 = [(mm, x) for mm in mcls for x in abar_at.get(t - mm[0], ())]
        idx1 = {k: i for i, k in enumerate(d1)}
        cols1 = columns(d1, b1)
        if cols1 is None:
            flagged.append(t)
            continue
        cols2 = columns([(mm, x, y) for mm in mcls for x in abar
                         for y in abar_at.get(t - mm[0] - x[0], ())], b2)
        if cols2 is None:
            flagged.append(t)
            continue
        rank1 = len(span_echelon(f, cols1, hm[t].dimension))
        tor1[t] = len(d1) - rank1 - len(span_echelon(f, cols2, len(d1)))
    return {"free": all(v == 0 for v in tor1.values()), "tor1": tor1,
            "window_exhausted_at": flagged}


@st.composite
def freeness_cases(draw):
    """A trivial, free, truncated, shifted or summed module over a
    connected algebra of one sign: polynomial, exterior of either sign,
    or truncated polynomial, over F_p or Q."""
    f = draw(st.sampled_from(FIELDS))
    hi = draw(st.integers(6, 14))
    w = DegreeWindow(-hi, hi)
    kind = draw(st.sampled_from(["polynomial", "exterior", "truncated"]))
    if kind == "polynomial":
        degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1,
                             max_size=3))
        a = polynomial_algebra(f, w, [(f"y{i}", d)
                                      for i, d in enumerate(degs)])
    elif kind == "exterior":
        sign = draw(st.sampled_from([1, -1]))
        degs = draw(st.lists(st.sampled_from([1, 3]), min_size=1,
                             max_size=2))
        a = exterior_algebra(f, w, [(f"x{i}", sign * d)
                                    for i, d in enumerate(degs)])
    else:
        degs = [draw(st.sampled_from([2, 4]))]
        a = truncated_polynomial_algebra(f, w, "y", degs[0],
                                         draw(st.integers(2, 4)))

    def module(depth):
        kinds = ["trivial", "free"] + ["truncated"] * (kind != "exterior")
        k = draw(st.sampled_from(kinds + ["shifted", "summed"] * depth))
        if k == "trivial":
            return trivial_module(a)
        if k == "free":
            return free_module(a)
        if k == "truncated":
            return truncated_module(a, "y", min(degs),
                                    draw(st.integers(1, 4)))
        if k == "shifted":
            return module_shift(module(depth - 1), draw(st.integers(-3, 3)))
        return module_direct_sum([module(depth - 1), module(depth - 1)])

    return module(2)


@PROPERTY
@given(freeness_cases())
def test_nakayama_count_matches_bar_tor1(m):
    rep = is_free_over_homology(m)
    ref = ref_bar_tor1(m)
    nonzero = {t: v for t, v in ref["tor1"].items() if v}
    assert (rep["free"] is False) == bool(nonzero)
    if nonzero:
        sigma = 1 if m.over.polarity == "non-negative" else -1
        t = min(nonzero, key=lambda t: sigma * t)
        assert first_kernel(rep) == (t, nonzero[t])
    if rep["free"] is True:
        assert ref["free"]


# -------------------------------------------------------------------------
# the greedy resolution is minimal
# -------------------------------------------------------------------------

def hypersurface(f, w, xdeg, p):
    """K[x]⊗Λ(y) with d y = x^p, |x| = xdeg (even, of either sign) and
    |y| = p·xdeg − 1, on the monomials x^i y^e that fit the window w.  Its
    homology is K[x]/(x^p)."""
    ydeg = p * xdeg - 1
    exps, i = {}, 0
    while i * xdeg in w:
        exps[i, 0] = i * xdeg
        if i * xdeg + ydeg in w:
            exps[i, 1] = i * xdeg + ydeg
        i += 1
    power = {0: [], 1: ["x"]}
    label = {v: "*".join(power.get(v[0], [f"x^{v[0]}"]) + ["y"] * v[1])
             or "1" for v in exps}
    basis: dict = {}
    for v, n in exps.items():
        basis.setdefault(n, []).append(label[v])
    sp = GradedSpace(f, w, basis,
                     bounds=(0, POS_INF) if xdeg > 0 else (NEG_INF, 0))
    exp_of = {l: v for v, l in label.items()}

    def mult_pair(a, b):
        # x is even: no sign moves y past a power of x
        (i, e), (j, k) = exp_of[a], exp_of[b]
        t = label.get((i + j, e + k))
        return {t: f.one} if t else {}

    d = {label[v]: {label[(v[0] + p, 0)]: f.one} for v in exps
         if v[1] and (v[0] + p, 0) in label}
    return DGAlgebra(Complex(sp, GradedMap(sp, sp, 1, d)), "1", mult_pair,
                     "non-negative" if xdeg > 0 else "non-positive",
                     simply_connected=True,
                     name=f"K[x]⊗Λ(y), dy = x^{p}")


@pytest.mark.parametrize("xdeg", [2, -2])
def test_hypersurface_is_a_dga(F5, xdeg):
    a = hypersurface(F5, DegreeWindow(-12, 12), xdeg, 2)
    assert validate_algebra(a).ok and a.carrier.d("y")
    assert [h.dimension for _, h in sorted(homology_by_degree(
        a.carrier).items()) if h.dimension] == [1, 1]


@st.composite
def resolution_cases(draw):
    """A trivial, free, truncated, shifted or summed module over a preset
    of either polarity (polynomial, truncated polynomial, exterior on
    generators of degree ±3 or ±5) or over a DG algebra with d ≠ 0
    (``hypersurface``), over F_2, F_5 or Q."""
    f = draw(st.sampled_from(FIELDS))
    hi = draw(st.integers(6, 10))
    w = DegreeWindow(-hi, hi)
    kind = draw(st.sampled_from(["polynomial", "truncated", "exterior",
                                 "hypersurface"]))
    if kind == "polynomial":
        degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1,
                             max_size=2))
        a = polynomial_algebra(f, w, [(f"y{i}", d)
                                      for i, d in enumerate(degs)])
    elif kind == "truncated":
        a = truncated_polynomial_algebra(f, w, "y", 2,
                                         draw(st.integers(2, 4)))
    elif kind == "exterior":
        sign = draw(st.sampled_from([1, -1]))
        a = exterior_algebra(f, w, [("x", sign * draw(
            st.sampled_from([3, 5])))])
    else:
        a = hypersurface(f, w, draw(st.sampled_from([2, -2])),
                         draw(st.integers(2, 3)))

    def module(depth):
        kinds = ["trivial", "free"] + ["truncated"] * (kind == "polynomial")
        k = draw(st.sampled_from(kinds + ["shifted", "summed"] * depth))
        if k == "trivial":
            return trivial_module(a)
        if k == "free":
            return free_module(a)
        if k == "truncated":
            return truncated_module(a, "y", 2, draw(st.integers(1, 4)))
        if k == "shifted":
            return module_shift(module(depth - 1), draw(st.integers(-3, 3)))
        return module_direct_sum([module(depth - 1), module(depth - 1)])

    return module(1)


@PROPERTY
@given(resolution_cases())
def test_semifree_resolve_is_minimal(m):
    # built at all means checked: the constructor refuses a unit arrow
    r = semifree_resolve(m)
    assert all(al != m.over.unit for terms in r.differential.values()
               for _, al, _ in terms)
