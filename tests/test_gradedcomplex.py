"""Graded complexes: homology oracles, cones, relabelling witnesses."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgkoszul import exactlinalg, gradedcomplex
from dgkoszul.barcobar import WordComplex, bar, cobar
from dgkoszul.dgstruct import (
    graded_dual_algebra,
    truncated_polynomial_algebra,
)
from dgkoszul.exactlinalg import FieldSpec, vec_iadd
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
    check_d_squared,
    check_relabelling,
    cone,
    direct_sum,
    homology,
    homology_by_degree,
    homology_class,
    homology_dims,
    is_chain_map,
    is_quasi_iso,
    preimage,
    relabel,
    replace,
    shift_complex,
)
from test_barcobar import small_algebras
from test_exactlinalg import (
    Matrix,
    from_columns,
    reference_kernel,
    reference_rref,
    reference_solve,
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


def identity(space):
    return GradedMap(space, space, 0,
                     {l: {l: space.field.one} for l in space})


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


def test_degree_window_is_an_immutable_value():
    # windows are compared, hashed and printed in violation messages
    w = DegreeWindow(-2, 3)
    assert w == DegreeWindow(-2, 3) and hash(w) == hash(DegreeWindow(-2, 3))
    assert w != DegreeWindow(-2, 4) and w != (-2, 3)
    assert len({w, DegreeWindow(-2, 3), DegreeWindow(0, 0)}) == 2
    assert repr(w) == str(w) == "DegreeWindow(lo=-2, hi=3)"
    assert f"{DegreeWindow(0, 0)}" == "DegreeWindow(lo=0, hi=0)"
    for name in ("lo", "hi", "mid"):
        with pytest.raises(AttributeError):
            setattr(w, name, 0)
    with pytest.raises(AttributeError):
        del w.lo
    assert (w.lo, w.hi) == (-2, 3) and 3 in w and 4 not in w
    with pytest.raises(WindowError):
        DegreeWindow(1, 0)


def test_replace_rebuilds_a_record_by_its_constructor():
    w = DegreeWindow(-2, 3)
    assert replace(w, hi=5) == DegreeWindow(-2, 5) and w.hi == 3
    assert replace(w) == w and replace(w) is not w
    with pytest.raises(WindowError):
        replace(w, lo=4)
    with pytest.raises(TypeError):
        replace(w, mid=0)
    r = replace(gradedcomplex.DSquaredReport(False, 2, "x"), label="y")
    assert (r.ok, r.degree, r.label) == (False, 2, "y")


def test_check_d_squared_keeps_its_report_on_the_complex(F5):
    c = two_step(F5)
    r = check_d_squared(c)
    assert r and check_d_squared(c) is r
    # each complex has its own report, even on the same space and map
    again = Complex(c.space, c.differential)
    assert check_d_squared(again) is not r and check_d_squared(again)


def test_homology_class_boundary_is_zero(F5):
    c = two_step(F5)
    assert homology_class(c, 1, {"b": F5.one}) == {}


FIELDS = [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]


def scalars(f, nonzero=False):
    if f.kind == "prime":
        return st.integers(1 if nonzero else 0, f.p - 1)
    nums = st.integers(-3, 3)
    return st.builds(Fraction, nums.filter(bool) if nonzero else nums,
                     st.integers(1, 4))


@st.composite
def complexes(draw, fields=FIELDS):
    """A complex with d∘d = 0 over a field of ``fields`` (F_2, F_5 or Q by
    default) on degrees 0..3: pieces
    K → K (s onto t) and K (h) in drawn degrees, in a basis that random
    elementary operations then change.  Replacing a by a + c·b adds c·d(b)
    to d(a) and takes c times the coefficient of a off that of b in every
    d(x), so d∘d stays 0."""
    f = draw(st.sampled_from(fields))
    basis = {n: [] for n in range(4)}
    cols = {}
    for i in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 3))
        if n < 3 and draw(st.booleans()):
            basis[n].append(f"s{i}")
            basis[n + 1].append(f"t{i}")
            cols[f"s{i}"] = {f"t{i}": f.one}
        else:
            basis[n].append(f"h{i}")
    basis = {n: draw(st.permutations(ls)) for n, ls in basis.items()}
    for _ in range(draw(st.integers(0, 12))):
        n = draw(st.integers(0, 3))
        if len(basis[n]) < 2:
            continue
        a, b = draw(st.lists(st.sampled_from(basis[n]), min_size=2,
                             max_size=2, unique=True))
        c = draw(scalars(f, nonzero=True))
        cols[a] = vec_iadd(f, dict(cols.get(a, {})), c, cols.get(b, {}))
        for x in basis.get(n - 1, []):
            col = cols.get(x, {})
            if a in col:
                cols[x] = vec_iadd(f, dict(col), f.neg(f.mul(c, col[a])),
                                   {b: f.one})
    sp = GradedSpace(f, DegreeWindow(-1, 4), basis)
    return Complex(sp, GradedMap(sp, sp, 1,
                                 {l: v for l, v in cols.items() if v}))


def d_columns(c, n):
    """The columns of d_n in coordinates of Cⁿ⁺¹."""
    return [c.space.to_coords(c.d(l), n + 1) for l in c.labels(n)]


def reference_homology(c, n):
    """The earlier algorithm: the image basis (the pivot columns of
    d_{n-1}) and the canonical kernel of d_n; the representatives are the
    kernel vectors among the pivots of [im | ker]."""
    f, dim = c.field, c.dim(n)
    dn1 = d_columns(c, n - 1)
    im = [dn1[p] for p in reference_rref(from_columns(dn1, dim, f))[1]]
    ker = reference_kernel(from_columns(d_columns(c, n), c.dim(n + 1), f))
    pivots = reference_rref(from_columns(im + ker, dim, f))[1]
    return im, [ker[p - len(im)] for p in pivots if p >= len(im)]


def reference_class(c, n, im, reps, cycle):
    """The earlier class lookup: one solution on [im | reps]."""
    x = reference_solve(from_columns(im + reps, c.dim(n), c.field),
                        c.space.to_coords(cycle, n))
    return {i - len(im): v for i, v in x.items() if i >= len(im)}


@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_homology_and_class_match_reference(c, data):
    f = c.field
    assert check_d_squared(c)
    for n in range(4):
        h = homology(c, n)
        im, reps = reference_homology(c, n)
        assert h.dimension == len(reps)
        assert h.representatives == [c.space.from_coords(v, n) for v in reps]
        # a random cycle: a combination of representatives plus a boundary
        coeffs = data.draw(st.lists(scalars(f), min_size=len(reps),
                                    max_size=len(reps)))
        src = c.labels(n - 1)
        y = data.draw(st.lists(scalars(f), min_size=len(src),
                               max_size=len(src)))
        boundary = c.d({l: v for l, v in zip(src, y) if v})
        cycle = dict(boundary)
        for a, rep in zip(coeffs, h.representatives):
            vec_iadd(f, cycle, a, rep)
        expected = {i: a for i, a in enumerate(coeffs) if a}
        cls = homology_class(c, n, cycle)
        assert cls == expected and list(cls) == sorted(cls)
        assert reference_class(c, n, im, reps, cycle) == expected
        assert homology_class(c, n, boundary) == {}
        # the preimage with free variables zero, as ``solve`` gave it
        x = reference_solve(from_columns(d_columns(c, n - 1), c.dim(n), f),
                            c.space.to_coords(boundary, n))
        assert preimage(c, n, boundary) == c.space.from_coords(x, n - 1)
        assert c.d(preimage(c, n, boundary)) == boundary
        if reps:
            assert preimage(c, n, h.representatives[0]) is None


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_homology_dims_match_homology(c):
    assert homology_dims(c) == {n: h.dimension
                                for n, h in homology_by_degree(c).items()
                                if h.dimension}


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_euler_characteristic_of_homology(c):
    """Σ (−1)^n dim C^n = Σ (−1)^n dim H^n for a complex whose every degree
    is computable: the window −1..4 holds the basis's degrees 0..3 with a
    zero degree on each side."""
    sp = c.space
    assert all(sp.homology_computable(n) for n in sp.degrees())
    assert sum((-1) ** n * sp.dim(n) for n in sp.degrees()) == \
        sum((-1) ** n * d for n, d in homology_dims(c).items())


def ref_homology_dims(c):
    """``homology_dims`` as it was: one ``rank`` per block, on its columns
    with target positions reversed, and no bounds."""
    sp, win, ranks = c.space, c.window, {}
    for n in range(win.lo - 1, win.hi + 1):
        top = sp.dim(n + 1) - 1
        ranks[n] = exactlinalg.rank(
            c.field, [{top - t: v for t, v in col.items()}
                      for col in c.columns(n)], top + 1)
    dims = {n: sp.dim(n) - ranks[n] - ranks[n - 1]
            for n in range(win.lo, win.hi + 1) if sp.homology_computable(n)}
    return {n: d for n, d in dims.items() if d}


def rank_bounds(c):
    """{n: (low, high)} for each block d_n that ``homology_dims`` reads:
    the number of distinct last positions among its nonzero columns, and
    the bound that d∘d = 0 gives from its neighbours' counts."""
    sp, win = c.space, c.window
    low = {n: len({max(col) for col in c.columns(n) if col})
           for n in range(win.lo - 1, win.hi + 1)}
    return {n: (r, min(sp.dim(n) - low.get(n - 1, 0),
                       sp.dim(n + 1) - low.get(n + 1, 0)))
            for n, r in low.items()}


@st.composite
def known_homology_complexes(draw):
    """(complex, {n: dim H^n}) over F_2, F_5 or Q on degrees 0..4: a
    direct sum of pieces K →u K (u a nonzero scalar) and lone K's, whose
    count per degree is the homology, then each degree's basis changed by
    a random invertible matrix E on its coordinates, a product of
    elementary operations: d_n becomes d_n·E⁻¹ and d_{n−1} becomes
    E·d_{n−1}."""
    f = draw(st.sampled_from(FIELDS))
    p = f.p

    def add(a, b):
        return (a + b) % p if p else a + b

    dims, pieces, homology_of = [0] * 5, [], {}
    for _ in range(draw(st.integers(0, 12))):
        n = draw(st.integers(0, 4))
        if n < 4 and draw(st.booleans()):
            pieces.append((n, dims[n], dims[n + 1],
                           draw(scalars(f, nonzero=True))))
            dims[n + 1] += 1
        else:
            homology_of[n] = homology_of.get(n, 0) + 1
        dims[n] += 1
    # dense d_n, dim C^{n+1} rows by dim C^n columns
    d = {n: [[f.zero] * dims[n] for _ in range(dims[n + 1] if n < 4 else 0)]
         for n in range(5)}
    for n, j, i, u in pieces:
        d[n][i][j] = u
    for n in range(5):
        for _ in range(draw(st.integers(0, 3 * dims[n]))):
            i, j = (draw(st.integers(0, dims[n] - 1)) for _ in range(2))
            c = draw(scalars(f, nonzero=True))
            below, above = d.get(n - 1, []), d[n]
            if i == j:      # coordinate x_i times c
                if below:
                    below[i] = [f.mul(c, v) for v in below[i]]
                for row in above:
                    row[i] = f.mul(f.inv(c), row[i])
            else:           # x_i += c·x_j: row i of d_{n−1}, column j of d_n
                if below:
                    below[i] = [add(v, f.mul(c, w))
                                for v, w in zip(below[i], below[j])]
                for row in above:
                    row[j] = add(row[j], f.neg(f.mul(c, row[i])))
    sp = GradedSpace(f, DegreeWindow(-1, 5),
                     {n: [f"e{n}.{j}" for j in range(dims[n])]
                      for n in range(5)})
    cols = {f"e{n}.{j}": {f"e{n + 1}.{i}": row[j]
                          for i, row in enumerate(d[n]) if row[j]}
            for n in range(4) for j in range(dims[n])}
    return Complex(sp, GradedMap(sp, sp, 1,
                                 {l: v for l, v in cols.items() if v})), \
        {n: h for n, h in homology_of.items() if h}


@st.composite
def bar_and_cobar_of_presets(draw):
    """(bar of a preset or cobar of its graded dual, None), on a window
    drawn around 0 that may reach past the preset's, where the builder
    trims it."""
    a = draw(small_algebras())
    hi = a.space.window.hi
    w = draw(st.none() | st.builds(DegreeWindow, st.integers(-hi - 3, 0),
                                   st.integers(0, hi + 3)))
    if draw(st.booleans()):
        return bar(a, w).carrier, None
    return cobar(graded_dual_algebra(a), w).carrier, None


def test_homology_dims_match_one_rank_per_block(monkeypatch):
    """Against ``ref_homology_dims`` and the known homology: each block's
    rank lies between its bounds, ``rank`` runs exactly on the blocks
    whose bounds differ, and over the examples some nonzero block is
    closed by its bounds, some is eliminated, and some has columns whose
    last positions collide."""
    eliminated, seen = [], {"closed": 0, "gap": 0, "collision": 0}
    rank = gradedcomplex.rank

    def counting_rank(field, rows, cols):
        eliminated.append((len(rows), cols))
        return rank(field, rows, cols)

    monkeypatch.setattr(gradedcomplex, "rank", counting_rank)

    @settings(max_examples=300, deadline=None)
    @given(known_homology_complexes() | bar_and_cobar_of_presets())
    def check(case):
        c, known = case
        eliminated.clear()
        dims = homology_dims(c)
        assert dims == ref_homology_dims(c)
        assert known is None or dims == known
        bounds = rank_bounds(c)
        for n, (low, high) in bounds.items():
            top = c.dim(n + 1) - 1
            r = exactlinalg.rank(c.field, [{top - t: v for t, v in col.items()}
                                           for col in c.columns(n)], top + 1)
            assert low <= r <= high
            nonzero = sum(1 for col in c.columns(n) if col)
            seen["closed"] += bool(nonzero) and low == high
            seen["gap"] += bool(nonzero) and low < high
            seen["collision"] += low < nonzero
        assert eliminated == [(c.dim(n), c.dim(n + 1))
                              for n, (low, high) in bounds.items()
                              if low < high]

    check()
    assert all(seen.values()), seen


def test_homology_dims_refuses_a_complex_that_fails_d_squared(F5):
    """A sign planted in d(a): check_d_squared's degree and label."""
    sp = GradedSpace(F5, DegreeWindow(-1, 3),
                     {0: ["a"], 1: ["b", "c"], 2: ["e"]})
    d = {"a": {"b": 1, "c": F5.neg(1)}, "b": {"e": 1}, "c": {"e": 1}}
    assert homology_dims(Complex(sp, GradedMap(sp, sp, 1, d))) == {}
    d["a"] = {"b": 1, "c": 1}
    bad = Complex(sp, GradedMap(sp, sp, 1, d))
    r = check_d_squared(bad)
    assert not r and (r.degree, r.label) == (0, "a")
    with pytest.raises(StructureError,
                       match=r"^d\^2 != 0 at degree 0, label 'a'$"):
        homology_dims(bad)


def per_label_d_squared(c):
    """The d² check as it was: d applied twice through ``Complex.d``, label
    by label in degree and basis order; (ok, degree, label)."""
    for n in c.space.degrees():
        for l in c.labels(n):
            if c.d(c.d(l)):
                return False, n, l
    return True, None, None


@st.composite
def planted_d_squared(draw):
    """A complex with d∘d = 0 from ``complexes`` with 0–3 terms planted in
    its columns, each a nonzero scalar (a ``Fraction`` over Q) at a label
    one degree up; a planted term may also cancel a stored one."""
    c = draw(complexes())
    f, sp = c.field, c.space
    cols = {l: dict(v) for l, v in c.differential.cols.items()}
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 2))
        if not (sp.labels(n) and sp.labels(n + 1)):
            continue
        l = draw(st.sampled_from(sp.labels(n)))
        t = draw(st.sampled_from(sp.labels(n + 1)))
        col = cols.setdefault(l, {})
        v = (f.neg(col[t]) if t in col and draw(st.booleans())
             else draw(scalars(f, nonzero=True)))
        vec_iadd(f, col, f.one, {t: v})
    return Complex(sp, GradedMap(sp, sp, 1,
                                 {l: v for l, v in cols.items() if v}))


@settings(max_examples=300, deadline=None)
@given(planted_d_squared())
def test_check_d_squared_reports_the_per_label_failure(c):
    r = check_d_squared(c)
    assert (r.ok, r.degree, r.label) == per_label_d_squared(c)


def test_check_d_squared_finds_a_planted_failure(F5, Q):
    # one coefficient changed in the bar of K[y]/(y^4) over F_5 at ±12,
    # and a Fraction planted in a complex over Q
    a = truncated_polynomial_algebra(F5, DegreeWindow(-12, 12), "y", 2, 4)
    cx = bar(a).carrier
    assert check_d_squared(cx) and per_label_d_squared(cx)[0]
    cols = {l: dict(v) for l, v in cx.differential.cols.items()}
    l = next(l for l in cx.space.labels(7) if len(cols.get(l, {})) > 1)
    t = next(iter(cols[l]))
    cols[l][t] = F5.from_int(cols[l][t] + 1) or F5.one
    bad = Complex(cx.space, GradedMap(cx.space, cx.space, 1, cols))
    r = check_d_squared(bad)
    assert not r and (r.degree, r.label) == per_label_d_squared(bad)[1:]
    sp = GradedSpace(Q, DegreeWindow(0, 2), {0: ["a"], 1: ["b", "c"],
                                             2: ["e"]})
    d = {"a": {"b": Fraction(1, 2), "c": Fraction(-1, 3)},
         "b": {"e": Fraction(2, 3)}, "c": {"e": 1}}
    assert check_d_squared(Complex(sp, GradedMap(sp, sp, 1, d)))
    d["c"] = {"e": Fraction(3, 2)}
    r = check_d_squared(Complex(sp, GradedMap(sp, sp, 1, d)))
    assert (r.ok, r.degree, r.label) == (False, 0, "a")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_wrong_sign_in_a_position_column_fails_where_the_label_check_did(
        data):
    """A sign flipped at one entry of the bar of K[y]/(y^4) over F_5 at ±12,
    kept as position columns, an entry whose target has a nonzero column:
    the check fails, at the degree and label the label-by-label check
    reports on the same complex keyed by labels."""
    f = FieldSpec.prime(5)
    a = truncated_polynomial_algebra(f, DegreeWindow(-12, 12), "y", 2, 4)
    cx = bar(a).carrier
    sp = cx.space
    entries = [(n, j, t) for n in sp.degrees()
               for j, col in enumerate(cx.columns(n)) for t in col
               if cx.columns(n + 1)[t]]
    n, j, t = data.draw(st.sampled_from(entries))
    planted = {m: [dict(col) for col in cx.columns(m)] for m in sp.degrees()}
    planted[n][j][t] = f.neg(planted[n][j][t])
    r = check_d_squared(WordComplex(sp, planted, cx.pol, cx.mag, cx.start))
    labelled = Complex(sp, GradedMap(sp, sp, 1, {
        l: {sp.labels(m + 1)[s]: v for s, v in col.items()}
        for m, cols in planted.items()
        for l, col in zip(sp.labels(m), cols) if col}))
    assert not r and (r.ok, r.degree, r.label) == per_label_d_squared(
        labelled)


def test_position_columns_are_refused_as_labelled_ones_are(F5):
    """A target outside the next degree or a stored zero in a position
    column is refused with the text ``GradedMap`` gives for labels."""
    sp = GradedSpace(F5, DegreeWindow(-4, 4), {0: ["a"], 1: ["b", "c"]})
    for columns, message in (
            ({0: [{2: 1}]}, "image label 2 not in target"),
            ({0: [{-1: 1}]}, "image label -1 not in target"),
            ({0: [{0: 1, 1: 0}]}, "stored zero coefficient at 'a'"),
            ({0: [{0: 1}], 1: [{}, {0: 1}]}, "image label 0 not in target"),
            ({0: [{0: 1, 1: 5}]}, "non-canonical coefficient at 'a'")):
        with pytest.raises(StructureError, match=message):
            WordComplex(sp, columns, 1, {}, [{}])
    with pytest.raises(StructureError, match="stored zero coefficient at 'a'"):
        GradedMap(sp, sp, 1, {"a": {"b": 1, "c": 0}})
    a = truncated_polynomial_algebra(F5, DegreeWindow(-8, 8), "y", 2, 4)
    cx = bar(a).carrier
    cols = {n: [dict(col) for col in cx.columns(n)]
            for n in cx.space.degrees()}
    cols[2][0] = {t: 0 for t in cols[2][0]}
    with pytest.raises(StructureError, match=r"stored zero coefficient at "
                       r"'\[y\|y\]'"):
        WordComplex(cx.space, cols, cx.pol, cx.mag, cx.start)


def test_graded_map_refuses_labels_outside_its_spaces(F5):
    sp = GradedSpace(F5, DegreeWindow(-4, 4), {0: ["a"], 1: ["b"]})
    for cols, message in (
            ({"zz": {"b": 1}}, "column label 'zz' not in source"),
            ({"a": {"zz": 1}}, "image label 'zz' not in target"),
            ({"b": {"a": 1}}, "not homogeneous of shift 1 at 'b'"),
            ({"a": {"b": 0}}, "stored zero coefficient at 'a'")):
        with pytest.raises(StructureError, match=message):
            GradedMap(sp, sp, 1, cols)
    # a non-canonical coefficient is refused here too, not by a reader
    with pytest.raises(StructureError,
                       match="^non-canonical coefficient at 'a'$"):
        GradedMap(sp, sp, 1, {"a": {"b": 7}})


NON_CANONICAL = [(FieldSpec.prime(5), v)
                 for v in (5, True, Fraction(2), 2.0)] + [
                     (FieldSpec.rationals(), 0.5)]


@pytest.mark.parametrize("f,v", NON_CANONICAL, ids=repr)
def test_a_non_canonical_scalar_is_refused_where_it_is_stored(f, v):
    """Planted in a labelled map, or in the position columns of the ±8 bar
    of K[y]/(y^4) after they passed once: refused at construction, with
    the same text for labels and for positions."""
    sp = GradedSpace(f, DegreeWindow(-4, 4), {0: ["a"], 1: ["b", "c"]})
    with pytest.raises(StructureError,
                       match="^non-canonical coefficient at 'a'$"):
        GradedMap(sp, sp, 1, {"a": {"b": 1, "c": v}})
    w = DegreeWindow(-8, 8)
    cx = bar(truncated_polynomial_algebra(f, w, "y", 2, 4), w).carrier
    cols = {n: [dict(col) for col in cx.columns(n)]
            for n in cx.space.degrees()}
    cols[2][0][next(iter(cols[2][0]))] = v
    with pytest.raises(StructureError,
                       match=r"^non-canonical coefficient at '\[y\|y\]'$"):
        WordComplex(cx.space, cols, cx.pol, cx.mag, cx.start)


def test_each_stored_entry_is_checked_once(monkeypatch):
    """Building the ±8 bar of K[y]/(y^4) scans each degree's columns once;
    ``homology_dims`` then scans only the blocks ``rank`` eliminates."""
    f, w = FieldSpec.prime(5), DegreeWindow(-8, 8)
    a = truncated_polynomial_algebra(f, w, "y", 2, 4)
    scans, ranks = [], []
    check, rank = exactlinalg.check_entries, gradedcomplex.rank

    def counting_check(field, rows, cols, items):
        scans.append((rows, cols))
        check(field, rows, cols, items)

    def counting_rank(field, rows, cols):
        ranks.append((len(rows), cols))
        return rank(field, rows, cols)

    for name, module in list(sys.modules.items()):
        if name.startswith("dgkoszul") and hasattr(module, "check_entries"):
            monkeypatch.setattr(module, "check_entries", counting_check)
    monkeypatch.setattr(gradedcomplex, "rank", counting_rank)
    cx = bar(a, w).carrier
    assert scans == [(cx.dim(n), cx.dim(n + 1)) for n in cx._columns]
    scans.clear()
    assert homology_dims(cx) == {0: 1, 1: 1, 6: 1, 7: 1}
    assert ranks and scans == ranks


def test_homology_dims_at_known_bounds(F5):
    # bounds make the degrees at the window's edges computable
    assert homology_dims(two_step(F5)) == {}
    assert homology_dims(split_circle(F5)) == {0: 1, 1: 1}


def test_homology_dims_eliminates_only_the_blocks_with_a_gap(monkeypatch):
    # rank runs on d_0, d_6 and d_12 of the bar of K[y]/(y^4) at ±18, the
    # blocks where the count of distinct last positions (0, 4 and 70 of
    # 0, 5 and 110 nonzero columns) is below the bound from d∘d = 0; one
    # forward pass each, no RREF, and no block cached.  Eliminating every
    # block touched 35,617 row entries; these three touch 771.
    shapes, passes, touched = [], [], [0]
    rank, echelon = gradedcomplex.rank, exactlinalg._echelon
    sub_multiple = exactlinalg._sub_multiple

    def counting_rank(field, rows, cols):
        shapes.append((len(rows), cols))
        return rank(field, rows, cols)

    def counting_echelon(field, rows):
        passes.append(len(rows))
        return echelon(field, rows)

    def counting_sub(row, a, prow, p):
        touched[0] += len(prow)
        sub_multiple(row, a, prow, p)

    def refused(*args):
        raise AssertionError("homology_dims needs no RREF")

    monkeypatch.setattr(gradedcomplex, "rank", counting_rank)
    monkeypatch.setattr(exactlinalg, "_echelon", counting_echelon)
    monkeypatch.setattr(exactlinalg, "_sub_multiple", counting_sub)
    for module, name in ((exactlinalg, "span_echelon"),
                         (gradedcomplex, "graph_span")):
        monkeypatch.setattr(module, name, refused)
    f = FieldSpec.prime(5)
    w = DegreeWindow(-18, 18)
    cx = bar(truncated_polynomial_algebra(f, w, "y", 2, 4), w).carrier
    assert homology_dims(cx) == {0: 1, 1: 1, 6: 1, 7: 1, 12: 1, 13: 1}
    gaps = [n for n, (low, high) in rank_bounds(cx).items() if low < high]
    assert gaps == [0, 6, 12]
    assert shapes == [(cx.dim(n), cx.dim(n + 1)) for n in gaps] == \
        [(1, 1), (8, 12), (116, 182)]
    assert passes == [rows for rows, _ in shapes]
    assert touched[0] <= 1_000, touched
    assert cx._graphs == {}


def test_homology_eliminates_each_block_once(monkeypatch):
    # homology_by_degree makes one span_echelon per block of the window
    # and the block below it, on the graph of d_n (before: two per degree,
    # the RREF of d_n and the echelon of d_{n-1}'s columns); a class and a
    # preimage reduce against the stored rows and make none
    shapes = []
    span_echelon = exactlinalg.span_echelon

    def counted(field, vectors, dim):
        shapes.append((len(vectors), dim))
        return span_echelon(field, vectors, dim)

    monkeypatch.setattr(exactlinalg, "span_echelon", counted)
    f = FieldSpec.prime(5)
    w = DegreeWindow(-8, 8)
    cx = bar(truncated_polynomial_algebra(f, w, "y", 2, 4), w).carrier
    hs = homology_by_degree(cx)
    blocks = range(min(hs) - 1, max(hs) + 1)
    assert list(hs) == list(range(min(hs), max(hs) + 1))
    assert sorted(shapes) == sorted((cx.dim(n), cx.dim(n) + cx.dim(n + 1))
                                    for n in blocks)
    assert len(shapes) == len(hs) + 1 < 2 * len(hs)
    for n, h in hs.items():
        for i, rep in enumerate(h.representatives):
            assert homology_class(cx, n, rep) == {i: f.one}
        for l in cx.labels(n - 1):
            if cx.d(l):
                assert cx.d(preimage(cx, n, cx.d(l))) == cx.d(l)
    assert len(shapes) == len(hs) + 1


def two_term(name, rows, cols, entries):
    """K^cols -> K^rows in degrees 0, 1 from an integral matrix, entries
    row by row: its labels by degree, d as {label: {label: int}}, and its
    homology dimensions over Q."""
    src = [f"{name}0{i}" for i in range(cols)]
    tgt = [f"{name}1{j}" for j in range(rows)]
    m = {(k // cols, k % cols): v for k, v in enumerate(entries) if v}
    d = {s: {t: m[j, i] for j, t in enumerate(tgt) if (j, i) in m}
         for i, s in enumerate(src)}
    rank = len(reference_rref(Matrix(rows, cols, FieldSpec.rationals(),
                                     m))[1])
    return {0: src, 1: tgt}, d, [cols - rank, rows - rank]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_large_prime_and_q_agree_on_integral_complexes(data):
    # C ⊗ D for integral two-term complexes C, D with entries in [-3, 3],
    # d(x⊗y) = dx⊗y + (-1)^|x| x⊗dy.  Degrees 0 and 2 have at most four
    # elements, so every minor of d is at most 4x4 and |det| <= (3*2)^4 =
    # 1296 < p: homology over F_2147483647 has the dimensions it has over
    # Q, which Künneth gives from the ranks of C and D.
    def matrix():
        rows, cols = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        return rows, cols, data.draw(st.lists(
            st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))

    cb, dc, hc = two_term("c", *matrix())
    db, dd, hd = two_term("e", *matrix())
    basis = {n: [f"{x}|{y}" for i in range(2) if 0 <= n - i < 2
                 for x in cb[i] for y in db[n - i]] for n in range(3)}
    cols = {}
    for i, xs in cb.items():
        for x in xs:
            for y in db[0] + db[1]:
                col = cols.setdefault(f"{x}|{y}", {})
                for t, v in dc.get(x, {}).items():
                    col[f"{t}|{y}"] = v
                for t, v in dd.get(y, {}).items():
                    col[f"{x}|{t}"] = -v if i else v
    kunneth = [sum(hc[i] * hd[n - i] for i in range(2) if 0 <= n - i < 2)
               for n in range(3)]
    for f in (FieldSpec.rationals(), FieldSpec.prime(2147483647)):
        sp = GradedSpace(f, DegreeWindow(-1, 3), basis)
        c = Complex(sp, GradedMap(sp, sp, 1, {
            l: {t: f.from_int(v) for t, v in col.items()}
            for l, col in cols.items() if col}))
        assert check_d_squared(c)
        assert [homology(c, n).dimension for n in range(3)] == kunneth


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
    ident = identity(c.space)
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


def reference_is_chain_map(fmap, source, target):
    """The earlier check, which built each label's stray images as a dict
    before testing them."""
    f = target.field
    tsp = target.space
    minus_sign = f.from_int(1 if fmap.shift % 2 else -1)
    for n in source.space.degrees():
        for l in source.labels(n):
            img = fmap.apply_label(l)
            stray = {t: v for t, v in img.items()
                     if t not in tsp or tsp.deg(t) != n + fmap.shift}
            if stray:
                return False, (n, l, stray)
            diff = vec_iadd(f, target.d(img), minus_sign,
                            fmap.apply(source.d(l)))
            if diff:
                return False, (n, l, diff)
    return True, None


def map_sum(x, y):
    """x + y, for GradedMaps of one shift between the same spaces."""
    f = x.target.field
    cols = {l: dict(c) for l, c in x.cols.items()}
    for l, c in y.cols.items():
        vec_iadd(f, cols.setdefault(l, {}), f.one, c)
    return GradedMap(x.source, x.target, x.shift,
                     {l: c for l, c in cols.items() if c})


@st.composite
def map_cases(draw):
    """(fmap, source, target): the identity of a complex from
    ``complexes``, d·h + h·d for a random h of degree -1 (both chain
    maps), or a random map of degree 0 to another complex; passed with
    the map's own target, or with a copy of it where one label is
    dropped or moved to another degree, with its d-terms."""
    a = draw(complexes())
    f = a.field
    kind = draw(st.sampled_from(["identity", "homotopic", "random"]))
    b = draw(complexes([f])) if kind == "random" else a
    coeff = scalars(f)

    def random_map(shift):
        cols = {}
        for l in a.space:
            col = {t: c for t in b.labels(a.space.deg(l) + shift)
                   if (c := draw(coeff))}
            if col:
                cols[l] = col
        return GradedMap(a.space, b.space, shift, cols)

    if kind == "identity":
        fmap = identity(a.space)
    elif kind == "homotopic":
        h = random_map(-1)
        fmap = map_sum(a.differential.compose(h), h.compose(a.differential))
    else:
        fmap = random_map(0)
    labels = list(b.space)
    how = draw(st.sampled_from(["own", "dropped", "moved"] if labels
                               else ["own"]))
    if how == "own":
        return fmap, a, b
    x = draw(st.sampled_from(labels))
    basis = {n: [l for l in ls if l != x] for n, ls in b.space.basis.items()}
    if how == "moved":
        basis.setdefault(draw(st.sampled_from(
            [n for n in range(-1, 5) if n != b.space.deg(x)])), []).append(x)
    sp = GradedSpace(f, b.window, basis)
    cols = {l: col for l, c in b.differential.cols.items() if l != x
            if (col := {t: v for t, v in c.items() if t != x})}
    return fmap, a, Complex(sp, GradedMap(sp, sp, 1, cols))


@settings(max_examples=300, deadline=None)
@given(map_cases())
def test_is_chain_map_matches_reference(case):
    # the same verdict and the same first failure, stray images included
    assert is_chain_map(*case) == reference_is_chain_map(*case)


def test_is_chain_map_rejects_stray_images(F5):
    # zero differentials commute with anything; the images must still
    # land in the target, in the right degree
    c = split_circle(F5)
    ident = identity(c.space)
    empty = GradedSpace(F5, c.window, {}, bounds=(1, 0))
    ok, witness = is_chain_map(ident, c, Complex(empty, GradedMap.zero(
        empty, empty, 1)))
    assert not ok and witness == (0, "u", {"u": F5.one})
    swapped = GradedSpace(F5, c.window, {0: ["v"], 1: ["u"]}, bounds=(0, 1))
    ok, witness = is_chain_map(ident, c, Complex(swapped, GradedMap.zero(
        swapped, swapped, 1)))
    assert not ok and witness == (0, "u", {"u": F5.one})


def test_direct_sum_tags(F5):
    c = two_step(F5)
    total = direct_sum([c, c], ["l", "r"])
    assert total.space.dim(0) == 2
    assert "l:a" in total.space and "r:a" in total.space
    assert total.d("r:a") == {"r:b": F5.one}


def unit_relabelling(f, bijection: dict) -> dict:
    """The witness leaf_from_bijection checks: bijection, coefficient 1."""
    return {l: (t, f.one) for l, t in bijection.items()}


def test_solve_diagonal_rejects_impossible(F5):
    # nothing solves a sign: a bijection is checked with coefficient one
    c = two_step(F5)
    z = split_circle(F5)
    with pytest.raises(StructureError, match="not a chain map at 'a'"):
        check_relabelling(unit_relabelling(F5, {"a": "u", "b": "v"}), c, z)


@pytest.mark.parametrize("bijection", [
    pytest.param({"u": "u"}, id="misses-a-label"),
    pytest.param({"u": "u", "v": "w"}, id="outside-the-target"),
    pytest.param({"u": "v", "v": "u"}, id="wrong-degree"),
])
def test_solve_diagonal_rejects_bad_bijection(F5, bijection):
    c = split_circle(F5)
    with pytest.raises(StructureError):
        check_relabelling(unit_relabelling(F5, bijection), c, c)


def test_quasi_iso_detection(F5):
    c = split_circle(F5)
    ident = identity(c.space)
    verdicts = is_quasi_iso(ident, c, c)
    assert all(v is True or v == "unverifiable at boundary"
               for v in verdicts.values())


def test_check_relabelling_raises(F5):
    # a → b with d(a) = b: the identity relabelling with b scaled by 2
    # is a graded isomorphism but not a chain map
    c = two_step(F5)
    check_relabelling({"a": ("a", F5.one), "b": ("b", F5.one)}, c, c)
    with pytest.raises(StructureError, match="not a chain map at 'a'"):
        check_relabelling({"a": ("a", F5.one), "b": ("b", F5.from_int(2))},
                          c, c)


def reference_check_mutually_inverse(fwd, bwd, a, b):
    """The earlier check: both maps as chain maps, then both compositions."""
    for name, fmap, src, tgt in (("fwd", fwd, a, b), ("bwd", bwd, b, a)):
        ok, witness = is_chain_map(fmap, src, tgt)
        if not ok:
            raise StructureError(f"{name} is not a chain map at {witness[:2]}")
    f = a.field
    for l in a.space:
        back = bwd.apply(fwd.apply_label(l))
        if back != {l: f.one}:
            raise StructureError(f"bwd∘fwd ≠ id at {l!r}")
    for l in b.space:
        back = fwd.apply(bwd.apply_label(l))
        if back != {l: f.one}:
            raise StructureError(f"fwd∘bwd ≠ id at {l!r}")


def reference_check_relabelling(phi, a, b):
    """The earlier check on phi as a map and on its inverse; a phi that is
    no graded map a → b (a zero coefficient, a target outside b or its
    degree) is refused when the map is built."""
    f = a.field
    fwd = GradedMap(a.space, b.space, 0,
                    {l: {t: c} for l, (t, c) in phi.items()})
    bwd = GradedMap(b.space, a.space, 0,
                    {t: {l: f.inv(c)} for l, (t, c) in phi.items()})
    reference_check_mutually_inverse(fwd, bwd, a, b)


PERTURBATIONS = ("none", "scale d", "extra d term", "extra d label",
                 "rescale", "drop label", "two labels to one",
                 "wrong degree", "outside", "zero coefficient", "extra label")


@st.composite
def witness_cases(draw):
    """(perturbation, a, b, phi) over F_5 or Q.  b is a copy of the
    complex a on labels "T:m", phi sends l to s_l·T:π(l) for random
    nonzero s_l and a permutation π within each degree, and
    d_b = phi·d_a·phi⁻¹.
    Then at most one change: a coefficient of d_b scaled, one more term in
    some d_b(u) (at a label of b, or at a new label off phi's image), one
    s_l scaled, a label dropped from phi, two labels sent to one target,
    a target in another degree or outside b, a zero coefficient, or one
    more label in b."""
    a = draw(complexes(FIELDS[1:]))
    f = a.field
    labels = list(a.space)
    kind = draw(st.sampled_from(PERTURBATIONS if labels else ["none"]))
    perm = {}
    for n in a.space.degrees():
        perm.update(zip(a.labels(n), draw(st.permutations(a.labels(n)))))
    phi = {l: (f"T:{perm[l]}", draw(scalars(f, nonzero=True)))
           for l in labels}
    basis = {n: [f"T:{l}" for l in a.labels(n)] for n in a.space.degrees()}
    if kind in ("extra d label", "extra label"):
        n = draw(st.integers(0, 4))
        basis.setdefault(n, []).append("X")
    bsp = GradedSpace(f, a.window, basis)
    dcols = {}
    for l, (t, c) in phi.items():
        img = {}
        for s_, v in a.d(l).items():
            u, cs = phi[s_]
            img[u] = f.mul(f.mul(f.inv(c), v), cs)
        dcols[t] = img
    if kind in ("scale d", "extra d term", "extra d label"):
        u = draw(st.sampled_from(sorted(bsp)))
        col = dict(dcols.get(u, {}))
        if kind == "scale d" and col:
            t = draw(st.sampled_from(sorted(col)))
            col[t] = f.mul(col[t], draw(scalars(f, nonzero=True)))
        elif kind != "scale d" and bsp.labels(bsp.deg(u) + 1):
            t = draw(st.sampled_from(sorted(bsp.labels(bsp.deg(u) + 1))))
            vec_iadd(f, col, draw(scalars(f, nonzero=True)), {t: f.one})
        dcols[u] = col
    if kind not in ("none", "scale d", "extra d term", "extra d label",
                    "extra label"):
        l = draw(st.sampled_from(labels))
        t, c = phi[l]
        if kind == "rescale":
            phi[l] = (t, f.mul(c, draw(scalars(f, nonzero=True))))
        elif kind == "drop label":
            del phi[l]
        elif kind == "two labels to one":
            m = draw(st.sampled_from(labels))
            phi[m] = (t, phi[m][1])
        elif kind == "wrong degree":
            phi[l] = (draw(st.sampled_from(sorted(bsp))), c)
        elif kind == "outside":
            phi[l] = ("Y", c)
        else:
            phi[l] = (t, f.zero)
    b = Complex(bsp, GradedMap(bsp, bsp, 1, {u: c for u, c in dcols.items()
                                             if c}))
    return kind, a, b, phi


def verdict(check, *args) -> bool:
    try:
        check(*args)
    except StructureError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(witness_cases())
def test_witness_checks_match_reference(case):
    # the one-pass check of a relabelling accepts exactly what both
    # chain-map checks and both compositions accept of it and its
    # inverse
    kind, a, b, phi = case
    ok = verdict(check_relabelling, phi, a, b)
    assert ok == verdict(reference_check_relabelling, phi, a, b)
    assert ok or kind != "none"
