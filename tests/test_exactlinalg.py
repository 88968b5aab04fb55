"""Exact linear algebra: rank/kernel oracles, preimages, and agreement of
the sparse elimination with a dense reference Gauss–Jordan."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgkoszul import exactlinalg
from dgkoszul.barcobar import bar
from dgkoszul.dgstruct import truncated_polynomial_algebra
from dgkoszul.exactlinalg import (
    KERNEL,
    FieldSpec,
    SparseMatrix,
    graph_kernel,
    graph_reduce,
    graph_span,
    rank,
    rref,
    bilinear,
    span_echelon,
    vec_iadd,
    vec_scale,
)
from dgkoszul.gradedcomplex import DegreeWindow, homology_by_degree


def from_dense(rows_list, f):
    return SparseMatrix(len(rows_list), len(rows_list[0]) if rows_list else 0,
                        f, {(i, j): f.from_int(v) if type(v) is int else v
                            for i, row in enumerate(rows_list)
                            for j, v in enumerate(row) if v})


def from_columns(cols, rows, f):
    return SparseMatrix(rows, len(cols), f, {(i, j): v
                                             for j, col in enumerate(cols)
                                             for i, v in col.items()})


def columns(m):
    cols = [dict() for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v
    return cols


def matvec(m, x):
    out = {}
    for c, col in zip(range(m.cols), columns(m)):
        vec_iadd(m.field, out, x.get(c, 0), col)
    return out


def kernel_basis(m):
    """The kernel of m from the echelon of its graph: one vector per free
    column, in column order."""
    return list(graph_kernel(graph_span(m.field, columns(m), m.rows),
                             m.cols).values())


def solve(m, b):
    """The x with m x = b and 0 at every free column, or None: b reduced
    by the echelon of m's graph."""
    f = m.field
    y = graph_reduce(f, graph_span(f, columns(m), m.rows), m.cols, b)
    if any(k >= m.cols for k in y):
        return None
    return {k: f.neg(y[k]) for k in sorted(y)}


def rref_kernel(m):
    """The kernel basis ``rref`` returned before the graph echelon: 1 at
    its free column, then minus the RREF entries at the pivot columns."""
    f = m.field
    r = rref(m)
    kernel = {free: {free: f.one} for free in range(m.cols)
              if free not in r.pivots}
    for pc, row in zip(r.pivots, r.rref_rows):
        for k, coef in row.items():
            if k != pc:
                kernel[k][pc] = f.neg(coef)
    return list(kernel.values())


def rref_solve(m, b):
    """``solve`` as it was before the graph echelon: the RREF of [m | b],
    free variables zero, or None when b's column is a pivot."""
    f = m.field
    aug = SparseMatrix(m.rows, m.cols + 1, f,
                       {**m.entries, **{(r, m.cols): v for r, v in b.items()
                                        if v}})
    r = rref(aug)
    if r.pivots and r.pivots[-1] == m.cols:
        return None
    return {pc: r.rref_rows[i][m.cols] for i, pc in enumerate(r.pivots)
            if r.rref_rows[i].get(m.cols, 0)}


def test_field_arithmetic_f5(F5):
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.neg(1) == 4
    assert F5.from_int(-1) == 4
    # a bool is no residue, as it is no rational: both fields refuse it
    assert F5.is_canonical(1) and F5.is_canonical(0)
    assert not F5.is_canonical(True) and not F5.is_canonical(False)
    assert not F5.is_canonical(5) and not F5.is_canonical(Fraction(1))
    with pytest.raises(ValueError, match="non-canonical"):
        SparseMatrix(1, 1, F5, {(0, 0): True})


def test_field_arithmetic_q(Q):
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert Q.inv(2) == Fraction(1, 2)
    assert Q.from_int(7) == Fraction(7)
    # an integral value comes back as an int, never a float
    for a, expected in ((1, 1), (-1, -1), (Fraction(1, 2), 2),
                        (Fraction(-1, 3), -3)):
        assert type(Q.inv(a)) is int and Q.inv(a) == expected
    assert Q.zero == 0 and Q.one == 1 and type(Q.from_int(7)) is int
    assert Q.is_canonical(3) and Q.is_canonical(Fraction(3))
    assert not Q.is_canonical(True) and not Q.is_canonical(0.5)


def test_vec_ops_cancel(F5):
    u = {"a": 2, "b": 3}
    v = {"a": 3, "c": 1}
    out = vec_iadd(F5, u, 1, v)
    assert out is u
    assert u == {"b": 3, "c": 1}
    assert v == {"a": 3, "c": 1}
    assert vec_scale(F5, 0, u) == {}
    u = {"a": 2, "b": 3}
    assert vec_iadd(F5, u, 4, {"b": 3}) == {"a": 2}
    assert u == {"a": 2}
    assert vec_iadd(F5, u, 0, {"a": 1}) == {"a": 2}


def test_bilinear_extends_pair_rule(Q):
    def rule(a, b):
        return {a + b: Fraction(1)} if a != b else {}

    x = {"p": Fraction(2), "q": Fraction(1)}
    y = {"p": Fraction(1), "q": Fraction(-2)}
    # 2p·p + 2p·(-2q) + q·p + q·(-2q); pp and qq vanish
    assert bilinear(Q, rule, x, y) == {"pq": Fraction(-4), "qp": Fraction(1)}
    # every pair lands on "s"; the coefficients of y sum to 0, so it cancels
    z = {"p": Fraction(1), "q": Fraction(-1)}
    assert bilinear(Q, lambda a, b: {"s": Fraction(1)}, x, z) == {}


def test_rref_rank_oracle(F5):
    # [[1,2],[2,4]] has rank 1 over F_5
    m = from_dense([[1, 2], [2, 4]], F5)
    r = rref(m)
    assert r.rank == 1
    assert r.pivots == [0]
    assert len(kernel_basis(m)) == 1
    # kernel vector (x, y) satisfies x + 2y = 0 over F_5
    k = kernel_basis(m)[0]
    assert (k.get(0, 0) + 2 * k.get(1, 0)) % 5 == 0


def test_rref_identity(Q):
    m = SparseMatrix(3, 3, Q, {(i, i): Q.one for i in range(3)})
    r = rref(m)
    assert r.rank == 3
    assert kernel_basis(m) == []


def test_rref_rationals_exact(Q):
    m = from_dense(
        [[Fraction(1, 2), Fraction(1, 3)],
         [Fraction(1, 4), Fraction(1, 6)]], Q)
    assert rref(m).rank == 1


def test_solve_consistent_and_inconsistent(F5):
    m = from_dense([[1, 1], [0, 1]], F5)
    x = solve(m, {0: 3, 1: 1})
    assert x is not None
    assert matvec(m, x) == {0: 3, 1: 1}
    m2 = from_dense([[1, 1], [2, 2]], F5)
    assert solve(m2, {0: 1, 1: 0}) is None


@st.composite
def sparse_matrices(draw):
    p = draw(st.sampled_from([2, 5]))
    f = FieldSpec.prime(p)
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = {}
    for _ in range(draw(st.integers(0, 12))):
        r = draw(st.integers(0, rows - 1))
        c = draw(st.integers(0, cols - 1))
        v = draw(st.integers(1, p - 1))
        entries[(r, c)] = v
    return SparseMatrix(rows, cols, f, entries)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_rank_nullity_and_kernel(m):
    r = rref(m)
    assert r.rank + len(kernel_basis(m)) == m.cols
    for k in kernel_basis(m):
        assert matvec(m, k) == {}


def reference_rref(m):
    """Dense textbook Gauss–Jordan: (RREF rows as dense lists, pivots)."""
    f = m.field
    a = [[m.entries.get((r, c), 0) for c in range(m.cols)]
         for r in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                fac = a[i][c]
                a[i] = [f.from_int(x - f.mul(fac, y))
                        for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def reference_solve(m, b):
    aug = SparseMatrix(m.rows, m.cols + 1, m.field,
                       {**m.entries, **{(r, m.cols): v for r, v in b.items()}})
    a, pivots = reference_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    return {pc: a[i][m.cols] for i, pc in enumerate(pivots) if a[i][m.cols]}


FIELDS = [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.prime(31),
          FieldSpec.rationals()]


def scalars(f):
    if f.kind == "prime":
        return st.integers(0, f.p - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def matrices_with_rhs(draw):
    """A matrix over F_2, F_5, F_31 or Q (0 rows or 0 columns allowed) and a
    right-hand side m·x for a random x."""
    f = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    cells = draw(st.lists(scalars(f), min_size=rows * cols,
                          max_size=rows * cols))
    entries = {(i // cols, i % cols): v for i, v in enumerate(cells) if v}
    m = SparseMatrix(rows, cols, f, entries)
    x = {c: v for c, v in enumerate(
        draw(st.lists(scalars(f), min_size=cols, max_size=cols))) if v}
    return m, matvec(m, x)


@settings(max_examples=300, deadline=None)
@given(matrices_with_rhs())
def test_rref_and_solve_match_reference(case):
    m, b = case
    f = m.field
    a, pivots = reference_rref(m)
    r = rref(m)
    assert r.rank == len(pivots)
    assert r.pivots == pivots
    assert r.rref_rows == [{j: x for j, x in enumerate(row) if x}
                           for row in a]
    assert kernel_basis(m) == [
        {free: f.one, **{pc: f.neg(a[i][free])
                         for i, pc in enumerate(pivots) if a[i][free]}}
        for free in range(m.cols) if free not in pivots]
    # consistent right-hand side: the canonical solution, free variables 0
    x = solve(m, b)
    assert x == reference_solve(m, b)
    assert matvec(m, x) == b
    # inconsistent right-hand side: a unit vector outside the image
    for i in range(m.rows):
        e = {i: f.one}
        if reference_solve(m, e) is None:
            assert solve(m, e) is None
            break
    else:
        assert r.rank == m.rows


@settings(max_examples=300, deadline=None)
@given(matrices_with_rhs(), st.data())
def test_graph_echelon_matches_rref_kernel_and_solve(case, data):
    # one echelon of the graph e_j ⊕ m·e_j: its rows keyed below m.cols are
    # the RREF kernel, keyed by the free columns and in the same entry
    # order; the rest, above m.cols, are the image's span_echelon; and the
    # reduction of 0 ⊕ b is solve's preimage, or None off the image
    m, b = case
    f = m.field
    g = graph_span(f, columns(m), m.rows)
    free = [c for c in range(m.cols) if c not in rref(m).pivots]
    kernel = graph_kernel(g, m.cols)
    assert list(kernel) == free
    assert [list(v.items()) for v in kernel.values()] == [
        list(v.items()) for v in rref_kernel(m)]
    assert {k - m.cols: {i - m.cols: x for i, x in row.items()
                         if i >= m.cols}
            for k, row in g.items() if k >= m.cols} == span_echelon(
        f, columns(m), m.rows)
    off = data.draw(st.dictionaries(st.integers(0, m.rows - 1),
                                    scalars(f).filter(bool), max_size=3)
                    if m.rows else st.just({}))
    for rhs in [b, off] + [{i: f.one} for i in range(m.rows)]:
        x = solve(m, rhs)
        assert x == rref_solve(m, rhs)
        assert x is None or matvec(m, x) == rhs


@settings(max_examples=300, deadline=None)
@given(matrices_with_rhs())
def test_span_echelon_matches_reference(case):
    # the rows of m are the vectors
    m, _ = case
    f = m.field
    dim = m.cols
    vectors = [{c: x for (r, c), x in m.entries.items() if r == i}
               for i in range(m.rows)]
    ech = span_echelon(f, vectors, dim)
    # the missing positions are the unit-vector pivots of [vectors | I]
    aug = from_columns(vectors + [{i: f.one} for i in range(dim)], dim, f)
    _, pivots = reference_rref(aug)
    assert [i for i in range(dim) if i not in ech] == [
        p - m.rows for p in pivots if p >= m.rows]
    # reduced: each row is 1 at its key, its last position, and 0 at
    # every other key
    for k, row in ech.items():
        assert max(row) == k and row[k] == f.one
        assert all(j == k or j not in ech for j in row)

    def rank(vecs):
        return len(reference_rref(from_columns(vecs, dim, f))[1])

    # the rows are independent and span the vectors' span
    rows = list(ech.values())
    assert len(rows) == rank(rows) == rank(vectors) == rank(vectors + rows)


@settings(max_examples=200, deadline=None)
@given(matrices_with_rhs(), st.data())
def test_row_order_does_not_change_the_result(case, data):
    # the RREF depends only on the row space, so the order in which the
    # elimination takes the rows must not show in any output
    m, b = case
    f = m.field
    perm = data.draw(st.permutations(range(m.rows)))
    pm = SparseMatrix(m.rows, m.cols, f,
                      {(perm[r], c): x for (r, c), x in m.entries.items()})
    assert rref(pm) == rref(m)
    assert solve(pm, {perm[r]: x for r, x in b.items()}) == solve(m, b)
    for i in range(m.rows):
        assert solve(pm, {perm[i]: f.one}) == solve(m, {i: f.one})
    vectors = [{c: x for (r, c), x in m.entries.items() if r == i}
               for i in range(m.rows)]
    assert (span_echelon(f, [vectors[i] for i in perm], m.cols)
            == span_echelon(f, vectors, m.cols))


@settings(max_examples=300, deadline=None)
@given(matrices_with_rhs())
def test_rank_is_the_rref_rank(case):
    # the forward pass alone, on the rows or on the columns
    m, _ = case
    rows = [dict() for _ in range(m.rows)]
    cols = [dict() for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
        cols[c][r] = v
    assert rank(m.field, rows, m.cols) == rref(m).rank
    assert rank(m.field, cols, m.rows) == rref(m).rank


def reference_echelon(field, rows):
    """``_echelon`` as it was when every new pivot row was stored as a
    scaled copy, its leading entry 1 or not."""
    p, inv, piv = field.p, field.inv, {}
    for row in sorted(filter(None, rows), key=min, reverse=True):
        while row:
            c = min(row)
            prow = piv.get(c)
            if prow is None:
                a = inv(row[c])
                if p is None:
                    piv[c] = {k: a * v for k, v in row.items()}
                else:
                    piv[c] = {k: a * v % p for k, v in row.items()}
                break
            exactlinalg._sub_multiple(row, row[c], prow, p)
    return piv


@st.composite
def unit_led_matrices(draw):
    """A matrix over F_2, F_5 or Q whose entries are often 1, so that many
    pivot rows lead with 1; over Q a 1 is an int or a Fraction."""
    f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                              FieldSpec.rationals()]))
    ones = st.sampled_from([1, Fraction(1)] if f.p is None else [1])
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = draw(st.lists(st.one_of(ones, scalars(f)),
                          min_size=rows * cols, max_size=rows * cols))
    return SparseMatrix(rows, cols, f, {(i // cols, i % cols): v
                                        for i, v in enumerate(cells) if v})


@settings(max_examples=300, deadline=None)
@given(unit_led_matrices())
def test_uncopied_unit_pivots_match_the_copying_echelon(m):
    f = m.field

    def results():
        rows = [{c: x for (r, c), x in m.entries.items() if r == i}
                for i in range(m.rows)]
        vectors = [dict(row) for row in rows]
        return (rank(f, rows, m.cols), rref(m),
                span_echelon(f, vectors, m.cols), vectors)

    new = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "_echelon", reference_echelon)
        old = results()
    assert new == old
    # span_echelon leaves the caller's vectors as they were
    assert new[3] == [{c: x for (r, c), x in m.entries.items() if r == i}
                      for i in range(m.rows)]
    for row in new[1].rref_rows:
        assert all(f.is_canonical(x) and x for x in row.values())


def test_rank_keeps_the_matrix_checks(F5, Q):
    assert rank(F5, [{0: 1, 2: 3}, {}, {0: 2, 2: 1}], 3) == 1
    for row, message in (({3: 1}, "out of range"), ({-1: 1}, "out of range"),
                         ({0: 0}, "stored zero"), ({0: 5}, "non-canonical"),
                         ({0: True}, "non-canonical")):
        with pytest.raises(ValueError, match=message):
            rank(F5, [{1: 1}, row], 3)
    with pytest.raises(ValueError, match="non-canonical"):
        rank(Q, [{0: 0.5}], 1)


@st.composite
def accumulations(draw):
    """acc, c and v for acc += c·v over F_2, F_5, F_2147483647 or Q on
    overlapping keys; c may be 0, and v may cancel any keys of acc, all of
    them included."""
    f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                              FieldSpec.prime(2147483647),
                              FieldSpec.rationals()]))
    nonzero = scalars(f).filter(bool)
    keys = st.sampled_from("abcdefg")
    acc = draw(st.dictionaries(keys, nonzero, max_size=6))
    c = draw(scalars(f))
    v = draw(st.dictionaries(keys, nonzero, max_size=6))
    if c and acc:
        for k in draw(st.sets(st.sampled_from(sorted(acc)))):
            v[k] = f.mul(f.neg(acc[k]), f.inv(c))
    return f, acc, c, v


def reference_iadd(f, acc, c, v):
    out = {}
    for k in list(acc) + [k for k in v if k not in acc]:
        s = f.from_int(acc.get(k, f.zero) + f.mul(c, v.get(k, f.zero)))
        if not f.is_zero(s):
            out[k] = s
    return out


@settings(max_examples=300, deadline=None)
@given(accumulations())
def test_vec_iadd_matches_reference(case):
    f, acc, c, v = case
    expected = reference_iadd(f, acc, c, v)
    v_before = dict(v)
    out = vec_iadd(f, acc, c, v)
    assert out is acc and v == v_before
    # the same entries in the same order: keys of acc keep their place and
    # new keys follow in the order of v, and the reports list them so
    assert list(out.items()) == list(expected.items())
    assert all(x and f.is_canonical(x) for x in out.values())


def test_elimination_fill_stays_low(monkeypatch):
    # rows reduced in decreasing order of leading column: on the bar of
    # K[y]/(y^4), |y| = 2, over F_5 at ±18, homology touches 140,744 row
    # entries in 38,047 row operations; in label order it touched 372,528
    # in 56,034.  A bound in between catches a return of that fill.
    touched = [0, 0]
    sub_multiple = exactlinalg._sub_multiple

    def counting(row, a, prow, p):
        touched[0] += len(prow)
        touched[1] += 1
        sub_multiple(row, a, prow, p)

    monkeypatch.setattr(exactlinalg, "_sub_multiple", counting)
    f = FieldSpec.prime(5)
    w = DegreeWindow(-18, 18)
    b = bar(truncated_polynomial_algebra(f, w, "y", 2, 4), w)
    dims = {n: h.dimension for n, h in homology_by_degree(b.carrier).items()
            if h.dimension}
    assert dims == {0: 1, 1: 1, 6: 1, 7: 1, 12: 1, 13: 1}
    assert touched[0] <= 160_000 and touched[1] <= 42_000, touched


def test_kernel_selected():
    assert KERNEL == "sparse"


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)


def ordered(obj):
    """obj with every dict as its list of items, so that key order counts."""
    if isinstance(obj, dict):
        return [(k, ordered(v)) for k, v in obj.items()]
    if isinstance(obj, list):
        return [ordered(v) for v in obj]
    return obj


def leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in leaves(v)]
    return [obj]


def as_int(x):
    return x.numerator if x.denominator == 1 else x


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_q_ints_and_equal_fractions_give_equal_results(rows, cols, data):
    # over Q an integral scalar may be an int or a Fraction: the same
    # values either way must give the same values, pivots and key order
    Q = FieldSpec.rationals()
    cells = data.draw(st.lists(scalars(Q), min_size=rows * cols,
                               max_size=rows * cols))
    xs = data.draw(st.lists(scalars(Q), min_size=cols, max_size=cols))
    c = data.draw(scalars(Q))
    results = []
    for conv in (Fraction, as_int):
        m = SparseMatrix(rows, cols, Q, {(i // cols, i % cols): conv(v)
                                         for i, v in enumerate(cells) if v})
        x = {j: conv(v) for j, v in enumerate(xs) if v}
        vectors = [{j: v for (r, j), v in m.entries.items() if r == i}
                   for i in range(rows)]
        r = rref(m)
        out = [r.rank, r.pivots, kernel_basis(m), r.rref_rows,
               span_echelon(Q, vectors, cols), solve(m, matvec(m, x)),
               vec_iadd(Q, dict(x), conv(c), matvec(m, x)),
               bilinear(Q, lambda a, b: {a * b: conv(c)}, x, x)]
        assert all(type(v) in (int, Fraction) for v in leaves(out[2:]))
        results.append(ordered(out))
    assert results[0] == results[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_large_prime_and_q_agree_on_integral_matrices(rows, cols, data):
    # entries in [-3, 3], at most 6x6: by Hadamard every minor has
    # |det| <= (3*sqrt(6))^6 = 157,464 < p, so each nonzero minor stays
    # nonzero mod p.  Rank and pivots then agree, and the F_p RREF is the
    # reduction of the Q RREF, whose entries are ratios of minors.
    Q, Fp = FieldSpec.rationals(), FieldSpec.prime(2147483647)
    cells = data.draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                               max_size=rows * cols))
    rq, rp = (rref(SparseMatrix(rows, cols, f, {
        (i // cols, i % cols): f.from_int(v) for i, v in enumerate(cells)
        if v})) for f in (Q, Fp))

    def mod_p(v):
        v = Fraction(v)
        return Fp.mul(Fp.from_int(v.numerator),
                      Fp.inv(Fp.from_int(v.denominator)))

    assert (rq.rank, rq.pivots) == (rp.rank, rp.pivots)
    assert rp.rref_rows == [{k: mod_p(v) for k, v in row.items()}
                            for row in rq.rref_rows]
