"""Exact scalar arithmetic and elimination over F_p and Q.

Every rank, kernel, span and preimage computation in the engine funnels
through this module.  Arithmetic is exact: canonical residues over a
prime field; over the rationals an ``int`` or a ``fractions.Fraction``,
where an integral value may be either.  Equal values are ``==`` and hash alike, so mixed
arithmetic stays exact and dict keys and comparisons keep their meaning.
True division of two ints would give a float: only ``FieldSpec.inv``
divides.  A matrix is a list of row dicts (column -> nonzero scalar),
and both fields share one forward elimination over them, ``_echelon``:
``rank`` is it alone, and ``span_echelon`` reverses the positions and
back-substitutes.  Each checks its entries once, with ``check_entries``.
One ``graph_span`` of a map gives its kernel, its image and its
preimages.

Combinations are sparse dicts key -> nonzero scalar.  ``vec_iadd`` is the
shared accumulator: it adds c·v into a caller-owned dict in place and drops
the keys that cancel.  ``bilinear`` extends a rule on basis pairs (a
product or an action) to combinations through it.  Never accumulate into
a dict you did not build: a stored differential column, a rule's return
value or a cached homology representative may be shared.
"""

from __future__ import annotations

from fractions import Fraction

# the one elimination path; perfbench records it with every run
KERNEL = "sparse"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Ground field: F_p for a prime p, or the rationals."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime":
            if p is None or not _is_prime(p):
                raise ValueError(f"not a prime: {p!r}")
            if p >= 2**31:
                raise ValueError(f"prime too large: {p} (limit 2**31)")
        elif kind == "rationals":
            if p is not None:
                raise ValueError("rationals take no characteristic")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rationals")

    # -- scalar arithmetic -------------------------------------------------

    zero = 0
    one = 1

    def from_int(self, n: int):
        return n % self.p if self.kind == "prime" else n

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "prime":
            return pow(a, -1, self.p)
        if a == 1 or a == -1:
            return a
        r = 1 / Fraction(a)
        return r.numerator if r.denominator == 1 else r

    def is_zero(self, a) -> bool:
        return not a

    def is_canonical(self, a) -> bool:
        if self.kind == "prime":
            return type(a) is int and 0 <= a < self.p
        return type(a) is int or isinstance(a, Fraction)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "prime" else "Q"


# -- vectors are sparse dicts key -> nonzero scalar ------------------------


def vec_iadd(field: FieldSpec, acc: dict, c, v: dict) -> dict:
    """acc += c*v in place, dropping the keys that cancel; returns acc.

    Besides the elimination, the word-complex builder and
    ``check_d_squared``'s loop (a plain sum of d(d(l)), reduced only when
    tested), only this adds into a combination.  ``acc`` must be a dict the
    caller built and owns; a stored column (``Complex.d(label)``), a rule's
    return value or a cached homology representative may be shared, so
    copy it with ``dict(...)`` before accumulating into it.  Keys of ``acc``
    keep their place; new ones follow in the order of ``v``.
    """
    if not c:
        return acc
    p = field.p
    get = acc.get
    if p is None:
        for k, x in v.items():
            s = get(k, 0) + c * x
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    else:
        for k, x in v.items():
            s = (get(k, 0) + c * x) % p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    return acc


def vec_scale(field: FieldSpec, c, u: dict) -> dict:
    if field.is_zero(c):
        return {}
    return {k: field.mul(c, x) for k, x in u.items()}


def bilinear(field: FieldSpec, rule, x: dict, y: dict) -> dict:
    """Σ x_a y_b rule(a, b): the bilinear extension of a rule on basis
    pairs (a product or an action) to combinations."""
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            vec_iadd(field, out, field.mul(ca, cb), rule(a, b))
    return out


def check_entries(field: FieldSpec, rows: int, cols: int, items) -> None:
    """What ``rank``, ``span_echelon`` and ``WordComplex`` refuse in the
    pairs (row index, {column: scalar}): an index out of range, a stored
    zero or a non-canonical scalar, ``is_canonical`` written out."""
    p = field.p
    for r, row in items:
        for c, v in row.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"index ({r},{c}) out of range")
            if not v:
                raise ValueError(f"stored zero at ({r},{c})")
            if (type(v) is not int or not 0 < v < p if p else
                    type(v) is not int and not isinstance(v, Fraction)):
                raise ValueError(f"non-canonical scalar at ({r},{c}): {v!r}")


def _echelon(field: FieldSpec, rows: list) -> dict:
    """The forward pass, consuming the rows: {leading column: normalised
    row}.  Rows go by decreasing leading column, so one with a new leading
    column is a pivot unreduced (Faugère–Lachartre, PASCO 2010).  Any order
    leaves the row space, hence the rank: it changes only the work.  A
    pivot row that leads with 1 is kept as it is, not copied."""
    p = field.p
    inv = field.inv
    piv: dict = {}
    for row in sorted(filter(None, rows), key=min, reverse=True):
        while row:
            c = min(row)
            prow = piv.get(c)
            if prow is None:
                a = inv(row[c])
                if a == 1:
                    piv[c] = row
                elif p is None:
                    piv[c] = {k: a * v for k, v in row.items()}
                else:
                    piv[c] = {k: a * v % p for k, v in row.items()}
                break
            _sub_multiple(row, row[c], prow, p)
    return piv


def rank(field: FieldSpec, rows: list, cols: int) -> int:
    """Rank of the row dicts (column -> scalar) in ``cols`` columns, which
    it consumes: ``_echelon`` alone, under ``check_entries``.  A matrix,
    its transpose and its column permutations share their rank."""
    check_entries(field, len(rows), cols, enumerate(rows))
    return len(_echelon(field, rows))


def _sub_multiple(row: dict, a, prow: dict, p) -> None:
    """row -= a * prow in place, dropping entries that cancel."""
    get = row.get
    if p is None:
        for k, v in prow.items():
            x = get(k, 0) - a * v
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        a = p - a
        for k, v in prow.items():
            x = (get(k, 0) + a * v) % p
            if x:
                row[k] = x
            else:
                del row[k]


def span_echelon(field: FieldSpec, vectors, dim: int) -> dict:
    """Reduced echelon basis of the span of sparse vectors of length dim:
    {last nonzero position: row}, each row 1 at its key and 0 at the others.

    The missing positions give the unit vectors that extend the span to the
    whole space, the unit pivots of [vectors | I].  Any x less Σ x[k]·row k
    over the keys is 0 at every key, and is 0 iff x lies in the span.  The
    vectors are eliminated as fresh rows with the positions reversed, so
    a leading position is a last one, then back-substituted from the
    highest pivot down; the keys come in decreasing order.
    """
    top = dim - 1
    rows = [{top - i: x for i, x in v.items()} for v in vectors]
    check_entries(field, len(rows), dim, enumerate(rows))
    piv = _echelon(field, rows)
    pivots = sorted(piv)
    for c in reversed(pivots):
        prow = piv[c]
        for k in [k for k in prow if k != c and k in piv]:
            _sub_multiple(prow, prow[k], piv[k], field.p)
    return {top - c: {top - k: x for k, x in piv[c].items()}
            for c in pivots}


def graph_span(field: FieldSpec, columns: list, rows: int) -> dict:
    """``span_echelon`` of the graph of a map with the given columns, the
    vectors e_j ⊕ columns[j]: source position j below m = len(columns),
    row i of the target at m + i.

    A row keyed below m is 0 above m: these rows are the kernel basis,
    keyed by the free columns (``graph_kernel``).  The rest, read above m,
    are the reduced echelon of the image, each with below m the preimage
    that is 0 at every free column (``graph_reduce``).
    """
    m = len(columns)
    graph = [{j: field.one, **{m + i: v for i, v in col.items()}}
             for j, col in enumerate(columns)]
    return span_echelon(field, graph, m + rows)


def graph_kernel(g: dict, m: int) -> dict:
    """{free column: kernel vector} of a ``graph_span`` with m columns, in
    column order, each vector 1 at its free column and 0 at the others.
    A vector lists its free column (its last position) first, then the
    rest in order, as the map's RREF kernel did: a resolution's kernel
    generators take their terms in this order, so it fixes the term order
    of their differentials and of F's columns."""
    return {k: {k: g[k][k], **{j: g[k][j] for j in sorted(g[k])[:-1]}}
            for k in sorted(g) if k < m}


def graph_reduce(field: FieldSpec, g: dict, m: int, b: dict) -> dict:
    """0 ⊕ b, b a target vector placed above m, less its entry at each key
    k ≥ m of a ``graph_span`` g with m columns times row k.  The result is
    0 at each key; it is 0 above m iff b is in the image, and then it is
    −x ⊕ 0 for the one x with image b and 0 at every free column."""
    y = {m + i: v for i, v in b.items()}
    for k in [k for k in y if k in g]:
        vec_iadd(field, y, field.neg(y[k]), g[k])
    return y
