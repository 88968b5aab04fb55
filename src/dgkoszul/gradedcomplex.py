"""Graded vector spaces with named bases, graded maps, cochain complexes
with degree +1 differential, homology, shifts, cones and quasi-isomorphism
verdicts, all scoped to a finite degree window.

Conventions: cohomological grading, d of degree +1, (ΣM)^n = M^{n+1}.
The global Koszul sign rule (moving degree a past degree b costs
(-1)^{ab}) governs every construction; d∘d = 0 checks are the arbiter.
"""

from __future__ import annotations

from dgkoszul.exactlinalg import (
    FieldSpec,
    check_entries,
    graph_kernel,
    graph_reduce,
    graph_span,
    rank,
    vec_iadd,
    vec_scale,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


class WindowError(ValueError):
    """A computation would need basis elements outside the enumerated window."""


class StructureError(ValueError):
    """A validated structural invariant failed."""


class DegreeWindow:
    """The degrees lo..hi: immutable, equal and hashed by its bounds."""

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise WindowError("window lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, _value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not DegreeWindow:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"DegreeWindow(lo={self.lo!r}, hi={self.hi!r})"

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def shifted(self, k: int) -> "DegreeWindow":
        return DegreeWindow(self.lo - k, self.hi - k)


def replace(record, **changes):
    """A new record of record's class, built by its constructor from the
    attributes named by its parameters, with changes in their place."""
    code = type(record).__init__.__code__
    return type(record)(**{**{a: getattr(record, a) for a in
                              code.co_varnames[1:code.co_argcount]},
                           **changes})


def koszul_sign(a: int, b: int) -> int:
    """Sign for moving a symbol of degree a past one of degree b."""
    return -1 if (a % 2) and (b % 2) else 1


class GradedSpace:
    """Degreewise-finite graded vector space with a named, ordered basis.

    ``bounds`` records the support of the *untruncated* object when known
    (so completeness of the enumeration can be reasoned about outside the
    window); infinities mean "unknown beyond the window".
    """

    def __init__(self, field: FieldSpec, window: DegreeWindow, basis: dict,
                 bounds: tuple = (NEG_INF, POS_INF)):
        self.field = field
        self.window = window
        self.basis = {n: tuple(labels) for n, labels in sorted(basis.items()) if labels}
        self.bounds = bounds
        self._deg: dict = {}
        self._index: dict = {}
        for n, labels in self.basis.items():
            if n not in window:
                raise StructureError(f"basis degree {n} outside window")
            for i, l in enumerate(labels):
                if l in self._deg:
                    raise StructureError(f"duplicate basis label {l!r}")
                self._deg[l] = n
                self._index[l] = i
        self._dims = {n: len(labels) for n, labels in self.basis.items()}
        if self._dims and (min(self._dims) < bounds[0]
                           or max(self._dims) > bounds[1]):
            raise StructureError("basis outside declared bounds")

    def labels(self, n: int):
        return self.basis.get(n, ())

    def dim(self, n: int) -> int:
        return self._dims.get(n, 0)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def degrees(self):
        return list(self._dims)

    def deg(self, label: str) -> int:
        return self._deg[label]

    def index(self, label: str) -> int:
        return self._index[label]

    def __contains__(self, label: str) -> bool:
        return label in self._deg

    def __iter__(self):
        """The basis labels in degree order, then in basis order."""
        return iter(self._deg)

    def complete_at(self, n: int) -> bool:
        """Whether the basis at degree n is fully known (enumerated or
        known to vanish)."""
        if n in self.window:
            return True
        blo, bhi = self.bounds
        return n < blo or n > bhi

    def homology_computable(self, n: int) -> bool:
        """Whether homology at degree n can be computed exactly: the bases
        at n-1, n and n+1 are all complete."""
        return (self.complete_at(n - 1) and self.complete_at(n)
                and self.complete_at(n + 1))

    def combo_degree(self, combo: dict):
        """Degree of a homogeneous combination, or None for 0."""
        degs = {self._deg[l] for l in combo}
        if not degs:
            return None
        if len(degs) > 1:
            raise StructureError(f"inhomogeneous combination: degrees {sorted(degs)}")
        return degs.pop()

    def to_coords(self, combo: dict, n: int) -> dict:
        out = {}
        for l, v in combo.items():
            if self._deg[l] != n:
                raise StructureError("combination not homogeneous of expected degree")
            out[self._index[l]] = v
        return out

    def from_coords(self, coords: dict, n: int) -> dict:
        labels = self.labels(n)
        return {labels[i]: v for i, v in coords.items() if not self.field.is_zero(v)}


class GradedMap:
    """Degreewise linear map of graded spaces, of a fixed degree shift.

    Stored columnwise: ``cols[label]`` is the image of a source basis
    element as a sparse combination of target basis labels.  Images whose
    degree falls outside the target window must be truncated by the caller
    (constructions do this explicitly and track completeness).
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int,
                 cols: dict):
        self.source = source
        self.target = target
        self.shift = shift
        self.cols = cols
        sdeg, tdeg = source._deg, target._deg
        for l, combo in cols.items():
            if l not in sdeg:
                raise StructureError(f"column label {l!r} not in source")
            n = sdeg[l] + shift
            for t, v in combo.items():
                if tdeg.get(t) != n:
                    raise StructureError(
                        f"map not homogeneous of shift {shift} at {l!r}"
                        if t in tdeg else f"image label {t!r} not in target")
                if not v:
                    raise StructureError(f"stored zero coefficient at {l!r}")

    @classmethod
    def zero(cls, source, target, shift):
        return cls(source, target, shift, {})

    def apply_label(self, label: str) -> dict:
        return self.cols.get(label, {})

    def apply(self, combo: dict) -> dict:
        f = self.target.field
        out: dict = {}
        for l, c in combo.items():
            vec_iadd(f, out, c, self.cols.get(l, {}))
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other."""
        cols = {}
        for l in other.cols:
            img = self.apply(other.cols[l])
            if img:
                cols[l] = img
        return GradedMap(other.source, self.target, self.shift + other.shift, cols)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.shift == other.shift
            and self.cols == other.cols
        )


class Complex:
    """Cochain complex: graded space plus degree +1 differential.  Its
    readers take d_n as ``columns(n)``, one column per basis element of
    degree n, each {position in degree n + 1: scalar}; a subclass with no
    ``differential`` here (``barcobar.WordComplex``) gives it on demand."""

    def __init__(self, space: GradedSpace, differential: GradedMap | None):
        if differential is not None:
            if differential.shift != 1:
                raise StructureError("differential must have shift +1")
            self.differential = differential
        self.space = space
        self._homology_cache: dict = {}
        self._graphs: dict = {}
        self._d_squared = None      # check_d_squared's report

    def columns(self, n: int) -> list:
        """d_n by positions, derived from the labelled map on each call
        (a ``WordComplex`` keeps its own); never changed in place."""
        d, index, zero = self.differential.cols, self.space._index, {}
        return [{index[t]: v for t, v in d[l].items()} if l in d else zero
                for l in self.space.labels(n)]

    @property
    def field(self):
        return self.space.field

    @property
    def window(self):
        return self.space.window

    def d(self, combo_or_label) -> dict:
        if isinstance(combo_or_label, str):
            return self.differential.apply_label(combo_or_label)
        return self.differential.apply(combo_or_label)

    def labels(self, n):
        return self.space.labels(n)

    def dim(self, n):
        return self.space.dim(n)


class DSquaredReport:
    def __init__(self, ok: bool, degree: int | None = None,
                 label: str | None = None):
        self.ok, self.degree, self.label = ok, degree, label

    def __bool__(self):
        return self.ok


def check_d_squared(c: Complex) -> DSquaredReport:
    """Verify d∘d = 0 on every basis element whose double image stays in
    the window; reports the first failure, once per complex.  d(d(l)) is
    summed from the position columns into a plain dict, reduced mod p
    only when tested."""
    if c._d_squared is not None:
        return c._d_squared
    p, cols = c.field.p, {}
    for n in c.space.degrees():
        nxt = cols[n + 1] = c.columns(n + 1)
        for j, col in enumerate(cols.pop(n, None) or c.columns(n)):
            acc: dict = {}
            get = acc.get
            for t, v in col.items():
                for s, x in nxt[t].items():
                    acc[s] = get(s, 0) + v * x
            for x in acc.values():
                if x % p if p else x:
                    c._d_squared = DSquaredReport(False, n,
                                                  c.space.labels(n)[j])
                    return c._d_squared
    c._d_squared = DSquaredReport(True)
    return c._d_squared


class HomologyData:
    def __init__(self, dimension: int, representatives: list,
                 _rep_columns: list):
        # the cycles, and their free columns of d_n
        self.dimension, self.representatives = dimension, representatives
        self._rep_columns = _rep_columns


def graph_echelon(c: Complex, n: int) -> dict:
    """``graph_span`` of d_n : Cⁿ → Cⁿ⁺¹ (Cⁿ below dim Cⁿ, Cⁿ⁺¹ above),
    once per complex: the kernel of d_n and the echelon of its image."""
    if n not in c._graphs:
        c._graphs[n] = graph_span(c.field, c.columns(n), c.dim(n + 1))
    return c._graphs[n]


def homology(c: Complex, n: int) -> HomologyData:
    """Exact homology at degree n with canonical representatives.

    Presumes d∘d = 0, as every caller ensures.  A nonzero cycle ends at a
    free column of d_n, so the boundary rows of d_{n−1}'s graph echelon
    are keyed by free columns, as d_n's kernel rows are; the free columns
    they miss give the representatives.  Each block is eliminated once.

    Refuses (WindowError) if the bases at n-1, n, n+1 are not fully known;
    no silent wrong answers at the window boundary.
    """
    if n in c._homology_cache:
        return c._homology_cache[n]
    for k in (n - 1, n, n + 1):
        if not c.space.complete_at(k):
            raise WindowError(
                f"homology at degree {n} needs complete basis at degree {k}, "
                f"outside window {c.window.lo}:{c.window.hi}")
    kernel = graph_kernel(graph_echelon(c, n), c.dim(n))
    below, off = graph_echelon(c, n - 1), c.dim(n - 1)
    cols = [k for k in kernel if off + k not in below]
    reps = [c.space.from_coords(kernel[k], n) for k in cols]
    c._homology_cache[n] = data = HomologyData(len(reps), reps, cols)
    return data


def homology_by_degree(c: Complex) -> dict:
    """{n: homology(c, n)} at every degree of the window where homology
    is computable, in increasing degree."""
    win = c.window
    return {n: homology(c, n) for n in range(win.lo, win.hi + 1)
            if c.space.homology_computable(n)}


def homology_dims(c: Complex) -> dict:
    """{n: dim H^n} where computable and nonzero: dim C^n − rank d_n −
    rank d_{n−1}, refused (StructureError) unless ``check_d_squared``
    passes.  Columns of d_n with distinct last positions are independent,
    so their number bounds rank d_n below; d∘d = 0 bounds it above by
    dim C^n − rank d_{n−1} and by dim C^{n+1} − rank d_{n+1}.  Only a block
    whose bounds differ is eliminated, by ``rank`` on its columns with
    target positions reversed; no block's columns are kept (bar of
    K[y]/(y^4), F_5, ±22, Python 3.11 on 2 cores: 0.030 s, 0.011 s of it
    for d_18, the one large such block, 0.015 s unreversed; 0.13 s with
    one ``rank`` per block)."""
    dsq = check_d_squared(c)
    if not dsq:
        raise StructureError(f"d^2 != 0 at degree {dsq.degree}, "
                             f"label {dsq.label!r}")
    sp, win, f, low = c.space, c.window, c.field, {}
    for n in range(win.lo - 1, win.hi + 1):
        cols = c.columns(n)
        check_entries(f, len(cols), sp.dim(n + 1), enumerate(cols))
        low[n] = len({max(col) for col in cols if col})
    ranks = dict(low)
    for n, r in low.items():
        if r < min(sp.dim(n) - low.get(n - 1, 0),
                   sp.dim(n + 1) - low.get(n + 1, 0)):
            top = sp.dim(n + 1) - 1
            ranks[n] = rank(f, [{top - t: v for t, v in col.items()}
                                for col in c.columns(n)], top + 1)
    dims = {n: sp.dim(n) - ranks[n] - ranks[n - 1]
            for n in range(win.lo, win.hi + 1) if sp.homology_computable(n)}
    return {n: d for n, d in dims.items() if d}


def homology_class(c: Complex, n: int, cycle: dict) -> dict | None:
    """Coordinates of a cycle in the canonical homology basis at degree n,
    or None if the element is not a cycle: its reduction's entries at the
    representatives' columns."""
    h = homology(c, n)
    if c.d(cycle):
        return None
    y, off = _reduced(c, n, cycle)
    return {i: y[off + k] for i, k in enumerate(h._rep_columns)
            if off + k in y}


def _reduced(c: Complex, n: int, x: dict) -> tuple:
    """(``graph_reduce`` of x in Cⁿ by d_{n−1}'s graph echelon, dim Cⁿ⁻¹)."""
    off = c.dim(n - 1)
    return graph_reduce(c.field, graph_echelon(c, n - 1), off,
                        c.space.to_coords(x, n)), off


def preimage(c: Complex, n: int, b: dict) -> dict | None:
    """The w in Cⁿ⁻¹ with d w = b and 0 at the free columns of d_{n−1}, or
    None if b is not a boundary; b's reduction leaves −w below dim Cⁿ⁻¹."""
    y, off = _reduced(c, n, b)
    if any(k >= off for k in y):
        return None
    return c.space.from_coords({k: c.field.neg(y[k]) for k in sorted(y)},
                               n - 1)


def shift_complex(c: Complex, k: int) -> Complex:
    """Σ^k: basis of degree n of the result is the basis of degree n+k of
    the input; differential scaled by (-1)^k."""
    if k == 0:
        return c
    space = GradedSpace(
        c.field,
        c.window.shifted(k),
        {n - k: labels for n, labels in c.space.basis.items()},
        bounds=(c.space.bounds[0] - k, c.space.bounds[1] - k),
    )
    sign = c.field.from_int(-1 if k % 2 else 1)
    cols = {l: vec_scale(c.field, sign, combo)
            for l, combo in c.differential.cols.items()}
    return Complex(space, GradedMap(space, space, 1, cols))


def restrict_complex(c: Complex, window: DegreeWindow) -> Complex:
    """The basis labels of c in ``window``, with the differential entries
    between them."""
    basis = {n: c.labels(n) for n in c.space.degrees() if n in window}
    sp = GradedSpace(c.field, window, basis, bounds=c.space.bounds)
    cols = {}
    for l in sp:
        col = {t: v for t, v in c.d(l).items() if t in sp}
        if col:
            cols[l] = col
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def relabel(prefix: str, combo: dict) -> dict:
    return {prefix + l: v for l, v in combo.items()}


def direct_sum(complexes: list, tags: list) -> Complex:
    """Direct sum with label disambiguation: label l of summand i becomes
    "{tags[i]}:l"."""
    if not complexes:
        raise ValueError("empty direct sum needs an ambient field/window")
    f = complexes[0].field
    lo = max(c.window.lo for c in complexes)
    hi = min(c.window.hi for c in complexes)
    # degrees where every summand is complete
    blo = min(c.space.bounds[0] for c in complexes)
    bhi = max(c.space.bounds[1] for c in complexes)
    basis: dict = {}
    for tag, c in zip(tags, complexes):
        for n, labels in c.space.basis.items():
            if lo <= n <= hi:
                basis.setdefault(n, []).extend(f"{tag}:{l}" for l in labels)
    space = GradedSpace(f, DegreeWindow(lo, hi), basis, bounds=(blo, bhi))
    cols = {}
    for tag, c in zip(tags, complexes):
        for l, combo in c.differential.cols.items():
            n = c.space.deg(l)
            if lo <= n <= hi - 1:
                cols[f"{tag}:{l}"] = relabel(f"{tag}:", combo)
    return Complex(space, GradedMap(space, space, 1, cols))


def is_chain_map(fmap: GradedMap, source: Complex, target: Complex):
    """Check that fmap sends each basis element of source^n into
    target^{n+shift} and commutes with the differentials; returns
    (ok, first failure) with the failure as (n, label, offending combo)."""
    f, tdeg = target.field, target.space._deg
    minus_sign = f.from_int(1 if fmap.shift % 2 else -1)
    for n in source.space.degrees():
        for l in source.labels(n):
            img = fmap.apply_label(l)
            for t in img:
                if tdeg.get(t) != n + fmap.shift:
                    return False, (n, l, {t: v for t, v in img.items()
                                          if tdeg.get(t) != n + fmap.shift})
            # d f(l) - (-1)^shift f(d l); target.d of a combination is new
            diff = vec_iadd(f, target.d(img), minus_sign,
                            fmap.apply(source.d(l)))
            if diff:
                return False, (n, l, diff)
    return True, None


def cone_space(source: Complex, target: Complex) -> GradedSpace:
    """Basis of the mapping cone of a map source → target: degree n holds
    c1:source^{n+1} and c2:target^n."""
    lo = max(source.window.lo - 1, target.window.lo)
    hi = min(source.window.hi - 1, target.window.hi)
    return GradedSpace(
        target.field, DegreeWindow(lo, hi),
        {n: [f"c1:{l}" for l in source.labels(n + 1)]
         + [f"c2:{l}" for l in target.labels(n)] for n in range(lo, hi + 1)},
        bounds=(min(source.space.bounds[0] - 1, target.space.bounds[0]),
                max(source.space.bounds[1] - 1, target.space.bounds[1])))


def cone(fmap: GradedMap, source: Complex, target: Complex) -> Complex:
    """Mapping cone of a chain map f : source → target, on ``cone_space``:
    d(c1:x) = -c1:dx + c2:f(x), d(c2:y) = c2:dy, and 0 at the top of the
    window.  Refused unless f is a chain map."""
    ok, witness = is_chain_map(fmap, source, target)
    if not ok:
        raise StructureError(
            f"cone of a non-chain-map; first failure {witness[:2]}")
    sp, f, cols = cone_space(source, target), target.field, {}
    for l in sp:
        if sp.deg(l) == sp.window.hi:
            continue
        x = l[3:]
        if l.startswith("c1:"):
            col = {"c1:" + t: f.neg(v) for t, v in source.d(x).items()}
            col.update(relabel("c2:", fmap.apply_label(x)))
        else:
            col = relabel("c2:", target.d(x))
        if col:
            cols[l] = col
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def induced_map_on_homology(fmap: GradedMap, source: Complex, target: Complex,
                            n: int) -> list:
    """The columns of H^n(f) in the canonical homology bases: the class
    of the image of each representative."""
    cols = [homology_class(target, n + fmap.shift, fmap.apply(rep))
            for rep in homology(source, n).representatives]
    if None in cols:
        raise StructureError("image of a cycle is not a cycle")
    return cols


def is_quasi_iso(fmap: GradedMap, source: Complex, target: Complex,
                 window: DegreeWindow | None = None) -> dict:
    """Per-degree verdicts: True/False where computable, the string
    'unverifiable at boundary' where neighbouring bases are missing."""
    ok, witness = is_chain_map(fmap, source, target)
    if not ok:
        raise StructureError(f"not a chain map; first failure {witness[:2]}")
    w = window or DegreeWindow(max(source.window.lo, target.window.lo),
                               min(source.window.hi, target.window.hi))
    verdicts = {}
    for n in range(w.lo, w.hi + 1):
        try:
            hs = homology(source, n)
            ht = homology(target, n + fmap.shift)
        except WindowError:
            verdicts[n] = "unverifiable at boundary"
            continue
        cols = induced_map_on_homology(fmap, source, target, n)
        verdicts[n] = (hs.dimension == ht.dimension and rank(
            target.field, cols, ht.dimension) == ht.dimension)
    return verdicts


def check_relabelling(phi: dict, a: Complex, b: Complex) -> None:
    """StructureError unless phi = {l: (t, c)}, l ↦ c·t, is a chain
    isomorphism from a onto b.

    phi must send each label of a, and nothing else, to a nonzero multiple
    of a label of b in the same degree, no two to one label, and a and b
    must have equal total dimension, hence equal dimension in each degree:
    phi is an invertible graded map.  For each l, b's d(t) must have as
    many terms as d(l), and c times its entry at t_s must be v·c_s for
    each term (s, v) of d(l): d·phi = phi·d, term by term, with nothing
    built when both are empty.  So the inverse is a chain map too, as
    phi⁻¹·d = phi⁻¹·d·phi·phi⁻¹ = d·phi⁻¹."""
    f, asp, bsp = a.field, a.space, b.space
    for l in asp:
        t, c = phi.get(l, (None, None))
        if t not in bsp or bsp.deg(t) != asp.deg(l) or f.is_zero(c):
            raise StructureError(f"witness at {l!r}: {phi.get(l)} is not a "
                                 f"nonzero multiple of a target label in "
                                 f"degree {asp.deg(l)}")
    if len({t for t, _ in phi.values()}) != len(phi):
        raise StructureError("witness sends two labels to one")
    if not len(phi) == asp.total_dim() == bsp.total_dim():
        raise StructureError("witness, subject and target differ in size")
    for l in asp:
        t, c = phi[l]
        dl, dt = a.d(l), b.d(t)
        if (dl or dt) and (len(dl) != len(dt) or any(
                (x := dt.get(phi[s][0])) is None
                or f.mul(c, x) != f.mul(v, phi[s][1]) for s, v in dl.items())):
            raise StructureError(f"witness is not a chain map at {l!r}")
