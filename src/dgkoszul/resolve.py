"""Semifree resolutions of DG modules, minimization by Gaussian
cancellation, the derived fiber, filtration class, and freeness of
homology over the homology algebra.

The resolution is built greedily degree by degree from the bounded end:
first free generators hitting unhit homology classes of the module, then
generators killing kernel classes of the comparison map.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from dgkoszul.exactlinalg import SparseMatrix, rref, solve, vec_addmul
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    check_d_squared,
    homology,
    induced_map_on_homology,
    is_chain_map,
    is_quasi_iso,
)
from dgkoszul.dgstruct import DGAlgebra, DGModule, merge_terms
from dgkoszul.barcobar import tensor_label


@dataclass
class SemifreeResolution:
    over: DGAlgebra
    module: DGModule
    # (label, degree, stage)
    generators: list
    # label -> list of (generator label, algebra label, coefficient)
    differential: dict
    # label -> combination in the module
    comparison: dict
    certified_through: int
    direction: int            # +1: built upward, -1: downward
    depth: int
    _realized: tuple = dc_field(default=None, repr=False)

    def gen_degree(self, label: str) -> int:
        for l, d, _ in self.generators:
            if l == label:
                return d
        raise KeyError(label)

    def stages(self) -> dict:
        return {l: s for l, _, s in self.generators}

    def is_minimal(self) -> bool:
        unit = self.over.unit
        return all(al != unit
                   for terms in self.differential.values()
                   for _, al, _ in terms)

    def realize(self):
        """The underlying K-complex of F and the comparison chain map."""
        if self._realized is not None:
            return self._realized
        a = self.over
        m = self.module
        f = a.field
        win = m.space.window
        basis: dict = {}
        degs: dict = {}
        for gl, gd, _ in self.generators:
            for n in a.space.degrees():
                k = gd + n
                if k in win:
                    for al in a.space.labels(n):
                        basis.setdefault(k, []).append(tensor_label(gl, al))
                        degs[tensor_label(gl, al)] = (gl, al)
        basis = {k: tuple(ls) for k, ls in sorted(basis.items())}
        sp = GradedSpace(f, win, basis)
        cols: dict = {}
        eps_cols: dict = {}
        for label, (gl, al) in degs.items():
            col: dict = {}
            for g2, b, c in self.differential.get(gl, []):
                for t, v in a.mult_pair(b, al).items():
                    tgt = tensor_label(g2, t)
                    if tgt in sp:
                        col = vec_addmul(f, col, f.mul(c, v), {tgt: f.one})
            gd = self.gen_degree(gl)
            sgn = f.from_int(-1 if gd % 2 else 1)
            for t, v in a.carrier.d(al).items():
                tgt = tensor_label(gl, t)
                if tgt in sp:
                    col = vec_addmul(f, col, f.mul(sgn, v), {tgt: f.one})
            if col:
                cols[label] = col
            img = m.act(self.comparison.get(gl, {}), {al: f.one})
            img = {t: v for t, v in img.items() if t in m.space}
            if img:
                eps_cols[label] = img
        cx = Complex(sp, GradedMap(sp, sp, 1, cols))
        eps = GradedMap(sp, m.space, 0, eps_cols)
        self._realized = (cx, eps)
        return self._realized


def _complement_indices(field, image_cols, dim):
    """Indices of standard basis vectors completing the span of
    image_cols to the full space of the given dimension."""
    cols = list(image_cols)
    k = len(cols)
    for i in range(dim):
        cols.append({i: field.one})
    mat = SparseMatrix.from_columns(cols, dim, field)
    res = rref(mat)
    return [p - k for p in res.pivots if p >= k]


def semifree_resolve(m: DGModule, a: DGAlgebra,
                     depth: int | None = None) -> SemifreeResolution:
    """Greedy semifree resolution of a right module, built from the
    bounded end through ``depth``."""
    if m.side != "right":
        raise StructureError("resolve right modules only")
    f = a.field
    direction = 1 if a.polarity == "non-negative" else -1
    blo, bhi = m.space.bounds
    if direction > 0:
        if blo == float("-inf"):
            raise StructureError("module not bounded below over a "
                                 "non-negative algebra")
        start = int(blo)
        depth = depth if depth is not None else m.space.window.hi - 2
    else:
        if bhi == float("inf"):
            raise StructureError("module not bounded above over a "
                                 "non-positive algebra")
        start = int(bhi)
        depth = depth if depth is not None else m.space.window.lo + 2
    r = SemifreeResolution(a, m, [], {}, {}, start - direction,
                           direction, depth)
    counter = 0
    degrees = range(start, depth + direction, direction)
    for n in degrees:
        for _round in range(50):
            cx, eps = r.realize()
            hf = homology(cx, n)
            hm = homology(m.carrier, n)
            added = False
            if hm.dimension:
                hmat = induced_map_on_homology(eps, cx, m.carrier, n)
                img = hmat.columns()
                for idx in _complement_indices(f, img, hm.dimension):
                    gl = f"e{counter}"
                    counter += 1
                    r.generators.append((gl, n, 0))
                    r.differential[gl] = []
                    r.comparison[gl] = dict(hm.representatives[idx])
                    added = True
            if added:
                r._realized = None
                continue
            if hf.dimension:
                hmat = induced_map_on_homology(eps, cx, m.carrier, n)
                res = rref(hmat)
                for kv in res.kernel_basis:
                    z: dict = {}
                    for i, c in kv.items():
                        z = vec_addmul(f, z, c, hf.representatives[i])
                    if not z:
                        continue
                    # solve d_M w = eps(z)
                    target = eps.apply(z)
                    w: dict = {}
                    if target:
                        lowdeg = n - 1
                        lows = m.space.labels(lowdeg)
                        dcols = [m.carrier.d(l) for l in lows]
                        highs = m.space.labels(n)
                        hidx = {l: i for i, l in enumerate(highs)}
                        dmat = SparseMatrix.from_columns(
                            [{hidx[t]: v for t, v in col.items()}
                             for col in dcols], len(highs), f)
                        rhs = {hidx[t]: v for t, v in target.items()}
                        sol = solve(dmat, rhs)
                        if sol is None:
                            raise StructureError(
                                "internal: kernel class image not a boundary")
                        for i, c in sol.items():
                            w = vec_addmul(f, w, c, {lows[i]: f.one})
                    gl = f"e{counter}"
                    counter += 1
                    terms = []
                    stage = 0
                    stages = r.stages()
                    for label, c in z.items():
                        g2, al = label.split("@", 1)
                        terms.append((g2, al, c))
                        stage = max(stage, stages[g2] + 1)
                    r.generators.append((gl, n - 1, stage))
                    r.differential[gl] = terms
                    r.comparison[gl] = w
                    added = True
            if not added:
                break
            r._realized = None
        else:
            raise StructureError(f"resolution did not stabilize at degree {n}")
    r.certified_through = depth - direction
    r._realized = None
    return r


def _substitute_out(field, a: DGAlgebra, expr, drop, h, h_expr, cap=200):
    """Rewrite a differential term list, dropping ``drop`` and replacing
    ``h`` (with algebra coefficient) by h_expr repeatedly."""
    terms = list(expr)
    for _ in range(cap):
        nxt = []
        again = False
        for g, al, c in terms:
            if g == drop:
                continue
            if g == h:
                again = True
                for g2, b, c2 in h_expr:
                    for t, v in a.mult_pair(b, al).items():
                        nxt.append((g2, t, field.mul(field.mul(c, c2), v)))
            else:
                nxt.append((g, al, c))
        terms = merge_terms(field, nxt)
        if not again:
            return terms
    raise StructureError("cancellation substitution did not terminate")


def minimize(r: SemifreeResolution) -> SemifreeResolution:
    """Cancel generator pairs (g, h) where d(g) carries an invertible
    scalar (unit algebra coefficient) on h; the result is minimal.  The
    updated comparison is verified to stay a chain map."""
    a = r.over
    f = a.field
    unit = a.unit
    gens = list(r.generators)
    diff = {l: merge_terms(f, terms) for l, terms in r.differential.items()}
    comp = {l: dict(c) for l, c in r.comparison.items()}
    while True:
        pair = None
        for gl, _, _ in gens:
            for g2, al, c in diff.get(gl, []):
                if al == unit:
                    pair = (gl, g2, c)
                    break
            if pair:
                break
        if pair is None:
            break
        g, h, lam = pair
        inv = f.inv(lam)
        minus_inv = f.mul(f.from_int(-1), inv)
        rest = [(g2, al, c) for g2, al, c in diff[g]
                if not (g2 == h and al == unit)]
        h_expr = [(g2, al, f.mul(minus_inv, c)) for g2, al, c in rest]
        h_expr = _substitute_out(f, a, h_expr, g, h, h_expr)
        new_gens = [t for t in gens if t[0] not in (g, h)]
        new_diff = {}
        new_comp = {}
        for gl, _, _ in new_gens:
            # coefficient of h with unit algebra part, used to correct
            # the comparison of the cancelled pair
            a_uh = {}
            for g2, al, c in diff.get(gl, []):
                if g2 == h:
                    a_uh = vec_addmul(f, a_uh, c, {al: f.one})
            new_diff[gl] = _substitute_out(f, a, diff.get(gl, []),
                                           g, h, h_expr)
            correction = r.module.act(comp.get(g, {}),
                                      {al: f.mul(inv, c)
                                       for al, c in a_uh.items()})
            cc = dict(comp.get(gl, {}))
            for t, v in correction.items():
                s = f.sub(cc.get(t, f.zero), v)
                if f.is_zero(s):
                    cc.pop(t, None)
                else:
                    cc[t] = s
            new_comp[gl] = cc
        gens, diff, comp = new_gens, new_diff, new_comp
    # recompute stages from the cancelled differential
    stage: dict = {}

    def stage_of(gl, seen=()):
        if gl in stage:
            return stage[gl]
        if gl in seen:
            raise StructureError("cyclic differential after cancellation")
        terms = diff.get(gl, [])
        s = 0 if not terms else 1 + max(
            stage_of(g2, seen + (gl,)) for g2, _, _ in terms)
        stage[gl] = s
        return s

    gens = [(gl, d, stage_of(gl)) for gl, d, _ in gens]
    out = SemifreeResolution(a, r.module, gens, diff, comp,
                             r.certified_through, r.direction, r.depth)
    cx, eps = out.realize()
    bad = check_d_squared(cx)
    if not bad:
        raise StructureError(f"internal: d^2 broke during minimization "
                             f"at {bad.label!r}")
    ok, witness = is_chain_map(eps, cx, r.module.carrier)
    if not ok:
        raise StructureError(f"internal: comparison broke during "
                             f"minimization at {witness[:2]}")
    return out


@dataclass
class DerivedFiber:
    complex: Complex
    dimensions: dict
    exhausted: bool
    depth: int


def _probe_band(r: SemifreeResolution):
    """Degrees near the deep end; a generator landing here means the
    resolution may continue past the depth cut."""
    if r.direction > 0:
        return (r.depth - 2, r.depth)
    return (r.depth, r.depth + 2)


def class_of(r: SemifreeResolution):
    """(stage count, exhausted flag) of a minimal resolution."""
    if not r.is_minimal():
        raise StructureError("class_of needs a minimal resolution")
    stages = {s for _, _, s in r.generators}
    band = _probe_band(r)
    exhausted = not any(band[0] <= d <= band[1] for _, d, _ in r.generators)
    return (len(stages), exhausted)


def derived_fiber(r: SemifreeResolution) -> DerivedFiber:
    """F ⊗_A K for a minimal resolution F: zero differential, dimensions =
    minimal generator counts per degree."""
    f = r.over.field
    dims: dict = {}
    basis: dict = {}
    for gl, d, _ in r.generators:
        dims[d] = dims.get(d, 0) + 1
        basis.setdefault(d, []).append(f"k:{gl}")
    win = r.module.space.window
    basis = {d: tuple(sorted(ls)) for d, ls in sorted(basis.items())
             if d in win}
    if basis:
        lo, hi = min(basis), max(basis)
    else:
        lo, hi = 0, 0
    sp = GradedSpace(f, win, basis,
                     bounds=(lo, hi) if basis else (0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    _, exhausted = class_of(r)
    return DerivedFiber(cx, dict(sorted(dims.items())), exhausted, r.depth)


def lemma1_report(m: DGModule, a: DGAlgebra, depth: int | None = None):
    """dim H(M⊗^L K), class, and the consistency verdict dim >= class."""
    r = minimize(semifree_resolve(m, a, depth))
    cls, exhausted = class_of(r)
    dim = len(r.generators)
    if exhausted and dim < cls:
        raise StructureError(
            f"internal: derived-fiber dimension {dim} below class {cls}")
    return {"fiber_dim": dim, "class": cls, "exhausted": exhausted,
            "ok": dim >= cls}


def _homology_algebra(cx: Complex) -> dict:
    """Homology of the carrier of a DG algebra or module at every degree
    of its window where it is computable."""
    win = cx.space.window
    data = {}
    for n in range(win.lo, win.hi + 1):
        if not cx.space.homology_computable(n):
            continue
        data[n] = homology(cx, n)
    return data


def is_free_over_homology(m: DGModule, a: DGAlgebra) -> dict:
    """Tor_1^{H(A)}(H(M), K) via the algebraic bar complex
    H(M)⊗Ā⊗Ā → H(M)⊗Ā → H(M); free iff Tor_1 vanishes in window."""
    from dgkoszul.gradedcomplex import homology_class
    f = a.field
    ha = _homology_algebra(a.carrier)
    hm = _homology_algebra(m.carrier)
    # homology classes as (degree, index); the bar of H(A) uses only the
    # augmentation ideal part (degrees != 0)
    abar = [(n, i) for n, h in ha.items() if n != 0
            for i in range(h.dimension)]

    def aprod(x, y):
        """Class of rep(x)·rep(y) in H(A), as a coefficient dict, or None
        when out of window."""
        nx, ix = x
        ny, iy = y
        n = nx + ny
        if n not in ha:
            return None
        prod = a.multiply(ha[nx].representatives[ix],
                          ha[ny].representatives[iy])
        coeffs = homology_class(a.carrier, n, prod)
        return {(n, j): c for j, c in coeffs.items()}

    def maction(mm, x):
        nm, im = mm
        nx, ix = x
        n = nm + nx
        if n not in hm:
            return None
        img = m.act(hm[nm].representatives[im], ha[nx].representatives[ix])
        coeffs = homology_class(m.carrier, n, img)
        return {(n, j): c for j, c in coeffs.items()}

    mcls = [(n, i) for n, h in hm.items() for i in range(h.dimension)]
    tor1 = {}
    flagged = []
    # organize by total degree
    b1_dom = [(mm, x) for mm in mcls for x in abar]
    b2_dom = [(mm, x, y) for mm in mcls for x in abar for y in abar]
    degrees = sorted({mm[0] + x[0] for mm, x in b1_dom})
    for t in degrees:
        d1 = [(mm, x) for mm, x in b1_dom if mm[0] + x[0] == t]
        d2 = [(mm, x, y) for mm, x, y in b2_dom
              if mm[0] + x[0] + y[0] == t]
        idx1 = {k: i for i, k in enumerate(d1)}
        # b1: m⊗a -> m·a in H(M) coordinates
        mrows = [(n, i) for n, h in hm.items() for i in range(h.dimension)
                 if n == t]
        ridx = {k: i for i, k in enumerate(mrows)}
        cols1 = []
        incomplete = False
        for mm, x in d1:
            act = maction(mm, x)
            if act is None:
                incomplete = True
                break
            cols1.append({ridx[k]: c for k, c in act.items()})
        if incomplete:
            flagged.append(t)
            continue
        mat1 = SparseMatrix.from_columns(cols1, len(mrows), f)
        k1 = rref(mat1).kernel_basis
        cols2 = []
        for mm, x, y in d2:
            col: dict = {}
            act = maction(mm, x)
            pr = aprod(x, y)
            if act is None or pr is None:
                incomplete = True
                break
            for k, c in act.items():
                key = (k, y)
                if key in idx1:
                    col[idx1[key]] = f.add(col.get(idx1[key], f.zero), c)
            for k, c in pr.items():
                key = (mm, k)
                if key in idx1:
                    s = f.sub(col.get(idx1[key], f.zero), c)
                    col[idx1[key]] = s
            cols2.append({i: c for i, c in col.items() if not f.is_zero(c)})
        if incomplete:
            flagged.append(t)
            continue
        # im(b2) ⊆ ker(b1), so Tor_1 at t = dim ker(b1) - rank(b2)
        mat2 = SparseMatrix.from_columns([c for c in cols2 if c],
                                         len(d1), f)
        tor1[t] = len(k1) - rref(mat2).rank
    free = all(v == 0 for v in tor1.values())
    return {"free": free, "tor1": tor1, "window_exhausted_at": flagged}
