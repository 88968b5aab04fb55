"""Level certificates: upper-bound witnesses for thickening membership.

A certificate is a finite tree over a base complex C:
  Leaf     -- the subject is isomorphic (by exhibited mutually inverse
              chain maps) to a finite coproduct of shifts of C;
  Cone     -- the subject is the middle of a validated distinguished
              triangle whose ends are certified by the subtrees;
  Retract  -- the subject retracts onto the inner subtree's subject.

claimed_level(Leaf) = 1 (0 for the empty leaf), claimed_level(Cone) =
left + right, Retract preserves it.  Every certificate is checkable by
cert_validate; the engine never emits one it cannot validate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from dgkoszul.gradedcomplex import (
    Complex,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
    check_mutually_inverse,
    cone,
    direct_sum,
    homology,
    induced_map_on_homology,
    is_chain_map,
    shift_complex,
    solve_diagonal_chain_iso,
    TriangleRecord,
    validate_triangle,
)
from dgkoszul.dgstruct import ValidationReport
from dgkoszul.barcobar import restrict_complex
from dgkoszul.resolve import (
    SemifreeResolution,
    class_of,
    lemma1_report,  # noqa: F401  (re-exported: part of the level API)
    minimize,
    semifree_resolve,
)


@dataclass
class Leaf:
    subject: Complex
    shifts: list                  # subject ≅ ⊕ Σ^{k} base
    to_std: GradedMap | None      # subject -> canonical coproduct
    from_std: GradedMap | None
    name: str = "leaf"

    @property
    def claimed(self) -> int:
        return 1 if self.shifts else 0


@dataclass
class ConeNode:
    subject: Complex
    left: object
    right: object
    triangle: TriangleRecord
    name: str = "cone"

    @property
    def claimed(self) -> int:
        return self.left.claimed + self.right.claimed


@dataclass
class RetractNode:
    subject: Complex
    inner: object
    section: GradedMap            # subject -> inner.subject
    retraction: GradedMap         # inner.subject -> subject
    name: str = "retract"

    @property
    def claimed(self) -> int:
        return self.inner.claimed


@dataclass
class LevelCertificate:
    base: Complex
    subject: Complex
    tree: object
    comparison_note: str = ""

    @property
    def claimed_level(self) -> int:
        return self.tree.claimed


def canonical_coproduct(base: Complex, shifts, window=None) -> Complex:
    """⊕_i Σ^{k_i} base with labels "s{i}:...", truncated to the given
    window (the base's by default); the normal form every leaf witness
    targets."""
    if window is None:
        window = base.space.window
    if not shifts:
        f = base.field
        sp = GradedSpace(f, window, {}, bounds=(1, 0))
        return Complex(sp, GradedMap.zero(sp, sp, 1))
    parts = [restrict_complex(shift_complex(base, k), window)
             for k in shifts]
    total, _, _ = direct_sum(parts, [f"s{i}" for i in range(len(shifts))])
    return total


def leaf_identity(base: Complex, shifts, tags=None) -> Leaf:
    """Leaf whose subject *is* the canonical coproduct."""
    std = canonical_coproduct(base, shifts)
    ident = GradedMap.identity(std.space)
    return Leaf(std, list(shifts), ident, ident)


def empty_leaf(base: Complex) -> Leaf:
    return Leaf(canonical_coproduct(base, []), [], None, None)


def leaf_from_bijection(base: Complex, subject: Complex, shifts,
                        bijection: dict) -> Leaf:
    """Leaf whose witness is a signed relabelling onto the canonical
    coproduct; the signs are solved, not guessed."""
    std = canonical_coproduct(base, shifts, subject.space.window)
    to_std = solve_diagonal_chain_iso(subject, std, bijection)
    if to_std is None:
        raise StructureError("no diagonal iso onto the canonical coproduct")
    return Leaf(subject, list(shifts), to_std,
                _invert_diagonal(to_std, subject, std))


def cone_node_from_map(w: GradedMap, source: Complex, target: Complex,
                       left, right) -> ConeNode:
    """Cone node for cone(w) with the triangle's cone witness filled in;
    left must certify the target, right the suspension of the source."""
    cx, tri = cone(w, source, target)
    tri.base_map = w
    tri.base_source = source
    tri.cone_complex = cx
    ident = GradedMap.identity(cx.space)
    tri.to_cone = ident
    tri.from_cone = ident
    if not _complexes_equal(left.subject, tri.m1):
        raise StructureError("left subtree must certify the cone target")
    if not _complexes_equal(right.subject, tri.m2):
        raise StructureError("right subtree must certify the shifted "
                             "source")
    return ConeNode(cx, left, right, tri)


def _complexes_equal(a: Complex, b: Complex) -> bool:
    if a is b:
        return True
    if a.space.basis != b.space.basis:
        return False
    for n in a.space.degrees():
        for l in a.labels(n):
            if a.d(l) != b.d(l):
                return False
    return True


def cert_validate(c: LevelCertificate) -> ValidationReport:
    rep = ValidationReport(True)

    def visit(node, path):
        if isinstance(node, Leaf):
            if not node.shifts:
                if any(node.subject.space.dim(n)
                       for n in node.subject.space.degrees()):
                    rep.fail(f"{path}: empty leaf with nonzero subject")
                return
            std = canonical_coproduct(c.base, node.shifts,
                                      node.subject.space.window)
            try:
                check_mutually_inverse(node.to_std, node.from_std,
                                       node.subject, std)
            except StructureError as e:
                rep.fail(f"{path}: leaf witness fails: {e}")
        elif isinstance(node, ConeNode):
            t = node.triangle
            if not _complexes_equal(t.m, node.subject):
                rep.fail(f"{path}: triangle middle is not the subject")
                return
            try:
                _validate_triangle_strict(t)
            except StructureError as e:
                rep.fail(f"{path}: triangle fails: {e}")
                return
            if not _complexes_equal(node.left.subject, t.m1):
                rep.fail(f"{path}: left subtree subject mismatch")
            if not _complexes_equal(node.right.subject, t.m2):
                rep.fail(f"{path}: right subtree subject mismatch")
            visit(node.left, path + ".L")
            visit(node.right, path + ".R")
        elif isinstance(node, RetractNode):
            for nm, fmap, src, tgt in (
                ("section", node.section, node.subject, node.inner.subject),
                ("retraction", node.retraction, node.inner.subject,
                 node.subject),
            ):
                ok, witness = is_chain_map(fmap, src, tgt)
                if not ok:
                    rep.fail(f"{path}: {nm} not a chain map at {witness[:2]}")
                    return
            comp = node.retraction.compose(node.section)
            for n in node.subject.space.degrees():
                try:
                    mat = induced_map_on_homology(
                        comp, node.subject, node.subject, n)
                except WindowError:
                    continue
                h = homology(node.subject, n)
                f = node.subject.field
                for i in range(h.dimension):
                    if mat.column(i) != {i: f.one}:
                        rep.fail(f"{path}: retraction∘section ≠ id on "
                                 f"H^{n}")
                        return
            visit(node.inner, path + ".I")
        else:
            rep.fail(f"{path}: unknown node kind {type(node).__name__}")

    if not _complexes_equal(c.tree.subject, c.subject):
        rep.fail("root subject mismatch")
    visit(c.tree, "root")
    return rep


def _validate_triangle_strict(t: TriangleRecord):
    """``validate_triangle`` with the cone witness required and checked
    against a cone rebuilt from the base map rather than the stored cone
    complex."""
    if t.base_map is None or t.to_cone is None or t.from_cone is None:
        raise StructureError("missing cone witness")
    built, _ = cone(t.base_map, t.base_source, t.m1)
    validate_triangle(replace(t, cone_complex=built))


# -------------------------------------------------------------------------
# certificates from resolutions
# -------------------------------------------------------------------------

def _stage_complex(r: SemifreeResolution, which) -> Complex:
    """Sub- or quotient complex of the realized resolution spanned by the
    labels of generators selected by ``which`` (a stage predicate)."""
    cx, _ = r.realize()
    f = cx.field
    keep = {gl for gl, _, s in r.generators if which(s)}
    basis = {}
    for n in cx.space.degrees():
        ls = [l for l in cx.labels(n) if l.split("@", 1)[0] in keep]
        if ls:
            basis[n] = tuple(ls)
    sp = GradedSpace(f, cx.space.window, basis, bounds=cx.space.bounds)
    cols = {}
    for n in sp.degrees():
        for l in sp.labels(n):
            col = {t: v for t, v in cx.d(l).items() if t in sp}
            if col:
                cols[l] = col
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def _inclusion(sub: Complex, total: Complex) -> GradedMap:
    f = total.field
    cols = {l: {l: f.one} for n in sub.space.degrees()
            for l in sub.labels(n)}
    return GradedMap(sub.space, total.space, 0, cols)


def _projection(total: Complex, quot: Complex) -> GradedMap:
    f = total.field
    cols = {l: {l: f.one} for n in total.space.degrees()
            for l in total.labels(n) if l in quot.space}
    return GradedMap(total.space, quot.space, 0, cols)


def cert_from_resolution(r: SemifreeResolution) -> LevelCertificate:
    """Certificate with base A from the stage filtration of a minimal,
    exhausted resolution: stage quotients are leaves (coproducts of shifts
    of A), consecutive stages are cones."""
    if not r.is_minimal():
        raise StructureError("certificate needs a minimal resolution")
    cls, exhausted = class_of(r)
    if not exhausted:
        raise StructureError("resolution not exhausted; refusing to "
                             "certify a truncated class")
    a = r.over
    base = a.carrier
    f = a.field

    def quotient_leaf(stage):
        q = _stage_complex(r, lambda s: s == stage)
        gens = sorted((gl, d) for gl, d, s in r.generators if s == stage)
        shifts = [-d for _, d in gens]
        std = canonical_coproduct(base, shifts, q.space.window)
        bij = {}
        for i, (gl, _) in enumerate(gens):
            for n in a.space.degrees():
                for al in a.space.labels(n):
                    lbl = f"{gl}@{al}"
                    if lbl in q.space and f"s{i}:{al}" in std.space:
                        bij[lbl] = f"s{i}:{al}"
        if set(bij) != {l for n in q.space.degrees()
                        for l in q.labels(n)}:
            raise StructureError("stage quotient does not match the "
                                 "coproduct of shifts inside the window")
        to_std = solve_diagonal_chain_iso(q, std, bij)
        if to_std is None:
            raise StructureError("no diagonal iso from stage quotient to "
                                 "the canonical coproduct")
        from_std = _invert_diagonal(to_std, q, std)
        return Leaf(q, shifts, to_std, from_std)

    stages = sorted({s for _, _, s in r.generators})
    if not stages:
        return LevelCertificate(base, _stage_complex(r, lambda s: False),
                                empty_leaf(base))
    node = quotient_leaf(stages[0])
    prev = _stage_complex(r, lambda s: s <= stages[0])
    # identify F^{<=first} with its quotient leaf (equal complexes)
    if not _complexes_equal(prev, node.subject):
        raise StructureError("lowest filtration stage mismatch")
    for st in stages[1:]:
        total = _stage_complex(r, lambda s: s <= st)
        quot_leaf = quotient_leaf(st)
        q = quot_leaf.subject
        tri = _filtration_triangle(prev, total, q, f)
        node = ConeNode(total, node, quot_leaf, tri)
        prev = total
    cert = LevelCertificate(base, prev, node,
                            comparison_note="subject is the realized "
                            "semifree resolution, quasi-isomorphic to "
                            "the module")
    if cert.claimed_level != cls:
        raise StructureError("internal: certificate level disagrees with "
                             "resolution class")
    return cert


def _invert_diagonal(gm: GradedMap, src: Complex, tgt: Complex) -> GradedMap:
    f = tgt.field
    cols = {}
    for l, col in gm.cols.items():
        ((t, v),) = col.items()
        cols[t] = {l: f.inv(v)}
    return GradedMap(tgt.space, src.space, gm.shift, cols)


def _filtration_triangle(sub: Complex, total: Complex, quot: Complex,
                         f) -> TriangleRecord:
    """sub → total → quot with the cone witness: total ≅ cone(w) for
    w : Σ^{-1}quot → sub given by the connecting differential."""
    inc = _inclusion(sub, total)
    proj = _projection(total, quot)
    sq = shift_complex(quot, -1)
    wcols = {}
    for n in total.space.degrees():
        for l in total.labels(n):
            if l in quot.space:
                col = {t: v for t, v in total.d(l).items() if t in sub.space}
                if col:
                    wcols[l] = col
    w = GradedMap(sq.space, sub.space, 0, wcols)
    ok, witness = is_chain_map(w, sq, sub)
    if not ok:
        raise StructureError(f"connecting map not a chain map at "
                             f"{witness[:2]}")
    built, _ = cone(w, sq, sub)
    bij = {}
    for n in total.space.degrees():
        for l in total.labels(n):
            bij[l] = (f"c2:{l}" if l in sub.space else f"c1:{l}")
    to_cone = solve_diagonal_chain_iso(total, built, bij)
    if to_cone is None:
        raise StructureError("no diagonal iso onto the filtration cone")
    from_cone = _invert_diagonal(to_cone, total, built)
    ssub = shift_complex(sub, 1)
    hcols = {}
    for l, col in wcols.items():
        hcols[l] = col
    h = GradedMap(quot.space, ssub.space, 0, hcols)
    ok, _ = is_chain_map(h, quot, ssub)
    if not ok:
        minus = f.from_int(-1)
        hcols = {l: {t: f.mul(minus, v) for t, v in col.items()}
                 for l, col in hcols.items()}
        h = GradedMap(quot.space, ssub.space, 0, hcols)
    return TriangleRecord(sub, total, quot, inc, proj, h, ssub,
                          base_map=w, base_source=sq,
                          to_cone=to_cone, from_cone=from_cone,
                          cone_complex=built)


# -------------------------------------------------------------------------
# certificate algebra: shift, coproduct, composition, transport
# -------------------------------------------------------------------------

def _extract_bijection(gm: GradedMap) -> dict:
    bij = {}
    for l, col in gm.cols.items():
        if len(col) != 1:
            raise StructureError("witness is not diagonal; cannot "
                                 "transform it")
        bij[l] = next(iter(col))
    return bij


def _resolve_diagonal(old: GradedMap, src: Complex, tgt: Complex):
    gm = solve_diagonal_chain_iso(src, tgt, _extract_bijection(old))
    if gm is None:
        raise StructureError("diagonal witness did not survive the "
                             "transformation")
    return gm


def cert_shift(c: LevelCertificate, k: int) -> LevelCertificate:
    """Certificate for Σ^k subject over the same base."""

    def shift_node(node):
        if isinstance(node, Leaf):
            if not node.shifts:
                return Leaf(shift_complex(node.subject, k), [], None, None)
            subject = shift_complex(node.subject, k)
            std = canonical_coproduct(c.base, [s + k for s in node.shifts],
                                      subject.space.window)
            to_std = _resolve_diagonal(node.to_std, subject, std)
            return Leaf(subject, [s + k for s in node.shifts], to_std,
                        _invert_diagonal(to_std, subject, std))
        if isinstance(node, ConeNode):
            t = node.triangle
            m1 = shift_complex(t.m1, k)
            m = shift_complex(t.m, k)
            m2 = shift_complex(t.m2, k)
            sm1 = shift_complex(t.shifted_m1, k)
            sq = shift_complex(t.base_source, k)
            f2 = GradedMap(m1.space, m.space, t.f.shift, t.f.cols)
            g2 = GradedMap(m.space, m2.space, t.g.shift, t.g.cols)
            h2 = GradedMap(m2.space, sm1.space, t.h.shift, t.h.cols)
            w2 = GradedMap(sq.space, m1.space, t.base_map.shift,
                           t.base_map.cols)
            built, _ = cone(w2, sq, m1)
            to_cone = _resolve_diagonal(t.to_cone, m, built)
            tri = TriangleRecord(m1, m, m2, f2, g2, h2, sm1,
                                 base_map=w2, base_source=sq,
                                 to_cone=to_cone,
                                 from_cone=_invert_diagonal(to_cone, m,
                                                            built),
                                 cone_complex=built)
            return ConeNode(m, shift_node(node.left),
                            shift_node(node.right), tri)
        if isinstance(node, RetractNode):
            inner = shift_node(node.inner)
            subject = shift_complex(node.subject, k)
            s2 = GradedMap(subject.space, inner.subject.space,
                           node.section.shift, node.section.cols)
            r2 = GradedMap(inner.subject.space, subject.space,
                           node.retraction.shift, node.retraction.cols)
            return RetractNode(subject, inner, s2, r2)
        raise StructureError(f"unknown node {type(node).__name__}")

    tree = shift_node(c.tree)
    return LevelCertificate(c.base, tree.subject, tree, c.comparison_note)


def _retag_map(gm: GradedMap, src: Complex, tgt: Complex,
               relabel_src, relabel_tgt) -> GradedMap:
    cols = {}
    f = tgt.field
    for l, col in gm.cols.items():
        cols[relabel_src(l)] = {relabel_tgt(t): v for t, v in col.items()}
    return GradedMap(src.space, tgt.space, gm.shift, cols)


def cert_compose(c1: LevelCertificate,
                 c2: LevelCertificate) -> LevelCertificate:
    """Substitute c2's tree (a certificate for c1's base over c2's base)
    into every leaf of c1; the result certifies c1's subject over c2's
    base with claimed_level ≤ level(c1) · level(c2)."""
    if not _complexes_equal(c1.base, c2.subject):
        raise StructureError("c1's base is not c2's subject")

    def transform(node):
        if isinstance(node, Leaf):
            if not node.shifts:
                return Leaf(node.subject, [], None, None)
            if len(node.shifts) == 1:
                inner = cert_shift(
                    LevelCertificate(c2.base, c2.subject, c2.tree),
                    node.shifts[0]).tree
                # subject ≅ Σ^k base via the leaf witness; the canonical
                # coproduct has "s0:" prefixes to strip
                shifted = inner.subject

                def strip(l):
                    return l.split(":", 1)[1]

                section = _retag_map(node.to_std, node.subject, shifted,
                                     lambda l: l, strip)
                retraction = _retag_map(node.from_std, shifted,
                                        node.subject, strip, lambda l: l)
                return RetractNode(node.subject, inner, section, retraction)
            inners = [cert_shift(
                LevelCertificate(c2.base, c2.subject, c2.tree), s).tree
                for s in node.shifts]
            inner = tree_coproduct(inners,
                                   [f"s{i}" for i in range(len(inners))],
                                   c2.base)
            return RetractNode(node.subject, inner, node.to_std,
                               node.from_std)
        if isinstance(node, ConeNode):
            return ConeNode(node.subject, transform(node.left),
                            transform(node.right), node.triangle)
        if isinstance(node, RetractNode):
            return RetractNode(node.subject, transform(node.inner),
                               node.section, node.retraction)
        raise StructureError(f"unknown node {type(node).__name__}")

    tree = transform(c1.tree)
    out = LevelCertificate(c2.base, c1.subject, tree, c1.comparison_note)
    if out.claimed_level > c1.claimed_level * c2.claimed_level:
        raise StructureError("internal: composed level exceeds the "
                             "product bound")
    return out


def tree_coproduct(nodes, tags, base: Complex):
    """Coproduct of certificate trees over a common base.  Trees must have
    matching shapes (pad with trivial cones beforehand if needed)."""
    kinds = {type(n).__name__ for n in nodes}
    if kinds == {"Leaf"}:
        real = [(n, t) for n, t in zip(nodes, tags)]
        shifts = [s for n, _ in real for s in n.shifts]
        parts = [n.subject for n, _ in real]
        total, _, _ = direct_sum(parts, list(tags))
        std = canonical_coproduct(base, shifts, total.space.window)
        # block-diagonal witness with shifted copy indices
        cols = {}
        f = base.field
        offset = 0
        for n, t in real:
            if not n.shifts:
                continue
            for l, col in n.to_std.cols.items():
                newcol = {}
                for lab, v in col.items():
                    i, rest = lab.split(":", 1)
                    newcol[f"s{int(i[1:]) + offset}:{rest}"] = v
                cols[f"{t}:{l}"] = newcol
            offset += len(n.shifts)
        to_std = GradedMap(total.space, std.space, 0, cols)
        from_std = _invert_diagonal(to_std, total, std)
        try:
            check_mutually_inverse(to_std, from_std, total, std)
        except StructureError as e:
            raise StructureError(f"leaf coproduct witness failed: {e}")
        return Leaf(total, shifts, to_std, from_std)
    if kinds == {"ConeNode"}:
        left = tree_coproduct([n.left for n in nodes], tags, base)
        right = tree_coproduct([n.right for n in nodes], tags, base)
        tris = [n.triangle for n in nodes]
        m1, _, _ = direct_sum([t.m1 for t in tris], list(tags))
        m, _, _ = direct_sum([t.m for t in tris], list(tags))
        m2, _, _ = direct_sum([t.m2 for t in tris], list(tags))
        sm1, _, _ = direct_sum([t.shifted_m1 for t in tris], list(tags))
        sq, _, _ = direct_sum([t.base_source for t in tris], list(tags))

        def block(maps, src, tgt):
            cols = {}
            for tg, gm in zip(tags, maps):
                for l, col in gm.cols.items():
                    cols[f"{tg}:{l}"] = {f"{tg}:{t}": v
                                         for t, v in col.items()}
            return GradedMap(src.space, tgt.space, maps[0].shift, cols)

        f2 = block([t.f for t in tris], m1, m)
        g2 = block([t.g for t in tris], m, m2)
        h2 = block([t.h for t in tris], m2, sm1)
        w2 = block([t.base_map for t in tris], sq, m1)
        built, _ = cone(w2, sq, m1)
        bij = {}
        for tg, t in zip(tags, tris):
            for l, col in t.to_cone.cols.items():
                ((lab, _),) = col.items()
                kind, rest = lab.split(":", 1)
                bij[f"{tg}:{l}"] = f"{kind}:{tg}:{rest}"
        to_cone = solve_diagonal_chain_iso(m, built, bij)
        if to_cone is None:
            raise StructureError("cone coproduct witness failed")
        tri = TriangleRecord(m1, m, m2, f2, g2, h2, sm1,
                             base_map=w2, base_source=sq,
                             to_cone=to_cone,
                             from_cone=_invert_diagonal(to_cone, m, built),
                             cone_complex=built)
        return ConeNode(m, left, right, tri)
    raise StructureError(f"cannot form a coproduct of shapes {kinds}")


def cert_transport(functor, c: LevelCertificate) -> LevelCertificate:
    """Transport along an additive exact construction given as an object
    with on_complex(cx) and on_map(gm, src', tgt') methods; witnesses are
    re-solved in the target and the result validates there."""

    done: dict = {}

    def fc(cx):
        key = id(cx)
        if key not in done:
            done[key] = functor.on_complex(cx)
        return done[key]

    base2 = fc(c.base)

    def visit(node):
        if isinstance(node, Leaf):
            subject = fc(node.subject)
            if not node.shifts:
                return Leaf(subject, [], None, None)
            std = canonical_coproduct(base2, node.shifts,
                                      subject.space.window)
            to_std = _resolve_diagonal(
                functor.on_map(node.to_std, subject, std), subject, std)
            return Leaf(subject, list(node.shifts), to_std,
                        _invert_diagonal(to_std, subject, std))
        if isinstance(node, ConeNode):
            t = node.triangle
            m1, m, m2 = fc(t.m1), fc(t.m), fc(t.m2)
            sm1, sq = fc(t.shifted_m1), fc(t.base_source)
            f2 = functor.on_map(t.f, m1, m)
            g2 = functor.on_map(t.g, m, m2)
            h2 = functor.on_map(t.h, m2, sm1)
            w2 = functor.on_map(t.base_map, sq, m1)
            built, _ = cone(w2, sq, m1)
            to_cone = _resolve_diagonal(
                functor.on_map(t.to_cone, m, built), m, built)
            tri = TriangleRecord(m1, m, m2, f2, g2, h2, sm1,
                                 base_map=w2, base_source=sq,
                                 to_cone=to_cone,
                                 from_cone=_invert_diagonal(to_cone, m,
                                                            built),
                                 cone_complex=built)
            return ConeNode(m, visit(node.left), visit(node.right), tri)
        if isinstance(node, RetractNode):
            inner = visit(node.inner)
            subject = fc(node.subject)
            s2 = functor.on_map(node.section, subject, inner.subject)
            r2 = functor.on_map(node.retraction, inner.subject, subject)
            return RetractNode(subject, inner, s2, r2)
        raise StructureError(f"unknown node {type(node).__name__}")

    tree = visit(c.tree)
    return LevelCertificate(base2, tree.subject, tree,
                            c.comparison_note)


# -------------------------------------------------------------------------
# bounds
# -------------------------------------------------------------------------

def spherical_bound(m, a, depth=None):
    """Level ≤ 2 certificate when the derived fiber has dimension ≤ 2;
    None when the hypothesis fails."""
    r = minimize(semifree_resolve(m, a, depth))
    cls, exhausted = class_of(r)
    if not exhausted or len(r.generators) > 2:
        return None
    return cert_from_resolution(r)


def tower_bound(stage_certs, aux_dim=None):
    """Iterated composition along a tower; returns the end-to-end
    certificate and the arithmetic bounds 2^n (for all-level-≤2 stages)
    and dim·product."""
    if not stage_certs:
        raise StructureError("empty tower")
    composed = stage_certs[0]
    for nxt in stage_certs[1:]:
        composed = cert_compose(composed, nxt)
    product = 1
    for c in stage_certs:
        product *= max(c.claimed_level, 1)
    out = {"certificate": composed, "level_bound": product,
           "claimed_level": composed.claimed_level}
    if aux_dim is not None:
        out["dim_bound"] = product * aux_dim
    return out


# -------------------------------------------------------------------------
# serialization
# -------------------------------------------------------------------------

def cert_to_dict(c: LevelCertificate) -> dict:
    def node_dict(node):
        if isinstance(node, Leaf):
            return {"kind": "leaf", "shifts": list(node.shifts),
                    "level": node.claimed}
        if isinstance(node, ConeNode):
            return {"kind": "cone", "level": node.claimed,
                    "left": node_dict(node.left),
                    "right": node_dict(node.right)}
        if isinstance(node, RetractNode):
            return {"kind": "retract", "level": node.claimed,
                    "inner": node_dict(node.inner)}
        raise StructureError("unknown node")

    dims = {str(n): c.subject.space.dim(n)
            for n in c.subject.space.degrees()}
    return {"claimed_level": c.claimed_level,
            "subject_dims": dims,
            "tree": node_dict(c.tree)}
