"""Level certificates: upper-bound witnesses for thickening membership.

A certificate is a finite tree over a base complex C:
  Leaf       -- the subject is isomorphic to a finite coproduct of
                shifts of C;
  Filtration -- d never raises a label's stage, and one part per stage
                certifies its stage quotient, so each F^{≤s} is the cone
                of the connecting map out of the stage-s quotient; a cone
                is the two-stage case;
  Retract    -- the subject retracts onto the inner subtree's subject.
A leaf's isomorphism is one witness, a signed relabelling {label: (target
label, nonzero coefficient)} of the subject's basis; a retract carries
its section and retraction as chain maps.  A leaf claims level 1 (0 when
empty), a filtration the sum of its parts', and a retract its inner
tree's.  cert_validate checks each witness once: each relabelling against
the rebuilt coproduct (check_relabelling), retractions on homology, and a
filtration in one pass over F (stages, quotients, d²).  The builders
check nothing, apart from cone()'s chain-map check and
leaf_from_bijection's check of its coefficient-one relabelling;
cert_shift and tree_coproduct carry each witness over unchanged, so
cert_compose solves and checks nothing either.  No builder solves for a
sign: a wrong one is refused, never repaired.
"""

from __future__ import annotations

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
    induced_map_on_homology,
    is_chain_map,
    replace,
    restrict_complex,
    shift_complex,
)
from dgkoszul.dgstruct import ValidationReport
from dgkoszul.resolve import (
    SemifreeResolution,
    class_of,
    is_free_over_homology,
    level_lower_bound,
)


class Leaf:
    """subject ≅ ⊕_i Σ^{shifts[i]} base, witnessed by a relabelling of
    the subject onto canonical_coproduct(base, shifts, subject window):
    {label: (target label, coefficient)}."""

    def __init__(self, subject: Complex, shifts: list, witness: dict | None):
        self.subject, self.shifts, self.witness = subject, shifts, witness

    @property
    def claimed(self) -> int:
        return 1 if self.shifts else 0


class FiltrationNode:
    """stage_of = {label: index into parts}; parts[s] certifies the
    stage-s quotient: the stage's labels, with d's terms inside it."""

    def __init__(self, subject: Complex, stage_of: dict, parts: list):
        self.subject, self.stage_of, self.parts = subject, stage_of, parts

    @property
    def claimed(self) -> int:
        return sum(p.claimed for p in self.parts)


class RetractNode:
    """subject a retract of inner.subject: section maps subject to
    inner.subject, and retraction back."""

    def __init__(self, subject: Complex, inner, section: GradedMap,
                 retraction: GradedMap):
        self.subject, self.inner = subject, inner
        self.section, self.retraction = section, retraction

    @property
    def claimed(self) -> int:
        return self.inner.claimed


class LevelCertificate:
    def __init__(self, base: Complex, subject: Complex, tree):
        self.base, self.subject, self.tree = base, subject, tree

    @property
    def claimed_level(self) -> int:
        return self.tree.claimed


def canonical_coproduct(base: Complex, shifts, window=None) -> Complex:
    """⊕_i Σ^{k_i} base with labels "s{i}:...", truncated to the given
    window (the base's by default); the normal form every leaf witness
    targets."""
    window = window or base.space.window
    basis: dict = {}
    for i, k in enumerate(shifts):
        for n, labels in base.space.basis.items():
            if n - k in window:
                basis.setdefault(n - k, []).extend(f"s{i}:{l}" for l in labels)
    lo, hi = base.space.bounds
    sp = GradedSpace(base.field, window, basis,
                     bounds=(min((lo - k for k in shifts), default=1),
                             max((hi - k for k in shifts), default=0)))
    f = base.field
    cols = {}
    for i, k in enumerate(shifts):
        sign = f.from_int(-1 if k % 2 else 1)
        for l, col in base.differential.cols.items():
            img = {f"s{i}:{t}": f.mul(sign, v) for t, v in col.items()
                   if f"s{i}:{t}" in sp}
            if img and f"s{i}:{l}" in sp:
                cols[f"s{i}:{l}"] = img
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def leaf_from_bijection(base: Complex, subject: Complex, shifts,
                        bijection: dict) -> Leaf:
    """Leaf whose witness relabels the subject onto the canonical
    coproduct along bijection, each coefficient one; StructureError
    unless that relabelling is a chain isomorphism.  A wrong sign is
    refused, never repaired."""
    std = canonical_coproduct(base, shifts, subject.space.window)
    phi = {l: (t, base.field.one) for l, t in bijection.items()}
    check_relabelling(phi, subject, std)
    return Leaf(subject, list(shifts), phi)


def cone_node_from_map(w: GradedMap, source: Complex, target: Complex,
                       left, right) -> FiltrationNode:
    """cone(w) as the two-stage filtration with sub the target (stage 0,
    its c2: labels) and quotient the suspended source (stage 1, c1:); left
    must certify the target, right the suspension of the source.  Each is
    cut to the cone's window, which is the intersection of theirs."""
    if not _complexes_equal(left.subject, target):
        raise StructureError("left subtree must certify the cone target")
    if not _complexes_equal(right.subject, shift_complex(source, 1)):
        raise StructureError("right subtree must certify the shifted "
                             "source")
    cx = cone(w, source, target)
    return FiltrationNode(cx, {l: int(l[:3] == "c1:") for l in cx.space}, [
        tree_coproduct([_restricted(node, cx.window)], [tag])
        for node, tag in ((left, "c2"), (right, "c1"))])


def _restricted(node, window: DegreeWindow):
    """node cut to the part of its subject's window inside window: a
    leaf's witness and a filtration's stages kept on the labels that
    remain, and a filtration's parts cut alike."""
    own = node.subject.window
    lo, hi = max(own.lo, window.lo), min(own.hi, window.hi)
    if (lo, hi) == (own.lo, own.hi):
        return node
    if lo > hi:
        raise StructureError(f"window [{window.lo}, {window.hi}] misses the "
                             f"subject's window [{own.lo}, {own.hi}]")
    subject = restrict_complex(node.subject, DegreeWindow(lo, hi))
    if isinstance(node, Leaf):
        return replace(node, subject=subject, witness=node.witness and {
            l: t for l, t in node.witness.items() if l in subject.space})
    if isinstance(node, FiltrationNode):
        return FiltrationNode(subject, {
            l: s for l, s in node.stage_of.items() if l in subject.space},
            [_restricted(p, window) for p in node.parts])
    raise StructureError(f"cannot cut a {type(node).__name__} to a window")


def _complexes_equal(a: Complex, b: Complex) -> bool:
    return a is b or (a.space.basis == b.space.basis
                      and all(a.d(l) == b.d(l) for l in a.space))


def _filtration_fault(node: FiltrationNode) -> str | None:
    """The first way the stages fail to filter the subject F, or None: in
    one pass over F, each label has a stage, d never raises it, and each
    part's subject has exactly its stage's labels, degrees and in-stage
    columns on F's window; then d² = 0 on F."""
    sp, cols, of = node.subject.space, node.subject.differential.cols, \
        node.stage_of
    qs = [(p.subject.space, p.subject.differential.cols) for p in node.parts]
    stages, seen = range(len(qs)), [0] * len(qs)
    for l in sp:
        if (s := of.get(l)) not in stages:
            return f"label {l!r} has stage {s!r}, not one of {list(stages)}"
        (q, qcols), n, inside = qs[s], sp.deg(l), {}
        if l not in q or q.deg(l) != n:
            return f"stage {s}: quotient lacks {l!r} in degree {n}"
        for t, v in cols.get(l, {}).items():
            if (st := of.get(t)) not in stages or st > s:
                return f"stage {s}: d({l!r}) has a term at {t!r} in stage {st}"
            if st == s:
                inside[t] = v
        if qcols.get(l, {}) != inside:
            return f"stage {s}: quotient's d differs from F's at {l!r}"
        seen[s] += 1
    for s, (q, _) in enumerate(qs):
        if q.total_dim() != seen[s]:
            extra = next(l for l in q if l not in sp or of[l] != s)
            return f"stage {s}: quotient has {extra!r} outside the stage"
        if q.window != sp.window:
            return f"stage {s}: quotient window {q.window} is not F's"
    bad = check_d_squared(node.subject)
    return None if bad else f"stage {of[bad.label]}: d∘d ≠ 0 at {bad.label!r}"


def cert_validate(c: LevelCertificate) -> ValidationReport:
    """Every violation of c, each under its node's path: a filtration is
    checked in one pass over F (_filtration_fault), then its parts."""
    rep = ValidationReport(True)

    def visit(node, path):
        if isinstance(node, Leaf):
            if not node.shifts:
                if any(node.subject.space.dim(n)
                       for n in node.subject.space.degrees()):
                    rep.fail(f"{path}: empty leaf with nonzero subject")
                return
            try:
                if node.witness is None:
                    raise StructureError("missing witness")
                std = canonical_coproduct(c.base, node.shifts,
                                          node.subject.space.window)
                check_relabelling(node.witness, node.subject, std)
            except StructureError as e:
                rep.fail(f"{path}: leaf witness fails: {e}")
        elif isinstance(node, FiltrationNode):
            if fault := _filtration_fault(node):
                rep.fail(f"{path}: {fault}")
                return
            for s, part in enumerate(node.parts):
                visit(part, f"{path}.stage{s}")
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
                    cols = induced_map_on_homology(
                        comp, node.subject, node.subject, n)
                except WindowError:
                    continue
                one = node.subject.field.one
                if cols != [{i: one} for i in range(len(cols))]:
                    rep.fail(f"{path}: retraction∘section ≠ id on H^{n}")
                    return
            visit(node.inner, path + ".I")
        else:
            rep.fail(f"{path}: unknown node kind {type(node).__name__}")

    if not _complexes_equal(c.tree.subject, c.subject):
        rep.fail("root subject mismatch")
    visit(c.tree, "root")
    return rep


# -------------------------------------------------------------------------
# certificates from resolutions
# -------------------------------------------------------------------------

def cert_from_resolution(r: SemifreeResolution) -> LevelCertificate:
    """Certificate with base A for a minimal, exhausted resolution F: a
    filtration node on F's stages, from one pass over F, with a leaf on
    each stage quotient.  d(e⊗a) is (-1)^{|e|}e⊗da, as in Σ^{-|e|}A, plus
    terms of lower stages, so each leaf witness has coefficient one.
    Nothing is checked here: callers validate with cert_validate."""
    if not class_of(r)[1]:
        raise StructureError("resolution not exhausted; refusing to "
                             "certify a truncated class")
    base, one, fx = r.module.over.carrier, r.module.over.field.one, r.fx
    stages = sorted({s for _, _, s in r.generators})
    gens = [[(gl, d) for gl, d, s in sorted(r.generators) if s == st]
            for st in stages]
    slot = {gl: (s, f"s{i}:") for s, mine in enumerate(gens)
            for i, (gl, _) in enumerate(mine)}
    of = {l: slot[l.split("@", 1)[0]][0] for l in fx.space}
    # one pass over F: each stage's basis and the part of d inside it
    bases, dcols = [{} for _ in stages], [{} for _ in stages]
    for l, s in of.items():
        bases[s].setdefault(fx.space.deg(l), []).append(l)
        if col := {t: v for t, v in fx.d(l).items() if of[t] == s}:
            dcols[s][l] = col
    parts = []
    for basis, cols, mine in zip(bases, dcols, gens):
        sp = GradedSpace(base.field, fx.window, basis, bounds=fx.space.bounds)
        parts.append(Leaf(Complex(sp, GradedMap(sp, sp, 1, cols)),
                          [-d for _, d in mine],
                          {l: (slot[g][1] + al, one) for l in sp
                           for g, al in [l.split("@", 1)]}))
    return LevelCertificate(base, fx, FiltrationNode(fx, of, parts))


# -------------------------------------------------------------------------
# certificate algebra: shift, coproduct, composition
# -------------------------------------------------------------------------

def cert_shift(c: LevelCertificate, k: int) -> LevelCertificate:
    """Certificate for Σ^k subject over the same base, label for label:
    Σ^k of the coproduct of shifts s_i is the coproduct of shifts s_i + k,
    and Σ^k of a filtration is filtered by the same stages.  So every
    witness, section and retraction is carried over unchanged, and leaf
    shifts move by k.  Nothing is solved or checked."""

    def visit(node):
        subject = shift_complex(node.subject, k)
        if isinstance(node, Leaf):
            return replace(node, subject=subject,
                           shifts=[s + k for s in node.shifts])
        if isinstance(node, FiltrationNode):
            return replace(node, subject=subject,
                           parts=[visit(p) for p in node.parts])
        if isinstance(node, RetractNode):
            inner = visit(node.inner)
            a, b = subject.space, inner.subject.space
            return replace(node, subject=subject, inner=inner,
                           section=GradedMap(a, b, 0, node.section.cols),
                           retraction=GradedMap(b, a, 0, node.retraction.cols))
        raise StructureError(f"unknown node {type(node).__name__}")

    tree = visit(c.tree)
    return LevelCertificate(c.base, tree.subject, tree)


def _witness_maps(phi: dict, subject: Complex, target: Complex,
                  tag=lambda t: t) -> tuple:
    """A relabelling witness subject → target, each target label passed
    through tag, as a chain map and its inverse."""
    f = subject.field
    return (GradedMap(subject.space, target.space, 0,
                      {l: {tag(t): c} for l, (t, c) in phi.items()}),
            GradedMap(target.space, subject.space, 0,
                      {tag(t): {l: f.inv(c)} for l, (t, c) in phi.items()}))


def cert_compose(c1: LevelCertificate,
                 c2: LevelCertificate) -> LevelCertificate:
    """Substitute c2's tree (a certificate for c1's base over c2's base)
    into every leaf of c1: Σ^k of it for each shift k, summed over the
    copies and cut to the leaf's window; the result certifies c1's
    subject over c2's base with claimed_level ≤ level(c1) · level(c2)."""
    if not _complexes_equal(c1.base, c2.subject):
        raise StructureError("c1's base is not c2's subject")

    def transform(node):
        if isinstance(node, Leaf):
            if not node.shifts:
                return node
            win = node.subject.space.window
            if len(node.shifts) == 1:
                # subject ≅ Σ^k base via the leaf witness; the canonical
                # coproduct has "s0:" prefixes to strip
                inner = _restricted(cert_shift(c2, node.shifts[0]).tree, win)
                return RetractNode(node.subject, inner, *_witness_maps(
                    node.witness, node.subject, inner.subject,
                    lambda t: t.split(":", 1)[1]))
            # summed before the cut, so that unequal shifts are refused
            inner = _restricted(tree_coproduct(
                [cert_shift(c2, s).tree for s in node.shifts],
                [f"s{i}" for i in range(len(node.shifts))]), win)
            return RetractNode(node.subject, inner, *_witness_maps(
                node.witness, node.subject, inner.subject))
        if isinstance(node, FiltrationNode):
            return replace(node, parts=[transform(p) for p in node.parts])
        if isinstance(node, RetractNode):
            return replace(node, inner=transform(node.inner))
        raise StructureError(f"unknown node {type(node).__name__}")

    tree = transform(c1.tree)
    out = LevelCertificate(c2.base, c1.subject, tree)
    if out.claimed_level > c1.claimed_level * c2.claimed_level:
        raise RuntimeError("internal: composed level exceeds the "
                           "product bound")
    return out


def tree_coproduct(nodes, tags):
    """Coproduct of certificate trees over a common base: all leaves, or
    all filtrations with as many stages, summed stage by stage; label l of
    tree i becomes "{tags[i]}:l".  A direct sum changes no sign, so each
    witness keeps its coefficients and only its target labels are
    retagged."""
    kinds = {type(n).__name__ for n in nodes}
    # the direct sum keeps only the intersection of the subjects' windows,
    # so copies shifted unequally would lose the labels the witnesses name
    wins = [n.subject.space.window for n in nodes]
    lo, hi = max(w.lo for w in wins), min(w.hi for w in wins)
    if any(not lo <= d <= hi for n in nodes for d in n.subject.space.degrees()):
        raise StructureError(
            f"coproduct of trees with unequal shifts "
            f"{[wins[0].lo - w.lo for w in wins]} (relative to the first): "
            f"their direct sum keeps only degrees [{lo}, {hi}] of the "
            f"subject windows {[[w.lo, w.hi] for w in wins]}")
    subject = direct_sum([n.subject for n in nodes], list(tags))
    witness = {}
    if kinds == {"Leaf"}:
        # copy i of node n becomes copy offset + i of the coproduct
        offset = 0
        for n, tg in zip(nodes, tags):
            for l, (lab, c) in n.witness.items():
                i, rest = lab.split(":", 1)
                witness[f"{tg}:{l}"] = (f"s{int(i[1:]) + offset}:{rest}", c)
            offset += len(n.shifts)
        return Leaf(subject, [s for n in nodes for s in n.shifts], witness)
    if kinds == {"FiltrationNode"}:
        stage_of = {f"{tg}:{l}": s for n, tg in zip(nodes, tags)
                    for l, s in n.stage_of.items()}
        return FiltrationNode(subject, stage_of, [
            tree_coproduct(list(ps), tags)
            for ps in zip(*(n.parts for n in nodes), strict=True)])
    raise StructureError(f"cannot form a coproduct of shapes {kinds}")


# -------------------------------------------------------------------------
# bounds
# -------------------------------------------------------------------------

class LevelInterval:
    """Side (a) of the level duality: the class and exhaustion of a minimal
    resolution; the lower bound from the class and the freeness of H(M)
    over H(A), which is 2 only when a decided degree shows H(M) not free
    (never on a degree the window could not compute); and, when
    exhausted, the certificate and whether it validates."""

    def __init__(self, cls: int, exhausted: bool, lower: int,
                 certificate: LevelCertificate | None = None,
                 valid: bool | None = None):
        self.cls, self.exhausted, self.lower = cls, exhausted, lower
        self.certificate, self.valid = certificate, valid

    @property
    def upper(self) -> int | None:
        return self.certificate and self.certificate.claimed_level


def level_interval(r: SemifreeResolution) -> LevelInterval:
    """The certified interval for the level of ``r.module`` over its
    algebra from its minimal resolution r; no upper bound unless r is
    exhausted."""
    cls, exhausted = class_of(r)
    lower = level_lower_bound(cls, is_free_over_homology(r.module)["free"])
    if not exhausted:
        return LevelInterval(cls, exhausted, lower)
    cert = cert_from_resolution(r)
    return LevelInterval(cls, exhausted, lower, cert, cert_validate(cert).ok)


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
        if isinstance(node, FiltrationNode):
            # written as the left-nested spine of its stages' cones
            spine = node_dict(node.parts[0] if node.parts
                              else Leaf(node.subject, [], {}))
            for part in node.parts[1:]:
                level = spine["level"] + part.claimed
                spine = {"kind": "cone", "level": level, "left": spine,
                         "right": node_dict(part)}
            return spine
        if isinstance(node, RetractNode):
            return {"kind": "retract", "level": node.claimed,
                    "inner": node_dict(node.inner)}
        raise StructureError("unknown node")

    dims = {str(n): c.subject.space.dim(n)
            for n in c.subject.space.degrees()}
    return {"claimed_level": c.claimed_level,
            "subject_dims": dims,
            "tree": node_dict(c.tree)}
