"""The resolution's complex F, its certificate and the cone's d against
reference copies of their earlier forms.

``semifree_resolve`` builds each generator's part of F (its labels, d- and
ε-columns) once and reassembles F from the parts; ``minimize`` hands on
its input; ``cert_from_resolution`` takes its stages and stage quotients
from one pass over F, as a filtration node on F itself; ``cone()`` writes
its c1:/c2: labels straight into the stored columns.  The reference
copies below are the earlier forms, kept verbatim apart from their names:
a realization that enumerates all of F at once, a builder that restricts
F twice per stage into a spine of cones, and a cone d through
``relabel``.  Each must give the same basis in the same order and the
same columns, term for term and in order.  The reference
builder keeps its witnesses in the earlier form, a map and its inverse
on nodes of its own; each leaf witness must be that map, read as a
relabelling, and each reference cone must be the one the stages give.
"""

from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul.barcobar import tensor_label
from dgkoszul.dgstruct import (
    free_module,
    polynomial_algebra,
    trivial_module,
    truncated_module,
)
from dgkoszul.exactlinalg import FieldSpec, vec_iadd, vec_scale
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    cone,
    cone_space,
    direct_sum,
    is_chain_map,
    relabel,
    shift_complex,
)
from dgkoszul.level import (
    FiltrationNode,
    Leaf,
    LevelCertificate,
    canonical_coproduct,
    cert_from_resolution,
    cert_validate,
)
from dgkoszul.resolve import class_of, minimize, semifree_resolve

FIELDS = [FieldSpec.prime(5), FieldSpec.rationals()]
PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -------------------------------------------------------------------------
# reference copies
# -------------------------------------------------------------------------

@dataclass
class RefLeaf:
    subject: Complex
    shifts: list
    to_std: GradedMap | None
    from_std: GradedMap | None

    @property
    def claimed(self) -> int:
        return 1 if self.shifts else 0


@dataclass
class RefCone:
    subject: Complex
    left: object
    right: object
    w: GradedMap
    to_cone: GradedMap
    from_cone: GradedMap

    @property
    def claimed(self) -> int:
        return self.left.claimed + self.right.claimed


def ref_witness_pair(to):
    f = to.target.field
    return to, GradedMap(to.target, to.source, to.shift,
                         {t: {l: f.inv(v)} for l, col in to.cols.items()
                          for t, v in col.items()})


def ref_realize(m, generators, differential, comparison):
    a = m.over
    f = a.field
    win = m.space.window
    basis: dict = {}
    parts: dict = {}          # label -> (generator, its degree, algebra label)
    for gl, gd, _ in generators:
        for n in a.space.degrees():
            if gd + n in win:
                for al in a.space.labels(n):
                    label = tensor_label(gl, al)
                    basis.setdefault(gd + n, []).append(label)
                    parts[label] = (gl, gd, al)
    sp = GradedSpace(f, win, basis)
    cols: dict = {}
    eps_cols: dict = {}
    for label, (gl, gd, al) in parts.items():
        col: dict = {}
        for g2, b, c in differential.get(gl, []):
            for t, v in a.mult_pair(b, al).items():
                tgt = tensor_label(g2, t)
                if tgt in sp:
                    vec_iadd(f, col, c, {tgt: v})
        sgn = f.from_int(-1 if gd % 2 else 1)
        for t, v in a.carrier.d(al).items():
            tgt = tensor_label(gl, t)
            if tgt in sp:
                vec_iadd(f, col, sgn, {tgt: v})
        if col:
            cols[label] = col
        img = m.act(comparison.get(gl, {}), {al: f.one})
        img = {t: v for t, v in img.items() if t in m.space}
        if img:
            eps_cols[label] = img
    cx = Complex(sp, GradedMap(sp, sp, 1, cols))
    return cx, GradedMap(sp, m.space, 0, eps_cols)


def ref_restrict_complex(c, window=None, keep=None):
    window = window or c.window
    basis = {n: [l for l in c.labels(n) if keep is None or keep(l)]
             for n in c.space.degrees() if n in window}
    sp = GradedSpace(c.field, window, basis, bounds=c.space.bounds)
    cols = {}
    for l in sp:
        col = {t: v for t, v in c.d(l).items() if t in sp}
        if col:
            cols[l] = col
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def ref_canonical_coproduct(base, shifts, window=None):
    if window is None:
        window = base.space.window
    if not shifts:
        f = base.field
        sp = GradedSpace(f, window, {}, bounds=(1, 0))
        return Complex(sp, GradedMap.zero(sp, sp, 1))
    parts = [ref_restrict_complex(shift_complex(base, k), window)
             for k in shifts]
    return direct_sum(parts, [f"s{i}" for i in range(len(shifts))])


def ref_stage_complex(r, which):
    keep = {gl for gl, _, s in r.generators if which(s)}
    return ref_restrict_complex(r.realize()[0],
                                keep=lambda l: l.split("@", 1)[0] in keep)


def ref_cert_from_resolution(r):
    if not r.is_minimal():
        raise StructureError("certificate needs a minimal resolution")
    cls, exhausted = class_of(r)
    if not exhausted:
        raise StructureError("resolution not exhausted; refusing to "
                             "certify a truncated class")
    base = r.over.carrier
    base_labels = list(base.space)
    one = base.field.one

    def quotient_leaf(stage):
        gens = sorted((gl, d) for gl, d, s in r.generators if s == stage)
        q = ref_stage_complex(r, lambda s: s == stage)
        shifts = [-d for _, d in gens]
        std = ref_canonical_coproduct(base, shifts, q.space.window)
        bij = {f"{gl}@{al}": f"s{i}:{al}"
               for i, (gl, _) in enumerate(gens) for al in base_labels}
        return RefLeaf(q, shifts, *ref_witness_pair(GradedMap(
            q.space, std.space, 0, {l: {bij[l]: one} for l in q.space})))

    stages = sorted({s for _, _, s in r.generators})
    if not stages:
        return LevelCertificate(base, ref_stage_complex(r, lambda s: False),
                                RefLeaf(canonical_coproduct(base, []), [],
                                        None, None))
    node = quotient_leaf(stages[0])
    for st_ in stages[1:]:
        sub = node.subject
        total = ref_stage_complex(r, lambda s: s <= st_)
        quot = quotient_leaf(st_)
        qs = shift_complex(quot.subject, -1)
        wcols = {}
        for l in qs.space:
            col = {t: v for t, v in total.d(l).items() if t in sub.space}
            if col:
                wcols[l] = col
        w = GradedMap(qs.space, sub.space, 0, wcols)
        to = {l: {f"c2:{l}" if l in sub.space else f"c1:{l}": one}
              for l in total.space}
        node = RefCone(total, node, quot, w, *ref_witness_pair(
            GradedMap(total.space, cone_space(qs, sub), 0, to)))
    cert = LevelCertificate(base, node.subject, node)
    if cert.claimed_level != cls:
        raise RuntimeError("internal: certificate level disagrees with "
                           "resolution class")
    return cert


class RefConeView:
    def __init__(self, fmap, source, target):
        ok, witness = is_chain_map(fmap, source, target)
        if not ok:
            raise StructureError(
                f"cone of a non-chain-map; first failure {witness[:2]}")
        self.space = cone_space(source, target)
        self.field = target.field
        self._parts = (fmap, source, target)

    def d(self, combo_or_label) -> dict:
        f = self.field
        if isinstance(combo_or_label, str):
            combo_or_label = {combo_or_label: f.one}
        fmap, source, target = self._parts
        out: dict = {}
        for l, c in combo_or_label.items():
            if self.space.deg(l) == self.space.window.hi:
                continue
            if l.startswith("c1:"):
                vec_iadd(f, out, f.neg(c), relabel("c1:", source.d(l[3:])))
                vec_iadd(f, out, c, relabel("c2:", fmap.apply_label(l[3:])))
            else:
                vec_iadd(f, out, c, relabel("c2:", target.d(l[3:])))
        return out


# -------------------------------------------------------------------------
# comparisons
# -------------------------------------------------------------------------

def assert_same_space(sp, ref):
    assert list(sp.basis.items()) == list(ref.basis.items())
    assert sp.window == ref.window and sp.bounds == ref.bounds


def assert_same_map(gm, ref):
    """Every column, term for term and in order."""
    assert gm.shift == ref.shift
    assert_same_space(gm.source, ref.source)
    assert_same_space(gm.target, ref.target)
    for l in ref.source:
        assert list(gm.apply_label(l).items()) == list(
            ref.apply_label(l).items()), l


def assert_same_complex(cx, ref):
    assert_same_map(cx.differential, ref.differential)


def as_witness(gm):
    """A map with one term per column as {label: (target, coefficient)};
    {} for the empty leaf's missing map."""
    if gm is None:
        return {}
    return {l: (t, c) for l, col in gm.cols.items() for t, c in col.items()}


def spine(ref) -> tuple:
    """The leaves and the cones of a reference spine, lowest stage
    first."""
    if isinstance(ref, RefLeaf):
        return [ref], []
    leaves, cones = spine(ref.left)
    return leaves + [ref.right], cones + [ref]


def assert_same_tree(node, ref, fx):
    """Each part is the reference leaf of its stage (subject, shifts and
    witness), and the stages give each reference cone: the cone of stage
    s sends that stage's labels to c1: and the lower stages' to c2:, and
    its w is the part of F's d that leaves stage s."""
    leaves, cones = spine(ref)
    if not leaves[0].shifts:                # the zero module: no stages
        leaves = []
    assert isinstance(node, FiltrationNode) and node.subject is fx
    for part, leaf in zip(node.parts, leaves, strict=True):
        assert isinstance(part, Leaf) and part.shifts == leaf.shifts
        assert_same_complex(part.subject, leaf.subject)
        assert part.witness == as_witness(leaf.to_std)
    of, one = node.stage_of, fx.field.one
    assert list(of) == list(fx.space)
    for s, cone in enumerate(cones, start=1):
        assert as_witness(cone.to_cone) == {
            l: (("c1:" if of[l] == s else "c2:") + l, one)
            for l in fx.space if of[l] <= s}
        assert cone.w.cols == {
            l: col for l in fx.space if of[l] == s
            if (col := {t: v for t, v in fx.d(l).items() if of[t] < s})}


def outcome(fn, *args):
    """The result, or the type and message of the refusal."""
    try:
        return fn(*args)
    except StructureError as e:
        return type(e), str(e)


@st.composite
def modules(draw):
    """A trivial, free or truncated module over a polynomial algebra on
    one to three generators of degree 2 or 4, with a depth for its
    resolution."""
    f = draw(st.sampled_from(FIELDS))
    hi = draw(st.integers(4, 10))
    w = DegreeWindow(-hi, hi)
    degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    a = polynomial_algebra(f, w, [(f"y{i}", d) for i, d in enumerate(degs)])
    kind = draw(st.sampled_from(["trivial", "free", "truncated"]))
    if kind == "trivial":
        m = trivial_module(a)
    elif kind == "free":
        m = free_module(a)
    else:
        m = truncated_module(a, "y", 2, draw(st.integers(1, 4)))
    return m, draw(st.integers(0, hi - 2))


# -------------------------------------------------------------------------
# properties
# -------------------------------------------------------------------------

@PROPERTY
@given(modules())
def test_realization_matches_reference(mod):
    """F built once per generator, and handed on by minimize, against F
    enumerated at once from the same generators."""
    m, depth = mod
    r = semifree_resolve(m, depth)
    cx, eps = r.realize()
    rcx, reps = ref_realize(m, r.generators, r.differential, r.comparison)
    assert_same_complex(cx, rcx)
    assert_same_map(eps, reps)
    assert minimize(r) is r
    # the lazy path, for a resolution handed no F
    fresh = type(r)(r.over, r.module, r.generators, r.differential,
                    r.comparison, r.direction, r.depth, None)
    cx, eps = fresh.realize()
    assert_same_complex(cx, rcx)
    assert_same_map(eps, reps)


@PROPERTY
@given(modules())
def test_certificate_matches_reference(mod):
    """Subjects (bases and d), witnesses, stages and claimed level against
    the builder that restricts F twice per stage into a spine of cones."""
    m, depth = mod
    r = minimize(semifree_resolve(m, depth))
    cert = outcome(cert_from_resolution, r)
    ref = outcome(ref_cert_from_resolution, r)
    if isinstance(ref, tuple):
        assert cert == ref
        return
    assert cert.claimed_level == ref.claimed_level
    assert_same_complex(cert.subject, ref.subject)
    assert cert.subject is r.realize()[0]
    assert_same_tree(cert.tree, ref.tree, cert.subject)
    assert cert_validate(cert).ok


@st.composite
def complexes(draw, f, lo, hi, name):
    """A complex on [lo, hi] with a label at the top: each label either
    has d = 0 or sends its degree to a random combination of the d = 0
    labels one degree up, so d∘d = 0."""
    dims = {n: draw(st.integers(0, 3)) for n in range(lo, hi)}
    dims[hi] = draw(st.integers(1, 3))
    basis = {n: [f"{name}{n}_{i}" for i in range(k)] for n, k in dims.items()}
    cycles = {l for ls in basis.values() for l in ls if draw(st.booleans())}
    coeff = st.integers(0, 4).map(f.from_int)
    cols = {}
    for n, ls in basis.items():
        for l in ls:
            if l in cycles:
                continue
            col = {t: c for t in basis.get(n + 1, []) if t in cycles
                   if (c := draw(coeff))}
            if col:
                cols[l] = col
    sp = GradedSpace(f, DegreeWindow(lo, hi), basis)
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def map_sum(x, y):
    """x + y, for GradedMaps of one shift between the same spaces."""
    f = x.target.field
    cols = {l: dict(c) for l, c in x.cols.items()}
    for l, c in y.cols.items():
        vec_iadd(f, cols.setdefault(l, {}), f.one, c)
    return GradedMap(x.source, x.target, x.shift,
                     {l: c for l, c in cols.items() if c})


@st.composite
def chain_maps(draw):
    """f = d h + h d, plus s·id when source and target coincide: a chain
    map for any h of degree -1."""
    fld = draw(st.sampled_from(FIELDS))
    lo, hi = -2, draw(st.integers(0, 3))
    src = draw(complexes(fld, lo, hi, "x"))
    tgt = src if draw(st.booleans()) else draw(complexes(fld, lo, hi, "z"))
    coeff = st.integers(0, 4).map(fld.from_int)
    hcols = {}
    for l in src.space:
        n = src.space.deg(l)
        col = {t: c for t in tgt.space.labels(n - 1) if (c := draw(coeff))}
        if col:
            hcols[l] = col
    h = GradedMap(src.space, tgt.space, -1, hcols)
    fmap = map_sum(tgt.differential.compose(h), h.compose(src.differential))
    if tgt is src:
        c = draw(coeff)
        fmap = map_sum(fmap, GradedMap(src.space, src.space, 0, {
            l: v for l in src.space
            if (v := vec_scale(fld, c, {l: fld.one}))}))
    return fmap, src, tgt


@PROPERTY
@given(chain_maps(), st.data())
def test_cone_d_matches_relabelling_reference(parts, data):
    """cone()'s stored columns, label by label, the window top among them
    (none stored there), then random combinations, and boundaries, whose
    d cancels term by term."""
    new, ref = cone(*parts), RefConeView(*parts)
    sp = ref.space
    assert_same_space(new.space, sp)
    top = [l for l in sp.labels(sp.window.hi) if l.startswith("c1:")]
    assert top and not any(l in new.differential.cols
                           for l in sp.labels(sp.window.hi))
    f = ref.field
    coeff = st.integers(1, 4).map(f.from_int)
    for n in sp.degrees():
        for l in sp.labels(n):
            assert list(new.differential.cols.get(l, {}).items()) == list(
                ref.d(l).items()), l
        combo = {l: c for l in sp.labels(n) if (c := data.draw(coeff))
                 and data.draw(st.booleans())}
        assert list(new.d(combo).items()) == list(ref.d(combo).items())
        boundary = ref.d(combo)
        assert new.d(boundary) == ref.d(boundary) == {}
