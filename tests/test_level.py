"""Level certificates: leaves, cones, retracts, shifts, coproducts,
composition and towers.

``cert_shift`` and ``tree_coproduct`` carry each witness over unchanged.
The last section checks the shift against a reference copy of the
earlier path, which carried the tree along Σ^k as a functor and solved
every leaf and cone witness's signs again.
"""

import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    Complex,
    ConeView,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    shift_complex,
    solve_diagonal_chain_iso,
)
from dgkoszul.dgstruct import (
    DGModule,
    exterior_algebra,
    free_module,
    polynomial_algebra,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
)
from dgkoszul.resolve import minimize, semifree_resolve
from dgkoszul.level import (
    ConeNode,
    Leaf,
    LevelCertificate,
    RetractNode,
    _complexes_equal,
    canonical_coproduct,
    cert_compose,
    cert_from_resolution,
    cert_shift,
    cert_to_dict,
    cert_validate,
    cone_node_from_map,
    empty_leaf,
    leaf_from_bijection,
    leaf_identity,
    level_interval,
    spherical_bound,
    tower_bound,
    tree_coproduct,
)


@pytest.fixture(scope="module")
def poly(F5, window):
    return polynomial_algebra(F5, window, [("y", 2)])


@pytest.fixture(scope="module")
def cert_k_poly(poly):
    r = minimize(semifree_resolve(trivial_module(poly)))
    return cert_from_resolution(r)


def two_cert(base_complex, a, b):
    """Level-2 certificate: cone of the zero map Σ^{a-1}C → Σ^bC."""
    C = base_complex

    def leaf_shift(k):
        s = shift_complex(C, k)
        bij = {l: f"s0:{l}" for n in s.space.degrees()
               for l in s.space.labels(n)}
        return leaf_from_bijection(C, s, [k], bij)

    src = shift_complex(C, a - 1)
    wmap = GradedMap.zero(src.space, shift_complex(C, b).space, 0)
    node = cone_node_from_map(wmap, src, shift_complex(C, b),
                              leaf_shift(b), leaf_shift(a))
    return LevelCertificate(C, node.subject, node)


def test_leaf_identity_validates(poly):
    leaf = leaf_identity(poly.carrier, [0, 3])
    c = LevelCertificate(poly.carrier, leaf.subject, leaf)
    assert c.claimed_level == 1
    assert cert_validate(c).ok


def test_empty_leaf_level_zero(poly):
    leaf = empty_leaf(poly.carrier)
    c = LevelCertificate(poly.carrier, leaf.subject, leaf)
    assert c.claimed_level == 0
    assert cert_validate(c).ok


def test_leaf_from_bijection_solves_signs(poly):
    s = shift_complex(poly.carrier, 5)
    bij = {l: f"s0:{l}" for n in s.space.degrees()
           for l in s.space.labels(n)}
    leaf = leaf_from_bijection(poly.carrier, s, [5], bij)
    c = LevelCertificate(poly.carrier, s, leaf)
    assert cert_validate(c).ok


def test_leaf_from_bijection_rejects_impossible(F5, poly):
    # an acyclic two-step complex is not a shifted copy of K[y]
    w = poly.space.window
    e = exterior_algebra(F5, w, [("x", 3)])
    with pytest.raises(StructureError):
        bij = {l: f"s0:{l}" for n in e.space.degrees()
               for l in e.space.labels(n)}
        leaf_from_bijection(poly.carrier, e.carrier, [0], bij)


def test_cert_from_koszul_resolution(cert_k_poly):
    assert cert_k_poly.claimed_level == 2
    assert cert_validate(cert_k_poly).ok
    d = cert_to_dict(cert_k_poly)
    assert d["claimed_level"] == 2
    assert d["tree"]["kind"] == "cone"
    kinds = {d["tree"]["left"]["kind"], d["tree"]["right"]["kind"]}
    assert kinds == {"leaf"}


def test_cert_truncated_module(poly):
    r = minimize(semifree_resolve(truncated_module(poly, "y", 2, 3)))
    c = cert_from_resolution(r)
    assert c.claimed_level == 2
    assert cert_validate(c).ok


def test_cert_two_variables(F5, window):
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    r = minimize(semifree_resolve(trivial_module(a)))
    c = cert_from_resolution(r)
    assert c.claimed_level == 3
    assert cert_validate(c).ok


def test_cert_shift_validates(cert_k_poly):
    for k in (1, -2, 4):
        s = cert_shift(cert_k_poly, k)
        assert s.claimed_level == cert_k_poly.claimed_level
        assert cert_validate(s).ok


def test_cert_compose_bound(cert_k_poly):
    upper = two_cert(cert_k_poly.subject, 3, 1)
    assert cert_validate(upper).ok and upper.claimed_level == 2
    comp = cert_compose(upper, cert_k_poly)
    assert comp.claimed_level <= 2 * 2
    assert cert_validate(comp).ok


def test_cert_compose_multi_shift_leaf(cert_k_poly):
    # a two-copy leaf over a cone tree takes the coproduct of two shifted
    # copies of that tree, cone node by cone node and leaf by leaf
    leaf = leaf_identity(cert_k_poly.subject, [3, 3])
    upper = LevelCertificate(cert_k_poly.subject, leaf.subject, leaf)
    comp = cert_compose(upper, cert_k_poly)
    assert comp.claimed_level == 2
    assert cert_to_dict(comp)["tree"]["inner"]["kind"] == "cone"
    assert cert_validate(comp).ok


def test_cert_compose_unequal_shifts_refused(cert_k_poly):
    # Σ^0 and Σ^3 copies of K over K[y] fill different windows; their
    # direct sum would drop the labels the witnesses name
    leaf = leaf_identity(cert_k_poly.subject, [0, 3])
    upper = LevelCertificate(cert_k_poly.subject, leaf.subject, leaf)
    with pytest.raises(StructureError, match=r"unequal shifts \[0, 3\]"):
        cert_compose(upper, cert_k_poly)


def test_cert_compose_unequal_shifts_inside_window(F5, window):
    # a subject supported well inside the window loses nothing to the
    # intersection, so unequal shifts still compose
    lam = exterior_algebra(F5, window, [("x", 3)]).carrier
    c = two_cert(lam, 3, 1)
    leaf = leaf_identity(c.subject, [0, 3])
    comp = cert_compose(LevelCertificate(c.subject, leaf.subject, leaf), c)
    assert comp.claimed_level == 2
    assert cert_validate(comp).ok


def test_tower_of_three(cert_k_poly):
    c_mid = two_cert(cert_k_poly.subject, 3, 1)
    c_top = two_cert(c_mid.subject, 2, 0)
    out = tower_bound([c_top, c_mid, cert_k_poly], aux_dim=2)
    assert out["level_bound"] == 8
    assert out["dim_bound"] == 16
    assert out["claimed_level"] <= 8
    assert cert_validate(out["certificate"]).ok


def test_spherical_bound(F5, window, poly):
    sb = spherical_bound(trivial_module(poly))
    assert sb is not None and sb.claimed_level == 2
    assert cert_validate(sb).ok
    sb2 = spherical_bound(free_module(poly))
    assert sb2 is not None and sb2.claimed_level == 1
    a2 = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    assert spherical_bound(trivial_module(a2)) is None  # fiber dim 4


def test_spherical_bound_refuses_a_certificate_that_fails(poly,
                                                           monkeypatch):
    import dataclasses
    from dgkoszul import level

    def broken(r):
        c = cert_from_resolution(r)
        return dataclasses.replace(c, tree=dataclasses.replace(c.tree,
                                                               w=None))
    monkeypatch.setattr(level, "cert_from_resolution", broken)
    with pytest.raises(StructureError, match="cone witness fails"):
        spherical_bound(trivial_module(poly))


def test_bogus_retract_rejected(F5, window):
    e = exterior_algebra(F5, window, [("x", 3)])
    leaf = leaf_identity(e.carrier, [0])
    tq = truncated_polynomial_algebra(F5, window, "y", 2, 2).carrier
    zero_s = GradedMap.zero(tq.space, leaf.subject.space, 0)
    zero_r = GradedMap.zero(leaf.subject.space, tq.space, 0)
    bogus = LevelCertificate(e.carrier, tq,
                             RetractNode(tq, leaf, zero_s, zero_r))
    rep = cert_validate(bogus)
    assert not rep.ok
    assert any("retraction" in v or "section" in v for v in rep.violations)


def test_leaf_witness_outside_coproduct_rejected(F5, window, poly):
    # Λ(x,z) has zero d, so its identity commutes with every differential;
    # Σ^{-100}K[y] is empty in the window, so the identity lands outside it
    x = exterior_algebra(F5, window, [("x", 3), ("z", 5)]).carrier
    ident = {l: (l, F5.one) for l in x.space}
    c = LevelCertificate(poly.carrier, x, Leaf(x, [-100], ident))
    assert c.claimed_level == 1
    rep = cert_validate(c)
    assert not rep.ok
    assert any("leaf witness fails" in v for v in rep.violations)


def test_cone_of_empty_leaves_rejected(F5, window, poly):
    # a level-0 claim for the nonzero complex ΣΛ(x): cone(0 → 0) is empty
    sx = shift_complex(exterior_algebra(F5, window, [("x", 3)]).carrier, 1)
    left, right = empty_leaf(poly.carrier), empty_leaf(poly.carrier)
    w = GradedMap.zero(right.subject.space, left.subject.space, 0)
    ident = {l: (l, F5.one) for l in sx.space}
    c = LevelCertificate(poly.carrier, sx,
                         ConeNode(sx, left, right, w, ident))
    assert c.claimed_level == 0
    rep = cert_validate(c)
    assert not rep.ok
    assert any("cone witness fails" in v for v in rep.violations)


def test_compose_requires_matching_base(cert_k_poly, F5, window):
    other = polynomial_algebra(F5, window, [("z", 4)])
    leaf = leaf_identity(other.carrier, [0])
    c2 = LevelCertificate(other.carrier, leaf.subject, leaf)
    with pytest.raises(StructureError):
        cert_compose(cert_k_poly, c2)


def test_missing_witness_is_a_violation(F5, window, poly):
    # a leaf or cone with a witness left out is reported, not a crash
    x = poly.carrier
    rep = cert_validate(LevelCertificate(x, x, Leaf(x, [0], None)))
    assert rep.violations == ["root: leaf witness fails: missing witness"]
    sx = shift_complex(exterior_algebra(F5, window, [("x", 3)]).carrier, 1)
    left, right = empty_leaf(x), empty_leaf(x)
    w = GradedMap.zero(right.subject.space, left.subject.space, 0)
    ident = {l: (l, F5.one) for l in sx.space}
    for parts in ((None, ident), (w, None)):
        rep = cert_validate(LevelCertificate(
            x, sx, ConeNode(sx, left, right, *parts)))
        assert rep.violations == ["root: cone witness fails: missing witness"]


def corrupted(kind, phi, subject):
    """A copy of the relabelling phi of subject with one planted fault."""
    f, sp, phi = subject.field, subject.space, dict(phi)
    l = next(l for l in sp if subject.d(l))
    t, c = phi[l]
    if kind == "missing-label":
        del phi[l]
    elif kind == "two-labels-to-one":
        a, b = next(sp.labels(n) for n in sp.degrees() if sp.dim(n) > 1)[:2]
        phi[b] = (phi[a][0], phi[b][1])
    elif kind == "wrong-degree":
        m = sp.labels(sp.deg(l) + 1)[0]
        phi[l], phi[m] = (phi[m][0], c), (t, phi[m][1])
    elif kind == "not-in-the-target":
        phi[l] = ("nowhere", c)
    elif kind == "zero-coefficient":
        phi[l] = (t, f.zero)
    else:                                   # a wrong sign: not a chain map
        phi[l] = (t, f.neg(c))
    return phi


FAULTS = {"missing-label": "not a nonzero multiple",
          "two-labels-to-one": "sends two labels to one",
          "wrong-degree": "not a nonzero multiple",
          "not-in-the-target": "not a nonzero multiple",
          "zero-coefficient": "not a nonzero multiple",
          "wrong-sign": "not a chain map"}


@pytest.mark.parametrize("kind", FAULTS)
def test_leaf_witness_fault_refused(cert_k_poly, kind):
    # the leaf ΣF ⊕ ΣF over F, F the resolution of K over K[y]: every
    # degree holds two labels, and d is nonzero
    base = cert_k_poly.subject
    leaf = leaf_identity(base, [0, 0])
    c = LevelCertificate(base, leaf.subject, leaf)
    assert cert_validate(c).ok
    bad = replace(leaf, witness=corrupted(kind, leaf.witness, leaf.subject))
    rep = cert_validate(replace(c, tree=bad))
    assert len(rep.violations) == 1
    assert rep.violations[0].startswith("root: leaf witness fails: ")
    assert FAULTS[kind] in rep.violations[0]


@pytest.mark.parametrize("kind", FAULTS)
def test_cone_witness_fault_refused(F5, window, kind):
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    c = cert_from_resolution(minimize(semifree_resolve(trivial_module(a))))
    cone_ = c.tree
    assert isinstance(cone_, ConeNode) and cert_validate(c).ok
    bad = replace(cone_, witness=corrupted(kind, cone_.witness,
                                           cone_.subject))
    rep = cert_validate(replace(c, tree=bad))
    assert len(rep.violations) == 1
    assert rep.violations[0].startswith("root: cone witness fails: ")
    assert FAULTS[kind] in rep.violations[0]


def test_level_interval_checks_each_witness_once(F5, monkeypatch):
    # K3 over K[y1,y2,y3] has class 4: four leaves and three cones.  The
    # leaf and cone witnesses are relabellings, checked without
    # is_chain_map; what remains is one check per cone's w (3) and one in
    # class_of: no rebuilt cone, no second check in the builder
    from dgkoszul import gradedcomplex, level, resolve
    a = polynomial_algebra(F5, DegreeWindow(-8, 8),
                           [("y1", 2), ("y2", 2), ("y3", 2)])
    r = minimize(semifree_resolve(trivial_module(a)))
    calls = []
    checked = gradedcomplex.is_chain_map

    def counted(*args):
        calls.append(args)
        return checked(*args)

    for mod in (gradedcomplex, level, resolve):
        monkeypatch.setattr(mod, "is_chain_map", counted)
    side = level.level_interval(r)
    assert side.upper == 4 and side.valid
    assert len(calls) == 4


def test_cert_shift_checks_each_cone_map_once(F5, monkeypatch):
    """Shifting K3's certificate over K[y1,y2,y3] carries its witnesses
    over and re-solves nothing, so it checks no chain map; validating the
    shift checks each cone's w once: 3 chain-map checks in all."""
    from dgkoszul import gradedcomplex, level
    a = polynomial_algebra(F5, DegreeWindow(-8, 8),
                           [("y1", 2), ("y2", 2), ("y3", 2)])
    cert = cert_from_resolution(minimize(semifree_resolve(trivial_module(a))))
    calls = []
    checked = gradedcomplex.is_chain_map

    def counted(*args):
        calls.append(args)
        return checked(*args)

    for mod in (gradedcomplex, level):
        monkeypatch.setattr(mod, "is_chain_map", counted)
    shifted = cert_shift(cert, 2)
    assert not calls
    assert cert_validate(shifted).ok
    assert len(calls) == 3


def test_shift_and_compose_keep_a_wrong_sign(cert_k_poly):
    """Shifting and composing carry a witness over as it is, so a sign
    flipped in the root cone witness of K over K[y] still fails
    validation, at the same label: inside the retract (root.I) under
    composition, and under the first copy's tag with two copies."""
    cone_ = cert_k_poly.tree
    bad = replace(cert_k_poly, tree=replace(cone_, witness=corrupted(
        "wrong-sign", cone_.witness, cone_.subject)))
    [msg] = cert_validate(bad).violations
    label = re.fullmatch(r"root: cone witness fails: witness is not a "
                         r"chain map at '(.*)'", msg).group(1)
    for k in (1, 2):
        assert cert_validate(cert_shift(bad, k)).violations == [msg]
    for shifts, at in (([0], label), ([0, 0], f"s0:{label}")):
        leaf = leaf_identity(bad.subject, shifts)
        comp = cert_compose(LevelCertificate(bad.subject, leaf.subject, leaf),
                            bad)
        assert cert_validate(comp).violations == [
            f"root.I: cone witness fails: witness is not a chain map at "
            f"{at!r}"]


def test_shift_coproduct_and_compose_solve_and_check_nothing(cert_k_poly,
                                                             monkeypatch):
    """cert_shift, tree_coproduct and cert_compose carry witnesses and
    maps over: no sign is solved and no chain map is checked until the
    results are validated."""
    from dgkoszul import gradedcomplex, level
    upper = two_cert(cert_k_poly.subject, 3, 1)
    leaf = leaf_identity(cert_k_poly.subject, [3, 3])
    two_copies = LevelCertificate(cert_k_poly.subject, leaf.subject, leaf)
    calls = []

    def counted(name):
        fn = getattr(gradedcomplex, name)

        def run(*args):
            calls.append(name)
            return fn(*args)
        return run

    for name in ("solve_diagonal_chain_iso", "is_chain_map"):
        for mod in (gradedcomplex, level):
            monkeypatch.setattr(mod, name, counted(name))
    shifted = cert_shift(cert_k_poly, 3)
    summed = tree_coproduct([shifted.tree, shifted.tree], ["a", "b"])
    built = [shifted, LevelCertificate(cert_k_poly.base, summed.subject,
                                       summed),
             cert_compose(upper, cert_k_poly),
             cert_compose(two_copies, cert_k_poly)]
    assert not calls
    assert all(cert_validate(c).ok for c in built)
    assert calls


def test_cone_whose_w_is_not_a_chain_map_refused(cert_k_poly, F5):
    """``ConeView`` does not check w; the validator does, with the message
    the view gave before: w sends one label l with d(l) != 0 to itself
    and the rest to 0, so d(w(l)) != w(d(l))."""
    c = two_cert(cert_k_poly.subject, 2, 1)      # w : ΣC → ΣC, zero
    node = c.tree
    src = shift_complex(node.right.subject, -1)
    l = next(l for l in src.space if src.d(l))
    bad = GradedMap(src.space, node.left.subject.space, 0, {l: {l: F5.one}})
    rep = cert_validate(replace(c, tree=replace(node, w=bad)))
    assert len(rep.violations) == 1
    assert rep.violations[0].startswith(
        "root: cone witness fails: cone of a non-chain-map")


def test_level_interval_realizes_each_generator_once(F5, monkeypatch):
    """For K3 over K[y1,y2,y3]: each generator's columns are computed once
    (minimize cancels nothing and hands the same F on), the builder forms
    no direct sum, the validator makes no relabel copy, and level_interval
    makes 4 chain-map checks, one per cone's w and one in class_of."""
    from dgkoszul import gradedcomplex, level, resolve
    a = polynomial_algebra(F5, DegreeWindow(-8, 8),
                           [("y1", 2), ("y2", 2), ("y3", 2)])
    phase: list = []
    parts, relabels, sums, checks = [], [], [], []

    def in_phase(name, fn):
        def run(*args):
            phase.append(name)
            try:
                return fn(*args)
            finally:
                phase.pop()
        return run

    def logged(log, fn, entry=lambda args: tuple(phase)):
        def run(*args):
            log.append(entry(args))
            return fn(*args)
        return run

    monkeypatch.setattr(resolve, "_generator_part", logged(
        parts, resolve._generator_part, lambda args: args[1]))
    for name in ("cert_from_resolution", "cert_validate"):
        monkeypatch.setattr(level, name, in_phase(name, getattr(level, name)))
    wrapped = {name: logged(log, getattr(gradedcomplex, name))
               for name, log in (("relabel", relabels), ("direct_sum", sums),
                                 ("is_chain_map", checks))}
    for mod in (gradedcomplex, level, resolve):
        for name, fn in wrapped.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    r0 = semifree_resolve(trivial_module(a))
    r = minimize(r0)
    assert r.realize() is r0.realize()
    assert sorted(parts) == sorted(gl for gl, _, _ in r.generators)
    del checks[:]
    side = level_interval(r)
    assert side.upper == 4 and side.valid
    assert not [p for p in relabels if "cert_validate" in p]
    assert not [p for p in sums if "cert_from_resolution" in p]
    assert len(checks) == 4


def test_level_interval_of_the_zero_module(F5, window):
    """The zero module has level 0: class 0, lower bound 0 and the empty
    certificate, which validates; never the interval [1, 0]."""
    a = polynomial_algebra(F5, window, [("y", 2)])
    sp = GradedSpace(F5, window, {}, bounds=(0, 0))
    zero = DGModule(Complex(sp, GradedMap.zero(sp, sp, 1)), a,
                    lambda ml, x: {})
    side = level_interval(minimize(semifree_resolve(zero)))
    assert (side.cls, side.lower, side.upper, side.valid) == (0, 0, 0, True)


# -------------------------------------------------------------------------
# the shift against the earlier path
# -------------------------------------------------------------------------
# Verbatim copies, apart from their names, of the earlier shift: the tree
# carried along Σ^k as a functor, each leaf and cone witness re-solved from
# its target labels alone.

class RefSuspension:
    """Σ^k as a functor: complexes shift, maps keep their columns."""

    def __init__(self, k: int):
        self.k = k

    def on_complex(self, cx: Complex) -> Complex:
        return shift_complex(cx, self.k)

    def on_map(self, gm: GradedMap, src: Complex, tgt: Complex) -> GradedMap:
        return GradedMap(src.space, tgt.space, gm.shift, gm.cols)


def ref_signed(subject, target, bijection):
    phi = solve_diagonal_chain_iso(subject, target, bijection)
    if phi is None:
        raise StructureError("no diagonal iso onto the witness target")
    return phi


def ref_leaf_from_bijection(base, subject, shifts, bijection):
    std = canonical_coproduct(base, shifts, subject.space.window)
    return Leaf(subject, list(shifts), ref_signed(subject, std, bijection))


def ref_witnessed_cone(subject, left, right, w, bijection):
    built = ConeView(w, shift_complex(right.subject, -1), left.subject)
    return ConeNode(subject, left, right, w,
                    ref_signed(subject, built, bijection))


def ref_transport_tree(functor, tree, base, dk):
    def visit(node):
        subject = functor.on_complex(node.subject)
        if isinstance(node, RetractNode):
            inner = visit(node.inner)
            return RetractNode(
                subject, inner,
                functor.on_map(node.section, subject, inner.subject),
                functor.on_map(node.retraction, inner.subject, subject))
        if not isinstance(node, (Leaf, ConeNode)):
            raise StructureError(f"unknown node {type(node).__name__}")
        labels = {l: t for l, (t, _) in node.witness.items()}
        if isinstance(node, Leaf):
            return ref_leaf_from_bijection(base, subject,
                                           [s + dk for s in node.shifts],
                                           labels)
        left, right = visit(node.left), visit(node.right)
        w = functor.on_map(node.w, shift_complex(right.subject, -1),
                           left.subject)
        return ref_witnessed_cone(subject, left, right, w, labels)

    return visit(tree)


def ref_cert_shift(c, k):
    tree = ref_transport_tree(RefSuspension(k), c.tree, c.base, k)
    return LevelCertificate(c.base, tree.subject, tree)


PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def resolution_certs(draw):
    """The certificate of a minimal resolution of a trivial, free or
    truncated module over K[y] or K[y1,y2], over F_2, F_5 or Q."""
    f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                              FieldSpec.rationals()]))
    hi = draw(st.integers(6, 10))
    names = draw(st.sampled_from([["y"], ["y1", "y2"]]))
    a = polynomial_algebra(f, DegreeWindow(-hi, hi),
                           [(n, draw(st.sampled_from([2, 4]))) for n in names])
    kind = draw(st.sampled_from(["trivial", "free", "truncated"]))
    if kind == "trivial":
        m = trivial_module(a)
    elif kind == "free":
        m = free_module(a)
    else:
        m = truncated_module(a, "y", 2, draw(st.integers(1, 3)))
    try:
        return cert_from_resolution(minimize(semifree_resolve(m)))
    except StructureError:                  # not exhausted in the window
        assume(False)


def preorder(node) -> list:
    kids = {ConeNode: ("left", "right"), RetractNode: ("inner",)}
    return [node] + [n for kid in kids.get(type(node), ())
                     for n in preorder(getattr(node, kid))]


def targets(witness: dict) -> dict:
    return {l: t for l, (t, _) in witness.items()}


def test_cert_shift_of_a_composite(cert_k_poly):
    """A composite has retract nodes: the shift keeps each section and
    retraction's columns on the shifted spaces, as the earlier path did,
    and validates."""
    comp = cert_compose(two_cert(cert_k_poly.subject, 3, 1), cert_k_poly)
    for k in (1, -2):
        new, ref = cert_shift(comp, k), ref_cert_shift(comp, k)
        assert cert_validate(new).ok
        pairs = [(a, b) for a, b in zip(preorder(new.tree), preorder(ref.tree),
                                        strict=True)
                 if isinstance(a, RetractNode)]
        assert pairs and all((a.section, a.retraction)
                             == (b.section, b.retraction) for a, b in pairs)


def not_one(f):
    """2 over F_5 and -1/2 over Q; over F_2 the only nonzero scalar, 1."""
    if f.kind == "rationals":
        return f.div(f.from_int(-1), f.from_int(2))
    return f.from_int(2) if f.p == 5 else f.one


def scaled_root(c: LevelCertificate) -> LevelCertificate:
    """c with its root witness times not_one: a chain isomorphism still,
    with coefficients no re-solving would give."""
    f = c.base.field
    a = not_one(f)
    return replace(c, tree=replace(c.tree, witness={
        l: (t, f.mul(a, v)) for l, (t, v) in c.tree.witness.items()}))


@PROPERTY
@given(resolution_certs(), st.integers(-3, 3))
def test_shift_matches_reference(c, k):
    """Tree shape, subjects, leaf shifts, witness target labels and the
    serialized form as the earlier path gives them; the shift validates,
    and shifting back gives c's witnesses, cone maps and subjects, the
    scaled root witness included."""
    c = scaled_root(c)
    new, ref = cert_shift(c, k), ref_cert_shift(c, k)
    assert cert_to_dict(new) == cert_to_dict(ref)
    assert _complexes_equal(new.subject, ref.subject)
    for a, b in zip(preorder(new.tree), preorder(ref.tree), strict=True):
        assert type(a) is type(b)
        assert _complexes_equal(a.subject, b.subject)
        assert getattr(a, "shifts", None) == getattr(b, "shifts", None)
        assert targets(a.witness) == targets(b.witness)
    assert cert_validate(new).ok
    back = cert_shift(new, -k)
    for a, b in zip(preorder(back.tree), preorder(c.tree), strict=True):
        assert a.witness == b.witness
        assert _complexes_equal(a.subject, b.subject)
        assert not isinstance(a, ConeNode) or a.w == b.w


@PROPERTY
@given(resolution_certs(), st.integers(0, 3))
def test_two_copy_compose_keeps_a_scaled_witness(c, k):
    """A two-copy leaf over c's subject whose witness is scaled by a
    scalar other than 1, over c with its root witness scaled too: the
    composite's section keeps that scalar, each copy of c's tree keeps
    c's coefficients, and the composite validates.  (A leaf shifted below
    0 truncates the top of c's subject, and its section is then no chain
    map, so k starts at 0.)"""
    c = scaled_root(c)
    leaf = leaf_identity(c.subject, [k, k])
    upper = scaled_root(LevelCertificate(c.subject, leaf.subject, leaf))
    comp = cert_compose(upper, c)
    assert comp.tree.section.cols == {l: {t: not_one(c.base.field)}
                                      for l, t in targets(leaf.witness).items()}
    assert {l: v for l, (_, v) in comp.tree.inner.witness.items()} == {
        f"s{i}:{l}": v for i in range(2)
        for l, (_, v) in c.tree.witness.items()}
    assert cert_validate(comp).ok
