"""Level certificates: leaves, cones, retracts, composition, towers,
transport."""

from dataclasses import replace

import pytest

from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    shift_complex,
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
    cert_compose,
    cert_from_resolution,
    cert_shift,
    cert_to_dict,
    cert_transport,
    cert_validate,
    cone_node_from_map,
    empty_leaf,
    leaf_from_bijection,
    leaf_identity,
    level_interval,
    spherical_bound,
    tower_bound,
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
    for k in (1, -2):
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


def test_cert_transport_shift_functor(cert_k_poly):
    class ShiftFunctor:
        def __init__(self, k):
            self.k = k

        def on_complex(self, cx):
            return shift_complex(cx, self.k)

        def on_map(self, gm, src, tgt):
            return GradedMap(src.space, tgt.space, gm.shift, gm.cols)

    ct = cert_transport(ShiftFunctor(4), cert_k_poly)
    assert ct.claimed_level == cert_k_poly.claimed_level
    assert cert_validate(ct).ok


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
    """Shifting K3's certificate over K[y1,y2,y3] re-solves its three cone
    witnesses without checking w; validating the shift checks each w
    once: 3 chain-map checks in all (6 when the builder checked too)."""
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
