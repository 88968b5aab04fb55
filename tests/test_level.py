"""Level certificates: leaves, filtrations (a cone among them), retracts,
shifts, coproducts, composition and towers.

``cert_shift`` and ``tree_coproduct`` carry each witness over unchanged.
The last sections check a cone, the two-stage filtration that
``cone_node_from_map`` builds, against reference copies of the cone node
it replaced, with the view of cone(w) that node's witness was checked
against; the shift against a reference copy of the earlier path, which
carried the tree along Σ^k as a functor and solved every leaf and cone
witness's signs again; and the filtration node of a resolution against
reference copies of the cone spine that the builder made before and of
the validator that checked it cone by cone.  Reference trees are read by
reference code only (``ref_cert_validate``, ``ref_cert_shift``,
``ref_cert_to_dict``).
"""

import copy
import functools
import re
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import (HealthCheck, assume, event, given, settings,
                        strategies as st)

from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
    check_d_squared,
    check_relabelling,
    cone_space,
    induced_map_on_homology,
    is_chain_map,
    replace,
    shift_complex,
)
from dgkoszul.dgstruct import (
    DGModule,
    ValidationReport,
    exterior_algebra,
    free_module,
    polynomial_algebra,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
)
from dgkoszul.resolve import (
    SemifreeResolution,
    class_of,
    semifree_resolve,
)
from dgkoszul.level import (
    FiltrationNode,
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
    leaf_from_bijection,
    level_interval,
    tower_bound,
    tree_coproduct,
)


@pytest.fixture(scope="module")
def poly(F5, window):
    return polynomial_algebra(F5, window, [("y", 2)])


@pytest.fixture(scope="module")
def r_k_poly(poly):
    return semifree_resolve(trivial_module(poly))


@pytest.fixture(scope="module")
def cert_k_poly(r_k_poly):
    return cert_from_resolution(r_k_poly)


@pytest.fixture(scope="module")
def cert_k2(F5, window):
    """K over K[y1,y2]: three stages, and d of a top-stage label has two
    terms."""
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    return cert_from_resolution(semifree_resolve(trivial_module(a)))


def leaf_identity(base, shifts) -> Leaf:
    """Leaf whose subject *is* the canonical coproduct."""
    std = canonical_coproduct(base, shifts)
    return Leaf(std, list(shifts),
                {l: (l, base.field.one) for l in std.space})


def empty_leaf(base) -> Leaf:
    return Leaf(canonical_coproduct(base, []), [], {})


def shifted_leaf(C, k):
    """A leaf on Σ^k C over C: shift_complex and canonical_coproduct both
    scale d by (−1)^k, so every coefficient is one."""
    s = shift_complex(C, k)
    return leaf_from_bijection(C, s, [k], {l: f"s0:{l}" for l in s.space})


def two_cert(base_complex, a, b):
    """Level-2 certificate: cone of the zero map Σ^{a-1}C → Σ^bC."""
    C = base_complex
    src = shift_complex(C, a - 1)
    wmap = GradedMap.zero(src.space, shift_complex(C, b).space, 0)
    node = cone_node_from_map(wmap, src, shift_complex(C, b),
                              shifted_leaf(C, b), shifted_leaf(C, a))
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


def test_leaf_from_bijection_accepts_a_shifted_copy(poly):
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


def test_leaf_from_bijection_refuses_a_wrong_sign(F5, cert_k_poly):
    # d is −1 times the base's: the bijection onto the canonical coproduct
    # is a chain isomorphism only with a sign of −1 on alternate degrees,
    # which the earlier solver supplied and nothing supplies now; the same
    # bijection with the base's own d passes
    base = cert_k_poly.subject
    sp = base.space
    minus = Complex(sp, GradedMap(sp, sp, 1, {
        l: {t: F5.neg(v) for t, v in col.items()}
        for l, col in base.differential.cols.items()}))
    bij = {l: f"s0:{l}" for l in sp}
    solved = reference_solve_diagonal_chain_iso(
        minus, canonical_coproduct(base, [0]), bij)
    assert {c for _, c in solved.values()} == {F5.one, F5.neg(F5.one)}
    with pytest.raises(StructureError, match="not a chain map"):
        leaf_from_bijection(base, minus, [0], bij)
    assert cert_validate(LevelCertificate(
        base, base, leaf_from_bijection(base, base, [0], bij))).ok


def test_cert_from_koszul_resolution(cert_k_poly):
    assert cert_k_poly.claimed_level == 2
    assert cert_validate(cert_k_poly).ok
    d = cert_to_dict(cert_k_poly)
    assert d["claimed_level"] == 2
    assert d["tree"]["kind"] == "cone"
    kinds = {d["tree"]["left"]["kind"], d["tree"]["right"]["kind"]}
    assert kinds == {"leaf"}


def test_cert_truncated_module(poly):
    r = semifree_resolve(truncated_module(poly, "y", 2, 3))
    c = cert_from_resolution(r)
    assert c.claimed_level == 2
    assert cert_validate(c).ok


def test_cert_two_variables(F5, window):
    a = polynomial_algebra(F5, window, [("y1", 2), ("y2", 2)])
    r = semifree_resolve(trivial_module(a))
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
    # a two-copy leaf over a filtration takes the coproduct of two shifted
    # copies of that tree, stage by stage and leaf by leaf
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


def test_empty_leaf_over_a_nonzero_subject_rejected(poly):
    # a level-0 claim for K[y], which is not zero
    x = poly.carrier
    rep = cert_validate(LevelCertificate(x, x, Leaf(x, [], {})))
    assert rep.violations == ["root: empty leaf with nonzero subject"]


def test_retract_whose_section_is_not_a_chain_map_rejected(F5, window):
    # u, a cycle, sent to a of the complex a → b: d(s(u)) = b ≠ s(d(u))
    sp = GradedSpace(F5, window, {0: ["a"], 1: ["b"]})
    c = Complex(sp, GradedMap(sp, sp, 1, {"a": {"b": F5.one}}))
    leaf = leaf_identity(c, [0])
    usp = GradedSpace(F5, window, {0: ["u"]})
    u = Complex(usp, GradedMap.zero(usp, usp, 1))
    section = GradedMap(usp, leaf.subject.space, 0, {"u": {"s0:a": F5.one}})
    retraction = GradedMap.zero(leaf.subject.space, usp, 0)
    rep = cert_validate(LevelCertificate(
        c, u, RetractNode(u, leaf, section, retraction)))
    assert len(rep.violations) == 1
    assert rep.violations[0].startswith(
        "root: section not a chain map at ")


def test_tree_over_another_subject_rejected(cert_k_poly, poly):
    # the tree certifies F, the resolution of K; the claim is for K[y]
    assert cert_validate(cert_k_poly).ok
    rep = cert_validate(replace(cert_k_poly, subject=poly.carrier))
    assert rep.violations == ["root subject mismatch"]


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
    # a level-0 claim for the nonzero complex ΣΛ(x): a cone of two empty
    # leaves is empty, so its quotient stage holds none of the labels
    sx = shift_complex(exterior_algebra(F5, window, [("x", 3)]).carrier, 1)
    parts = [empty_leaf(poly.carrier), empty_leaf(poly.carrier)]
    c = LevelCertificate(poly.carrier, sx, FiltrationNode(
        sx, dict.fromkeys(sx.space, 1), parts))
    assert c.claimed_level == 0
    [msg] = cert_validate(c).violations
    assert msg.startswith("root: stage 1: quotient lacks")


def test_compose_requires_matching_base(cert_k_poly, F5, window):
    other = polynomial_algebra(F5, window, [("z", 4)])
    leaf = leaf_identity(other.carrier, [0])
    c2 = LevelCertificate(other.carrier, leaf.subject, leaf)
    with pytest.raises(StructureError):
        cert_compose(cert_k_poly, c2)


def test_missing_witness_is_a_violation(poly):
    # a leaf with its witness left out is reported, not a crash
    x = poly.carrier
    rep = cert_validate(LevelCertificate(x, x, Leaf(x, [0], None)))
    assert rep.violations == ["root: leaf witness fails: missing witness"]


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


def with_cols(cx: Complex, cols: dict) -> Complex:
    return Complex(cx.space, GradedMap(cx.space, cx.space, 1, cols))


def without(cx: Complex, x: str) -> Complex:
    """cx with the label x, its column and every term at x dropped."""
    basis = {n: [l for l in ls if l != x] for n, ls in cx.space.basis.items()}
    sp = GradedSpace(cx.field, cx.window, basis, bounds=cx.space.bounds)
    cols = {l: col for l, c in cx.differential.cols.items() if l != x
            if (col := {t: v for t, v in c.items() if t != x})}
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def moved_up(node: FiltrationNode):
    """(l, t, u): a term t of d(l) and a label u of t's degree in a stage
    above l's, or None."""
    fx, of = node.subject, node.stage_of
    for l in fx.space:
        for t in fx.d(l):
            for u in fx.space.labels(fx.space.deg(t)):
                if of[u] > of[l]:
                    return l, t, u
    return None


def rebased(q: Complex, basis: dict, window=None) -> Complex:
    """q's columns on another basis, or on another window."""
    sp = GradedSpace(q.field, window or q.window, basis, bounds=q.space.bounds)
    return Complex(sp, GradedMap(sp, sp, 1, q.differential.cols))


def filtration_fault(kind, node: FiltrationNode):
    """A copy of the filtration node with one planted fault, and the
    label its violation must name.  Each of the relabelling faults of
    FAULTS becomes the fault of the stages that takes its place."""
    fx, of, parts = node.subject, dict(node.stage_of), list(node.parts)
    l = next(l for l in fx.space if len(fx.d(l)) > 1)
    s, n = of[l], fx.space.deg(l)
    q = parts[s].subject
    if kind == "missing-label":             # a label with no stage
        del of[l]
    elif kind == "not-in-the-target":       # a stage that does not exist
        of[l] = len(parts)
    elif kind == "two-labels-to-one":       # two stages claim one label
        m = next(m for m in fx.space if of[m] != s)
        basis = {k: list(v) for k, v in q.space.basis.items()}
        basis.setdefault(fx.space.deg(m), []).append(m)
        parts[s] = replace(parts[s], subject=rebased(q, basis))
        l = m
    elif kind == "wrong-degree":            # the quotient moves a label
        basis = {k: [x for x in v if x != l]
                 for k, v in q.space.basis.items()}
        basis.setdefault(n + 2, []).append(l)
        parts[s] = replace(parts[s], subject=rebased(q, basis))
    elif kind == "zero-coefficient":        # the quotient drops a label
        parts[s] = replace(parts[s], subject=without(q, l))
    elif kind == "wrong-sign":              # a sign flipped in F's d
        cols = dict(fx.differential.cols)
        t, v = next(iter(cols[l].items()))
        cols[l] = {**cols[l], t: fx.field.neg(v)}
        return replace(node, subject=with_cols(fx, cols)), l
    elif kind == "term-above":              # F's d raises a stage
        l, t, u = moved_up(node)
        cols = dict(fx.differential.cols)
        cols[l] = {(u if x == t else x): v for x, v in cols[l].items()}
        return replace(node, subject=with_cols(fx, cols)), l
    else:                                   # a quotient on another window
        w = q.window
        parts[s] = replace(parts[s], subject=rebased(
            q, q.space.basis, DegreeWindow(w.lo - 1, w.hi + 1)))
        l = None
    return replace(node, stage_of=of, parts=parts), l


FILTRATION_FAULTS = {"missing-label": "has stage None, not one of",
                     "two-labels-to-one": "outside the stage",
                     "wrong-degree": "quotient lacks",
                     "not-in-the-target": "has stage 3, not one of",
                     "zero-coefficient": "quotient lacks",
                     "wrong-sign": "d∘d ≠ 0 at",
                     "term-above": "in stage 2",
                     "window": "is not F's"}


@pytest.mark.parametrize("kind", FILTRATION_FAULTS)
def test_cone_witness_fault_refused(cert_k2, kind):
    """Each relabelling fault the root cone witness of K over K[y1,y2]
    was checked for, planted in the stages that replace that witness, and
    two faults of the stage check's own: F's d raising a stage, and a
    quotient on another window.  One violation, at the root, naming the
    label."""
    assert cert_validate(cert_k2).ok
    bad, label = filtration_fault(kind, cert_k2.tree)
    rep = cert_validate(replace(cert_k2, tree=bad, subject=bad.subject))
    assert len(rep.violations) == 1
    assert re.match(r"root: (stage \d|label )", rep.violations[0])
    assert FILTRATION_FAULTS[kind] in rep.violations[0]
    assert label is None or repr(label) in rep.violations[0]


def test_filtration_quotient_must_have_fs_in_stage_d(F5, window):
    """A stage quotient's d is the part of F's d inside the stage.  The
    stages of a resolution over a polynomial algebra have no such part
    (each stage's degrees have one parity), so a one-stage filtration of
    the acyclic complex a → b plants the fault: a quotient with d = 0."""
    sp = GradedSpace(F5, window, {0: ["a"], 1: ["b"]})
    c = Complex(sp, GradedMap(sp, sp, 1, {"a": {"b": F5.one}}))
    leaf = leaf_identity(c, [0])
    node = FiltrationNode(leaf.subject, dict.fromkeys(leaf.subject.space, 0),
                          [leaf])
    assert cert_validate(LevelCertificate(c, leaf.subject, node)).ok
    q = with_cols(leaf.subject, {})
    bad = replace(node, parts=[replace(leaf, subject=q)])
    assert cert_validate(LevelCertificate(c, leaf.subject, bad)).violations \
        == ["root: stage 0: quotient's d differs from F's at 's0:a'"]


def test_level_interval_checks_each_witness_once(F5, monkeypatch):
    # K3 over K[y1,y2,y3] has class 4: a filtration of four stages with a
    # leaf on each.  The leaf witnesses are relabellings and the stages
    # are checked by d² on F, without is_chain_map; ε was checked when r
    # was built, so class_of makes no check: no cone map, no second check
    # in the builder
    from dgkoszul import gradedcomplex, level, resolve
    a = polynomial_algebra(F5, DegreeWindow(-8, 8),
                           [("y1", 2), ("y2", 2), ("y3", 2)])
    r = semifree_resolve(trivial_module(a))
    calls = []
    checked = gradedcomplex.is_chain_map

    def counted(*args):
        calls.append(args)
        return checked(*args)

    for mod in (gradedcomplex, level, resolve):
        monkeypatch.setattr(mod, "is_chain_map", counted)
    side = level.level_interval(r)
    assert side.upper == 4 and side.valid
    assert calls == []


def test_cert_shift_checks_each_cone_map_once(F5, monkeypatch):
    """Shifting K3's certificate over K[y1,y2,y3] carries its witnesses
    over and re-solves nothing, so it checks no chain map; validating the
    shift checks its stages by d² on F and no chain map either."""
    from dgkoszul import gradedcomplex, level
    a = polynomial_algebra(F5, DegreeWindow(-8, 8),
                           [("y1", 2), ("y2", 2), ("y3", 2)])
    cert = cert_from_resolution(semifree_resolve(trivial_module(a)))
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
    assert not calls


def test_shift_and_compose_keep_a_wrong_sign(cert_k2):
    """Shifting and composing carry F's d over as it is, up to the
    shift's global sign, so a sign flipped in F's d for K over K[y1,y2]
    still fails validation, at the same label: inside the retract (root.I)
    under composition, and under the first copy's tag with two copies.
    The shift -3 cuts Σ^{-3} F at the window top (F reaches it), and the
    flipped label, in degree 2, stays inside."""
    tree, _ = filtration_fault("wrong-sign", cert_k2.tree)
    bad = replace(cert_k2, tree=tree, subject=tree.subject)
    [msg] = cert_validate(bad).violations
    stage, label = re.fullmatch(r"root: (stage \d): d∘d ≠ 0 at '(.*)'",
                                msg).groups()
    for k in (1, 2):
        assert cert_validate(cert_shift(bad, k)).violations == [msg]
    top = bad.subject.window.hi
    for shifts, at in (([0], label), ([0, 0], f"s0:{label}"),
                       ([-3], label)):
        leaf = leaf_identity(bad.subject, shifts)
        comp = cert_compose(LevelCertificate(bad.subject, leaf.subject, leaf),
                            bad)
        assert comp.tree.inner.subject.window.hi == top
        assert cert_validate(comp).violations == [
            f"root.I: {stage}: d∘d ≠ 0 at {at!r}"]


@pytest.mark.parametrize("shifts", [[-3], [-3, -3], [-1]])
def test_compose_cuts_a_leaf_at_the_window_top(cert_k_poly, shifts):
    """F of K over K[y] (F_5, ±16) reaches degree 16, so Σ^k F for k < 0
    reaches past the window, and the leaf's subject is the coproduct cut
    to the window.  Σ^k of F's certificate is cut alike: the inner subject
    carries exactly the leaf subject's labels, "s0:" stripped for one
    copy, and the level-2 composite validates."""
    leaf = leaf_identity(cert_k_poly.subject, shifts)
    comp = cert_compose(LevelCertificate(cert_k_poly.subject, leaf.subject,
                                         leaf), cert_k_poly)
    sp, inner = leaf.subject.space, comp.tree.inner.subject.space
    one = len(shifts) == 1
    assert {(l[3:] if one else l): sp.deg(l) for l in sp} == {
        l: inner.deg(l) for l in inner}
    assert inner.window.hi == 16 < cert_k_poly.subject.window.hi - shifts[0]
    assert comp.claimed_level == 2 and cert_validate(comp).ok


@pytest.mark.parametrize("k", [40, -40])
def test_compose_refuses_a_leaf_whose_window_misses_the_inner(cert_k_poly,
                                                              k):
    """Σ^k F for F of K over K[y] (F_5, ±16) lies wholly outside the
    window, so the leaf's subject is empty and nothing of Σ^k F is left
    to substitute: refused, naming both windows."""
    leaf = leaf_identity(cert_k_poly.subject, [k])
    assert leaf.subject.space.total_dim() == 0
    with pytest.raises(StructureError, match=re.escape(
            f"window [-16, 16] misses the subject's window "
            f"[{-16 - k}, {16 - k}]")):
        cert_compose(LevelCertificate(cert_k_poly.subject, leaf.subject,
                                      leaf), cert_k_poly)


def test_cutting_a_retract_is_refused(cert_k_poly):
    """A cone whose target is certified by a composite, a retract node,
    would cut that retract to the cone's window: refused when built."""
    C = cert_k_poly.subject
    leaf = shifted_leaf(C, 1)
    comp = cert_compose(LevelCertificate(C, leaf.subject, leaf), cert_k_poly)
    assert isinstance(comp.tree, RetractNode) and cert_validate(comp).ok
    src, tgt = shift_complex(C, 2), shift_complex(C, 1)
    w = GradedMap.zero(src.space, tgt.space, 0)
    with pytest.raises(StructureError,
                       match="cannot cut a RetractNode to a window"):
        cone_node_from_map(w, src, tgt, comp.tree, shifted_leaf(C, 3))


@pytest.mark.parametrize("shifts", [[3], [3, 3], [0]])
def test_compose_keeps_uncut_leaves(cert_k_poly, shifts):
    leaf = leaf_identity(cert_k_poly.subject, shifts)
    comp = cert_compose(LevelCertificate(cert_k_poly.subject, leaf.subject,
                                         leaf), cert_k_poly)
    assert comp.claimed_level == 2 and cert_validate(comp).ok


def test_filtration_check_reads_each_label_once(F5, monkeypatch):
    """Validating K3's certificate over K[y1,y2,y3] (±8) checks no chain
    map and calls each part subject's Complex.d once per label, in its
    leaf check: the stage check reads F's stored columns."""
    from dgkoszul import gradedcomplex, level
    a = polynomial_algebra(F5, DegreeWindow(-8, 8),
                           [("y1", 2), ("y2", 2), ("y3", 2)])
    cert = cert_from_resolution(semifree_resolve(trivial_module(a)))
    parts = {id(p.subject) for p in cert.tree.parts}
    chain_maps, d_calls = [], Counter()
    checked, d = gradedcomplex.is_chain_map, Complex.d

    def counted(*args):
        chain_maps.append(args)
        return checked(*args)

    def counted_d(self, combo_or_label):
        if id(self) in parts:
            d_calls[id(self), str(combo_or_label)] += 1
        return d(self, combo_or_label)

    for mod in (gradedcomplex, level):
        monkeypatch.setattr(mod, "is_chain_map", counted)
    monkeypatch.setattr(Complex, "d", counted_d)
    assert cert_validate(cert).ok
    fx = cert.subject.space
    assert not chain_maps and len(parts) == 4
    assert set(d_calls.values()) == {1}
    assert all(l in fx for _, l in d_calls)
    assert sum(d_calls.values()) == fx.total_dim()


def test_shift_coproduct_and_compose_solve_and_check_nothing(cert_k_poly,
                                                             monkeypatch):
    """cert_shift, tree_coproduct and cert_compose carry witnesses and
    maps over: no relabelling and no chain map is checked until the
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

    for name in ("check_relabelling", "is_chain_map"):
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
    """cone() checks w when the cone is built, with the message the
    validator gave before: w sends one label l with d(l) != 0 to itself
    and the rest to 0, so d(w(l)) != w(d(l)).  For w = id, a sign flipped
    in the cone's d at a term that crosses the stages (c1: to c2:) leaves
    both stage quotients as they were, and d² on the cone catches it."""
    C = cert_k_poly.subject
    src, tgt = shift_complex(C, 1), shift_complex(C, 1)
    l = next(l for l in src.space if src.d(l))
    bad = GradedMap(src.space, tgt.space, 0, {l: {l: F5.one}})
    with pytest.raises(StructureError, match=re.escape(
            "cone of a non-chain-map; first failure")):
        cone_node_from_map(bad, src, tgt, shifted_leaf(C, 1),
                           shifted_leaf(C, 2))
    ident = GradedMap(src.space, tgt.space, 0,
                      {l: {l: F5.one} for l in src.space})
    node = cone_node_from_map(ident, src, tgt, shifted_leaf(C, 1),
                              shifted_leaf(C, 2))
    assert cert_validate(LevelCertificate(C, node.subject, node)).ok
    cx, cols = node.subject, dict(node.subject.differential.cols)
    x = next(x for x in cx.space if x.startswith("c1:")
             and src.d(x[3:]) and cx.space.deg(x) + 2 <= cx.window.hi)
    cols[x] = {t: (F5.neg(v) if t.startswith("c2:") else v)
               for t, v in cols[x].items()}
    flipped = replace(node, subject=with_cols(cx, cols))
    [msg] = cert_validate(LevelCertificate(C, flipped.subject,
                                           flipped)).violations
    assert re.fullmatch(r"root: stage 1: d∘d ≠ 0 at 'c1:.*'", msg)


def test_level_interval_realizes_each_generator_once(F5, monkeypatch):
    """For K3 over K[y1,y2,y3]: each generator's columns are computed once,
    the builder forms no direct sum, the validator makes no relabel copy,
    and from semifree_resolve on, through class_of and level_interval,
    ε is checked as a chain map once, when the resolution is built."""
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
    r = semifree_resolve(trivial_module(a))
    assert sorted(parts) == sorted(gl for gl, _, _ in r.generators)
    assert len(checks) == 1
    side = level_interval(r)
    assert side.upper == 4 and side.valid
    assert not [p for p in relabels if "cert_validate" in p]
    assert not [p for p in sums if "cert_from_resolution" in p]
    assert len(checks) == 1


def test_level_interval_of_the_zero_module(F5, window):
    """The zero module has level 0: class 0, lower bound 0 and the empty
    certificate, which validates; never the interval [1, 0]."""
    a = polynomial_algebra(F5, window, [("y", 2)])
    sp = GradedSpace(F5, window, {}, bounds=(0, 0))
    zero = DGModule(Complex(sp, GradedMap.zero(sp, sp, 1)), a,
                    lambda ml, x: {})
    side = level_interval(semifree_resolve(zero))
    assert (side.cls, side.lower, side.upper, side.valid) == (0, 0, 0, True)


# -------------------------------------------------------------------------
# the cone against the earlier cone node
# -------------------------------------------------------------------------
# Verbatim copies, apart from their names, of the earlier cone node, its
# builder, the view of cone(w) its witness was checked against, the cone()
# that stored the view's d, and the serialization; ref_cert_validate below
# holds the validator's cone branch.

@dataclass
class RefConeNode:
    """subject ≅ cone(w) for a chain map w : Σ⁻¹(right.subject) →
    left.subject, witnessed by a relabelling of the subject onto the
    cone's c1:/c2: labels."""
    subject: Complex
    left: object
    right: object
    w: GradedMap
    witness: dict | None          # {label: (target label, coefficient)}
    name: str = "cone"

    @property
    def claimed(self) -> int:
        return self.left.claimed + self.right.claimed


class RefConeView:
    """Mapping cone of a map f : source → target, d evaluated on demand:
    d(c1:x) = -c1:dx + c2:f(x), d(c2:y) = c2:dy, and 0 at the top of the
    window.  Only ``checked`` checks that f is a chain map."""

    def __init__(self, fmap: GradedMap, source: Complex, target: Complex):
        self.space = cone_space(source, target)
        self.field = target.field
        self._parts = (fmap, source, target)

    def checked(self) -> "RefConeView":
        ok, witness = is_chain_map(*self._parts)
        if not ok:
            raise StructureError(
                f"cone of a non-chain-map; first failure {witness[:2]}")
        return self

    def d(self, combo_or_label) -> dict:
        f = self.field
        if isinstance(combo_or_label, str):
            combo_or_label = {combo_or_label: f.one}
        fmap, source, target = self._parts
        out: dict = {}
        for l, c in combo_or_label.items():
            if self.space.deg(l) == self.space.window.hi:
                continue
            x = l[3:]
            # each term goes straight into the sum under its c1:/c2: label
            for tag, k, v in ((("c1:", f.neg(c), source.d(x)),
                               ("c2:", c, fmap.apply_label(x)))
                              if l.startswith("c1:") else
                              (("c2:", c, target.d(x)),)):
                for t, y in v.items():
                    t = tag + t
                    if s := f.from_int(out.get(t, 0) + f.mul(k, y)):
                        out[t] = s
                    else:
                        del out[t]
        return out


def ref_cone(fmap: GradedMap, source: Complex, target: Complex) -> Complex:
    """Mapping cone of a chain map: ``RefConeView`` with d stored."""
    view = RefConeView(fmap, source, target).checked()
    cols = {l: img for l in view.space if (img := view.d(l))}
    return Complex(view.space, GradedMap(view.space, view.space, 1, cols))


def ref_cone_node_from_map(w: GradedMap, source: Complex, target: Complex,
                           left, right) -> RefConeNode:
    """Cone node whose subject is cone(w) itself; left must certify the
    target, right the suspension of the source."""
    if not _complexes_equal(left.subject, target):
        raise StructureError("left subtree must certify the cone target")
    if not _complexes_equal(right.subject, shift_complex(source, 1)):
        raise StructureError("right subtree must certify the shifted "
                             "source")
    cx = ref_cone(w, source, target)
    return RefConeNode(cx, left, right, w,
                       {l: (l, cx.field.one) for l in cx.space})


def ref_cert_to_dict(c: LevelCertificate) -> dict:
    def node_dict(node):
        if isinstance(node, Leaf):
            return {"kind": "leaf", "shifts": list(node.shifts),
                    "level": node.claimed}
        if isinstance(node, RefConeNode):
            return {"kind": "cone", "level": node.claimed,
                    "left": node_dict(node.left),
                    "right": node_dict(node.right)}
        if isinstance(node, FiltrationNode):
            # written as the left-nested spine of its stages' cones
            spine = node.parts[0] if node.parts else Leaf(node.subject, [], {})
            for part in node.parts[1:]:
                spine = RefConeNode(node.subject, spine, part, None, None)
            return node_dict(spine)
        if isinstance(node, RetractNode):
            return {"kind": "retract", "level": node.claimed,
                    "inner": node_dict(node.inner)}
        raise StructureError("unknown node")

    dims = {str(n): c.subject.space.dim(n)
            for n in c.subject.space.degrees()}
    return {"claimed_level": c.claimed_level,
            "subject_dims": dims,
            "tree": node_dict(c.tree)}


PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


FIELDS = {"F_2": FieldSpec.prime(2), "F_5": FieldSpec.prime(5),
          "Q": FieldSpec.rationals()}


@functools.cache
def cone_base(field: str, base: str) -> Complex:
    """The K[y] carrier (|y| = 2), the Λ(x) carrier (|x| = 3), or F of K
    over K[y], on ±10."""
    f, win = FIELDS[field], DegreeWindow(-10, 10)
    if base == "Λ(x)":
        return exterior_algebra(f, win, [("x", 3)]).carrier
    a = polynomial_algebra(f, win, [("y", 2)])
    if base == "K[y]":
        return a.carrier
    return semifree_resolve(trivial_module(a)).fx


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_cone_matches_reference(data):
    """cone(w) for w : Σ^{a-1}C → Σ^bC, with (a, b) in 0..3 and w = 0, or
    a nonzero scalar times the identity when a − 1 = b, and leaves on Σ^bC
    and Σ^aC: the two-stage filtration against the earlier cone node.  The
    serialized forms, subjects and verdicts agree, and each part is the
    reference's leaf cut to the cone's window, its labels tagged c2: or
    c1:.  Planted faults, over F: a sign flipped in a leaf witness (not
    over F_2, where no sign flips), at a label whose d stays in the
    window, makes both refuse; a w that is no chain map is refused when
    the filtration is built, and when the reference's cone node is
    validated, at the same first failure."""
    kind = data.draw(st.sampled_from(
        ["none", "flipped-witness", "not-a-chain-map"]))
    field = data.draw(st.sampled_from(
        ["F_5", "Q"] if kind == "flipped-witness" else sorted(FIELDS)))
    base = data.draw(st.sampled_from(
        ["F"] if kind != "none" else ["K[y]", "Λ(x)", "F"]))
    C, f = cone_base(field, base), FIELDS[field]
    scalar = None
    if kind == "not-a-chain-map" or data.draw(st.booleans()):
        a = data.draw(st.integers(1, 3))
        b = a - 1
        if kind != "not-a-chain-map":
            scalar = f.from_int(data.draw(st.sampled_from([1, 2, -1, 3])))
            assume(scalar)
    else:
        a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    event(f"{kind}, w {'0' if scalar is None else '≠ 0'}")
    src, tgt = shift_complex(C, a - 1), shift_complex(C, b)
    w = GradedMap(src.space, tgt.space, 0, {} if scalar is None else
                  {l: {l: scalar} for l in src.space})
    left, right = shifted_leaf(C, b), shifted_leaf(C, a)
    win = cone_space(src, tgt).window
    if kind == "not-a-chain-map":
        l = data.draw(st.sampled_from([l for l in src.space if src.d(l)]))
        bad = GradedMap(src.space, tgt.space, 0, {l: {l: f.one}})
        with pytest.raises(StructureError) as refused:
            cone_node_from_map(bad, src, tgt, left, right)
        rnode = replace(ref_cone_node_from_map(w, src, tgt, left, right),
                        w=bad)
        assert ref_cert_validate(LevelCertificate(
            C, rnode.subject, rnode)).violations == [
            f"root: cone witness fails: {refused.value}"]
        return
    if kind == "flipped-witness":
        right_side = data.draw(st.booleans())
        leaf = right if right_side else left
        sp = leaf.subject.space
        l = data.draw(st.sampled_from([l for l in sp if leaf.subject.d(l)
                                       and win.lo <= sp.deg(l) < win.hi]))
        t, v = leaf.witness[l]
        leaf = replace(leaf, witness={**leaf.witness, l: (t, f.neg(v))})
        left, right = (left, leaf) if right_side else (leaf, right)
    node = cone_node_from_map(w, src, tgt, left, right)
    rnode = ref_cone_node_from_map(w, src, tgt, left, right)
    new = LevelCertificate(C, node.subject, node)
    ref = LevelCertificate(C, rnode.subject, rnode)
    assert cert_to_dict(new) == ref_cert_to_dict(ref)
    assert _complexes_equal(new.subject, ref.subject)
    assert node.subject.window == win
    ok = cert_validate(new).ok
    assert ok == ref_cert_validate(ref).ok == (kind == "none")
    for part, leaf, tag in zip(node.parts, (left, right), ("c2", "c1"),
                               strict=True):
        sp = leaf.subject.space
        kept = [l for l in sp if sp.deg(l) in win]
        assert list(part.subject.space) == [f"{tag}:{l}" for l in kept]
        assert part.subject.window == win and part.shifts == leaf.shifts
        for l in kept:
            assert part.subject.space.deg(f"{tag}:{l}") == sp.deg(l)
            assert part.subject.d(f"{tag}:{l}") == {
                f"{tag}:{t}": v for t, v in leaf.subject.d(l).items()
                if sp.deg(t) in win}
        assert part.witness == {f"{tag}:{l}": leaf.witness[l] for l in kept}
    assert node.stage_of == {l: int(l[:3] == "c1:") for l in node.subject.space}


# -------------------------------------------------------------------------
# the shift against the earlier path
# -------------------------------------------------------------------------
# Verbatim copies, apart from their names, of the earlier shift: the tree
# carried along Σ^k as a functor, each leaf and cone witness re-solved from
# its target labels alone; and of the sign solver it called, with its one
# division written as a product with an inverse.

class RefSuspension:
    """Σ^k as a functor: complexes shift, maps keep their columns."""

    def __init__(self, k: int):
        self.k = k

    def on_complex(self, cx: Complex) -> Complex:
        return shift_complex(cx, self.k)

    def on_map(self, gm: GradedMap, src: Complex, tgt: Complex) -> GradedMap:
        return GradedMap(src.space, tgt.space, gm.shift, gm.cols)


def reference_solve_diagonal_chain_iso(source, target, bijection):
    """The witness {l: (bijection[l], c_l)} whose scalars c_l make it a
    chain map, found by constraint propagation over the differential
    graph; None when the bijection misses a source label, sends one
    outside the target or its degree, is not injective, or when the
    constraints are inconsistent or leave a required coefficient zero."""
    f = target.field
    tsp = target.space
    coeff: dict = {}
    order = list(source.space)
    if len(set(bijection.values())) != len(bijection) or any(
            bijection.get(l) not in tsp
            or tsp.deg(bijection[l]) != source.space.deg(l) for l in order):
        return None
    # undirected constraint graph: c_a * (d T a)_{T b} = (d a)_b * c_b.
    # Propagation makes the coefficients agree on T(supp d a), and T is
    # injective: the map is a chain map iff d T a has as many terms as d a.
    adj: dict = {l: [] for l in order}
    for a in order:
        da = source.d(a)
        dta = target.d(bijection[a])
        if len(dta) != len(da):
            return None
        for b, v in da.items():
            w = dta.get(bijection[b], f.zero)
            if f.is_zero(w):
                return None
            adj[a].append((b, v, w))
            adj[b].append((a, w, v))  # reversed relation
    for seed in order:
        if seed in coeff:
            continue
        coeff[seed] = f.one
        work = [seed]
        while work:
            a = work.pop()
            for b, v, w in adj[a]:
                c_b = f.mul(f.mul(coeff[a], w), f.inv(v))
                if b in coeff:
                    if coeff[b] != c_b:
                        return None
                else:
                    coeff[b] = c_b
                    work.append(b)
    return {l: (bijection[l], coeff[l]) for l in order}


def ref_signed(subject, target, bijection):
    phi = reference_solve_diagonal_chain_iso(subject, target, bijection)
    if phi is None:
        raise StructureError("no diagonal iso onto the witness target")
    return phi


def ref_leaf_from_bijection(base, subject, shifts, bijection):
    std = canonical_coproduct(base, shifts, subject.space.window)
    return Leaf(subject, list(shifts), ref_signed(subject, std, bijection))


def ref_witnessed_cone(subject, left, right, w, bijection):
    built = RefConeView(w, shift_complex(right.subject, -1), left.subject)
    return RefConeNode(subject, left, right, w,
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
        if not isinstance(node, (Leaf, RefConeNode)):
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


@st.composite
def resolutions(draw):
    """A minimal, exhausted resolution of a trivial, free or truncated
    module over K[y] or K[y1,y2], over F_2, F_5 or Q."""
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
    r = semifree_resolve(m)
    assume(class_of(r)[1])                  # exhausted in the window
    return r


def preorder(node) -> list:
    kids = {RefConeNode: ("left", "right"), RetractNode: ("inner",)}
    subs = (node.parts if isinstance(node, FiltrationNode) else
            [getattr(node, kid) for kid in kids.get(type(node), ())])
    return [node] + [n for sub in subs for n in preorder(sub)]


def targets(witness: dict) -> dict:
    return {l: t for l, (t, _) in witness.items()}


def spine_leaves(node) -> list:
    """The leaves of a left-nested cone spine, lowest stage first."""
    if isinstance(node, RefConeNode):
        return spine_leaves(node.left) + [node.right]
    return [node]


def test_cert_shift_of_a_composite(cert_k_poly):
    """A composite has retract nodes: the shift keeps each section and
    retraction's columns on the shifted spaces, as the earlier path does
    to the composite's cone spine form, and both validate; the shift's
    serialized form is the earlier path's."""
    upper = two_cert(cert_k_poly.subject, 3, 1)
    comp = cert_compose(upper, cert_k_poly)
    spine = LevelCertificate(comp.base, comp.subject, ref_spine_of(comp.tree))
    for k in (1, -2):
        new, ref = cert_shift(comp, k), ref_cert_shift(spine, k)
        assert cert_validate(new).ok and ref_cert_validate(ref).ok
        assert cert_to_dict(new) == ref_cert_to_dict(ref)
        pairs = [(a, b) for a, b in zip(
            [n for n in preorder(new.tree) if isinstance(n, RetractNode)],
            [n for n in preorder(ref.tree) if isinstance(n, RetractNode)],
            strict=True)]
        assert len(pairs) == 2 and all(
            (a.section, a.retraction) == (b.section, b.retraction)
            for a, b in pairs)


def not_one(f):
    """2 over F_5 and -1/2 over Q; over F_2 the only nonzero scalar, 1."""
    if f.kind == "rationals":
        return f.mul(f.from_int(-1), f.inv(f.from_int(2)))
    return f.from_int(2) if f.p == 5 else f.one


def scaled(f, witness: dict) -> dict:
    """witness times not_one: a chain isomorphism still, with
    coefficients no re-solving would give."""
    return {l: (t, f.mul(not_one(f), v)) for l, (t, v) in witness.items()}


def scaled_root(c: LevelCertificate) -> LevelCertificate:
    return replace(c, tree=replace(c.tree, witness=scaled(
        c.base.field, c.tree.witness)))


def scaled_parts(c: LevelCertificate) -> LevelCertificate:
    return replace(c, tree=replace(c.tree, parts=[
        replace(p, witness=scaled(c.base.field, p.witness))
        for p in c.tree.parts]))


@PROPERTY
@given(resolutions(), st.integers(-3, 3))
def test_shift_matches_reference(r, k):
    """F's filtration node, its part witnesses scaled, against the earlier
    path on F's cone spine, its root witness scaled: the spine's
    serialized form and subject; its leaves' subjects, shifts and targets
    as parts; the same stages; both validate.  Shifting back gives F and
    the parts, scaled witnesses included."""
    ref = ref_cert_shift(scaled_root(ref_spine_from_resolution(r)), k)
    fc = scaled_parts(cert_from_resolution(r))
    fnew = cert_shift(fc, k)
    assert cert_to_dict(fnew) == ref_cert_to_dict(ref)
    assert _complexes_equal(fnew.subject, ref.subject)
    assert fnew.tree.stage_of == fc.tree.stage_of
    for a, b in zip(fnew.tree.parts, spine_leaves(ref.tree), strict=True):
        assert _complexes_equal(a.subject, b.subject)
        assert a.shifts == b.shifts
        assert targets(a.witness) == targets(b.witness)
    assert cert_validate(fnew).ok and ref_cert_validate(ref).ok
    back = cert_shift(fnew, -k)
    assert _complexes_equal(back.subject, fc.subject)
    for a, b in zip(back.tree.parts, fc.tree.parts, strict=True):
        assert a.witness == b.witness
        assert _complexes_equal(a.subject, b.subject)


@PROPERTY
@given(resolutions(), st.integers(-3, 3))
def test_two_copy_compose_keeps_a_scaled_witness(r, k):
    """A two-copy leaf over F whose witness is scaled by a scalar other
    than 1, over F's filtration node with its part witnesses scaled: the
    composite's section keeps that scalar; each copy keeps the leaf shifts
    the earlier path gives Σ^k of F's cone spine, and the coefficients of
    the inner witnesses on the labels its window keeps; the composite
    validates, and so does its cone spine form under the earlier
    validator.  A leaf shift that puts a degree of F outside the window
    cuts the leaf's subject and Σ^k of F's certificate alike."""
    f = r.module.over.field
    c = scaled_parts(cert_from_resolution(r))
    leaf = leaf_identity(c.subject, [k, k])
    upper = scaled_root(LevelCertificate(c.subject, leaf.subject, leaf))
    comp = cert_compose(upper, c)
    assert comp.tree.section.cols == {l: {t: not_one(f)} for l, t in
                                      targets(leaf.witness).items()}
    inner = comp.tree.inner
    assert sorted(inner.subject.space) == sorted(leaf.subject.space)
    ref = spine_leaves(ref_cert_shift(ref_spine_from_resolution(r), k).tree)
    for a, b, rb in zip(inner.parts, c.tree.parts, ref, strict=True):
        assert a.shifts == rb.shifts * 2
        assert {l: v for l, (_, v) in a.witness.items()} == {
            f"s{i}:{l}": v for i in range(2)
            for l, (_, v) in b.witness.items()
            if f"s{i}:{l}" in a.subject.space}
    assert cert_validate(comp).ok
    assert ref_cert_validate(LevelCertificate(
        comp.base, comp.subject, ref_spine_of(comp.tree))).ok


# -------------------------------------------------------------------------
# the filtration node against the cone spine
# -------------------------------------------------------------------------
# Verbatim copies, apart from their names, of the earlier builder, which
# made a left spine of cone nodes over the subcomplexes F^{<=s}, and of
# the earlier validator, which checked each cone over its whole subject.

def ref_spine_from_resolution(r: SemifreeResolution) -> LevelCertificate:
    """Certificate with base A from the stage filtration of a minimal,
    exhausted resolution: stage quotients are leaves (coproducts of shifts
    of A), consecutive stages are cones.  Every witness is a relabelling
    with coefficient one: d(e⊗a) is (-1)^{|e|}e⊗da, as in Σ^{-|e|}A, plus
    terms of lower stages, so F^{<=s} is cone(w) label for label, w the
    part of d that leaves stage s.  The stage complexes come from one pass
    over the realized F, and the root subject is F itself.  Nothing is
    checked here: callers validate with cert_validate, as level_interval
    does."""
    cls, exhausted = class_of(r)
    if not exhausted:
        raise StructureError("resolution not exhausted; refusing to "
                             "certify a truncated class")
    base = r.module.over.carrier
    one = base.field.one
    fx = r.fx
    stages = sorted({s for _, _, s in r.generators})
    if not stages:
        return LevelCertificate(base, fx, empty_leaf(base))
    stage_of = {gl: s for gl, _, s in r.generators}
    of = {l: stage_of[l.split("@", 1)[0]] for l in fx.space}
    # one pass over F: the basis of each stage quotient and of each
    # subcomplex F^{<=s}, and each label's d split into its own stage's
    # part (the quotient's) and the rest (w's)
    by_stage = {s: ({}, {}, {}, {}) for s in stages}  # basis, d, w, F^{<=s}
    for l, s in of.items():
        n = fx.space.deg(l)
        by_stage[s][0].setdefault(n, []).append(l)
        for st in stages[stages.index(s):]:
            by_stage[st][3].setdefault(n, []).append(l)
        for t, v in fx.d(l).items():
            by_stage[s][1 if of[t] == s else 2].setdefault(l, {})[t] = v

    def on(basis, cols) -> Complex:
        sp = GradedSpace(base.field, fx.window, basis, bounds=fx.space.bounds)
        return Complex(sp, GradedMap(sp, sp, 1, cols))

    def quotient_leaf(stage):
        gens = sorted((gl, d) for gl, d, s in r.generators if s == stage)
        q = fx if len(stages) == 1 else on(*by_stage[stage][:2])
        shifts = [-d for _, d in gens]
        slot = {gl: f"s{i}:" for i, (gl, _) in enumerate(gens)}
        return Leaf(q, shifts, {l: (slot[g] + al, one) for l in q.space
                                for g, al in [l.split("@", 1)]})

    # the lowest stage is its own quotient: F^{<=first} = F^{=first}
    node = quotient_leaf(stages[0])
    for st in stages[1:]:
        sub = node.subject
        total = fx if st == stages[-1] else on(by_stage[st][3], {
            l: c for l, c in fx.differential.cols.items() if of[l] <= st})
        quot = quotient_leaf(st)
        # w : Σ^{-1}quot → sub is the part of d that leaves the new stage
        qs = shift_complex(quot.subject, -1)
        w = GradedMap(qs.space, sub.space, 0, by_stage[st][2])
        node = RefConeNode(total, node, quot, w, {
            l: (("c1:" if of[l] == st else "c2:") + l, one)
            for l in total.space})
    cert = LevelCertificate(base, node.subject, node)
    if cert.claimed_level != cls:
        raise RuntimeError("internal: certificate level disagrees with "
                           "resolution class")
    return cert


def ref_cert_validate(c: LevelCertificate) -> ValidationReport:
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
        elif isinstance(node, RefConeNode):
            try:
                if None in (node.w, node.witness):
                    raise StructureError("missing witness")
                built = RefConeView(node.w,
                                    shift_complex(node.right.subject, -1),
                                    node.left.subject).checked()
                check_relabelling(node.witness, node.subject, built)
            except StructureError as e:
                rep.fail(f"{path}: cone witness fails: {e}")
                return
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



def with_spine_leaf(node, s, leaf):
    """The spine with its stage-s leaf replaced."""
    if not isinstance(node, RefConeNode):
        return leaf
    if s == len(spine_leaves(node)) - 1:
        return replace(node, right=leaf)
    return replace(node, left=with_spine_leaf(node.left, s, leaf))


def ref_spine_of(node):
    """A tree in the earlier form, for the reference code to read: each
    filtration node as the left-nested spine of cones over its F^{≤s}, as
    ref_spine_from_resolution builds it."""
    if isinstance(node, RetractNode):
        return replace(node, inner=ref_spine_of(node.inner))
    if not isinstance(node, FiltrationNode):
        return node
    fx, of, one = node.subject, node.stage_of, node.subject.field.one
    spine = ref_spine_of(node.parts[0])
    for s, part in enumerate(node.parts[1:], start=1):
        quot, total = ref_spine_of(part), fx
        if s < len(node.parts) - 1:
            sp = GradedSpace(fx.field, fx.window, {
                n: [l for l in ls if of[l] <= s]
                for n, ls in fx.space.basis.items()}, bounds=fx.space.bounds)
            total = Complex(sp, GradedMap(sp, sp, 1, {
                l: col for l, col in fx.differential.cols.items()
                if of[l] <= s}))
        w = GradedMap(shift_complex(quot.subject, -1).space,
                      spine.subject.space, 0, {
                          l: col for l in quot.subject.space
                          if (col := {t: v for t, v in fx.d(l).items()
                                      if of[t] < s})})
        spine = RefConeNode(total, spine, quot, w, {
            l: (("c1:" if of[l] == s else "c2:") + l, one)
            for l in total.space})
    return spine


def with_part(c: LevelCertificate, s: int, part) -> LevelCertificate:
    return replace(c, tree=replace(c.tree, parts=[
        part if i == s else p for i, p in enumerate(c.tree.parts)]))


@st.composite
def small_resolutions(draw):
    """A minimal resolution of K over K[y0,...] on one to three
    generators of degree 2 or 4, or of K[y0]/(y0^p) over K[y0], over F_2,
    F_5 or Q, on a window 5 to 7 degrees past its last generator, so that
    it is exhausted."""
    f = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5),
                              FieldSpec.rationals()]))
    degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    if len(degs) == 1 and draw(st.booleans()):
        p = draw(st.integers(1, 3))
        last, make = p * degs[0] - 1, lambda a: truncated_module(
            a, "y0", degs[0], p)
    else:
        last, make = sum(d - 1 for d in degs), trivial_module
    hi = last + draw(st.integers(5, 7))
    a = polynomial_algebra(f, DegreeWindow(-hi, hi),
                           [(f"y{i}", d) for i, d in enumerate(degs)])
    r = semifree_resolve(make(a))
    assert class_of(r)[1]
    return r


@settings(PROPERTY, max_examples=200)
@given(small_resolutions(), st.data())
def test_filtration_validator_matches_cone_spine(r, data):
    """The filtration node and its one-pass check against the cone spine
    and its cone-by-cone check, with one planted fault or none: a term of
    F's d moved into a higher stage or a sign flipped in F's d (planted in
    F, before either builder runs), a sign flipped in a stage's leaf
    witness, a label dropped from the stages (from the spine's root
    witness), or a stage quotient with a label dropped.  The verdicts
    agree (a spine builder that refuses is a failed verdict), each
    violation names a stage and a label, and the serialized forms are
    equal."""
    fx, f = r.fx, r.module.over.field
    node = cert_from_resolution(r).tree
    kinds = ["none", "flipped-d", "flipped-witness", "dropped-label",
             "part-subject"] + (["term-above"] if moved_up(node) else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("flipped-d", "term-above"):
        cols = dict(fx.differential.cols)
        if kind == "flipped-d":
            l = data.draw(st.sampled_from(sorted(cols)))
            t = data.draw(st.sampled_from(sorted(cols[l])))
            cols[l] = {**cols[l], t: f.neg(cols[l][t])}
        else:
            l, t, u = moved_up(node)
            cols[l] = {(u if x == t else x): v for x, v in cols[l].items()}
        # planted after the resolution's own checks passed, which would
        # refuse this F: what is tested is the certificate
        r = copy.copy(r)
        r.fx = with_cols(fx, cols)
    new = cert_from_resolution(r)
    try:
        ref = ref_spine_from_resolution(r)
    except StructureError:
        ref = None
    stage = data.draw(st.integers(0, len(new.tree.parts) - 1))
    part = new.tree.parts[stage]
    if kind == "flipped-witness":
        l = data.draw(st.sampled_from(sorted(part.witness)))

        def flip(leaf):
            t, v = leaf.witness[l]
            return replace(leaf, witness={**leaf.witness, l: (t, f.neg(v))})
        new = with_part(new, stage, flip(part))
        ref = replace(ref, tree=with_spine_leaf(
            ref.tree, stage, flip(spine_leaves(ref.tree)[stage])))
    elif kind == "dropped-label":
        l = data.draw(st.sampled_from(sorted(fx.space)))
        new = replace(new, tree=replace(new.tree, stage_of={
            x: s for x, s in new.tree.stage_of.items() if x != l}))
        ref = replace(ref, tree=replace(ref.tree, witness={
            x: t for x, t in ref.tree.witness.items() if x != l}))
    elif kind == "part-subject":
        q = without(part.subject,
                    data.draw(st.sampled_from(sorted(part.subject.space))))
        new = with_part(new, stage, replace(part, subject=q))
        ref = replace(ref, tree=with_spine_leaf(ref.tree, stage, replace(
            spine_leaves(ref.tree)[stage], subject=q)))
    rep = cert_validate(new)
    event(f"{kind}: {'valid' if rep.ok else 'refused'}")
    assert rep.ok == (ref is not None and ref_cert_validate(ref).ok)
    for v in rep.violations:
        assert "stage" in v and re.search(r"'[^']+'", v), v
    if ref is not None:
        assert cert_to_dict(new) == ref_cert_to_dict(ref)


def test_a_wrong_sign_in_f_fails_the_resolution_and_the_certificate(F5):
    # check_d_squared keeps its report on the complex, so level-bound pays
    # for one d² pass over F where the resolution and cert_validate each
    # ask.  A sign flipped in F, on a complex of its own, fails both: the
    # resolution refuses it when built, and the certificate validator when
    # it is planted in a certificate of the good resolution
    s2 = polynomial_algebra(F5, DegreeWindow(-12, 12), [("y1", 2), ("y2", 2)])
    r = semifree_resolve(trivial_module(s2))
    cert = cert_from_resolution(r)
    assert check_d_squared(r.fx)
    assert cert_validate(cert).ok
    cols = dict(r.fx.differential.cols)
    l = next(l for l in sorted(cols) if len(cols[l]) > 1)
    t = next(iter(cols[l]))
    cols[l] = {**cols[l], t: F5.neg(cols[l][t])}
    bad = with_cols(r.fx, cols)
    assert not check_d_squared(bad)
    with pytest.raises(RuntimeError, match=r"d\^2 broke during minimization"):
        replace(r, fx=bad)
    rep = cert_validate(LevelCertificate(cert.base, bad,
                                         replace(cert.tree, subject=bad)))
    assert not rep.ok
    assert any("d∘d ≠ 0" in v for v in rep.violations), rep.violations
