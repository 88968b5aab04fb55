"""Exterior/polynomial Koszul duality: the pair (SV, ∧ΣV, τ), the
functors L and R as twisted tensor products, the composite η = F∘R, the
level-duality interval check, Ext-algebra extraction from the dual bar
construction, and the divided-power / polynomial homology checks."""

from __future__ import annotations

from dataclasses import dataclass

from dgkoszul.exactlinalg import SparseMatrix, rref
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    homology,
    homology_class,
    is_quasi_iso,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
    DGCoalgebra,
    DGComodule,
    DGModule,
    TwistingCochain,
    exterior_algebra,
    exterior_coalgebra,
    graded_dual_algebra,
    graded_dual_coalgebra,
    comodule_to_module_F,
    polynomial_algebra,
    validate_algebra,
    validate_coalgebra,
    validate_twisting_cochain,
)
from dgkoszul.barcobar import (
    bar,
    cobar,
    twisted_tensor_left,
    twisted_tensor_right,
    two_sided_check,
)
from dgkoszul.resolve import (
    class_of,
    is_free_over_homology,
    minimize,
    semifree_resolve,
    _homology_algebra,
)
from dgkoszul.level import cert_from_resolution, cert_validate


@dataclass
class KoszulPair:
    generator_degrees: list
    algebra: DGAlgebra        # SV, polynomial, zero differential
    coalgebra: DGCoalgebra    # ∧ΣV, primitively generated
    tau: TwistingCochain      # project to ΣV, include V into SV


def make_koszul_pair(field, window: DegreeWindow, degrees) -> KoszulPair:
    """The Koszul pair on generator degrees (positive even)."""
    degrees = list(degrees)
    for d in degrees:
        if d <= 0 or d % 2:
            raise StructureError(
                f"Koszul pair generators must be even positive, got {d}")
    names = [f"y{i + 1}" for i in range(len(degrees))]
    sv = polynomial_algebra(field, window, list(zip(names, degrees)))
    cgens = [(f"s{nm}", d - 1) for nm, d in zip(names, degrees)]
    lv = exterior_coalgebra(field, window, cgens)
    cols = {}
    for nm, (snm, _) in zip(names, cgens):
        if snm in lv.space and nm in sv.space:
            cols[snm] = {nm: field.one}
    tau = TwistingCochain(lv, sv,
                          GradedMap(lv.space, sv.space, 1, cols))
    for what, rep in (("algebra", validate_algebra(sv)),
                      ("coalgebra", validate_coalgebra(lv)),
                      ("twisting cochain", validate_twisting_cochain(tau))):
        if not rep.ok:
            raise StructureError(f"Koszul pair {what} invalid: "
                                 f"{rep.violations[:3]}")
    return KoszulPair(degrees, sv, lv, tau)


def koszul_R(pair: KoszulPair, m: DGModule,
             window: DegreeWindow | None = None) -> DGComodule:
    """R = −⊗_τ ∧ΣV : right SV-modules to right ∧ΣV-comodules."""
    return twisted_tensor_right(m, pair.tau, window)


def koszul_L(pair: KoszulPair, n: DGComodule,
             window: DegreeWindow | None = None) -> DGModule:
    """L = −⊗_τ SV : right ∧ΣV-comodules to right SV-modules."""
    return twisted_tensor_left(n, pair.tau, window)


def eta(pair: KoszulPair, m: DGModule,
        window: DegreeWindow | None = None) -> DGModule:
    """η = F∘R: a left module over the exterior algebra (∧ΣV)^∨."""
    return comodule_to_module_F(koszul_R(pair, m, window))


# -------------------------------------------------------------------------
# level duality
# -------------------------------------------------------------------------

def _act_on_combo(mod: DGModule, alabel: str, combo: dict) -> dict:
    """a·x for a left module, label times combination."""
    f = mod.field
    out: dict = {}
    for l, c in combo.items():
        img = mod.act_pair(alabel, l)
        for t, v in img.items():
            s = f.add(out.get(t, f.zero), f.mul(c, v))
            if f.is_zero(s):
                out.pop(t, None)
            else:
                out[t] = s
    return out


def loewy_length(mod: DGModule) -> dict:
    """Loewy length of H(mod) under the augmentation-ideal action of the
    (zero-differential) algebra it lives over: the least l with
    J^l · H = 0.  Returns {"length", "homology_dims", "radical_dims"}."""
    alg = mod.over
    f = mod.field
    cx = mod.carrier
    hdata = {}
    for n in cx.space.degrees():
        if cx.space.homology_computable(n):
            h = homology(cx, n)
            if h.dimension:
                hdata[n] = h
    aug = [l for n in alg.space.degrees() for l in alg.space.labels(n)
           if l != alg.unit]
    # current layer: degree -> list of cycle combos spanning J^k H
    layer = {n: list(h.representatives) for n, h in hdata.items()}
    dims = {n: h.dimension for n, h in hdata.items()}
    radical_dims = []
    length = 0
    while any(layer.values()):
        length += 1
        nxt: dict = {}
        for n, combos in layer.items():
            for al in aug:
                k = n + alg.space.deg(al)
                if k not in hdata:
                    continue
                for x in combos:
                    img = _act_on_combo(mod, al, x)
                    if not img:
                        continue
                    cls = homology_class(cx, k, img)
                    if cls:
                        nxt.setdefault(k, []).append(
                            {j: c for j, c in cls.items()})
        # prune to an honest span and lift back to cycle combos
        layer = {}
        rd = 0
        for k, vecs in nxt.items():
            h = hdata[k]
            entries = {}
            for j, v in enumerate(vecs):
                for i, c in v.items():
                    entries[(i, j)] = c
            rr = rref(SparseMatrix(h.dimension, len(vecs), f, entries))
            basis_vecs = rr.image_basis
            combos = []
            for v in basis_vecs:
                combo: dict = {}
                for i, c in v.items():
                    for l, cc in h.representatives[i].items():
                        s = f.add(combo.get(l, f.zero), f.mul(c, cc))
                        if f.is_zero(s):
                            combo.pop(l, None)
                        else:
                            combo[l] = s
                combos.append(combo)
            if combos:
                layer[k] = combos
                rd += len(combos)
        radical_dims.append(rd)
        if length > sum(dims.values()) + 1:
            raise StructureError("Loewy iteration failed to terminate")
    return {"length": length, "homology_dims": dims,
            "radical_dims": radical_dims}


def chain_loewy_length(mod: DGModule) -> int:
    """Least l with J^l · N = 0 at the chain level; the J-adic layers are
    subcomplexes with trivial action, so this bounds the K-level from
    above."""
    alg = mod.over
    f = mod.field
    sp = mod.space
    aug = [l for n in alg.space.degrees() for l in alg.space.labels(n)
           if l != alg.unit]
    layer = {n: [{l: f.one} for l in sp.labels(n)] for n in sp.degrees()}
    length = 0
    while any(layer.values()):
        length += 1
        nxt: dict = {}
        for n, combos in layer.items():
            for al in aug:
                k = n + alg.space.deg(al)
                for x in combos:
                    img = _act_on_combo(mod, al, x)
                    if img:
                        nxt.setdefault(k, []).append(img)
        layer = {}
        for k, vecs in nxt.items():
            dim = sp.dim(k)
            entries = {}
            for j, v in enumerate(vecs):
                for l, c in v.items():
                    entries[(sp.index(l), j)] = c
            rr = rref(SparseMatrix(dim, len(vecs), f, entries))
            combos = []
            for v in rr.image_basis:
                combos.append({sp.labels(k)[i]: c for i, c in v.items()})
            if combos:
                layer[k] = combos
        if length > sp.total_dim() + 1:
            raise StructureError("chain Loewy iteration failed to "
                                 "terminate")
    return length


def level_duality_check(pair: KoszulPair, m: DGModule,
                        depth: int | None = None) -> dict:
    """Both sides of the level-duality equality as certified intervals:
    (a) class/freeness bounds for level over SV, (b) Loewy-filtration
    bounds for the K-level of η(m) over the exterior dual."""
    sv = pair.algebra
    r = minimize(semifree_resolve(m, sv, depth))
    cls, exhausted = class_of(r)
    side_a = {"class": cls, "exhausted": exhausted}
    if exhausted:
        cert = cert_from_resolution(r)
        if not cert_validate(cert).ok:
            raise StructureError("resolution certificate failed to "
                                 "validate")
        side_a["upper"] = cert.claimed_level
    else:
        side_a["upper"] = None
    freeness = is_free_over_homology(m, sv)
    if cls == 0:
        side_a["lower"] = 0
    elif freeness["free"]:
        side_a["lower"] = 1
    else:
        side_a["lower"] = 2

    n = eta(pair, m)
    lw = loewy_length(n)
    ll_h = lw["length"]
    ll_c = chain_loewy_length(n)
    # homology Loewy length bounds the K-level below (ghost composition);
    # the chain-level filtration by trivial-action layers bounds it above
    side_b = {"loewy_homology": ll_h, "loewy_chain": ll_c,
              "upper": ll_c, "lower": ll_h,
              "homology_dims": lw["homology_dims"]}

    lo = max(side_a["lower"], side_b["lower"])
    his = [x for x in (side_a["upper"], side_b["upper"]) if x is not None]
    hi = min(his) if his else None
    intersects = hi is None or lo <= hi
    value = lo if lo == hi else None

    report = {"side_a": side_a, "side_b": side_b,
              "intervals_intersect": intersects, "value": value}
    if sum(lw["homology_dims"].values()) == 1:
        report["eta_trivial_qiso"] = _qiso_onto_single_class(n.carrier)
    return report


def _qiso_onto_single_class(cx: Complex) -> bool:
    """Whether the complex is quasi-isomorphic to one shifted copy of K,
    exhibited by an explicit chain map from the shifted ground field."""
    found = None
    for n in cx.space.degrees():
        if not cx.space.homology_computable(n):
            continue
        h = homology(cx, n)
        if h.dimension:
            found = (n, h.representatives[0])
            break
    if found is None:
        return False
    n, rep = found
    f = cx.field
    sp = GradedSpace(f, cx.space.window, {n: ["1k"]}, bounds=(n, n))
    k = Complex(sp, GradedMap.zero(sp, sp, 1))
    fmap = GradedMap(sp, cx.space, 0, {"1k": rep})
    verdicts = is_quasi_iso(fmap, k, cx)
    return all(v is True or v == "unverifiable at boundary"
               for v in verdicts.values())


# -------------------------------------------------------------------------
# Ext algebras and Example-4.6 style checks
# -------------------------------------------------------------------------

def ext_algebra(a: DGAlgebra, window: DegreeWindow | None = None) -> dict:
    """H((B a)^∨) with its multiplication table on canonical homology
    representatives: Ext_A(K, K)."""
    b = bar(a, window)
    dual = graded_dual_coalgebra(b)
    hd = _homology_algebra(dual.carrier)
    dims = {n: h.dimension for n, h in hd.items() if h.dimension}
    reps = {(n, i): h.representatives[i]
            for n, h in hd.items() for i in range(h.dimension)}
    products = {}
    for (n1, i1), r1 in reps.items():
        for (n2, i2), r2 in reps.items():
            n = n1 + n2
            if n not in hd:
                continue
            prod = dual.multiply(r1, r2)
            cls = homology_class(dual.carrier, n, prod)
            products[((n1, i1), (n2, i2))] = {
                (n, j): c for j, c in (cls or {}).items()}
    return {"dims": dims, "reps": reps, "products": products,
            "algebra": dual}


def _poly_dims(gen_degrees, lo, hi):
    """Hilbert function of a free commutative algebra on even-degree
    generators (equivalently of the divided power algebra), degree range
    inclusive."""
    dims = {0: 1}
    for d in gen_degrees:
        new = dict(dims)
        if d > 0:
            rng = range(lo, hi + 1)
        else:
            rng = range(hi, lo - 1, -1)
        for n in rng:
            base = new.get(n - d, 0)
            if base:
                new[n] = new.get(n, 0) + base
        dims = new
    return {n: v for n, v in dims.items() if lo <= n <= hi and v}


def exterior_tor_check(field, gen_degrees,
                       window: DegreeWindow) -> dict:
    """H(B(Λ(x₁..x_n))) against the divided power Hilbert series Γ[sx]
    with deg sxᵢ = deg xᵢ − 1; the generator classes are primitive."""
    for d in gen_degrees:
        if d >= 0 or d % 2 == 0:
            raise StructureError("exterior generators must be negative "
                                 "odd")
    names = [f"x{i + 1}" for i in range(len(gen_degrees))]
    e = exterior_algebra(field, window, list(zip(names, gen_degrees)))
    b = bar(e, window)
    cx = b.carrier
    dims = {}
    for n in cx.space.degrees():
        if cx.space.homology_computable(n):
            h = homology(cx, n)
            if h.dimension:
                dims[n] = h.dimension
    checkable = [n for n in range(window.lo, window.hi + 1)
                 if cx.space.homology_computable(n)]
    expected = _poly_dims([d - 1 for d in gen_degrees],
                          window.lo, window.hi)
    expected = {n: v for n, v in expected.items() if n in checkable}
    primitive = all(not b.reduced_comult(f"[{nm}]")
                    for nm in names if f"[{nm}]" in b.space)
    ok = dims == expected and primitive
    return {"ok": ok, "dims": dims, "expected": expected,
            "primitive_ok": primitive, "checkable": checkable}


def cobar_polynomial_check(field, gen_degrees,
                           window: DegreeWindow) -> dict:
    """H(Ω(E^∨)) against the polynomial Hilbert series on generators of
    degree −deg xᵢ + 1; generator classes commute up to boundaries."""
    for d in gen_degrees:
        if d >= 0 or d % 2 == 0:
            raise StructureError("exterior generators must be negative "
                                 "odd")
    names = [f"x{i + 1}" for i in range(len(gen_degrees))]
    e = exterior_algebra(field, window, list(zip(names, gen_degrees)))
    ed = graded_dual_algebra(e)
    om = cobar(ed, window)
    cx = om.carrier
    dims = {}
    for n in cx.space.degrees():
        if cx.space.homology_computable(n):
            h = homology(cx, n)
            if h.dimension:
                dims[n] = h.dimension
    checkable = [n for n in range(window.lo, window.hi + 1)
                 if cx.space.homology_computable(n)]
    expected = _poly_dims([-d + 1 for d in gen_degrees],
                          window.lo, window.hi)
    expected = {n: v for n, v in expected.items() if n in checkable}
    commutators_bound = True
    f = field
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            u = f"<{names[i]}*>"
            v = f"<{names[j]}*>"
            if u not in om.space or v not in om.space:
                continue
            uv = om.multiply({u: f.one}, {v: f.one})
            vu = om.multiply({v: f.one}, {u: f.one})
            comm = dict(uv)
            for l, c in vu.items():
                s = f.sub(comm.get(l, f.zero), c)
                if f.is_zero(s):
                    comm.pop(l, None)
                else:
                    comm[l] = s
            if not comm:
                continue
            n = cx.space.combo_degree(comm)
            if n is None or n not in dims and n not in checkable:
                continue
            cls = homology_class(cx, n, comm)
            if cls is None or cls:
                commutators_bound = False
    ok = dims == expected and commutators_bound
    return {"ok": ok, "dims": dims, "expected": expected,
            "commutators_bound": commutators_bound,
            "checkable": checkable}


def koszul_pair_check(pair: KoszulPair,
                      window: DegreeWindow | None = None) -> dict:
    """τ residual plus the two-sided quasi-isomorphism
    SV⊗_τ∧ΣV⊗_τSV → SV."""
    tau_rep = validate_twisting_cochain(pair.tau)
    two = two_sided_check(pair.algebra, pair.coalgebra, pair.tau, window)
    return {"ok": tau_rep.ok and two["ok"],
            "tau_ok": tau_rep.ok,
            "two_sided": two}
