"""Exterior/polynomial Koszul duality: the pair (SV, ∧ΣV, τ), the
functor R as a twisted tensor product, the composite η = F∘R, the
level-duality interval check, Ext-algebra extraction from the dual bar
construction, and the divided-power / polynomial homology checks.  The
homology and chain Loewy lengths run one radical series J·L, J²·L, …"""

from __future__ import annotations

from dgkoszul.exactlinalg import span_echelon, vec_iadd
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    homology_by_degree,
    homology_class,
    homology_dims,
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
    dual_label,
    polynomial_algebra,
    validate_algebra,
    validate_coalgebra,
    validate_twisting_cochain,
)
from dgkoszul.barcobar import (
    bar,
    bar_word_label,
    cobar,
    cobar_word_label,
    twisted_tensor_right,
    two_sided_check,
)
from dgkoszul.resolve import minimize, semifree_resolve
from dgkoszul.level import level_interval


class KoszulPair:
    def __init__(self, generator_degrees: list, algebra: DGAlgebra,
                 coalgebra: DGCoalgebra, tau: TwistingCochain):
        # SV, polynomial with d = 0; ∧ΣV, primitively generated; and τ,
        # projecting to ΣV and including V into SV
        self.generator_degrees, self.algebra = generator_degrees, algebra
        self.coalgebra, self.tau = coalgebra, tau


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


def koszul_R(pair: KoszulPair, m: DGModule) -> DGComodule:
    """R = −⊗_τ ∧ΣV : right SV-modules to right ∧ΣV-comodules."""
    return twisted_tensor_right(m, pair.tau)


def eta(pair: KoszulPair, m: DGModule) -> DGModule:
    """η = F∘R: a left module over the exterior algebra (∧ΣV)^∨."""
    return comodule_to_module_F(koszul_R(pair, m))


# -------------------------------------------------------------------------
# level duality
# -------------------------------------------------------------------------

def _radical_series(mod: DGModule, layer: dict, span) -> list:
    """Sizes of J·L, J²·L, … through the first zero layer, J the
    augmentation ideal of ``mod.over`` and L = {degree: [combination]};
    its length is the least l with J^l · L = 0.  ``span(k, vecs)`` prunes
    the images in degree k to a basis of their span."""
    alg = mod.over
    f = mod.field
    aug = list(alg.aug_ideal_labels())
    cap = sum(len(combos) for combos in layer.values()) + 1
    sizes = []
    while any(layer.values()):
        nxt: dict = {}
        for n, combos in layer.items():
            for al in aug:
                k = n + alg.space.deg(al)
                for x in combos:
                    img = mod.act({al: f.one}, x)
                    if img:
                        nxt.setdefault(k, []).append(img)
        layer = {}
        for k, vecs in nxt.items():
            combos = span(k, vecs)
            if combos:
                layer[k] = combos
        sizes.append(sum(len(combos) for combos in layer.values()))
        if len(sizes) > cap:
            raise RuntimeError("Loewy iteration failed to terminate")
    return sizes


def loewy_length(mod: DGModule) -> dict:
    """Loewy length of H(mod) under the augmentation-ideal action of the
    (zero-differential) algebra it lives over: the least l with
    J^l · H = 0.  Returns {"length", "homology_dims", "radical_dims"}."""
    f = mod.field
    cx = mod.carrier
    hdata = {n: h for n, h in homology_by_degree(cx).items() if h.dimension}

    def span(k, vecs):
        # homology classes of the images, pruned to a basis of their span
        # and lifted back to cycle combinations
        if k not in hdata:
            return []
        classes = [homology_class(cx, k, v) for v in vecs]
        if None in classes:
            raise StructureError("image of a cycle is not a cycle")
        h = hdata[k]
        combos = []
        for v in span_echelon(f, classes, h.dimension).values():
            combo: dict = {}
            for i, c in v.items():
                vec_iadd(f, combo, c, h.representatives[i])
            combos.append(combo)
        return combos

    radical_dims = _radical_series(
        mod, {n: list(h.representatives) for n, h in hdata.items()}, span)
    return {"length": len(radical_dims),
            "homology_dims": {n: h.dimension for n, h in hdata.items()},
            "radical_dims": radical_dims}


def chain_loewy_length(mod: DGModule) -> int:
    """Least l with J^l · N = 0 at the chain level; the J-adic layers are
    subcomplexes with trivial action, so this bounds the K-level from
    above."""
    f = mod.field
    sp = mod.space

    def span(k, vecs):
        # label coordinates, pruned to a basis of their span
        ech = span_echelon(f, [sp.to_coords(v, k) for v in vecs], sp.dim(k))
        return [sp.from_coords(v, k) for v in ech.values()]

    layer = {n: [{l: f.one} for l in sp.labels(n)] for n in sp.degrees()}
    return len(_radical_series(mod, layer, span))


def level_duality_check(pair: KoszulPair, m: DGModule,
                        depth: int | None = None) -> dict:
    """Both sides of the level-duality equality as certified intervals:
    (a) class/freeness bounds for level over SV, (b) Loewy-filtration
    bounds for the K-level of η(m) over the exterior dual."""
    if m.over is not pair.algebra:
        raise StructureError("level duality needs a module over the "
                             "pair's algebra")
    side = level_interval(minimize(semifree_resolve(m, depth)))
    if side.valid is False:
        raise StructureError("resolution certificate failed to validate")
    side_a = {"class": side.cls, "exhausted": side.exhausted,
              "lower": side.lower, "upper": side.upper}

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
    found = [(n, h.representatives[0])
             for n, h in homology_by_degree(cx).items() if h.dimension]
    if not found:
        return False
    n, rep = found[0]
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

def ext_algebra(a: DGAlgebra) -> dict:
    """H((B a)^∨) with its multiplication table on canonical homology
    representatives: Ext_A(K, K), on a's window."""
    b = bar(a)
    dual = graded_dual_coalgebra(b)
    hd = homology_by_degree(dual.carrier)
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
            if cls is None:
                raise StructureError("image of a cycle is not a cycle")
            products[((n1, i1), (n2, i2))] = {
                (n, j): c for j, c in cls.items()}
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
    dims = homology_dims(cx)
    checkable = [n for n in range(window.lo, window.hi + 1)
                 if cx.space.homology_computable(n)]
    expected = _poly_dims([d - 1 for d in gen_degrees],
                          window.lo, window.hi)
    expected = {n: v for n, v in expected.items() if n in checkable}
    words = [bar_word_label([nm]) for nm in names]
    primitive = all(not b.reduced_comult(w) for w in words if w in b.space)
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
    dims = homology_dims(cx)
    checkable = [n for n in range(window.lo, window.hi + 1)
                 if cx.space.homology_computable(n)]
    expected = _poly_dims([-d + 1 for d in gen_degrees],
                          window.lo, window.hi)
    expected = {n: v for n, v in expected.items() if n in checkable}
    commutators_bound = True
    f = field
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            u, v = (cobar_word_label([dual_label(names[k])])
                    for k in (i, j))
            if u not in om.space or v not in om.space:
                continue
            uv = om.multiply({u: f.one}, {v: f.one})
            vu = om.multiply({v: f.one}, {u: f.one})
            comm = vec_iadd(f, uv, f.from_int(-1), vu)
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
    two = two_sided_check(pair.tau, window)
    return {"ok": tau_rep.ok and two["ok"],
            "tau_ok": tau_rep.ok,
            "two_sided": two}
