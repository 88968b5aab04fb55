"""Bar and cobar constructions, canonical twisting cochains, twisted
tensor products, the two-sided resolution check and the bar-cobar
dualization check.

Sign conventions are generated from the global Koszul rule applied to
suspension symbols; d^2 = 0 on every constructed complex is the
certificate that they are consistent.
"""

from __future__ import annotations

from dgkoszul.exactlinalg import vec_addmul
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    NEG_INF,
    POS_INF,
    check_d_squared,
    is_chain_map,
    is_quasi_iso,
    solve_diagonal_chain_iso,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
    DGCoalgebra,
    DGComodule,
    DGModule,
    TwistingCochain,
    degree_compatible,
    dual_complex,
    dual_label,
    free_module,
    graded_dual_algebra,
    merge_terms,
)


# -------------------------------------------------------------------------
# word labels
# -------------------------------------------------------------------------

def bar_word_label(entries) -> str:
    return "[" + "|".join(entries) + "]"


def bar_word_entries(label: str) -> tuple:
    if not (label.startswith("[") and label.endswith("]")):
        raise ValueError(f"not a bar word: {label!r}")
    inner = label[1:-1]
    return tuple(inner.split("|")) if inner else ()


def cobar_word_label(entries) -> str:
    return "<" + "|".join(entries) + ">"


def cobar_word_entries(label: str) -> tuple:
    if not (label.startswith("<") and label.endswith(">")):
        raise ValueError(f"not a cobar word: {label!r}")
    inner = label[1:-1]
    return tuple(inner.split("|")) if inner else ()


def _known_above(sp: GradedSpace):
    """Largest degree through which the basis is fully known (POS_INF when
    the true support already lies inside the window)."""
    return POS_INF if sp.bounds[1] <= sp.window.hi else sp.window.hi


def _known_below(sp: GradedSpace):
    return NEG_INF if sp.bounds[0] >= sp.window.lo else sp.window.lo


def _letter_polarity(degrees, what: str) -> int:
    """+1 when all suspended letter degrees are >= 1, -1 when all <= -1."""
    if any(d == 0 for d in degrees):
        raise StructureError(f"{what}: letter of suspended degree 0 "
                             "(not simply connected); word counts per degree "
                             "are unbounded")
    pos = any(d > 0 for d in degrees)
    neg = any(d < 0 for d in degrees)
    if pos and neg:
        raise StructureError(f"{what}: letters of mixed suspended sign; "
                             "word enumeration does not terminate")
    return -1 if neg else 1


def _enumerate_words(letters, window: DegreeWindow, polarity: int):
    """All words over (label, degree) letters with total degree in the
    window; letter degrees have uniform sign so enumeration terminates.
    Returns dict degree -> sorted list of entry tuples."""
    out: dict = {}
    lim = window.hi if polarity > 0 else -window.lo

    def rec(word, wdeg):
        mag = wdeg if polarity > 0 else -wdeg
        if wdeg in window:
            out.setdefault(wdeg, []).append(tuple(l for l, _ in word))
        for l, d in letters:
            if mag + (d if polarity > 0 else -d) <= lim:
                word.append((l, d))
                rec(word, wdeg + d)
                word.pop()

    rec([], 0)
    for n in out:
        out[n].sort()
    return out


# -------------------------------------------------------------------------
# bar construction
# -------------------------------------------------------------------------

def bar(a: DGAlgebra, window: DegreeWindow | None = None,
        m: DGModule | None = None):
    """Reduced bar construction B(a) as a DG coalgebra under
    deconcatenation; with ``m`` given, returns B(m;a) = m ⊗_τ B(a) as a
    comodule over B(a) instead."""
    if m is not None:
        b = bar(a, window)
        tau = canonical_tau(a, barc=b)
        return twisted_tensor_right(m, tau, window)
    w = window or a.space.window
    sp = a.space
    letters = sorted((l, sp.deg(l) - 1) for l in a.aug_ideal_labels())
    f = a.field
    if not letters:
        bsp = GradedSpace(f, w, {0: [bar_word_label(())]}, bounds=(0, 0))
        cx = Complex(bsp, GradedMap.zero(bsp, bsp, 1))
        unit = bar_word_label(())
        return DGCoalgebra(cx, {unit: [(unit, unit, f.one)]}, {unit: f.one},
                           unit, name=f"B({a.name})" if a.name else "B")
    pol = _letter_polarity([d for _, d in letters], "bar construction")
    if pol > 0:
        ka = _known_above(sp)
        hi = w.hi if ka == POS_INF else min(w.hi, int(ka) - 1)
        win = DegreeWindow(max(w.lo, 0), max(hi, 0))
        bounds = (0, POS_INF)
    else:
        kb = _known_below(sp)
        lo = w.lo if kb == NEG_INF else max(w.lo, int(kb) + 1)
        win = DegreeWindow(min(lo, 0), min(w.hi, 0))
        bounds = (NEG_INF, 0)
    words = _enumerate_words(letters, win, pol)
    basis = {n: tuple(bar_word_label(entries) for entries in ws)
             for n, ws in sorted(words.items())}
    bsp = GradedSpace(f, win, basis, bounds=bounds)
    minus_one = f.from_int(-1)
    cols: dict = {}
    for n, ws in words.items():
        for entries in ws:
            col: dict = {}
            prefix = 0  # sum of suspended degrees before position i
            for i, x in enumerate(entries):
                psgn = f.from_int(-1 if prefix % 2 else 1)
                # internal part: replace letter by -s(dx)
                for t, v in a.carrier.d(x).items():
                    if t == a.unit:
                        continue
                    word = entries[:i] + (t,) + entries[i + 1:]
                    label = bar_word_label(word)
                    if label in bsp:
                        col = vec_addmul(f, col,
                                         f.mul(minus_one, f.mul(psgn, v)),
                                         {label: f.one})
                # merging part: (-1)^{deg x} s(x * next)
                if i + 1 < len(entries):
                    msgn = f.from_int(-1 if sp.deg(x) % 2 else 1)
                    for t, v in a.mult_pair(x, entries[i + 1]).items():
                        if t == a.unit:
                            continue
                        word = entries[:i] + (t,) + entries[i + 2:]
                        label = bar_word_label(word)
                        if label in bsp:
                            col = vec_addmul(f, col,
                                             f.mul(msgn, f.mul(psgn, v)),
                                             {label: f.one})
                prefix += sp.deg(x) - 1
            if col:
                cols[bar_word_label(entries)] = col
    cx = Complex(bsp, GradedMap(bsp, bsp, 1, cols))
    comult = {}
    for n, ws in words.items():
        for entries in ws:
            comult[bar_word_label(entries)] = [
                (bar_word_label(entries[:i]), bar_word_label(entries[i:]),
                 f.one)
                for i in range(len(entries) + 1)
                if bar_word_label(entries[:i]) in bsp
                and bar_word_label(entries[i:]) in bsp]
    unit = bar_word_label(())
    return DGCoalgebra(cx, comult, {unit: f.one}, unit,
                       name=f"B({a.name})" if a.name else "B")


def canonical_tau(a: DGAlgebra, window: DegreeWindow | None = None,
                  barc: DGCoalgebra | None = None) -> TwistingCochain:
    """τ : B(a) → a, the identity on length-one words."""
    b = barc if barc is not None else bar(a, window)
    f = a.field
    cols = {}
    for n in b.space.degrees():
        for l in b.space.labels(n):
            entries = bar_word_entries(l)
            if len(entries) == 1:
                cols[l] = {entries[0]: f.one}
    gm = GradedMap(b.space, a.space, 1, cols)
    return TwistingCochain(b, a, gm)


# -------------------------------------------------------------------------
# cobar construction
# -------------------------------------------------------------------------

def cobar(c: DGCoalgebra, window: DegreeWindow | None = None,
          n: DGComodule | None = None):
    """Cobar construction Ω(c): tensor algebra on the desuspended
    coaugmentation cokernel, differential from d_C and the reduced
    coproduct.  With ``n`` given, returns Ω(n;c) = n ⊗_τ₀ Ω(c) as a
    module over Ω(c) instead."""
    if n is not None:
        om = cobar(c, window)
        tau0 = canonical_tau0(c, cobarc=om)
        return twisted_tensor_left(n, tau0, window)
    w = window or c.space.window
    sp = c.space
    f = c.field
    letters = sorted((l, sp.deg(l) + 1)
                     for nn in sp.degrees() for l in sp.labels(nn)
                     if l != c.coaug)
    unit = cobar_word_label(())
    if not letters:
        osp = GradedSpace(f, w, {0: [unit]}, bounds=(0, 0))
        cx = Complex(osp, GradedMap.zero(osp, osp, 1))
        one = {unit: f.one}
        return DGAlgebra(cx, unit, lambda a, b: one,
                         "non-negative", simply_connected=True,
                         name=f"Ω({c.name})" if c.name else "Ω")
    pol = _letter_polarity([d for _, d in letters], "cobar construction")
    if pol > 0:
        ka = _known_above(sp)
        hi = w.hi if ka == POS_INF else min(w.hi, int(ka) + 1)
        win = DegreeWindow(max(w.lo, 0), max(hi, 0))
        bounds = (0, POS_INF)
    else:
        kb = _known_below(sp)
        lo = w.lo if kb == NEG_INF else max(w.lo, int(kb) - 1)
        win = DegreeWindow(min(lo, 0), min(w.hi, 0))
        bounds = (NEG_INF, 0)
    words = _enumerate_words(letters, win, pol)
    entries_of = {}
    basis = {}
    for nn, ws in sorted(words.items()):
        labels = []
        for entries in ws:
            label = cobar_word_label(entries)
            entries_of[label] = entries
            labels.append(label)
        basis[nn] = tuple(labels)
    osp = GradedSpace(f, win, basis, bounds=bounds)
    minus_one = f.from_int(-1)
    cols: dict = {}
    for nn, ws in words.items():
        for entries in ws:
            col: dict = {}
            prefix = 0  # sum of generator degrees before position i
            for i, x in enumerate(entries):
                psgn = f.from_int(-1 if prefix % 2 else 1)
                # internal part: -<dx>
                for t, v in c.carrier.d(x).items():
                    if t == c.coaug:
                        continue
                    word = entries[:i] + (t,) + entries[i + 1:]
                    label = cobar_word_label(word)
                    if label in osp:
                        col = vec_addmul(f, col,
                                         f.mul(minus_one, f.mul(psgn, v)),
                                         {label: f.one})
                # splitting part: -(-1)^{deg c'} <c'><c''>
                for c1, c2, v in c.reduced_comult(x):
                    ssgn = f.from_int(-1 if sp.deg(c1) % 2 else 1)
                    word = entries[:i] + (c1, c2) + entries[i + 1:]
                    label = cobar_word_label(word)
                    if label in osp:
                        coefficient = f.mul(minus_one,
                                            f.mul(ssgn, f.mul(psgn, v)))
                        col = vec_addmul(f, col, coefficient, {label: f.one})
                prefix += sp.deg(x) + 1
            if col:
                cols[cobar_word_label(entries)] = col
    cx = Complex(osp, GradedMap(osp, osp, 1, cols))

    def mult_pair(a: str, b: str) -> dict:
        # the tensor algebra multiplies by concatenation; every word whose
        # degree lies in the window is a basis label
        if osp.deg(a) + osp.deg(b) not in win:
            return {}
        return {cobar_word_label(entries_of[a] + entries_of[b]): f.one}

    polarity = "non-negative" if pol > 0 else "non-positive"
    sc = cx.space.dim(1 if pol > 0 else -1) == 0
    return DGAlgebra(cx, unit, mult_pair, polarity, simply_connected=sc,
                     name=f"Ω({c.name})" if c.name else "Ω")


def canonical_tau0(c: DGCoalgebra, window: DegreeWindow | None = None,
                   cobarc: DGAlgebra | None = None) -> TwistingCochain:
    """τ₀ : c → Ω(c), desuspension inclusion on the coaugmentation
    cokernel."""
    om = cobarc if cobarc is not None else cobar(c, window)
    f = c.field
    cols = {}
    for nn in c.space.degrees():
        for l in c.space.labels(nn):
            if l == c.coaug:
                continue
            gen = cobar_word_label((l,))
            if gen in om.space:
                cols[l] = {gen: f.one}
    gm = GradedMap(c.space, om.space, 1, cols)
    return TwistingCochain(c, om, gm)


# -------------------------------------------------------------------------
# twisted tensor products
# -------------------------------------------------------------------------

def tensor_window(spa: GradedSpace, spb: GradedSpace,
                  requested: DegreeWindow | None = None) -> DegreeWindow:
    """Degree range on which the tensor product of two (possibly
    truncated) spaces has a complete basis."""
    lo = spa.bounds[0] + spb.bounds[0]
    hi = spa.bounds[1] + spb.bounds[1]
    ka, kb = _known_above(spa), _known_above(spb)
    if ka < POS_INF:
        hi = min(hi, ka + spb.bounds[0])
    if kb < POS_INF:
        hi = min(hi, kb + spa.bounds[0])
    la, lb = _known_below(spa), _known_below(spb)
    if la > NEG_INF:
        lo = max(lo, la + spb.bounds[1])
    if lb > NEG_INF:
        lo = max(lo, lb + spa.bounds[1])
    if requested is not None:
        lo, hi = max(lo, requested.lo), min(hi, requested.hi)
    if lo > hi or lo == NEG_INF or hi == POS_INF:
        raise StructureError(f"empty or unbounded tensor window [{lo}, {hi}]")
    return DegreeWindow(int(lo), int(hi))


def tensor_label(a: str, b: str) -> str:
    return f"{a}@{b}"


def _tensor_space(spa: GradedSpace, spb: GradedSpace, win: DegreeWindow):
    basis: dict = {}
    for i in spa.degrees():
        for j in spb.degrees():
            if i + j in win:
                basis.setdefault(i + j, []).extend(
                    tensor_label(x, y)
                    for x in spa.labels(i) for y in spb.labels(j))
    basis = {nn: tuple(ls) for nn, ls in sorted(basis.items())}
    bounds = (spa.bounds[0] + spb.bounds[0], spa.bounds[1] + spb.bounds[1])
    return GradedSpace(spa.field, win, basis, bounds=bounds)


def _split_tensor_label(label: str, spa: GradedSpace):
    """Split "x@y" at the unique position where the left part is a label
    of spa."""
    pos = -1
    while True:
        pos = label.find("@", pos + 1)
        if pos < 0:
            raise ValueError(f"cannot split tensor label {label!r}")
        if label[:pos] in spa and label[pos + 1:]:
            return label[:pos], label[pos + 1:]


def twisted_tensor_right(m: DGModule, t: TwistingCochain,
                         window: DegreeWindow | None = None) -> DGComodule:
    """m ⊗_τ C for a right A-module m and twisting cochain τ : C → A, with
    d = d_M⊗1 + 1⊗d_C − (μ_M⊗1)(1⊗τ⊗1)(1⊗Δ_C); a right C-comodule via
    1⊗Δ_C."""
    if m.side != "right":
        raise StructureError("twisted_tensor_right needs a right module")
    c = t.source
    f = m.field
    win = tensor_window(m.space, c.space, window)
    sp = _tensor_space(m.space, c.space, win)
    cols: dict = {}
    coaction: dict = {}
    minus_one = f.from_int(-1)
    for i in m.space.degrees():
        for ml in m.space.labels(i):
            sgn_m = f.from_int(-1 if i % 2 else 1)
            for j in c.space.degrees():
                if i + j not in win:
                    continue
                for cl in c.space.labels(j):
                    label = tensor_label(ml, cl)
                    col: dict = {}
                    for tl, v in m.carrier.d(ml).items():
                        tgt = tensor_label(tl, cl)
                        if tgt in sp:
                            col = vec_addmul(f, col, v, {tgt: f.one})
                    for tl, v in c.carrier.d(cl).items():
                        tgt = tensor_label(ml, tl)
                        if tgt in sp:
                            col = vec_addmul(f, col, f.mul(sgn_m, v),
                                             {tgt: f.one})
                    for c1, c2, v in c.comult_label(cl):
                        ta = t.apply_label(c1)
                        if not ta:
                            continue
                        acted = m.act({ml: f.one}, ta)
                        coefficient = f.mul(minus_one, f.mul(sgn_m, v))
                        for tl, u in acted.items():
                            tgt = tensor_label(tl, c2)
                            if tgt in sp:
                                col = vec_addmul(f, col,
                                                 f.mul(coefficient, u),
                                                 {tgt: f.one})
                    if col:
                        cols[label] = col
                    terms = []
                    for c1, c2, v in c.comult_label(cl):
                        left = tensor_label(ml, c1)
                        if left in sp:
                            terms.append((left, c2, v))
                    coaction[label] = terms
    cx = Complex(sp, GradedMap(sp, sp, 1, cols))
    nm = f"{m.name}⊗τ{c.name}" if m.name and c.name else ""
    return DGComodule(cx, c, coaction, name=nm)


def twisted_tensor_left(n: DGComodule, t: TwistingCochain,
                        window: DegreeWindow | None = None) -> DGModule:
    """n ⊗_τ A for a right C-comodule n and τ : C → A (the mirrored
    twisted differential); a right A-module via 1⊗μ_A."""
    a = t.target
    f = n.field
    win = tensor_window(n.space, a.space, window)
    sp = _tensor_space(n.space, a.space, win)
    cols: dict = {}
    factors: dict = {}
    minus_one = f.from_int(-1)
    for i in n.space.degrees():
        for nl in n.space.labels(i):
            sgn_n = f.from_int(-1 if i % 2 else 1)
            for j in a.space.degrees():
                if i + j not in win:
                    continue
                for al in a.space.labels(j):
                    label = tensor_label(nl, al)
                    factors[label] = (nl, al)
                    col: dict = {}
                    for tl, v in n.carrier.d(nl).items():
                        tgt = tensor_label(tl, al)
                        if tgt in sp:
                            col = vec_addmul(f, col, v, {tgt: f.one})
                    for tl, v in a.carrier.d(al).items():
                        tgt = tensor_label(nl, tl)
                        if tgt in sp:
                            col = vec_addmul(f, col, f.mul(sgn_n, v),
                                             {tgt: f.one})
                    for n1, cl, v in n.coaction_label(nl):
                        ta = t.apply_label(cl)
                        if not ta:
                            continue
                        prod = a.multiply(ta, {al: f.one})
                        # the mirrored twist enters with a + sign: with the
                        # right-sided twist taken negative, d^2 = 0 forces
                        # t^2 = -(Dt + tD) and that fixes this sign
                        s1 = f.from_int(
                            -1 if n.space.deg(n1) % 2 else 1)
                        coefficient = f.mul(s1, v)
                        for tl, u in prod.items():
                            tgt = tensor_label(n1, tl)
                            if tgt in sp:
                                col = vec_addmul(f, col,
                                                 f.mul(coefficient, u),
                                                 {tgt: f.one})
                    if col:
                        cols[label] = col
    cx = Complex(sp, GradedMap(sp, sp, 1, cols))

    def act_pair(label: str, bl: str) -> dict:
        """(n ⊗ a)·b = n ⊗ ab."""
        if sp.deg(label) + a.space.deg(bl) not in win:
            return {}
        nl, al = factors[label]
        combo = {}
        for tl, v in a.mult_pair(al, bl).items():
            tgt = tensor_label(nl, tl)
            if tgt in sp:
                combo = vec_addmul(f, combo, v, {tgt: f.one})
        return combo

    nm = f"{n.name}⊗τ{a.name}" if n.name and a.name else ""
    return DGModule(cx, a, act_pair, side="right", name=nm)


# -------------------------------------------------------------------------
# checks
# -------------------------------------------------------------------------

def restrict_complex(c: Complex, window: DegreeWindow) -> Complex:
    """Restrict a complex to a smaller window, dropping basis elements and
    differential entries outside it."""
    f = c.field
    basis = {nn: c.space.basis[nn] for nn in c.space.degrees()
             if nn in window}
    sp = GradedSpace(f, window, basis, bounds=c.space.bounds)
    cols = {}
    for nn in sp.degrees():
        for l in sp.labels(nn):
            col = {tl: v for tl, v in c.d(l).items() if tl in sp}
            if col:
                cols[l] = col
    return Complex(sp, GradedMap(sp, sp, 1, cols))


def two_sided_check(a: DGAlgebra, c: DGCoalgebra, t: TwistingCochain,
                    window: DegreeWindow | None = None) -> dict:
    """Builds A⊗_τC⊗_τA and checks that x⊗c⊗y ↦ ε(c)·xy is a
    quasi-isomorphism onto A; per-degree verdicts."""
    f = a.field
    half = twisted_tensor_right(free_module(a), t, window)
    full = twisted_tensor_left(half, t, window)
    cols = {}
    for nn in full.space.degrees():
        for label in full.space.labels(nn):
            hl, yl = _split_tensor_label(label, half.space)
            xl, cl = _split_tensor_label(hl, a.space)
            eps = c.counit.get(cl, f.zero)
            if f.is_zero(eps):
                continue
            combo = {tl: f.mul(eps, v)
                     for tl, v in a.mult_pair(xl, yl).items()}
            if combo:
                cols[label] = combo
    gm = GradedMap(full.space, a.space, 0, cols)
    chain_ok, _ = is_chain_map(gm, full.carrier, a.carrier)
    verdicts = is_quasi_iso(gm, full.carrier, a.carrier) if chain_ok else {}
    ok = chain_ok and all(v is not False for v in verdicts.values()) \
        and any(v is True for v in verdicts.values())
    return {"ok": ok, "chain_map": chain_ok, "by_degree": verdicts,
            "window": (full.space.window.lo, full.space.window.hi)}


def _dual_module_comodule(m: DGModule) -> DGComodule:
    """m^∨ as a right comodule over A^∨ (dual to the right action)."""
    if m.side != "right":
        raise StructureError("need a right module")
    f = m.field
    dual = graded_dual_algebra(m.over)
    dcx = dual_complex(m.carrier)
    coaction: dict = {}
    msp, asp = m.space, m.over.space
    for ml, al in degree_compatible((msp, asp),
                                    lambda s: s in msp.window):
        combo = m.act_pair(ml, al)
        if not combo:
            continue
        # pairing <m*⊗a*, m⊗a> = (-1)^{|a*||m|} δ
        sgn = f.from_int(-1 if (msp.deg(ml) * asp.deg(al)) % 2 else 1)
        for tl, v in combo.items():
            dm, da = dual_label(ml), dual_label(al)
            if da not in dual.space:
                continue
            coaction.setdefault(dual_label(tl), []).append(
                (dm, da, f.mul(sgn, v)))
    merged = {l: merge_terms(f, terms) for l, terms in coaction.items()}
    return DGComodule(dcx, dual, merged,
                      name=f"({m.name})^" if m.name else "")


def bar_cobar_duality_check(m: DGModule,
                            window: DegreeWindow | None = None) -> dict:
    """Compares B(m;A)^∨ with Ω(m^∨;A^∨): dimensions per degree and an
    explicit signed isomorphism identifying dual bar words with cobar
    words."""
    a = m.over
    w = window or m.space.window
    bm = bar(a, w, m=m)
    side_b = dual_complex(bm.carrier)
    nd = _dual_module_comodule(m)
    cw = DegreeWindow(-w.hi, -w.lo)
    om = cobar(nd.over, cw, n=nd)
    side_o = om.carrier
    common = DegreeWindow(max(side_b.space.window.lo, side_o.space.window.lo),
                          min(side_b.space.window.hi, side_o.space.window.hi))
    rb = restrict_complex(side_b, common)
    ro = restrict_complex(side_o, common)
    dims_equal = {nn: rb.space.dim(nn) == ro.space.dim(nn)
                  for nn in range(common.lo, common.hi + 1)}

    def bijection(reverse: bool):
        table = {}
        for nn in rb.space.degrees():
            for label in rb.space.labels(nn):
                inner = label[:-1]  # strip the dual star
                ml, wl = _split_tensor_label(inner, m.space)
                entries = bar_word_entries(wl)
                if reverse:
                    entries = tuple(reversed(entries))
                cob = cobar_word_label(tuple(dual_label(e) for e in entries))
                table[label] = tensor_label(dual_label(ml), cob)
        return table

    iso = None
    order = None
    for reverse in (False, True):
        table = bijection(reverse)
        if any(v not in ro.space for v in table.values()):
            continue
        iso = solve_diagonal_chain_iso(rb, ro, table)
        if iso is not None:
            order = "reversed" if reverse else "direct"
            break
    ok = all(dims_equal.values()) and iso is not None
    return {"ok": ok, "dims_equal": dims_equal, "iso_found": iso is not None,
            "letter_order": order,
            "window": (common.lo, common.hi)}
