"""Bar and cobar constructions, canonical twisting cochains, twisted
tensor products and the two-sided resolution check.

Bar and cobar share one word-complex builder, ``_word_complex``, and
differ only in the quadratic part of the differential: bar merges two
adjacent letters by the product, cobar splits one letter by the reduced
coproduct.  Both twisted tensor products share one tensor-complex builder,
``_tensor_complex``, and differ only in the twist term and their (co)action.

Sign conventions are generated from the global Koszul rule applied to
suspension symbols; d^2 = 0 on every constructed complex is the
certificate that they are consistent.
"""

from __future__ import annotations

from dgkoszul.exactlinalg import vec_iadd
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    NEG_INF,
    POS_INF,
    is_chain_map,
    is_quasi_iso,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
    DGCoalgebra,
    DGComodule,
    DGModule,
    TwistingCochain,
    free_module,
)


# -------------------------------------------------------------------------
# word labels
# -------------------------------------------------------------------------

def _word_entries(label: str, brackets: str, what: str) -> tuple:
    if not (label.startswith(brackets[0]) and label.endswith(brackets[1])):
        raise ValueError(f"not a {what} word: {label!r}")
    return tuple(label[1:-1].split("|")) if label[1:-1] else ()


def bar_word_label(entries) -> str:
    return "[" + "|".join(entries) + "]"


def bar_word_entries(label: str) -> tuple:
    return _word_entries(label, "[]", "bar")


def cobar_word_label(entries) -> str:
    return "<" + "|".join(entries) + ">"


def cobar_word_entries(label: str) -> tuple:
    return _word_entries(label, "<>", "cobar")


def _known_above(sp: GradedSpace):
    """Largest degree through which the basis is fully known (POS_INF when
    the true support already lies inside the window)."""
    return POS_INF if sp.bounds[1] <= sp.window.hi else sp.window.hi


def _known_below(sp: GradedSpace):
    return NEG_INF if sp.bounds[0] >= sp.window.lo else sp.window.lo


def _word_complex(carrier: Complex, shift: int, window: DegreeWindow | None,
                  skip: str, quadratic, label, what: str):
    """The complex on words in the letters s^shift x, x a basis label of
    ``carrier`` other than ``skip``, shared by bar (shift -1) and cobar
    (shift +1); the window is trimmed to the degrees whose words use only
    known letters.  The words of magnitude m (|degree|) are each letter, in
    label order, followed by the words of magnitude m − |letter|: sorted,
    each labelled once.  d(x·u) is the terms at x, which are −s(dx) and the
    terms ``(replacement, width, coefficient)`` of ``quadratic(x, y)`` (y
    the first letter of u, None for the empty word) replacing ``width``
    letters from x, plus (−1)^{|x|}·x·d(u), d(u) already built, also for a
    tail u outside the window.  The terms at x are made once per letter
    pair.  Unless a letter has carrier degree 0, no term at x is x-prefixed,
    so the item order is that of the sum taken letter by letter.
    """
    sp = carrier.space
    f = sp.field
    w = window or sp.window
    letters = sorted((l, sp.deg(l) + shift) for l in sp if l != skip)
    if not letters:
        win, bounds, pol, near, far = w, (0, 0), 1, 0, 0
    else:
        degs = [d for _, d in letters]
        if 0 in degs:
            raise StructureError(f"{what}: letter of suspended degree 0 "
                                 "(not simply connected); word counts per "
                                 "degree are unbounded")
        if min(degs) < 0 < max(degs):
            raise StructureError(f"{what}: letters of mixed suspended sign; "
                                 "word enumeration does not terminate")
        pol = 1 if degs[0] > 0 else -1
        if pol > 0:
            ka = _known_above(sp)
            hi = w.hi if ka == POS_INF else min(w.hi, int(ka) + shift)
            win = DegreeWindow(max(w.lo, 0), max(hi, 0))
            bounds = (0, POS_INF)
        else:
            kb = _known_below(sp)
            lo = w.lo if kb == NEG_INF else max(w.lo, int(kb) - shift)
            win = DegreeWindow(min(lo, 0), min(w.hi, 0))
            bounds = (NEG_INF, 0)
        near, far = (win.lo, win.hi) if pol > 0 else (-win.hi, -win.lo)

    def spelled(m):
        # (x, entries of u, label of u) for the words x·u of magnitude m
        for x, d in letters:
            if (k := m - pol * d) >= 0:
                for e, lu in zip(words[k], labels[k]):
                    yield x, e, lu

    words, labels = [[()]], [[label(())]]
    pre = {x: {} for x, _ in letters}  # label of u -> label of x·u
    for m in range(1, far + 1):
        ws, ls = [], []
        for x, e, lu in spelled(m):
            ws.append((x,) + e)
            ls.append(lab := label(ws[-1]))
            pre[x][lu] = lab
        words.append(ws)
        labels.append(ls)
    index = {e: l for ws, ls in zip(words, labels) for e, l in zip(ws, ls)}
    p = f.p
    minus = f.from_int(-1)
    odd = {l for l, d in letters if d % 2}
    internal = {l: [((t,), 1, f.neg(v))
                    for t, v in carrier.d(l).items() if t != skip]
                for l, _ in letters}
    memo: dict = {}
    full: dict = {}  # the columns of all words, tails outside the window too
    # the magnitudes whose targets, at m + pol, are enumerated
    for m in range(1, far + (pol < 0)):
        for x, e, lu in spelled(m):
            y = e[0] if e else None
            terms = memo.get((x, y))
            if terms is None:
                terms = memo[x, y] = internal[x] + quadratic(x, y)
            col: dict = {}
            get = col.get
            for rep, width, v in terms:
                tgt = index.get(rep + e[width - 1:])
                if tgt is not None:
                    s = get(tgt, 0) + v
                    if p is not None:
                        s %= p
                    if s:
                        col[tgt] = s
                    else:
                        col.pop(tgt, None)
            px = pre[x]
            if du := full.get(lu):
                vec_iadd(f, col, minus if x in odd else 1,
                         {px[t]: v for t, v in du.items()})
            if col:
                full[px[lu]] = col
    basis = {pol * m: labels[m] for m in range(near, far + 1)}
    bsp = GradedSpace(f, win, basis, bounds=bounds)
    cols = {l: full[l] for m in range(near, far + 1) if near <= m + pol <= far
            for l in labels[m] if l in full}
    return Complex(bsp, GradedMap(bsp, bsp, 1, cols))


# -------------------------------------------------------------------------
# bar construction
# -------------------------------------------------------------------------

def bar(a: DGAlgebra, window: DegreeWindow | None = None) -> DGCoalgebra:
    """Reduced bar construction B(a) as a DG coalgebra under
    deconcatenation.  B(m;a) = m ⊗_τ B(a) is
    ``twisted_tensor_right(m, canonical_tau(a, barc=B(a)))``."""
    f = a.field

    def merge(x, y):
        # (-1)^{deg x} s(x * y)
        if y is None:
            return []
        sign = f.from_int(-1 if a.space.deg(x) % 2 else 1)
        return [((t,), 2, f.mul(sign, v))
                for t, v in a.mult_pair(x, y).items() if t != a.unit]

    cx = _word_complex(a.carrier, -1, window, a.unit, merge,
                       bar_word_label, "bar construction")
    bsp = cx.space

    def comult_label(label: str) -> list:
        # deconcatenation, on demand: the cuts into two words of the space
        if label not in bsp:
            return []
        entries = bar_word_entries(label)
        cuts = [(bar_word_label(entries[:i]), bar_word_label(entries[i:]))
                for i in range(len(entries) + 1)]
        return [(left, right, f.one) for left, right in cuts
                if left in bsp and right in bsp]

    unit = bar_word_label(())
    return DGCoalgebra(cx, comult_label, {unit: f.one}, unit,
                       name=f"B({a.name})" if a.name else "B")


def canonical_tau(a: DGAlgebra, window: DegreeWindow | None = None,
                  barc: DGCoalgebra | None = None) -> TwistingCochain:
    """τ : B(a) → a, the identity on length-one words."""
    b = barc if barc is not None else bar(a, window)
    f = a.field
    cols = {}
    for l in b.space:
        entries = bar_word_entries(l)
        if len(entries) == 1:
            cols[l] = {entries[0]: f.one}
    gm = GradedMap(b.space, a.space, 1, cols)
    return TwistingCochain(b, a, gm)


# -------------------------------------------------------------------------
# cobar construction
# -------------------------------------------------------------------------

def cobar(c: DGCoalgebra, window: DegreeWindow | None = None) -> DGAlgebra:
    """Cobar construction Ω(c): tensor algebra on the desuspended
    coaugmentation cokernel, differential from d_C and the reduced
    coproduct.  Ω(n;c) = n ⊗_τ₀ Ω(c) is
    ``twisted_tensor_left(n, canonical_tau0(c, cobarc=Ω(c)))``."""
    sp = c.space
    f = c.field
    # -(-1)^{deg c'} <c'><c''>, once per letter
    splits = {l: [((c1, c2), 1,
                   f.mul(f.from_int(1 if sp.deg(c1) % 2 else -1), v))
                  for c1, c2, v in c.reduced_comult(l)]
              for l in sp if l != c.coaug}
    cx = _word_complex(c.carrier, 1, window, c.coaug,
                       lambda x, y: splits[x],
                       cobar_word_label, "cobar construction")
    osp = cx.space

    def mult_pair(a: str, b: str) -> dict:
        # the tensor algebra multiplies by concatenation; every word whose
        # degree lies in the window is a basis label
        if osp.deg(a) + osp.deg(b) not in osp.window:
            return {}
        return {cobar_word_label(cobar_word_entries(a)
                                 + cobar_word_entries(b)): f.one}

    nonneg = osp.bounds[0] == 0
    return DGAlgebra(cx, cobar_word_label(()), mult_pair,
                     "non-negative" if nonneg else "non-positive",
                     simply_connected=osp.dim(1 if nonneg else -1) == 0,
                     name=f"Ω({c.name})" if c.name else "Ω")


def canonical_tau0(c: DGCoalgebra, window: DegreeWindow | None = None,
                   cobarc: DGAlgebra | None = None) -> TwistingCochain:
    """τ₀ : c → Ω(c), desuspension inclusion on the coaugmentation
    cokernel."""
    om = cobarc if cobarc is not None else cobar(c, window)
    f = c.field
    cols = {}
    for l in c.space:
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


def _tensor_complex(x, y, window: DegreeWindow | None, twist):
    """x ⊗ y on its complete tensor window with d = d⊗1 + (−1)^{|x|}1⊗d +
    twist, shared by both twisted tensor products.  ``twist(xl, yl)``
    yields the twist terms of xl⊗yl as (x label, y label, coefficient).
    Returns the complex and {label: (x label, y label)}."""
    f = x.field
    xs, ys = x.space, y.space
    win = tensor_window(xs, ys, window)
    basis: dict = {}
    pairs: dict = {}
    for i in xs.degrees():
        for xl in xs.labels(i):
            for j in ys.degrees():
                if i + j in win:
                    for yl in ys.labels(j):
                        label = tensor_label(xl, yl)
                        basis.setdefault(i + j, []).append(label)
                        pairs[label] = (xl, yl)
    bounds = (xs.bounds[0] + ys.bounds[0], xs.bounds[1] + ys.bounds[1])
    sp = GradedSpace(f, win, basis, bounds=bounds)
    cols: dict = {}
    for label, (xl, yl) in pairs.items():
        sgn = f.from_int(-1 if xs.deg(xl) % 2 else 1)
        terms = [(t, yl, v) for t, v in x.carrier.d(xl).items()]
        terms += [(xl, t, f.mul(sgn, v)) for t, v in y.carrier.d(yl).items()]
        terms += twist(xl, yl)
        col: dict = {}
        for tx, ty, v in terms:
            tgt = tensor_label(tx, ty)
            if tgt in sp:
                vec_iadd(f, col, v, {tgt: f.one})
        if col:
            cols[label] = col
    return Complex(sp, GradedMap(sp, sp, 1, cols)), pairs


def twisted_tensor_right(m: DGModule, t: TwistingCochain,
                         window: DegreeWindow | None = None) -> DGComodule:
    """m ⊗_τ C for a right A-module m and twisting cochain τ : C → A, with
    d = d_M⊗1 + 1⊗d_C − (μ_M⊗1)(1⊗τ⊗1)(1⊗Δ_C); a right C-comodule via
    1⊗Δ_C."""
    if m.side != "right":
        raise StructureError("twisted_tensor_right needs a right module")
    c = t.source
    f = m.field
    cuts: dict = {}  # c -> its cuts (τ(c′), c″, v) with τ(c′) ≠ 0

    def twist(ml, cl):
        # −(−1)^{|m|} m·τ(c′) ⊗ c″
        if cl not in cuts:
            cuts[cl] = [(ta, c2, v) for c1, c2, v in c.comult_label(cl)
                        if (ta := t.apply_label(c1))]
        sgn = f.from_int(1 if m.space.deg(ml) % 2 else -1)
        for ta, c2, v in cuts[cl]:
            for tl, u in m.act({ml: f.one}, ta).items():
                yield tl, c2, f.mul(f.mul(sgn, v), u)

    cx, pairs = _tensor_complex(m, c, window, twist)

    def coaction_label(label: str) -> list:
        # 1⊗Δ_C, on demand
        if label not in pairs:
            return []
        ml, cl = pairs[label]
        terms = [(tensor_label(ml, c1), c2, v)
                 for c1, c2, v in c.comult_label(cl)]
        return [t for t in terms if t[0] in cx.space]

    nm = f"{m.name}⊗τ{c.name}" if m.name and c.name else ""
    return DGComodule(cx, c, coaction_label, name=nm)


def twisted_tensor_left(n: DGComodule, t: TwistingCochain,
                        window: DegreeWindow | None = None) -> DGModule:
    """n ⊗_τ A for a right C-comodule n and τ : C → A (the mirrored
    twisted differential); a right A-module via 1⊗μ_A."""
    a = t.target
    f = n.field

    def twist(nl, al):
        # (−1)^{|n′|} n′ ⊗ τ(c)·a: with the right-sided twist taken
        # negative, d^2 = 0 forces t^2 = -(Dt + tD) and that fixes this sign
        for n1, cl, v in n.coaction_label(nl):
            ta = t.apply_label(cl)
            if ta:
                sgn = f.from_int(-1 if n.space.deg(n1) % 2 else 1)
                for tl, u in a.multiply(ta, {al: f.one}).items():
                    yield n1, tl, f.mul(f.mul(sgn, v), u)

    cx, pairs = _tensor_complex(n, a, window, twist)
    sp = cx.space

    def act_pair(label: str, bl: str) -> dict:
        """(n ⊗ a)·b = n ⊗ ab."""
        if sp.deg(label) + a.space.deg(bl) not in sp.window:
            return {}
        nl, al = pairs[label]
        combo = {}
        for tl, v in a.mult_pair(al, bl).items():
            tgt = tensor_label(nl, tl)
            if tgt in sp:
                vec_iadd(f, combo, v, {tgt: f.one})
        return combo

    nm = f"{n.name}⊗τ{a.name}" if n.name and a.name else ""
    return DGModule(cx, a, act_pair, side="right", name=nm)


# -------------------------------------------------------------------------
# checks
# -------------------------------------------------------------------------

def two_sided_check(a: DGAlgebra, c: DGCoalgebra, t: TwistingCochain,
                    window: DegreeWindow | None = None) -> dict:
    """Builds A⊗_τC⊗_τA and checks that x⊗c⊗y ↦ ε(c)·xy is a
    quasi-isomorphism onto A; per-degree verdicts."""
    f = a.field
    half = twisted_tensor_right(free_module(a), t, window)
    full = twisted_tensor_left(half, t, window)
    cols = {}
    for label in full.space:
        hl, yl = _split_tensor_label(label, half.space)
        xl, cl = _split_tensor_label(hl, a.space)
        eps = c.counit.get(cl, f.zero)
        if f.is_zero(eps):
            continue
        combo = {tl: f.mul(eps, v) for tl, v in a.mult_pair(xl, yl).items()}
        if combo:
            cols[label] = combo
    gm = GradedMap(full.space, a.space, 0, cols)
    chain_ok, _ = is_chain_map(gm, full.carrier, a.carrier)
    verdicts = is_quasi_iso(gm, full.carrier, a.carrier) if chain_ok else {}
    ok = chain_ok and all(v is not False for v in verdicts.values()) \
        and any(v is True for v in verdicts.values())
    return {"ok": ok, "chain_map": chain_ok, "by_degree": verdicts,
            "window": (full.space.window.lo, full.space.window.hi)}
