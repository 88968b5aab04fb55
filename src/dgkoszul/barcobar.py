"""Bar and cobar constructions, canonical twisting cochains, twisted
tensor products and the two-sided resolution check.

Bar and cobar share one word-complex builder, ``_word_complex``, and
differ only in the quadratic part of the differential: bar merges two
adjacent letters by the product, cobar splits one letter by the reduced
coproduct.  The builder, the coproduct of the bar and the product of the
cobar know a word by its position in its degree; its label is spelled
only when a caller reads one.  Both twisted tensor products share one
tensor-complex builder, ``_tensor_complex``, and differ only in the twist
term and their (co)action.

Sign conventions are generated from the global Koszul rule applied to
suspension symbols; d^2 = 0 on every constructed complex is the
certificate that they are consistent.
"""

from __future__ import annotations

from functools import cached_property

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
# word complexes
# -------------------------------------------------------------------------

def bar_word_label(entries) -> str:
    return "[" + "|".join(entries) + "]"


def cobar_word_label(entries) -> str:
    return "<" + "|".join(entries) + ">"


def _known_above(sp: GradedSpace):
    """Largest degree through which the basis is fully known (POS_INF when
    the true support already lies inside the window)."""
    return POS_INF if sp.bounds[1] <= sp.window.hi else sp.window.hi


def _known_below(sp: GradedSpace):
    return NEG_INF if sp.bounds[0] >= sp.window.lo else sp.window.lo


class WordSpace(GradedSpace):
    """A space of words given by its dimensions: ``spell()`` gives its
    labels on the first read of one; ``dim``, ``degrees`` and
    ``total_dim`` read none."""

    def __init__(self, field, window, dims: dict, bounds: tuple, spell):
        self.field, self.window, self.bounds = field, window, bounds
        self._dims = {n: k for n, k in sorted(dims.items()) if k}
        self._spell = spell

    def _spelled(self, name: str):
        GradedSpace.__init__(self, self.field, self.window, self._spell(),
                             self.bounds)
        return self.__dict__[name]

    basis = cached_property(lambda self: self._spelled("basis"))
    _deg = cached_property(lambda self: self._spelled("_deg"))
    _index = cached_property(lambda self: self._spelled("_index"))


class WordComplex(Complex):
    """Words by positions: those of magnitude m (|degree|, of sign
    ``pol``) are each letter x, in label order, followed by each word of
    magnitude m − ``mag[x]``, from position ``start[m][x]`` on.  d_n is
    ``columns[n]``; the labelled map is derived on its first read."""

    def __init__(self, space: WordSpace, columns: dict, pol, mag, start):
        super().__init__(space, None)
        self._columns, self.pol = columns, pol
        self.mag, self.start = mag, start
        for n, cols in columns.items():
            top = space.dim(n + 1)
            for j, col in enumerate(cols):
                if col and (min(col) < 0 or max(col) >= top
                            or not all(col.values())):
                    t = next((t for t in col if not 0 <= t < top), None)
                    raise StructureError(
                        f"stored zero coefficient at {space.labels(n)[j]!r}"
                        if t is None else f"image label {t!r} not in target")

    def columns(self, n: int) -> list:
        return self._columns.get(n, [])

    @cached_property
    def differential(self) -> GradedMap:
        sp, cols = self.space, {}
        for n, pcols in self._columns.items():
            tgt = sp.labels(n + 1)
            cols.update((l, {tgt[t]: v for t, v in col.items()})
                        for l, col in zip(sp.labels(n), pcols) if col)
        return GradedMap(sp, sp, 1, cols)

    def first(self, m: int, j: int) -> tuple:
        """(x, magnitude of u, position of u) for the word x·u at position
        j of magnitude m > 0."""
        for x, s in reversed(self.start[m].items()):
            if s <= j:
                return x, m - self.mag[x], j - s

    def concat(self, m: int, j: int, k: int, i: int) -> int:
        """The position of the word at (m, j) followed by the one at (k, i)."""
        if not m:
            return i
        x, m, j = self.first(m, j)
        return self.start[m + k + self.mag[x]][x] + self.concat(m, j, k, i)

    def label(self, m: int, j: int):
        """The label of the word at position j of magnitude m, or None
        outside the window."""
        words = self.space.basis.get(self.pol * m)
        return words[j] if words else None

    def letters(self) -> dict:
        """{x: label of the word x} for the words x in the window, in
        basis order."""
        return {x: self.label(e, j) for _, j, e, x in sorted(
            (self.pol * e, self.start[e][x], e, x)
            for x, e in self.mag.items() if self.pol * e in self.window)}


def _word_complex(carrier: Complex, shift: int, window: DegreeWindow | None,
                  skip: str, quadratic, label, what: str) -> WordComplex:
    """The complex on words in the letters s^shift x, x a basis label of
    ``carrier`` other than ``skip``, shared by bar (shift -1) and cobar
    (shift +1); the window is trimmed to the degrees whose words use only
    known letters.  The words of magnitude m (|degree|) are each letter, in
    label order, followed by the words of magnitude m − |letter|, so they
    are sorted; the builder knows them by their positions
    (``WordComplex``), and the space spells their labels
    ``label(letters)`` on the first read of one.  d(x·u) is the terms at
    x, which are −s(dx) and the terms ``(replacement, width,
    coefficient)`` of ``quadratic(x, y)`` (y the first letter of u, None
    for the empty word) replacing ``width`` letters from x, plus
    (−1)^{|x|}·x·d(u), d(u) already built, also for a tail u outside the
    window.  A term's target lies a fixed number of positions from u, the
    same for each u of one first letter, so the terms at x are summed once
    per letter pair and magnitude.  Unless a letter has carrier degree 0,
    no term at x is x-prefixed, so the item order is that of the sum taken
    letter by letter.
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
    mag = {x: pol * d for x, d in letters}
    count, start = [1], [{}]
    for m in range(1, far + 1):
        s, k = {}, 0
        for x, e in mag.items():
            if m >= e and count[m - e]:
                s[x], k = k, k + count[m - e]
        start.append(s)
        count.append(k)

    def spell():
        words = [[()]]
        for m in range(1, far + 1):
            words.append([(x,) + u for x in start[m]
                          for u in words[m - mag[x]]])
        return {pol * m: [label(u) for u in words[m]]
                for m in range(near, far + 1)}

    p = f.p
    minus = f.from_int(-1)
    internal = {x: [((t,), 1, f.neg(v))
                    for t, v in carrier.d(x).items() if t != skip]
                for x in mag}
    memo: dict = {}
    full = [[{}]]  # the columns of all words, tails outside the window too
    # the magnitudes whose targets, at m + pol, are enumerated
    for m in range(1, far + (pol < 0)):
        top, cols = start[m + pol], []
        for x in start[m]:
            k = m - mag[x]
            off, sg, tails = top.get(x), minus if mag[x] % 2 else 1, full[k]
            for y, lo in start[k].items() if k else [(None, 0)]:
                terms = memo.get((x, y))
                if terms is None:
                    terms = memo[x, y] = [t for t in internal[x] + quadratic(
                        x, y) if all(r in mag for r in t[0])]
                    if any(sum(map(mag.get, rep)) != mag[x] + pol + (
                            mag[y] if width == 2 else 0)
                           for rep, width, _ in terms):
                        raise StructureError(f"{what}: a term of d at {x!r} "
                                             "is not of degree one more")
                at: dict = {}  # target less tail position -> coefficient
                for rep, width, v in terms:
                    c, mm = -lo if width == 2 else 0, m + pol
                    for r in rep:
                        c += start[mm][r]
                        mm -= mag[r]
                    s = at.get(c, 0) + v
                    if p is not None:
                        s %= p
                    if s:
                        at[c] = s
                    else:
                        at.pop(c, None)
                for j in range(lo, lo + (count[k - mag[y]] if k else 1)):
                    col = {j + c: v for c, v in at.items()}
                    if du := tails[j]:
                        vec_iadd(f, col, sg,
                                 {off + t: v for t, v in du.items()})
                    cols.append(col)
        full.append(cols)
    bsp = WordSpace(f, win, {pol * m: count[m] for m in range(near, far + 1)},
                    bounds, spell)
    return WordComplex(bsp, {pol * m: full[m] if near <= m + pol <= far
                             else [{}] * count[m]
                             for m in range(near, far + 1)}, pol, mag, start)


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
    bsp, start = cx.space, cx.start
    cuts = {(0, 0): [((0, 0), (0, 0))]}

    def cut(m, j):
        # the cuts of the word at (m, j) into two words, by positions: those
        # of x·u are (empty, x·u) and x·l, r for the cuts (l, r) of u
        if (m, j) not in cuts:
            x, k, i = cx.first(m, j)
            e = cx.mag[x]
            cuts[m, j] = [((0, 0), (m, j))] + [
                ((e + lm, start[e + lm][x] + lj), r)
                for (lm, lj), r in cut(k, i)]
        return cuts[m, j]

    def comult_label(label: str) -> list:
        # deconcatenation, on demand: the cuts into two words of the space
        if label not in bsp:
            return []
        words, pol, out = bsp.basis, cx.pol, []
        for (lm, lj), (rm, rj) in cut(pol * bsp.deg(label), bsp.index(label)):
            left, right = words.get(pol * lm), words.get(pol * rm)
            if left and right:
                out.append((left[lj], right[rj], f.one))
        return out

    unit = bar_word_label(())
    return DGCoalgebra(cx, comult_label, {unit: f.one}, unit,
                       name=f"B({a.name})" if a.name else "B")


def canonical_tau(a: DGAlgebra, window: DegreeWindow | None = None,
                  barc: DGCoalgebra | None = None) -> TwistingCochain:
    """τ : B(a) → a, the identity on length-one words."""
    b = barc if barc is not None else bar(a, window)
    cols = {l: {x: a.field.one} for x, l in b.carrier.letters().items()}
    return TwistingCochain(b, a, GradedMap(b.space, a.space, 1, cols))


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
        (m, j), (k, i) = ((cx.pol * osp.deg(l), osp.index(l)) for l in (a, b))
        return {cx.label(m + k, cx.concat(m, j, k, i)): f.one}

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
    words = om.carrier.letters()
    cols = {l: {words[l]: c.field.one} for l in c.space if l in words}
    return TwistingCochain(c, om, GradedMap(c.space, om.space, 1, cols))


# -------------------------------------------------------------------------
# twisted tensor products
# -------------------------------------------------------------------------

def tensor_window(spa: GradedSpace, spb: GradedSpace,
                  requested: DegreeWindow | None) -> DegreeWindow:
    """Degree range on which the tensor product of two (possibly
    truncated) spaces has a complete basis, within ``requested`` if given."""
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


def _tensor_complex(x, y, window: DegreeWindow | None, twist):
    """x ⊗ y on its complete tensor window with d = d⊗1 + (−1)^{|x|}1⊗d +
    twist, shared by both twisted tensor products.  ``twist(xl, yl)``
    yields the twist terms of xl⊗yl as (x label, y label, coefficient).
    The complex's ``pairs`` is {label: (x label, y label)}."""
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
    cx = Complex(sp, GradedMap(sp, sp, 1, cols))
    cx.pairs = pairs
    return cx


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

    cx = _tensor_complex(m, c, window, twist)
    pairs = cx.pairs

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

    cx = _tensor_complex(n, a, window, twist)
    sp, pairs = cx.space, cx.pairs

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

def two_sided_check(t: TwistingCochain,
                    window: DegreeWindow | None) -> dict:
    """Builds A⊗_τC⊗_τA for τ : C → A and checks that x⊗c⊗y ↦ ε(c)·xy
    is a quasi-isomorphism onto A; per-degree verdicts."""
    a, c = t.target, t.source
    f = a.field
    half = twisted_tensor_right(free_module(a), t, window)
    full = twisted_tensor_left(half, t, window)
    cols = {}
    for label in full.space:
        hl, yl = full.carrier.pairs[label]
        xl, cl = half.carrier.pairs[hl]
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
