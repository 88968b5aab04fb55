"""DG algebras, modules, coalgebras and comodules with explicit structure
tables on named bases; graded dualization; the comodule-to-module functor
and its dual; the cocompleteness filtration; twisting cochain validation.

Structure constants are stored as explicit tables so that every axiom is
decidable by exhaustive checking on the window bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from dgkoszul.exactlinalg import FieldSpec, vec_add, vec_addmul, vec_scale
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    NEG_INF,
    POS_INF,
    check_d_squared,
    koszul_sign,
    shift_complex,
)


@dataclass
class ValidationReport:
    ok: bool
    violations: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.ok

    def fail(self, msg: str):
        self.ok = False
        self.violations.append(msg)


class DGAlgebra:
    """DG algebra with multiplication table on basis pairs.

    ``mult`` maps (label, label) -> combination; pairs whose product degree
    falls outside the window may be absent (truncated).  The augmentation
    of a connected algebra is projection onto the unit coefficient.
    """

    def __init__(self, carrier: Complex, unit: str, mult: dict,
                 polarity: str, simply_connected: bool = False,
                 name: str = ""):
        if polarity not in ("non-negative", "non-positive"):
            raise ValueError(f"bad polarity {polarity!r}")
        self.carrier = carrier
        self.unit = unit
        self.mult = mult
        self.polarity = polarity
        self.simply_connected = simply_connected
        self.name = name

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

    def mult_pair(self, a: str, b: str) -> dict:
        """Product of two basis labels; {} when the product degree is
        outside the window (truncated), error when the table has a gap
        inside the window."""
        if (a, b) in self.mult:
            return self.mult[(a, b)]
        n = self.space.deg(a) + self.space.deg(b)
        if n in self.space.window:
            raise StructureError(f"multiplication table gap at ({a!r}, {b!r})")
        return {}

    def multiply(self, x: dict, y: dict) -> dict:
        f = self.field
        out: dict = {}
        for a, ca in x.items():
            for b, cb in y.items():
                out = vec_addmul(f, out, f.mul(ca, cb), self.mult_pair(a, b))
        return out

    def augmentation(self, x: dict):
        return x.get(self.unit, self.field.zero)

    def aug_ideal_labels(self):
        for n in self.space.degrees():
            for l in self.space.labels(n):
                if l != self.unit:
                    yield l


def validate_algebra(a: DGAlgebra) -> ValidationReport:
    """Exhaustive window validation: grading/polarity, connectivity flags,
    unit laws, associativity, Leibniz, augmentation compatibility."""
    rep = ValidationReport(True)
    sp = a.space
    f = a.field
    degs = sp.degrees()
    if a.unit not in sp or sp.deg(a.unit) != 0:
        rep.fail("unit missing or not in degree 0")
        return rep
    if a.polarity == "non-negative" and degs and degs[0] < 0:
        rep.fail(f"polarity non-negative but basis in degree {degs[0]}")
    if a.polarity == "non-positive" and degs and degs[-1] > 0:
        rep.fail(f"polarity non-positive but basis in degree {degs[-1]}")
    if sp.labels(0) != (a.unit,):
        rep.fail("not connected: degree 0 is not spanned by the unit")
    if a.simply_connected:
        bad = 1 if a.polarity == "non-negative" else -1
        if sp.dim(bad):
            rep.fail(f"simply_connected flag but basis in degree {bad}")
    dsq = check_d_squared(a.carrier)
    if not dsq:
        rep.fail(f"d^2 != 0 at degree {dsq.degree}, label {dsq.label!r}")
    if a.carrier.d(a.unit):
        rep.fail("d(unit) != 0")
    labels = [l for n in degs for l in sp.labels(n)]
    one = {a.unit: f.one}
    for l in labels:
        if a.multiply(one, {l: f.one}) != {l: f.one}:
            rep.fail(f"left unit law fails at {l!r}")
            break
        if a.multiply({l: f.one}, one) != {l: f.one}:
            rep.fail(f"right unit law fails at {l!r}")
            break
    win = sp.window
    for x, y in itertools.product(labels, repeat=2):
        nx, ny = sp.deg(x), sp.deg(y)
        if nx + ny not in win or nx + ny + 1 not in win:
            continue
        lhs = a.carrier.d(a.mult_pair(x, y))
        rhs = a.multiply(a.carrier.d(x), {y: f.one})
        sgn = f.from_int(-1 if nx % 2 else 1)
        rhs = vec_add(f, rhs, vec_scale(f, sgn, a.multiply({x: f.one}, a.carrier.d(y))))
        if lhs != rhs:
            rep.fail(f"Leibniz fails at ({x!r}, {y!r})")
            break
    for x, y, z in itertools.product(labels, repeat=3):
        if sp.deg(x) + sp.deg(y) + sp.deg(z) not in win:
            continue
        lhs = a.multiply(a.mult_pair(x, y), {z: f.one})
        rhs = a.multiply({x: f.one}, a.mult_pair(y, z))
        if lhs != rhs:
            rep.fail(f"associativity fails at ({x!r}, {y!r}, {z!r})")
            break
    # augmentation is a DG algebra map: vanishes on d-images and on
    # products of augmentation-ideal elements (automatic when graded,
    # checked cheaply anyway)
    for l in labels:
        if not f.is_zero(a.augmentation(a.carrier.d(l))):
            rep.fail(f"augmentation not a chain map at {l!r}")
            break
    return rep


class DGModule:
    """DG module over a DG algebra; ``side`` is "right" or "left".

    Right action table: (module label, algebra label) -> combination.
    Left action table: (algebra label, module label) -> combination.
    """

    def __init__(self, carrier: Complex, over: DGAlgebra, action: dict,
                 side: str = "right", name: str = ""):
        if side not in ("right", "left"):
            raise ValueError(f"bad side {side!r}")
        self.carrier = carrier
        self.over = over
        self.action = action
        self.side = side
        self.name = name

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

    def act_pair(self, m: str, a: str) -> dict:
        """Right: m·a with (m, a) = (module, algebra) labels.
        Left: a·m with (m, a) = (algebra, module) labels."""
        key = (m, a)
        if key in self.action:
            return self.action[key]
        if self.side == "right":
            n = self.space.deg(m) + self.over.space.deg(a)
        else:
            n = self.over.space.deg(m) + self.space.deg(a)
        if n in self.space.window:
            raise StructureError(f"action table gap at {key!r}")
        return {}

    def act(self, x: dict, y: dict) -> dict:
        """Right: x module combo, y algebra combo.  Left: x algebra, y module."""
        f = self.field
        out: dict = {}
        for m, cm in x.items():
            for a, ca in y.items():
                out = vec_addmul(f, out, f.mul(cm, ca), self.act_pair(m, a))
        return out


def validate_module(m: DGModule) -> ValidationReport:
    rep = ValidationReport(True)
    f = m.field
    alg = m.over
    sp = m.space
    dsq = check_d_squared(m.carrier)
    if not dsq:
        rep.fail(f"d^2 != 0 at degree {dsq.degree}")
    mlabels = [l for n in sp.degrees() for l in sp.labels(n)]
    alabels = [l for n in alg.space.degrees() for l in alg.space.labels(n)]
    one = {alg.unit: f.one}
    right = m.side == "right"
    for l in mlabels:
        out = m.act({l: f.one}, one) if right else m.act(one, {l: f.one})
        if out != {l: f.one}:
            rep.fail(f"unit does not act as identity at {l!r}")
            break
    win = sp.window
    for l in mlabels:
        for x, y in itertools.product(alabels, repeat=2):
            if sp.deg(l) + alg.space.deg(x) + alg.space.deg(y) not in win:
                continue
            if right:
                lhs = m.act(m.act_pair(l, x), {y: f.one})
                rhs = m.act({l: f.one}, alg.mult_pair(x, y))
            else:
                lhs = m.act(alg.mult_pair(x, y), {l: f.one})
                rhs = m.act({x: f.one}, m.act({y: f.one}, {l: f.one}))
            if lhs != rhs:
                rep.fail(f"action associativity fails at ({l!r}, {x!r}, {y!r})")
                break
        else:
            continue
        break
    for l in mlabels:
        for x in alabels:
            dl, dx = sp.deg(l), alg.space.deg(x)
            if dl + dx not in win or dl + dx + 1 not in win:
                continue
            if right:
                lhs = m.carrier.d(m.act_pair(l, x))
                rhs = m.act(m.carrier.d(l), {x: f.one})
                sgn = f.from_int(-1 if dl % 2 else 1)
                rhs = vec_add(f, rhs, vec_scale(
                    f, sgn, m.act({l: f.one}, alg.carrier.d(x))))
            else:
                lhs = m.carrier.d(m.act_pair(x, l))
                rhs = m.act(alg.carrier.d(x), {l: f.one})
                sgn = f.from_int(-1 if dx % 2 else 1)
                rhs = vec_add(f, rhs, vec_scale(
                    f, sgn, m.act({x: f.one}, m.carrier.d(l))))
            if lhs != rhs:
                rep.fail(f"action Leibniz fails at ({l!r}, {x!r})")
                break
        else:
            continue
        break
    return rep


class DGCoalgebra:
    """DG coalgebra; ``comult`` maps label -> list of (l1, l2, coefficient)."""

    def __init__(self, carrier: Complex, comult: dict, counit: dict,
                 coaug: str, name: str = ""):
        self.carrier = carrier
        self.comult = comult
        self.counit = counit
        self.coaug = coaug
        self.name = name

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

    def comult_label(self, l: str) -> list:
        return self.comult.get(l, [])

    def reduced_comult(self, l: str) -> list:
        """Δ̄(x) = Δ(x) - x⊗1 - 1⊗x on a non-coaugmentation label."""
        f = self.field
        if l == self.coaug:
            raise StructureError("reduced coproduct of the coaugmentation")
        acc: dict = {}
        for l1, l2, c in self.comult_label(l):
            acc[(l1, l2)] = f.add(acc.get((l1, l2), f.zero), c)
        for key in ((l, self.coaug), (self.coaug, l)):
            acc[key] = f.sub(acc.get(key, f.zero), f.one)
        return [(l1, l2, c) for (l1, l2), c in acc.items() if not f.is_zero(c)]


def validate_coalgebra(c: DGCoalgebra) -> ValidationReport:
    rep = ValidationReport(True)
    f = c.field
    sp = c.space
    if c.coaug not in sp or sp.deg(c.coaug) != 0:
        rep.fail("coaugmentation missing or not in degree 0")
        return rep
    dsq = check_d_squared(c.carrier)
    if not dsq:
        rep.fail(f"d^2 != 0 at degree {dsq.degree}")
    if c.carrier.d(c.coaug):
        rep.fail("d(coaugmentation) != 0")
    if c.comult_label(c.coaug) != [(c.coaug, c.coaug, f.one)]:
        rep.fail("coaugmentation is not grouplike")
    labels = [l for n in sp.degrees() for l in sp.labels(n)]

    def eps(l):
        return c.counit.get(l, f.zero)

    for l in labels:
        left: dict = {}
        right: dict = {}
        for l1, l2, v in c.comult_label(l):
            left = vec_addmul(f, left, f.mul(eps(l1), v), {l2: f.one})
            right = vec_addmul(f, right, f.mul(eps(l2), v), {l1: f.one})
        if left != {l: f.one} or right != {l: f.one}:
            rep.fail(f"counit law fails at {l!r}")
            break
    for l in labels:
        lhs: dict = {}
        rhs: dict = {}
        for l1, l2, v in c.comult_label(l):
            for l1a, l1b, w in c.comult_label(l1):
                key = (l1a, l1b, l2)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(v, w))
            for l2a, l2b, w in c.comult_label(l2):
                key = (l1, l2a, l2b)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(v, w))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
        if lhs != rhs:
            rep.fail(f"coassociativity fails at {l!r}")
            break
    for l in labels:
        if not sp.complete_at(sp.deg(l) + 1):
            # the differential is truncated here; co-Leibniz unverifiable
            continue
        lhs: dict = {}
        for t, v in c.carrier.d(l).items():
            for l1, l2, w in c.comult_label(t):
                key = (l1, l2)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(v, w))
        rhs: dict = {}
        for l1, l2, v in c.comult_label(l):
            for t, w in c.carrier.d(l1).items():
                key = (t, l2)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(v, w))
            sgn = f.from_int(-1 if sp.deg(l1) % 2 else 1)
            for t, w in c.carrier.d(l2).items():
                key = (l1, t)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(f.mul(sgn, v), w))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
        if lhs != rhs:
            rep.fail(f"co-Leibniz fails at {l!r}")
            break
    return rep


class DGComodule:
    """Right DG comodule; ``coaction`` maps label -> list of
    (module label, coalgebra label, coefficient)."""

    def __init__(self, carrier: Complex, over: DGCoalgebra, coaction: dict,
                 side: str = "right", name: str = ""):
        if side != "right":
            raise ValueError("only right comodules are implemented")
        self.carrier = carrier
        self.over = over
        self.coaction = coaction
        self.side = side
        self.name = name

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

    def coaction_label(self, l: str) -> list:
        return self.coaction.get(l, [])

    def reduced_coaction(self, l: str) -> list:
        """Δ̄_N(x) = Δ_N(x) - x⊗1."""
        f = self.field
        acc: dict = {}
        for m, c, v in self.coaction_label(l):
            acc[(m, c)] = f.add(acc.get((m, c), f.zero), v)
        key = (l, self.over.coaug)
        acc[key] = f.sub(acc.get(key, f.zero), f.one)
        return [(m, c, v) for (m, c), v in acc.items() if not f.is_zero(v)]


def validate_comodule(n: DGComodule) -> ValidationReport:
    rep = ValidationReport(True)
    f = n.field
    sp = n.space
    co = n.over
    dsq = check_d_squared(n.carrier)
    if not dsq:
        rep.fail(f"d^2 != 0 at degree {dsq.degree}")
    labels = [l for k in sp.degrees() for l in sp.labels(k)]

    def eps(l):
        return co.counit.get(l, f.zero)

    for l in labels:
        out: dict = {}
        for m, c, v in n.coaction_label(l):
            out = vec_addmul(f, out, f.mul(eps(c), v), {m: f.one})
        if out != {l: f.one}:
            rep.fail(f"counitality fails at {l!r}")
            break
    for l in labels:
        lhs: dict = {}
        rhs: dict = {}
        for m, c, v in n.coaction_label(l):
            for m2, c2, w in n.coaction_label(m):
                key = (m2, c2, c)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(v, w))
            for c1, c2, w in co.comult_label(c):
                key = (m, c1, c2)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(v, w))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
        if lhs != rhs:
            rep.fail(f"coaction coassociativity fails at {l!r}")
            break
    for l in labels:
        lhs: dict = {}
        for t, v in n.carrier.d(l).items():
            for m, c, w in n.coaction_label(t):
                key = (m, c)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(v, w))
        rhs: dict = {}
        for m, c, v in n.coaction_label(l):
            for t, w in n.carrier.d(m).items():
                key = (t, c)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(v, w))
            sgn = f.from_int(-1 if sp.deg(m) % 2 else 1)
            for t, w in co.carrier.d(c).items():
                key = (m, t)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(f.mul(sgn, v), w))
        lhs = {k: v for k, v in lhs.items() if not f.is_zero(v)}
        rhs = {k: v for k, v in rhs.items() if not f.is_zero(v)}
        if lhs != rhs:
            rep.fail(f"coaction co-Leibniz fails at {l!r}")
            break
    return rep


@dataclass
class TwistingCochain:
    """Degree +1 map from a coaugmented coalgebra to an augmented algebra
    subject to the Maurer-Cartan identity."""
    source: DGCoalgebra
    target: DGAlgebra
    map: GradedMap  # shift +1, source carrier -> target carrier

    def apply(self, combo: dict) -> dict:
        return self.map.apply(combo)

    def apply_label(self, l: str) -> dict:
        return self.map.apply_label(l)


def validate_twisting_cochain(t: TwistingCochain) -> ValidationReport:
    """Residual of  d_A∘τ + τ∘d_C + μ_A∘(τ⊗τ)∘Δ_C  on every window basis
    element whose residual degree is verifiable."""
    rep = ValidationReport(True)
    f = t.target.field
    c, a = t.source, t.target
    if t.map.apply_label(c.coaug):
        rep.fail("τ does not vanish on the coaugmentation")
    for l in [l for n in c.space.degrees() for l in c.space.labels(n)]:
        if c.space.deg(l) + 2 not in a.space.window:
            continue
        res = a.carrier.d(t.apply_label(l))
        res = vec_add(f, res, t.apply(c.carrier.d(l)))
        for l1, l2, v in c.comult_label(l):
            # Koszul sign for moving τ (degree +1) past the first factor
            sgn = f.from_int(-1 if c.space.deg(l1) % 2 else 1)
            prod = a.multiply(t.apply_label(l1), t.apply_label(l2))
            res = vec_addmul(f, res, f.mul(sgn, v), prod)
        if res:
            rep.fail(f"Maurer-Cartan residual nonzero at {l!r}: {res}")
            break
    return rep


# -------------------------------------------------------------------------
# graded dualization
# -------------------------------------------------------------------------

def dual_label(l: str) -> str:
    return l + "*"

def undual_label(l: str) -> str:
    if not l.endswith("*"):
        raise ValueError(f"not a dual label: {l!r}")
    return l[:-1]


def dual_complex(c: Complex) -> Complex:
    """Graded dual: (V^∨)^{-k} = Hom(V^k, K); ⟨df, v⟩ = -(-1)^{|f|}⟨f, dv⟩."""
    f = c.field
    sp = c.space
    win = DegreeWindow(-sp.window.hi, -sp.window.lo)
    basis = {-n: tuple(dual_label(l) for l in labels)
             for n, labels in sp.basis.items()}
    blo, bhi = sp.bounds
    space = GradedSpace(f, win, basis, bounds=(-bhi, -blo))
    cols: dict = {}
    for n in sp.degrees():
        for y in sp.labels(n):
            for x, v in c.d(y).items():
                # contribution of ⟨d(x*), y⟩
                sgn = f.from_int(-1 if (-sp.deg(x)) % 2 else 1)
                coefficient = f.mul(f.from_int(-1), f.mul(sgn, v))
                col = cols.setdefault(dual_label(x), {})
                dy = dual_label(y)
                s = f.add(col.get(dy, f.zero), coefficient)
                if f.is_zero(s):
                    col.pop(dy, None)
                else:
                    col[dy] = s
    cols = {k: v for k, v in cols.items() if v}
    return Complex(space, GradedMap(space, space, 1, cols))


def graded_dual_algebra(a: DGAlgebra) -> DGCoalgebra:
    """Dual coalgebra of a locally finite algebra, with the pairing
    convention ⟨f⊗g, x⊗y⟩ = (-1)^{|g||x|} f(x)g(y)."""
    f = a.field
    cx = dual_complex(a.carrier)
    comult: dict = {}
    for (x, y), combo in a.mult.items():
        dx, dy = a.space.deg(x), a.space.deg(y)
        sgn = f.from_int(koszul_sign(dx, dy))
        for c, v in combo.items():
            comult.setdefault(dual_label(c), []).append(
                (dual_label(x), dual_label(y), f.mul(sgn, v)))
    # merge duplicates deterministically
    merged = {}
    for l, terms in comult.items():
        acc: dict = {}
        for l1, l2, v in terms:
            acc[(l1, l2)] = f.add(acc.get((l1, l2), f.zero), v)
        merged[l] = [(l1, l2, v) for (l1, l2), v in sorted(acc.items())
                     if not f.is_zero(v)]
    counit = {dual_label(a.unit): f.one}
    return DGCoalgebra(cx, merged, counit, dual_label(a.unit),
                       name=f"({a.name})^" if a.name else "")


def graded_dual_coalgebra(c: DGCoalgebra) -> DGAlgebra:
    """Dual algebra of a locally finite coalgebra."""
    f = c.field
    cx = dual_complex(c.carrier)
    mult: dict = {}
    for l, terms in c.comult.items():
        for l1, l2, v in terms:
            d1, d2 = c.space.deg(l1), c.space.deg(l2)
            sgn = f.from_int(koszul_sign(d1, d2))
            key = (dual_label(l1), dual_label(l2))
            col = mult.setdefault(key, {})
            dl = dual_label(l)
            s = f.add(col.get(dl, f.zero), f.mul(sgn, v))
            if f.is_zero(s):
                col.pop(dl, None)
            else:
                col[dl] = s
    # fill in zero products inside the window
    sp = cx.space
    labels = [l for n in sp.degrees() for l in sp.labels(n)]
    for x, y in itertools.product(labels, repeat=2):
        if (x, y) not in mult and sp.deg(x) + sp.deg(y) in sp.window:
            mult[(x, y)] = {}
    degs = sp.degrees()
    polarity = "non-negative" if not degs or degs[0] >= 0 else "non-positive"
    sc = not sp.dim(1) if polarity == "non-negative" else not sp.dim(-1)
    return DGAlgebra(cx, dual_label(c.coaug), mult, polarity,
                     simply_connected=sc,
                     name=f"({c.name})^" if c.name else "")


def comodule_to_module_F(n: DGComodule) -> DGModule:
    """The functor from right C-comodules to left C^∨-modules with the same
    underlying complex: f·m = Σ (-1)^{|m_i||c_i|} f(c_i) m_i for
    Δ_N(m) = Σ m_i ⊗ c_i."""
    f = n.field
    dual = graded_dual_coalgebra(n.over)
    action: dict = {}
    sp = n.space
    dsp = dual.space
    for l in [l for k in sp.degrees() for l in sp.labels(k)]:
        for m, c, v in n.coaction_label(l):
            fc = dual_label(c)
            if fc not in dsp:
                continue
            sgn = f.from_int(koszul_sign(sp.deg(m), n.over.space.deg(c)))
            key = (fc, l)
            col = action.setdefault(key, {})
            s = f.add(col.get(m, f.zero), f.mul(sgn, v))
            if f.is_zero(s):
                col.pop(m, None)
            else:
                col[m] = s
    for k in dsp.degrees():
        for a in dsp.labels(k):
            for l in [l for j in sp.degrees() for l in sp.labels(j)]:
                if (a, l) not in action and dsp.deg(a) + sp.deg(l) in sp.window:
                    action[(a, l)] = {}
    return DGModule(n.carrier, dual, action, side="left",
                    name=f"F({n.name})" if n.name else "")


def tD(n: DGComodule) -> DGModule:
    """(-)^∨ ∘ F: right module over C^∨ on the dual complex, with
    (φ·f)(m) = φ(f·m)."""
    f = n.field
    fm = comodule_to_module_F(n)
    dual_alg = fm.over
    dcx = dual_complex(n.carrier)
    action: dict = {}
    sp = n.space
    for k in dual_alg.space.degrees():
        for a in dual_alg.space.labels(k):
            for l in [l for j in sp.degrees() for l in sp.labels(j)]:
                img = fm.action.get((a, l), {})
                # (m'^*)·a has coefficient (a·m)_{m'} on m^*
                for mp, v in img.items():
                    key = (dual_label(mp), a)
                    if dcx.space.deg(dual_label(mp)) + k not in dcx.space.window:
                        continue
                    col = action.setdefault(key, {})
                    dl = dual_label(l)
                    s = f.add(col.get(dl, f.zero), v)
                    if f.is_zero(s):
                        col.pop(dl, None)
                    else:
                        col[dl] = s
    dsp = dcx.space
    for k in dual_alg.space.degrees():
        for a in dual_alg.space.labels(k):
            for j in dsp.degrees():
                for phi in dsp.labels(j):
                    if (phi, a) not in action and j + k in dsp.window:
                        action[(phi, a)] = {}
    return DGModule(dcx, dual_alg, action, side="right",
                    name=f"tD({n.name})" if n.name else "")


def cocomplete_filtration(n: DGComodule, max_level: int | None = None) -> dict:
    """Least l with the label killed by the l-fold reduced coaction, or
    None when not exhausted within the cap."""
    f = n.field
    cap = max_level if max_level is not None else max(4, n.space.total_dim() + 2)
    out = {}
    for l in [l for k in n.space.degrees() for l in n.space.labels(k)]:
        # state: dict (m_label, tuple of c_labels) -> coefficient
        state = {(l, ()): f.one}
        level = None
        for step in range(1, cap + 1):
            nxt: dict = {}
            for (m, cs), v in state.items():
                for m2, c, w in n.reduced_coaction(m):
                    key = (m2, (c,) + cs)
                    s = f.add(nxt.get(key, f.zero), f.mul(v, w))
                    if f.is_zero(s):
                        nxt.pop(key, None)
                    else:
                        nxt[key] = s
            if not nxt:
                level = step
                break
            state = nxt
        out[l] = level
    return out


# -------------------------------------------------------------------------
# standard constructions
# -------------------------------------------------------------------------

def trivial_algebra(field: FieldSpec, window: DegreeWindow) -> DGAlgebra:
    sp = GradedSpace(field, window, {0: ["1"]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    return DGAlgebra(cx, "1", {("1", "1"): {"1": field.one}},
                     "non-negative", simply_connected=True, name="K")


def _monomial_label(names: list, exps: tuple) -> str:
    parts = []
    for nm, e in zip(names, exps):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def polynomial_algebra(field: FieldSpec, window: DegreeWindow,
                       gens: list) -> DGAlgebra:
    """K[y_1, ..., y_n] with even positive generator degrees and zero
    differential, truncated to the window."""
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    for d in degs:
        if d <= 0 or d % 2:
            raise ValueError(f"polynomial generator degree must be even positive, got {d}")
    basis: dict = {}
    label_of: dict = {}
    maxdeg = window.hi

    def rec(i, exps, deg):
        if i == len(gens):
            l = _monomial_label(names, tuple(exps))
            basis.setdefault(deg, []).append((tuple(exps), l))
            return
        e = 0
        while deg + e * degs[i] <= maxdeg:
            rec(i + 1, exps + [e], deg + e * degs[i])
            e += 1

    rec(0, [], 0)
    basis_sorted = {}
    for deg in sorted(basis):
        items = sorted(basis[deg])
        basis_sorted[deg] = tuple(l for _, l in items)
        for exps, l in items:
            label_of[exps] = l
    sp = GradedSpace(field, window, basis_sorted, bounds=(0, POS_INF))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    exps_of = {l: e for e, l in label_of.items()}
    mult = {}
    for la, ea in exps_of.items():
        for lb, eb in exps_of.items():
            s = tuple(x + y for x, y in zip(ea, eb))
            deg = sum(x * d for x, d in zip(s, degs))
            if deg <= maxdeg:
                mult[(la, lb)] = {label_of[s]: field.one}
    nm = "K[" + ",".join(names) + "]"
    return DGAlgebra(cx, "1", mult, "non-negative", simply_connected=True, name=nm)


def truncated_polynomial_algebra(field: FieldSpec, window: DegreeWindow,
                                 name: str, degree: int, power: int) -> DGAlgebra:
    """K[y]/(y^power), degree even positive."""
    if degree <= 0 or degree % 2:
        raise ValueError("generator degree must be even positive")
    if power < 2:
        raise ValueError("power must be >= 2")
    basis = {}
    for e in range(power):
        d = e * degree
        if d > window.hi:
            break
        basis[d] = (_monomial_label([name], (e,)),)
    sp = GradedSpace(field, window, basis, bounds=(0, (power - 1) * degree))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    lab = {e: _monomial_label([name], (e,)) for e in range(power)}
    mult = {}
    for i in range(power):
        if i * degree > window.hi:
            continue
        for j in range(power):
            if j * degree > window.hi or (i + j) * degree > window.hi:
                continue
            if i + j < power:
                mult[(lab[i], lab[j])] = {lab[i + j]: field.one}
            else:
                mult[(lab[i], lab[j])] = {}
    return DGAlgebra(cx, "1", mult, "non-negative", simply_connected=True,
                     name=f"K[{name}]/({name}^{power})")


def _subset_label(names: list, subset: tuple) -> str:
    return "*".join(names[i] for i in subset) if subset else "1"


def _merge_sign(degs_a: list, degs_b: list, idx_a: tuple, idx_b: tuple):
    """Koszul sign for merging two increasing index tuples; None if they
    overlap (square-zero)."""
    if set(idx_a) & set(idx_b):
        return None
    sign = 1
    for i in idx_a:
        for j in idx_b:
            if j < i:
                sign *= koszul_sign(degs_a[i], degs_b[j])
    return sign


def exterior_algebra(field: FieldSpec, window: DegreeWindow,
                     gens: list) -> DGAlgebra:
    """Λ(x_1, ..., x_n) on odd-degree generators, zero differential."""
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    for d in degs:
        if d % 2 == 0:
            raise ValueError(f"exterior generator degree must be odd, got {d}")
    n = len(gens)
    subsets = []
    for r in range(n + 1):
        subsets.extend(itertools.combinations(range(n), r))
    basis: dict = {}
    for s in subsets:
        d = sum(degs[i] for i in s)
        if d not in window:
            raise ValueError("window too small for the exterior algebra basis")
        basis.setdefault(d, []).append((s, _subset_label(names, s)))
    basis_sorted = {d: tuple(l for _, l in sorted(items))
                    for d, items in sorted(basis.items())}
    bounds = (min(basis), max(basis))
    sp = GradedSpace(field, window, basis_sorted, bounds=bounds)
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    label = {s: _subset_label(names, s) for s in subsets}
    mult = {}
    for sa in subsets:
        for sb in subsets:
            sign = _merge_sign(degs, degs, sa, sb)
            if sign is None:
                mult[(label[sa], label[sb])] = {}
            else:
                merged = tuple(sorted(sa + sb))
                # sign of sorting the concatenation sa+sb
                seq = list(sa) + list(sb)
                sgn = sign_of_sort(seq, [degs[i] for i in seq])
                mult[(label[sa], label[sb])] = {label[merged]: field.from_int(sgn)}
    polarity = "non-negative" if all(d > 0 for d in degs) else "non-positive"
    sc = all(abs(d) >= 2 for d in degs) if polarity == "non-negative" else \
        all(d <= -2 for d in degs)
    return DGAlgebra(cx, "1", mult, polarity, simply_connected=sc,
                     name="Λ(" + ",".join(names) + ")")


def sign_of_sort(indices: list, degrees: list) -> int:
    """Koszul sign of stably sorting labelled odd/even symbols into
    increasing index order (bubble sort, counting each adjacent swap)."""
    idx = list(indices)
    deg = list(degrees)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(idx) - 1):
            if idx[i] > idx[i + 1]:
                sign *= koszul_sign(deg[i], deg[i + 1])
                idx[i], idx[i + 1] = idx[i + 1], idx[i]
                deg[i], deg[i + 1] = deg[i + 1], deg[i]
                changed = True
    return sign


def exterior_coalgebra(field: FieldSpec, window: DegreeWindow,
                       gens: list) -> DGCoalgebra:
    """∧ΣV: primitively generated coalgebra on odd-degree generators whose
    underlying space is the exterior algebra; Δ by signed unshuffles."""
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    for d in degs:
        if d % 2 == 0:
            raise ValueError(f"generator degree must be odd, got {d}")
    n = len(gens)
    subsets = []
    for r in range(n + 1):
        subsets.extend(itertools.combinations(range(n), r))
    basis: dict = {}
    for s in subsets:
        d = sum(degs[i] for i in s)
        if d not in window:
            raise ValueError("window too small for the exterior coalgebra basis")
        basis.setdefault(d, []).append((s, _subset_label(names, s)))
    basis_sorted = {d: tuple(l for _, l in sorted(items))
                    for d, items in sorted(basis.items())}
    sp = GradedSpace(field, window, basis_sorted,
                     bounds=(min(basis), max(basis)))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    label = {s: _subset_label(names, s) for s in subsets}
    comult = {}
    for s in subsets:
        terms = []
        members = list(s)
        for r in range(len(members) + 1):
            for t in itertools.combinations(members, r):
                u = tuple(i for i in members if i not in t)
                # sign of unshuffling s into (t, u)
                seq = list(t) + list(u)
                sgn = _unshuffle_sign(members, seq, degs)
                terms.append((label[tuple(t)], label[u], field.from_int(sgn)))
        comult[label[s]] = terms
    counit = {label[()]: field.one}
    return DGCoalgebra(cx, comult, counit, label[()],
                       name="∧Σ(" + ",".join(names) + ")")


def _unshuffle_sign(original: list, shuffled: list, degs: list) -> int:
    """Koszul sign of permuting ``original`` into ``shuffled``."""
    sign = 1
    seq = list(original)
    for pos, want in enumerate(shuffled):
        i = seq.index(want)
        for j in range(i - 1, pos - 1, -1):
            sign *= koszul_sign(degs[seq[j]], degs[want])
        seq.insert(pos, seq.pop(i))
    return sign


def free_module(a: DGAlgebra) -> DGModule:
    """A as a right module over itself."""
    action = {(m, x): combo for (m, x), combo in a.mult.items()}
    return DGModule(a.carrier, a, action, side="right", name=a.name)


def trivial_module(a: DGAlgebra, label: str = "1m") -> DGModule:
    """K with the augmentation action."""
    f = a.field
    sp = GradedSpace(f, a.space.window, {0: [label]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    action = {}
    for n in a.space.degrees():
        for x in a.space.labels(n):
            if n in sp.window:
                action[(label, x)] = {label: f.one} if x == a.unit else {}
    return DGModule(cx, a, action, side="right", name="K")


def truncated_module(a: DGAlgebra, name: str, degree: int, power: int) -> DGModule:
    """K[y]/(y^power) as a module over K[y] = a (single even generator)."""
    f = a.field
    win = a.space.window
    labels = {}
    basis = {}
    for e in range(power):
        d = e * degree
        if d > win.hi:
            break
        l = f"m:{_monomial_label([name], (e,))}"
        labels[e] = l
        basis[d] = (l,)
    sp = GradedSpace(f, win, basis, bounds=(0, (power - 1) * degree))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    action = {}
    for e, ml in labels.items():
        for n in a.space.degrees():
            for x in a.space.labels(n):
                if e * degree + n > win.hi:
                    continue
                j = n // degree
                if e + j < power:
                    tgt = labels.get(e + j)
                    action[(ml, x)] = {tgt: f.one} if tgt else {}
                else:
                    action[(ml, x)] = {}
    return DGModule(cx, a, action, side="right",
                    name=f"K[{name}]/({name}^{power})")


def module_shift(m: DGModule, k: int) -> DGModule:
    """Σ^k M with unchanged action table (the suspension symbol moves past
    nothing on the action side); differential picks up (-1)^k."""
    cx = shift_complex(m.carrier, k)
    return DGModule(cx, m.over, m.action, side=m.side,
                    name=f"Σ^{k}{m.name}" if m.name else "")


def module_direct_sum(ms: list, tags: list | None = None):
    """Direct sum of right modules over a common algebra; returns
    (module, inclusions, projections)."""
    from dgkoszul.gradedcomplex import direct_sum as _ds
    if not ms:
        raise ValueError("empty direct sum")
    alg = ms[0].over
    for m in ms:
        if m.over is not alg:
            raise StructureError("direct sum over different algebras")
        if m.side != "right":
            raise StructureError("direct sum of right modules only")
    tags = tags or [str(i) for i in range(len(ms))]
    total, incs, projs = _ds([m.carrier for m in ms], tags)
    f = alg.field
    action = {}
    for tag, m in zip(tags, ms):
        for (l, x), combo in m.action.items():
            if f"{tag}:{l}" in total.space:
                action[(f"{tag}:{l}", x)] = {
                    f"{tag}:{t}": v for t, v in combo.items()
                    if f"{tag}:{t}" in total.space}
    dm = DGModule(total, alg, action, side="right",
                  name="⊕(" + ",".join(m.name or "?" for m in ms) + ")")
    return dm, incs, projs


def comodule_over_self(c: DGCoalgebra) -> DGComodule:
    coaction = {l: list(terms) for l, terms in c.comult.items()}
    return DGComodule(c.carrier, c, coaction, name=c.name)


def trivial_comodule(c: DGCoalgebra, label: str = "1n") -> DGComodule:
    f = c.field
    sp = GradedSpace(f, c.space.window, {0: [label]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    coaction = {label: [(label, c.coaug, f.one)]}
    return DGComodule(cx, c, coaction, name="K")
