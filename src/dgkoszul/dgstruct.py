"""DG algebras, modules, coalgebras and comodules on named bases; graded
dualization; the comodule-to-module functor and its dual; the
cocompleteness filtration; twisting cochain validation.

Products and actions are given by rules, ``mult_pair(a, b)`` and
``act_pair(m, a)``, that compute the product of two basis labels on
demand: presets from per-label keys (exponent vectors, subsets, words),
graded duals from the transposed structure maps, table presentations from
their explicit table.  Coproducts and coactions are stored per label.
Every axiom stays decidable by exhaustive checking on the window bases;
the validators visit only the label pairs and triples whose degrees fit
the window.
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


def _table_rule(table: dict, left: GradedSpace, right: GradedSpace,
                window: DegreeWindow, what: str):
    """Product rule read from an explicit table (label, label) ->
    combination.  A pair missing from the table is a zero product when its
    degree falls outside ``window`` (truncation) and a gap, raised as
    StructureError, inside it."""
    def rule(a: str, b: str) -> dict:
        combo = table.get((a, b))
        if combo is not None:
            return combo
        if left.deg(a) + right.deg(b) in window:
            raise StructureError(f"{what} table gap at ({a!r}, {b!r})")
        return {}
    return rule


def _sparse_rule(nonzero: dict):
    """Product rule of a derived structure whose nonzero products are
    indexed by label pair; a missing pair is a zero product."""
    def rule(a: str, b: str) -> dict:
        return nonzero.get((a, b), {})
    return rule


def degree_compatible(spaces, total_ok):
    """Label tuples (l_1, ..., l_k), l_i a basis label of ``spaces[i]``,
    whose degree sum s satisfies ``total_ok(s)``, in lexicographic basis
    order.  Only degree groups that can still reach an accepted sum are
    visited."""
    degs = [sp.degrees() for sp in spaces]
    reach = [{0}]
    for ds in degs:
        reach.append({s + n for s in reach[-1] for n in ds})
    good = [set() for _ in reach]
    good[-1] = {s for s in reach[-1] if total_ok(s)}
    for i in range(len(degs) - 1, 0, -1):
        good[i] = {s for s in reach[i]
                   if any(s + n in good[i + 1] for n in degs[i])}

    def rec(i, s, prefix):
        if i == len(spaces):
            yield prefix
            return
        for n in degs[i]:
            if s + n in good[i + 1]:
                for l in spaces[i].labels(n):
                    yield from rec(i + 1, s + n, prefix + (l,))

    return rec(0, 0, ())


class DGAlgebra:
    """DG algebra whose multiplication is the rule ``mult_pair``.

    ``mult_pair(a, b)`` returns the product of two basis labels as a
    combination, and {} when the product degree falls outside the window
    (truncated).  Each call costs O(1) in the basis size; no pair table is
    built.  ``from_table`` wraps an explicit table.  The augmentation of a
    connected algebra is projection onto the unit coefficient.
    """

    def __init__(self, carrier: Complex, unit: str, mult_pair,
                 polarity: str, simply_connected: bool = False,
                 name: str = ""):
        if polarity not in ("non-negative", "non-positive"):
            raise ValueError(f"bad polarity {polarity!r}")
        self.carrier = carrier
        self.unit = unit
        self.mult_pair = mult_pair
        self.polarity = polarity
        self.simply_connected = simply_connected
        self.name = name

    @classmethod
    def from_table(cls, carrier: Complex, unit: str, table: dict,
                   polarity: str, simply_connected: bool = False,
                   name: str = "") -> "DGAlgebra":
        """Algebra whose products are read from ``table``; a gap inside
        the window raises StructureError when the pair is multiplied."""
        sp = carrier.space
        return cls(carrier, unit,
                   _table_rule(table, sp, sp, sp.window, "multiplication"),
                   polarity, simply_connected=simply_connected, name=name)

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

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
    for x, y in degree_compatible(
            (sp, sp), lambda s: s in win and s + 1 in win):
        lhs = a.carrier.d(a.mult_pair(x, y))
        rhs = a.multiply(a.carrier.d(x), {y: f.one})
        sgn = f.from_int(-1 if sp.deg(x) % 2 else 1)
        rhs = vec_add(f, rhs, vec_scale(f, sgn, a.multiply({x: f.one}, a.carrier.d(y))))
        if lhs != rhs:
            rep.fail(f"Leibniz fails at ({x!r}, {y!r})")
            break
    for x, y, z in degree_compatible((sp, sp, sp), lambda s: s in win):
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
    """DG module over a DG algebra whose action is the rule ``act_pair``;
    ``side`` is "right" or "left".

    Right: ``act_pair(m, a)`` is m·a for a module label m and an algebra
    label a.  Left: ``act_pair(a, m)`` is a·m.  Like ``mult_pair`` it
    returns {} when the degree falls outside the module's window, costs
    O(1) per call, and ``from_table`` wraps an explicit table.
    """

    def __init__(self, carrier: Complex, over: DGAlgebra, act_pair,
                 side: str = "right", name: str = ""):
        if side not in ("right", "left"):
            raise ValueError(f"bad side {side!r}")
        self.carrier = carrier
        self.over = over
        self.act_pair = act_pair
        self.side = side
        self.name = name

    @classmethod
    def from_table(cls, carrier: Complex, over: DGAlgebra, table: dict,
                   side: str = "right", name: str = "") -> "DGModule":
        """Module whose action is read from ``table``, keyed (module,
        algebra) label for a right module and (algebra, module) for a
        left one."""
        msp, asp = carrier.space, over.space
        left, right = (msp, asp) if side == "right" else (asp, msp)
        return cls(carrier, over,
                   _table_rule(table, left, right, msp.window, "action"),
                   side=side, name=name)

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

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
    asp = alg.space
    one = {alg.unit: f.one}
    right = m.side == "right"
    for l in [l for n in sp.degrees() for l in sp.labels(n)]:
        out = m.act({l: f.one}, one) if right else m.act(one, {l: f.one})
        if out != {l: f.one}:
            rep.fail(f"unit does not act as identity at {l!r}")
            break
    win = sp.window
    for l, x, y in degree_compatible((sp, asp, asp), lambda s: s in win):
        if right:
            lhs = m.act(m.act_pair(l, x), {y: f.one})
            rhs = m.act({l: f.one}, alg.mult_pair(x, y))
        else:
            lhs = m.act(alg.mult_pair(x, y), {l: f.one})
            rhs = m.act({x: f.one}, m.act({y: f.one}, {l: f.one}))
        if lhs != rhs:
            rep.fail(f"action associativity fails at ({l!r}, {x!r}, {y!r})")
            break
    for l, x in degree_compatible(
            (sp, asp), lambda s: s in win and s + 1 in win):
        if right:
            lhs = m.carrier.d(m.act_pair(l, x))
            rhs = m.act(m.carrier.d(l), {x: f.one})
            sgn = f.from_int(-1 if sp.deg(l) % 2 else 1)
            rhs = vec_add(f, rhs, vec_scale(
                f, sgn, m.act({l: f.one}, alg.carrier.d(x))))
        else:
            lhs = m.carrier.d(m.act_pair(x, l))
            rhs = m.act(alg.carrier.d(x), {l: f.one})
            sgn = f.from_int(-1 if asp.deg(x) % 2 else 1)
            rhs = vec_add(f, rhs, vec_scale(
                f, sgn, m.act({x: f.one}, m.carrier.d(l))))
        if lhs != rhs:
            rep.fail(f"action Leibniz fails at ({l!r}, {x!r})")
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


def merge_terms(f: FieldSpec, terms: list) -> list:
    """(l1, l2, coefficient) terms with the coefficients of a repeated
    pair summed, zeros dropped and pairs sorted (deterministic)."""
    acc: dict = {}
    for l1, l2, v in terms:
        acc[(l1, l2)] = f.add(acc.get((l1, l2), f.zero), v)
    return [(l1, l2, v) for (l1, l2), v in sorted(acc.items())
            if not f.is_zero(v)]


def graded_dual_algebra(a: DGAlgebra) -> DGCoalgebra:
    """Dual coalgebra of a locally finite algebra, with the pairing
    convention ⟨f⊗g, x⊗y⟩ = (-1)^{|g||x|} f(x)g(y)."""
    f = a.field
    sp = a.space
    cx = dual_complex(a.carrier)
    comult: dict = {}
    for x, y in degree_compatible((sp, sp), lambda s: s in sp.window):
        combo = a.mult_pair(x, y)
        if not combo:
            continue
        sgn = f.from_int(koszul_sign(sp.deg(x), sp.deg(y)))
        for c, v in combo.items():
            comult.setdefault(dual_label(c), []).append(
                (dual_label(x), dual_label(y), f.mul(sgn, v)))
    counit = {dual_label(a.unit): f.one}
    merged = {l: merge_terms(f, terms) for l, terms in comult.items()}
    return DGCoalgebra(cx, merged, counit, dual_label(a.unit),
                       name=f"({a.name})^" if a.name else "")


def _accumulate(f, nonzero: dict, key, label: str, v) -> None:
    """nonzero[key][label] += v, dropping the label when the sum is 0."""
    col = nonzero.setdefault(key, {})
    s = f.add(col.get(label, f.zero), v)
    if f.is_zero(s):
        col.pop(label, None)
    else:
        col[label] = s


def graded_dual_coalgebra(c: DGCoalgebra) -> DGAlgebra:
    """Dual algebra of a locally finite coalgebra; its products are the
    transposed coproduct, and a pair absent from it multiplies to 0."""
    f = c.field
    cx = dual_complex(c.carrier)
    mult: dict = {}
    for l, terms in c.comult.items():
        for l1, l2, v in terms:
            d1, d2 = c.space.deg(l1), c.space.deg(l2)
            sgn = f.from_int(koszul_sign(d1, d2))
            _accumulate(f, mult, (dual_label(l1), dual_label(l2)),
                        dual_label(l), f.mul(sgn, v))
    sp = cx.space
    degs = sp.degrees()
    polarity = "non-negative" if not degs or degs[0] >= 0 else "non-positive"
    sc = not sp.dim(1) if polarity == "non-negative" else not sp.dim(-1)
    return DGAlgebra(cx, dual_label(c.coaug), _sparse_rule(mult), polarity,
                     simply_connected=sc,
                     name=f"({c.name})^" if c.name else "")


def comodule_to_module_F(n: DGComodule) -> DGModule:
    """The functor from right C-comodules to left C^∨-modules with the same
    underlying complex: f·m = Σ (-1)^{|m_i||c_i|} f(c_i) m_i for
    Δ_N(m) = Σ m_i ⊗ c_i.  A pair absent from the transposed coaction
    acts by 0."""
    f = n.field
    dual = graded_dual_coalgebra(n.over)
    action: dict = {}
    sp = n.space
    for l in [l for k in sp.degrees() for l in sp.labels(k)]:
        for m, c, v in n.coaction_label(l):
            fc = dual_label(c)
            if fc not in dual.space:
                continue
            sgn = f.from_int(koszul_sign(sp.deg(m), n.over.space.deg(c)))
            _accumulate(f, action, (fc, l), m, f.mul(sgn, v))
    return DGModule(n.carrier, dual, _sparse_rule(action), side="left",
                    name=f"F({n.name})" if n.name else "")


def tD(n: DGComodule) -> DGModule:
    """(-)^∨ ∘ F: right module over C^∨ on the dual complex, with
    (φ·f)(m) = φ(f·m)."""
    f = n.field
    fm = comodule_to_module_F(n)
    dual_alg = fm.over
    dcx = dual_complex(n.carrier)
    dsp = dcx.space
    action: dict = {}
    sp = n.space
    for a, l in degree_compatible((dual_alg.space, sp),
                                  lambda s: s in sp.window):
        k = dual_alg.space.deg(a)
        # (m'^*)·a has coefficient (a·m)_{m'} on m^*
        for mp, v in fm.act_pair(a, l).items():
            if dsp.deg(dual_label(mp)) + k not in dsp.window:
                continue
            _accumulate(f, action, (dual_label(mp), a), dual_label(l), v)
    return DGModule(dcx, dual_alg, _sparse_rule(action), side="right",
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
    one = {"1": field.one}
    return DGAlgebra(cx, "1", lambda a, b: one,
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

    def mult_pair(a: str, b: str) -> dict:
        if sp.deg(a) + sp.deg(b) > maxdeg:
            return {}
        s = tuple(x + y for x, y in zip(exps_of[a], exps_of[b]))
        return {label_of[s]: field.one}

    nm = "K[" + ",".join(names) + "]"
    return DGAlgebra(cx, "1", mult_pair, "non-negative", simply_connected=True,
                     name=nm)


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
    exp_of = {l: e for e, l in lab.items()}

    def mult_pair(a: str, b: str) -> dict:
        e = exp_of[a] + exp_of[b]
        if e >= power or e * degree > window.hi:
            return {}
        return {lab[e]: field.one}

    return DGAlgebra(cx, "1", mult_pair, "non-negative", simply_connected=True,
                     name=f"K[{name}]/({name}^{power})")


def _subset_label(names: list, subset: tuple) -> str:
    return "*".join(names[i] for i in subset) if subset else "1"


def _exterior_carrier(field: FieldSpec, window: DegreeWindow, gens: list,
                      what: str):
    """Complex with zero differential on the subsets of odd-degree
    generators, and the label of each subset (increasing index tuple)."""
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    for d in degs:
        if d % 2 == 0:
            raise ValueError(f"exterior generator degree must be odd, got {d}")
    label = {s: _subset_label(names, s)
             for r in range(len(gens) + 1)
             for s in itertools.combinations(range(len(gens)), r)}
    basis: dict = {}
    for s, l in label.items():
        d = sum(degs[i] for i in s)
        if d not in window:
            raise ValueError(f"window too small for the exterior {what} basis")
        basis.setdefault(d, []).append((s, l))
    basis_sorted = {d: tuple(l for _, l in sorted(items))
                    for d, items in sorted(basis.items())}
    sp = GradedSpace(field, window, basis_sorted,
                     bounds=(min(basis), max(basis)))
    return Complex(sp, GradedMap.zero(sp, sp, 1)), label


def exterior_algebra(field: FieldSpec, window: DegreeWindow,
                     gens: list) -> DGAlgebra:
    """Λ(x_1, ..., x_n) on odd-degree generators, zero differential."""
    cx, label = _exterior_carrier(field, window, gens, "algebra")
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    subset_of = {l: s for s, l in label.items()}

    def mult_pair(a: str, b: str) -> dict:
        sa, sb = subset_of[a], subset_of[b]
        if set(sa) & set(sb):
            return {}
        # sign of sorting the concatenation sa+sb
        seq = sa + sb
        sgn = sign_of_sort(seq, [degs[i] for i in seq])
        return {label[tuple(sorted(seq))]: field.from_int(sgn)}

    polarity = "non-negative" if all(d > 0 for d in degs) else "non-positive"
    sc = all(abs(d) >= 2 for d in degs) if polarity == "non-negative" else \
        all(d <= -2 for d in degs)
    return DGAlgebra(cx, "1", mult_pair, polarity, simply_connected=sc,
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
    cx, label = _exterior_carrier(field, window, gens, "coalgebra")
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    comult = {}
    for s in label:
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
    return DGModule(a.carrier, a, a.mult_pair, side="right", name=a.name)


def trivial_module(a: DGAlgebra, label: str = "1m") -> DGModule:
    """K with the augmentation action."""
    f = a.field
    sp = GradedSpace(f, a.space.window, {0: [label]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    fixed = {label: f.one}

    def act_pair(m: str, x: str) -> dict:
        return fixed if x == a.unit else {}

    return DGModule(cx, a, act_pair, side="right", name="K")


def truncated_module(a: DGAlgebra, name: str, degree: int, power: int) -> DGModule:
    """K[y]/(y^power) as a module over K[y] = a (single even generator);
    an algebra label of degree n acts as y^(n // degree)."""
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
    exp_of = {l: e for e, l in labels.items()}

    def act_pair(ml: str, x: str) -> dict:
        e = exp_of[ml]
        n = a.space.deg(x)
        if e * degree + n > win.hi or e + n // degree >= power:
            return {}
        tgt = labels.get(e + n // degree)
        return {tgt: f.one} if tgt else {}

    return DGModule(cx, a, act_pair, side="right",
                    name=f"K[{name}]/({name}^{power})")


def module_shift(m: DGModule, k: int) -> DGModule:
    """Σ^k M with unchanged action (the suspension symbol moves past
    nothing on the action side); differential picks up (-1)^k."""
    cx = shift_complex(m.carrier, k)
    return DGModule(cx, m.over, m.act_pair, side=m.side,
                    name=f"Σ^{k}{m.name}" if m.name else "")


def module_direct_sum(ms: list, tags: list | None = None):
    """Direct sum of right modules over a common algebra; returns
    (module, inclusions, projections).  Each summand acts by its own
    rule on its tagged labels."""
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
    summand = {f"{tag}:{l}": (tag, m, l)
               for tag, m in zip(tags, ms)
               for n in m.space.degrees() for l in m.space.labels(n)}
    tsp = total.space

    def act_pair(label: str, x: str) -> dict:
        tag, m, l = summand[label]
        return {f"{tag}:{t}": v for t, v in m.act_pair(l, x).items()
                if f"{tag}:{t}" in tsp}

    dm = DGModule(total, alg, act_pair, side="right",
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
