"""DG algebras, modules, coalgebras and comodules on named bases; graded
dualization; the comodule-to-module functor; twisting cochain
validation.

Products and actions are given by rules, ``mult_pair(a, b)`` and
``act_pair(m, a)``, that compute the product of two basis labels on demand:
presets from per-label keys (exponent vectors, words), graded duals from
the transposed structure maps, table presentations from their explicit
table.  One monomial builder gives the polynomial, truncated and exterior
presets their basis and a product that adds two integer codes of exponent
vectors; the exterior coalgebra splits the product, and the truncated
module reuses the basis.  Coproducts and coactions are rules too,
``comult_label(l)`` and ``coaction_label(l)``: a construction that builds
a table (the exterior coalgebra; by one ``transpose_rule``, the duals of
an algebra and of a right module) passes a lookup into it.  Every axiom
stays decidable on the window bases; the validators visit only the label
pairs and triples whose degrees fit the window (Leibniz and associativity
only generators' rows, when exact), in flat loops that read a product of
two labels straight from the stored products, and evaluate each rule once
per pair per presentation, modules' checks included.  An algebra is
validated as its own right module and a coalgebra as its own right
comodule, so each axiom loop is written once; ``validate_algebra`` and
``validate_coalgebra`` keep only the checks that a (co)module does not
have, among them the left (co)unit law.
"""

from __future__ import annotations

import functools
import operator

from dgkoszul.exactlinalg import FieldSpec, bilinear, span_echelon, vec_iadd
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
    POS_INF,
    check_d_squared,
    koszul_sign,
    shift_complex,
)


class ValidationReport:
    def __init__(self, ok: bool):
        self.ok = ok
        self.violations = []

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
    rule.table = table  # the validators check the grading of every entry
    return rule


def _sparse_rule(nonzero: dict):
    """Product rule of a derived structure whose nonzero products are
    indexed by label pair; a missing pair is a zero product."""
    def rule(a: str, b: str) -> dict:
        return nonzero.get((a, b), {})
    return rule


def degree_compatible(left: GradedSpace, right: GradedSpace, total_ok,
                      keep=None):
    """The label pairs (l, r) of two spaces whose degree sum s satisfies
    ``total_ok(s)``, r in ``keep`` if given, in lexicographic basis order.
    The accepted labels r are collected once per degree of l."""
    rdegs = right.degrees()
    for n in left.degrees():
        rs = [r for k in rdegs if total_ok(n + k) for r in right.labels(k)
              if keep is None or r in keep]
        for l in left.labels(n):
            for r in rs:
                yield l, r


POLARITIES = ("non-negative", "non-positive")


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
        if polarity not in POLARITIES:
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
        return bilinear(self.field, self.mult_pair, x, y)

    def augmentation(self, x: dict):
        return x.get(self.unit, self.field.zero)

    def aug_ideal_labels(self):
        return (l for l in self.space if l != self.unit)


def validate_algebra(a: DGAlgebra, table=None) -> ValidationReport:
    """Window validation.  The regular module ``free_module(a)`` checks
    d^2 = 0, the grading of products, the right unit law, Leibniz and
    associativity (see ``validate_module``); this adds the unit, polarity
    and connectivity flags, d(unit) = 0, the left unit law and the
    augmentation.  ``table`` is the presentation's table (``_memo``)."""
    rep = ValidationReport(True)
    sp = a.space
    f = a.field
    degs = sp.degrees()
    if a.unit not in sp or sp.deg(a.unit) != 0:
        rep.fail("unit missing or not in degree 0")
        return rep
    if end := degs[0 if a.polarity == "non-negative" else -1]:
        rep.fail(f"polarity {a.polarity} but basis in degree {end}")
    if sp.labels(0) != (a.unit,):
        rep.fail("not connected: degree 0 is not spanned by the unit")
    if a.simply_connected:
        bad = 1 if a.polarity == "non-negative" else -1
        if sp.dim(bad):
            rep.fail(f"simply_connected flag but basis in degree {bad}")
    table = {} if table is None else table
    for v in validate_module(free_module(a), table).violations:
        rep.fail(v)
    if a.carrier.d(a.unit):
        rep.fail("d(unit) != 0")
    mult = _memo(table, f, a.mult_pair)
    for l in sp:
        if mult[a.unit, l] != l:
            rep.fail(f"left unit law fails at {l!r}")
            break
    # augmentation is a DG algebra map: vanishes on d-images and on
    # products of augmentation-ideal elements (automatic when graded,
    # checked cheaply anyway)
    for l in sp:
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
                   side: str = "right") -> "DGModule":
        """Module whose action is read from ``table``, keyed (module,
        algebra) label for a right module and (algebra, module) for a
        left one."""
        msp, asp = carrier.space, over.space
        left, right = (msp, asp) if side == "right" else (asp, msp)
        return cls(carrier, over,
                   _table_rule(table, left, right, msp.window, "action"),
                   side=side)

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

    def act(self, x: dict, y: dict) -> dict:
        """Right: x module combo, y algebra combo.  Left: x algebra, y module."""
        return bilinear(self.field, self.act_pair, x, y)


def _canonical(f: FieldSpec, v: dict):
    """v in the canonical form ``bilinear`` gives it (zero coefficients
    dropped, every coefficient canonical), and one term with coefficient
    ``f.one`` as its label."""
    one = f.one
    if len(v) == 1:
        (t, c), = v.items()
        if c is one:
            return t
    for c in v.values():
        if c is not one and not (c and f.is_canonical(c)):
            v = {t: s for t, c in v.items() if (s := f.mul(one, c))}
            break
    return next(iter(v)) if len(v) == 1 and one in v.values() else v


def _combo(f: FieldSpec, v):
    """A stored value as a combination."""
    return {v: f.one} if type(v) is str else v


class _Products(dict):
    """The pair products of one rule, {(a, b): value}, each evaluated on
    its first lookup and stored in ``_canonical`` form.  A rule that
    raises (a table gap) stores nothing and raises again at the next
    lookup, as does a value with a zero coefficient (``complete`` is then
    False); ``gens`` maps an algebra that passed to its generators."""

    def __init__(self, f: FieldSpec, rule):
        self.f, self.rule, self.complete, self.gens = f, rule, True, {}

    def __missing__(self, key):
        v = self.rule(*key)
        s = _canonical(self.f, v)
        if len(v) == (1 if type(s) is str else len(s)):
            self[key] = s
        self.complete &= key in self
        return s

    def times(self, x, y):
        """x·y for labels or combinations, as stored: a lookup for two
        labels, else ``bilinear`` over the stored values."""
        if type(x) is str and type(y) is str:
            return self[x, y]
        if x == {} or y == {}:
            return {}
        return _canonical(self.f, bilinear(
            self.f, lambda a, b: _combo(self.f, self[a, b]),
            _combo(self.f, x), _combo(self.f, y)))


def _memo(table: dict, f: FieldSpec, rule) -> _Products:
    """The products of ``rule`` in ``table`` {rule: _Products}, which a
    presentation shares among its validations: once per pair per
    presentation."""
    return table.setdefault(rule, _Products(f, rule))


def _generators(a: DGAlgebra, mult: _Products):
    """Labels generating a connected a of one polarity, else None: in each
    degree, those the ``span_echelon`` of stored products misses."""
    sp, u, degs, deg = a.space, a.unit, a.space.degrees(), a.space._deg
    if sp.labels(0) != (u,) or degs[0 if a.polarity == "non-negative" else -1]:
        return None
    top, gens, rest = max(map(abs, degs)), set(a.aug_ideal_labels()), {}
    for (x, y), v in mult.items():
        if v and x != u != y and abs(n := deg[x] + deg[y]) <= top:
            if type(v) is str:          # a one-term value reaches its label
                gens.discard(v)
            else:
                rest.setdefault(n, []).append(v)
    for n, vs in rest.items():      # the others, less the labels reached
        rows = [sp.to_coords({t: c for t, c in v.items() if t in gens}, n)
                for v in vs]
        gens -= {sp.labels(n)[i]
                 for i in span_echelon(a.field, rows, sp.dim(n))}
    return gens


def _misgraded(m: DGModule, act: _Products):
    """The first pair (l, x), l a label of m and x of its algebra, whose
    product is not of degree |l| + |x|, else None: every pair in the
    window, in ``degree_compatible``'s order, evaluated into ``act`` as
    ``_Products.__missing__`` does and checked by the rule's own labels
    (a stored value has them); then every explicit table entry."""
    sp, asp, right = m.space, m.over.space, m.side == "right"
    win, adegs, f = sp.window, asp.degrees(), m.field
    get, rule, deg = act.get, act.rule, sp._deg.get
    for n in sp.degrees():
        xs = [(x, n + k) for k in adegs if n + k in win
              for x in asp.labels(k)]
        for l in sp.labels(n):
            for x, s in xs:
                key = (l, x) if right else (x, l)
                v = get(key)
                if v is None:
                    w = rule(*key)
                    v = _canonical(f, w)
                    if len(w) == (1 if type(v) is str else len(v)):
                        act[key] = v
                    else:
                        act.complete, v = False, w
                for t in (v,) if type(v) is str else v:
                    if deg(t) != s:
                        return l, x
    for k, v in getattr(m.act_pair, "table", {}).items():
        l, x = k if right else k[::-1]
        s = sp.deg(l) + asp.deg(x)
        if any(deg(t) != s for t in ((v,) if type(v) is str else v)):
            return l, x
    return None


def _associativity(m: DGModule, act: _Products, mult: _Products, gens):
    """The first failing row of associativity as a violation, else None:
    per pair (l, x), the first y (in ``gens`` if given) in basis order
    with (l·x)·y != l·(x·y) (left: (x·y)·l != x·(y·l)).  A product of two
    labels is read from ``act``, any other is formed by ``times``."""
    sp, asp, right = m.space, m.over.space, m.side == "right"
    win, adegs, get, times = sp.window, asp.degrees(), act.get, act.times
    ys_at = {s: [y for k in adegs if s + k in win for y in asp.labels(k)
                 if gens is None or y in gens]
             for s in {n + k for n in sp.degrees() for k in adegs}}
    for l, x in degree_compatible(sp, asp, ys_at.get):
        lx = act[l, x] if right else None
        for y in ys_at[sp._deg[l] + asp._deg[x]]:
            if right:
                p = (get((lx, y)) or act[lx, y]) if type(lx) is str else \
                    times(lx, y)
                xy = mult[x, y]
                q = (get((l, xy)) or act[l, xy]) if type(xy) is str else \
                    times(l, xy)
            else:
                p, q = times(mult[x, y], l), times(x, act[y, l])
            if p != q:
                return f"associativity fails at ({l!r}, {x!r}, {y!r})"
    return None


def validate_module(m: DGModule, table=None) -> ValidationReport:
    """Window validation: d^2 = 0, the grading of the action (and of every
    explicit table entry, ``_misgraded``), the unit law on the module's
    side, Leibniz and associativity.  ``validate_algebra`` runs it on the
    algebra as a right module over itself.  Each rule is evaluated once
    per pair per presentation (``table``, see ``_memo``): the grading
    check evaluates each pair, every later product is a lookup.

    Light's test (products and d out of the window are zero): once A is
    associative the y with all rows (l·x)·y = l·(x·y) form a subalgebra,
    (l·x)·(yz) = ((l·x)·y)·z = (l·(xy))·z = l·((xy)·z) = l·(x·(yz)) (for
    M = A, z's row at l = x), as do the middle letters of (x·y)·l.  So do
    the x with Leibniz at each checked pair (l, x) (both degrees in the
    window): d(l·xy) = d((l·x)·y) needs the pairs (l·x, y) and (l, x),
    checked as |l·x| and |l·x| + 1 lie between |l| and |l·xy| + 1 for x, y
    of one sign (either polarity), and d(xy) in A, a checked pair or zero
    at the window top.  So both run at G = ``_generators`` (Leibniz also
    at 1) when the checks above passed, every product is stored, and
    M = A or A's own check passed in this table (which records G); else,
    or if one fails, at every label: the exhaustive report."""
    rep = ValidationReport(True)
    f = m.field
    table = {} if table is None else table
    alg = m.over
    sp = m.space
    dsq = check_d_squared(m.carrier)
    if not dsq:
        rep.fail(f"d^2 != 0 at degree {dsq.degree}, label {dsq.label!r}")
    asp = alg.space
    right = m.side == "right"
    win = sp.window
    act = _memo(table, f, m.act_pair)
    mult = _memo(table, f, alg.mult_pair)
    if bad := _misgraded(m, act):
        rep.fail("product not of degree |x|+|y| at (%r, %r)" % bad)
    for l in sp:
        if act[(l, alg.unit) if right else (alg.unit, l)] != l:
            rep.fail(f"{m.side} unit law fails at {l!r}")
            break
    d = m.carrier.d
    # d of each label in canonical form, so a one-term value is a lookup
    dm = {l: _canonical(f, d(l)) for l in sp}
    da = {x: _canonical(f, alg.carrier.d(x)) for x in asp}

    def leibniz(gens):  # the first failing pair, x in gens if given
        for l, x in degree_compatible(
                sp, asp, lambda s: s in win and s + 1 in win, gens):
            p, q, dp, dq, n = (l, x, dm[l], da[x], sp.deg(l)) if right else \
                (x, l, da[x], dm[l], asp.deg(x))
            rhs = vec_iadd(f, dict(_combo(f, act.times(dp, q))),
                           f.from_int(-1 if n % 2 else 1),
                           _combo(f, act.times(p, dq)))
            if d(act[p, q]) != rhs:
                return f"Leibniz fails at ({l!r}, {x!r})"
    own = right and act is mult and sp is asp     # free_module(alg)
    gens = None if not (rep.ok and act.complete) else \
        _generators(alg, mult) if own else mult.gens.get(alg)
    if gens is None or _associativity(m, act, mult, gens) or \
            leibniz(gens | {alg.unit}):
        for msg in filter(None, (leibniz(None),
                                 _associativity(m, act, mult, None))):
            rep.fail(msg)
    if own and rep.ok:
        mult.gens[alg] = gens
    return rep


def _cached(memo: dict, rule):
    """``rule`` evaluated once per label per validation call."""
    return memo.setdefault(rule, functools.cache(rule))


class DGCoalgebra:
    """DG coalgebra; the rule ``comult_label(l)`` gives Δ(l) as terms
    (l1, l2, coefficient), [] off the space (the bar cuts words on demand)."""

    def __init__(self, carrier: Complex, comult_label, counit: dict,
                 coaug: str, name: str = ""):
        self.carrier = carrier
        self.comult_label = comult_label
        self.counit = counit
        self.coaug = coaug
        self.name = name

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space

    def reduced_comult(self, l: str) -> list:
        """Δ̄(x) = Δ(x) - x⊗1 - 1⊗x on a non-coaugmentation label."""
        f = self.field
        if l == self.coaug:
            raise StructureError("reduced coproduct of the coaugmentation")
        acc: dict = {}
        for l1, l2, c in self.comult_label(l):
            vec_iadd(f, acc, c, {(l1, l2): f.one})
        vec_iadd(f, acc, f.from_int(-1),
                 {(l, self.coaug): f.one, (self.coaug, l): f.one})
        return [(l1, l2, c) for (l1, l2), c in acc.items()]


def validate_coalgebra(c: DGCoalgebra) -> ValidationReport:
    """Exhaustive window validation.  The regular comodule
    ``comodule_over_self(c)`` checks d^2 = 0, the right counit law,
    coassociativity and co-Leibniz; this adds the coaugmentation in
    degree 0, d(coaugmentation) = 0, grouplike and the left counit law."""
    rep = ValidationReport(True)
    f = c.field
    sp = c.space
    if c.coaug not in sp or sp.deg(c.coaug) != 0:
        rep.fail("coaugmentation missing or not in degree 0")
        return rep
    memo: dict = {}
    for v in validate_comodule(comodule_over_self(c), memo).violations:
        rep.fail(v)
    if c.carrier.d(c.coaug):
        rep.fail("d(coaugmentation) != 0")
    comult = _cached(memo, c.comult_label)
    if comult(c.coaug) != [(c.coaug, c.coaug, f.one)]:
        rep.fail("coaugmentation is not grouplike")
    for l in sp:
        out: dict = {}
        for l1, l2, v in comult(l):
            vec_iadd(f, out, c.counit.get(l1, f.zero), {l2: v})
        if out != {l: f.one}:
            rep.fail(f"left counit law fails at {l!r}")
            break
    return rep


class DGComodule:
    """Right DG comodule; the rule ``coaction_label(l)`` gives Δ_N(l) as
    terms (module label, coalgebra label, coefficient), [] off the space."""

    def __init__(self, carrier: Complex, over: DGCoalgebra, coaction_label,
                 name: str = ""):
        self.carrier = carrier
        self.over = over
        self.coaction_label = coaction_label
        self.name = name

    @property
    def field(self):
        return self.carrier.field

    @property
    def space(self):
        return self.carrier.space


def validate_comodule(n: DGComodule, memo=None) -> ValidationReport:
    """Exhaustive window validation: d^2 = 0, the right counit law,
    coassociativity and co-Leibniz below the window top.
    ``validate_coalgebra`` runs it on the coalgebra as a right comodule
    over itself and shares its memo {rule: rule memoised}."""
    rep = ValidationReport(True)
    f = n.field
    memo = {} if memo is None else memo
    coact = _cached(memo, n.coaction_label)
    comult = _cached(memo, n.over.comult_label)
    sp = n.space
    co = n.over
    dsq = check_d_squared(n.carrier)
    if not dsq:
        rep.fail(f"d^2 != 0 at degree {dsq.degree}, label {dsq.label!r}")
    for l in sp:
        out: dict = {}
        for m, c, v in coact(l):
            vec_iadd(f, out, co.counit.get(c, f.zero), {m: v})
        if out != {l: f.one}:
            rep.fail(f"right counit law fails at {l!r}")
            break
    for l in sp:
        lhs: dict = {}
        rhs: dict = {}
        for m, c, v in coact(l):
            for m2, c2, w in coact(m):
                vec_iadd(f, lhs, v, {(m2, c2, c): w})
            for c1, c2, w in comult(c):
                vec_iadd(f, rhs, v, {(m, c1, c2): w})
        if lhs != rhs:
            rep.fail(f"coassociativity fails at {l!r}")
            break
    for l in sp:
        if not sp.complete_at(sp.deg(l) + 1):
            # the differential is truncated here; co-Leibniz unverifiable
            continue
        lhs: dict = {}
        for t, v in n.carrier.d(l).items():
            for m, c, w in coact(t):
                vec_iadd(f, lhs, v, {(m, c): w})
        rhs: dict = {}
        for m, c, v in coact(l):
            sgn = f.from_int(-1 if sp.deg(m) % 2 else 1)
            vec_iadd(f, rhs, v,
                     {(t, c): w for t, w in n.carrier.d(m).items()})
            vec_iadd(f, rhs, f.mul(sgn, v),
                     {(m, t): w for t, w in co.carrier.d(c).items()})
        if lhs != rhs:
            rep.fail(f"co-Leibniz fails at {l!r}")
            break
    return rep


class TwistingCochain:
    """Degree +1 map from a coaugmented coalgebra to an augmented algebra
    subject to the Maurer-Cartan identity."""

    def __init__(self, source: DGCoalgebra, target: DGAlgebra,
                 map: GradedMap):
        # map: shift +1, source carrier -> target carrier
        self.source, self.target, self.map = source, target, map

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
    for l in c.space:
        if c.space.deg(l) + 2 not in a.space.window:
            continue
        # d_A of a combination is a new dict
        res = vec_iadd(f, a.carrier.d(t.apply_label(l)), f.one,
                       t.apply(c.carrier.d(l)))
        for l1, l2, v in c.comult_label(l):
            # Koszul sign for moving τ (degree +1) past the first factor
            sgn = f.from_int(-1 if c.space.deg(l1) % 2 else 1)
            vec_iadd(f, res, f.mul(sgn, v),
                     a.multiply(t.apply_label(l1), t.apply_label(l2)))
        if res:
            rep.fail(f"Maurer-Cartan residual nonzero at {l!r}: {res}")
            break
    return rep


# -------------------------------------------------------------------------
# graded dualization
# -------------------------------------------------------------------------

def dual_label(l: str) -> str:
    return l + "*"


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
    for y in sp:
        for x, v in c.d(y).items():
            # contribution of ⟨d(x*), y⟩
            sgn = f.from_int(-1 if (-sp.deg(x)) % 2 else 1)
            coefficient = f.mul(f.from_int(-1), f.mul(sgn, v))
            vec_iadd(f, cols.setdefault(dual_label(x), {}), coefficient,
                     {dual_label(y): f.one})
    cols = {k: v for k, v in cols.items() if v}
    return Complex(space, GradedMap(space, space, 1, cols))


def merge_terms(f: FieldSpec, terms: list) -> list:
    """(l1, l2, coefficient) terms with the coefficients of a repeated
    pair summed, zeros dropped and pairs sorted (deterministic)."""
    acc: dict = {}
    for l1, l2, v in terms:
        vec_iadd(f, acc, v, {(l1, l2): f.one})
    return [(l1, l2, v) for (l1, l2), v in sorted(acc.items())]


def transpose_rule(rule, left: GradedSpace, right: GradedSpace):
    """Graded dual of a pair rule (a product or an action) on the pairs
    whose degree lies in ``left``'s window, as a lookup into the table
    t* -> merged terms (x*, y*, (-1)^{|x||y|} v) over the pairs with
    rule(x, y) = v·t + …; a label absent from it gives []."""
    f = left.field
    out: dict = {}
    for x, y in degree_compatible(left, right, left.window.__contains__):
        sgn = f.from_int(koszul_sign(left.deg(x), right.deg(y)))
        for t, v in rule(x, y).items():
            out.setdefault(dual_label(t), []).append(
                (dual_label(x), dual_label(y), f.mul(sgn, v)))
    table = {l: merge_terms(f, terms) for l, terms in out.items()}
    return lambda l: table.get(l, [])


def graded_dual_algebra(a: DGAlgebra) -> DGCoalgebra:
    """Dual coalgebra of a locally finite algebra, with the pairing
    convention ⟨f⊗g, x⊗y⟩ = (-1)^{|g||x|} f(x)g(y)."""
    return DGCoalgebra(dual_complex(a.carrier),
                       transpose_rule(a.mult_pair, a.space, a.space),
                       {dual_label(a.unit): a.field.one}, dual_label(a.unit),
                       name=f"({a.name})^" if a.name else "")


def graded_dual_coalgebra(c: DGCoalgebra) -> DGAlgebra:
    """Dual algebra of a locally finite coalgebra; its products are the
    transposed coproduct, and a pair absent from it multiplies to 0."""
    f = c.field
    cx = dual_complex(c.carrier)
    mult: dict = {}
    for l in c.space:
        for l1, l2, v in c.comult_label(l):
            sgn = f.from_int(koszul_sign(c.space.deg(l1), c.space.deg(l2)))
            vec_iadd(f, mult.setdefault((dual_label(l1), dual_label(l2)), {}),
                     f.mul(sgn, v), {dual_label(l): f.one})
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
    for l in sp:
        for m, c, v in n.coaction_label(l):
            sgn = f.from_int(koszul_sign(sp.deg(m), n.over.space.deg(c)))
            vec_iadd(f, action.setdefault((dual_label(c), l), {}),
                     f.mul(sgn, v), {m: f.one})
    return DGModule(n.carrier, dual, _sparse_rule(action), side="left",
                    name=f"F({n.name})" if n.name else "")


# -------------------------------------------------------------------------
# standard constructions
# -------------------------------------------------------------------------

def trivial_algebra(field: FieldSpec, window: DegreeWindow) -> DGAlgebra:
    sp = GradedSpace(field, window, {0: ["1"]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    one = {"1": field.one}
    return DGAlgebra(cx, "1", lambda a, b: one,
                     "non-negative", simply_connected=True, name="K")


def _monomials(field: FieldSpec, window: DegreeWindow, gens: list,
               caps: list, bounds: tuple):
    """Zero-differential complex on the monomials x^a of the generators
    (name, degree), each a_i at most caps[i] (None: unbounded, for an even
    generator of positive degree), of degree at most window.hi; the label
    of each exponent vector; and the product x^a·x^b = ±x^(a+b), zero past
    a cap or the window, with sign -1 to the number of pairs i > j of odd
    generators with a_i·b_j odd.  Labels are in increasing exponent vector
    order, or with odd generators in increasing order of the index word,
    which for an exterior algebra is increasing subset order."""
    names = [g[0] for g in gens]
    odd = [i for i, g in enumerate(gens) if g[1] % 2]
    degree = {(): 0}
    for (_, d), cap in zip(gens, caps):
        top = window.hi // d if cap is None else cap
        degree = {v + (e,): n + e * d for v, n in degree.items()
                  for e in range(top + 1) if n + e * d <= window.hi}
    word = (lambda v: [i for i, e in enumerate(v) for _ in range(e)]) \
        if odd else None
    label = {v: "*".join(nm if e == 1 else f"{nm}^{e}"
                         for nm, e in zip(names, v) if e) or "1"
             for v in sorted(degree, key=word)}
    basis: dict = {}
    for v, l in label.items():
        basis.setdefault(degree[v], []).append(l)
    sp = GradedSpace(field, window, basis, bounds=bounds)
    exps = {l: v for v, l in label.items()}
    one, minus = field.one, field.from_int(-1)
    # x^a as the base-B number with digits a: B exceeds any sum of two
    # exponents, so a sum of two codes is the code of a + b, no carry
    base = 2 * max((e for v in label for e in v), default=0) + 1
    code = {l: sum(e * base ** i for i, e in enumerate(v))
            for v, l in label.items()}
    of_code = {c: l for l, c in code.items()}

    def mult_pair(x: str, y: str) -> dict:
        t = of_code.get(code[x] + code[y])
        if t is None:
            return {}
        if odd:
            a, b = exps[x], exps[y]
            if sum(a[i] * b[j] for i in odd for j in odd if j < i) % 2:
                return {t: minus}
        return {t: one}

    return Complex(sp, GradedMap.zero(sp, sp, 1)), label, mult_pair


def polynomial_algebra(field: FieldSpec, window: DegreeWindow,
                       gens: list) -> DGAlgebra:
    """K[y_1, ..., y_n] with even positive generator degrees and zero
    differential, truncated to the window."""
    names = [g[0] for g in gens]
    if len(set(names)) != len(names):
        raise StructureError("duplicate generator names")
    for _, d in gens:
        if d <= 0 or d % 2:
            raise StructureError("polynomial generator degree must be even "
                                 f"positive, got {d}")
    cx, _, mult_pair = _monomials(field, window, gens, [None] * len(gens),
                                  (0, POS_INF))
    return DGAlgebra(cx, "1", mult_pair, "non-negative", simply_connected=True,
                     name="K[" + ",".join(names) + "]")


def truncated_polynomial_algebra(field: FieldSpec, window: DegreeWindow,
                                 name: str, degree: int, power: int) -> DGAlgebra:
    """K[y]/(y^power), degree even positive."""
    if degree <= 0 or degree % 2:
        raise StructureError("generator degree must be even positive")
    if power < 2:
        raise StructureError("power must be >= 2")
    cx, _, mult_pair = _monomials(field, window, [(name, degree)],
                                  [power - 1], (0, (power - 1) * degree))
    return DGAlgebra(cx, "1", mult_pair, "non-negative", simply_connected=True,
                     name=f"K[{name}]/({name}^{power})")


def _exterior(field: FieldSpec, window: DegreeWindow, gens: list, what: str):
    """The monomials of odd generators, each exponent at most 1; the whole
    exterior basis must fit the window."""
    degs = [g[1] for g in gens]
    for d in degs:
        if d % 2 == 0:
            raise StructureError(f"exterior generator degree must be odd, got {d}")
    bounds = (sum(d for d in degs if d < 0), sum(d for d in degs if d > 0))
    if bounds[0] not in window or bounds[1] not in window:
        raise WindowError(f"window too small for the exterior {what} basis")
    return _monomials(field, window, gens, [1] * len(gens), bounds)


def exterior_algebra(field: FieldSpec, window: DegreeWindow,
                     gens: list) -> DGAlgebra:
    """Λ(x_1, ..., x_n) on odd-degree generators, zero differential."""
    cx, _, mult_pair = _exterior(field, window, gens, "algebra")
    degs = [g[1] for g in gens]
    polarity = "non-negative" if all(d > 0 for d in degs) else "non-positive"
    sc = all(abs(d) >= 2 for d in degs) if polarity == "non-negative" else \
        all(d <= -2 for d in degs)
    return DGAlgebra(cx, "1", mult_pair, polarity, simply_connected=sc,
                     name="Λ(" + ",".join(g[0] for g in gens) + ")")


def exterior_coalgebra(field: FieldSpec, window: DegreeWindow,
                       gens: list) -> DGCoalgebra:
    """∧ΣV: primitively generated coalgebra on odd-degree generators whose
    underlying space is the exterior algebra; Δ(x^e) is the sum over
    a + b = e of the coefficient of x^e in x^a·x^b times x^a ⊗ x^b."""
    cx, label, mult_pair = _exterior(field, window, gens, "coalgebra")
    comult = {}
    for e, l in label.items():
        # the subsets a of e by size, each size in label order
        subs = sorted((a for a in label if all(map(operator.le, a, e))),
                      key=sum)
        comult[l] = [(label[a], label[b], mult_pair(label[a], label[b])[l])
                     for a in subs for b in [tuple(map(operator.sub, e, a))]]
    return DGCoalgebra(cx, lambda l: comult.get(l, []), {"1": field.one}, "1",
                       name="∧Σ(" + ",".join(g[0] for g in gens) + ")")


def free_module(a: DGAlgebra) -> DGModule:
    """A as a right module over itself."""
    return DGModule(a.carrier, a, a.mult_pair, side="right", name=a.name)


def trivial_module(a: DGAlgebra) -> DGModule:
    """K with the augmentation action, on the label "1m"."""
    f = a.field
    sp = GradedSpace(f, a.space.window, {0: ["1m"]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    fixed = {"1m": f.one}

    def act_pair(m: str, x: str) -> dict:
        return fixed if x == a.unit else {}

    return DGModule(cx, a, act_pair, side="right", name="K")


def truncated_module(a: DGAlgebra, name: str, degree: int, power: int) -> DGModule:
    """K[y]/(y^power) as a module over K[y] = a (single even generator);
    every basis degree of a must be a multiple of ``degree``, and a label
    of degree n acts as y^(n / degree)."""
    if degree <= 0:
        raise StructureError("module generator degree must be positive")
    if power < 1:
        raise StructureError(f"module power {power} must be at least 1")
    for n in a.space.degrees():
        if n % degree:
            raise StructureError(f"algebra basis degree {n} is not a multiple "
                                 f"of the module generator degree {degree}")
    f = a.field
    win = a.space.window
    cx, label, _ = _monomials(f, win, [(name, degree)], [power - 1],
                              (0, (power - 1) * degree))
    labels = {v[0]: f"m:{l}" for v, l in label.items()}
    sp = GradedSpace(f, win, {n: [f"m:{l}" for l in ls]
                              for n, ls in cx.space.basis.items()},
                     bounds=cx.space.bounds)
    exp_of = {l: e for e, l in labels.items()}
    deg = a.space.deg

    def act_pair(ml: str, x: str) -> dict:
        tgt = labels.get(exp_of[ml] + deg(x) // degree)
        return {tgt: f.one} if tgt else {}

    return DGModule(Complex(sp, GradedMap.zero(sp, sp, 1)), a, act_pair,
                    side="right", name=f"K[{name}]/({name}^{power})")


def module_shift(m: DGModule, k: int) -> DGModule:
    """Σ^k M with unchanged action (the suspension symbol moves past
    nothing on the action side); differential picks up (-1)^k."""
    cx = shift_complex(m.carrier, k)
    return DGModule(cx, m.over, m.act_pair, side=m.side,
                    name=f"Σ^{k}{m.name}" if m.name else "")


def module_direct_sum(ms: list):
    """Direct sum of right modules over a common algebra, summand i
    tagged "i".  Each summand acts by its own rule on its tagged labels."""
    from dgkoszul.gradedcomplex import direct_sum as _ds
    if not ms:
        raise StructureError("empty direct sum")
    alg = ms[0].over
    for m in ms:
        if m.over is not alg:
            raise StructureError("direct sum over different algebras")
        if m.side != "right":
            raise StructureError("direct sum of right modules only")
    tags = [str(i) for i in range(len(ms))]
    total = _ds([m.carrier for m in ms], tags)
    summand = {f"{tag}:{l}": (tag, m, l)
               for tag, m in zip(tags, ms) for l in m.space}
    tsp = total.space

    def act_pair(label: str, x: str) -> dict:
        tag, m, l = summand[label]
        return {f"{tag}:{t}": v for t, v in m.act_pair(l, x).items()
                if f"{tag}:{t}" in tsp}

    return DGModule(total, alg, act_pair, side="right",
                    name="⊕(" + ",".join(m.name or "?" for m in ms) + ")")


def comodule_over_self(c: DGCoalgebra) -> DGComodule:
    return DGComodule(c.carrier, c, c.comult_label, name=c.name)


def trivial_comodule(c: DGCoalgebra) -> DGComodule:
    """K with the coaugmentation coaction, on the label "1n"."""
    f = c.field
    sp = GradedSpace(f, c.space.window, {0: ["1n"]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    return DGComodule(cx, c, lambda l: [("1n", c.coaug, f.one)]
                      if l == "1n" else [], name="K")
