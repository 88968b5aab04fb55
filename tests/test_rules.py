"""Product and action rules against reference tables.

Every preset computes its products on demand.  The reference tables here
are built by explicit loops over all label pairs, and the rules must agree
with them on every pair of basis labels.  The reference validators are the exhaustive loops over all label
pairs and triples; the engine's validators visit only degree-compatible
groups and must report the same violations in the same order.  With
Light's test they check associativity and Leibniz at generators only,
and must still report what the loops over every label report.
"""

import itertools
import json
import operator
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul import barcobar, cli, dgstruct
from dgkoszul.barcobar import (
    bar,
    bar_word_entries,
    canonical_tau,
    canonical_tau0,
    cobar,
    cobar_word_entries,
    cobar_word_label,
    twisted_tensor_left,
    twisted_tensor_right,
)
from dgkoszul.dgstruct import (
    DGAlgebra,
    DGModule,
    ValidationReport,
    comodule_over_self,
    comodule_to_module_F,
    degree_compatible,
    dual_label,
    exterior_algebra,
    exterior_coalgebra,
    free_module,
    graded_dual_algebra,
    graded_dual_coalgebra,
    module_direct_sum,
    module_shift,
    polynomial_algebra,
    trivial_algebra,
    trivial_comodule,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
    validate_algebra,
    validate_coalgebra,
    validate_comodule,
    validate_module,
)
from dgkoszul.exactlinalg import FieldSpec, bilinear, span_echelon, vec_iadd
from dgkoszul.gradedcomplex import (
    NEG_INF,
    POS_INF,
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    check_d_squared,
    koszul_sign,
)
from dgkoszul.koszul import make_koszul_pair

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]
RULES = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def labels_of(sp):
    return [l for n in sp.degrees() for l in sp.labels(n)]


def add_into(f, acc, c, v):
    """acc + c*v as a new dict, zeros dropped; the reference's own add, so
    it shares no code with the engine it checks."""
    out = dict(acc)
    for k, x in v.items():
        s = f.from_int(out.get(k, f.zero) + f.mul(c, x))
        if f.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


# -------------------------------------------------------------------------
# reference tables: explicit loops over label pairs
# -------------------------------------------------------------------------

def ref_lookup(table, left, right, window, a, b):
    """Strict table lookup: a missing pair is zero outside the window and
    a gap inside it."""
    if (a, b) in table:
        return table[(a, b)]
    if left.deg(a) + right.deg(b) in window:
        raise AssertionError(f"reference table gap at ({a!r}, {b!r})")
    return {}


def ref_polynomial(alg, gens):
    f, sp = alg.field, alg.space
    degs = [d for _, d in gens]
    names = [nm for nm, _ in gens]

    def exps(label):
        e = [0] * len(gens)
        if label != "1":
            for part in label.split("*"):
                nm, _, p = part.partition("^")
                e[names.index(nm)] = int(p) if p else 1
        return tuple(e)

    label_of = {exps(l): l for l in labels_of(sp)}
    table = {}
    for la in labels_of(sp):
        for lb in labels_of(sp):
            s = tuple(x + y for x, y in zip(exps(la), exps(lb)))
            if sum(x * d for x, d in zip(s, degs)) <= sp.window.hi:
                table[(la, lb)] = {label_of[s]: f.one}
    return table


def ref_truncated(alg, name, degree, power):
    f, hi = alg.field, alg.space.window.hi
    lab = {0: "1", 1: name, **{e: f"{name}^{e}" for e in range(2, power)}}
    table = {}
    for i in range(power):
        for j in range(power):
            if max(i, j, i + j) * degree > hi:
                continue
            table[(lab[i], lab[j])] = (
                {lab[i + j]: f.one} if i + j < power else {})
    return table


def ref_exterior(alg, gens):
    f = alg.field
    names = [nm for nm, _ in gens]
    subsets = [s for r in range(len(gens) + 1)
               for s in itertools.combinations(range(len(gens)), r)]

    def label(s):
        return "*".join(names[i] for i in s) if s else "1"

    table = {}
    for sa in subsets:
        for sb in subsets:
            if set(sa) & set(sb):
                table[(label(sa), label(sb))] = {}
                continue
            # all generators are odd: one sign per inversion
            inversions = sum(1 for i in sa for j in sb if j < i)
            table[(label(sa), label(sb))] = {
                label(tuple(sorted(sa + sb))):
                    f.from_int(-1 if inversions % 2 else 1)}
    return table


def ref_cobar(om):
    f, sp = om.field, om.space
    table = {}
    for la, lb in itertools.product(labels_of(sp), repeat=2):
        if sp.deg(la) + sp.deg(lb) in sp.window:
            label = cobar_word_label(cobar_word_entries(la)
                                     + cobar_word_entries(lb))
            table[(la, lb)] = {label: f.one} if label in sp else {}
    return table


def ref_trivial_module(m):
    f, asp = m.field, m.over.space
    (label,) = labels_of(m.space)
    return {(label, x): ({label: f.one} if x == m.over.unit else {})
            for x in labels_of(asp) if asp.deg(x) in m.space.window}


def ref_truncated_module(m, degree, power):
    f, asp, hi = m.field, m.over.space, m.space.window.hi
    labels = {e: l for e, l in enumerate(labels_of(m.space))}
    table = {}
    for e, ml in labels.items():
        for x in labels_of(asp):
            n = asp.deg(x)
            if e * degree + n > hi:
                continue
            j = n // degree
            tgt = labels.get(e + j) if e + j < power else None
            table[(ml, x)] = {tgt: f.one} if tgt else {}
    return table


def ref_twisted_left_action(m, nsp):
    """Action table of twisted_tensor_left on n ⊗_τ A, n with
    space ``nsp``: split each tensor label and multiply its algebra
    factor."""
    f, sp, a = m.field, m.space, m.over
    table = {}
    for label in labels_of(sp):
        nl, al = barcobar._split_tensor_label(label, nsp)
        for bl in labels_of(a.space):
            if sp.deg(label) + a.space.deg(bl) not in sp.window:
                continue
            combo = {}
            for tl, v in a.mult_pair(al, bl).items():
                tgt = f"{nl}@{tl}"
                if tgt in sp:
                    combo = add_into(f, combo, v, {tgt: f.one})
            table[(label, bl)] = combo
    return table


def ref_dual_coalgebra(c, dual):
    """Multiplication table of graded_dual_coalgebra with the zero products
    inside the window filled in."""
    f = c.field
    table = {}
    for l in labels_of(c.space):
        for l1, l2, v in c.comult_label(l):
            sgn = f.from_int(koszul_sign(c.space.deg(l1), c.space.deg(l2)))
            col = table.setdefault((dual_label(l1), dual_label(l2)), {})
            s = f.from_int(col.get(dual_label(l), f.zero) + f.mul(sgn, v))
            if f.is_zero(s):
                col.pop(dual_label(l), None)
            else:
                col[dual_label(l)] = s
    sp = dual.space
    for x, y in itertools.product(labels_of(sp), repeat=2):
        if (x, y) not in table and sp.deg(x) + sp.deg(y) in sp.window:
            table[(x, y)] = {}
    return table


def ref_deconcatenation(a, bsp):
    """Coproduct table of B(a) on its space bsp, as bar() once stored it:
    every cut of a word into two words of the space.  The words are
    enumerated here by extending each word of the space by one letter; on
    a window around 0 every prefix of a word lies in the space too."""
    f = a.field
    letters = [l for l in labels_of(a.space) if l != a.unit]
    comult = {}
    todo = [()]
    while todo:
        entries = todo.pop()
        label = barcobar.bar_word_label(entries)
        if label not in bsp:
            continue
        cuts = [(barcobar.bar_word_label(entries[:i]),
                 barcobar.bar_word_label(entries[i:]))
                for i in range(len(entries) + 1)]
        comult[label] = [(left, right, f.one) for left, right in cuts
                         if left in bsp and right in bsp]
        todo += [entries + (x,) for x in letters]
    return comult


def ref_F(n, fm):
    f, sp, dsp = n.field, n.space, fm.over.space
    table = {}
    for l in labels_of(sp):
        for m, c, v in n.coaction_label(l):
            if dual_label(c) not in dsp:
                continue
            sgn = f.from_int(koszul_sign(sp.deg(m), n.over.space.deg(c)))
            col = table.setdefault((dual_label(c), l), {})
            s = f.from_int(col.get(m, f.zero) + f.mul(sgn, v))
            if f.is_zero(s):
                col.pop(m, None)
            else:
                col[m] = s
    for a in labels_of(dsp):
        for l in labels_of(sp):
            if (a, l) not in table and dsp.deg(a) + sp.deg(l) in sp.window:
                table[(a, l)] = {}
    return table


def assert_algebra_rule(alg, table):
    sp = alg.space
    for x, y in itertools.product(labels_of(sp), repeat=2):
        assert alg.mult_pair(x, y) == \
            ref_lookup(table, sp, sp, sp.window, x, y), (x, y)


def assert_module_rule(m, table):
    msp, asp = m.space, m.over.space
    left, right = (msp, asp) if m.side == "right" else (asp, msp)
    for x, y in itertools.product(labels_of(left), labels_of(right)):
        assert m.act_pair(x, y) == \
            ref_lookup(table, left, right, msp.window, x, y), (x, y)


# -------------------------------------------------------------------------
# rules agree with the reference tables
# -------------------------------------------------------------------------

field_st = st.sampled_from(FIELDS)
hi_st = st.integers(min_value=2, max_value=8)


@RULES
@given(field_st, hi_st,
       st.lists(st.sampled_from([2, 4]), min_size=1, max_size=2))
def test_polynomial_rules_match_tables(f, hi, degrees):
    w = DegreeWindow(-hi, hi)
    gens = [(f"y{i}", d) for i, d in enumerate(degrees)]
    a = polynomial_algebra(f, w, gens)
    table = ref_polynomial(a, gens)
    assert_algebra_rule(a, table)
    assert_module_rule(free_module(a), table)
    assert_module_rule(trivial_module(a), ref_trivial_module(trivial_module(a)))
    deg, power = degrees[0], 3
    if any(n % deg for n in a.space.degrees()):
        # y1 would act with a degree that is not a multiple of |y0|
        with pytest.raises(StructureError, match="not a multiple"):
            truncated_module(a, "y0", deg, power)
        return
    m = truncated_module(a, "y0", deg, power)
    assert_module_rule(m, ref_truncated_module(m, deg, power))
    # the shift keeps the action; the sum acts summand by summand
    sh = module_shift(m, 2)
    assert_module_rule(sh, ref_truncated_module(m, deg, power))
    ds = module_direct_sum([trivial_module(a), m])
    summands = [ref_trivial_module(trivial_module(a)),
                ref_truncated_module(m, deg, power)]
    table = {}
    for tag, t in zip("01", summands):
        for (l, x), combo in t.items():
            if f"{tag}:{l}" in ds.space:
                table[(f"{tag}:{l}", x)] = {
                    f"{tag}:{u}": v for u, v in combo.items()
                    if f"{tag}:{u}" in ds.space}
    assert_module_rule(ds, table)


@RULES
@given(field_st, hi_st, st.sampled_from([2, 4]),
       st.integers(min_value=2, max_value=4))
def test_truncated_rules_match_tables(f, hi, degree, power):
    w = DegreeWindow(-hi, hi)
    a = truncated_polynomial_algebra(f, w, "y", degree, power)
    assert_algebra_rule(a, ref_truncated(a, "y", degree, power))


@RULES
@given(field_st, st.sampled_from([1, -1]),
       st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3))
def test_exterior_rules_match_tables(f, sign, degrees):
    gens = [(f"x{i}", sign * d) for i, d in enumerate(degrees)]
    hi = sum(degrees)
    w = DegreeWindow(-hi, hi)
    a = exterior_algebra(f, w, gens)
    assert_algebra_rule(a, ref_exterior(a, gens))


@RULES
@given(field_st, st.integers(min_value=2, max_value=7),
       st.sampled_from(["poly", "exterior"]))
def test_cobar_rules_match_tables(f, hi, which):
    """Ω(K[y]^∨) and Ω(Λ(x)^∨) multiply by concatenation."""
    w = DegreeWindow(-hi, hi)
    if which == "poly":
        a = polynomial_algebra(f, w, [("y", 2)])
    else:
        a = exterior_algebra(f, w, [("x", -3)]) if hi >= 3 else \
            exterior_algebra(f, w, [("x", -1)])
    om = cobar(graded_dual_algebra(a), w)
    assert_algebra_rule(om, ref_cobar(om))


@RULES
@given(field_st, st.integers(min_value=3, max_value=6))
def test_twisted_tensor_left_action_matches_table(f, hi):
    w = DegreeWindow(-hi, hi)
    # Ω(n; C) = n ⊗_τ₀ Ω(C) for the trivial comodule over K[y]^∨
    c = graded_dual_algebra(polynomial_algebra(f, w, [("y", 2)]))
    n = trivial_comodule(c)
    om = cobar(c, w)
    m = twisted_tensor_left(n, canonical_tau0(c, cobarc=om), w)
    assert_module_rule(m, ref_twisted_left_action(m, n.space))
    # the two-sided construction SV ⊗_τ ∧ΣV ⊗_τ SV of a Koszul pair
    pair = make_koszul_pair(f, w, [2])
    half = twisted_tensor_right(free_module(pair.algebra), pair.tau, w)
    full = twisted_tensor_left(half, pair.tau, w)
    assert_module_rule(full, ref_twisted_left_action(full, half.space))


@RULES
@given(field_st, st.integers(min_value=4, max_value=7))
def test_dual_rules_match_tables(f, hi):
    w = DegreeWindow(-hi, hi)
    for c in (exterior_coalgebra(f, w, [("sx", 1), ("sz", 3)]),
              bar(polynomial_algebra(f, w, [("y", 2)]), w)):
        dual = graded_dual_coalgebra(c)
        assert_algebra_rule(dual, ref_dual_coalgebra(c, dual))
        for n in (trivial_comodule(c), comodule_over_self(c)):
            fm = comodule_to_module_F(n)
            assert_module_rule(fm, ref_F(n, fm))


@pytest.mark.parametrize("which", ["polynomial", "truncated"])
def test_bar_deconcatenates_on_demand(which):
    f = FieldSpec.prime(5)
    w = DegreeWindow(-10, 10)
    a = (polynomial_algebra(f, w, [("y", 2)]) if which == "polynomial"
         else truncated_polynomial_algebra(f, w, "y", 2, 4))
    b = bar(a, w)
    table = ref_deconcatenation(a, b.space)
    assert set(table) == set(labels_of(b.space))
    for l, terms in table.items():
        assert b.comult_label(l) == terms
    # labels outside the space: a word on an unknown letter, and a label
    # that is no bar word at all
    assert b.comult_label("[nope]") == [] and b.comult_label("y") == []


def test_trivial_algebra_rule():
    f = FieldSpec.prime(5)
    a = trivial_algebra(f, DegreeWindow(-4, 4))
    assert_algebra_rule(a, {("1", "1"): {"1": f.one}})


# -------------------------------------------------------------------------
# validators: same first violation as the exhaustive loops
# -------------------------------------------------------------------------

def ref_validate_algebra_products(a):
    """Unit, Leibniz and associativity loops that visit every
    label pair and triple and filter by degree afterwards."""
    violations = []
    sp, f = a.space, a.field
    labels = labels_of(sp)
    one = {a.unit: f.one}
    for l in labels:
        if a.multiply(one, {l: f.one}) != {l: f.one}:
            violations.append(f"left unit law fails at {l!r}")
            break
        if a.multiply({l: f.one}, one) != {l: f.one}:
            violations.append(f"right unit law fails at {l!r}")
            break
    win = sp.window
    for x, y in itertools.product(labels, repeat=2):
        nx, ny = sp.deg(x), sp.deg(y)
        if nx + ny not in win or nx + ny + 1 not in win:
            continue
        lhs = a.carrier.d(a.mult_pair(x, y))
        rhs = a.multiply(a.carrier.d(x), {y: f.one})
        sgn = f.from_int(-1 if nx % 2 else 1)
        rhs = add_into(f, rhs, sgn, a.multiply({x: f.one}, a.carrier.d(y)))
        if lhs != rhs:
            violations.append(f"Leibniz fails at ({x!r}, {y!r})")
            break
    for x, y, z in itertools.product(labels, repeat=3):
        if sp.deg(x) + sp.deg(y) + sp.deg(z) not in win:
            continue
        lhs = a.multiply(a.mult_pair(x, y), {z: f.one})
        rhs = a.multiply({x: f.one}, a.mult_pair(y, z))
        if lhs != rhs:
            violations.append(
                f"associativity fails at ({x!r}, {y!r}, {z!r})")
            break
    return violations


def ref_validate_module_products(m):
    """Associativity over every triple (l, x, y), filtered by degree
    afterwards: (l·x)·y against l·(x·y), or (x·y)·l against x·(y·l) for a
    left module."""
    violations = []
    f, alg, sp = m.field, m.over, m.space
    mlabels, alabels = labels_of(sp), labels_of(alg.space)
    win = sp.window
    done = False
    for l in mlabels:
        for x, y in itertools.product(alabels, repeat=2):
            if sp.deg(l) + alg.space.deg(x) + alg.space.deg(y) not in win:
                continue
            if m.side == "right":
                lhs = m.act(m.act_pair(l, x), {y: f.one})
                rhs = m.act({l: f.one}, alg.mult_pair(x, y))
            else:
                lhs = m.act(alg.mult_pair(x, y), {l: f.one})
                rhs = m.act({x: f.one}, m.act_pair(y, l))
            if lhs != rhs:
                violations.append(
                    f"associativity fails at ({l!r}, {x!r}, {y!r})")
                done = True
                break
        if done:
            break
    return violations


def product_violations(rep):
    keep = ("unit law", "Leibniz", "associativity")
    return [v for v in rep.violations if any(k in v for k in keep)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.data())
def test_broken_table_algebra_fails_at_same_place(f, data):
    w = DegreeWindow(-6, 6)
    om = cobar(graded_dual_algebra(polynomial_algebra(f, w, [("y", 2)])), w)
    table = ref_cobar(om)
    keys = sorted(k for k in table if om.unit not in k)
    key = data.draw(st.sampled_from(keys))
    labels = om.space.labels(om.space.deg(key[0]) + om.space.deg(key[1]))
    broken = dict(table)
    broken[key] = {data.draw(st.sampled_from(labels)): f.from_int(2)} \
        if labels else {}
    if broken[key] == table[key]:
        broken[key] = {}
    a = DGAlgebra.from_table(om.carrier, om.unit, broken, om.polarity)
    rep = validate_algebra(a)
    expected = ref_validate_algebra_products(a)
    assert product_violations(rep) == expected
    assert rep.ok == (not expected)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.data())
def test_broken_table_module_fails_at_same_place(f, data):
    w = DegreeWindow(-12, 12)
    a = polynomial_algebra(f, w, [("y", 2), ("z", 4)])
    m = truncated_module(a, "y", 2, 4)
    table = ref_truncated_module(m, 2, 4)
    keys = sorted(k for k in table if k[1] != a.unit and table[k])
    key = data.draw(st.sampled_from(keys))
    broken = dict(table)
    broken[key] = {}
    bm = DGModule.from_table(m.carrier, a, broken, side="right")
    rep = validate_module(bm)
    expected = ref_validate_module_products(bm)
    assert rep.violations == expected


# -------------------------------------------------------------------------
# Light's test: the reduced validators report what the exhaustive loops do
# -------------------------------------------------------------------------

def ref_exhaustive_validate_module(m, table=None):
    """The module validator with Leibniz at every x and associativity at
    every y, loop for loop as it ran before it checked generators only."""
    rep = dgstruct.ValidationReport(True)
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
    act = dgstruct._memo(table, f, m.act_pair)
    mult = dgstruct._memo(table, f, alg.mult_pair)
    keys = ((l, x) if right else (x, l)
            for l, x in dgstruct.degree_compatible(sp, asp,
                                                   win.__contains__))
    for k, v in itertools.chain(((k, ParentProducts.own(act, k))
                                 for k in keys),
                                getattr(m.act_pair, "table", {}).items()):
        l, x = k if right else k[::-1]
        n = sp.deg(l) + asp.deg(x)
        if not all(t in sp and sp.deg(t) == n
                   for t in ((v,) if type(v) is str else v)):
            rep.fail(f"product not of degree |x|+|y| at ({l!r}, {x!r})")
            break
    for l in sp:
        if act[(l, alg.unit) if right else (alg.unit, l)] != l:
            rep.fail(f"{m.side} unit law fails at {l!r}")
            break
    d = m.carrier.d
    canonical, combo = dgstruct._canonical, dgstruct._combo
    dm = {l: canonical(f, d(l)) for l in sp}
    da = {x: canonical(f, alg.carrier.d(x)) for x in asp}
    for l, x in dgstruct.degree_compatible(
            sp, asp, lambda s: s in win and s + 1 in win):
        if right:
            lhs = d(act[l, x])
            sgn = f.from_int(-1 if sp.deg(l) % 2 else 1)
            rhs = vec_iadd(f, dict(combo(f, act.times(dm[l], x))), sgn,
                           combo(f, act.times(l, da[x])))
        else:
            lhs = d(act[x, l])
            sgn = f.from_int(-1 if asp.deg(x) % 2 else 1)
            rhs = vec_iadd(f, dict(combo(f, act.times(da[x], l))), sgn,
                           combo(f, act.times(x, dm[l])))
        if lhs != rhs:
            rep.fail(f"Leibniz fails at ({l!r}, {x!r})")
            break
    if bad := ref_associativity(m, act, mult):
        rep.fail(bad)
    return rep


def ref_associativity(m, act, mult):
    """The exhaustive associativity rows of ``ref_exhaustive_validate_module``:
    the first failing triple as a violation, else None."""
    sp, asp, win = m.space, m.over.space, m.space.window
    right = m.side == "right"
    adegs = asp.degrees()
    ys_at = {s: [y for k in adegs if s + k in win for y in asp.labels(k)]
             for s in {n + k for n in sp.degrees() for k in adegs}}
    times = act.times
    for l, x in dgstruct.degree_compatible(sp, asp, ys_at.get):
        ys = ys_at[sp.deg(l) + asp.deg(x)]
        if right:
            lx = act[l, x]
            bad = next((y for y in ys
                        if times(lx, y) != times(l, mult[x, y])), None)
        else:
            bad = next((y for y in ys
                        if times(mult[x, y], l) != times(x, act[y, l])),
                       None)
        if bad is not None:
            return f"associativity fails at ({l!r}, {x!r}, {bad!r})"
    return None


def ref_exhaustive_validate_algebra(a, table=None):
    """``validate_algebra`` over ``ref_exhaustive_validate_module``."""
    rep = dgstruct.ValidationReport(True)
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
    table = {} if table is None else table
    for v in ref_exhaustive_validate_module(free_module(a), table).violations:
        rep.fail(v)
    if a.carrier.d(a.unit):
        rep.fail("d(unit) != 0")
    mult = dgstruct._memo(table, f, a.mult_pair)
    for l in sp:
        if mult[a.unit, l] != l:
            rep.fail(f"left unit law fails at {l!r}")
            break
    for l in sp:
        if not f.is_zero(a.augmentation(a.carrier.d(l))):
            rep.fail(f"augmentation not a chain map at {l!r}")
            break
    return rep


def koszul_dga(f, polarity, x_deg, z_twice, hi, coeffs):
    """Λ(x) ⊗ K[y, z] with d(x) = y, |x| = ±x_deg by polarity (x_deg odd,
    at least 3 when non-positive), |y| = |x| + 1, d(y) = d(z) = 0 and
    |z| = |y| (two generators in one degree) or 2|y| (a generator beside
    y²), on the monomials whose degree fits ±hi; in
    each degree the basis is changed by a unitriangular matrix with
    entries from ``coeffs`` (an iterator), so a generator or a product
    can be a combination of labels.  Returns (carrier, product table)
    with the label "1" for the unit and "n.i" otherwise."""
    y_deg = (x_deg if polarity == "non-negative" else -x_deg) + 1
    gdeg = (y_deg - 1, y_deg, y_deg * (2 if z_twice else 1))
    win = DegreeWindow(-hi, hi)
    mono = [(e, a, b) for e in (0, 1) for a in range(hi + 1)
            for b in range(hi + 1)
            if abs(e * gdeg[0] + a * gdeg[1] + b * gdeg[2]) <= hi]

    def deg(v):
        return sum(map(operator.mul, v, gdeg))

    basis: dict = {}
    for v in sorted(mono):
        basis.setdefault(deg(v), []).append(v)
    # b_i = v_i + Σ_{j<i} lower[v_i][v_j] v_j
    lower = {vs[i]: {vs[j]: next(coeffs) for j in range(i)}
             for vs in basis.values() for i in range(len(vs))}
    label = {v: "1" if deg(v) == 0 else f"{deg(v)}.{vs.index(v)}"
             for vs in basis.values() for v in vs}

    def expand(v):
        out = {v: f.one}
        for u, c in lower[v].items():
            out = add_into(f, out, c, {u: f.one})
        return out

    def rebase(w):
        """w (monomial -> coefficient, one degree) in the b basis."""
        out: dict = {}
        if not w:
            return out
        vs = basis[deg(next(iter(w)))]
        alpha: dict = {}
        for i in reversed(range(len(vs))):
            c = w.get(vs[i], f.zero)
            for k in range(i + 1, len(vs)):
                c = f.from_int(c - f.mul(alpha[vs[k]],
                                         lower[vs[k]].get(vs[i], f.zero)))
            alpha[vs[i]] = c
            if not f.is_zero(c):
                out[label[vs[i]]] = c
        return out

    def mono_mult(u, v):
        w = tuple(map(operator.add, u, v))
        return {w: f.one} if w[0] <= 1 and w in lower else {}

    def mono_d(v):
        w = (0, v[1] + 1, v[2])
        return {w: f.one} if v[0] and w in lower else {}

    def linear(op, *vs):
        out: dict = {}
        for parts in itertools.product(*(expand(v).items() for v in vs)):
            c = f.one
            for _, x in parts:
                c = f.mul(c, x)
            out = add_into(f, out, c, op(*(u for u, _ in parts)))
        return rebase(out)

    sp = GradedSpace(f, win, {n: [label[v] for v in vs]
                              for n, vs in basis.items()},
                     bounds=(0, POS_INF) if y_deg > 0 else (NEG_INF, 0))
    cols = {label[v]: img for v in mono if (img := linear(mono_d, v))}
    table = {(label[u], label[v]): linear(mono_mult, u, v)
             for u in mono for v in mono if deg(u) + deg(v) in win}
    return Complex(sp, GradedMap(sp, sp, 1, cols)), table


def scaled(f, v, c):
    return {t: s for t, x in v.items() if not f.is_zero(s := f.mul(c, x))}


def plant(f, table, carrier, degree, unit, kind, data, late=()):
    """(table, carrier) with a failure of the given kind planted; the
    table's values lie in the carrier, a key's in ``degree(*key)``.  A
    "late-product" breaks a product whose right factor is in ``late``."""
    table = dict(table)
    sp = carrier.space
    two = f.from_int(2)
    keys = sorted(k for k in table if unit not in k)
    if kind == "late-product":
        keys = [k for k in keys if k[1] in late]
    if kind in ("product", "late-product", "unit+product") and keys:
        key = data.draw(st.sampled_from(keys))
        labels = sp.labels(degree(*key))
        if table[key] and data.draw(st.booleans()):
            table[key] = scaled(f, table[key], two)
        elif labels:
            table[key] = add_into(f, table[key], f.one,
                                  {data.draw(st.sampled_from(labels)): f.one})
        else:
            table[key] = {}
    if kind == "unit+product":
        # a planted "gap" may have taken a label's unit products away
        l = data.draw(st.sampled_from([l for l in sp if l != unit and (
            (l, unit) in table or (unit, l) in table)]))
        key = data.draw(st.sampled_from(
            [k for k in ((l, unit), (unit, l)) if k in table]))
        table[key] = {l: two} if not f.is_zero(two) else {}
    if kind == "d" and (odd := [l for l in sp if carrier.d(l)]):
        l = data.draw(st.sampled_from(odd))
        cols = dict(carrier.differential.cols)
        if img := scaled(f, cols[l], two):
            cols[l] = img
        else:
            del cols[l]
        carrier = Complex(sp, GradedMap(sp, sp, 1, cols))
    if kind == "gap":
        del table[data.draw(st.sampled_from(sorted(table)))]
    if kind == "coefficient":
        key = data.draw(st.sampled_from(keys))
        labels = sp.labels(degree(*key))
        if labels:
            t = data.draw(st.sampled_from(labels))
            table[key] = {**table[key],
                          t: data.draw(st.sampled_from([0, 7, 5]))}
    return table, carrier


def regular_table_module(a, table, side, tag="m:"):
    """a acting on a relabelled copy of itself from ``side`` by its own
    products in ``table``, as a table module."""
    cx = a.carrier
    sp = cx.space
    msp = GradedSpace(sp.field, sp.window,
                      {n: [tag + l for l in ls] for n, ls in sp.basis.items()},
                      bounds=sp.bounds)
    cols = {tag + l: {tag + t: c for t, c in v.items()}
            for l, v in cx.differential.cols.items()}
    mcx = Complex(msp, GradedMap(msp, msp, 1, cols))
    if side == "right":
        act = {(tag + p, q): {tag + t: c for t, c in v.items()}
               for (p, q), v in table.items()}
    else:
        act = {(p, tag + q): {tag + t: c for t, c in v.items()}
               for (p, q), v in table.items()}
    return DGModule.from_table(mcx, a, act, side=side)


def trivial_table_module(a, side):
    f = a.field
    sp = GradedSpace(f, a.space.window, {0: ["k"]}, bounds=(0, 0))
    cx = Complex(sp, GradedMap.zero(sp, sp, 1))
    act = {(("k", x) if side == "right" else (x, "k")):
           ({"k": f.one} if x == a.unit else {})
           for x in a.space}
    return DGModule.from_table(cx, a, act, side=side)


PLANTS = ["none", "product", "late-product", "late-product", "d",
          "unit+product", "gap", "coefficient"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.sampled_from(dgstruct.POLARITIES), st.data())
def test_broken_table_reduced_validators_match_exhaustive(f, polarity, data):
    """Random DG table algebras, both polarities, and left and right
    modules over them, with planted failures: the validators with Light's
    test report what the exhaustive loops report, in the same order, or
    raise the same StructureError, alone and with the table the algebra's
    validation filled."""
    coeff = st.integers(0, 3).map(f.from_int)
    x_deg = data.draw(st.sampled_from(
        [1, 3] if polarity == "non-negative" else [3, 5]))
    hi = data.draw(st.integers(x_deg + 3, 10))
    z_twice = data.draw(st.booleans())
    cx, table = koszul_dga(
        f, polarity, x_deg, z_twice, hi,
        itertools.cycle(data.draw(st.lists(coeff, min_size=1,
                                           max_size=40))))
    sp = cx.space
    a0 = DGAlgebra.from_table(cx, "1", table, polarity)
    shared: dict = {}
    assert validate_algebra(a0, shared).ok
    gens = shared[a0.mult_pair].gens[a0]
    # a complement of (A⁺)²: one label per generator x, y, z in the window
    assert len(gens) == 2 + ((x_deg + 1) * (2 if z_twice else 1) <= hi
                             if polarity == "non-negative" else
                             (x_deg - 1) * (2 if z_twice else 1) <= hi)
    # a product broken at a right factor outside the generators fails
    # first at a row no generator has
    late = {l for l in sp if l != "1"} - gens
    kind = data.draw(st.sampled_from(PLANTS))
    broken, bcx = plant(f, table, cx, lambda x, y: sp.deg(x) + sp.deg(y),
                        "1", kind, data, late)
    a = DGAlgebra.from_table(bcx, "1", broken, polarity)
    assert outcome(validate_algebra, a) == outcome(
        ref_exhaustive_validate_algebra, a)

    side = data.draw(st.sampled_from(["right", "left"]))
    # a acting on a copy of itself by its products before or after the
    # planting: before, only the rows of a broken a can fail
    action = data.draw(st.sampled_from([None, table, broken]))
    if action is None:
        m = trivial_table_module(a, side)
    else:
        m = regular_table_module(a, action, side)
        mkind = data.draw(st.sampled_from(["none", "none", "product", "gap",
                                           "unit+product"]))
        if mkind != "none":
            msp = m.space
            act, _ = plant(f, m.act_pair.table, m.carrier,
                           lambda *k: sum(msp.deg(l) if l in msp
                                          else sp.deg(l) for l in k),
                           "1", mkind, data)
            m = DGModule.from_table(m.carrier, a, act, side=side)
    shared: dict = {}
    outcome(validate_algebra, a, shared)
    expected = outcome(ref_exhaustive_validate_module, m)
    assert outcome(validate_module, m, shared) == expected
    assert outcome(validate_module, m) == expected


def test_broken_table_planted_failures_report_as_before():
    """K[y] at ±8 with y²·y² = 2y⁴: the first failing row of the
    exhaustive loop is at y = y², outside G = {y}; the reduced check
    fails at a generator, and the exhaustive rerun reports the same
    first violation.  A Leibniz failure, a broken unit law and a table
    gap give the exhaustive report too."""
    f = FieldSpec.rationals()
    w = DegreeWindow(-8, 8)
    gens = [("y", 2)]
    a = polynomial_algebra(f, w, gens)
    table = ref_polynomial(a, gens)
    shared: dict = {}
    ta = DGAlgebra.from_table(a.carrier, "1", table, a.polarity)
    assert validate_algebra(ta, shared).ok
    assert [p.gens for p in shared.values()] == [{ta: {"y"}}]
    broken = {**table, ("y^2", "y^2"): {"y^4": f.from_int(2)}}
    ba = DGAlgebra.from_table(a.carrier, "1", broken, a.polarity)
    # the right unit law broken at the top label: only the rows at y = 1
    # see it, so no generator does, and every label is checked
    unit = DGAlgebra.from_table(a.carrier, "1", {
        **table, ("y^4", "1"): {"y^4": f.from_int(2)}}, a.polarity)
    assert validate_algebra(unit).violations == \
        ref_exhaustive_validate_algebra(unit).violations == [
            "right unit law fails at 'y^4'",
            "associativity fails at ('y', 'y^3', '1')"]
    want = ["associativity fails at ('y', 'y', 'y^2')"]
    assert validate_algebra(ba, shared).violations == want
    assert ref_exhaustive_validate_algebra(ba).violations == want
    # a module acting by the unbroken products fails only at that row, and
    # the failed algebra's generators are not used for it
    m = regular_table_module(ba, table, "right")
    assert validate_module(m, shared).violations == \
        ref_exhaustive_validate_module(m).violations == [
            "associativity fails at ('m:1', 'y^2', 'y^2')"]

    cx, t = koszul_dga(f, "non-negative", 1, False, 6, itertools.repeat(0))
    assert validate_algebra(DGAlgebra.from_table(cx, "1", t,
                                                 "non-negative")).ok
    cols = dict(cx.differential.cols)
    l = next(l for l in cx.space if cx.space.deg(l) == 3)
    cols[l] = scaled(f, cols[l], f.from_int(3))
    bcx = Complex(cx.space, GradedMap(cx.space, cx.space, 1, cols))
    for bt in (t, {**t, ("1", "2.0"): {"2.0": f.from_int(2)}}):
        ba = DGAlgebra.from_table(bcx, "1", bt, "non-negative")
        got = validate_algebra(ba).violations
        assert got == ref_exhaustive_validate_algebra(ba).violations
        assert any(v.startswith("Leibniz fails") for v in got)
    # d(1) = z, a cycle: Leibniz fails at the unit, which no generator shows
    sp = GradedSpace(f, DegreeWindow(-2, 2), {0: ["1"], 1: ["z"]},
                     bounds=(0, 1))
    za = DGAlgebra.from_table(
        Complex(sp, GradedMap(sp, sp, 1, {"1": {"z": f.one}})), "1",
        {("1", "1"): {"1": f.one}, ("1", "z"): {"z": f.one},
         ("z", "1"): {"z": f.one}, ("z", "z"): {}}, "non-negative")
    got = validate_algebra(za).violations
    assert got == ref_exhaustive_validate_algebra(za).violations
    assert got == ["Leibniz fails at ('1', '1')", "d(unit) != 0"]
    # not connected: e, f in degree 0 with products spanning them, so no
    # label would be left to generate, and associativity fails at (e, e, f)
    sp = GradedSpace(f, DegreeWindow(-2, 2), {0: ["1", "e", "f"]},
                     bounds=(0, 0))
    prods = {("e", "e"): {"f": f.one}, ("e", "f"): {"e": f.one},
             ("f", "e"): {"e": f.one}, ("f", "f"): {"e": f.one, "f": f.one}}
    prods.update({(u, l): {l: f.one} for u in "1" for l in "1ef"})
    prods.update({(l, "1"): {l: f.one} for l in "ef"})
    ea = DGAlgebra.from_table(Complex(sp, GradedMap.zero(sp, sp, 1)), "1",
                              prods, "non-negative")
    got = validate_algebra(ea).violations
    assert got == ref_exhaustive_validate_algebra(ea).violations
    assert got[1] == "associativity fails at ('e', 'e', 'f')"
    gap = dict(t)
    del gap[("2.0", "3.0")]
    ga = DGAlgebra.from_table(cx, "1", gap, "non-negative")
    assert outcome(validate_algebra, ga) == outcome(
        ref_exhaustive_validate_algebra, ga) == (
        "raises multiplication table gap at ('2.0', '3.0')")


def test_table_gap_inside_window_raises():
    f = FieldSpec.prime(5)
    w = DegreeWindow(-4, 4)
    a = polynomial_algebra(f, w, [("y", 2)])
    table = ref_polynomial(a, [("y", 2)])
    del table[("y", "y")]
    t = DGAlgebra.from_table(a.carrier, "1", table, "non-negative")
    try:
        t.mult_pair("y", "y")
    except StructureError as e:
        assert "multiplication table gap at ('y', 'y')" in str(e)
    else:
        raise AssertionError("gap inside the window not reported")
    assert t.mult_pair("y^2", "y") == {}   # degree 6 is outside the window


def test_zero_coefficient_off_the_space_is_a_grading_violation():
    """The grading check reads the rule's own value, so a zero coefficient
    at a label outside the space fails it; the later checks read the
    canonical value, which has no such label, and do not raise."""
    f = FieldSpec.prime(5)
    a = polynomial_algebra(f, DegreeWindow(-6, 6), [("y", 2)])
    table = ref_polynomial(a, [("y", 2)])
    table[("y", "y")] = {"y^2": f.one, "zz": 0}
    t = DGAlgebra.from_table(a.carrier, "1", table, "non-negative")
    assert validate_algebra(t).violations == [
        "product not of degree |x|+|y| at ('y', 'y')"]


# -------------------------------------------------------------------------
# the validators memoise pair products; they report what bilinear gives
# -------------------------------------------------------------------------

def break_table(f, table, space, degree, data):
    """table with one to three entries broken: emptied, deleted (a gap
    inside the window), or one coefficient of a label of ``space`` in the
    pair's degree set to 0, to 7 (not canonical over F_2 and F_5, an int
    over Q) or to 2 (0 over F_2)."""
    broken = dict(table)
    keys = data.draw(st.lists(st.sampled_from(sorted(table)), min_size=1,
                              max_size=3, unique=True))
    for key in keys:
        kind = data.draw(st.sampled_from(["empty", "gap", "coefficient"]))
        labels = space.labels(degree(*key))
        if kind == "gap":
            del broken[key]
        elif kind == "empty" or not labels:
            broken[key] = {}
        else:
            value = data.draw(st.sampled_from([0, 7, f.from_int(2)]))
            broken[key] = {**table[key],
                           data.draw(st.sampled_from(labels)): value}
    return broken


def check_against_reference(violations, reference, structure, gaps):
    """The memoised validator reports the reference's violations, in the
    same order; a table gap raises, as every pair in the window is
    evaluated."""
    if gaps:
        with pytest.raises(StructureError, match="table gap"):
            violations(structure)
    else:
        assert violations(structure) == reference(structure)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.data())
def test_memoised_algebra_validation_matches_bilinear(f, data):
    w = DegreeWindow(-6, 6)
    om = cobar(graded_dual_algebra(polynomial_algebra(f, w, [("y", 2)])), w)
    sp = om.space
    table = ref_cobar(om)
    units = {k: v for k, v in table.items() if om.unit in k}
    broken = break_table(f, {k: v for k, v in table.items()
                             if k not in units},
                         sp, lambda x, y: sp.deg(x) + sp.deg(y), data)
    a = DGAlgebra.from_table(om.carrier, om.unit, {**broken, **units},
                             om.polarity)
    check_against_reference(lambda a: product_violations(validate_algebra(a)),
                            ref_validate_algebra_products, a,
                            len(broken) + len(units) < len(table))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.data())
def test_memoised_module_validation_matches_bilinear(f, data):
    w = DegreeWindow(-12, 12)
    a = polynomial_algebra(f, w, [("y", 2), ("z", 4)])
    m = truncated_module(a, "y", 2, 4)
    table = ref_truncated_module(m, 2, 4)
    units = {k: v for k, v in table.items() if k[1] == a.unit}
    broken = break_table(f, {k: v for k, v in table.items()
                             if k not in units}, m.space,
                         lambda l, x: m.space.deg(l) + a.space.deg(x), data)
    bm = DGModule.from_table(m.carrier, a, {**broken, **units}, side="right")
    check_against_reference(lambda m: validate_module(m).violations,
                            ref_validate_module_products, bm,
                            len(broken) + len(units) < len(table))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.data())
def test_memoised_left_module_validation_matches_bilinear(f, data):
    """The truncated module over the commutative K[y, z] read as a left
    module (all degrees even, so a·m = m·a), with a broken table."""
    w = DegreeWindow(-12, 12)
    a = polynomial_algebra(f, w, [("y", 2), ("z", 4)])
    m = truncated_module(a, "y", 2, 4)
    table = {(x, l): v for (l, x), v in ref_truncated_module(m, 2, 4).items()}
    units = {k: v for k, v in table.items() if k[0] == a.unit}
    broken = break_table(f, {k: v for k, v in table.items()
                             if k not in units}, m.space,
                         lambda x, l: a.space.deg(x) + m.space.deg(l), data)
    bm = DGModule.from_table(m.carrier, a, {**broken, **units}, side="left")
    check_against_reference(lambda m: validate_module(m).violations,
                            ref_validate_module_products, bm,
                            len(broken) + len(units) < len(table))


def outcome(validate, *args):
    """A validation's violations, or the message of the error it raised."""
    try:
        return validate(*args).violations
    except StructureError as e:
        return f"raises {e}"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.sampled_from(["right", "left"]), st.data())
def test_module_reads_the_products_its_algebra_filled(f, side, data):
    """A module validated with the table its broken algebra already
    filled reports what it reports alone, or raises the same table gap."""
    w = DegreeWindow(-12, 12)
    gens = [("y", 2), ("z", 4)]
    a = polynomial_algebra(f, w, gens)
    sp = a.space
    table = ref_polynomial(a, gens)
    units = {k: v for k, v in table.items() if a.unit in k}
    broken = break_table(f, {k: v for k, v in table.items()
                             if k not in units},
                         sp, lambda x, y: sp.deg(x) + sp.deg(y), data)
    ba = DGAlgebra.from_table(a.carrier, a.unit, {**broken, **units},
                              a.polarity)
    m = truncated_module(a, "y", 2, 4)
    act = ref_truncated_module(m, 2, 4)
    if side == "left":
        act = {(x, l): v for (l, x), v in act.items()}
    bm = DGModule.from_table(m.carrier, ba, act, side=side)
    shared: dict = {}
    outcome(validate_algebra, ba, shared)
    assert shared
    assert outcome(validate_module, bm, shared) == outcome(validate_module,
                                                          bm)


def counted(rule, counts):
    def rule_counted(*labels):
        counts[labels] = counts.get(labels, 0) + 1
        return rule(*labels)
    return rule_counted


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_validation_evaluates_each_pair_once(f, monkeypatch, tmp_path):
    w = DegreeWindow(-8, 8)
    a = polynomial_algebra(f, w, [("y1", 2), ("y2", 2), ("y3", 2)])
    products: dict = {}
    a.mult_pair = counted(a.mult_pair, products)
    fields = dict(vars(a))
    # every pair value of a monomial preset is one term with coefficient
    # f.one, so every product is a memo lookup and none goes through
    # bilinear
    extensions: dict = {}
    monkeypatch.setattr(dgstruct, "bilinear",
                        counted(dgstruct.bilinear, extensions))
    assert validate_algebra(a).ok
    assert not extensions
    monkeypatch.undo()
    # every degree-compatible pair, each evaluated once; nothing is stored
    assert len(products) == sum(1 for x, y in itertools.product(
        labels_of(a.space), repeat=2) if a.space.deg(x) + a.space.deg(y) <= 8)
    assert set(products.values()) == {1}
    assert vars(a) == fields

    # one table per presentation: K3's validation reads the products
    # S3's validation evaluated, 3,003 pairs at ±16
    doc = {"field": cli.field_name(f), "window": [-16, 16],
           "algebras": {"S3": {"kind": "polynomial", "generators": [
               ["y1", 2], ["y2", 2], ["y3", 2]]}},
           "modules": {"K3": {"kind": "trivial", "over": "S3"}}}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    products.clear()
    preset = dgstruct.polynomial_algebra

    def counted_preset(*args):
        s3 = preset(*args)
        s3.mult_pair = counted(s3.mult_pair, products)
        return s3
    monkeypatch.setattr(dgstruct, "polynomial_algebra", counted_preset)
    s3 = cli.parse_presentation(str(path)).algebras["S3"]
    monkeypatch.undo()
    assert len(products) == 3003 == sum(
        1 for x, y in itertools.product(labels_of(s3.space), repeat=2)
        if s3.space.deg(x) + s3.space.deg(y) <= 16)
    assert set(products.values()) == {1}

    m = truncated_module(polynomial_algebra(f, w, [("y", 2)]), "y", 2, 3)
    actions: dict = {}
    m.act_pair = counted(m.act_pair, actions)
    assert validate_module(m).ok and set(actions.values()) == {1}

    t = truncated_polynomial_algebra(f, w, "y", 2, 3)
    n = twisted_tensor_right(free_module(t), canonical_tau(t, w), w)
    coactions: dict = {}
    n.coaction_label = counted(n.coaction_label, coactions)
    assert validate_comodule(n).ok and set(coactions.values()) == {1}

    c = bar(t, w)
    coproducts: dict = {}
    c.comult_label = counted(c.comult_label, coproducts)
    assert validate_coalgebra(c).ok and set(coproducts.values()) == {1}


def test_associativity_compares_at_generators_only(monkeypatch, tmp_path):
    """Parsing S3 = K[y1,y2,y3] with K3 at ±16: G(S3) = {y1, y2, y3}, read
    off the stored products, and S3's associativity makes 5,148
    comparisons (l·x)·y = l·(x·y), one per pair with |l| + |x| <= 14 and
    y in G, where every y made 24,310, one per triple of degree <= 16.
    K3's makes 360 instead of 3,003.  No rule is evaluated twice (see
    ``test_validation_evaluates_each_pair_once``).

    A comparison reads each of its two sides once: a product of two
    labels by one ``get`` from the stored products, any other by one
    ``times``.  So the ``get`` and ``times`` calls made while an
    associativity check runs count two per comparison."""
    doc = {"field": "Q", "window": [-16, 16],
           "algebras": {"S3": {"kind": "polynomial", "generators": [
               ["y1", 2], ["y2", 2], ["y3", 2]]}},
           "modules": {"K3": {"kind": "trivial", "over": "S3"}}}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    reads, checking = [0], [False]

    def counted_read(read):
        def run(self, *args):
            reads[0] += checking[0]
            return read(self, *args)
        return run

    def checked(associativity):
        def run(*args):
            checking[0] = True
            try:
                return associativity(*args)
            finally:
                checking[0] = False
        return run

    comparisons, tables = [], []

    def spy(validate):
        def run(obj, table):
            before = reads[0]
            try:
                return validate(obj, table)
            finally:
                comparisons.append((reads[0] - before) // 2)
                tables.append(table)
        return run
    monkeypatch.setattr(dgstruct._Products, "get", counted_read(dict.get))
    monkeypatch.setattr(dgstruct._Products, "times",
                        counted_read(dgstruct._Products.times))
    monkeypatch.setattr(dgstruct, "_associativity",
                        checked(dgstruct._associativity))
    monkeypatch.setitem(globals(), "ref_associativity",
                        checked(ref_associativity))
    monkeypatch.setattr(cli, "validate_algebra", spy(cli.validate_algebra))
    monkeypatch.setattr(cli, "validate_module", spy(cli.validate_module))
    store = cli.parse_presentation(str(path))
    s3 = store.algebras["S3"]
    products = tables[0][s3.mult_pair]
    assert products.gens == {s3: {"y1", "y2", "y3"}}
    assert comparisons == [5148, 360]
    for validate, obj in ((ref_exhaustive_validate_algebra, s3),
                          (ref_exhaustive_validate_module,
                           store.modules["K3"])):
        spy(validate)(obj, {})
    assert comparisons[2:] == [24310, 3003]
    assert reads[0] == 2 * sum(comparisons)


def test_leibniz_reads_one_term_differentials_as_labels(monkeypatch):
    """Leibniz multiplies d(l) and d(x) in canonical form, so a one-term
    differential with coefficient one is a table lookup, not a bilinear
    extension: validating Ω(K[y]^∨) over F_5 at ±12 makes 2,446 bilinear
    calls (2,888 when d(l) and d(x) went to bilinear as dicts)."""
    f = FieldSpec.prime(5)
    w = DegreeWindow(-12, 12)
    om = cobar(graded_dual_algebra(polynomial_algebra(f, w, [("y", 2)])), w)
    calls = [0]
    extend = dgstruct.bilinear

    def counting(*args):
        calls[0] += 1
        return extend(*args)

    monkeypatch.setattr(dgstruct, "bilinear", counting)
    assert validate_algebra(om).ok
    assert calls[0] <= 2446


def test_product_table_lives_for_one_parse(tmp_path, monkeypatch):
    """Each parse validates with a table of its own and drops it when it
    returns; no object it stores gains an attribute.  The table algebra
    has y·x = 6z and x·y = z with d(x) = y, so Leibniz at (x, x) needs
    5z = 0: it holds over F_5 and fails over Q."""
    mult = {f"{a}|{b}": {b if a == "1" else a: 1}
            for a in "1xyz" for b in "1xyz" if "1" in (a, b)}
    mult.update({"x|x": {}, "x|y": {"z": 1}, "y|x": {"z": 6}})
    algebra = {"kind": "table", "unit": "1", "polarity": "non-negative",
               "basis": {"0": ["1"], "1": ["x"], "2": ["y"], "3": ["z"]},
               "differential": {"x": {"y": 1}}, "mult": mult}

    def parse(field):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({
            "field": field, "window": [0, 3], "algebras": {"A": algebra},
            "modules": {"K": {"kind": "trivial", "over": "A"}}}))
        return cli.parse_presentation(str(path))

    tables: list = []
    before: list = []

    def spy(validate):
        def run(obj, table):
            rule = getattr(obj, "mult_pair", None) or obj.act_pair
            before.append((obj, set(vars(obj)), rule, set(vars(rule))))
            try:
                return validate(obj, table)
            finally:
                tables.extend(weakref.ref(p) for p in table.values())
        return run
    monkeypatch.setattr(cli, "validate_algebra", spy(cli.validate_algebra))
    monkeypatch.setattr(cli, "validate_module", spy(cli.validate_module))

    for field in ("F5", "Q", "F5"):
        if field == "Q":
            with pytest.raises(cli.CliError,
                               match=r"Leibniz fails at \('x', 'x'\)"):
                parse(field)
            continue
        store = parse(field)
        assert set(store.algebras) == {"A"} and set(store.modules) == {"K"}
        assert tables and all(ref() is None for ref in tables)
        tables.clear()
        assert set(vars(store)) == set(vars(cli.Store(store.field,
                                                      store.window)))
    assert len(before) == 5
    for obj, attrs, rule, rule_attrs in before:
        assert set(vars(obj)) == attrs and set(vars(rule)) == rule_attrs


# -------------------------------------------------------------------------
# the flat validation loops and the integer-coded monomial rule report
# what the generator chains and the exponent-tuple rule before them did
# -------------------------------------------------------------------------

def parent_canonical(f: FieldSpec, v: dict):
    """v in the canonical form ``bilinear`` gives it (zero coefficients
    dropped, every coefficient canonical), and one term with coefficient
    ``f.one`` as its label."""
    one = f.one
    for c in v.values():
        if c is not one and not (c and f.is_canonical(c)):
            v = {t: s for t, c in v.items() if (s := f.mul(one, c))}
            break
    return next(iter(v)) if len(v) == 1 and one in v.values() else v


class ParentProducts(dict):
    """The pair products of one rule, {(a, b): value}, each evaluated on
    its first lookup and stored in ``parent_canonical`` form.  A rule that
    raises (a table gap) stores nothing and raises again at the next
    lookup, as does a value with a zero coefficient (``complete`` is then
    False); ``gens`` maps an algebra that passed to its generators."""

    def __init__(self, f: FieldSpec, rule):
        self.f, self.rule, self.complete, self.gens = f, rule, True, {}

    def own(self, key):
        """rule(*key) as the rule gives it, stored on the way, or its
        stored value, which has the same labels."""
        v = self.get(key)
        if v is None:
            v = self.rule(*key)
            s = parent_canonical(self.f, v)
            if len(v) == (1 if type(s) is str else len(s)):
                self[key] = s
            self.complete &= key in self
        return v

    def __missing__(self, key):
        return parent_canonical(self.f, self.own(key))

    def times(self, x, y):
        """x·y for labels or combinations, as stored: a lookup for two
        labels, else ``bilinear`` over the stored values."""
        if type(x) is str and type(y) is str:
            return self[x, y]
        if x == {} or y == {}:
            return {}
        return parent_canonical(self.f, bilinear(
            self.f, lambda a, b: dgstruct._combo(self.f, self[a, b]),
            dgstruct._combo(self.f, x), dgstruct._combo(self.f, y)))


def parent_memo(table: dict, f: FieldSpec, rule) -> ParentProducts:
    """The products of ``rule`` in ``table`` {rule: ParentProducts}, which a
    presentation shares among its validations: once per pair per
    presentation."""
    return table.setdefault(rule, ParentProducts(f, rule))


def parent_generators(a: DGAlgebra, mult: ParentProducts):
    """Labels generating a connected a of one polarity, else None: in each
    degree, those the ``span_echelon`` of stored products misses."""
    sp, u, degs = a.space, a.unit, a.space.degrees()
    if sp.labels(0) != (u,) or degs[0 if a.polarity == "non-negative" else -1]:
        return None
    top, gens, rest = max(map(abs, degs)), set(a.aug_ideal_labels()), {}
    for (x, y), v in mult.items():
        if v and x != u != y and abs(n := sp.deg(x) + sp.deg(y)) <= top:
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


def parent_validate_module(m: DGModule, table=None) -> ValidationReport:
    """Window validation: d^2 = 0, the grading of the action (and of every
    explicit table entry), the unit law on the module's side, Leibniz and
    associativity.  ``parent_validate_algebra`` runs it on the algebra as a right
    module over itself.  Each rule is evaluated once per pair per
    presentation (``table``, see ``parent_memo``): the grading check evaluates
    each pair, every later product is a lookup.

    Light's test (products and d out of the window are zero): once A is
    associative the y with all rows (l·x)·y = l·(x·y) form a subalgebra,
    (l·x)·(yz) = ((l·x)·y)·z = (l·(xy))·z = l·((xy)·z) = l·(x·(yz)) (for
    M = A, z's row at l = x), as do the middle letters of (x·y)·l.  So do
    the x with Leibniz at each checked pair (l, x) (both degrees in the
    window): d(l·xy) = d((l·x)·y) needs the pairs (l·x, y) and (l, x),
    checked as |l·x| and |l·x| + 1 lie between |l| and |l·xy| + 1 for x, y
    of one sign (either polarity), and d(xy) in A, a checked pair or zero
    at the window top.  So both run at G = ``parent_generators`` (Leibniz also
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
    act = parent_memo(table, f, m.act_pair)
    mult = parent_memo(table, f, alg.mult_pair)
    keys = ((l, x) if right else (x, l)
            for l, x in degree_compatible(sp, asp, win.__contains__))
    for k, v in itertools.chain(((k, act.own(k)) for k in keys),
                                getattr(m.act_pair, "table", {}).items()):
        l, x = k if right else k[::-1]
        n = sp.deg(l) + asp.deg(x)
        if not all(t in sp and sp.deg(t) == n
                   for t in ((v,) if type(v) is str else v)):
            rep.fail(f"product not of degree |x|+|y| at ({l!r}, {x!r})")
            break
    for l in sp:
        if act[(l, alg.unit) if right else (alg.unit, l)] != l:
            rep.fail(f"{m.side} unit law fails at {l!r}")
            break
    d = m.carrier.d
    # d of each label in canonical form, so a one-term value is a lookup
    dm = {l: parent_canonical(f, d(l)) for l in sp}
    da = {x: parent_canonical(f, alg.carrier.d(x)) for x in asp}

    def leibniz(gens):  # the first failing pair, x in gens if given
        pairs = degree_compatible(sp, asp, lambda s: s in win and s + 1 in win)
        for l, x in (k for k in pairs if gens is None or k[1] in gens):
            p, q, dp, dq, n = (l, x, dm[l], da[x], sp.deg(l)) if right else \
                (x, l, da[x], dm[l], asp.deg(x))
            rhs = vec_iadd(f, dict(dgstruct._combo(f, act.times(dp, q))),
                           f.from_int(-1 if n % 2 else 1),
                           dgstruct._combo(f, act.times(p, dq)))
            if d(act[p, q]) != rhs:
                return f"Leibniz fails at ({l!r}, {x!r})"
    adegs, times = asp.degrees(), act.times

    def associativity(gens):
        # a row per pair (l, x), to its first failing y (in gens if given)
        ys_at = {s: [y for k in adegs if s + k in win for y in asp.labels(k)
                     if gens is None or y in gens]
                 for s in {n + k for n in sp.degrees() for k in adegs}}
        for l, x in degree_compatible(sp, asp, ys_at.get):
            ys = ys_at[sp.deg(l) + asp.deg(x)]
            if right:
                lx = act[l, x]
                bad = next((y for y in ys
                            if times(lx, y) != times(l, mult[x, y])), None)
            else:
                bad = next((y for y in ys
                            if times(mult[x, y], l) != times(x, act[y, l])),
                           None)
            if bad is not None:
                return f"associativity fails at ({l!r}, {x!r}, {bad!r})"
    own = right and act is mult and sp is asp     # free_module(alg)
    gens = None if not (rep.ok and act.complete) else \
        parent_generators(alg, mult) if own else mult.gens.get(alg)
    if gens is None or associativity(gens) or leibniz(gens | {alg.unit}):
        for msg in filter(None, (leibniz(None), associativity(None))):
            rep.fail(msg)
    if own and rep.ok:
        mult.gens[alg] = gens
    return rep


def parent_validate_algebra(a: DGAlgebra, table=None) -> ValidationReport:
    """Window validation.  The regular module ``free_module(a)`` checks
    d^2 = 0, the grading of products, the right unit law, Leibniz and
    associativity (see ``parent_validate_module``); this adds the unit, polarity
    and connectivity flags, d(unit) = 0, the left unit law and the
    augmentation.  ``table`` is the presentation's table (``parent_memo``)."""
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
    for v in parent_validate_module(free_module(a), table).violations:
        rep.fail(v)
    if a.carrier.d(a.unit):
        rep.fail("d(unit) != 0")
    mult = parent_memo(table, f, a.mult_pair)
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


def parent_monomial_rule(field, gens, label):
    """The monomial product of ``_monomials`` by exponent tuples, as it
    was before exponent vectors were coded as integers."""
    odd = [i for i, g in enumerate(gens) if g[1] % 2]
    exps = {l: v for v, l in label.items()}
    one, minus = field.one, field.from_int(-1)

    def mult_pair(x: str, y: str) -> dict:
        a, b = exps[x], exps[y]
        t = label.get(tuple(map(operator.add, a, b)))
        if t is None:
            return {}
        if odd and sum(a[i] * b[j] for i in odd for j in odd if j < i) % 2:
            return {t: minus}
        return {t: one}

    return mult_pair


def validation_outcome(validate, obj, table):
    """The report's ok and violations, or the type and message of what the
    validation raised; and the stored products, ``complete`` and ``gens``
    of every rule in ``table`` afterwards."""
    try:
        rep = validate(obj, table)
        result = (rep.ok, rep.violations)
    except Exception as e:
        result = (type(e).__name__, str(e))
    return result, [(dict(p), p.complete, p.gens) for p in table.values()]


def misgrade(table, space, order, degree, data):
    """table with one or two products of the wrong degree, the first among
    the last quarter of ``order`` (its keys in check order): each becomes
    a label of ``space`` in another degree or a label outside it, or
    gains such a label with coefficient zero.  It may also gain an entry
    for a pair whose degree is outside the window, checked only as an
    explicit table entry."""
    f, table = space.field, dict(table)
    keys = [k for k in order if k in table]
    outside = [k for k in itertools.product({k[0] for k in order},
                                            {k[1] for k in order})
               if degree(*k) not in space.window]
    picked = []
    if not outside or data.draw(st.booleans()):
        picked.append(data.draw(st.sampled_from(keys[len(keys) * 3 // 4:])))
        if data.draw(st.booleans()):
            picked.append(data.draw(st.sampled_from(keys)))
    if outside and (not picked or data.draw(st.booleans())):
        picked.append(data.draw(st.sampled_from(outside)))
    for k in picked:
        wrong = data.draw(st.sampled_from(
            [l for l in space if space.deg(l) != degree(*k)] + ["zz"]))
        table[k] = {**table[k], wrong: f.zero} if k in table and \
            data.draw(st.booleans()) else {wrong: f.one}
    return table


def check_order(msp, asp, side):
    """The keys of a module's action table in the grading check's order."""
    return [(l, x) if side == "right" else (x, l) for l, x in
            dgstruct.degree_compatible(msp, asp, msp.window.__contains__)]


FLAT_PLANTS = ["none", "grading", "grading", "product", "late-product", "d",
               "unit+product", "gap", "coefficient"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.sampled_from(dgstruct.POLARITIES), st.data())
def test_flat_validation_reports_what_the_chained_one_did(f, polarity, data):
    """Random DG table algebras, both polarities, and left and right
    modules over them, with planted faults (one late misgraded product or
    two, a unit law, Leibniz, associativity, a zero coefficient, a table
    gap): the validators give the report, or raise the error, that the
    parent's validators give, and leave the same products, ``complete``
    and ``gens`` in the table, alone and with the algebra's table."""
    coeff = st.integers(0, 3).map(f.from_int)
    x_deg = data.draw(st.sampled_from(
        [1, 3] if polarity == "non-negative" else [3, 5]))
    cx, table = koszul_dga(
        f, polarity, x_deg, data.draw(st.booleans()),
        data.draw(st.integers(x_deg + 3, 10)),
        itertools.cycle(data.draw(st.lists(coeff, min_size=1,
                                           max_size=40))))
    sp = cx.space

    def degree(*key):
        return sum(sp.deg(l) if l in sp else msp.deg(l) for l in key)

    shared: dict = {}
    a0 = DGAlgebra.from_table(cx, "1", table, polarity)
    assert validate_algebra(a0, shared).ok
    late = {l for l in sp if l != "1"} - shared[a0.mult_pair].gens[a0]
    kind = data.draw(st.sampled_from(FLAT_PLANTS))
    msp = sp
    if kind == "grading":
        broken, bcx = misgrade(table, sp, check_order(sp, sp, "right"),
                               degree, data), cx
    else:
        broken, bcx = plant(f, table, cx, degree, "1", kind, data, late)
    a = DGAlgebra.from_table(bcx, "1", broken, polarity)
    tables = ({}, {})
    assert validation_outcome(validate_algebra, a, tables[0]) == \
        validation_outcome(parent_validate_algebra, a, tables[1])

    side = data.draw(st.sampled_from(["right", "left"]))
    action = data.draw(st.sampled_from([None, table, broken]))
    m = trivial_table_module(a, side) if action is None else \
        regular_table_module(a, action, side)
    msp = m.space
    mkind = data.draw(st.sampled_from(["none", "grading", "product", "gap",
                                       "unit+product", "coefficient"]))
    if mkind == "grading":
        act = misgrade(m.act_pair.table, msp, check_order(msp, sp, side),
                       degree, data)
    else:
        act, _ = plant(f, m.act_pair.table, m.carrier, degree, "1", mkind,
                       data)
    m = DGModule.from_table(m.carrier, a, act, side=side)
    for new, old in (tables, ({}, {})):
        assert validation_outcome(validate_module, m, new) == \
            validation_outcome(parent_validate_module, m, old)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_st, st.data())
def test_integer_coded_monomial_rule_matches_tuple_rule(f, data):
    """On every label pair of random monomial bases, even generators with
    or without a cap and odd ones of either sign: products past a cap,
    past the window top, with odd signs, are what the exponent-tuple rule
    gave."""
    gens, caps = [], []
    for i in range(data.draw(st.integers(0, 4))):
        d = data.draw(st.sampled_from([-5, -3, -1, 1, 3, 2, 4, 6]))
        gens.append((f"g{i}", d))
        caps.append(1 if d % 2 else
                    data.draw(st.sampled_from([None, 1, 2, 3])))
    lo = sum(d for _, d in gens if d < 0)
    w = DegreeWindow(lo, data.draw(st.integers(0, 12)))
    _, label, rule = dgstruct._monomials(f, w, gens, caps,
                                         (NEG_INF, POS_INF))
    old = parent_monomial_rule(f, gens, label)
    for x, y in itertools.product(label.values(), repeat=2):
        assert rule(x, y) == old(x, y)


# -------------------------------------------------------------------------
# work count
# -------------------------------------------------------------------------

def test_cobar_label_work_is_linear(monkeypatch):
    """Building Ω(K[y]^∨) at ±16 makes one word label per basis word and
    one for the unit; a multiplication table would make two per pair of
    words.  Each letter's reduced coproduct is computed once, not at every
    position of every word."""
    f = FieldSpec.prime(5)
    w = DegreeWindow(-16, 16)
    c = graded_dual_algebra(polynomial_algebra(f, w, [("y", 2)]))
    calls = [0]
    label = barcobar.cobar_word_label

    def counting(entries):
        calls[0] += 1
        return label(entries)

    comult_calls = {}
    reduced_comult = c.reduced_comult

    def counting_comult(l):
        comult_calls[l] = comult_calls.get(l, 0) + 1
        return reduced_comult(l)

    monkeypatch.setattr(barcobar, "cobar_word_label", counting)
    monkeypatch.setattr(c, "reduced_comult", counting_comult)
    om = cobar(c, w)
    dim = om.space.total_dim()
    assert dim == 2584
    assert calls[0] <= dim + 1
    letters = [l for l in labels_of(c.space) if l != c.coaug]
    assert len(letters) == 8
    assert set(comult_calls) <= set(letters)
    assert all(n == 1 for n in comult_calls.values())


def test_bar_rule_work_is_per_letter_pair(monkeypatch):
    """Building B(K[y]/(y^4)) at ±18 evaluates the product once per ordered
    pair of its three letters, and makes one word label per basis word and
    one for the unit: no label for a word outside the window."""
    f = FieldSpec.prime(5)
    w = DegreeWindow(-18, 18)
    a = truncated_polynomial_algebra(f, w, "y", 2, 4)
    products: dict = {}
    a.mult_pair = counted(a.mult_pair, products)
    calls = [0]
    label = barcobar.bar_word_label

    def counting(entries):
        calls[0] += 1
        return label(entries)

    monkeypatch.setattr(barcobar, "bar_word_label", counting)
    b = bar(a, w)
    dim = b.space.total_dim()
    assert dim == 4786
    assert calls[0] <= dim + 1
    letters = [l for l in labels_of(a.space) if l != a.unit]
    assert len(letters) == 3
    assert set(products) <= set(itertools.product(letters, repeat=2))
    assert set(products.values()) == {1}


def test_bar_merges_once_per_letter_pair(monkeypatch):
    """Building B(K[y]/(y^4)) at ±12 calls its quadratic rule ``merge``
    once per letter followed by a letter or by the end of a word, not once
    per position of every word: each column reuses its tail's."""
    f = FieldSpec.prime(5)
    w = DegreeWindow(-12, 12)
    a = truncated_polynomial_algebra(f, w, "y", 2, 4)
    merges: dict = {}
    build = barcobar._word_complex

    def counting(carrier, shift, window, skip, quadratic, label, what):
        return build(carrier, shift, window, skip,
                     counted(quadratic, merges), label, what)

    monkeypatch.setattr(barcobar, "_word_complex", counting)
    b = bar(a, w)
    assert b.space.total_dim() == 319
    letters = [l for l in labels_of(a.space) if l != a.unit]
    assert set(merges) <= set(itertools.product(letters, letters + [None]))
    assert set(merges.values()) == {1}


def test_twisted_bar_looks_up_each_coproduct_once(monkeypatch):
    """Building B(A;A) = A ⊗_τ B(A) of K[y]/(y^4) at ±18 looks up the
    coproduct of each word of B(A) once, not once per basis element of
    the tensor product (7,833 of them), so its word labels are at most
    one deconcatenation of B(A)."""
    f = FieldSpec.prime(5)
    w = DegreeWindow(-18, 18)
    a = truncated_polynomial_algebra(f, w, "y", 2, 4)
    b = bar(a, w)
    coproducts: dict = {}
    b.comult_label = counted(b.comult_label, coproducts)
    calls = [0]
    label = barcobar.bar_word_label

    def counting(entries):
        calls[0] += 1
        return label(entries)

    monkeypatch.setattr(barcobar, "bar_word_label", counting)
    n = twisted_tensor_right(free_module(a), canonical_tau(a, barc=b), w)
    assert n.space.total_dim() == 7833
    assert len(coproducts) <= b.space.total_dim() == 4786
    assert set(coproducts.values()) == {1}
    # one cut of a word of length k joins two labels, at k + 1 places
    cuts = sum(2 * (len(bar_word_entries(l)) + 1) for l, in coproducts)
    assert calls[0] <= cuts
