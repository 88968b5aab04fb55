"""Product and action rules against reference tables.

Every preset computes its products on demand.  The reference tables here
are built by explicit loops over all label pairs, and the rules must agree
with them on every pair of basis labels.  The reference validators are the exhaustive loops over all label
pairs and triples; the engine's validators visit only degree-compatible
groups and must report the same violations in the same order.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul import barcobar
from dgkoszul.barcobar import (
    bar,
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
    comodule_over_self,
    comodule_to_module_F,
    dual_label,
    exterior_algebra,
    exterior_coalgebra,
    free_module,
    graded_dual_algebra,
    graded_dual_coalgebra,
    module_direct_sum,
    module_shift,
    polynomial_algebra,
    tD,
    trivial_algebra,
    trivial_comodule,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
    validate_algebra,
    validate_module,
)
from dgkoszul.exactlinalg import FieldSpec, vec_add, vec_addmul, vec_scale
from dgkoszul.gradedcomplex import DegreeWindow, StructureError, koszul_sign
from dgkoszul.koszul import make_koszul_pair

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]
RULES = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def labels_of(sp):
    return [l for n in sp.degrees() for l in sp.labels(n)]


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
                    combo = vec_addmul(f, combo, v, {tgt: f.one})
            table[(label, bl)] = combo
    return table


def ref_dual_coalgebra(c, dual):
    """Multiplication table of graded_dual_coalgebra with the zero products
    inside the window filled in."""
    f = c.field
    table = {}
    for l, terms in c.comult.items():
        for l1, l2, v in terms:
            sgn = f.from_int(koszul_sign(c.space.deg(l1), c.space.deg(l2)))
            col = table.setdefault((dual_label(l1), dual_label(l2)), {})
            s = f.add(col.get(dual_label(l), f.zero), f.mul(sgn, v))
            if f.is_zero(s):
                col.pop(dual_label(l), None)
            else:
                col[dual_label(l)] = s
    sp = dual.space
    for x, y in itertools.product(labels_of(sp), repeat=2):
        if (x, y) not in table and sp.deg(x) + sp.deg(y) in sp.window:
            table[(x, y)] = {}
    return table


def ref_F(n, fm):
    f, sp, dsp = n.field, n.space, fm.over.space
    table = {}
    for l in labels_of(sp):
        for m, c, v in n.coaction_label(l):
            if dual_label(c) not in dsp:
                continue
            sgn = f.from_int(koszul_sign(sp.deg(m), n.over.space.deg(c)))
            col = table.setdefault((dual_label(c), l), {})
            s = f.add(col.get(m, f.zero), f.mul(sgn, v))
            if f.is_zero(s):
                col.pop(m, None)
            else:
                col[m] = s
    for a in labels_of(dsp):
        for l in labels_of(sp):
            if (a, l) not in table and dsp.deg(a) + sp.deg(l) in sp.window:
                table[(a, l)] = {}
    return table


def ref_tD(n, fm, td):
    f, sp, dsp = n.field, n.space, td.space
    fm_table = ref_F(n, fm)
    table = {}
    for a in labels_of(fm.over.space):
        k = fm.over.space.deg(a)
        for l in labels_of(sp):
            for mp, v in fm_table.get((a, l), {}).items():
                key = (dual_label(mp), a)
                if dsp.deg(dual_label(mp)) + k not in dsp.window:
                    continue
                col = table.setdefault(key, {})
                s = f.add(col.get(dual_label(l), f.zero), v)
                if f.is_zero(s):
                    col.pop(dual_label(l), None)
                else:
                    col[dual_label(l)] = s
    for a in labels_of(fm.over.space):
        for phi in labels_of(dsp):
            if (phi, a) not in table and \
                    dsp.deg(phi) + fm.over.space.deg(a) in dsp.window:
                table[(phi, a)] = {}
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
    m = truncated_module(a, "y0", deg, power)
    assert_module_rule(m, ref_truncated_module(m, deg, power))
    # the shift keeps the action; the sum acts summand by summand
    sh = module_shift(m, 2)
    assert_module_rule(sh, ref_truncated_module(m, deg, power))
    ds, _, _ = module_direct_sum([trivial_module(a), m])
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
            td = tD(n)
            assert_module_rule(td, ref_tD(n, fm, td))


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
        rhs = vec_add(f, rhs, vec_scale(
            f, sgn, a.multiply({x: f.one}, a.carrier.d(y))))
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
    violations = []
    f, alg, sp = m.field, m.over, m.space
    mlabels, alabels = labels_of(sp), labels_of(alg.space)
    win = sp.window
    done = False
    for l in mlabels:
        for x, y in itertools.product(alabels, repeat=2):
            if sp.deg(l) + alg.space.deg(x) + alg.space.deg(y) not in win:
                continue
            lhs = m.act(m.act_pair(l, x), {y: f.one})
            rhs = m.act({l: f.one}, alg.mult_pair(x, y))
            if lhs != rhs:
                violations.append(
                    f"action associativity fails at ({l!r}, {x!r}, {y!r})")
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


# -------------------------------------------------------------------------
# work count
# -------------------------------------------------------------------------

def test_cobar_label_work_is_linear(monkeypatch):
    """Building Ω(K[y]^∨) at ±16 makes O(basis) word labels; a
    multiplication table would make two per pair of words."""
    f = FieldSpec.prime(5)
    w = DegreeWindow(-16, 16)
    c = graded_dual_algebra(polynomial_algebra(f, w, [("y", 2)]))
    calls = [0]
    label = barcobar.cobar_word_label

    def counting(entries):
        calls[0] += 1
        return label(entries)

    monkeypatch.setattr(barcobar, "cobar_word_label", counting)
    om = cobar(c, w)
    dim = om.space.total_dim()
    assert dim == 2584
    assert calls[0] <= 8 * dim
