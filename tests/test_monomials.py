"""The monomial presets against reference constructors.

The polynomial, truncated polynomial and exterior algebras, the exterior
coalgebra and the truncated module are all built by one monomial builder
in ``dgstruct``.  The reference constructors below are the earlier
per-preset enumerations, kept here verbatim apart from their names: a
recursive enumeration for the polynomial algebra, a loop over powers for
the truncated ones, and a subset carrier with a sorting sign and an
unshuffle loop for the exterior ones.  Every preset must give the same
basis in the same order, the same bounds, flags and name, the same
product on every label pair, the same coproduct terms in the same order,
and the same refusals.
"""

import itertools
import operator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul.dgstruct import (
    DGAlgebra,
    DGCoalgebra,
    DGModule,
    exterior_algebra,
    exterior_coalgebra,
    polynomial_algebra,
    truncated_module,
    truncated_polynomial_algebra,
)
from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    POS_INF,
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
)

FIELDS = [FieldSpec.prime(5), FieldSpec.rationals()]
PRESETS = settings(max_examples=150, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


# -------------------------------------------------------------------------
# reference constructors: one enumeration per preset
# -------------------------------------------------------------------------

def _monomial_label(names: list, exps: tuple) -> str:
    parts = []
    for nm, e in zip(names, exps):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def ref_polynomial_algebra(field, window, gens):
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    if len(set(names)) != len(names):
        raise StructureError("duplicate generator names")
    for d in degs:
        if d <= 0 or d % 2:
            raise StructureError("polynomial generator degree must be even "
                                 f"positive, got {d}")
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
        t = label_of.get(tuple(map(operator.add, exps_of[a], exps_of[b])))
        return {t: field.one} if t else {}

    nm = "K[" + ",".join(names) + "]"
    return DGAlgebra(cx, "1", mult_pair, "non-negative", simply_connected=True,
                     name=nm)


def ref_truncated_polynomial_algebra(field, window, name, degree, power):
    if degree <= 0 or degree % 2:
        raise StructureError("generator degree must be even positive")
    if power < 2:
        raise StructureError("power must be >= 2")
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


def _exterior_carrier(field, window, gens, what):
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    for d in degs:
        if d % 2 == 0:
            raise StructureError(f"exterior generator degree must be odd, got {d}")
    label = {s: _subset_label(names, s)
             for r in range(len(gens) + 1)
             for s in itertools.combinations(range(len(gens)), r)}
    basis: dict = {}
    for s, l in label.items():
        d = sum(degs[i] for i in s)
        if d not in window:
            raise WindowError(f"window too small for the exterior {what} basis")
        basis.setdefault(d, []).append((s, l))
    basis_sorted = {d: tuple(l for _, l in sorted(items))
                    for d, items in sorted(basis.items())}
    sp = GradedSpace(field, window, basis_sorted,
                     bounds=(min(basis), max(basis)))
    return Complex(sp, GradedMap.zero(sp, sp, 1)), label


def sign_of_sort(indices: list, degrees: list) -> int:
    odd = [i for i, d in zip(indices, degrees) if d % 2]
    return -1 if sum(a > b for a, b in itertools.combinations(odd, 2)) % 2 else 1


def ref_exterior_algebra(field, window, gens):
    cx, label = _exterior_carrier(field, window, gens, "algebra")
    names = [g[0] for g in gens]
    degs = [g[1] for g in gens]
    subset_of = {l: s for s, l in label.items()}

    def mult_pair(a: str, b: str) -> dict:
        sa, sb = subset_of[a], subset_of[b]
        if set(sa) & set(sb):
            return {}
        seq = sa + sb
        sgn = sign_of_sort(seq, [degs[i] for i in seq])
        return {label[tuple(sorted(seq))]: field.from_int(sgn)}

    polarity = "non-negative" if all(d > 0 for d in degs) else "non-positive"
    sc = all(abs(d) >= 2 for d in degs) if polarity == "non-negative" else \
        all(d <= -2 for d in degs)
    return DGAlgebra(cx, "1", mult_pair, polarity, simply_connected=sc,
                     name="Λ(" + ",".join(names) + ")")


def ref_exterior_coalgebra(field, window, gens):
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
                seq = list(t) + list(u)
                sgn = sign_of_sort(seq, [degs[i] for i in seq])
                terms.append((label[tuple(t)], label[u], field.from_int(sgn)))
        comult[label[s]] = terms
    counit = {label[()]: field.one}
    return DGCoalgebra(cx, lambda l: comult.get(l, []), counit, label[()],
                       name="∧Σ(" + ",".join(names) + ")")


def ref_truncated_module(a, name, degree, power):
    if degree <= 0:
        raise StructureError("module generator degree must be positive")
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


# -------------------------------------------------------------------------
# comparison
# -------------------------------------------------------------------------

def built(construct, *args):
    """The structure, or the type and message of the refusal."""
    try:
        return construct(*args)
    except (StructureError, WindowError) as e:
        return type(e), str(e)


def labels_of(sp):
    return [l for n in sp.degrees() for l in sp.labels(n)]


def assert_same_space(new, ref):
    sp, rsp = new.space, ref.space
    assert list(sp.basis.items()) == list(rsp.basis.items())
    assert sp.window == rsp.window and sp.bounds == rsp.bounds
    assert new.carrier.differential.cols == ref.carrier.differential.cols == {}
    assert new.name == ref.name


def assert_same_algebra(new, ref):
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert_same_space(new, ref)
    assert (new.unit, new.polarity, new.simply_connected) == \
        (ref.unit, ref.polarity, ref.simply_connected)
    for x, y in itertools.product(labels_of(ref.space), repeat=2):
        assert new.mult_pair(x, y) == ref.mult_pair(x, y), (x, y)


field_st = st.sampled_from(FIELDS)


@st.composite
def windows(draw):
    lo = draw(st.integers(-12, 2))
    return DegreeWindow(lo, draw(st.integers(max(lo, -2), 12)))


def generators(degree):
    return st.lists(degree, max_size=3).map(
        lambda ds: [(f"x{i}", d) for i, d in enumerate(ds)])


even_st = st.sampled_from([2, 4, 6])
odd_st = st.sampled_from([-5, -3, -1, 1, 3, 5])


@PRESETS
@given(field_st, windows(), generators(even_st))
def test_polynomial_algebra_matches_reference(f, w, gens):
    assert_same_algebra(built(polynomial_algebra, f, w, gens),
                        built(ref_polynomial_algebra, f, w, gens))


@PRESETS
@given(field_st, windows(), st.sampled_from([-2, 1, 2, 4, 6]),
       st.integers(1, 5))
def test_truncated_polynomial_algebra_matches_reference(f, w, degree, power):
    args = (f, w, "y", degree, power)
    assert_same_algebra(built(truncated_polynomial_algebra, *args),
                        built(ref_truncated_polynomial_algebra, *args))


@PRESETS
@given(field_st, windows(), generators(odd_st))
def test_exterior_algebra_matches_reference(f, w, gens):
    """Degrees of either sign, mixed too, and windows too small for the
    basis (the WindowError refusal)."""
    assert_same_algebra(built(exterior_algebra, f, w, gens),
                        built(ref_exterior_algebra, f, w, gens))


@PRESETS
@given(field_st, windows(), generators(odd_st))
def test_exterior_coalgebra_matches_reference(f, w, gens):
    new = built(exterior_coalgebra, f, w, gens)
    ref = built(ref_exterior_coalgebra, f, w, gens)
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert_same_space(new, ref)
    assert (new.coaug, new.counit) == (ref.coaug, ref.counit)
    for l in labels_of(ref.space) + ["nope"]:
        assert new.comult_label(l) == ref.comult_label(l), l


@PRESETS
@given(field_st, windows(), generators(even_st), even_st,
       st.integers(0, 4))
def test_truncated_module_matches_reference(f, w, gens, degree, power):
    """Over a polynomial algebra every basis degree of which is a multiple
    of the module generator's degree; any other algebra is refused, and so
    is a power below 1, which the reference took for the zero module."""
    a = built(polynomial_algebra, f, w, gens)
    if isinstance(a, tuple):  # the window misses degree 0
        return
    new = built(truncated_module, a, "y", degree, power)
    if power < 1:
        assert new == (StructureError,
                       f"module power {power} must be at least 1")
        return
    if any(n % degree for n in a.space.degrees()):
        assert new[0] is StructureError and "not a multiple" in new[1]
        return
    ref = ref_truncated_module(a, "y", degree, power)
    assert_same_space(new, ref)
    assert new.side == ref.side and new.over is ref.over
    for ml, x in itertools.product(labels_of(ref.space),
                                   labels_of(a.space)):
        assert new.act_pair(ml, x) == ref.act_pair(ml, x), (ml, x)


@pytest.mark.parametrize("construct", [exterior_algebra, exterior_coalgebra])
def test_exterior_basis_in_subset_order(construct):
    """Within a degree the exterior basis is in increasing subset order:
    x0 before x1, x0*x1 before x0*x2 before x1*x2."""
    f = FieldSpec.prime(5)
    s = construct(f, DegreeWindow(-4, 4), [("x0", 1), ("x1", 1), ("x2", 1)])
    assert s.space.labels(1) == ("x0", "x1", "x2")
    assert s.space.labels(2) == ("x0*x1", "x0*x2", "x1*x2")
