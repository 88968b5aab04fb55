"""Accumulating in place never writes into shared data.

``vec_iadd`` adds into the dict it is given.  Stored differential columns,
the dicts product rules return and cached homology representatives are
shared, so the engine must copy them before accumulating.  These tests
snapshot such data, run validation, homology, chain-map and cone checks
and the ``level-bound`` pipeline, and check that nothing changed.
"""

import copy

from dgkoszul.barcobar import bar, cobar
from dgkoszul.dgstruct import (
    graded_dual_algebra,
    polynomial_algebra,
    trivial_algebra,
    trivial_module,
    validate_algebra,
    validate_coalgebra,
    validate_module,
)
from dgkoszul.exactlinalg import vec_scale
from dgkoszul.gradedcomplex import (
    DegreeWindow,
    GradedMap,
    cone,
    homology,
    is_chain_map,
)
from dgkoszul.level import cert_from_resolution, cert_validate
from dgkoszul.resolve import (
    class_of,
    derived_fiber,
    is_free_over_homology,
    minimize,
    semifree_resolve,
)


def homology_by_degree(cx):
    win = cx.space.window
    return {n: homology(cx, n) for n in range(win.lo, win.hi + 1)
            if cx.space.homology_computable(n)}


def test_shared_columns_and_rules_unchanged(F5):
    # the CLI fixture's S = K[y], |y| = 2, on a window where validating
    # Ω(S^∨) exhaustively stays quick
    window = DegreeWindow(-10, 10)
    s = polynomial_algebra(F5, window, [("y", 2)])
    sd = graded_dual_algebra(s)
    bs = bar(s, window)
    om = cobar(sd, window)
    k = trivial_module(s)
    r = minimize(semifree_resolve(k))
    rcx, eps = r.realize()
    ka = trivial_algebra(F5, window)
    kk = trivial_module(ka)
    om0 = cobar(graded_dual_algebra(ka), window)
    carriers = [s.carrier, sd.carrier, bs.carrier, om.carrier, rcx]
    homology = [homology_by_degree(cx) for cx in carriers]
    cols = copy.deepcopy([cx.differential.cols for cx in carriers]
                         + [eps.cols])
    reps = copy.deepcopy([{n: h.representatives for n, h in hs.items()}
                          for hs in homology])

    assert validate_algebra(s).ok and validate_algebra(om).ok
    assert validate_coalgebra(sd).ok and validate_coalgebra(bs).ok
    for a in (ka, om0):
        assert validate_algebra(a).ok
        bar(a, window)
    assert validate_module(k).ok and validate_module(kk).ok
    for cx in carriers:
        homology_by_degree(cx)
    assert is_chain_map(eps, rcx, k.carrier)[0]
    cone(eps, rcx, k.carrier)
    minus_eps = GradedMap(eps.source, eps.target, eps.shift,
                          {l: vec_scale(F5, F5.from_int(-1), v)
                           for l, v in eps.cols.items()})
    assert eps.add(minus_eps).cols == {}
    # the level-bound pipeline
    derived_fiber(r)
    is_free_over_homology(k)
    assert class_of(r)[1]
    assert cert_validate(cert_from_resolution(r)).ok

    assert [cx.differential.cols for cx in carriers] + [eps.cols] == cols
    assert [{n: h.representatives for n, h in hs.items()}
            for hs in homology] == reps
    assert ka.mult_pair("1", "1") == {"1": F5.one}
    assert kk.act_pair("1m", "1") == {"1m": F5.one}
    assert om0.mult_pair(om0.unit, om0.unit) == {om0.unit: F5.one}
