"""Acceptance gate: ten exact criteria, one pass/fail line each.

Each test prints "criterion N: PASS" (or FAIL) and asserts the verdict, so
the suite output contains exactly one line per criterion.
"""

import itertools
import json
import time

import pytest

from dgkoszul.exactlinalg import FieldSpec, graph_span, rank
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    check_d_squared,
    homology,
)
from dgkoszul.dgstruct import (
    DGModule,
    exterior_algebra,
    exterior_coalgebra,
    free_module,
    graded_dual_algebra,
    polynomial_algebra,
    trivial_algebra,
    trivial_module,
    truncated_module,
    truncated_polynomial_algebra,
    validate_twisting_cochain,
)
from dgkoszul.barcobar import (
    bar,
    canonical_tau,
    canonical_tau0,
    cobar,
    twisted_tensor_right,
)
from dgkoszul.resolve import class_of, lemma1_report, semifree_resolve
from dgkoszul.level import (
    Leaf,
    LevelCertificate,
    RetractNode,
    canonical_coproduct,
    cert_compose,
    cert_from_resolution,
    cert_validate,
    cone_node_from_map,
    leaf_from_bijection,
    tower_bound,
)
from dgkoszul.koszul import (
    cobar_polynomial_check,
    ext_algebra,
    exterior_tor_check,
    koszul_pair_check,
    level_duality_check,
    make_koszul_pair,
)
from dgkoszul.resolve import is_free_over_homology
from dgkoszul.cli import main as cli_main

WINDOW = DegreeWindow(-16, 16)
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]


def verdict(n, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def fixture_algebras(f):
    """The six fixture algebras; the two-variable polynomial algebra gets
    a tighter window because its bar word count grows exponentially."""
    w8 = DegreeWindow(-8, 8)
    return [
        trivial_algebra(f, WINDOW),
        polynomial_algebra(f, WINDOW, [("y", 2)]),
        polynomial_algebra(f, w8, [("y1", 2), ("y2", 2)]),
        exterior_algebra(f, WINDOW, [("x", -3)]),
        exterior_algebra(f, WINDOW, [("x1", -3), ("x2", -5)]),
        truncated_polynomial_algebra(f, WINDOW, "y", 2, 3),
    ]


def test_criterion_1_structural_soundness():
    t0 = time.monotonic()
    ok = True
    for f in FIELDS:
        for a in fixture_algebras(f):
            w = a.space.window
            b = bar(a, w)
            ok = ok and bool(check_d_squared(b.carrier))
            tau = canonical_tau(a, w, b)
            tw = twisted_tensor_right(free_module(a), tau)
            ok = ok and bool(check_d_squared(tw.carrier))
            om = cobar(graded_dual_algebra(a), w)
            ok = ok and bool(check_d_squared(om.carrier))
    elapsed = time.monotonic() - t0
    verdict(1, ok and elapsed <= 60.0)


def test_criterion_2_twisting_identity():
    ok = True
    for f in FIELDS:
        for a in fixture_algebras(f):
            w = a.space.window
            ok = ok and validate_twisting_cochain(canonical_tau(a, w)).ok
        c = exterior_coalgebra(f, WINDOW, [("sy", 1)])
        ok = ok and validate_twisting_cochain(canonical_tau0(c, WINDOW)).ok
        d = graded_dual_algebra(exterior_algebra(f, WINDOW, [("x", -3)]))
        ok = ok and validate_twisting_cochain(canonical_tau0(d, WINDOW)).ok
    for degs in ([2], [2, 2]):
        pair = make_koszul_pair(FieldSpec.prime(5), WINDOW, degs)
        ok = ok and validate_twisting_cochain(pair.tau).ok
    verdict(2, ok)


def test_criterion_3_example_4_6():
    w12 = DegreeWindow(-12, 12)
    ok = True
    for f in (FieldSpec.prime(2), FieldSpec.rationals()):
        for degs in ([-3], [-3, -3]):
            ok = ok and exterior_tor_check(f, degs, w12)["ok"]
            ok = ok and cobar_polynomial_check(f, degs, w12)["ok"]
    verdict(3, ok)


def test_criterion_4_two_sided_quasi_iso():
    t0 = time.monotonic()
    f = FieldSpec.prime(5)
    ok = True
    for degs in ([2], [2, 2]):
        pair = make_koszul_pair(f, WINDOW, degs)
        rep = koszul_pair_check(pair)
        ok = ok and rep["ok"] and rep["two_sided"]["chain_map"]
        ok = ok and any(v is True
                        for v in rep["two_sided"]["by_degree"].values())
    elapsed = time.monotonic() - t0
    verdict(4, ok and elapsed <= 120.0)


def _lemma25_fixtures():
    f2, f5, q = FIELDS
    for f in FIELDS:
        a = polynomial_algebra(f, WINDOW, [("y", 2)])
        yield trivial_module(a), a, 2
    a5 = polynomial_algebra(f5, WINDOW, [("y", 2)])
    yield free_module(a5), a5, None
    yield truncated_module(a5, "y", 2, 2), a5, None
    yield truncated_module(a5, "y", 2, 3), a5, None
    a2v = polynomial_algebra(f5, WINDOW, [("y1", 2), ("y2", 2)])
    yield trivial_module(a2v), a2v, None


def test_criterion_5_lemma_2_5():
    ok = True
    exhausted_count = 0
    for m, a, expect in _lemma25_fixtures():
        rep = lemma1_report(m)
        ok = ok and rep["ok"] and rep["fiber_dim"] >= rep["class"]
        if rep["exhausted"]:
            exhausted_count += 1
        if expect is not None:
            ok = ok and rep["fiber_dim"] == expect == rep["class"]
    verdict(5, ok and exhausted_count >= 6)


def test_criterion_6_level_sandwich():
    f = FieldSpec.prime(5)
    a = polynomial_algebra(f, WINDOW, [("y", 2)])
    k = trivial_module(a)
    cert = cert_from_resolution(semifree_resolve(k))
    upper = cert.claimed_level
    freeness = is_free_over_homology(k)
    lower = 1 if freeness["free"] else 2
    ok = (cert_validate(cert).ok and upper == 2 and lower == 2)
    verdict(6, ok)


def _two_cert(base_complex, a, b):
    from dgkoszul.gradedcomplex import shift_complex
    C = base_complex

    def leaf_shift(k):
        s = shift_complex(C, k)
        bij = {l: f"s0:{l}" for n in s.space.degrees()
               for l in s.space.labels(n)}
        return leaf_from_bijection(C, s, [k], bij)

    src = shift_complex(C, a - 1)
    wmap = GradedMap.zero(src.space, shift_complex(C, b).space, 0)
    node = cone_node_from_map(wmap, src, shift_complex(C, b),
                              leaf_shift(b), leaf_shift(a))
    return LevelCertificate(C, node.subject, node)


def test_criterion_7_composition_arithmetic():
    f = FieldSpec.prime(5)
    a2v = polynomial_algebra(f, WINDOW, [("y1", 2), ("y2", 2)])
    c3 = cert_from_resolution(
        semifree_resolve(trivial_module(a2v)))
    ok = c3.claimed_level == 3 and cert_validate(c3).ok
    c2 = _two_cert(c3.subject, 3, 1)
    comp = cert_compose(c2, c3)
    ok = ok and comp.claimed_level <= 6 and cert_validate(comp).ok

    a = polynomial_algebra(f, WINDOW, [("y", 2)])
    bot = cert_from_resolution(
        semifree_resolve(trivial_module(a)))
    mid = _two_cert(bot.subject, 3, 1)
    top = _two_cert(mid.subject, 2, 0)
    out3 = tower_bound([top, mid, bot])
    ok = ok and out3["level_bound"] == 8
    ok = ok and out3["claimed_level"] <= 8
    ok = ok and cert_validate(out3["certificate"]).ok
    # two level-2 stages with a rank-4 auxiliary: bounds (4, 16)
    out2 = tower_bound([top, mid], aux_dim=4)
    ok = ok and out2["level_bound"] == 4 and out2["dim_bound"] == 16
    verdict(7, ok)


def test_criterion_8_duality_equality():
    f = FieldSpec.prime(5)
    pair = make_koszul_pair(f, WINDOW, [2])
    sv = pair.algebra
    r_k = level_duality_check(pair, trivial_module(sv))
    r_t = level_duality_check(pair, truncated_module(sv, "y1", 2, 2))
    r_sv = level_duality_check(pair, free_module(sv))
    ok = (r_k["value"] == 2 and r_t["value"] == 2 and r_sv["value"] == 1
          and r_sv.get("eta_trivial_qiso") is True
          and all(r["intervals_intersect"] for r in (r_k, r_t, r_sv)))
    verdict(8, ok)


# -------------------------------------------------------------------------
# criterion 9: micro-world
# -------------------------------------------------------------------------

def _f2_matrices(rows, cols):
    """All rows×cols matrices over F_2 as column dicts."""
    if cols == 0:
        yield []
        return
    cells = list(itertools.product(range(rows), range(cols)))
    for bits in range(1 << (rows * cols)):
        colmaps = [dict() for _ in range(cols)]
        for idx, (r, c) in enumerate(cells):
            if bits >> idx & 1:
                colmaps[c][r] = 1
        yield colmaps


def _micro_complexes(f):
    """Every complex over F_2 supported in degrees 0..2 with total
    dimension ≤ 4 and d² = 0."""
    win = DegreeWindow(-8, 8)
    for a, b, c in itertools.product(range(5), repeat=3):
        if not 0 < a + b + c <= 4:
            continue
        labels = {n: [f"g{n}_{i}" for i in range(dim)]
                  for n, dim in ((0, a), (1, b), (2, c)) if dim}
        for d0 in _f2_matrices(b, a):
            for d1 in _f2_matrices(c, b):
                # d² = 0: each composite column vanishes over F_2
                ok = True
                for j in range(a):
                    acc = {}
                    for r, v in d0[j].items():
                        for r2, v2 in d1[r].items():
                            acc[r2] = acc.get(r2, 0) ^ 1
                    if any(acc.values()):
                        ok = False
                        break
                if not ok:
                    continue
                sp = GradedSpace(f, win, dict(labels),
                                 bounds=(0, 2))
                cols = {}
                for j in range(a):
                    col = {f"g1_{r}": f.one for r in d0[j]}
                    if col:
                        cols[f"g0_{j}"] = col
                for j in range(b):
                    col = {f"g2_{r}": f.one for r in d1[j]}
                    if col:
                        cols[f"g1_{j}"] = col
                yield Complex(sp, GradedMap(sp, sp, 1, cols))


def _retract_certificate(cx, base):
    """Constructive level-1 witness: the complex retracts onto the
    coproduct of its homology classes (base = K)."""
    f = cx.field
    reps = {}
    for n in cx.space.degrees():
        h = homology(cx, n)
        if h.dimension:
            reps[n] = h.representatives
    shifts = [-n for n in sorted(reps) for _ in reps[n]]
    std = canonical_coproduct(base, shifts, cx.space.window)
    leaf = Leaf(std, shifts, {l: (l, f.one) for l in std.space})
    # std basis labels per degree, in shift order
    std_labels = {}
    i = 0
    for n in sorted(reps):
        for _ in reps[n]:
            std_labels.setdefault(n, []).append(f"s{i}:1")
            i += 1
    # retraction ⊕K → cx : each copy to its representative cycle
    r_cols = {}
    for n, labels in std_labels.items():
        for lab, rep in zip(labels, reps[n]):
            r_cols[lab] = dict(rep)
    retraction = GradedMap(std.space, cx.space, 0, r_cols)
    # section cx → ⊕K : kill boundaries, send representatives to their
    # copies, solved per degree
    s_cols = {}
    for n in cx.space.degrees():
        basis = list(cx.space.labels(n))
        index = {l: i for i, l in enumerate(basis)}
        spanning = []
        for m in cx.space.labels(n - 1):
            col = cx.d(m)
            v = {index[l]: c for l, c in col.items()}
            if v:
                spanning.append(("b", v))
        for rep, lab in zip(reps.get(n, []), std_labels.get(n, [])):
            spanning.append((lab, {index[l]: c for l, c in rep.items()}))
        # keep an independent subset, then complete with unit vectors
        chosen = []
        for tag, v in spanning:
            rows = [dict(c) for _, c in chosen] + [dict(v)]
            if rank(f, rows, len(basis)) > len(chosen):
                chosen.append((tag, v))
        for i in range(len(basis)):
            rows = [dict(c) for _, c in chosen] + [{i: f.one}]
            if rank(f, rows, len(basis)) > len(chosen):
                chosen.append(("c", {i: f.one}))
        # the graph echelon's row at top + i is x ⊕ e_i, where
        # Σ x_pos·chosen[pos] = e_i: the solution for the unit vector
        top = len(chosen)
        graph = graph_span(f, [c for _, c in chosen], len(basis))
        for l in basis:
            if top + index[l] not in graph:
                return None
            sol = {pos: c for pos, c in graph[top + index[l]].items()
                   if pos < top}
            col = {}
            for pos, c in sol.items():
                tag = chosen[pos][0]
                if tag not in ("b", "c") and not f.is_zero(c):
                    col[tag] = c
            if col:
                s_cols[l] = col
    section = GradedMap(cx.space, std.space, 0, s_cols)
    tree = RetractNode(cx, leaf, section, retraction)
    return LevelCertificate(base, cx, tree)


def test_criterion_9_micro_world():
    t0 = time.monotonic()
    f = FieldSpec.prime(2)
    win = DegreeWindow(-8, 8)
    base_sp = GradedSpace(f, win, {0: ["1"]}, bounds=(0, 0))
    base = Complex(base_sp, GradedMap.zero(base_sp, base_sp, 1))
    a = trivial_algebra(f, win)
    ok = True
    count = 0
    for cx in _micro_complexes(f):
        count += 1
        hdims = {n: homology(cx, n).dimension for n in (0, 1, 2)}
        truth = 0 if not any(hdims.values()) else 1
        # certificate via the engine's resolution machinery over K
        action = {(l, "1"): {l: f.one}
                  for n in cx.space.degrees() for l in cx.space.labels(n)}
        mod = DGModule.from_table(cx, a, action, side="right")
        r = semifree_resolve(mod, depth=6)
        cert = cert_from_resolution(r)
        ok = ok and cert_validate(cert).ok
        ok = ok and cert.claimed_level >= truth
        # constructive retract witness matching the enumerated truth
        if truth == 1:
            rc = _retract_certificate(cx, base)
            ok = ok and rc is not None and cert_validate(rc).ok
            ok = ok and rc.claimed_level == 1
        if not ok:
            break
    elapsed = time.monotonic() - t0
    verdict(9, ok and count > 100 and elapsed <= 600.0)


def test_criterion_10_determinism(tmp_path):
    pres = {
        "schema_version": 1,
        "field": "F5",
        "window": [-16, 16],
        "algebras": {
            "S": {"kind": "polynomial", "generators": [["y", 2]]},
            "E": {"kind": "exterior", "generators": [["x", -3]]},
        },
        "coalgebras": {"Sd": {"kind": "dual", "of": "S"}},
        "modules": {"K": {"kind": "trivial", "over": "S"}},
    }
    p = tmp_path / "fix.json"
    p.write_text(json.dumps(pres))
    commands = [
        ["validate", "-p", str(p)],
        ["homology", "-p", str(p), "--object", "S"],
        ["bar", "-p", str(p), "--algebra", "S"],
        ["cobar", "-p", str(p), "--coalgebra", "Sd"],
        ["minimize", "-p", str(p), "--module", "K", "--over", "S"],
        ["level-bound", "-p", str(p), "--module", "K", "--over", "S"],
        ["ext", "-p", str(p), "--algebra", "E"],
        ["koszul-check", "--degrees", "2", "--window=-12:12"],
        ["duality-check", "--degrees", "2", "--module", "trivial"],
    ]
    runs = []
    for run in range(2):
        blob = b""
        for i, argv in enumerate(commands):
            out = tmp_path / f"r{run}_{i}.json"
            code = cli_main(argv + ["--json", str(out)])
            assert code == 0
            blob += out.read_bytes()
        runs.append(blob)
    verdict(10, runs[0] == runs[1])
