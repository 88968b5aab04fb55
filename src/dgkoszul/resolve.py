"""Minimal semifree resolutions of DG modules, the derived fiber,
filtration class, and freeness of homology over the homology algebra.

The resolution is built greedily degree by degree from the bounded end:
first free generators hitting unhit homology classes of the module, then
generators killing kernel classes of the comparison map.  Built so, it is
minimal: no generator's differential has a unit arrow.
"""

from __future__ import annotations

from collections import Counter

from dgkoszul.exactlinalg import (graph_kernel, graph_span, span_echelon,
                                  vec_iadd)
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    NEG_INF,
    POS_INF,
    StructureError,
    check_d_squared,
    homology,
    homology_by_degree,
    homology_class,
    induced_map_on_homology,
    is_chain_map,
    is_quasi_iso,
    preimage,
)
from dgkoszul.dgstruct import DGAlgebra, DGModule
from dgkoszul.barcobar import tensor_label

ROUNDS_PER_DEGREE = 50  # loop cap; hitting it: exit 5


class SemifreeResolution:
    def __init__(self, over: DGAlgebra, module: DGModule, generators: list,
                 differential: dict, comparison: dict, direction: int,
                 depth: int, _realized: tuple | None):
        # generators: (label, degree, stage); differential: label -> list
        # of (generator label, algebra label, coefficient); comparison:
        # label -> combination in the module; direction: +1 built upward,
        # -1 downward
        self.over, self.module, self.generators = over, module, generators
        self.differential, self.comparison = differential, comparison
        self.direction, self.depth = direction, depth
        self._realized = _realized
        # class_of's verdict depends on depth: not a parameter, so that
        # replace recomputes it
        self._class = None

    def is_minimal(self) -> bool:
        unit = self.over.unit
        return all(al != unit
                   for terms in self.differential.values()
                   for _, al, _ in terms)

    def realize(self):
        """The underlying K-complex of F and the comparison chain map."""
        if self._realized is None:
            self._realized = _realize(self.module, [_generator_part(
                self.module, gl, gd, self.differential.get(gl, []),
                self.comparison.get(gl, {})) for gl, gd, _ in self.generators])
        return self._realized


def _generator_part(m: DGModule, gl, gd, terms, w) -> tuple:
    """The summand g⊗A of F for a generator gl of degree gd, d(gl) = terms
    and ε(gl) = w, on m's window: its basis by degree, its d-columns and
    its ε-columns.  d(g⊗a) lies one degree up, so no label at the window's
    top has a d-column.  A part never changes once its generator is added."""
    a = m.over
    f = a.field
    win = m.space.window
    sgn = f.from_int(-1 if gd % 2 else 1)
    basis, cols, eps_cols = {}, {}, {}
    for n in a.space.degrees():
        if gd + n not in win:
            continue
        for al in a.space.labels(n):
            label = tensor_label(gl, al)
            basis.setdefault(gd + n, []).append(label)
            col: dict = {}
            if gd + n + 1 in win:
                for g2, b, c in terms:
                    for t, v in a.mult_pair(b, al).items():
                        vec_iadd(f, col, c, {tensor_label(g2, t): v})
                for t, v in a.carrier.d(al).items():
                    vec_iadd(f, col, sgn, {tensor_label(gl, t): v})
            if col:
                cols[label] = col
            if img := {t: v for t, v in m.act(w, {al: f.one}).items()
                       if t in m.space}:
                eps_cols[label] = img
    return basis, cols, eps_cols


def _realize(m: DGModule, parts) -> tuple:
    """The K-complex F = ⊕ g⊗A of a resolution of m over ``m.over``, from
    its generators' parts in order, and the comparison map ε : F → M."""
    basis, cols, eps_cols = {}, {}, {}
    for b, c, e in parts:
        for n, labels in b.items():
            basis.setdefault(n, []).extend(labels)
        cols.update(c)
        eps_cols.update(e)
    sp = GradedSpace(m.over.field, m.space.window, basis)
    return Complex(sp, GradedMap(sp, sp, 1, cols)), GradedMap(
        sp, m.space, 0, eps_cols)


def semifree_resolve(m: DGModule,
                     depth: int | None = None) -> SemifreeResolution:
    """Greedy semifree resolution of a right module over its algebra
    ``m.over``, built from the bounded end through ``depth``, which may
    not lie past the last degree whose homology the window computes.

    The result is minimal: no d(g) has a unit arrow.  With A⁰ = K, a unit
    term g⊗1 in a killer's d = z needs a generator g in the degree of the
    cycle z.  In the building direction such a g hit a class and has
    d g = 0, so g⊗1 is a zero (free) column at which every other class
    representative is 0, and the kernel of H(ε) has coordinate 0 on the
    classes new generators hit, since their images extend the image to a
    basis.  In the non-positive direction g may also be a killer of the
    round before, one degree below the cycle it kills; a cycle containing
    its g⊗1 would make a combination of the classes killed there,
    independent until then, a boundary."""
    if m.side != "right":
        raise StructureError("resolve right modules only")
    a = m.over
    f = a.field
    direction = 1 if a.polarity == "non-negative" else -1
    blo, bhi = m.space.bounds
    if direction > 0:
        if blo == float("-inf"):
            raise StructureError("module not bounded below over a "
                                 "non-negative algebra")
        start = int(blo)
        depth = depth if depth is not None else m.space.window.hi - 2
    else:
        if bhi == float("inf"):
            raise StructureError("module not bounded above over a "
                                 "non-positive algebra")
        start = int(bhi)
        depth = depth if depth is not None else m.space.window.lo + 2
    if (depth - start) * direction < 0:
        raise StructureError(f"depth {depth} lies before the module's "
                             f"bounded end {start}")
    # homology at n reads degrees n ± 1, so F has none at a window end
    win = m.space.window
    last = win.hi - 1 if direction > 0 else win.lo + 1
    if (depth - last) * direction > 0:
        raise StructureError(f"depth {depth} lies past {last}, the last "
                             f"degree whose homology the window "
                             f"{win.lo}:{win.hi} computes")
    generators: list = []     # (label, degree, stage)
    stage: dict = {}
    differential: dict = {}
    comparison: dict = {}
    parts: list = []          # each generator's part of F, computed once

    def add(degree, terms, w):
        gl = f"e{len(generators)}"
        stage[gl] = max((stage[g] + 1 for g, _, _ in terms), default=0)
        generators.append((gl, degree, stage[gl]))
        differential[gl] = terms
        comparison[gl] = w
        parts.append(_generator_part(m, gl, degree, terms, w))

    # F, reassembled from the parts, and its homology cache are kept until
    # a generator is added; the last F is the resolution's
    realized = None
    for n in range(start, depth + direction, direction):
        for _round in range(ROUNDS_PER_DEGREE):
            if realized is None:
                realized = _realize(m, parts)
            cx, eps = realized
            hf = homology(cx, n)
            hm = homology(m.carrier, n)
            if not (hf.dimension or hm.dimension):
                break
            # H(ε)'s image and kernel, from one echelon of its graph
            top = hf.dimension
            g = graph_span(f, induced_map_on_homology(eps, cx, m.carrier, n),
                           hm.dimension)
            before = len(generators)
            # a generator for each class the image's echelon misses
            for i, rep in enumerate(hm.representatives):
                if top + i not in g:
                    add(n, [], dict(rep))
            if len(generators) == before:
                for kv in graph_kernel(g, top).values():
                    z: dict = {}
                    for i, c in kv.items():
                        vec_iadd(f, z, c, hf.representatives[i])
                    # w with d_M w = ε(z) is the new generator's comparison
                    w = preimage(m.carrier, n, eps.apply(z))
                    if w is None:
                        raise RuntimeError("internal: kernel class "
                                           "image not a boundary")
                    add(n - 1, [(*label.split("@", 1), c)
                                for label, c in z.items()], w)
            if len(generators) == before:
                break
            realized = None
        else:
            if a.space.dim(direction):
                raise StructureError(f"resolution generators pile up in one "
                                     f"degree, unstable at degree {n}")
            raise RuntimeError(f"resolution did not stabilize at degree {n}")
    return SemifreeResolution(a, m, generators, differential, comparison,
                              direction, depth, realized)


def minimize(r: SemifreeResolution) -> SemifreeResolution:
    """``r`` itself, once checked: a resolution whose differential has a
    unit arrow (an invertible scalar term) is refused, and d² and the
    comparison ε are verified on its F.  ``semifree_resolve`` builds no
    unit arrow; its docstring says why."""
    if not r.is_minimal():
        raise RuntimeError("internal: resolution has a unit arrow")
    cx, eps = r.realize()
    bad = check_d_squared(cx)
    if not bad:
        raise RuntimeError(f"internal: d^2 broke during minimization "
                           f"at {bad.label!r}")
    ok, witness = is_chain_map(eps, cx, r.module.carrier)
    if not ok:
        raise RuntimeError(f"internal: comparison broke during "
                           f"minimization at {witness[:2]}")
    return r


class DerivedFiber:
    def __init__(self, dimensions: dict, exhausted: bool):
        self.dimensions, self.exhausted = dimensions, exhausted


def class_of(r: SemifreeResolution):
    """(stage count, exhausted flag) of a minimal resolution.  Exhausted
    means that no generator lies within two degrees of the depth cut, and
    that past the cut ε : F → M is a quasi-isomorphism wherever both
    homologies are computable in the window: a generator the cut left out
    shows there as a class that ε misses or kills.  Computed once per
    resolution."""
    if r._class is not None:
        return r._class
    if not r.is_minimal():
        raise StructureError("class_of needs a minimal resolution")
    stages = {s for _, _, s in r.generators}
    win = r.module.space.window
    if r.direction > 0:
        band, past = (r.depth - 2, r.depth), (r.depth + 1, win.hi)
    else:
        band, past = (r.depth, r.depth + 2), (win.lo, r.depth - 1)
    exhausted = not any(band[0] <= d <= band[1] for _, d, _ in r.generators)
    if exhausted and past[0] <= past[1]:
        cx, eps = r.realize()
        verdicts = is_quasi_iso(eps, cx, r.module.carrier, DegreeWindow(*past))
        exhausted = False not in verdicts.values()
    r._class = (len(stages), exhausted)
    return r._class


def level_lower_bound(cls: int, free: bool | None) -> int:
    """Level lower bound from the class of a minimal resolution and the
    freeness of homology: 0 for the zero module, 2 only when H(M) is
    decided not free (``free is False``, never an undecided None), else 1."""
    return 0 if cls == 0 else 2 if free is False else 1


def derived_fiber(r: SemifreeResolution) -> DerivedFiber:
    """F ⊗_A K for a minimal resolution F: zero differential, dimensions =
    minimal generator counts per degree."""
    dims = Counter(d for _, d, _ in r.generators)
    return DerivedFiber(dict(sorted(dims.items())), class_of(r)[1])


def lemma1_report(m: DGModule):
    """dim H(M⊗^L K), class, and the consistency verdict dim >= class."""
    r = minimize(semifree_resolve(m))
    cls, exhausted = class_of(r)
    dim = len(r.generators)
    if exhausted and dim < cls:
        raise RuntimeError(
            f"internal: derived-fiber dimension {dim} below class {cls}")
    return {"fiber_dim": dim, "class": cls, "exhausted": exhausted,
            "ok": dim >= cls}


def is_free_over_homology(m: DGModule) -> dict:
    """Whether H(M) is free over H(A), A = ``m.over``, by graded Nakayama
    (Avramov, *Infinite free resolutions*, 1998, §1), for H(A) connected
    with its augmentation ideal in the sign σ of A's polarity.

    The walk goes through the degrees t from M's bound in the direction σ.
    V_t = dim H(M)_t − rank D_t counts minimal generators, where D_t is
    spanned by the classes of rep(m)·rep(a), m in H(M)_s, a in H(A)_{t−s},
    s before t; V ⊗ H(A) → H(M) is onto, with a kernel of dimension
    Σ_s V_s·dim H(A)_{t−s} − rank D_t at t.  A degree is decided only if
    every H(M)_s from the bound to t and every H(A)_{t−s} it needs are
    computable; ``undecided`` is the rest of the walk.  ``free`` is False
    on a decided nonzero kernel, True if the whole walk is decided, else
    None.  The first nonzero ``kernel`` entry is the first Tor_1."""
    a, mc = m.over, m.carrier
    sigma = 1 if a.polarity == "non-negative" else -1
    near, far = (0, 1) if sigma > 0 else (1, 0)
    edges, bound = (mc.window.lo, mc.window.hi), mc.space.bounds[near]
    if bound in (NEG_INF, POS_INF):  # H(M) is not computable at the edge
        bound = edges[near]
    walk = range(bound, edges[far] + sigma, sigma)
    ha, hm = homology_by_degree(a.carrier), homology_by_degree(mc)
    if (0 not in ha or ha[0].dimension != 1
            or any(n * sigma < 0 for n, h in ha.items() if h.dimension)):
        return {"free": None, "kernel": {}, "undecided": list(walk)}

    def dim(cx, h, n):   # dim H^n, or None where it cannot be computed
        return h[n].dimension if n in h else \
            0 if cx.space.homology_computable(n) else None

    kernel, gens = {}, {}     # gens: s -> V_s where H(M)_s != 0
    for t in walk:
        d, need = dim(mc, hm, t), {s: dim(a.carrier, ha, t - s) for s in gens}
        if d is None or None in need.values():
            break
        dec = [homology_class(mc, t, m.act(x, y))
               for s, n in need.items() if n and d
               for x in hm[s].representatives
               for y in ha[t - s].representatives]
        if None in dec:
            raise StructureError("image of a cycle is not a cycle")
        rank = len(span_echelon(a.field, dec, d))
        kernel[t] = sum(gens[s] * n for s, n in need.items()) - rank
        if d:
            gens[t] = d - rank
    free = (False if any(kernel.values())
            else len(kernel) == len(walk) or None)
    return {"free": free, "kernel": kernel,
            "undecided": list(walk[len(kernel):])}
