"""Per-layer spans around the engine's public functions, installed from
outside the engine.

``install`` replaces each target function with a timing wrapper on every
``dgkoszul`` module attribute bound to it, so that ``from ... import rref``
call sites are traced as well as ``exactlinalg.rref`` itself.  Spans stay
in memory as ``(name, start, end, parent, op)`` tuples and are written out
by the caller when the run ends.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# CLI subcommands run by at least one workload, by handler name
CLI_COMMANDS = {
    "cmd_validate": "validate", "cmd_homology": "homology",
    "cmd_bar": "bar", "cmd_cobar": "cobar", "cmd_minimize": "minimize",
    "cmd_level_bound": "level-bound", "cmd_ext": "ext",
    "cmd_koszul_check": "koszul-check", "cmd_duality_check": "duality-check",
}

VALIDATORS = ("validate_algebra", "validate_module", "validate_coalgebra",
              "validate_comodule", "validate_twisting_cochain")

PRESETS = ("trivial_algebra", "polynomial_algebra",
           "truncated_polynomial_algebra", "exterior_algebra",
           "exterior_coalgebra", "free_module", "trivial_module",
           "truncated_module", "module_shift", "module_direct_sum",
           "trivial_comodule", "comodule_over_self", "graded_dual_algebra",
           "graded_dual_coalgebra", "comodule_to_module_F", "tD")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0                      # index of the running CLI command
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.missing: list = []          # targets absent from the engine
        self.hook_errors = 0
        self._stack: list = []           # [span index, child time] per open span
        self._active = Counter()         # open spans per name
        self._seen: dict = {}            # id(complex) -> (complex, {n: dim H})

    def wrap(self, name: str, fn, pre=None, post=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                self._hook(pre, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, self.op)
                self.self_s[name] += dur - frame[1]
                self.incl_s[name] += dur
                self.calls[name] += 1
            if post is not None:
                self._hook(post, args, kwargs, result)
            return result

        return traced

    def _hook(self, hook, *a):
        # a hook reads engine objects; a later engine that renames an
        # attribute loses that counter, not the run
        try:
            hook(*a)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.hook_errors += 1

    # -- counters ----------------------------------------------------------

    def _rref_pre(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        cells = m.rows * m.cols
        c = self.counts
        c["rref.cells"] += cells
        c["rref.nnz"] += len(m.entries)
        c["rref.max_cells"] = max(c["rref.max_cells"], cells)
        limit = getattr(sys.modules["dgkoszul.exactlinalg"],
                        "DENSE_CELL_LIMIT", None)
        if (limit is not None and m.field.kind == "prime" and m.rows
                and m.cols and cells <= limit):
            c["rref.dense_calls"] += 1
        if self._active["gradedcomplex.homology"]:
            c["homology.rref_calls"] += 1

    def _solve_pre(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        self.counts["solve.cells"] += m.rows * m.cols

    def _homology_pre(self, args, kwargs):
        cx, n = args[0], args[1]
        dims = self._seen.setdefault(id(cx), (cx, {}))[1]
        if n in dims:
            self.counts["homology.repeat_calls"] += 1
        else:
            dims[n] = None
            self.counts["homology.dim_c"] += cx.dim(n)

    def _homology_post(self, args, kwargs, result):
        dims = self._seen[id(args[0])][1]
        if dims[args[1]] is None:
            dims[args[1]] = result.dimension
            self.counts["homology.dim_h"] += result.dimension

    def _validate_pre(self, args, kwargs):
        obj = args[0]
        if hasattr(obj, "carrier"):
            self.counts["validate.labels"] += obj.carrier.space.total_dim()

    def _construction_post(self, args, kwargs, result):
        self.counts["barcobar.basis_dim"] += result.carrier.space.total_dim()

    def _minimize_pre(self, args, kwargs):
        self.counts["minimize.gens_in"] += len(args[0].generators)

    def _minimize_post(self, args, kwargs, result):
        self.counts["minimize.gens_out"] += len(result.generators)

    # -- installation ------------------------------------------------------

    def targets(self):
        """(module, function, span name, pre hook, post hook) to wrap."""
        t = [("cli", "parse_presentation", "cli.parse", None, None),
             ("cli", "emit", "cli.emit", None, None)]
        t += [("cli", fn, f"cli.{cmd}", None, None)
              for fn, cmd in CLI_COMMANDS.items()]
        t += [("dgstruct", fn, "dgstruct.validate", self._validate_pre, None)
              for fn in VALIDATORS]
        t += [("dgstruct", fn, "dgstruct.presets", None, None)
              for fn in PRESETS]
        t += [("barcobar", "bar", "barcobar.bar", None,
               self._construction_post),
              ("barcobar", "cobar", "barcobar.cobar", None,
               self._construction_post),
              ("barcobar", "twisted_tensor_left", "barcobar.twisted_tensor",
               None, None),
              ("barcobar", "twisted_tensor_right", "barcobar.twisted_tensor",
               None, None),
              ("gradedcomplex", "homology", "gradedcomplex.homology",
               self._homology_pre, self._homology_post),
              ("gradedcomplex", "check_d_squared",
               "gradedcomplex.check_d_squared", None, None),
              ("exactlinalg", "rref", "exactlinalg.rref", self._rref_pre,
               None),
              ("exactlinalg", "solve", "exactlinalg.solve", self._solve_pre,
               None),
              ("resolve", "semifree_resolve", "resolve.semifree_resolve",
               None, None),
              ("resolve", "minimize", "resolve.minimize",
               self._minimize_pre, self._minimize_post),
              ("resolve", "is_free_over_homology",
               "resolve.is_free_over_homology", None, None),
              ("level", "cert_from_resolution", "level.cert_from_resolution",
               None, None),
              ("level", "cert_validate", "level.cert_validate", None, None),
              ("koszul", "level_duality_check", "koszul.level_duality_check",
               None, None),
              ("koszul", "koszul_pair_check", "koszul.koszul_pair_check",
               None, None),
              ("koszul", "ext_algebra", "koszul.ext_algebra", None, None)]
        return t

    def install(self) -> None:
        """Wrap every target on every ``dgkoszul`` module that binds it."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "dgkoszul" or name.startswith("dgkoszul.")]
        for modname, fn_name, span, pre, post in self.targets():
            orig = getattr(sys.modules.get(f"dgkoszul.{modname}"), fn_name,
                           None)
            if orig is None:
                self.missing.append(f"{modname}.{fn_name}")
                continue
            wrapper = self.wrap(span, orig, pre, post)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the traced commands, unit-less values."""
        s, inc, calls, c = self.self_s, self.incl_s, self.calls, self.counts
        hcalls = calls["gradedcomplex.homology"]
        gens_in = c["minimize.gens_in"]
        out = {"cli.parse.self_s": s["cli.parse"],
               "cli.emit.self_s": s["cli.emit"]}
        for cmd in CLI_COMMANDS.values():
            out[f"cli.{cmd}.wall_s"] = inc[f"cli.{cmd}"]
        out.update({
            "dgstruct.validate.calls": calls["dgstruct.validate"],
            "dgstruct.validate.self_s": s["dgstruct.validate"],
            "dgstruct.validate.labels": int(c["validate.labels"]),
            "dgstruct.presets.self_s": s["dgstruct.presets"],
            "barcobar.bar.self_s": s["barcobar.bar"],
            "barcobar.cobar.self_s": s["barcobar.cobar"],
            "barcobar.twisted_tensor.self_s": s["barcobar.twisted_tensor"],
            "barcobar.basis_dim": int(c["barcobar.basis_dim"]),
            "gradedcomplex.homology.calls": hcalls,
            "gradedcomplex.homology.repeat_calls":
                int(c["homology.repeat_calls"]),
            "gradedcomplex.homology.self_s": s["gradedcomplex.homology"],
            "gradedcomplex.homology.incl_s": inc["gradedcomplex.homology"],
            "gradedcomplex.homology.rref_per_call":
                c["homology.rref_calls"] / hcalls if hcalls else 0.0,
            "gradedcomplex.homology.dim_ratio":
                c["homology.dim_h"] / c["homology.dim_c"]
                if c["homology.dim_c"] else 0.0,
            "gradedcomplex.check_d_squared.self_s":
                s["gradedcomplex.check_d_squared"],
            "exactlinalg.rref.calls": calls["exactlinalg.rref"],
            "exactlinalg.rref.self_s": s["exactlinalg.rref"],
            "exactlinalg.rref.cells": int(c["rref.cells"]),
            "exactlinalg.rref.nnz": int(c["rref.nnz"]),
            "exactlinalg.rref.max_cells": int(c["rref.max_cells"]),
            "exactlinalg.rref.dense_calls": int(c["rref.dense_calls"]),
            "exactlinalg.solve.calls": calls["exactlinalg.solve"],
            "exactlinalg.solve.self_s": s["exactlinalg.solve"],
            "exactlinalg.solve.cells": int(c["solve.cells"]),
            "resolve.semifree_resolve.calls":
                calls["resolve.semifree_resolve"],
            "resolve.semifree_resolve.self_s":
                s["resolve.semifree_resolve"],
            "resolve.minimize.self_s": s["resolve.minimize"],
            "resolve.kept_ratio":
                c["minimize.gens_out"] / gens_in if gens_in else 0.0,
            "resolve.is_free_over_homology.self_s":
                s["resolve.is_free_over_homology"],
            "level.cert_from_resolution.self_s":
                s["level.cert_from_resolution"],
            "level.cert_validate.calls": calls["level.cert_validate"],
            "level.cert_validate.self_s": s["level.cert_validate"],
            "koszul.level_duality_check.self_s":
                s["koszul.level_duality_check"],
            "koszul.koszul_pair_check.self_s": s["koszul.koszul_pair_check"],
            "koszul.ext_algebra.self_s": s["koszul.ext_algebra"],
        })
        return out

    def span_records(self) -> list:
        return [{"name": n, "start": a, "end": b, "parent": p, "op": op}
                for n, a, b, p, op in self.spans]
