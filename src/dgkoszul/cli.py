"""Command-line interface: presentation-file parsing, command dispatch,
deterministic report emission.

Exit codes: 0 success, 1 verdict failure, 2 parse error, 3 validation
error, 4 dangling reference, 5 internal error (a bug or a loop cap of the
engine; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from dgkoszul import __version__
from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    Complex,
    DegreeWindow,
    GradedMap,
    GradedSpace,
    StructureError,
    WindowError,
    check_d_squared,
    homology,
)
from dgkoszul import dgstruct, gradedcomplex
from dgkoszul.dgstruct import (
    DGAlgebra,
    validate_algebra,
    validate_coalgebra,
    validate_comodule,
    validate_module,
)
from dgkoszul.barcobar import bar, cobar
from dgkoszul.resolve import (
    class_of,
    derived_fiber,
    semifree_resolve,
)
from dgkoszul.level import cert_to_dict, level_interval
from dgkoszul import koszul

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DANGLING = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, code: int, message: str, pointer: str = ""):
        super().__init__(message)
        self.code = code
        self.pointer = pointer


# -------------------------------------------------------------------------
# scalars and fields
# -------------------------------------------------------------------------

def parse_field(spec: str) -> FieldSpec:
    if spec == "Q":
        return FieldSpec.rationals()
    if spec.startswith("F"):
        try:
            return FieldSpec.prime(int(spec[1:]))
        except ValueError as e:
            raise CliError(EXIT_PARSE, f"bad field spec {spec!r}: {e}")
    raise CliError(EXIT_PARSE, f"bad field spec {spec!r}")


def field_name(f: FieldSpec) -> str:
    return "Q" if f.kind == "rationals" else f"F{f.p}"


def parse_scalar(f: FieldSpec, v, pointer: str):
    """A JSON integer (never a boolean), or over Q an "a/b" string; an
    integral rational is returned as an int."""
    if f.kind == "prime":
        if type(v) is int:
            return v % f.p
        raise CliError(EXIT_PARSE,
                       f"scalar over F_{f.p} must be an integer, got {v!r}",
                       pointer)
    if type(v) is int:
        return v
    if isinstance(v, str):
        try:
            fr = Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise CliError(EXIT_PARSE, f"bad rational {v!r}: {e}", pointer)
        return fr.numerator if fr.denominator == 1 else fr
    raise CliError(EXIT_PARSE, f"bad rational scalar {v!r}", pointer)


def format_scalar(f: FieldSpec, v):
    if f.kind == "prime":
        return int(v)
    fr = Fraction(v)
    return str(fr.numerator) if fr.denominator == 1 else str(fr)


def format_combo(f: FieldSpec, combo: dict) -> dict:
    return {l: format_scalar(f, c) for l, c in sorted(combo.items())}


def parse_window(spec: str) -> DegreeWindow:
    try:
        lo, hi = spec.split(":")
        return DegreeWindow(int(lo), int(hi))
    except ValueError as e:
        raise CliError(EXIT_PARSE, f"bad window {spec!r}: {e}")


# -------------------------------------------------------------------------
# presentation files
# -------------------------------------------------------------------------

class Store:
    def __init__(self, field: FieldSpec, window: DegreeWindow):
        self.field = field
        self.window = window
        self.algebras: dict = {}
        self.coalgebras: dict = {}
        self.modules: dict = {}
        self.comodules: dict = {}

    def get(self, section: str, name: str, pointer: str = ""):
        """The object ``name`` of a section such as "algebras"; a missing
        one is a dangling reference at ``pointer`` or else its own."""
        objs = getattr(self, section)
        if name not in objs:
            raise CliError(EXIT_DANGLING, f"unknown {section[:-1]} {name!r}",
                           pointer or f"/{section}/{name}")
        return objs[name]

    def add(self, section: str, name: str, obj, validation, pointer: str):
        """Store an object given its validation report; a failed one is a
        validation error at ``pointer``."""
        if not validation.ok:
            raise CliError(EXIT_VALIDATION,
                           f"{section[:-1]} {name!r} invalid: "
                           f"{'; '.join(validation.violations[:3])}", pointer)
        getattr(self, section)[name] = obj

    def carrier_of(self, name: str) -> Complex:
        for kind in ("algebras", "coalgebras", "modules", "comodules"):
            objs = getattr(self, kind)
            if name in objs:
                return objs[name].carrier
        raise CliError(EXIT_DANGLING, f"unknown object {name!r}", f"/{name}")


_JSON_TYPES = {"object": dict, "array": list, "string": str,
               "integer": int, "boolean": bool}


def _typed(value, kind: str, pointer: str):
    """``value`` after checking that it has the JSON type ``kind``, as
    schema/presentation.schema.json requires."""
    if not isinstance(value, _JSON_TYPES[kind]) or (
            kind == "integer" and isinstance(value, bool)):
        raise CliError(EXIT_PARSE, f"expected a JSON {kind}", pointer)
    return value


def _require(d: dict, key: str, pointer: str, kind: str | None = None):
    if key not in d:
        raise CliError(EXIT_PARSE, f"missing key {key!r}", pointer)
    if kind is None:
        return d[key]
    return _typed(d[key], kind, f"{pointer}/{key}")


def _optional(d: dict, key: str, pointer: str, kind: str, default):
    return _require(d, key, pointer, kind) if key in d else default


def _specs(doc: dict, section: str):
    """(name, spec, pointer) for each entry of a top-level section, in name
    order; the section and every spec in it must be JSON objects."""
    specs = doc.get(section, {})
    if not isinstance(specs, dict):
        raise CliError(EXIT_PARSE, f"{section} must be a JSON object",
                       f"/{section}")
    for name, spec in sorted(specs.items()):
        ptr = f"/{section}/{name}"
        if not isinstance(spec, dict):
            raise CliError(EXIT_PARSE,
                           f"{section[:-1]} spec must be a JSON object", ptr)
        yield name, spec, ptr


def _generators(spec: dict, pointer: str) -> list:
    """The [name, degree] pairs of a preset spec."""
    gens = []
    for i, g in enumerate(_require(spec, "generators", pointer, "array")):
        ptr = f"{pointer}/generators/{i}"
        if not isinstance(g, list) or len(g) != 2:
            raise CliError(EXIT_PARSE, "generator must be [name, degree]",
                           ptr)
        gens.append((_typed(g[0], "string", f"{ptr}/0"),
                     _typed(g[1], "integer", f"{ptr}/1")))
    return gens


def _parse_combo(f, combo, labels: set, pointer: str) -> dict:
    """A combination {label: scalar} over known labels."""
    out = {}
    for t, v in _typed(combo, "object", pointer).items():
        if t not in labels:
            raise CliError(EXIT_DANGLING, f"unknown label {t!r}", pointer)
        out[t] = parse_scalar(f, v, pointer)
    return out


def _parse_table_algebra(f, w, spec: dict, pointer: str) -> DGAlgebra:
    basis = {}
    for ds, labels in _require(spec, "basis", pointer, "object").items():
        ptr = f"{pointer}/basis/{ds}"
        try:
            n = int(ds)
        except ValueError:
            raise CliError(EXIT_PARSE, f"basis degree must be an integer, "
                           f"got {ds!r}", ptr)
        basis[n] = tuple(_typed(l, "string", f"{ptr}/{i}")
                         for i, l in enumerate(_typed(labels, "array", ptr)))
    all_labels = {l for ls in basis.values() for l in ls}
    sp = GradedSpace(f, w, basis,
                     bounds=(min(basis), max(basis)) if basis else (1, 0))
    dcols = {}
    for l, combo in _optional(spec, "differential", pointer, "object",
                              {}).items():
        ptr = f"{pointer}/differential/{l}"
        if l not in all_labels:
            raise CliError(EXIT_DANGLING, f"unknown label {l!r}", ptr)
        col = _parse_combo(f, combo, all_labels, ptr)
        if col:
            dcols[l] = col
    cx = Complex(sp, GradedMap(sp, sp, 1, dcols))
    mult = {}
    for key, combo in _require(spec, "mult", pointer, "object").items():
        ptr = f"{pointer}/mult/{key}"
        try:
            a, b = key.split("|")
        except ValueError:
            raise CliError(EXIT_PARSE, f"mult key must be 'a|b', got "
                           f"{key!r}", ptr)
        for l in (a, b):
            if l not in all_labels:
                raise CliError(EXIT_DANGLING, f"unknown label {l!r}", ptr)
        mult[(a, b)] = _parse_combo(f, combo, all_labels, ptr)
    polarity = _require(spec, "polarity", pointer, "string")
    if polarity not in dgstruct.POLARITIES:
        raise CliError(EXIT_PARSE, f"bad polarity {polarity!r}",
                       f"{pointer}/polarity")
    return DGAlgebra.from_table(
        cx, _require(spec, "unit", pointer, "string"), mult, polarity,
        simply_connected=_optional(spec, "simply_connected", pointer,
                                   "boolean", False),
        name=_optional(spec, "name", pointer, "string", ""))


def parse_presentation(path: str) -> Store:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(EXIT_PARSE, f"invalid JSON in {path}: {e}")
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, "presentation must be a JSON object")
    f = parse_field(_optional(doc, "field", "", "string", "Q"))
    win = _optional(doc, "window", "", "array", [-16, 16])
    if len(win) != 2:
        raise CliError(EXIT_PARSE, "window must be [lo, hi]", "/window")
    w = DegreeWindow(*(_typed(x, "integer", f"/window/{i}")
                       for i, x in enumerate(win)))
    store = Store(f, w)
    table: dict = {}  # products for every validation below, each pair once

    for name, spec, ptr in _specs(doc, "algebras"):
        kind = spec.get("kind", "table")
        if kind == "trivial":
            a = dgstruct.trivial_algebra(f, w)
        elif kind == "polynomial":
            a = dgstruct.polynomial_algebra(f, w, _generators(spec, ptr))
        elif kind == "exterior":
            a = dgstruct.exterior_algebra(f, w, _generators(spec, ptr))
        elif kind == "truncated_polynomial":
            a = dgstruct.truncated_polynomial_algebra(
                f, w, _require(spec, "name", ptr, "string"),
                _require(spec, "degree", ptr, "integer"),
                _require(spec, "power", ptr, "integer"))
        elif kind == "table":
            a = _parse_table_algebra(f, w, spec, ptr)
        else:
            raise CliError(EXIT_PARSE, f"unknown algebra kind {kind!r}", ptr)
        store.add("algebras", name, a, validate_algebra(a, table), ptr)

    for name, spec, ptr in _specs(doc, "coalgebras"):
        kind = spec.get("kind", "exterior")
        if kind == "exterior":
            c = dgstruct.exterior_coalgebra(f, w, _generators(spec, ptr))
        elif kind == "dual":
            c = dgstruct.graded_dual_algebra(store.get(
                "algebras", _require(spec, "of", ptr, "string")))
        else:
            raise CliError(EXIT_PARSE, f"unknown coalgebra kind {kind!r}",
                           ptr)
        store.add("coalgebras", name, c, validate_coalgebra(c), ptr)

    for name, spec, ptr in _specs(doc, "modules"):
        kind = _require(spec, "kind", ptr)
        if kind == "trivial":
            m = dgstruct.trivial_module(store.get(
                "algebras", _require(spec, "over", ptr, "string")))
        elif kind == "free":
            m = dgstruct.free_module(store.get(
                "algebras", _require(spec, "over", ptr, "string")))
        elif kind == "truncated":
            m = dgstruct.truncated_module(
                store.get("algebras", _require(spec, "over", ptr, "string")),
                _require(spec, "name", ptr, "string"),
                _require(spec, "degree", ptr, "integer"),
                _require(spec, "power", ptr, "integer"))
        elif kind == "shift":
            m = dgstruct.module_shift(
                store.get("modules", _require(spec, "of", ptr, "string")),
                _require(spec, "k", ptr, "integer"))
        elif kind == "direct_sum":
            parts = [store.get("modules",
                               _typed(nm, "string", f"{ptr}/of/{i}"))
                     for i, nm in enumerate(
                         _require(spec, "of", ptr, "array"))]
            m = dgstruct.module_direct_sum(parts)
        else:
            raise CliError(EXIT_PARSE, f"unknown module kind {kind!r}", ptr)
        store.add("modules", name, m, validate_module(m, table), ptr)

    for name, spec, ptr in _specs(doc, "comodules"):
        kind = _require(spec, "kind", ptr)
        c = store.get("coalgebras", _require(spec, "over", ptr, "string"),
                      ptr)
        if kind == "trivial":
            n = dgstruct.trivial_comodule(c)
        elif kind == "over_self":
            n = dgstruct.comodule_over_self(c)
        else:
            raise CliError(EXIT_PARSE, f"unknown comodule kind {kind!r}",
                           ptr)
        store.add("comodules", name, n, validate_comodule(n), ptr)
    return store


# -------------------------------------------------------------------------
# reports
# -------------------------------------------------------------------------

def base_report(command: str, f: FieldSpec, w: DegreeWindow) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "engine_version": __version__,
            "command": command,
            "field": field_name(f),
            "window": [w.lo, w.hi]}


def emit(report: dict, args) -> None:
    lines = [f"# {report['command']}  field={report['field']}  "
             f"window={report['window'][0]}:{report['window'][1]}"]
    for key in sorted(report):
        if key in ("schema_version", "engine_version", "command", "field",
                   "window"):
            continue
        lines.append(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    sys.stdout.write("\n".join(lines) + "\n")
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":"),
                                ensure_ascii=False) + "\n")


def homology_dims(cx: Complex) -> dict:
    return {str(n): d for n, d in gradedcomplex.homology_dims(cx).items()}


def space_dims(cx: Complex) -> dict:
    return {str(n): cx.space.dim(n) for n in cx.space.degrees()
            if cx.space.dim(n)}


# -------------------------------------------------------------------------
# commands
# -------------------------------------------------------------------------

def cmd_validate(args) -> int:
    store = parse_presentation(args.presentation)
    report = base_report("validate", store.field, store.window)
    report["objects"] = {
        "algebras": sorted(store.algebras),
        "coalgebras": sorted(store.coalgebras),
        "modules": sorted(store.modules),
        "comodules": sorted(store.comodules)}
    report["ok"] = True
    emit(report, args)
    return EXIT_OK


def cmd_homology(args) -> int:
    store = parse_presentation(args.presentation)
    cx = store.carrier_of(args.object)
    report = base_report("homology", store.field, store.window)
    report["object"] = args.object
    if args.degree is not None:
        h = homology(cx, args.degree)
        report["degree"] = args.degree
        report["dimension"] = h.dimension
        report["representatives"] = [format_combo(store.field, r)
                                     for r in h.representatives]
    else:
        report["dims"] = homology_dims(cx)
    emit(report, args)
    return EXIT_OK


def _construction(args, section: str, name: str, construct) -> int:
    """Report on ``construct`` (bar or cobar) of the object ``name`` of
    ``section``: dimensions, homology and the d² verdict."""
    store = parse_presentation(args.presentation)
    cx = construct(store.get(section, name), store.window).carrier
    report = base_report(args.command, store.field, store.window)
    report[section[:-1]] = name
    report["dims"] = space_dims(cx)
    dsq = check_d_squared(cx)
    report["homology_dims"] = homology_dims(cx) if dsq else None
    report["d_squared_ok"] = bool(dsq)
    emit(report, args)
    return EXIT_OK if dsq else EXIT_VERDICT


def cmd_bar(args) -> int:
    return _construction(args, "algebras", args.algebra, bar)


def cmd_cobar(args) -> int:
    return _construction(args, "coalgebras", args.coalgebra, cobar)


def _resolution(args):
    """The semifree resolution of the module named by ``--module`` over its
    own algebra, which ``--over`` must name, and a report naming both."""
    store = parse_presentation(args.presentation)
    m = store.get("modules", args.module)
    if store.get("algebras", args.over) is not m.over:
        raise CliError(EXIT_VALIDATION, f"module {args.module!r} is not a "
                       f"module over --over {args.over!r}",
                       f"/modules/{args.module}")
    report = base_report(args.command, store.field, store.window)
    report["module"] = args.module
    report["over"] = args.over
    return semifree_resolve(m, args.depth), report


def cmd_minimize(args) -> int:
    """``resolve`` and ``minimize``: the generators, class and exhaustion
    of the resolution, which refused a unit arrow and checked d² on F and
    the comparison ε when it was built."""
    r, report = _resolution(args)
    report["generators"] = [[gl, d, s] for gl, d, s in
                            sorted(r.generators, key=lambda g: (g[1], g[0]))]
    report["minimal"] = True
    report["class"], report["exhausted"] = class_of(r)
    emit(report, args)
    return EXIT_OK


def cmd_level_bound(args) -> int:
    r, report = _resolution(args)
    fib = derived_fiber(r)
    side = level_interval(r)
    report["fiber_dims"] = {str(n): d for n, d in fib.items()}
    report["fiber_dim_total"] = sum(fib.values())
    report["exhausted"] = side.exhausted
    report["class"] = side.cls
    report["lower_bound"] = side.lower
    report["upper_bound"] = side.upper
    report["certificate"] = None
    if side.exhausted:
        report["certificate"] = cert_to_dict(side.certificate)
        report["certificate_valid"] = side.valid
    emit(report, args)
    return EXIT_VERDICT if side.valid is False else EXIT_OK


def _koszul_pair(args):
    """Field, window and Koszul pair of the command's flags."""
    f = parse_field(args.field)
    w = parse_window(args.window)
    try:
        degrees = [int(x) for x in args.degrees.split(",")]
    except ValueError as e:
        raise CliError(EXIT_PARSE, f"bad degree list {args.degrees!r}: {e}")
    return f, w, koszul.make_koszul_pair(f, w, degrees)


def cmd_koszul_pair(args) -> int:
    f, w, pair = _koszul_pair(args)
    report = base_report("koszul-pair", f, w)
    report["generator_degrees"] = pair.generator_degrees
    report["algebra"] = pair.algebra.name
    report["coalgebra"] = pair.coalgebra.name
    report["algebra_dims"] = space_dims(pair.algebra.carrier)
    report["coalgebra_dims"] = space_dims(pair.coalgebra.carrier)
    report["ok"] = True
    emit(report, args)
    return EXIT_OK


def cmd_koszul_check(args) -> int:
    f, w, pair = _koszul_pair(args)
    chk = koszul.koszul_pair_check(pair)
    report = base_report("koszul-check", f, w)
    report["generator_degrees"] = pair.generator_degrees
    report["tau_ok"] = chk["tau_ok"]
    report["two_sided_ok"] = chk["two_sided"]["ok"]
    report["two_sided_by_degree"] = {
        str(n): (v if isinstance(v, bool) else str(v))
        for n, v in chk["two_sided"]["by_degree"].items()}
    report["ok"] = chk["ok"]
    emit(report, args)
    return EXIT_OK if chk["ok"] else EXIT_VERDICT


def cmd_ext(args) -> int:
    store = parse_presentation(args.presentation)
    table = koszul.ext_algebra(store.get("algebras", args.algebra))
    report = base_report("ext", store.field, store.window)
    report["algebra"] = args.algebra
    report["dims"] = {str(n): d for n, d in sorted(table["dims"].items())}
    report["products"] = {
        f"({n1},{i1})*({n2},{i2})": {f"({n},{j})":
                                     format_scalar(store.field, c)
                                     for (n, j), c in sorted(val.items())}
        for ((n1, i1), (n2, i2)), val in sorted(table["products"].items())
        if val}
    emit(report, args)
    return EXIT_OK


def cmd_duality_check(args) -> int:
    f, w, pair = _koszul_pair(args)
    sv = pair.algebra
    if args.module == "free":
        m = dgstruct.free_module(sv)
    elif args.module == "trivial":
        m = dgstruct.trivial_module(sv)
    elif args.module.startswith("truncated:"):
        try:
            if (power := int(args.module.split(":", 1)[1])) < 1:
                raise ValueError
        except ValueError:
            raise CliError(EXIT_PARSE,
                           f"bad module spec {args.module!r}: power must "
                           "be a positive integer")
        m = dgstruct.truncated_module(sv, "y1",
                                      pair.generator_degrees[0], power)
    else:
        raise CliError(EXIT_PARSE, f"unknown module spec {args.module!r}")
    rep = koszul.level_duality_check(pair, m, args.depth)
    report = base_report("duality-check", f, w)
    report["module"] = args.module
    report["side_a"] = {k: rep["side_a"][k]
                        for k in sorted(rep["side_a"])}
    report["side_b"] = {
        "lower": rep["side_b"]["lower"],
        "upper": rep["side_b"]["upper"],
        "loewy_homology": rep["side_b"]["loewy_homology"],
        "loewy_chain": rep["side_b"]["loewy_chain"],
        "homology_dims": {str(n): d for n, d in
                          sorted(rep["side_b"]["homology_dims"].items())}}
    report["intervals_intersect"] = rep["intervals_intersect"]
    report["value"] = rep["value"]
    if "eta_trivial_qiso" in rep:
        report["eta_trivial_qiso"] = rep["eta_trivial_qiso"]
    emit(report, args)
    return EXIT_OK if rep["intervals_intersect"] else EXIT_VERDICT


# -------------------------------------------------------------------------
# dispatch
# -------------------------------------------------------------------------

def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``: with the subparser of the command that
    argv[0] names, or of every command when it names none (help, no
    command, an unknown one).  Its usage lists every command either way.
    The table is read at each call, so a handler wrapped after import (as
    perfbench's tracer does) is the one dispatched."""
    module = (("--module", {"required": True}),
              ("--over", {"required": True, "help": "the module's algebra"}),
              ("--depth", {"type": int}))
    # name: (help, handler, reads a presentation file (else --field and
    # --window), its own options in order)
    commands = {
        "validate": ("validate a presentation file", cmd_validate, True, ()),
        "homology": ("homology of a named object", cmd_homology, True,
                     (("--object", {"required": True}),
                      ("--degree", {"type": int}))),
        "bar": ("bar construction of a named algebra", cmd_bar, True,
                (("--algebra", {"required": True}),)),
        "cobar": ("cobar construction of a named coalgebra", cmd_cobar,
                  True, (("--coalgebra", {"required": True}),)),
        "resolve": ("resolve a module", cmd_minimize, True, module),
        "minimize": ("minimize a module", cmd_minimize, True, module),
        "level-bound": ("certified level bounds for a module",
                        cmd_level_bound, True, module),
        "koszul-pair": ("build and validate a pair", cmd_koszul_pair, False,
                        (("--degrees", {"required": True,
                                        "help": "comma-separated"}),)),
        "koszul-check": ("τ residual and two-sided quasi-iso",
                         cmd_koszul_check, False,
                         (("--degrees", {"required": True}),)),
        "ext": ("Ext algebra H((BA)^∨)", cmd_ext, True,
                (("--algebra", {"required": True}),)),
        "duality-check": (
            "level duality intervals for a Koszul pair", cmd_duality_check,
            False,
            (("--degrees", {"required": True}),
             ("--module", {"default": "trivial",
                           "help": "free | trivial | truncated:<power>, "
                           "which is K[y1]/(y1^power) with |y1| the first "
                           "of --degrees; every other degree must be a "
                           "multiple of it"}),
             ("--depth", {"type": int}))),
    }
    p = argparse.ArgumentParser(
        prog="dgkoszul",
        description="Exact DG (co)algebra computations on degree windows")
    names = [argv[0]] if argv[:1] and argv[0] in commands else commands
    sub = p.add_subparsers(dest="command", required=True, metavar=(
        None if names is commands else "{" + ",".join(commands) + "}"))
    for name in names:
        hlp, fn, from_file, options = commands[name]
        sp = sub.add_parser(name, help=hlp)
        if from_file:
            sp.add_argument("-p", "--presentation", required=True,
                            help="presentation JSON file")
        else:
            sp.add_argument("--field", default="F5", help="F<p> or Q")
            sp.add_argument("--window", default="-16:16", help="LO:HI")
        sp.add_argument("--json", help="write machine report to this path")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        where = f" at {e.pointer}" if e.pointer else ""
        sys.stderr.write(f"error: {e}{where}\n")
        return e.code
    except (StructureError, WindowError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_VALIDATION
    except Exception:
        # not bad input but the engine's own fault: keep the traceback.  Only
        # this path needs the module; every command process would pay for
        # importing it at start-up.
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
