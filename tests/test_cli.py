"""Command-line interface: exit codes, report content, determinism."""

import contextlib
import hashlib
import io
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgkoszul import cli, gradedcomplex, resolve
from dgkoszul.barcobar import WordComplex
from dgkoszul.cli import EXIT_INTERNAL, EXIT_VALIDATION, EXIT_VERDICT, main
from dgkoszul.exactlinalg import FieldSpec
from dgkoszul.gradedcomplex import (
    Complex, DegreeWindow, GradedMap, GradedSpace, StructureError,
    check_d_squared)

PRESENTATION = {
    "schema_version": 1,
    "field": "F5",
    "window": [-16, 16],
    "algebras": {
        "S": {"kind": "polynomial", "generators": [["y", 2]]},
        "E": {"kind": "exterior", "generators": [["x", -3]]},
        "T": {"kind": "truncated_polynomial", "name": "y",
              "degree": 2, "power": 3},
    },
    "coalgebras": {
        "C": {"kind": "exterior", "generators": [["sy", 1]]},
        "Sd": {"kind": "dual", "of": "S"},
    },
    "modules": {
        "K": {"kind": "trivial", "over": "S"},
        "F": {"kind": "free", "over": "S"},
        "M2": {"kind": "truncated", "over": "S", "name": "y",
               "degree": 2, "power": 2},
    },
    "comodules": {
        "Kc": {"kind": "trivial", "over": "C"},
    },
}


@pytest.fixture()
def pres(tmp_path):
    p = tmp_path / "fix.json"
    p.write_text(json.dumps(PRESENTATION))
    return str(p)


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--json", str(out)])
    return code, json.loads(out.read_text())


def test_validate_ok(tmp_path, pres, capsys):
    code, rep = run_json(tmp_path, ["validate", "-p", pres])
    assert code == 0
    assert rep["ok"]


def test_homology_of_algebra(tmp_path, pres):
    code, rep = run_json(
        tmp_path, ["homology", "-p", pres, "--object", "S"])
    assert code == 0
    dims = {int(k): v for k, v in rep["dims"].items()}
    assert dims[0] == 1 and dims[14] == 1  # powers of y survive: zero d


def test_bar_report(tmp_path, pres):
    code, rep = run_json(tmp_path, ["bar", "-p", pres, "--algebra", "S"])
    assert code == 0
    assert rep["d_squared_ok"]
    dims = {int(k): v for k, v in rep["homology_dims"].items()}
    assert {n: v for n, v in dims.items() if v} == {0: 1, 1: 1}


def test_cobar_report(tmp_path, pres):
    code, rep = run_json(
        tmp_path, ["cobar", "-p", pres, "--coalgebra", "Sd"])
    assert code == 0
    dims = {int(k): v for k, v in rep["homology_dims"].items()}
    assert {n: v for n, v in dims.items() if v} == {0: 1, -1: 1}


def test_construction_reports_no_homology_without_d_squared(
        tmp_path, pres, monkeypatch):
    # homology dimensions presume d² = 0; a complex without it (only an
    # engine fault can build one) gets null, not numbers
    f = FieldSpec.prime(5)
    sp = GradedSpace(f, DegreeWindow(-16, 16), {0: ["a"], 1: ["b"], 2: ["c"]})
    broken = Complex(sp, GradedMap(sp, sp, 1, {"a": {"b": 1}, "b": {"c": 1}}))
    monkeypatch.setattr(cli, "bar",
                        lambda a, window: SimpleNamespace(carrier=broken))
    code, rep = run_json(tmp_path, ["bar", "-p", pres, "--algebra", "S"])
    assert code == EXIT_VERDICT
    assert rep["dims"] == {"0": 1, "1": 1, "2": 1}
    assert rep["homology_dims"] is None and rep["d_squared_ok"] is False


@pytest.mark.parametrize("argv", [["bar", "--algebra", "S"],
                                  ["cobar", "--coalgebra", "Sd"]],
                         ids=["bar", "cobar"])
def test_a_wrong_sign_in_a_construction_gives_no_homology_dims(
        tmp_path, pres, monkeypatch, argv):
    # one sign flipped in the stored columns of the bar of S or the cobar
    # of Sd, at an entry whose target has a nonzero column: the d² check
    # fails, so homology_dims (which would refuse the complex) is not
    # read, and the report and exit code are those of any d² failure
    construct = getattr(cli, argv[0])
    built = {}

    def planted(x, window):
        cx = built["cx"] = construct(x, window).carrier
        cols = {n: [dict(col) for col in cx.columns(n)]
                for n in cx.space.degrees()}
        n, j, t = next((n, j, t) for n in sorted(cols)
                       for j, col in enumerate(cols[n]) for t in col
                       if cx.columns(n + 1)[t])
        cols[n][j][t] = cx.field.neg(cols[n][j][t])
        built["bad"] = WordComplex(cx.space, cols, cx.pol, cx.mag, cx.start)
        return SimpleNamespace(carrier=built["bad"])

    monkeypatch.setattr(cli, argv[0], planted)
    code, rep = run_json(tmp_path, [argv[0], "-p", pres] + argv[1:])
    assert code == EXIT_VERDICT
    assert rep["dims"] == cli.space_dims(built["cx"])
    assert rep["homology_dims"] is None and rep["d_squared_ok"] is False
    r = check_d_squared(built["bad"])
    with pytest.raises(StructureError, match=re.escape(
            f"d^2 != 0 at degree {r.degree}, label {r.label!r}")):
        gradedcomplex.homology_dims(built["bad"])


def test_generators_piling_up_is_exit_validation(tmp_path, capsys):
    doc = {"schema_version": 1, "field": "F5", "window": [-8, 8],
           "algebras": {"E": {"kind": "exterior", "generators": [["x", 1]]}},
           "modules": {"K": {"kind": "trivial", "over": "E"}}}
    p = tmp_path / "ext.json"
    p.write_text(json.dumps(doc))
    argv = ["resolve", "-p", str(p), "--module", "K", "--over", "E"]
    assert main(argv) == EXIT_VALIDATION
    assert "generators pile up in one degree" in capsys.readouterr().err


def test_resolve_and_minimize(tmp_path, pres):
    code, rep = run_json(
        tmp_path,
        ["minimize", "-p", pres, "--module", "K", "--over", "S"])
    assert code == 0
    assert rep["generators"] == [["e0", 0, 0], ["e1", 1, 1]]
    assert rep["minimal"]

    code2, rep2 = run_json(
        tmp_path,
        ["resolve", "-p", pres, "--module", "M2", "--over", "S"])
    assert code2 == 0
    assert rep2["class"] == 2


def test_resolve_and_minimize_give_one_report(tmp_path, pres, monkeypatch,
                                              capsys):
    # one handler: resolve runs minimize's checks, and the reports differ
    # only in their command
    for module in ("K", "F", "M2"):
        reps = [run_json(tmp_path, [command, "-p", pres, "--module", module,
                                    "--over", "S"])
                for command in ("resolve", "minimize")]
        assert reps[0][0] == reps[1][0] == 0
        assert reps[0][1]["command"] == "resolve"
        assert {**reps[0][1], "command": "minimize"} == reps[1][1]
    monkeypatch.setattr(resolve, "is_chain_map",
                        lambda *args: (False, ("e0", 0)))
    for command in ("resolve", "minimize"):
        assert main([command, "-p", pres, "--module", "K",
                     "--over", "S"]) == EXIT_INTERNAL
        assert ("RuntimeError: internal: comparison broke during "
                "minimization") in capsys.readouterr().err


def test_level_bound_report(tmp_path, pres):
    code, rep = run_json(
        tmp_path,
        ["level-bound", "-p", pres, "--module", "K", "--over", "S"])
    assert code == 0
    assert rep["class"] == 2
    assert rep["lower_bound"] == 2 and rep["upper_bound"] == 2
    assert rep["certificate_valid"]
    assert rep["certificate"]["tree"]["kind"] == "cone"


def test_truncated_power_zero_in_a_presentation_is_refused(tmp_path,
                                                           capsys):
    # power 0 would be the zero module, with nothing to name the input in
    # the error that follows; it is refused when built (exit 3)
    doc = json.loads(json.dumps(PRESENTATION))
    doc["modules"]["Z"] = {"kind": "truncated", "over": "S", "name": "y",
                           "degree": 2, "power": 0}
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc))
    assert main(["level-bound", "-p", str(p), "--module", "Z",
                 "--over", "S"]) == 3
    assert capsys.readouterr().err == (
        "error: module power 0 must be at least 1\n")


@pytest.fixture()
def pres6(tmp_path):
    doc = dict(PRESENTATION, window=[-6, 6])
    p = tmp_path / "fix6.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_depth_before_the_bounded_end_is_refused(capsys, pres6):
    # K over K[y] starts at degree 0; a depth of -1 resolves nothing, and
    # the empty resolution must not certify level 0
    for argv in (["level-bound", "-p", pres6, "--module", "K", "--over", "S"],
                 ["duality-check", "--degrees", "2", "--window=-6:6",
                  "--module", "trivial"]):
        assert main(argv + ["--depth", "-1"]) == EXIT_VALIDATION
        assert "depth -1 lies before the module's bounded end 0" in \
            capsys.readouterr().err


@pytest.mark.parametrize("argv, depths, last", [
    (["level-bound", "--module", "K", "--over", "S"], (6, 9), 5),
    (["level-bound", "--module", "KE", "--over", "E"], (-6, -9), -5),
    (["duality-check", "--degrees", "2", "--window=-6:6", "--module",
      "trivial"], (6, 9), 5)], ids=["non-negative", "non-positive", "duality"])
def test_depth_past_the_window_is_refused(tmp_path, capsys, argv, depths,
                                          last):
    # homology at the window's end degree reads a degree outside it, so a
    # depth there is refused by name before any resolving; the algebras
    # of a Koszul pair are non-negative
    if argv[0] == "level-bound":
        doc = dict(PRESENTATION, window=[-6, 6], modules={
            **PRESENTATION["modules"], "KE": {"kind": "trivial",
                                              "over": "E"}})
        p = tmp_path / "fix6.json"
        p.write_text(json.dumps(doc))
        argv = argv + ["-p", str(p)]
    for depth in depths:
        assert main(argv + ["--depth", str(depth)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: depth {depth} lies past {last}, the last degree whose "
            "homology the window -6:6 computes\n")
    assert run_json(tmp_path, argv + ["--depth", str(last)])[0] == 0


def test_depth_at_the_bounded_end(tmp_path, pres6):
    code, rep = run_json(
        tmp_path, ["level-bound", "-p", pres6, "--module", "K",
                   "--over", "S", "--depth", "0"])
    assert code == 0
    assert rep["class"] == 1 and not rep["exhausted"]
    assert rep["upper_bound"] is None and "certificate_valid" not in rep


def depth_cut_presentation(tmp_path, algebra, window):
    doc = {"schema_version": 1, "field": "F5", "window": window,
           "algebras": {"A": algebra},
           "modules": {"K": {"kind": "trivial", "over": "A"}}}
    p = tmp_path / "cut.json"
    p.write_text(json.dumps(doc))
    return str(p)


POLY_Y4 = ({"kind": "polynomial", "generators": [["y", 4]]}, [-12, 12])
TRUNC_Y2_4 = ({"kind": "truncated_polynomial", "name": "y", "degree": 2,
               "power": 4}, [-16, 16])


@pytest.mark.parametrize("case, depth, cls", [
    # K over K[y], |y| = 4: e1 in degree 3 is found only at degree 4
    (POLY_Y4, 3, 1),
    # K over K[y]/(y^4), |y| = 2: generators in 6, 7, 12, 13 follow the cut
    (TRUNC_Y2_4, 5, 2), (TRUNC_Y2_4, 6, 2)])
def test_depth_cut_before_a_generator_is_not_exhausted(tmp_path, case,
                                                       depth, cls):
    p = depth_cut_presentation(tmp_path, *case)
    code, rep = run_json(tmp_path, ["level-bound", "-p", p, "--module", "K",
                                    "--over", "A", "--depth", str(depth)])
    assert code == 0
    assert not rep["exhausted"] and rep["class"] == cls
    assert rep["upper_bound"] is None and "certificate_valid" not in rep


def test_depth_cut_past_the_last_generator_certifies(tmp_path):
    p = depth_cut_presentation(tmp_path, *POLY_Y4)
    code, rep = run_json(tmp_path, ["level-bound", "-p", p, "--module", "K",
                                    "--over", "A", "--depth", "8"])
    assert code == 0
    assert rep["exhausted"] and rep["class"] == 2
    assert rep["lower_bound"] == rep["upper_bound"] == 2
    assert rep["certificate_valid"]


def test_duality_check_depth_cut_is_not_exhausted(tmp_path):
    code, rep = run_json(
        tmp_path, ["duality-check", "--degrees", "4", "--window=-12:12",
                   "--module", "trivial", "--depth", "3"])
    assert code == 0
    assert rep["side_a"] == {"class": 1, "exhausted": False, "lower": 2,
                             "upper": None}
    assert rep["intervals_intersect"] and rep["value"] == 2


@pytest.mark.parametrize("command", ["resolve", "minimize", "level-bound"])
@pytest.mark.parametrize("over", ["S3", "T"])
def test_over_must_name_the_module_algebra(tmp_path, capsys, command, over):
    # F is free over S; resolving it over another algebra is refused
    doc = json.loads(json.dumps(PRESENTATION))
    doc["algebras"]["S3"] = {"kind": "polynomial", "generators": [
        ["y1", 2], ["y2", 2], ["y3", 2]]}
    p = tmp_path / "over.json"
    p.write_text(json.dumps(doc))
    assert main([command, "-p", str(p), "--module", "F",
                 "--over", over]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'F'" in err and f"'{over}'" in err


def test_koszul_pair_and_check(tmp_path):
    code, rep = run_json(tmp_path, ["koszul-pair", "--degrees", "2"])
    assert code == 0 and rep["ok"]
    code2, rep2 = run_json(
        tmp_path, ["koszul-check", "--degrees", "2",
                   "--window=-12:12"])
    assert code2 == 0 and rep2["ok"]


def test_ext_command(tmp_path, pres):
    code, rep = run_json(tmp_path, ["ext", "-p", pres, "--algebra", "S"])
    assert code == 0
    dims = {int(k): v for k, v in rep["dims"].items()}
    assert dims == {-1: 1, 0: 1}


def test_duality_check_command(tmp_path):
    code, rep = run_json(
        tmp_path, ["duality-check", "--degrees", "2",
                   "--module", "trivial"])
    assert code == 0
    assert rep["value"] == 2


def test_exit_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", "-p", str(p)]) == 2


def test_exit_validation_error(tmp_path):
    bad = json.loads(json.dumps(PRESENTATION))
    # an "exterior" generator of even degree is structurally invalid
    bad["algebras"]["E"]["generators"] = [["x", -2]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == 3


@pytest.mark.parametrize("section,name,spec,message", [
    ("algebras", "S", {"kind": "polynomial",
                       "generators": [["y", 2], ["y", 4]]},
     "duplicate generator names"),
    ("algebras", "S", {"kind": "polynomial", "generators": [["y", 3]]},
     "even positive"),
    ("algebras", "T", {"kind": "truncated_polynomial", "name": "y",
                       "degree": 2, "power": 1}, "power must be >= 2"),
    ("algebras", "E", {"kind": "exterior", "generators": [["x", -31]]},
     "window too small"),
    ("modules", "D", {"kind": "direct_sum", "of": []}, "empty direct sum"),
    ("modules", "M2", {"kind": "truncated", "over": "S", "name": "y",
                       "degree": 0, "power": 2}, "degree must be positive"),
    ("window", None, [5, -5], "window lo > hi"),
])
def test_exit_validation_bad_preset(tmp_path, capsys, section, name, spec,
                                    message):
    bad = json.loads(json.dumps(PRESENTATION))
    if name is None:
        bad[section] = spec
    else:
        bad[section][name] = spec
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("exc", [KeyError("x"), ValueError("x"),
                                 ZeroDivisionError("x")])
def test_exit_internal_error(monkeypatch, capsys, pres, exc):
    # an exception that is not one of the engine's validation errors is a
    # bug, not bad input: its own exit code and the traceback on stderr
    def broken(path):
        raise exc

    monkeypatch.setattr(cli, "parse_presentation", broken)
    assert main(["validate", "-p", pres]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and type(exc).__name__ in err


@pytest.mark.parametrize("name,value,message", [
    ("ROUNDS_PER_DEGREE", 0, "resolution did not stabilize"),
    ("is_chain_map", lambda *args: (False, ("e0", 0)),
     "internal: comparison broke during minimization"),
], ids=["round-cap", "internal-check"])
def test_engine_fault_is_exit_internal(monkeypatch, capsys, pres, name,
                                       value, message):
    # a loop cap reached or an internal check failed is the engine's own
    # fault, not a structural error of the input (exit 3)
    monkeypatch.setattr(resolve, name, value)
    argv = ["level-bound", "-p", pres, "--module", "K", "--over", "S"]
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and f"RuntimeError: {message}" in err


def test_exit_dangling_reference(tmp_path):
    bad = json.loads(json.dumps(PRESENTATION))
    bad["modules"]["K"]["over"] = "missing"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == 4


@pytest.mark.parametrize("section,name", [
    ("algebras", "S"), ("coalgebras", "C"), ("modules", "K"),
    ("comodules", "Kc"), ("algebras", None)])
def test_exit_parse_error_spec_not_object(tmp_path, capsys, section, name):
    bad = json.loads(json.dumps(PRESENTATION))
    if name is None:
        bad[section] = ["polynomial"]
        pointer = f"/{section}"
    else:
        bad[section][name] = ["polynomial"]
        pointer = f"/{section}/{name}"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == 2
    assert capsys.readouterr().err.endswith(f"at {pointer}\n")


TABLE_ALGEBRA = {"kind": "table", "basis": {"0": ["1"]},
                 "unit": "1", "polarity": "non-negative",
                 "mult": {"1|1": {"1": 1}}}


@pytest.mark.parametrize("section,name,patch,pointer", [
    pytest.param("algebras", "A", dict(TABLE_ALGEBRA, basis=[["1"]]),
                 "/algebras/A/basis", id="basis-list"),
    pytest.param("algebras", "S", {"kind": "polynomial", "generators": 5},
                 "/algebras/S/generators", id="generators-int"),
    pytest.param("algebras", "S",
                 {"kind": "polynomial", "generators": [["y"]]},
                 "/algebras/S/generators/0", id="generator-no-degree"),
    pytest.param("modules", "M2",
                 {"kind": "truncated", "over": "S", "name": "y",
                  "degree": "2", "power": 2},
                 "/modules/M2/degree", id="degree-string"),
    pytest.param("algebras", "A",
                 dict(TABLE_ALGEBRA, mult={"1|1": [["1", 1]]}),
                 "/algebras/A/mult/1|1", id="mult-value-list"),
    pytest.param("algebras", "A", dict(TABLE_ALGEBRA, polarity="sideways"),
                 "/algebras/A/polarity", id="polarity-not-enum"),
])
def test_exit_parse_error_malformed_nested_field(tmp_path, capsys, section,
                                                 name, patch, pointer):
    bad = json.loads(json.dumps(PRESENTATION))
    bad[section][name] = patch
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"at {pointer}\n")


@pytest.mark.parametrize("key,value,pointer", [
    pytest.param("field", 5, "/field", id="field-int"),
    pytest.param("window", [True, 4], "/window/0", id="window-bool"),
    pytest.param("window", "-16:16", "/window", id="window-string"),
    pytest.param("window", [0, 1, 2], "/window", id="window-three"),
])
def test_exit_parse_error_malformed_top_level_field(tmp_path, capsys, key,
                                                    value, pointer):
    bad = dict(PRESENTATION, **{key: value})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"at {pointer}\n")


@pytest.mark.parametrize("field", ["F5", "Q"])
@pytest.mark.parametrize("scalar", [True, False])
def test_exit_parse_error_boolean_scalar(tmp_path, capsys, field, scalar):
    # a scalar is a JSON integer or string; true and false are neither
    bad = json.loads(json.dumps(PRESENTATION))
    bad["field"] = field
    bad["algebras"]["A"] = dict(TABLE_ALGEBRA, mult={"1|1": {"1": scalar}})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "-p", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.endswith("at /algebras/A/mult/1|1\n")


def q_table(one, two, minus_one):
    """K ⊕ K{a, b} ⊕ K{c} over Q in degrees 0, 2, 3 with d a = 2c and
    d b = -c, and every product of positive degree zero; the scalars 1, 2
    and -1 are given as ``one``, ``two`` and ``minus_one``."""
    return {"schema_version": 1, "field": "Q", "window": [-8, 8],
            "algebras": {"A": {
                "kind": "table", "unit": "1", "polarity": "non-negative",
                "basis": {"0": ["1"], "2": ["a", "b"], "3": ["c"]},
                "differential": {"a": {"c": two}, "b": {"c": minus_one}},
                "mult": {f"{x}|{y}": {y: one} if x == "1" else
                         {x: one} if y == "1" else {}
                         for x in "1abc" for y in "1abc"}}}}


def presentation_with(section, name, spec, **top):
    """PRESENTATION with one object replaced or added, and top-level keys
    such as the field changed."""
    doc = json.loads(json.dumps(PRESENTATION))
    doc[section][name] = spec
    return dict(doc, **top)


MISSING = object()   # the file is not written


@pytest.mark.parametrize("argv, doc, code, text", [
    pytest.param(["koszul-pair", "--degrees", "2", "--field", "F4"], None, 2,
                 "not a prime: 4", id="field-F4"),
    pytest.param(["koszul-pair", "--degrees", "2", "--field", "Fx"], None, 2,
                 "bad field spec 'Fx'", id="field-Fx"),
    pytest.param(["koszul-pair", "--degrees", "2", "--field", "R"], None, 2,
                 "bad field spec 'R'", id="field-R"),
    pytest.param(["koszul-pair", "--degrees", "2", "--window", "3"], None, 2,
                 "bad window '3'", id="window-3"),
    pytest.param(["koszul-pair", "--degrees", "2", "--window", "a:b"], None,
                 2, "bad window 'a:b'", id="window-a:b"),
    pytest.param(["koszul-pair", "--degrees", "2", "--window=5:1"], None, 2,
                 "window lo > hi", id="window-5:1"),
    pytest.param(["validate"], MISSING, 2, "cannot read",
                 id="unreadable-file"),
    pytest.param(["validate"], [], 2, "must be a JSON object",
                 id="top-level-array"),
    pytest.param(["validate"], presentation_with(
        "algebras", "A", dict(TABLE_ALGEBRA, basis={"zero": ["1"]})), 2,
        "got 'zero'", id="basis-degree-zero"),
    pytest.param(["validate"], presentation_with(
        "algebras", "A", dict(TABLE_ALGEBRA, mult={"11": {"1": 1}})), 2,
        "got '11'", id="mult-key-11"),
    pytest.param(["validate"], presentation_with(
        "algebras", "A", dict(TABLE_ALGEBRA, mult={"1|1": {"1": "1/0"}}),
        field="Q"), 2, "bad rational '1/0'", id="rational-1/0"),
    pytest.param(["validate"], presentation_with(
        "coalgebras", "W", {"kind": "weird"}), 2,
        "unknown coalgebra kind 'weird'", id="coalgebra-kind"),
    pytest.param(["duality-check", "--degrees", "2", "--module", "weird"],
                 None, 2, "unknown module spec 'weird'",
                 id="duality-check-module"),
    pytest.param(["validate"], presentation_with(
        "algebras", "A", dict(TABLE_ALGEBRA, differential={"z": {}})), 4,
        "unknown label 'z' at /algebras/A/differential/z",
        id="differential-label"),
    pytest.param(["validate"], presentation_with(
        "algebras", "A", dict(TABLE_ALGEBRA, mult={"1|z": {"1": 1}})), 4,
        "unknown label 'z' at /algebras/A/mult/1|z", id="mult-label"),
    pytest.param(["homology", "--object", "Nope"], PRESENTATION, 4,
                 "unknown object 'Nope'", id="homology-object"),
    pytest.param(["validate"], presentation_with(
        "algebras", "K0", {"kind": "trivial"}), 0, "", id="trivial-algebra"),
    pytest.param(["duality-check", "--degrees", "2", "--module", "free"],
                 None, 0, "", id="duality-check-free"),
])
def test_cli_paths(tmp_path, capsys, argv, doc, code, text):
    # a refusal is one error line naming the fault, and its exit code,
    # never a traceback
    if doc is not None:
        p = tmp_path / "pres.json"
        if doc is not MISSING:
            p.write_text(json.dumps(doc))
        argv = argv + ["-p", str(p)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert text in err and "Traceback" not in err


def test_integral_q_scalars_in_any_spelling_give_the_same_report(tmp_path):
    # over Q an integral scalar is read as an int whether it is written as
    # a JSON integer, as "n" or as "a/b"; the reports cannot tell them apart
    spellings = [(1, 2, -1), ("1", "2", "-1"), ("3/3", "4/2", "-3/3")]
    reports = []
    for k, scalars in enumerate(spellings):
        p = tmp_path / f"q{k}.json"
        p.write_text(json.dumps(q_table(*scalars)))
        out = []
        for argv in (["validate"], ["bar", "--algebra", "A"],
                     ["homology", "--object", "A"],
                     ["homology", "--object", "A", "--degree", "2"]):
            rep = tmp_path / "out.json"
            assert main(argv + ["-p", str(p), "--json", str(rep)]) == 0
            out.append(rep.read_bytes())
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]
    # the cycle a + 2b, reduced at its last position: (1/2)a + b
    assert json.loads(reports[0][3])["representatives"] == [
        {"a": "1/2", "b": "1"}]


@pytest.mark.parametrize("basis", [
    pytest.param({"0": ["1"], "2": ["y"]}, id="y-y-in-window"),
    pytest.param({"0": ["1"], "10": ["y"]}, id="y-y-outside-window"),
])
def test_exit_validation_ungraded_product(tmp_path, capsys, basis):
    bad = json.loads(json.dumps(PRESENTATION))
    bad["algebras"]["A"] = dict(
        TABLE_ALGEBRA, basis=basis,
        mult={"1|1": {"1": 1}, "1|y": {"y": 1}, "y|1": {"y": 1},
              "y|y": {"1": 1}})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    for argv in (["validate"], ["bar", "--algebra", "A"]):
        assert main(argv + ["-p", str(p)]) == 3
        err = capsys.readouterr().err
        assert "product not of degree |x|+|y| at ('y', 'y')" in err
        assert err.endswith("at /algebras/A\n")


@pytest.mark.parametrize("degrees", [",", "2,,2", "2,", ",2", ""])
def test_exit_parse_error_empty_degree(capsys, degrees):
    # an empty entry is a malformed list, not a pair with fewer generators
    assert main(["duality-check", f"--degrees={degrees}",
                 "--module", "trivial"]) == 2
    assert "bad degree list" in capsys.readouterr().err


def test_exit_parse_error_bad_module_power(capsys):
    assert main(["duality-check", "--degrees", "2",
                 "--module", "truncated:x"]) == 2
    assert "truncated:x" in capsys.readouterr().err


@pytest.mark.parametrize("power", ["0", "-1"])
def test_exit_parse_error_module_power_below_one(capsys, power):
    # like truncated:x, the spec itself is refused, naming it
    assert main(["duality-check", "--degrees", "2",
                 "--module", f"truncated:{power}"]) == 2
    err = capsys.readouterr().err
    assert f"truncated:{power}" in err and "positive integer" in err


def test_truncated_power_one_is_k(tmp_path):
    """truncated:1 is K[y1]/(y1), that is K: both sides as for trivial."""
    reps = [run_json(tmp_path, ["duality-check", "--degrees", "2",
                                "--module", m, "--window=-8:8"])
            for m in ("truncated:1", "trivial")]
    assert reps[0][0] == reps[1][0] == 0
    for side in ("side_a", "side_b"):
        assert reps[0][1][side] == reps[1][1][side]


def test_truncated_module_on_a_degree_it_cannot_divide(tmp_path, capsys):
    """truncated:<power> is K[y1]/(y1^power) with |y1| the first degree;
    y2 of degree 2 cannot act on it when |y1| = 4, so the module is
    refused when it is built (exit 3), not deep inside the resolution."""
    assert main(["duality-check", "--degrees", "4,2", "--module",
                 "truncated:3", "--window=-12:12"]) == 3
    assert capsys.readouterr().err == (
        "error: algebra basis degree 2 is not a multiple of the module "
        "generator degree 4\n")
    code, rep = run_json(tmp_path, ["duality-check", "--degrees", "2,4",
                                    "--module", "truncated:3",
                                    "--window=-12:12"])
    assert code == 0 and rep["intervals_intersect"]


COMMANDS = ["validate", "homology", "bar", "cobar", "resolve", "minimize",
            "level-bound", "koszul-pair", "koszul-check", "ext",
            "duality-check"]


def parsed(parser, argv):
    """stdout, stderr and the exit code (None if it parsed) of parsing."""
    out, err, code = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as e:
            code = e.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("rest", [["--help"], [], ["-p", "f.json", "x"]],
                         ids=["help", "missing-required", "unrecognized"])
def test_one_subcommand_parser_prints_what_the_full_one_does(command, rest):
    """The parser built for a command has that command's subparser only;
    its help, its error for a missing required argument or an extra one,
    and its exit codes are the full parser's, byte for byte."""
    argv = [command] + rest
    one = cli.build_parser(argv)
    assert list(one._subparsers._group_actions[0].choices) == [command]
    got = parsed(one, argv)
    assert got == parsed(cli.build_parser(), argv)
    assert got[2] == (0 if rest == ["--help"] else 2)


@pytest.mark.parametrize("argv, code, text", [
    ([], 2, "error: the following arguments are required: command"),
    (["-h"], 0, "duality-check"),
    (["bogus"], 2, "invalid choice: 'bogus' (choose from 'validate'")],
    ids=["none", "help", "unknown"])
def test_no_command_builds_every_subparser(argv, code, text):
    """Without a command to name (none, help, an unknown one) the parser
    has every subparser and reports as it always did."""
    p = cli.build_parser(argv)
    assert list(p._subparsers._group_actions[0].choices) == COMMANDS
    out, err, got = parsed(p, argv)
    assert got == code and text in (out or err)
    assert (out, err, got) == parsed(cli.build_parser(), argv)
    assert all(c in (out or err) for c in COMMANDS)


def test_main_dispatches_the_handler_bound_at_call_time(monkeypatch):
    """A handler replaced after import (perfbench's tracer wraps them) is
    the one ``main`` runs."""
    calls = []
    monkeypatch.setattr(cli, "cmd_koszul_pair", lambda args: calls.append(
        args.degrees) or 0)
    assert main(["koszul-pair", "--degrees", "2"]) == 0
    assert calls == ["2"]


def test_json_reports_are_byte_identical(tmp_path, pres):
    outs = []
    for i in range(2):
        out = tmp_path / f"o{i}.json"
        code = main(["level-bound", "-p", pres, "--module", "K",
                     "--over", "S", "--json", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_human_output_lines(tmp_path, pres, capsys):
    assert main(["validate", "-p", pres]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == sorted(lines)


def test_class_of_runs_once_per_resolution(tmp_path, monkeypatch):
    # level-bound reads the class for the derived fiber, the interval and
    # the certificate, duality-check for the interval and the certificate;
    # an exhausted class runs is_quasi_iso past the depth cut each time
    # it is computed
    calls = []
    real = resolve.is_quasi_iso

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(resolve, "is_quasi_iso", counted)
    doc = {"schema_version": 1, "field": "F5", "window": [-8, 8],
           "algebras": {"S3": {"kind": "polynomial", "generators": [
               ["y1", 2], ["y2", 2], ["y3", 2]]}},
           "modules": {"K3": {"kind": "trivial", "over": "S3"}}}
    p = tmp_path / "k3.json"
    p.write_text(json.dumps(doc))
    for argv in (["level-bound", "-p", str(p), "--module", "K3",
                  "--over", "S3"],
                 ["duality-check", "--degrees", "2,2", "--window=-8:8",
                  "--module", "trivial"]):
        calls.clear()
        code, _ = run_json(tmp_path, argv)
        assert code == 0
        assert len(calls) == 1


# -------------------------------------------------------------------------
# malformed presentations: one JSON value changed
# -------------------------------------------------------------------------

# every section and every kind, small enough that any one change stays
# cheap to enumerate
FUZZ_BASE = {
    "schema_version": 1,
    "field": "F5",
    "window": [-6, 6],
    "algebras": {
        "P": {"kind": "polynomial", "generators": [["y", 2]]},
        "E": {"kind": "exterior", "generators": [["x", -3]]},
        "T": {"kind": "truncated_polynomial", "name": "t", "degree": 2,
              "power": 3},
        "A": {"kind": "table", "basis": {"0": ["1"], "4": ["z"]},
              "unit": "1", "polarity": "non-negative",
              "simply_connected": True, "differential": {},
              "mult": {"1|1": {"1": 1}, "1|z": {"z": 1}, "z|1": {"z": 1}}},
    },
    "coalgebras": {
        "D": {"kind": "dual", "of": "P"},
        "X": {"kind": "exterior", "generators": [["sx", 1]]},
    },
    "modules": {
        "K": {"kind": "trivial", "over": "P"},
        "F": {"kind": "free", "over": "P"},
        "M": {"kind": "truncated", "over": "P", "name": "y", "degree": 2,
              "power": 2},
        # sections are read in name order: these follow K and F
        "Sh": {"kind": "shift", "of": "K", "k": 1},
        "Sum": {"kind": "direct_sum", "of": ["K", "F"]},
    },
    "comodules": {
        "N": {"kind": "trivial", "over": "X"},
        "O": {"kind": "over_self", "over": "X"},
    },
}

FUZZ_COMMANDS = (["validate"], ["bar", "--algebra", "A"],
                 ["level-bound", "--module", "K", "--over", "P",
                  "--depth", "3"])

DELETE = object()
FUZZ_VALUES = [DELETE, None, True, 0, 3, -1, "x", "", [], {}, [0],
               {"x": 1}, 2.5]


# Known wrong exact levels at the window top: the resolution misses a
# generator whose evidence lies at the top degree, where homology is not
# computable, and that boundary verdict counts as a pass, so exhaustion is
# certified.  K[y]/(y^n) over K[y] is torsion, so its level is 2.

def _contains_level_two(side):
    return side["lower"] <= 2 and (side["upper"] is None
                                   or side["upper"] >= 2)


@pytest.mark.xfail(strict=True, reason="a generator at the window top is "
                   "missed and exhaustion still certified")
def test_truncated_module_level_at_the_window_top(tmp_path):
    doc = {"schema_version": 1, "field": "F5", "window": [-16, 16],
           "algebras": {"S": {"kind": "polynomial",
                              "generators": [["y", 4]]}},
           "modules": {"M": {"kind": "truncated", "over": "S", "name": "y",
                             "degree": 4, "power": 4}}}
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    code, rep = run_json(tmp_path, ["level-bound", "-p", str(p),
                                    "--module", "M", "--over", "S"])
    assert code == 0
    assert _contains_level_two({"lower": rep["lower_bound"],
                                "upper": rep["upper_bound"]})


@pytest.mark.xfail(strict=True, reason="a generator at the window top is "
                   "missed and exhaustion still certified")
@pytest.mark.parametrize("module,window", [("truncated:4", "-16:16"),
                                           ("truncated:3", "-12:12")])
def test_duality_check_truncated_level_at_the_window_top(tmp_path, module,
                                                         window):
    code, rep = run_json(tmp_path, ["duality-check", "--degrees", "4",
                                    "--module", module, f"--window={window}"])
    assert code == 0
    assert _contains_level_two(rep["side_a"]) and rep["value"] in (None, 2)


@pytest.mark.xfail(strict=True, reason="a generator at the window top is "
                   "missed and exhaustion still certified")
def test_duality_check_two_generators_class_at_the_window_top(tmp_path):
    # at -20:20 the minimal resolution has three stages
    code, rep = run_json(tmp_path, ["duality-check", "--degrees", "4,4",
                                    "--module", "truncated:3",
                                    "--window=-12:12"])
    assert code == 0
    side = rep["side_a"]
    assert not side["exhausted"] or side["class"] == 3


def _json_paths(value, path=()):
    """The path of every value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield path + (k,)
        yield from _json_paths(v, path + (k,))


FUZZ_PATHS = list(_json_paths(FUZZ_BASE))


def _run_quiet(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_fuzz_base_presentation_runs(tmp_path):
    p = tmp_path / "base.json"
    p.write_text(json.dumps(FUZZ_BASE))
    for argv in FUZZ_COMMANDS:
        assert _run_quiet(argv + ["-p", str(p)]) == (0, "")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(FUZZ_PATHS), st.sampled_from(FUZZ_VALUES))
def test_malformed_presentation_never_crashes(tmp_path, path, value):
    doc = json.loads(json.dumps(FUZZ_BASE))
    *outer, key = path
    parent = doc
    for k in outer:
        parent = parent[k]
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    for argv in FUZZ_COMMANDS:
        code, err = _run_quiet(argv + ["-p", str(p)])
        assert code in (0, 2, 3, 4), (path, value, argv, err)
        assert "Traceback" not in err, (path, value, argv, err)


# -------------------------------------------------------------------------
# report bytes pinned across versions
# -------------------------------------------------------------------------

def criterion_10_presentation(field):
    return {"schema_version": 1, "field": field, "window": [-16, 16],
            "algebras": {
                "S": {"kind": "polynomial", "generators": [["y", 2]]},
                "E": {"kind": "exterior", "generators": [["x", -3]]}},
            "coalgebras": {"Sd": {"kind": "dual", "of": "S"}},
            "modules": {"K": {"kind": "trivial", "over": "S"}}}


TRUNCATED_BAR = {"schema_version": 1, "field": "F5", "window": [-18, 18],
                 "algebras": {"T": {"kind": "truncated_polynomial",
                                    "name": "y", "degree": 2, "power": 4}}}

DOCUMENTS = {"F5": criterion_10_presentation("F5"),
             "F7": criterion_10_presentation("F7"),
             "T": TRUNCATED_BAR,
             "T22": {**TRUNCATED_BAR, "window": [-22, 22]}}

# the sha256 of each ``--json`` report, recorded before the bar and cobar
# word complexes were built on positions; the words' labels, their order
# and the reports must not change with how the words are stored.  The
# homology of S, and the bar of K[y]/(y^4) at ±22, where
# ``homology_dims`` eliminates d_18 (1,738 columns), were recorded
# before ``homology_dims`` bounded its ranks
REPORT_SHA256 = [
    ("F5", ["bar", "--algebra", "S"],
     "126e4935cf17ae4e53aabdfc7b751b61e22176722014da6a0a1762927300f76f"),
    ("F5", ["cobar", "--coalgebra", "Sd"],
     "bc6ed32fad0d6083c5d37287f95c5893b7f17c65f938c443995031efede3e81e"),
    ("F5", ["ext", "--algebra", "E"],
     "e16f1678629a3caa64a5ac6932e18b46d0c5d9f3aac78aa4e88222b69e9f830e"),
    ("F5", ["koszul-check", "--degrees", "2", "--window=-12:12"],
     "3cc019d85fb01c17b0267ddc57c590aba345a9a9edf9ace623faacc46f833a4e"),
    ("F5", ["homology", "--object", "S"],
     "4cb2097b346a8aa86d65d7847c86e616e5401d568dff9959a064a0064b53328e"),
    ("F7", ["bar", "--algebra", "S"],
     "ab2617dbc5e1970b5310cd21d3ec7ef80e7e913977092b3a0694d655e032759f"),
    ("F7", ["cobar", "--coalgebra", "Sd"],
     "c6f6701f2939dfbb7d27c114e5b0b4480747c78d094f232258d3799c6c814c57"),
    ("F7", ["ext", "--algebra", "E"],
     "cd0cf9fef8a02bc27636e7bf4d80117669048f6e0a1708f9da5bb27fca729809"),
    ("F7", ["koszul-check", "--degrees", "2", "--window=-12:12",
            "--field", "F7"],
     "4bcaab630c6491bdd007222e5718908a4c1117bd280673da60715b5a4d863d78"),
    ("F7", ["homology", "--object", "S"],
     "acf8748e887e71ae9cdb5a3c3d123eab4c3ea81a8f56347dd74d985c845033e6"),
    ("T", ["bar", "--algebra", "T"],
     "8702c12210c1a0e6dc3749e947d2c10fe92e117f95f8257b4e5e750bff4525ef"),
    ("T22", ["bar", "--algebra", "T"],
     "2ed173fae21fe8e3b052e1c18b804567e2f295fcf569715e63ebd0ca61242f48"),
]


@pytest.mark.parametrize("doc,argv,sha", REPORT_SHA256,
                         ids=[f"{a[0]}-{d}" for d, a, _ in REPORT_SHA256])
def test_report_bytes_are_pinned(tmp_path, doc, argv, sha):
    """bar, cobar, ext, koszul-check and homology on the criterion-10
    fixture at F_5 and F_7, and the bar of K[y]/(y^4) at ±18 and ±22,
    write the recorded bytes."""
    p = tmp_path / "fix.json"
    p.write_text(json.dumps(DOCUMENTS[doc]))
    if argv[0] != "koszul-check":
        argv = [argv[0], "-p", str(p)] + argv[1:]
    out = tmp_path / "out.json"
    assert main(argv + ["--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
