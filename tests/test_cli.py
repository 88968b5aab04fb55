"""Command-line interface: exit codes, report content, determinism."""

import json

import pytest

from dgkoszul.cli import main

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


def test_level_bound_report(tmp_path, pres):
    code, rep = run_json(
        tmp_path,
        ["level-bound", "-p", pres, "--module", "K", "--over", "S"])
    assert code == 0
    assert rep["class"] == 2
    assert rep["lower_bound"] == 2 and rep["upper_bound"] == 2
    assert rep["certificate_valid"]
    assert rep["certificate"]["tree"]["kind"] == "cone"


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


def test_exit_parse_error_bad_module_power(capsys):
    assert main(["duality-check", "--degrees", "2",
                 "--module", "truncated:x"]) == 2
    assert "truncated:x" in capsys.readouterr().err


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
