"""The benchmark's workloads: generated presentation files and CLI argv.

A workload is a list of ``dgkoszul`` commands run in one process.  The
seed picks the prime p from ``PRIMES`` and the order of the commands;
seed 0 gives p = 5 and the order listed here, which for ``cli-suite`` is
exactly the argv of acceptance criterion 10.  Commands over F_5 omit
``--field`` so that they match that argv byte for byte (F5 is the CLI's
default field).
"""

from __future__ import annotations

import random

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
DEFAULT_PRIME = 5
NAMES = ("cli-suite", "bar-homology", "level-certify")

# reduced window for the smoke mode: same commands, seconds not minutes
SMOKE_WINDOW = (-8, 8)
SMOKE_FLAG_WINDOW = "-8:8"


def pick_prime(seed: int) -> int:
    if seed == 0:
        return DEFAULT_PRIME
    return random.Random(seed).choice(PRIMES)


def _field_flag(p: int) -> list:
    return [] if p == DEFAULT_PRIME else ["--field", f"F{p}"]


def _window_flag(smoke: bool) -> list:
    return [f"--window={SMOKE_FLAG_WINDOW}"] if smoke else []


def _presentation(field: str, window, algebras: dict,
                  coalgebras=None, modules=None) -> dict:
    doc = {"schema_version": 1, "field": field, "window": list(window),
           "algebras": algebras}
    if coalgebras:
        doc["coalgebras"] = coalgebras
    if modules:
        doc["modules"] = modules
    return doc


def _cli_suite(p: int, smoke: bool):
    window = SMOKE_WINDOW if smoke else (-16, 16)
    files = {"fix.json": _presentation(
        f"F{p}", window,
        {"S": {"kind": "polynomial", "generators": [["y", 2]]},
         "E": {"kind": "exterior", "generators": [["x", -3]]}},
        coalgebras={"Sd": {"kind": "dual", "of": "S"}},
        modules={"K": {"kind": "trivial", "over": "S"}})}
    fix = "{dir}/fix.json"
    koszul_window = (f"--window={SMOKE_FLAG_WINDOW}" if smoke
                     else "--window=-12:12")
    commands = [
        ["validate", "-p", fix],
        ["homology", "-p", fix, "--object", "S"],
        ["bar", "-p", fix, "--algebra", "S"],
        ["cobar", "-p", fix, "--coalgebra", "Sd"],
        ["minimize", "-p", fix, "--module", "K", "--over", "S"],
        ["level-bound", "-p", fix, "--module", "K", "--over", "S"],
        ["ext", "-p", fix, "--algebra", "E"],
        ["koszul-check", "--degrees", "2", koszul_window] + _field_flag(p),
        ["duality-check", "--degrees", "2", "--module", "trivial"]
        + _field_flag(p) + _window_flag(smoke),
    ]
    return files, commands


def _bar_homology(p: int, smoke: bool):
    window = SMOKE_WINDOW if smoke else (-18, 18)
    files = {"trunc.json": _presentation(
        f"F{p}", window,
        {"T": {"kind": "truncated_polynomial", "name": "y", "degree": 2,
               "power": 4}})}
    return files, [["bar", "-p", "{dir}/trunc.json", "--algebra", "T"]]


def _level_certify(p: int, smoke: bool):
    window = SMOKE_WINDOW if smoke else (-16, 16)
    algebras = {
        "S": {"kind": "polynomial", "generators": [["y", 2]]},
        "S3": {"kind": "polynomial",
               "generators": [["y1", 2], ["y2", 2], ["y3", 2]]}}
    modules = {
        "K3": {"kind": "trivial", "over": "S3"},
        "T": {"kind": "truncated", "over": "S", "name": "y", "degree": 2,
              "power": 3}}
    files = {
        "levelQ.json": _presentation("Q", window, algebras, modules=modules),
        "levelP.json": _presentation(f"F{p}", window, algebras,
                                     modules=modules)}
    commands = [
        ["level-bound", "-p", "{dir}/levelQ.json", "--module", "K3",
         "--over", "S3"],
        ["level-bound", "-p", "{dir}/levelP.json", "--module", "K3",
         "--over", "S3"],
        ["duality-check", "--degrees", "2,2", "--field", "Q", "--module",
         "trivial"] + _window_flag(smoke),
        ["duality-check", "--degrees", "2,2", "--module", "truncated:2"]
        + _field_flag(p) + _window_flag(smoke),
    ]
    return files, commands


_RECIPES = {"cli-suite": _cli_suite, "bar-homology": _bar_homology,
             "level-certify": _level_certify}


def build(name: str, seed: int, smoke: bool = False):
    """Return ``(prime, files, commands)`` for a workload and seed.

    ``files`` maps a file name to the presentation document to write;
    ``commands`` is a list of ``(key, argv)`` where ``key`` names the
    command in the expected-verdict table and argv paths hold ``{dir}``,
    the directory the files are written to.  Seed 0 keeps the listed
    order; any other seed shuffles it.
    """
    p = pick_prime(seed)
    files, commands = _RECIPES[name](p, smoke)
    keyed = [(command_key(argv), argv) for argv in commands]
    if seed != 0:
        random.Random(seed * 7919 + 1).shuffle(keyed)
    return p, files, keyed


def command_key(argv: list) -> str:
    """A stable name for a command, independent of paths and the prime."""
    parts = [argv[0]]
    it = iter(argv[1:])
    for tok in it:
        if tok in ("-p", "--presentation"):
            parts.append(next(it).rsplit("/", 1)[-1].removesuffix(".json"))
        elif tok in ("--module", "--over", "--object", "--algebra",
                     "--coalgebra", "--degrees"):
            parts.append(next(it))
        elif tok == "--field" and next(it) == "Q":
            parts.append("Q")
    return " ".join(parts)
