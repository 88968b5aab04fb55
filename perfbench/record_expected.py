"""Write ``expected.json``: the exit code and verdict fields of every
command of every workload, for each prime a seed can pick, on the full and
the smoke windows.

Run from the repository root when a workload changes:

    python3 perfbench/record_expected.py

The stored values were checked by hand against the mathematics (see
README.md, "Expected verdicts"); a change to them needs the same check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from child import EXPECTED, run_commands, verdict_fields
    from dgkoszul import cli

    workdir = os.path.join(os.getcwd(), ".perfbench_runs", "record")
    os.makedirs(workdir, exist_ok=True)
    table = {}
    try:
        for mode in ("smoke", "full"):
            for name in workloads.NAMES:
                for p in workloads.PRIMES:
                    seed = next(s for s in range(1000)
                                if workloads.pick_prime(s) == p)
                    _, files, commands = workloads.build(name, seed,
                                                         mode == "smoke")
                    for fn, doc in files.items():
                        with open(os.path.join(workdir, fn), "w",
                                  encoding="utf-8") as fh:
                            json.dump(doc, fh)
                    entry = {}
                    for key, code, _, path in run_commands(cli, commands,
                                                           workdir):
                        with open(path, encoding="utf-8") as fh:
                            report = json.load(fh)
                        entry[key] = {"exit": code,
                                      "fields": verdict_fields(report)}
                    table.setdefault(mode, {}).setdefault(name, {})[
                        str(p)] = dict(sorted(entry.items()))
                    print(mode, name, p, "done", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
