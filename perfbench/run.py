"""End-to-end and per-layer benchmark of the ``dgkoszul`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cli-suite --seed 0 --seconds 40 --trace 0

Each workload iteration is one fresh, single-threaded child process
(``child.py``) that runs the workload's commands through
``dgkoszul.cli.main``; iterations run one at a time.  ``--trace 0`` repeats
untraced iterations for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs untraced/traced pairs and reports the per-layer metrics
of the traced iterations plus the tracing overhead.  ``--smoke`` runs the
same commands on reduced windows.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run, with run metadata and the sha256 of every ``--json``
report, is written to ``.perfbench_runs/``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench_runs"
SETUP_PROBES = 11           # set-up-only processes at the start of a run
# Set-up time is rescaled by the time of this reference process, started
# just before each set-up probe: the same interpreter importing the child's
# own standard-library modules, but not the engine.  Set-up is start-up and
# import work, which the host's drift slows less than the reference loop of
# child.py, so it needs a reference of its own kind.
REFERENCE_START = [sys.executable, "-c",
                   "import argparse, contextlib, gc, hashlib, json, "
                   "resource, signal, statistics, time, array, fractions, "
                   "random"]
REF_START_NOMINAL_S = 0.060
CHILD_TIMEOUT_S = 170       # a run must end within 180 s

END_TO_END = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_call")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, root: str, args):
        self.root = root
        self.args = args
        self.work = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
        self.n = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S

    def child(self, trace=False, setup_only=False, spans=None) -> dict:
        self.n += 1
        out = os.path.join(self.work, f"child{self.n}.json")
        cmd = [sys.executable, CHILD, "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--workdir", os.path.join(self.work, f"files{self.n}"),
               "--out", out]
        cmd += ["--smoke"] * self.args.smoke + ["--trace"] * trace
        cmd += ["--setup-only"] * setup_only
        if spans:
            cmd += ["--spans", spans]
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=self.root,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not os.path.exists(out):
            tail = proc.stderr.decode(errors="replace").strip()[-2000:]
            return {"error": f"child exited {proc.returncode}: {tail}"}
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def setup_probe(self) -> dict:
        """A set-up-only child right after a reference process; its
        ``setup_ref_s`` is its set-up time rescaled to a host that runs the
        reference process in ``REF_START_NOMINAL_S``."""
        t0 = time.monotonic()
        try:
            ref = subprocess.run(REFERENCE_START, cwd=self.root,
                                 env=self.env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE,
                                 timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            return {"error": "reference process timed out"}
        ref_s = time.monotonic() - t0
        if ref.returncode != 0:
            return {"error": f"reference process exited {ref.returncode}: "
                             f"{ref.stderr.decode(errors='replace')[-2000:]}"}
        r = self.child(setup_only=True)
        if "error" not in r:
            r.update(reference_start_s=ref_s,
                     setup_ref_s=r["setup_s"] * REF_START_NOMINAL_S / ref_s)
        return r


def iterate(runner: Runner, seconds: float, one) -> list:
    """Call ``one()`` at least once, and again while another call of the
    last one's length still fits in ``seconds``."""
    start = time.monotonic()
    results = []
    while True:
        t = time.monotonic()
        results.append(one())
        last = time.monotonic() - t
        if (any("error" in r for r in results[-1])
                or time.monotonic() - start + last > seconds):
            return results


def count_ops(iterations: list, n_commands: int):
    """(attempted, failed, problems) over the measured iterations.

    A command fails if its exit code or a verdict field is wrong, if its
    report bytes differ between iterations of this run, or if its process
    did not finish.
    """
    attempted = failed = 0
    problems = []
    first_sha = {}
    for it in iterations:
        attempted += n_commands
        if "error" in it:
            failed += n_commands
            problems.append(it["error"])
            continue
        for op in it["ops"]:
            sha = first_sha.setdefault(op["key"], op["sha256"])
            bad = list(op["problems"])
            if sha != op["sha256"]:
                bad.append("report bytes differ between iterations")
            if bad:
                failed += 1
                problems.append(f"{op['key']}: {'; '.join(bad)}")
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced windows; finishes in seconds")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dgkoszul", "cli.py")):
        sys.stderr.write("perfbench: run from the repository root; "
                         "src/dgkoszul/cli.py not found\n")
        return 2

    runner = Runner(root, args)
    prime, _, commands = workloads.build(args.workload, args.seed,
                                         args.smoke)
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
           + ("-smoke" if args.smoke else ""))
    try:
        if args.trace:
            spans = os.path.join(root, OUT_DIR, f"{tag}-spans.json")
            pairs = iterate(runner, args.seconds, lambda: (
                runner.child(), runner.child(trace=True, spans=spans)))
            plain = [a for a, _ in pairs]
            traced = [b for _, b in pairs]
            measured = plain + traced
            probes = []
        else:
            start = time.monotonic()
            probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
            plain = [r for r, in iterate(
                runner, args.seconds - (time.monotonic() - start),
                lambda: [runner.child()])]
            measured = plain
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted, failed, problems = count_ops(measured, len(commands))
    ok = [r for r in measured if "error" not in r]
    first = ok[0] if ok else {}
    metrics = {}
    if args.trace:
        good_plain = [r["wall_ref_s"] for r in plain if "error" not in r]
        good_traced = [r for r in traced if "error" not in r]
        if good_plain and good_traced:
            for name in good_traced[0]["layers"]:
                metrics[name] = statistics.median(
                    r["layers"][name] for r in good_traced)
            metrics["trace.overhead_frac"] = (
                statistics.median(r["wall_ref_s"] for r in good_traced)
                / statistics.median(good_plain) - 1.0)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups = [r["setup_ref_s"] for r in probes if "error" not in r]
        if ok and setups:
            metrics = {
                "wall_ref_s": statistics.median(r["wall_ref_s"] for r in ok),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                 for r in ok),
                "setup_s": statistics.median(setups)}
        units = END_TO_END
        problems += [r["error"] for r in probes if "error" in r]

    correct = failed == 0 and bool(metrics) and not problems
    meta = {"workload": args.workload, "seed": args.seed, "prime": prime,
            "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, "iterations": len(plain),
            "kernel": first.get("kernel"),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "engine": first.get("engine")}
    reports = {op["key"]: op["sha256"] for op in first.get("ops", [])}
    record = {"meta": meta, "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics, "units": units,
              "report_sha256": reports, "iterations": measured,
              "setup_probes": probes}
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for p in problems:
        print(f"FAILED {p}")
    print(f"attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g}")
    for key, sha in reports.items():
        print(f"report {key}: sha256 {sha}")
    if not args.trace:
        for r in ok:
            print(f"iteration wall_s={r['wall_s']:.3f}s "
                  f"reference_loop={r['ref_s'] * 1e3:.3f}ms " + "  ".join(
                      f"{op['key']}={op['seconds']:.3f}s" for op in r["ops"]))
        if ok:
            print(f"wall_s = {statistics.median(r['wall_s'] for r in ok):.6g}"
                  f" s (unscaled, median)")
            raw_setups = [r["setup_s"] for r in probes if "error" not in r]
            if raw_setups:
                print(f"setup_s unscaled = "
                      f"{statistics.median(raw_setups):.6g} s (median of "
                      f"{len(raw_setups)})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace and metrics:
        print(f"trace: targets missing from the engine: "
              f"{good_traced[0]['trace_missing'] or 'none'}; counter hook "
              f"errors: {good_traced[0]['trace_hook_errors']}")
        traced_wall = statistics.median(r["wall_s"] for r in good_traced)
        ranked = sorted((v, k) for k, v in metrics.items()
                        if k.endswith(".self_s"))
        for value, name in reversed(ranked[-6:]):
            print(f"self time {name}: {value / traced_wall:.1%} "
                  f"of traced wall_s")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
