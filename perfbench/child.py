"""One iteration of a workload in a fresh process.

Started by ``run.py``; not meant to be run by hand.  It imports the engine
from ``src/`` of the current directory, writes the workload's presentation
files, runs every command through ``dgkoszul.cli.main`` and then, outside
the timed region, checks exit codes and verdict fields against
``expected.json`` and hashes each ``--json`` report.  The result goes to the
JSON file named by ``--out``.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import dgkoszul`` and
writing the presentation files.

While the commands run, ``HostClock`` times a fixed reference loop every
half second.  The speed of a shared host drifts by up to 2x within
seconds, so the wall time is also given rescaled to a host that runs the
loop in ``REF_NOMINAL_S`` (``wall_ref_s``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

# report fields that carry a verdict or a computed invariant
VERDICT_FIELDS = ("ok", "dims", "dimension", "homology_dims", "d_squared_ok",
                  "minimal", "class", "exhausted", "lower_bound",
                  "upper_bound", "certificate_valid", "fiber_dim_total",
                  "tau_ok", "two_sided_ok", "value", "intervals_intersect",
                  "eta_trivial_qiso")


REF_PERIOD_S = 0.5
REF_NOMINAL_S = 0.010


def reference_loop(buf: array) -> None:
    """Fixed pure-Python work in the engine's three styles, independent of
    the engine's code; about 10 ms on a 2.1 GHz Xeon.

    - string-keyed dict updates, as in bar/cobar construction;
    - sparse-dict Gauss-Jordan over Q on a fixed 10 x 13 matrix;
    - strided read-modify-write of int64 cells mod a prime over a 2 MB
      buffer, as in dense F_p elimination.
    """
    d = {}
    for i in range(5000):
        k = f"y{i % 211}|x{i % 7}"
        d[k] = (d.get(k, 0) + i * 31) % 10007

    n = 10
    rows = [{c: Fraction((r * 7 + c * 3) % 11 - 5) for c in range(n + 3)
             if (r + 2 * c) % 3} for r in range(n)]
    r = 0
    for c in range(n + 3):
        piv = next((i for i in range(r, n) if rows[i].get(c)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = {k: v * inv for k, v in rows[r].items()}
        for i in range(n):
            f = rows[i].get(c) if i != r else None
            if f:
                row = dict(rows[i])
                for k, v in rows[r].items():
                    x = row.get(k, 0) - f * v
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
                rows[i] = row
        r += 1

    mask = len(buf) - 1
    j = 0
    for i in range(10000):
        j = (j + 4099) & mask
        buf[j] = (buf[j] * 7 + i) % 10007


def host_scale(samples: list) -> float:
    """Factor that turns seconds on this host into reference seconds.

    The work a period gets done is inversely proportional to the reference
    time sampled in it, so the factor is the mean over the samples of
    ``REF_NOMINAL_S / sample``."""
    return statistics.fmean(REF_NOMINAL_S / t for t in samples)


class HostClock:
    """Times ``reference_loop``: on ``sample()``, and inside a ``with``
    block once at entry, every ``REF_PERIOD_S`` of wall time from a SIGALRM
    handler, and once at exit.  ``spent`` is the time taken by the
    samples, which callers subtract from their timings."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._buf = array("q", bytes(8 << 18))

    def sample(self, signum=None, frame=None):
        t = time.perf_counter()
        reference_loop(self._buf)
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def verdict_fields(report: dict) -> dict:
    return {k: report[k] for k in VERDICT_FIELDS if k in report}


def check(expected, code, report) -> list:
    """Differences between a command's outcome and its stored verdict."""
    if expected is None:
        return ["no stored verdict for this command and prime"]
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code!r}, expected {expected['exit']}")
    got = verdict_fields(report or {})
    for key, want in expected["fields"].items():
        if got.get(key, "<missing>") != want:
            problems.append(f"{key}: {got.get(key, '<missing>')!r}, "
                            f"expected {want!r}")
    return problems


def run_commands(cli, commands, workdir, tracer=None, clock=None) -> list:
    """Run each command; returns (key, exit code or error, seconds, path).
    The seconds leave out the time ``clock`` spent sampling."""
    ran = []
    for i, (key, argv) in enumerate(commands):
        path = os.path.join(workdir, f"report{i}.json")
        argv = [a.replace("{dir}", workdir) for a in argv] + ["--json", path]
        if tracer is not None:
            tracer.op = i
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            spent = clock.spent if clock else 0.0
            t = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as e:  # noqa: BLE001 - recorded as a failed op
                code = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t
            if clock:
                dt -= clock.spent - spent
        # each CLI command normally has a process of its own: free this
        # one's cyclic garbage so the next command's peak RSS is its own
        gc.collect()
        ran.append((key, code, dt, path))
    return ran


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from dgkoszul import cli, exactlinalg

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    prime, files, commands = workloads.build(args.workload, args.seed,
                                             args.smoke)
    os.makedirs(args.workdir, exist_ok=True)
    for name, doc in files.items():
        with open(os.path.join(args.workdir, name), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s,
              "prime": prime,
              "kernel": exactlinalg.KERNEL,
              "engine": os.path.dirname(os.path.abspath(cli.__file__))}
    if not args.setup_only:
        # the first sample warms the buffer and the caches
        clock = HostClock()
        clock.sample()
        clock.samples = []
        with clock:
            ran = run_commands(cli, commands, args.workdir, tracer, clock)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with open(EXPECTED, encoding="utf-8") as fh:
            table = json.load(fh)["smoke" if args.smoke else "full"]
        expected = table.get(args.workload, {}).get(str(prime), {})
        ops = []
        for key, code, dt, path in ran:
            blob, report = b"", None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    blob = fh.read()
                report = json.loads(blob)
            ops.append({"key": key, "exit": code, "seconds": dt,
                        "bytes": len(blob),
                        "sha256": hashlib.sha256(blob).hexdigest(),
                        "fields": verdict_fields(report or {}),
                        "problems": check(expected.get(key), code, report)})
        wall_s = sum(op["seconds"] for op in ops)
        result.update(wall_s=wall_s,
                      wall_ref_s=wall_s * host_scale(clock.samples),
                      ref_s=statistics.median(clock.samples),
                      ref_samples=clock.samples,
                      peak_rss_mb=rss_mb, ops=ops)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["layers"]["cli.report_bytes"] = sum(op["bytes"]
                                                       for op in ops)
            result["trace_missing"] = tracer.missing
            result["trace_hook_errors"] = tracer.hook_errors
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump(tracer.span_records(), fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
