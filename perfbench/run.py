#!/usr/bin/env python3
"""Benchmark of `nefpoly verify`, run in-process through `nefpoly.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
One client drives a closed loop, single-threaded: the next op starts when
the previous one returns.  The loop runs whole passes over the workload's
op list until `--seconds` have elapsed.  Every op goes through the
correctness gate in `gate.py`.  With `--trace 0` the last stdout line holds
the end-to-end metrics; with `--trace 1` each op runs untraced and then
traced, and the last line holds the per-layer metrics from `tracer.py`.
The line before it records the inputs, environment, sample counts and
every failing op.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from gate import expect, judge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-default", "exact-deep", "anchor-sweep")
ALL_CHECKS = ("two-ortho", "full-ortho", "bruno", "recover", "genfun")
DEEP_CHECKS = ("two-ortho", "full-ortho", "recover")

# A wrong answer the gate must catch: the printed-table misprint of P_2.
SELFTEST_ARGV = ["verify", "ig", "--m0=1", "--inject-typo", "table1-p2"]

ANCHORS_PER_FAMILY = 30
SETUP_REPEATS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import nefpoly.cli; nefpoly.cli.build_parser()"


def _anchor(family, rng: random.Random, stratum: int) -> Fraction:
    """One anchor inside the family's mean domain, from stratum k of ANCHORS_PER_FAMILY.

    Half-lines are sampled log-uniformly on lo + [1/8, 8], the real line
    uniformly on [-3, 3], a bounded domain uniformly on it; denominators are
    at most 9.  Stratifying keeps the share of small anchors (where the
    float layer fails today) the same on every seed.
    """
    lo, hi = family.mean_domain
    while True:
        u = (stratum + rng.random()) / ANCHORS_PER_FAMILY
        if lo is None and hi is None:
            x = -3 + 6 * u
        elif hi is None:
            x = float(lo) + math.exp(math.log(1 / 8) + u * math.log(64))
        else:
            x = float(lo) + u * float(hi - lo)
        m0 = Fraction(x).limit_denominator(9)
        if family.contains_mean(m0):
            return m0


def workload_ops(name: str, seed: int):
    """[(argv, expected family blocks, selected checks)] for one pass."""
    from nefpoly.families import CATALOG

    def default_anchor(f):
        return 0 if f.mean_domain == (None, None) else 1

    if name == "verify-default":
        return [(["verify", "--all"], [expect(f, default_anchor(f)) for f in CATALOG.values()], ALL_CHECKS)]
    if name == "exact-deep":
        argv = ["verify", "--all", "--n", "32", "--checks", ",".join(DEEP_CHECKS)]
        return [(argv, [expect(f, default_anchor(f)) for f in CATALOG.values()], DEEP_CHECKS)]
    rng = random.Random(seed)
    anchors = {f.name: [_anchor(f, rng, k) for k in range(ANCHORS_PER_FAMILY)] for f in CATALOG.values()}
    # Round-robin over families; `--m0=` keeps argparse from reading a
    # negative anchor as a flag.
    return [
        (["verify", f.name, f"--m0={anchors[f.name][k]}"], [expect(f, anchors[f.name][k])], ALL_CHECKS)
        for k in range(ANCHORS_PER_FAMILY)
        for f in CATALOG.values()
    ]


def run_op(cli_main, argv, tracer=None):
    """(seconds, exit code or None, stdout, failure text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.call(cli_main, argv) if tracer else cli_main(argv)
        crash = None
    except Exception as exc:  # a crash is a failed op, never a failed run
        code, crash = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if crash is None and code != 0 and err.getvalue().strip():
        crash = err.getvalue().strip().splitlines()[-1]
    return elapsed, code, out.getvalue(), crash


def check_op(result, expected, checks):
    """Gate reasons for one op result; [] when it passed."""
    _, code, stdout, crash = result
    if code is None:
        return [crash]
    reasons = judge(code, stdout, expected, checks)
    if crash and reasons:
        reasons[0] += f" ({crash})"
    return reasons


def body_of(stdout: str) -> str:
    try:
        return json.dumps(json.loads(stdout)["body"], sort_keys=True)
    except (ValueError, KeyError, TypeError):
        return stdout


class Tally:
    """Op outcomes of one run: timings, failures by input, false passes."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.failed = 0
        self.false_passes = 0
        self.failures: dict[str, dict] = {}

    def add(self, argv, result, reasons) -> None:
        self.times.append(result[0])
        if not reasons:
            return
        self.failed += 1
        # An exit-0 report with wrong verdicts is a silent wrong answer.
        self.false_passes += result[1] == 0
        entry = self.failures.setdefault(" ".join(argv), {"reasons": reasons, "count": 0})
        entry["count"] += 1


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing nefpoly.cli and building the parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    if name.endswith(("_s", ".p50")):
        return "s"
    if name.endswith(("_frac", ".coverage")):
        return "1"
    return "bits" if name.endswith(".max_bits") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="nefpoly verify benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nefpoly" / "cli.py").is_file():
        print(f"perfbench: no nefpoly sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import nefpoly.cli

    ops = workload_ops(args.workload, args.seed)
    cli_main = nefpoly.cli.main
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": [" ".join(a) for a, _, _ in ops],
    }

    # The gate must reject a known wrong answer; this op also warms up.
    from nefpoly.families import lookup

    selftest = check_op(run_op(cli_main, SELFTEST_ARGV), [expect(lookup("ig"), 1)], ALL_CHECKS)
    record["gate_selftest"] = {"argv": " ".join(SELFTEST_ARGV), "reasons": selftest}
    # Caught by the family's verdicts, not only by the exit code.
    correct = any(r.startswith("ig@1:") for r in selftest)

    tally, traced, bodies_differ = Tally(), [], 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        setup = measure_setup()
    start = perf_counter()
    while True:
        for op_argv, expected, checks in ops:
            result = run_op(cli_main, op_argv)
            if tracer:
                plain_body = body_of(result[2])
                plain_time = result[0]
                result = run_op(cli_main, op_argv, tracer)
                bodies_differ += body_of(result[2]) != plain_body
                traced.append(result[0])
                result = (plain_time,) + result[1:]
            tally.add(op_argv, result, check_op(result, expected, checks))
        if perf_counter() - start >= args.seconds:
            break

    attempted = len(tally.times)
    correct = correct and tally.false_passes == 0 and bodies_differ == 0
    record.update(
        samples=attempted,
        failed_frac={"value": tally.failed / attempted, "unit": "1", "failed": tally.failed, "attempted": attempted},
        failures=tally.failures,
        false_passes=tally.false_passes,
    )
    if tracer:
        layers = tracer.summary()
        untraced_p50 = statistics.median(tally.times)
        traced_p50 = statistics.median(traced)
        values = {
            **layers,
            "trace.op_s.p50": traced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
            "trace.coverage": sum(v for k, v in layers.items() if k.endswith("_s")) / statistics.fmean(traced),
        }
        record.update(untraced_op_s_p50=untraced_p50, bodies_differ=bodies_differ)
    else:
        tail = p90(tally.times)
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(tally.times),
            "op_s.p90": tail,
            "ops_per_s": (attempted - tally.failed) / sum(tally.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(setup_samples=len(setup), op_s_p90_samples_above=sum(t > tail for t in tally.times))
    metrics = {k: {"value": v, "unit": E2E_UNITS.get(k) or unit_of(k)} for k, v in values.items()}
    record["metrics"] = metrics
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
