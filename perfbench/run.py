"""Benchmark of `invbases compute`: end-to-end timings and a traced layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check [--workload NAME|all]

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Per workload it times `setup_s` over fresh interpreters,
half before and half after one fresh child process (child.py) that runs
timed passes over the workload's jobs for what is left of `--seconds` and
checks every printed basis.  The load is one closed-loop client: one
process, one `compute` job at a time, no threads.  The gated times,
`setup_s` and `pass_norm_s`, are rescaled to a reference machine speed by a
calibration load timed alongside them (calibrate.py), because the speed of a
shared machine drifts by more than the bounds over one run; the raw times
are in the report.  A human-readable report
comes first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, layer metrics with `--trace 1`).  `--self-check` runs every
workload once under two seeds and fails unless heads, counters and
diagnostics agree.  Workloads and metrics are described in README.md next
to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibration, SpeedSampler
from checkout import ROOT, SRC, MissingProgram, require_source
from workloads import DIAGNOSTICS, ORDER, STAT_COUNTERS, WORKLOADS, load_references

HERE = Path(__file__).resolve().parent
DEFAULT_SECONDS = 30
SETUP_PROBES = 40
# Time the child may take beyond --seconds: its imports and set-up, and the
# last round, which may run over when a pass is slower than the median.
CHILD_MARGIN_S = 120

# End-to-end metrics in the result line (--trace 0), with units.
END_TO_END = {"setup_s": "s", "pass_norm_s": "s", "peak_rss_mb": "MiB"}

SETUP_CODE = """\
import sys
sys.path.insert(0, %(src)r)
import invbases.cli
from invbases.division import division_by_name
from invbases.systems import load_builtin
for name, division in %(jobs)r:
    division_by_name(division, load_builtin(name, order=%(order)r).vars)
"""


def environment(tag: str) -> str:
    load = " ".join("%.2f" % x for x in os.getloadavg())
    return "# %s: python %s  nproc %d  loadavg %s" % (
        tag, platform.python_version(), len(os.sched_getaffinity(0)), load)


def measure_setup(workload: str, probes: int, warm: bool = False) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import `invbases.cli` and build
    the workload's systems and divisions, as (time, time at the reference
    speed): a calibration unit timed right before and right after each
    probe gives the machine's speed during it.  With `warm`, one untimed
    start first, so the bytecode cache is written before timing, as it is
    for an installed package."""
    jobs = [(job.system, job.division) for job in WORKLOADS[workload]]
    code = SETUP_CODE % {"src": str(SRC), "jobs": jobs, "order": ORDER}
    calibration = Calibration()
    times = []
    for i in range(probes + warm):
        before = calibration.run()
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantise the figure; without, it blocks in waitpid.
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        after = calibration.run()
        if i or not warm:
            times.append((elapsed, elapsed * SpeedSampler.factor([before, after])))
    return times


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + CHILD_MARGIN_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload %s: child still running %d s after its %g s of passes"
                           % (workload, CHILD_MARGIN_S, seconds)) from None
    if proc.returncode != 0:
        raise RuntimeError("workload %s: child exited with status %d"
                           % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile); None unless that percentile lies above the median, which
    takes more than 20 samples."""
    n = len(values)
    if n <= 20:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


def counter_report(summary: dict, refs: dict) -> list[str]:
    """Counters per job next to the recorded references; '*' marks a
    difference.  A report, not a check: a change may move counters on
    purpose."""
    names = STAT_COUNTERS + (DIAGNOSTICS if "diagnostics" in summary else ())
    lines = ["# counters per job, value(reference) and * where they differ:",
             "#   " + " ".join(names)]
    for key, seen in sorted(summary["jobs"].items()):
        ref = refs[key]
        got = dict(seen["counters"])
        want = dict(ref["counters"])
        if "diagnostics" in summary:
            got.update(summary["diagnostics"].get(key, {}))
            want.update(ref["diagnostics"])
        cells = []
        for name in names:
            cell = str(got.get(name, "-"))
            if got.get(name) != want[name]:
                cell += "(%s)*" % want[name]
            cells.append(cell)
        lines.append("#   %-32s %s" % (key, " ".join(cells)))
    return lines


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; prints its report and returns its result record."""
    # Half the set-up probes run before the child and half after it, so the
    # median spans the run rather than one moment of a shared machine.  The
    # probes count against --seconds: the child gets what they leave.
    setup = []
    child_seconds = seconds
    if not trace:
        started = time.perf_counter()
        setup = measure_setup(workload, SETUP_PROBES // 2, warm=True)
        child_seconds = max(0.0, seconds - 2 * (time.perf_counter() - started))
    summary = run_child(workload, seed, child_seconds, trace)
    if not trace:
        setup += measure_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)
    untraced = [p for p in summary["passes"] if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    attempted, failed = summary["attempted"], summary["failed"]
    reds = sum(j["counters"].get("reds", 0) for j in summary["jobs"].values())

    print("# workload %s  seed %d  seconds %g  trace %d  jobs %d"
          % (workload, seed, seconds, trace, len(WORKLOADS[workload])))
    e2e = {
        "pass_norm_s": statistics.median(p["norm"] for p in untraced),
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(p["cpu"] for p in untraced),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
    }
    if setup:
        e2e["setup_s"] = statistics.median(norm for _, norm in setup)
        print("setup_s      %.6f s   (median of %d fresh interpreters, at the reference speed)"
              % (e2e["setup_s"], len(setup)))
        print("setup_raw_s  %.6f s   (the same, at this machine's speed)"
              % statistics.median(raw for raw, _ in setup))
    print("pass_norm_s  %.6f s   (median of %d untraced passes, at the reference speed)"
          % (e2e["pass_norm_s"], len(walls)))
    print("pass_s       %.6f s   (median of %d untraced passes, at this machine's speed)"
          % (e2e["pass_s"], len(walls)))
    t = tail(walls)
    if t is None:
        print("pass_s_tail  n/a        (%d passes; ten beyond a percentile above the median"
              " need at least 21)" % len(walls))
    else:
        print("pass_s_tail  %.6f s   (p%.0f of %d passes, 10 beyond it)" % (t[0], t[1], len(walls)))
    print("pass_cpu_s   %.6f s   (median of %d untraced passes)"
          % (e2e["pass_cpu_s"], len(walls)))
    print("peak_rss_mb  %.3f MiB (child process)" % e2e["peak_rss_mb"])
    print("failed_frac  %.6g      (%d of %d jobs)" % (failed / attempted, failed, attempted))
    print("reds         %d count  (reduced to zero in one pass)" % reds)
    for line in summary["failures"]:
        print("# FAILED " + line)
    for line in counter_report(summary, load_references()):
        print(line)

    if trace:
        layers = summary["layers"]
        print("# layer metrics per traced pass (self times; spans in %s)"
              % Path(summary["spans_file"]).relative_to(ROOT))
        for name, (value, unit) in layers.items():
            print("%-32s %s %s" % (name, fmt(value), unit))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_check(workloads: list[str], seeds: tuple[int, int]) -> int:
    """One traced pass per workload under each of two seeds: heads, counters
    and diagnostics must agree, and every output must pass its check."""
    status = 0
    for workload in workloads:
        views = []
        for seed in seeds:
            summary = run_child(workload, seed, 0, 1)
            if summary["failed"]:
                print("%s seed %d: %d failed jobs" % (workload, seed, summary["failed"]))
                status = 1
            views.append((summary["jobs"], summary["diagnostics"]))
        same = views[0] == views[1]
        print("%-14s seeds %d and %d: %s" % (workload, seeds[0], seeds[1],
                                            "identical" if same else "DIFFER"))
        status |= not same
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of invbases compute")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="compare two seeds on every workload and exit")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the program's own canonical-form checks and asserts, so
        # it would time a different program from the one users run.
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    try:
        require_source()
    except MissingProgram as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.self_check:
        return self_check(workloads, (args.seed, args.seed + 1))

    print(environment("start"))
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(environment("end"))
    if len(results) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {"%s.%s" % (w, name): m
                   for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
