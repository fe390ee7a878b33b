"""One workload in a fresh interpreter: set up, run timed passes, check outputs.

Started by run.py, one process per workload; prints a single JSON summary
line on standard output.  A pass runs every job of the workload once, in an
order shuffled by the seed, each job through `invbases.cli.main(["compute",
...])` with its standard output captured: the path a user's `invbases
compute` takes, minus interpreter start-up, which `setup_s` covers.  Only
the `cli.main` calls are timed; the output checks run after each pass.

In an untraced pass a `SpeedSampler` (calibrate.py) samples the machine's
speed once before each job and every 0.2 s during it; its own time is taken
off the job's, and the job's time rescaled by the sampled speed is its share
of `pass_norm_s`.

With `--trace 1` every round runs an untraced pass, a pass with span
wrappers and a pass with count wrappers, and the summary carries the layer
figures of the traced ones (see layers.py).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback

from calibrate import SpeedSampler
from check import check_job
from checkout import OUT, import_program
from workloads import ORDER, WORKLOADS, load_references


def run_pass(cli, jobs, seed: int, tag: int, tracer=None, sampler=None) -> list[dict]:
    """Run every job once; returns per-job wall and CPU time (the sampler's
    taken off), the speed factor of its samples (1.0 without a sampler),
    exit code and output."""
    done = []
    for job in jobs:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = "%d:%s" % (tag, job.key)
        if sampler is not None:
            sampler.sample()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with sampler or contextlib.nullcontext():
                    rc = cli.main(job.argv(seed))
            except Exception:
                # A crash is a failed job, reported with the rest.
                traceback.print_exc()
                rc = -1
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        factor = 1.0
        if sampler is not None:
            samples, busy = sampler.take()
            wall, cpu = wall - busy, cpu - busy
            factor = SpeedSampler.factor(samples)
        done.append({"job": job, "rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                     "wall": wall, "cpu": cpu, "factor": factor})
    return done


def check_pass(done, refs, inputs, seen, invbases) -> list[str]:
    """Check every output of one pass; returns one line per failed job.
    `seen` keeps each job's first counters and heads, which later passes of
    the run must repeat."""
    failures = []
    for d in done:
        job = d["job"]
        system, division = inputs[job.key]
        problems, counters, heads = check_job(
            job, d["rc"], d["out"], refs[job.key], system, division, invbases)
        first = seen.setdefault(job.key, {"counters": counters, "heads": heads})
        if (counters, heads) != (first["counters"], first["heads"]):
            problems.append("counters or heads differ between passes of one run")
        if problems:
            err = d["err"].strip().splitlines()[-1:]
            failures.append("%s: %s" % (job.key, "; ".join(problems + err)))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O", file=sys.stderr)
        return 2

    invbases = import_program()
    from invbases import cli

    refs = load_references()
    jobs = WORKLOADS[args.workload]
    inputs = {}
    for job in jobs:
        system = invbases.load_builtin(job.system, order=ORDER)
        inputs[job.key] = (system, invbases.division_by_name(job.division, system.vars))

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    sampler = SpeedSampler()

    rng = random.Random(args.seed)
    passes: list[dict] = []
    failures: list[str] = []
    seen: dict[str, dict] = {}
    attempted = 0
    rounds: list[float] = []
    start = time.perf_counter()
    # A round is one untraced pass, followed in the traced run by one pass
    # with span wrappers and one with count wrappers.  Start another round
    # only if it should end within the run's time.
    kinds = (None, "spans", "counts") if tracer is not None else (None,)
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        round_start = time.perf_counter()
        for kind in kinds:
            order = list(jobs)
            rng.shuffle(order)
            if kind is not None:
                tracer.install(kind)
            try:
                if kind is None:
                    done = run_pass(cli, order, args.seed, len(passes), sampler=sampler)
                else:
                    done = run_pass(cli, order, args.seed, len(passes), tracer)
            finally:
                if kind is not None:
                    tracer.uninstall()
            passes.append({
                "traced": kind,
                "wall": sum(d["wall"] for d in done),
                "cpu": sum(d["cpu"] for d in done),
                "norm": sum(d["wall"] * d["factor"] for d in done),
            })
            attempted += len(done)
            failures += check_pass(done, refs, inputs, seen, invbases)
        rounds.append(time.perf_counter() - round_start)

    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": passes,
        "jobs": seen,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        spanned = [p["wall"] for p in passes if p["traced"] == "spans"]
        untraced = [p["wall"] for p in passes if p["traced"] is None]
        metrics = tracer.layer_metrics(statistics.median(spanned), statistics.median(untraced))
        summary["layers"] = metrics
        summary["diagnostics"] = tracer.diagnostics_by_job()
        spans = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans)
        summary["spans_file"] = str(spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
