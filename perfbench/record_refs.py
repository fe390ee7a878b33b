"""Record the reference outputs the benchmark checks against.

For every job of every workload this completes the system with `inv_comp`,
runs the full independent verification (`verify_basis`: Gröbner property,
involutivity and ten random ideal members), and stores the minimal basis
heads, the `--stats` counters and the engine diagnostics.  Run it only when
a change is meant to alter the minimal bases or to re-baseline counters:

    python3 perfbench/record_refs.py

It rewrites perfbench/references.json with every job; a job whose basis
fails verification is not recorded and the script exits with status 1.
"""
from __future__ import annotations

import json
import random
import sys
import time

from checkout import import_program
from workloads import DIAGNOSTICS, ORDER, REFERENCES, STAT_COUNTERS, all_jobs


def record(job, invbases) -> dict | None:
    system = invbases.load_builtin(job.system, order=ORDER)
    division = invbases.division_by_name(job.division, system.vars)
    start = time.perf_counter()
    result = invbases.inv_comp(system.polynomials, division, system.order)
    completed = time.perf_counter()
    from invbases.bench import verify_basis

    ok = verify_basis(result.basis, system, division, random.Random(0), samples=10)
    verified = time.perf_counter()
    print(
        "%-32s complete %.1fs  verify %.1fs  %s"
        % (job.key, completed - start, verified - completed, "ok" if ok else "FAILED"),
        flush=True,
    )
    if not ok:
        return None
    stats = result.stats
    return {
        "heads": [list(p.lm.exps) for p in result.basis],
        "counters": {name: getattr(stats, name) for name in STAT_COUNTERS},
        "diagnostics": {name: result.diagnostics[name] for name in DIAGNOSTICS},
    }


def write(refs: dict) -> None:
    """One job per line, so a re-recorded job shows as a one-line diff."""
    body = ",\n".join(
        "%s: %s" % (json.dumps(key), json.dumps(refs[key], sort_keys=True)) for key in sorted(refs)
    )
    REFERENCES.write_text("{\n" + body + "\n}\n")


def main() -> int:
    invbases = import_program()
    refs = {}
    status = 0
    for job in all_jobs():
        entry = record(job, invbases)
        if entry is None:
            status = 1
            continue
        refs[job.key] = entry
        write(refs)
    return status


if __name__ == "__main__":
    sys.exit(main())
