"""Check one `invbases compute` job's printed output against its reference.

The heads of a minimal involutive basis are unique for a given system,
division and ordering, so the printed basis must carry exactly the recorded
head set; and every input generator must reduce to zero against it (the
basis lies in the ideal and generates it).  On `--verify` jobs the printed
`verified` flag must be true.  Counters are returned for the report, not
checked: a change may alter them on purpose.
"""
from __future__ import annotations

import json

from workloads import STAT_COUNTERS


def split_output(out: str) -> tuple[str, str]:
    """The printed system text and the `--stats json` text after it."""
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("["):
            return "".join(lines[:i]), "".join(lines[i:])
    return out, ""


def check_job(job, rc: int, out: str, ref: dict, system, division, invbases):
    """Returns (problems, counters, heads) for one finished job."""
    problems: list[str] = []
    if rc != 0:
        problems.append("exit code %d" % rc)
    system_text, stats_text = split_output(out)
    counters: dict = {}
    heads: list = []
    try:
        stats = json.loads(stats_text)[0]
    except (ValueError, IndexError) as exc:
        problems.append("unreadable --stats json: %s" % exc)
    else:
        counters = {name: stats[name] for name in STAT_COUNTERS}
        if job.verify and stats["verified"] is not True:
            problems.append("printed verified = %r" % (stats["verified"],))
    try:
        basis = invbases.parse_system(system_text, job.system).polynomials
    except invbases.UsageError as exc:
        problems.append("printed basis does not parse: %s" % exc)
        return problems, counters, heads
    heads = sorted(tuple(p.lm.exps) for p in basis)
    want = sorted(tuple(h) for h in ref["heads"])
    if heads != want:
        problems.append(
            "basis heads differ from the reference (%d printed, %d expected)"
            % (len(heads), len(want))
        )
    for g in system.polynomials:
        if not invbases.nf_full(g, basis, division, system.order).is_zero:
            problems.append("an input generator does not reduce to zero")
            break
    return problems, counters, heads
