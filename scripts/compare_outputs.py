"""Check that two source trees of the package give the same outputs.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an ``invbases`` package (the
``src/`` of two checkouts).  Each job of ``JOBS`` runs once against each
tree, each run in a fresh interpreter that imports the package from that
tree only.  A run prints the output of ``invbases compute ARGS --stats
json`` with ``time_ms`` masked, the exit status, and from the completion
result the CLI computed: the loop basis, ``result.diagnostics`` and the
cofactor records.  The script prints one line per job (``same``,
``DIFFER`` or ``FAIL`` when a run crashed) and exits 1 unless every job is
``same``.

The jobs: the 32 jobs of ``scripts/bench_grid.py``'s grid; ``--verify`` on
cyclic4, noon3, katsura4 and weispfenning94 under every division and both
algorithms; ``--cofactors`` and ``--order lex`` on cyclic4, katsura3 and
noon3 under every division.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_grid import GRID  # noqa: E402

DIVISIONS = ("janet", "thomas", "alex")
ALGORITHMS = ("invcomp", "invbas")


def _job(system: str, division: str, algorithm: str = "invcomp", *extra: str) -> tuple:
    return ("--system", system, "--division", division, "--algorithm", algorithm) + extra


JOBS = (
    [_job(s, d, a) for d, names in GRID.items() for s in names for a in ALGORITHMS]
    + [
        _job(s, d, a, "--verify")
        for s in ("cyclic4", "noon3", "katsura4", "weispfenning94")
        for d in DIVISIONS
        for a in ALGORITHMS
    ]
    + [
        _job(s, d, "invcomp", flag, *value)
        for flag, *value in (("--cofactors",), ("--order", "lex"))
        for s in ("cyclic4", "katsura3", "noon3")
        for d in DIVISIONS
    ]
)

# Run in the child: the CLI, with its completion calls wrapped so that the
# result it printed can be printed further.
CHILD = r"""
import contextlib, io, re, sys
sys.path.insert(0, sys.argv[1])
from invbases import cli
from invbases.core import render_polynomial

results = []

def keep(complete):
    def run(*args, **kwargs):
        results.append(complete(*args, **kwargs))
        return results[-1]
    return run

cli.inv_comp, cli.inv_bas = keep(cli.inv_comp), keep(cli.inv_bas)
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    status = cli.main(["compute", *sys.argv[2:], "--stats", "json"])
print(re.sub(r'"time_ms": [-+.0-9eE]+', '"time_ms": "*"', out.getvalue()), end="")
print("exit:", status)
(result,) = results
print("loop basis:", [render_polynomial(p) for p in result.loop_basis])
print("diagnostics:", result.diagnostics)
for rec in result.cofactor_records:
    print("record:", rec.sig.index, rec.sig.mono.exps, render_polynomial(rec.poly),
          [render_polynomial(c) for c in rec.cofactors])
"""


def job_output(src: str, job: tuple) -> tuple[int, str]:
    """The exit status and output of one job's run against the tree src."""
    run = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(Path(src).resolve()), *job],
        capture_output=True,
        text=True,
    )
    return run.returncode, run.stdout + run.stderr


def compare(old_src: str, new_src: str, jobs=JOBS) -> int:
    """Print one line per job; 0 when every job gives the same output."""
    bad = 0
    for job in jobs:
        (old_status, old), (new_status, new) = job_output(old_src, job), job_output(new_src, job)
        if old_status or new_status:
            verdict = "FAIL"
        else:
            verdict = "same" if old == new else "DIFFER"
        bad += verdict != "same"
        print("%s\t%s" % (verdict, " ".join(job)), flush=True)
        if verdict == "FAIL":
            for side, status, text in (("old", old_status, old), ("new", new_status, new)):
                if status:
                    print("  %s run, status %d: %s" % (side, status, text.strip()[-500:]))
    print("%d of %d jobs differ or fail" % (bad, len(jobs)))
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
