"""Record the fixed benchmark grid into a BENCH_*.json file, or compare two.

    python scripts/bench_grid.py BENCH_N.json
    python scripts/bench_grid.py --compare BENCH_0.json BENCH_1.json

The first form runs each job of the grid below once, as ``invbases bench
--algorithms invcomp,invbas --stats json`` runs it (``bench.run_one``), with
the package from the ``src/`` next to this script.  Each row holds the
bench columns and ``basis_sha256``, the SHA-256 of the minimal basis as
``invbases compute`` prints it.  When the file exists, the new run is
folded into it: every counter and the digest must equal the recorded ones,
and each row keeps its lowest ``time_ms``.  Run it three times for a
best-of-3 file.

The second form prints each row's time change and exits 1 when any counter
differs between the two files, or when both rows carry a digest and the
digests differ (files recorded before the digests carry none).
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invbases.bench import resolve_system, run_one  # noqa: E402
from invbases.systems import render_system, with_polynomials  # noqa: E402

GRID = {
    "janet": ["cyclic5", "katsura5", "trinks", "weispfenning94", "katsura6",
              "cyclic6", "eco7", "katsura7", "noon3"],
    "alex": ["katsura4", "noon3", "katsura5"],
    "thomas": ["cyclic4", "noon3", "katsura4", "cyclic5"],
}
COMMAND = "invbases bench --systems S --algorithms invcomp,invbas --divisions D --stats json"
DIGEST = "basis_sha256"


def _row_id(row: dict) -> tuple:
    return row["system"], row["algorithm"], row["division"]


def _counters(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("time_ms", DIGEST)}


def _basis(a: dict, b: dict) -> str:
    """The basis cell of two rows: same or DIFFER by their digests, - when
    one of them has none."""
    if DIGEST not in a or DIGEST not in b:
        return "-"
    return "same" if a[DIGEST] == b[DIGEST] else "DIFFER"


def run_grid() -> list[dict]:
    rows = []
    for division, names in GRID.items():
        for name in names:
            system = resolve_system(name)
            for algorithm in ("invcomp", "invbas"):
                bench_row, basis = run_one(system, algorithm, division)
                row = bench_row.as_dict()
                row["time_ms"] = round(row["time_ms"], 3)
                printed = render_system(with_polynomials(system, basis))
                row[DIGEST] = hashlib.sha256(printed.encode()).hexdigest()
                rows.append(row)
    return rows


def record(path: Path) -> None:
    rows = run_grid()
    if path.exists():
        kept = json.loads(path.read_text())
        old = {_row_id(r): r for r in kept["rows"]}
        if set(old) != {_row_id(r) for r in rows}:
            raise SystemExit("%s holds another grid" % path)
        for row in rows:
            prev = old[_row_id(row)]
            if _counters(prev) != _counters(row) or _basis(prev, row) == "DIFFER":
                raise SystemExit("counters or basis changed between runs: %r" % (_row_id(row),))
            row["time_ms"] = min(row["time_ms"], prev["time_ms"])
        runs = kept["runs"] + 1
    else:
        runs = 1
    payload = {
        "command": COMMAND,
        "grid": GRID,
        "order": "degrevlex",
        "runs": runs,
        "time": "lowest time_ms over the runs",
        "python": platform.python_version(),
        "rows": rows,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print("%s: %d rows, best of %d" % (path, len(rows), runs))


def compare(old_path: Path, new_path: Path) -> int:
    old = {_row_id(r): r for r in json.loads(old_path.read_text())["rows"]}
    new = {_row_id(r): r for r in json.loads(new_path.read_text())["rows"]}
    differ = 0
    print("system\talgorithm\tdivision\told_ms\tnew_ms\tdelta\tcounters\tbasis")
    for rid, a in old.items():
        b = new.get(rid)
        if b is None:
            print("%s\t%s\t%s\tmissing in %s" % (*rid, new_path))
            differ += 1
            continue
        same = _counters(a) == _counters(b)
        basis = _basis(a, b)
        differ += not same or basis == "DIFFER"
        delta = (b["time_ms"] - a["time_ms"]) / a["time_ms"] if a["time_ms"] else 0.0
        print("%s\t%s\t%s\t%.1f\t%.1f\t%+.1f%%\t%s\t%s" % (
            *rid, a["time_ms"], b["time_ms"], 100 * delta, "same" if same else "DIFFER", basis))
    total_a = sum(r["time_ms"] for r in old.values())
    total_b = sum(new[rid]["time_ms"] for rid in old if rid in new)
    print("total\t\t\t%.1f\t%.1f\t%+.1f%%" % (total_a, total_b, 100 * (total_b - total_a) / total_a))
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 1 and not argv[0].startswith("-"):
        record(Path(argv[0]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
