"""Record the fixed benchmark grid into a BENCH_*.json file, or compare two.

    python scripts/bench_grid.py BENCH_N.json
    python scripts/bench_grid.py --compare BENCH_0.json BENCH_1.json

The first form runs ``invbases bench --algorithms invcomp,invbas --stats
json`` once over the grid below, one call per division, with the package
from the ``src/`` next to this script.  When the file exists, the new run
is folded into it: every counter must equal the recorded one, and each row
keeps its lowest ``time_ms``.  Run it three times for a best-of-3 file.

The second form prints each row's time change and exits 1 when any counter
differs between the two files.
"""
from __future__ import annotations

import io
import json
import platform
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invbases import cli  # noqa: E402

GRID = {
    "janet": ["cyclic5", "katsura5", "trinks", "weispfenning94", "katsura6",
              "cyclic6", "eco7", "katsura7", "noon3"],
    "alex": ["katsura4", "noon3", "katsura5"],
    "thomas": ["cyclic4", "noon3", "katsura4", "cyclic5"],
}
COMMAND = "invbases bench --systems S --algorithms invcomp,invbas --divisions D --stats json"


def _row_id(row: dict) -> tuple:
    return row["system"], row["algorithm"], row["division"]


def _counters(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "time_ms"}


def run_grid() -> list[dict]:
    rows = []
    for division, systems in GRID.items():
        argv = ["bench", "--systems", ",".join(systems), "--algorithms", "invcomp,invbas",
                "--divisions", division, "--stats", "json"]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit("bench exited %d for %s" % (code, division))
        rows += json.loads(buf.getvalue())
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
            if _counters(prev) != _counters(row):
                raise SystemExit("counters changed between runs: %r" % (_row_id(row),))
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
    print("system\talgorithm\tdivision\told_ms\tnew_ms\tdelta\tcounters")
    for rid, a in old.items():
        b = new.get(rid)
        if b is None:
            print("%s\t%s\t%s\tmissing in %s" % (*rid, new_path))
            differ += 1
            continue
        same = _counters(a) == _counters(b)
        differ += not same
        delta = (b["time_ms"] - a["time_ms"]) / a["time_ms"] if a["time_ms"] else 0.0
        print("%s\t%s\t%s\t%.1f\t%.1f\t%+.1f%%\t%s" % (
            *rid, a["time_ms"], b["time_ms"], 100 * delta, "same" if same else "DIFFER"))
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
