"""Benchmark harness: run completions over a grid and tabulate counters."""
from __future__ import annotations

import json
from collections import namedtuple

from .core import UsageError
from .division import division_by_name
from .engine import COUNTERS, Stats, inv_bas, inv_comp
from .engine import nf_full  # noqa: F401  unused; perfbench/layers.py counts it (ROADMAP 1(c))
from .oracles import buchberger_nf, is_involutive
from .oracles import is_groebner  # noqa: F401  unused; perfbench/layers.py spans it (ROADMAP 1(c))
from .systems import SystemFile, load_builtin, load_system_file

COLUMNS = ("system", "algorithm", "division", "time_ms") + COUNTERS + ("verified",)

ALGORITHMS = ("invcomp", "invbas")


class BenchRow(namedtuple("BenchRow", COLUMNS)):
    """One row of the grid: a completion run's time, counters and verdict."""

    __slots__ = ()

    @classmethod
    def from_stats(
        cls, system: str, algorithm: str, division: str, stats: Stats, verified: bool | None
    ) -> BenchRow:
        """The row of one completion run, its counters taken from `stats`."""
        return cls(
            system=system,
            algorithm=algorithm,
            division=division,
            time_ms=stats.elapsed_ms,
            verified=verified,
            **{col: getattr(stats, col) for col in COUNTERS},
        )

    def as_dict(self) -> dict:
        return self._asdict()


class BenchConfig:
    """The grid to run: every system under every algorithm and division."""

    __slots__ = ("systems", "algorithms", "divisions", "order", "verify")

    def __init__(
        self,
        systems: list[str] | None = None,
        algorithms: list[str] | None = None,
        divisions: list[str] | None = None,
        order: str | None = None,
        verify: bool = False,
    ):
        self.systems = [] if systems is None else systems
        self.algorithms = ["invcomp"] if algorithms is None else algorithms
        self.divisions = ["janet"] if divisions is None else divisions
        self.order = order
        self.verify = verify


def resolve_system(name: str, order: str | None = None) -> SystemFile:
    """A system argument is a builtin name unless it points at a file."""
    if name.endswith(".sys") or "/" in name:
        return load_system_file(name, order=order)
    return load_builtin(name, order=order)


def verify_basis(basis, system: SystemFile, division, rng=None, samples: int = 0) -> bool:
    """Independent validation of a completed basis G of the system's inputs F.

    True proves two things, checked in this order: G is an involutive
    basis for the division (`is_involutive`, which proves G Gröbner
    first), and ⟨F⟩ ⊆ ⟨G⟩: every input has Buchberger normal form zero
    modulo G (`buchberger_nf`).  Once G is Gröbner, f lies in ⟨G⟩ exactly
    when its normal form is zero, so one reduction per input decides the
    inclusion.  ⟨G⟩ ⊆ ⟨F⟩ is not checked: a basis of a larger ideal, such
    as [1], passes.

    `rng` and `samples` are ignored.  They remain so that callers written
    for the random ideal members this check once sampled still run
    (perfbench/record_refs.py passes both)."""
    order = system.order
    if not is_involutive(basis, division, order):
        return False
    return all(buchberger_nf(f, basis, order).is_zero for f in system.polynomials)


def run_one(
    system: SystemFile,
    algorithm: str,
    division_name: str,
    verify: bool = False,
) -> tuple[BenchRow, list]:
    division = division_by_name(division_name, system.vars)
    if algorithm == "invcomp":
        result = inv_comp(system.polynomials, division, system.order)
    elif algorithm == "invbas":
        result = inv_bas(system.polynomials, division, system.order)
    else:
        raise UsageError(
            "unknown algorithm %r (expected one of %s)" % (algorithm, ", ".join(ALGORITHMS))
        )
    verified: bool | None = None
    if verify:
        verified = verify_basis(result.basis, system, division)
    row = BenchRow.from_stats(system.name, algorithm, division_name, result.stats, verified)
    return row, result.basis


def run_bench(config: BenchConfig) -> list[BenchRow]:
    for what, names in (
        ("system", config.systems),
        ("algorithm", config.algorithms),
        ("division", config.divisions),
    ):
        if not names:
            raise UsageError("benchmark needs at least one %s" % what)
    rows = []
    for name in config.systems:
        system = resolve_system(name, config.order)
        for algorithm in config.algorithms:
            for division_name in config.divisions:
                row, _ = run_one(system, algorithm, division_name, verify=config.verify)
                rows.append(row)
    return rows


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.1f" % value
    return str(value)


def format_stats(rows, fmt: str = "tsv") -> str:
    rows = list(rows)
    if fmt == "tsv":
        lines = ["\t".join(COLUMNS)]
        for row in rows:
            lines.append("\t".join(_cell(getattr(row, col)) for col in COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = []
        for row in rows:
            d = row.as_dict()
            d["time_ms"] = round(d["time_ms"], 3)
            payload.append(d)
        return json.dumps(payload, indent=2) + "\n"
    raise UsageError("unknown stats format %r (expected tsv or json)" % fmt)
