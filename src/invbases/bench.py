"""Benchmark harness: run completions over a grid and tabulate counters."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import UsageError
from .division import division_by_name
from .engine import Stats, inv_bas, inv_comp, nf_full
from .oracles import buchberger_nf, is_groebner, is_involutive
from .systems import SystemFile, load_builtin, load_system_file

# The columns copied from `Stats` under the same name.
COUNTERS = ("reds", "c1", "c2", "f5", "super", "polys_loop", "polys_min", "max_deg")

COLUMNS = ("system", "algorithm", "division", "time_ms") + COUNTERS + ("verified",)

ALGORITHMS = ("invcomp", "invbas")


@dataclass(frozen=True)
class BenchRow:
    system: str
    algorithm: str
    division: str
    time_ms: float
    reds: int
    c1: int
    c2: int
    f5: int
    super: int
    polys_loop: int
    polys_min: int
    max_deg: int
    verified: bool | None

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
        return {col: getattr(self, col) for col in COLUMNS}


@dataclass
class BenchConfig:
    systems: list[str] = field(default_factory=list)
    algorithms: list[str] = field(default_factory=lambda: ["invcomp"])
    divisions: list[str] = field(default_factory=lambda: ["janet"])
    order: str | None = None
    verify: bool = False


def resolve_system(name: str, order: str | None = None) -> SystemFile:
    """A system argument is a builtin name unless it points at a file."""
    if name.endswith(".sys") or "/" in name:
        return load_system_file(name, order=order)
    return load_builtin(name, order=order)


def verify_basis(basis, system: SystemFile, division, rng=None, samples: int = 0) -> bool:
    """Independent validation of a completed basis G of the system's inputs F.

    True proves three things, checked in this order: G is a Gröbner basis
    (`is_groebner`), G is involutive for the division (`is_involutive`),
    and ⟨F⟩ ⊆ ⟨G⟩: every input has normal form zero modulo G, both
    involutive (`nf_full`) and classical (`buchberger_nf`).  Once G is
    Gröbner, f lies in ⟨G⟩ exactly when its normal form is zero, so one
    reduction per input decides the inclusion.  ⟨G⟩ ⊆ ⟨F⟩ is not checked:
    a basis of a larger ideal, such as [1], passes.

    `rng` and `samples` are ignored.  They remain so that callers written
    for the random ideal members this check once sampled still run
    (perfbench/record_refs.py passes both)."""
    order = system.order
    if not is_groebner(basis, order):
        return False
    if not is_involutive(basis, division, order):
        return False
    return all(
        nf_full(f, basis, division, order).is_zero and buchberger_nf(f, basis, order).is_zero
        for f in system.polynomials
    )


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
