"""Benchmark harness: run completions over a grid and tabulate counters."""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .core import UsageError
from .division import division_by_name
# `nf_full` is not called here, but stays importable from this module: the
# benchmark's count tracer (perfbench/layers.py) wraps it under this name.
from .engine import (  # noqa: F401
    Stats,
    _InvolutiveReducer,
    inv_bas,
    inv_comp,
    nf_full,
)
from .oracles import buchberger_nf, is_groebner, is_involutive, random_ideal_member
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
    verify_samples: int = 10
    seed: int = 0


def resolve_system(name: str, order: str | None = None) -> SystemFile:
    """A system argument is a builtin name unless it points at a file."""
    if name.endswith(".sys") or "/" in name:
        return load_system_file(name, order=order)
    return load_builtin(name, order=order)


def verify_basis(
    basis,
    system: SystemFile,
    division,
    rng: random.Random | None = None,
    samples: int = 0,
) -> bool:
    """Independent validation of a completed basis: Gröbner property,
    involutivity, and (optionally) normal-form agreement on random ideal
    members."""
    order = system.order
    if not is_groebner(basis, order):
        return False
    if not is_involutive(basis, division, order):
        return False
    if rng is not None:
        reducer = _InvolutiveReducer(basis, division, order)
        for _ in range(samples):
            member = random_ideal_member(rng, system.polynomials, order)
            if not reducer.nf(member).is_zero:
                return False
            if not buchberger_nf(member, basis, order).is_zero:
                return False
    return True


def run_one(
    system: SystemFile,
    algorithm: str,
    division_name: str,
    verify: bool = False,
    rng: random.Random | None = None,
    verify_samples: int = 0,
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
        verified = verify_basis(result.basis, system, division, rng, verify_samples)
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
    rng = random.Random(config.seed)
    rows = []
    for name in config.systems:
        system = resolve_system(name, config.order)
        for algorithm in config.algorithms:
            for division_name in config.divisions:
                row, _ = run_one(
                    system,
                    algorithm,
                    division_name,
                    verify=config.verify,
                    rng=rng,
                    verify_samples=config.verify_samples,
                )
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
