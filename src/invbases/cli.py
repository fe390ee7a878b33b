"""Command-line interface.

``invbases compute`` completes one system and prints the minimal basis in
the same file format the tool reads; ``invbases bench`` runs a grid of
systems, algorithms and divisions and prints a statistics table.  Exit
codes: 0 on success, 1 when a requested verification fails, 2 on usage or
parse errors.
"""
from __future__ import annotations

import argparse
import sys

from .bench import (
    ALGORITHMS,
    BenchConfig,
    BenchRow,
    format_stats,
    run_bench,
    verify_basis,
)
from .core import UsageError, render_monomial, render_polynomial
from .division import DIVISION_NAMES, division_by_name
from .engine import EngineOptions, inv_bas, inv_comp
from .oracles import admissibility_check, expand_cofactors
from .systems import load_builtin, load_system_file, render_system, with_polynomials


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invbases",
        description="Minimal involutive bases of polynomial ideals over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="complete one system and print the basis")
    src = compute.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a system file")
    src.add_argument("--system", help="built-in system name (cyclicN, katsuraN, ...)")
    _common_flags(compute)
    compute.add_argument(
        "--cofactors",
        action="store_true",
        help="track and print how each basis insertion combines the inputs",
    )
    compute.add_argument(
        "--stats",
        choices=("tsv", "json"),
        help="append a one-row statistics table in this format",
    )

    bench = sub.add_parser("bench", help="run a grid of completions and tabulate stats")
    bench.add_argument(
        "--systems",
        required=True,
        help="comma-separated system names or .sys paths",
    )
    _common_flags(bench, multi=True)
    bench.add_argument(
        "--stats",
        choices=("tsv", "json"),
        default="tsv",
        help="statistics output format (default tsv)",
    )
    return parser


def _common_flags(cmd: argparse.ArgumentParser, multi: bool = False) -> None:
    if multi:
        cmd.add_argument(
            "--algorithms",
            default="invcomp",
            help="comma-separated subset of: %s" % ",".join(ALGORITHMS),
        )
        cmd.add_argument(
            "--divisions",
            default="janet",
            help="comma-separated subset of: %s" % ",".join(DIVISION_NAMES),
        )
    else:
        cmd.add_argument("--algorithm", choices=ALGORITHMS, default="invcomp")
        cmd.add_argument("--division", choices=DIVISION_NAMES, default="janet")
    cmd.add_argument(
        "--order",
        choices=("lex", "degrevlex"),
        help="monomial ordering (default: the system's order line, else degrevlex)",
    )
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="check that the basis is Gröbner and involutive and that it reduces "
        "every input to zero (it does not check that the basis generates no "
        "more than the inputs); failures exit with status 1",
    )
    cmd.add_argument(
        "--seed",
        type=int,
        default=0,
        help="ignored: --verify samples nothing; accepted so that older scripts still run",
    )


def _cmd_compute(args) -> int:
    if args.cofactors and args.algorithm != "invcomp":
        raise UsageError("--cofactors needs --algorithm invcomp: only it tracks cofactors")
    if args.input is not None:
        system = load_system_file(args.input, order=args.order)
    else:
        system = load_builtin(args.system, order=args.order)
    division = division_by_name(args.division, system.vars)
    if args.algorithm == "invcomp":
        options = EngineOptions(track_cofactors=args.cofactors)
        result = inv_comp(system.polynomials, division, system.order, options)
    else:
        result = inv_bas(system.polynomials, division, system.order)

    print(render_system(with_polynomials(system, result.basis)), end="")

    if args.cofactors:
        print("# cofactor decompositions over the sorted monic input")
        for rec in result.cofactor_records:
            ok = admissibility_check(rec.cofactors, rec.sig, system.order)
            if expand_cofactors(rec.cofactors, result.sorted_input) != rec.poly:
                raise AssertionError("cofactor decomposition does not reproduce its element")
            print(
                "cofactor: sig = %s  element = %s  admissible = %s"
                % (_sig_text(rec.sig, system), render_polynomial(rec.poly), "yes" if ok else "no")
            )
            for i, c in enumerate(rec.cofactors):
                if not c.is_zero:
                    print("  g%d: %s" % (i + 1, render_polynomial(c)))

    verified: bool | None = None
    if args.verify:
        verified = verify_basis(result.basis, system, division)

    if args.stats:
        row = BenchRow.from_stats(
            system.name, args.algorithm, args.division, result.stats, verified
        )
        print(format_stats([row], args.stats), end="")

    if args.verify and not verified:
        print("verification FAILED for %s" % system.name, file=sys.stderr)
        return 1
    return 0


def _sig_text(sig, system) -> str:
    mono = render_monomial(sig.mono, system.vars.names) or "1"
    return "%s*e%d" % (mono, sig.index)


def _cmd_bench(args) -> int:
    config = BenchConfig(
        systems=[s for s in args.systems.split(",") if s],
        algorithms=[a for a in args.algorithms.split(",") if a],
        divisions=[d for d in args.divisions.split(",") if d],
        order=args.order,
        verify=args.verify,
    )
    rows = run_bench(config)
    print(format_stats(rows, args.stats), end="")
    if args.verify and any(row.verified is False for row in rows):
        print("verification FAILED for at least one run", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_bench(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
