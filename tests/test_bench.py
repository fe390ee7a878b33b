"""The benchmark harness: grid runs, verification, and table formatting."""
from __future__ import annotations

import importlib.util
import json
import random
import shutil
from pathlib import Path

import pytest

from invbases.bench import (
    COLUMNS,
    BenchConfig,
    BenchRow,
    format_stats,
    resolve_system,
    run_bench,
    run_one,
    verify_basis,
)
from invbases.core import Polynomial, UsageError
from invbases.division import division_by_name, janet
from invbases.engine import Stats, inv_comp
from invbases.systems import load_builtin

from conftest import WORKED_EXAMPLE


def make_row(**overrides):
    base = dict(
        system="s", algorithm="invcomp", division="janet", time_ms=1.25,
        reds=0, c1=1, c2=2, f5=3, super=4,
        polys_loop=5, polys_min=4, max_deg=6, verified=None,
    )
    base.update(overrides)
    return BenchRow(**base)


class TestResolveSystem:
    def test_builtin_name(self):
        assert resolve_system("cyclic3").name == "cyclic3"

    def test_path(self, tmp_path):
        path = tmp_path / "pair.sys"
        path.write_text(WORKED_EXAMPLE)
        sf = resolve_system(str(path))
        assert sf.name == "pair"
        assert len(sf.polynomials) == 2

    def test_order_passthrough(self):
        assert resolve_system("cyclic2", order="lex").order.kind == "lex"


class TestVerifyBasis:
    def test_accepts_a_completed_basis(self):
        sf = load_builtin("cyclic3")
        div = janet(sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order)
        assert verify_basis(r.basis, sf, div)

    def test_rejects_the_raw_input(self):
        sf = load_builtin("cyclic3")
        assert not verify_basis(sf.polynomials, sf, janet(sf.vars))

    @pytest.mark.parametrize("division_name", ("janet", "thomas", "alex"))
    @pytest.mark.parametrize("name", ("cyclic3", "katsura3", "noon3"))
    def test_rejects_the_basis_of_a_smaller_ideal(self, name, division_name):
        # The minimal basis of all inputs but the last is Gröbner and
        # involutive, but the last input does not reduce to zero modulo it.
        sf = load_builtin(name)
        div = division_by_name(division_name, sf.vars)
        smaller = inv_comp(sf.polynomials[:-1], div, sf.order).basis
        assert not verify_basis(smaller, sf, div)
        full = inv_comp(sf.polynomials, div, sf.order).basis
        assert verify_basis(full, sf, div)

    @pytest.mark.xfail(strict=True, reason="⟨G⟩ ⊆ ⟨F⟩ is unchecked (ROADMAP item 2c)")
    def test_rejects_the_basis_of_a_larger_ideal(self):
        sf = load_builtin("cyclic3")
        assert not verify_basis([Polynomial.one(sf.order)], sf, janet(sf.vars))

    def test_legacy_sampling_arguments_are_ignored(self):
        # perfbench/record_refs.py still passes an RNG and a sample count.
        sf = load_builtin("cyclic3")
        div = janet(sf.vars)
        for F in (sf.polynomials, sf.polynomials[:-1]):
            basis = inv_comp(F, div, sf.order).basis
            assert verify_basis(basis, sf, div, random.Random(0), samples=10) == (
                verify_basis(basis, sf, div)
            )


class TestRowFromStats:
    def test_columns_are_the_stats_counters_only(self):
        assert COLUMNS == (
            "system", "algorithm", "division", "time_ms", "reds", "c1", "c2", "f5",
            "super", "polys_loop", "polys_min", "max_deg", "verified",
        )

    def test_copies_every_counter_and_the_time(self):
        stats = Stats(reds=0, c1=1, c2=2, f5=3, super=4, polys_loop=5, polys_min=4,
                      max_deg=6, elapsed_ms=1.25)
        row = BenchRow.from_stats("s", "invcomp", "janet", stats, None)
        assert row == make_row()
        assert BenchRow.from_stats("s", "invcomp", "janet", stats, True) == make_row(verified=True)


class TestRunOne:
    def test_row_mirrors_the_stats(self):
        sf = load_builtin("cyclic3")
        row, basis = run_one(sf, "invcomp", "janet", verify=True)
        assert (row.system, row.algorithm, row.division) == ("cyclic3", "invcomp", "janet")
        assert (row.reds, row.c1, row.c2, row.f5, row.super) == (0, 3, 1, 0, 0)
        assert (row.polys_loop, row.polys_min, row.max_deg) == (4, 4, 5)
        assert row.verified is True
        assert row.time_ms >= 0
        assert len(basis) == row.polys_min

    def test_verification_defaults_to_unreported(self):
        sf = load_builtin("cyclic2")
        row, _ = run_one(sf, "invbas", "janet")
        assert row.verified is None
        assert row.algorithm == "invbas"

    def test_unknown_algorithm(self):
        with pytest.raises(UsageError):
            run_one(load_builtin("cyclic2"), "magic", "janet")


class TestRunBench:
    def test_grid_order_is_system_algorithm_division(self):
        config = BenchConfig(
            systems=["cyclic2", "cyclic3"],
            algorithms=["invcomp", "invbas"],
            divisions=["janet", "thomas"],
        )
        rows = run_bench(config)
        assert [(r.system, r.algorithm, r.division) for r in rows] == [
            ("cyclic2", "invcomp", "janet"),
            ("cyclic2", "invcomp", "thomas"),
            ("cyclic2", "invbas", "janet"),
            ("cyclic2", "invbas", "thomas"),
            ("cyclic3", "invcomp", "janet"),
            ("cyclic3", "invcomp", "thomas"),
            ("cyclic3", "invbas", "janet"),
            ("cyclic3", "invbas", "thomas"),
        ]

    def test_verified_grid(self):
        config = BenchConfig(systems=["katsura2"], verify=True)
        rows = run_bench(config)
        assert [r.verified for r in rows] == [True]

    def test_empty_grid_is_rejected(self):
        with pytest.raises(UsageError):
            run_bench(BenchConfig())


class TestFormatStats:
    def test_tsv_cells(self):
        text = format_stats([make_row(verified=True)], "tsv")
        header, line = text.splitlines()
        assert header.split("\t")[0] == "system"
        assert line.split("\t") == [
            "s", "invcomp", "janet", "1.2", "0", "1", "2", "3", "4", "5", "4", "6", "yes",
        ]

    def test_tsv_none_and_false_cells(self):
        text = format_stats([make_row(), make_row(verified=False)], "tsv")
        lines = text.splitlines()
        assert lines[1].endswith("\t-")
        assert lines[2].endswith("\tno")

    def test_json_round_trip(self):
        payload = json.loads(format_stats([make_row()], "json"))
        assert payload == [make_row().as_dict()]

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            format_stats([], "csv")


ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    path = ROOT / "scripts" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchGridCompare:
    """`scripts/bench_grid.py --compare` checks the counters and, where both
    files carry one, the digest of the printed basis."""

    def write(self, path, **extra):
        row = make_row().as_dict()
        row.update(extra)
        path.write_text(json.dumps({"rows": [row]}))
        return str(path)

    @pytest.mark.parametrize(
        "old, new, code",
        [
            ({}, {}, 0),
            ({}, {"basis_sha256": "a"}, 0),
            ({"basis_sha256": "a"}, {"basis_sha256": "a", "time_ms": 9.0}, 0),
            ({"basis_sha256": "a"}, {"basis_sha256": "b"}, 1),
            ({"basis_sha256": "a"}, {"basis_sha256": "a", "reds": 7}, 1),
        ],
        ids=["no-digests", "one-digest", "same-digest", "other-digest", "other-counter"],
    )
    def test_exit_code(self, tmp_path, capsys, old, new, code):
        grid = load_script("bench_grid")
        argv = ["--compare", self.write(tmp_path / "old.json", **old),
                self.write(tmp_path / "new.json", **new)]
        assert grid.main(argv) == code
        assert ("DIFFER" in capsys.readouterr().out) == (code == 1)


class TestCompareOutputs:
    """`scripts/compare_outputs.py` runs each job against two trees and
    compares what they print."""

    JOBS = (("--system", "cyclic3", "--division", "janet", "--algorithm", "invbas"),
            ("--system", "cyclic3", "--division", "thomas", "--cofactors"))

    def test_the_tree_matches_itself(self, capsys):
        script = load_script("compare_outputs")
        src = str(ROOT / "src")
        assert script.compare(src, src, self.JOBS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines[:-1]] == ["same", "same"]
        assert lines[-1] == "0 of 2 jobs differ or fail"

    def test_a_run_prints_the_cli_output_and_the_result(self):
        script = load_script("compare_outputs")
        status, out = script.job_output(str(ROOT / "src"), self.JOBS[1])
        assert status == 0
        assert '"time_ms": "*"' in out and "exit: 0" in out
        for part in ("loop basis: ['x1 + x2 + x3'", "diagnostics: {", "record: 3 (0, 0, 0)"):
            assert part in out

    def test_a_changed_output_or_a_crash_is_reported(self, tmp_path, capsys):
        script = load_script("compare_outputs")
        changed = tmp_path / "changed"
        shutil.copytree(ROOT / "src" / "invbases", changed / "invbases")
        cli = changed / "invbases" / "cli.py"
        cli.write_text(cli.read_text().replace("# cofactor decompositions", "# cofactors"))
        assert script.compare(str(ROOT / "src"), str(changed), self.JOBS) == 1
        assert script.compare(str(ROOT / "src"), str(tmp_path / "empty"), self.JOBS[:1]) == 1
        verdicts = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
        assert [v for v in verdicts if v in ("same", "DIFFER", "FAIL")] == ["same", "DIFFER", "FAIL"]
