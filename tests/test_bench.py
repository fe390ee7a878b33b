"""The benchmark harness: grid runs, verification, and table formatting."""
from __future__ import annotations

import json
import random

import pytest

from invbases.bench import (
    BenchConfig,
    BenchRow,
    format_stats,
    resolve_system,
    run_bench,
    run_one,
    verify_basis,
)
from invbases.core import UsageError
from invbases.division import Division, janet
from invbases.engine import EngineOptions, Stats, inv_comp
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
        assert verify_basis(r.basis, sf, div, random.Random(1), samples=5)

    def test_rejects_the_raw_input(self):
        sf = load_builtin("cyclic3")
        assert not verify_basis(sf.polynomials, sf, janet(sf.vars))

    def test_random_members_share_one_partition(self, monkeypatch):
        sf = load_builtin("cyclic3")
        div = janet(sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order)
        calls = []
        partition = Division.partition

        def counted(division, U):
            calls.append(len(U))
            return partition(division, U)

        monkeypatch.setattr(Division, "partition", counted)
        assert verify_basis(r.basis, sf, div, random.Random(1), samples=5)
        # One for the involutivity check, one for all five random members.
        assert calls == [len(r.basis)] * 2


class TestRowFromStats:
    def test_copies_every_counter_and_the_time(self):
        stats = Stats(reds=0, c1=1, c2=2, f5=3, super=4, polys_loop=5, polys_min=4,
                      max_deg=6, elapsed_ms=1.25)
        row = BenchRow.from_stats("s", "invcomp", "janet", stats, None)
        assert row == make_row()
        assert BenchRow.from_stats("s", "invcomp", "janet", stats, True) == make_row(verified=True)


class TestRunOne:
    def test_row_mirrors_the_stats(self):
        sf = load_builtin("cyclic3")
        row, basis = run_one(sf, "invcomp", "janet", verify=True,
                             rng=random.Random(0), verify_samples=3)
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

    def test_options_are_honoured(self):
        sf = load_builtin("cyclic3")
        row, basis = run_one(
            sf, "invcomp", "janet",
            options=EngineOptions(use_syzygy_signatures=True),
        )
        assert len(basis) == row.polys_min


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
        config = BenchConfig(systems=["katsura2"], verify=True, verify_samples=2)
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
