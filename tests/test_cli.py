"""The command-line interface, driven through main() with captured output."""
from __future__ import annotations

import hashlib
import json

import pytest

from invbases.cli import main

from conftest import WORKED_EXAMPLE

TSV_HEADER = (
    "system\talgorithm\tdivision\ttime_ms\treds\tc1\tc2\tf5\tsuper"
    "\tpolys_loop\tpolys_min\tmax_deg\tverified"
)


@pytest.fixture()
def worked_file(tmp_path):
    path = tmp_path / "pair.sys"
    path.write_text(WORKED_EXAMPLE)
    return str(path)


class TestCompute:
    def test_builtin_system_with_verification(self, capsys):
        rc = main(["compute", "--system", "cyclic3", "--verify", "--stats", "tsv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("vars: x1 x2 x3\norder: degrevlex\n")
        lines = out.splitlines()
        stats = [l for l in lines if l.startswith("cyclic3\t")]
        assert len(stats) == 1
        assert stats[0].startswith("cyclic3\tinvcomp\tjanet\t")
        assert stats[0].endswith("\tyes")
        assert TSV_HEADER in lines

    def test_input_file_prints_the_minimal_basis(self, worked_file, capsys):
        rc = main(["compute", "--input", worked_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == (
            "vars: x y\n"
            "order: lex\n"
            "p: y^3\n"
            "p: x*y + 3/2*y^2\n"
            "p: x^2 - 3/2*y^2\n"
        )

    def test_cofactor_report(self, worked_file, capsys):
        rc = main(["compute", "--input", worked_file, "--cofactors"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# cofactor decompositions over the sorted monic input" in out
        assert "cofactor: sig = 1*e2  element = x*y + 3/2*y^2  admissible = yes" in out
        assert "cofactor: sig = y*e1  element = y^3  admissible = yes" in out
        assert "  g1: 4/3*y" in out
        assert "  g2: -4/3*x + 2*y" in out

    def test_json_stats(self, capsys):
        rc = main(["compute", "--system", "katsura2", "--stats", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out[out.index("["):])
        assert len(payload) == 1
        row = payload[0]
        assert row["system"] == "katsura2"
        assert row["algorithm"] == "invcomp"
        assert row["division"] == "janet"
        assert row["verified"] is None
        for key in ("time_ms", "reds", "c1", "c2", "f5", "super",
                    "polys_loop", "polys_min", "max_deg"):
            assert key in row
        # The engine's diagnostics live in `Stats` but are no column.
        assert list(row) == TSV_HEADER.split("\t")

    def test_order_override(self, capsys):
        rc = main(["compute", "--system", "cyclic2", "--order", "lex"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "order: lex\n" in out

    def test_alternative_algorithm_and_division(self, capsys):
        rc = main([
            "compute", "--system", "cyclic2",
            "--algorithm", "invbas", "--division", "thomas", "--verify",
        ])
        assert rc == 0
        assert "order: degrevlex\n" in capsys.readouterr().out

    def test_seed_is_ignored(self, capsys):
        outs = []
        for seed in ("0", "7"):
            rc = main(["compute", "--system", "cyclic3", "--verify", "--stats", "json",
                       "--seed", seed])
            out = capsys.readouterr().out
            assert rc == 0
            start = out.index("[")
            payload = json.loads(out[start:])
            for row in payload:
                row["time_ms"] = None
            outs.append((out[:start], payload))
        assert outs[0] == outs[1]
        assert outs[0][1][0]["verified"] is True


# sha256 of the whole stdout of `compute` with these flags.  Counters and
# heads are pinned in tests/test_engine.py; these pins catch any change to a
# printed coefficient or cofactor as well.  Change them only with a change
# that sets out to print different bases.
PINNED_OUTPUTS = {
    ("cyclic4", "janet", "invcomp"):
        "7365b1cd8e26149ad6874b20d81c5df1a46485765286eae3c247ee5be201ecba",
    ("cyclic4", "janet", "invbas"):
        "7365b1cd8e26149ad6874b20d81c5df1a46485765286eae3c247ee5be201ecba",
    ("noon3", "thomas", "invcomp"):
        "8f25d7a5dc3369bbfc263b822b4159d074e751d5108860b71c9ac36b4db6e90c",
    ("noon3", "thomas", "invbas"):
        "ab6241d21d885063a8b224e55c9690526ab259f5aaebf33a044456508e41ff3c",
    ("katsura3", "alex", "cofactors"):
        "4983d7787b6c0dcecee1089b5998568c6caf6454dc80320753352b6276b437bf",
    # Alex reaches the deflection and head-reduction paths of `inv_comp` and
    # the displacement path of `inv_bas`.
    ("katsura4", "alex", "invcomp"):
        "222a64d7612087a3cdf0e39d9823218c91298417bb39dd80c93d4b63718cbc73",
    ("noon3", "alex", "invbas"):
        "feba6814b4d075e16bc30363cbcf27ec05b0cde0a3de3abace8ef275f4982d48",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name, division_name, mode", sorted(PINNED_OUTPUTS))
    def test_printed_output(self, name, division_name, mode, capsys):
        flags = ["--cofactors"] if mode == "cofactors" else ["--algorithm", mode]
        rc = main(["compute", "--system", name, "--division", division_name, *flags])
        out = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[name, division_name, mode]


class TestBench:
    def test_tsv_grid(self, capsys):
        rc = main(["bench", "--systems", "cyclic2,katsura2", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == TSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("cyclic2\tinvcomp\tjanet\t")
        assert lines[2].startswith("katsura2\tinvcomp\tjanet\t")
        assert all(l.endswith("\tyes") for l in lines[1:])

    def test_algorithm_and_division_grid(self, capsys):
        rc = main([
            "bench", "--systems", "cyclic2",
            "--algorithms", "invcomp,invbas", "--divisions", "janet,alex",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 5
        combos = {tuple(l.split("\t")[:3]) for l in lines[1:]}
        assert combos == {
            ("cyclic2", "invcomp", "janet"),
            ("cyclic2", "invcomp", "alex"),
            ("cyclic2", "invbas", "janet"),
            ("cyclic2", "invbas", "alex"),
        }

    def test_json_grid(self, capsys):
        rc = main(["bench", "--systems", "cyclic2,cyclic3", "--stats", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert [row["system"] for row in payload] == ["cyclic2", "cyclic3"]

    def test_verified_does_not_depend_on_the_system_order(self, capsys):
        verdicts = []
        for systems in ("cyclic2,katsura2,noon3", "noon3,katsura2,cyclic2"):
            rc = main(["bench", "--systems", systems, "--algorithms", "invcomp,invbas",
                       "--divisions", "janet,alex", "--verify", "--stats", "json"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            verdicts.append({
                (row["system"], row["algorithm"], row["division"]): row["verified"]
                for row in payload
            })
        assert verdicts[0] == verdicts[1]
        assert len(verdicts[0]) == 12 and all(v is True for v in verdicts[0].values())

    def test_file_path_as_system(self, worked_file, capsys):
        rc = main(["bench", "--systems", worked_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pair\tinvcomp\tjanet\t" in out


class TestFailures:
    def test_unknown_builtin_system(self, capsys):
        rc = main(["compute", "--system", "nonesuch"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["compute", "--input", str(tmp_path / "absent.sys")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err

    def test_bad_flag_value(self, capsys):
        rc = main(["compute", "--system", "cyclic2", "--division", "fancy"])
        capsys.readouterr()
        assert rc == 2

    def test_missing_source(self, capsys):
        rc = main(["compute"])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_bench_division(self, capsys):
        rc = main(["bench", "--systems", "cyclic2", "--divisions", "fancy"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "flag, what", [("--algorithms", "algorithm"), ("--divisions", "division")]
    )
    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_bench_list(self, flag, what, value, capsys):
        rc = main(["bench", "--systems", "cyclic3", flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "benchmark needs at least one %s" % what in captured.err
        assert "Traceback" not in captured.err

    def test_cofactors_need_the_signature_algorithm(self, capsys):
        rc = main(["compute", "--system", "cyclic2", "--algorithm", "invbas", "--cofactors"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--algorithm invcomp" in captured.err

    @pytest.mark.parametrize("command", ["compute --system", "bench --systems"])
    def test_syzygy_signature_flag_is_gone(self, command, capsys):
        rc = main(command.split() + ["cyclic2", "--use-syzygy-signatures"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--use-syzygy-signatures" in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vars: x y\np: 3/0*x - y\n", "line 2: coefficient '3/0' has a zero denominator"),
            ("vars: x, y\np: x\n", "line 1: invalid variable name 'x,'"),
        ],
    )
    def test_malformed_input_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.sys"
        path.write_text(text)
        rc = main(["compute", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["compute --input", "bench --systems"])
    def test_input_file_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "f.sys"
        path.write_bytes(b"\xff\xfe\x00bad")
        rc = main(command.split() + [str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "cannot read system file %s" % path in captured.err
        assert "Traceback" not in captured.err

    def test_no_command(self, capsys):
        rc = main([])
        capsys.readouterr()
        assert rc == 2
