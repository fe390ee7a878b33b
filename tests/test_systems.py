"""System file parsing, rendering, generators, and packaged data."""
from __future__ import annotations

import subprocess
import sys
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invbases
from invbases.core import UsageError, lex, render_polynomial
from invbases.systems import (
    ParseError,
    gen_cyclic,
    gen_katsura,
    load_builtin,
    load_system_file,
    packaged_names,
    parse_polynomial,
    parse_system,
    render_system,
    with_polynomials,
)

from conftest import WORKED_EXAMPLE


def renders(system):
    return [render_polynomial(p) for p in system.polynomials]


@pytest.fixture(scope="module")
def order():
    return parse_system(WORKED_EXAMPLE).order


class TestParsePolynomial:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^2 - 3/2*y^2", "x^2 - 3/2*y^2"),
            ("2*x*y + 3*y^2", "2*x*y + 3*y^2"),
            ("-x + +y", "-x + y"),
            ("y*x", "x*y"),
            ("2*3*x", "6*x"),
            ("x + x", "2*x"),
            ("5/3", "5/3"),
            ("x^1", "x"),
        ],
    )
    def test_accepted_forms(self, order, text, expected):
        assert render_polynomial(parse_polynomial(text, order)) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x +",
            "-",
            "2x",
            "x y",
            "x * * y",
            "x ? y",
            "z + 1",
            "x^",
            "x^y",
            "x^1/2",
            "3/0",
            "1/0*x",
            "x + 0/0",
            "x^4294967295*y",  # total degree 2^32, the order key bound
        ],
    )
    def test_rejected_forms(self, order, text):
        with pytest.raises(ParseError):
            parse_polynomial(text, order)

    def test_parse_error_is_a_usage_error(self, order):
        with pytest.raises(UsageError):
            parse_polynomial("2x", order)

    def test_zero_denominator_names_the_coefficient(self):
        with pytest.raises(ParseError, match="'1/0'") as exc:
            parse_system("vars: x y\np: x - 1/0*y")
        assert exc.value.line == 2


class TestParseSystem:
    def test_basic_fields(self):
        sf = parse_system(WORKED_EXAMPLE)
        assert sf.name == "<system>"
        assert sf.vars.names == ("x", "y")
        assert sf.order.kind == "lex"
        assert sf.declared_order == "lex"
        assert renders(sf) == ["x^2 - 3/2*y^2", "2*x*y + 3*y^2"]

    def test_comments_and_blank_lines(self):
        text = "# heading\n\nvars: x y  # names\n\np: x + y # tail comment\n"
        sf = parse_system(text)
        assert renders(sf) == ["x + y"]
        assert sf.declared_order is None
        assert sf.order.kind == "degrevlex"

    def test_order_argument_overrides_the_declared_order(self):
        sf = parse_system(WORKED_EXAMPLE, order="degrevlex")
        assert sf.order.kind == "degrevlex"
        assert sf.declared_order == "lex"

    @pytest.mark.parametrize(
        "text,line",
        [
            ("vars x y\np: x", 1),
            ("vars: x y\nvars: x y\np: x", 2),
            ("vars:\np: x", 1),
            ("vars: x x\np: x", 1),
            ("vars: x, y\np: x", 1),
            ("vars: 2x\np: x", 1),
            ("vars: x\norder: fancy\np: x", 2),
            ("vars: x\nq: x", 2),
            ("vars: x\np: x\np: y", 3),
            ("vars: x\np: x - x", 2),
            ("vars: x y\n# comment\np: x^4294967296 + y", 3),  # the order key bound
            ("p: x", None),
            ("vars: x", None),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_system(text)
        assert exc.value.line == line
        if line is not None:
            assert str(exc.value).startswith("line %d:" % line)

    def test_unknown_order_override(self):
        with pytest.raises(ParseError):
            parse_system("vars: x\np: x", order="fancy")

    def test_variable_names_must_be_identifiers(self):
        # A comma-separated list would declare "x," and report "x" unknown.
        with pytest.raises(ParseError, match="invalid variable name 'x,'") as exc:
            parse_system("vars: x, y\np: x")
        assert exc.value.line == 1
        assert parse_system("vars: x_1 _y Z9\np: x_1 - _y*Z9").vars.names == ("x_1", "_y", "Z9")


class TestRenderSystem:
    def test_round_trip(self):
        sf = parse_system(WORKED_EXAMPLE, name="roundtrip")
        text = render_system(sf)
        again = parse_system(text)
        assert again.vars == sf.vars
        assert again.order == sf.order
        assert again.polynomials == sf.polynomials

    def test_always_states_the_order(self):
        sf = parse_system("vars: x\np: x")
        assert "order: degrevlex\n" in render_system(sf)


class TestWithPolynomials:
    def test_replaces_only_the_polynomials(self):
        sf = parse_system(WORKED_EXAMPLE)
        reduced = with_polynomials(sf, sf.polynomials[:1])
        assert reduced.vars == sf.vars
        assert reduced.order == sf.order
        assert len(reduced.polynomials) == 1


class TestGenerators:
    def test_cyclic2(self):
        sf = gen_cyclic(2)
        assert sf.name == "cyclic2"
        assert sf.vars.names == ("x1", "x2")
        assert renders(sf) == ["x1 + x2", "x1*x2 - 1"]

    def test_cyclic3(self):
        assert renders(gen_cyclic(3)) == [
            "x1 + x2 + x3",
            "x1*x2 + x1*x3 + x2*x3",
            "x1*x2*x3 - 1",
        ]

    def test_cyclic1_is_just_the_product(self):
        assert renders(gen_cyclic(1)) == ["x1 - 1"]

    def test_katsura2(self):
        sf = gen_katsura(2)
        assert sf.name == "katsura2"
        assert sf.vars.names == ("u0", "u1", "u2")
        assert renders(sf) == [
            "u0^2 + 2*u1^2 + 2*u2^2 - u0",
            "2*u0*u1 + 2*u1*u2 - u1",
            "u0 + 2*u1 + 2*u2 - 1",
        ]

    def test_katsura_sizes(self):
        for n in (1, 2, 3, 4):
            sf = gen_katsura(n)
            assert len(sf.vars.names) == n + 1
            assert len(sf.polynomials) == n + 1

    def test_order_selection(self):
        assert gen_cyclic(3, order="lex").order.kind == "lex"
        with pytest.raises(UsageError):
            gen_cyclic(0)
        with pytest.raises(UsageError):
            gen_katsura(0)


class TestBuiltins:
    def test_packaged_names(self):
        assert packaged_names() == ("eco7", "noon3", "trinks", "weispfenning94")

    @pytest.mark.parametrize(
        "name,nvars,npolys",
        [
            ("eco7", 7, 7),
            ("noon3", 3, 3),
            ("trinks", 6, 6),
            ("weispfenning94", 3, 3),
        ],
    )
    def test_packaged_systems_load(self, name, nvars, npolys):
        sf = load_builtin(name)
        assert sf.name == name
        assert len(sf.vars.names) == nvars
        assert len(sf.polynomials) == npolys

    def test_family_dispatch(self):
        assert len(load_builtin("cyclic4").polynomials) == 4
        assert len(load_builtin("katsura-3").polynomials) == 4
        assert load_builtin("CYCLIC2").name == "cyclic2"
        assert load_builtin("cyclic2", order="lex").order.kind == "lex"

    def test_unknown_name(self):
        with pytest.raises(UsageError) as exc:
            load_builtin("nonesuch")
        assert "nonesuch" in str(exc.value)
        assert "trinks" in str(exc.value)

    @pytest.mark.parametrize("name", ["../data/noon3", "data/noon3", "noon3.sys", "", "eco7 x"])
    def test_a_name_that_is_not_a_packaged_file_name_is_unknown(self, name):
        with pytest.raises(UsageError, match="unknown system"):
            load_builtin(name)

    def test_a_zipped_install_reads_and_lists_the_packaged_systems(self, tmp_path):
        # The package imported from a zip archive: the loader reads the
        # system file out of the archive.
        package = Path(invbases.__file__).parent
        archive = tmp_path / "invbases.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(package.rglob("*")):
                if path.suffix in (".py", ".sys"):
                    zf.write(path, Path("invbases") / path.relative_to(package))
        code = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "import invbases.systems as s\n"
            "assert s.__file__.startswith(%r), s.__file__\n"
            "print(s.render_system(s.load_builtin('noon3')))\n"
            "print(' '.join(s.packaged_names()))\n"
        ) % (str(archive), str(archive))
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out == "%s\n%s\n" % (render_system(load_builtin("noon3")), " ".join(packaged_names()))


class TestLoadSystemFile:
    def test_reads_and_names_by_stem(self, tmp_path):
        path = tmp_path / "pair.sys"
        path.write_text(WORKED_EXAMPLE)
        sf = load_system_file(path)
        assert sf.name == "pair"
        assert sf.order.kind == "lex"
        assert len(sf.polynomials) == 2

    def test_order_override(self, tmp_path):
        path = tmp_path / "pair.sys"
        path.write_text(WORKED_EXAMPLE)
        assert load_system_file(path, order="degrevlex").order.kind == "degrevlex"

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_system_file(tmp_path / "absent.sys")


def _lines(directive: str, well_formed: str):
    """`directive` lines whose body is either well formed or a short random
    text over the characters of the format."""
    body = st.text(alphabet="xy0123/^*+-, ", max_size=10)
    return st.one_of(st.just(well_formed), body).map(lambda b: "%s: %s" % (directive, b))


# A vars: line, an optional order: line and one or two p: lines, in file order.
_SYSTEM_TEXTS = st.tuples(
    _lines("vars", "x y"),
    st.lists(_lines("order", "lex"), max_size=1),
    st.lists(_lines("p", "x - 1/2*y"), min_size=1, max_size=2),
).map(lambda t: "\n".join([t[0], *t[1], *t[2]]))


class TestParserFuzz:
    """Any short text made of directive lines either parses, with every
    declared variable usable in a polynomial, or raises ParseError; nothing
    else escapes the parser."""

    @given(_SYSTEM_TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_parses_or_raises_parse_error(self, text):
        try:
            sf = parse_system(text)
        except ParseError:
            return
        for i, name in enumerate(sf.vars.names):
            assert parse_polynomial(name, sf.order).lm.exps[i] == 1
