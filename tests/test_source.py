"""Rules on the package source itself."""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import invbases
from invbases import cli, core, engine

SRC = Path(invbases.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assert_statements(source: str, filename: str) -> list[str]:
    """`file:line` of every `assert` statement in the source."""
    tree = ast.parse(source, filename=filename)
    return ["%s:%d" % (filename, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def test_no_assert_statements_in_the_package():
    # `python -O` drops `assert` statements, so a check written as one would
    # silently stop checking; invariant checks raise explicitly instead.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in assert_statements(path.read_text(), path.name)]
    assert found == []


def test_the_scan_finds_asserts():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n"
    assert assert_statements(source, "sample.py") == ["sample.py:3"]


# Private members of `fractions.Fraction`: building or reading a fraction
# through them skips its normalisation, so the kernel uses the public API.
FRACTION_INTERNALS = {"_normalize", "_numerator", "_denominator", "_from_coprime_ints"}


def fraction_internals(source: str, filename: str) -> list[str]:
    """`file:line name` of every attribute, name, keyword argument or string
    constant in the source that is one of FRACTION_INTERNALS."""
    tree = ast.parse(source, filename=filename)
    hits = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            name = n.attr
        elif isinstance(n, ast.Name):
            name = n.id
        elif isinstance(n, ast.keyword):
            name = n.arg
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            name = n.value
        else:
            continue
        if name in FRACTION_INTERNALS:
            hits.append("%s:%d %s" % (filename, n.lineno, name))
    return hits


def test_no_private_fraction_internals_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in fraction_internals(path.read_text(), path.name)]
    assert found == []


def test_the_scan_finds_fraction_internals():
    source = (
        "from fractions import Fraction\n"
        "def f(n, d, c):\n"
        "    a = Fraction(n, d, _normalize=False)\n"
        "    b = Fraction._from_coprime_ints(n, d)\n"
        "    return c._numerator * c._denominator, getattr(c, '_numerator')\n"
    )
    assert fraction_internals(source, "sample.py") == [
        "sample.py:3 _normalize",
        "sample.py:4 _from_coprime_ints",
        "sample.py:5 _numerator",
        "sample.py:5 _denominator",
        "sample.py:5 _numerator",
    ]


# Coefficients are integer numerators over one denominator everywhere but at
# the edges: the parser builds `Fraction`s, and `core` gives them out through
# the public constructor and accessors.  No other module works on them.
FRACTION_MODULES = {"core.py", "systems.py"}


def fractions_imports(source: str, filename: str) -> list[str]:
    """`file:line` of every import of the `fractions` module in the source."""
    tree = ast.parse(source, filename=filename)
    hits = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and not n.level:
            names = [n.module]
        else:
            continue
        if any(name == "fractions" or name.startswith("fractions.") for name in names):
            hits.append("%s:%d" % (filename, n.lineno))
    return hits


def test_only_the_edges_import_fractions():
    files = sorted(SRC.glob("*.py"))
    assert {path.name for path in files} >= FRACTION_MODULES
    found = [
        hit
        for path in files
        if path.name not in FRACTION_MODULES
        for hit in fractions_imports(path.read_text(), path.name)
    ]
    assert found == []


def test_the_scan_finds_fractions_imports():
    source = (
        "import os, fractions\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    import fractions as fr\n"
        "    from .fractions import Fraction\n"
        "    return fr\n"
    )
    assert fractions_imports(source, "sample.py") == ["sample.py:1", "sample.py:2", "sample.py:4"]


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_the_benchmark_tracer_finds_every_name_it_patches(capsys):
    # perfbench/layers.py wraps package functions by name (`mono_div` in each
    # module's globals, `nf_full` in `oracles` and `bench`, ...).  A change
    # that drops one of those names fails here, not only in a traced
    # benchmark run.
    originals = (core.Ordering.key, engine.mono_div, cli.main)
    tracer = load_tracer_class()()
    try:
        for kind in ("spans", "counts"):
            tracer.install(kind)
            assert cli.main(["compute", "--system", "cyclic3", "--verify"]) == 0
            tracer.uninstall()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (core.Ordering.key, engine.mono_div, cli.main) == originals
    assert tracer.spans and tracer.counts["core.mono_div"][0] > 0
