"""Reading, writing and generating polynomial systems.

The text format is line based::

    # any line or trailing text after '#' is a comment
    vars: x y
    order: degrevlex        (optional; lex or degrevlex)
    p: x^2 - 3/2*y^2
    p: x*y + 3/2*y^2

Polynomials are sums of terms ``coeff*var^e*var^e...`` with rational
coefficients written as ``p`` or ``p/q``; multiplication is always an
explicit ``*``.  Variable priority is declaration order: the first variable
in ``vars:`` is the greatest.  Named generators for the classical cyclic
and katsura benchmark families are included, along with a few packaged
example systems.
"""
from __future__ import annotations

import os
import re
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .core import (
    Monomial,
    Ordering,
    Polynomial,
    UsageError,
    VarSet,
    mono_mul,
    mono_one,
    mono_var,
    ordering_by_name,
    render_polynomial,
)

DEFAULT_ORDER = "degrevlex"


class ParseError(UsageError):
    """A system file or polynomial expression could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class SystemFile(namedtuple("SystemFile", "name vars order declared_order polynomials")):
    """A parsed polynomial system, ready for completion."""

    __slots__ = ()


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>%s)|(?P<op>[-+*^]))" % _NAME.pattern)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError("unexpected character %r in polynomial" % rest[0])
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, order: Ordering) -> Polynomial:
    """Parse a polynomial expression under the given ordering."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial expression")
    vars = order.vars
    terms: list[tuple[Fraction, Monomial]] = []
    i = 0

    def term(start: int) -> int:
        nonlocal terms
        coeff = Fraction(1)
        mono = mono_one(vars.n)
        j = start
        while True:
            if j >= len(tokens):
                raise ParseError("dangling operator at end of polynomial")
            kind, val = tokens[j]
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise ParseError("coefficient %r has a zero denominator" % val) from None
                j += 1
            elif kind == "name":
                try:
                    vi = vars.index(val)
                except UsageError:
                    raise ParseError("unknown variable %r" % val) from None
                exp = 1
                if j + 1 < len(tokens) and tokens[j + 1] == ("op", "^"):
                    if j + 2 >= len(tokens) or tokens[j + 2][0] != "num":
                        raise ParseError("expected an integer exponent after '^'")
                    etext = tokens[j + 2][1]
                    if "/" in etext:
                        raise ParseError("exponent must be an integer, got %r" % etext)
                    exp = int(etext)
                    j += 2
                mono = mono_mul(mono, Monomial(tuple(
                    exp if t == vi else 0 for t in range(vars.n)
                )))
                j += 1
            else:
                raise ParseError("expected a coefficient or variable, got %r" % val)
            if j < len(tokens) and tokens[j] == ("op", "*"):
                j += 1
                continue
            break
        terms.append((coeff, mono))
        return j

    sign = Fraction(1)
    expect_term = True
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val in "+-":
            if expect_term and val == "+":
                i += 1
                continue
            if expect_term and val == "-":
                sign = -sign
                i += 1
                continue
            sign = Fraction(-1) if val == "-" else Fraction(1)
            expect_term = True
            i += 1
            continue
        if not expect_term:
            raise ParseError("expected '+' or '-' before %r" % val)
        i = term(i)
        c, m = terms[-1]
        terms[-1] = (sign * c, m)
        sign = Fraction(1)
        expect_term = False
    if expect_term:
        raise ParseError("dangling operator at end of polynomial")
    try:
        return Polynomial(order, terms)
    except UsageError as exc:  # a total degree at the order key bound
        raise ParseError(str(exc)) from None


def parse_system(
    text: str,
    name: str = "<system>",
    order: str | None = None,
) -> SystemFile:
    """Parse a system file.  `order` overrides any ``order:`` line."""
    vars: VarSet | None = None
    declared: str | None = None
    poly_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise ParseError("expected 'vars:', 'order:' or 'p:'", lineno)
        head = head.strip().lower()
        body = body.strip()
        if head == "vars":
            if vars is not None:
                raise ParseError("duplicate vars: line", lineno)
            names = tuple(body.split())
            if not names:
                raise ParseError("vars: line declares no variables", lineno)
            for v in names:
                if not _NAME.fullmatch(v):
                    raise ParseError(
                        "invalid variable name %r (a letter or '_', then letters, "
                        "digits or '_'; names are separated by spaces)" % v,
                        lineno,
                    )
            try:
                vars = VarSet(names)
            except UsageError as exc:
                raise ParseError(str(exc), lineno) from None
        elif head == "order":
            if declared is not None:
                raise ParseError("duplicate order: line", lineno)
            if body not in ("lex", "degrevlex"):
                raise ParseError(
                    "unknown order %r (expected lex or degrevlex)" % body, lineno
                )
            declared = body
        elif head == "p":
            poly_lines.append((lineno, body))
        else:
            raise ParseError("unknown directive %r" % head, lineno)
    if vars is None:
        raise ParseError("missing vars: line")
    if not poly_lines:
        raise ParseError("system declares no polynomials")
    kind = order or declared or DEFAULT_ORDER
    if kind not in ("lex", "degrevlex"):
        raise ParseError("unknown order %r (expected lex or degrevlex)" % kind)
    ordering = ordering_by_name(kind, vars)
    polys = []
    for lineno, body in poly_lines:
        try:
            p = parse_polynomial(body, ordering)
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        if p.is_zero:
            raise ParseError("polynomial is zero", lineno)
        polys.append(p)
    return SystemFile(name, vars, ordering, declared, tuple(polys))


def render_system(system: SystemFile) -> str:
    """Write a system back out in its own file format."""
    lines = ["vars: %s" % " ".join(system.vars.names)]
    lines.append("order: %s" % system.order.kind)
    for p in system.polynomials:
        lines.append("p: %s" % render_polynomial(p))
    return "\n".join(lines) + "\n"


def with_polynomials(system: SystemFile, polys) -> SystemFile:
    return SystemFile(
        system.name, system.vars, system.order, system.declared_order, tuple(polys)
    )


def gen_cyclic(n: int, order: str = DEFAULT_ORDER) -> SystemFile:
    """The cyclic-n system: the elementary cyclic sums of length 1..n-1 and
    the product of all variables minus one."""
    if n < 1:
        raise UsageError("cyclic systems need n >= 1")
    vars = VarSet(tuple("x%d" % (i + 1) for i in range(n)))
    ordering = ordering_by_name(order, vars)
    polys = []
    for k in range(1, n):
        terms = []
        for i in range(n):
            exps = [0] * n
            for j in range(i, i + k):
                exps[j % n] += 1
            terms.append((Fraction(1), Monomial(tuple(exps))))
        polys.append(Polynomial(ordering, terms))
    product = [(Fraction(1), Monomial((1,) * n)), (Fraction(-1), mono_one(n))]
    polys.append(Polynomial(ordering, product))
    return SystemFile("cyclic%d" % n, vars, ordering, None, tuple(polys))


def gen_katsura(n: int, order: str = DEFAULT_ORDER) -> SystemFile:
    """The katsura-n system in the n+1 variables u0..un: the quadratic
    convolution equations and one linear normalisation."""
    if n < 1:
        raise UsageError("katsura systems need n >= 1")
    nv = n + 1
    vars = VarSet(tuple("u%d" % i for i in range(nv)))
    ordering = ordering_by_name(order, vars)
    polys = []
    for m in range(n):
        terms: list[tuple[Fraction, Monomial]] = []
        for i in range(-n, n + 1):
            j = abs(m - i)
            if j > n:
                continue
            exps = [0] * nv
            exps[abs(i)] += 1
            exps[j] += 1
            terms.append((Fraction(1), Monomial(tuple(exps))))
        terms.append((Fraction(-1), mono_var(m, nv)))
        polys.append(Polynomial(ordering, terms))
    linear = [(Fraction(1), mono_var(0, nv))]
    linear += [(Fraction(2), mono_var(i, nv)) for i in range(1, nv)]
    linear.append((Fraction(-1), mono_one(nv)))
    polys.append(Polynomial(ordering, linear))
    return SystemFile("katsura%d" % n, vars, ordering, None, tuple(polys))


_FAMILY = re.compile(r"^(cyclic|katsura)-?(\d+)$")


_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
_PACKAGED = re.compile(r"\w+")


def packaged_names() -> tuple[str, ...]:
    """Names of the system files shipped inside the package.
    `importlib.resources` lists them, also from a zipped install; it is
    imported here, not at import of this module, because it imports
    `typing`, `tempfile` and `random`."""
    from importlib import resources

    out = []
    # Through the package, not `invbases.data`: a directory without an
    # `__init__.py` is a namespace package, which `resources` cannot read
    # inside a zip archive.
    for entry in resources.files(__package__).joinpath("data").iterdir():
        if entry.name.endswith(".sys"):
            out.append(entry.name[: -len(".sys")])
    return tuple(sorted(out))


def load_builtin(name: str, order: str | None = None) -> SystemFile:
    """Resolve a built-in system name: cyclicN, katsuraN, or a packaged
    example system, read through the package's loader (which also reads
    from a zipped install)."""
    m = _FAMILY.match(name.strip().lower())
    if m:
        family, num = m.group(1), int(m.group(2))
        kind = order or DEFAULT_ORDER
        if family == "cyclic":
            return gen_cyclic(num, kind)
        return gen_katsura(num, kind)
    base = name.strip().lower()
    if _PACKAGED.fullmatch(base):
        try:
            raw = __loader__.get_data(os.path.join(_DATA_DIR, base + ".sys"))
        except OSError:
            pass
        else:
            return parse_system(raw.decode("utf-8"), base, order=order)
    raise UsageError(
        "unknown system %r (try cyclicN, katsuraN, or one of: %s)"
        % (name, ", ".join(packaged_names()))
    )


def load_system_file(path: str | Path, order: str | None = None) -> SystemFile:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read system file %s: %s" % (p, exc)) from None
    return parse_system(text, p.stem, order=order)
