"""Differential check against an outside implementation: sympy's Gröbner bases.

The divisibility-minimal heads of any Gröbner basis of an ideal are the
heads of its reduced Gröbner basis, so they must equal the lead monomials
that `sympy.groebner` returns under the same ordering.  sympy is only a
test dependency; nothing under `src/` imports it.
"""
from __future__ import annotations

import pytest

from invbases.division import division_by_name
from invbases.engine import inv_comp
from invbases.systems import load_builtin

sympy = pytest.importorskip("sympy")

SYSTEMS = ("cyclic4", "katsura3", "katsura4", "noon3", "weispfenning94")
# katsura4 under Thomas is left out: its completion alone runs for minutes.
CASES = [
    (name, division)
    for name in SYSTEMS
    for division in ("janet", "alex", "thomas")
    if (name, division) != ("katsura4", "thomas")
]

_sympy_heads: dict[str, set] = {}


def sympy_heads(sf) -> set:
    """Exponent vectors of the lead monomials of sympy's reduced Gröbner
    basis of the system, under grevlex (our degrevlex) in declared order."""
    if sf.name not in _sympy_heads:
        gens = sympy.symbols(sf.vars.names)
        exprs = [
            sympy.Add(*[
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x**e for x, e in zip(gens, m.exps)])
                for c, m in p
            ])
            for p in sf.polynomials
        ]
        G = sympy.groebner(exprs, *gens, order="grevlex")
        _sympy_heads[sf.name] = {g.LM(order="grevlex").exponents for g in G.polys}
    return _sympy_heads[sf.name]


@pytest.mark.parametrize("name, division_name", CASES)
def test_minimal_heads_match_sympy(name, division_name):
    sf = load_builtin(name, order="degrevlex")
    r = inv_comp(sf.polynomials, division_by_name(division_name, sf.vars), sf.order)
    heads = [g.lm for g in r.basis]
    minimal = {m.exps for m in heads if not any(w != m and w.divides(m) for w in heads)}
    assert minimal == sympy_heads(sf)
