"""Independent checks used to validate completion results.

Everything here is plain textbook machinery: Buchberger-style reduction,
the Buchberger criterion on S-polynomials, and direct re-expansion of
cofactor combinations.  Apart from the involutive normal form that
`is_involutive` applies to prolongations, the completion engine shares none
of this logic (its criteria act on signatures and ancestors during
completion), so agreement between the two is meaningful evidence of
correctness.

`is_groebner` reduces the S-polynomial of a pair only when two textbook
criteria, applied to the heads of the checked set alone, leave it open:

* product criterion (Buchberger 1979): the two heads are coprime;
* chain criterion, strict-lcm form: some third head divides the pair's
  lcm L, and its lcm with each head of the pair is a proper divisor of L.

Neither changes the verdict.  A set is Gröbner exactly when every pair's
S-polynomial has a representation below its lcm.  Coprime pairs always
have one, and a chained pair has one when its two sub-pairs do.  The
sub-pairs have strictly smaller lcms under divisibility, so by induction
on the lcm every skipped pair is covered by the reduced ones, in any loop
order and without a record of processed pairs.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .core import Monomial, Ordering, Polynomial, UsageError, mono_div, mono_lcm, mono_var, spoly
from .division import Division

# `nf_full` is not called here, but stays importable from this module: the
# benchmark's count tracer (perfbench/layers.py) wraps it under this name.
from .engine import CofactorRecord, _InvolutiveReducer, nf_full  # noqa: F401
from .signatures import Signature, sig_cmp

__all__ = [
    "CofactorRecord",
    "admissibility_check",
    "buchberger_nf",
    "expand_cofactors",
    "is_groebner",
    "is_involutive",
    "random_ideal_member",
]


def buchberger_nf(f: Polynomial, G, order: Ordering) -> Polynomial:
    """Ordinary full normal form of f modulo G (no involutive restriction)."""
    polys = [g for g in G]
    for g in polys:
        if g.is_zero:
            raise UsageError("zero polynomial in the reducing set")
    ranked = sorted(range(len(polys)), key=lambda i: (order.key(polys[i].lm), i))
    h = f
    rem = []
    while not h.is_zero:
        hit = None
        hit_u = None
        hlm = h.lm
        for i in ranked:
            g = polys[i]
            u = mono_div(hlm, g.lm)
            if u is not None:
                hit, hit_u = g, u
                break
        if hit is None:
            rem.append(h.lt)
            h = h.drop_lt()
        else:
            h = h.sub_mul_term(h.lc / hit.lc, hit_u, hit)
    return Polynomial._raw(order, tuple(rem))


def is_groebner(G, order: Ordering) -> bool:
    """Check the Buchberger criterion: every S-polynomial that the product
    and chain criteria leave open reduces to zero."""
    polys = [g for g in G]
    if not polys:
        raise UsageError("cannot test an empty basis")
    for g in polys:
        if g.is_zero:
            raise UsageError("zero polynomial in the basis")
    for i, j in _open_pairs([g.lm for g in polys]):
        s = spoly(polys[i], polys[j])
        if s.is_zero:
            continue
        if not buchberger_nf(s, polys, order).is_zero:
            return False
    return True


def _open_pairs(heads):
    """The pairs (i, j), i < j, whose S-polynomial neither the product nor
    the strict-lcm chain criterion settles, judged from the heads alone."""
    n = len(heads)
    for i in range(n):
        a = heads[i]
        for j in range(i + 1, n):
            b = heads[j]
            lcm = mono_lcm(a, b)
            if lcm.deg == a.deg + b.deg:
                continue
            if not any(
                k != i and k != j and c.divides(lcm)
                and mono_lcm(a, c) != lcm and mono_lcm(c, b) != lcm
                for k, c in enumerate(heads)
            ):
                yield i, j


def is_involutive(G, division: Division, order: Ordering) -> bool:
    """Check involutivity: each nonmultiplicative prolongation has
    involutive normal form zero against the set itself."""
    polys = [g for g in G]
    if not polys:
        raise UsageError("cannot test an empty basis")
    reducer = _InvolutiveReducer(polys, division, order)
    n = order.vars.n
    for g in polys:
        for i in sorted(reducer.partition.nonmult(g.lm)):
            prolonged = g.mul_term(1, mono_var(i, n))
            if not reducer.nf(prolonged).is_zero:
                return False
    return True


def expand_cofactors(cofactors, generators) -> Polynomial:
    """The combination sum(cofactor_i * generator_i)."""
    cofs = list(cofactors)
    gens = list(generators)
    if not gens or len(cofs) != len(gens):
        raise UsageError("cofactor vector length must match the generators")
    acc = Polynomial.zero(gens[0].order)
    for c, g in zip(cofs, gens):
        acc = acc + c * g
    return acc


def admissibility_check(cofactors, sig: Signature, order: Ordering) -> bool:
    """Check that the largest module monomial of a cofactor vector is the
    claimed signature: max over positions i and terms m of cofactor_i of
    the module monomial m*e_(i+1) equals sig."""
    cofs = list(cofactors)
    if not cofs:
        raise UsageError("admissibility check needs a cofactor vector")
    best: Signature | None = None
    for i, c in enumerate(cofs):
        for _, m in c:
            cand = Signature(m, i + 1)
            if best is None or sig_cmp(order, cand, best) > 0:
                best = cand
    if best is None:
        raise UsageError("admissibility check needs a nonzero cofactor vector")
    return best == sig


def random_ideal_member(
    rng: random.Random,
    generators,
    order: Ordering,
    max_terms: int = 3,
    max_deg: int = 2,
) -> Polynomial:
    """A random element sum(h_i * f_i) of the ideal of the generators, with
    short random multipliers h_i of bounded degree."""
    gens = list(generators)
    if not gens:
        raise UsageError("need at least one generator")
    n = order.vars.n
    acc = Polynomial.zero(order)
    for g in gens:
        terms = []
        for _ in range(rng.randrange(0, max_terms + 1)):
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            exps = [0] * n
            for _ in range(rng.randrange(0, max_deg + 1)):
                exps[rng.randrange(n)] += 1
            terms.append((coeff, Monomial(tuple(exps))))
        acc = acc + Polynomial(order, terms) * g
    return acc
