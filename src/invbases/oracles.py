"""Independent checks used to validate completion results.

Everything here is plain textbook machinery: Buchberger-style reduction,
the Buchberger criterion on S-polynomials, and direct re-expansion of
cofactor combinations.  `is_involutive` is the one exception: it reduces
prolongations with the engine's involutive normal form, so it shares the
engine's divisor search (`_InvolutiveReducer.divisors` over
`Partition.divisors`: by tree under Janet, by maximum under Thomas, by
mask file under alex) and partition.  `buchberger_nf` scans the whole set
in rank order behind a degree and support-mask check of its own, and it
and `is_groebner` share no logic with the engine, whose criteria act on
signatures and ancestors during completion; so agreement between them and
the engine is meaningful evidence of correctness.  `bench.verify_basis`
combines them: `is_groebner`, `is_involutive`, and a zero normal form of
each input generator, which proves that the inputs lie in the ideal of a
Gröbner basis.  Nothing here checks the converse inclusion, so a basis of
a larger ideal, such as [1], passes.  The reference loops of
the tests (`drop_lt_*` in tests/test_kernel.py) and the sympy comparison
of tests/test_external_oracle.py stay independent of the engine as well.

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

from .core import (
    Ordering,
    PendingTerms,
    Polynomial,
    UsageError,
    mono_div,
    mono_lcm,
    mono_var,
    spoly,
    sum_of_products,
)
from .division import Division, support

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
]


def buchberger_nf(f: Polynomial, G, order: Ordering) -> Polynomial:
    """Ordinary full normal form of f modulo G (no involutive restriction).

    Each term is reduced by the first divisor in rank order (smallest head,
    then earliest in G).  The heads are listed once per call, in that
    order, with their degrees and support masks, and a head whose degree
    exceeds the term's or whose support is not inside the term's is passed
    over before trying to divide.  The loop looks at the largest pending
    term of a `PendingTerms`: an irreducible term is popped into the
    remainder, and a reduction step (`reduce_top`) cancels it in integers
    and folds the rest of the multiplied divisor into the pending terms."""
    polys = [g for g in G]
    for g in polys:
        if g.is_zero:
            raise UsageError("zero polynomial in the reducing set")
    ranked = sorted(range(len(polys)), key=lambda i: (order.key(polys[i].lm), i))
    heads = [(polys[i].lm.deg, support(polys[i].lm), polys[i]) for i in ranked]
    pending = PendingTerms(f)
    rem = []
    while pending:
        tm = pending.top_mono()
        deg = tm.deg
        mask = support(tm)
        for hdeg, hmask, g in heads:
            if hdeg > deg or hmask & ~mask:
                continue
            u = mono_div(tm, g.lm)
            if u is not None:
                pending.reduce_top(u, g)
                break
        else:
            rem.append(pending.pop())
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
    """Check involutivity: each nonmultiplicative prolongation x*g has
    involutive normal form zero against the set itself.  The product x*g
    enters the reduction accumulator unbuilt (`_InvolutiveReducer.nf(g,
    x)`)."""
    polys = [g for g in G]
    if not polys:
        raise UsageError("cannot test an empty basis")
    reducer = _InvolutiveReducer(polys, division, order)
    n = order.vars.n
    for g in polys:
        for i in sorted(reducer.partition.nonmult(g.lm)):
            if not reducer.nf(g, mono_var(i, n)).is_zero:
                return False
    return True


def expand_cofactors(cofactors, generators) -> Polynomial:
    """The combination sum(cofactor_i * generator_i)."""
    cofs = list(cofactors)
    gens = list(generators)
    if not gens or len(cofs) != len(gens):
        raise UsageError("cofactor vector length must match the generators")
    return sum_of_products(gens[0].order, zip(cofs, gens))


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
