"""Independent checks used to validate completion results.

Everything here is plain textbook machinery: Buchberger-style reduction,
the Buchberger criterion on S-polynomials, and direct re-expansion of
cofactor combinations.  `is_involutive` is the one exception: it reduces
prolongations with the engine's involutive normal form, so it shares the
engine's divisor search (`_InvolutiveReducer.divisors` over
`Partition.divisors`: by tree under Janet, by maximum under Thomas, by
mask file under alex) and partition.  `buchberger_nf` and `is_groebner`
reduce through one loop (`_reduce`), which scans the ranked heads behind a
degree and support-mask check of its own; they share no logic with the
engine, whose criteria act on signatures and ancestors during completion,
so agreement between them and the engine is meaningful evidence of
correctness.  `bench.verify_basis` combines them: `is_groebner`,
`is_involutive`, and a zero normal form of each input generator, which
proves that the inputs lie in the ideal of a Gröbner basis.  Nothing here
checks the converse inclusion, so a basis of a larger ideal, such as [1],
passes.  The reference loops of the tests (`drop_lt_*` in
tests/test_kernel.py) and the sympy comparison of
tests/test_external_oracle.py stay independent of the engine as well.

`is_groebner` checks the minimal-head form.  Let G′ hold the first element
of G for each divisibility-minimal head.  G is Gröbner if and only if G′
is Gröbner and every other element of G has Buchberger normal form zero
modulo G′.  Every head of G is a multiple of a minimal one, so ⟨lm G′⟩ =
⟨lm G⟩.  If G′ is Gröbner and the rest reduces to zero, then ⟨G⟩ = ⟨G′⟩,
so lm⟨G⟩ = lm⟨G′⟩ = ⟨lm G′⟩ = ⟨lm G⟩.  If G is Gröbner, then lm⟨G′⟩ ⊆
lm⟨G⟩ = ⟨lm G⟩ = ⟨lm G′⟩, so G′ is Gröbner; each g in G then has a
remainder modulo G′ that lies in ⟨G⟩ and has no term in lm⟨G⟩, so the
remainder is 0.

G′ is checked by the Buchberger criterion.  The S-polynomial of a pair is
reduced only when two textbook criteria, applied to the heads of G′
alone, leave it open:

* product criterion (Buchberger 1979): the two heads are coprime;
* chain criterion, strict-lcm form: some third head divides the pair's
  lcm L, and its lcm with each head of the pair is a proper divisor of L.

Neither changes the verdict.  A set is Gröbner exactly when every pair's
S-polynomial has a representation below its lcm.  Coprime pairs always
have one, and a chained pair has one when its two sub-pairs do.  The
sub-pairs have strictly smaller lcms under divisibility, so by induction
on the lcm every skipped pair is covered by the reduced ones, in any loop
order and without a record of processed pairs.

An open pair is reduced unbuilt, in the reduction accumulator: seeded with
the multiple of one element, cancelled in one reduction step by the
multiple of the other, and reduced on in place.  No S-polynomial is built.
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
    spoly,  # noqa: F401
    sum_of_products,
)
from .division import Division, support

# `nf_full` and `spoly` are not called here, but stay importable from this
# module: the benchmark's count tracer (perfbench/layers.py) wraps them
# under these names, as it does `buchberger_nf`, which `is_groebner` does
# not call either (both reduce through `_reduce`).
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
    then earliest in G), through the loop that `is_groebner` reduces with
    (`_reduce`), over heads ranked once per call (`_ranked`)."""
    polys = [g for g in G]
    for g in polys:
        if g.is_zero:
            raise UsageError("zero polynomial in the reducing set")
    rem = []
    _reduce(PendingTerms(f), _ranked(polys, order), rem)
    return Polynomial._raw(order, tuple(rem))


def _ranked(polys, order: Ordering) -> list:
    """The nonzero `polys` in rank order (smallest head, then earliest), each
    as (degree of its head, support mask of its head, polynomial)."""
    ranked = sorted(range(len(polys)), key=lambda i: (order.key(polys[i].lm), i))
    return [(polys[i].lm.deg, support(polys[i].lm), polys[i]) for i in ranked]


def _reduce(pending: PendingTerms, heads, rem: list | None = None) -> bool:
    """Reduce the terms of `pending` by the ranked `heads` (`_ranked`).

    The loop looks at the largest pending term: the first head in rank
    order that divides it cancels it by one reduction step (`reduce_top`),
    which folds the rest of the multiplied divisor into the pending terms;
    a head whose degree exceeds the term's, or whose support is not inside
    the term's, is passed over before trying to divide.  An irreducible
    term is popped into `rem`.  Without `rem` the loop stops at the first
    irreducible term instead, for a caller that only asks whether the
    normal form is zero.  Returns True when it is."""
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
            if rem is None:
                return False
            rem.append(pending.pop())
    return not rem


def is_groebner(G, order: Ordering) -> bool:
    """Check that G is a Gröbner basis, in the minimal-head form.

    Let G′ hold the first element of G for each divisibility-minimal head.
    G is Gröbner if and only if G′ is Gröbner and every other element of G
    has Buchberger normal form zero modulo G′.  Every head of G is a
    multiple of a minimal one, so ⟨lm G′⟩ = ⟨lm G⟩.

    * If G′ is Gröbner and the rest reduces to zero, then ⟨G⟩ = ⟨G′⟩, so
      lm⟨G⟩ = lm⟨G′⟩ = ⟨lm G′⟩ = ⟨lm G⟩.
    * If G is Gröbner, then lm⟨G′⟩ ⊆ lm⟨G⟩ = ⟨lm G⟩ = ⟨lm G′⟩, so G′ is
      Gröbner.  Each g in G then has a remainder modulo G′ that lies in
      ⟨G⟩ and has no term in ⟨lm G′⟩ = lm⟨G⟩, so the remainder is 0.

    G′ is checked by the Buchberger criterion over the pairs that
    `_open_pairs` leaves open.  A pair (f, g) with heads of lcm l is
    reduced unbuilt: the accumulator is seeded with the product (l/lm f)·f
    (`PendingTerms(f, l/lm f)`), one reduction step by (l/lm g)·g cancels
    the heads, and the reduction goes on in the same accumulator.  That
    reduces lc(f)·S(f, g), which is zero exactly when S(f, g) is, so no
    S-polynomial is built.  A normal form stops at its first irreducible
    term, which settles it as nonzero."""
    polys = [g for g in G]
    if not polys:
        raise UsageError("cannot test an empty basis")
    for g in polys:
        if g.is_zero:
            raise UsageError("zero polynomial in the basis")
    minimal, rest = _minimal_heads(polys)
    heads = _ranked(minimal, order)
    for g in rest:
        if not _reduce(PendingTerms(g), heads):
            return False
    for i, j in _open_pairs([g.lm for g in minimal]):
        f, g = minimal[i], minimal[j]
        l = mono_lcm(f.lm, g.lm)
        pending = PendingTerms(f, mono_div(l, f.lm))
        pending.reduce_top(mono_div(l, g.lm), g)
        if not _reduce(pending, heads):
            return False
    return True


def _minimal_heads(polys) -> tuple[list, list]:
    """Split nonzero `polys` into G′, the first element for each
    divisibility-minimal head, and the rest, both in the order of `polys`.

    A proper divisor has a smaller degree, so in order of degree a head is
    minimal exactly when no minimal head found before it divides it (an
    equal one included, which makes it a repeat; the sort is stable, so
    the first of equal heads is the one kept)."""
    found = []
    minimal = [False] * len(polys)
    for i in sorted(range(len(polys)), key=lambda i: polys[i].lm.deg):
        m = polys[i].lm
        if not any(h.divides(m) for h in found):
            found.append(m)
            minimal[i] = True
    return (
        [g for g, keep in zip(polys, minimal) if keep],
        [g for g, keep in zip(polys, minimal) if not keep],
    )


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
