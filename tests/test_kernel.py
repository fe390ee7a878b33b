"""The reduction kernel: `PendingTerms` and the three normal forms on it.

The accumulator is checked on its own, against the difference
``h - g.mul_term(c, u)`` of two whole polynomials (built by the
canonicalising constructor, which shares no code with the accumulator),
and against `FractionPendingTerms`, the accumulator it replaced: `Fraction`
coefficients instead of integer numerators over a common denominator, and
each product's monomial and key built when it is folded in, not its key
added from the reducer's kept keys and its monomial built when it leaves.
`reduce_top(u, g)` is checked against the reference's `pop` followed by
`sub_tail(top / lc(g), u, g)`, the quotient taken in `Fraction`s rather
than from the reducer's integer numerators.  A prolongation seeded as a
product, `PendingTerms(g, u)`, is checked against the accumulator of the
product built by `mul_term`, and the polynomial an accumulator builds of
the terms taken out of it and those still pending
(`PendingTerms.polynomial`) against the constructor's polynomial of the
same terms.  Each normal-form reference below rebuilds the polynomial
after every irreducible head with `drop_lt`, through the constructor, as
the three normal forms once did, and takes each reduction step as that
difference.  The normal forms must
return the same remainder, the same verdict and the same deflected queue
entries on random inputs, under every division.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invbases.core import (
    KEY_BOUND,
    Monomial,
    PendingTerms,
    Polynomial,
    UsageError,
    VarSet,
    degrevlex,
    lex,
    mono_div,
    mono_mul,
    mono_one,
    mono_var,
    spoly,
)
from invbases import signatures as signatures_module
from invbases.division import alex_division, division_by_name, janet
from invbases.engine import EngineOptions, _Engine, _InvolutiveReducer, inv_bas, inv_comp
from invbases.oracles import buchberger_nf, expand_cofactors, is_involutive
from invbases.signatures import (
    Signature,
    SigPoly,
    Verdict,
    criteria,
    sig_cmp,
    sig_mul,
)
from invbases.systems import load_builtin

from conftest import counted_keys, engine_over, monomials, polynomials, small_fractions

DIVISIONS = ("janet", "alex", "thomas")


class FractionPendingTerms:
    """The accumulator before integer numerators and lazy products:
    `Fraction` coefficients and built monomials in an ascending list, with a
    parallel list of order keys."""

    def __init__(self, p: Polynomial):
        self.order = p.order
        key = self._key = p.order.key
        self._terms = list(reversed(p.terms))
        self._keys = [key(m) for _, m in self._terms]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def copy(self) -> FractionPendingTerms:
        other = object.__new__(FractionPendingTerms)
        other.order, other._key = self.order, self._key
        other._terms, other._keys = self._terms[:], self._keys[:]
        return other

    def pop(self):
        self._keys.pop()
        return self._terms.pop()

    def descending(self) -> tuple:
        return tuple(reversed(self._terms))

    def sub_tail(self, coeff, mono: Monomial, g: Polynomial) -> int:
        c = -Fraction(coeff)
        ue, ud = mono.exps, mono.deg
        key, keys, terms = self._key, self._keys, self._terms
        hi = len(keys)
        deg = -1
        for gc, gm in g.terms[1:]:
            m = Monomial(tuple(map(operator.add, gm.exps, ue)))
            deg = max(deg, m.deg)
            k = key(m)
            hi = bisect_left(keys, k, 0, hi)
            if hi < len(keys) and keys[hi] == k:
                s = terms[hi][0] + gc * c
                if s:
                    terms[hi] = (s, terms[hi][1])
                else:
                    del keys[hi]
                    del terms[hi]
            else:
                keys.insert(hi, k)
                terms.insert(hi, (gc * c, m))
        return deg


def drop_lt(h: Polynomial) -> Polynomial:
    """h without its leading term."""
    return Polynomial(h.order, h.terms[1:])


def drop_lt_involutive_nf(f: Polynomial, G, division, order) -> Polynomial:
    """`_InvolutiveReducer.nf` with a full scan of G, ranked here by (head,
    index), and a `drop_lt` per irreducible head."""
    polys = list(G)
    ranked = sorted(range(len(polys)), key=lambda i: (order.key(polys[i].lm), i))
    allows = division.partition([g.lm for g in polys]).allows
    h = f
    rem = []
    while not h.is_zero:
        hit = None
        hit_u = None
        hlm = h.lm
        for i in ranked:
            g = polys[i]
            u = mono_div(hlm, g.lm)
            if u is not None and allows(g.lm, u):
                hit, hit_u = g, u
                break
        if hit is None:
            rem.append(h.lt)
            h = drop_lt(h)
        else:
            h = h - hit.mul_term(h.lc / hit.lc, hit_u)
    return Polynomial(order, rem)


def drop_lt_buchberger_nf(f: Polynomial, G, order) -> Polynomial:
    polys = list(G)
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
            h = drop_lt(h)
        else:
            h = h - hit.mul_term(h.lc / hit.lc, hit_u)
    return Polynomial(order, rem)


def drop_lt_regular_normal_form(engine: _Engine, p: SigPoly):
    """`_Engine.regular_normal_form` with a full divisor scan per head and a
    `drop_lt` per irreducible head (no cofactors); a queued prolongation
    starts from its product, built."""
    order = engine.order
    basis = engine.basis()
    part = engine.division.partition([q.poly.lm for q in basis])
    h = p.poly if p.mono is None else p.poly.mul_term(1, p.mono)
    rem = []
    at_head = True
    deflected = set()
    while not h.is_zero:
        engine.stats.max_deg = max(engine.stats.max_deg, h.degree)
        candidates = []
        hlm = h.lm
        for q in basis:
            u = mono_div(hlm, q.poly.lm)
            if u is None or not part.allows(q.poly.lm, u):
                continue
            safe = sig_cmp(order, sig_mul(u, q.sig), p.sig) <= 0
            candidates.append(((0 if safe else 1, order.key(q.poly.lm)), q, u))
        if not candidates:
            rem.append(h.lt)
            h = drop_lt(h)
            at_head = False
            continue
        candidates.sort(key=lambda t: t[0])
        if at_head:
            for rank, q, _u in candidates:
                if rank[0] != 0:
                    break
                verdict = criteria(p, q, engine.by_position)
                if verdict is not Verdict.NONE:
                    return Polynomial.zero(order), verdict
        chosen_rank, chosen, chosen_u = candidates[0]
        if chosen_rank[0] != 0:
            if engine.deflect:
                c = h.lc / chosen.poly.lc
                current = Polynomial(order, tuple(rem) + h.terms)
                value = current - chosen.poly.mul_term(c, chosen_u)
                dsig = sig_mul(chosen_u, chosen.sig)
                if not value.is_zero and (dsig, value.lm) not in deflected:
                    deflected.add((dsig, value.lm))
                    dsp = SigPoly(dsig, value.monic(), value.lm)
                    if engine._push(dsp, creator_sig=p.sig):
                        engine.stats.deflections += 1
            rem.append(h.lt)
            h = drop_lt(h)
            at_head = False
            continue
        c = h.lc / chosen.poly.lc
        h = h - chosen.poly.mul_term(c, chosen_u)
        at_head = False
    return Polynomial(order, rem), None


def as_if_pushed(engine: _Engine, p: SigPoly) -> _Engine:
    """The engine with p's degree counted in `max_deg`, as `_push` counts
    every element before it can pop."""
    engine.stats.max_deg = max(engine.stats.max_deg, p.deg)
    return engine


@st.composite
def reduction_cases(draw, max_reducers: int = 4):
    """An order over 2-3 variables, nonzero reducers, and a polynomial built
    from multiples of the reducers plus noise, so that most cases take
    several reduction steps."""
    vs = VarSet(("x", "y", "z")[: draw(st.integers(2, 3))])
    order = draw(st.sampled_from((lex, degrevlex)))(vs)
    reducers = polynomials(order, vs.n, max_deg=2, max_terms=3)
    G = draw(st.lists(reducers, min_size=1, max_size=max_reducers))
    f = draw(polynomials(order, vs.n, max_deg=3, max_terms=4))
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(G))
        f = f + g.mul_term(draw(small_fractions()), draw(monomials(vs.n, 2)))
    return order, G, f


# Word-sized and larger primes, so that common denominators grow past what a
# shortcut for small or integer coefficients would cover.
PRIMES = (2, 3, 5, 1_000_003, 998_244_353, 2**61 - 1)


def prime_fractions():
    """Nonzero rationals whose numerators and denominators are products of
    up to three of PRIMES, with a small signed factor on the numerator."""
    products = st.lists(st.sampled_from(PRIMES), max_size=3).map(math.prod)
    numerators = st.builds(operator.mul, st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), products)
    return st.builds(Fraction, numerators, products)


def prime_polynomials(order, n: int, max_terms: int = 5):
    """Polynomials with prime_fractions coefficients; zero only when no term
    survives the merge of equal monomials."""
    term = st.tuples(prime_fractions(), monomials(n, 3))
    return st.lists(term, min_size=1, max_size=max_terms).map(lambda ts: Polynomial(order, ts))


def draw_reducer_of(data, order, tc: Fraction, top: Monomial, below) -> tuple[Polynomial, Monomial]:
    """A reducer g and multiplier u with u*lm(g) = top, for the pending term
    tc*top over the pending terms `below` it.  g is non-monic, its
    leading coefficient negative about half the time, and its tail of
    prime_fractions is empty, random, or holds a term whose product cancels
    a pending term exactly."""
    n = order.vars.n
    u = Monomial(tuple(data.draw(st.integers(0, e)) for e in top.exps))
    head = mono_div(top, u)
    lc = data.draw(prime_fractions())
    if data.draw(st.booleans()):
        lc = -abs(lc)
    kind = data.draw(st.sampled_from(("one term", "random", "cancel")))
    tail: dict[Monomial, Fraction] = {}
    if kind != "one term":
        for c, m in data.draw(st.lists(st.tuples(prime_fractions(), monomials(n, 3)), max_size=4)):
            if order.key(m) < order.key(head):
                tail[m] = c
    targets = [(c, m) for c, m in below if mono_div(m, u) is not None]
    if kind == "cancel" and targets:
        c2, m2 = data.draw(st.sampled_from(targets))
        # (tc / lc) * a * u * (m2 / u) takes c2 * m2 off entirely.
        tail[mono_div(m2, u)] = c2 * lc / tc
    return Polynomial(order, [(lc, head), *[(c, m) for m, c in tail.items()]]), u


def sig_strategy(n: int, k: int):
    return st.builds(Signature, monomials(n, 2), st.integers(1, k))


@st.composite
def signed_cases(draw):
    """A basis of signature-labelled elements with distinct heads over
    module positions 1-3, and an element to reduce against them: about
    half the time a queued prolongation, a variable times f, unbuilt."""
    order, G, f = draw(reduction_cases(max_reducers=5))
    n = order.vars.n
    basis = []
    seen = set()
    for g in G:
        if g.lm in seen:
            continue
        seen.add(g.lm)
        g = g.monic()
        basis.append(SigPoly(draw(sig_strategy(n, 3)), g, g.lm))
    anc = f.lm if draw(st.booleans()) else draw(monomials(n, 2))
    x = draw(st.none() | st.integers(0, n - 1).map(lambda i: mono_var(i, n)))
    p = SigPoly(draw(sig_strategy(n, 3)), f, anc, mono=x)
    return order, basis, p


def queued(engine: _Engine):
    out = []
    sp = engine._pop()
    while sp is not None:
        out.append(entry(sp))
        sp = engine._pop()
    return out


def entry(sp: SigPoly):
    return (sp.sig, sp.value().monic().terms, sp.anc_lm)


XY = VarSet(("x", "y"))
DRL = degrevlex(XY)


def poly(*terms):
    return Polynomial(DRL, [(Fraction(c), Monomial(e)) for c, e in terms])


def pending_poly(pending: PendingTerms) -> Polynomial:
    return pending.polynomial()


def fraction_terms(pending: PendingTerms) -> tuple:
    """The pending terms, largest first, with `Fraction` coefficients, as the
    reference keeps them."""
    return tuple((Fraction(n, d), m) for n, d, m, _ in pending.descending())


def pop_fraction(pending: PendingTerms) -> tuple:
    """Remove the largest pending term and return it as the reference does."""
    n, d, m, _ = pending.pop()
    return Fraction(n, d), m


def assert_content_removed(pending: PendingTerms) -> None:
    """The numerators share no factor with `den`, so `den` is the least
    common denominator of the pending terms."""
    assert pending.den > 0
    assert math.gcd(pending.den, *pending._nums) == 1
    assert pending.den == math.lcm(*[c.denominator for c, _ in fraction_terms(pending)])


class TestPendingTerms:
    def test_pop_takes_the_largest_term(self):
        pending = PendingTerms(poly((1, (2, 0)), (2, (0, 1)), (3, (0, 0))))
        popped = []
        while pending:
            popped.append(pop_fraction(pending))
        assert popped == list(poly((1, (2, 0)), (2, (0, 1)), (3, (0, 0))).terms)

    def test_a_cancelling_product_term_removes_the_entry(self):
        pending = PendingTerms(poly((1, (3, 0)), (1, (2, 0)), (2, (0, 1))))
        # x^3 against 1*1*(x^3 + 2*y): the tail 2*y cancels the pending 2*y
        pending.reduce_top(Monomial((0, 0)), poly((1, (3, 0)), (2, (0, 1))))
        assert fraction_terms(pending) == poly((1, (2, 0))).terms

    def test_an_equal_monomial_merges_its_coefficient(self):
        pending = PendingTerms(poly((Fraction(1, 2), (3, 1)), (1, (2, 0)), (2, (1, 0))))
        # 1/2*x^3*y against 1/2*x*(x^2*y + 1): the tail x/2 joins the
        # pending 2*x
        pending.reduce_top(Monomial((1, 0)), poly((1, (2, 1)), (1, (0, 0))))
        assert fraction_terms(pending) == poly((1, (2, 0)), (Fraction(3, 2), (1, 0))).terms

    def test_inserts_keep_strict_descending_order(self):
        pending = PendingTerms(poly((1, (2, 2)), (1, (3, 0)), (1, (1, 1)), (1, (0, 0))))
        g = poly((1, (2, 2)), (1, (2, 1)), (-1, (1, 1)), (1, (0, 2)), (1, (1, 0)), (1, (0, 0)))
        pending.reduce_top(Monomial((0, 0)), g)
        keys = [DRL.key(m) for _, m in fraction_terms(pending)]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)
        assert pending_poly(pending) == poly((1, (3, 0)), (-1, (2, 1)), (2, (1, 1)), (-1, (0, 2)),
                                             (-1, (1, 0)))

    def test_a_reducer_of_another_ordering_or_dimension_is_rejected(self):
        pending = PendingTerms(poly((1, (1, 1))))
        other = Polynomial(lex(XY), [(1, Monomial((1, 0))), (1, Monomial((0, 1)))])
        with pytest.raises(UsageError):
            pending.reduce_top(Monomial((0, 1)), other)
        with pytest.raises(UsageError):
            buchberger_nf(poly((1, (1, 1))), [other], DRL)
        with pytest.raises(UsageError):
            pending.reduce_top(Monomial((0, 1, 0)), poly((1, (1, 0)), (1, (0, 1))))
        assert fraction_terms(pending) == poly((1, (1, 1))).terms

    def test_a_copy_is_independent(self):
        pending = PendingTerms(
            poly((Fraction(1, 2), (1, 2)), (1, (2, 0)), (Fraction(1, 3), (1, 1)), (2, (0, 0)))
        )
        before = fraction_terms(pending)
        twin = pending.copy()
        y2 = Monomial((0, 2))
        g = poly((1, (1, 0)), (Fraction(2, 3), (0, 1)))
        assert twin.top_coeff() == Fraction(1, 2)
        twin.reduce_top(y2, g)
        assert fraction_terms(pending) == before
        assert pending_poly(twin) == pending_poly(pending) - g.mul_term(Fraction(1, 2), y2)

    def test_returns_the_largest_product_degree(self):
        pending = PendingTerms(poly((1, (1, 4)), (1, (3, 0))))
        # x*y^4 against x*(y^4 + x^2 + y^3 + 1): x*y^3 and x are new, x^3
        # cancels.
        assert pending.reduce_top(Monomial((1, 0)), poly((1, (0, 4)), (1, (2, 0)), (1, (0, 3)),
                                                         (1, (0, 0)))) == 4
        assert pending_poly(pending) == poly((-1, (1, 3)), (-1, (1, 0)))
        pending = PendingTerms(poly((1, (1, 4))))
        assert pending.reduce_top(Monomial((1, 0)), poly((1, (0, 4)))) == -1
        assert not pending

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_accumulator(self, data):
        """Long runs of reduction steps, each after up to two plain pops,
        against the reference's `pop` and `sub_tail`."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(prime_polynomials(order, vs.n))
        pending, ref = PendingTerms(p), FractionPendingTerms(p)
        assert_content_removed(pending)
        for _ in range(data.draw(st.integers(1, 12))):
            for _ in range(data.draw(st.integers(0, 2))):
                if ref:
                    assert pop_fraction(pending) == ref.pop()
                    assert fraction_terms(pending) == ref.descending()
            if not ref:
                break
            terms = ref.descending()
            tc, top = terms[0]
            assert pending.top_coeff() == tc
            g, u = draw_reducer_of(data, order, tc, top, terms[1:])
            ref.pop()
            assert pending.reduce_top(u, g) == ref.sub_tail(tc / g.lc, u, g)
            assert fraction_terms(pending) == ref.descending()
            assert_content_removed(pending)
        while ref:
            assert pop_fraction(pending) == ref.pop()
        assert not pending

    def test_a_product_at_the_key_bound_is_rejected(self):
        order = lex(XY)
        # Under lex y^k * (x + y^(B-2)) has the head x*y^k, far below the
        # bound, and the tail y^(B-2+k): at k = 1 it stays below ...
        g = Polynomial(order, [(1, Monomial((1, 0))), (1, Monomial((0, KEY_BOUND - 2)))])
        pending = PendingTerms(Polynomial(order, [(1, Monomial((1, 1)))]))
        assert pending.reduce_top(Monomial((0, 1)), g) == KEY_BOUND - 1
        # ... and at k = 2 it reaches it.
        pending = PendingTerms(Polynomial(order, [(1, Monomial((1, 2)))]))
        with pytest.raises(UsageError, match="order key bound"):
            pending.reduce_top(Monomial((0, 2)), g)

    def test_reduce_top_at_the_key_bound_is_rejected_before_the_pop(self):
        order = lex(XY)
        # y * (x + y^(B-1)): the head x*y is pending, the tail product y^B
        # reaches the bound.
        g = Polynomial(order, [(1, Monomial((1, 0))), (1, Monomial((0, KEY_BOUND - 1)))])
        pending = PendingTerms(Polynomial(order, [(2, Monomial((1, 1))), (1, Monomial((0, 0)))]))
        before = fraction_terms(pending)
        with pytest.raises(UsageError, match="order key bound"):
            pending.reduce_top(Monomial((0, 1)), g)
        assert fraction_terms(pending) == before

    def test_reduce_top_rejects_a_reducer_of_another_ordering(self):
        pending = PendingTerms(poly((1, (1, 1))))
        other = Polynomial(lex(XY), [(1, Monomial((1, 0))), (1, Monomial((0, 1)))])
        with pytest.raises(UsageError):
            pending.reduce_top(Monomial((0, 1)), other)
        assert fraction_terms(pending) == poly((1, (1, 1))).terms

    def test_reduce_top_cancels_the_top_term(self):
        # 3*x^2 + y reduced by -2*x + 1/2 at x: c = -3/2, and
        # y - (-3/2)*x*(1/2) = 3/4*x + y.
        pending = PendingTerms(poly((3, (2, 0)), (1, (0, 1))))
        assert pending.top_mono() == Monomial((2, 0))
        assert pending.reduce_top(Monomial((1, 0)), poly((-2, (1, 0)), (Fraction(1, 2), (0, 0)))) == 1
        assert fraction_terms(pending) == poly((Fraction(3, 4), (1, 0)), (1, (0, 1))).terms
        assert pending.den == 4
        # A one-term reducer only removes the top term.
        assert pending.reduce_top(Monomial((0, 0)), poly((5, (1, 0)))) == -1
        assert fraction_terms(pending) == poly((1, (0, 1))).terms
        assert pending.den == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_top_matches_pop_and_sub_tail(self, data):
        """`reduce_top(u, g)` against the reference's `pop` and
        `sub_tail(top / lc(g), u, g)`, interleaved with plain pops; copies
        taken part-way must go on holding what the reference holds."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(prime_polynomials(order, vs.n, max_terms=6))
        pending, ref = PendingTerms(p), FractionPendingTerms(p)
        copies = []
        for _ in range(data.draw(st.integers(1, 8))):
            if not ref:
                break
            terms = ref.descending()
            tc, top = terms[0]
            assert pending.top_mono() == top
            if data.draw(st.integers(0, 3)) == 0:
                assert pop_fraction(pending) == ref.pop()
                continue
            g, u = draw_reducer_of(data, order, tc, top, terms[1:])
            deg = pending.reduce_top(u, g)
            ref.pop()
            assert deg == ref.sub_tail(tc / g.lc, u, g)
            assert fraction_terms(pending) == ref.descending()
            assert_content_removed(pending)
            if data.draw(st.booleans()):
                copies.append((pending.copy(), ref.copy()))
        for acc, acc_ref in [(pending, ref), *copies]:
            assert fraction_terms(acc) == acc_ref.descending()
            while acc_ref:
                assert acc.top_mono() == acc_ref.descending()[0][1]
                assert pop_fraction(acc) == acc_ref.pop()
            assert not acc

    @staticmethod
    def taken_terms(data, order, p):
        """Run an accumulator of p and the reference side by side through
        random pops and reduction steps; returns the accumulator, the terms
        it popped, which carry the `den` of their moment, and the
        reference's terms popped and left."""
        pending, ref = PendingTerms(p), FractionPendingTerms(p)
        popped, terms = [], []
        for _ in range(data.draw(st.integers(0, 6))):
            if not ref:
                break
            if data.draw(st.booleans()):
                popped.append(pending.pop())
                terms.append(ref.pop())
            else:
                current = ref.descending()
                g, u = draw_reducer_of(data, order, *current[0], current[1:])
                pending.reduce_top(u, g)
                ref.pop()
                ref.sub_tail(current[0][0] / g.lc, u, g)
        return pending, popped, terms + list(ref.descending())

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_raw_terms_build_the_monic_form(self, data):
        """Terms popped between reduction steps carry the `den` of their
        moment; `polynomial` builds from them and the pending terms, in the
        canonical form, the polynomial of the reference's terms, and
        `monic` its monic form."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(prime_polynomials(order, vs.n, max_terms=6).filter(lambda f: not f.is_zero))
        pending, popped, terms = self.taken_terms(data, order, p)
        raw = popped + pending.descending()
        assert [(Fraction(n, d), m) for n, d, m, _ in raw] == terms
        h = pending.polynomial(popped)
        want = Polynomial(order, terms)
        assert (h.terms, h.key_row(), h._nums, h.den) == (
            tuple(terms), want.key_row(), want._nums, want.den)
        assert math.gcd(h.den, *h._nums) == 1
        assert h.monic() == want.monic()
        if terms:
            assert h.monic().lc == 1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_raw_terms_seed_the_accumulator_they_came_from(self, data):
        """The accumulator of the polynomial built of the terms popped
        between reduction steps, whose `den`s differ, and the pending ones
        holds what the
        constructor's accumulator of the same terms holds: keys, numerators,
        the least common denominator and every pop.  With no term popped it
        is the accumulator the terms came from."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(prime_polynomials(order, vs.n, max_terms=6).filter(lambda f: not f.is_zero))
        pending, popped, terms = self.taken_terms(data, order, p)
        if not terms:
            return
        seeded = PendingTerms(pending.polynomial(popped))
        built = PendingTerms(Polynomial(order, terms))
        assert_content_removed(seeded)
        sources = [built] if popped else [built, pending]
        for other in sources:
            assert seeded._keys == other._keys
            assert seeded._nums == other._nums
            assert seeded.den == other.den
            assert seeded.descending() == other.descending()
        assert fraction_terms(seeded) == tuple(terms)
        while built:
            assert seeded.top_mono() == built.top_mono()
            assert seeded.pop() == built.pop()
        assert not seeded

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_lazy_products_match_an_eager_accumulator(self, data):
        """`reduce_top` keeps a product's monomial as a (term, multiplier)
        pair until `top_mono`, `pop` or `descending` builds it; products
        merge and cancel by key alone, also against an earlier step's
        products still unbuilt.  Copies taken part-way must go on holding
        what the eager reference holds."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(polynomials(order, vs.n))
        pending, ref = PendingTerms(p), FractionPendingTerms(p)
        copies = []
        for _ in range(data.draw(st.integers(1, 6))):
            if not ref:
                break
            terms = ref.descending()
            tc, top = terms[0]
            g, u = draw_reducer_of(data, order, tc, top, terms[1:])
            ref.pop()
            assert pending.reduce_top(u, g) == ref.sub_tail(tc / g.lc, u, g)
            assert g.key_row() is g.key_row()
            if data.draw(st.booleans()):
                copies.append((pending.copy(), ref.copy()))
            if ref and data.draw(st.booleans()):
                assert pop_fraction(pending) == ref.pop()
        for acc, acc_ref in [(pending, ref), *copies]:
            assert fraction_terms(acc) == acc_ref.descending()
            while acc_ref:
                assert pop_fraction(acc) == acc_ref.pop()
            assert not acc

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_difference_of_whole_polynomials(self, data):
        """f = c*u*g + p, p's terms all below u*lm(g): one step by g at u
        leaves f - (lc(f)/lc(g))*u*g, that is p."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        g = data.draw(polynomials(order, vs.n, max_terms=5))
        c = data.draw(small_fractions())
        u = data.draw(monomials(vs.n, 2))
        top = order.key(mono_mul(u, g.lm))
        p = data.draw(polynomials(order, vs.n))
        p = Polynomial(order, [(a, m) for a, m in p.terms if order.key(m) < top])
        f = g.mul_term(c, u) + p
        pending = PendingTerms(f)
        assert pending.top_coeff() == f.lc == c * g.lc
        deg = pending.reduce_top(u, g)
        # f - (lc(f)/lc(g))*u*g, through the constructor
        assert pending_poly(pending) == f - g.mul_term(f.lc / g.lc, u) == p
        assert deg == max((mono_mul(m, u).deg for _, m in g.terms[1:]), default=-1)


class TestSeededProducts:
    """A prolongation enters the accumulator as a product: `PendingTerms(g,
    u)` must hold what `PendingTerms(g.mul_term(1, u))` holds, and no
    default completion or involutivity check builds x*g."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_built_product(self, data):
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        g = data.draw(prime_polynomials(order, vs.n))
        u = data.draw(monomials(vs.n, 3))
        seeded, built = PendingTerms(g, u), PendingTerms(g.mul_term(1, u))
        assert seeded._keys == built._keys
        assert seeded._nums == built._nums
        assert seeded.den == built.den
        assert seeded.descending() == built.descending()
        while built:
            assert seeded.top_mono() == built.top_mono()
            assert seeded.pop() == built.pop()
        assert not seeded

    def test_a_product_at_the_key_bound_is_rejected(self):
        order = lex(XY)
        # Under lex the tail y^(B-2) of g = x + y^(B-2) has the largest
        # degree: times y it stays below the bound, times y^2 it reaches
        # it, while the head x*y^2 stays far below.
        g = Polynomial(order, [(1, Monomial((1, 0))), (1, Monomial((0, KEY_BOUND - 2)))])
        assert PendingTerms(g, Monomial((0, 1))).top_mono() == Monomial((1, 1))
        with pytest.raises(UsageError, match="order key bound"):
            PendingTerms(g, Monomial((0, 2)))

    def test_a_copy_shares_the_built_monomials(self):
        # A deflection copies the accumulator of a seeded prolongation: the
        # two must hold the same monomials, not one build each.
        y = Monomial((0, 1))
        g = poly((1, (2, 0)), (1, (1, 1)), (1, (0, 0)))
        pending = PendingTerms(g, y)
        twin = pending.copy()
        assert [id(t[2]) for t in twin.descending()] == [id(t[2]) for t in pending.descending()]
        assert pending_poly(twin) == g.mul_term(1, y)

    def test_check_invariants_catches_a_corrupt_seeded_accumulator(self, monkeypatch):
        class Corrupt(PendingTerms):
            def __init__(self, p, mono=None):
                super().__init__(p, mono)
                if mono is not None:
                    self._nums[0] *= 2

        monkeypatch.setattr(signatures_module, "PendingTerms", Corrupt)
        sf = load_builtin("cyclic4", order="degrevlex")
        with pytest.raises(AssertionError, match="seeded accumulator differs"):
            inv_comp(sf.polynomials, janet(sf.vars), sf.order, EngineOptions(check_invariants=True))

    @pytest.mark.parametrize("division_name", DIVISIONS)
    def test_completions_never_build_a_prolongation(self, division_name, monkeypatch):
        sf = load_builtin("cyclic4", order="degrevlex")
        div = division_by_name(division_name, sf.vars)
        tracked = inv_comp(sf.polynomials, div, sf.order, EngineOptions(track_cofactors=True))
        assert tracked.cofactor_records
        for rec in tracked.cofactor_records:
            assert expand_cofactors(rec.cofactors, tracked.sorted_input) == rec.poly

        def refuse(*args):
            raise AssertionError("Polynomial.mul_term called")

        monkeypatch.setattr(Polynomial, "mul_term", refuse)
        comp = inv_comp(sf.polynomials, div, sf.order)
        bas = inv_bas(sf.polynomials, div, sf.order)
        assert comp.basis == tracked.basis
        assert is_involutive(comp.basis, div, sf.order)
        assert is_involutive(bas.basis, div, sf.order)


class TestKeptKeyRows:
    """Every polynomial keeps the order keys of its terms: the constructor
    those it sorts by, the other builders keys they add or take from the
    accumulator, so reading `key_row` keys nothing."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_built_polynomials_carry_their_row(self, data):
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        f = data.draw(polynomials(order, vs.n))
        g = data.draw(polynomials(order, vs.n))
        u = data.draw(monomials(vs.n, 2))
        c = data.draw(small_fractions())
        G = data.draw(st.lists(polynomials(order, vs.n, max_terms=3), min_size=1, max_size=3))
        division = division_by_name(data.draw(st.sampled_from(DIVISIONS)), vs)
        built = {
            "mul_term": f.mul_term(c, u),
            "prolongation": f.mul_term(1, u),
            "scale": f.scale(c),
            "neg": -f,
            "spoly": spoly(f, g),
            "nf": _InvolutiveReducer(G, division).nf(f),
            "constructor": Polynomial(order, f.terms + g.terms),
        }
        for what, p in built.items():
            want = tuple(order.key(m) for _, m in p.terms)
            with counted_keys() as count:
                row = p.key_row()
            assert row == want, what
            assert count.calls == 0, what


class TestInvolutiveReducer:
    @given(reduction_cases(), st.sampled_from(DIVISIONS))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_drop_lt_loop(self, case, division_name):
        order, G, f = case
        div = division_by_name(division_name, order.vars)
        reducer = _InvolutiveReducer(G, div)
        assert reducer.nf(f).terms == drop_lt_involutive_nf(f, G, div, order).terms


class TestBuchbergerNF:
    @given(reduction_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_drop_lt_loop(self, case):
        order, G, f = case
        assert buchberger_nf(f, G, order).terms == drop_lt_buchberger_nf(f, G, order).terms

    def test_every_term_of_a_long_polynomial_is_reduced(self):
        # x*y - 1 takes each x^k*y to x^(k-1), one merge per term.
        vs = VarSet(("x", "y"))
        order = degrevlex(vs)
        terms = [(1, Monomial((k, 1))) for k in range(1, 5)] + [(1, Monomial((3, 0)))]
        f = Polynomial(order, terms)
        g = Polynomial(order, [(1, Monomial((1, 1))), (Fraction(-1), Monomial((0, 0)))])
        nf = buchberger_nf(f, [g], order)
        assert nf == drop_lt_buchberger_nf(f, [g], order)
        assert str(nf) == "2*x^3 + x^2 + x + 1"


@st.composite
def head_cases(draw):
    """Heads in 2-3 variables, repeats allowed, some added after the index
    is built, and terms that are mostly multiples of them, so that many
    heads divide a term."""
    vs = VarSet(("x", "y", "z")[: draw(st.integers(2, 3))])
    heads = draw(st.lists(monomials(vs.n, 3), min_size=1, max_size=7))
    start = draw(st.integers(0, len(heads)))
    multiples = st.builds(mono_mul, st.sampled_from(heads), monomials(vs.n, 3))
    terms = draw(st.lists(multiples | monomials(vs.n, 5), min_size=1, max_size=8))
    return vs, heads, start, terms


class TestHeadDivisors:
    @given(head_cases(), st.sampled_from(DIVISIONS))
    @settings(max_examples=150, deadline=None)
    def test_the_mask_passes_over_only_heads_that_do_not_divide(self, case, division_name):
        # Every involutive divisor, each with its quotient, in the order of
        # (head, position in the set), against the partition's plain test.
        vs, heads, start, terms = case
        order = degrevlex(vs)
        div = division_by_name(division_name, vs)
        G = [Polynomial(order, [(1, m)]) for m in heads]
        # The elements of G[:start] carry no item, those added later their
        # position in G.
        index = _InvolutiveReducer(G[:start], div)
        for i in range(start, len(G)):
            index.add(G[i], i)
        part = div.partition(heads)
        ranked = sorted(range(len(G)), key=lambda i: (order.key(heads[i]), i))
        for t in terms:
            found = [(item, g, u) for g, item, u in index.divisors(t)]
            quotients = [(i, mono_div(t, heads[i])) for i in ranked]
            want = [
                (i if i >= start else None, G[i], u)
                for i, u in quotients
                if u is not None and part.allows(heads[i], u)
            ]
            assert found == want


class TestRegularNormalForm:
    @given(signed_cases(), st.sampled_from(DIVISIONS))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_drop_lt_loop(self, case, division_name):
        order, basis, p = case
        div = division_by_name(division_name, order.vars)

        ref_engine = as_if_pushed(engine_over(div, order, basis), p)
        ref_h, ref_verdict = drop_lt_regular_normal_form(ref_engine, p)
        ref_queue = queued(ref_engine)

        engine = as_if_pushed(engine_over(div, order, basis), p)
        h, verdict = engine.regular_normal_form(p)
        assert verdict is ref_verdict
        assert h.order == order
        assert h.terms == ref_h.monic().terms
        # The counters the engine keeps while reducing agree as well.
        assert engine.stats == ref_engine.stats
        assert queued(engine) == ref_queue

    @given(signed_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_drop_lt_loop_over_a_filled_queue(self, case, data):
        # Elements already queued at the signatures u*sig(q) of the heads'
        # reductions, so that alex deflections meet the same-signature merge.
        order, basis, p = case
        div = division_by_name("alex", order.vars)
        queued_first = []
        for q in basis:
            for _c, m in p.poly:
                u = mono_div(m, q.poly.lm)
                if u is not None and data.draw(st.booleans()):
                    g = data.draw(polynomials(order, order.vars.n, max_deg=3)).monic()
                    queued_first.append(SigPoly(sig_mul(u, q.sig), g, g.lm))
        engines = []
        for _ in range(2):
            engine = as_if_pushed(engine_over(div, order, basis), p)
            for sp in queued_first:
                engine._push(sp, None)
            engines.append(engine)
        ref_h, ref_verdict = drop_lt_regular_normal_form(engines[0], p)
        h, verdict = engines[1].regular_normal_form(p)
        assert verdict is ref_verdict
        assert h.terms == ref_h.monic().terms
        assert engines[1].stats == engines[0].stats
        assert queued(engines[1]) == queued(engines[0])

    def test_an_element_never_pushed_leaves_max_deg_alone(self):
        # `_push` counts the degree of every element before it can pop, so
        # the normal form counts only the terms its steps form: x*y^2,
        # irreducible and never queued, leaves max_deg at 0.
        order = lex(XY)
        f = Polynomial(order, [(1, Monomial((1, 2)))])
        p = SigPoly(Signature(Monomial((0, 0)), 1), f, f.lm)
        engine = engine_over(janet(XY), order, [])
        assert engine.regular_normal_form(p) == (f, None)
        assert engine.stats.max_deg == 0

    def test_a_deflection_that_loses_the_merge_is_only_counted(self):
        # Under lex, q = x + y^5 reduces both terms of p = x^2 + x*y^3 only
        # unsafely (index 1 lies above index 2).  The first deflection is
        # queued; the second, at signature y^3*e1, has head x^2 and loses to
        # the queued element y of that signature, yet its product term y^8
        # still raises max_deg from 6 to 8.
        order = lex(XY)
        div = alex_division(XY)

        def lex_poly(*terms):
            return Polynomial(order, [(Fraction(c), Monomial(e)) for c, e in terms])

        one = Monomial((0, 0))
        q = lex_poly((1, (1, 0)), (1, (0, 5)))
        basis = [SigPoly(Signature(one, 1), q, q.lm)]
        f = lex_poly((1, (2, 0)), (1, (1, 3)))
        p = SigPoly(Signature(one, 2), f, f.lm)
        incumbent = lex_poly((1, (0, 1)))
        engines = []
        for _ in range(2):
            engine = engine_over(div, order, basis)
            engine._push(
                SigPoly(Signature(Monomial((0, 3)), 1), incumbent, incumbent.lm), None
            )
            engines.append(engine)
        ref_h, ref_verdict = drop_lt_regular_normal_form(engines[0], p)
        h, verdict = engines[1].regular_normal_form(p)
        assert (h.terms, verdict) == (ref_h.terms, ref_verdict)
        s = engines[1].stats
        assert (s.max_deg, s.deflections, s.sig_merges, s.killed_q) == (8, 1, 1, 0)
        assert s == engines[0].stats
        assert queued(engines[1]) == queued(engines[0])

    def test_only_a_head_past_the_criteria_is_seeded(self, monkeypatch):
        # The criteria read p's head and signature alone, so an accumulator
        # is seeded only for the normal forms that get past them: those
        # that reduce to zero and those inserted.
        seeded = []
        real = PendingTerms.__init__

        def init(pending, p, mono=None):
            seeded.append(mono)
            real(pending, p, mono)

        monkeypatch.setattr(PendingTerms, "__init__", init)
        sf = load_builtin("katsura5")
        r = inv_comp(sf.polynomials, janet(sf.vars), sf.order)
        assert r.stats.c1 + r.stats.c2 + r.stats.f5 + r.stats.super > 0
        assert len(seeded) == r.stats.reds + r.stats.polys_loop

    def test_a_product_at_the_key_bound_raises_before_the_criteria(self):
        # g = x + y^(B-2) under lex.  The prolongation y*g stays below the
        # key bound, and g itself discards its head: it reproduces the
        # signature y*e1 (super-top-reduction).  y^2*g would be discarded
        # the same way, but its tail y^B reaches the bound, so it raises.
        order = lex(XY)
        g = Polynomial(order, [(1, Monomial((1, 0))), (1, Monomial((0, KEY_BOUND - 2)))])
        q = SigPoly(Signature(Monomial((0, 0)), 1), g, g.lm)
        y, y2 = Monomial((0, 1)), Monomial((0, 2))
        p = SigPoly(sig_mul(y, q.sig), g, g.lm, mono=y)
        h, verdict = engine_over(janet(XY), order, [q]).regular_normal_form(p)
        assert (h.is_zero, verdict) == (True, Verdict.SUPER)
        p = SigPoly(sig_mul(y2, q.sig), g, g.lm, mono=y2)
        with pytest.raises(UsageError, match="order key bound"):
            engine_over(janet(XY), order, [q]).regular_normal_form(p)

    @pytest.mark.parametrize("division_name", DIVISIONS)
    def test_the_cofactors_left_expand_to_the_monic_result(self, division_name):
        sf = load_builtin("cyclic4", order="degrevlex")
        div = division_by_name(division_name, sf.vars)
        engine = _Engine(div, sf.order, EngineOptions(track_cofactors=True))
        engine.seed(sf.polynomials)
        real = engine.regular_normal_form
        reduced_heads = []

        def checked(p):
            h, verdict = real(p)
            if not h.is_zero:
                assert h.lc == 1
                assert expand_cofactors(p.cofactors, engine.gens) == h
                reduced_heads.append(h.lm != p.lm)
            return h, verdict

        engine.regular_normal_form = checked
        engine.run()
        # A reduced head leaves a remainder that had to be scaled.
        assert any(reduced_heads)


class TestQueuedCombinations:
    """A deflected or head-reduced combination is queued as the polynomial
    the reduction step formed (`PendingTerms.polynomial`), not made monic: only the
    generators and the inserted normal forms are."""

    @pytest.mark.parametrize("name", ["noon3", "katsura4"])
    def test_only_an_inserted_normal_form_is_made_monic(self, name, monkeypatch):
        calls = []
        real = Polynomial.monic

        def counted(p):
            calls.append(len(p))
            return real(p)

        monkeypatch.setattr(Polynomial, "monic", counted)
        sf = load_builtin(name)
        r = inv_comp(sf.polynomials, alex_division(sf.vars), sf.order)
        assert r.stats.deflections > 0
        assert len(calls) == len(sf.polynomials) + r.stats.polys_loop

    def test_check_invariants_catches_a_corrupt_raw_term(self, monkeypatch):
        # The last term of every queued combination carries a key one off
        # its monomial's, set after `_raw`'s check; the built combination is
        # keyed afresh.
        real = _Engine._queue_combination

        def corrupt(engine, sig, comb, *rest):
            comb._keys = (*comb._keys[:-1], comb._keys[-1] + 1)
            return real(engine, sig, comb, *rest)

        monkeypatch.setattr(_Engine, "_queue_combination", corrupt)
        sf = load_builtin("noon3")
        with pytest.raises(AssertionError, match="the seeded accumulator differs from the built polynomial"):
            inv_comp(sf.polynomials, alex_division(sf.vars), sf.order,
                     EngineOptions(check_invariants=True))
