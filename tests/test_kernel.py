"""The reduction kernel: `PendingTerms` and the three normal forms on it.

The accumulator is checked on its own, against the difference
``h - g.mul_term(c, u)`` of two whole polynomials (built by the
canonicalising constructor, which shares no code with the accumulator),
and against `FractionPendingTerms`, the accumulator it replaced: `Fraction`
coefficients instead of integer numerators over a common denominator, and
each product's monomial and key built when it is folded in, not its key
added from the reducer's key row and its monomial built when it leaves.
Each normal-form reference below rebuilds the polynomial after every
irreducible head with `drop_lt`, as the three normal forms once did, and
takes each reduction step as that difference.  The normal forms must
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
    spoly,
)
from invbases.division import alex_division, division_by_name
from invbases.engine import EngineOptions, _Engine, _InvolutiveReducer, reg_normal_form
from invbases.oracles import buchberger_nf
from invbases.signatures import (
    LMArchive,
    Signature,
    SigPoly,
    Verdict,
    criteria,
    sig_cmp,
    sig_mul,
)

from conftest import counted_keys, monomials, polynomials, small_fractions

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
    return Polynomial._raw(h.order, h.terms[1:])


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
    return Polynomial._raw(order, tuple(rem))


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
    return Polynomial._raw(order, tuple(rem))


def drop_lt_regular_normal_form(engine: _Engine, p: SigPoly):
    """`_Engine.regular_normal_form` with a full divisor scan per head and a
    `drop_lt` per irreducible head (no cofactors)."""
    order = engine.order
    part = engine.division.partition([q.poly.lm for q in engine.T])
    h = p.poly
    rem = []
    at_head = True
    deflected = set()
    while not h.is_zero:
        engine._bump_deg(h)
        candidates = []
        hlm = h.lm
        for q in engine.T:
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
                verdict = criteria(p, q, engine.archive)
                if verdict is not Verdict.NONE:
                    return Polynomial.zero(order), verdict
        chosen_rank, chosen, chosen_u = candidates[0]
        if chosen_rank[0] != 0:
            if engine.deflect:
                c = h.lc / chosen.poly.lc
                current = Polynomial._raw(order, tuple(rem) + h.terms)
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
    return Polynomial._raw(order, tuple(rem)), None


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


def sig_strategy(n: int, k: int):
    return st.builds(Signature, monomials(n, 2), st.integers(1, k))


@st.composite
def signed_cases(draw):
    """A basis of signature-labelled elements with distinct heads, an
    optional archive, and an element to reduce against them."""
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
    archive = None
    if draw(st.booleans()):
        archive = LMArchive([[draw(monomials(n, 3))] for _ in range(3)])
    anc = f.lm if draw(st.booleans()) else draw(monomials(n, 2))
    p = SigPoly(draw(sig_strategy(n, 3)), f, anc)
    return order, basis, archive, p


def queued(engine: _Engine):
    out = []
    sp = engine._pop()
    while sp is not None:
        out.append(entry(sp))
        sp = engine._pop()
    return out


def entry(sp: SigPoly):
    return (sp.sig, sp.poly.terms, sp.anc_lm)


XY = VarSet(("x", "y"))
DRL = degrevlex(XY)


def poly(*terms):
    return Polynomial(DRL, [(Fraction(c), Monomial(e)) for c, e in terms])


def pending_poly(pending: PendingTerms) -> Polynomial:
    return Polynomial._raw(pending.order, pending.descending())


def assert_content_removed(pending: PendingTerms) -> None:
    """The numerators share no factor with `den`, so `den` is the least
    common denominator of the pending terms."""
    assert pending.den > 0
    assert math.gcd(pending.den, *pending._nums) == 1
    assert pending.den == math.lcm(*[c.denominator for c, _ in pending.descending()])


class TestPendingTerms:
    def test_pop_takes_the_largest_term(self):
        pending = PendingTerms(poly((1, (2, 0)), (2, (0, 1)), (3, (0, 0))))
        popped = []
        while pending:
            popped.append(pending.pop())
        assert popped == list(poly((1, (2, 0)), (2, (0, 1)), (3, (0, 0))).terms)

    def test_a_cancelling_product_term_removes_the_entry(self):
        pending = PendingTerms(poly((1, (2, 0)), (2, (0, 1))))
        # tail of 1*1*(x^3 + 2*y) is 2*y, which cancels the pending 2*y
        pending.sub_tail(1, Monomial((0, 0)), poly((1, (3, 0)), (2, (0, 1))))
        assert pending.descending() == poly((1, (2, 0))).terms

    def test_an_equal_monomial_merges_its_coefficient(self):
        pending = PendingTerms(poly((1, (2, 0)), (2, (1, 0))))
        # tail of 1/2*x*(x^2*y + 1) is x/2, which joins the pending 2*x
        pending.sub_tail(Fraction(1, 2), Monomial((1, 0)), poly((1, (2, 1)), (1, (0, 0))))
        assert pending.descending() == poly((1, (2, 0)), (Fraction(3, 2), (1, 0))).terms

    def test_inserts_keep_strict_descending_order(self):
        pending = PendingTerms(poly((1, (3, 0)), (1, (1, 1)), (1, (0, 0))))
        g = poly((1, (2, 2)), (1, (2, 1)), (-1, (1, 1)), (1, (0, 2)), (1, (1, 0)), (1, (0, 0)))
        pending.sub_tail(1, Monomial((0, 0)), g)
        keys = [DRL.key(m) for _, m in pending.descending()]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)
        assert pending_poly(pending) == poly((1, (3, 0)), (-1, (2, 1)), (2, (1, 1)), (-1, (0, 2)),
                                             (-1, (1, 0)))

    def test_a_reducer_of_another_ordering_or_dimension_is_rejected(self):
        pending = PendingTerms(poly((1, (1, 1))))
        other = Polynomial(lex(XY), [(1, Monomial((1, 0))), (1, Monomial((0, 1)))])
        with pytest.raises(UsageError):
            pending.sub_tail(1, Monomial((0, 1)), other)
        with pytest.raises(UsageError):
            buchberger_nf(poly((1, (1, 1))), [other], DRL)
        with pytest.raises(UsageError):
            pending.sub_tail(1, Monomial((0, 1, 0)), poly((1, (1, 0)), (1, (0, 1))))

    def test_a_copy_is_independent(self):
        pending = PendingTerms(poly((1, (2, 0)), (Fraction(1, 3), (1, 1)), (2, (0, 0))))
        before = pending.descending()
        twin = pending.copy()
        y = Monomial((0, 1))
        twin.sub_tail(Fraction(1, 2), y, poly((1, (1, 0)), (Fraction(2, 3), (0, 1))))
        assert pending.descending() == before
        assert pending_poly(twin) == pending_poly(pending) - poly(
            (Fraction(2, 3), (0, 1))
        ).mul_term(Fraction(1, 2), y)

    def test_returns_the_largest_product_degree(self):
        pending = PendingTerms(poly((1, (3, 0))))
        # The tail y^3 + x^2 + 1 times x: x*y^3 and x are new, x^3 cancels.
        assert pending.sub_tail(1, Monomial((1, 0)), poly((1, (0, 4)), (1, (2, 0)), (1, (0, 3)),
                                                          (1, (0, 0)))) == 4
        assert pending.sub_tail(1, Monomial((1, 0)), poly((1, (0, 4)))) == -1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_accumulator(self, data):
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(prime_polynomials(order, vs.n))
        pending, ref = PendingTerms(p), FractionPendingTerms(p)
        assert_content_removed(pending)
        for _ in range(data.draw(st.integers(1, 8))):
            for _ in range(data.draw(st.integers(0, 2))):
                if ref:
                    assert pending.pop() == ref.pop()
                    assert pending.descending() == ref.descending()
            g = data.draw(prime_polynomials(order, vs.n))
            u = data.draw(monomials(vs.n, 2))
            c = data.draw(prime_fractions())
            # About half of the steps cancel a pending term exactly: with a
            # constant term a in g's tail, c = (pending coefficient) / a at
            # u = that pending monomial deletes the entry.
            g = g + Polynomial(order, [(data.draw(prime_fractions()), mono_one(vs.n))])
            if g.is_zero:
                continue
            terms = ref.descending()
            if terms and len(g) > 1 and g.terms[-1][1].deg == 0 and data.draw(st.booleans()):
                tc, u = data.draw(st.sampled_from(terms))
                c = tc / g.terms[-1][0]
            assert pending.sub_tail(c, u, g) == ref.sub_tail(c, u, g)
            assert pending.descending() == ref.descending()
            assert_content_removed(pending)
        while ref:
            assert pending.pop() == ref.pop()
        assert not pending

    def test_a_product_at_the_key_bound_is_rejected(self):
        half = KEY_BOUND // 2
        pending = PendingTerms(poly((1, (0, 0))))
        # y^(B/2) * (x^(B/2) + y^(B/2 - 1)) stays below the bound ...
        g = poly((1, (half, 0)), (1, (0, half - 1)))
        assert pending.sub_tail(1, Monomial((0, half)), g) == KEY_BOUND - 1
        # ... and y^(B/2) * (x^(B/2) + y^(B/2)) reaches it.
        g = poly((1, (half, 0)), (1, (0, half)))
        with pytest.raises(UsageError, match="order key bound"):
            pending.sub_tail(1, Monomial((0, half)), g)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_lazy_products_match_an_eager_accumulator(self, data):
        """`sub_tail` keeps a product's monomial as a (term, multiplier)
        pair until `pop` or `descending` builds it; products merge and
        cancel by key alone.  A step may be undone by its negation, so that
        products cancel before they are popped, and copies taken part-way
        must go on holding what the eager reference holds."""
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(polynomials(order, vs.n))
        pending, ref = PendingTerms(p), FractionPendingTerms(p)
        copies = []
        for _ in range(data.draw(st.integers(1, 6))):
            g = data.draw(polynomials(order, vs.n, max_terms=5))
            u = data.draw(monomials(vs.n, 2))
            c = data.draw(small_fractions())
            steps = [c, -c] if data.draw(st.booleans()) else [c]
            for step in steps:
                assert pending.sub_tail(step, u, g) == ref.sub_tail(step, u, g)
            assert g.key_row() is g.key_row()
            if data.draw(st.booleans()):
                copies.append((pending.copy(), ref.copy()))
            if ref and data.draw(st.booleans()):
                assert pending.pop() == ref.pop()
        for acc, acc_ref in [(pending, ref), *copies]:
            assert acc.descending() == acc_ref.descending()
            while acc_ref:
                assert acc.pop() == acc_ref.pop()
            assert not acc

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_difference_of_whole_polynomials(self, data):
        vs = VarSet(("x", "y", "z")[: data.draw(st.integers(2, 3))])
        order = data.draw(st.sampled_from((lex, degrevlex)))(vs)
        p = data.draw(polynomials(order, vs.n))
        g = data.draw(polynomials(order, vs.n, max_terms=5))
        c = data.draw(small_fractions())
        u = data.draw(monomials(vs.n, 2))
        pending = PendingTerms(p)
        deg = pending.sub_tail(c, u, g)
        lead = Polynomial._raw(order, (g.lt,))
        # p - c*u*(g - lt(g)), through the constructor
        assert pending_poly(pending) == p - (g - lead).mul_term(c, u)
        assert deg == max((mono_mul(m, u).deg for _, m in g.terms[1:]), default=-1)


class TestKeptKeyRows:
    """Under `__debug__`, `_raw`'s canonical check keys every term, and the
    polynomial keeps those keys as its row, as the constructor keeps the
    keys it sorts by: reading `key_row` keys nothing more."""

    @pytest.mark.skipif(not __debug__, reason="the canonical check runs only under __debug__")
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
            "nf": _InvolutiveReducer(G, division, order).nf(f),
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
        reducer = _InvolutiveReducer(G, div, order)
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
        index = _InvolutiveReducer(G[:start], div, order, items=range(start))
        for i in range(start, len(G)):
            index.add(G[i], i)
        part = div.partition(heads)
        ranked = sorted(range(len(G)), key=lambda i: (order.key(heads[i]), i))
        for t in terms:
            found = [(item, g, u) for _rank, g, item, u in index.divisors(t)]
            want = [
                (i, G[i], mono_div(t, heads[i]))
                for i in ranked
                if part.inv_divides(heads[i], t)
            ]
            assert found == want


class TestRegularNormalForm:
    @given(signed_cases(), st.sampled_from(DIVISIONS))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_drop_lt_loop(self, case, division_name):
        order, basis, archive, p = case
        div = division_by_name(division_name, order.vars)

        ref_engine = _Engine(div, order, EngineOptions(), basis, archive)
        ref_h, ref_verdict = drop_lt_regular_normal_form(ref_engine, p)
        ref_queue = queued(ref_engine)

        sink: list[SigPoly] = []
        h, verdict = reg_normal_form(p, basis, div, order, archive, q_sink=sink)
        assert verdict is ref_verdict
        assert h.order == order
        assert h.terms == ref_h.terms
        assert [entry(sp) for sp in sink] == ref_queue

        # The counters the engine keeps while reducing agree as well.
        engine = _Engine(div, order, EngineOptions(), basis, archive)
        engine.regular_normal_form(p)
        assert engine.stats == ref_engine.stats

    @given(signed_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_drop_lt_loop_over_a_filled_queue(self, case, data):
        # Elements already queued at the signatures u*sig(q) of the heads'
        # reductions, so that alex deflections meet the same-signature merge.
        order, basis, archive, p = case
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
            engine = _Engine(div, order, EngineOptions(), basis, archive)
            for sp in queued_first:
                engine._push(sp, None)
            engines.append(engine)
        ref_h, ref_verdict = drop_lt_regular_normal_form(engines[0], p)
        h, verdict = engines[1].regular_normal_form(p)
        assert verdict is ref_verdict
        assert h.terms == ref_h.terms
        assert engines[1].stats == engines[0].stats
        assert queued(engines[1]) == queued(engines[0])

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
            engine = _Engine(div, order, EngineOptions(), basis)
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
