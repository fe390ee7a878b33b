"""Module signatures and the zero-reduction criteria."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbases.core import (
    GREATER,
    LESS,
    Monomial,
    PendingTerms,
    Polynomial,
    UsageError,
    VarSet,
    lex,
    mono_one,
)
from invbases.signatures import (
    Signature,
    SigPoly,
    Verdict,
    ancestor_criteria,
    criteria,
    sig_cmp,
    sig_mul,
)

from conftest import monomials

VS = VarSet(("x", "y"))
LEX = lex(VS)

ONE = mono_one(2)
X = Monomial((1, 0))
Y = Monomial((0, 1))
XY = Monomial((1, 1))
X2 = Monomial((2, 0))
Y2 = Monomial((0, 2))
X2Y = Monomial((2, 1))
XY2 = Monomial((1, 2))
X2Y2 = Monomial((2, 2))


def poly(*terms):
    return Polynomial(LEX, [(Fraction(c), m) for c, m in terms])


def sig_sort_key(order, s: Signature):
    """Ascending sort under this key agrees with `sig_cmp`."""
    return (-s.index, order.key(s.mono))


def sp(sig_mono, sig_index, p, anc_lm=None):
    return SigPoly(Signature(sig_mono, sig_index), p, p.lm if anc_lm is None else anc_lm)


def filed(*basis):
    """The basis elements by module position, as the engine files them."""
    by_position = {}
    for t in basis:
        by_position.setdefault(t.sig.index, []).append((t.poly.lm, t))
    return by_position


class TestSignature:
    def test_indices_are_one_based(self):
        Signature(ONE, 1)
        with pytest.raises(UsageError):
            Signature(ONE, 0)

    def test_value_equality(self):
        assert Signature(XY, 2) == Signature(XY, 2)
        assert Signature(XY, 2) != Signature(XY, 1)

    def test_equal_signatures_hash_equal(self):
        a, b = Signature(XY, 2), Signature(mono=Monomial((1, 1)), index=2)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Signature(X, 2), Signature(XY, 1)}) == 3
        assert (a.mono, a.index) == (XY, 2)
        assert repr(a) == "Signature(mono=Monomial((1, 1)), index=2)"

    def test_keyword_index_is_checked_too(self):
        with pytest.raises(UsageError):
            Signature(mono=ONE, index=0)

    def test_sig_mul_shifts_the_monomial_only(self):
        s = sig_mul(X, Signature(Y, 2))
        assert s == Signature(XY, 2)


class TestSigOrder:
    def test_higher_index_is_smaller(self):
        e1 = Signature(ONE, 1)
        e2 = Signature(ONE, 2)
        assert sig_cmp(LEX, e2, e1) == LESS
        assert sig_cmp(LEX, e1, e2) == GREATER
        # Even a large shift cannot lift a later position above an earlier one.
        assert sig_cmp(LEX, Signature(X2Y2, 2), e1) == LESS

    def test_same_index_falls_back_to_the_monomial_order(self):
        assert sig_cmp(LEX, Signature(X, 1), Signature(Y, 1)) == GREATER
        assert sig_cmp(LEX, Signature(Y, 1), Signature(Y, 1)) == 0

    @given(monomials(2), monomials(2),
           st.integers(1, 3), st.integers(1, 3))
    def test_sort_key_agrees_with_cmp(self, a, b, i, j):
        s, t = Signature(a, i), Signature(b, j)
        c = sig_cmp(LEX, s, t)
        ks, kt = sig_sort_key(LEX, s), sig_sort_key(LEX, t)
        assert (ks < kt) == (c == LESS)
        assert (ks == kt) == (c == 0)


class TestCriteria:
    def test_super_top_reduction(self):
        q = sp(ONE, 1, poly((1, XY), (1, Y2)))
        p = sp(X, 1, poly((1, X2Y), (1, Y2)))
        assert criteria(p, q, {}) == Verdict.SUPER

    def test_super_takes_precedence(self):
        # The same pair also satisfies the product criterion on ancestors.
        q = sp(ONE, 1, poly((1, XY)), anc_lm=Y)
        p = sp(X, 1, poly((1, X2Y)), anc_lm=X2)
        assert p.anc_lm == X2 and q.anc_lm == Y
        assert criteria(p, q, {}) == Verdict.SUPER

    def test_product_criterion_on_ancestors(self):
        q = sp(ONE, 2, poly((1, XY)), anc_lm=Y)
        p = sp(Y2, 1, poly((1, X2Y)), anc_lm=X2)
        assert criteria(p, q, {}) == Verdict.C1

    def test_chain_criterion_on_ancestors(self):
        q = sp(ONE, 2, poly((1, XY2)), anc_lm=XY)
        p = sp(Y2, 1, poly((1, X2Y2)), anc_lm=X2)
        assert criteria(p, q, {}) == Verdict.C2

    def test_signature_criterion_against_the_archive(self):
        # The basis, filed by position, is the record of heads.
        basis = filed(sp(ONE, 1, poly((1, X2))), sp(ONE, 2, poly((1, Y))))
        q = sp(ONE, 1, poly((1, XY)))
        p = sp(XY2, 1, poly((1, X2Y)))
        assert criteria(p, q, basis) == Verdict.F5

    def test_signature_criterion_reads_later_positions_only(self):
        # The basis head y divides x*y^2, the monomial of p's signature at
        # e2; it makes the reduction redundant only from a later position.
        q = sp(ONE, 2, poly((1, XY)))
        p = sp(XY2, 2, poly((1, X2Y)))
        for position, verdict in [(3, Verdict.F5), (2, Verdict.NONE), (1, Verdict.NONE)]:
            assert criteria(p, q, filed(sp(ONE, position, poly((1, Y))))) == verdict

    def test_none_without_any_evidence(self):
        basis = filed(sp(ONE, 1, poly((1, X2))), sp(ONE, 2, poly((1, Y2))))
        q = sp(ONE, 1, poly((1, XY)))
        p = sp(XY, 1, poly((1, X2Y)))
        assert criteria(p, q, basis) == Verdict.NONE

    def test_rejects_zero_polynomials(self):
        q = sp(ONE, 1, poly((1, XY)))
        z = SigPoly(Signature(X, 1), Polynomial.zero(LEX), XY)
        with pytest.raises(UsageError):
            criteria(z, q, {})

    def test_rejects_non_dividing_heads(self):
        q = sp(ONE, 1, poly((1, X2)))
        p = sp(X, 1, poly((1, XY)))
        with pytest.raises(UsageError):
            criteria(p, q, {})


class TestAncestorCriteria:
    def test_product(self):
        assert ancestor_criteria(X2Y, X2, Y) is Verdict.C1

    def test_chain_needs_a_proper_divisor(self):
        assert ancestor_criteria(X2Y2, X2, XY) is Verdict.C2
        # lcm(x^2, x*y) = x^2*y is the head itself: no criterion.
        assert ancestor_criteria(X2Y, X2, XY) is Verdict.NONE

    def test_product_precedes_chain(self):
        # x * x*y is the head, and lcm(x, x*y) = x*y properly divides it.
        assert ancestor_criteria(X2Y, X, XY) is Verdict.C1
        assert ancestor_criteria(X2Y2, X, Y) is Verdict.C2

    def test_no_common_multiple_below_the_head(self):
        assert ancestor_criteria(X2Y, X2, Y2) is Verdict.NONE

    def test_criteria_agree_with_it_on_ancestors(self):
        # Position 2 has no later column, so only C1/C2 can fire.
        for anc_p, anc_q, head in [(X2, Y, X2Y), (X2, XY, X2Y2), (X2, Y2, X2Y2)]:
            q = sp(ONE, 2, poly((1, XY)), anc_lm=anc_q)
            p = sp(Y2, 2, poly((1, head)), anc_lm=anc_p)
            basis = filed(sp(ONE, 1, poly((1, X2))), sp(ONE, 2, poly((1, Y2))))
            assert criteria(p, q, basis) is ancestor_criteria(
                head, anc_p, anc_q
            )


class TestSigPoly:
    def test_repr_mentions_signature_and_head(self):
        a = SigPoly(Signature(X, 2), poly((1, XY)), XY)
        assert "e2" in repr(a)

    def test_a_prolongation_keeps_its_product_unbuilt(self):
        # x*(x*y + 2*y): the head x^2*y is taken once, the product is built
        # only on request, and the criteria read the product's head.
        g = poly((1, XY), (2, Y))
        a = SigPoly(Signature(X, 1), g, XY, mono=X)
        assert a.poly is g
        assert a.lm == X2Y
        assert a.value() == g.mul_term(1, X)
        assert "(2, 1)" in repr(a)
        assert criteria(a, sp(ONE, 1, g), {}) is Verdict.SUPER

    def test_a_combination_is_a_plain_polynomial(self):
        # 2/3*x*y^2 - 1/2*y^2 + y, built as the engine builds a deflected
        # combination: a term popped over one denominator, then the terms a
        # reduction step leaves over another (x*y - y^2 + y less
        # 1/2*y*(2*x - y)).  The head's key is the
        # polynomial's kept one, the combination is its own ancestor, and it
        # is queued as formed, not made monic.
        pending = PendingTerms(poly((Fraction(2, 3), XY2), (1, XY), (-1, Y2), (1, Y)))
        popped = [pending.pop()]
        pending.reduce_top(Y, poly((2, X), (-1, Y)))
        assert (popped[0][1], pending.den) == (3, 2)
        comb = pending.polynomial(popped)
        want = poly((Fraction(2, 3), XY2), (Fraction(-1, 2), Y2), (1, Y))
        assert comb == want
        a = SigPoly(Signature(Y, 1), comb, comb.lm)
        assert (a.poly, a.mono) == (comb, None)
        assert (a.lm, a.lm_key, a.anc_lm, a.sig_key) == (XY2, LEX.key(XY2), XY2, LEX.key(Y))
        assert a.deg == 3
        assert a.value() is comb
        assert a.pending().descending() == [(4, 6, XY2, LEX.key(XY2)), (-3, 6, Y2, LEX.key(Y2)),
                                            (6, 6, Y, LEX.key(Y))]

    def test_every_form_seeds_and_keeps_its_degree(self):
        g = poly((1, XY), (2, Y))
        for a, built in [
            (SigPoly(Signature(ONE, 1), g, XY), g),
            (SigPoly(Signature(X, 1), g, XY, mono=X), g.mul_term(1, X)),
        ]:
            assert a.pending().descending() == PendingTerms(built).descending()
            assert a.deg == built.degree
        zero = SigPoly(Signature(ONE, 1), Polynomial.zero(LEX), ONE)
        assert (zero.lm, zero.deg, bool(zero.pending())) == (None, -1, False)
