"""Module signatures, the head archive, and the zero-reduction criteria."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbases.core import (
    GREATER,
    LESS,
    Monomial,
    Polynomial,
    UsageError,
    VarSet,
    lex,
    mono_one,
)
from invbases.signatures import (
    LMArchive,
    Signature,
    SigPoly,
    Verdict,
    ancestor_criteria,
    criteria,
    sig_cmp,
    sig_mul,
    sig_sort_key,
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


def sp(sig_mono, sig_index, p, anc_lm=None):
    return SigPoly(Signature(sig_mono, sig_index), p, p.lm if anc_lm is None else anc_lm)


class TestSignature:
    def test_indices_are_one_based(self):
        Signature(ONE, 1)
        with pytest.raises(UsageError):
            Signature(ONE, 0)

    def test_value_equality(self):
        assert Signature(XY, 2) == Signature(XY, 2)
        assert Signature(XY, 2) != Signature(XY, 1)

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


class TestLMArchive:
    def test_needs_one_seed_per_position(self):
        with pytest.raises(UsageError):
            LMArchive([])
        with pytest.raises(UsageError):
            LMArchive([[X2], []])

    def test_record_appends_without_duplicates(self):
        arch = LMArchive([[X2], [XY]])
        arch.record(1, Y2)
        arch.record(1, Y2)
        assert arch.columns == [[X2, Y2], [XY]]

    def test_position_bounds(self):
        arch = LMArchive([[X2]])
        with pytest.raises(UsageError):
            arch.record(2, XY)
        with pytest.raises(UsageError):
            arch.record(0, XY)

    def test_divisor_above_scans_later_positions_only(self):
        arch = LMArchive([[X2], [XY]])
        # Position 1 sees position 2's heads; position 2 sees nothing later.
        assert arch.divisor_above(1, X2Y2) == XY
        assert arch.divisor_above(2, X2Y2) is None
        assert arch.divisor_above(1, X2) is None


class TestCriteria:
    def test_super_top_reduction(self):
        q = sp(ONE, 1, poly((1, XY), (1, Y2)))
        p = sp(X, 1, poly((1, X2Y), (1, Y2)))
        assert criteria(p, q, None) == Verdict.SUPER

    def test_super_takes_precedence(self):
        # The same pair also satisfies the product criterion on ancestors.
        q = sp(ONE, 1, poly((1, XY)), anc_lm=Y)
        p = sp(X, 1, poly((1, X2Y)), anc_lm=X2)
        assert p.anc_lm == X2 and q.anc_lm == Y
        assert criteria(p, q, None) == Verdict.SUPER

    def test_product_criterion_on_ancestors(self):
        q = sp(ONE, 2, poly((1, XY)), anc_lm=Y)
        p = sp(Y2, 1, poly((1, X2Y)), anc_lm=X2)
        assert criteria(p, q, None) == Verdict.C1

    def test_chain_criterion_on_ancestors(self):
        q = sp(ONE, 2, poly((1, XY2)), anc_lm=XY)
        p = sp(Y2, 1, poly((1, X2Y2)), anc_lm=X2)
        assert criteria(p, q, None) == Verdict.C2

    def test_signature_criterion_against_the_archive(self):
        arch = LMArchive([[X2], [Y]])
        q = sp(ONE, 1, poly((1, XY)))
        p = sp(XY2, 1, poly((1, X2Y)))
        assert criteria(p, q, arch) == Verdict.F5

    def test_none_without_any_evidence(self):
        arch = LMArchive([[X2], [Y2]])
        q = sp(ONE, 1, poly((1, XY)))
        p = sp(XY, 1, poly((1, X2Y)))
        assert criteria(p, q, arch) == Verdict.NONE

    def test_rejects_zero_polynomials(self):
        q = sp(ONE, 1, poly((1, XY)))
        z = SigPoly(Signature(X, 1), Polynomial.zero(LEX), XY)
        with pytest.raises(UsageError):
            criteria(z, q, None)

    def test_rejects_non_dividing_heads(self):
        q = sp(ONE, 1, poly((1, X2)))
        p = sp(X, 1, poly((1, XY)))
        with pytest.raises(UsageError):
            criteria(p, q, None)


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
            assert criteria(p, q, LMArchive([[X2], [Y2]])) is ancestor_criteria(
                head, anc_p, anc_q
            )


class TestSigPoly:
    def test_processed_set_is_copied(self):
        # `processed` is a bitmask of variable indices, a value: widening
        # one element's mask leaves the mask it was built from alone.
        a = SigPoly(Signature(ONE, 1), poly((1, XY)), XY, processed=0b1)
        b = SigPoly(Signature(ONE, 1), poly((1, XY)), XY, processed=a.processed)
        b.processed |= 0b10
        assert (a.processed, b.processed) == (0b1, 0b11)
        assert SigPoly(Signature(ONE, 1), poly((1, XY)), XY).processed == 0

    def test_repr_mentions_signature_and_head(self):
        a = SigPoly(Signature(X, 2), poly((1, XY)), XY)
        assert "e2" in repr(a)
