"""Polynomial canonical form, arithmetic, rendering, and S-polynomials."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from invbases.core import (
    Monomial,
    Polynomial,
    UsageError,
    VarSet,
    degrevlex,
    lex,
    mono_lcm,
    mono_mul,
    mono_one,
    render_polynomial,
    spoly,
)

from conftest import monomials, polynomials, small_fractions

VS = VarSet(("x", "y"))
LEX = lex(VS)
DRL = degrevlex(VS)

X2 = Monomial((2, 0))
XY = Monomial((1, 1))
Y2 = Monomial((0, 2))
X = Monomial((1, 0))
Y = Monomial((0, 1))
ONE = mono_one(2)


def poly(order, *terms):
    return Polynomial(order, [(Fraction(c), m) for c, m in terms])


def assert_canonical(p: Polynomial):
    keys = [p.order.key(m) for _, m in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert len(set(keys)) == len(keys)
    assert all(c != 0 for c, _ in p.terms)


class TestConstruction:
    def test_terms_are_sorted_descending(self):
        p = poly(LEX, (1, Y2), (1, X2), (1, XY))
        assert [m for _, m in p.terms] == [X2, XY, Y2]

    def test_duplicate_monomials_combine(self):
        p = poly(LEX, (1, XY), (2, XY))
        assert p.terms == ((Fraction(3), XY),)

    def test_cancelling_terms_vanish(self):
        p = poly(LEX, (1, XY), (-1, XY))
        assert p.is_zero

    def test_zero_coefficients_are_dropped(self):
        p = poly(LEX, (0, XY), (1, X2))
        assert p.terms == ((Fraction(1), X2),)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(UsageError):
            poly(LEX, (1, Monomial((1, 1, 1))))

    def test_zero_and_one_constructors(self):
        assert Polynomial.zero(LEX).is_zero
        one = Polynomial.one(LEX)
        assert one.lm == ONE and one.lc == 1

    def test_coefficients_become_fractions(self):
        p = poly(LEX, (2, XY))
        assert isinstance(p.lc, Fraction)


class TestAccessors:
    def test_leading_data(self):
        p = poly(LEX, (2, XY), (-3, Y2))
        assert p.lm == XY
        assert p.lc == 2
        assert p.lt == (Fraction(2), XY)
        assert p.degree == 2

    def test_zero_polynomial_has_no_leading_data(self):
        z = Polynomial.zero(LEX)
        for attr in ("lm", "lc", "lt"):
            with pytest.raises(UsageError):
                getattr(z, attr)
        assert z.degree == -1

    def test_iteration_and_len(self):
        p = poly(LEX, (1, X2), (1, Y2))
        assert len(p) == 2
        assert [m for _, m in p] == [X2, Y2]


class TestCanonicalCheck:
    """`_assert_canonical` raises explicitly, so it does not depend on
    `assert` statements; `_raw` calls it unless Python runs with -O."""

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((Fraction(0), X2),), "non-canonical coefficient"),
            (((1, X2),), "non-canonical coefficient"),
            (((Fraction(1), Monomial((1, 1, 1))),), "dimension mismatch"),
            (((Fraction(1), Y2), (Fraction(1), X2)), "out of order"),
            (((Fraction(1), X2), (Fraction(2), X2)), "out of order"),
        ],
    )
    def test_broken_terms_raise(self, terms, message):
        with pytest.raises(AssertionError, match=message):
            Polynomial._raw(LEX, terms)
        p = object.__new__(Polynomial)
        p.order, p.terms = LEX, terms
        with pytest.raises(AssertionError, match=message):
            p._assert_canonical()


class TestArithmetic:
    def test_addition_merges_and_cancels(self):
        p = poly(LEX, (1, X2), (1, XY))
        q = poly(LEX, (-1, XY), (1, Y2))
        assert (p + q).terms == ((Fraction(1), X2), (Fraction(1), Y2))

    def test_subtraction_of_self_is_zero(self):
        p = poly(LEX, (1, X2), (-5, Y2))
        assert (p - p).is_zero

    def test_product_expands(self):
        p = poly(LEX, (1, X), (1, Y))
        q = poly(LEX, (1, X), (-1, Y))
        assert p * q == poly(LEX, (1, X2), (-1, Y2))

    def test_mul_term_and_scale(self):
        p = poly(LEX, (2, XY), (4, Y2))
        assert p.mul_term(Fraction(1, 2), X) == poly(LEX, (1, Monomial((2, 1))), (2, Monomial((1, 2))))
        assert p.scale(0).is_zero
        assert p.monic().lc == 1

    def test_mixed_orderings_are_rejected(self):
        p = poly(LEX, (1, XY))
        q = poly(DRL, (1, XY))
        with pytest.raises(UsageError):
            p + q
        with pytest.raises(UsageError):
            p * q

    @given(polynomials(LEX, 2), polynomials(LEX, 2))
    def test_addition_commutes_and_stays_canonical(self, p, q):
        s = p + q
        assert s == q + p
        assert_canonical(s)

    @given(polynomials(LEX, 2), polynomials(LEX, 2))
    def test_addition_then_subtraction_round_trips(self, p, q):
        assert (p + q) - q == p

    @given(polynomials(DRL, 2), polynomials(DRL, 2), small_fractions(), monomials(2, 2))
    def test_sub_mul_term_equals_the_two_step_form(self, p, g, c, u):
        expected = p - g.mul_term(c, u)
        assert p.sub_mul_term(c, u, g) == expected
        # The constructor's dict accumulation shares no code with the merge.
        scaled = [(-c * tc, mono_mul(tm, u)) for tc, tm in g.terms]
        assert expected == Polynomial(DRL, list(p.terms) + scaled)
        assert_canonical(p.sub_mul_term(c, u, g))
        # Full cancellation: subtract p from a multiple of itself.
        assert p.mul_term(c, u).sub_mul_term(c, u, p).is_zero
        assert p.sub_mul_term(0, u, g) == p - g.mul_term(0, u) == p

    def test_sub_mul_term_rejects_mixed_orderings(self):
        with pytest.raises(UsageError):
            poly(LEX, (1, XY)).sub_mul_term(1, X, poly(DRL, (1, Y)))
        with pytest.raises(UsageError):
            poly(LEX, (1, XY)).sub_mul_term(0, X, poly(DRL, (1, Y)))

    @given(polynomials(DRL, 2, max_deg=2, max_terms=3),
           polynomials(DRL, 2, max_deg=2, max_terms=3))
    def test_multiplication_commutes_and_stays_canonical(self, p, q):
        s = p * q
        assert s == q * p
        assert_canonical(s)


class TestRender:
    def test_fractional_and_negative_coefficients(self):
        p = poly(LEX, (1, X2), (Fraction(-3, 2), Y2))
        assert render_polynomial(p) == "x^2 - 3/2*y^2"

    def test_unit_coefficients_are_omitted(self):
        assert render_polynomial(poly(LEX, (1, XY), (1, ONE))) == "x*y + 1"

    def test_leading_minus_sign(self):
        assert render_polynomial(poly(LEX, (-1, X))) == "-x"

    def test_zero_renders_as_zero(self):
        assert render_polynomial(Polynomial.zero(LEX)) == "0"

    def test_str_matches_render(self):
        p = poly(LEX, (2, X))
        assert str(p) == "2*x"


class TestSPoly:
    def test_classic_pair(self):
        # spoly(x^2 - y, x*y - 1) = y*(x^2 - y) - x*(x*y - 1) = x - y^2.
        f = poly(LEX, (1, X2), (-1, Y))
        g = poly(LEX, (1, XY), (-1, ONE))
        assert spoly(f, g) == poly(LEX, (1, X), (-1, Y2))

    def test_equal_heads_cancel(self):
        f = poly(LEX, (2, XY), (1, ONE))
        g = poly(LEX, (1, XY), (1, Y))
        s = spoly(f, g)
        assert s == poly(LEX, (-1, Y), (Fraction(1, 2), ONE))

    def test_rejects_zero_arguments(self):
        with pytest.raises(UsageError):
            spoly(Polynomial.zero(LEX), poly(LEX, (1, X)))

    @given(polynomials(DRL, 2, max_deg=3, max_terms=3),
           polynomials(DRL, 2, max_deg=3, max_terms=3))
    def test_head_drops_below_the_lcm(self, f, g):
        s = spoly(f, g)
        if not s.is_zero:
            l = mono_lcm(f.lm, g.lm)
            assert DRL.cmp(s.lm, l) == -1
