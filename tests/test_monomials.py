"""Monomial arithmetic, variable sets, and the three monomial orderings."""
from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given

from invbases.core import (
    EQUAL,
    GREATER,
    LESS,
    Monomial,
    UsageError,
    VarSet,
    alex,
    degrevlex,
    lex,
    mono_cmp,
    mono_div,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_var,
    ordering_by_name,
    render_monomial,
)

from conftest import monomials

X2Y = Monomial((2, 1))
XY = Monomial((1, 1))
X2 = Monomial((2, 0))
ONE2 = mono_one(2)


class TestMonomial:
    def test_degree_is_exponent_sum(self):
        assert Monomial((2, 0, 3)).deg == 5
        assert ONE2.deg == 0 and ONE2.is_one

    def test_rejects_negative_exponents(self):
        with pytest.raises(UsageError):
            Monomial((1, -1))

    def test_rejects_non_integer_exponents(self):
        with pytest.raises(UsageError):
            Monomial((1.5, 0))

    def test_equality_and_hash_follow_exponents(self):
        assert Monomial((1, 2)) == Monomial((1, 2))
        assert Monomial((1, 2)) != Monomial((2, 1))
        assert len({Monomial((1, 2)), Monomial((1, 2))}) == 1

    def test_variables_lists_positive_positions(self):
        assert Monomial((0, 2, 1)).variables == (1, 2)
        assert mono_one(3).variables == ()

    def test_divides(self):
        assert XY.divides(X2Y)
        assert not X2Y.divides(XY)
        assert ONE2.divides(X2)


class TestMonomialOps:
    def test_mul_adds_exponents(self):
        assert mono_mul(X2Y, XY) == Monomial((3, 2))

    def test_mul_identity(self):
        assert mono_mul(X2Y, ONE2) == X2Y

    def test_mul_disjoint_supports(self):
        assert mono_mul(Monomial((1, 0)), Monomial((0, 1))) == XY

    def test_mul_dimension_mismatch(self):
        with pytest.raises(UsageError):
            mono_mul(XY, Monomial((1, 1, 1)))

    def test_div_exact_quotient(self):
        assert mono_div(X2Y, XY) == Monomial((1, 0))
        assert mono_div(X2Y, X2Y) == ONE2

    def test_div_returns_none_without_divisibility(self):
        assert mono_div(XY, X2) is None

    def test_lcm_takes_componentwise_maxima(self):
        assert mono_lcm(X2, XY) == X2Y
        assert mono_lcm(XY, XY) == XY

    def test_mono_var_and_bounds(self):
        assert mono_var(0, 2) == Monomial((1, 0))
        assert mono_var(1, 2) == Monomial((0, 1))
        with pytest.raises(UsageError):
            mono_var(2, 2)

    @given(monomials(3), monomials(3))
    def test_div_inverts_mul(self, a, b):
        assert mono_div(mono_mul(a, b), b) == a

    @given(monomials(3), monomials(3))
    def test_divides_iff_div_succeeds(self, a, b):
        assert a.divides(b) == (mono_div(b, a) is not None)


class TestVarSet:
    def test_default_priority_is_declaration_order(self):
        vs = VarSet(("x", "y", "z"))
        assert vs.priority == (0, 1, 2)
        assert vs.n == 3

    def test_priority_override_must_be_permutation(self):
        VarSet(("x", "y"), (1, 0))
        with pytest.raises(UsageError):
            VarSet(("x", "y"), (0, 0))

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(UsageError):
            VarSet(())
        with pytest.raises(UsageError):
            VarSet(("x", "x"))

    def test_index_lookup(self):
        vs = VarSet(("x", "y"))
        assert vs.index("y") == 1
        with pytest.raises(UsageError):
            vs.index("z")


class TestOrderings:
    def test_kinds_and_admissibility(self):
        vs = VarSet(("x", "y"))
        assert lex(vs).admissible
        assert degrevlex(vs).admissible
        assert not alex(vs).admissible
        with pytest.raises(UsageError):
            ordering_by_name("grlex", vs)

    def test_lex_first_declared_variable_is_greatest(self):
        vs = VarSet(("x", "y"))
        o = lex(vs)
        x, y = mono_var(0, 2), mono_var(1, 2)
        assert o.cmp(x, y) == GREATER
        assert o.cmp(X2, XY) == GREATER
        assert o.cmp(XY, Monomial((0, 2))) == GREATER
        assert o.cmp(ONE2, y) == LESS

    def test_lex_respects_priority_override(self):
        vs = VarSet(("x", "y"), (1, 0))
        o = lex(vs)
        assert o.cmp(mono_var(1, 2), mono_var(0, 2)) == GREATER

    def test_degrevlex_degree_dominates(self):
        vs = VarSet(("x", "y", "z"))
        o = degrevlex(vs)
        assert o.cmp(Monomial((1, 1, 1)), Monomial((2, 0, 0))) == GREATER
        assert o.cmp(mono_one(3), mono_var(2, 3)) == LESS

    def test_degrevlex_breaks_ties_against_the_last_variable(self):
        vs = VarSet(("x", "y", "z"))
        o = degrevlex(vs)
        # Both classics: among equal degrees the monomial with the smaller
        # exponent on the least variable wins.
        assert o.cmp(Monomial((1, 2, 0)), Monomial((2, 0, 1))) == GREATER
        assert o.cmp(Monomial((2, 1, 0)), Monomial((2, 0, 1))) == GREATER
        # lex decides the same pair the other way round.
        assert lex(vs).cmp(Monomial((1, 2, 0)), Monomial((2, 0, 1))) == LESS

    def test_alex_prefers_smaller_degree(self):
        vs = VarSet(("x", "y"))
        o = alex(vs)
        x, y = mono_var(0, 2), mono_var(1, 2)
        assert o.cmp(ONE2, x) == GREATER
        assert o.cmp(x, X2) == GREATER
        assert o.cmp(x, y) == GREATER

    def test_cmp_is_consistent_with_key(self):
        vs = VarSet(("x", "y"))
        for kind in ("lex", "degrevlex", "alex"):
            o = ordering_by_name(kind, vs)
            for a, b in itertools.product([ONE2, XY, X2, X2Y], repeat=2):
                c = o.cmp(a, b)
                if a == b:
                    assert c == EQUAL
                else:
                    assert c in (LESS, GREATER)
                    assert (o.key(a) < o.key(b)) == (c == LESS)

    def test_key_rejects_wrong_dimension(self):
        for kind in ("lex", "degrevlex", "alex"):
            for priority in (None, (1, 0)):
                o = ordering_by_name(kind, VarSet(("x", "y"), priority))
                with pytest.raises(UsageError):
                    o.key(Monomial((1, 1, 1)))
                with pytest.raises(UsageError):
                    o.key(Monomial((1,)))

    def test_orderings_pickle(self):
        vs = VarSet(("x", "y"), (1, 0))
        for kind in ("lex", "degrevlex", "alex"):
            o = ordering_by_name(kind, vs)
            back = pickle.loads(pickle.dumps(o))
            assert back == o
            assert back.key(X2Y) == o.key(X2Y)

    @given(monomials(3))
    def test_key_is_the_textbook_formula(self, m):
        e = m.exps
        for priority in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            vs = VarSet(("x", "y", "z"), priority)
            lex_part = tuple(e[i] for i in priority)
            revlex_part = tuple(-e[i] for i in reversed(priority))
            assert lex(vs).key(m) == lex_part
            assert degrevlex(vs).key(m) == (sum(e), revlex_part)
            assert alex(vs).key(m) == (-sum(e), lex_part)

    @given(monomials(3), monomials(3))
    def test_cmp_antisymmetry(self, a, b):
        for kind in ("lex", "degrevlex", "alex"):
            o = ordering_by_name(kind, VarSet(("x", "y", "z")))
            assert mono_cmp(o, a, b) == -mono_cmp(o, b, a)

    def test_admissible_orders_are_compatible_with_multiplication(self):
        # Exhaustive over a small universe: a < b implies a*c < b*c.
        vs = VarSet(("x", "y", "z"))
        universe = [
            Monomial(e)
            for e in itertools.product(range(3), repeat=3)
            if sum(e) <= 4
        ]
        for kind in ("lex", "degrevlex"):
            o = ordering_by_name(kind, vs)
            for a, b in itertools.combinations(universe, 2):
                c = Monomial((1, 0, 2))
                if o.cmp(a, b) == LESS:
                    assert o.cmp(mono_mul(a, c), mono_mul(b, c)) == LESS
                else:
                    assert o.cmp(mono_mul(a, c), mono_mul(b, c)) == GREATER

    def test_one_is_minimal_under_admissible_orders_only(self):
        vs = VarSet(("x", "y"))
        one = mono_one(2)
        for m in (XY, X2, X2Y, mono_var(1, 2)):
            assert lex(vs).cmp(one, m) == LESS
            assert degrevlex(vs).cmp(one, m) == LESS
            assert alex(vs).cmp(one, m) == GREATER


class TestRenderMonomial:
    def test_render_examples(self):
        names = ("x", "y")
        assert render_monomial(X2Y, names) == "x^2*y"
        assert render_monomial(XY, names) == "x*y"
        assert render_monomial(ONE2, names) == ""
