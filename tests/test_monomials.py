"""Monomial arithmetic, variable sets, and the three monomial orderings."""
from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invbases.core import (
    EQUAL,
    GREATER,
    KEY_BOUND,
    LESS,
    Monomial,
    UsageError,
    VarSet,
    alex,
    degrevlex,
    lex,
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

PRIORITIES = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def mono_cmp(order, a, b) -> int:
    """Compare two monomials under `order`; returns LESS, EQUAL or GREATER."""
    return order.cmp(a, b)


def textbook_key(kind: str, priority: tuple[int, ...], m: Monomial) -> tuple:
    """The ordering as a tuple comparison, straight from its definition:
    lex compares exponents in priority order; degrevlex compares the total
    degree, then the negated exponents in reverse priority order; alex
    compares the negated total degree, then lex."""
    e = m.exps
    lex_part = tuple(e[i] for i in priority)
    if kind == "lex":
        return lex_part
    if kind == "degrevlex":
        return (m.deg, tuple(-e[i] for i in reversed(priority)))
    return (-m.deg, lex_part)


class TestMonomial:
    def test_degree_is_exponent_sum(self):
        assert Monomial((2, 0, 3)).deg == 5
        assert ONE2.deg == 0

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

    @given(monomials(3), monomials(3))
    def test_results_match_validated_construction(self, a, b):
        # The kernel builds its results without re-validating; they must
        # carry the same exponents and degree as the public constructor's.
        ea, eb = a.exps, b.exps
        expected = {
            mono_mul: Monomial(tuple(x + y for x, y in zip(ea, eb))),
            mono_lcm: Monomial(tuple(max(x, y) for x, y in zip(ea, eb))),
        }
        if all(x >= y for x, y in zip(ea, eb)):
            expected[mono_div] = Monomial(tuple(x - y for x, y in zip(ea, eb)))
        for op, want in expected.items():
            got = op(a, b)
            assert (got.exps, got.deg) == (want.exps, want.deg)
            assert type(got.exps) is tuple and got == want and hash(got) == hash(want)

    @given(monomials(2), monomials(3))
    def test_dimension_mismatch_raises_everywhere(self, a, b):
        for x, y in ((a, b), (b, a)):
            for op in (mono_mul, mono_div, mono_lcm, Monomial.divides):
                with pytest.raises(UsageError):
                    op(x, y)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_division_by_a_bigger_degree_fails(self, exps):
        a = Monomial(exps)
        bigger = Monomial([e + 1 for e in exps])
        assert mono_div(a, bigger) is None and not bigger.divides(a)
        assert mono_div(bigger, a) is not None and a.divides(bigger)


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

    def test_equal_by_value(self):
        a = VarSet(["x", "y"])
        b = VarSet(("x", "y"), (0, 1))
        assert a == b and hash(a) == hash(b)
        assert a.names == ("x", "y")
        assert a != VarSet(("x", "y"), (1, 0))
        assert a != VarSet(("x", "z"))
        assert a != ("x", "y")


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

    def test_equal_by_value(self):
        vs = VarSet(("x", "y"))
        for kind in ("lex", "degrevlex", "alex"):
            a, b = ordering_by_name(kind, vs), ordering_by_name(kind, VarSet(("x", "y")))
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert a != ordering_by_name(kind, VarSet(("x", "y"), (1, 0)))
        assert lex(vs) != degrevlex(vs) and degrevlex(vs) != alex(vs)
        assert lex(vs) != vs

    def test_orderings_pickle(self):
        vs = VarSet(("x", "y"), (1, 0))
        for kind in ("lex", "degrevlex", "alex"):
            o = ordering_by_name(kind, vs)
            back = pickle.loads(pickle.dumps(o))
            assert back == o
            assert back.key(X2Y) == o.key(X2Y)

    @given(monomials(3, max_deg=8), monomials(3, max_deg=8))
    def test_key_orders_as_the_textbook_tuples(self, a, b):
        for priority in PRIORITIES:
            vs = VarSet(("x", "y", "z"), priority)
            for kind in ("lex", "degrevlex", "alex"):
                o = ordering_by_name(kind, vs)
                ka, kb = o.key(a), o.key(b)
                ta, tb = textbook_key(kind, priority, a), textbook_key(kind, priority, b)
                assert isinstance(ka, int)
                assert (ka < kb) == (ta < tb)
                assert (ka == kb) == (ta == tb)

    @given(monomials(3, max_deg=8), monomials(3, max_deg=8))
    def test_keys_add_under_multiplication(self, u, m):
        for priority in PRIORITIES:
            vs = VarSet(("x", "y", "z"), priority)
            for kind in ("lex", "degrevlex", "alex"):
                o = ordering_by_name(kind, vs)
                assert o.key(mono_mul(u, m)) == o.key(u) + o.key(m)

    def test_key_rejects_a_degree_at_the_bound(self):
        for kind in ("lex", "degrevlex", "alex"):
            o = ordering_by_name(kind, VarSet(("x", "y"), (1, 0)))
            # Just below the bound the integer order is still the ordering.
            top = Monomial((KEY_BOUND - 1, 0))
            below = Monomial((KEY_BOUND - 2, 1))
            assert (o.key(top) < o.key(below)) == (
                textbook_key(kind, (1, 0), top) < textbook_key(kind, (1, 0), below))
            for exps in ((KEY_BOUND, 0), (1, KEY_BOUND - 1)):
                with pytest.raises(UsageError, match="order key bound"):
                    o.key(Monomial(exps))

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
