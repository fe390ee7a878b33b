"""Polynomial canonical form, arithmetic, rendering, and S-polynomials."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invbases
from invbases.core import (
    Monomial,
    Polynomial,
    UsageError,
    VarSet,
    degrevlex,
    lex,
    mono_div,
    mono_lcm,
    mono_one,
    render_monomial,
    render_polynomial,
    spoly,
)
from invbases.division import alex_division, division_by_name
from invbases.engine import EngineOptions, _Engine, _InvolutiveReducer
from invbases.systems import load_builtin, parse_polynomial

from conftest import monomials, polynomials, small_fractions

DIVISIONS = ("janet", "alex", "thomas")

VS = VarSet(("x", "y"))
LEX = lex(VS)
DRL = degrevlex(VS)
DRL3 = degrevlex(VarSet(("x", "y", "z")))

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
    """`_check_canonical` raises explicitly, so it does not depend on
    `assert` statements; `_raw` calls it unless Python runs with -O.  Each
    case is (monomials, numerators, denominator), keyed under lex unless a
    monomial has the wrong dimension."""

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((X2,), (0,), 1), "non-canonical coefficient"),
            (((X2,), (Fraction(1),), 1), "non-canonical coefficient"),
            (((Monomial((1, 1, 1)),), (1,), 1), "dimension mismatch"),
            (((Y2, X2), (1, 1), 1), "out of order"),
            (((X2, X2), (1, 2), 1), "out of order"),
            (((X2, Y2), (2, 4), 2), "shares a factor"),
            (((X2,), (1,), 0), "non-canonical denominator"),
            (((X2,), (-1,), -1), "non-canonical denominator"),
            (((X2, Y2), (1,), 1), "different lengths"),
        ],
    )
    def test_broken_terms_raise(self, terms, message):
        monos, nums, den = terms
        keys = tuple(LEX.key(m) if len(m.exps) == 2 else 0 for m in monos)
        with pytest.raises(AssertionError, match=message):
            Polynomial._raw(LEX, keys, monos, nums, den)
        p = Polynomial(LEX, [(1, X2)])
        p._keys, p._monos, p._nums, p.den = keys, monos, nums, den
        with pytest.raises(AssertionError, match=message):
            p._check_canonical()

    def test_a_key_that_is_not_its_monomials_raises(self):
        keys = (LEX.key(X2), LEX.key(XY) + 1)
        with pytest.raises(AssertionError, match="kept key differs"):
            Polynomial._raw(LEX, keys, (X2, XY), (1, 1), 1)


def canonical_faults(p: Polynomial) -> list[str]:
    """What in p breaks the canonical form: den > 0, integer numerators, none
    zero, content gcd(den, numerators) = 1, keys strictly descending and
    equal to `order.key` of the monomials, `terms` that round-trip through
    the constructor, and `==` and `hash` that agree with the polynomial
    parsed back from the printed text.  No `assert`, so that it checks
    under `python -O` as well."""
    faults = []
    order, parts = p.order, (p.key_row(), p._monos, p._nums, p.den)
    keys, monos, nums, den = parts
    if type(den) is not int or den <= 0:
        faults.append("denominator %r" % (den,))
    if not all(type(c) is int and c for c in nums):
        faults.append("numerators %r" % (nums,))
    elif math.gcd(den, *nums) != 1:
        faults.append("content %d" % math.gcd(den, *nums))
    if list(keys) != [order.key(m) for m in monos]:
        faults.append("keys differ from the monomials'")
    if any(a <= b for a, b in zip(keys, keys[1:])):
        faults.append("keys out of order")
    rebuilt = Polynomial(order, p.terms)
    if (rebuilt.key_row(), rebuilt._monos, rebuilt._nums, rebuilt.den) != parts:
        faults.append("terms do not round-trip through the constructor")
    back = parse_polynomial(str(p), order)
    if back != p or hash(back) != hash(p):
        faults.append("differs from the polynomial parsed back from %r" % str(p))
    return faults


def arithmetic_results(f, g, c, u, G, division) -> dict[str, Polynomial]:
    """A polynomial built by each path outside the engine."""
    order = f.order
    return {
        "constructor": Polynomial(order, f.terms + g.terms),
        "+": f + g,
        "-": f - g,
        "self -": f - f,
        "*": f * g,
        "mul_term": f.mul_term(c, u),
        "scale": f.scale(c),
        "monic": f.monic(),
        "nf remainder": _InvolutiveReducer(G, division, order).nf(f),
    }


def engine_results(polys, division, order) -> list[tuple[str, Polynomial]]:
    """Every result of `regular_normal_form` and every combination queued
    (deflected or head-reduced) in a completion of polys."""
    engine = _Engine(division, order, EngineOptions())
    engine.seed(polys)
    found = []
    normal_form, queue = engine.regular_normal_form, engine._queue_combination

    def reduced(p):
        h, verdict = normal_form(p)
        found.append(("regular_normal_form", h))
        return h, verdict

    def combination(sig, comb, *rest):
        found.append(("combination", comb))
        return queue(sig, comb, *rest)

    engine.regular_normal_form = reduced
    engine._queue_combination = combination
    engine.run()
    return found


@st.composite
def fraction_systems(draw):
    """1-3 nonzero generators in 2 variables with rational coefficients."""
    order = draw(st.sampled_from((LEX, DRL)))
    return order, draw(st.lists(polynomials(order, 2, max_deg=2, max_terms=3),
                                min_size=1, max_size=3))


class TestCanonicalForm:
    """Every way to build a polynomial gives the canonical form."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_build_path(self, data):
        order = data.draw(st.sampled_from((LEX, DRL)))
        f, g = data.draw(polynomials(order, 2)), data.draw(polynomials(order, 2))
        c = data.draw(st.sampled_from((0, 1, -1)) | small_fractions())
        u = data.draw(monomials(2, 2))
        G = data.draw(st.lists(polynomials(order, 2, max_terms=3), min_size=1, max_size=3))
        division = division_by_name(data.draw(st.sampled_from(DIVISIONS)), VS)
        for what, p in arithmetic_results(f, g, c, u, G, division).items():
            assert canonical_faults(p) == [], what
        sys_order, polys = data.draw(fraction_systems())
        division = division_by_name(data.draw(st.sampled_from(DIVISIONS)), VS)
        for what, p in engine_results(polys, division, sys_order):
            assert canonical_faults(p) == [], what

    def test_deflected_combinations_of_noon3(self):
        sf = load_builtin("noon3")
        found = engine_results(sf.polynomials, alex_division(sf.vars), sf.order)
        kinds = [what for what, _ in found]
        assert kinds.count("combination") > 10 and "regular_normal_form" in kinds
        assert any(p.den > 1 and not p.is_zero for _, p in found)
        for what, p in found:
            assert canonical_faults(p) == [], what

    def test_builders_normalise_without_the_debug_check(self):
        # Under -O `_raw` checks nothing, so the builders themselves must
        # give the canonical form.
        here = Path(__file__).resolve().parent
        src = Path(invbases.__file__).resolve().parent.parent
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from invbases import load_builtin, alex_division, janet, parse_polynomial\n"
            "from test_polynomials import DRL, arithmetic_results, canonical_faults, engine_results\n"
            "if __debug__:\n"
            "    sys.exit('not running under -O')\n"
            "f = parse_polynomial('2/3*x^2*y - 5/4*x*y + 7', DRL)\n"
            "g = parse_polynomial('-3*x*y^2 + 1/6*y + 2/9', DRL)\n"
            "G = [parse_polynomial('4/5*x*y - 3/7', DRL), parse_polynomial('6*y^2 + 1/2*x', DRL)]\n"
            "found = list(arithmetic_results(f, g, Fraction(-4, 9), g.lm, G, janet(DRL.vars)).items())\n"
            "sf = load_builtin('noon3')\n"
            "found += engine_results(sf.polynomials, alex_division(sf.vars), sf.order)\n"
            "bad = [(what, faults) for what, p in found for faults in [canonical_faults(p)] if faults]\n"
            "print(len(found), bad)\n"
            "sys.exit(1 if bad else 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
        done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert int(done.stdout.split()[0]) > 100


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
            p - q
        with pytest.raises(UsageError):
            p * q

    def test_sub_mul_term_rejects_mixed_orderings(self):
        # Subtracting a term multiple, p - g.mul_term(c, u), is the step the
        # engine's cofactor updates take.
        with pytest.raises(UsageError):
            poly(LEX, (1, XY)) - poly(DRL, (1, Y)).mul_term(1, X)
        # A zero multiple is still a polynomial of the other ordering.
        with pytest.raises(UsageError):
            poly(LEX, (1, XY)) - poly(DRL, (1, Y)).mul_term(0, X)

    @pytest.mark.parametrize("other", [1, Fraction(1), None], ids=["int", "Fraction", "None"])
    def test_other_operands_are_not_implemented(self, other):
        p = poly(LEX, (1, XY))
        assert p.__add__(other) is NotImplemented
        assert p.__sub__(other) is NotImplemented
        with pytest.raises(TypeError):
            p + other
        with pytest.raises(TypeError):
            p - other
        with pytest.raises(TypeError):
            other - p
        with pytest.raises(TypeError):
            p * other

    @given(polynomials(LEX, 2), polynomials(LEX, 2))
    def test_addition_commutes_and_stays_canonical(self, p, q):
        s = p + q
        assert s == q + p
        assert_canonical(s)

    @given(polynomials(LEX, 2), polynomials(LEX, 2))
    def test_addition_then_subtraction_round_trips(self, p, q):
        assert (p + q) - q == p

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

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from((1, -1, 2, -7)),
                    st.fractions(min_value=-50, max_value=50, max_denominator=36),
                ).filter(lambda c: c != 0),
                monomials(3, 3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_rendering_from_numerators_equals_rendering_fractions(self, terms):
        # Unit, integral, negative and fractional coefficients, against the
        # rendering that prints each coefficient as a `Fraction`.
        p = Polynomial(DRL3, terms)
        assert render_polynomial(p) == render_by_fractions(p)


def render_by_fractions(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for pos, (c, m) in enumerate(p.terms):
        mag = abs(c)
        body = render_monomial(m, p.order.vars.names)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        if pos == 0:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


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

    @pytest.mark.parametrize("order", [LEX, DRL], ids=["lex", "degrevlex"])
    @given(data=st.data())
    def test_equals_the_difference_of_the_two_multiples(self, order, data):
        # max_terms=1 draws single-term f and g: the step pops f's only
        # term and folds in g's empty tail.
        f = data.draw(polynomials(order, 2, max_terms=data.draw(st.integers(1, 4))))
        g = data.draw(polynomials(order, 2, max_terms=data.draw(st.integers(1, 4))))
        l = mono_lcm(f.lm, g.lm)
        s = spoly(f, g)
        # The subtraction goes through the constructor's dict accumulation,
        # which shares no code with the reduction accumulator.
        assert s == f.mul_term(1 / f.lc, mono_div(l, f.lm)) - g.mul_term(1 / g.lc, mono_div(l, g.lm))
        assert_canonical(s)

    @given(polynomials(DRL, 2, max_deg=3, max_terms=3),
           polynomials(DRL, 2, max_deg=3, max_terms=3))
    def test_head_drops_below_the_lcm(self, f, g):
        s = spoly(f, g)
        if not s.is_zero:
            l = mono_lcm(f.lm, g.lm)
            assert DRL.cmp(s.lm, l) == -1
