"""Independent verification oracles: reduction, basis checks, cofactors."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invbases.core import (
    Monomial,
    Polynomial,
    UsageError,
    VarSet,
    degrevlex,
    lex,
    render_polynomial,
    spoly,
)
from invbases.division import Division, janet
from invbases.engine import inv_comp
from invbases.oracles import (
    _open_pairs,
    admissibility_check,
    buchberger_nf,
    expand_cofactors,
    is_groebner,
    is_involutive,
)
from invbases.signatures import Signature
from invbases.systems import load_builtin, parse_polynomial, parse_system

from conftest import WORKED_EXAMPLE, polynomials, random_ideal_member

VS = VarSet(("x", "y"))
LEX = lex(VS)


def poly(text):
    return parse_polynomial(text, LEX)


def exhaustive_is_groebner(G, order) -> bool:
    """The reference Buchberger test: every pair's S-polynomial reduces to
    zero, with no criterion skipping any pair."""
    polys = list(G)
    return all(
        buchberger_nf(spoly(f, g), polys, order).is_zero for f, g in combinations(polys, 2)
    )


def janet_basis(name):
    sf = load_builtin(name, order="degrevlex")
    return sf, inv_comp(sf.polynomials, janet(sf.vars), sf.order).basis


@st.composite
def candidate_sets(draw):
    """Small sets in 2-3 variables under lex or degrevlex: random sets of
    polynomials with two terms or more (mostly not Gröbner), completed Janet
    bases (Gröbner) and bases with one element dropped, each possibly with a
    repeated head (a scaled copy of an element, or one with a changed tail)."""
    n = draw(st.sampled_from((2, 3)))
    vs = VarSet(("x", "y", "z")[:n])
    order = draw(st.sampled_from((lex(vs), degrevlex(vs))))
    binomials_up = polynomials(order, n, max_deg=2, max_terms=3).filter(lambda p: len(p) >= 2)
    polys = draw(st.lists(binomials_up, min_size=2, max_size=4))
    kind = draw(st.sampled_from(("random", "basis", "dropped")))
    if kind != "random":
        polys = list(inv_comp(polys, janet(vs), order).basis)
        if kind == "dropped" and len(polys) > 1:
            del polys[draw(st.integers(0, len(polys) - 1))]
    repeat = draw(st.sampled_from(("none", "scaled", "tail")))
    if repeat != "none":
        p = draw(st.sampled_from(polys))
        tail = Polynomial(p.order, p.terms[1:])
        polys.append(p.scale(2) if repeat == "scaled" else p + tail.scale(2))
    return order, polys


@pytest.fixture(scope="module")
def worked_run():
    sf = parse_system(WORKED_EXAMPLE)
    return sf, inv_comp(sf.polynomials, janet(sf.vars), sf.order)


class TestBuchbergerNormalForm:
    def test_generator_reduces_to_zero(self):
        g = poly("x^2 - y")
        assert buchberger_nf(g, [g], LEX).is_zero

    def test_single_step(self):
        assert render_polynomial(buchberger_nf(poly("x^2"), [poly("x^2 - y")], LEX)) == "y"

    def test_chained_steps(self):
        g = [poly("x^2 - y"), poly("y - 1")]
        assert render_polynomial(buchberger_nf(poly("x^2*y"), g, LEX)) == "1"

    def test_irreducible_input_is_returned(self):
        f = poly("x + 1")
        assert buchberger_nf(f, [poly("x^2 - y")], LEX) == f

    def test_zero_input(self):
        assert buchberger_nf(Polynomial.zero(LEX), [poly("x")], LEX).is_zero

    def test_zero_reducer_is_rejected(self):
        with pytest.raises(UsageError):
            buchberger_nf(poly("x"), [Polynomial.zero(LEX)], LEX)

    @given(f=polynomials(LEX, 2), g1=polynomials(LEX, 2), g2=polynomials(LEX, 2))
    @settings(max_examples=40, deadline=None)
    def test_result_has_no_reducible_term(self, f, g1, g2):
        reducers = [g for g in (g1, g2) if not g.is_zero]
        if not reducers:
            reducers = [Polynomial.one(LEX)]
        r = buchberger_nf(f, reducers, LEX)
        for _, m in r:
            assert not any(g.lm.divides(m) for g in reducers)
        assert buchberger_nf(r, reducers, LEX) == r


class TestIsGroebner:
    def test_monomial_basis(self):
        assert is_groebner([poly("x^2"), poly("x*y"), poly("y^2")], LEX)

    def test_completed_basis(self, worked_run):
        sf, r = worked_run
        assert is_groebner(r.basis, sf.order)

    def test_unresolved_s_polynomial(self):
        assert not is_groebner([poly("x^2 - y^2"), poly("x*y - 1")], LEX)

    def test_empty_basis_is_rejected(self):
        with pytest.raises(UsageError):
            is_groebner([], LEX)

    def test_zero_element_is_rejected(self):
        with pytest.raises(UsageError):
            is_groebner([poly("x"), Polynomial.zero(LEX)], LEX)


class TestGroebnerCriteria:
    def test_coprime_heads_are_skipped(self):
        assert list(_open_pairs([Monomial((2, 0)), Monomial((0, 3))])) == []

    def test_strict_chain_skips_the_outer_pair(self):
        # x*y divides lcm(x^2*y, x*y^2) = x^2*y^2, and its lcm with either
        # head is a proper divisor of it: only the two inner pairs remain.
        heads = [Monomial((2, 1)), Monomial((1, 2)), Monomial((1, 1))]
        assert list(_open_pairs(heads)) == [(0, 2), (1, 2)]

    def test_chain_through_the_lcm_itself_does_not_skip(self):
        # x*y*z divides lcm(x*y, y*z) but equals its lcm with x*y.
        heads = [Monomial((1, 1, 0)), Monomial((0, 1, 1)), Monomial((1, 1, 1))]
        assert (0, 1) in list(_open_pairs(heads))

    def test_repeated_heads_stay_open(self):
        # Two elements with one head: their pair is never coprime, and a
        # third head equal to both cannot chain it.
        heads = [Monomial((1, 1)), Monomial((1, 1)), Monomial((1, 1))]
        assert list(_open_pairs(heads)) == [(0, 1), (0, 2), (1, 2)]

    def test_cyclic5_reduces_at_most_a_third_of_its_pairs(self):
        _, basis = janet_basis("cyclic5")
        n = len(basis)
        assert n * (n - 1) // 2 == 253
        open_pairs = len(list(_open_pairs([g.lm for g in basis])))
        assert open_pairs == 73
        assert 3 * open_pairs <= 253

    @pytest.mark.parametrize("name", ["katsura4", "noon3", "cyclic4"])
    def test_agrees_with_exhaustive_on_drop_one_subsets(self, name):
        sf, basis = janet_basis(name)
        assert is_groebner(basis, sf.order) and exhaustive_is_groebner(basis, sf.order)
        verdicts = []
        for k in range(len(basis)):
            subset = basis[:k] + basis[k + 1:]
            verdict = exhaustive_is_groebner(subset, sf.order)
            assert is_groebner(subset, sf.order) == verdict
            verdicts.append(verdict)
        # Both verdicts occur: some heads are redundant, some are not.
        assert not all(verdicts)

    @given(case=candidate_sets())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_exhaustive_on_random_sets(self, case):
        order, polys = case
        assert is_groebner(polys, order) == exhaustive_is_groebner(polys, order)


class TestIsInvolutive:
    def test_completed_basis(self, worked_run):
        sf, r = worked_run
        assert is_involutive(r.basis, janet(sf.vars), sf.order)
        assert is_involutive(r.loop_basis, janet(sf.vars), sf.order)

    def test_missing_prolongation_is_detected(self, worked_run):
        sf, r = worked_run
        # Without y^3 the prolongation x * (x*y + ...) no longer reduces
        # to zero involutively.
        trimmed = [p for p in r.basis if p.degree < 3]
        assert len(trimmed) == 2
        assert not is_involutive(trimmed, janet(sf.vars), sf.order)

    def test_empty_basis_is_rejected(self):
        with pytest.raises(UsageError):
            is_involutive([], janet(VS), LEX)

    def test_builds_one_partition(self, monkeypatch):
        # One partition per check, grown by `Partition.add` until it holds
        # every head of the basis, in order.
        built = []
        partition = Division.partition

        def kept(division, U):
            built.append(partition(division, U))
            return built[-1]

        sf, basis = janet_basis("katsura4")
        monkeypatch.setattr(Division, "partition", kept)
        assert is_involutive(basis, janet(sf.vars), sf.order)
        assert len(built) == 1
        assert built[0].monomials == tuple(g.lm for g in basis)


class TestExpandCofactors:
    def test_plain_combination(self):
        gens = [poly("x^2 - y"), poly("y + 1")]
        cofs = [poly("y"), poly("x")]
        assert expand_cofactors(cofs, gens) == poly("x^2*y + x*y - y^2 + x")

    def test_zero_cofactors_give_zero(self):
        z = Polynomial.zero(LEX)
        assert expand_cofactors([z, z], [poly("x"), poly("y")]).is_zero

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(UsageError):
            expand_cofactors([poly("x")], [poly("x"), poly("y")])

    def test_empty_generators_are_rejected(self):
        with pytest.raises(UsageError):
            expand_cofactors([], [])


class TestAdmissibilityCheck:
    def test_unit_vector_signature(self):
        cofs = [Polynomial.one(LEX), Polynomial.zero(LEX)]
        assert admissibility_check(cofs, Signature(Monomial((0, 0)), 1), LEX)
        assert not admissibility_check(cofs, Signature(Monomial((0, 0)), 2), LEX)

    def test_lower_position_dominates(self):
        # Positions later in the module are smaller, so a nonzero first
        # cofactor sets the signature even against a bigger monomial later.
        cofs = [poly("y"), poly("x^2")]
        assert admissibility_check(cofs, Signature(Monomial((0, 1)), 1), LEX)
        assert not admissibility_check(cofs, Signature(Monomial((2, 0)), 2), LEX)

    def test_largest_monomial_within_a_position_wins(self):
        cofs = [Polynomial.zero(LEX), poly("x*y + 1")]
        assert admissibility_check(cofs, Signature(Monomial((1, 1)), 2), LEX)
        assert not admissibility_check(cofs, Signature(Monomial((0, 0)), 2), LEX)

    def test_empty_vector_is_rejected(self):
        with pytest.raises(UsageError):
            admissibility_check([], Signature(Monomial((0, 0)), 1), LEX)

    def test_all_zero_vector_is_rejected(self):
        with pytest.raises(UsageError):
            admissibility_check(
                [Polynomial.zero(LEX)], Signature(Monomial((0, 0)), 1), LEX
            )


class TestRandomIdealMember:
    def test_members_lie_in_the_ideal(self, worked_run):
        sf, r = worked_run
        rng = random.Random(97)
        for _ in range(25):
            member = random_ideal_member(rng, sf.polynomials, sf.order)
            assert buchberger_nf(member, r.basis, sf.order).is_zero

    def test_seeded_runs_repeat(self):
        gens = [poly("x^2 - y"), poly("x*y - 1")]
        a = random_ideal_member(random.Random(3), gens, LEX)
        b = random_ideal_member(random.Random(3), gens, LEX)
        assert a == b

    def test_degree_bound_is_respected(self):
        gens = [poly("x^2 - y")]
        rng = random.Random(12)
        for _ in range(50):
            member = random_ideal_member(rng, gens, LEX, max_terms=2, max_deg=3)
            assert member.is_zero or member.degree <= 3 + 2

    def test_empty_generators_are_rejected(self):
        with pytest.raises(UsageError):
            random_ideal_member(random.Random(0), [], LEX)
