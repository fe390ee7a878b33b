"""The completion engine: pinned small runs, options, extraction, invariants."""
from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invbases
from invbases import bench
from invbases.bench import verify_basis
from invbases.core import (
    KEY_BOUND,
    Monomial,
    Polynomial,
    UsageError,
    VarSet,
    alex,
    degrevlex,
    lex,
    mono_div,
    mono_mul,
    render_monomial,
    render_polynomial,
)
from invbases.division import (
    Partition,
    alex_division,
    division_by_name,
    janet,
    minimal_completion,
    thomas_division,
)
from invbases.engine import (
    COUNTERS,
    DIAGNOSTICS,
    EngineOptions,
    Stats,
    _Checks,
    _Engine,
    _InvolutiveReducer,
    inv_bas,
    inv_comp,
    min_bas,
    nf_full,
)
from invbases.oracles import (
    admissibility_check,
    buchberger_nf,
    expand_cofactors,
    is_groebner,
    is_involutive,
)
from invbases.signatures import Signature, SigPoly, Verdict
from invbases.systems import load_builtin, parse_system

from conftest import SECOND_EXAMPLE, WORKED_EXAMPLE, engine_over, random_ideal_member

VS = VarSet(("x", "y"))
LEX = lex(VS)
JAN = janet(VS)


def lm_names(polys, names):
    return sorted(render_monomial(p.lm, names) for p in polys)


def poly(order, *terms):
    return Polynomial(order, [(Fraction(c), m) for c, m in terms])


@pytest.fixture(scope="module")
def result():
    sf = parse_system(WORKED_EXAMPLE)
    opts = EngineOptions(track_cofactors=True, check_invariants=True)
    return sf, inv_comp(sf.polynomials, janet(sf.vars), sf.order, opts)


class TestWorkedExample:
    def test_counters(self, result):
        _, r = result
        s = r.stats
        assert (s.reds, s.c1, s.c2, s.f5, s.super) == (0, 0, 0, 1, 0)
        assert (s.polys_loop, s.polys_min, s.max_deg) == (4, 3, 4)
        assert s.c1 + s.c2 + s.f5 + s.super == 1
        assert s.elapsed_ms >= 0

    def test_loop_heads(self, result):
        sf, r = result
        assert lm_names(r.loop_basis, sf.vars.names) == ["x*y", "x^2", "x^2*y", "y^3"]

    def test_minimal_basis_values(self, result):
        sf, r = result
        assert [render_polynomial(p) for p in r.basis] == [
            "y^3",
            "x*y + 3/2*y^2",
            "x^2 - 3/2*y^2",
        ]

    def test_input_is_sorted_monic_descending(self, result):
        _, r = result
        assert [render_polynomial(p) for p in r.sorted_input] == [
            "x^2 - 3/2*y^2",
            "x*y + 3/2*y^2",
        ]

    def test_insertion_records(self, result):
        sf, r = result
        names = sf.vars.names
        seen = [
            (render_monomial(rec.sig.mono, names), rec.sig.index,
             render_polynomial(rec.poly))
            for rec in r.cofactor_records
        ]
        assert seen == [
            ("", 2, "x*y + 3/2*y^2"),
            ("", 1, "x^2 - 3/2*y^2"),
            ("x", 2, "x^2*y - 9/4*y^3"),
            ("y", 1, "y^3"),
        ]

    def test_records_expand_exactly_and_admissibly(self, result):
        sf, r = result
        for rec in r.cofactor_records:
            assert expand_cofactors(rec.cofactors, r.sorted_input) == rec.poly
            assert admissibility_check(rec.cofactors, rec.sig, sf.order)

    def test_final_combination_values(self, result):
        sf, r = result
        by_head = {
            render_monomial(rec.poly.lm, sf.vars.names): rec
            for rec in r.cofactor_records
        }
        assert [render_polynomial(c) for c in by_head["y^3"].cofactors] == [
            "4/3*y",
            "-4/3*x + 2*y",
        ]
        assert [render_polynomial(c) for c in by_head["x^2*y"].cofactors] == [
            "0",
            "x - 3/2*y",
        ]

    def test_diagnostics(self, result):
        _, r = result
        assert r.diagnostics["global_sig_violations"] == 1
        assert r.diagnostics["same_index_sig_violations"] == 0
        assert r.diagnostics["deflections"] == 0

    def test_output_verifies(self, result):
        sf, r = result
        assert is_groebner(r.basis, sf.order)
        assert is_involutive(r.basis, janet(sf.vars), sf.order)

    def test_classical_algorithm_agrees(self, result):
        sf, r = result
        rb = inv_bas(sf.polynomials, janet(sf.vars), sf.order)
        assert rb.stats.reds == 1
        assert {p.lm for p in rb.basis} == {p.lm for p in r.basis}


class TestSecondExample:
    def test_pinned_run(self):
        sf = parse_system(SECOND_EXAMPLE)
        opts = EngineOptions(track_cofactors=True)
        r = inv_comp(sf.polynomials, janet(sf.vars), sf.order, opts)
        s = r.stats
        assert (s.reds, s.c1, s.c2, s.f5, s.super) == (0, 0, 0, 1, 0)
        assert lm_names(r.loop_basis, sf.vars.names) == ["x*y", "x^2", "x^2*y", "y^3"]
        by_head = {
            render_monomial(rec.poly.lm, sf.vars.names): rec
            for rec in r.cofactor_records
        }
        assert [render_polynomial(c) for c in by_head["x^2*y"].cofactors] == [
            "0",
            "x + 3*y",
        ]
        assert [render_polynomial(c) for c in by_head["y^3"].cofactors] == [
            "1/3*y",
            "-1/3*x - 1/3*y",
        ]


class TestInputValidation:
    def test_empty_system(self):
        with pytest.raises(UsageError):
            inv_comp([], JAN, LEX)

    def test_zero_polynomial(self):
        with pytest.raises(UsageError):
            inv_comp([Polynomial.zero(LEX)], JAN, LEX)

    def test_non_admissible_ordering(self):
        f = poly(alex(VS), (1, Monomial((1, 0))))
        with pytest.raises(UsageError):
            inv_comp([f], alex_division(VS), alex(VS))

    def test_mismatched_variable_sets(self):
        other = VarSet(("a", "b", "c"))
        f = poly(LEX, (1, Monomial((1, 0))))
        with pytest.raises(UsageError):
            inv_comp([f], janet(other), LEX)

    def test_constant_input_collapses_to_one(self):
        f = poly(LEX, (5, Monomial((0, 0))))
        r = inv_comp([f], JAN, LEX)
        assert [render_polynomial(p) for p in r.basis] == ["1"]


class TestStatsNote:
    def test_each_verdict_has_a_counter(self):
        s = Stats()
        for v in (Verdict.SUPER, Verdict.C1, Verdict.C2, Verdict.F5):
            s.note(v)
        assert (s.super, s.c1, s.c2, s.f5) == (1, 1, 1, 1)
        assert s.c1 + s.c2 + s.f5 + s.super == 4

    def test_none_is_not_recordable(self):
        with pytest.raises(UsageError):
            Stats().note(Verdict.NONE)

    def test_stats_start_at_zero_and_take_keywords(self):
        s = Stats()
        assert all(getattr(s, name) == 0 for name in Stats.__slots__)
        assert s.elapsed_ms == 0.0
        t = Stats(reds=3, deflections=2, elapsed_ms=1.5)
        assert (t.reds, t.deflections, t.elapsed_ms, t.c1) == (3, 2, 1.5, 0)
        assert t == Stats(reds=3, deflections=2, elapsed_ms=1.5)
        assert t != s
        s.reds = 3
        assert "reds=3" in repr(s)
        with pytest.raises(TypeError, match="no counter bogus"):
            Stats(reds=1, bogus=2)

    def test_the_counters_are_declared_once(self):
        # The slots, the bench columns and the verdict counters all come
        # from `COUNTERS` and `DIAGNOSTICS`.
        assert Stats.__slots__ == COUNTERS + DIAGNOSTICS + ("elapsed_ms",)
        assert bench.COUNTERS is COUNTERS
        assert bench.COLUMNS[4:-1] == COUNTERS
        assert {v.value for v in Verdict if v is not Verdict.NONE} <= set(COUNTERS)

    def test_engine_options_are_off_by_default(self):
        options = EngineOptions()
        assert options.track_cofactors is False
        assert options.check_invariants is False
        options = EngineOptions(True, check_invariants=True)
        assert options.track_cofactors and options.check_invariants


class TestRegularNormalForm:
    def setup_method(self):
        # The two generators of the worked example as processed elements.
        self.f1 = poly(LEX, (1, Monomial((2, 0))), (Fraction(-3, 2), Monomial((0, 2))))
        self.f2 = poly(LEX, (1, Monomial((1, 1))), (Fraction(3, 2), Monomial((0, 2))))
        self.t1 = SigPoly(Signature(Monomial((0, 0)), 1), self.f1, self.f1.lm)
        self.t2 = SigPoly(Signature(Monomial((0, 0)), 2), self.f2, self.f2.lm)

    def reduce(self, p, division=JAN):
        """p's signature-safe normal form against the two generators, its
        verdict, and what the reduction queued, drained in queue order."""
        engine = engine_over(division, LEX, [self.t2, self.t1])
        h, verdict = engine.regular_normal_form(p)
        queued = []
        sp = engine._pop()
        while sp is not None:
            queued.append(sp)
            sp = engine._pop()
        return h, verdict, queued

    def test_safe_head_reduction_hits_super(self):
        # y * f1 reduces at its own signature: a super top-reduction.
        p = SigPoly(
            Signature(Monomial((0, 1)), 1),
            self.f1.mul_term(1, Monomial((0, 1))),
            self.f1.lm,
        )
        _, verdict, _ = self.reduce(p)
        assert verdict is Verdict.SUPER

    def test_unsafe_head_migrates_and_the_tail_reduces(self):
        # x * f2 has head x^2*y, reducible only by raising the signature;
        # the head stays and the tail still reduces.
        p = SigPoly(
            Signature(Monomial((1, 0)), 2),
            self.f2.mul_term(1, Monomial((1, 0))),
            self.f2.lm,
        )
        h, verdict, _ = self.reduce(p)
        assert verdict is None
        assert render_polynomial(h) == "x^2*y - 9/4*y^3"

    def test_forced_deflection_queues_the_combination(self):
        p = SigPoly(
            Signature(Monomial((1, 0)), 2),
            self.f2.mul_term(1, Monomial((1, 0))),
            self.f2.lm,
        )
        # The alex division deflects: the unsafe head reduction by f1 is
        # queued under the reducer's shifted signature.
        h, verdict, sink = self.reduce(p, alex_division(VS))
        assert verdict is None
        assert render_polynomial(h) == "x^2*y - 9/4*y^3"
        assert len(sink) == 1
        assert sink[0].sig == Signature(Monomial((0, 1)), 1)
        assert render_polynomial(sink[0].value().monic()) == "x*y^2 + y^3"


class TestCovered:
    """`_Engine._covered` keys u*lm(t) from the elements' kept keys: the
    product is compared with p's head, and its degree is checked against
    the order key bound."""

    def engine_with(self, t_poly):
        t = SigPoly(Signature(Monomial((0, 0)), 1), t_poly, t_poly.lm)
        return engine_over(JAN, LEX, [t])

    def test_a_smaller_product_head_covers(self):
        engine = self.engine_with(poly(LEX, (1, Monomial((0, 1))), (1, Monomial((0, 0)))))
        x2 = poly(LEX, (1, Monomial((2, 0))))
        # x * y < x^2 at the same index; another index is not compared.
        assert engine._covered(SigPoly(Signature(Monomial((1, 0)), 1), x2, x2.lm))
        assert not engine._covered(SigPoly(Signature(Monomial((1, 0)), 2), x2, x2.lm))
        # x * y lies above the head x.
        x = poly(LEX, (1, Monomial((1, 0))))
        assert not engine._covered(SigPoly(Signature(Monomial((1, 0)), 1), x, x.lm))

    def test_a_product_at_the_key_bound_is_rejected(self):
        engine = self.engine_with(poly(LEX, (1, Monomial((0, KEY_BOUND - 1)))))
        x = poly(LEX, (1, Monomial((1, 0))))
        with pytest.raises(UsageError, match="order key bound"):
            engine._covered(SigPoly(Signature(Monomial((1, 0)), 1), x, x.lm))


class TestNormalFormFull:
    def test_members_vanish(self, tmp_path):
        sf = parse_system(WORKED_EXAMPLE)
        r = inv_comp(sf.polynomials, janet(sf.vars), sf.order)
        member = sf.polynomials[0].mul_term(2, Monomial((1, 1))) + sf.polynomials[1]
        assert nf_full(member, r.basis, janet(sf.vars), sf.order).is_zero

    def test_irreducible_part_survives(self):
        sf = parse_system(WORKED_EXAMPLE)
        r = inv_comp(sf.polynomials, janet(sf.vars), sf.order)
        f = poly(sf.order, (1, Monomial((0, 3))), (1, Monomial((1, 0))))
        assert render_polynomial(nf_full(f, r.basis, janet(sf.vars), sf.order)) == "x"

    def test_rejects_zero_reducers(self):
        with pytest.raises(UsageError):
            nf_full(poly(LEX, (1, Monomial((1, 0)))), [Polynomial.zero(LEX)], JAN, LEX)

    @pytest.mark.parametrize("division_name", ["janet", "thomas", "alex"])
    def test_a_polynomial_in_other_variables_is_rejected(self, division_name):
        vs3 = VarSet(("x", "y", "z"))
        order3 = degrevlex(vs3)
        G = [poly(order3, (1, Monomial((1, 1, 0))))]
        f = poly(degrevlex(VS), (1, Monomial((2, 2))))
        with pytest.raises(UsageError, match="dimension mismatch"):
            nf_full(f, G, division_by_name(division_name, vs3), order3)


class TestMinBas:
    def test_worked_example_extraction(self):
        sf = parse_system(WORKED_EXAMPLE)
        r = inv_comp(sf.polynomials, janet(sf.vars), sf.order)
        kept = min_bas(r.loop_basis, janet(sf.vars), sf.order)
        assert lm_names(kept, sf.vars.names) == ["x*y", "x^2", "y^3"]

    def test_incomplete_input_is_rejected(self):
        # {x^2, y^2} is not Janet-complete: the completion needs x*y^2.
        h = [
            poly(LEX, (1, Monomial((2, 0)))),
            poly(LEX, (1, Monomial((0, 2)))),
        ]
        with pytest.raises(UsageError):
            min_bas(h, JAN, LEX)

    def test_incomplete_input_is_rejected_under_thomas(self):
        # The Thomas box of {x^2, y^2} also holds x^2*y, x*y^2 and x^2*y^2.
        h = [
            poly(LEX, (1, Monomial((2, 0)))),
            poly(LEX, (1, Monomial((0, 2)))),
        ]
        with pytest.raises(UsageError, match="no element with head"):
            min_bas(h, thomas_division(VS), LEX)

    def test_zero_polynomial_is_rejected(self):
        with pytest.raises(UsageError):
            min_bas([Polynomial.zero(LEX)], JAN, LEX)

    @pytest.mark.parametrize("name", ["cyclic3", "katsura3"])
    def test_thomas_extraction_equals_the_generic_completion(self, name):
        # Under Thomas the wanted heads come from the box closure; the
        # generic completion of the divisibility-minimal heads must agree.
        sf = load_builtin(name)
        div = thomas_division(sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order)
        heads = {p.lm for p in r.loop_basis}
        gens = [m for m in heads if not any(w != m and w.divides(m) for w in heads)]
        wanted = minimal_completion(div, gens, sf.order)
        assert {p.lm for p in min_bas(r.loop_basis, div, sf.order)} == wanted
        assert len(wanted) == r.stats.polys_min

    def test_greedy_head_walk_would_lose_needed_cones(self):
        # On this system a plain walk that keeps only heads without an
        # involutive divisor among already-kept heads produces a set that
        # is no longer involutive; the completion-based extraction stays
        # correct.  Regression for the restriction monotonicity trap:
        # removing elements enlarges the surviving cones.
        sf = load_builtin("noon3")
        div = janet(sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order)
        assert is_involutive(r.loop_basis, div, sf.order)
        assert is_involutive(r.basis, div, sf.order)
        assert is_groebner(r.basis, sf.order)
        ordered = sorted(r.loop_basis, key=lambda p: sf.order.key(p.lm))
        greedy: list[Polynomial] = []
        for h in ordered:
            part = div.partition([g.lm for g in greedy])
            quotients = [(g.lm, mono_div(h.lm, g.lm)) for g in greedy]
            if any(u is not None and part.allows(lm, u) for lm, u in quotients):
                continue
            greedy.append(h)
        assert not is_involutive(greedy, div, sf.order)


DEBUG = EngineOptions(check_invariants=True, track_cofactors=True)


class TestOptionVariants:
    """The options check and record; they never change the completion."""

    # The two Janet ids name the position the debug run had in an earlier,
    # longer list of option sets, so that their history stays comparable.
    @pytest.mark.parametrize(
        "name, division_name",
        [
            pytest.param("cyclic3", "janet", id="opts4-cyclic3"),
            pytest.param("katsura3", "janet", id="opts4-katsura3"),
            pytest.param("noon3", "alex", id="noon3-alex"),
            pytest.param("noon3", "thomas", id="noon3-thomas"),
        ],
    )
    def test_toggles_do_not_change_the_basis(self, name, division_name):
        sf = load_builtin(name)
        div = division_by_name(division_name, sf.vars)
        base = inv_comp(sf.polynomials, div, sf.order)
        varied = inv_comp(sf.polynomials, div, sf.order, DEBUG)
        assert {p.lm for p in varied.basis} == {p.lm for p in base.basis}
        # Only the debug run counts violations; everything else is the same.
        check_only = {"elapsed_ms", "global_sig_violations", "same_index_sig_violations"}
        for name in set(Stats.__slots__) - check_only:
            assert getattr(varied.stats, name) == getattr(base.stats, name), name
        for name in base.diagnostics.keys() - check_only:
            assert varied.diagnostics[name] == base.diagnostics[name], name
        assert varied.loop_basis == base.loop_basis
        assert is_groebner(varied.basis, sf.order)
        assert is_involutive(varied.basis, div, sf.order)
        assert varied.cofactor_records
        for rec in varied.cofactor_records:
            assert expand_cofactors(rec.cofactors, varied.sorted_input) == rec.poly

    def test_cofactors_on_the_largest_thomas_run(self):
        # katsura4/Thomas keeps 704 elements with cofactors, each updated by
        # polynomial subtraction and scaling.  The invariant checks take
        # over a minute, so they do not run here; the Gröbner check, in its
        # minimal-head form, takes under a second.
        sf = load_builtin("katsura4")
        div = thomas_division(sf.vars)
        base = inv_comp(sf.polynomials, div, sf.order)
        varied = inv_comp(sf.polynomials, div, sf.order, EngineOptions(track_cofactors=True))
        assert {p.lm for p in varied.basis} == {p.lm for p in base.basis}
        assert is_groebner(varied.basis, sf.order)
        assert is_involutive(varied.basis, div, sf.order)
        assert len(varied.cofactor_records) == varied.stats.polys_loop
        for rec in varied.cofactor_records:
            assert expand_cofactors(rec.cofactors, varied.sorted_input) == rec.poly
            assert admissibility_check(rec.cofactors, rec.sig, sf.order)

    def test_cofactors_expand_on_a_larger_run(self):
        sf = load_builtin("cyclic4")
        div = janet(sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order, EngineOptions(track_cofactors=True))
        assert r.cofactor_records
        for rec in r.cofactor_records:
            assert expand_cofactors(rec.cofactors, r.sorted_input) == rec.poly
            assert admissibility_check(rec.cofactors, rec.sig, sf.order)

    @pytest.mark.parametrize("name, division_name", [("cyclic4", "janet"), ("noon3", "alex")])
    def test_tracking_alone_expands_nothing(self, name, division_name, monkeypatch):
        # Only `check_invariants` re-expands the cofactors; tracking alone
        # records the same cofactors without checking them.
        sf = load_builtin(name)
        div = division_by_name(division_name, sf.vars)
        calls = []
        expand = invbases.engine._expand

        def counted(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(invbases.engine, "_expand", counted)
        tracked = inv_comp(sf.polynomials, div, sf.order, EngineOptions(track_cofactors=True))
        assert calls == []
        checked = inv_comp(sf.polynomials, div, sf.order, DEBUG)
        assert calls
        assert tracked.cofactor_records
        assert tracked.cofactor_records == checked.cofactor_records


class TestCountersInStats:
    def test_diagnostics_are_read_from_stats(self):
        sf = load_builtin("noon3", order="degrevlex")
        r = inv_comp(sf.polynomials, alex_division(sf.vars), sf.order, DEBUG)
        assert set(r.diagnostics) == {
            "global_sig_violations",
            "same_index_sig_violations",
            "sig_merges",
            "purged_t",
            "killed_q",
            "deflections",
        }
        assert r.diagnostics == {name: getattr(r.stats, name) for name in r.diagnostics}
        assert r.stats.deflections > 0
        r.stats.deflections += 1
        assert r.diagnostics["deflections"] == r.stats.deflections

    def test_classical_run_reports_zero_diagnostics(self):
        sf = load_builtin("cyclic3")
        r = inv_bas(sf.polynomials, janet(sf.vars), sf.order)
        assert len(r.diagnostics) == 6
        assert set(r.diagnostics.values()) == {0}

    @pytest.mark.parametrize("division_name", ["janet", "thomas"])
    def test_max_deg_counts_the_first_generator_to_pop(self, division_name):
        # A one-generator system: its only element pops first and joins the
        # basis through the queue like any other, so its degree is seen.
        sf = parse_system("vars: x y z\norder: lex\np: y + z^7\n")
        div = division_by_name(division_name, sf.vars)
        comp = inv_comp(sf.polynomials, div, sf.order)
        assert comp.stats.max_deg == 7
        assert inv_bas(sf.polynomials, div, sf.order).stats.max_deg == 7


# reds c1 c2 f5 super polys_loop polys_min max_deg, the diagnostics
# deflections sig_merges killed_q purged_t, and the minimal heads, of the
# default degrevlex runs; any change to them changes the algorithm.
PINNED_RUNS = {
    ("cyclic5", "janet"): (
        (0, 39, 27, 49, 3, 52, 23, 9),
        (0, 41, 25, 0),
        "x1 x2*x3*x4*x5^2 x2*x3*x4^2 x2*x3*x5^5 x2*x3^2 x2*x4*x5^5 x2*x4^2*x5^3 "
        "x2*x4^3 x2*x5^5 x2^2 x3*x4*x5^5 x3*x4^2*x5^3 x3*x4^3 x3*x5^7 x3^2*x4*x5^5 "
        "x3^2*x4^2 x3^2*x5^5 x3^3 x4*x5^7 x4^2*x5^6 x4^3*x5^4 x4^4 x5^8",
    ),
    ("katsura5", "janet"): (
        (0, 31, 3, 44, 2, 35, 23, 7),
        (0, 27, 26, 0),
        "u0 u1*u2 u1*u3*u4 u1*u3*u5^2 u1*u3^2 u1*u4*u5^2 u1*u4^2 u1*u5^4 u1^2 "
        "u2*u3 u2*u4*u5^2 u2*u4^2 u2*u5^4 u2^2 u3*u4*u5 u3*u4^2 u3*u5^4 u3^2 "
        "u4*u5^4 u4^2*u5^2 u4^3*u5 u4^4 u5^6",
    ),
    ("trinks", "janet"): (
        (0, 27, 119, 15, 42, 70, 20, 8),
        (0, 22, 5, 0),
        "b^3 p s*b s^2 t*b^2 t*s t^2 w*b^2 w*p w*s*b w*s^2 w*t w*z w^2*b w^2*p "
        "w^2*s w^2*t w^2*z w^3 z",
    ),
    ("weispfenning94", "janet"): (
        (0, 0, 3, 25, 13, 61, 17, 11),
        (0, 37, 16, 0),
        "x*y*z^5 x*y^2*z^4 x*y^3*z^2 x*y^4 x*z^6 x^2*y*z^3 x^2*y^2*z x^2*y^3 "
        "x^2*z^4 x^3*y x^3*z^3 x^4 y*z^7 y^2*z^6 y^3*z^4 y^4 z^9",
    ),
    ("noon3", "alex"): (
        (86, 1, 9, 57, 5, 75, 11, 13),
        (154, 208, 19, 0),
        "x1*x2*x3^3 x1*x2^2 x1*x3^4 x1^2*x2 x1^2*x3 x1^4 x2*x3^4 x2^2*x3^2 "
        "x2^3*x3 x2^4 x3^5",
    ),
    # Under Thomas `min_bas` takes the box closure of the minimal heads.
    ("cyclic4", "thomas"): (
        (1, 6, 45, 3, 0, 98, 98, 10),
        (0, 93, 2, 0),
        "x1 x1*x2 x1*x2*x3 x1*x2*x3*x4 x1*x2*x3*x4^2 x1*x2*x3*x4^3 x1*x2*x3*x4^4 "
        "x1*x2*x3^2 x1*x2*x3^2*x4 x1*x2*x3^2*x4^2 x1*x2*x3^2*x4^3 x1*x2*x3^2*x4^4 "
        "x1*x2*x3^3 x1*x2*x3^3*x4 x1*x2*x3^3*x4^2 x1*x2*x3^3*x4^3 x1*x2*x3^3*x4^4 "
        "x1*x2*x4 x1*x2*x4^2 x1*x2*x4^3 x1*x2*x4^4 x1*x2^2 x1*x2^2*x3 x1*x2^2*x3*x4 "
        "x1*x2^2*x3*x4^2 x1*x2^2*x3*x4^3 x1*x2^2*x3*x4^4 x1*x2^2*x3^2 x1*x2^2*x3^2*x4 "
        "x1*x2^2*x3^2*x4^2 x1*x2^2*x3^2*x4^3 x1*x2^2*x3^2*x4^4 x1*x2^2*x3^3 "
        "x1*x2^2*x3^3*x4 x1*x2^2*x3^3*x4^2 x1*x2^2*x3^3*x4^3 x1*x2^2*x3^3*x4^4 "
        "x1*x2^2*x4 x1*x2^2*x4^2 x1*x2^2*x4^3 x1*x2^2*x4^4 x1*x3 x1*x3*x4 x1*x3*x4^2 "
        "x1*x3*x4^3 x1*x3*x4^4 x1*x3^2 x1*x3^2*x4 x1*x3^2*x4^2 x1*x3^2*x4^3 "
        "x1*x3^2*x4^4 x1*x3^3 x1*x3^3*x4 x1*x3^3*x4^2 x1*x3^3*x4^3 x1*x3^3*x4^4 x1*x4 "
        "x1*x4^2 x1*x4^3 x1*x4^4 x2*x3*x4^2 x2*x3*x4^3 x2*x3*x4^4 x2*x3^2 x2*x3^2*x4 "
        "x2*x3^2*x4^2 x2*x3^2*x4^3 x2*x3^2*x4^4 x2*x3^3 x2*x3^3*x4 x2*x3^3*x4^2 "
        "x2*x3^3*x4^3 x2*x3^3*x4^4 x2*x4^4 x2^2 x2^2*x3 x2^2*x3*x4 x2^2*x3*x4^2 "
        "x2^2*x3*x4^3 x2^2*x3*x4^4 x2^2*x3^2 x2^2*x3^2*x4 x2^2*x3^2*x4^2 "
        "x2^2*x3^2*x4^3 x2^2*x3^2*x4^4 x2^2*x3^3 x2^2*x3^3*x4 x2^2*x3^3*x4^2 "
        "x2^2*x3^3*x4^3 x2^2*x3^3*x4^4 x2^2*x4 x2^2*x4^2 x2^2*x4^3 x2^2*x4^4 "
        "x3^2*x4^4 x3^3*x4^2 x3^3*x4^3 x3^3*x4^4",
    ),
    ("noon3", "thomas"): (
        (2, 2, 37, 8, 0, 129, 129, 13),
        (0, 127, 2, 0),
        "x1*x2*x3^3 x1*x2*x3^4 x1*x2*x3^5 x1*x2^2 x1*x2^2*x3 x1*x2^2*x3^2 "
        "x1*x2^2*x3^3 x1*x2^2*x3^4 x1*x2^2*x3^5 x1*x2^3 x1*x2^3*x3 x1*x2^3*x3^2 "
        "x1*x2^3*x3^3 x1*x2^3*x3^4 x1*x2^3*x3^5 x1*x2^4 x1*x2^4*x3 x1*x2^4*x3^2 "
        "x1*x2^4*x3^3 x1*x2^4*x3^4 x1*x2^4*x3^5 x1*x3^4 x1*x3^5 x1^2*x2 x1^2*x2*x3 "
        "x1^2*x2*x3^2 x1^2*x2*x3^3 x1^2*x2*x3^4 x1^2*x2*x3^5 x1^2*x2^2 x1^2*x2^2*x3 "
        "x1^2*x2^2*x3^2 x1^2*x2^2*x3^3 x1^2*x2^2*x3^4 x1^2*x2^2*x3^5 x1^2*x2^3 "
        "x1^2*x2^3*x3 x1^2*x2^3*x3^2 x1^2*x2^3*x3^3 x1^2*x2^3*x3^4 x1^2*x2^3*x3^5 "
        "x1^2*x2^4 x1^2*x2^4*x3 x1^2*x2^4*x3^2 x1^2*x2^4*x3^3 x1^2*x2^4*x3^4 "
        "x1^2*x2^4*x3^5 x1^2*x3 x1^2*x3^2 x1^2*x3^3 x1^2*x3^4 x1^2*x3^5 x1^3*x2 "
        "x1^3*x2*x3 x1^3*x2*x3^2 x1^3*x2*x3^3 x1^3*x2*x3^4 x1^3*x2*x3^5 x1^3*x2^2 "
        "x1^3*x2^2*x3 x1^3*x2^2*x3^2 x1^3*x2^2*x3^3 x1^3*x2^2*x3^4 x1^3*x2^2*x3^5 "
        "x1^3*x2^3 x1^3*x2^3*x3 x1^3*x2^3*x3^2 x1^3*x2^3*x3^3 x1^3*x2^3*x3^4 "
        "x1^3*x2^3*x3^5 x1^3*x2^4 x1^3*x2^4*x3 x1^3*x2^4*x3^2 x1^3*x2^4*x3^3 "
        "x1^3*x2^4*x3^4 x1^3*x2^4*x3^5 x1^3*x3 x1^3*x3^2 x1^3*x3^3 x1^3*x3^4 "
        "x1^3*x3^5 x1^4 x1^4*x2 x1^4*x2*x3 x1^4*x2*x3^2 x1^4*x2*x3^3 x1^4*x2*x3^4 "
        "x1^4*x2*x3^5 x1^4*x2^2 x1^4*x2^2*x3 x1^4*x2^2*x3^2 x1^4*x2^2*x3^3 "
        "x1^4*x2^2*x3^4 x1^4*x2^2*x3^5 x1^4*x2^3 x1^4*x2^3*x3 x1^4*x2^3*x3^2 "
        "x1^4*x2^3*x3^3 x1^4*x2^3*x3^4 x1^4*x2^3*x3^5 x1^4*x2^4 x1^4*x2^4*x3 "
        "x1^4*x2^4*x3^2 x1^4*x2^4*x3^3 x1^4*x2^4*x3^4 x1^4*x2^4*x3^5 x1^4*x3 "
        "x1^4*x3^2 x1^4*x3^3 x1^4*x3^4 x1^4*x3^5 x2*x3^4 x2*x3^5 x2^2*x3^2 x2^2*x3^3 "
        "x2^2*x3^4 x2^2*x3^5 x2^3*x3 x2^3*x3^2 x2^3*x3^3 x2^3*x3^4 x2^3*x3^5 x2^4 "
        "x2^4*x3 x2^4*x3^2 x2^4*x3^3 x2^4*x3^4 x2^4*x3^5 x3^5",
    ),
}


def assert_pinned(name, division_name, order, counters, diagnostics, heads):
    sf = load_builtin(name, order=order)
    r = inv_comp(sf.polynomials, division_by_name(division_name, sf.vars), sf.order)
    s = r.stats
    assert (
        s.reds, s.c1, s.c2, s.f5, s.super, s.polys_loop, s.polys_min, s.max_deg
    ) == counters
    assert (s.deflections, s.sig_merges, s.killed_q, s.purged_t) == diagnostics
    assert " ".join(lm_names(r.basis, sf.vars.names)) == heads


class TestPinnedRuns:
    @pytest.mark.parametrize("name, division_name", sorted(PINNED_RUNS))
    def test_counters_and_heads(self, name, division_name):
        assert_pinned(name, division_name, "degrevlex", *PINNED_RUNS[name, division_name])

    def test_alex_division_under_lex(self):
        # Under lex the product terms of a deflection can lie above the
        # popped term's degree (under degrevlex they never do).  The bump of
        # a deflection that the merge drops does not move this run's
        # max_deg; tests/test_kernel.py checks it on a constructed case.
        assert_pinned(
            "katsura3",
            "alex",
            "lex",
            (65, 34, 70, 122, 10, 74, 4, 45),
            (185, 251, 48, 0),
            "u0 u1 u2 u3^8",
        )


# reds c1 c2 polys_loop polys_min max_deg of the default degrevlex runs of
# the Gerdt-Blinkov baseline, which never counts f5 or super.
PINNED_CLASSICAL_RUNS = {
    ("cyclic4", "janet"): (5, 6, 0, 7, 7, 7),
    ("katsura4", "janet"): (18, 12, 0, 13, 13, 6),
    ("cyclic5", "janet"): (91, 41, 5, 23, 23, 9),
    ("noon3", "alex"): (9, 0, 0, 11, 11, 6),
    ("cyclic3", "thomas"): (0, 3, 10, 18, 18, 6),
}


class TestPinnedClassicalRuns:
    @pytest.mark.parametrize("name, division_name", sorted(PINNED_CLASSICAL_RUNS))
    def test_counters(self, name, division_name):
        sf = load_builtin(name, order="degrevlex")
        r = inv_bas(sf.polynomials, division_by_name(division_name, sf.vars), sf.order)
        s = r.stats
        assert (
            s.reds, s.c1, s.c2, s.polys_loop, s.polys_min, s.max_deg
        ) == PINNED_CLASSICAL_RUNS[name, division_name]
        assert (s.f5, s.super) == (0, 0)


class TestInvariantChecks:
    @pytest.mark.parametrize(
        "name, division_name",
        [("katsura4", "janet"), ("katsura4", "alex"), ("noon3", "thomas")],
    )
    def test_kept_partition_matches_a_rebuild_after_every_insertion(
        self, name, division_name, monkeypatch
    ):
        calls = []
        check = _Checks.partition

        def counted(checks, widened):
            calls.append(len(checks.engine.basis()))
            check(checks, widened)

        monkeypatch.setattr(_Checks, "partition", counted)
        sf = load_builtin(name, order="degrevlex")
        div = division_by_name(division_name, sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order, EngineOptions(check_invariants=True))
        # One check per insertion, the first generator's included: every
        # basis element comes through the queue.
        assert len(calls) == r.stats.polys_loop

    def test_partition_check_catches_a_stale_split(self):
        sf = parse_system(WORKED_EXAMPLE)
        engine = _Engine(janet(sf.vars), sf.order, EngineOptions())
        engine.seed(sf.polynomials)
        first = engine._pop()
        engine._insert(first, first.poly)
        checks = _Checks(engine)
        checks.partition()
        head = engine.basis()[0].poly.lm
        kept = engine._index.partition._nm[head]
        engine._index.partition._nm[head] = 0b11
        with pytest.raises(
            AssertionError, match="keeps nonmultiplicative variables \\[0, 1\\] for \\(1, 1\\)"
        ):
            checks.partition()
        engine._index.partition._nm[head] = kept
        checks.partition()
        # Adding the head x^2 makes x nonmultiplicative for x*y under Janet;
        # a mask that misses the widening keeps x*y's old split.
        g = engine.gens[0]
        engine._grow(SigPoly(Signature(Monomial((0, 0)), 1), g, g.lm))
        checks.partition()
        engine._index.partition._nm[head] = 0
        with pytest.raises(AssertionError, match="variables \\[\\] for \\(1, 1\\)"):
            checks.partition()
        engine._index.partition = janet(sf.vars).partition([head, Monomial((5, 5))])
        with pytest.raises(AssertionError, match="lists the heads"):
            checks.partition()

    @pytest.mark.parametrize("division_name", ["janet", "alex", "thomas"])
    def test_partition_check_catches_an_add_that_drops_the_share(
        self, division_name, monkeypatch
    ):
        # A fresh partition grows by `add` too, so the check must compare
        # with the definition, not with a second partition built the same way.
        add = Partition.add

        def add_without_share(part, w):
            known = w in part._nm
            widened = add(part, w)
            if not known:
                part._nm[w] = 0
            return widened

        monkeypatch.setattr(Partition, "add", add_without_share)
        sf = load_builtin("cyclic4", order="degrevlex")
        div = division_by_name(division_name, sf.vars)
        with pytest.raises(AssertionError, match="the definition gives"):
            inv_comp(sf.polynomials, div, sf.order, EngineOptions(check_invariants=True))

    @pytest.mark.parametrize("division_name", ["janet", "alex", "thomas"])
    def test_partition_check_catches_a_report_that_drops_a_widened_head(
        self, division_name, monkeypatch
    ):
        # The engine prolongs only what `add` reports, so an older head left
        # out of the report would silently lose its new prolongations.
        add = Partition.add

        def add_dropping_one(part, w):
            widened = add(part, w)
            older = [u for u in widened if u != w]
            if older:
                del widened[older[0]]
            return widened

        monkeypatch.setattr(Partition, "add", add_dropping_one)
        # cyclic4 never widens an older head under Janet or alex; noon3 does
        # under all three divisions.
        sf = load_builtin("noon3", order="degrevlex")
        div = division_by_name(division_name, sf.vars)
        with pytest.raises(AssertionError, match="partition reports .* as widened"):
            inv_comp(sf.polynomials, div, sf.order, EngineOptions(check_invariants=True))

    @pytest.mark.parametrize("division_name", ["janet", "thomas", "alex"])
    @pytest.mark.parametrize(
        "lookup, message",
        [
            # Finds nothing, so no head finds itself.
            (lambda part, m: [], "does not find the head"),
            # Plain divisibility: every listed head dividing m, which also
            # answers for a nonmultiplicative prolongation.
            (
                lambda part, m: [u for u in part.monomials if u.divides(m)],
                "partition lookup gives",
            ),
        ],
        ids=["finds-nothing", "ignores-the-masks"],
    )
    def test_partition_check_catches_a_wrong_lookup(
        self, division_name, lookup, message, monkeypatch
    ):
        monkeypatch.setattr(Partition, "divisors", lookup)
        # Under alex each head of cyclic4 divides the next, so every
        # variable is multiplicative for each and plain divisibility is
        # right; noon3's heads give masks under every division.
        sf = load_builtin("noon3", order="degrevlex")
        engine = _Engine(division_by_name(division_name, sf.vars), sf.order, EngineOptions())
        for g in sf.polynomials:
            engine._grow(SigPoly(Signature(Monomial((0,) * sf.vars.n), 1), g, g.lm))
        with pytest.raises(AssertionError, match=message):
            _Checks(engine).partition()

    def test_partition_check_catches_a_refile_that_skips_a_widened_head(self, monkeypatch):
        # Under alex the lookup files each head by its mask, so a head left
        # in the file of its old mask is still found for the prolongation by
        # the variable it has just lost.
        refile = Partition._refile

        def refile_skipping_one(part, widened, w):
            older = [u for u in widened if u != w]
            if older:
                widened = {u: bits for u, bits in widened.items() if u != older[0]}
            refile(part, widened, w)

        monkeypatch.setattr(Partition, "_refile", refile_skipping_one)
        sf = load_builtin("noon3", order="degrevlex")
        with pytest.raises(AssertionError, match="partition lookup gives"):
            inv_comp(
                sf.polynomials,
                alex_division(sf.vars),
                sf.order,
                EngineOptions(check_invariants=True),
            )

    @pytest.mark.parametrize("division_name", ["janet", "alex", "thomas"])
    def test_position_check_catches_a_grow_that_skips_the_filing(
        self, division_name, monkeypatch
    ):
        # The signature criterion and the cover check read the basis by
        # position alone, so an element missing there would weaken both.
        def grow_unfiled(engine, sp):
            return engine._index.add(sp.poly, sp)

        monkeypatch.setattr(_Engine, "_grow", grow_unfiled)
        sf = load_builtin("cyclic4", order="degrevlex")
        div = division_by_name(division_name, sf.vars)
        with pytest.raises(AssertionError, match="filed by position differs"):
            inv_comp(sf.polynomials, div, sf.order, EngineOptions(check_invariants=True))

    def test_push_check_catches_a_signature_below_its_creator(self, monkeypatch):
        # Each prolongation is queued one module position later, which is
        # below its creator's signature.
        def shifted(m, s):
            return Signature(mono_mul(m, s.mono), s.index + 1)

        monkeypatch.setattr(invbases.engine, "sig_mul", shifted)
        sf = load_builtin("cyclic4", order="degrevlex")
        with pytest.raises(AssertionError, match="queued signature below its creator"):
            inv_comp(sf.polynomials, janet(sf.vars), sf.order, EngineOptions(check_invariants=True))

    def test_insert_check_catches_a_duplicate_head(self):
        sf = parse_system(WORKED_EXAMPLE)
        engine = _Engine(janet(sf.vars), sf.order, EngineOptions(check_invariants=True))
        engine.seed(sf.polynomials)
        first = engine._pop()
        engine._insert(first, first.poly)
        with pytest.raises(AssertionError, match="inserted a duplicate head"):
            engine._insert(first, first.poly)

    def test_checks_raise_under_python_O(self):
        # Run in a child interpreter, because -O strips `assert` statements.
        script = textwrap.dedent(
            """
            import sys
            from invbases.division import janet
            from invbases.engine import EngineOptions, _Engine
            from invbases.systems import parse_system

            sf = parse_system(sys.argv[1])
            opts = EngineOptions(track_cofactors=True, check_invariants=True)
            engine = _Engine(janet(sf.vars), sf.order, opts)
            engine.seed(sf.polynomials)
            first = engine._pop()
            engine._insert(first, first.poly)
            broken = engine.basis()[0]
            broken.cofactors = tuple(c.scale(2) for c in broken.cofactors)
            print("optimize", sys.flags.optimize, flush=True)
            engine.check.cofactors(broken)
            """
        )
        src = str(Path(invbases.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, WORKED_EXAMPLE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert "optimize 1" in proc.stdout
        assert proc.returncode != 0
        assert "AssertionError: cofactor expansion does not reproduce" in proc.stderr


class TestSignatureCriterion:
    @pytest.mark.parametrize(
        "name, division_name",
        [
            ("cyclic5", "janet"),
            ("katsura5", "janet"),
            ("katsura4", "alex"),
            ("noon3", "alex"),
            ("cyclic4", "thomas"),
            ("noon3", "thomas"),
        ],
    )
    def test_f5_agrees_with_the_definition_seeded_by_the_inputs(
        self, name, division_name, monkeypatch
    ):
        # The G2V criterion as defined with the input heads: the head of a
        # sorted generator at a later position than sig(p)'s, or of a basis
        # element at one, divides sig(p)'s monomial.  Every call whose F5
        # test is reached (no earlier criterion answered) must agree.
        engines = []
        seed = _Engine.seed
        criteria = invbases.engine.criteria
        reached = []

        def recording_seed(engine, F):
            engines.append(engine)
            seed(engine, F)

        def checked(p, q, *rest):
            verdict = criteria(p, q, *rest)
            if verdict in (Verdict.F5, Verdict.NONE):
                engine = engines[-1]
                m, i = p.sig.mono, p.sig.index
                heads = [g.lm for j, g in enumerate(engine.gens, 1) if j > i]
                heads += [t.poly.lm for t in engine.basis() if t.sig.index > i]
                assert (verdict is Verdict.F5) == any(h.divides(m) for h in heads)
                reached.append(verdict)
            return verdict

        monkeypatch.setattr(_Engine, "seed", recording_seed)
        monkeypatch.setattr(invbases.engine, "criteria", checked)
        sf = load_builtin(name, order="degrevlex")
        r = inv_comp(sf.polynomials, division_by_name(division_name, sf.vars), sf.order)
        assert reached.count(Verdict.F5) == r.stats.f5
        assert Verdict.F5 in reached and Verdict.NONE in reached


class TestOrderInsensitivity:
    def test_shuffled_inputs_give_the_same_minimal_basis(self):
        sf = load_builtin("cyclic3")
        div = janet(sf.vars)
        base = inv_comp(sf.polynomials, div, sf.order)
        rng = random.Random(11)
        for _ in range(4):
            shuffled = list(sf.polynomials)
            rng.shuffle(shuffled)
            r = inv_comp(shuffled, div, sf.order)
            assert {p.lm for p in r.basis} == {p.lm for p in base.basis}


CLASSICAL_GRID = [
    (division_name, name)
    for division_name in ("janet", "alex", "thomas")
    for name in ("cyclic2", "cyclic3", "katsura2")
] + [
    (division_name, name)
    for division_name in ("janet", "alex")
    for name in ("cyclic4", "katsura4", "noon3")
] + [("thomas", "cyclic4")]


class TestAgainstTheClassicalAlgorithm:
    @pytest.mark.parametrize(
        "division_name, name",
        [pytest.param(d, n, id="%s-%s" % (d, n)) for d, n in CLASSICAL_GRID],
    )
    def test_same_minimal_heads(self, name, division_name):
        sf = load_builtin(name)
        div = division_by_name(division_name, sf.vars)
        rc = inv_comp(sf.polynomials, div, sf.order)
        rb = inv_bas(sf.polynomials, div, sf.order)
        assert {p.lm for p in rc.basis} == {p.lm for p in rb.basis}
        for r in (rc, rb):
            assert is_involutive(r.basis, div, sf.order)
            assert is_groebner(r.basis, sf.order)

    @pytest.mark.parametrize("division_name", ["janet", "thomas", "alex"])
    def test_a_displacing_run_rebuilds_its_reducer(self, division_name, monkeypatch):
        # The second generator enters the basis first, with head x^3*y.  The
        # first reduces by it to a normal form with head x^3, which properly
        # divides x^3*y, so `inv_bas` sends that element back to the queue
        # and builds a new divisor index over what remains.
        builds = []
        build = _InvolutiveReducer.__init__

        def counted(reducer, G, *args, **kwargs):
            builds.append(len(list(G)))
            build(reducer, G, *args, **kwargs)

        monkeypatch.setattr(_InvolutiveReducer, "__init__", counted)
        sf = parse_system(
            "vars: x y\norder: lex\n"
            "p: -2*x^3*y^2 - 3*x^3 - 2*x^2\n"
            "p: -x^3*y + 3*x^3 - x^2*y^3\n"
        )
        div = division_by_name(division_name, sf.vars)
        rb = inv_bas(sf.polynomials, div, sf.order)
        assert len(builds) >= 2
        rc = inv_comp(sf.polynomials, div, sf.order)
        assert {p.lm for p in rc.basis} == {p.lm for p in rb.basis}
        assert is_groebner(rb.basis, sf.order)
        assert is_involutive(rb.basis, div, sf.order)

    def test_a_bit_a_rebuild_cleared_is_prolonged_again(self):
        # x^2*y^2*z makes y nonmultiplicative for x^2*z^2, whose
        # prolongation by y is queued.  Displacements then rebuild the
        # reducer without x^2*y^2*z and x^2*y*z^2, so y is multiplicative
        # again and that prolongation reduces to zero by x^2*z^2 itself.
        # When x^2*y^2 arrives, y is nonmultiplicative once more and the
        # prolongation must be queued again, or the loop basis misses
        # x^2*y*z^2 and `min_bas` cannot extract the minimal basis.
        sf = parse_system(
            "vars: x y z\norder: lex\n"
            "p: x^2*y^2*z + 1\n"
            "p: x^2*z^2 + x*y*z + 1\n"
        )
        div = janet(sf.vars)
        rb = inv_bas(sf.polynomials, div, sf.order)
        rc = inv_comp(sf.polynomials, div, sf.order)
        assert is_involutive(rb.loop_basis, div, sf.order)
        assert {p.lm for p in rb.basis} == {p.lm for p in rc.basis}
        assert is_groebner(rb.basis, sf.order)

    def test_thomas_division_on_the_worked_example(self):
        sf = parse_system(WORKED_EXAMPLE)
        div = thomas_division(sf.vars)
        rc = inv_comp(sf.polynomials, div, sf.order)
        assert is_involutive(rc.basis, div, sf.order)
        assert is_groebner(rc.basis, sf.order)


@st.composite
def small_systems(draw):
    """1-2 random nonzero generators in 2-3 variables under lex or degrevlex."""
    vs = VarSet(("x", "y", "z")[: draw(st.integers(2, 3))])
    order = draw(st.sampled_from((lex, degrevlex)))(vs)
    monos = st.tuples(*(st.integers(0, 2) for _ in range(vs.n))).map(Monomial)
    coefs = st.integers(-2, 2).filter(lambda c: c != 0)
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.lists(st.tuples(coefs, monos), min_size=1, max_size=3))
        p = Polynomial(order, [(Fraction(c), m) for c, m in terms])
        if not p.is_zero:
            polys.append(p)
    if not polys:
        polys.append(Polynomial.one(order))
    return order, polys


class TestRandomSystems:
    @given(small_systems())
    @settings(max_examples=25, deadline=None)
    def test_outputs_always_verify(self, system):
        order, polys = system
        div = janet(order.vars)
        r = inv_comp(polys, div, order)
        assert is_groebner(r.basis, order)
        assert is_involutive(r.basis, div, order)
        rng = random.Random(5)
        member = random_ideal_member(rng, polys, order)
        assert nf_full(member, r.basis, div, order).is_zero
        assert buchberger_nf(member, r.basis, order).is_zero

    @given(small_systems(), st.sampled_from(("janet", "alex", "thomas")))
    @settings(max_examples=150, deadline=None)
    def test_both_algorithms_agree_and_verify(self, system, division_name):
        order, polys = system
        div = division_by_name(division_name, order.vars)
        rc = inv_comp(polys, div, order)
        rb = inv_bas(polys, div, order)
        assert {p.lm for p in rc.basis} == {p.lm for p in rb.basis}
        for r in (rc, rb):
            assert is_groebner(r.basis, order)
            assert is_involutive(r.basis, div, order)


# A system on which `inv_bas` under alex loses a prolongation (ROADMAP item
# 7): z*(x^5*z^3) reduces to zero through x^4*z^3 times x*z, a later head
# makes x nonmultiplicative for x^4*z^3, and nothing queues the
# prolongation again, so `min_bas` finds no head x^5*z^4.
ALEX_LOST_PROLONGATION = """
vars: x y z
order: degrevlex
p: x^2*y^3*z^3 + 2*x*z^3
p: -x^3*y*z^3 + x^3*y
p: -2*x^3*y^2*z^2 + 2*y^3*z^3 + 2*y^3*z
"""


class TestAlexLostProlongation:
    def test_inv_comp_verifies(self):
        sf = parse_system(ALEX_LOST_PROLONGATION, name="alex-lost-prolongation")
        div = alex_division(sf.vars)
        r = inv_comp(sf.polynomials, div, sf.order)
        assert verify_basis(r.basis, sf, div)

    @pytest.mark.xfail(
        strict=True,
        raises=UsageError,
        reason="inv_bas under alex never queues z*(x^5*z^3) again, and min_bas "
        "finds no head x^5*z^4",
    )
    def test_inv_bas_matches_the_verified_heads(self):
        sf = parse_system(ALEX_LOST_PROLONGATION, name="alex-lost-prolongation")
        div = alex_division(sf.vars)
        rc = inv_comp(sf.polynomials, div, sf.order)
        assert verify_basis(rc.basis, sf, div)
        rb = inv_bas(sf.polynomials, div, sf.order)
        assert [p.lm for p in rb.basis] == [p.lm for p in rc.basis]


def filed(reducer):
    """Each head's elements as the reducer files them: identity, item."""
    return {
        head: [(id(g), item) for g, item in rows]
        for head, rows in reducer._by_head.items()
    }


def answers(reducer, m):
    return [(id(g), item, u) for g, item, u in reducer.divisors(m)]


class TestGrownReducer:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 3),
        st.sampled_from(("janet", "alex", "thomas")),
    )
    @settings(max_examples=60, deadline=None)
    def test_added_elements_rank_and_split_as_in_a_fresh_reducer(
        self, terms, start, division_name
    ):
        # Heads may repeat: equal heads are listed in the order they were added.
        order = degrevlex(VS)
        div = division_by_name(division_name, VS)
        G = [poly(order, (c, Monomial((a, b)))) for a, b, c in terms]
        start = min(start, len(G))
        grown = _InvolutiveReducer(G[:start], div)
        for i in range(start, len(G)):
            grown.add(G[i])
            fresh = _InvolutiveReducer(G[: i + 1], div)
            assert filed(grown) == filed(fresh)
            assert grown.partition.monomials == fresh.partition.monomials
            for u in fresh.partition.monomials:
                assert grown.partition.nonmult(u) == fresh.partition.nonmult(u)
                for q in ((0, 0), (1, 0), (0, 1), (1, 1)):
                    m = mono_mul(u, Monomial(q))
                    assert answers(grown, m) == answers(fresh, m)
