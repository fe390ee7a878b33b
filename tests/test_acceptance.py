"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE criterion N: PASS/FAIL`` line (also to the
unredirected stdout, so the lines survive output capture) and then asserts.
The runs that feed several criteria are shared through module-scoped
fixtures and are executed with the engine's internal debug assertions
switched on.
"""
from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass

import pytest

from invbases.core import (
    Monomial,
    Polynomial,
    VarSet,
    degrevlex,
    render_monomial,
)
from invbases.division import (
    Division,
    alex_division,
    axioms_check,
    division_by_name,
    janet,
    minimal_completion,
    thomas_completion,
    thomas_division,
)
from invbases.engine import CompletionResult, EngineOptions, inv_bas, inv_comp, nf_full
from invbases.oracles import (
    admissibility_check,
    buchberger_nf,
    expand_cofactors,
    is_groebner,
    is_involutive,
)
from invbases.systems import SystemFile, gen_cyclic, gen_katsura, parse_polynomial, parse_system

from conftest import SECOND_EXAMPLE, WORKED_EXAMPLE, random_ideal_member

DEBUG_OPTS = EngineOptions(check_invariants=True)

# Signature diagnostics of every completion run performed while the module
# executes, picked up again by the criterion-8 checks.
SIG_RUNS: list[tuple[str, dict]] = []


def report(criterion: str, ok: bool, desc: str) -> None:
    line = "ACCEPTANCE criterion %s: %s - %s" % (criterion, "PASS" if ok else "FAIL", desc)
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)


def run_debug(label: str, polys, division: Division, order, **extra) -> CompletionResult:
    options = EngineOptions(check_invariants=True, **extra)
    result = inv_comp(polys, division, order, options)
    SIG_RUNS.append((label, result.diagnostics))
    return result


@dataclass
class Cell:
    label: str
    division_name: str
    system: SystemFile
    division: Division
    result: CompletionResult
    seconds: float


@pytest.fixture(scope="module")
def worked_run():
    sf = parse_system(WORKED_EXAMPLE, name="worked")
    t0 = time.perf_counter()
    result = run_debug("worked/janet", sf.polynomials, janet(sf.vars), sf.order)
    return sf, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid():
    systems = [
        ("binomial-pair", parse_system(SECOND_EXAMPLE, name="binomial-pair")),
        ("cyclic2", gen_cyclic(2)),
        ("cyclic3", gen_cyclic(3)),
        ("cyclic4", gen_cyclic(4)),
        ("katsura2", gen_katsura(2)),
        ("katsura3", gen_katsura(3)),
    ]
    cells = []
    for label, sf in systems:
        for division_name in ("janet", "alex"):
            division = division_by_name(division_name, sf.vars)
            t0 = time.perf_counter()
            result = run_debug(
                "%s/%s" % (label, division_name),
                sf.polynomials,
                division,
                sf.order,
            )
            cells.append(
                Cell(label, division_name, sf, division, result, time.perf_counter() - t0)
            )
    return cells


@pytest.fixture(scope="module")
def cyclic5_run():
    sf = gen_cyclic(5)
    t0 = time.perf_counter()
    result = run_debug("cyclic5/janet", sf.polynomials, janet(sf.vars), sf.order)
    return sf, result, time.perf_counter() - t0


def test_criterion_1_worked_two_generator_system(worked_run):
    sf, result, seconds = worked_run
    names = sf.vars.names
    failures = []

    heads = {render_monomial(p.lm, names) for p in result.basis}
    if heads != {"x*y", "x^2", "y^3"}:
        failures.append("minimal basis heads are %s" % sorted(heads))

    targets = [parse_polynomial(t, sf.order) for t in
               ("2*x*y + 3*y^2", "x^2 - 3/2*y^2", "3/4*y^3")]
    by_lm = {t.lm: t for t in targets}
    for p in result.basis:
        t = by_lm.get(p.lm)
        if t is None:
            continue
        ratio = p.lc / t.lc
        if ratio <= 0 or p != t.scale(ratio):
            failures.append("%s is not a positive multiple of its target" % p)

    s = result.stats
    if (s.f5, s.reds, s.super) != (1, 0, 0):
        failures.append("counters f5=%d reds=%d super=%d" % (s.f5, s.reds, s.super))
    if seconds >= 1.0:
        failures.append("took %.2fs" % seconds)

    ok = not failures
    report("1", ok, "minimal Janet basis of the two-generator system, "
                    "exact heads, scalings and counters, under 1s")
    assert ok, "; ".join(failures)


def test_criterion_2_grid_verifies_and_ignores_input_order(grid):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(20260825)
    for cell in grid:
        tag = "%s/%s" % (cell.label, cell.division_name)
        sf, division, result = cell.system, cell.division, cell.result
        if not is_groebner(result.basis, sf.order):
            failures.append("%s: not a Groebner basis" % tag)
        if not is_involutive(result.basis, division, sf.order):
            failures.append("%s: not involutive" % tag)
        heads = {p.lm for p in result.basis}
        classical = inv_bas(sf.polynomials, division, sf.order)
        if {p.lm for p in classical.basis} != heads:
            failures.append("%s: classical completion found different heads" % tag)
        for i in range(5):
            shuffled = list(sf.polynomials)
            rng.shuffle(shuffled)
            permuted = run_debug("%s perm%d" % (tag, i), shuffled, division, sf.order)
            if {p.lm for p in permuted.basis} != heads:
                failures.append("%s: permutation %d changed the heads" % (tag, i))
    seconds = sum(c.seconds for c in grid) + time.perf_counter() - t0
    if seconds >= 60:
        failures.append("took %.1fs" % seconds)

    ok = not failures
    report("2", ok, "six systems x {janet, alex} under degrevlex: verified "
                    "Groebner + involutive, classical agreement, and "
                    "input-order independence, under 60s")
    assert ok, "\n".join(failures)


def test_criterion_3_random_members_reduce_to_zero(grid):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(3)
    for cell in grid:
        sf = cell.system
        for i in range(100):
            member = random_ideal_member(rng, sf.polynomials, sf.order)
            involutive = nf_full(member, cell.result.basis, cell.division, sf.order)
            classical = buchberger_nf(member, cell.result.basis, sf.order)
            if not involutive.is_zero or not classical.is_zero:
                failures.append(
                    "%s/%s: member %d has a nonzero normal form"
                    % (cell.label, cell.division_name, i)
                )
                break
    seconds = time.perf_counter() - t0
    if seconds >= 30:
        failures.append("took %.1fs" % seconds)

    ok = not failures
    report("3", ok, "100 random ideal members per basis reduce to zero both "
                    "involutively and classically, under 30s")
    assert ok, "\n".join(failures)


def random_monomial_set(rng: random.Random, n: int, max_deg: int, size: int) -> set[Monomial]:
    out: set[Monomial] = set()
    attempts = 0
    while (not out or len(out) < size) and attempts < 200:
        attempts += 1
        m = Monomial(tuple(rng.randint(0, max_deg) for _ in range(n)))
        if m.deg <= max_deg:
            out.add(m)
    return out


def test_criterion_4_minimal_janet_inside_thomas():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(4)
    for i in range(50):
        n = rng.randint(1, 3)
        vs = VarSet(tuple("xyz"[:n]))
        monos = random_monomial_set(rng, n, 4, rng.randint(1, 5))
        completion = minimal_completion(janet(vs), monos, degrevlex(vs))
        box = thomas_completion(monos)
        if not set(completion) <= set(box):
            failures.append("set %d: %s escapes the Thomas completion"
                            % (i, sorted(set(completion) - set(box))))
    seconds = time.perf_counter() - t0
    if seconds >= 10:
        failures.append("took %.1fs" % seconds)

    ok = not failures
    report("4", ok, "minimal Janet completions of 50 random monomial sets "
                    "stay inside the Thomas completion, under 10s")
    assert ok, "\n".join(failures)


def test_criterion_5_axioms_hold_and_corruption_is_caught():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(5)
    for i in range(100):
        n = rng.randint(1, 3)
        vs = VarSet(tuple("xyz"[:n]))
        monos = random_monomial_set(rng, n, 3, rng.randint(1, 4))
        for division in (janet(vs), alex_division(vs), thomas_division(vs)):
            rep = axioms_check(division, monos, rng=rng, subset_samples=2)
            if not rep.ok:
                failures.append("set %d: %s fails condition %s"
                                % (i, division.name, rep.condition))

    vs = VarSet(("x", "y"))
    x2, x2y = Monomial((2, 0)), Monomial((2, 1))

    def corrupt(u, monos):
        # Claims x nonmultiplicative for x^2 but multiplicative for x^2*y,
        # so the cone of x^2 is not closed against the larger head's cone.
        return {0} if u == x2 else set()

    rep = axioms_check(janet(vs), [x2, x2y], nm_fn=corrupt)
    if rep.ok or rep.witness is None:
        failures.append("corrupted partition was not refuted with a witness")

    seconds = time.perf_counter() - t0
    if seconds >= 10:
        failures.append("took %.1fs" % seconds)

    ok = not failures
    report("5", ok, "partition axioms hold for janet/alex/thomas on 100 "
                    "random sets and a corrupted partition is refuted "
                    "with a witness, under 10s")
    assert ok, "\n".join(failures)


def test_criterion_6_tracked_insertions_are_admissible_and_exact():
    t0 = time.perf_counter()
    failures = []
    systems = [
        ("binomial-pair", parse_system(SECOND_EXAMPLE, name="binomial-pair")),
        ("cyclic4", gen_cyclic(4)),
    ]
    for label, sf in systems:
        for division_name in ("janet", "alex"):
            division = division_by_name(division_name, sf.vars)
            result = run_debug(
                "%s/%s cofactors" % (label, division_name),
                sf.polynomials,
                division,
                sf.order,
                track_cofactors=True,
            )
            tag = "%s/%s" % (label, division_name)
            if not result.cofactor_records:
                failures.append("%s: no insertions were recorded" % tag)
            for rec in result.cofactor_records:
                if not admissibility_check(rec.cofactors, rec.sig, sf.order):
                    failures.append("%s: inadmissible cofactors for %s" % (tag, rec.poly))
                if expand_cofactors(rec.cofactors, result.sorted_input) != rec.poly:
                    failures.append("%s: expansion mismatch for %s" % (tag, rec.poly))
    seconds = time.perf_counter() - t0
    if seconds >= 60:
        failures.append("took %.1fs" % seconds)

    ok = not failures
    report("6", ok, "every recorded insertion carries an admissible cofactor "
                    "vector that re-expands to the element exactly, under 60s")
    assert ok, "\n".join(failures)


def test_criterion_7_cyclic5_completes_without_zero_reductions(cyclic5_run):
    sf, result, seconds = cyclic5_run
    failures = []
    if not is_groebner(result.basis, sf.order):
        failures.append("not a Groebner basis")
    if not is_involutive(result.basis, janet(sf.vars), sf.order):
        failures.append("not involutive")
    if result.stats.reds != 0:
        failures.append("%d reductions to zero" % result.stats.reds)
    if seconds >= 900:
        failures.append("took %.1fs" % seconds)

    s = result.stats
    # Advisory cross-check only: the loop size and maximal degree are exact
    # invariants of the computation, while the split of discarded
    # prolongations between the individual criteria depends on the order
    # they are tested in, so those counters legitimately differ between
    # implementations.
    reference = {"f5": 62, "super": 44, "polys_loop": 52, "max_deg": 9}
    mine = {"f5": s.f5, "super": s.super, "polys_loop": s.polys_loop, "max_deg": s.max_deg}
    report("7-advisory", True,
           "cyclic5 counters here %s vs reference profile %s" % (mine, reference))

    ok = not failures
    report("7", ok, "cyclic5/janet/degrevlex completes with zero reductions "
                    "to zero and verifies, under 15min")
    assert ok, "; ".join(failures)


def _collected_runs(worked_run, grid, cyclic5_run) -> list[tuple[str, dict]]:
    # SIG_RUNS already contains these fixture runs plus every permutation
    # and cofactor run that happened while the module executed; touching
    # the fixtures here just guarantees they exist even under test
    # selection.
    del worked_run, grid, cyclic5_run
    return list(SIG_RUNS)


def test_criterion_8_basis_heads_stay_distinct(worked_run, grid, cyclic5_run):
    runs = _collected_runs(worked_run, grid, cyclic5_run)
    results = [worked_run[1], cyclic5_run[1]] + [c.result for c in grid]
    ok = bool(runs)
    for result in results:
        heads = [p.lm for p in result.loop_basis]
        if len(set(heads)) != len(heads):
            ok = False
    report("8a", ok, "basis heads stayed pairwise distinct at every "
                     "iteration of %d debug-checked runs" % len(runs))
    assert ok


def test_criterion_8_signatures_monotone_within_each_position(worked_run, grid, cyclic5_run):
    runs = _collected_runs(worked_run, grid, cyclic5_run)
    offenders = [
        (label, d["same_index_sig_violations"])
        for label, d in runs
        if d["same_index_sig_violations"]
    ]
    ok = bool(runs) and not offenders
    report("8b", ok, "across %d debug-checked runs, no element was ever "
                     "processed below an already-inserted signature of its "
                     "own module position" % len(runs))
    assert ok, "violations: %s" % offenders


def test_criterion_8_signatures_globally_monotone(worked_run, grid, cyclic5_run):
    runs = _collected_runs(worked_run, grid, cyclic5_run)
    offenders = [
        (label, d["global_sig_violations"])
        for label, d in runs
        if d["global_sig_violations"]
    ]
    total = sum(count for _, count in offenders)
    ok = bool(runs) and total == 0
    report("8c", ok, "global queue-dominates-basis signature inequality "
                     "(%d violations across %d runs)" % (total, len(runs)))
    assert ok, (
        "the global inequality sig(q) >= sig(t) for every queued q and every "
        "basis element t cannot hold at every iteration: inserting a basis "
        "element recomputes the multiplicative partition over all heads, and "
        "an element inserted earlier -- at a later module position, hence a "
        "smaller signature -- can acquire a fresh nonmultiplicative variable "
        "there.  Its prolongation enters the queue with a signature built on "
        "its own, and no variable multiple of a position-(k+1) signature ever "
        "reaches a position-k one, so the prolongation is processed while the "
        "basis already holds elements of strictly greater signature.  The "
        "two-generator worked run already does this once (x times the second "
        "generator is processed after the first generator entered the basis); "
        "the restriction of the inequality to each module position separately "
        "does hold on every run, see the companion check.  observed: %s"
        % offenders
    )
