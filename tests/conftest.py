"""Shared fixtures and hypothesis strategies for the test suite, a sampler
of random ideal members, a reducer-based involutivity reference, and a
time limit per test."""
from __future__ import annotations

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from invbases.core import (
    Monomial,
    Ordering,
    Polynomial,
    UsageError,
    VarSet,
    degrevlex,
    lex,
    mono_var,
    sum_of_products,
)
from invbases.engine import EngineOptions, _Engine, _InvolutiveReducer
from invbases.systems import parse_system

# Two generators in the plane whose completion is tiny enough to check by
# hand: the minimal Janet basis has heads {x*y, x^2, y^3} and the loop
# additionally certifies x^2*y.
WORKED_EXAMPLE = """
vars: x y
order: lex
p: x^2 - 3/2*y^2
p: 2*x*y + 3*y^2
"""

# A second small system under degrevlex with the same head pattern but a
# different reduction history.
SECOND_EXAMPLE = """
vars: x y
order: degrevlex
p: x^2 - 2*x*y
p: x*y - 3*y^2
"""


# Neither completion bounds its loop, so a kernel fault that misses a divisor
# shows as a hang; the limit turns it into a failure.  The slowest test takes
# a few seconds.  A test stuck inside one native call, such as an operation
# on a huge integer, never reaches the SIGALRM handler; for that case
# pyproject.toml sets a later faulthandler timeout that ends the run.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S.  Not an `Exception`, so that
    neither the code under test nor hypothesis takes it for a failure of
    one example and goes on."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Time setup, call and teardown of each test together, by SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        # Raised inside a finalizer that the garbage collector runs, the
        # exception is ignored, so fire again until it reaches pytest.
        signal.alarm(5)
        raise TimeLimitExceeded(
            "%s ran past the limit of %d s for its setup, call and teardown; "
            "stopped in %s (%s:%s)"
            % (item.nodeid, TEST_TIME_LIMIT_S, frame.f_code.co_name,
               frame.f_code.co_filename, frame.f_lineno))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Report an overrun by its message alone: the traceback of an
    interrupted frame may lack line numbers, which pytest cannot format."""
    if call.excinfo is not None and call.excinfo.errisinstance(TimeLimitExceeded):
        signal.alarm(0)
        try:
            pytest.fail(str(call.excinfo.value), pytrace=False)
        except pytest.fail.Exception:
            call.excinfo = pytest.ExceptionInfo.from_current()


@pytest.fixture
def worked():
    return parse_system(WORKED_EXAMPLE, name="worked")


@pytest.fixture
def second():
    return parse_system(SECOND_EXAMPLE, name="second")


@pytest.fixture
def xy_vars():
    return VarSet(("x", "y"))


@pytest.fixture
def xy_lex(xy_vars):
    return lex(xy_vars)


@pytest.fixture
def xy_degrevlex(xy_vars):
    return degrevlex(xy_vars)


def engine_over(division, order, basis) -> _Engine:
    """An engine whose basis is the given signature-labelled elements,
    filed one by one as insertions file them (`_grow`)."""
    engine = _Engine(division, order, EngineOptions())
    for t in basis:
        engine._grow(t)
    return engine


def reducer_is_involutive(G, division, order) -> bool:
    """The reference for `oracles.is_involutive`, by reduction: each
    nonmultiplicative prolongation x*g, and each g whose head repeats an
    earlier one's, has involutive normal form zero against G itself
    (`_InvolutiveReducer.nf`, the engine's reducer).  Under a continuous
    division that is involutivity (Gerdt and Blinkov 1998)."""
    polys = list(G)
    if not polys:
        raise UsageError("cannot test an empty basis")
    reducer = _InvolutiveReducer(polys, division)
    n = order.vars.n
    seen = set()
    for g in polys:
        if g.lm in seen and not reducer.nf(g).is_zero:
            return False
        seen.add(g.lm)
        for i in sorted(reducer.partition.nonmult(g.lm)):
            if not reducer.nf(g, mono_var(i, n)).is_zero:
                return False
    return True


class counted_keys:
    """Count the `Ordering.key` calls made inside a `with` block."""

    def __enter__(self):
        self.calls = 0
        real = Ordering.key

        def key(order, m):
            self.calls += 1
            return real(order, m)

        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(Ordering, "key", key)
        return self

    def __exit__(self, *exc):
        self._patch.undo()


def monomials(n: int, max_deg: int = 4):
    """Monomials in n variables with total degree at most max_deg, drawn as a
    multiset of at most max_deg variables, so that no draw is rejected."""
    return st.lists(st.integers(0, n - 1), max_size=max_deg).map(
        lambda vs: Monomial(tuple(vs.count(i) for i in range(n)))
    )


def monomial_sets(n: int, max_deg: int = 4, min_size: int = 1, max_size: int = 6):
    return st.frozensets(monomials(n, max_deg), min_size=min_size, max_size=max_size)


def small_fractions():
    return st.fractions(min_value=-3, max_value=3).filter(lambda c: c != 0)


def polynomials(order, n: int, max_deg: int = 3, max_terms: int = 4):
    """Small nonzero polynomials over the given ordering."""
    term = st.tuples(small_fractions(), monomials(n, max_deg))
    return (
        st.lists(term, min_size=1, max_size=max_terms)
        .map(lambda ts: Polynomial(order, ts))
        .filter(lambda p: not p.is_zero)
    )


def random_ideal_member(
    rng: random.Random,
    generators,
    order: Ordering,
    max_terms: int = 3,
    max_deg: int = 2,
) -> Polynomial:
    """A random element sum(h_i * f_i) of the ideal of the generators, with
    short random multipliers h_i of bounded degree."""
    gens = list(generators)
    if not gens:
        raise UsageError("need at least one generator")
    n = order.vars.n
    pairs = []
    for g in gens:
        terms = []
        for _ in range(rng.randrange(0, max_terms + 1)):
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            exps = [0] * n
            for _ in range(rng.randrange(0, max_deg + 1)):
                exps[rng.randrange(n)] += 1
            terms.append((coeff, Monomial(tuple(exps))))
        pairs.append((Polynomial(order, terms), g))
    return sum_of_products(order, pairs)
