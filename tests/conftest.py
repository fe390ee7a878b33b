"""Shared fixtures and hypothesis strategies for the test suite, and a time
limit per test."""
from __future__ import annotations

import signal

import pytest
from hypothesis import strategies as st

from invbases.core import Monomial, Polynomial, VarSet, degrevlex, lex
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
