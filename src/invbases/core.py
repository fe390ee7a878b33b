"""Exact monomial and polynomial arithmetic over the rationals.

Monomials are exponent tuples over a fixed variable set.  Polynomials keep
their terms sorted in strictly descending monomial order, with coefficients
stored as `fractions.Fraction`, so every value has one canonical form.
Terms are combined in two places only.  Every cancelling step (the three
normal forms, the engine's deflections and head reductions under alex, and
`spoly`) is one call of `PendingTerms.reduce_top`, in the reduction
accumulator, which holds integers: numerators over one common denominator.
A reducer enters it as integers too, through its kept tail row
(`Polynomial.tail_row`), and a term that gets reduced never becomes a
`Fraction`.  A prolongation x*g enters it as a product, `PendingTerms(g,
x)`, from g's kept key and tail rows, and is never built as a
`Polynomial`.  Terms leave it as `Fraction`s, or as raw (numerator,
denominator, monomial, key) terms, from which `monic_polynomial` builds a
monic polynomial in one pass and `PendingTerms.from_raw` seeds another
accumulator: the engine's queued combinations go from one to the other
unbuilt.  All other arithmetic (`+`, `-`, `*`) goes through the
canonicalising constructor `Polynomial(order, terms)`.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

LESS, EQUAL, GREATER = -1, 0, 1

LEX = "lex"
DEGREVLEX = "degrevlex"
ALEX = "alex"

ORDER_KINDS = (LEX, DEGREVLEX, ALEX)


class UsageError(ValueError):
    """A caller broke an operation contract (bad dimension, empty input, ...)."""


@dataclass(frozen=True)
class VarSet:
    """Ordered variable names plus a comparison priority.

    `priority` lists variable indices from most significant to least
    significant.  The default is declaration order, so the first declared
    variable is the greatest one under every ordering built on this set.
    """

    names: tuple[str, ...]
    priority: tuple[int, ...] | None = None

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise UsageError("variable set must not be empty")
        if len(set(names)) != len(names):
            raise UsageError("duplicate variable names: %r" % (names,))
        pr = tuple(self.priority) if self.priority is not None else tuple(range(len(names)))
        if sorted(pr) != list(range(len(names))):
            raise UsageError("priority must be a permutation of variable indices")
        object.__setattr__(self, "priority", pr)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError("unknown variable %r" % name) from None


class Monomial:
    """Immutable power product, stored as an exponent tuple."""

    __slots__ = ("exps", "deg")

    def __init__(self, exps: Iterable[int]):
        e = tuple(exps)
        for v in e:
            if not isinstance(v, int) or v < 0:
                raise UsageError("exponents must be non-negative integers: %r" % (e,))
        self.exps = e
        self.deg = sum(e)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return "Monomial(%r)" % (self.exps,)

    def divides(self, other: Monomial) -> bool:
        _check_dim(self, other)
        return self.deg <= other.deg and all(map(operator.le, self.exps, other.exps))


def _mono(exps: tuple, deg: int) -> Monomial:
    """Internal constructor for exponents and degree already known valid:
    products, quotients and lcms of valid monomials."""
    m = object.__new__(Monomial)
    m.exps = exps
    m.deg = deg
    return m


def mono_one(n: int) -> Monomial:
    return Monomial((0,) * n)


def mono_var(i: int, n: int) -> Monomial:
    """The monomial consisting of the single variable with index `i`."""
    if not 0 <= i < n:
        raise UsageError("variable index %d out of range for %d variables" % (i, n))
    return Monomial(tuple(1 if j == i else 0 for j in range(n)))


def _check_dim(a: Monomial, b: Monomial) -> None:
    if len(a.exps) != len(b.exps):
        raise UsageError("monomial dimension mismatch: %d vs %d" % (len(a.exps), len(b.exps)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    _check_dim(a, b)
    return _mono(tuple(map(operator.add, a.exps, b.exps)), a.deg + b.deg)


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """Exact quotient a/b, or None when b does not divide a."""
    _check_dim(a, b)
    ae, be = a.exps, b.exps
    if a.deg < b.deg or not all(map(operator.ge, ae, be)):
        return None
    return _mono(tuple(map(operator.sub, ae, be)), a.deg - b.deg)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    _check_dim(a, b)
    e = tuple(map(max, a.exps, b.exps))
    return _mono(e, sum(e))


# Order keys pack the exponents as base-2^KEY_BITS digits.  Integer order
# equals the monomial ordering only while every total degree is below
# KEY_BOUND; `Ordering.key`, the reduction step of `PendingTerms`
# (`reduce_top`), its seeding with a prolongation and the engine's
# `_covered` raise `UsageError` from there on.
KEY_BITS = 32
KEY_BOUND = 1 << KEY_BITS


def _key_bound_error(deg: int) -> UsageError:
    return UsageError("total degree %d reaches the order key bound 2^%d" % (deg, KEY_BITS))


@dataclass(frozen=True)
class Ordering:
    """A total monomial ordering of one of the supported kinds.

    `lex` and `degrevlex` are admissible (1 is minimal and the ordering is
    compatible with multiplication).  `alex` compares by total degree
    ascending and breaks ties lexicographically descending; it is not
    admissible (1 is the unique greatest monomial) and is only meant to
    generate an involutive division, never to order a polynomial.
    """

    kind: str
    vars: VarSet

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise UsageError("unknown ordering kind %r" % (self.kind,))
        # The key is linear in the exponents: one weight per variable, by
        # its place in the priority, plus one for the total degree.
        n = self.vars.n
        place = {v: j for j, v in enumerate(self.vars.priority)}
        if self.kind == DEGREVLEX:
            weights = [-(KEY_BOUND ** place[i]) for i in range(n)]
        else:
            weights = [KEY_BOUND ** (n - 1 - place[i]) for i in range(n)]
        deg_weight = {LEX: 0, DEGREVLEX: KEY_BOUND ** n, ALEX: -(KEY_BOUND ** n)}[self.kind]
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_weights", tuple(weights))
        object.__setattr__(self, "_deg_weight", deg_weight)

    @property
    def admissible(self) -> bool:
        return self.kind in (LEX, DEGREVLEX)

    def key(self, m: Monomial) -> int:
        """Sort key; bigger key means greater monomial.

        With B = KEY_BOUND and e_j the exponent of the variable in place j
        of the priority (j = 0 most significant): lex is Σ e_j·B^(n−1−j);
        degrevlex is deg·B^n − Σ e_j·B^j; alex is −deg·B^n plus the lex
        key.  Keys add: key(u·m) = key(u) + key(m).  Raises `UsageError`
        for a total degree of B or more, where digits would carry.
        """
        if len(m.exps) != self._n:
            raise UsageError("monomial dimension mismatch: %d vs %d" % (len(m.exps), self._n))
        if m.deg >= KEY_BOUND:
            raise _key_bound_error(m.deg)
        return m.deg * self._deg_weight + sum(map(operator.mul, m.exps, self._weights))

    def cmp(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LESS
        if ka > kb:
            return GREATER
        return EQUAL


def lex(vars: VarSet) -> Ordering:
    return Ordering(LEX, vars)


def degrevlex(vars: VarSet) -> Ordering:
    return Ordering(DEGREVLEX, vars)


def alex(vars: VarSet) -> Ordering:
    return Ordering(ALEX, vars)


def ordering_by_name(kind: str, vars: VarSet) -> Ordering:
    return Ordering(kind, vars)


def mono_cmp(order: Ordering, a: Monomial, b: Monomial) -> int:
    """Compare two monomials under `order`; returns LESS, EQUAL or GREATER."""
    _check_dim(a, b)
    return order.cmp(a, b)


class Polynomial:
    """Sparse polynomial with Fraction coefficients and canonical term order.

    `terms` is a tuple of (coefficient, monomial) pairs sorted strictly
    descending under `order`; no zero coefficients, no repeated monomials.
    The order keys of the terms are kept in `_row` (`key_row`) once taken:
    by the constructor, which sorts by them, by `_raw`'s canonical check
    under `__debug__`, or else when a `PendingTerms` first needs them,
    also to seed the terms of a prolongation mono*p, whose keys are
    key(mono) plus p's row.  The
    integers a reduction by the polynomial needs are kept in `_tail`
    (`tail_row`), built on its first use as a reducer, and its largest
    total degree in `_deg` (`degree`), on its first read.  None is ever
    invalidated: polynomials are immutable.
    """

    __slots__ = ("order", "terms", "_row", "_tail", "_deg")

    def __init__(self, order: Ordering, terms: Iterable[tuple[Fraction, Monomial]] = ()):
        self.order = order
        self.terms, self._row = _canonical_terms(order, terms)
        self._tail = None
        self._deg = None

    @classmethod
    def _raw(cls, order: Ordering, terms: tuple) -> Polynomial:
        """Internal constructor for terms already in canonical form."""
        p = object.__new__(cls)
        p.order = order
        p.terms = terms
        p._row = p._assert_canonical() if __debug__ else None
        p._tail = None
        p._deg = None
        return p

    @classmethod
    def zero(cls, order: Ordering) -> Polynomial:
        return cls._raw(order, ())

    @classmethod
    def one(cls, order: Ordering) -> Polynomial:
        return cls._raw(order, ((Fraction(1), mono_one(order.vars.n)),))

    def _assert_canonical(self) -> tuple:
        """Check the canonical form, and return the order keys of the terms
        that the check takes, for `_raw` to keep as the key row."""
        n = self.order.vars.n
        key = self.order.key
        row = []
        for c, m in self.terms:
            if not isinstance(c, Fraction) or c == 0:
                raise AssertionError("non-canonical coefficient")
            if len(m.exps) != n:
                raise AssertionError("monomial dimension mismatch")
            k = key(m)
            if row and not k < row[-1]:
                raise AssertionError("terms out of order")
            row.append(k)
        return tuple(row)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lm(self) -> Monomial:
        if not self.terms:
            raise UsageError("zero polynomial has no leading monomial")
        return self.terms[0][1]

    @property
    def lc(self) -> Fraction:
        if not self.terms:
            raise UsageError("zero polynomial has no leading coefficient")
        return self.terms[0][0]

    @property
    def lt(self) -> tuple[Fraction, Monomial]:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return self.terms[0]

    def key_row(self) -> tuple:
        """The order keys of the terms, in term order."""
        row = self._row
        if row is None:
            key = self.order.key
            row = self._row = tuple([key(m) for _, m in self.terms])
        return row

    def tail_row(self) -> tuple:
        """The integers a reduction by this nonzero polynomial needs:
        (numerator of lc, denominator of lc, L, numerators, keys, degree).
        L is the lcm of the tail's denominators, the numerators are those of
        the tail's coefficients over L, the keys are the tail's order keys,
        and the degree is the largest total degree in the tail (-1 without
        a tail)."""
        row = self._tail
        if row is None:
            row = self._tail = self._build_tail_row()
        return row

    def _build_tail_row(self) -> tuple:
        lc = self.lc
        tail = self.terms[1:]
        lcm = math.lcm(*[c.denominator for c, _ in tail])
        return (
            lc.numerator,
            lc.denominator,
            lcm,
            tuple([c.numerator * (lcm // c.denominator) for c, _ in tail]),
            self.key_row()[1:],
            max([m.deg for _, m in tail], default=-1),
        )

    @property
    def degree(self) -> int:
        """Largest total degree of any term; -1 for the zero polynomial."""
        deg = self._deg
        if deg is None:
            deg = self._deg = max([m.deg for _, m in self.terms], default=-1)
        return deg

    def __iter__(self) -> Iterator[tuple[Fraction, Monomial]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.order, tuple((-c, m) for c, m in self.terms))

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.order != other.order:
            raise UsageError("cannot combine polynomials under different orderings")
        return Polynomial(self.order, self.terms + other.terms)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products(self.order, [(self, other)])

    def mul_term(self, coeff, mono: Monomial) -> Polynomial:
        """Multiply by a single term coeff*mono; a unit coefficient only
        shifts the monomials (every prolongation x*g is one)."""
        c = Fraction(coeff)
        if c == 0 or not self.terms:
            return Polynomial.zero(self.order)
        _check_dim(self.terms[0][1], mono)
        unit = c == 1
        ue, ud = mono.exps, mono.deg
        add = operator.add
        return Polynomial._raw(self.order, tuple(
            (tc if unit else tc * c, _mono(tuple(map(add, tm.exps, ue)), tm.deg + ud))
            for tc, tm in self.terms
        ))

    def scale(self, coeff) -> Polynomial:
        c = Fraction(coeff)
        if c == 0:
            return Polynomial.zero(self.order)
        return Polynomial._raw(self.order, tuple((tc * c, tm) for tc, tm in self.terms))

    def monic(self) -> Polynomial:
        # Polynomials are immutable, so a monic one is its own monic form.
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(1 / self.lc)

    def __str__(self) -> str:
        return render_polynomial(self)

    def __repr__(self) -> str:
        return "<Polynomial %s>" % (render_polynomial(self),)


def _canonical_terms(order: Ordering, terms) -> tuple[tuple, tuple]:
    """Sum the coefficients of equal monomials, drop zeros, sort descending.
    Returns the terms and their order keys."""
    n = order.vars.n
    acc: dict[Monomial, Fraction] = {}
    for c, m in terms:
        if c.__class__ is not Fraction:
            c = Fraction(c)
        if not c:
            continue
        if len(m.exps) != n:
            raise UsageError("monomial dimension mismatch: %d vs %d" % (len(m.exps), n))
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c
    key = order.key
    # Distinct monomials have distinct keys, so the sort never compares
    # past the key.
    keyed = sorted([(key(m), c, m) for m, c in acc.items() if c != 0], reverse=True)
    return tuple([(c, m) for _, c, m in keyed]), tuple([k for k, _, _ in keyed])


def sum_of_products(order: Ordering, pairs) -> Polynomial:
    """The sum of a*b over the pairs (a, b), canonicalised once over all
    product terms instead of once per partial sum."""
    terms = []
    for a, b in pairs:
        if a.order != order or b.order != order:
            raise UsageError("cannot combine polynomials under different orderings")
        terms += [(c1 * c2, mono_mul(m1, m2)) for c1, m1 in a.terms for c2, m2 in b.terms]
    return Polynomial(order, terms)


class PendingTerms:
    """The terms of a polynomial still awaiting reduction, for a normal form.

    A normal form looks at the largest pending term's monomial (`top_mono`)
    to find a reducer g, then either moves the term to its remainder with
    `pop` or cancels it with `reduce_top(u, g)` against the leading term of
    the multiple c*u*g, c = (its coefficient)/lc(g), whose other terms are
    folded in; `reduce_top` is the one reduction step, and a caller that
    also needs c (to update cofactors) reads the coefficient first with
    `top_coeff`.  The terms are kept ascending (largest last) in three
    parallel lists: integer order keys, integer numerators and monomials,
    all numerators over one positive integer denominator `den`.  A product term's key is key(u) plus the key of g's
    term, and its numerator is a multiple of g's tail numerator, both from
    g's kept integer row (`Polynomial.tail_row`); its monomial is kept as
    the pair (term monomial, u) until `top_mono`, `pop` or `descending`
    builds it: equal keys mean equal monomials, so merging and cancelling
    need none.  Each folded term finds its place by `bisect` on its key, so
    no step rebuilds the terms that a reduction leaves alone, and a step
    multiplies and adds integers, not fractions; `reduce_top` takes c from
    the popped numerator, `den` and lc(g) as integers, so a term that gets
    reduced never becomes a `Fraction`.  After each step the content
    gcd(den, numerators) is divided out, so `den` is always the least
    common denominator of the pending terms.  Terms leave the accumulator
    with `Fraction` coefficients (`pop`, `descending`), or unbuilt as raw
    (numerator, `den`, monomial, key) terms (`pop_raw`, `descending_raw`),
    for `monic_polynomial` to build the monic polynomial once, or for
    `from_raw` to seed a new accumulator with, as the engine seeds the
    normal form of a queued combination: raw terms taken at different
    moments may carry different `den`s, and `from_raw` brings them to
    their least common denominator without a `Fraction` or a key.

    `PendingTerms(p, mono)` holds the terms of mono*p, a prolongation,
    the same way, from p's kept rows: each key is key(mono) plus the key of
    p's term, and each numerator comes from p's tail row (a prolonged p is
    a reducer too), so no denominator is read again.  Each monomial is kept
    as the pair (p's monomial, mono), so terms of the product that are
    never read are never built.  A product of total degree KEY_BOUND or
    more raises `UsageError` before anything is held.
    """

    __slots__ = ("order", "_keys", "_nums", "_monos", "den")

    def __init__(self, p: Polynomial, mono: Monomial | None = None):
        self.order = p.order
        terms = p.terms[::-1]
        row = p.key_row()[::-1]
        if mono is None:
            self._keys = list(row)
            self._monos = [m for _, m in terms]
            den = self.den = math.lcm(*[c.denominator for c, _ in terms])
            self._nums = [c.numerator * (den // c.denominator) for c, _ in terms]
            return
        deg = p.degree + mono.deg
        if deg >= KEY_BOUND:
            raise _key_bound_error(deg)
        ku = p.order.key(mono)
        self._keys = [ku + k for k in row]
        self._monos = [(m, mono) for _, m in terms]
        lc_num, lc_den, lcm, tail_nums, _, _ = p.tail_row()
        den = self.den = math.lcm(lc_den, lcm)
        scale = den // lcm
        nums = self._nums = [a * scale for a in reversed(tail_nums)]
        nums.append(lc_num * (den // lc_den))

    @classmethod
    def from_raw(cls, order: Ordering, raw) -> PendingTerms:
        """An accumulator holding the nonempty descending raw terms `raw`,
        (numerator, denominator, monomial, key) as `pop_raw` and
        `descending_raw` give them, whose denominators may differ: `den` is
        their lcm with the content divided out, and the keys are the terms'
        own, so no term is keyed and no `Fraction` is made."""
        nums, dens, monos, keys = zip(*reversed(raw))
        den = math.lcm(*dens)
        nums = [n * (den // d) for n, d in zip(nums, dens)]
        if den > 1:
            content = math.gcd(den, *nums)
            if content > 1:
                den //= content
                nums = [n // content for n in nums]
        pending = object.__new__(cls)
        pending.order = order
        pending._keys = list(keys)
        pending._nums = nums
        pending._monos = list(monos)
        pending.den = den
        return pending

    def __bool__(self) -> bool:
        return bool(self._keys)

    def copy(self) -> PendingTerms:
        """An independent accumulator holding the same pending terms.  The
        pending monomials are built first, so that the two share them
        rather than each building its own."""
        self._monos = [_built(m) for m in self._monos]
        other = object.__new__(PendingTerms)
        other.order = self.order
        other._keys = self._keys[:]
        other._nums = self._nums[:]
        other._monos = self._monos[:]
        other.den = self.den
        return other

    def top_mono(self) -> Monomial:
        """The monomial of the largest pending term, which stays pending."""
        m = self._monos[-1]
        if m.__class__ is tuple:
            m = self._monos[-1] = _built(m)
        return m

    def pop(self) -> tuple[Fraction, Monomial]:
        """Remove and return the largest pending term."""
        self._keys.pop()
        return Fraction(self._nums.pop(), self.den), _built(self._monos.pop())

    def pop_raw(self) -> tuple[int, int, Monomial, int]:
        """Remove the largest pending term and return it unbuilt, as
        (numerator, `den`, monomial, key)."""
        return self._nums.pop(), self.den, _built(self._monos.pop()), self._keys.pop()

    def descending(self) -> tuple:
        """The pending terms, largest first, as a polynomial keeps them."""
        den = self.den
        return tuple(zip([Fraction(n, den) for n in reversed(self._nums)],
                         [_built(m) for m in reversed(self._monos)]))

    def descending_raw(self) -> list:
        """The pending terms, largest first, as `pop_raw` returns them."""
        den = self.den
        return [
            (n, den, _built(m), k)
            for n, m, k in zip(reversed(self._nums), reversed(self._monos), reversed(self._keys))
        ]

    def top_coeff(self) -> Fraction:
        """The coefficient of the largest pending term."""
        return Fraction(self._nums[-1], self.den)

    def reduce_top(self, mono: Monomial, g: Polynomial) -> int:
        """Remove the largest pending term and subtract c*mono*(g - lt(g)),
        c = (its coefficient)/lc(g): the reduction step that cancels the
        term against c*mono*lt(g), for a g whose head times mono is the
        term's monomial.

        Returns the largest total degree of the product terms, -1 when g
        has a single term.  A reducer of another ordering, or a product of
        total degree KEY_BOUND or more, raises `UsageError` before anything
        is removed.

        c = cn/cd in lowest terms: cn is the popped numerator times lc(g)'s
        denominator and cd is `den` times lc(g)'s numerator, over their
        gcd.  When `den` is not a multiple of the products' common
        denominator need = cd*L (L from g's tail row), the numerators are
        rescaled once to the (positive) lcm of the two; a negative cd needs
        no sign fix, since den // need is exact either way.  Over `den`, the
        product term of g's tail numerator a has numerator f*a, f =
        -cn*(den // need).  A product term joins the entry of equal key,
        which goes when the sum is zero, or else is inserted.  The products
        come in descending order (the orderings are compatible with
        multiplication), so each one is searched for below the place of the
        one before.  Last the content gcd(den, numerators) is divided out.
        """
        if g.order != self.order:
            raise UsageError("cannot combine polynomials under different orderings")
        ku = self.order.key(mono)
        lc_num, lc_den, lcm, tail_nums, tail_keys, tail_deg = g.tail_row()
        deg = tail_deg + mono.deg if tail_deg >= 0 else -1
        if deg >= KEY_BOUND:
            raise _key_bound_error(deg)
        keys, nums, monos = self._keys, self._nums, self._monos
        keys.pop()
        monos.pop()
        den = self.den
        cn = nums.pop() * lc_den
        cd = den * lc_num
        r = math.gcd(cn, cd)
        cn //= r
        cd //= r
        if tail_nums:
            need = cd * lcm
            if den % need:
                new = math.lcm(den, need)
                scale = new // den
                nums[:] = [n * scale for n in nums]
                den = new
            f = -cn * (den // need)
            size = hi = len(keys)
            terms = iter(g.terms)
            next(terms)
            for a, kg, (_, gm) in zip(tail_nums, tail_keys, terms):
                t = f * a
                k = ku + kg
                hi = bisect_left(keys, k, 0, hi)
                if hi < size and keys[hi] == k:
                    s = nums[hi] + t
                    if s:
                        nums[hi] = s
                    else:
                        del keys[hi]
                        del nums[hi]
                        del monos[hi]
                        size -= 1
                else:
                    keys.insert(hi, k)
                    nums.insert(hi, t)
                    monos.insert(hi, (gm, mono))
                    size += 1
        if den > 1:
            content = math.gcd(den, *nums)
            if content > 1:
                den //= content
                nums[:] = [n // content for n in nums]
        self.den = den
        return deg


def monic_polynomial(order: Ordering, raw) -> tuple[Polynomial, Fraction]:
    """The monic polynomial of the nonempty descending raw terms `raw`,
    (numerator, denominator, monomial, key) as `pop_raw` gives them, and
    the factor 1/lc it scaled them by: each coefficient n/d becomes
    n*d0/(d*n0), where n0/d0 is the first one, in one `Fraction` per term."""
    n0, d0, _, _ = raw[0]
    terms = tuple([(Fraction(n * d0, d * n0), m) for n, d, m, _ in raw])
    return Polynomial._raw(order, terms), Fraction(d0, n0)


def _built(m) -> Monomial:
    """A pending monomial, built from its (term monomial, multiplier) pair
    when a reduction step stored it as one."""
    if m.__class__ is tuple:
        a, b = m
        return _mono(tuple(map(operator.add, a.exps, b.exps)), a.deg + b.deg)
    return m


def render_monomial(m: Monomial, names: tuple[str, ...]) -> str:
    parts = []
    for i, e in enumerate(m.exps):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append("%s^%d" % (names[i], e))
    return "*".join(parts)


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form, e.g. ``x^2 - 3/2*y^2``."""
    if p.is_zero:
        return "0"
    names = p.order.vars.names
    pieces = []
    for pos, (c, m) in enumerate(p.terms):
        neg = c < 0
        mag = -c if neg else c
        body = render_monomial(m, names)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        if pos == 0:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial (lcm/lt(f))*f - (lcm/lt(g))*g of two nonzero polynomials."""
    if f.is_zero or g.is_zero:
        raise UsageError("spoly requires nonzero polynomials")
    if f.order != g.order:
        raise UsageError("cannot combine polynomials under different orderings")
    l = mono_lcm(f.lm, g.lm)
    uf = mono_div(l, f.lm)
    ug = mono_div(l, g.lm)
    # One reduction step: the leading terms of the two multiples cancel.
    pending = PendingTerms(f.mul_term(1 / f.lc, uf))
    pending.reduce_top(ug, g)
    return Polynomial._raw(f.order, pending.descending())
