"""Exact monomial and polynomial arithmetic over the rationals.

Monomials are exponent tuples over a fixed variable set.  A polynomial and
the reduction accumulator (`PendingTerms`) keep terms in one form: order
keys, monomials and integer numerators, all over one positive denominator
`den` that shares no factor with them, so every value has one canonical
form.  A polynomial keeps its terms descending, the accumulator ascending.
Seeding an accumulator with a polynomial copies its integers, the
reduction step reads the reducer's own numerators, and the accumulator
builds a polynomial of its terms (`PendingTerms.polynomial`), so nothing
converts between two forms.  `Fraction` appears only at the edges: the public constructor
`Polynomial(order, terms)`, which the parser and the cofactor sums go
through, the accessors `lc`, `lt`, `terms` and iteration, and the
accumulator's `top_coeff` (for cofactors); `render_polynomial` prints the
integers.

Terms are combined in two places only.  Every cancelling step (the three
normal forms, the engine's deflections and head reductions under alex, and
`spoly`) is one call of `PendingTerms.reduce_top`.  A prolongation x*g
enters the accumulator as a product, `PendingTerms(g, x)`, and is never
built.  All other sums (`+`, `-`, `*`) go through the canonicalising
constructor.
"""
from __future__ import annotations

import math
import operator
import struct
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from fractions import Fraction

LESS, EQUAL, GREATER = -1, 0, 1

LEX = "lex"
DEGREVLEX = "degrevlex"
ALEX = "alex"

ORDER_KINDS = (LEX, DEGREVLEX, ALEX)


class UsageError(ValueError):
    """A caller broke an operation contract (bad dimension, empty input, ...)."""


class VarSet:
    """Ordered variable names plus a comparison priority.

    `priority` lists variable indices from most significant to least
    significant.  The default is declaration order, so the first declared
    variable is the greatest one under every ordering built on this set.
    Equal and hashable by value.
    """

    __slots__ = ("names", "priority")

    def __init__(self, names: Iterable[str], priority: Iterable[int] | None = None):
        names = tuple(names)
        if not names:
            raise UsageError("variable set must not be empty")
        if len(set(names)) != len(names):
            raise UsageError("duplicate variable names: %r" % (names,))
        pr = tuple(priority) if priority is not None else tuple(range(len(names)))
        if sorted(pr) != list(range(len(names))):
            raise UsageError("priority must be a permutation of variable indices")
        self.names = names
        self.priority = pr

    def __eq__(self, other) -> bool:
        if other.__class__ is not VarSet:
            return NotImplemented
        return self.names == other.names and self.priority == other.priority

    def __hash__(self) -> int:
        return hash((self.names, self.priority))

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


class Ordering:
    """A total monomial ordering of one of the supported kinds.

    `lex` and `degrevlex` are admissible (1 is minimal and the ordering is
    compatible with multiplication).  `alex` compares by total degree
    ascending and breaks ties lexicographically descending; it is not
    admissible (1 is the unique greatest monomial) and is only meant to
    generate an involutive division, never to order a polynomial.
    Equal and hashable by value: its kind and variable set.
    """

    __slots__ = ("kind", "vars", "_n", "_perm", "_pack", "_byteorder", "_sign", "_deg_weight")

    def __init__(self, kind: str, vars: VarSet):
        if kind not in ORDER_KINDS:
            raise UsageError("unknown ordering kind %r" % (kind,))
        self.kind = kind
        self.vars = vars
        # `key` packs the exponents, in priority order, as the 32-bit
        # (KEY_BITS) digits of one integer: most significant first for lex
        # and alex, least significant first for degrevlex, which subtracts
        # them; the total degree has a weight of its own.
        n = vars.n
        pr = vars.priority
        big = kind != DEGREVLEX
        self._n = n
        self._perm = None if pr == tuple(range(n)) else operator.itemgetter(*pr)
        self._pack = struct.Struct("%s%dI" % (">" if big else "<", n)).pack
        self._byteorder = "big" if big else "little"
        self._sign = 1 if big else -1
        self._deg_weight = {LEX: 0, DEGREVLEX: KEY_BOUND ** n, ALEX: -(KEY_BOUND ** n)}[kind]

    def __eq__(self, other) -> bool:
        # Every reduction step compares two orderings, nearly always the
        # same object.
        if self is other:
            return True
        if other.__class__ is not Ordering:
            return NotImplemented
        return self.kind == other.kind and self.vars == other.vars

    def __hash__(self) -> int:
        return hash((self.kind, self.vars))

    def __reduce__(self):
        # The packing function is rebuilt, not pickled.
        return Ordering, (self.kind, self.vars)

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
        exps = m.exps
        if len(exps) != self._n:
            raise UsageError("monomial dimension mismatch: %d vs %d" % (len(exps), self._n))
        if m.deg >= KEY_BOUND:
            raise _key_bound_error(m.deg)
        if self._perm is not None:
            exps = self._perm(exps)
        digits = int.from_bytes(self._pack(*exps), self._byteorder)
        return m.deg * self._deg_weight + self._sign * digits

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


class Polynomial:
    """Sparse polynomial over the rationals, in one canonical form.

    The terms are kept strictly descending under `order`, in three parallel
    tuples: their order keys (`key_row`), their monomials and their integer
    numerators, all over one positive integer denominator `den`.  No
    numerator is zero, no monomial repeats, and gcd(den, numerators) = 1,
    so every value has exactly one form.  The public constructor takes
    (coefficient, monomial) pairs and keeps the keys it sorts by; the
    arithmetic below and `PendingTerms.polynomial` build the form
    directly, through `_raw`, whose check under `__debug__` keys every
    term.  `lc`, `lt`,
    `terms` and iteration give `Fraction` coefficients.  The largest total
    degree of the tail is kept in `_tail_deg` on its first read
    (`tail_degree`), for the reduction step; polynomials are immutable, so
    it is never invalidated.
    """

    __slots__ = ("order", "_keys", "_monos", "_nums", "den", "_tail_deg")

    def __init__(self, order: Ordering, terms: Iterable[tuple[Fraction, Monomial]] = ()):
        """Sum the coefficients of equal monomials, drop zeros, and sort
        descending by order key."""
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
        keyed = sorted([(key(m), c, m) for m, c in acc.items() if c], reverse=True)
        den = math.lcm(*[c.denominator for _, c, _ in keyed])
        self.order = order
        self._keys = tuple([k for k, _, _ in keyed])
        self._monos = tuple([m for _, _, m in keyed])
        self._nums = tuple([c.numerator * (den // c.denominator) for _, c, _ in keyed])
        self.den = den
        self._tail_deg = None

    @classmethod
    def _raw(cls, order: Ordering, keys: tuple, monos: tuple, nums: tuple, den: int) -> Polynomial:
        """Internal constructor for parts already in the canonical form."""
        p = object.__new__(cls)
        p.order = order
        p._keys = keys
        p._monos = monos
        p._nums = nums
        p.den = den
        p._tail_deg = None
        if __debug__:
            p._check_canonical()
        return p

    @classmethod
    def zero(cls, order: Ordering) -> Polynomial:
        return cls._raw(order, (), (), (), 1)

    @classmethod
    def one(cls, order: Ordering) -> Polynomial:
        return cls(order, ((1, mono_one(order.vars.n)),))

    def _check_canonical(self) -> None:
        """Raise `AssertionError` unless the parts are in the canonical form
        and each kept key is the order key of its monomial."""
        keys, monos, nums, den = self._keys, self._monos, self._nums, self.den
        if not len(keys) == len(monos) == len(nums):
            raise AssertionError("parts of different lengths")
        if den.__class__ is not int or den <= 0:
            raise AssertionError("non-canonical denominator")
        if 0 in nums or not {*map(type, nums)} <= {int}:
            raise AssertionError("non-canonical coefficient")
        if math.gcd(den, *nums) != 1:
            raise AssertionError("the denominator shares a factor with the numerators")
        try:
            fresh = tuple(map(self.order.key, monos))
        except UsageError as exc:  # a wrong dimension, or a degree past the key bound
            raise AssertionError(str(exc)) from None
        if fresh != keys:
            raise AssertionError("a kept key differs from its monomial's")
        if not all(map(operator.gt, keys, keys[1:])):
            raise AssertionError("terms out of order")

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def lm(self) -> Monomial:
        if not self._monos:
            raise UsageError("zero polynomial has no leading monomial")
        return self._monos[0]

    @property
    def lc(self) -> Fraction:
        if not self._nums:
            raise UsageError("zero polynomial has no leading coefficient")
        return Fraction(self._nums[0], self.den)

    @property
    def lt(self) -> tuple[Fraction, Monomial]:
        return self.lc, self.lm

    @property
    def terms(self) -> tuple[tuple[Fraction, Monomial], ...]:
        """The (coefficient, monomial) pairs, descending."""
        den = self.den
        return tuple(zip([Fraction(c, den) for c in self._nums], self._monos))

    def key_row(self) -> tuple:
        """The order keys of the terms, in term order."""
        return self._keys

    def tail_degree(self) -> int:
        """Largest total degree of a term after the first; -1 without one."""
        deg = self._tail_deg
        if deg is None:
            deg = self._tail_deg = max([m.deg for m in self._monos[1:]], default=-1)
        return deg

    @property
    def degree(self) -> int:
        """Largest total degree of any term; -1 for the zero polynomial."""
        if not self._monos:
            return -1
        return max(self._monos[0].deg, self.tail_degree())

    def __iter__(self) -> Iterator[tuple[Fraction, Monomial]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.order == other.order
            and self.den == other.den
            and self._nums == other._nums
            and self._monos == other._monos
        )

    def __hash__(self) -> int:
        return hash((self.den, self._nums, self._keys))

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(
            self.order, self._keys, self._monos, tuple([-c for c in self._nums]), self.den
        )

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

    def _scaled(self, c: Fraction) -> tuple[tuple, int]:
        """The numerators and denominator of c times this polynomial, for a
        nonzero c, with the content divided out."""
        if c == 1:
            return self._nums, self.den
        den = self.den * c.denominator
        nums = [a * c.numerator for a in self._nums]
        content = math.gcd(den, *nums)
        return tuple([a // content for a in nums]), den // content

    def mul_term(self, coeff, mono: Monomial) -> Polynomial:
        """Multiply by a single term coeff*mono.  Keys add, so the product's
        keys are key(mono) plus the kept ones; a unit coefficient keeps the
        numerators (every prolongation x*g is one).  A product of total
        degree KEY_BOUND or more raises `UsageError`."""
        c = Fraction(coeff)
        if c == 0 or not self._nums:
            return Polynomial.zero(self.order)
        _check_dim(self._monos[0], mono)
        deg = self.degree + mono.deg
        if deg >= KEY_BOUND:
            raise _key_bound_error(deg)
        ku = self.order.key(mono)
        ue, ud = mono.exps, mono.deg
        add = operator.add
        return Polynomial._raw(
            self.order,
            tuple([ku + k for k in self._keys]),
            tuple([_mono(tuple(map(add, m.exps, ue)), m.deg + ud) for m in self._monos]),
            *self._scaled(c),
        )

    def scale(self, coeff) -> Polynomial:
        c = Fraction(coeff)
        if c == 0:
            return Polynomial.zero(self.order)
        return Polynomial._raw(self.order, self._keys, self._monos, *self._scaled(c))

    def monic(self) -> Polynomial:
        # Polynomials are immutable, so a monic one is its own monic form.
        if self.is_zero or self._nums[0] == self.den:
            return self
        return self.scale(1 / self.lc)

    def __str__(self) -> str:
        return render_polynomial(self)

    def __repr__(self) -> str:
        return "<Polynomial %s>" % (render_polynomial(self),)


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
    `top_coeff`.  The terms are kept in the form of `Polynomial`, reversed:
    ascending (largest last) in three parallel lists of integer order keys,
    integer numerators and monomials, all numerators over one positive
    integer denominator `den`.  `PendingTerms(p)` copies p's lists.

    `reduce_top` reads g's own numerators.  g's denominator cancels in
    c*u*(g - lt g): over `den`, the product term of g's tail numerator a
    has the coefficient top*a/(den*n0), top the popped numerator and n0
    g's leading numerator.  Keys add, so its key is g's kept key plus
    key(u), the popped key less that of g's head; nothing is keyed.  Its
    monomial is kept as the pair (g's monomial, u) until `top_mono`, `pop`
    or `descending` builds it: equal keys mean equal monomials, so merging
    and cancelling need none.  Each folded term finds its place by
    `bisect` on its key, so no step rebuilds the terms that a reduction
    leaves alone, and a step multiplies and adds integers.  After each step
    the content gcd(den, numerators) is divided out, so `den` is then the
    least common denominator of the pending terms.  Terms leave the
    accumulator as (numerator, `den`, monomial, key) (`pop`, `descending`),
    and `polynomial` builds the polynomial of the terms popped and those
    still pending.

    `PendingTerms(p, mono)` holds the terms of mono*p, a prolongation, the
    same way: each key is key(mono) plus p's, each numerator is p's, and
    each monomial is kept as the pair (p's monomial, mono), so terms of the
    product that are never read are never built.  A product of total
    degree KEY_BOUND or more raises `UsageError` before anything is held.
    """

    __slots__ = ("order", "_keys", "_nums", "_monos", "den")

    def __init__(self, p: Polynomial, mono: Monomial | None = None):
        self.order = p.order
        self.den = p.den
        self._nums = [*reversed(p._nums)]
        if mono is None:
            self._keys = [*reversed(p._keys)]
            self._monos = [*reversed(p._monos)]
            return
        deg = p.degree + mono.deg
        if deg >= KEY_BOUND:
            raise _key_bound_error(deg)
        ku = p.order.key(mono)
        self._keys = [ku + k for k in reversed(p._keys)]
        self._monos = [(m, mono) for m in reversed(p._monos)]

    def __bool__(self) -> bool:
        return bool(self._keys)

    def copy(self) -> PendingTerms:
        """An independent accumulator holding the same pending terms.  The
        pending monomials are built first, so that the two share them
        rather than each building its own."""
        self._monos = [_built(m) if m.__class__ is tuple else m for m in self._monos]
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

    def top_key(self) -> int:
        """The order key of the largest pending term."""
        return self._keys[-1]

    def pop(self) -> tuple[int, int, Monomial, int]:
        """Remove the largest pending term and return it as (numerator,
        `den`, monomial, key)."""
        return self._nums.pop(), self.den, _built(self._monos.pop()), self._keys.pop()

    def descending(self) -> list:
        """The pending terms, largest first, as `pop` returns them."""
        den = self.den
        return [
            (c, den, _built(m), k)
            for c, m, k in zip(reversed(self._nums), reversed(self._monos), reversed(self._keys))
        ]

    def polynomial(self, popped=()) -> Polynomial:
        """The polynomial of the terms `popped`, descending as `pop` gave
        them, and then of the pending terms.  Terms popped at different
        moments of a reduction may carry different denominators: the
        polynomial's is the lcm of all, with the content divided out.  The
        keys are the terms' own, so no term is keyed and no `Fraction` is
        made."""
        den = math.lcm(*[d for _, d, _, _ in popped], self.den if self._nums else 1)
        nums = [c * (den // d) for c, d, _, _ in popped]
        monos = [m for _, _, m, _ in popped]
        keys = [k for _, _, _, k in popped]
        if self._nums:
            scale = den // self.den
            tail = reversed(self._nums)
            nums += tail if scale == 1 else [c * scale for c in tail]
            monos += [_built(m) if m.__class__ is tuple else m for m in reversed(self._monos)]
            keys += reversed(self._keys)
        if den > 1:
            content = math.gcd(den, *nums)
            if content > 1:
                den //= content
                nums = [c // content for c in nums]
        return Polynomial._raw(self.order, tuple(keys), tuple(monos), tuple(nums), den)

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

        cn/cd is top/(den*n0) in lowest terms, top the popped numerator and
        n0 g's leading numerator.  When `den` is not a multiple of cd, the
        numerators are rescaled once to the (positive) lcm of the two; a
        negative cd needs no sign fix, since den // cd is exact either way.
        Over `den`, the product term of g's tail numerator a then has
        numerator f*a, f = -cn*(den // cd).  A product term joins the entry
        of equal key, which goes when the sum is zero, or else is inserted.
        The products come in descending order (the orderings are compatible
        with multiplication), so each one is searched for below the place of
        the one before.  Last the content gcd(den, numerators) is divided
        out.
        """
        if g.order != self.order:
            raise UsageError("cannot combine polynomials under different orderings")
        _check_dim(mono, g._monos[0])
        tail_deg = g._tail_deg
        if tail_deg is None:
            tail_deg = g.tail_degree()
        deg = tail_deg + mono.deg if tail_deg >= 0 else -1
        if deg >= KEY_BOUND:
            raise _key_bound_error(deg)
        keys, nums, monos = self._keys, self._nums, self._monos
        # Keys add: key(mono) is the popped key less that of g's head.
        ku = keys.pop() - g._keys[0]
        monos.pop()
        den = self.den
        cn = nums.pop()
        cd = den * g._nums[0]
        r = math.gcd(cn, cd)
        cn //= r
        cd //= r
        if tail_deg >= 0:
            if den % cd:
                new = math.lcm(den, cd)
                scale = new // den
                nums[:] = [c * scale for c in nums]
                den = new
            f = -cn * (den // cd)
            size = hi = len(keys)
            tail = zip(g._nums, g._keys, g._monos)
            next(tail)
            for a, kg, gm in tail:
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
                nums[:] = [c // content for c in nums]
        self.den = den
        return deg


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
    """Canonical text form, e.g. ``x^2 - 3/2*y^2``.  Each coefficient
    n/den is printed in lowest terms, as `str(Fraction(n, den))` would,
    from the integer numerator."""
    if p.is_zero:
        return "0"
    names = p.order.vars.names
    den = p.den
    pieces = []
    for pos, (n, m) in enumerate(zip(p._nums, p._monos)):
        neg = n < 0
        mag = -n if neg else n
        g = math.gcd(mag, den)
        coeff = str(mag // g) if g == den else "%d/%d" % (mag // g, den // g)
        body = render_monomial(m, names)
        if not body:
            body = coeff
        elif mag != den:  # a coefficient of magnitude 1 is not printed
            body = "%s*%s" % (coeff, body)
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
    return pending.polynomial()
