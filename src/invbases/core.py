"""Exact monomial and polynomial arithmetic over the rationals.

Monomials are exponent tuples over a fixed variable set.  Polynomials keep
their terms sorted in strictly descending monomial order, with coefficients
stored as `fractions.Fraction`, so every value has one canonical form.
Only the reduction accumulator `PendingTerms` holds integers: numerators
over one common denominator, turned back into `Fraction`s as terms leave it.
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
# KEY_BOUND; `Ordering.key`, `Ordering.product_key` and `PendingTerms.sub_tail`
# raise `UsageError` from there on.
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

    def product_key(self, a: Monomial, b: Monomial) -> int:
        """key(a·b) without building a·b; raises `UsageError` as `key`
        does for the product."""
        if a.deg + b.deg >= KEY_BOUND:
            raise _key_bound_error(a.deg + b.deg)
        return self.key(a) + self.key(b)

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
    The order keys of the terms are taken when a `PendingTerms` first needs
    them (`key_row`) and kept.
    """

    __slots__ = ("order", "terms", "_row")

    def __init__(self, order: Ordering, terms: Iterable[tuple[Fraction, Monomial]] = ()):
        self.order = order
        self.terms = _canonical_terms(order, terms)
        self._row = None

    @classmethod
    def _raw(cls, order: Ordering, terms: tuple) -> Polynomial:
        """Internal constructor for terms already in canonical form."""
        p = object.__new__(cls)
        p.order = order
        p.terms = terms
        p._row = None
        if __debug__:
            p._assert_canonical()
        return p

    @classmethod
    def zero(cls, order: Ordering) -> Polynomial:
        return cls._raw(order, ())

    @classmethod
    def one(cls, order: Ordering) -> Polynomial:
        return cls._raw(order, ((Fraction(1), mono_one(order.vars.n)),))

    def _assert_canonical(self) -> None:
        n = self.order.vars.n
        key = self.order.key
        prev = None
        for c, m in self.terms:
            if not isinstance(c, Fraction) or c == 0:
                raise AssertionError("non-canonical coefficient")
            if len(m.exps) != n:
                raise AssertionError("monomial dimension mismatch")
            k = key(m)
            if prev is not None and not k < prev:
                raise AssertionError("terms out of order")
            prev = k

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

    @property
    def degree(self) -> int:
        """Largest total degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.deg for _, m in self.terms)

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
        return self._combine(1, None, other)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self._combine(-1, None, other)

    def sub_mul_term(self, coeff, mono: Monomial, other: Polynomial) -> Polynomial:
        """self - coeff*mono*other in one merge: the reduction step
        ``h - g.mul_term(c, u)`` without the two intermediate polynomials."""
        return self._combine(-Fraction(coeff), mono, other)

    def _combine(self, coeff, mono: Monomial | None, other: Polynomial) -> Polynomial:
        """self + coeff*mono*other; `mono` None stands for 1."""
        if self.order != other.order:
            raise UsageError("cannot combine polynomials under different orderings")
        if coeff == 0:
            return self
        return Polynomial._raw(self.order, _merge(self.order, self.terms, other.terms, coeff, mono))

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.order != other.order:
            raise UsageError("cannot combine polynomials under different orderings")
        acc: dict[Monomial, Fraction] = {}
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.order, ((c, m) for m, c in acc.items()))

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


def _canonical_terms(order: Ordering, terms) -> tuple:
    acc: dict[Monomial, Fraction] = {}
    for c, m in terms:
        c = Fraction(c)
        if c == 0:
            continue
        if len(m.exps) != order.vars.n:
            raise UsageError("monomial dimension mismatch: %d vs %d" % (len(m.exps), order.vars.n))
        acc[m] = acc.get(m, Fraction(0)) + c
    out = [(c, m) for m, c in acc.items() if c != 0]
    out.sort(key=lambda t: order.key(t[1]), reverse=True)
    return tuple(out)


def _merge(order: Ordering, a: tuple, b: tuple, coeff, mono: Monomial | None) -> tuple:
    """The canonical terms of a + coeff*mono*b, for canonical term tuples a
    and b, a nonzero coefficient and a monomial (None stands for 1).

    One pass over both tuples: every term's order key is taken once, when
    the pass reaches the term, and equal keys mean equal monomials.
    Multiplying by a monomial keeps b's terms in order, because every
    ordering kind here is compatible with multiplication.
    """
    if coeff != 1 or mono is not None:
        b = [(c * coeff, m if mono is None else mono_mul(m, mono)) for c, m in b]
    na, nb = len(a), len(b)
    if not nb:
        return a
    if not na:
        return tuple(b)
    key = order.key
    out = []
    append = out.append
    i = j = 0
    ta, tb = a[0], b[0]
    ka, kb = key(ta[1]), key(tb[1])
    while True:
        if ka > kb:
            append(ta)
            i += 1
            if i == na:
                break
            ta = a[i]
            ka = key(ta[1])
        elif ka < kb:
            append(tb)
            j += 1
            if j == nb:
                break
            tb = b[j]
            kb = key(tb[1])
        else:
            c = ta[0] + tb[0]
            if c != 0:
                append((c, ta[1]))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            ta, tb = a[i], b[j]
            ka, kb = key(ta[1]), key(tb[1])
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class PendingTerms:
    """The terms of a polynomial still awaiting reduction, for a normal form.

    A normal form takes the largest pending term with `pop` and either moves
    it to its remainder or cancels it against the leading term of a multiple
    c*u*g of a reducer, whose other terms `sub_tail` then folds in.  The
    terms are kept ascending (largest last) in three parallel lists: integer
    order keys, integer numerators and monomials, all numerators over one
    positive integer denominator `den`.  A product term's key is key(u) plus
    the key of g's term (`Polynomial.key_row`), and its monomial is kept as
    the pair (term monomial, u) until `pop` or `descending` hands it out:
    equal keys mean equal monomials, so merging and cancelling need none.
    `pop` takes the last entry, and each folded term finds its place by
    `bisect` on its key, so no step rebuilds the terms that a reduction
    leaves alone, and a step adds integers, not fractions.  After each step
    the content gcd(den, numerators) is divided out, so `den` is always the
    least common denominator of the pending terms.  Terms leave the
    accumulator as `Fraction` coefficients.
    """

    __slots__ = ("order", "_keys", "_nums", "_monos", "den")

    def __init__(self, p: Polynomial):
        self.order = p.order
        terms = p.terms[::-1]
        den = self.den = math.lcm(*[c.denominator for c, _ in terms])
        self._nums = [c.numerator * (den // c.denominator) for c, _ in terms]
        self._monos = [m for _, m in terms]
        self._keys = list(p.key_row()[::-1])

    def __bool__(self) -> bool:
        return bool(self._keys)

    def copy(self) -> PendingTerms:
        """An independent accumulator holding the same pending terms."""
        other = object.__new__(PendingTerms)
        other.order = self.order
        other._keys = self._keys[:]
        other._nums = self._nums[:]
        other._monos = self._monos[:]
        other.den = self.den
        return other

    def pop(self) -> tuple[Fraction, Monomial]:
        """Remove and return the largest pending term."""
        self._keys.pop()
        return Fraction(self._nums.pop(), self.den), _built(self._monos.pop())

    def descending(self) -> tuple:
        """The pending terms, largest first, as a polynomial keeps them."""
        den = self.den
        return tuple(zip([Fraction(n, den) for n in reversed(self._nums)],
                         [_built(m) for m in reversed(self._monos)]))

    def sub_tail(self, coeff, mono: Monomial, g: Polynomial) -> int:
        """Subtract coeff*mono*(g - lt(g)) from the pending terms.

        This is the reduction step whose leading term coeff*mono*lt(g)
        cancels the term just popped.  When `den` is not a multiple of the
        products' common denominator (coeff's denominator times the lcm of
        the tail's), the numerators are rescaled once to the lcm of the two.
        A product term then joins the entry of equal key, which goes when
        the sum is zero, or else is inserted.  The products come in
        descending order (the orderings are compatible with
        multiplication), so each one is searched for below the place of the
        one before.  Last the content gcd(den, numerators) is divided out.
        Returns the largest total degree of the product terms, -1 when g has
        a single term.  A product of total degree KEY_BOUND or more raises
        `UsageError` before its key is used, and leaves the accumulator
        part-way through the step.
        """
        if g.order != self.order:
            raise UsageError("cannot combine polynomials under different orderings")
        ku = self.order.key(mono)
        c = Fraction(coeff)
        tail = g.terms[1:]
        lcm = math.lcm(*[gc.denominator for gc, _ in tail])
        need = c.denominator * lcm
        keys, nums, monos = self._keys, self._nums, self._monos
        den = self.den
        if den % need:
            new = math.lcm(den, need)
            scale = new // den
            nums[:] = [n * scale for n in nums]
            den = new
        # Over den, a product -c*gc has numerator f * gc.numerator * (lcm // gc.denominator).
        f = -c.numerator * (den // need)
        ud = mono.deg
        hi = len(keys)
        deg = -1
        for (gc, gm), kg in zip(tail, g.key_row()[1:]):
            d = gm.deg + ud
            if d > deg:
                if d >= KEY_BOUND:
                    raise _key_bound_error(d)
                deg = d
            t = f * gc.numerator * (lcm // gc.denominator)
            k = ku + kg
            hi = bisect_left(keys, k, 0, hi)
            if hi < len(keys) and keys[hi] == k:
                s = nums[hi] + t
                if s:
                    nums[hi] = s
                else:
                    del keys[hi]
                    del nums[hi]
                    del monos[hi]
            else:
                keys.insert(hi, k)
                nums.insert(hi, t)
                monos.insert(hi, (gm, mono))
        if den > 1:
            content = math.gcd(den, *nums)
            if content > 1:
                den //= content
                nums[:] = [n // content for n in nums]
        self.den = den
        return deg


def _built(m) -> Monomial:
    """A pending monomial, built from its (term monomial, multiplier) pair
    when `sub_tail` stored it as one."""
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
    return f.mul_term(1 / f.lc, uf).sub_mul_term(1 / g.lc, ug, g)
