"""Involutive divisions on finite monomial sets.

A division assigns every monomial u of a finite set U a partition of the
variables into multiplicative and nonmultiplicative ones; u then involutively
divides v when u divides v and the quotient v/u uses only variables
multiplicative for u.  Two families are provided:

* divisions generated pairwise by a total monomial ordering (Janet is the
  lex-generated instance; an "alex"-generated variant differs from Janet
  exactly because its generator is not admissible), and
* the Thomas division, which compares exponents coordinate by coordinate.

The module also has two monomial-completion routines and a checker for the
three defining axioms of an involutive division.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter, le

from .core import (
    Monomial,
    Ordering,
    UsageError,
    VarSet,
    _mono,
    alex,
    lex,
    mono_div,
    mono_mul,
    mono_var,
)

JANET = "janet"
THOMAS = "thomas"
ALEX_DIVISION = "alex"

DIVISION_NAMES = (JANET, THOMAS, ALEX_DIVISION)


class Division:
    """An involutive division, either Thomas or generated by an ordering.
    Equal and hashable by value."""

    __slots__ = ("kind", "vars", "base")

    def __init__(self, kind: str, vars: VarSet, base: Ordering | None = None):
        if kind == THOMAS:
            if base is not None:
                raise UsageError("the Thomas division takes no base ordering")
        elif kind == "order":
            if base is None:
                raise UsageError("order-generated division requires a base ordering")
            if base.vars != vars:
                raise UsageError("base ordering is over a different variable set")
        else:
            raise UsageError("unknown division kind %r" % (kind,))
        self.kind = kind
        self.vars = vars
        self.base = base

    def __eq__(self, other) -> bool:
        if other.__class__ is not Division:
            return NotImplemented
        return self.kind == other.kind and self.vars == other.vars and self.base == other.base

    def __hash__(self) -> int:
        return hash((self.kind, self.vars, self.base))

    @property
    def name(self) -> str:
        if self.kind == THOMAS:
            return THOMAS
        if self.base is None:
            raise AssertionError("order-generated division without a base ordering")
        return JANET if self.base.kind == "lex" else self.base.kind

    def pair_masks(self, u: Monomial, w: Monomial, ku, kw) -> tuple[int, int]:
        """The pair rule: the nonmultiplicative masks (bit i for variable i)
        that u and w impose on each other, as (u's from w, w's from u).

        ku and kw are the base-order keys of u and w, ignored under Thomas.
        Under a generated division only the smaller of the two gains a
        variable, the first one in priority order where it falls short of
        the greater, and none at all when the greater divides it (possible
        only for a non-admissible generator).  Under Thomas each side gains
        every variable where its exponent is the smaller one.
        """
        if self.kind == THOMAS:
            mu = mw = 0
            bit = 1
            for a, b in zip(u.exps, w.exps):
                if a < b:
                    mu |= bit
                elif a > b:
                    mw |= bit
                bit <<= 1
            return mu, mw
        if ku < kw:
            return self._deficit(u, w), 0
        if ku > kw:
            return 0, self._deficit(w, u)
        return 0, 0

    def _deficit(self, s: Monomial, g: Monomial) -> int:
        """The mask the smaller s gains from the greater g: the bit of the
        first variable in priority order where s falls short of g, or 0
        when there is none, that is when g divides s."""
        se, ge = s.exps, g.exps
        for i in self.vars.priority:
            if se[i] < ge[i]:
                return 1 << i
        return 0

    def _base_key(self, m: Monomial):
        """The base-order key of m that `pair_masks` compares; None under
        Thomas, which needs none."""
        return None if self.base is None else self.base.key(m)

    def nm_pair(self, u: Monomial, v: Monomial) -> frozenset[int]:
        """Nonmultiplicative variable indices of u induced by the pair {u, v}."""
        mu, _ = self.pair_masks(u, v, self._base_key(u), self._base_key(v))
        return frozenset(bit_indices(mu))

    def nm_set(self, u: Monomial, U) -> frozenset[int]:
        """Nonmultiplicative variables of u relative to the whole set U."""
        ku = self._base_key(u)
        mask = 0
        for v in U:
            mask |= self.pair_masks(u, v, ku, self._base_key(v))[0]
        return frozenset(bit_indices(mask))

    def partition(self, U) -> Partition:
        return Partition(self, tuple(U))


def janet(vars: VarSet) -> Division:
    return Division("order", vars, lex(vars))


def alex_division(vars: VarSet) -> Division:
    return Division("order", vars, alex(vars))


def thomas_division(vars: VarSet) -> Division:
    return Division(THOMAS, vars)


def division_by_name(name: str, vars: VarSet) -> Division:
    if name == JANET:
        return janet(vars)
    if name == THOMAS:
        return thomas_division(vars)
    if name == ALEX_DIVISION:
        return alex_division(vars)
    raise UsageError("unknown division %r (expected one of %s)" % (name, ", ".join(DIVISION_NAMES)))


def support(m: Monomial) -> int:
    """Bitmask of the variables occurring in m: bit i is set when the
    exponent of variable i is positive.  A divisor's mask lies inside the
    mask of every monomial it divides."""
    mask = 0
    bit = 1
    for e in m.exps:
        if e:
            mask |= bit
        bit <<= 1
    return mask


def bit_indices(mask: int) -> list[int]:
    """The variable indices whose bits are set in mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _no_exponents(exps: tuple) -> tuple:
    """The exponents at no bit: the file key of mask 0."""
    return ()


class Partition:
    """Multiplicative/nonmultiplicative split of a growing set U.

    Grown one monomial at a time by `add`, from the start: building a
    partition for a whole set is adding its monomials in turn.  Every
    division here takes nm_set(u, U) as the union of nm_pair(u, v) over v
    in U, so an addition only widens the existing sets by the pairs with
    the newcomer, and `add` reports just that widening, so a caller learns
    which prolongations are new without reading every mask.  Removing
    monomials can shrink the sets: build a new partition for what remains.

    Each nonmultiplicative set is kept once, as a bitmask (bit i for
    variable i).  `nm_mask` returns a mask, `allows` tests a quotient's
    support against it, and `nonmult` decodes it into a set of variable
    indices.  A repeat of a kept monomial changes no mask.

    Under a division generated by an ordering, the base-order key of each
    monomial is kept next to its mask.  `add(w)` keys w once and makes one
    pass over the kept monomials: per pair, one key comparison
    (`Division.pair_masks`) yields both u's gain from w and w's own share,
    so no key is taken twice and w's set needs no second pass.

    `divisors(m)` lists every monomial of U that involutively divides m,
    by lookup instead of a scan.  Under Janet and Thomas the cones of
    distinct monomials are disjoint, so the list holds at most one:

    * Janet (generated by lex): a tree over U, one level per variable in
      priority order (Gerdt, Blinkov and Yanovich, "Construction of Janet
      bases I", CASC 2001).  A node at depth k holds the monomials that
      agree in the first k variables and keeps the largest exponent M of
      the next one among them; that variable is multiplicative for u
      exactly when u's exponent is M.  So the walk for m descends along M
      when m's exponent is at least M, along m's own exponent otherwise,
      and ends at the divisor or at a missing child.
    * Thomas: the vector M of coordinatewise maxima of U.  Variable i is
      multiplicative for u exactly when u_i = M_i, so the one candidate is
      min(m, M), taken coordinatewise, and one dict access decides it.
      The masks come from M as well, with no pair compared and no key
      taken: when w raises M_i, the monomials that stood at the old M_i
      gain bit i (the others have it already), and w's own mask is
      {i : w_i < M_i}.

    Under alex, generated by a non-admissible ordering, cones can nest and
    m can have several involutive divisors.  That lookup rests on one fact:
    u involutively divides m exactly when u divides m and u_i = m_i for
    every variable i nonmultiplicative for u.  So the monomials are filed
    by mask, and within a mask by their exponents at its bits; `divisors`
    probes each mask's file once with m's exponents at the same bits and
    tests divisibility only on the monomials found.  As `add` widens a
    mask, `_refile` moves the monomial from the file of its old mask to
    that of the new one; a mask only grows, so that happens at most n
    times per monomial.
    """

    __slots__ = ("division", "monomials", "_nm", "_keys", "_tree", "_max", "_at_max", "_files")

    def __init__(self, division: Division, monomials: tuple[Monomial, ...]):
        self.division = division
        self.monomials = ()
        self._nm: dict[Monomial, int] = {}
        self._keys: dict[Monomial, int] = {}
        # Janet: the root node [M, {exponent: child}]; the children of the
        # last level are the monomials themselves.
        self._tree = [0, {}] if division.name == JANET else None
        # Thomas: M, and per variable the (arrival number, monomial) pairs
        # whose exponent is M_i.
        self._max = self._at_max = None
        if division.kind == THOMAS:
            self._max = [0] * division.vars.n
            self._at_max = [[] for _ in range(division.vars.n)]
        # alex: mask -> (its bits' getter, {exponents there: [monomials]}).
        self._files: dict[int, tuple] | None = (
            {} if self._tree is None and self._max is None else None
        )
        for w in monomials:
            self.add(w)

    def add(self, w: Monomial) -> dict[Monomial, int]:
        """Extend U by w (appended to `monomials`), keeping every split
        equal to that of a partition built from scratch, and report what
        widened: each kept monomial whose mask grew, mapped to the bits
        newly set, in arrival order, then w with its whole mask.  A repeat
        of a kept monomial widens nothing and reports {}."""
        self.monomials += (w,)
        nm = self._nm
        if w in nm:
            return {}
        if self._max is not None:
            return self._raise_max(w)
        division = self.division
        pair_masks = division.pair_masks
        kw = division._base_key(w)
        widened = {}
        mw = 0
        for u, ku in self._keys.items():
            gain, share = pair_masks(u, w, ku, kw)  # gain: one bit at most
            if gain and not gain & nm[u]:
                nm[u] |= gain
                widened[u] = gain
            mw |= share
        nm[w] = widened[w] = mw
        self._keys[w] = kw
        if self._tree is not None:
            self._plant(w)
        else:
            self._refile(widened, w)
        return widened

    def _raise_max(self, w: Monomial) -> dict[Monomial, int]:
        """Thomas: fold w into M, widen the masks of the monomials that
        stood at a maximum w exceeds, and report as `add` does, sorted
        into arrival order by the arrival numbers the lists keep."""
        top, at_max, nm = self._max, self._at_max, self._nm
        seat = (len(nm), w)  # arrival number: distinct monomials before w
        gained = {}
        mw = 0
        bit = 1
        for i, e in enumerate(w.exps):
            if e < top[i]:
                mw |= bit
            elif e == top[i]:
                at_max[i].append(seat)
            else:
                for s in at_max[i]:
                    nm[s[1]] |= bit
                    gained[s] = gained.get(s, 0) | bit
                at_max[i] = [seat]
                top[i] = e
            bit <<= 1
        widened = {u: bits for (_, u), bits in sorted(gained.items())}
        nm[w] = widened[w] = mw
        return widened

    def _plant(self, w: Monomial) -> None:
        """Janet: file the new monomial w in the tree."""
        e = w.exps
        node = self._tree
        last = len(e) - 1
        for depth, i in enumerate(self.division.vars.priority):
            d = e[i]
            if d > node[0]:
                node[0] = d
            kids = node[1]
            child = kids.get(d)
            if child is None:
                child = kids[d] = w if depth == last else [0, {}]
            node = child

    def _refile(self, widened: dict[Monomial, int], w: Monomial) -> None:
        """alex: file each monomial that `add` reports as widened under its
        mask, taking an older one out of the file of its old mask (the
        new one without the bits newly set); w is the newcomer."""
        files, nm = self._files, self._nm
        for u, bits in widened.items():
            mask = nm[u]
            if u is not w:
                old = mask ^ bits
                get, slots = files[old]
                key = get(u.exps)
                slots[key].remove(u)
                if not slots[key]:
                    del slots[key]
                    if not slots:
                        del files[old]
            entry = files.get(mask)
            if entry is None:
                at = bit_indices(mask)
                entry = files[mask] = (itemgetter(*at) if at else _no_exponents, {})
            get, slots = entry
            slots.setdefault(get(u.exps), []).append(u)

    def _exps(self, m: Monomial) -> tuple:
        e = m.exps
        if len(e) != self.division.vars.n:
            raise UsageError("monomial dimension mismatch: %d vs %d" % (len(e), self.division.vars.n))
        return e

    def divisors(self, m: Monomial) -> list[Monomial]:
        """Every monomial of U that involutively divides m, in no
        particular order: at most one under Janet (a walk down the tree)
        and Thomas (min(m, M)), and one lookup per mask under alex."""
        e = self._exps(m)
        if self._max is not None:
            c = tuple(map(min, e, self._max))
            u = _mono(c, sum(c))
            return [u] if u in self._nm else []
        if self._tree is not None:
            node = self._tree
            for i in self.division.vars.priority:
                top, kids = node
                d = e[i]
                node = kids.get(top if d >= top else d)
                if node is None:
                    return []
            return [node]
        d = m.deg
        hits = []
        for get, slots in self._files.values():
            slot = slots.get(get(e))
            if slot is not None:
                for u in slot:
                    if u.deg <= d and all(map(le, u.exps, e)):
                        hits.append(u)
        return hits

    def nm_mask(self, u: Monomial) -> int:
        try:
            return self._nm[u]
        except KeyError:
            raise UsageError("monomial %r is not in the partitioned set" % (u,)) from None

    def nonmult(self, u: Monomial) -> frozenset[int]:
        return frozenset(bit_indices(self.nm_mask(u)))

    def allows(self, u: Monomial, quotient: Monomial) -> bool:
        """Whether u involutively divides u*quotient, i.e. the quotient is
        built from multiplicative variables of u only."""
        return not support(quotient) & self.nm_mask(u)


def thomas_completion(U) -> frozenset[Monomial]:
    """All monomials of the monoid ideal of U inside the box bounded by the
    coordinatewise maxima of U.  This is the (finite) Thomas completion."""
    U = tuple(U)
    if not U:
        raise UsageError("cannot complete an empty monomial set")
    n = len(U[0].exps)
    bounds = tuple(max(u.exps[i] for u in U) for i in range(n))
    out = set()
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        m = Monomial(exps)
        if any(u.divides(m) for u in U):
            out.add(m)
    return frozenset(out)


def minimal_completion(
    division: Division, U, order: Ordering, max_steps: int = 100000
) -> frozenset[Monomial]:
    """Complete U to an involutively autocomplete set by repeatedly adjoining
    the smallest nonmultiplicative prolongation that lacks an involutive
    divisor.  Smallest-first insertion keeps the result minimal for
    divisions that admit completion at all."""
    if not order.admissible:
        raise UsageError("monomial completion needs an admissible ordering")
    current = set(U)
    if not current:
        raise UsageError("cannot complete an empty monomial set")
    part = division.partition(sorted(current, key=order.key))
    for _ in range(max_steps):
        candidate = None
        candidate_key = None
        for u in current:
            for i in part.nonmult(u):
                m = mono_mul(u, mono_var(i, division.vars.n))
                if part.divisors(m):
                    continue
                k = order.key(m)
                if candidate is None or k < candidate_key:
                    candidate, candidate_key = m, k
        if candidate is None:
            return frozenset(current)
        current.add(candidate)
        part.add(candidate)
    raise UsageError("monomial completion did not terminate within %d steps" % max_steps)


class AxiomsReport(
    namedtuple("AxiomsReport", "ok condition witness message", defaults=(None, None, ""))
):
    """Outcome of checking the involutive-division axioms on one set."""

    __slots__ = ()


def axioms_check(
    division: Division,
    U,
    nm_fn=None,
    rng=None,
    subset_samples: int = 0,
) -> AxiomsReport:
    """Check the three axioms of an involutive division on the finite set U.

    1. Distinct cones never overlap unless one element involutively divides
       the other (checked on a bounded monomial universe).
    2. If v lies in the cone of u then every variable multiplicative for v
       is multiplicative for u.
    3. Shrinking the set never shrinks a surviving element's multiplicative
       variables (checked on all single-removal subsets, plus
       `subset_samples` random subsets drawn with `rng`, a `random.Random`).

    `nm_fn(u, V) -> set of nonmultiplicative indices` overrides the
    division's own partition; the checker then validates that assignment
    instead, which is how deliberately corrupted partitions are exercised.
    """
    U = tuple(dict.fromkeys(U))
    if not U:
        raise UsageError("cannot check axioms of an empty monomial set")
    n = division.vars.n
    if nm_fn is None:
        nm_fn = division.nm_set

    nm = {u: frozenset(nm_fn(u, U)) for u in U}

    def inv_div(u: Monomial, m: Monomial, nm_u: frozenset[int]) -> bool:
        q = mono_div(m, u)
        return q is not None and all(q.exps[i] == 0 for i in nm_u)

    # Universe for condition 1: the box out to the coordinatewise maxima,
    # padded by one so cone escapes along every axis are visible.
    bounds = tuple(max(u.exps[i] for u in U) + 1 for i in range(n))
    for m_exps in itertools.product(*(range(b + 1) for b in bounds)):
        m = Monomial(m_exps)
        holders = [u for u in U if inv_div(u, m, nm[u])]
        for a, b in itertools.combinations(holders, 2):
            if not (inv_div(a, b, nm[a]) or inv_div(b, a, nm[b])):
                return AxiomsReport(
                    False,
                    1,
                    (a, b, m),
                    "cones of %r and %r overlap at %r but neither involutively divides the other"
                    % (a.exps, b.exps, m.exps),
                )

    for u in U:
        for v in U:
            if v == u or not inv_div(u, v, nm[u]):
                continue
            if not nm[u] <= nm[v]:
                bad = sorted(nm[u] - nm[v])
                return AxiomsReport(
                    False,
                    2,
                    (u, v, tuple(bad)),
                    "%r lies in the cone of %r yet is multiplicative in variables %r "
                    "where the cone owner is not" % (v.exps, u.exps, bad),
                )

    subsets: list[tuple[Monomial, ...]] = []
    if len(U) > 1:
        for drop in range(len(U)):
            subsets.append(tuple(u for i, u in enumerate(U) if i != drop))
    if rng is not None and subset_samples > 0 and len(U) > 2:
        for _ in range(subset_samples):
            size = rng.randrange(1, len(U))
            subsets.append(tuple(sorted(rng.sample(U, size), key=lambda x: x.exps)))
    for sub in subsets:
        sub_nm = {u: frozenset(nm_fn(u, sub)) for u in sub}
        for u in sub:
            if not sub_nm[u] <= nm[u]:
                bad = sorted(sub_nm[u] - nm[u])
                return AxiomsReport(
                    False,
                    3,
                    (u, sub, tuple(bad)),
                    "restricting the set made variables %r nonmultiplicative for %r"
                    % (bad, u.exps),
                )

    return AxiomsReport(True)
