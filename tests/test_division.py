"""Involutive divisions: pairwise rules, partitions, completions, axioms."""
from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invbases.core import (
    GREATER,
    LESS,
    Monomial,
    Polynomial,
    UsageError,
    VarSet,
    alex,
    degrevlex,
    lex,
    mono_div,
    mono_mul,
    mono_one,
    mono_var,
)
from invbases.division import (
    AxiomsReport,
    Division,
    axioms_check,
    alex_division,
    division_by_name,
    janet,
    minimal_completion,
    support,
    thomas_completion,
    thomas_division,
)
from invbases.engine import _InvolutiveReducer

from conftest import counted_keys, monomial_sets, monomials

VS = VarSet(("x", "y"))
JAN = janet(VS)
ALX = alex_division(VS)
THO = thomas_division(VS)

X2Y = Monomial((2, 1))
X2 = Monomial((2, 0))
XY = Monomial((1, 1))
Y2 = Monomial((0, 2))
Y3 = Monomial((0, 3))
X3 = Monomial((3, 0))
X = Monomial((1, 0))
Y = Monomial((0, 1))


def inv_divisor(partition, m):
    """An involutive divisor of m within the partitioned set, or None: the
    earliest listed of those `Partition.divisors` finds, which is the only
    one under Janet and Thomas."""
    return min(partition.divisors(m), key=partition.monomials.index, default=None)


class TestConstruction:
    def test_factories_and_names(self):
        assert JAN.name == "janet"
        assert ALX.name == "alex"
        assert THO.name == "thomas"
        assert division_by_name("janet", VS).base.kind == "lex"
        with pytest.raises(UsageError):
            division_by_name("pommaret", VS)

    def test_thomas_takes_no_base(self):
        with pytest.raises(UsageError):
            Division("thomas", VS, lex(VS))

    def test_order_kind_requires_matching_base(self):
        with pytest.raises(UsageError):
            Division("order", VS)
        with pytest.raises(UsageError):
            Division("order", VS, lex(VarSet(("a", "b"))))
        with pytest.raises(UsageError):
            Division("pommaret", VS)

    def test_equal_by_value(self):
        vs = VarSet(("x", "y"))
        for name in ("janet", "alex", "thomas"):
            a, b = division_by_name(name, VS), division_by_name(name, vs)
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert a != division_by_name(name, VarSet(("x", "y"), (1, 0)))
        assert JAN != ALX and ALX != THO and JAN != THO
        assert Division("order", VS, lex(VS)) == JAN
        assert Division("order", VS, degrevlex(VS)) != JAN

    def test_divisions_pickle(self):
        for div in (JAN, ALX, THO, janet(VarSet(("x", "y", "z"), (2, 0, 1)))):
            back = pickle.loads(pickle.dumps(div))
            assert back == div and hash(back) == hash(div)
            assert back.name == div.name
            U = [Monomial(e + (0,) * (div.vars.n - 2)) for e in ((2, 0), (1, 1), (0, 2))]
            assert [back.nm_set(u, U) for u in U] == [div.nm_set(u, U) for u in U]


class TestPairRule:
    def test_janet_deficit_in_the_scan_order(self):
        # x^2 against x^2*y: equal x-degrees, deficit first appears at y.
        assert JAN.nm_pair(X2, X2Y) == frozenset({1})

    def test_janet_greater_element_has_no_constraint(self):
        assert JAN.nm_pair(X2, XY) == frozenset()

    def test_janet_smaller_element_gains_the_first_deficit(self):
        assert JAN.nm_pair(XY, X2Y) == frozenset({0})
        assert JAN.nm_pair(XY, X2) == frozenset({0})

    def test_alex_nested_divisibility_has_no_constraint(self):
        # x^2*y sits below xy under the antigraded generator and is
        # conventionally divisible by it, so the pair imposes nothing; the
        # same pair under Janet is decided by the first branch instead.
        assert ALX.nm_pair(X2Y, XY) == frozenset()
        assert JAN.nm_pair(X2Y, XY) == frozenset()

    def test_equal_arguments_unconstrained(self):
        for div in (JAN, ALX, THO):
            assert div.nm_pair(XY, XY) == frozenset()

    def test_thomas_collects_all_deficits(self):
        assert THO.nm_pair(X2, XY) == frozenset({1})
        assert THO.nm_pair(XY, X2) == frozenset({0})
        assert THO.nm_pair(mono_one(2), X2Y) == frozenset({0, 1})

    def test_alex_generator_reverses_degree_comparisons(self):
        # Under the antigraded generator the higher-degree x^3 sits below
        # xy, so it picks up a constraint where the Janet rule sees none.
        assert JAN.nm_pair(X3, XY) == frozenset()
        assert ALX.nm_pair(X3, XY) == frozenset({1})

    def test_nm_set_unions_pair_constraints(self):
        U = (X2, XY, Y3)
        assert JAN.nm_set(XY, U) == frozenset({0})
        assert JAN.nm_set(X2, U) == frozenset()
        assert JAN.nm_set(Y3, U) == frozenset({0})


def reference_nm_pair(div, u, v):
    """The pair rule as it was before the partition kept keys: one
    `Ordering.cmp` of u and v per call, one direction at a time."""
    if u == v:
        return frozenset()
    if div.kind == "thomas":
        return frozenset(
            i for i, (a, b) in enumerate(zip(u.exps, v.exps)) if a < b
        )
    c = div.base.cmp(u, v)
    if c == GREATER:
        return frozenset()
    if c == LESS and v.divides(u):
        return frozenset()
    for i in div.vars.priority:
        if u.exps[i] < v.exps[i]:
            return frozenset((i,))
    raise AssertionError("unreachable: u < v with no exponent deficit")


def reference_nm_set(div, u, U):
    return frozenset().union(*(reference_nm_pair(div, u, v) for v in U))


def mask_of(indices) -> int:
    return sum(1 << i for i in indices)


# Identity priority and two others: under a non-identity priority the
# first deficit is taken in priority order, not index order.
PRIORITY_SETS = (
    VarSet(("x", "y", "z")),
    VarSet(("x", "y", "z"), priority=(2, 0, 1)),
    VarSet(("x", "y", "z"), priority=(1, 2, 0)),
)


class TestPairRuleAgainstTheReference:
    @given(
        monomials(3, 4),
        monomials(3, 4),
        st.sampled_from(("janet", "alex", "thomas")),
        st.sampled_from(PRIORITY_SETS),
    )
    @settings(max_examples=300)
    def test_both_directions_match(self, u, v, division_name, vs):
        div = division_by_name(division_name, vs)
        ref_u, ref_v = reference_nm_pair(div, u, v), reference_nm_pair(div, v, u)
        assert div.nm_pair(u, v) == ref_u
        assert div.nm_pair(v, u) == ref_v
        keys = (None, None) if div.base is None else (div.base.key(u), div.base.key(v))
        assert div.pair_masks(u, v, *keys) == (mask_of(ref_u), mask_of(ref_v))

    def test_alex_greater_divides_smaller_under_a_priority(self):
        # Under alex, x*z divides x^2*z and sits above it (lower degree), so
        # the pair constrains neither: the smaller x^2*z falls short of x*z
        # in no variable.
        vs = PRIORITY_SETS[1]
        div = alex_division(vs)
        xz, x2z = Monomial((1, 0, 1)), Monomial((2, 0, 1))
        assert reference_nm_pair(div, x2z, xz) == frozenset()
        assert div.nm_pair(x2z, xz) == div.nm_pair(xz, x2z) == frozenset()
        # Not a divisor: the deficit of y^2 against x*z is taken in priority
        # order (z before x), so y^2 gains z.
        y2 = Monomial((0, 2, 0))
        assert div.nm_pair(y2, xz) == reference_nm_pair(div, y2, xz) == frozenset({2})

    @given(
        st.lists(monomials(3, 3), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), max_size=4),
        st.sampled_from(("janet", "alex", "thomas")),
        st.sampled_from(PRIORITY_SETS),
    )
    @settings(max_examples=100)
    def test_partition_with_repeats_equals_the_definition(self, U, again, division_name, vs):
        # Monomials listed more than once: each repeat is a no-op for the
        # masks, and the list keeps it.
        U = U + [U[i % len(U)] for i in again]
        div = division_by_name(division_name, vs)
        part = div.partition(U)
        assert part.monomials == tuple(U)
        for u in U:
            assert part.nonmult(u) == div.nm_set(u, U) == reference_nm_set(div, u, U)


class TestKeyCounts:
    """Each monomial is keyed once when it joins a partition: a pair costs
    one comparison of kept keys, and Thomas compares no keys at all."""

    @given(
        monomial_sets(3, max_deg=3, max_size=8),
        st.sampled_from(("janet", "alex", "thomas")),
        st.sampled_from(PRIORITY_SETS),
    )
    @settings(max_examples=60)
    def test_a_build_keys_each_distinct_monomial_once(self, U, division_name, vs):
        div = division_by_name(division_name, vs)
        listed = sorted(U, key=lambda m: m.exps)
        with counted_keys() as count:
            div.partition(listed + listed[:2])
        assert count.calls == (0 if division_name == "thomas" else len(U))

    @pytest.mark.parametrize("division_name", ["janet", "alex", "thomas"])
    def test_add_keys_the_newcomer_once(self, division_name):
        div = division_by_name(division_name, VS)
        part = div.partition((XY, X2, Y3))
        with counted_keys() as count:
            part.add(X2Y)
        assert count.calls == (0 if division_name == "thomas" else 1)
        with counted_keys() as count:
            part.add(X2Y)
        assert count.calls == 0


class TestPartition:
    def test_worked_example_heads(self):
        # Heads certified by the completion of the worked example.
        part = JAN.partition((XY, X2, X2Y, Y3))
        assert part.nonmult(XY) == frozenset({0})
        assert part.nonmult(X2) == frozenset({1})
        assert part.nonmult(X2Y) == frozenset()
        assert part.nonmult(Y3) == frozenset({0})
        assert part.mult(X2) == frozenset({0})

    def test_partition_is_a_disjoint_cover(self):
        part = THO.partition((X2, XY, Y3))
        for u in (X2, XY, Y3):
            nm = part.nonmult(u)
            mult = part.mult(u)
            assert nm | mult == {0, 1}
            assert nm & mult == frozenset()

    def test_allows_and_inv_divides(self):
        part = JAN.partition((XY, X2))
        # y is multiplicative for xy, x is not.
        assert part.allows(XY, Y2)
        assert not part.allows(XY, X)
        assert part.inv_divides(XY, Monomial((1, 3)))
        assert not part.inv_divides(XY, X2Y)
        assert not part.inv_divides(X2, Y3)

    def test_unknown_monomial_is_an_error(self):
        part = JAN.partition((XY,))
        with pytest.raises(UsageError):
            part.nonmult(X2)

    @given(monomial_sets(3, max_deg=3, max_size=5))
    @settings(max_examples=30)
    def test_monotonicity_under_set_restriction(self, U):
        # Removing elements never makes a surviving monomial lose
        # multiplicative variables.
        U = tuple(U)
        for div in (janet(VarSet(("x", "y", "z"))), thomas_division(VarSet(("x", "y", "z")))):
            for drop in range(len(U)):
                sub = tuple(u for i, u in enumerate(U) if i != drop)
                for u in sub:
                    assert div.nm_set(u, sub) <= div.nm_set(u, U)

    @given(
        st.lists(monomials(3, 3), min_size=1, max_size=7),
        st.lists(monomials(3, 3), min_size=1, max_size=5),
        st.sampled_from(("janet", "alex", "thomas")),
    )
    @settings(max_examples=60)
    def test_masks_decode_to_the_nonmultiplicative_sets(self, U, quotients, division_name):
        # The kept bitmasks against `Division.nm_set` and the definition:
        # u allows a quotient when no nonmultiplicative variable occurs in it.
        div = division_by_name(division_name, VarSet(("x", "y", "z")))
        part = div.partition(U)
        for u in U:
            nm = div.nm_set(u, U)
            assert part.nonmult(u) == nm
            assert part.mult(u) == frozenset(range(3)) - nm
            for q in quotients:
                assert part.allows(u, q) == all(q.exps[i] == 0 for i in nm)

    @given(st.lists(monomials(2, 4), min_size=1, max_size=7),
           st.lists(monomials(3, 3), min_size=1, max_size=7))
    @settings(max_examples=40)
    def test_adding_one_at_a_time_matches_a_fresh_partition(self, seq2, seq3):
        # Repeats included: the engine never adds a head twice, but a
        # partition over a list with repeats is still well defined.  Each
        # `add` reports the bits it set on the kept monomials, in arrival
        # order, then the newcomer with its whole mask; a repeat sets none.
        for seq, vs in ((seq2, VS), (seq3, VarSet(("x", "y", "z")))):
            for div in (janet(vs), alex_division(vs), thomas_division(vs)):
                grown = div.partition(())
                for i, w in enumerate(seq, start=1):
                    kept = list(dict.fromkeys(seq[: i - 1]))
                    before = {u: grown.nm_mask(u) for u in kept}
                    widened = grown.add(w)
                    if w in before:
                        assert widened == {}
                    else:
                        gained = [(u, grown.nm_mask(u) & ~before[u]) for u in kept]
                        want = [(u, bits) for u, bits in gained if bits]
                        assert list(widened.items()) == want + [(w, grown.nm_mask(w))]
                    fresh = div.partition(seq[:i])
                    assert grown.monomials == fresh.monomials
                    for u in fresh.monomials:
                        assert grown.nonmult(u) == fresh.nonmult(u) == reference_nm_set(
                            div, u, seq[:i]
                        )

    @given(monomial_sets(3, max_deg=4, max_size=6), st.sampled_from(("janet", "thomas")))
    @settings(max_examples=60)
    def test_no_proper_divisor_divides_involutively(self, U, division_name):
        # Why the engine queues head reductions of older basis heads only
        # under a non-admissible generator: elsewhere a head h properly
        # dividing q is nonmultiplicative for a variable of q/h.
        div = division_by_name(division_name, VarSet(("x", "y", "z")))
        part = div.partition(U)
        for h in U:
            for q in U:
                if h != q and h.divides(q):
                    assert not part.inv_divides(h, q)

    def test_a_proper_divisor_divides_involutively_under_alex(self):
        # Under alex x*y ranks above x^2*y, and a greater monomial that
        # divides the smaller one imposes nothing on it.
        part = ALX.partition((XY, X2Y))
        assert part.inv_divides(XY, X2Y)


class TestInvDivisor:
    def test_finds_the_involutive_divisor(self):
        part = JAN.partition((XY, X2, X2Y, Y3))
        assert inv_divisor(part, Monomial((1, 4))) == XY
        assert inv_divisor(part, Monomial((2, 3))) == X2Y
        assert inv_divisor(part, X3) == X2
        assert inv_divisor(part, Y2) is None

    def test_order_breaks_ties_toward_the_smaller_candidate(self):
        # The alex division on this non-autoreduced pair makes every
        # variable multiplicative for both elements, so x^2*y^2 has two
        # involutive divisors.  `inv_divisor` takes the earliest listed one;
        # the engine's divisor index yields the smaller head first.
        m = Monomial((2, 2))
        part = ALX.partition((XY, X2Y))
        assert part.inv_divides(XY, m) and part.inv_divides(X2Y, m)
        assert inv_divisor(part, m) == XY
        assert inv_divisor(ALX.partition((X2Y, XY)), m) == X2Y
        G = [Polynomial(lex(VS), [(1, X2Y)]), Polynomial(lex(VS), [(1, XY)])]
        index = _InvolutiveReducer(G, ALX, lex(VS))
        assert [g.lm for g, _item, _u in index.divisors(m)] == [XY, X2Y]

    def test_divisor_satisfies_its_contract(self):
        part = THO.partition((X2, XY))
        m = X2Y
        u = inv_divisor(part, m)
        if u is not None:
            assert u.divides(m)
            assert part.inv_divides(u, m)


# Janet under each priority of PRIORITY_SETS, Thomas, and alex under each
# priority.
LOOKUP_DIVISIONS = (
    tuple(janet(vs) for vs in PRIORITY_SETS)
    + (thomas_division(PRIORITY_SETS[0]),)
    + tuple(alex_division(vs) for vs in PRIORITY_SETS)
)


def masked_scan(part, rows, m):
    """The row scan the lookups replaced: (item, head, quotient) for every
    (rank, head, item) row, in rank order (head key, then arrival), whose
    head's kept mask allows the quotient.  A head is passed over before
    dividing when its degree exceeds m's, when its support is not inside
    m's, or when m has a variable absent from the head and
    nonmultiplicative for it."""
    mask = support(m)
    for _rank, head, item in rows:
        hmask = support(head)
        if head.deg > m.deg or hmask & ~mask:
            continue
        nm = part.nm_mask(head)
        if mask & ~hmask & nm:
            continue
        u = mono_div(m, head)
        if u is not None and not support(u) & nm:
            yield item, head, u


class TestDivisorLookup:
    """`Partition.divisors` against the masked scan it replaces, under
    every division: the heads, in rank order, whose kept mask allows the
    quotient."""

    @given(
        st.lists(monomials(3, 3), max_size=8),
        st.lists(monomials(3, 5), min_size=1, max_size=6),
        st.sampled_from(LOOKUP_DIVISIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_lookup_equals_the_first_hit_of_the_scan(self, U, queries, div):
        # Grown from the empty set, which is queried too.  Heads may repeat:
        # every row of every divisor, in rank order, under Janet and Thomas
        # those of the one divisor.
        order = degrevlex(div.vars)
        part = div.partition(())
        index = _InvolutiveReducer((), div, order)
        rows = []
        for k, w in enumerate([None, *U]):
            if w is not None:
                part.add(w)
                index.add(Polynomial(order, [(1, w)]), k)
                rows.append(((order.key(w), k), w, k))
                rows.sort()
            seen = U[:k]
            for m in queries + [mono_mul(u, q) for u in seen[:3] for q in queries]:
                hits = list(masked_scan(part, rows, m))
                heads = list(dict.fromkeys(head for _item, head, _u in hits))
                assert sorted(part.divisors(m), key=order.key) == heads
                earliest = next((u for u in part.monomials if u in heads), None)
                assert inv_divisor(part, m) == earliest
                if div.name != "alex":
                    assert len(heads) <= 1
                found = [(item, g.lm, u) for g, item, u in index.divisors(m)]
                assert found == hits

    @pytest.mark.parametrize("div", LOOKUP_DIVISIONS)
    def test_a_monomial_of_another_dimension_is_rejected(self, div):
        part = div.partition((Monomial((1, 1, 0)),))
        for m in (X2Y, Monomial((1, 1, 0, 2))):
            with pytest.raises(UsageError, match="dimension mismatch"):
                part.divisors(m)

    def test_alex_lookup_finds_nested_divisors(self):
        # Under alex x*y ranks above x^2*y and imposes nothing on it, so
        # x^2*y^2 lies in both cones, and the lookup finds both.
        part = ALX.partition((XY, X2Y))
        m = Monomial((2, 2))
        assert sorted(part.divisors(m), key=lambda u: u.exps) == [XY, X2Y]
        # y^2 makes y nonmultiplicative for x^2*y, which moves to the file of
        # its new mask: still a divisor of x^3*y, no longer of x^2*y^2.
        assert part.add(Y2) == {X2Y: 0b10, Y2: 0b01}
        assert part.divisors(m) == [XY]
        assert sorted(part.divisors(Monomial((3, 1))), key=lambda u: u.exps) == [XY, X2Y]
        assert part.divisors(Y) == []


def rows_of(index, m):
    return [(id(g), item, u) for g, item, u in index.divisors(m)]


def fresh_reducer(elements, div, order):
    index = _InvolutiveReducer((), div, order)
    for g, item in elements:
        index.add(g, item)
    return index


class TestMemoisedLookup:
    """`_InvolutiveReducer.divisors` memoises its rows until the next `add`:
    every answer must equal that of a reducer built afresh from the same
    elements."""

    @given(
        st.lists(monomials(2, 3), min_size=1, max_size=8),
        st.lists(monomials(2, 5), min_size=1, max_size=6),
        st.sampled_from(("janet", "thomas", "alex")),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_interleaved_adds_and_lookups_equal_a_fresh_reducer(self, heads, queries, name, rng):
        # Heads may repeat.  Each query is looked up before and after every
        # add, some more than once, so stale entries would be answered.
        div = division_by_name(name, VS)
        order = degrevlex(VS)
        index = _InvolutiveReducer((), div, order)
        elements = []
        for k, w in enumerate(heads):
            for m in rng.sample(queries, len(queries)):
                assert rows_of(index, m) == rows_of(fresh_reducer(elements, div, order), m)
            g = Polynomial(order, [(1, w)])
            index.add(g, k)
            elements.append((g, k))
            fresh = fresh_reducer(elements, div, order)
            for m in queries + [mono_mul(w, q) for q in queries] + queries:
                assert rows_of(index, m) == rows_of(fresh, m)

    def test_an_add_that_widens_a_mask_drops_a_remembered_hit(self):
        # Under alex x^2*y^2 lies in the cones of x*y and x^2*y until y^2
        # makes y nonmultiplicative for x^2*y.
        order = lex(VS)
        m = Monomial((2, 2))
        xy, x2y = Polynomial(order, [(1, XY)]), Polynomial(order, [(1, X2Y)])
        index = _InvolutiveReducer((x2y, xy), ALX, order)
        assert [(g, u) for g, _item, u in index.divisors(m)] == [(xy, XY), (x2y, Y)]
        index.add(Polynomial(order, [(1, Y2)]))
        assert [(g, u) for g, _item, u in index.divisors(m)] == [(xy, XY)]

    @pytest.mark.parametrize("div", [JAN, THO, ALX], ids=lambda d: d.name)
    def test_an_add_of_a_repeated_head_lengthens_a_remembered_answer(self, div):
        order = lex(VS)
        m = Monomial((2, 2))
        first, second = Polynomial(order, [(1, XY)]), Polynomial(order, [(2, XY), (1, Y)])
        index = _InvolutiveReducer((first,), div, order)
        assert index.divisors(m) == ((first, None, XY),)
        widened = index.add(second, "again")
        assert widened == {}
        assert index.divisors(m) == ((first, None, XY), (second, "again", XY))

    @pytest.mark.parametrize("div", [JAN, THO, ALX], ids=lambda d: d.name)
    def test_the_rows_are_a_tuple_and_kept_until_the_next_add(self, div):
        order = lex(VS)
        index = _InvolutiveReducer([Polynomial(order, [(1, XY)])], div, order)
        for m in (Monomial((2, 2)), Y):
            rows = index.divisors(m)
            assert type(rows) is tuple
            assert index.divisors(Monomial(m.exps)) is rows
        rows = index.divisors(Y)
        index.add(Polynomial(order, [(1, Y)]))
        assert rows == () and index.divisors(Y) != rows

    @pytest.mark.parametrize("div", [JAN, THO, ALX], ids=lambda d: d.name)
    def test_a_monomial_of_another_dimension_is_rejected_every_time(self, div):
        index = _InvolutiveReducer([Polynomial(lex(VS), [(1, XY)])], div, lex(VS))
        for _ in range(2):
            with pytest.raises(UsageError, match="dimension mismatch"):
                index.divisors(Monomial((1, 1, 0)))


class TestThomasCompletion:
    def test_small_box(self):
        assert thomas_completion((X2, XY)) == frozenset({X2, XY, X2Y})

    def test_contains_the_input(self):
        U = (X2, Y3)
        assert set(U) <= thomas_completion(U)

    def test_empty_input_is_an_error(self):
        with pytest.raises(UsageError):
            thomas_completion(())

    @given(monomial_sets(3, max_deg=3, max_size=4))
    @settings(max_examples=25)
    def test_result_is_thomas_complete(self, U):
        comp = thomas_completion(U)
        div = thomas_division(VarSet(("x", "y", "z")))
        part = div.partition(tuple(comp))
        for u in comp:
            for i in part.nonmult(u):
                m = mono_mul(u, mono_var(i, 3))
                assert inv_divisor(part, m) is not None


class TestMinimalCompletion:
    def test_already_complete_sets_are_fixed_points(self):
        assert minimal_completion(JAN, (X2, XY), lex(VS)) == frozenset({X2, XY})
        assert minimal_completion(JAN, (XY, X2, Y3), lex(VS)) == frozenset({XY, X2, Y3})

    def test_adjoins_the_missing_prolongation(self):
        got = minimal_completion(JAN, (X2, Y2), lex(VS))
        assert got == frozenset({X2, Y2, Monomial((1, 2))})

    def test_requires_an_admissible_ordering(self):
        with pytest.raises(UsageError):
            minimal_completion(JAN, (X2,), alex(VS))

    def test_empty_input_is_an_error(self):
        with pytest.raises(UsageError):
            minimal_completion(JAN, (), lex(VS))

    @given(monomial_sets(3, max_deg=4, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_janet_completion_stays_inside_the_thomas_box(self, U):
        vs3 = VarSet(("x", "y", "z"))
        got = minimal_completion(janet(vs3), tuple(U), degrevlex(vs3))
        assert got <= thomas_completion(U)

    @given(monomial_sets(2, max_deg=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_completion_output_is_involutively_complete(self, U):
        got = minimal_completion(JAN, tuple(U), degrevlex(VS))
        part = JAN.partition(tuple(got))
        for u in got:
            for i in part.nonmult(u):
                m = mono_mul(u, mono_var(i, 2))
                assert inv_divisor(part, m) is not None


def rebuilding_minimal_completion(division, U, order):
    """The completion as it was before the partition was grown in place:
    rebuild the partition of the current set before every step."""
    current = set(U)
    while True:
        part = division.partition(sorted(current, key=order.key))
        candidates = [
            mono_mul(u, mono_var(i, division.vars.n))
            for u in current
            for i in part.nonmult(u)
        ]
        missing = [m for m in candidates if inv_divisor(part, m) is None]
        if not missing:
            return frozenset(current)
        current.add(min(missing, key=order.key))


class TestGrownPartitionCompletion:
    @pytest.mark.parametrize("division_name", ["janet", "alex", "thomas"])
    @given(U=monomial_sets(3, max_deg=4, max_size=5), use_lex=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_rebuilding_loop(self, division_name, U, use_lex):
        vs3 = VarSet(("x", "y", "z"))
        div = division_by_name(division_name, vs3)
        order = lex(vs3) if use_lex else degrevlex(vs3)
        assert minimal_completion(div, tuple(U), order) == rebuilding_minimal_completion(
            div, U, order
        )

    def test_step_guard_still_stops_the_loop(self):
        with pytest.raises(UsageError, match="within 1 steps"):
            minimal_completion(JAN, (X2, Y2), lex(VS), max_steps=1)


@st.composite
def sets_with_orders(draw):
    """A monomial set in 1-3 variables, with lex or degrevlex over them."""
    vs = VarSet(("x", "y", "z")[: draw(st.integers(1, 3))])
    U = draw(monomial_sets(vs.n, max_deg=4, max_size=5))
    return U, draw(st.sampled_from((lex, degrevlex)))(vs)


class TestThomasBoxClosure:
    """`min_bas` takes the Thomas minimal completion as the box closure;
    the generic step-by-step completion stays as the reference."""

    @given(sets_with_orders())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_generic_minimal_completion(self, case):
        U, order = case
        div = thomas_division(order.vars)
        assert thomas_completion(U) == minimal_completion(div, tuple(U), order)


class TestAxioms:
    def test_honest_divisions_pass_on_random_sets(self):
        rng = random.Random(7)
        vs3 = VarSet(("x", "y", "z"))
        divisions = (janet(vs3), alex_division(vs3), thomas_division(vs3))
        for _ in range(20):
            U = {
                Monomial(tuple(rng.randrange(4) for _ in range(3)))
                for _ in range(rng.randrange(1, 5))
            }
            for div in divisions:
                report = axioms_check(div, tuple(U), rng=rng, subset_samples=3)
                assert report.ok, report.message

    def test_corrupted_partition_fails_with_overlap_witness(self):
        # Declare x multiplicative for xy; the cones of x^2 and xy then
        # meet at x^2*y although neither involutively divides the other.
        def corrupt(u, V):
            nm = JAN.nm_set(u, V)
            if u == XY:
                nm = nm - {0}
            return nm

        report = axioms_check(JAN, (X2, XY), nm_fn=corrupt)
        assert not report.ok
        assert report.condition == 1
        a, b, m = report.witness
        assert {a, b} == {X2, XY}
        assert m == X2Y

    def test_uncovered_cone_nesting_fails_condition_two(self):
        # x^2 involutively divides x^2*y under this assignment, yet keeps a
        # nonmultiplicative variable that x^2*y regained.
        def corrupt(u, V):
            if u == X2:
                return frozenset({0})
            return frozenset()

        report = axioms_check(JAN, (X2, X2Y), nm_fn=corrupt)
        assert not report.ok
        assert report.condition == 2
        u, v, bad = report.witness
        assert (u, v) == (X2, X2Y)
        assert bad == (0,)

    def test_growing_constraints_on_subsets_fail_condition_three(self):
        def corrupt(u, V):
            if len(tuple(V)) < 2:
                return frozenset({0, 1})
            return THO.nm_set(u, V)

        report = axioms_check(THO, (X, Y), nm_fn=corrupt)
        assert not report.ok
        assert report.condition == 3

    def test_report_defaults(self):
        report = AxiomsReport(True)
        assert report.ok and report.condition is None and report.witness is None
        assert report.message == ""
        assert report == AxiomsReport(ok=True, condition=None, witness=None, message="")
        assert repr(report) == "AxiomsReport(ok=True, condition=None, witness=None, message='')"

    def test_empty_set_is_an_error(self):
        with pytest.raises(UsageError):
            axioms_check(JAN, ())
