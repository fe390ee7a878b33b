"""Completion of polynomial systems to minimal involutive bases.

Two completion procedures are provided.  `inv_bas` is the Gerdt–Blinkov
algorithm: it skips a queued element when the ancestor criteria C1/C2 hold,
else adds its nonzero involutive normal form to the basis and queues each
nonmultiplicative prolongation once.  `inv_comp` does the same job
signature-first: every intermediate carries a module signature, head
reductions are restricted to signature-safe ones, and redundant reductions
are skipped via the super-top-reduction test, C1/C2 and a signature
criterion read off the basis elements at later module positions.  Both pop
from a heap and return a minimal basis together with counters describing
the run.

Both find involutive divisors through one index, `_InvolutiveReducer`: the
basis elements filed by head over a partition that grows by
`Partition.add`, searched by one method (`divisors`), which asks the
partition's lookup (`Partition.divisors`) for the heads that involutively
divide a term: the one head under Janet and Thomas, every head, smallest
first, under alex.  Every normal form then cancels the term with one
reduction step, `PendingTerms.reduce_top`.  An insertion
prolongs only what `Partition.add` reports as newly nonmultiplicative, for
the newcomer and the heads it widened.

The resulting minimal involutive basis is in particular a Gröbner basis of
the input ideal, which `oracles` can verify independently.
"""
from __future__ import annotations

import heapq
import itertools
import operator
import time
from collections import namedtuple

from .core import (
    KEY_BOUND,
    Monomial,
    Ordering,
    PendingTerms,
    Polynomial,
    UsageError,
    _key_bound_error,
    _mono,
    mono_div,
    mono_mul,
    mono_one,
    mono_var,
    sum_of_products,
)
from .division import THOMAS, Division, bit_indices, minimal_completion, thomas_completion
from .signatures import (
    Signature,
    SigPoly,
    Verdict,
    ancestor_criteria,
    criteria,
    sig_cmp,
    sig_mul,
)


# The `Stats` counters that `bench` prints as the `--stats` columns.
COUNTERS = ("reds", "c1", "c2", "f5", "super", "polys_loop", "polys_min", "max_deg")

# The engine's diagnostic counters: kept in `Stats`, outside the `--stats`
# columns, and read by name through `CompletionResult.diagnostics`.
DIAGNOSTICS = (
    "global_sig_violations",
    "same_index_sig_violations",
    "sig_merges",
    "purged_t",
    "killed_q",
    "deflections",
)


class Stats:
    """Counters for one completion run: the `COUNTERS`, the `DIAGNOSTICS`
    and the run's wall time, each set by keyword (0, and 0.0 for
    `elapsed_ms`, by default).

    `inv_bas` leaves `f5` and `super` at zero.  `max_deg` is the largest
    total degree seen, and the two algorithms see different things:
    `inv_comp` counts the queued polynomials and every term a reduction
    step forms, `inv_bas` only the queued polynomials and the normal
    forms.  So the column does not compare across algorithms (noon3 under
    alex: 13 against 6).

    The diagnostics count deflected combinations queued (`deflections`),
    queued elements of equal signature merged (`sig_merges`) and of those
    the queued ones dropped (`killed_q`), and, only under
    `check_invariants`, the pops whose signature lies below some basis
    element's (`global_sig_violations`), at the same module position
    (`same_index_sig_violations`).  `purged_t` is always 0, since no basis
    element is ever removed; it stays only because the benchmark reads it
    (`perfbench`'s diagnostics, its traced report and `--self-check`).
    `inv_bas` leaves the diagnostics at zero.
    """

    __slots__ = COUNTERS + DIAGNOSTICS + ("elapsed_ms",)

    def __init__(self, **values):
        for name in Stats.__slots__:
            setattr(self, name, values.pop(name, 0.0 if name == "elapsed_ms" else 0))
        if values:
            raise TypeError("Stats has no counter %s" % ", ".join(sorted(values)))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in Stats.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Stats:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "Stats(%s)" % ", ".join(
            "%s=%r" % item for item in zip(Stats.__slots__, self._values())
        )

    def note(self, verdict: Verdict) -> None:
        """Count a head reduction the criterion `verdict` discarded, in the
        counter of that name."""
        if verdict is Verdict.NONE:
            raise UsageError("cannot record verdict %r" % (verdict,))
        setattr(self, verdict.value, getattr(self, verdict.value) + 1)


class EngineOptions:
    """Opt-in extras of the signature-based completion.  Neither changes
    the basis or the `--stats` counters.

    `track_cofactors` carries with every element its expression over the
    monic sorted generators and records one `CofactorRecord` per basis
    insertion, unchecked.  `check_invariants` is the one switch for every
    self-check of the engine (`_Checks`) and the two signature
    diagnostics, among them a re-expansion of each cofactor vector and a
    comparison of the partition kept up by insertions, of its divisor
    lookup and of the basis filed by position against their definitions.
    """

    __slots__ = ("track_cofactors", "check_invariants")

    def __init__(self, track_cofactors: bool = False, check_invariants: bool = False):
        self.track_cofactors = track_cofactors
        self.check_invariants = check_invariants


class CofactorRecord(namedtuple("CofactorRecord", "sig poly cofactors")):
    """How one basis insertion decomposes over the monic sorted generators."""

    __slots__ = ()


class CompletionResult:
    """The outcome of one completion run: the minimal basis, the counters,
    the basis the loop ended with, the inputs in the order the run took
    them and, with `track_cofactors`, one record per basis insertion."""

    __slots__ = ("basis", "stats", "loop_basis", "sorted_input", "cofactor_records")

    def __init__(
        self,
        basis: list[Polynomial],
        stats: Stats,
        loop_basis: list[Polynomial],
        sorted_input: list[Polynomial],
        cofactor_records: list[CofactorRecord] | None = None,
    ):
        self.basis = basis
        self.stats = stats
        self.loop_basis = loop_basis
        self.sorted_input = sorted_input
        self.cofactor_records = [] if cofactor_records is None else cofactor_records

    @property
    def diagnostics(self) -> dict[str, int]:
        """The diagnostic counters of `stats`, by name."""
        return {name: getattr(self.stats, name) for name in DIAGNOSTICS}


def _expand(cofactors, generators) -> Polynomial:
    if len(cofactors) != len(generators):
        raise AssertionError("cofactor vector length differs from the generator count")
    return sum_of_products(generators[0].order, zip(cofactors, generators))


def _check_inputs(F, division: Division, order: Ordering) -> list[Polynomial]:
    polys = list(F)
    if not polys:
        raise UsageError("cannot complete an empty polynomial system")
    if not order.admissible:
        raise UsageError("completion requires an admissible monomial ordering")
    if division.vars != order.vars:
        raise UsageError("division and ordering use different variable sets")
    for f in polys:
        if not isinstance(f, Polynomial):
            raise UsageError("inputs must be polynomials, got %r" % (f,))
        if f.order != order:
            raise UsageError("input polynomial uses a different ordering")
        if f.is_zero:
            raise UsageError("zero polynomial in the input system")
    return polys


class _Engine:
    """State of one signature-based completion run.

    The basis starts empty.  An element joins it one way only: `_push`
    queues it, `_pop` hands it out in signature order, and `_insert` files
    its nonzero normal form with `_grow`: in the divisor index (`basis`)
    and in `by_position` (position -> (head, element) pairs in insertion
    order), which the signature criterion and the cover check read.  `seed`
    queues the input.  `check` is the run's `_Checks`, or None.

    The basis only grows, which is why the loop basis is larger than the
    minimal one.  Signature-safe reduction cannot displace: elements pop
    in increasing signature, so a newer element multiplied up to an older
    head has, as a rule, the larger signature, and reducing the older head
    by it would raise that head's signature.  Every non-minimal head
    therefore stays, with all its prolongations, where `inv_bas` would
    send it back to the queue; `min_bas` extracts the minimal basis at the
    end.  As masks only widen, the prolongations due after an insertion
    are the bits `Partition.add` reports (`_grow` itself queues none).
    """

    def __init__(self, division: Division, order: Ordering, options: EngineOptions):
        self.division = division
        self.order = order
        # Under a division generated by a non-admissible ordering a head
        # reducible only unsafely may otherwise stay involutively reducible
        # forever, so its combination is deflected into the queue.  The
        # cover check compares order keys of shifted heads, which is only
        # meaningful when the generating ordering is admissible.
        generated = division.kind == "order"
        self.deflect = generated and not division.base.admissible
        self.cover = generated and division.base.admissible
        self.stats = Stats()
        self.gens: list[Polynomial] = []

        self._seq = itertools.count()
        self._heap: list = []
        # The one queued element of each signature; heap slots of elements
        # merged away stay behind and are skipped by `_pop`.
        self._sig_best: dict[Signature, SigPoly] = {}

        self.records: list[CofactorRecord] | None = [] if options.track_cofactors else None

        self.by_position: dict[int, list[tuple[Monomial, SigPoly]]] = {}
        self._index = _InvolutiveReducer((), division)
        self.check = _Checks(self) if options.check_invariants else None

    def seed(self, F) -> None:
        """Queue the generators of F, checked, made monic and sorted by
        decreasing head (stable, so equal heads keep input order); sorted
        position i is module e_(i+1).  The last one has the smallest
        signature, so it pops first and starts the basis."""
        order = self.order
        polys = _check_inputs(F, self.division, order)
        self.gens = sorted(
            (f.monic() for f in polys),
            key=lambda f: order.key(f.lm),
            reverse=True,
        )
        k = len(self.gens)
        unit, one, zero = None, Polynomial.one(order), Polynomial.zero(order)
        for i, g in enumerate(self.gens):
            sig = Signature(mono_one(order.vars.n), i + 1)
            if self.records is not None:
                unit = tuple(one if j == i else zero for j in range(k))
            self._push(SigPoly(sig, g, g.lm, cofactors=unit), creator_sig=None)

    # -- bookkeeping ---------------------------------------------------

    def _grow(self, sp: SigPoly) -> dict[Monomial, int]:
        """File sp in its module position and the divisor index; returns
        what `Partition.add` reports as widened."""
        self.by_position.setdefault(sp.sig.index, []).append((sp.lm, sp))
        return self._index.add(sp.poly, sp)

    def basis(self) -> list[SigPoly]:
        """The basis elements in insertion order, read from the index."""
        return [t for ((_g, t),) in self._index._by_head.values()]

    # -- queue ---------------------------------------------------------

    def _push(self, sp: SigPoly, creator_sig: Signature | None) -> bool:
        """Queue a signature-labelled polynomial; returns False when merged
        away by an already-queued element of the same signature.

        At most one element per signature stays queued, the one with the
        smallest head (`_loses_merge`): elements of equal signature reduce
        to the same normal form up to redundancy, so only one needs
        processing.  `_deflect` applies the same rule before building a
        deflected combination and, when it loses, does this method's
        accounting without calling it.
        """
        if sp.lm is None:
            return False
        if sp.deg > self.stats.max_deg:
            self.stats.max_deg = sp.deg
        if self.check is not None:
            self.check.pushed(sp, creator_sig)
        if sp.sig in self._sig_best:
            self.stats.sig_merges += 1
            if self._loses_merge(sp.sig, sp.lm_key):
                return False
            self.stats.killed_q += 1
        self._sig_best[sp.sig] = sp
        # Ascending heap order is increasing signature (`sig_cmp`).
        key = (-sp.sig.index, sp.sig_key, sp.lm_key, next(self._seq))
        heapq.heappush(self._heap, (key, sp))
        return True

    def _loses_merge(self, sig: Signature, lm_key) -> bool:
        """The same-signature merge rule: an element of signature sig whose
        head has order key lm_key is dropped when the queued element of sig
        has a head no larger."""
        incumbent = self._sig_best.get(sig)
        return incumbent is not None and lm_key >= incumbent.lm_key

    def _pop(self) -> SigPoly | None:
        while self._heap:
            _, sp = heapq.heappop(self._heap)
            if self._sig_best.get(sp.sig) is sp:
                del self._sig_best[sp.sig]
                return sp
        return None

    def _covered(self, p: SigPoly) -> bool:
        """True when a processed element certifies, at p's exact signature,
        a head strictly smaller than p's own: multiplying that element up to
        the signature of p yields a smaller leading monomial, so whatever p
        contributes is already reachable below its head.

        Keys add, so with u = sig(p)/sig(t), key(u) = p.sig_key - t.sig_key,
        and key(u*lm t) < key(lm p) compares the kept keys alone, while the
        product's degree stays below the bound where keys add: neither u
        nor a key is made."""
        se, sd = p.sig.mono.exps, p.sig.mono.deg
        bound = p.lm_key - p.sig_key
        for h, t in self.by_position.get(p.sig.index, ()):
            tm = t.sig.mono
            if tm.deg > sd or not all(map(operator.le, tm.exps, se)):
                continue
            deg = sd - tm.deg + h.deg
            if deg >= KEY_BOUND:
                raise _key_bound_error(deg)
            if t.lm_key - t.sig_key < bound:
                return True
        return False

    # -- regular normal form -------------------------------------------

    def regular_normal_form(self, p: SigPoly):
        """Reduce p by signature-safe involutive head reductions.

        Returns (normal form, verdict).  The normal form is monic (or
        zero), and under `track_cofactors` p's cofactors are left scaled to
        match it.  When one of the redundancy criteria recognises the first
        head reduction as unnecessary the normal form is zero and the
        verdict names the criterion.  Heads reducible only unsafely (the
        reducer would raise the signature) are deflected: the offending
        combination is queued under its true signature (`_deflect`) and the
        head is treated as irreducible here.

        The criteria are read from p's head and signature alone, before
        anything is seeded, so a head they discard costs no pending terms;
        only the degree check of seeding a prolongation runs, and raises,
        before them.  The pending terms then live in a `PendingTerms`: the
        divisors of the largest one come from the divisor index, the
        signature-safe ones first (`_ranked_divisors`), and the term either
        joins the remainder or is cancelled by the reduction step
        (`reduce_top`), which folds the rest of the multiplied reducer into
        the pending terms.  Under `track_cofactors` the step's multiplier
        c = (top coefficient)/lc is read first (`top_coeff`), for the
        cofactors.  p seeds the accumulator (`SigPoly.pending`): a queued
        prolongation x*g as the product, `PendingTerms(g, x)`, and any other
        element, a combination (not made monic) included, with its
        polynomial's integers.  Irreducible terms are kept as the
        accumulator gives them (`pop`), and the remainder is built from them
        once (`PendingTerms.polynomial`), then made monic, with the factor
        that scales the cofactors.
        """
        order = self.order
        if p.deg >= KEY_BOUND:
            raise _key_bound_error(p.deg)
        safe, unsafe = self._ranked_divisors(p, p.lm, p.lm_key)
        # The head certified by sig(p) is redundant as soon as a
        # signature-safe involutive head divisor triggers one of the
        # criteria.
        for q, _u in safe:
            verdict = criteria(p, q, self.by_position)
            if verdict is not Verdict.NONE:
                return Polynomial.zero(order), verdict

        pending = p.pending()
        rem = []  # irreducible terms, descending, as `pop` gives them
        cofs = p.cofactors
        deflected: set[tuple[Signature, Monomial]] = set()
        while True:
            if safe:
                chosen, chosen_u = safe[0]
                if cofs is not None:
                    c = pending.top_coeff() / chosen.poly.lc
                    cofs = tuple(
                        a - b.mul_term(c, chosen_u)
                        for a, b in zip(cofs, chosen.cofactors)
                    )
                deg = pending.reduce_top(chosen_u, chosen.poly)
                if deg > self.stats.max_deg:
                    self.stats.max_deg = deg
            else:
                if unsafe and self.deflect:
                    # Every head divisor would raise the signature; the
                    # term stays.  The division asks for the combination
                    # the reduction would have formed to be queued.
                    self._deflect(p, *unsafe[0], rem, pending, cofs, deflected)
                rem.append(pending.pop())
            if not pending:
                break
            safe, unsafe = self._ranked_divisors(p, pending.top_mono(), pending.top_key())

        h = pending.polynomial(rem)
        if rem:
            if cofs is not None:
                factor = 1 / h.lc
                cofs = tuple(a.scale(factor) for a in cofs)
            h = h.monic()
        p.cofactors = cofs
        return h, None

    def _ranked_divisors(self, p: SigPoly, m: Monomial, m_key: int) -> tuple[list, list]:
        """The (q, u) of every basis element q whose head involutively
        divides m, of order key m_key, u the quotient, in the order
        `divisors` returns them (smallest head first): those that are
        signature-safe for p (u*sig(q) <= sig(p)) and the others.  Compared
        in integers: q lies at a later position, or at p's with key(u) plus
        q's kept signature key at most p's.  Keys add, so key(u) is m_key
        less q's kept head key, and nothing is keyed."""
        safe, unsafe = [], []
        index, bound = p.sig.index, p.sig_key
        for _g, q, u in self._index.divisors(m):
            at = q.sig.index
            if at == index:
                deg = u.deg + q.sig.mono.deg
                if deg >= KEY_BOUND:
                    raise _key_bound_error(deg)
                ok = m_key - q.lm_key + q.sig_key <= bound
            else:
                ok = at > index
            (safe if ok else unsafe).append((q, u))
        return safe, unsafe

    def _deflect(self, p, chosen, chosen_u, rem, pending, cofs, deflected) -> None:
        """Queue the combination current - c*chosen_u*chosen.poly of a
        reduction that would raise the signature, under the reducer's
        shifted signature, where it is a legitimate new element.  Here
        current is the remainder `rem` and the `pending` terms, with
        cofactors `cofs`, and c*chosen_u*lt(chosen) cancels the largest
        pending term, which the caller moves to the remainder afterwards;
        `deflected` holds the (signature, head) pairs this normal form has
        already deflected, and a pair seen before is skipped.

        Every remainder term lies above the largest pending term, so above
        every pending term and every product term: with a remainder, the
        combination's head is rem[0]'s, with the key that term carries,
        before the step is taken.  When that head would lose the
        same-signature merge (`_loses_merge`), `_push` would drop the
        combination, and only its accounting is done here: the creator
        check, the merge count and the degree bump.  That bump takes the
        largest degree of c*chosen_u*chosen.poly: its head is the largest
        pending term, within `max_deg` already, and a product term above
        `max_deg` has nothing to cancel against, so it is the degree `_push`
        would see.  Otherwise the reduction step (`reduce_top`) is taken on
        a copy of the accumulator, and the combination, the terms of `rem`
        and of the copy, is built (`polynomial`) and queued when it is no
        repeat.  With cofactors, c is read first (`top_coeff`).
        """
        dsig = sig_mul(chosen_u, chosen.sig)
        if rem:
            _, _, head, head_key = rem[0]
            if (dsig, head) in deflected:
                return
            if self._loses_merge(dsig, head_key):
                deflected.add((dsig, head))
                deg = chosen_u.deg + chosen.poly.degree
                if deg > self.stats.max_deg:
                    self.stats.max_deg = deg
                if self.check is not None:
                    self.check.created(dsig, p.sig)
                self.stats.sig_merges += 1
                return
        acc = pending.copy()
        c = None if cofs is None else acc.top_coeff() / chosen.poly.lc
        acc.reduce_top(chosen_u, chosen.poly)
        if not rem:
            if not acc:
                return
            head = acc.top_mono()
            if (dsig, head) in deflected:
                return
        deflected.add((dsig, head))
        comb = acc.polynomial(rem)
        if self._queue_combination(dsig, comb, cofs, c, chosen_u, chosen, p.sig):
            self.stats.deflections += 1

    def _queue_combination(self, sig, comb, cofs, c, u, reducer, creator_sig) -> bool:
        """Queue the nonzero combination comb = current - c*u*reducer.poly
        under sig, not made monic, as its own ancestor; `cofs` are the
        cofactors of current.  Returns what `_push` returns."""
        vcofs = None
        if cofs is not None:
            vcofs = tuple(a - b.mul_term(c, u) for a, b in zip(cofs, reducer.cofactors))
        return self._push(SigPoly(sig, comb, comb.lm, cofactors=vcofs), creator_sig)

    # -- main loop -----------------------------------------------------

    def run(self) -> CompletionResult:
        start = time.perf_counter()
        while True:
            p = self._pop()
            if p is None:
                break
            if self.check is not None:
                self.check.popped(p)
            if self.cover and self._covered(p):
                self.stats.note(Verdict.SUPER)
                continue
            h, verdict = self.regular_normal_form(p)
            if verdict is not None:
                self.stats.note(verdict)
                continue
            if h.is_zero:
                self.stats.reds += 1
                continue
            self._insert(p, h)
        loop_basis = [t.poly for t in self.basis()]
        self.stats.polys_loop = len(loop_basis)
        basis = min_bas(loop_basis, self.division, self.order)
        self.stats.polys_min = len(basis)
        self.stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
        return CompletionResult(
            basis=basis,
            stats=self.stats,
            loop_basis=loop_basis,
            sorted_input=list(self.gens),
            cofactor_records=self.records,
        )

    def _insert(self, p: SigPoly, h: Polynomial) -> None:
        """File p's monic normal form h, with the cofactors
        `regular_normal_form` left on p, and queue its prolongations."""
        # Keep p's ancestry when the head stayed, else start its own.
        anc_lm = p.anc_lm if h.lm == p.lm else h.lm
        t_new = SigPoly(p.sig, h, anc_lm, cofactors=p.cofactors)
        widened = self._grow(t_new)
        if self.check is not None:
            self.check.inserted(t_new, widened)
        if t_new.cofactors is not None:
            self.records.append(CofactorRecord(t_new.sig, t_new.poly, t_new.cofactors))

        if self.deflect:
            self._queue_head_reductions(t_new)

        n = self.order.vars.n
        by_head = self._index._by_head
        for u, fresh in widened.items():
            q = by_head[u][0][1]  # the one basis element with head u
            for i in bit_indices(fresh):
                x = mono_var(i, n)
                pcofs = None
                if q.cofactors is not None:
                    pcofs = tuple(c.mul_term(1, x) for c in q.cofactors)
                sp = SigPoly(sig_mul(x, q.sig), q.poly, q.anc_lm, cofactors=pcofs, mono=x)
                self._push(sp, creator_sig=q.sig)

    def _queue_head_reductions(self, t_new: SigPoly) -> None:
        """A freshly inserted element can involutively divide heads already
        in the basis when the division comes from a non-admissible
        generator, and `_insert` calls this only then.  Such heads stay in
        place, but the reduced combinations are queued under the new
        element's shifted signature so their information is not lost.

        Elsewhere a head h that properly divides a basis head q is
        nonmultiplicative for a variable of q/h.  Under an admissible
        generator h is the smaller, so it gains the first variable in which
        it falls short of q; under Thomas it gains every such variable.
        """
        part = self._index.partition
        h = t_new.lm
        he, hd = h.exps, h.deg
        for q in self.basis():
            # The other heads h divides: degree and exponents no smaller.
            m = q.lm
            if m.deg < hd or q is t_new or not all(map(operator.le, he, m.exps)):
                continue
            u = mono_div(m, h)
            if not part.allows(h, u):
                continue
            # q - lc(q)*u*t_new, both monic: one reduction step.
            pending = q.pending()
            pending.reduce_top(u, t_new.poly)
            if pending:
                self._queue_combination(
                    sig_mul(u, t_new.sig), pending.polynomial(),
                    q.cofactors, q.poly.lc, u, t_new, t_new.sig
                )


class _Checks:
    """Every self-check of an `_Engine` run under `check_invariants`, told
    of four events: `pushed` by `_push`, `created` by `_deflect` for a merge
    loser it drops unbuilt, `popped` by `run` and `inserted` by `_insert`.
    Each raises `AssertionError` explicitly, which `python -O` keeps;
    `popped` also counts the two signature diagnostics."""

    __slots__ = ("engine",)

    def __init__(self, engine: _Engine):
        self.engine = engine

    def pushed(self, sp: SigPoly, creator_sig: Signature | None) -> None:
        self.cofactors(sp)
        self.created(sp.sig, creator_sig)

    def created(self, sig: Signature, creator_sig: Signature | None) -> None:
        if creator_sig is not None and sig_cmp(self.engine.order, sig, creator_sig) < 0:
            raise AssertionError("queued signature below its creator")

    def popped(self, p: SigPoly) -> None:
        # p's seeded accumulator must hold p built and rebuilt through the
        # public constructor, which keys its terms afresh.
        engine, order = self.engine, self.engine.order
        built = Polynomial(order, p.value().terms)
        if p.pending().descending() != PendingTerms(built).descending():
            kind = "polynomial" if p.mono is None else "prolongation"
            raise AssertionError("the seeded accumulator differs from the built " + kind)
        # Every basis element at an earlier position has a larger signature.
        sig, filed = p.sig, engine.by_position
        same_index = any(sig_cmp(order, sig, t.sig) < 0 for _h, t in filed.get(sig.index, ()))
        if same_index or any(at < sig.index for at in filed):
            engine.stats.global_sig_violations += 1
        if same_index:
            engine.stats.same_index_sig_violations += 1

    def inserted(self, t: SigPoly, widened: dict[Monomial, int]) -> None:
        engine = self.engine
        self.cofactors(t)
        if len(engine._index._by_head[t.lm]) > 1:
            raise AssertionError("inserted a duplicate head into the basis")
        # `by_position`: the basis grouped by position, in order, with heads.
        grouped: dict[int, list[tuple[Monomial, SigPoly]]] = {}
        for u in engine.basis():
            grouped.setdefault(u.sig.index, []).append((u.poly.lm, u))
        if engine.by_position != grouped:
            raise AssertionError("the basis filed by position differs from the index's")
        self.partition(widened)

    def cofactors(self, sp: SigPoly) -> None:
        if self.engine.records is not None:
            if sp.cofactors is None:
                raise AssertionError("cofactor tracking lost a vector")
            if _expand(sp.cofactors, self.engine.gens) != sp.value():
                raise AssertionError("cofactor expansion does not reproduce the polynomial")

    def partition(self, widened: dict[Monomial, int] | None = None) -> None:
        """Every split kept up by `Partition.add` must equal the definition,
        `Division.nm_set` over the current heads (not a second replay of
        `add`, which would repeat any fault of its own).  Each head must
        find itself by the partition's lookup, and the lookup must give
        head u for u times variable i exactly when i is multiplicative for
        u by that definition.  `widened`, the report of adding the last
        head, must match the definition before and after that head, entry
        for entry and in order."""
        engine = self.engine
        kept, division = engine._index.partition, engine.division
        heads = tuple(t.poly.lm for t in engine.basis())
        if kept.monomials != heads:
            raise AssertionError("partition lists the heads differently from the basis")
        n = engine.order.vars.n
        older, last = heads[:-1], heads[-1]
        report = {}
        for u in heads:
            before = division.nm_set(u, older)
            want = before | division.nm_pair(u, last)
            if u == last or want != before:
                report[u] = sum(1 << i for i in (want if u == last else want - before))
            if kept.nonmult(u) != want:
                raise AssertionError(
                    "partition keeps nonmultiplicative variables %s for %r, the definition gives %s"
                    % (sorted(kept.nonmult(u)), u.exps, sorted(want))
                )
            if u not in kept.divisors(u):
                raise AssertionError("partition lookup does not find the head %r itself" % (u.exps,))
            for i in range(n):
                found = kept.divisors(mono_mul(u, mono_var(i, n)))
                if (u in found) == (i in want):
                    raise AssertionError(
                        "partition lookup gives %r for %r times variable %d (nonmultiplicative: %s)"
                        % (found, u.exps, i, i in want)
                    )
        if widened is not None and list(widened.items()) != list(report.items()):
            raise AssertionError(
                "partition reports %r as widened, the definition gives %r" % (widened, report)
            )


def inv_comp(
    F,
    division: Division,
    order: Ordering,
    options: EngineOptions | None = None,
) -> CompletionResult:
    """Signature-based completion of F to a minimal involutive basis."""
    engine = _Engine(division, order, options or EngineOptions())
    engine.seed(F)
    return engine.run()


def nf_full(f: Polynomial, G, division: Division, order: Ordering) -> Polynomial:
    """Full involutive normal form of f against the polynomials G."""
    return _InvolutiveReducer(G, division).nf(f)


class _InvolutiveReducer:
    """The involutive divisor index of a set G, and full involutive
    reduction against it: the set is checked and partitioned once, for any
    number of searches, and can grow by `add`, which also files G.

    Each head lists the (polynomial, item) pairs of its elements in the
    order they were added, where the item is what `add` attaches (the
    engine's `SigPoly`, `inv_bas`'s ancestor head; None for the elements
    of G).  The nonmultiplicative masks are kept once, in the partition,
    which widens them as G grows.

    `divisors(m)` is the engine's one involutive-divisor search: the
    signature-safe normal form, `nf` (behind `nf_full`) and the C1/C2
    lookup of `inv_bas` all go through it.  It asks the partition's
    lookup (`Partition.divisors`) for the heads that involutively divide m:
    the one head under Janet and Thomas, every such head under alex,
    smallest first.  It returns the rows as a tuple, which it memoises by
    the exponents of m.  The partition and the filed elements change only
    in `add`, so an entry is exact until the next `add`, which clears the
    memo (also when it files a repeated head: that widens no mask but
    lengthens the head's rows).  Under alex, whose cones nest, a search
    probes every mask file, and many terms are searched again before the
    set grows.

    `nf` reduces each term by the first row (smallest head, then earliest
    added).  It looks at the largest pending term of a `PendingTerms`: an
    irreducible term is popped into the remainder, and the reduction step
    (`reduce_top`) cancels it and folds the rest of the multiplied divisor
    into the pending terms.
    """

    __slots__ = ("partition", "_by_head", "_memo")

    def __init__(self, G, division: Division):
        polys = [g for g in G]
        for g in polys:
            if g.is_zero:
                raise UsageError("zero polynomial in the reducing set")
        self.partition = division.partition(())
        self._by_head: dict[Monomial, list[tuple]] = {}
        self._memo: dict[tuple, tuple] = {}
        for g in polys:
            self.add(g)

    def add(self, g: Polynomial, item=None) -> dict[Monomial, int]:
        """Extend G by a nonzero g, listed after every element of equal
        head; returns what `Partition.add` reports as widened."""
        lm = g.lm
        widened = self.partition.add(lm)
        self._by_head.setdefault(lm, []).append((g, item))
        self._memo.clear()
        return widened

    def divisors(self, m: Monomial) -> tuple:
        """The (polynomial, item, quotient) rows of every element whose head
        involutively divides m: the heads the partition's lookup names,
        smallest first (by the kept key of the first element's head; under
        Janet and Thomas there is one at most), and each head's elements
        in the order they were added."""
        e = m.exps
        rows = self._memo.get(e)
        if rows is None:
            by_head = self._by_head
            heads = self.partition.divisors(m)
            if len(heads) > 1:
                heads.sort(key=lambda h: by_head[h][0][0].key_row()[0])
            d = m.deg
            rows = []
            for head in heads:
                # The partition has proved that the head divides m.
                u = _mono(tuple(map(operator.sub, e, head.exps)), d - head.deg)
                rows += [(g, item, u) for g, item in by_head[head]]
            rows = self._memo[e] = tuple(rows)
        return rows

    def nf(self, f: Polynomial, mono: Monomial | None = None) -> Polynomial:
        """The involutive normal form of f, or of the product mono*f,
        which enters the accumulator unbuilt."""
        pending = PendingTerms(f, mono)
        rem = []
        while pending:
            hits = self.divisors(pending.top_mono())
            if hits:
                g, _item, u = hits[0]
                pending.reduce_top(u, g)
            else:
                rem.append(pending.pop())
        return pending.polynomial(rem)


def min_bas(H, division: Division, order: Ordering) -> list[Polynomial]:
    """Extract the minimal involutive basis out of an involutive basis.

    The minimal basis is determined by heads alone: minimally completing
    the divisibility-minimal heads of H names exactly the heads the basis
    must keep, and H (being involutively complete) carries a polynomial
    for each of them.  Note that keeping only heads with no involutive
    divisor among the heads kept so far is not enough: removing elements
    enlarges the cones of the remaining ones, so a greedy walk can discard
    heads whose cones are still needed.

    Under Thomas the minimal completion of the divisibility-minimal heads
    is their box closure (`thomas_completion`), taken directly; the generic
    step-by-step `minimal_completion` serves the other divisions.
    """
    polys = [h for h in H]
    for h in polys:
        if h.is_zero:
            raise UsageError("zero polynomial in the basis candidate")
    by_lm: dict[Monomial, Polynomial] = {}
    for h in polys:
        by_lm.setdefault(h.lm, h)
    # The divisibility-minimal heads: no other head divides them, that is
    # none of smaller degree with exponents no larger.
    heads = [(m, m.exps, m.deg) for m in by_lm]
    gens = [
        m for m, me, md in heads
        if not any(wd < md and all(map(operator.le, we, me)) for _w, we, wd in heads)
    ]
    if division.kind == THOMAS:
        wanted = thomas_completion(gens)
    else:
        wanted = minimal_completion(division, gens, order)
    missing = [m for m in wanted if m not in by_lm]
    if missing:
        raise UsageError(
            "cannot extract a minimal basis: the input is not involutively "
            "complete (no element with head %r)" % (missing[0],)
        )
    return [by_lm[m] for m in sorted(wanted, key=order.key)]


def inv_bas(F, division: Division, order: Ordering) -> CompletionResult:
    """The Gerdt–Blinkov involutive completion, without signatures.

    Queued elements are (poly, x, head, anc, processed, key).  The queued
    polynomial is poly, or for a prolongation the product x*poly, kept
    unbuilt until its normal form seeds the accumulator with it; head is
    its leading monomial.  anc is the head of the element whose
    prolongations led to it, processed the bitmask of the variables whose
    prolongations of it are queued, and key the (head, variable) of the
    element a prolongation prolongs, None for the others.  A nonzero
    normal form h sends the basis elements whose heads lm(h) properly
    divides back to the queue, and keeps its element's ancestry when its
    head is unchanged.  The basis is held once, in the divisor index, each
    element filed with its anc; a displacement files the rest afresh, in
    their order.

    Each basis element has had the prolongations of all its
    nonmultiplicative variables queued, so only a queued element carries
    `processed`: a displaced element leaves with its mask and, if its head
    comes back unchanged, prolongs only the bits of its new mask that it
    had not.  An insertion prolongs each bit `Partition.add` reports,
    unless that prolongation is still queued.  That includes a bit the
    rebuild after a displacement cleared and a later insertion sets again:
    the prolongation popped in between may have been reduced by its own
    element, through the then multiplicative variable, which proves
    nothing.  (Skipping such bits lost x^2*y*z^2 from the Janet basis of
    x^2*y^2*z + 1, x^2*z^2 + x*y*z + 1 under lex.)
    """
    start = time.perf_counter()
    polys = _check_inputs(F, division, order)
    stats = Stats()
    seq = itertools.count()
    queue: list = []
    n = order.vars.n

    def push(poly: Polynomial, anc: Monomial, processed: int, key=None) -> None:
        """Queue poly, or for a prolongation key = (head, i) the product of
        poly by variable i."""
        if key is None:
            x, head, deg = None, poly.lm, poly.degree
        else:
            x = mono_var(key[1], n)
            head, deg = mono_mul(poly.lm, x), poly.degree + 1
        stats.max_deg = max(stats.max_deg, deg)
        heapq.heappush(queue, (order.key(head), next(seq), (poly, x, head, anc, processed, key)))

    gens = [f.monic() for f in polys]
    for g in gens:
        push(g, g.lm, 0)
    reducer = _InvolutiveReducer((), division)  # the basis, rows (poly, anc)
    pending: set[tuple[Monomial, int]] = set()  # the keys of the queued prolongations
    while queue:
        p, x, p_lm, anc, processed, key = heapq.heappop(queue)[2]
        pending.discard(key)
        hits = reducer.divisors(p_lm)
        if hits:
            _g, g_anc, _u = hits[0]
            verdict = ancestor_criteria(p_lm, anc, g_anc)
            if verdict is not Verdict.NONE:
                stats.note(verdict)
                continue
        h = reducer.nf(p, x)
        if h.is_zero:
            stats.reds += 1
            continue
        stats.max_deg = max(stats.max_deg, h.degree)
        h = h.monic()
        # The heads lm(h) properly divides (larger degree, exponents no
        # smaller) go back to the queue, and the rest is filed afresh in a
        # new index: the old one, its rows popped, is dropped.
        hm = h.lm
        he, hd = hm.exps, hm.deg
        rows = reducer._by_head
        displaced = [m for m in rows if m.deg > hd and all(map(operator.le, he, m.exps))]
        for m in displaced:
            push(*rows.pop(m)[0], reducer.partition.nm_mask(m))
        if displaced:
            reducer = _InvolutiveReducer((), division)
            for ((q, q_anc),) in rows.values():
                reducer.add(q, q_anc)
        if hm != p_lm:
            anc, processed = hm, 0
        for m, bits in reducer.add(h, anc).items():
            if m == hm:
                bits &= ~processed
            ((q, q_anc),) = reducer._by_head[m]
            for i in bit_indices(bits):
                if (m, i) not in pending:
                    pending.add((m, i))
                    push(q, q_anc, 0, (m, i))

    loop_basis = [q for ((q, _anc),) in reducer._by_head.values()]
    stats.polys_loop = len(loop_basis)
    basis_min = min_bas(loop_basis, division, order)
    stats.polys_min = len(basis_min)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CompletionResult(
        basis=basis_min, stats=stats, loop_basis=loop_basis, sorted_input=gens
    )
