"""Completion of polynomial systems to minimal involutive bases.

Two completion procedures are provided.  `inv_bas` is the Gerdt–Blinkov
algorithm: it skips a queued element when the ancestor criteria C1/C2 hold,
else adds its nonzero involutive normal form to the basis and queues each
nonmultiplicative prolongation once.  `inv_comp` does the same job
signature-first: every intermediate carries a module signature, head
reductions are restricted to signature-safe ones, and redundant reductions
are skipped via the super-top-reduction test, C1/C2 and a signature
criterion fed by the heads discovered at later module positions.  Both pop
from a heap and return a minimal basis together with counters describing
the run.

Both find involutive divisors through one index, `_InvolutiveReducer`: a
row per basis element in rank order over a partition that grows by
`Partition.add`, searched by one masked scan (`divisors`).

The resulting minimal involutive basis is in particular a Gröbner basis of
the input ideal, which `oracles` can verify independently.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import time
from dataclasses import dataclass, field

from .core import (
    Monomial,
    Ordering,
    PendingTerms,
    Polynomial,
    UsageError,
    mono_div,
    mono_one,
    mono_var,
    sum_of_products,
)
from .division import THOMAS, Division, bit_indices, minimal_completion, support, thomas_completion
from .signatures import (
    LMArchive,
    Signature,
    SigPoly,
    Verdict,
    ancestor_criteria,
    criteria,
    sig_cmp,
    sig_mul,
    sig_sort_key,
)


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


@dataclass
class Stats:
    """Counters for one completion run.

    The first eight are the `--stats` columns (`inv_bas` leaves `f5` and
    `super` at zero).  `max_deg` is the largest total degree seen, and the
    two algorithms see different things: `inv_comp` counts the queued
    polynomials and every term a reduction step forms, `inv_bas` only the
    queued polynomials and the normal forms.  So the column does not
    compare across algorithms (noon3 under alex: 13 against 6).

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

    reds: int = 0
    c1: int = 0
    c2: int = 0
    f5: int = 0
    super: int = 0
    polys_loop: int = 0
    polys_min: int = 0
    max_deg: int = 0
    deflections: int = 0
    sig_merges: int = 0
    killed_q: int = 0
    purged_t: int = 0
    global_sig_violations: int = 0
    same_index_sig_violations: int = 0
    elapsed_ms: float = 0.0

    def note(self, verdict: Verdict) -> None:
        if verdict is Verdict.SUPER:
            self.super += 1
        elif verdict is Verdict.C1:
            self.c1 += 1
        elif verdict is Verdict.C2:
            self.c2 += 1
        elif verdict is Verdict.F5:
            self.f5 += 1
        else:
            raise UsageError("cannot record verdict %r" % (verdict,))

    @property
    def criteria_total(self) -> int:
        return self.c1 + self.c2 + self.f5 + self.super


@dataclass
class EngineOptions:
    """Opt-in extras of the signature-based completion.  Neither changes
    the basis or the `--stats` counters.

    `track_cofactors` carries with every element its expression over the
    monic sorted generators and records one `CofactorRecord` per basis
    insertion.  `check_invariants` enables internal assertions and the two
    signature diagnostics on every iteration, among them a comparison of
    the partition kept up by insertions against its definition.
    """

    track_cofactors: bool = False
    check_invariants: bool = False


@dataclass(frozen=True)
class CofactorRecord:
    """How one basis insertion decomposes over the monic sorted generators."""

    sig: Signature
    poly: Polynomial
    cofactors: tuple[Polynomial, ...]


@dataclass
class CompletionResult:
    basis: list[Polynomial]
    stats: Stats
    loop_basis: list[Polynomial]
    sorted_input: list[Polynomial]
    cofactor_records: list[CofactorRecord] = field(default_factory=list)

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

    The engine starts from a fixed basis of processed elements (empty for a
    completion) and an optional archive of recorded heads.  An element
    joins the basis one way only: `_push` queues it, `_pop` hands it out
    in signature order, and `_insert` files its nonzero normal form.
    `seed` queues the input system.

    The basis only grows, which is why the loop basis is larger than the
    minimal one.  Signature-safe reduction cannot displace: elements pop
    in increasing signature, so a newer element multiplied up to an older
    head has, as a rule, the larger signature, and reducing the older head
    by it would raise that head's signature.  Every non-minimal head
    therefore stays, with all its prolongations, where `inv_bas` would
    send it back to the queue; `min_bas` extracts the minimal basis at the
    end.
    """

    def __init__(
        self,
        division: Division,
        order: Ordering,
        options: EngineOptions,
        basis=(),
        archive: LMArchive | None = None,
    ):
        self.division = division
        self.order = order
        self.options = options
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

        self.archive = archive
        self.records: list[CofactorRecord] = []

        self.T: list[SigPoly] = list(basis)
        # The divisor index over the basis; `_grow` keeps it up as T grows.
        self._index = _InvolutiveReducer(
            [t.poly for t in self.T], division, order, self.T
        )

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
        self.archive = LMArchive([[g.lm] for g in self.gens])
        unit = None
        for i, g in enumerate(self.gens):
            sig = Signature(mono_one(order.vars.n), i + 1)
            if self.options.track_cofactors:
                unit = tuple(
                    Polynomial.one(order) if j == i else Polynomial.zero(order)
                    for j in range(k)
                )
            self._push(SigPoly(sig, g, g.lm, cofactors=unit), creator_sig=None)

    # -- bookkeeping ---------------------------------------------------

    def _grow(self, sp: SigPoly) -> None:
        """Append sp to the basis and to the divisor index."""
        self.T.append(sp)
        self._index.add(sp.poly, sp)

    def _bump_deg(self, poly: Polynomial) -> None:
        if not poly.is_zero and poly.degree > self.stats.max_deg:
            self.stats.max_deg = poly.degree

    def _check_cofactors(self, sp: SigPoly) -> None:
        if self.options.track_cofactors:
            if sp.cofactors is None:
                raise AssertionError("cofactor tracking lost a vector")
            if _expand(sp.cofactors, self.gens) != sp.poly:
                raise AssertionError("cofactor expansion does not reproduce the polynomial")

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
        if sp.poly.is_zero:
            return False
        self._bump_deg(sp.poly)
        self._check_cofactors(sp)
        self._check_creator(sp.sig, creator_sig)
        lm_key = self.order.key(sp.poly.lm)
        if sp.sig in self._sig_best:
            self.stats.sig_merges += 1
            if self._loses_merge(sp.sig, lm_key):
                return False
            self.stats.killed_q += 1
        self._sig_best[sp.sig] = sp
        key = (sig_sort_key(self.order, sp.sig), lm_key, next(self._seq))
        heapq.heappush(self._heap, (key, sp))
        return True

    def _loses_merge(self, sig: Signature, lm_key) -> bool:
        """The same-signature merge rule: an element of signature sig whose
        head has order key lm_key is dropped when the queued element of sig
        has a head no larger."""
        incumbent = self._sig_best.get(sig)
        return incumbent is not None and lm_key >= self.order.key(incumbent.poly.lm)

    def _check_creator(self, sig: Signature, creator_sig: Signature | None) -> None:
        if (
            self.options.check_invariants
            and creator_sig is not None
            and sig_cmp(self.order, sig, creator_sig) < 0
        ):
            raise AssertionError("queued signature below its creator")

    def _pop(self) -> SigPoly | None:
        while self._heap:
            _, sp = heapq.heappop(self._heap)
            if self._sig_best.get(sp.sig) is sp:
                del self._sig_best[sp.sig]
                return sp
        return None

    # -- invariants ----------------------------------------------------

    def _check_partition(self) -> None:
        """Every split kept up by `Partition.add` must equal the definition,
        `Division.nm_set` over the current heads (not a second replay of
        `add`, which would repeat any fault of its own)."""
        kept = self._index.partition
        heads = tuple(t.poly.lm for t in self.T)
        if kept.monomials != heads:
            raise AssertionError("partition lists the heads differently from the basis")
        for u in heads:
            want = self.division.nm_set(u, heads)
            if kept.nonmult(u) != want:
                raise AssertionError(
                    "partition keeps nonmultiplicative variables %s for %r, the definition gives %s"
                    % (sorted(kept.nonmult(u)), u.exps, sorted(want))
                )

    def _pop_checks(self, p: SigPoly) -> None:
        if not self.options.check_invariants:
            return
        lms = [t.poly.lm for t in self.T]
        if len(set(lms)) != len(lms):
            raise AssertionError("duplicate heads in the basis")
        violated = False
        same_index = False
        for t in self.T:
            c = sig_cmp(self.order, p.sig, t.sig)
            if c < 0:
                violated = True
                if t.sig.index == p.sig.index:
                    same_index = True
        if violated:
            self.stats.global_sig_violations += 1
        if same_index:
            self.stats.same_index_sig_violations += 1

    def _covered(self, p: SigPoly) -> bool:
        """True when a processed element certifies, at p's exact signature,
        a head strictly smaller than p's own: multiplying that element up to
        the signature of p yields a smaller leading monomial, so whatever p
        contributes is already reachable below its head."""
        key = self.order.key(p.poly.lm)
        for t in self.T:
            if t.sig.index != p.sig.index:
                continue
            u = mono_div(p.sig.mono, t.sig.mono)
            if u is None:
                continue
            if self.order.product_key(u, t.poly.lm) < key:
                return True
        return False

    # -- regular normal form -------------------------------------------

    def regular_normal_form(self, p: SigPoly):
        """Reduce p by signature-safe involutive head reductions.

        Returns (normal form, verdict): when one of the redundancy criteria
        recognises the first head reduction as unnecessary the normal form
        is zero and the verdict names the criterion.  Heads reducible only
        unsafely (the reducer would raise the signature) are deflected: the
        offending combination is queued under its true signature
        (`_deflect`) and the head is treated as irreducible here.

        The pending terms live in a `PendingTerms`: the largest one is
        popped and either joins the remainder or is cancelled by a reduction
        step, which folds the rest of the multiplied reducer into the
        pending terms.  A polynomial is built for the remainder, and for a
        deflected combination only when it is queued.  The divisors of each
        term come from the divisor index, ranked safe first, then by head.
        """
        order = self.order
        pending = PendingTerms(p.poly)
        rem = []  # irreducible terms, descending: the normal form's terms
        cofs = p.cofactors
        at_head = True
        deflected: set[tuple[Signature, Monomial]] = set()

        self._bump_deg(p.poly)
        while pending:
            term = pending.pop()
            tc, tm = term
            candidates = []
            for rank, _g, q, u in self._index.divisors(tm):
                safe = sig_cmp(order, sig_mul(u, q.sig), p.sig) <= 0
                candidates.append(((0 if safe else 1, *rank), q, u))
            if not candidates:
                rem.append(term)
                at_head = False
                continue
            candidates.sort(key=lambda t: t[0])
            if at_head:
                # The head certified by sig(p) is redundant as soon as a
                # signature-safe involutive head divisor triggers one of
                # the criteria.
                for rank, q, _u in candidates:
                    if rank[0] != 0:
                        break
                    verdict = criteria(p, q, self.archive)
                    if verdict is not Verdict.NONE:
                        return Polynomial.zero(order), verdict
            at_head = False
            chosen_rank, chosen, chosen_u = candidates[0]
            c = tc / chosen.poly.lc
            if chosen_rank[0] != 0:
                # Every head divisor would raise the signature; the term
                # stays.  Where the division asks for it, queue the
                # combination the reduction would have formed.
                if self.deflect:
                    self._deflect(p, c, chosen, chosen_u, rem, pending, cofs, deflected)
                rem.append(term)
                continue
            deg = pending.sub_tail(c, chosen_u, chosen.poly)
            if deg > self.stats.max_deg:
                self.stats.max_deg = deg
            if cofs is not None:
                cofs = tuple(
                    a - b.mul_term(c, chosen_u)
                    for a, b in zip(cofs, chosen.cofactors)
                )

        p.cofactors = cofs
        return Polynomial._raw(order, tuple(rem)), None

    def _deflect(self, p, c, chosen, chosen_u, rem, pending, cofs, deflected) -> None:
        """Queue the combination current - c*chosen_u*chosen.poly of a
        reduction that would raise the signature, under the reducer's
        shifted signature, where it is a legitimate new element.  Here
        current is the remainder `rem`, the popped term c*chosen_u*lt(chosen)
        and the `pending` terms, with cofactors `cofs`; `deflected` holds
        the (signature, head) pairs this normal form has already deflected,
        and a pair seen before is skipped.

        Every remainder term lies above the popped term, so above every
        pending term and every product term: with a remainder, the
        combination's head is rem[0] before anything is built.  When that
        head would lose the same-signature merge (`_loses_merge`), `_push`
        would drop the combination, and only its accounting is done here:
        the creator check, the merge count and the degree bump.  That bump
        takes the largest degree of c*chosen_u*chosen.poly: its head is the
        popped term, within `max_deg` already, and a product term above
        `max_deg` has nothing to cancel against, so it is the degree `_push`
        would see.  Otherwise the combination is built from a copy of the
        accumulator, since c*chosen_u*lt(chosen) cancels the popped term.
        With cofactors it is always built, so that `_push` checks them.
        """
        dsig = sig_mul(chosen_u, chosen.sig)
        if rem:
            head = rem[0][1]
            if (dsig, head) in deflected:
                return
            if cofs is None and self._loses_merge(dsig, self.order.key(head)):
                deflected.add((dsig, head))
                deg = chosen_u.deg + chosen.poly.degree
                if deg > self.stats.max_deg:
                    self.stats.max_deg = deg
                self._check_creator(dsig, p.sig)
                self.stats.sig_merges += 1
                return
        acc = pending.copy()
        acc.sub_tail(c, chosen_u, chosen.poly)
        value = Polynomial._raw(self.order, (*rem, *acc.descending()))
        if value.is_zero or (dsig, value.lm) in deflected:
            return
        deflected.add((dsig, value.lm))
        if self._queue_combination(dsig, value, cofs, c, chosen_u, chosen, p.sig):
            self.stats.deflections += 1

    def _queue_combination(self, sig, value, cofs, c, u, reducer, creator_sig) -> bool:
        """Queue the nonzero combination value = current - c*u*reducer.poly
        under sig, made monic, as its own ancestor; `cofs` are the
        cofactors of current.  Returns what `_push` returns."""
        vcofs = None
        if cofs is not None:
            vcofs = tuple(
                (a - b.mul_term(c, u)).scale(1 / value.lc)
                for a, b in zip(cofs, reducer.cofactors)
            )
        return self._push(SigPoly(sig, value.monic(), value.lm, cofactors=vcofs), creator_sig)

    # -- main loop -----------------------------------------------------

    def run(self) -> CompletionResult:
        start = time.perf_counter()
        while True:
            p = self._pop()
            if p is None:
                break
            self._pop_checks(p)
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
        self.stats.polys_loop = len(self.T)
        loop_basis = [t.poly for t in self.T]
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
        order = self.order
        self.archive.record(p.sig.index, h.lm)
        cofs = None
        if p.cofactors is not None:
            cofs = tuple(c.scale(1 / h.lc) for c in p.cofactors)
        hm = h.monic()
        # No prolongation of a queued element is queued yet, so the new basis
        # element starts with none processed.  It keeps p's ancestry when the
        # head stayed, else starts its own.
        anc_lm = p.anc_lm if hm.lm == p.poly.lm else hm.lm
        t_new = SigPoly(p.sig, hm, anc_lm, cofactors=cofs)
        self._check_cofactors(t_new)
        if self.options.check_invariants and any(t.poly.lm == hm.lm for t in self.T):
            raise AssertionError("inserted a duplicate head into the basis")
        self._grow(t_new)
        if self.options.check_invariants:
            self._check_partition()
        if t_new.cofactors is not None:
            self.records.append(CofactorRecord(t_new.sig, t_new.poly, t_new.cofactors))

        if self.deflect:
            self._queue_head_reductions(t_new)

        part = self._index.partition
        n = order.vars.n
        for q in self.T:
            fresh = part.nm_mask(q.poly.lm) & ~q.processed
            if not fresh:
                continue
            for i in bit_indices(fresh):
                x = mono_var(i, n)
                pcofs = None
                if q.cofactors is not None:
                    pcofs = tuple(c.mul_term(1, x) for c in q.cofactors)
                sp = SigPoly(sig_mul(x, q.sig), q.poly.mul_term(1, x), q.anc_lm, cofactors=pcofs)
                self._push(sp, creator_sig=q.sig)
            q.processed |= fresh

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
        for q in self.T:
            if q is t_new:
                continue
            u = mono_div(q.poly.lm, t_new.poly.lm)
            if u is None or not part.allows(t_new.poly.lm, u):
                continue
            value = q.poly - t_new.poly.mul_term(q.poly.lc, u)
            if not value.is_zero:
                self._queue_combination(
                    sig_mul(u, t_new.sig), value, q.cofactors, q.poly.lc, u, t_new, t_new.sig
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


def reg_normal_form(
    p: SigPoly,
    basis,
    division: Division,
    order: Ordering,
    archive: LMArchive | None = None,
    q_sink: list[SigPoly] | None = None,
):
    """Signature-safe involutive normal form of p against a fixed basis.

    Standalone entry point over an explicit basis, reducing as the engine
    does under this division: where the division deflects (one generated
    by a non-admissible ordering), the deflected combinations are appended
    to `q_sink` instead of an internal queue.  Returns (normal form,
    verdict) as the engine-internal reduction does.
    """
    engine = _Engine(division, order, EngineOptions(), basis, archive)
    h, verdict = engine.regular_normal_form(p)
    if q_sink is not None:
        drained = engine._pop()
        while drained is not None:
            q_sink.append(drained)
            drained = engine._pop()
    return h, verdict


def nf_full(f: Polynomial, G, division: Division, order: Ordering) -> Polynomial:
    """Full involutive normal form of f against the polynomials G."""
    return _InvolutiveReducer(G, division, order).nf(f)


class _InvolutiveReducer:
    """The involutive divisor index of a set G, and full involutive
    reduction against it: the set is checked and partitioned once, for any
    number of searches, and can grow by `add`.

    Each element has one row, built when it joins: its rank (order key of
    the head, then arrival), head, the head's degree and support mask, the
    polynomial, and an optional item the caller attaches (the engine's
    `SigPoly`).  The rows stay in rank order.  The nonmultiplicative masks
    are kept once, in the partition, which widens them as G grows.

    `divisors(m)` is the one involutive-divisor search of the package: the
    engine's signature-safe normal form, `nf`, `is_involutive` and the
    C1/C2 lookup of `inv_bas` all go through it.  `nf` reduces each term by
    the first divisor in rank order (smallest head, then earliest added).
    It pops the largest pending term of a `PendingTerms`: an irreducible
    term joins the remainder, and a reduction step folds the rest of the
    multiplied divisor into the pending terms.
    """

    __slots__ = ("order", "partition", "rows", "_arrivals")

    def __init__(self, G, division: Division, order: Ordering, items=None):
        polys = [g for g in G]
        for g in polys:
            if g.is_zero:
                raise UsageError("zero polynomial in the reducing set")
        self.order = order
        self.partition = division.partition([g.lm for g in polys])
        self.rows: list[tuple] = []
        self._arrivals = itertools.count()
        for g, item in zip(polys, items or itertools.repeat(None)):
            self._file(g, item)

    def add(self, g: Polynomial, item=None) -> None:
        """Extend G by a nonzero g, ranked after every element of equal
        head."""
        self.partition.add(g.lm)
        self._file(g, item)

    def _file(self, g: Polynomial, item) -> None:
        lm = g.lm
        rank = (self.order.key(lm), next(self._arrivals))
        bisect.insort(self.rows, (rank, lm, lm.deg, support(lm), g, item))

    def divisors(self, m: Monomial):
        """Yield (rank, polynomial, item, quotient) for every element whose
        head involutively divides m, in rank order.

        The scan passes over a head before trying to divide when its degree
        exceeds m's, when its support is not inside m's, or when m has a
        variable that is absent from the head and nonmultiplicative for it:
        the quotient would contain that variable.  The quotient's support
        decides the heads that remain.
        """
        deg = m.deg
        mask = support(m)
        nm_of = self.partition._nm  # the masks themselves: this loop is hot
        for rank, head, hdeg, hmask, g, item in self.rows:
            if hdeg > deg or hmask & ~mask:
                continue
            nm = nm_of[head]
            if mask & ~hmask & nm:
                continue
            u = mono_div(m, head)
            if u is not None and not support(u) & nm:
                yield rank, g, item, u

    def nf(self, f: Polynomial) -> Polynomial:
        pending = PendingTerms(f)
        rem = []
        while pending:
            term = pending.pop()
            tc, tm = term
            hit = next(self.divisors(tm), None)
            if hit is None:
                rem.append(term)
            else:
                _rank, g, _item, u = hit
                pending.sub_tail(tc / g.lc, u, g)
        return Polynomial._raw(self.order, tuple(rem))


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
    lms = list(by_lm)
    gens = [m for m in lms if not any(w != m and w.divides(m) for w in lms)]
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

    Elements are triples (poly, anc, processed): anc is the head of the
    element whose prolongations led to poly, processed the bitmask of the
    variables whose prolongations of poly are queued.  A nonzero normal
    form h sends the basis elements whose heads lm(h) properly divides back
    to the queue, and keeps its element's ancestry when its head is
    unchanged.
    """
    start = time.perf_counter()
    polys = _check_inputs(F, division, order)
    stats = Stats()
    seq = itertools.count()
    queue: list = []

    def push(poly: Polynomial, anc: Monomial, processed: int) -> None:
        stats.max_deg = max(stats.max_deg, poly.degree)
        heapq.heappush(queue, (order.key(poly.lm), next(seq), (poly, anc, processed)))

    gens = [f.monic() for f in polys]
    for g in gens:
        push(g, g.lm, 0)
    basis: dict[Monomial, tuple] = {}  # head -> (poly, anc, processed)
    reducer = _InvolutiveReducer((), division, order)
    while queue:
        p, anc, processed = heapq.heappop(queue)[2]
        hit = next(reducer.divisors(p.lm), None)
        if hit is not None:
            _rank, g, _item, _u = hit
            verdict = ancestor_criteria(p.lm, anc, basis[g.lm][1])
            if verdict is not Verdict.NONE:
                stats.note(verdict)
                continue
        h = reducer.nf(p)
        if h.is_zero:
            stats.reds += 1
            continue
        stats.max_deg = max(stats.max_deg, h.degree)
        h = h.monic()
        displaced = [m for m in basis if m != h.lm and h.lm.divides(m)]
        for m in displaced:
            push(*basis.pop(m))
        if displaced:
            reducer = _InvolutiveReducer([t[0] for t in basis.values()], division, order)
        basis[h.lm] = (h, anc, processed) if h.lm == p.lm else (h, h.lm, 0)
        reducer.add(h)
        for m, (q, q_anc, q_processed) in basis.items():
            fresh = reducer.partition.nm_mask(m) & ~q_processed
            if not fresh:
                continue
            for i in bit_indices(fresh):
                push(q.mul_term(1, mono_var(i, order.vars.n)), q_anc, 0)
            basis[m] = (q, q_anc, q_processed | fresh)

    loop_basis = [t[0] for t in basis.values()]
    stats.polys_loop = len(loop_basis)
    basis_min = min_bas(loop_basis, division, order)
    stats.polys_min = len(basis_min)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CompletionResult(
        basis=basis_min, stats=stats, loop_basis=loop_basis, sorted_input=gens
    )
