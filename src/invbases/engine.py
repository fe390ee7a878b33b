"""Completion of polynomial systems to minimal involutive bases.

Two completion procedures are provided.  `inv_bas` is the Gerdt–Blinkov
algorithm: it skips a queued element when the ancestor criteria C1/C2 hold,
else adds its nonzero involutive normal form to the basis and queues each
nonmultiplicative prolongation once.  `inv_comp` does the same job
signature-first: every intermediate carries a module signature, head
reductions are restricted to signature-safe ones, and redundant reductions
are skipped via the super-top-reduction test, C1/C2 and a signature
criterion fed by the heads discovered at later module positions.  Both grow
their partition with `Partition.add`, pop from a heap and return a minimal
basis together with counters describing the run.

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
)
from .division import THOMAS, Division, inv_divisor, minimal_completion, thomas_completion
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
    `super` at zero).  The diagnostics count
    deflected combinations queued (`deflections`), queued elements of equal
    signature merged (`sig_merges`) and of those the queued ones dropped
    (`killed_q`), basis elements purged with a redundant generator
    (`purged_t`), and, only under `check_invariants`, the pops whose
    signature lies below some basis element's (`global_sig_violations`), at
    the same module position (`same_index_sig_violations`).  `inv_bas`
    leaves the diagnostics at zero.
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
    the partition kept up by insertions against one rebuilt from scratch.
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
    acc = Polynomial.zero(generators[0].order)
    for c, g in zip(cofactors, generators):
        acc = acc + c * g
    return acc


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


def _support(m: Monomial) -> int:
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


# The fields of a row of `_Engine._head_table`, for invariant messages.
_HEAD_FIELDS = ("element", "head", "degree", "support mask", "nonmultiplicative mask", "rank")


class _Engine:
    """State of one signature-based completion run.

    The engine starts from a fixed basis of processed elements (empty for a
    completion, which `seed` then fills from the input system) and an
    optional archive of recorded heads.
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

        self._uid = itertools.count()
        self._seq = itertools.count()
        self._anc_ids = itertools.count()
        self._heap: list = []
        # The one queued element of each signature; heap slots of elements
        # merged away stay behind and are skipped by `_pop`.
        self._sig_best: dict[Signature, SigPoly] = {}

        self.archive = archive
        self.records: list[CofactorRecord] = []

        self.T: list[SigPoly] = list(basis)
        self._refresh_partition()

    def seed(self, F) -> None:
        """Queue the generators of F, checked, made monic and sorted by
        decreasing head (stable, so equal heads keep input order); sorted
        position i is module e_(i+1).  The last one starts the basis."""
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
            sp = SigPoly(sig, g, g.lm, self._new_anc_id(), set(), next(self._uid), unit)
            if i == k - 1:
                self._grow(sp)
                if unit is not None:
                    self.records.append(CofactorRecord(sig, g, unit))
            else:
                self._push(sp, creator_sig=None)

    # -- bookkeeping ---------------------------------------------------

    def _new_anc_id(self) -> int:
        """Allocate an identity for an element that becomes its own ancestor.

        Identity is per instance, not per value: two equal generators are
        distinct module elements, and purging the descendants of one must
        not touch the other.
        """
        return next(self._anc_ids)

    def _refresh_partition(self) -> None:
        """Rebuild the partition over the current heads, O(|T|^2) pair rules.

        Insertions instead grow the kept partition with `Partition.add`, at
        O(|T|) pair rules; a rebuild is needed only for the starting basis
        and after `_purge`, because removing heads can shrink the
        nonmultiplicative sets of the heads that stay.
        """
        self._partition = self.division.partition([t.poly.lm for t in self.T])
        self._heads = self._head_table()

    def _grow(self, sp: SigPoly) -> None:
        """Append sp to the basis: the kept partition grows by `Partition.add`
        and the head table is rebuilt, because the addition can widen the
        nonmultiplicative sets of the heads already there."""
        self.T.append(sp)
        self._partition.add(sp.poly.lm)
        self._heads = self._head_table()

    def _head_table(self) -> list[tuple]:
        """One row per basis element for the divisor scan: the element, its
        head, the head's degree, support bitmask and nonmultiplicative
        bitmask (bit i set for variable i) under the kept partition, and the
        element's rank (order key of the head, uid)."""
        key = self.order.key
        nonmult = self._partition.nonmult
        rows = []
        for q in self.T:
            lm = q.poly.lm
            nm_mask = 0
            for i in nonmult(lm):
                nm_mask |= 1 << i
            rows.append((q, lm, lm.deg, _support(lm), nm_mask, (key(lm), q.uid)))
        return rows

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

    def _purge(self, anc_id: int) -> None:
        """Drop every basis element descending from a generator that was
        just discovered to reduce to zero at its own head; their heads came
        from a redundant generator.  Queued descendants stay and fall to the
        usual criteria when popped."""
        before = len(self.T)
        self.T = [t for t in self.T if t.anc_id != anc_id]
        self.stats.purged_t += before - len(self.T)
        if len(self.T) != before:
            self._refresh_partition()

    # -- invariants ----------------------------------------------------

    def _check_partition(self) -> None:
        """The partition kept up by `Partition.add` must equal one built
        from scratch over the current heads, and the kept head table one
        rebuilt from that partition."""
        kept = self._partition
        fresh = self.division.partition([t.poly.lm for t in self.T])
        if kept.monomials != fresh.monomials:
            raise AssertionError("partition lists the heads differently from the basis")
        for u in fresh.monomials:
            if kept.nonmult(u) != fresh.nonmult(u):
                raise AssertionError(
                    "partition keeps nonmultiplicative variables %s for %r, a rebuild gives %s"
                    % (sorted(kept.nonmult(u)), u.exps, sorted(fresh.nonmult(u)))
                )
        rebuilt = self._head_table()
        if len(self._heads) != len(rebuilt):
            raise AssertionError(
                "head table has %d rows for %d basis elements" % (len(self._heads), len(rebuilt))
            )
        for row, want in zip(self._heads, rebuilt):
            for name, a, b in zip(_HEAD_FIELDS, row, want):
                if a != b:
                    raise AssertionError(
                        "head table keeps %s %r for %r, a rebuild gives %r"
                        % (name, a, want[1].exps, b)
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

    def _head_divisors(self, m: Monomial) -> list[tuple]:
        """The basis elements whose heads involutively divide m, as
        (element, quotient, rank) in basis order.

        The scan walks the kept head table and passes over a head before
        trying to divide when its degree exceeds m's, when its support is
        not inside m's, or when m has a variable that is absent from the head
        and nonmultiplicative for it: the quotient would contain that
        variable.  `Partition.allows` decides the heads that remain.
        """
        deg = m.deg
        mask = _support(m)
        allows = self._partition.allows
        out = []
        for q, qlm, qdeg, qmask, nm_mask, rank in self._heads:
            if qdeg > deg or qmask & ~mask or mask & ~qmask & nm_mask:
                continue
            u = mono_div(m, qlm)
            if u is not None and allows(qlm, u):
                out.append((q, u, rank))
        return out

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
        term come from `_head_divisors`, ranked safe first, then by head and
        uid.
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
            for q, u, rank in self._head_divisors(tm):
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
                    a.sub_mul_term(c, chosen_u, b)
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
        the creator check, the merge count, the two identities the element
        would have drawn, and the degree bump.  That bump takes the largest
        degree of c*chosen_u*chosen.poly: its head is the popped term,
        within `max_deg` already, and a product term above `max_deg` has
        nothing to cancel against, so it is the degree `_push` would see.
        Otherwise the combination is built from a copy of the accumulator,
        since c*chosen_u*lt(chosen) cancels the popped term.  With cofactors
        it is always built, so that `_push` checks them.
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
                self._new_anc_id()
                next(self._uid)
                return
        acc = pending.copy()
        acc.sub_tail(c, chosen_u, chosen.poly)
        value = Polynomial._raw(self.order, (*rem, *acc.descending()))
        if value.is_zero or (dsig, value.lm) in deflected:
            return
        deflected.add((dsig, value.lm))
        dcofs = None
        if cofs is not None:
            dcofs = tuple(
                a.sub_mul_term(c, chosen_u, b).scale(1 / value.lc)
                for a, b in zip(cofs, chosen.cofactors)
            )
        dsp = SigPoly(
            dsig,
            value.monic(),
            value.lm,
            self._new_anc_id(),
            set(),
            next(self._uid),
            dcofs,
        )
        if self._push(dsp, creator_sig=p.sig):
            self.stats.deflections += 1

    # -- main loop -----------------------------------------------------

    def run(self) -> CompletionResult:
        start = time.perf_counter()
        while True:
            p = self._pop()
            if p is None:
                break
            self._pop_checks(p)
            self._bump_deg(p.poly)
            if self.cover and self._covered(p):
                self.stats.note(Verdict.SUPER)
                continue
            h, verdict = self.regular_normal_form(p)
            if verdict is not None:
                self.stats.note(verdict)
                continue
            if h.is_zero:
                self.stats.reds += 1
                if p.poly.lm == p.anc_lm:
                    self._purge(p.anc_id)
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
        if hm.lm == p.poly.lm:
            t_new = SigPoly(
                p.sig, hm, p.anc_lm, p.anc_id, set(p.processed), next(self._uid), cofs
            )
        else:
            t_new = SigPoly(
                p.sig, hm, hm.lm, self._new_anc_id(), set(), next(self._uid), cofs
            )
        self._check_cofactors(t_new)
        self._bump_deg(hm)
        if self.options.check_invariants and any(t.poly.lm == hm.lm for t in self.T):
            raise AssertionError("inserted a duplicate head into the basis")
        self._grow(t_new)
        if self.options.check_invariants:
            self._check_partition()
        if t_new.cofactors is not None:
            self.records.append(CofactorRecord(t_new.sig, t_new.poly, t_new.cofactors))

        self._queue_head_reductions(t_new)

        part = self._partition
        n = order.vars.n
        for q in self.T:
            fresh = part.nonmult(q.poly.lm) - q.processed
            for i in sorted(fresh):
                x = mono_var(i, n)
                pcofs = None
                if q.cofactors is not None:
                    pcofs = tuple(c.mul_term(1, x) for c in q.cofactors)
                sp = SigPoly(
                    sig_mul(x, q.sig),
                    q.poly.mul_term(1, x),
                    q.anc_lm,
                    q.anc_id,
                    set(),
                    next(self._uid),
                    pcofs,
                )
                self._push(sp, creator_sig=q.sig)
            q.processed |= fresh

    def _queue_head_reductions(self, t_new: SigPoly) -> None:
        """A freshly inserted element can involutively divide heads already
        in the basis when the division comes from a non-admissible generator
        (never for Janet or Thomas).  Such heads stay in place, but the
        reduced combinations are queued under the new element's shifted
        signature so their information is not lost."""
        part = self._partition
        for q in self.T:
            if q is t_new:
                continue
            u = mono_div(q.poly.lm, t_new.poly.lm)
            if u is None or not part.allows(t_new.poly.lm, u):
                continue
            value = q.poly.sub_mul_term(q.poly.lc, u, t_new.poly)
            if value.is_zero:
                continue
            vcofs = None
            if q.cofactors is not None:
                vcofs = tuple(
                    a.sub_mul_term(q.poly.lc, u, b).scale(1 / value.lc)
                    for a, b in zip(q.cofactors, t_new.cofactors)
                )
            sp = SigPoly(
                sig_mul(u, t_new.sig),
                value.monic(),
                value.lm,
                self._new_anc_id(),
                set(),
                next(self._uid),
                vcofs,
            )
            self._push(sp, creator_sig=t_new.sig)


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
    """Full involutive reduction against a set G: the set is checked,
    partitioned and ranked once, for any number of normal forms, and can
    grow by `add`.

    `nf` reduces each term by the first involutive divisor in rank order
    (smallest head, then earliest added).  It pops the largest pending term
    of a `PendingTerms`: an irreducible term joins the remainder, and a
    reduction step folds the rest of the multiplied divisor into the
    pending terms.
    """

    __slots__ = ("order", "partition", "ranked")

    def __init__(self, G, division: Division, order: Ordering):
        polys = [g for g in G]
        for g in polys:
            if g.is_zero:
                raise UsageError("zero polynomial in the reducing set")
        self.order = order
        self.partition = division.partition([g.lm for g in polys])
        ranked = sorted(range(len(polys)), key=lambda i: (order.key(polys[i].lm), i))
        self.ranked = [polys[i] for i in ranked]

    def add(self, g: Polynomial) -> None:
        """Extend G by a nonzero g, ranked as a fresh reducer over G + [g]
        ranks it: after every element of equal head."""
        self.partition.add(g.lm)
        bisect.insort(self.ranked, g, key=lambda f: self.order.key(f.lm))

    def nf(self, f: Polynomial) -> Polynomial:
        allows = self.partition.allows
        pending = PendingTerms(f)
        rem = []
        while pending:
            term = pending.pop()
            tc, tm = term
            for g in self.ranked:
                u = mono_div(tm, g.lm)
                if u is not None and allows(g.lm, u):
                    pending.sub_tail(tc / g.lc, u, g)
                    break
            else:
                rem.append(term)
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
    element whose prolongations led to poly, processed the variables whose
    prolongations of poly are queued.  A nonzero normal form h sends the
    basis elements whose heads lm(h) properly divides back to the queue, and
    keeps its element's ancestry when its head is unchanged.
    """
    start = time.perf_counter()
    polys = _check_inputs(F, division, order)
    stats = Stats()
    seq = itertools.count()
    queue: list = []

    def push(poly: Polynomial, anc: Monomial, processed: set[int]) -> None:
        stats.max_deg = max(stats.max_deg, poly.degree)
        heapq.heappush(queue, (order.key(poly.lm), next(seq), (poly, anc, processed)))

    gens = [f.monic() for f in polys]
    for g in gens:
        push(g, g.lm, set())
    basis: dict[Monomial, tuple] = {}  # head -> (poly, anc, processed)
    reducer = _InvolutiveReducer((), division, order)
    while queue:
        p, anc, processed = heapq.heappop(queue)[2]
        divisor = inv_divisor(reducer.partition, p.lm, order)
        if divisor is not None:
            verdict = ancestor_criteria(p.lm, anc, basis[divisor][1])
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
        basis[h.lm] = (h, anc, processed) if h.lm == p.lm else (h, h.lm, set())
        reducer.add(h)
        for q, q_anc, q_processed in basis.values():
            fresh = reducer.partition.nonmult(q.lm) - q_processed
            for i in sorted(fresh):
                push(q.mul_term(1, mono_var(i, order.vars.n)), q_anc, set())
            q_processed |= fresh

    loop_basis = [t[0] for t in basis.values()]
    stats.polys_loop = len(loop_basis)
    basis_min = min_bas(loop_basis, division, order)
    stats.polys_min = len(basis_min)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CompletionResult(
        basis=basis_min, stats=stats, loop_basis=loop_basis, sorted_input=gens
    )
