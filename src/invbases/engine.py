"""Completion of polynomial systems to minimal involutive bases.

Two completion procedures are provided.  `inv_bas` is the classical loop:
repeatedly take the involutive normal form of a queued element or
nonmultiplicative prolongation and grow the basis until every prolongation
reduces to zero.  `inv_comp` does the same job signature-first: every
intermediate carries a module signature, head reductions are restricted to
signature-safe ones, and provably redundant reductions are skipped via the
super-top-reduction test, two ancestor criteria and a signature criterion
fed by the heads discovered at later module positions.  Both return a
minimal basis together with counters describing the run.

The resulting minimal involutive basis is in particular a Gröbner basis of
the input ideal, which `oracles` can verify independently.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

from .core import (
    Monomial,
    Ordering,
    Polynomial,
    UsageError,
    mono_div,
    mono_mul,
    mono_var,
)
from .division import Division, Partition, minimal_completion
from .signatures import (
    LMArchive,
    Signature,
    SigPoly,
    Verdict,
    criteria,
    sig_cmp,
    sig_mul,
    sig_sort_key,
)


@dataclass
class Stats:
    """Counters for one completion run."""

    reds: int = 0
    c1: int = 0
    c2: int = 0
    f5: int = 0
    super: int = 0
    polys_loop: int = 0
    polys_min: int = 0
    max_deg: int = 0
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
    """Tunable behaviour of the signature-based completion.

    `same_signature_discard` keeps at most one queued element per signature
    (the one with the smallest head); elements of equal signature reduce to
    the same normal form up to redundancy, so only one needs processing.
    Turning it off queues everything literally.  `deflect_unsafe` queues the
    combination a signature-raising head reduction would have formed under
    the reducer's shifted signature; with the default `None` this happens
    exactly for divisions generated by a non-admissible ordering, where a
    skipped head may otherwise stay involutively reducible forever and the
    completion would miss part of the ideal.  `sig_cover_discard` drops a
    popped element when a processed element of smaller signature certifies
    a strictly smaller head at the popped signature (counted with the
    super-top-reduction discards); the certificate compares order keys of
    shifted heads, which is only meaningful when the division is generated
    by an admissible ordering, so the default `None` enables it exactly
    then.  `check_invariants` enables internal assertions and diagnostics
    on every iteration, among them a comparison of the partition kept up by
    insertions against one rebuilt from scratch.
    """

    use_syzygy_signatures: bool = False
    track_cofactors: bool = False
    check_invariants: bool = False
    same_signature_discard: bool = True
    deflect_unsafe: bool | None = None
    sig_cover_discard: bool | None = None


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
    diagnostics: dict = field(default_factory=dict)


class _QEntry:
    __slots__ = ("sp", "alive", "seq")

    def __init__(self, sp: SigPoly, seq: int):
        self.sp = sp
        self.alive = True
        self.seq = seq


def _expand(cofactors, generators) -> Polynomial:
    if len(cofactors) != len(generators):
        raise AssertionError("cofactor vector length differs from the generator count")
    acc = Polynomial.zero(generators[0].order)
    for c, g in zip(cofactors, generators):
        acc = acc + c * g
    return acc


def _resolve_deflect(options: EngineOptions, division: Division) -> bool:
    if options.deflect_unsafe is not None:
        return options.deflect_unsafe
    return division.kind == "order" and not division.base.admissible


def _resolve_cover(options: EngineOptions, division: Division) -> bool:
    if options.sig_cover_discard is not None:
        return options.sig_cover_discard
    return division.kind == "order" and division.base.admissible


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
    """State of one signature-based completion run."""

    def __init__(self, F, division: Division, order: Ordering, options: EngineOptions):
        polys = _check_inputs(F, division, order)
        self.division = division
        self.order = order
        self.options = options
        self.deflect = _resolve_deflect(options, division)
        self.cover = _resolve_cover(options, division)
        self.stats = Stats()
        self.diagnostics = {
            "global_sig_violations": 0,
            "same_index_sig_violations": 0,
            "sig_merges": 0,
            "purged_t": 0,
            "killed_q": 0,
            "deflections": 0,
        }

        # Generators are made monic and sorted by decreasing head (stable, so
        # equal heads keep input order); sorted position i is module e_(i+1).
        self.gens = sorted(
            (f.monic() for f in polys),
            key=lambda f: order.key(f.lm),
            reverse=True,
        )
        self.k = len(self.gens)

        self._uid = itertools.count()
        self._seq = itertools.count()
        self._anc_ids = itertools.count()
        self._heap: list = []
        self._sig_best: dict[Signature, _QEntry] = {}
        self._queued: dict[tuple[Signature, Monomial], _QEntry] = {}

        self.archive = LMArchive([[g.lm] for g in self.gens])
        self.syzygies: list[Signature] = []
        self.records: list[CofactorRecord] = []

        self.T: list[SigPoly] = []
        self._partition: Partition | None = None

        unit = None
        for i, g in enumerate(self.gens):
            sig = Signature(_one(order), i + 1)
            if options.track_cofactors:
                unit = tuple(
                    Polynomial.one(order) if j == i else Polynomial.zero(order)
                    for j in range(self.k)
                )
            sp = SigPoly(sig, g, g.lm, self._new_anc_id(), set(), next(self._uid), unit)
            if i == self.k - 1:
                self.T.append(sp)
                if unit is not None:
                    self.records.append(CofactorRecord(sig, g, unit))
            else:
                self._push(sp, creator_sig=None)
        self._refresh_partition()

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
        O(|T|) pair rules; a rebuild is needed only for the first basis and
        after `_purge`, because removing heads can shrink the
        nonmultiplicative sets of the heads that stay.
        """
        self._partition = self.division.partition([t.poly.lm for t in self.T])

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
        away by an already-queued element of the same signature."""
        if sp.poly.is_zero:
            return False
        self._bump_deg(sp.poly)
        self._check_cofactors(sp)
        if (
            self.options.check_invariants
            and creator_sig is not None
            and sig_cmp(self.order, sp.sig, creator_sig) < 0
        ):
            raise AssertionError("queued signature below its creator")
        if self.options.same_signature_discard:
            incumbent = self._sig_best.get(sp.sig)
            if incumbent is not None and incumbent.alive:
                self.diagnostics["sig_merges"] += 1
                if self.order.key(sp.poly.lm) < self.order.key(incumbent.sp.poly.lm):
                    self._kill(incumbent)
                else:
                    return False
        else:
            dup = self._queued.get((sp.sig, sp.poly.lm))
            if dup is not None and dup.alive:
                return False
        entry = _QEntry(sp, next(self._seq))
        key = (
            sig_sort_key(self.order, sp.sig),
            self.order.key(sp.poly.lm),
            entry.seq,
        )
        heapq.heappush(self._heap, (key, entry.seq, entry))
        if self.options.same_signature_discard:
            self._sig_best[sp.sig] = entry
        else:
            self._queued[(sp.sig, sp.poly.lm)] = entry
        return True

    def _kill(self, entry: _QEntry) -> None:
        if entry.alive:
            entry.alive = False
            self.diagnostics["killed_q"] += 1
            if self._sig_best.get(entry.sp.sig) is entry:
                del self._sig_best[entry.sp.sig]
            key = (entry.sp.sig, entry.sp.poly.lm)
            if self._queued.get(key) is entry:
                del self._queued[key]

    def _pop(self) -> SigPoly | None:
        while self._heap:
            _, _, entry = heapq.heappop(self._heap)
            if not entry.alive:
                continue
            entry.alive = False
            if self._sig_best.get(entry.sp.sig) is entry:
                del self._sig_best[entry.sp.sig]
            key = (entry.sp.sig, entry.sp.poly.lm)
            if self._queued.get(key) is entry:
                del self._queued[key]
            return entry.sp
        return None

    def _purge(self, anc_id: int) -> None:
        """Drop every basis element descending from a generator that was
        just discovered to reduce to zero at its own head; their heads came
        from a redundant generator.  Queued descendants stay and fall to the
        usual criteria when popped."""
        before = len(self.T)
        self.T = [t for t in self.T if t.anc_id != anc_id]
        self.diagnostics["purged_t"] += before - len(self.T)
        if len(self.T) != before:
            self._refresh_partition()

    # -- invariants ----------------------------------------------------

    def _check_partition(self) -> None:
        """The partition kept up by `Partition.add` must equal one built
        from scratch over the current heads."""
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
            self.diagnostics["global_sig_violations"] += 1
        if same_index:
            self.diagnostics["same_index_sig_violations"] += 1

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
            if self.order.key(mono_mul(u, t.poly.lm)) < key:
                return True
        return False

    # -- regular normal form -------------------------------------------

    def regular_normal_form(self, p: SigPoly):
        """Reduce p by signature-safe involutive head reductions.

        Returns (normal form, verdict): when one of the redundancy criteria
        recognises the first head reduction as unnecessary the normal form
        is zero and the verdict names the criterion.  Heads reducible only
        unsafely (the reducer would raise the signature) are deflected: the
        offending combination is queued under its true signature and the
        head is treated as irreducible here.
        """
        order = self.order
        part = self._partition
        h = p.poly
        rem = []  # irreducible heads, descending: the normal form's terms
        cofs = p.cofactors
        at_head = True
        deflected: set[tuple[Signature, Monomial]] = set()

        while not h.is_zero:
            self._bump_deg(h)
            candidates = []
            hlm = h.lm
            for q in self.T:
                u = mono_div(hlm, q.poly.lm)
                if u is None or not part.allows(q.poly.lm, u):
                    continue
                safe = sig_cmp(order, sig_mul(u, q.sig), p.sig) <= 0
                candidates.append(((0 if safe else 1, order.key(q.poly.lm), q.uid), q, u))
            if not candidates:
                rem.append(h.lt)
                h = h.drop_lt()
                at_head = False
                continue
            candidates.sort(key=lambda t: t[0])
            if at_head:
                # The head certified by sig(p) is redundant as soon as a
                # signature-safe involutive head divisor triggers one of
                # the criteria.
                syz = tuple(self.syzygies) if self.options.use_syzygy_signatures else None
                for rank, q, _u in candidates:
                    if rank[0] != 0:
                        break
                    verdict = criteria(p, q, self.archive, order, syz)
                    if verdict is not Verdict.NONE:
                        return Polynomial.zero(order), verdict
            chosen_rank, chosen, chosen_u = candidates[0]
            safe = chosen_rank[0] == 0
            if not safe:
                # Every head divisor would raise the signature; the head
                # stays.  Optionally queue the combination the reduction
                # would have formed under the reducer's shifted signature,
                # where it is a legitimate new element.
                if self.deflect:
                    c = h.lc / chosen.poly.lc
                    # Every remainder term lies above every term of h.
                    value = Polynomial._raw(order, tuple(rem) + h.terms).sub_mul_term(
                        c, chosen_u, chosen.poly
                    )
                    dsig = sig_mul(chosen_u, chosen.sig)
                    if not value.is_zero and (dsig, value.lm) not in deflected:
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
                            self.diagnostics["deflections"] += 1
                rem.append(h.lt)
                h = h.drop_lt()
                at_head = False
                continue
            c = h.lc / chosen.poly.lc
            h = h.sub_mul_term(c, chosen_u, chosen.poly)
            if cofs is not None:
                cofs = tuple(
                    a.sub_mul_term(c, chosen_u, b)
                    for a, b in zip(cofs, chosen.cofactors)
                )
            at_head = False

        p.cofactors = cofs
        return Polynomial._raw(order, tuple(rem)), None

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
                if self.options.use_syzygy_signatures:
                    self.syzygies.append(p.sig)
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
            diagnostics=dict(self.diagnostics),
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
        self.T.append(t_new)
        self._partition.add(hm.lm)
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


def _one(order: Ordering) -> Monomial:
    return Monomial((0,) * order.vars.n)


def inv_comp(
    F,
    division: Division,
    order: Ordering,
    options: EngineOptions | None = None,
) -> CompletionResult:
    """Signature-based completion of F to a minimal involutive basis."""
    engine = _Engine(F, division, order, options or EngineOptions())
    return engine.run()


def reg_normal_form(
    p: SigPoly,
    basis,
    division: Division,
    order: Ordering,
    archive: LMArchive | None = None,
    q_sink: list[SigPoly] | None = None,
    options: EngineOptions | None = None,
):
    """Signature-safe involutive normal form of p against a fixed basis.

    Standalone entry point over an explicit basis: deflected combinations
    are appended to `q_sink` instead of an internal queue.  Returns
    (normal form, verdict) as the engine-internal reduction does.
    """
    opts = options or EngineOptions()
    basis = list(basis)
    engine = _Engine.__new__(_Engine)
    engine.division = division
    engine.order = order
    engine.options = opts
    engine.deflect = _resolve_deflect(opts, division)
    engine.cover = _resolve_cover(opts, division)
    engine.stats = Stats()
    engine.diagnostics = {
        "global_sig_violations": 0,
        "same_index_sig_violations": 0,
        "sig_merges": 0,
        "purged_t": 0,
        "killed_q": 0,
        "deflections": 0,
    }
    engine.gens = [sp.poly for sp in basis] or [p.poly]
    engine.k = max([p.sig.index] + [sp.sig.index for sp in basis])
    engine._uid = itertools.count()
    engine._seq = itertools.count()
    engine._anc_ids = itertools.count()
    engine._heap = []
    engine._sig_best = {}
    engine._queued = {}
    engine.archive = archive
    engine.syzygies = []
    engine.records = []
    engine.T = basis
    engine._refresh_partition()
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
    """Full involutive reduction against a fixed set G: the set is checked,
    partitioned and ranked once, for any number of normal forms."""

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

    def nf(self, f: Polynomial) -> Polynomial:
        allows = self.partition.allows
        h = f
        rem = []
        while not h.is_zero:
            hit = None
            hit_u = None
            hlm = h.lm
            for g in self.ranked:
                u = mono_div(hlm, g.lm)
                if u is not None and allows(g.lm, u):
                    hit, hit_u = g, u
                    break
            if hit is None:
                rem.append(h.lt)
                h = h.drop_lt()
            else:
                h = h.sub_mul_term(h.lc / hit.lc, hit_u, hit)
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
    wanted = minimal_completion(division, gens, order)
    missing = [m for m in wanted if m not in by_lm]
    if missing:
        raise UsageError(
            "cannot extract a minimal basis: the input is not involutively "
            "complete (no element with head %r)" % (missing[0],)
        )
    return [by_lm[m] for m in sorted(wanted, key=order.key)]


def inv_bas(
    F,
    division: Division,
    order: Ordering,
    options: EngineOptions | None = None,
) -> CompletionResult:
    """Plain involutive completion without signatures.

    Repeatedly normal-forms the smallest queued element, displaces basis
    members whose heads become properly divisible, and queues every fresh
    nonmultiplicative prolongation after each basis change.
    """
    del options  # accepted for interface symmetry; nothing to tune here
    start = time.perf_counter()
    polys = _check_inputs(F, division, order)
    stats = Stats()
    queue: list[Polynomial] = [f.monic() for f in polys]
    for f in queue:
        if f.degree > stats.max_deg:
            stats.max_deg = f.degree
    G: list[Polynomial] = []

    def pop_minimal() -> Polynomial:
        lms = [q.lm for q in queue]
        best = None
        for i, q in enumerate(queue):
            if any(m != q.lm and m.divides(q.lm) for m in lms):
                continue
            if best is None or (order.key(q.lm), i) < (order.key(queue[best].lm), best):
                best = i
        if best is None:
            best = min(range(len(queue)), key=lambda i: (order.key(queue[i].lm), i))
        return queue.pop(best)

    while queue:
        p = pop_minimal()
        if p.degree > stats.max_deg:
            stats.max_deg = p.degree
        h = nf_full(p, G, division, order) if G else p
        if h.is_zero:
            stats.reds += 1
            continue
        if h.degree > stats.max_deg:
            stats.max_deg = h.degree
        h = h.monic()
        displaced = [g for g in G if g.lm != h.lm and h.lm.divides(g.lm)]
        G = [g for g in G if g not in displaced]
        queue.extend(displaced)
        G.append(h)
        part = division.partition([g.lm for g in G])
        n = order.vars.n
        for g in G:
            for i in sorted(part.nonmult(g.lm)):
                cand = g.mul_term(1, mono_var(i, n))
                if cand not in queue:
                    queue.append(cand)

    stats.polys_loop = len(G)
    basis = min_bas(G, division, order)
    stats.polys_min = len(basis)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CompletionResult(
        basis=basis,
        stats=stats,
        loop_basis=list(G),
        sorted_input=[f.monic() for f in polys],
    )
