"""Signatures over the free module and the zero-reduction criteria.

A signature is a monomial times a basis vector e_i of the free module over
the polynomial ring; it records where in the module a partial result came
from.  The module ordering is position-over-term with *higher* index
smaller: every signature on e_k comes before any on e_1.

The signature criterion (F5) takes the non-incremental G²V form (Gao,
Guan and Volny, ISSAC 2010): the head reduction of an element of signature
m*e_i is redundant when the head of a basis element at a later position
j > i divides m.  `criteria` reads the basis itself, filed by position.

The heads lm(g_j) of the sorted generators would add nothing.  Every
signature the engine creates is u*sig(t) for a basis element t, so the
seeded g_j is the first to pop at e_j, and it pops before anything at a
position i < j, whose signatures are all larger.  No basis element has
signature e_j then, so the cover check passes g_j, and any signature-safe
divisor t of lm(g_j) (u*sig(t) <= e_j) lies after position j.  Either none
exists, and the normal form keeps the head lm(g_j) and joins the basis at
position j, or t triggers a criterion or reduces the head.  Either way a
basis element at a position >= j has a head dividing lm(g_j) from then on.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import le

from .core import (
    GREATER,
    LESS,
    Monomial,
    Ordering,
    PendingTerms,
    Polynomial,
    UsageError,
    mono_div,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class Signature:
    """A module monomial m*e_index; indices are 1-based."""

    mono: Monomial
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise UsageError("signature index must be >= 1, got %d" % self.index)


def sig_mul(m: Monomial, s: Signature) -> Signature:
    return Signature(mono_mul(m, s.mono), s.index)


def sig_cmp(order: Ordering, s: Signature, t: Signature) -> int:
    """Compare signatures: higher index is smaller; ties fall back to the
    monomial ordering."""
    if s.index != t.index:
        return GREATER if s.index < t.index else LESS
    return order.cmp(s.mono, t.mono)


class SigPoly:
    """A polynomial labelled with its signature and reduction ancestry.

    The labelled polynomial is `poly`, or, for a queued prolongation, the
    product mono*poly, kept unbuilt: `mono` is the multiplier (None for any
    other element) and `poly` the basis element it prolongs.  A deflected
    or head-reduced combination is a plain `poly`, not made monic.
    `pending()` seeds a fresh accumulator with the labelled polynomial, and
    `value()` builds it.  `lm` is its head (None when it is zero) and `deg`
    its largest total degree (-1 when it is zero and no prolongation), both
    taken once here.  So are the order keys the engine compares: `sig_key`
    of the signature's monomial and `lm_key` of the head (None with it;
    poly's kept key when there is no multiplier).  `anc_lm` is the head of
    the basis element this one descends from by prolongations and tail
    work; an element whose head changed starts a fresh ancestry, and a
    combination is its own ancestor.  `cofactors` (optional) expresses the
    labelled polynomial exactly as a combination of the original
    generators.  Which prolongations are due is not kept here: the engine
    takes them from what the partition reports as widened at each
    insertion.
    """

    __slots__ = ("sig", "poly", "mono", "lm", "deg", "sig_key", "lm_key", "anc_lm", "cofactors")

    def __init__(
        self,
        sig: Signature,
        poly: Polynomial,
        anc_lm: Monomial,
        cofactors: tuple[Polynomial, ...] | None = None,
        mono: Monomial | None = None,
    ):
        self.sig = sig
        self.poly = poly
        self.mono = mono
        key = poly.order.key
        if poly.is_zero:
            self.lm = self.lm_key = None
        elif mono is None:
            self.lm = poly.lm
            self.lm_key = poly.key_row()[0]
        else:
            self.lm = mono_mul(poly.lm, mono)
            self.lm_key = key(self.lm)
        self.deg = poly.degree if mono is None else poly.degree + mono.deg
        self.sig_key = key(sig.mono)
        self.anc_lm = anc_lm
        self.cofactors = cofactors

    def pending(self) -> PendingTerms:
        """A fresh reduction accumulator holding the labelled polynomial."""
        return PendingTerms(self.poly, self.mono)

    def value(self) -> Polynomial:
        """The labelled polynomial, built."""
        return self.poly if self.mono is None else self.poly.mul_term(1, self.mono)

    def __repr__(self) -> str:
        return "<SigPoly sig=(%s, e%d) lm=%s>" % (
            self.sig.mono.exps,
            self.sig.index,
            "0" if self.lm is None else str(self.lm.exps),
        )


class Verdict(enum.Enum):
    """Why a head reduction was recognised as redundant, if it was."""

    NONE = "none"
    SUPER = "super"
    C1 = "c1"
    C2 = "c2"
    F5 = "f5"


def ancestor_criteria(lm: Monomial, anc_p: Monomial, anc_q: Monomial) -> Verdict:
    """C1/C2 for reducing the head `lm` of an element with ancestor `anc_p`
    by one with ancestor `anc_q`: `lm` is the product of the ancestors (C1),
    or their lcm properly divides `lm` (C2)."""
    if mono_mul(anc_p, anc_q) == lm:
        return Verdict.C1
    l = mono_lcm(anc_p, anc_q)
    if l != lm and l.divides(lm):
        return Verdict.C2
    return Verdict.NONE


def criteria(
    p: SigPoly, q: SigPoly, by_position: dict[int, list[tuple[Monomial, SigPoly]]]
) -> Verdict:
    """Decide whether reducing the head of p by q is provably redundant.

    Checked in precedence order: super-top-reduction (the reduction would
    reproduce p's own signature), the two ancestor criteria C1/C2, then the
    signature criterion: a basis element at a later position than p's, in
    `by_position` (position -> (head, element) pairs, as `_Engine` files
    them), has a head dividing the monomial of p's signature.
    """
    if p.lm is None or q.lm is None:
        raise UsageError("criteria need nonzero polynomials")
    u = mono_div(p.lm, q.lm)
    if u is None:
        raise UsageError("criteria expect the head of q to divide the head of p")

    if sig_mul(u, q.sig) == p.sig:
        return Verdict.SUPER

    verdict = ancestor_criteria(p.lm, p.anc_lm, q.anc_lm)
    if verdict is not Verdict.NONE:
        return verdict

    # Nearest positions first: on katsura4/alex that takes 31,141
    # divisibility tests, where the order of filing takes 34,714.  Each
    # head was read once, when filed.
    m, index = p.sig.mono, p.sig.index
    me, md = m.exps, m.deg
    for at, column in sorted(by_position.items()):
        if at > index:
            for h, _t in column:
                if h.deg <= md and all(map(le, h.exps, me)):
                    return Verdict.F5

    return Verdict.NONE
