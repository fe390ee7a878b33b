"""Signatures over the free module and the zero-reduction criteria.

A signature is a monomial times a basis vector e_i of the free module over
the polynomial ring; it records where in the module a partial result came
from.  The module ordering is position-over-term with *higher* index
smaller: signatures on e_k are processed before any on e_1, matching the
incremental structure the criteria rely on.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    GREATER,
    LESS,
    Monomial,
    Ordering,
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


def sig_sort_key(order: Ordering, s: Signature):
    """Ascending sort under this key agrees with `sig_cmp`."""
    return (-s.index, order.key(s.mono))


class SigPoly:
    """A polynomial labelled with its signature and reduction ancestry.

    `anc_lm` is the head of the basis element this one descends from by
    prolongations and tail work; an element whose head changed starts a
    fresh ancestry.  `cofactors` (optional) expresses the polynomial
    exactly as a combination of the original generators.  Which
    prolongations are due is not kept here: the engine takes them from
    what the partition reports as widened at each insertion.
    """

    __slots__ = ("sig", "poly", "anc_lm", "cofactors")

    def __init__(
        self,
        sig: Signature,
        poly: Polynomial,
        anc_lm: Monomial,
        cofactors: tuple[Polynomial, ...] | None = None,
    ):
        self.sig = sig
        self.poly = poly
        self.anc_lm = anc_lm
        self.cofactors = cofactors

    def __repr__(self) -> str:
        return "<SigPoly sig=(%s, e%d) lm=%s>" % (
            self.sig.mono.exps,
            self.sig.index,
            "0" if self.poly.is_zero else str(self.poly.lm.exps),
        )


class LMArchive:
    """Leading monomials recorded per module position, in arrival order.

    Position i starts with the leading monomial of the i-th generator; the
    completion appends every new head it certifies.  The divisor scan that
    powers the signature criterion looks only at positions strictly after
    the signature's own.
    """

    __slots__ = ("columns",)

    def __init__(self, seed_lms):
        cols = [list(col) for col in seed_lms]
        if not cols or any(not col for col in cols):
            raise UsageError("archive needs one seed leading monomial per position")
        self.columns = cols

    @property
    def k(self) -> int:
        return len(self.columns)

    def record(self, index: int, lm: Monomial) -> None:
        if not 1 <= index <= self.k:
            raise UsageError("archive position %d out of range" % index)
        col = self.columns[index - 1]
        if lm not in col:
            col.append(lm)

    def divisor_above(self, index: int, m: Monomial) -> Monomial | None:
        """First recorded head at any position later than `index` (hence at a
        smaller module position under the ordering) dividing m."""
        for j in range(index, self.k):
            for t in self.columns[j]:
                if t.divides(m):
                    return t
        return None


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


def criteria(p: SigPoly, q: SigPoly, archive: LMArchive | None) -> Verdict:
    """Decide whether reducing the head of p by q is provably redundant.

    Checked in precedence order: super-top-reduction (the reduction would
    reproduce p's own signature), the two ancestor criteria C1/C2, then the
    signature criterion against heads recorded at later module positions.
    """
    if p.poly.is_zero or q.poly.is_zero:
        raise UsageError("criteria need nonzero polynomials")
    u = mono_div(p.poly.lm, q.poly.lm)
    if u is None:
        raise UsageError("criteria expect the head of q to divide the head of p")

    if sig_mul(u, q.sig) == p.sig:
        return Verdict.SUPER

    verdict = ancestor_criteria(p.poly.lm, p.anc_lm, q.anc_lm)
    if verdict is not Verdict.NONE:
        return verdict

    if archive is not None and archive.divisor_above(p.sig.index, p.sig.mono) is not None:
        return Verdict.F5

    return Verdict.NONE
