"""Exact-rational polynomial tuples, the jet map, and membership equivalence.

The jet of a tuple (f_1, ..., f_m) with multiplicity bound n is the mn-tuple
whose k-th block is (f_k, f_k + f_k', ..., f_k + f_k^{(n-1)}).  Added
derivatives have degree < d, so every jet entry stays monic of degree d.  A
point kills a whole block exactly when it kills f_k and its first n-1
derivatives, i.e. is a root of f_k of multiplicity >= n; so the tuple has a
common root of multiplicity >= n precisely when the jet entries have a plain
common root.  Polynomials are :class:`polystab.poly.Poly` with modulus 0.
Characteristic zero only: the derivative criterion below needs it (prime
fields are handled by factorization in :mod:`polystab.ffield`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .poly import Poly, poly_gcd

# share of random_tuple_suite's tuples built with a common root of multiplicity n
DEGENERATE_RATE = 0.35


@dataclass(frozen=True)
class QTuple:
    """m monic rational polynomials of common degree d, multiplicity bound n."""

    entries: tuple[Poly, ...]
    d: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m != len(self.entries) or self.m < 1:
            raise ValueError("entry count must match m >= 1")
        if self.n < 1 or self.d < 1:
            raise ValueError("d and n must be positive")
        if (self.m, self.n) == (1, 1):
            raise ValueError("(m, n) = (1, 1) is excluded")
        for f in self.entries:
            if f.p != 0:
                raise ValueError("entries must have rational coefficients (modulus 0)")
            if not f.is_monic or f.degree != self.d:
                raise ValueError(f"entries must be monic of degree {self.d}")


def jet_map(t: QTuple) -> list[Poly]:
    """The mn jet entries, block k being f_k plus its first n-1 derivatives."""
    out = []
    for f in t.entries:
        out.append(f)
        for order in range(1, t.n):
            out.append(f + f.derivative(order))
    return out


def q_membership_poly(t: QTuple) -> bool:
    """True when the entries have no common root of multiplicity >= n in Q-bar.

    The common roots of the tuple are the roots of g = gcd(f_1, ..., f_m);
    in characteristic zero one of multiplicity >= n survives in every
    derivative g^{(j)}, j < n, so the condition is gcd(g, g', ..., g^{(n-1)})
    being constant.
    """
    g = t.entries[0]
    for f in t.entries[1:]:
        g = poly_gcd(g, f)
        if g.degree == 0:
            return True
    if g.degree == 0:
        return True
    h = g
    for order in range(1, t.n):
        h = poly_gcd(h, g.derivative(order))
        if h.degree == 0:
            return True
    return h.degree == 0


def q_membership_hol(polys) -> bool:
    """True when the (monic, common-degree) polynomials have no common root at all."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    g = polys[0]
    for f in polys[1:]:
        g = poly_gcd(g, f)
        if g.degree == 0:
            return True
    return g.degree == 0


@dataclass(frozen=True)
class JetEquivalenceReport:
    poly_member: bool
    jet_hol_member: bool
    jet: tuple[Poly, ...]

    @property
    def agree(self) -> bool:
        return self.poly_member == self.jet_hol_member


def jet_equivalence_check(t: QTuple) -> JetEquivalenceReport:
    """Membership on both sides of the jet, the agreement flag, and the jet itself."""
    jet = tuple(jet_map(t))
    return JetEquivalenceReport(q_membership_poly(t), q_membership_hol(jet), jet)


def random_qtuple(
    rng: random.Random, d: int, m: int, n: int, *, force_degenerate: bool = False
) -> QTuple:
    """A random monic tuple with small integer coefficients.

    Degenerate tuples share the factor (z - a)^n, which plants a common root
    of multiplicity >= n; uniform tuples are almost surely coprime, so the
    false branch needs this forcing.
    """
    def random_monic(degree: int) -> Poly:
        return Poly(0, [rng.randint(-3, 3) for _ in range(degree)] + [1])

    if force_degenerate:
        if d < n:
            raise ValueError("degenerate tuples need d >= n")
        common = Poly.from_roots(0, [rng.randint(-3, 3)] * n)
        entries = tuple(common * random_monic(d - n) for _ in range(m))
    else:
        entries = tuple(random_monic(d) for _ in range(m))
    return QTuple(entries, d, m, n)


def random_tuple_suite(count: int, seed: int = 2024) -> list[QTuple]:
    """Deterministic mixed sample over d <= 6, m <= 3, n <= 3, (m, n) != (1, 1);
    a share ``DEGENERATE_RATE`` of the tuples has a planted common root."""
    rng = random.Random(seed)
    tuples = []
    for _ in range(count):
        degenerate = rng.random() < DEGENERATE_RATE
        while True:
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            if (m, n) != (1, 1):
                break
        d = rng.randint(n, 6) if degenerate else rng.randint(1, 6)
        tuples.append(random_qtuple(rng, d, m, n, force_degenerate=degenerate))
    return tuples
