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
Both memberships take gcds of integer rows (each polynomial times the lcm of
its denominators) by primitive pseudo-remainders (Collins, J. ACM 14, 1967);
Euclid over Q, :func:`polystab.poly.poly_gcd`, is their test oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, perm

from .poly import Poly, _poly
from .rings import Value

# share of random_tuple_suite's tuples built with a common root of multiplicity n
DEGENERATE_RATE = 0.35


class QTuple(Value):
    """m monic rational polynomials of common degree d, multiplicity bound n."""

    __slots__ = ("entries", "d", "m", "n")

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


def _row(f: Poly) -> list[int]:
    """f times the lcm of its denominators, constant term first."""
    den = lcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (den // c.denominator) for c in f.coeffs]


def _derivative(row: list[int], order: int) -> list[int]:
    """The order-th derivative of an integer row, by falling factorials in one pass."""
    return [c * perm(k, order) for k, c in enumerate(row[order:], order)]


def _gcd(rows) -> list[int]:
    """gcd of integer rows up to a constant factor, stopping once it is constant: each step
    takes (a, b) to (b, the primitive part of the pseudo-remainder of lead(b)^e * a by b)."""
    rows = iter(rows)
    a = next(rows)
    for b in rows:
        if len(a) == 1:
            break
        while len(b) > 1:
            rem, lead = list(a), b[-1]
            for shift in range(len(rem) - len(b), -1, -1):
                c = rem.pop()
                if c:
                    rem = [lead * x for x in rem[:shift]] + [lead * x - c * y for x, y in zip(rem[shift:], b)]
            while rem and not rem[-1]:
                rem.pop()
            content = gcd(*rem)
            a, b = b, [x // content for x in rem] if content > 1 else rem
        if b:  # a nonzero constant: so is the gcd
            a = b
    return a


def jet_map(t: QTuple, *, _rows: list | None = None) -> list[Poly]:
    """The mn jet entries, block k being f_k plus its first n-1 derivatives, each built on f_k's integer
    row; a list passed as ``_rows`` receives every entry's integer row (the entry times a constant)."""
    out, rows = [], [] if _rows is None else _rows
    for f in t.entries:
        out.append(f)
        rows.append(row := _row(f))
        den = row[-1]
        for order in range(1, t.n):
            rows.append(entry := [c + dc for c, dc in zip_longest(row, _derivative(row, order), fillvalue=0)])
            out.append(_poly(0, entry if den == 1 else [Fraction(c, den) for c in entry]))
    return out


def _member(rows, n: int) -> bool:
    """True when the integer rows have no common root of multiplicity >= n in Q-bar: their common roots
    are those of g = gcd(rows), and in characteristic zero one of multiplicity >= n survives in
    every derivative g^{(j)}, j < n, so the condition is gcd(g, g', ..., g^{(n-1)}) being constant."""
    g = _gcd(rows)
    return len(g) == 1 or len(_gcd(_derivative(g, order) for order in range(n))) == 1


def q_membership_poly(t: QTuple) -> bool:
    """True when the entries have no common root of multiplicity >= n in Q-bar."""
    return _member(map(_row, t.entries), t.n)


def q_membership_hol(polys) -> bool:
    """True when the (monic, common-degree) polynomials have no common root at all."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    return _member(map(_row, polys), 1)


class JetEquivalenceReport(Value):
    __slots__ = ("poly_member", "jet_hol_member", "jet")

    @property
    def agree(self) -> bool:
        return self.poly_member == self.jet_hol_member


def jet_equivalence_check(t: QTuple) -> JetEquivalenceReport:
    """Membership on both sides of the jet, the agreement flag, and the jet itself."""
    rows: list[list[int]] = []  # each jet entry's integer row, f_k's own row first in block k
    jet = tuple(jet_map(t, _rows=rows))
    return JetEquivalenceReport(_member(rows[::t.n], t.n), _member(rows, 1), jet)


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
