"""Common-root multiplicity tests and point counts over prime fields.

Polynomials are :class:`polystab.poly.Poly` with a prime modulus.  A tuple of
monic polynomials belongs to the degree-d multiplicity-n locus over F_p
exactly when no irreducible power q^n divides the gcd of its entries, i.e.
when the gcd's squarefree decomposition sees no multiplicity >= n.  The
decomposition is the characteristic-p-correct one: whenever the derivative
dies, a p-th root is extracted explicitly, so multiplicities divisible by p
are handled exactly (a naive iterated-derivative test would not be).

Point counts sieve the p^d first entries f_1 by the n-th powers of the monic
irreducibles, listed by a sieve of Eratosthenes, and count the other entries
by inclusion-exclusion over the irreducibles pi with pi^n | f_1, a derivation
that shares no step with the h^n * g factorisation of :func:`closed_form_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .poly import Poly, _poly, poly_gcd
from .rings import is_prime

DEFAULT_ENUMERATION_BUDGET = 10**5


def squarefree_multiplicities(f: Poly) -> dict[int, Poly]:
    """Squarefree decomposition of a monic polynomial, multiplicity -> factor.

    The returned factors are squarefree, pairwise coprime, monic, and satisfy
    f = prod factor^multiplicity.  Correct in characteristic p: when every
    surviving factor has multiplicity divisible by p the remaining part is a
    p-th power and recursion continues on its p-th root.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    f = f.monic()
    out: dict[int, Poly] = {}
    scale = 1
    while f.degree > 0:
        deriv = f.derivative()
        if deriv.is_zero:
            f = f.pth_root()
            scale *= f.p
            continue
        c = poly_gcd(f, deriv)
        w = f // c
        i = 1
        while w.degree > 0:
            y = poly_gcd(w, c)
            factor = w // y
            if factor.degree > 0:
                key = i * scale
                out[key] = out[key] * factor if key in out else factor
            w = y
            c = c // y
            i += 1
        f = c  # multiplicities divisible by p remain; loop extracts the root
    return out


@dataclass(frozen=True)
class FpTuple:
    """m monic polynomials of common degree d over F_p, with multiplicity bound n."""

    entries: tuple[Poly, ...]
    d: int
    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.m != len(self.entries) or self.m < 1:
            raise ValueError("entry count must match m >= 1")
        if self.n < 1:
            raise ValueError("n must be positive")
        for f in self.entries:
            if f.p != self.p:
                raise ValueError("entries must share the tuple's prime")
            if not f.is_monic or f.degree != self.d:
                raise ValueError(f"entries must be monic of degree {self.d}")


def max_common_multiplicity(t: FpTuple) -> int:
    """Largest e with q^e dividing gcd of the entries for some irreducible q."""
    g = t.entries[0]
    for f in t.entries[1:]:
        g = poly_gcd(g, f)
    return max(squarefree_multiplicities(g)) if g.degree > 0 else 0


def is_member(t: FpTuple) -> bool:
    """True when no common root in the algebraic closure has multiplicity >= n."""
    return max_common_multiplicity(t) < t.n


def _times_monic(h: Poly, k: int) -> list[int]:
    """Codes of h * g for the p^k monic g of degree k.

    A code packs the coefficients, constant term first, into s-bit fields with
    2^(s-1) >= p.  A field of a sum of two codes is >= p iff adding 2^(s-1) - p
    sets its top bit, so codes add mod p in a few integer operations.
    """
    p, s = h.p, (h.p - 1).bit_length() + 1
    out = [sum(a << s * (i + k) for i, a in enumerate(h.coeffs))]
    ones = sum(1 << s * i for i in range(h.degree + k + 1)) if k else 0
    lift, top = ((1 << s - 1) - p) * ones, (1 << s - 1) * ones
    for i in range(k):  # add c * h * z^i, c = 1..p-1, to every code so far
        shifted = [sum(c * a % p << s * (i + j) for j, a in enumerate(h.coeffs)) for c in range(1, p)]
        out += [(t := v + w) - (((t + lift) & top) >> s - 1) * p for w in shifted for v in out]
    return out


def _monic_irreducibles(p: int, top: int) -> list[list[Poly]]:
    """The monic irreducibles over F_p of each degree 0..top, by a sieve: one of
    degree e is reducible iff it is u * g with u irreducible, 1 <= deg u <= e/2."""
    found, s = [[]], (p - 1).bit_length() + 1
    for e in range(1, top + 1):
        reducible = {code for a in range(1, e // 2 + 1) for u in found[a] for code in _times_monic(u, e - a)}
        found.append([_poly(p, [code >> s * i & (1 << s) - 1 for i in range(e + 1)])
                      for code in _times_monic(_poly(p, [1]), e) if code not in reducible])
    return found


def count_points(d: int, m: int, n: int, p: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Exact number of member tuples over F_p, sieving the p^d first entries.

    Each monic irreducible pi of degree e <= d/n marks the first entries pi^n * g.
    An unmarked f_1 completes with all rest^d (m-1)-tuples, rest = p^(m-1); a
    marked one fails iff pi^n divides every other entry for a pi that marked it.
    A monic degree-d g is divisible by a monic h in p^(d - deg h) ways, so
    inclusion-exclusion over the pi_i that marked f_1 counts its completions as
        rest^(d - n sum_i deg pi_i) prod_i (rest^(n deg pi_i) - 1),
    which is 0 for m = 1.
    """
    if d < 1 or m < 1 or n < 1:
        raise ValueError("d, m, n must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    firsts = p**d if d < 2 * budget.bit_length() else f"{p}^{d}"  # a huge p^d is named, not computed
    if d >= budget.bit_length() or firsts > budget:  # the first gives p^d >= 2^d > budget
        raise ValueError(f"enumeration of {firsts} first entries exceeds the budget {budget}; "
                         f"raise the budget to at least {firsts}")
    if n > d:
        return p ** (d * m)  # no degree-d polynomial has a root of multiplicity > d
    # a marked entry keeps its completions: rest^d times 1 - rest^(-ne) for each pi
    # of degree e that marked it, exact in integers as those pi^n are coprime divisors
    rest, completions = p ** (m - 1), {}
    for e, irreducibles in enumerate(_monic_irreducibles(p, d // n)):
        for pi in irreducibles:
            for code in _times_monic(prod([pi] * (n - 1), start=pi), d - n * e):
                c = completions.get(code, rest**d)
                completions[code] = c - c // rest ** (n * e)
    return (p**d - len(completions)) * rest**d + sum(completions.values())


def closed_form_count(d: int, m: int, n: int, q: int) -> int:
    """q^{dm} for d < n, else q^{dm} - q^{dm-mn+1}.

    Derivation (cf. Farb-Wolfson, arXiv:1506.02713): every m-tuple of monic
    degree-d polynomials factors uniquely as h^n * (g_1, ..., g_m), with h the
    largest monic polynomial whose n-th power divides every entry; the g's then
    form a member tuple of degree d - n deg h, and each degree e has q^e monic
    h.  So q^{md} = sum_e q^e N(d - ne) with N(0) = 1, i.e.
    1/(1 - q^m t) = Z(t)/(1 - q t^n) for Z(t) = sum_d N(d) t^d, which gives
    Z(t) = (1 - q t^n)/(1 - q^m t) and the coefficients above.
    """
    if d < 1 or m < 1 or n < 1 or q < 2:
        raise ValueError("need d, m, n >= 1 and q >= 2")
    if d < n:
        return q ** (d * m)
    return q ** (d * m) - q ** (d * m - m * n + 1) if m * n > 1 else 0  # never q^d - q^d
