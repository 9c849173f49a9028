"""Common-root multiplicity tests and point counts over prime fields.

Polynomials are :class:`polystab.poly.Poly` with a prime modulus.  A tuple of
monic polynomials belongs to the degree-d multiplicity-n locus over F_p
exactly when no irreducible power q^n divides the gcd of its entries, i.e.
when the gcd's squarefree decomposition sees no multiplicity >= n.  The
decomposition is the characteristic-p-correct one: whenever the derivative
dies, a p-th root is extracted explicitly, so multiplicities divisible by p
are handled exactly (a naive iterated-derivative test would not be).

Point counts enumerate the p^d first entries f_1 and count the other entries
by inclusion-exclusion over the irreducibles pi with pi^n | f_1, a derivation
that shares no step with the h^n * g factorisation of :func:`closed_form_count`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .poly import Poly, poly_gcd
from .rings import is_prime

DEFAULT_ENUMERATION_BUDGET = 10**7


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
        if g.degree == 0:
            return 0
    if g.degree == 0:
        return 0
    return max(squarefree_multiplicities(g))


def is_member(t: FpTuple) -> bool:
    """True when no common root in the algebraic closure has multiplicity >= n."""
    return max_common_multiplicity(t) < t.n


def iter_monic(p: int, d: int):
    """All monic degree-d polynomials over F_p in lexicographic coefficient order."""
    for lower in product(range(p), repeat=d):
        yield Poly(p, (*lower, 1))


def factor_degrees(f: Poly) -> list[int]:
    """Degrees of the irreducible factors of a squarefree monic f over F_p, by
    distinct-degree factorisation: once the factors of degree < i are divided
    out, gcd(f, z^(p^i) - z) is the product of those of degree i."""
    z, degrees, i = Poly(f.p, (0, 1)), [], 0
    power = z
    while f.degree >= 2 * (i + 1):  # else f is 1 or irreducible
        i, base = i + 1, power
        for bit in bin(f.p)[3:]:  # power <- power^p mod f by square-and-multiply
            power = power * power % f
            if bit == "1":
                power = power * base % f
        g = poly_gcd(f, power - z)
        degrees += [i] * (g.degree // i)
        f = f // g
    return degrees + [f.degree] if f.degree > 0 else degrees


def count_points(
    d: int, m: int, n: int, p: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """Exact number of member tuples over F_p, enumerating the p^d first entries.

    A member f_1 completes with all p^((m-1)d) (m-1)-tuples.  Otherwise the
    tuple fails iff pi_i^n divides every other entry for one of the distinct
    irreducibles pi_1..pi_r with pi_i^n | f_1.  A monic degree-d g is divisible
    by a monic h in p^(d - deg h) ways, so inclusion-exclusion over subsets S
    of the pi_i counts the completions as, with R = prod_i pi_i,
        sum_S (-1)^|S| p^((m-1)(d - n deg prod S))
          = p^((m-1)(d - n deg R)) prod_i (p^((m-1) n deg pi_i) - 1).
    """
    if d < 1 or m < 1 or n < 1:
        raise ValueError("d, m, n must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    firsts = p**d
    if firsts > budget:
        raise ValueError(f"enumeration of {firsts} first entries exceeds the budget {budget}; "
                         f"raise the budget to at least {firsts}")
    if n > d:
        return p ** (d * m)  # no degree-d polynomial has a root of multiplicity > d
    count, rest = 0, p ** (m - 1)
    for f in iter_monic(p, d):
        if is_member(FpTuple((f,), d, 1, n, p)):
            count += rest**d
        elif m > 1:  # for m = 1 each factor rest^(n deg pi) - 1 is 0
            high = [g for k, g in squarefree_multiplicities(f).items() if k >= n]
            degrees = [e for g in high for e in factor_degrees(g)]
            count += rest ** (d - n * sum(degrees)) * prod(rest ** (n * e) - 1 for e in degrees)
    return count


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
    return q ** (d * m) - q ** (d * m - m * n + 1)
