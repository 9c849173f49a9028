"""Polynomials over prime fields, common-root multiplicity tests, and point counts.

A tuple of monic polynomials belongs to the degree-d multiplicity-n locus over
F_p exactly when no irreducible power q^n divides the gcd of its entries, i.e.
when the gcd's squarefree decomposition sees no multiplicity >= n.  The
decomposition is the characteristic-p-correct one: whenever the derivative
dies, a p-th root is extracted explicitly, so multiplicities divisible by p
are handled exactly (a naive iterated-derivative test would not be).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .rings import is_prime

DEFAULT_ENUMERATION_BUDGET = 10**7


class FpPoly:
    """A polynomial over F_p, coefficients constant-first and reduced mod p."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs, *, check: bool = True):
        if check:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            coeffs = [c % p for c in coeffs]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        self.p = p
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int) -> "FpPoly":
        return cls(p, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _coerce(self, other: "FpPoly") -> None:
        if not isinstance(other, FpPoly):
            raise TypeError(f"expected FpPoly, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] + c) % self.p
        return FpPoly(self.p, a)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] - c) % self.p
        return FpPoly(self.p, a)

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._coerce(other)
        if self.is_zero or other.is_zero:
            return FpPoly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = (out[i + j] + a * b) % self.p
        return FpPoly(self.p, out)

    def __divmod__(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        inv_lead = pow(other.coeffs[-1], -1, p)
        for shift in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[shift + len(other.coeffs) - 1]
            if c:
                factor = (c * inv_lead) % p
                quot[shift] = factor
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] = (rem[shift + i] - factor * b) % p
        return FpPoly(p, quot), FpPoly(p, rem)

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FpPoly":
        if self.is_zero or self.is_monic:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return FpPoly(self.p, [(c * inv) % self.p for c in self.coeffs])

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [(i * c) % self.p for i, c in enumerate(self.coeffs)][1:])

    def pth_root(self) -> "FpPoly":
        """Inverse of Frobenius: defined when only exponents divisible by p appear."""
        if any(c and i % self.p for i, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        # a^(1/p) = a on F_p, so just drop to every p-th coefficient
        return FpPoly(self.p, list(self.coeffs[:: self.p]))

    def evaluate(self, a: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.p
        return acc

    def shift_variable(self, c: int) -> "FpPoly":
        """The substitution z -> z + c."""
        out = FpPoly.zero(self.p)
        zc = FpPoly(self.p, (c, 1))
        for coeff in reversed(self.coeffs):
            out = out * zc + FpPoly(self.p, (coeff,))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}, coeffs={list(self.coeffs)})"


def fp_gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic gcd over F_p; gcd(f, 0) is the monic normalization of f."""
    if f.p != g.p:
        raise ValueError(f"mixed primes {f.p} and {g.p}")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_multiplicities(f: FpPoly) -> dict[int, FpPoly]:
    """Squarefree decomposition of a monic polynomial, multiplicity -> factor.

    The returned factors are squarefree, pairwise coprime, monic, and satisfy
    f = prod factor^multiplicity.  Correct in characteristic p: when every
    surviving factor has multiplicity divisible by p the remaining part is a
    p-th power and recursion continues on its p-th root.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    f = f.monic()
    out: dict[int, FpPoly] = {}
    scale = 1
    while f.degree > 0:
        deriv = f.derivative()
        if deriv.is_zero:
            f = f.pth_root()
            scale *= f.p
            continue
        c = fp_gcd(f, deriv)
        w = f // c
        i = 1
        while w.degree > 0:
            y = fp_gcd(w, c)
            factor = w // y
            if factor.degree > 0:
                key = i * scale
                out[key] = out.get(key, FpPoly.one(f.p)) * factor
            w = y
            c = c // y
            i += 1
        f = c  # multiplicities divisible by p remain; loop extracts the root
    return out


@dataclass(frozen=True)
class FpTuple:
    """m monic polynomials of common degree d over F_p, with multiplicity bound n."""

    entries: tuple[FpPoly, ...]
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
        g = fp_gcd(g, f)
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
        yield FpPoly(p, (*lower, 1), check=False)


def count_points(
    d: int, m: int, n: int, p: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """Exact number of member tuples over F_p by exhaustive enumeration."""
    if d < 1 or m < 1 or n < 1:
        raise ValueError("d, m, n must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = p ** (d * m)
    if total > budget:
        raise ValueError(
            f"enumeration of {total} tuples exceeds the budget {budget}; "
            f"raise the budget to at least {total}"
        )
    if n > d:
        return total  # no degree-d polynomial has a root of multiplicity > d
    count = 0
    polys = list(iter_monic(p, d))
    for entries in product(polys, repeat=m):
        if is_member(FpTuple(entries, d, m, n, p)):
            count += 1
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
