"""Polynomials in one variable over Q or a prime field F_p.

``Poly(p, coeffs)`` stores coefficients constant term first.  Modulus 0 means
Q with exact rational coefficients (``Fraction``, or ``int`` where a result was
built from ints), the convention of :func:`polystab.linalg.eliminate`; a prime
p means F_p with coefficients in 0..p-1.  The constructor checks the prime
once, when a caller builds a polynomial; arithmetic results are built by
:func:`_poly`, which only reduces and strips trailing zeros, since their
operands already carried a checked modulus.
"""

from __future__ import annotations

from itertools import zip_longest

from .rings import is_prime


def _rational(c):
    from fractions import Fraction  # only Q needs it: work over F_p (the count command) never loads it
    return Fraction(c)


class Poly:
    """A polynomial over Q (p = 0) or F_p (p prime), constant term first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if p != 0 and not is_prime(p):
            raise ValueError(f"modulus must be 0 (for Q) or a prime, got {p}")
        self.p = p
        self.coeffs = _reduce(p, list(coeffs) if p else [_rational(c) for c in coeffs])

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls(p, (1,))

    @classmethod
    def from_roots(cls, p: int, roots) -> "Poly":
        """The monic polynomial prod (z - r) over the given roots."""
        out = cls.one(p)
        for r in roots:
            out = out * _poly(p, [-out._scalar(r), 1])
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _modulus(self, other: "Poly") -> int:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        return self.p

    def _scalar(self, c):
        """``c`` as an element of this polynomial's coefficient field."""
        return c % self.p if self.p else _rational(c)

    def _inverse(self, c):
        return pow(c, -1, self.p) if self.p else 1 / _rational(c)

    def __add__(self, other: "Poly") -> "Poly":
        p = self._modulus(other)
        return _poly(p, [a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other: "Poly") -> "Poly":
        p = self._modulus(other)
        if self.is_zero or other.is_zero:
            return _poly(p, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _poly(p, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        p = self._modulus(other)
        div = other.coeffs
        if not div:
            raise ZeroDivisionError("polynomial division by zero")
        low = len(div) - 1
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - low, 0)
        inv = self._inverse(div[-1])
        # Over F_p a remainder entry is reduced only when it is read as a
        # leading coefficient, and the entries at and above ``low`` vanish.
        for shift in range(len(rem) - low - 1, -1, -1):
            c = rem[shift + low] * inv
            if p:
                c %= p
            if c:
                quot[shift] = c
                for i in range(low):
                    rem[shift + i] -= c * div[i]
        return _poly(p, quot), _poly(p, rem[:low])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        inv = self._inverse(self.coeffs[-1])
        return _poly(self.p, [c * inv for c in self.coeffs])

    def derivative(self, order: int = 1) -> "Poly":
        coeffs = list(self.coeffs)
        for _ in range(order):
            coeffs = [i * c for i, c in enumerate(coeffs)][1:]
        return _poly(self.p, coeffs)

    def pth_root(self) -> "Poly":
        """Inverse of Frobenius over F_p: defined when only exponents divisible by p appear."""
        p = self.p
        if not p:
            raise ValueError("p-th roots need a prime modulus")
        if any(c and i % p for i, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        # a^(1/p) = a on F_p, so just drop to every p-th coefficient
        return _poly(p, list(self.coeffs[::p]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly(p={self.p}, coeffs={[str(c) for c in self.coeffs]})"


def _reduce(p: int, coeffs: list) -> tuple:
    """Coefficients reduced mod p (for p > 0) with trailing zeros stripped."""
    if p:
        coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly(p: int, coeffs: list) -> Poly:
    """An arithmetic result over a modulus some operand already checked."""
    out = object.__new__(Poly)
    out.p = p
    out.coeffs = _reduce(p, coeffs)
    return out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over the common field; gcd(f, 0) is the monic normalization of f."""
    f._modulus(g)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()
