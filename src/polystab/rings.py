"""Coefficient rings for exact homology: the integers, the rationals, and prime fields."""

from __future__ import annotations

from dataclasses import dataclass


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest strong pseudoprime to all of the bases above (Sorenson-Webster 2015):
# below it, Miller-Rabin with those bases decides primality exactly.
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes up to 41, then Miller-Rabin
    with those 13 bases.  Raises ValueError past :data:`MILLER_RABIN_BOUND`
    for a number with no small factor, where the test would not be exact."""
    if n < 4:
        return n > 1
    for q in _SMALL_PRIMES:
        if q * q > n:
            return True
        if n % q == 0:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"primality of {n} is only decided below {MILLER_RABIN_BOUND}"
        )
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Ring:
    """One of Z, Q, or F_p, identified by its label ("Z", "Q", "F<p>")."""

    label: str
    p: int | None = None

    @property
    def is_field(self) -> bool:
        return self.label != "Z"

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __str__(self) -> str:
        return self.label


Z = Ring("Z")
Q = Ring("Q")

_FIELD_CACHE: dict[int, Ring] = {}


def GF(p: int) -> Ring:
    """The prime field with p elements."""
    if p not in _FIELD_CACHE:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        _FIELD_CACHE[p] = Ring(f"F{p}", p)
    return _FIELD_CACHE[p]


def parse_ring(text: str) -> Ring:
    """Parse a ring label: "z", "q", "f2", "f3", ... (case-insensitive)."""
    t = text.strip().lower()
    if t == "z":
        return Z
    if t == "q":
        return Q
    if t.startswith("f") and t[1:].isdigit():
        return GF(int(t[1:]))
    raise ValueError(f"unknown ring {text!r} (expected z, q, or f<prime>)")
