"""Finitely generated abelian groups, graded by degree.

Every homology computation in this package reports its answer as a
:class:`GradedAbelianGroup`: one :class:`AbelianGroup` per degree, each stored
as a free rank plus invariant factors in divisibility order.  Vector spaces
over Q or F_p use the same container, with the dimension in ``free_rank`` and
no torsion.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import gcd

from .rings import Value


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Normal form of a finite direct sum of cyclic groups.

    One sweep over the pairs i < j replaces (a_i, a_j) by (gcd, lcm), which keeps
    the group (Z/a + Z/b = Z/gcd + Z/lcm) and leaves a_i dividing every later
    order; the 1s, all at the front, are then dropped.

    >>> invariant_factors([2, 3])
    (6,)
    >>> invariant_factors([4, 2, 2])
    (2, 2, 4)
    """
    slots = list(orders)
    for n in slots:
        if n <= 0:
            raise ValueError(f"cyclic order must be positive, got {n}")
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            a, b = slots[i], slots[j]
            g = gcd(a, b)
            slots[i], slots[j] = g, a // g * b
    return tuple(n for n in slots if n > 1)


class AbelianGroup(Value):
    """Z^free_rank plus cyclic factors Z/t for t in ``torsion`` (each divides the next)."""

    __slots__ = ("free_rank", "torsion")
    _defaults = {"free_rank": 0, "torsion": ()}

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for t in self.torsion:
            if t <= 1:
                raise ValueError(f"torsion orders must exceed 1, got {t}")
            if prev is not None and t % prev != 0:
                raise ValueError(f"torsion {self.torsion} is not in divisibility order")
            prev = t

    @classmethod
    def from_orders(cls, free_rank: int = 0, orders: Iterable[int] = ()) -> "AbelianGroup":
        """Build from an arbitrary multiset of cyclic orders, normalizing the torsion."""
        return cls(free_rank, invariant_factors(orders))

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroup") -> "AbelianGroup":
        groups = (self, *others)  # normalized once, however many summands
        return AbelianGroup.from_orders(sum(g.free_rank for g in groups), [t for g in groups for t in g.torsion])

    def p_torsion_count(self, p: int) -> int:
        return sum(1 for t in self.torsion if t % p == 0)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = AbelianGroup()


class GradedAbelianGroup:
    """A degreewise family of abelian groups; absent degrees are zero.

    >>> g = GradedAbelianGroup({0: (1, ()), 2: (0, (2,))})
    >>> str(g.group(2))
    'Z/2'
    >>> g.shift(3).degrees()
    (3, 5)
    """

    __slots__ = ("_groups",)

    def __init__(self, groups: Mapping[int, AbelianGroup | tuple] | None = None):
        data: dict[int, AbelianGroup] = {}
        for deg, val in (groups or {}).items():
            grp = val if isinstance(val, AbelianGroup) else AbelianGroup(val[0], tuple(val[1]))
            if not grp.is_zero:
                data[int(deg)] = grp
        self._groups = data

    def group(self, degree: int) -> AbelianGroup:
        return self._groups.get(degree, ZERO_GROUP)

    def free_rank(self, degree: int) -> int:
        return self.group(degree).free_rank

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self.group(degree).torsion

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._groups))

    @property
    def is_zero(self) -> bool:
        return not self._groups

    def top_degree(self) -> int | None:
        return max(self._groups) if self._groups else None

    def shift(self, offset: int) -> "GradedAbelianGroup":
        return GradedAbelianGroup({d + offset: g for d, g in self._groups.items()})

    def direct_sum(self, *others: "GradedAbelianGroup") -> "GradedAbelianGroup":
        """Collect each degree's summands over all the groups, then normalize each degree once."""
        parts: dict[int, list[AbelianGroup]] = {}
        for graded in (self, *others):
            for d, g in graded._groups.items():
                parts.setdefault(d, []).append(g)
        return GradedAbelianGroup({d: g.direct_sum(*rest) for d, (g, *rest) in parts.items()})

    def dims(self, through: int) -> list[int]:
        """Free ranks in degrees 0..through (the dimensions, for field tables)."""
        return [self.free_rank(d) for d in range(through + 1)]

    def dim_mod(self, degree: int, p: int) -> int:
        """dim_Fp in degree ``degree`` of an integral table reduced mod p.

        Universal coefficients: rank plus p-torsion here plus p-torsion one
        degree down (the Tor term).
        """
        return (
            self.free_rank(degree)
            + self.group(degree).p_torsion_count(p)
            + self.group(degree - 1).p_torsion_count(p)
        )

    def to_payload(self) -> dict[str, list]:
        return {
            str(d): [g.free_rank, list(g.torsion)] for d, g in sorted(self._groups.items())
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, list]) -> "GradedAbelianGroup":
        groups = {}
        for key, (rank, torsion) in payload.items():
            if type(rank) is not int or any(type(t) is not int for t in torsion):  # bools fail too
                raise ValueError(f"degree {key} holds a value that is not an integer")
            groups[int(key)] = AbelianGroup(rank, tuple(torsion))
        return cls(groups)

    def describe(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(f"H_{d} = {g}" for d, g in sorted(self._groups.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedAbelianGroup):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._groups.items())))

    def __repr__(self) -> str:
        return f"GradedAbelianGroup({self.describe()})"
