"""Homology of polynomial-tuple and rational-map spaces assembled from the cell model.

The based rational-map space Hol_d(S^2, CP^{N-1}) splits stably into the
summands D_k, k = 1..d, the k-th shifted up by 2(N-2)k.  The space of
m-tuples of monic degree-d polynomials with no common root of multiplicity
>= n is, in homology, the rational-map space at (floor(d/n), mn), so its
table and first page are the rational-map ones reparametrised.  Everything
here is bookkeeping over :func:`polystab.braid.dk_homology`, plus the
first-page tables of the associated spectral sequences and the Poincare
series of the limiting double loop space.
"""

from __future__ import annotations

from .abelian import AbelianGroup, GradedAbelianGroup
from .braid import DEFAULT_K_MAX, SIGN, config_homology, dk_homology
from .cache import HomologyCache
from .rings import Ring, Value, Z

MN2_NOTE = "mn=2: identification with the limit space is stable/homology-level only"


class Params(Value):
    """Degree d, tuple length m, multiplicity bound n; (m, n) = (1, 1) is excluded."""

    __slots__ = ("d", "m", "n")

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 1 or self.n < 1:
            raise ValueError("d, m, n must all be positive")
        if (self.m, self.n) == (1, 1):
            raise ValueError("(m, n) = (1, 1) is excluded")

    @property
    def mn(self) -> int:
        return self.m * self.n

    @property
    def top_summand(self) -> int:
        return self.d // self.n


class HomologyTable(Value):
    """A complete graded homology answer (zero above the top recorded degree)
    with its ring and metadata notes."""

    __slots__ = ("groups", "ring", "notes")
    _defaults = {"notes": ()}

    def dims(self, through: int) -> list[int]:
        return self.groups.dims(through)


class PoincareSeries(Value):
    """Coefficients of a homology Poincare series, exact through ``truncation``."""

    __slots__ = ("coefficients", "truncation")

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.truncation + 1:
            raise ValueError("need one coefficient per degree 0..truncation")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("series coefficients are dimensions, hence nonnegative")

    def __getitem__(self, degree: int) -> int:
        if not 0 <= degree <= self.truncation:
            raise IndexError(f"degree {degree} outside exact range 0..{self.truncation}")
        return self.coefficients[degree]


def stability_dimension(d: int, m: int, n: int) -> int:
    """The dimension (2mn-3)(floor(d/n)+1)-1 through which the limit map is an equivalence."""
    p = Params(d, m, n)
    return (2 * p.mn - 3) * (p.top_summand + 1) - 1


def poly_homology(
    d: int,
    m: int,
    n: int,
    ring: Ring = Z,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
) -> HomologyTable:
    """Complete homology of the space of m-tuples of monic degree-d polynomials
    with no common root of multiplicity >= n.

    This is the rational-map table at (floor(d/n), mn).  For d < n that is
    the point's table: the space is an affine cell.
    """
    p = Params(d, m, n)
    table = hol_homology(p.top_summand, p.mn, ring, k_max=k_max, cache=cache)
    return table.replace(notes=(MN2_NOTE,)) if p.mn == 2 else table


def hol_homology(
    d: int,
    N: int,
    ring: Ring = Z,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
) -> HomologyTable:
    """Complete homology of the degree-d based rational-map space into CP^{N-1}.

    The direct sum of the point and the summands D_k, k = 1..d, each shifted
    up by 2(N-2)k.  Summand k contributes nothing below degree (2N-3)k, which
    makes the finite sum complete in every degree.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > k_max:
        raise ValueError(
            f"needs summands up to k={d}, beyond the configured bound {k_max}"
        )
    total = GradedAbelianGroup({0: AbelianGroup(1)})
    for k in range(1, d + 1):
        total = total.direct_sum(
            dk_homology(k, ring, k_max=k_max, cache=cache).shift(2 * (N - 2) * k)
        )
    return HomologyTable(total, ring)


class E1Page(Value):
    """First page of the discriminant spectral sequence, stored sparsely.

    Nonzero entries sit at (0, 0) and in columns 1 <= k <= k_top, where the
    entry at (k, s) is sign-twisted configuration homology in degree
    s - twist*k; that degree lives in 0..k-1, so each column is finite.
    """

    __slots__ = ("ring", "k_top", "twist", "entries")  # twist: 2(N-1); 2(mn-1) for the tuple space

    def __repr__(self) -> str:  # without the entries, which can run to thousands
        return f"E1Page(ring={self.ring!r}, k_top={self.k_top!r}, twist={self.twist!r})"

    def entry(self, k: int, s: int) -> AbelianGroup:
        return self.entries.get((k, s), AbelianGroup())

    def nonzero_cells(self) -> list[tuple[int, int]]:
        return sorted(self.entries)


def e1_page_poly(
    d: int,
    m: int,
    n: int,
    ring: Ring = Z,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
) -> E1Page:
    """First page converging to the tuple-space homology: the rational-map page
    at (floor(d/n), mn), so columns 1..floor(d/n) and twist 2(mn-1)."""
    p = Params(d, m, n)
    return e1_page_hol(p.top_summand, p.mn, ring, k_max=k_max, cache=cache)


def e1_page_hol(
    d: int,
    N: int,
    ring: Ring = Z,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
) -> E1Page:
    """First page for the rational-map space: columns 1..d, twist 2(N-1),
    entry (k, s) the sign-twisted homology of C_k in degree s - 2(N-1)k."""
    if N < 2:
        raise ValueError("need N >= 2")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > k_max:
        raise ValueError(
            f"first-page columns run to k={d}, beyond the configured bound {k_max}"
        )
    twist = 2 * (N - 1)
    entries: dict[tuple[int, int], AbelianGroup] = {(0, 0): AbelianGroup(1)}
    for k in range(1, d + 1):
        column = config_homology(k, SIGN, ring, k_max=k_max, cache=cache)
        for i in column.degrees():
            entries[(k, twist * k + i)] = column.group(i)
    return E1Page(ring, d, twist, entries)


def omega_series(
    N: int,
    ring: Ring,
    through: int,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
) -> PoincareSeries:
    """Poincare series of the double loop space of S^{2N-1} through ``through``.

    Degree j collects dim of the shifted summand D_k over all k >= 0; summand
    k starts in degree (2N-3)k, so the request is exact precisely when every
    k <= through/(2N-3) is inside the configured bound; larger requests are
    refused rather than silently truncated.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if not ring.is_field:
        raise ValueError("series dimensions need field coefficients (Q or F_p)")
    if through < 0:
        raise ValueError("through must be nonnegative")
    bound = (2 * N - 3) * (k_max + 1) - 1
    if through > bound:
        raise ValueError(
            f"through={through} exceeds the exactness bound {bound} for k_max={k_max}; "
            f"raise k_max to at least {through // (2 * N - 3)}"
        )
    coeffs = [0] * (through + 1)
    coeffs[0] = 1
    shift = 2 * (N - 2)
    for k in range(1, through // (2 * N - 3) + 1):
        part = dk_homology(k, ring, k_max=k_max, cache=cache, through=through - shift * k)
        for q in part.degrees():
            j = q + shift * k
            if j <= through:
                coeffs[j] += part.free_rank(q)
    return PoincareSeries(tuple(coeffs), through)
