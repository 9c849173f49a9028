"""Homology of polynomial-tuple and rational-map spaces assembled from the cell model.

The based rational-map space Hol_d(S^2, CP^{N-1}) splits stably into the
summands D_k, k = 1..d, the k-th shifted up by 2(N-2)k.  The space of
m-tuples of monic degree-d polynomials with no common root of multiplicity
>= n is, in homology, the rational-map space at (floor(d/n), mn), so its
table and first page are the rational-map ones reparametrised, and so is the
series of the limiting double loop space.  Everything here is bookkeeping over
:func:`polystab.braid.config_homology`, which :func:`_summands` alone calls:
it reads and writes the integral cache, and imports the engine only for a
table it must compute.
"""

from __future__ import annotations

from .rings import DEFAULT_K_MAX, SIGN, Ring, Value, Z

MN2_NOTE = "mn=2: identification with the limit space is stable/homology-level only"


def __getattr__(name: str):  # PEP 562: exists for perfbench/tracer.py, which wraps these engine names here
    if name not in ("config_homology", "dk_homology"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import braid
    return getattr(braid, name)


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


def _summands(d: int, N: int, ring: Ring, k_max: int, cache: HomologyCache | None) -> list[GradedAbelianGroup]:
    """H_*(C_k; sign x ring) for k = 1..d, after refusing k_max < 0 (0 admits the point alone), N < 2,
    d < 0 and d > k_max.  Only Z tables are cached: with a cache, each integral table is read from it, and
    one that is missing is computed and put.  Every other table is computed.
    """
    if k_max < 0:
        raise ValueError(f"the summand bound k_max={k_max} is negative: it must be at least 0")
    if N < 2:
        raise ValueError("need N >= 2")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > k_max:
        raise ValueError(f"needs summands up to k={d}, beyond the configured bound {k_max}")
    cache = cache if ring == Z else None
    tables = []
    for k in range(1, d + 1):
        table = None if cache is None else cache.get(k)
        if table is None:
            from . import braid
            table = braid.config_homology(k, SIGN, ring)
            if cache is not None:
                cache.put(k, table)
        tables.append(table)
    return tables


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


def hol_homology(d: int, N: int, ring: Ring = Z, *, k_max: int = DEFAULT_K_MAX,
                 cache: HomologyCache | None = None) -> HomologyTable:
    """Complete homology of the degree-d based rational-map space into CP^{N-1}.

    The direct sum of the point and the summands D_k, k = 1..d, each shifted
    up by 2(N-2)k.  Summand k contributes nothing below degree (2N-3)k, which
    makes the finite sum complete in every degree.
    """
    from .abelian import AbelianGroup, GradedAbelianGroup  # not at the top: stability-dim loads no group types
    tables = _summands(d, N, ring, k_max, cache)
    summands = (table.shift((2 * N - 3) * k) for k, table in enumerate(tables, 1))
    return HomologyTable(GradedAbelianGroup({0: AbelianGroup(1)}).direct_sum(*summands), ring)


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
        from . import abelian
        return self.entries.get((k, s), abelian.ZERO_GROUP)

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


def e1_page_hol(d: int, N: int, ring: Ring = Z, *, k_max: int = DEFAULT_K_MAX,
                cache: HomologyCache | None = None) -> E1Page:
    """First page for the rational-map space: columns 1..d, twist 2(N-1),
    entry (k, s) the sign-twisted homology of C_k in degree s - 2(N-1)k."""
    from .abelian import AbelianGroup
    twist = 2 * (N - 1)
    columns = enumerate(_summands(d, N, ring, k_max, cache), 1)
    entries = {(k, twist * k + i): column.group(i) for k, column in columns for i in column.degrees()}
    return E1Page(ring, d, twist, {(0, 0): AbelianGroup(1), **entries})


def omega_series(N: int, ring: Ring, through: int, *, k_max: int = DEFAULT_K_MAX) -> tuple[int, ...]:
    """Dimensions of the homology of the double loop space of S^{2N-1} in degrees 0..``through``.

    The limit is the union of the summands D_k, k >= 0, shifted as in the
    rational-map space, and summand k starts in degree (2N-3)k: through degree
    T it is the degree-T // (2N-3) rational-map table, whose summand bound
    ``k_max`` refuses a larger request rather than truncate it.  The ring must
    be a field, whose tables are never cached, so the series takes no cache.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if not ring.is_field:
        raise ValueError("series dimensions need field coefficients (Q or F_p)")
    if through < 0:
        raise ValueError("through must be nonnegative")
    return tuple(hol_homology(through // (2 * N - 3), N, ring, k_max=k_max).dims(through))
