"""Homology of polynomial-tuple and rational-map spaces assembled from the cell model.

The based rational-map space Hol_d(S^2, CP^{N-1}) splits stably into the
summands D_k, k = 1..d, the k-th shifted up by 2(N-2)k.  The space of
m-tuples of monic degree-d polynomials with no common root of multiplicity
>= n is, in homology, the rational-map space at (floor(d/n), mn), so its
table and first page are the rational-map ones reparametrised, and so is the
series of the limiting double loop space.  Everything here is bookkeeping over
:func:`polystab.braid.config_homology`, reached through :func:`_summands`
alone, the one code that reads and writes the integral cache.
"""

from __future__ import annotations

from .rings import DEFAULT_K_MAX, SIGN, Ring, Value, Z

MN2_NOTE = "mn=2: identification with the limit space is stable/homology-level only"
# no code here calls dk_homology, but perfbench/tracer.py wraps spaces.dk_homology: it stays an engine name
_ENGINE = ("config_homology", "dk_homology")


def _load_engine() -> None:
    """Bind the engine's names here once (a wrapper may replace them later); a cached table needs none."""
    global config_homology, dk_homology
    if "dk_homology" not in globals():
        from .braid import config_homology, dk_homology


def __getattr__(name: str):  # PEP 562: reading an engine name from outside binds the engine first
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_engine()
    return globals()[name]


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


def _summands(d: int, N: int, ring: Ring, k_max: int, cache: HomologyCache | None) -> list[GradedAbelianGroup]:
    """H_*(C_k; sign x ring) for k = 1..d, after refusing k_max < 0 (0 admits the point alone), N < 2,
    d < 0 and d > k_max.  Field tables, and all tables without a cache, are computed.  Over Z each table
    is read from the cache, the engine is bound only if one is missing, and each missing one is put.
    """
    if k_max < 0:
        raise ValueError(f"the summand bound k_max={k_max} is negative: it must be at least 0")
    if N < 2:
        raise ValueError("need N >= 2")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > k_max:
        raise ValueError(f"needs summands up to k={d}, beyond the configured bound {k_max}")
    if cache is None or ring != Z:
        _load_engine()
        return [config_homology(k, SIGN, ring) for k in range(1, d + 1)]
    tables = [cache.get(k) for k in range(1, d + 1)]
    for k, table in enumerate(tables, 1):
        if table is None:
            _load_engine()
            tables[k - 1] = table = config_homology(k, SIGN, Z)
            cache.put(k, table)
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


def omega_series(N: int, ring: Ring, through: int, *, k_max: int = DEFAULT_K_MAX) -> PoincareSeries:
    """Poincare series of the double loop space of S^{2N-1} through ``through``.

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
    table = hol_homology(through // (2 * N - 3), N, ring, k_max=k_max)
    return PoincareSeries(tuple(table.dims(through)), through)
