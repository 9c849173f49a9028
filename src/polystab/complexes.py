"""The dense oracle: integer matrices, Smith normal form, finite chain complexes and
their homology over Z, Q or F_p, and the dense cell complex of C_k(C).

No command loads it: the tables come from the Morse route of :mod:`polystab.braid`,
and ``verify cells`` checks d.d = 0 on the engine's sparse faces.  The tests run
this route against the engine for small k.
"""

from __future__ import annotations

from itertools import combinations

from . import braid
from .abelian import AbelianGroup, GradedAbelianGroup
from .linalg import rank_int_rows, rank_mod_p_rows
from .rings import Ring, Value, Z

# Dense Smith normal form refuses once an entry outgrows this many bits: the
# k <= 9 cell complexes peak near 11,700, while at k = 10 (sign) the entries
# pass it within a second on their way past 500,000.
SNF_MAX_BITS = 16384
_DENSE_K_MAX = 10  # dual_fn_complex's memory guard: its dense matrices span all 2^(k-1) cells


class IntMatrix:
    """A rows x cols matrix of exact integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: list[list[int]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for r in entries:
            if len(r) != cols:
                raise ValueError(f"expected {cols} columns, got a row of length {len(r)}")
            for v in r:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"matrix entries must be integers, got {v!r}")
        self.rows, self.cols, self.entries = rows, cols, entries

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def sparse_rows(self) -> list[list[tuple[int, int]]]:
        """Each row as ``(column, value)`` pairs of its nonzero entries."""
        return [[(j, v) for j, v in enumerate(row) if v] for row in self.entries]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} times {other.shape}")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            acc = out[i]
            for k, v in enumerate(row):
                if v:
                    for j, w in enumerate(other.entries[k]):
                        if w:
                            acc[j] += v * w
        return IntMatrix(self.rows, other.cols, out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


class SmithForm(Value):
    """Invariant factors of an integer matrix; rank is their count."""

    __slots__ = ("invariant_factors", "rank")

    def __post_init__(self) -> None:
        if self.rank != len(self.invariant_factors):
            raise ValueError("rank must equal the number of invariant factors")
        prev = None
        for d in self.invariant_factors:
            if d <= 0:
                raise ValueError("invariant factors must be positive")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d


def _find_pivot(a: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    best = best_abs = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            v = row[j]
            if v:
                av = abs(v)
                if best is None or av < best_abs:
                    best, best_abs = (i, j), av
                    if av == 1:
                        return best
    return best


def _clear_pivot_cross(a: list[list[int]], t: int, rows: int, cols: int) -> None:
    """Zero out row t and column t except the pivot, by gcd-driven elimination."""
    while True:
        # Column sweep: remainders smaller than the pivot replace it.
        swapped = False
        for i in range(t + 1, rows):
            v = a[i][t]
            if v:
                q = v // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    # only row operations grow entries: column operations reduce row t mod the pivot
                    if max(a[i]).bit_length() > SNF_MAX_BITS or min(a[i]).bit_length() > SNF_MAX_BITS:
                        raise ValueError(f"Smith normal form refused: an entry exceeds the budget of "
                                         f"{SNF_MAX_BITS} bits")
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    swapped = True
        if swapped:
            continue
        # Row sweep via column operations.
        swapped = False
        for j in range(t + 1, cols):
            v = a[t][j]
            if v:
                q = v // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    swapped = True
        if not swapped:
            return
        # Column operations may have re-dirtied column t below the pivot.


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Invariant factors of an integer matrix (pure; transforms are not kept).

    Pivots are chosen with minimal absolute value to limit entry growth, and
    each accepted pivot is forced to divide the remaining submatrix so the
    factors come out in divisibility order.  Raises ``ValueError`` once an
    entry exceeds :data:`SNF_MAX_BITS` bits.
    """
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    factors: list[int] = []
    t = 0
    while True:
        piv = _find_pivot(a, t, rows, cols)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        while True:
            _clear_pivot_cross(a, t, rows, cols)
            d = a[t][t]
            offender = None
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # Fold the offending row into the pivot row and re-clear; the
            # pivot strictly shrinks toward the running gcd, so this ends.
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        factors.append(abs(a[t][t]))
        t += 1
        if t >= min(rows, cols):
            break
    return SmithForm(tuple(factors), len(factors))


class ChainComplex:
    """Boundary maps d_i : C_i -> C_{i-1} over a contiguous degree range.

    ``generator_counts`` fixes the rank of each C_i; ``boundary[i]`` must have
    shape (counts[i-1], counts[i]).  Omitted boundaries default to zero.
    """

    def __init__(self, generator_counts: dict[int, int], boundary: dict[int, IntMatrix] | None = None):
        if not generator_counts:
            raise ValueError("a chain complex needs at least one degree")
        degs = sorted(generator_counts)
        if degs != list(range(degs[0], degs[-1] + 1)):
            raise ValueError("degrees must form a contiguous range")
        self.low = degs[0]
        self.high = degs[-1]
        self.generator_counts = {d: int(generator_counts[d]) for d in degs}
        self.boundary: dict[int, IntMatrix] = {}
        boundary = boundary or {}
        for i, mat in boundary.items():
            if i <= self.low or i > self.high:
                raise ValueError(f"boundary degree {i} outside range ({self.low}, {self.high}]")
            want = (self.generator_counts[i - 1], self.generator_counts[i])
            if mat.shape != want:
                raise ValueError(f"boundary at degree {i} has shape {mat.shape}, expected {want}")
            self.boundary[i] = mat

    @property
    def degrees(self) -> range:
        return range(self.low, self.high + 1)

    def boundary_matrix(self, i: int) -> IntMatrix:
        if i in self.boundary:
            return self.boundary[i]
        rows = self.generator_counts.get(i - 1, 0)
        cols = self.generator_counts.get(i, 0)
        return IntMatrix.zeros(rows, cols)

    def check_boundary_condition(self) -> None:
        """Raise unless every composite d_{i-1} . d_i vanishes."""
        for i in range(self.low + 2, self.high + 1):
            upper = self.boundary_matrix(i)
            lower = self.boundary_matrix(i - 1)
            if upper.is_zero or lower.is_zero:
                continue
            if not lower.mul(upper).is_zero:
                raise ValueError(f"boundary squared is nonzero at degree {i} "
                                 f"(composite C_{i} -> C_{i - 2} does not vanish)")


def complex_homology(cpx: ChainComplex, ring: Ring = Z) -> GradedAbelianGroup:
    """Homology of a finite chain complex over Z, Q, or a prime field.

    Over Z the degree-i group is reported as free rank plus the nontrivial
    invariant factors of d_{i+1}; over a field, as the dimension.
    """
    cpx.check_boundary_condition()
    groups: dict[int, AbelianGroup] = {}
    if ring == Z:
        snf = {i: smith_normal_form(cpx.boundary_matrix(i)) for i in range(cpx.low + 1, cpx.high + 1)}
        none = SmithForm((), 0)
        for i in cpx.degrees:
            above = snf.get(i + 1, none)
            free = cpx.generator_counts[i] - snf.get(i, none).rank - above.rank
            groups[i] = AbelianGroup(free, tuple(d for d in above.invariant_factors if d > 1))
    else:
        rows = {i: cpx.boundary_matrix(i).sparse_rows() for i in range(cpx.low + 1, cpx.high + 1)}
        ranks = {i: len(rank_mod_p_rows(r, ring.p) if ring.p else rank_int_rows(r)) for i, r in rows.items()}
        for i in cpx.degrees:
            dim = cpx.generator_counts[i] - ranks.get(i, 0) - ranks.get(i + 1, 0)
            groups[i] = AbelianGroup(dim)
    return GradedAbelianGroup(groups)


def dual_fn_complex(k: int, system: str) -> ChainComplex:
    """Transpose of the cell complex of :mod:`polystab.braid`, regraded so degree i computes H_i.

    A cell of dimension j lands in degree 2k - j; the boundary in degree i is
    the transpose of the merge differential into the cells with k - i parts,
    made dense from the faces of ``braid._neighbours``, the rule the tables
    run.  Rows and columns are numbered in ``combinations`` order of the cuts.
    Poincare duality for the open 2k-manifold makes this compute ordinary
    homology with the chosen rank-one system.  The matrices hold every one of
    the 2^(k-1) cells, so k above ``_DENSE_K_MAX`` (10), a fixed memory guard
    that no argument raises, is refused with ValueError, as are k < 1 and an
    unknown system.  Construction raises :class:`polystab.rings.CellModelError`
    if the boundary-squared self-check of the merge table fails.
    """
    braid._check(k, system)
    if k > _DENSE_K_MAX:
        raise ValueError(f"k={k} is past the dense oracle's bound {_DENSE_K_MAX}")
    faces, _ = braid._neighbours(braid._merge_coefficients(k, system))
    cells = [[tuple(b - a for a, b in zip((0, *cuts), (*cuts, k))) for cuts in combinations(range(1, k), k - i - 1)]
             for i in range(k)]  # degree i: the cells with k - i parts
    boundary = {}
    for i in range(1, k):
        position = {cell: j for j, cell in enumerate(cells[i])}
        dense = [[0] * len(cells[i]) for _ in cells[i - 1]]
        for out, cell in zip(dense, cells[i - 1]):
            for face, v in faces(cell):
                out[position[face]] = v
        boundary[i] = IntMatrix(len(cells[i - 1]), len(cells[i]), dense)
    return ChainComplex({i: len(cells[i]) for i in range(k)}, boundary)
