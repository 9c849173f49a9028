"""Exact integer linear algebra: matrices, Smith normal form, ranks over Q and F_p.

All arithmetic is arbitrary-precision; nothing here rounds.  ``IntMatrix`` is
dense (every entry addressable) and feeds Smith normal form.  Ranks over Q and
every F_p, F_2 included, come from one sparse kernel, :func:`eliminate`, which
takes rows as lists of ``(column, value)`` pairs; ``IntMatrix.sparse_rows``
converts a dense matrix, and sparse builders pass their rows straight in.
Integral tables take their torsion from those ranks, and :func:`p_local_ranks` certifies
it; Smith normal form is the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

# Dense Smith normal form refuses once an entry outgrows this many bits: the
# k <= 9 cell complexes peak near 11,700, while at k = 10 (sign) the entries
# pass it within a second on their way past 500,000.
SNF_MAX_BITS = 16384


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
        self.rows = rows
        self.cols = cols
        self.entries = entries

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
                    orow = other.entries[k]
                    for j, w in enumerate(orow):
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


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors of an integer matrix; rank is their count."""

    invariant_factors: tuple[int, ...]
    rank: int

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
    best = None
    best_abs = None
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
                    piv_row = a[t]
                    a[i] = [x - q * y for x, y in zip(a[i], piv_row)]
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
            piv_row = a[t]
            off_row = a[offender]
            a[t] = [x + y for x, y in zip(piv_row, off_row)]
        factors.append(abs(a[t][t]))
        t += 1
        if t >= min(rows, cols):
            break
    return SmithForm(tuple(factors), len(factors))


def eliminate(rows: list[list[tuple[int, int]]], modulus: int) -> set[int]:
    """Pivot ("lead") columns of sparse integer rows over Q (``modulus`` 0) or F_p (``modulus`` p).

    The rank is their count.  Each row lists ``(column, value)`` pairs with
    distinct integer columns.  Pivots are kept in a dict keyed by leading
    (smallest) column, so each is a vector of the row space that is zero below
    its lead, and reducing a row touches only the pivots its own entries hit.
    Over F_p (F_2 included) a pivot is scaled by the inverse of its lead only
    when used; over Q each step is fraction-free (``a*row - b*pivot``) followed
    by removal of the row's content, so entries stay exact integers.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        work = {j: x for j, v in row if (x := v % modulus)} if modulus else {j: v for j, v in row if v}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = work
                break
            v = work[lead]
            if modulus:
                v = v * pow(pivot[lead], -1, modulus)
                for j, w in pivot.items():
                    x = (work.get(j, 0) - v * w) % modulus
                    if x:
                        work[j] = x
                    else:
                        del work[j]
            else:
                g = gcd(pivot[lead], v)
                alpha, beta = pivot[lead] // g, v // g
                if alpha != 1:
                    work = {j: alpha * x for j, x in work.items()}
                for j, w in pivot.items():
                    x = work.get(j, 0) - beta * w
                    if x:
                        work[j] = x
                    else:
                        del work[j]
                content = 0
                for x in work.values():
                    content = gcd(content, x)
                    if content == 1:
                        break
                if content > 1:
                    work = {j: x // content for j, x in work.items()}
    return set(pivots)


def p_local_ranks(rows: list[list[tuple[int, int]]], p: int) -> tuple[int, int]:
    """Numbers (a, b) of elementary divisors of sparse integer rows with p-adic valuation 0 and 1.

    This is a certificate, not a rank engine: a + b falls short of the rank over Q iff p^2
    divides a divisor (Dumas-Saunders-Villard, J. Symb. Comput. 32, 2001), so it only needs to
    run where the F_p rank is below the Q rank.  Rows are reduced mod p^2 by unit pivots only
    (a row's lead is its smallest column holding an entry prime to p), so a is the F_p rank; a
    row left with no unit entry is p T.  The Schur complement of the unit block is p times the
    T rows reduced by the pivots, so b is the F_p rank of pivots and T rows together, minus a.
    """
    q = p * p
    pivots: dict[int, dict[int, int]] = {}
    rest = []
    for row in rows:
        work = {j: v % q for j, v in row if v % q}
        while (lead := min((j for j, v in work.items() if v % p), default=None)) is not None:
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = work
                break
            v = work[lead] * pow(pivot[lead], -1, q)
            for j, w in pivot.items():
                x = (work.get(j, 0) - v * w) % q
                if x:
                    work[j] = x
                else:
                    del work[j]
        else:
            rest.append([(j, v // p) for j, v in work.items()])
    return len(pivots), len(eliminate([list(pivot.items()) for pivot in pivots.values()] + rest, p)) - len(pivots)


def rank_int_rows(rows: list[list[tuple[int, int]]]) -> set[int]:
    """Pivot columns over Q of sparse integer rows (see :func:`eliminate`)."""
    return eliminate(rows, 0)


def rank_mod_p_rows(rows: list[list[tuple[int, int]]], p: int) -> set[int]:
    """Pivot columns over F_p of sparse integer rows (see :func:`eliminate`)."""
    return eliminate(rows, p)


def rank_mod2_bitrows(bitrows: list[int]) -> int:
    """Rank over F_2 of rows packed as integer bitmasks.

    Pivots are keyed by their lowest set bit; a row is reduced only by the
    pivots whose key is its current lowest bit.  No library code calls this:
    :func:`eliminate` serves F_2 like every other modulus.  It stays defined
    because the benchmark tracer (``perfbench/tracer.py``) wraps it by name.
    """
    pivots: dict[int, int] = {}
    for row in bitrows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)
