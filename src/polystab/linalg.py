"""The sparse elimination kernel: ranks over Q and every F_p, F_2 included.

All arithmetic is arbitrary-precision; nothing here rounds.  :func:`eliminate`
takes rows as lists of ``(column, value)`` pairs and returns their pivot
columns; it is the one elimination kernel of the package.  Integral tables take
their torsion from ranks, certified by the F_p rank of the Morse differential
divided by p.  The dense oracle (matrices and Smith normal form) lives in
:mod:`polystab.complexes`.
"""

from __future__ import annotations

from math import gcd


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
