import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from polystab import complexes, linalg
from polystab.complexes import SmithForm, smith_normal_form
from polystab.linalg import eliminate, rank_int_rows, rank_mod2_bitrows, rank_mod_p_rows


class IntMatrix(complexes.IntMatrix):
    """The library matrix plus ``from_rows``, a constructor only these tests use."""

    @classmethod
    def from_rows(cls, entries, cols=None):
        return cls(len(entries), len(entries[0]) if cols is None else cols, [list(r) for r in entries])


def test_smith_worked_example():
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors == (2, 4)


def test_smith_identity_and_zero():
    assert smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]])) == SmithForm((1, 1), 2)
    assert smith_normal_form(IntMatrix.zeros(2, 2)) == SmithForm((), 0)


def test_smith_empty_matrices():
    assert smith_normal_form(IntMatrix.zeros(0, 3)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zeros(3, 0)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zeros(0, 0)).rank == 0


def test_smith_rectangular():
    m = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
    assert smith_normal_form(m).invariant_factors == (2, 6)


def _det(rows):
    """Fraction Gaussian determinant; independent of the Smith code."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def _minor_gcd(entries, r):
    """gcd of all r x r minors, by enumeration."""
    rows = range(len(entries))
    cols = range(len(entries[0]))
    g = 0
    for rsel in combinations(rows, r):
        for csel in combinations(cols, r):
            sub = [[entries[i][j] for j in csel] for i in rsel]
            d = _det(sub)
            assert d.denominator == 1
            g = gcd(g, abs(int(d)))
    return g


def test_invariant_factor_products_match_minor_gcds():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(IntMatrix.from_rows(entries, cols))
        product = 1
        for idx, d in enumerate(snf.invariant_factors, start=1):
            product *= d
            assert _minor_gcd(entries, idx) == product
        if snf.rank < min(rows, cols):
            assert _minor_gcd(entries, snf.rank + 1) == 0


def test_smith_invariance_under_permutation_and_transpose():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        base = smith_normal_form(IntMatrix.from_rows(entries, cols))
        shuffled = entries[:]
        rng.shuffle(shuffled)
        perm = list(range(cols))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in shuffled]
        assert smith_normal_form(IntMatrix.from_rows(shuffled, cols)) == base
        assert smith_normal_form(IntMatrix.from_rows([list(c) for c in zip(*entries)], rows)) == base


def test_rank_examples():
    m = IntMatrix.from_rows([[2, 4], [6, 8]]).sparse_rows()
    assert len(eliminate(m, 0)) == 2
    # mod 2 every entry dies, so the rank is 0 (reduce-then-eliminate oracle)
    assert len(eliminate(m, 2)) == 0
    assert len(eliminate(m, 3)) == 2
    identity = IntMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)]).sparse_rows()
    for modulus in (0, 2, 5):
        assert len(eliminate(identity, modulus)) == 4


def test_rational_rank_agrees_with_smith_rank():
    rng = random.Random(23)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        m = IntMatrix.from_rows(entries, cols)
        assert len(eliminate(m.sparse_rows(), 0)) == smith_normal_form(m).rank


def test_mod2_bitset_path_matches_generic():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        entries = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        bits = [sum((v & 1) << j for j, v in enumerate(row)) for row in entries]
        assert rank_mod2_bitrows(bits) == len(_mod_p_pivot_oracle(entries, 2))
        sparse = IntMatrix.from_rows(entries, cols).sparse_rows()
        assert rank_mod_p_rows(sparse, 2) == _mod_p_pivot_oracle(entries, 2)
        assert rank_mod_p_rows(sparse, 3) == _mod_p_pivot_oracle(entries, 3)


def test_mod2_bitrows_run_the_one_kernel(monkeypatch):
    calls = []

    def spy(rows, modulus):
        calls.append(modulus)
        return eliminate(rows, modulus)

    monkeypatch.setattr(linalg, "eliminate", spy)
    entries = [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1], [3, 0, -1, 5]]
    bits = [sum((v & 1) << j for j, v in enumerate(row)) for row in entries]
    assert rank_mod2_bitrows(bits) == len(_mod_p_pivot_oracle(entries, 2)) == 2
    assert calls == [2]


def _random_sparse_rows(rng, cols, scale):
    """Sparse rows with empty rows, duplicates and integer combinations of earlier rows.

    A combination reduces to zero against the pivots of the rows it came from,
    so its entries cancel during elimination.
    """
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.15 or not rows:
            picked = rng.sample(range(cols), rng.randint(0, cols))
            rows.append([(j, rng.choice([-1, 1]) * rng.randint(1, 9) * scale) for j in picked])
        elif kind < 0.3:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.5:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
            dense = [0] * cols
            for row, c in ((a, ca), (b, cb)):
                for j, v in row:
                    dense[j] += c * v
            rows.append([(j, v) for j, v in enumerate(dense) if v])
        else:
            picked = rng.sample(range(cols), rng.randint(1, min(cols, 3)))
            rows.append([(j, rng.randint(1, 9) * scale) for j in picked])
    rng.shuffle(rows)
    return rows


def _dense(rows, cols):
    out = [[0] * cols for _ in rows]
    for dense, row in zip(out, rows):
        for j, v in row:
            dense[j] = v
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_eliminate_mod_p_matches_oracle(p):
    rng = random.Random(p)
    for _ in range(150):
        cols = rng.randint(1, 9)
        rows = _random_sparse_rows(rng, cols, 1)
        # the leads are the pivot columns of the reduced row echelon form
        assert eliminate(rows, p) == _mod_p_pivot_oracle(_dense(rows, cols), p)


@pytest.mark.parametrize("scale", [1, 10**40], ids=["small", "1e40"])
def test_eliminate_rational_matches_smith_rank(scale):
    rng = random.Random(scale % 1000 + 3)
    for _ in range(100):
        cols = rng.randint(1, 7)
        rows = _random_sparse_rows(rng, cols, scale)
        want = smith_normal_form(IntMatrix(len(rows), cols, _dense(rows, cols))).rank
        assert len(eliminate(rows, 0)) == want


def _mod_p_pivot_oracle(entries, p):
    """Pivot columns of textbook elimination over F_p, kept separate from the library paths."""
    work = [[v % p for v in row] for row in entries]
    rank = 0
    pivots = set()
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = (work[i][col] * inv) % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
        pivots.add(col)
    return pivots


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, [[1, 2.5]])
    with pytest.raises(ValueError):
        IntMatrix(1, 1, [[True]])


def test_matrix_multiplication():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b) == IntMatrix.from_rows([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a.mul(IntMatrix.zeros(3, 3))


def test_large_entry_exactness():
    big = 10**40
    m = IntMatrix.from_rows([[big, 0], [0, big * 3]])
    assert smith_normal_form(m).invariant_factors == (big, 3 * big)
    assert len(rank_int_rows(m.sparse_rows())) == 2
