import inspect
import os
import random
import re
import subprocess
import sys
import time
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from polystab import braid, complexes, linalg
from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.braid import (
    SIGN,
    TRIVIAL,
    CellModelError,
    config_homology,
    dk_homology,
    shuffle_sum,
)
from polystab.cache import HomologyCache
from polystab.complexes import ChainComplex, IntMatrix, complex_homology, dual_fn_complex, smith_normal_form
from polystab.linalg import eliminate
from polystab.rings import GF, Q, Z, is_prime
from polystab.spaces import e1_page_hol, hol_homology, omega_series
from polystab.verify import loop_space_series

Z1 = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


def _neighbours(k, system, modulus=0):
    """The engine's (faces, cofaces) over a freshly checked merge table, reduced mod ``modulus``."""
    s = braid._merge_coefficients(k, system)
    return braid._neighbours([[v % modulus for v in row] for row in s] if modulus else s)


def test_cell_faces_small():
    # k = 3: merging (1,1,1) at position j carries the sign (-1)^j; s(1,1) is 2, or 0 when signed
    faces, cofaces = _neighbours(3, SIGN)
    assert faces((1, 1, 1)) == [((2, 1), 2), ((1, 2), -2)]
    assert faces((1, 2)) == faces((2, 1)) == [((3,), 3)]
    assert cofaces((3,)) == [((1, 2), 3), ((2, 1), 3)]
    assert cofaces((2, 1)) == [((1, 1, 1), 2)]
    faces, cofaces = _neighbours(3, TRIVIAL)
    assert faces((1, 1, 1)) == cofaces((1, 2)) == cofaces((2, 1)) == []
    assert faces((1, 2)) == faces((2, 1)) == [((3,), 1)]


def test_cell_count_and_dimensions():
    # degree i holds the cells of dimension 2k - i: k - i parts, k - i - 1 cuts
    for k in range(1, 9):
        counts = dual_fn_complex(k, TRIVIAL).generator_counts
        assert sum(counts.values()) == 2 ** (k - 1)
        for i, n in counts.items():
            assert n == sum(1 for mask in range(2 ** (k - 1)) if mask.bit_count() == k - i - 1)


def test_cell_euler_count_identity():
    # sum over compositions of (-1)^(k+r) vanishes for k >= 2
    for k in range(2, 11):
        total = sum(
            (-1) ** (k + r) * comb(k - 1, r - 1) for r in range(1, k + 1)
        )
        assert total == 0


def _shuffle_sum_oracle(a, b, signed):
    """Enumerate every interleaving and add the parities of its permutations.

    With the first block at sorted positions p_0 < ... < p_{a-1}, the
    permutation (first block, then the rest) inverts p_t with exactly the
    p_t - t positions of the second block below it, so its inversion count is
    sum_t (p_t - t).
    """
    total = 0
    for positions in combinations(range(a + b), a):
        inversions = sum(p - t for t, p in enumerate(positions))
        total += (-1) ** inversions if signed else 1
    return total


def test_shuffle_sums_against_permutation_oracle():
    for a in range(1, 16):
        for b in range(1, 17 - a):
            assert shuffle_sum(a, b, True) == _shuffle_sum_oracle(a, b, True)
            assert shuffle_sum(a, b, False) == comb(a + b, a)


def test_signed_shuffle_closed_form():
    # [n, k]_q = [n-1, k-1]_q + q^k [n-1, k]_q, evaluated at q = -1
    gauss = {(0, 0): 1}
    for n in range(1, 31):
        for k in range(n + 1):
            gauss[n, k] = gauss.get((n - 1, k - 1), 0) + (-1) ** k * gauss.get((n - 1, k), 0)
    for a in range(1, 30):
        for b in range(1, 31 - a):
            assert shuffle_sum(a, b, True) == gauss[a + b, a]


def test_forced_k2_boundaries():
    triv = dual_fn_complex(2, TRIVIAL)
    assert triv.boundary_matrix(1).entries == [[0]]
    sign = dual_fn_complex(2, SIGN)
    assert abs(sign.boundary_matrix(1).entries[0][0]) == 2


def test_k1_complex_has_single_generator():
    for system in (TRIVIAL, SIGN):
        cpx = dual_fn_complex(1, system)
        assert cpx.generator_counts == {0: 1}
        assert not cpx.boundary


def test_boundary_squared_vanishes():
    for k in range(1, 9):
        for system in (TRIVIAL, SIGN):
            dual_fn_complex(k, system).check_boundary_condition()


def _lexicographic_compositions(k, parts):
    """Compositions of k with the given part count, in the old lexicographic cell order."""
    out = []
    for cuts in combinations(range(1, k), parts - 1):
        bounds = (0, *cuts, k)
        out.append(tuple(bounds[t + 1] - bounds[t] for t in range(parts)))
    return out


def _lexicographic_rows(k, system, i):
    """Degree-i rows built from composition tuples, columns in lexicographic order.

    Independent of the engine's face rule: it shares only ``shuffle_sum`` with
    the library.
    """
    column = {c: j for j, c in enumerate(_lexicographic_compositions(k, k - i))}
    rows = []
    for comp in _lexicographic_compositions(k, k - i + 1):
        row = []
        for t in range(len(comp) - 1):
            coeff = braid.shuffle_sum(comp[t], comp[t + 1], system == TRIVIAL)
            if coeff:
                merged = comp[:t] + (comp[t] + comp[t + 1],) + comp[t + 2 :]
                row.append((column[merged], -coeff if t % 2 else coeff))
        rows.append(row)
    return rows


def _dense(rows, cols):
    out = [[0] * cols for _ in rows]
    for dense, row in zip(out, rows):
        for j, v in row:
            dense[j] = v
    return out


def test_dense_matrices_match_the_lexicographic_builder():
    for k in range(1, 10):
        for system in (TRIVIAL, SIGN):
            cpx = dual_fn_complex(k, system)
            for i in range(1, k):
                want = _dense(_lexicographic_rows(k, system, i), comb(k - 1, i))
                assert cpx.boundary_matrix(i).entries == want, (k, system, i)


@cache
def _full_rows(k, system):
    """Every degree's full rows, columns numbered from the last composition.

    Leading on the later cells keeps the fill-in small: at k = 14 (sign, over Q)
    elimination takes 0.14 s, against 1.2 s with the first composition first.
    """
    return [[[(comb(k - 1, i) - 1 - j, v) for j, v in row] for row in _lexicographic_rows(k, system, i)]
            for i in range(1, k)]


@cache
def _full_row_leads(k, system, modulus):
    """Leads of every degree's full rows, the oracle for the Morse route."""
    return [eliminate(rows, modulus) for rows in _full_rows(k, system)]


MORSE_MODULI = (0, 2, 3, 5, 7, 11, 13)


def _compositions(k):
    """Every composition of k, as a tuple, from its cut mask."""
    out = []
    for mask in range(2 ** (k - 1)):
        bounds = (0, *(c for c in range(1, k) if mask >> (c - 1) & 1), k)
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def test_matching_is_an_involution_and_the_dfs_finds_every_critical_cell():
    # enumerate every cell: its partner comes back the other way (and, for k <= 10, is a face or
    # coface with a coefficient nonzero mod p), the cells with no partner are the DFS's, and the
    # pairs match up_r = C(k-1, r-1) - crit_r - down_r
    for k in range(1, 15):
        cells = _compositions(k)
        for system in (TRIVIAL, SIGN):
            s = braid._merge_coefficients(k, system)
            for p in MORSE_MODULI:
                matching = braid._Matching(k, system, s, p)
                faces, cofaces = _neighbours(k, system, p)
                critical, up = {}, [0] * (k + 1)
                for cell in cells:
                    hit = matching.partner(cell)
                    if hit is None:
                        critical.setdefault(len(cell), []).append(cell)
                        continue
                    mate, merge = hit
                    assert k > 10 or mate in dict((faces if merge else cofaces)(cell)), (k, system, p, cell, mate)
                    assert matching.partner(mate) == (cell, not merge), (k, system, p, cell, mate)
                    up[len(cell)] += not merge  # count each pair at its lower cell
                assert {r: sorted(c) for r, c in matching.critical.items()} == \
                    {r: sorted(c) for r, c in critical.items()}, (k, system, p)
                assert [matching.pairs[r] for r in range(1, k + 1)] == up[1:], (k, system, p)


def test_morse_ranks_match_full_row_elimination():
    # no Morse differential over a field survives, so the pairs across a degree alone are the rank
    # of its full rows, and the table's free ranks follow from them
    for k in range(2, 15):
        for system in (TRIVIAL, SIGN):
            s = braid._merge_coefficients(k, system)
            for m in MORSE_MODULI:
                pairs = braid._Matching(k, system, s, m).pairs
                ranks = [0, *(len(leads) for leads in _full_row_leads(k, system, m)), 0]
                assert [pairs[k - i] for i in range(1, k)] == ranks[1:-1], (k, system, m)
                table = config_homology(k, system, GF(m) if m else Q)
                assert [table.free_rank(i) for i in range(k)] == \
                    [comb(k - 1, i) - ranks[i] - ranks[i + 1] for i in range(k)], (k, system, m)


def _refuse_enumeration(*args):
    raise AssertionError("a table enumerated every cell")


def _refuse_rank(*args):
    raise AssertionError("a table took a field rank")


def _p_local_ranks(rows: list[list[tuple[int, int]]], p: int) -> tuple[int, int]:
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


def _valuation(x, p):
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _unimodular(rng, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            t = rng.randint(-3, 3)
            u[i] = [x + t * y for x, y in zip(u[i], u[j])]
    return _matrix(u, n)


def test_p_local_ranks_match_smith_valuations():
    # U D V with planted divisors 1, p, p^2, p^3, a prime-to-p unit and 0
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            diagonal = [[0] * cols for _ in range(rows)]
            for t in range(min(rows, cols)):
                diagonal[t][t] = rng.choice([1, p, p, p * p, p**3, 11 * p, 13, 0])
            m = _unimodular(rng, rows).mul(_matrix(diagonal, cols)).mul(_unimodular(rng, cols))
            factors = smith_normal_form(m).invariant_factors
            want = tuple(sum(1 for f in factors if _valuation(f, p) == e) for e in (0, 1))
            assert _p_local_ranks(m.sparse_rows(), p) == want, (m.entries, p)


@pytest.mark.parametrize("system", [TRIVIAL, SIGN])
def test_each_degree_ranks_only_critical_cells(monkeypatch, system):
    # over Z no modulus makes a field rank call: the only eliminations are the certificates', on
    # the rows of D/p between one end's critical cells, and no full row is built; the pairs and
    # the F_p rank of D/p count the full rows' divisors of p-adic valuation 0 and 1
    k, moduli = 12, (0, 2, 3, 5, 7, 11)
    s = braid._merge_coefficients(k, system)
    matchings = {m: braid._Matching(k, system, s, m) for m in moduli}
    eliminated, certified = [], []
    real_eliminate, real_rows = linalg.eliminate, braid._morse_rows

    def rows_spy(matching, neighbours, i):
        rows = real_rows(matching, neighbours, i)
        critical = matching.critical
        assert len(rows) in (len(critical.get(k - i + 1, ())), len(critical.get(k - i, ()))), (i, matching.p)
        certified.append((i, matching.p, rows))
        return rows

    monkeypatch.setattr(braid, "combinations", _refuse_enumeration, raising=False)
    monkeypatch.setattr(braid, "_morse_rows", rows_spy)
    monkeypatch.setattr(linalg, "eliminate", lambda rows, modulus: eliminated.append(modulus) or
                        real_eliminate(rows, modulus))
    for name in ("rank_int_rows", "rank_mod_p_rows"):
        monkeypatch.setattr(braid, name, _refuse_rank)
    config_homology(k, system, Z)
    assert certified and eliminated == [p for _, p, _ in certified]
    for i, p, rows in certified:
        assert (matchings[p].pairs[k - i], len(eliminate(rows, p))) == \
            _p_local_ranks(_lexicographic_rows(k, system, i), p), (i, p)


def test_certificate_rows_are_d_over_p_and_make_up_the_rank(monkeypatch):
    # every entry of D/p is a nonzero residue, and its F_p rank is what the pairs leave of the rank over Q
    real, seen = braid._morse_rows, []
    monkeypatch.setattr(braid, "_morse_rows", lambda matching, neighbours, i: seen.append(
        (matching, i, rows := real(matching, neighbours, i))) or rows)
    for k in range(2, 25):
        for system in (TRIVIAL, SIGN):
            rational = braid._Matching(k, system, braid._merge_coefficients(k, system), 0).pairs
            start = len(seen)
            config_homology(k, system, Z)
            for matching, i, rows in seen[start:]:
                p = matching.p
                assert all(0 < v < p for row in rows for _, v in row), (k, system, p, i)
                assert len(eliminate(rows, p)) == rational[k - i] - matching.pairs[k - i], (k, system, p, i)
    assert len(seen) > 600


def test_a_carry_free_path_to_a_critical_cell_is_refused():
    # a face of a critical cell whose coefficient is a unit mod p, planted as critical: D would be
    # nonzero mod p (at k = 4, sign, p = 2: the face (1, 3) of (1, 1, 2), coefficient -3)
    k, system, p = 4, SIGN, 2
    s = braid._merge_coefficients(k, system)
    matching = braid._Matching(k, system, s, p)
    faces, _ = braid._neighbours(s)
    start, face = next((c, f) for cells in matching.critical.values() for c in cells for f, w in faces(c) if w % p)
    real = matching.partner
    matching.partner = lambda c: None if c == face else real(c)
    refusal = re.escape(f"no coefficient divisible by 2 reaches the critical cell {face}")
    with pytest.raises(CellModelError, match=refusal):
        for _ in braid._flow(matching, [start], faces, False):  # one side alone, so no lockstep ends first
            pass


def test_field_tables_run_no_flow(monkeypatch):
    # the content check settles every field rank: no flow and no elimination runs
    calls = []
    monkeypatch.setattr(braid, "_flow", lambda *args: calls.append(args))
    monkeypatch.setattr(linalg, "eliminate", lambda *args: calls.append(args))
    for k in range(1, 31):
        for system in (TRIVIAL, SIGN):
            for ring in (GF(2), GF(3), GF(5), GF(7), Q):
                config_homology(k, system, ring)
    assert calls == []


def test_tables_build_no_full_row(monkeypatch):
    monkeypatch.setattr(braid, "combinations", _refuse_enumeration, raising=False)
    assert config_homology(20, SIGN, GF(2)).dims(20) == loop_space_series(2, 2, 40)[20][20:]
    table = config_homology(16, TRIVIAL, Z)
    assert [table.dim_mod(j, 3) for j in range(17)] == loop_space_series(2, 3, 16, TRIVIAL)[16]


def test_a_cyclic_matching_is_refused_quickly():
    # a planted matching splits (1,3), (2,2), (3,1) into (1,1,2), (2,1,1), (1,2,1); each partner's
    # other face is the next cell, so the flow over F_5 comes back to where it started (every
    # coefficient on the way is a unit mod 5, so the path never carries and no state differs)
    s = braid._merge_coefficients(4, SIGN)
    matching = braid._Matching(4, SIGN, s, 5)
    matching.partner = {(1, 3): ((1, 1, 2), False), (2, 2): ((2, 1, 1), False), (3, 1): ((1, 2, 1), False),
                        (1, 1, 2): ((1, 3), True), (2, 1, 1): ((2, 2), True), (1, 2, 1): ((3, 1), True)}.get
    matching.critical = {3: [(1, 1, 2)], 2: [(2, 2)]}
    started = time.perf_counter()
    with pytest.raises(CellModelError, match="cycle"):
        braid._morse_rows(matching, braid._neighbours(s), 2)
    assert time.perf_counter() - started < 1


def _gradient_order(cells, faces, partner):
    """A topological order of the face graph with the matched edges reversed, or None if it has a cycle.

    Each cell points at its faces of nonzero integer coefficient, except the one it is matched
    down to; a cell matched up points at its mate as well.  Kahn's algorithm.
    """
    out = {}
    for cell in cells:
        targets = [face for face, _ in faces(cell)]
        hit = partner(cell)
        if hit is not None:
            mate, merge = hit
            if merge:
                targets.remove(mate)
            else:
                targets.append(mate)
        out[cell] = targets
    indegree = dict.fromkeys(out, 0)
    for targets in out.values():
        for target in targets:
            indegree[target] += 1
    ready = [cell for cell, n in indegree.items() if not n]
    order = []
    while ready:
        order.append(cell := ready.pop())
        for target in out[cell]:
            indegree[target] -= 1
            if not indegree[target]:
                ready.append(target)
    return order if len(order) == len(out) else None


def test_every_matching_is_acyclic_without_a_flow():
    # the whole integral face graph, matched edges reversed, sorts topologically: no gradient path
    # closes, over F_p and over Z_(p) alike, for the mod p^2 flows
    for k in range(1, 13):
        cells = _compositions(k)
        for system in (TRIVIAL, SIGN):
            s = braid._merge_coefficients(k, system)
            faces, _ = braid._neighbours(s)
            for p in MORSE_MODULI:
                assert _gradient_order(cells, faces, braid._Matching(k, system, s, p).partner), (k, system, p)
    # a planted split of the critical (2, 2) up to (1, 1, 2), which keeps its face (2, 2): a 2-cycle
    s = braid._merge_coefficients(4, SIGN)
    faces, _ = braid._neighbours(s)
    real = braid._Matching(4, SIGN, s, 2).partner
    assert real((2, 2)) is real((1, 1, 2)) is None
    assert _gradient_order(_compositions(4), faces, lambda c: ((1, 1, 2), False) if c == (2, 2) else real(c)) is None


@cache
def _critical_count_table(p, system, through):
    return loop_space_series(2, p, 2 * through if system == SIGN else through, system)


def test_critical_cells_number_the_closed_form_with_distinct_contents():
    # one critical cell per class of F. Cohen's closed form, over Q and every F_p with p <= k, each
    # one the matching leaves unpaired, and no two critical cells share a content, so no Morse
    # differential over a field survives
    for k in range(1, 61):
        for system in (TRIVIAL, SIGN):
            s = braid._merge_coefficients(k, system)
            shift = k if system == SIGN else 0
            for p in (0, *(p for p in range(2, k + 1) if is_prime(p))):
                matching = braid._Matching(k, system, s, p)
                want = _critical_count_table(p, system, 60)[k][shift:shift + k]
                assert [len(matching.critical.get(k - i, ())) for i in range(k)] == want, (k, system, p)
                cells = [cell for cells in matching.critical.values() for cell in cells]
                assert all(matching.partner(cell) is None for cell in cells), (k, system, p)
                contents = [sum(matching.code[a] for a in cell) for cell in cells]
                assert len(set(contents)) == len(contents), (k, system, p)


def test_a_content_clash_is_refused(monkeypatch):
    # (1, 1) and (2) planted as critical over F_3, where they are a pair: both have the content 2,
    # so the Morse differential between them need not vanish, and no rank is read off the pairs
    monkeypatch.setattr(braid._Matching, "_critical_cells", lambda self: {2: [(1, 1)], 1: [(2,)]})
    with pytest.raises(CellModelError, match="critical cells with 1 and 2 parts share a content"):
        config_homology(2, SIGN, GF(3))
    with pytest.raises(CellModelError, match="share a content"):
        config_homology(2, SIGN, Z)


def test_a_face_that_changes_the_content_is_refused(monkeypatch):
    # s(1, 2) = 3 planted as 4: a merge that carries mod 3 would then count, and the content
    # argument would not hold
    real = braid._merge_coefficients

    def planted(k, system):
        s = real(k, system)
        s[1][2] = 4
        return s

    monkeypatch.setattr(braid, "_merge_coefficients", planted)
    with pytest.raises(CellModelError, match=r"merge \(1, 2\) changes the content"):
        config_homology(3, SIGN, GF(3))
    assert config_homology(3, SIGN, GF(5))


def test_matching_refuses_a_merge_that_is_not_a_unit(monkeypatch):
    # doubling the signed shuffle sums with a + b >= 9 keeps d^2 = 0 at k = 9, but the F_2 matching
    # pairs on the merge (8, 1), whose coefficient becomes 2; mod 3 it is still a unit
    real = braid.shuffle_sum
    monkeypatch.setattr(braid, "shuffle_sum",
                        lambda a, b, signed: real(a, b, signed) * (2 if signed and a + b >= 9 else 1))
    with pytest.raises(CellModelError, match=r"merge \(8, 1\).* not a unit mod 2"):
        config_homology(9, TRIVIAL, GF(2))
    with pytest.raises(CellModelError, match="not a unit mod 2"):
        config_homology(9, TRIVIAL, Z)
    assert config_homology(9, TRIVIAL, GF(3))


def _nonzero_squares(k, rows_by_degree, cell_keys):
    """Cells whose boundary squared, replayed cell by cell over the rows, is nonzero.

    ``rows_by_degree[i]`` holds the boundaries of the cells ``cell_keys[i - 1]``
    as pairs over ``cell_keys[i]``; a target of d^2 lies two degrees up.
    """
    bad = []
    for i in range(1, k - 1):
        row_of = dict(zip(cell_keys[i], rows_by_degree[i + 1]))
        for cell, row in zip(cell_keys[i - 1], rows_by_degree[i]):
            square = {}
            for mid, c1 in row:
                for target, c2 in row_of[mid]:
                    square[target] = square.get(target, 0) + c1 * c2
            if any(square.values()):
                bad.append(cell)
    return bad


def test_boundary_squared_of_every_built_row_vanishes():
    # per-cell d^2 = 0 over the engine's own faces, so it also covers their
    # targets and signs, which the triple self-check does not see
    for k in range(1, 13):
        cells = _compositions(k)
        for system in (TRIVIAL, SIGN):
            faces, _ = _neighbours(k, system)
            for cell in cells:
                square = {}
                for mid, c1 in faces(cell):
                    for target, c2 in faces(mid):
                        square[target] = square.get(target, 0) + c1 * c2
                assert not any(square.values()), (k, system, cell)


def test_cofaces_are_the_transpose_of_faces():
    # the flow's coboundary side relies on it, over Z and over every reduced table it runs on
    for k in range(1, 13):
        cells = _compositions(k)
        for system in (TRIVIAL, SIGN):
            for modulus in (0, 2, 3, 4, 9):
                faces, cofaces = _neighbours(k, system, modulus)
                down = sorted((cell, face, v) for cell in cells for face, v in faces(cell))
                up = sorted((coface, cell, v) for cell in cells for coface, v in cofaces(cell))
                assert down == up, (k, system, modulus)


def test_triple_self_check_matches_the_per_cell_check(monkeypatch):
    # plant +1 on one shuffle coefficient at a time: the O(k^3) triple check
    # must refuse exactly when some cell's boundary squared is nonzero
    real = braid.shuffle_sum
    for k in range(3, 8):
        index = [range(comb(k - 1, i)) for i in range(k)]
        for a in range(1, k):
            for b in range(1, k - a + 1):
                def planted(x, y, signed, a=a, b=b):
                    return real(x, y, signed) + ((x, y) == (a, b))

                monkeypatch.setattr(braid, "shuffle_sum", planted)
                for system in (TRIVIAL, SIGN):
                    rows = {i: _lexicographic_rows(k, system, i) for i in range(1, k)}
                    broken = bool(_nonzero_squares(k, rows, index))
                    try:
                        dual_fn_complex(k, system)
                    except CellModelError:
                        refused = True
                    else:
                        refused = False
                    assert refused == broken, (k, a, b, system)


def test_config_homology_examples():
    assert config_homology(1, TRIVIAL, Z) == GradedAbelianGroup({0: Z1})
    assert config_homology(2, SIGN, Z) == GradedAbelianGroup({0: Z2})
    assert config_homology(3, TRIVIAL, Z) == GradedAbelianGroup({0: Z1, 1: Z1})


def _fox_derivative_value(word, gen, images):
    """phi of the free-derivative of a word, for phi sending generators to +-1."""
    value = 0
    prefix = 1
    for g, exponent in word:
        if exponent == 1:
            if g == gen:
                value += prefix
            prefix *= images[g]
        else:
            prefix *= images[g]
            if g == gen:
                value -= prefix
    return value


def _matrix(entries, cols=None):
    """Dense IntMatrix from a list of rows."""
    return IntMatrix(len(entries), len(entries[0]) if cols is None else cols, [list(r) for r in entries])


def _presentation_homology(generators, relators, images):
    """Homology of the presentation 2-complex with the +-1 coefficient system."""
    d1 = _matrix([[images[g] - 1 for g in generators]], len(generators))
    cols = []
    for rel in relators:
        cols.append([_fox_derivative_value(rel, g, images) for g in generators])
    d2 = _matrix(
        [[col[i] for col in cols] for i in range(len(generators))], len(relators)
    )
    counts = {0: 1, 1: len(generators), 2: len(relators)}
    return complex_homology(ChainComplex(counts, {1: d1, 2: d2}), Z)


BRAID3_RELATOR = [("a", 1), ("b", 1), ("a", 1), ("b", -1), ("a", -1), ("b", -1)]


def test_integral_tables_match_the_smith_oracle():
    # the rank route against dense Smith normal form; SNF finishes at k = 10 trivial
    for k in range(1, 11):
        for system in (TRIVIAL, SIGN) if k < 10 else (TRIVIAL,):
            oracle = complex_homology(dual_fn_complex(k, system), Z)
            assert config_homology(k, system, Z) == oracle, (k, system)


def test_smith_oracle_refuses_past_its_bit_budget():
    # at k = 10 (sign) the dense entries grow past 500,000 bits; the budget stops that early
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"budget of {complexes.SNF_MAX_BITS} bits"):
        complex_homology(dual_fn_complex(10, SIGN), Z)
    assert time.perf_counter() - started < 5


def test_failed_local_certificate_is_refused(monkeypatch):
    # a pretended p^2 divisor: zero rows of D/p leave the F_p rank below the rank over Q
    real = braid._morse_rows
    monkeypatch.setattr(braid, "_morse_rows", lambda matching, neighbours, i: [
        [] for _ in real(matching, neighbours, i)])
    with pytest.raises(CellModelError, match=r"C_4 \(sign system\) in degree 0: .* divisible by 2\^2"):
        config_homology(4, SIGN, Z)


def test_local_certificate_runs_only_where_there_is_torsion(monkeypatch):
    # r_p = r_Q leaves no divisor divisible by p; one call per (degree, p) with p-torsion
    calls = []
    real = braid._morse_rows
    monkeypatch.setattr(braid, "_morse_rows", lambda matching, neighbours, i: calls.append(matching.p) or
                        real(matching, neighbours, i))
    table = config_homology(9, SIGN, Z)
    pairs = [(i, p) for i in table.degrees() for p in (2, 3, 5, 7) if table.group(i).p_torsion_count(p)]
    assert len(calls) == len(pairs) == 7


@pytest.mark.parametrize("system", [TRIVIAL, SIGN])
def test_planted_p_squared_divisor_is_refused(monkeypatch, system):
    # p times the rows of D/p of a degree with 3-torsion (H_5 = Z/6 of C_12, H_2 = Z/6 of C_6), as
    # if D were 9 (D/p): they vanish mod 3, so the certificate counts only the pairs, below the rank over Q
    k, degree = {TRIVIAL: (12, 6), SIGN: (6, 3)}[system]
    real = braid._morse_rows
    monkeypatch.setattr(braid, "_morse_rows", lambda matching, neighbours, i: [
        [(j, 3 * v if i == degree else v) for j, v in row] for row in real(matching, neighbours, i)])
    with pytest.raises(CellModelError, match=r"divisible by 3\^2"):
        config_homology(k, system, Z)


def test_sign_tables_match_the_closed_form_by_weight():
    # H_i(C_k; sign x F_p) is weight k, degree i + k of the double loop space of S^3
    for p in (2, 3, 5, 7, 0):
        rows = loop_space_series(2, p, 48)
        for k in range(1, 25):
            got = config_homology(k, SIGN, GF(p) if p else Q)
            assert got.dims(k) == rows[k][k : 2 * k + 1], (k, p)


def test_trivial_tables_match_the_closed_form_by_weight():
    # H_i(C_k; F_p), the braid group's homology, is weight k, degree i at q = 0
    for p in (2, 3, 5, 7, 0):
        rows = loop_space_series(2, p, 24, TRIVIAL)
        for k in range(1, 25):
            got = config_homology(k, TRIVIAL, GF(p) if p else Q)
            assert got.dims(k) == rows[k][: k + 1], (k, p)


def _integral_tables_match_the_closed_form(system, ks):
    # universal coefficients against weight k over Q and each F_p, p <= k; with
    # exponent-p torsion and no prime above k this fixes the integral table
    for k in ks:
        shift = k if system == SIGN else 0
        table = config_homology(k, system, Z)
        for p in (0, *(p for p in range(2, k + 1) if is_prime(p))):
            got = [table.dim_mod(j, p) if p else table.free_rank(j) for j in range(k + 1)]
            assert got == loop_space_series(2, p, shift + k, system)[k][shift:], (k, system, p)


@pytest.mark.parametrize("system", [SIGN, TRIVIAL])
def test_integral_tables_match_the_closed_form_through_k14(system):
    _integral_tables_match_the_closed_form(system, range(1, 15))


@pytest.mark.parametrize("system", [SIGN, TRIVIAL])
def test_integral_tables_match_the_closed_form_from_k15_to_k24(system):
    _integral_tables_match_the_closed_form(system, range(15, 25))


@pytest.mark.parametrize("system", [SIGN, TRIVIAL])
def test_integral_tables_match_the_closed_form_at_k28_and_k32(system):
    # the sizes where the certificate flows take most of a table's time
    _integral_tables_match_the_closed_form(system, (28, 32))


def test_fox_oracle_matches_cell_model_for_three_strands():
    # the 3-strand group is <a, b | aba = bab>; its presentation 2-complex is
    # aspherical (one-relator, relator not a proper power), so this is exact.
    for system, images in ((TRIVIAL, {"a": 1, "b": 1}), (SIGN, {"a": -1, "b": -1})):
        oracle = _presentation_homology(["a", "b"], [BRAID3_RELATOR], images)
        got = config_homology(3, system, Z)
        assert got == oracle


def test_fox_oracle_matches_cell_model_for_two_strands():
    # two strands: infinite cyclic, presentation complex is a circle
    for system, images in ((TRIVIAL, {"a": 1}), (SIGN, {"a": -1})):
        oracle = _presentation_homology(["a"], [], images)
        got = config_homology(2, system, Z)
        assert got == oracle


def test_sign_homology_three_strands_fixture():
    assert config_homology(3, SIGN, Z) == GradedAbelianGroup({0: Z2, 1: AbelianGroup(0, (3,))})


def test_dk_examples():
    assert dk_homology(1, Z) == GradedAbelianGroup({1: Z1})
    assert dk_homology(2, Z) == GradedAbelianGroup({2: Z2})
    assert dk_homology(1, Q) == GradedAbelianGroup({1: Z1})


def test_dk_vanishing_window():
    for k in range(1, 8):
        h = dk_homology(k, Z)
        degrees = h.degrees()
        assert all(k <= d < 2 * k for d in degrees)


def test_field_dims_match_dual_complex_route():
    for k in range(1, 7):
        for system in (TRIVIAL, SIGN):
            dual = dual_fn_complex(k, system)
            for ring in (GF(2), GF(3), GF(5), Q):
                direct = config_homology(k, system, ring)
                via_complex = complex_homology(dual, ring)
                for i in range(k):
                    assert direct.free_rank(i) == via_complex.free_rank(i)


def test_faces_are_sparse_and_well_formed():
    for k in range(1, 11):
        for system in (TRIVIAL, SIGN):
            faces, _ = _neighbours(k, system)
            for cell in _compositions(k):
                row = faces(cell)
                targets = [face for face, _ in row]
                assert len(set(targets)) == len(targets) <= len(cell) - 1
                assert all(len(face) == len(cell) - 1 and sum(face) == k and min(face) > 0 for face in targets)
                assert all(coeff for _, coeff in row)
                # the first merge joins the first two blocks, with the sign +1
                first = len(cell) > 1 and shuffle_sum(cell[0], cell[1], system == TRIVIAL)
                if first:
                    assert row[0] == ((cell[0] + cell[1], *cell[2:]), first)


def test_classical_stability():
    for k in range(2, 10):
        current = config_homology(k, TRIVIAL, Z)
        bigger = config_homology(k + 1, TRIVIAL, Z)
        for i in range(k // 2 + 1):
            assert current.group(i) == bigger.group(i), (k, i)


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), Q], ids=str)
@pytest.mark.parametrize("N, T", [(2, 16), (3, 27)])
def test_every_cut_of_the_series_matches_the_closed_form(N, T, ring):
    # omega_series is the one place a series is cut, inside a summand too: every t <= T
    want = [sum(column) for column in zip(*loop_space_series(N, ring.p or 0, T))]
    for t in range(T + 1):
        assert list(omega_series(N, ring, t, k_max=T)) == want[:t + 1], t


def test_enumerate_cells_bounds():
    # the dense oracle's memory guard is fixed at k = 10: no argument raises it
    for k, system in ((0, TRIVIAL), (11, TRIVIAL), (3, "bogus")):
        with pytest.raises(ValueError):
            dual_fn_complex(k, system)
    with pytest.raises(TypeError):
        dual_fn_complex(11, TRIVIAL, k_max=11)
    assert list(inspect.signature(dual_fn_complex).parameters) == ["k", "system"]
    assert dual_fn_complex(10, SIGN).generator_counts == {i: comb(9, i) for i in range(10)}


def test_bounds_are_enforced():
    # the engine has no summand bound: it refuses only k < 1 and an unknown system
    for ring in (Z, GF(2)):
        for k, system in ((0, TRIVIAL), (-1, SIGN), (3, "bogus")):
            with pytest.raises(ValueError):
                config_homology(k, system, ring)
        with pytest.raises(ValueError):
            dk_homology(0, ring)
    for fn in (config_homology, dk_homology):
        assert "k_max" not in inspect.signature(fn).parameters
    table = config_homology(11, TRIVIAL, Z)
    assert config_homology(11, TRIVIAL, GF(2)).dims(10) == [table.dim_mod(i, 2) for i in range(11)]


def test_the_summand_bound_is_the_requests_not_the_engines():
    with pytest.raises(ValueError, match="beyond the configured bound 10"):
        hol_homology(11, 2, GF(2))
    assert config_homology(11, SIGN, GF(2)).dims(11) == loop_space_series(2, 2, 22)[11][11:]


def test_memo_shares_results(tmp_path, monkeypatch):
    cache = HomologyCache(tmp_path)
    first = e1_page_hol(6, 2, Z, cache=cache)
    monkeypatch.setattr(braid, "config_homology", None)  # the second request computes nothing
    second = e1_page_hol(6, 2, Z, cache=cache)
    # the cache returns equal tables, so the columns hold equal groups
    assert all(second.entries[cell] == group for cell, group in first.entries.items() if cell[0])
    assert first.entries.keys() == second.entries.keys()


def test_the_engine_never_loads_the_cache():
    code = (
        "import sys; from polystab.braid import SIGN, config_homology; from polystab.rings import Z; "
        "print(config_homology(6, SIGN, Z).to_payload() == {'0': [0, [2]], '2': [0, [6]], '3': [0, [10]]}, "
        "'polystab.cache' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout.split() == ["True", "False"], done.stderr
