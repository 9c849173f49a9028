import random
from itertools import combinations
from math import comb

import pytest

from polystab import braid
from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.braid import (
    SIGN,
    TRIVIAL,
    CellModelError,
    config_homology,
    dk_homology,
    dual_fn_complex,
    shuffle_sum,
)
from polystab.cache import HomologyCache
from polystab.complexes import ChainComplex, complex_homology
from polystab.linalg import IntMatrix, eliminate
from polystab.rings import GF, Q, Z
from polystab.verify import loop_space_series

Z1 = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


def test_cell_masks_small():
    # k = 3: cut 1 is bit 1 and cut 2 is bit 0, so (1,2) -> 2, (2,1) -> 1, (3) -> 0
    assert braid._dual_boundary_rows(3, SIGN, 1) == [[(1, 2), (2, -2)]]
    assert braid._dual_boundary_rows(3, TRIVIAL, 1) == [[]]
    assert braid._dual_boundary_rows(3, SIGN, 2) == [[(0, 3)], [(0, 3)]]
    assert braid._dual_boundary_rows(3, TRIVIAL, 2) == [[(0, 1)], [(0, 1)]]


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

    A copy of the composition-table builder the cut masks replaced; it shares
    only ``shuffle_sum`` with the library.
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


def test_mask_order_ranks_match_the_lexicographic_order():
    for k in range(2, 13):
        for system in (TRIVIAL, SIGN):
            for i in range(1, k):
                old = _lexicographic_rows(k, system, i)
                new = braid._dual_boundary_rows(k, system, i)
                for modulus in (0, 2, 3, 5, 7):
                    assert eliminate(new, modulus) == eliminate(old, modulus), (k, system, i, modulus)


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
    # per-cell d^2 = 0 over the sparse rows themselves, so it also covers the
    # row builder's keys and signs, which the triple self-check does not see
    for k in range(1, 13):
        masks = [[sum(1 << (k - 1 - c) for c in cuts) for cuts in combinations(range(1, k), k - i - 1)]
                 for i in range(k)]
        for system in (TRIVIAL, SIGN):
            rows = {i: braid._dual_boundary_rows(k, system, i) for i in range(1, k)}
            assert _nonzero_squares(k, rows, masks) == [], (k, system)


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
                        dual_fn_complex(k, system, k_max=k)
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


def _presentation_homology(generators, relators, images):
    """Homology of the presentation 2-complex with the +-1 coefficient system."""
    d1 = IntMatrix.from_rows([[images[g] - 1 for g in generators]], len(generators))
    cols = []
    for rel in relators:
        cols.append([_fox_derivative_value(rel, g, images) for g in generators])
    d2 = IntMatrix.from_rows(
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


def test_failed_local_certificate_is_refused(monkeypatch):
    # a pretended p^2 divisor: a + b falls short of the rank over Q
    monkeypatch.setattr(braid, "p_local_ranks", lambda rows, p: (0, 0))
    with pytest.raises(CellModelError, match=r"C_4 \(sign system\) in degree 0: .* divisible by 2\^2"):
        config_homology(4, SIGN, Z)


def test_local_certificate_holds_through_k14():
    # past the Smith oracle: every prime p <= k certifies, and the integral
    # table agrees with the independently eliminated field tables
    for k in range(11, 15):
        for system in (TRIVIAL, SIGN):
            integral = config_homology(k, system, Z, k_max=14)
            for p in (2, 3, 5, 7, 11, 13):
                direct = config_homology(k, system, GF(p), k_max=14)
                assert direct.dims(k) == [integral.dim_mod(i, p) for i in range(k + 1)], (k, system, p)
            rational = config_homology(k, system, Q, k_max=14)
            assert rational.dims(k) == [integral.free_rank(i) for i in range(k + 1)], (k, system)


def test_sign_tables_match_the_closed_form_by_weight():
    # H_i(C_k; sign x F_p) is weight k, degree i + k of the double loop space of S^3
    for p in (2, 3, 5, 7, 0):
        rows = loop_space_series(2, p, 24)
        for k in range(1, 13):
            got = config_homology(k, SIGN, GF(p) if p else Q, k_max=12)
            assert got.dims(k) == rows[k][k : 2 * k + 1], (k, p)


def test_integral_sign_tables_match_the_closed_form_through_k14():
    # universal coefficients against weight k over Q and each F_p, p <= k; with
    # exponent-p torsion and no prime above k this fixes the integral table
    for k in range(1, 15):
        table = dk_homology(k, Z, k_max=14)
        for p in (0, 2, 3, 5, 7, 11, 13):
            if p <= k:
                got = [table.dim_mod(j, p) if p else table.free_rank(j) for j in range(2 * k + 1)]
                assert got == loop_space_series(2, p, 2 * k)[k], (k, p)


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


def test_field_dims_match_universal_coefficients():
    for k in range(1, 10):
        for system in (TRIVIAL, SIGN):
            integral = config_homology(k, system, Z)
            for p in (2, 3, 5, 7):
                direct = config_homology(k, system, GF(p))
                for i in range(k):
                    assert direct.free_rank(i) == integral.dim_mod(i, p)
            rational = config_homology(k, system, Q)
            for i in range(k):
                assert rational.free_rank(i) == integral.free_rank(i)


def test_dual_boundary_rows_are_sparse_and_well_formed():
    for k in range(1, 11):
        for system in (TRIVIAL, SIGN):
            for i in range(1, k):
                rows = braid._dual_boundary_rows(k, system, i)
                assert len(rows) == comb(k - 1, i - 1)
                cells = combinations(range(1, k), k - i)
                for row, cuts in zip(rows, cells):
                    keys = [key for key, _ in row]
                    assert len(set(keys)) == len(keys) <= k - i
                    assert all(0 <= key < 2 ** (k - 1) for key in keys)
                    assert all(key.bit_count() == k - i - 1 for key in keys)
                    assert all(coeff for _, coeff in row)
                    # the first merge deletes the lowest cut, the highest bit
                    first = shuffle_sum(cuts[0], (cuts[1:] or (k,))[0] - cuts[0], system == TRIVIAL)
                    if first:
                        mask = sum(1 << (k - 1 - c) for c in cuts)
                        assert row[0] == (mask - (1 << (k - 1 - cuts[0])), first)


def test_classical_stability():
    for k in range(2, 10):
        current = config_homology(k, TRIVIAL, Z)
        bigger = config_homology(k + 1, TRIVIAL, Z)
        for i in range(k // 2 + 1):
            assert current.group(i) == bigger.group(i), (k, i)


def test_truncated_queries_match_full():
    for k in (3, 5, 7):
        full = config_homology(k, SIGN, Z)
        part = config_homology(k, SIGN, Z, through=1)
        assert part.degrees() == tuple(d for d in full.degrees() if d <= 1)
        dims_full = config_homology(k, SIGN, GF(2))
        dims_part = config_homology(k, SIGN, GF(2), through=2)
        for i in range(3):
            assert dims_part.free_rank(i) == dims_full.free_rank(i)
        assert dims_part.top_degree() is None or dims_part.top_degree() <= 2


def test_enumerate_cells_bounds():
    with pytest.raises(ValueError):
        dual_fn_complex(0, TRIVIAL)
    with pytest.raises(ValueError):
        dual_fn_complex(11, TRIVIAL)
    assert dual_fn_complex(11, TRIVIAL, k_max=11)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        config_homology(11, TRIVIAL, Z)
    with pytest.raises(ValueError):
        dual_fn_complex(0, TRIVIAL)
    with pytest.raises(ValueError):
        config_homology(3, "bogus", Z)
    assert config_homology(11, TRIVIAL, GF(2), k_max=11) is not None


def test_memo_shares_results(tmp_path):
    cache = HomologyCache(tmp_path)
    first = config_homology(6, SIGN, Z, cache=cache)
    second = config_homology(6, SIGN, Z, cache=cache)
    assert first is second  # the cache's memory front returns the identical table
