import random
from itertools import combinations
from math import comb

import pytest

from polystab import braid
from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.braid import (
    SIGN,
    TRIVIAL,
    build_fn_complex,
    config_homology,
    dk_homology,
    dual_fn_complex,
    enumerate_cells,
    shuffle_sum,
)
from polystab.cache import HomologyCache
from polystab.complexes import ChainComplex, complex_homology
from polystab.linalg import IntMatrix
from polystab.rings import GF, Q, Z

Z1 = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


def test_enumerate_cells_small():
    assert {d: [c.parts for c in v] for d, v in enumerate_cells(1).items()} == {2: [(1,)]}
    assert {d: [c.parts for c in v] for d, v in enumerate_cells(2).items()} == {
        3: [(2,)],
        4: [(1, 1)],
    }
    cells3 = enumerate_cells(3)
    assert [c.parts for c in cells3[4]] == [(3,)]
    assert sorted(c.parts for c in cells3[5]) == [(1, 2), (2, 1)]
    assert [c.parts for c in cells3[6]] == [(1, 1, 1)]


def test_cell_count_and_dimensions():
    for k in range(1, 9):
        cells = enumerate_cells(k)
        assert sum(len(v) for v in cells.values()) == 2 ** (k - 1)
        for dim, comps in cells.items():
            for c in comps:
                assert c.size == k
                assert c.cell_dimension == dim == k + c.num_parts


def test_cell_euler_count_identity():
    # sum over compositions of (-1)^(k+r) vanishes for k >= 2
    for k in range(2, 11):
        total = sum(
            (-1) ** (k + r) * comb(k - 1, r - 1) for r in range(1, k + 1)
        )
        assert total == 0


def test_enumerate_cells_bounds():
    with pytest.raises(ValueError):
        enumerate_cells(0)
    with pytest.raises(ValueError):
        enumerate_cells(11)
    assert enumerate_cells(11, k_max=11)


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
    triv = build_fn_complex(2, TRIVIAL)
    assert triv.boundary_matrix(4).entries == [[0]]
    sign = build_fn_complex(2, SIGN)
    assert abs(sign.boundary_matrix(4).entries[0][0]) == 2


def test_k1_complex_has_single_generator():
    for system in (TRIVIAL, SIGN):
        cpx = build_fn_complex(1, system)
        assert cpx.generator_counts == {2: 1}
        assert not cpx.boundary


def test_boundary_squared_vanishes():
    for k in range(1, 9):
        for system in (TRIVIAL, SIGN):
            build_fn_complex(k, system).check_boundary_condition()
            dual_fn_complex(k, system).check_boundary_condition()


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
                assert rational.free_rank(i) == integral.dim_rational(i)


def test_dual_boundary_rows_are_sparse_and_well_formed():
    for k in range(1, 11):
        for system in (TRIVIAL, SIGN):
            for i in range(1, k):
                rows = braid._dual_boundary_rows(k, system, i)
                assert len(rows) == comb(k - 1, i - 1)
                for row in rows:
                    cols = [j for j, _ in row]
                    assert len(set(cols)) == len(cols) <= k - i
                    assert all(0 <= j < comb(k - 1, i) for j in cols)
                    assert all(coeff for _, coeff in row)


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


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        config_homology(11, TRIVIAL, Z)
    with pytest.raises(ValueError):
        build_fn_complex(0, TRIVIAL)
    with pytest.raises(ValueError):
        config_homology(3, "bogus", Z)
    assert config_homology(11, TRIVIAL, GF(2), k_max=11) is not None


def test_memo_shares_results(tmp_path):
    cache = HomologyCache(tmp_path)
    first = config_homology(6, SIGN, Z, cache=cache)
    second = config_homology(6, SIGN, Z, cache=cache)
    assert first is second  # the cache's memory front returns the identical table


def test_composition_validation():
    with pytest.raises(ValueError):
        braid.Composition((0, 2))
    c = braid.Composition((2, 1))
    assert (c.size, c.num_parts, c.cell_dimension) == (3, 2, 5)
