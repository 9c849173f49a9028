import random
from itertools import combinations

import pytest

from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.complexes import ChainComplex, complex_homology
from polystab.linalg import IntMatrix
from polystab.rings import GF, Q, Z


def test_multiplication_by_two():
    cpx = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    h = complex_homology(cpx, Z)
    assert h.group(0) == AbelianGroup(0, (2,))
    assert h.group(1).is_zero


def test_zero_differentials_recover_generator_counts():
    counts = {0: 2, 1: 3, 2: 1}
    cpx = ChainComplex(counts)
    h = complex_homology(cpx, Z)
    for deg, count in counts.items():
        assert h.group(deg) == AbelianGroup(count)


def test_circle_complex():
    cpx = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[0]])})
    h = complex_homology(cpx, Z)
    assert h == GradedAbelianGroup({0: AbelianGroup(1), 1: AbelianGroup(1)})


def test_boundary_condition_violation_names_degree():
    bad = ChainComplex(
        {0: 1, 1: 1, 2: 1},
        {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])},
    )
    with pytest.raises(ValueError, match="degree 2"):
        complex_homology(bad, Z)


def test_shape_validation():
    with pytest.raises(ValueError):
        ChainComplex({0: 1, 1: 2}, {1: IntMatrix.from_rows([[1]])})
    with pytest.raises(ValueError):
        ChainComplex({0: 1, 2: 1})  # degrees not contiguous
    with pytest.raises(ValueError):
        ChainComplex({0: 1}, {5: IntMatrix.zeros(1, 1)})


def _simplicial_complex(facets):
    """Chain complex of a small simplicial complex (vertices are integers)."""
    simplices = set()
    for facet in facets:
        facet = tuple(sorted(facet))
        for r in range(1, len(facet) + 1):
            simplices.update(combinations(facet, r))
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for dim in by_dim:
        by_dim[dim].sort()
    top = max(by_dim)
    counts = {d: len(by_dim.get(d, [])) for d in range(top + 1)}
    boundary = {}
    for dim in range(1, top + 1):
        rows = {s: i for i, s in enumerate(by_dim[dim - 1])}
        mat = [[0] * counts[dim] for _ in range(counts[dim - 1])]
        for col, s in enumerate(by_dim[dim]):
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1 :]
                mat[rows[face]][col] += (-1) ** omit
        boundary[dim] = IntMatrix.from_rows(mat, counts[dim])
    return ChainComplex(counts, boundary)


def test_projective_plane_homology():
    # minimal 6-vertex triangulation: antipodal identification of the icosahedron
    facets = [
        (1, 2, 3),
        (1, 3, 4),
        (1, 4, 5),
        (1, 5, 6),
        (1, 2, 6),
        (2, 3, 5),
        (3, 4, 6),
        (2, 4, 5),
        (2, 4, 6),
        (3, 5, 6),
    ]
    cpx = _simplicial_complex(facets)
    h = complex_homology(cpx, Z)
    assert h.group(0) == AbelianGroup(1)
    assert h.group(1) == AbelianGroup(0, (2,))
    assert h.group(2).is_zero
    mod2 = complex_homology(cpx, GF(2))
    assert [mod2.free_rank(i) for i in range(3)] == [1, 1, 1]
    rational = complex_homology(cpx, Q)
    assert [rational.free_rank(i) for i in range(3)] == [1, 0, 0]


def _random_simplicial(rng):
    vertices = list(range(1, rng.randint(4, 6) + 1))
    facets = []
    for _ in range(rng.randint(2, 7)):
        size = rng.randint(1, 3)
        facets.append(tuple(rng.sample(vertices, size)))
    return _simplicial_complex(facets)


def test_field_euler_characteristic_identity():
    rng = random.Random(99)
    for _ in range(20):
        cpx = _random_simplicial(rng)
        cell_chi = sum((-1) ** d * n for d, n in cpx.generator_counts.items())
        for ring in (GF(2), GF(3), Q):
            h = complex_homology(cpx, ring)
            hom_chi = sum((-1) ** d * h.free_rank(d) for d in cpx.degrees)
            assert hom_chi == cell_chi


def test_universal_coefficients_against_field_runs():
    rng = random.Random(41)
    for _ in range(20):
        cpx = _random_simplicial(rng)
        integral = complex_homology(cpx, Z)
        assert all(
            complex_homology(cpx, Q).free_rank(d) == integral.free_rank(d)
            for d in cpx.degrees
        )
        for p in (2, 3, 5):
            direct = complex_homology(cpx, GF(p))
            assert all(
                direct.free_rank(d) == integral.dim_mod(d, p) for d in cpx.degrees
            )
