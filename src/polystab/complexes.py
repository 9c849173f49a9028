"""Finite chain complexes of free Z-modules and their homology over Z, Q, or F_p."""

from __future__ import annotations

from .abelian import AbelianGroup, GradedAbelianGroup
from .linalg import IntMatrix, rank_int_rows, rank_mod_p_rows, smith_normal_form
from .rings import Ring, Z


class ChainComplex:
    """Boundary maps d_i : C_i -> C_{i-1} over a contiguous degree range.

    ``generator_counts`` fixes the rank of each C_i; ``boundary[i]`` must have
    shape (counts[i-1], counts[i]).  Omitted boundaries default to zero.
    """

    def __init__(
        self,
        generator_counts: dict[int, int],
        boundary: dict[int, IntMatrix] | None = None,
    ):
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
                raise ValueError(
                    f"boundary at degree {i} has shape {mat.shape}, expected {want}"
                )
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
                raise ValueError(
                    f"boundary squared is nonzero at degree {i} "
                    f"(composite C_{i} -> C_{i - 2} does not vanish)"
                )


def complex_homology(cpx: ChainComplex, ring: Ring = Z) -> GradedAbelianGroup:
    """Homology of a finite chain complex over Z, Q, or a prime field.

    Over Z the degree-i group is reported as free rank plus the nontrivial
    invariant factors of d_{i+1}; over a field, as the dimension.
    """
    cpx.check_boundary_condition()
    groups: dict[int, AbelianGroup] = {}
    if ring == Z:
        snf = {i: smith_normal_form(cpx.boundary_matrix(i)) for i in range(cpx.low + 1, cpx.high + 1)}
        for i in cpx.degrees:
            rank_in = snf[i].rank if i in snf else 0
            above = snf.get(i + 1)
            rank_out = above.rank if above else 0
            torsion = tuple(d for d in above.invariant_factors if d > 1) if above else ()
            free = cpx.generator_counts[i] - rank_in - rank_out
            groups[i] = AbelianGroup(free, torsion)
    else:
        rows = {i: cpx.boundary_matrix(i).sparse_rows() for i in range(cpx.low + 1, cpx.high + 1)}
        ranks = {i: rank_mod_p_rows(r, ring.p) if ring.p else rank_int_rows(r) for i, r in rows.items()}
        for i in cpx.degrees:
            dim = cpx.generator_counts[i] - ranks.get(i, 0) - ranks.get(i + 1, 0)
            groups[i] = AbelianGroup(dim)
    return GradedAbelianGroup(groups)
