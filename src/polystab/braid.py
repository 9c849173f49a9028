"""Homology of unordered planar configuration spaces from a finite cell model.

Configurations of k unlabeled points in the plane are stratified by the
pattern of distinct real parts: reading the vertical lines left to right and
counting the points on each gives a composition (a_1, ..., a_r) of k.  The
stratum of a composition with r parts is an open cell of dimension k + r
(r real coordinates plus k ordered imaginary coordinates per line), and the
2^(k-1) cells together give the one-point compactification a CW structure, in
the style of Fox and Neuwirth.

The cellular boundary merges two adjacent columns.  Every order-preserving
interleaving (shuffle) of the two columns' points contributes one sheet of
the attaching map, and the orientation comparison of a sheet works out to
(-1)^(i+1) sign(shuffle) for a merge at position i.  A rank-one local system
twisted by the sign of the permutation monodromy re-labels the points across
a sheet by exactly the shuffle permutation, so it weights each sheet by a
second sign(shuffle) factor:

* trivial coefficients: merge coefficient (-1)^(i+1) * sum_shuffles sign(s);
* sign coefficients:    merge coefficient (-1)^(i+1) * (number of shuffles).

This complex computes Borel-Moore homology; the space is an open complex
manifold of real dimension 2k, so transposing the complex and regrading a
cell of dimension j into homological degree 2k - j computes ordinary
homology, with matching torsion.  That transposed complex is what
:func:`config_homology` reduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .abelian import AbelianGroup, GradedAbelianGroup
from .cache import BraidHomologyKey, HomologyCache
from .complexes import ChainComplex, complex_homology
from .linalg import IntMatrix, rank_int_rows, rank_mod_p_rows
from .rings import Q, Ring, Z

TRIVIAL = "trivial"
SIGN = "sign"

DEFAULT_K_MAX = 10


class CellModelError(RuntimeError):
    """The cell model failed its boundary-squared self-check: a sign bug, not user error."""


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integers; indexes one cell of the model."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts or any(a < 1 for a in self.parts):
            raise ValueError("composition parts must be positive integers")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def cell_dimension(self) -> int:
        return self.size + self.num_parts


def _check_system(system: str) -> None:
    if system not in (TRIVIAL, SIGN):
        raise ValueError(f"unknown coefficient system {system!r}")


def _check_k(k: int, k_max: int) -> None:
    if not 1 <= k <= k_max:
        raise ValueError(f"k={k} outside the supported range 1..{k_max}")


@lru_cache(maxsize=None)
def _compositions_by_parts(k: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """All compositions of k, grouped by part count, in a fixed lexicographic order."""
    by_parts: dict[int, list[tuple[int, ...]]] = {r: [] for r in range(1, k + 1)}
    for r in range(1, k + 1):
        for cuts in combinations(range(1, k), r - 1):
            bounds = (0, *cuts, k)
            comp = tuple(bounds[i + 1] - bounds[i] for i in range(r))
            by_parts[r].append(comp)
    return {r: tuple(v) for r, v in by_parts.items()}


def shuffle_sum(a: int, b: int, signed: bool) -> int:
    """Sum over order-preserving interleavings of blocks of sizes a and b.

    With ``signed`` each interleaving contributes the sign of its permutation;
    otherwise each contributes 1 (so the sum is just binomial(a+b, a)).  The
    signed sum is the Gaussian binomial [a+b choose a] at q = -1: zero when a
    and b are both odd, else binomial(floor((a+b)/2), floor(a/2)).
    """
    if a < 1 or b < 1:
        raise ValueError("block sizes must be positive")
    if not signed:
        return comb(a + b, a)
    if a % 2 and b % 2:
        return 0
    return comb((a + b) // 2, a // 2)


@lru_cache(maxsize=None)
def _merge_table(
    k: int, system: str
) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """Boundary of each cell: merged composition with its signed coefficient.

    Cells are visited by increasing part count, so the boundary of every
    merged cell is already in the table and boundary-squared = 0 is checked
    cell by cell as the table grows; a failure raises :class:`CellModelError`.
    """
    signed = system == TRIVIAL
    coeffs: dict[tuple[int, int], int] = {}
    table = {}
    for comps in _compositions_by_parts(k).values():
        for comp in comps:
            # merging at i < j leaves comp[i] + comp[i+1] vs comp[i] in slot i,
            # so the merged cells of one composition are distinct
            terms = []
            for i in range(len(comp) - 1):
                pair = comp[i : i + 2]
                coeff = coeffs.get(pair)
                if coeff is None:
                    coeff = coeffs[pair] = shuffle_sum(*pair, signed)
                if coeff:
                    merged = comp[:i] + (pair[0] + pair[1],) + comp[i + 2 :]
                    terms.append((merged, -coeff if i % 2 else coeff))
            table[comp] = tuple(terms)
            square: dict[tuple[int, ...], int] = {}
            for mid, c1 in table[comp]:
                for target, c2 in table[mid]:
                    square[target] = square.get(target, 0) + c1 * c2
            if any(square.values()):
                raise CellModelError(
                    f"cell-model self-check failed: boundary squared of {comp} is nonzero "
                    f"(k={k}, {system} system)"
                )
    return table


def enumerate_cells(k: int, k_max: int = DEFAULT_K_MAX) -> dict[int, list[Composition]]:
    """Cells of the model for k points, grouped by cell dimension (= k + parts)."""
    _check_k(k, k_max)
    by_parts = _compositions_by_parts(k)
    return {
        k + r: [Composition(c) for c in by_parts[r]] for r in sorted(by_parts)
    }


def build_fn_complex(k: int, system: str, k_max: int = DEFAULT_K_MAX) -> ChainComplex:
    """The Fox-Neuwirth-style cell complex, graded by cell dimension.

    Degree j holds the cells of dimension j (compositions with j - k parts);
    the differential merges adjacent blocks as described in the module
    docstring.  It is :func:`dual_fn_complex` transposed and regraded.
    """
    dual = dual_fn_complex(k, system, k_max)
    return ChainComplex(
        {2 * k - i: n for i, n in dual.generator_counts.items()},
        {2 * k - i + 1: d.transpose() for i, d in dual.boundary.items()},
    )


def dual_fn_complex(k: int, system: str, k_max: int = DEFAULT_K_MAX) -> ChainComplex:
    """Transpose of the cell complex regraded so degree i computes H_i.

    A cell of dimension j lands in degree 2k - j; the boundary in degree i is
    the transpose of the merge differential into the cells with k - i parts,
    made dense from the sparse rows of :func:`_dual_boundary_rows` for the
    integral (Smith normal form) route.  Poincare duality for the open
    2k-manifold makes this compute ordinary homology with the chosen rank-one
    system.  Construction raises :class:`CellModelError` if the
    boundary-squared self-check fails.
    """
    _check_k(k, k_max)
    _check_system(system)
    counts = {i: comb(k - 1, i) for i in range(k)}
    boundary = {}
    for i in range(1, k):
        dense = [[0] * counts[i] for _ in range(counts[i - 1])]
        for out, row in zip(dense, _dual_boundary_rows(k, system, i)):
            for j, v in row:
                out[j] = v
        boundary[i] = IntMatrix(counts[i - 1], counts[i], dense)
    return ChainComplex(counts, boundary)


def _dual_boundary_rows(k: int, system: str, i: int) -> list[list[tuple[int, int]]]:
    """Sparse rows of the degree-i boundary of the transposed complex (i >= 1).

    Row r is the merge boundary of the r-th cell with k - i + 1 parts, as
    ``(column, coefficient)`` pairs over the cells with k - i parts: distinct
    columns, no zero coefficient, at most k - i pairs (one per adjacent merge).
    This is the only code that turns :func:`_merge_table` into matrix rows.
    """
    by_parts = _compositions_by_parts(k)
    table = _merge_table(k, system)
    col_index = {c: j for j, c in enumerate(by_parts[k - i])}
    return [[(col_index[merged], coeff) for merged, coeff in table[comp]] for comp in by_parts[k - i + 1]]


def _field_dims(k: int, system: str, ring: Ring, through: int | None) -> dict[int, int]:
    """dim H_i(C_k; system x ring) for i up to ``through`` (defaults to all)."""
    top = k - 1 if k > 1 else 0
    hi = top if through is None else min(through, top)
    if hi < 0:
        return {}
    ranks: dict[int, int] = {}
    for i in range(1, min(hi + 1, k - 1) + 1):
        rows = _dual_boundary_rows(k, system, i)
        ranks[i] = rank_int_rows(rows) if ring == Q else rank_mod_p_rows(rows, ring.p)
    dims = {}
    for i in range(hi + 1):
        count = comb(k - 1, i)
        dims[i] = count - ranks.get(i, 0) - ranks.get(i + 1, 0)
    return dims


def config_homology(
    k: int,
    system: str,
    ring: Ring = Z,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
    through: int | None = None,
) -> GradedAbelianGroup:
    """H_*(C_k(C); L x ring) for L the trivial or sign rank-one system.

    Integral tables are read from and written to ``cache`` when one is given
    (its in-memory front makes repeated queries in one process free); without
    a cache every call recomputes.  Field dimensions are always computed.
    ``through`` truncates the degree range (the groups vanish in degrees >= k
    anyway).
    """
    _check_k(k, k_max)
    _check_system(system)
    if ring != Z:
        return GradedAbelianGroup({i: AbelianGroup(d) for i, d in _field_dims(k, system, ring, through).items()})
    key = BraidHomologyKey(k, system)
    result = cache.get(key) if cache is not None else None
    if result is None:
        result = complex_homology(dual_fn_complex(k, system, k_max=k_max), Z)
        if cache is not None:
            cache.put(key, result)
    if through is not None:
        result = GradedAbelianGroup(
            {d: result.group(d) for d in result.degrees() if d <= through}
        )
    return result


def dk_homology(
    k: int,
    ring: Ring = Z,
    *,
    k_max: int = DEFAULT_K_MAX,
    cache: HomologyCache | None = None,
    through: int | None = None,
) -> GradedAbelianGroup:
    """Reduced homology of the k-th stable summand D_k = F(C,k)+ ^_{S_k} (S^1)^^k.

    The symmetric group acts on the top cell of the smash power through the
    sign character, so this is sign-twisted configuration-space homology
    shifted up by k; it vanishes below degree k (and at or above degree 2k).
    """
    inner = None if through is None else through - k
    if inner is not None and inner < 0:
        return GradedAbelianGroup()
    return config_homology(
        k, SIGN, ring, k_max=k_max, cache=cache, through=inner
    ).shift(k)
