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

A cell is held only as its cut mask (a merge deletes one cut), boundary rows
come straight from ``itertools.combinations``, and d^2 = 0 is one identity per
triple of block sizes, checked in O(k^3) by :func:`_merge_coefficients`.

This complex computes Borel-Moore homology; the space is an open complex
manifold of real dimension 2k, so transposing the complex and regrading a
cell of dimension j into homological degree 2k - j computes ordinary
homology, with matching torsion.  :func:`config_homology` reduces it by ranks alone, for
every ring; the dense :func:`dual_fn_complex` and Smith normal form are the test oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .abelian import AbelianGroup, GradedAbelianGroup
from .cache import BraidHomologyKey, HomologyCache
from .complexes import ChainComplex, complex_homology  # noqa: F401  kept: perfbench/tracer.py wraps it by name
from .linalg import IntMatrix, p_local_ranks, rank_int_rows, rank_mod_p_rows
from .rings import Ring, Z, is_prime

TRIVIAL = "trivial"
SIGN = "sign"

DEFAULT_K_MAX = 10


class CellModelError(RuntimeError):
    """The cell model failed its boundary-squared self-check or an integral table its local certificate."""


def _check_system(system: str) -> None:
    if system not in (TRIVIAL, SIGN):
        raise ValueError(f"unknown coefficient system {system!r}")


def _check_k(k: int, k_max: int) -> None:
    if not 1 <= k <= k_max:
        raise ValueError(f"k={k} outside the supported range 1..{k_max}")


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


def dual_fn_complex(k: int, system: str, k_max: int = DEFAULT_K_MAX) -> ChainComplex:
    """Transpose of the cell complex regraded so degree i computes H_i.

    A cell of dimension j lands in degree 2k - j; the boundary in degree i is
    the transpose of the merge differential into the cells with k - i parts,
    made dense from the sparse rows of :func:`_dual_boundary_rows` for the
    dense oracle (Smith normal form) and ``verify cells``.  Rows and columns
    are numbered in ``combinations`` order of the cuts.  Poincare duality for
    the open 2k-manifold makes this compute ordinary homology with the chosen
    rank-one system.  Construction raises :class:`CellModelError` if the
    boundary-squared self-check fails.
    """
    _check_k(k, k_max)
    _check_system(system)
    counts = {i: comb(k - 1, i) for i in range(k)}
    boundary = {}
    for i in range(1, k):
        position = {_cut_mask(k, cuts): j for j, cuts in enumerate(combinations(range(1, k), k - i - 1))}
        dense = [[0] * counts[i] for _ in range(counts[i - 1])]
        for out, row in zip(dense, _dual_boundary_rows(k, system, i)):
            for key, v in row:
                out[position[key]] = v
        boundary[i] = IntMatrix(counts[i - 1], counts[i], dense)
    return ChainComplex(counts, boundary)


def _cut_mask(k: int, cuts) -> int:
    """Column key of the composition of k cut at ``cuts``: cut c sets bit k - 1 - c."""
    return sum(1 << (k - 1 - c) for c in cuts)


def _merge_coefficients(k: int, system: str) -> list[list[int]]:
    """Table s[a][b] = shuffle_sum(a, b) for a + b <= k, after the d^2 = 0 self-check.

    The boundary of a cell (a_0, ..., a_r) merges a_j and a_(j+1) with
    coefficient (-1)^j s(a_j, a_(j+1)), deleting the j-th cut.  A target of
    d^2 deletes two cuts, so it is reached by exactly the two orders of
    deleting them:

    * non-adjacent cuts merge disjoint pairs; the coefficient product is the
      same either way, and deleting the earlier cut first shifts the later
      merge down one position, so the two terms cancel by the position sign
      alone;
    * adjacent cuts merge one triple (a, b, c) into a block; the two orders
      contribute s(a,b) s(a+b,c) and -s(b,c) s(a,b+c).

    Each triple with a + b + c <= k occurs in a cell of k (padded with the
    block k - a - b - c when that is positive), so d^2 = 0 on every cell of k
    exactly when each such triple satisfies s(a,b) s(a+b,c) = s(b,c) s(a,b+c).
    That is checked here in O(k^3); a failure raises :class:`CellModelError`.
    """
    signed = system == TRIVIAL
    s = [[0] * (k + 1) for _ in range(k + 1)]
    for a in range(1, k):
        for b in range(1, k - a + 1):
            s[a][b] = shuffle_sum(a, b, signed)
    for a in range(1, k - 1):
        for b in range(1, k - a):
            for c in range(1, k - a - b + 1):
                if s[a][b] * s[a + b][c] != s[b][c] * s[a][b + c]:
                    raise CellModelError(
                        f"cell-model self-check failed: boundary squared of the triple {(a, b, c)} "
                        f"is nonzero (k={k}, {system} system)"
                    )
    return s


def _dual_boundary_rows(k: int, system: str, i: int) -> list[list[tuple[int, int]]]:
    """Sparse rows of the degree-i boundary of the transposed complex (i >= 1).

    A composition of k is its set of cuts in 1..k-1, and its column key is
    :func:`_cut_mask`.  Row r is the merge boundary of the r-th cell with
    k - i + 1 parts (``combinations`` order of its k - i cuts), as
    ``(key, coefficient)`` pairs over the cells with k - i parts: distinct
    keys in increasing order, no zero coefficient, at most k - i pairs (one
    per deleted cut).  The first merge deletes the highest bit, so whenever
    its coefficient is nonzero it is the row's smallest key; elimination by
    leading key then pivots on first merges, the order of algebraic discrete
    Morse theory on the bar complex (Skoldberg, Trans. AMS 358, 2006;
    Joellenbeck-Welker, Mem. AMS 197, 2009).
    """
    s = _merge_coefficients(k, system)
    bit = [1 << (k - 1 - c) for c in range(k)]
    rows = []
    for cuts in combinations(range(1, k), k - i):
        mask = _cut_mask(k, cuts)
        row = []
        for j, (prev, c, nxt) in enumerate(zip((0, *cuts), cuts, (*cuts[1:], k))):
            coeff = s[c - prev][nxt - c]
            if coeff:
                row.append((mask ^ bit[c], -coeff if j % 2 else coeff))
        rows.append(row)
    return rows


def _homology(k: int, system: str, ring: Ring, through: int | None) -> GradedAbelianGroup:
    """H_i(C_k; system x ring) for i up to ``through`` (defaults to all), one degree's rows at a time.

    Degree i has comb(k-1, i) - r_i - r_(i+1) free generators, r_i the rank of d_i over the
    field (over Q for Z).  Over Z, degree i-1 also has b copies of Z/p for each prime p <= k,
    where d_i has a + b divisors of p-adic valuation 0 or 1 (:func:`p_local_ranks`); if a + b
    is not the rank over Q, p^2 divides a divisor, against F. Cohen's exponent-p theorem
    (Cohen-Lada-May, LNM 533, III), and :class:`CellModelError` is raised.

    No prime q > k divides a divisor: F(C, k) -> C_k is a k!-sheeted cover that makes the
    system trivial, and transfer then projection is multiplication by k!, so H_*(C_k; L x
    Z[1/k!]) is a summand of the free H_*(F(C, k); Z[1/k!]) (Arnold).
    """
    hi = k - 1 if through is None else min(through, k - 1)
    primes = [p for p in range(2, k + 1) if is_prime(p)] if ring == Z else []
    ranks, torsion = {}, {i: [] for i in range(k)}
    for i in range(1, min(hi + 1, k - 1) + 1):
        rows = _dual_boundary_rows(k, system, i)
        ranks[i] = rank_mod_p_rows(rows, ring.p) if ring.p else rank_int_rows(rows)
        for p in primes:
            units, by_p = p_local_ranks(rows, p)
            if units + by_p != ranks[i]:
                raise CellModelError(f"integral homology of C_{k} ({system} system) in degree {i - 1}: "
                                     f"an elementary divisor is divisible by {p}^2; no table is given")
            torsion[i - 1] += [p] * by_p
        del rows
    return GradedAbelianGroup({
        i: AbelianGroup.from_orders(comb(k - 1, i) - ranks.get(i, 0) - ranks.get(i + 1, 0), torsion[i])
        for i in range(hi + 1)
    })


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
        return _homology(k, system, ring, through)
    key = BraidHomologyKey(k, system)
    result = cache.get(key) if cache is not None else None
    if result is None:
        result = _homology(k, system, Z, None)
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
