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

A cell is its composition tuple; :func:`_neighbours` gives its faces and
cofaces, the one boundary rule of every route; and d^2 = 0 is one identity per
triple of block sizes, checked in O(k^3) by :func:`_merge_coefficients`.

This complex computes Borel-Moore homology; the space is an open complex
manifold of real dimension 2k, so transposing the complex and regrading a
cell of dimension j into homological degree 2k - j computes ordinary
homology, with matching torsion.  :func:`config_homology` reduces it by ranks
alone, for every ring; the dense :func:`dual_fn_complex` and Smith normal form
are the test oracle.  Ranks are transpose-invariant, so the route works on the
merge differential itself, which is the normalized bar complex of the
divided-power algebra: block a is x^(a), and x^(a) x^(b) = s(a, b) x^(a+b).

**The Morse route** (algebraic discrete Morse theory: Skoldberg, Trans. AMS
358, 2006; Joellenbeck-Welker, Mem. AMS 197, 2009, ch. 5).  Over F_p (p = 0
for Q, and any p > k acts as Q) each block a has a normal word w(a), its
letters in increasing order: the sign system has p^u with multiplicity the
base-p digit u of a (over Q, a copies of the letter 1); the trivial system
(the algebra E[y] x Gamma[z] at q = -1) has the letter 1 once when a is odd,
then the sign system's letters of a // 2, doubled.  A generator is a block
of one letter, and the first factor of a is its first letter.  [x | b]
*merges* when x is a generator, x is at most the first letter of b, and
x w(b) is again a normal word (no carry: no sign letter reaches multiplicity
p, the exterior letter 1 appears once); s(x, b) is then a unit mod p, which
:class:`_Matching` checks.  By Lucas and Kummer, s(a, b) is nonzero mod p
exactly when w(a) and w(b) add without carry, and then w(a + b) is their
sorted union.

The matching scans a cell (a_1, ..., a_r) for the leftmost position j where
a_j is not a generator and its first factor y does not merge with a_(j-1)
(split a_j into (y, a_j - y)), or a_j is a generator that merges with a_(j+1)
while a_(j-1) does not merge with a_j + a_(j+1) (merge them).  The two moves
undo each other (the tests check that ``partner`` is an involution).  A cell
where no position acts is critical; whether position j acts depends only on
a_(j-1), a_j and a_(j+1), so a DFS over prefixes yields exactly the critical
cells.  With crit_r critical cells of r parts, the pairs between r + 1 and r
parts number up_r = C(k-1, r-1) - crit_r - down_r, down_1 = 0 and
down_(r+1) = up_r, with no enumeration.  The rank of the merge map from r + 1
to r parts is up_r plus the rank of the Morse differential between the
critical cells, which the flow Phi gives: Phi(tau) is tau when tau is
critical, 0 when tau's partner has fewer parts, and else
-[d sigma : tau]^(-1) sum_(tau' != tau) [d sigma : tau'] Phi(tau') over the
other faces of its partner sigma.  The flow runs from both ends at once (the
coboundary side is the same recursion on the transpose) and the first to
finish gives the rows.  It is iterative and memoised, and a revisited cell
raises :class:`CellModelError`.

*Acyclicity.*  Give a cell the word W, the concatenation of the w(a_j).  A
split used by the matching keeps W.  A face of nonzero coefficient either
carries, which lowers the letter count |W| (a carry trades p letters for
one), or sorts two adjacent runs of W, which keeps |W| and does not raise W
lexicographically.  So along a gradient path tau -> sigma = partner(tau) ->
tau' (a face of sigma other than tau, itself split by the matching) the pair
(|W|, W) never rises.  Where it stays put, tau and tau' are bar sets on the
gaps of one word: sigma adds the bar h after the first letter of tau's
acting block j, and tau' drops another bar g.  Let S(tau) list sigma's gaps
up to h, each as bar or no bar (bar the larger), followed by an end mark
larger than both.  If g lies past the bar h' that closes block j + 1 of
sigma, tau' merges at its position j - 1 or j, so it is matched down and
the path stops.  If g = h', tau' agrees with sigma up to h and splits past
h, so S(tau) is a proper prefix of S(tau') and the end mark makes
S(tau') < S(tau).  If g < h, tau' does not split before its merged block
(tau would split there too), nor split that block before g (tau would split
its own block there), nor at g (sigma would be its partner as well), so it
splits past g and S(tau') has no bar at g, where S(tau) has one.  Hence
(|W|, W, S) falls strictly along every path: the matching is acyclic, over
F_p and over Z_(p) alike, since a coefficient divisible by p still carries
or sorts.

Reducing one matched pair is a unit pivot, so over a field, and over Z_(p)
for the F_p matching, the elementary divisors of the merge map are up_r
units together with those of the Morse differential (Skoldberg's
reduction).  A unit mod p is a unit mod p^2, so the certificate
:func:`p_local_ranks` runs on the F_p Morse complex computed mod p^2, and
the pairs count toward its a.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, lcm

from .abelian import AbelianGroup, GradedAbelianGroup
from .linalg import p_local_ranks, rank_int_rows, rank_mod_p_rows
from .rings import DEFAULT_K_MAX, CellModelError, Ring, Z, is_prime

TRIVIAL = "trivial"
SIGN = "sign"


def __getattr__(name: str):  # PEP 562: only perfbench/tracer.py wraps braid.complex_homology (ROADMAP item 1)
    if name == "complex_homology":
        from .complexes import complex_homology
        return complex_homology
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    made dense from the faces of :func:`_neighbours`, the rule the tables run,
    for the Smith normal form oracle and ``verify cells``.  Rows and columns
    are numbered in ``combinations`` order of the cuts.  Poincare duality for
    the open 2k-manifold makes this compute ordinary homology with the chosen
    rank-one system.  Construction raises :class:`CellModelError` if the
    boundary-squared self-check fails.
    """
    from .complexes import ChainComplex  # the dense oracle: no table command loads it
    from .linalg import IntMatrix
    _check_k(k, k_max)
    _check_system(system)
    faces, _ = _neighbours(_merge_coefficients(k, system))
    cells = [[tuple(b - a for a, b in zip((0, *cuts), (*cuts, k))) for cuts in combinations(range(1, k), k - i - 1)]
             for i in range(k)]  # degree i: the cells with k - i parts
    boundary = {}
    for i in range(1, k):
        position = {cell: j for j, cell in enumerate(cells[i])}
        dense = [[0] * len(cells[i]) for _ in cells[i - 1]]
        for out, cell in zip(dense, cells[i - 1]):
            for face, v in faces(cell):
                out[position[face]] = v
        boundary[i] = IntMatrix(len(cells[i - 1]), len(cells[i]), dense)
    return ChainComplex({i: len(cells[i]) for i in range(k)}, boundary)


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
    That is checked here in O(k^3), once per table; a failure raises
    :class:`CellModelError`.
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


def _neighbours(s: list[list[int]]):
    """The (faces, cofaces) of a composition over the table ``s``, as (cell, coefficient) pairs.

    A face merges the blocks j and j + 1 with coefficient (-1)^j s[a_j][a_(j+1)]; a coface
    splits a block, so cofaces are the transpose of faces.  Zero coefficients are left out.
    """
    def faces(c):
        return [(c[:j] + (c[j] + c[j + 1],) + c[j + 2:], -v if j % 2 else v)
                for j in range(len(c) - 1) if (v := s[c[j]][c[j + 1]])]

    def cofaces(c):
        return [(c[:j] + (x, a - x) + c[j + 1:], -v if j % 2 else v)
                for j, a in enumerate(c) for x in range(1, a) if (v := s[x][a - x])]

    return faces, cofaces


class _Matching:
    """The Morse matching of one (system, p) pair at k, p = 0 for Q; any p > k acts as Q.

    ``first[a]`` is the first factor of block a (a generator when it equals a),
    ``merges[x][b]`` says whether [x | b] merges, and ``splits[prev][a]`` whether a, after the
    block prev, splits off its first factor; index 0 stands for "no block".  The critical
    cells come from a DFS over prefixes, by part count, and ``pairs[r]`` counts
    the matched pairs between r + 1 and r parts.  Raises :class:`CellModelError` unless
    every merge it pairs on has a unit coefficient mod p in the table ``s``.
    """

    def __init__(self, k: int, system: str, s: list[list[int]], p: int):
        q = p if p <= k else 0

        def lowest(a: int) -> int:  # the sign system's first factor: p^(v_p(a)), or 1 over Q
            x = 1
            while q and a % (x * q) == 0:
                x *= q
            return x

        def no_carry(x: int, b: int) -> bool:  # x = p^u: digit u of b is below p - 1 and none below it is set
            return b % x == 0 and (not q or b // x % q < q - 1)

        if system == SIGN:
            first = [0, *map(lowest, range(1, k + 1))]
            rule = no_carry
        else:
            first = [0, *(1 if a % 2 else 2 * lowest(a // 2) for a in range(1, k + 1))]
            rule = lambda x, b: b % 2 == 0 and (x == 1 or no_carry(x // 2, b // 2))  # noqa: E731
        self.k, self.system, self.p, self.first = k, system, p, first
        self.merges = merges = [[0 < x and 0 < b and x + b <= k and first[x] == x and rule(x, b)
                                 for b in range(k + 1)] for x in range(k + 1)]
        self.splits = [[first[a] != a and not row[first[a]] for a in range(k + 1)] for row in merges]
        for x in range(1, k):
            for b in range(1, k - x + 1):
                if merges[x][b] and (s[x][b] % p if p else s[x][b]) == 0:
                    raise CellModelError(f"cell-model self-check failed: the matching pairs on the merge {(x, b)}, "
                                         f"whose coefficient {s[x][b]} is not a unit {f'mod {p}' if p else 'over Q'} "
                                         f"(k={k}, {system} system)")
        self.critical = self._critical_cells()
        self.pairs, down = {}, 0
        for r in range(1, k + 1):
            self.pairs[r] = down = comb(k - 1, r - 1) - len(self.critical.get(r, ())) - down
        if min(self.pairs.values()) < 0 or self.pairs[k]:
            raise CellModelError(f"cell-model self-check failed: the matching leaves cells unpaired "
                                 f"(k={k}, {system} system, p={p})")

    def partner(self, cell: tuple[int, ...]) -> tuple[tuple[int, ...], bool] | None:
        """(mate, merge) from the leftmost position j that acts, None when the cell is critical: the
        mate joins blocks j and j + 1 when ``merge``, else it splits block j after its first factor."""
        first, merges, splits, prev, last = self.first, self.merges, self.splits, 0, len(cell) - 1
        for j, a in enumerate(cell):
            if splits[prev][a]:
                return cell[:j] + (first[a], a - first[a]) + cell[j + 1:], False
            if j < last and merges[a][b := cell[j + 1]] and not merges[prev][a + b]:
                return cell[:j] + (a + b,) + cell[j + 2:], True
            prev = a
        return None

    def _critical_cells(self) -> dict[int, list[tuple[int, ...]]]:
        # appending a_(j+1) settles position j (a merge needs a_(j-1), a_j, a_(j+1)) and the split at j + 1
        merges, splits, k = self.merges, self.splits, self.k
        found, stack = {}, [((), 0)]
        while stack:
            prefix, total = stack.pop()
            if total == k:
                found.setdefault(len(prefix), []).append(prefix)
                continue
            prev, last = (0, 0, *prefix)[-2:]
            for a in range(1, k - total + 1):
                if not (merges[last][a] and not merges[prev][last + a] or splits[last][a]):
                    stack.append(((*prefix, a), total + a))
        return found


def _flow(matching: _Matching, starts, neighbours, upward: bool, modulus: int):
    """Generator of one side of the Morse differential: one step per memoised cell, rows on return.

    Each start's row is sum_(c, v in neighbours(start)) v Phi(c) over the critical cells.  Phi(c)
    is c when c is critical, 0 when c is matched the other way, and else
    -v_c^(-1) sum v' Phi(c') over the other neighbours c' of c's partner, v_c being c's own
    coefficient there.  ``upward`` flows through cofaces (partners by merge), else through faces
    (partners by split).  Values are mod ``modulus`` (the matching's p or p^2), or exact
    rationals for p = 0, whose rows are returned cleared of denominators.  Mod p^2 a path may take one coefficient
    divisible by p, since the product of two vanishes: a state is a cell and the number of such
    steps it may still take.  A state revisited before its value is known is a cycle of the
    matching and raises :class:`CellModelError`.
    """
    p, partner = matching.p, matching.partner
    room = int(modulus != p)
    memo, columns, rows, zero, pending = {}, {}, [], {}, {}

    def steps(pairs, left):  # the states reached through these (cell, coefficient) pairs
        return [((d, left - cost), w) for d, w in pairs if (cost := p > 0 and w % p == 0) <= left]

    for start in starts:
        if not modulus:  # only a Q flow that runs needs fractions, so the other tables do not load them
            from fractions import Fraction
        row = {}
        for state, v in steps(neighbours(start), room):
            stack = [state]
            while stack:
                key = stack[-1]
                if key in memo:
                    stack.pop()
                    continue
                if key in pending:  # back from its dependencies
                    own, deps = pending.pop(key)
                else:
                    c, left = key
                    hit = partner(c)
                    if hit is None or hit[1] != upward:
                        memo[key] = zero if hit else {columns.setdefault(c, len(columns)): 1}
                        stack.pop()
                        yield
                        continue
                    pairs = neighbours(hit[0])
                    own = next(w for d, w in pairs if d == c)
                    deps = [(s, w) for s, w in steps(pairs, left) if s[0] != c]
                    missing = [s for s, _ in deps if s not in memo]
                    if missing:
                        if not pending.keys().isdisjoint(missing):
                            raise CellModelError(f"the Morse matching has a cycle through {c} "
                                                 f"(k={matching.k}, {matching.system} system)")
                        pending[key] = own, deps
                        stack += missing
                        continue
                scale = -pow(own, -1, modulus) if modulus else -Fraction(1, own)
                value = {}
                for s, w in deps:
                    for col, x in memo[s].items():
                        value[col] = value.get(col, 0) + scale * w * x
                memo[key] = {col: y for col, x in value.items() if (y := x % modulus if modulus else x)} or zero
                stack.pop()
                yield
            for col, x in memo[state].items():
                row[col] = row.get(col, 0) + v * x
        row = {col: y for col, x in row.items() if (y := x % modulus if modulus else x)}
        if not modulus and row:
            scale = lcm(*(x.denominator for x in row.values()))
            row = {col: int(x * scale) for col, x in row.items()}
        rows.append(list(row.items()))
    return rows


def _morse_rows(matching: _Matching, s: list[list[int]], i: int, modulus: int) -> list[list[tuple[int, int]]]:
    """Rows of the Morse differential behind degree i: the critical cells with k - i + 1 parts into
    those with k - i, mod ``modulus`` (p or p^2 for the matching's p; Q for 0), in some orientation.

    The flow runs from the faces of the upper critical cells and from the cofaces of the lower ones
    at once, one step each, and the first side to finish gives the rows; the other side's would be
    their transpose, which has the same rank and elementary divisors.  Neither side is cheaper
    throughout: the winner changes from degree to degree (trivial system over F_3 at k = 18: faces
    in 6 degrees, cofaces in 8), and a side fixed per (system, p) loses to the lockstep in 13
    trivial-system cases at k <= 18.  Only coefficients nonzero mod ``modulus`` are followed.
    """
    faces, cofaces = _neighbours([[v % modulus for v in row] for row in s] if modulus else s)
    r = matching.k - i
    sides = (_flow(matching, matching.critical.get(r + 1, ()), faces, False, modulus),
             _flow(matching, matching.critical.get(r, ()), cofaces, True, modulus))
    while True:
        for side in sides:
            try:
                next(side)
            except StopIteration as done:
                return done.value


def _homology(k: int, system: str, ring: Ring, through: int | None) -> GradedAbelianGroup:
    """H_i(C_k; system x ring) for i up to ``through`` (defaults to all), one degree at a time.

    A ring is a list of moduli, each giving d_i one rank: Q is [0], F_p is [p], Z is [0] and every
    prime p <= k.  Each modulus ranks d_i as its matching's pairs across degree i plus the rank of
    its Morse rows (see the module docstring).  Degree i has comb(k-1, i) - r_i - r_(i+1) free
    generators, r_i the rank over the first modulus.  Over Z, degree i-1 has r_Q - r_p copies of
    Z/p by universal coefficients, once :func:`p_local_ranks` certifies them on the F_p Morse rows
    mod p^2, with the pairs counted as units: if a + b is not r_Q, p^2 divides a divisor, against
    F. Cohen's exponent-p theorem (Cohen-Lada-May, LNM 533, III), and :class:`CellModelError` is
    raised.  Where r_p = r_Q no divisor is divisible by p, so there is nothing to certify.

    No prime q > k divides a divisor: F(C, k) -> C_k is a k!-sheeted cover that makes the
    system trivial, and transfer then projection is multiplication by k!, so H_*(C_k; L x
    Z[1/k!]) is a summand of the free H_*(F(C, k); Z[1/k!]) (Arnold).
    """
    hi = k - 1 if through is None else min(through, k - 1)
    moduli = [0, *(p for p in range(2, k + 1) if is_prime(p))] if ring == Z else [ring.p or 0]
    s = _merge_coefficients(k, system)
    matchings = {m: _Matching(k, system, s, m) for m in moduli}
    ranks, torsion = {}, {i: [] for i in range(k)}
    for i in range(1, min(hi + 1, k - 1) + 1):
        pairs = {m: matchings[m].pairs[k - i] for m in moduli}
        rows = {m: _morse_rows(matchings[m], s, i, m) for m in moduli}
        r = [pairs[m] + len(rank_mod_p_rows(rows[m], m) if m else rank_int_rows(rows[m])) for m in moduli]
        ranks[i] = r[0]
        for p, r_p in zip(moduli[1:], r[1:]):
            if r_p < r[0] and pairs[p] + sum(p_local_ranks(_morse_rows(matchings[p], s, i, p * p), p)) != r[0]:
                raise CellModelError(f"integral homology of C_{k} ({system} system) in degree {i - 1}: "
                                     f"an elementary divisor is divisible by {p}^2; no table is given")
            torsion[i - 1] += [p] * (r[0] - r_p)
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
    from .cache import BraidHomologyKey  # field tables are never cached, so they never load the cache
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
