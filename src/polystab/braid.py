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
for Q) the algebra is a tensor product of one-letter algebras, one per
*stage* (unit, base): (p^u, p), p^u <= k, for the sign system, since by Lucas
x^(a) is the product of the y_u^(a_u), y_u = x^(p^u), a_u the digit u of a,
and y_u^p = 0; for the trivial one, E[y] x Gamma[z] at q = -1, (1, 2) for
y = x^(1), then (2p^u, p), the sign stages of a // 2.  Over Q they are
(1, inf), or (1, 2), (2, inf); base k + 1 stands for inf, as does any p > k.
Each unit is the last times its base; a's digit there is (a // unit) mod
base.  A block is the stage's own (a power of its letter) if it is a
multiple of unit below unit * base, *mixed* if above with a nonzero digit.
:class:`_Matching` walks the stages, the blocks from ``off`` on being
multiples of unit; the leftmost position that acts wins:

1. the *level step*: a mixed block a splits into [a - low | low],
   low = a mod unit * base, or a block with low = 0 merges with a next block
   below unit * base;
2. else the own blocks come first, up to t, and on them, in units, the
   single-letter rule: [1 | b] *merges* when 1 + b < base (no carry); e != 1
   splits into [1 | e - 1] unless the block before merges with 1, and [1 | b]
   merges unless the block before merges with 1 + b;
3. else ``off`` = t and the next stage runs; a cell that passes all is critical.

The same stage undoes each move (the tests check that ``partner`` is an
involution).  A critical cell is, per stage in order, one chain 1, base - 1,
1, ... in units (at most one block for inf): one cell per class of the Tor of
each one-letter algebra, and over a field the Tor of a tensor product is the
product of the Tors (Eilenberg-Mac Lane, Ann. of Math. 58, 1953).  The rule
is local, so a DFS over prefixes yields them; with crit_r of r parts,
up_r = C(k-1, r-1) - crit_r - down_r pairs join r + 1 and r parts, down_1 = 0
and down_(r+1) = up_r.

*Acyclicity.*  Let W list the blocks' letters in turn, each block's higher
stages first; no move changes W.  A face of nonzero integer coefficient
carries, lowering the letter count |W| (two odd blocks of the trivial system
have no face), or sorts two adjacent runs of W, not raising W
lexicographically with higher stages smaller.  So (|W|, W) maps the face
poset order-preservingly, constant on pairs, and by the patchwork theorem
(Kozlov, Combinatorial Algebraic Topology, 2008, 11.10) it is enough that
each fiber is acyclic: the bar sets on one W that keep each block sorted and
below base of a letter.  Stages whose letter W lacks act on none of them; at
the first whose letter y it holds, let G be the gaps where a run of y follows
a higher letter.  If G is not empty, the level step toggles its first gap g
on the whole fiber (a mixed block holds g, a block with low = 0 before one
below unit * base ends at it), the Eilenberg-Zilber pairing
[h | l] <-> [h + l]; on a path tau -> tau + g -> tau + g - g', the last cell
holds g, so it is matched down and the path stops.  Else W = y^n W', a cell
is a cell of y^n beside one of W', and the single-letter rule acts on the
first, the later stages on the second when the first is critical.  A closed
path projects to a closed walk of faces and reversed pairs of the
single-letter rule (a face there is no pair, or its ends would be paired),
which is acyclic, so the first factor stays put; then it is critical, or a
step up would move it, and the path is a closed path of the later stages on
W': by induction, there is none.

The single-letter rule on y^n: along tau -> sigma = partner(tau) -> tau',
sigma adds the bar h after the first letter of tau's acting block j, and
tau' drops another bar g.  Let S(tau) list sigma's gaps up to h, each as bar
or no bar (bar the larger), then an end mark larger than both.  If g lies
past the bar h' that closes block j + 1 of sigma, tau' merges at its
position j - 1 or j, so it is matched down and the path stops.  If g = h',
tau' agrees with sigma up to h and splits past h, so S(tau) is a proper
prefix of S(tau') and the end mark makes S(tau') < S(tau).  If g < h, tau'
does not split before its merged block (tau would split there too), nor
split that block before g (tau would split its own block there), nor at g
(sigma would be its partner as well), so it splits past g and S(tau') has
no bar at g, where S(tau) has one.  So S falls along every path.

*Content.*  A cell's content is, per stage, its blocks' digit sum.  A face
nonzero mod p (over Q, nonzero) carries nothing (Lucas and Kummer; for the
trivial system, :func:`shuffle_sum` at q = -1), so it keeps the content, as
the pairs do, and the Morse differential over the field joins only critical
cells of one content.  A chain of L blocks has digit sum
(L // 2) base + L mod 2, so no two critical cells share a content, the
differential is zero, and d_i has rank the pairs across degree i.
:class:`_Matching` checks both premises, on the table in O(k^2) and on
adjacent part counts in O(#critical cells), and raises if one fails.

Over Z_(p), reducing a pair is a unit pivot, so the merge map's elementary
divisors are the F_p pairs, as units, and those of the Morse differential D
over Z_(p), which sums the gradient paths, each weighing the product of its
steps: Phi(tau) is tau when tau is critical, 0 when tau's partner has fewer
parts, else -[d sigma : tau]^(-1) sum_(tau' != tau) [d sigma : tau'] Phi(tau')
over the other faces of its partner sigma.  A path *carries* at a step
divisible by p.  One that never carries keeps the content, so it joins no two
critical cells: D = 0 mod p.  One that carries twice is 0 mod p^2.  So D/p mod
p, the first Bockstein, sums the paths that carry once, the carry divided by
p; D's divisors are all exactly p iff the F_p rank of D/p is D's rank over Q.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .abelian import AbelianGroup, GradedAbelianGroup
from .rings import DEFAULT_K_MAX, CellModelError, Ring, Z, is_prime

TRIVIAL = "trivial"
SIGN = "sign"


def __getattr__(name: str):  # PEP 562: names bound here only for perfbench/tracer.py to wrap
    home = {"complex_homology": "complexes", "rank_int_rows": "linalg", "rank_mod_p_rows": "linalg"}.get(name)
    if home is not None:
        from importlib import import_module
        return getattr(import_module(f".{home}", __package__), name)
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
    """The staged Morse matching of (system, p) at k, p = 0 for Q: ``critical`` cells by part count,
    ``pairs[r]`` between r + 1 and r parts (the field rank of d_(k-r)).  Raises :class:`CellModelError`
    unless every merge it pairs on is a unit in ``s``, every face of nonzero coefficient keeps the
    content, and no two critical cells in adjacent part counts share one (see the module docstring)."""

    def __init__(self, k: int, system: str, s: list[list[int]], p: int):
        base, stages = p or k + 1, [(1, 2)] if system == TRIVIAL else []
        while (unit := stages[-1][0] * stages[-1][1] if stages else 1) <= k:  # the last unit times its base
            stages.append((unit, base))
        self.k, self.system, self.p, self.stages = k, system, p, stages
        # a block's digits, one per stage, packed in base k + 1 so that the content of a cell adds up
        self.code = [sum(a // u % b * (k + 1) ** t for t, (u, b) in enumerate(stages)) for a in range(k + 1)]
        reduced = [[v % p for v in row] for row in s] if p else s  # nonzero exactly at the units of the field
        refuse = lambda why: CellModelError(  # noqa: E731
            f"cell-model self-check failed: {why} (k={k}, {system} system, p={p})")
        for a in range(2, k + 1):
            for x in range(1, a):
                if reduced[x][a - x] and self.code[x] + self.code[a - x] != self.code[a]:
                    raise refuse(f"the merge {(x, a - x)} changes the content")
            for u, b in stages:  # a's split at this stage, if any: [a - low | low], or [u | a - u] below u * b
                x = a - a % (u * b) if a >= u * b else u
                if a % u == 0 and x < a and not reduced[x][a - x]:
                    raise refuse(f"the matching pairs on the merge {(x, a - x)}, whose coefficient {s[x][a - x]} "
                                 f"is not a unit {f'mod {p}' if p else 'over Q'}")
        self.critical = self._critical_cells()
        contents = {r: {sum(map(self.code.__getitem__, c)) for c in cells} for r, cells in self.critical.items()}
        for r, found in contents.items():
            if not found.isdisjoint(contents.get(r + 1, ())):
                raise refuse(f"critical cells with {r} and {r + 1} parts share a content")
        self.pairs, down = {}, 0
        for r in range(1, k + 1):
            self.pairs[r] = down = comb(k - 1, r - 1) - len(self.critical.get(r, ())) - down
        if min(self.pairs.values()) < 0 or self.pairs[k]:
            raise refuse("the matching leaves cells unpaired")

    def partner(self, cell: tuple[int, ...]) -> tuple[tuple[int, ...], bool] | None:
        """(mate, merge) from the first stage that acts, None when the cell is critical: the mate
        joins blocks j and j + 1 when ``merge``, else it splits block j in two."""
        n, off = len(cell), 0
        for unit, base in self.stages:
            top, t = unit * base, off
            for j in range(off, n):  # the level step: [a - low | low] <-> [a], low = a mod top
                if (low := cell[j] % top) and cell[j] > top:
                    return cell[:j] + (cell[j] - low, low) + cell[j + 1:], False
                if not low and j + 1 < n and cell[j + 1] < top:
                    return cell[:j] + (cell[j] + cell[j + 1],) + cell[j + 2:], True
                t += t == j and low > 0  # the stage's own blocks come first, up to t
            prev = 0  # the single-letter rule on them, in units
            for j in range(off, t):
                e = cell[j] // unit
                if e > 1 and prev != 1:
                    return cell[:j] + (unit, cell[j] - unit) + cell[j + 1:], False
                if e == 1 and j + 1 < t and (f := cell[j + 1] // unit) + 1 < base and not (prev == 1 and f + 2 < base):
                    return cell[:j] + (cell[j] + cell[j + 1],) + cell[j + 2:], True
                prev = e
            off = t
        return None

    def _critical_cells(self) -> dict[int, list[tuple[int, ...]]]:
        # blocks are powers of one stage's letter, stages never fall, and each block settles the one before
        k = self.k
        letters = [(a, t, a // u, u, b) for t, (u, b) in enumerate(self.stages) for a in range(u, min(u * b, k + 1), u)]
        found, stack = {}, [((), 0, -1, 0, 0)]  # prefix, its sum, the last block's stage and its two last units
        while stack:
            prefix, total, last, e1, e0 = stack.pop()
            if total == k:
                found.setdefault(len(prefix), []).append(prefix)
                continue
            for a, t, e, u, b in letters:
                if t < last or a > k - total or (k - total - a) % u:
                    continue
                if e == 1 if t > last else not (e > 1 and e1 != 1 or e1 == 1 and e + 1 < b
                                                and not (e0 == 1 and e + 2 < b)):
                    stack.append(((*prefix, a), total + a, t, e, e1 * (t == last)))
        return found


def _flow(matching: _Matching, starts, neighbours, upward: bool):
    """Generator of one side of D/p over F_p (module docstring): one step per memoised state, rows on return.

    A start's row sums v Phi(c) over its (c, v) in ``neighbours``, the exact faces (``upward``: cofaces)
    of the merge table.  A state is a cell and whether its path has carried: a unit step weighs w mod p,
    the one carry (w / p) mod p, and a step of weight 0 or a second carry is dropped.  A state that
    reaches a critical cell without having carried, which would make D nonzero mod p, or that is
    revisited before its value is known, a cycle, raises :class:`CellModelError`.
    """
    p, partner = matching.p, matching.partner
    memo, columns, rows, zero, pending = {}, {}, [], {}, {}

    def steps(pairs, carried):  # the states reached through these (cell, coefficient) pairs, with their weights
        return [((d, carried or not w % p), x) for d, w in pairs if (x := w % p or (0 if carried else w // p % p))]

    for start in starts:
        row = {}
        for state, v in steps(neighbours(start), False):
            stack = [state]
            while stack:
                key = stack[-1]
                if key in memo:
                    stack.pop()
                    continue
                if key in pending:  # back from its dependencies
                    own, deps = pending.pop(key)
                else:
                    c, carried = key
                    hit = partner(c)
                    if hit is None and not carried:
                        raise CellModelError(f"a gradient path with no coefficient divisible by {p} reaches the "
                                             f"critical cell {c} (k={matching.k}, {matching.system} system)")
                    if hit is None or hit[1] != upward:
                        memo[key] = zero if hit else {columns.setdefault(c, len(columns)): 1}
                        stack.pop()
                        yield
                        continue
                    pairs = neighbours(hit[0])
                    own = next(w for d, w in pairs if d == c)
                    deps = [(s, w) for s, w in steps(pairs, carried) if s[0] != c]
                    missing = [s for s, _ in deps if s not in memo]
                    if missing:
                        if not pending.keys().isdisjoint(missing):
                            raise CellModelError(f"the Morse matching has a cycle through {c} "
                                                 f"(k={matching.k}, {matching.system} system)")
                        pending[key] = own, deps
                        stack += missing
                        continue
                scale = -pow(own, -1, p)
                value = {}
                for s, w in deps:
                    for col, x in memo[s].items():
                        value[col] = value.get(col, 0) + scale * w * x
                memo[key] = {col: y for col, x in value.items() if (y := x % p)} or zero
                stack.pop()
                yield
            for col, x in memo[state].items():
                row[col] = row.get(col, 0) + v * x
        rows.append([(col, y) for col, x in row.items() if (y := x % p)])
    return rows


def _morse_rows(matching: _Matching, neighbours, i: int) -> list[list[tuple[int, int]]]:
    """Rows over F_p of D/p from the critical cells with k - i + 1 parts to those with k - i, over the exact
    (faces, cofaces) ``neighbours``: the flows from both ends run in lockstep, and the first to finish
    gives the rows (the other's are their transpose; the winner changes from degree to degree)."""
    faces, cofaces = neighbours
    r = matching.k - i
    sides = (_flow(matching, matching.critical.get(r + 1, ()), faces, False),
             _flow(matching, matching.critical.get(r, ()), cofaces, True))
    while True:
        for side in sides:
            try:
                next(side)
            except StopIteration as done:
                return done.value


def _homology(k: int, system: str, ring: Ring, through: int | None) -> GradedAbelianGroup:
    """H_i(C_k; system x ring) for i up to ``through`` (defaults to all), one degree at a time.

    A ring is a list of moduli: Q is [0], F_p is [p], Z is [0] and every prime p <= k.  Each ranks d_i
    as its matching's pairs across degree i, and degree i has comb(k-1, i) - r_i - r_(i+1) free
    generators, r_i the first modulus's rank.  Over Z, degree i-1 has r_Q - r_p copies of Z/p by
    universal coefficients, once the F_p rank of D/p (:func:`_morse_rows`) makes up r_Q - r_p, which
    certifies that no divisor is divisible by p^2, as F. Cohen's exponent-p theorem says (Cohen-Lada-May,
    LNM 533, III); else :class:`CellModelError` is raised.  No prime q > k divides a divisor: the
    k!-sheeted cover F(C, k) -> C_k makes the system trivial, so by transfer (Arnold)
    H_*(C_k; L x Z[1/k!]) is a summand of the free H_*(F(C, k); Z[1/k!]).
    """
    hi = k - 1 if through is None else min(through, k - 1)
    moduli = [0, *(p for p in range(2, k + 1) if is_prime(p))] if ring == Z else [ring.p or 0]
    s = _merge_coefficients(k, system)
    first, *local = (_Matching(k, system, s, m) for m in moduli)
    if local:  # the primes of a Z table, each certified on the exact faces
        from .linalg import eliminate
        neighbours = _neighbours(s)
    rank, torsion = [first.pairs.get(k - i, 0) for i in range(k + 1)], {i: [] for i in range(k)}
    for i in range(1, min(hi + 1, k - 1) + 1):
        for matching in local:
            p, r_p = matching.p, matching.pairs[k - i]
            if r_p < rank[i] and r_p + len(eliminate(_morse_rows(matching, neighbours, i), p)) != rank[i]:
                raise CellModelError(f"integral homology of C_{k} ({system} system) in degree {i - 1}: "
                                     f"an elementary divisor is divisible by {p}^2; no table is given")
            torsion[i - 1] += [p] * (rank[i] - r_p)
    return GradedAbelianGroup({
        i: AbelianGroup.from_orders(comb(k - 1, i) - rank[i] - rank[i + 1], torsion[i]) for i in range(hi + 1)
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
