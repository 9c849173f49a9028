"""Named verification suites: exact cross-checks runnable from the CLI or tests.

Every check is exact (no tolerances).  A suite is a generator: given the cache,
it yields one ``(name, passed, detail)`` tuple per check and nothing else.
:func:`run_suite` runs one suite, times each check from the end of the one
before and builds its :class:`SuiteReport`; when the engine refuses inside a
suite (``ValueError`` or ``CellModelError``), the report keeps the checks
already made and ends with one failed check named for the error.  The CLI
maps any failure to exit status 2.  The ``cells``, ``series``, ``e1`` and
``limit`` suites compare against :func:`loop_space_series`, F. Cohen's closed
form graded by weight, which shares no code with the cell model.  It covers
both coefficient systems: ``cells`` checks every integral table, trivial and
sign, against it.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from itertools import combinations

from . import braid, ffield, jets, spaces
from .abelian import AbelianGroup, GradedAbelianGroup
from .rings import GF, Q, Value, Z, is_prime


class CheckResult(Value):
    __slots__ = ("name", "passed", "detail", "seconds")

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


class SuiteReport:
    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [r.to_payload() for r in self.results],
        }

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(f"{status} {self.suite}.{r.name} ({r.seconds:.2f}s) {r.detail}")
        return out


Checks = Iterator[tuple[str, bool, str]]


def suite_splitting(cache: HomologyCache | None = None) -> Checks:
    """Assembled tables for (d, 1, 2), read through the cache, equal direct homology of d points
    computed afresh, d = 2..12."""
    for d in range(2, 13):
        left = spaces.poly_homology(d, 1, 2, Z, cache=cache).groups
        right = braid.config_homology(d, braid.TRIVIAL, Z)
        yield f"d{d}", left == right, f"assembled={left.describe()} direct={right.describe()}"


def suite_spheres(cache: HomologyCache | None = None) -> Checks:
    """Boundary cases: d = n gives an odd sphere, d < n gives a point."""
    for m, n in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        got = spaces.poly_homology(n, m, n, Z, cache=cache).groups
        top = 2 * m * n - 3
        want = GradedAbelianGroup({0: AbelianGroup(1), top: AbelianGroup(1)})
        yield f"sphere_m{m}_n{n}", got == want, f"S^{top}: {got.describe()}"
    point = GradedAbelianGroup({0: AbelianGroup(1)})
    for d, m, n in [(1, 2, 2), (2, 2, 3), (1, 1, 3), (2, 3, 3)]:
        got = spaces.poly_homology(d, m, n, Z, cache=cache).groups
        yield f"point_d{d}_m{m}_n{n}", got == point, got.describe()


def suite_counts(cache: HomologyCache | None = None) -> Checks:
    """Point counts over the p^d first entries equal the closed form on the small grid."""
    for p in (2, 3):
        for d in range(1, 5):
            for m in (1, 2):
                for n in (1, 2, 3):
                    brute = ffield.count_points(d, m, n, p)
                    formula = ffield.closed_form_count(d, m, n, p)
                    yield (
                        f"d{d}_m{m}_n{n}_p{p}",
                        brute == formula,
                        f"brute={brute} formula={formula}",
                    )


def suite_jet(cache: HomologyCache | None = None) -> Checks:
    """1000 random rational tuples: membership agrees across the jet map."""
    tuples = jets.random_tuple_suite(1000)
    disagreements = 0
    nonmembers = 0
    for t in tuples:
        report = jets.jet_equivalence_check(t)
        if not report.agree:
            disagreements += 1
        if not report.poly_member:
            nonmembers += 1
    yield "equivalence", disagreements == 0, f"tuples=1000 disagreements={disagreements}"
    yield "false_branch_coverage", nonmembers >= 300, f"non-member tuples={nonmembers} (need >= 300)"


def _boundary_squared(k: int, system: str) -> int | None:
    """The lowest degree i where d.d does not vanish on the faces of ``braid._neighbours``, or None:
    d.d from degree i to i - 2 is faces of faces on the compositions of k with k - i + 2 parts."""
    faces, _ = braid._neighbours(braid._merge_coefficients(k, system))
    for i in range(2, k):
        for cuts in combinations(range(1, k), k - i + 1):
            total: dict[tuple[int, ...], int] = {}
            for face, v in faces(tuple(b - a for a, b in zip((0, *cuts), (*cuts, k)))):
                for target, w in faces(face):
                    total[target] = total.get(target, 0) + v * w
            if any(total.values()):
                return i
    return None


def suite_cells(cache: HomologyCache | None = None) -> Checks:
    """Cell-model soundness for k <= 9: d.d = 0 on the engine's own sparse faces,
    over every composition, and every table of both coefficient systems against
    the closed form in weight k."""
    for k in range(1, 10):
        notes = [f"{system}: boundary squared is nonzero at degree {i} (composite C_{i} -> C_{i - 2} does not vanish)"
                 for system in (braid.TRIVIAL, braid.SIGN) if (i := _boundary_squared(k, system)) is not None]
        yield f"boundary_squared_k{k}", not notes, "; ".join(notes) or "d.d = 0"

        # universal coefficients against weight k over Q and F_p, p <= k: with
        # exponent-p torsion and no prime > k, that fixes the integral table;
        # the rational route must give the p = 0 row itself
        for system in (braid.TRIVIAL, braid.SIGN):
            shift = k if system == braid.SIGN else 0
            table = braid.config_homology(k, system, Z)
            rational = braid.config_homology(k, system, Q)
            want = {p: loop_space_series(2, p, shift + k, system)[k][shift:]
                    for p in [0] + [p for p in range(2, k + 1) if is_prime(p)]}
            ok = rational.dims(k) == want[0] and all(
                [table.dim_mod(j, p) if p else table.free_rank(j) for j in range(k + 1)] == row
                for p, row in want.items()
            )
            yield f"closed_form_{system}_k{k}", ok, table.describe()


def loop_space_series(N: int, p: int, through: int, system: str = braid.SIGN) -> list[list[int]]:
    """F. Cohen's closed form for H_*(Omega^2 Sigma^2 S^q; F_p) (Q for p = 0),
    graded by weight, through degree ``through`` (Cohen-Lada-May, LNM 533, III).

    For the sign system q = 2N - 3, and this is the double loop space of
    S^{2N-1}: row w, degree j is H_{j-qw}(C_w; sign x F_p), and the Poincare
    series is the column sum.  Over F_2 it is polynomial on generators of
    degree 2^j(q+1) - 1 and weight 2^j, j >= 0; over odd p, exterior on degrees
    (q+1)p^j - 1, j >= 0, tensor polynomial on degrees (q+1)p^j - 2, j >= 1,
    each of weight p^j; over Q, exterior on one generator of degree q, weight 1.

    For the trivial system q = 0 and ``N`` plays no part: row w, degree j is
    H_j(C_w; F_p), the homology of the braid group on w strands (Fuks 1970 for
    F_2), given for every weight w <= ``through``.  Over F_2 the generators are
    as above; otherwise there is a polynomial generator of degree 0 and weight
    1, times the odd-q form for 2q + 1 = 1 with every weight doubled.

    >>> loop_space_series(2, 2, 3)
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    >>> loop_space_series(2, 3, 3, braid.TRIVIAL)[3]
    [1, 1, 0, 0]
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if p and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = 2 * N - 3 if system == braid.SIGN else 0
    # a class of weight w has degree >= qw; a trivial one below w once w >= 2
    rows = [[0] * (through + 1) for _ in range(through // max(q, 1) + 1)]
    rows[0][0] = 1

    def times(degree: int, weight: int, exterior: bool) -> None:
        # multiply by 1 + u^weight t^degree (exterior) or 1/(1 - u^weight t^degree) (polynomial)
        cells = [(w, j) for w in range(weight, len(rows)) for j in range(degree, through + 1)]
        for w, j in reversed(cells) if exterior else cells:
            rows[w][j] += rows[w - weight][j - degree]

    scale = 1
    if q == 0 and p != 2:
        times(0, 1, exterior=False)
        q, scale = 1, 2
    if p == 0:
        times(q, scale, exterior=True)
        return rows
    top, weight = q + 1, scale  # (q+1)p^j, scale p^j
    while top - 2 <= through:
        times(top - 1, weight, exterior=p != 2)
        if p != 2 and weight > scale:
            times(top - 2, weight, exterior=False)
        top, weight = top * p, weight * p
    return rows


def suite_series(cache: HomologyCache | None = None) -> Checks:
    """Limit series summed from the cell model equal the closed form: mod 2 for
    the double loop space of S^3 through degree 15, rationally for S^3, S^5, S^7."""
    through = 15
    got = spaces.omega_series(2, GF(2), through, k_max=15)
    want = list(map(sum, zip(*loop_space_series(2, 2, through))))
    yield "mod2_N2", list(got) == want, f"got={list(got)} want={want}"
    for n_param, through in ((2, 7), (3, 9), (4, 11)):
        series = spaces.omega_series(n_param, Q, through)
        want_q = list(map(sum, zip(*loop_space_series(n_param, 0, through))))
        yield (
            f"rational_N{n_param}",
            list(series) == want_q,
            f"got={list(series)}",
        )


def suite_d2(cache: HomologyCache | None = None) -> Checks:
    """The second stable summand has one Z/2, in degree 2."""
    got = braid.dk_homology(2, Z)
    want = GradedAbelianGroup({2: AbelianGroup(0, (2,))})
    yield "fixture", got == want, got.describe()


def suite_e1(cache: HomologyCache | None = None) -> Checks:
    """Every first-page entry (k, s) over F2, F3 and Q equals the closed form in
    weight k, degree s - k, and the page has no other entries."""
    samples = [(2, 1, 2), (4, 1, 2), (2, 2, 2), (6, 2, 2), (6, 1, 3), (4, 2, 3)]
    for d, m, n in samples:
        for ring in (GF(2), GF(3), Q):
            page = spaces.e1_page_poly(d, m, n, ring, cache=cache)
            rows = loop_space_series(m * n, ring.p or 0, page.twist * page.k_top)[: page.k_top + 1]
            want = {(k, j + k): dim for k, row in enumerate(rows) for j, dim in enumerate(row) if dim}
            got = {cell: page.entry(*cell).free_rank for cell in page.nonzero_cells()}
            yield f"entries_d{d}_m{m}_n{n}_{ring}", got == want, f"cells={len(got)}"


def suite_limit(cache: HomologyCache | None = None) -> Checks:
    """Through the stability dimension D the tuple-space tables over F2, F3, F5
    and Q equal the closed-form series of the double loop space of S^{2mn-1},
    and over F_2 the bound is sharp: in degree D+1 the table falls short of it.

    The samples are d <= 9 for (m, n) in {(2, 2), (1, 3)}, and three more pairs.
    Sharpness: the limit's summand floor(d/n)+1, which the table lacks, has a
    nonzero H_0(C_k; sign (x) F_2), and its shift puts that class in degree D+1.
    """
    grid = [(d, m, n) for m, n in [(2, 2), (1, 3)] for d in range(1, 10)]
    for d, m, n in grid + [(4, 1, 2), (5, 3, 2), (7, 2, 3)]:
        bound = spaces.stability_dimension(d, m, n)
        for ring in (GF(2), GF(3), GF(5), Q):
            got = spaces.poly_homology(d, m, n, ring, cache=cache).dims(bound)
            want = list(map(sum, zip(*loop_space_series(m * n, ring.p or 0, bound))))
            yield f"d{d}_m{m}_n{n}_{ring}", got == want, f"D={bound} got={got} want={want}"
        table = spaces.poly_homology(d, m, n, GF(2), cache=cache).dims(bound + 1)[bound + 1]
        limit = sum(row[bound + 1] for row in loop_space_series(m * n, 2, bound + 1))
        yield (
            f"sharp_d{d}_m{m}_n{n}_F2",
            table < limit,
            f"degree {bound + 1}: table={table} limit={limit}",
        )


SUITES = {
    "splitting": suite_splitting,
    "spheres": suite_spheres,
    "counts": suite_counts,
    "jet": suite_jet,
    "cells": suite_cells,
    "series": suite_series,
    "d2": suite_d2,
    "e1": suite_e1,
    "limit": suite_limit,
}


def run_suite(name: str, cache: HomologyCache | None = None) -> SuiteReport:
    """Run one suite, timing each check from the end of the one before.  A
    refusal inside it adds one failed check, named for the error, after the
    checks already made."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}, all")
    report = SuiteReport(name)
    started = time.perf_counter()
    try:
        for check, passed, detail in SUITES[name](cache):
            now = time.perf_counter()
            report.results.append(CheckResult(check, bool(passed), detail, now - started))
            started = now
    except (ValueError, braid.CellModelError) as exc:
        report.results.append(
            CheckResult(type(exc).__name__, False, str(exc), time.perf_counter() - started)
        )
    return report
