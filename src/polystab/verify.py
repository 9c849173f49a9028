"""Named verification suites: exact cross-checks runnable from the CLI or tests.

Every check is exact (no tolerances).  Each suite returns a report listing the
individual checks with parameters and timing; the CLI maps any failure to
exit status 2.  The ``cells``, ``series``, ``stability``, ``e1`` and ``limit``
suites compare against :func:`loop_space_series`, the classical closed form of
the homology of the double loop space graded by weight, which shares no code
with the cell model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import braid, ffield, jets, spaces
from .cache import HomologyCache
from .rings import GF, Q, Z, is_prime


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class SuiteReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

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


class _Recorder:
    def __init__(self, suite: str):
        self.report = SuiteReport(suite)

    def check(self, name: str, passed: bool, detail: str, started: float) -> None:
        self.report.results.append(
            CheckResult(name, bool(passed), detail, time.perf_counter() - started)
        )


def suite_splitting(cache: HomologyCache | None = None) -> SuiteReport:
    """Assembled tables for (d, 1, 2) equal direct homology of d points, d = 2..8."""
    rec = _Recorder("splitting")
    for d in range(2, 9):
        t0 = time.perf_counter()
        left = spaces.poly_homology(d, 1, 2, Z, cache=cache).groups
        right = braid.config_homology(d, braid.TRIVIAL, Z, cache=cache)
        rec.check(
            f"d{d}",
            left == right,
            f"assembled={left.describe()} direct={right.describe()}",
            t0,
        )
    return rec.report


def suite_spheres(cache: HomologyCache | None = None) -> SuiteReport:
    """Boundary cases: d = n gives an odd sphere, d < n gives a point."""
    rec = _Recorder("spheres")
    from .abelian import AbelianGroup, GradedAbelianGroup

    for m, n in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        t0 = time.perf_counter()
        got = spaces.poly_homology(n, m, n, Z, cache=cache).groups
        top = 2 * m * n - 3
        want = GradedAbelianGroup({0: AbelianGroup(1), top: AbelianGroup(1)})
        rec.check(f"sphere_m{m}_n{n}", got == want, f"S^{top}: {got.describe()}", t0)
    point = GradedAbelianGroup({0: AbelianGroup(1)})
    for d, m, n in [(1, 2, 2), (2, 2, 3), (1, 1, 3), (2, 3, 3)]:
        t0 = time.perf_counter()
        got = spaces.poly_homology(d, m, n, Z, cache=cache).groups
        rec.check(f"point_d{d}_m{m}_n{n}", got == point, got.describe(), t0)
    return rec.report


def suite_counts(cache: HomologyCache | None = None) -> SuiteReport:
    """Point counts over the p^d first entries equal the closed form on the small grid."""
    rec = _Recorder("counts")
    for p in (2, 3):
        for d in range(1, 5):
            for m in (1, 2):
                for n in (1, 2, 3):
                    t0 = time.perf_counter()
                    brute = ffield.count_points(d, m, n, p)
                    formula = ffield.closed_form_count(d, m, n, p)
                    rec.check(
                        f"d{d}_m{m}_n{n}_p{p}",
                        brute == formula,
                        f"brute={brute} formula={formula}",
                        t0,
                    )
    return rec.report


def suite_jet(cache: HomologyCache | None = None) -> SuiteReport:
    """1000 random rational tuples: membership agrees across the jet map."""
    rec = _Recorder("jet")
    t0 = time.perf_counter()
    tuples = jets.random_tuple_suite(1000)
    disagreements = 0
    nonmembers = 0
    for t in tuples:
        report = jets.jet_equivalence_check(t)
        if not report.agree:
            disagreements += 1
        if not report.poly_member:
            nonmembers += 1
    rec.check(
        "equivalence",
        disagreements == 0,
        f"tuples=1000 disagreements={disagreements}",
        t0,
    )
    t0 = time.perf_counter()
    rec.check(
        "false_branch_coverage",
        nonmembers >= 300,
        f"non-member tuples={nonmembers} (need >= 300)",
        t0,
    )
    return rec.report


def suite_cells(cache: HomologyCache | None = None) -> SuiteReport:
    """Cell-model soundness for k <= 9, both coefficient systems."""
    rec = _Recorder("cells")
    from .abelian import AbelianGroup

    z = AbelianGroup(1)
    z2 = AbelianGroup(0, (2,))
    for k in range(1, 10):
        t0 = time.perf_counter()
        ok = True
        notes = []
        for system in (braid.TRIVIAL, braid.SIGN):
            cpx = braid.dual_fn_complex(k, system)
            try:
                cpx.check_boundary_condition()
            except ValueError as exc:
                ok = False
                notes.append(f"{system}: {exc}")
        rec.check(f"boundary_squared_k{k}", ok, "; ".join(notes) or "d.d = 0", t0)

        # universal coefficients against weight k over Q and F_p, p <= k: with
        # exponent-p torsion and no prime > k, that fixes the integral table
        t0 = time.perf_counter()
        table = braid.dk_homology(k, Z, cache=cache)
        ok = all(
            [table.dim_mod(j, p) if p else table.free_rank(j) for j in range(2 * k + 1)]
            == loop_space_series(2, p, 2 * k)[k]
            for p in [0] + [p for p in range(2, k + 1) if is_prime(p)]
        )
        rec.check(f"closed_form_k{k}", ok, f"D_{k}: {table.describe()}", t0)

        t0 = time.perf_counter()
        triv = braid.config_homology(k, braid.TRIVIAL, Z, cache=cache)
        sign = braid.config_homology(k, braid.SIGN, Z, cache=cache)
        checks = [triv.group(0) == z]
        if k >= 2:
            checks.append(triv.group(1) == z)
            checks.append(sign.group(0) == z2)
            top_t = triv.top_degree()
            top_s = sign.top_degree()
            checks.append(top_t is not None and top_t < k)
            checks.append(top_s is None or top_s < k)
            rational = braid.config_homology(k, braid.SIGN, Q, cache=cache)
            checks.append(rational.is_zero)
        rec.check(
            f"low_degrees_k{k}",
            all(checks),
            f"trivial: {triv.describe()}; sign: {sign.describe()}",
            t0,
        )
    return rec.report


def loop_space_series(N: int, p: int, through: int) -> list[list[int]]:
    """Dimensions of the homology of the double loop space of S^{2N-1} over F_p
    (Q for p = 0), graded by weight, through degree ``through``.

    Row w, degree j is dim H_j of the stable summand of weight w, which is
    H_{j-(2N-3)w}(C_w; sign x F_p); the Poincare series is the column sum.
    F. Cohen's closed form (Cohen-Lada-May, LNM 533, III): over F_2 the
    homology is polynomial on generators of degree 2^j(2N-2) - 1 and weight
    2^j, j >= 0; over odd p it is exterior on degrees 2(N-1)p^j - 1, j >= 0,
    tensor polynomial on degrees 2(N-1)p^j - 2, j >= 1, each of weight p^j;
    over Q it is exterior on one generator of degree 2N-3 and weight 1.

    >>> loop_space_series(2, 2, 3)
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if p and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # a class of weight w has degree >= (2N-3)w
    rows = [[0] * (through + 1) for _ in range(through // (2 * N - 3) + 1)]
    rows[0][0] = 1

    def times(degree: int, weight: int, exterior: bool) -> None:
        # multiply by 1 + u^weight t^degree (exterior) or 1/(1 - u^weight t^degree) (polynomial)
        cells = [(w, j) for w in range(weight, len(rows)) for j in range(degree, through + 1)]
        for w, j in reversed(cells) if exterior else cells:
            rows[w][j] += rows[w - weight][j - degree]

    if p == 0:
        times(2 * N - 3, 1, exterior=True)
        return rows
    top, weight = 2 * (N - 1), 1  # 2(N-1)p^j, p^j
    while top - 2 <= through:
        times(top - 1, weight, exterior=p != 2)
        if p != 2 and weight > 1:
            times(top - 2, weight, exterior=False)
        top, weight = top * p, weight * p
    return rows


def suite_series(cache: HomologyCache | None = None) -> SuiteReport:
    """Limit series summed from the cell model equal the closed form: mod 2 for
    the double loop space of S^3 through degree 15, rationally for S^3, S^5, S^7."""
    rec = _Recorder("series")
    t0 = time.perf_counter()
    through = 15
    got = spaces.omega_series(2, GF(2), through, k_max=15, cache=cache)
    want = list(map(sum, zip(*loop_space_series(2, 2, through))))
    rec.check(
        "mod2_N2",
        list(got.coefficients) == want,
        f"got={list(got.coefficients)} want={want}",
        t0,
    )
    for n_param, through in ((2, 7), (3, 9), (4, 11)):
        t0 = time.perf_counter()
        series = spaces.omega_series(n_param, Q, through, cache=cache)
        want_q = list(map(sum, zip(*loop_space_series(n_param, 0, through))))
        rec.check(
            f"rational_N{n_param}",
            list(series.coefficients) == want_q,
            f"got={list(series.coefficients)}",
            t0,
        )
    return rec.report


def suite_stability(cache: HomologyCache | None = None) -> SuiteReport:
    """Tuple-space tables through the stability dimension D equal the closed-form
    limit series over F2, F3 and Q, for (m, n) in {(2, 2), (1, 3)} and d <= 9."""
    rec = _Recorder("stability")
    for m, n in [(2, 2), (1, 3)]:
        for d in range(1, 10):
            bound = spaces.stability_dimension(d, m, n)
            for ring in (GF(2), GF(3), Q):
                t0 = time.perf_counter()
                got = spaces.poly_homology(d, m, n, ring, cache=cache).dims(bound)
                want = list(map(sum, zip(*loop_space_series(m * n, ring.p or 0, bound))))
                rec.check(f"range_m{m}_n{n}_d{d}_{ring}", got == want, f"D={bound} got={got} want={want}", t0)
    return rec.report


def suite_d2(cache: HomologyCache | None = None) -> SuiteReport:
    """The second stable summand has one Z/2, in degree 2."""
    rec = _Recorder("d2")
    from .abelian import AbelianGroup, GradedAbelianGroup

    t0 = time.perf_counter()
    got = braid.dk_homology(2, Z, cache=cache)
    want = GradedAbelianGroup({2: AbelianGroup(0, (2,))})
    rec.check("fixture", got == want, got.describe(), t0)
    return rec.report


def suite_e1(cache: HomologyCache | None = None) -> SuiteReport:
    """Every first-page entry (k, s) over F2, F3 and Q equals the closed form in
    weight k, degree s - k, and the page has no other entries."""
    rec = _Recorder("e1")
    samples = [(2, 1, 2), (4, 1, 2), (2, 2, 2), (6, 2, 2), (6, 1, 3), (4, 2, 3)]
    for d, m, n in samples:
        for ring in (GF(2), GF(3), Q):
            t0 = time.perf_counter()
            page = spaces.e1_page_poly(d, m, n, ring, cache=cache)
            rows = loop_space_series(m * n, ring.p or 0, page.twist * page.k_top)[: page.k_top + 1]
            want = {(k, j + k): dim for k, row in enumerate(rows) for j, dim in enumerate(row) if dim}
            got = {cell: page.entry(*cell).free_rank for cell in page.nonzero_cells()}
            rec.check(f"entries_d{d}_m{m}_n{n}_{ring}", got == want, f"cells={len(got)}", t0)
    return rec.report


def suite_limit(cache: HomologyCache | None = None) -> SuiteReport:
    """Through the stability dimension D the mod-p tuple-space tables equal the
    closed-form series of the double loop space of S^{2mn-1}, and over F_2 the
    bound is sharp: in degree D+1 the table falls short of the series.

    Sharpness: the limit's summand floor(d/n)+1, which the table lacks, has a
    nonzero H_0(C_k; sign (x) F_2), and its shift puts that class in degree D+1.
    """
    rec = _Recorder("limit")
    samples = [(4, 1, 2), (2, 2, 2), (1, 2, 2), (6, 2, 2), (9, 1, 3), (5, 3, 2), (7, 2, 3)]
    for d, m, n in samples:
        bound = spaces.stability_dimension(d, m, n)
        for p in (2, 3, 5):
            t0 = time.perf_counter()
            got = spaces.poly_homology(d, m, n, GF(p), cache=cache).dims(bound)
            want = list(map(sum, zip(*loop_space_series(m * n, p, bound))))
            rec.check(
                f"d{d}_m{m}_n{n}_F{p}",
                got == want,
                f"D={bound} got={got} want={want}",
                t0,
            )
        t0 = time.perf_counter()
        table = spaces.poly_homology(d, m, n, GF(2), cache=cache).dims(bound + 1)[bound + 1]
        limit = sum(row[bound + 1] for row in loop_space_series(m * n, 2, bound + 1))
        rec.check(
            f"sharp_d{d}_m{m}_n{n}_F2",
            table < limit,
            f"degree {bound + 1}: table={table} limit={limit}",
            t0,
        )
    return rec.report


SUITES = {
    "splitting": suite_splitting,
    "spheres": suite_spheres,
    "counts": suite_counts,
    "jet": suite_jet,
    "cells": suite_cells,
    "series": suite_series,
    "stability": suite_stability,
    "d2": suite_d2,
    "e1": suite_e1,
    "limit": suite_limit,
}


def run_suite(name: str, cache: HomologyCache | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}, all")
    return SUITES[name](cache)


def run_all(cache: HomologyCache | None = None) -> list[SuiteReport]:
    return [SUITES[name](cache) for name in SUITES]
