"""Acceptance criteria, one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its measured time against the stated budget.
"""

import time

from polystab import verify


def _run(number, label, suite_name, budget_seconds):
    started = time.perf_counter()
    report = verify.run_suite(suite_name)
    elapsed = time.perf_counter() - started
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} criterion {number} ({label}): suite '{suite_name}' "
        f"in {elapsed:.2f}s (budget {budget_seconds}s)"
    )
    failures = [r for r in report.results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    assert elapsed < budget_seconds, f"suite took {elapsed:.2f}s, budget {budget_seconds}s"
    return report


def test_criterion_01_splitting_vs_direct():
    # assembled tables for (d, 1, 2) equal direct configuration homology, d <= 8
    report = _run(1, "splitting vs direct", "splitting", 60)
    assert len(report.results) == 7  # d = 2..8


def test_criterion_02_sphere_and_point_cases():
    _run(2, "sphere and point cases", "spheres", 5)


def test_criterion_03_point_count_equality():
    # brute force equals the closed form on the whole d<=4, m<=2, n<=3, p in {2,3} grid
    report = _run(3, "point-count equality", "counts", 30)
    assert len(report.results) == 2 * 4 * 2 * 3


def test_criterion_04_jet_equivalence():
    _run(4, "jet equivalence on 1000 tuples", "jet", 30)


def test_criterion_05_cell_complex_soundness():
    _run(5, "cell-complex soundness k<=9", "cells", 120)


def test_criterion_06_classical_limit_series():
    _run(6, "limit series (mod 2 and rational)", "series", 60)


def test_criterion_07_stability_plateau_and_range():
    _run(7, "stable range vs closed-form limit series", "stability", 60)


def test_criterion_08_d2_fixture():
    _run(8, "second summand fixture", "d2", 1)


def test_criterion_09_e1_bookkeeping():
    _run(9, "first-page entries vs closed form by weight", "e1", 10)


def test_criterion_10_limit_closed_form():
    # mod-p tuple-space tables equal the closed-form limit series through D
    report = _run(10, "tables vs closed-form limit series", "limit", 10)
    assert len(report.results) == 7 * 4  # seven samples, F2/F3/F5 and F2 sharpness
