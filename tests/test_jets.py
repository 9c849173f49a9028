import random
from fractions import Fraction

import pytest

from polystab.jets import (
    QTuple,
    jet_equivalence_check,
    jet_map,
    q_membership_hol,
    q_membership_poly,
    random_qtuple,
    random_tuple_suite,
)
from polystab.poly import Poly, poly_gcd


def P(*coeffs):
    return Poly(0, coeffs)


def _substitute(f, a, b):
    """f(a z + b) by Horner's rule, made monic again."""
    out = Poly(0, ())
    for coeff in reversed(f.coeffs):
        out = out * Poly(0, (b, a)) + Poly(0, (coeff,))
    return out.monic()


def T(entries, n):
    entries = tuple(entries)
    return QTuple(entries, entries[0].degree, len(entries), n)


def test_jet_single_poly_examples():
    # f = z^2 - 1 -> (f, f + f')
    assert jet_map(T([P(-1, 0, 1)], 2)) == [P(-1, 0, 1), P(-1, 2, 1)]
    assert jet_map(T([P(0, 0, 1)], 2)) == [P(0, 0, 1), P(0, 2, 1)]


def test_jet_pair_example():
    got = jet_map(T([P(0, 1), P(1, 1)], 2))
    assert got == [P(0, 1), P(1, 1), P(1, 1), P(2, 1)]


def test_jet_entries_stay_monic_of_degree_d():
    rng = random.Random(13)
    for _ in range(50):
        d = rng.randint(1, 6)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        if (m, n) == (1, 1):
            n = 2
        t = random_qtuple(rng, d, m, n)
        jet = jet_map(t)
        assert len(jet) == m * n
        assert all(f.is_monic and f.degree == d for f in jet)


def test_membership_poly_examples():
    assert not q_membership_poly(T([P(0, 0, 1)], 2))  # double root at 0
    assert q_membership_poly(T([P(0, 0, 1), P(1, 0, 1)], 2))
    shared = Poly.from_roots(0, [1, 1])
    f1 = shared * P(2, 1)
    f2 = shared * P(3, 1)
    assert not q_membership_poly(T([f1, f2], 2))


def test_membership_hol_examples():
    assert q_membership_hol([P(0, 1), P(1, 1)])
    assert not q_membership_hol([P(0, 0, 1), P(0, 2, 1)])  # gcd z
    assert not q_membership_hol([P(0, 1)])  # one monic entry of positive degree
    assert q_membership_hol([P(5)])


def test_equivalence_examples():
    report = jet_equivalence_check(T([P(0, 0, 1)], 2))
    assert (report.poly_member, report.jet_hol_member) == (False, False)
    report = jet_equivalence_check(T([P(-1, 0, 1)], 2))
    assert (report.poly_member, report.jet_hol_member) == (True, True)
    assert report.agree


def test_equivalence_on_random_suite():
    tuples = random_tuple_suite(200, seed=7)
    degenerate = 0
    for t in tuples:
        report = jet_equivalence_check(t)
        assert report.agree
        if not report.poly_member:
            degenerate += 1
    assert degenerate >= 50  # forcing keeps the false branch alive


def test_membership_shift_and_scale_invariance():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        if (m, n) == (1, 1):
            n = 2
        d = rng.randint(max(n, 1), 5)
        t = random_qtuple(rng, d, m, n, force_degenerate=rng.random() < 0.5)
        base = q_membership_poly(t)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        shifted = QTuple(tuple(_substitute(f, 1, c) for f in t.entries), d, m, n)
        assert q_membership_poly(shifted) == base
        lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        scaled = QTuple(tuple(_substitute(f, lam, 0) for f in t.entries), d, m, n)
        assert q_membership_poly(scaled) == base


def test_n1_reduces_to_common_root_test():
    rng = random.Random(37)
    for _ in range(40):
        m = rng.randint(2, 3)
        d = rng.randint(1, 5)
        t = random_qtuple(rng, d, m, 1, force_degenerate=rng.random() < 0.5)
        assert q_membership_poly(t) == q_membership_hol(t.entries)


def test_qpoly_arithmetic():
    f = P(1, 2, 1)
    g = P(1, 1)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert poly_gcd(f, g) == P(1, 1)
    assert P(0, 0, 1).derivative() == P(0, 2)
    assert P(0, 0, 1).derivative(2) == P(2)
    assert P(0, 0, 1).derivative(3).is_zero


def test_qpoly_exactness():
    # an exact third root: (z - 1/3)^3 has a triple rational root
    f = Poly.from_roots(0, [Fraction(1, 3)] * 3)
    assert not q_membership_poly(QTuple((f,), 3, 1, 3))
    assert q_membership_poly(QTuple((f,), 3, 1, 4))


def test_qtuple_validation():
    with pytest.raises(ValueError):
        QTuple((P(0, 1),), 1, 1, 1)  # (m, n) = (1, 1)
    with pytest.raises(ValueError):
        QTuple((P(0, 2),), 1, 1, 2)  # not monic
    with pytest.raises(ValueError):
        QTuple((P(0, 1), P(0, 0, 1)), 1, 2, 2)  # degree mismatch
    with pytest.raises(ValueError):
        QTuple((Poly(3, (0, 1)),), 1, 1, 2)  # coefficients in F_3, not Q


def test_degenerate_generator_needs_room():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        random_qtuple(rng, 1, 2, 2, force_degenerate=True)


def test_suite_composition():
    tuples = random_tuple_suite(300, seed=11)
    assert len(tuples) == 300
    assert all((t.m, t.n) != (1, 1) for t in tuples)
    assert all(1 <= t.d <= 6 and t.m <= 3 and t.n <= 3 for t in tuples)


# The oracle of the integer kernel: the same chains with Euclid over Q.
def euclid_gcd(polys):
    g = polys[0]
    for f in polys[1:]:
        g = poly_gcd(g, f)
    return g


def euclid_member_poly(t):
    g = euclid_gcd(list(t.entries))
    return euclid_gcd([g] + [g.derivative(order) for order in range(1, t.n)]).degree == 0


def euclid_member_hol(polys):
    return euclid_gcd(list(polys)).degree == 0


def assert_kernel_matches_euclid(t):
    jet = jet_map(t)
    assert jet == [f + f.derivative(order) if order else f for f in t.entries for order in range(t.n)]
    assert q_membership_poly(t) == euclid_member_poly(t)
    assert q_membership_hol(jet) == euclid_member_hol(jet)
    assert q_membership_hol(t.entries) == euclid_member_hol(t.entries)


def test_integer_kernel_matches_euclid_on_random_suite():
    for t in random_tuple_suite(1000):
        assert_kernel_matches_euclid(t)


def planted_tuple(rng, d, m, n, mult, roots):
    """m entries of degree d sharing the root a with multiplicity exactly mult
    (entry 0) or more, their other roots drawn by ``roots``."""
    a = roots()
    entries = []
    for i in range(m):
        e = mult if i == 0 else rng.randint(mult, d)
        entries.append(Poly.from_roots(0, [a] * e + [roots() for _ in range(d - e)]))
    return QTuple(tuple(entries), d, m, n)


def test_integer_kernel_matches_euclid_on_benchmark_shaped_batches():
    # the benchmark's jet batches: d <= 6, m <= 3, one planted root, halves among the roots
    rng = random.Random(5)
    for n in (2, 3):
        for j in range(300):
            m, d = 1 + j % 3, 1 + (j // 3) % 6
            mult = (j // 18) % (min(d, n + 1) + 1)
            half = 2 if j % 7 == 0 else 1
            t = planted_tuple(rng, d, m, n, mult, lambda: Fraction(rng.randint(-6, 6), half))
            assert_kernel_matches_euclid(t)
            assert q_membership_poly(t) == q_membership_hol(jet_map(t))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_integer_kernel_matches_euclid_on_adversarial_tuples(m):
    # d up to 12, roots with denominators up to 10^4, a common root of multiplicity n - 1, n and n + 1
    rng = random.Random(40 + m)

    def root():
        return Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))

    for n in (1, 2, 3, 4):
        if (m, n) == (1, 1):
            continue
        for mult in (n - 1, n, n + 1):
            for d in (max(mult, 1), 12):
                t = planted_tuple(rng, d, m, n, mult, root)
                assert_kernel_matches_euclid(t)
                assert q_membership_poly(t) == (mult < n)
