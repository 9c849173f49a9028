import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import polystab.poly
from polystab import ffield
from polystab.ffield import (
    FpTuple,
    closed_form_count,
    count_points,
    is_member,
    max_common_multiplicity,
    squarefree_multiplicities,
)
from polystab.poly import Poly, poly_gcd


def P(p, *coeffs):
    return Poly(p, coeffs)


def iter_monic(p, d):
    """All monic degree-d polynomials over F_p, in lexicographic order."""
    for lower in product(range(p), repeat=d):
        yield Poly(p, (*lower, 1))


def _shift(f, c):
    """f(z + c) by Horner's rule."""
    out = Poly(f.p, ())
    for coeff in reversed(f.coeffs):
        out = out * Poly(f.p, (c, 1)) + Poly(f.p, (coeff,))
    return out


def test_poly_normalization():
    assert P(3, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(3, 5, -1).coeffs == (2, 2)
    assert P(2).is_zero
    assert P(5, 0, 0, 1).is_monic
    for modulus in (1, 4, -3):
        with pytest.raises(ValueError):
            Poly(modulus, (1,))


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_poly_divmod_property(p):
    rng = random.Random(17)

    def coeff():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if p == 0 else rng.randrange(p)

    for _ in range(60):
        f = Poly(p, [coeff() for _ in range(rng.randint(0, 6))])
        g = Poly(p, [coeff() for _ in range(rng.randint(1, 4))])
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_arithmetic_results_skip_the_prime_check(monkeypatch):
    # the prime is checked when the caller builds f, never again on a result
    calls = []
    real = polystab.poly.is_prime
    monkeypatch.setattr(polystab.poly, "is_prime", lambda n: calls.append(n) or real(n))
    f = Poly(5, (1, 2, 0, 3, 1))
    for c in range(20):  # 120 operations
        g = (f + f.derivative(c % 4 + 1)) * f
        q, r = divmod(g.derivative(), f)
        assert poly_gcd(q, r).is_monic
    assert calls == [5]


def test_gcd_examples():
    # over F_2: z^2+z = z(z+1) and z^2+1 = (z+1)^2 share z+1
    assert poly_gcd(P(2, 0, 1, 1), P(2, 1, 0, 1)) == P(2, 1, 1)
    f = P(3, 0, 2, 1)
    assert poly_gcd(f, Poly(3, ())) == f.monic()
    assert poly_gcd(P(5, 0, 1), P(5, 1)) == Poly.one(5)


def test_gcd_rejects_mixed_primes():
    with pytest.raises(ValueError):
        poly_gcd(P(2, 1), P(3, 1))


def _irreducibles(p, max_degree):
    known = []
    for d in range(1, max_degree + 1):
        for f in iter_monic(p, d):
            if not any(
                g.degree <= d // 2 and (f % g).is_zero for g in known
            ):
                known.append(f)
    return known


def _factor_oracle(f, irreducibles):
    """Trial division by monic irreducibles; independent of the library path."""
    out = {}
    for q in irreducibles:
        count = 0
        while (f % q).is_zero:
            f = f // q
            count += 1
        if count:
            out[q] = count
    assert f.degree == 0
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_squarefree_multiplicities_exhaustive(p):
    max_degree = 5 if p != 5 else 3
    irreducibles = _irreducibles(p, max_degree)
    for d in range(1, max_degree + 1):
        for f in iter_monic(p, d):
            decomposition = squarefree_multiplicities(f)
            want = _factor_oracle(f, irreducibles)
            # rebuild multiplicity -> factor from the true factorization
            grouped = {}
            for q, e in want.items():
                grouped[e] = grouped.get(e, Poly.one(p)) * q
            assert decomposition == grouped


def test_pth_power_multiplicities():
    # (z+1)^4 over F_2: derivative vanishes, root extraction must recurse
    f = P(2, 1, 1) * P(2, 1, 1) * P(2, 1, 1) * P(2, 1, 1)
    assert squarefree_multiplicities(f) == {4: P(2, 1, 1)}
    # z^3 over F_3
    assert squarefree_multiplicities(P(3, 0, 0, 0, 1)) == {3: P(3, 0, 1)}


def test_max_common_multiplicity_examples():
    t = FpTuple((P(2, 0, 0, 1), P(2, 0, 1, 1)), 2, 2, 2, 2)
    assert max_common_multiplicity(t) == 1
    # over F_3: entries built around z^2 (z+1) and z^2 (z+1)^2 share z^2 (z+1);
    # the first is padded by a coprime factor to even out the degrees
    f1 = P(3, 0, 0, 1) * P(3, 1, 1) * P(3, 2, 1)
    f2 = P(3, 0, 0, 1) * P(3, 1, 1) * P(3, 1, 1)
    t = FpTuple((f1, f2), 4, 2, 2, 3)
    assert max_common_multiplicity(t) == 2
    t = FpTuple((P(2, 0, 1), P(2, 1, 1)), 1, 2, 1, 2)
    assert max_common_multiplicity(t) == 0


def test_multiplicity_bounded_by_degree():
    rng = random.Random(3)
    for _ in range(80):
        p = rng.choice([2, 3])
        d = rng.randint(1, 4)
        m = rng.randint(1, 2)
        entries = tuple(
            Poly(p, [rng.randrange(p) for _ in range(d)] + [1]) for _ in range(m)
        )
        t = FpTuple(entries, d, m, 2, p)
        assert 0 <= max_common_multiplicity(t) <= d


def test_full_multiplicity_iff_common_power():
    p, d = 3, 3
    shared = P(p, 1, 1)  # z + 1
    cube = shared * shared * shared
    t = FpTuple((cube, cube), d, 2, 2, p)
    assert max_common_multiplicity(t) == d
    for f in iter_monic(p, d):
        for g in iter_monic(p, d):
            t = FpTuple((f, g), d, 2, 2, p)
            if max_common_multiplicity(t) == d:
                assert f == g
                assert len(squarefree_multiplicities(f)) == 1


def test_is_member_examples():
    double = P(2, 1, 1) * P(2, 1, 1)
    assert not is_member(FpTuple((double, double), 2, 2, 2, 2))
    assert is_member(FpTuple((P(2, 0, 0, 1), P(2, 1, 0, 1)), 2, 2, 2, 2))
    # n > d: membership is automatic
    t = FpTuple((P(3, 2, 1),), 1, 1, 2, 3)
    assert is_member(t)


def test_is_member_translation_invariance():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 4)
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        entries = tuple(
            Poly(p, [rng.randrange(p) for _ in range(d)] + [1]) for _ in range(m)
        )
        t = FpTuple(entries, d, m, n, p)
        base = is_member(t)
        for c in range(p):
            shifted = FpTuple(tuple(_shift(f, c) for f in entries), d, m, n, p)
            assert is_member(shifted) == base
        permuted = FpTuple(tuple(reversed(entries)), d, m, n, p)
        assert is_member(permuted) == base


def test_count_examples():
    assert count_points(2, 1, 2, 2) == 2
    assert count_points(1, 2, 1, 2) == 2
    assert count_points(1, 1, 2, 3) == 3


def test_count_budget_refusal():
    with pytest.raises(ValueError, match="raise the budget to at least 1024"):
        count_points(10, 1, 2, 2, budget=1000)
    # the default budget refuses 100003 first entries
    with pytest.raises(ValueError, match="enumeration of 100003 first entries exceeds the budget 100000"):
        count_points(1, 2, 1, 100003)
    # a budget below 1 is refused as such, not as a request for "at least 3^3"
    for budget in (0, -5):
        with pytest.raises(ValueError, match="^budget must be positive$"):
            count_points(3, 2, 2, 3, budget=budget)


def test_both_counts_refuse_a_bad_request_in_their_own_words():
    for d, m, n in ((0, 1, 2), (2, 0, 2), (2, 1, -1)):
        for count in (count_points, closed_form_count):
            with pytest.raises(ValueError, match="^d, m, n must all be positive$"):
                count(d, m, n, 2)
    with pytest.raises(ValueError, match="^need q >= 2$"):
        closed_form_count(2, 1, 2, 1)


def test_count_budget_refuses_huge_degrees_unevaluated():
    # 3^(10^8) is never computed: 2^d > budget once d >= budget.bit_length()
    with pytest.raises(ValueError, match=r"enumeration of 3\^100000000 first entries exceeds the budget"):
        count_points(10**8, 2, 2, 3)
    assert closed_form_count(10**8, 1, 1, 3) == 0


def test_count_budget_bounds_first_entries():
    # 5^18 tuples, but only 5^6 first entries are sieved
    assert count_points(6, 3, 2, 5) == closed_form_count(6, 3, 2, 5)
    assert count_points(4, 2, 2, 3, budget=81) == closed_form_count(4, 2, 2, 3)
    with pytest.raises(
        ValueError,
        match="enumeration of 81 first entries exceeds the budget 80; raise the budget to at least 81",
    ):
        count_points(4, 2, 2, 3, budget=80)


def _brute_counts(d, m, p):
    """n -> number of member tuples for n = 1..d+1, by enumerating all p^(dm) tuples.

    is_member(t) is max_common_multiplicity(t) < t.n, so one pass that tallies
    the multiplicities serves every n.
    """
    polys = list(iter_monic(p, d))
    tally = Counter(
        max_common_multiplicity(FpTuple(entries, d, m, 1, p))
        for entries in product(polys, repeat=m)
    )
    return {n: sum(c for e, c in tally.items() if e < n) for n in range(1, d + 2)}


# p in {2, 3, 5}, d <= 4, m <= 3, n <= d + 1 and p^(dm) <= 20000: 107 points
BRUTE_GRID = [
    (d, m, p) for p in (2, 3, 5) for d in range(1, 5) for m in (1, 2, 3) if p ** (d * m) <= 20_000
]


@pytest.mark.parametrize("d, m, p", BRUTE_GRID)
def test_count_points_against_brute_force(d, m, p):
    for n, members in _brute_counts(d, m, p).items():
        assert count_points(d, m, n, p) == members, n
        assert closed_form_count(d, m, n, p) == members, n


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monic_irreducibles_exhaustive(p):
    # the sieve's list equals trial division, degree by degree
    max_degree = {2: 8, 3: 5, 5: 3}[p]
    irreducibles = _irreducibles(p, max_degree)
    found = ffield._monic_irreducibles(p, max_degree)
    assert found[0] == []
    for d in range(1, max_degree + 1):
        assert set(found[d]) == {f for f in irreducibles if f.degree == d}, d
        assert len(found[d]) == len(set(found[d]))


def test_count_points_skips_the_membership_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("count_points factored a first entry")

    for name in ("squarefree_multiplicities", "max_common_multiplicity", "is_member"):
        monkeypatch.setattr(ffield, name, refuse)
    assert count_points(6, 3, 2, 5) == closed_form_count(6, 3, 2, 5)
    assert count_points(4, 2, 1, 3) == closed_form_count(4, 2, 1, 3)


@pytest.mark.parametrize("d, m, n, p", [(4, 1, 2, 11), (8, 1, 3, 3), (7, 1, 4, 3), (10, 1, 4, 2), (16, 1, 2, 2)])
def test_count_points_matches_the_closed_form_at_the_benchmark_sizes(d, m, n, p):
    assert count_points(d, m, n, p) == closed_form_count(d, m, n, p)


def test_closed_form_examples():
    assert closed_form_count(2, 1, 2, 2) == 2
    assert closed_form_count(2, 2, 2, 2) == 14
    assert closed_form_count(3, 1, 3, 2) == 6
    # the d = n anchor is q^(mn) - q
    for q in (2, 3, 5):
        for m, n in ((1, 2), (2, 2), (3, 2), (2, 3)):
            assert closed_form_count(n, m, n, q) == q ** (m * n) - q


def test_counts_satisfy_the_factorisation_identity():
    # each tuple is h^n times a member tuple, with q^e monic h of degree e:
    # q^(md) = sum_e q^e N(d - ne), N(0) = 1; brute-force counts alone
    for p in (2, 3):
        for m in (1, 2):
            for n in (1, 2, 3):
                members = {0: 1}
                for d in range(1, 5):
                    members[d] = count_points(d, m, n, p)
                    total = sum(p**e * members[d - n * e] for e in range(d // n + 1))
                    assert total == p ** (m * d), (d, m, n, p)


def test_classical_squarefree_subcase():
    for p in (2, 3):
        for d in range(2, 5):
            assert count_points(d, 1, 2, p) == p**d - p ** (d - 1)


def test_tuple_validation():
    with pytest.raises(ValueError):
        FpTuple((P(2, 0, 1),), 1, 2, 2, 2)  # m mismatch
    with pytest.raises(ValueError):
        FpTuple((P(3, 0, 2),), 1, 1, 2, 3)  # not monic
    with pytest.raises(ValueError):
        FpTuple((P(2, 0, 0, 1),), 1, 1, 2, 2)  # degree mismatch
    with pytest.raises(ValueError):
        FpTuple((P(3, 0, 1),), 1, 1, 2, 2)  # prime mismatch
