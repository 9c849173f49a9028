import random
from itertools import combinations_with_replacement

import pytest

from polystab.abelian import AbelianGroup, GradedAbelianGroup, invariant_factors


def test_invariant_factors_normalization():
    assert invariant_factors([]) == ()
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([8, 4, 3, 9, 5]) == (12, 360)


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _by_primary_parts(orders) -> tuple[int, ...]:
    """The oracle: factor each order, then stack the largest prime powers of every prime into the last factor."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _factor(n).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    slots = [1] * max(len(v) for v in by_prime.values())
    for p, exps in by_prime.items():
        for i, e in enumerate(sorted(exps, reverse=True)):
            slots[i] *= p**e
    return tuple(reversed(slots))


def test_invariant_factors_match_the_primary_decomposition():
    for size in range(4):
        for orders in combinations_with_replacement(range(1, 37), size):
            assert invariant_factors(orders) == _by_primary_parts(orders), orders
    rng = random.Random(25)
    for _ in range(20000):
        orders = [rng.randint(1, rng.choice((6, 40, 1000))) for _ in range(rng.randint(0, 12))]
        assert invariant_factors(orders) == _by_primary_parts(orders), orders


def test_invariant_factors_rejects_nonpositive():
    with pytest.raises(ValueError):
        invariant_factors([0])


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))  # not a divisibility chain
    assert AbelianGroup(0, (2, 4)).torsion == (2, 4)


def test_direct_sum_renormalizes():
    left = AbelianGroup(1, (2,))
    right = AbelianGroup(0, (3,))
    assert left.direct_sum(right) == AbelianGroup(1, (6,))
    assert AbelianGroup(0, (4,)).direct_sum(AbelianGroup(0, (2,))) == AbelianGroup(0, (2, 4))


def test_str_forms():
    assert str(AbelianGroup()) == "0"
    assert str(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_graded_basics():
    g = GradedAbelianGroup({0: AbelianGroup(1), 3: AbelianGroup(0, (2,)), 5: AbelianGroup()})
    assert g.degrees() == (0, 3)
    assert g.group(5).is_zero
    assert g.top_degree() == 3
    assert g.shift(2).degrees() == (2, 5)
    assert g.free_rank(0) == 1 and g.torsion(3) == (2,)


def test_graded_direct_sum():
    a = GradedAbelianGroup({1: AbelianGroup(1)})
    b = GradedAbelianGroup({1: AbelianGroup(0, (2,)), 2: AbelianGroup(3)})
    total = a.direct_sum(b)
    assert total.group(1) == AbelianGroup(1, (2,))
    assert total.group(2) == AbelianGroup(3)


def test_payload_roundtrip_is_exact():
    g = GradedAbelianGroup({0: AbelianGroup(1), 4: AbelianGroup(2, (2, 4)), 7: AbelianGroup(0, (3,))})
    assert GradedAbelianGroup.from_payload(g.to_payload()) == g


def test_universal_coefficient_dimensions():
    # Z + Z/4 in degree 2, Z/2 in degree 1.
    g = GradedAbelianGroup({1: AbelianGroup(0, (2,)), 2: AbelianGroup(1, (4,))})
    assert g.free_rank(2) == 1
    assert g.dim_mod(2, 2) == 1 + 1 + 1  # rank + own 4 + Tor from the Z/2 below
    assert g.dim_mod(2, 3) == 1
    assert g.dim_mod(1, 2) == 1
    assert g.dim_mod(3, 2) == 1  # pure Tor term from degree 2
