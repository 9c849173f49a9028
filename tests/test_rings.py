import pytest

from polystab.rings import MILLER_RABIN_BOUND, is_prime, parse_ring


def _trial_division(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize(
    "n, prime",
    [
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (318665857834031151167461, False),  # strong pseudoprime to bases 2..37
        (2**61 - 1, True),
        (10**18 + 3, True),
        ((2**31 - 1) * (10**9 + 7), False),  # no factor below 41
        (MILLER_RABIN_BOUND * 2, False),  # decided by a small factor
    ],
)
def test_is_prime_large(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_past_the_exact_bound():
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        parse_ring(f"f{2**89 - 1}")
