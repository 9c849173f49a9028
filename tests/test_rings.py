import pickle

import pytest

from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.cache import BraidHomologyKey
from polystab.complexes import SmithForm
from polystab.ffield import FpTuple
from polystab.jets import JetEquivalenceReport, QTuple
from polystab.poly import Poly
from polystab.rings import MILLER_RABIN_BOUND, Q, Ring, Value, is_prime, parse_ring
from polystab.spaces import E1Page, HomologyTable, Params, PoincareSeries
from polystab.verify import CheckResult


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


# one record of each immutable class: a factory (called twice for equal, distinct
# instances), one field change for replace, and the repr it printed as a dataclass
VALUES = [
    (lambda: Ring("F3", 3), {"label": "GF3"}, "Ring(label='F3', p=3)"),
    (lambda: AbelianGroup(2, (3,)), {"free_rank": 0}, "AbelianGroup(free_rank=2, torsion=(3,))"),
    (lambda: BraidHomologyKey(4, "sign"), {"k": 5}, "BraidHomologyKey(k=4, system='sign')"),
    (lambda: SmithForm((1, 2), 2), {"invariant_factors": (1, 4)}, "SmithForm(invariant_factors=(1, 2), rank=2)"),
    (lambda: Params(4, 1, 2), {"d": 5}, "Params(d=4, m=1, n=2)"),
    (lambda: HomologyTable(GradedAbelianGroup({0: (1, ())}), Q), {"notes": ("a note",)},
     "HomologyTable(groups=GradedAbelianGroup(H_0 = Z), ring=Ring(label='Q', p=None), notes=())"),
    (lambda: PoincareSeries((1, 0, 1), 2), {"coefficients": (1, 1, 1)},
     "PoincareSeries(coefficients=(1, 0, 1), truncation=2)"),
    (lambda: E1Page(Q, 1, 2, {(0, 0): AbelianGroup(1)}), {"twist": 4},
     "E1Page(ring=Ring(label='Q', p=None), k_top=1, twist=2)"),
    (lambda: FpTuple((Poly(3, [1, 1]),), 1, 1, 2, 3), {"n": 3},
     "FpTuple(entries=(Poly(p=3, coeffs=['1', '1']),), d=1, m=1, n=2, p=3)"),
    (lambda: QTuple((Poly(0, [0, 1]), Poly(0, [1, 1])), 1, 2, 1), {"n": 2},
     "QTuple(entries=(Poly(p=0, coeffs=['0', '1']), Poly(p=0, coeffs=['1', '1'])), d=1, m=2, n=1)"),
    (lambda: JetEquivalenceReport(True, False, ()), {"jet_hol_member": True},
     "JetEquivalenceReport(poly_member=True, jet_hol_member=False, jet=())"),
    (lambda: CheckResult("d4", True, "ok", 0.5), {"passed": False},
     "CheckResult(name='d4', passed=True, detail='ok', seconds=0.5)"),
]


@pytest.mark.parametrize("make, change, shown", VALUES, ids=[shown.split("(")[0] for _, _, shown in VALUES])
def test_values_behave_as_frozen_records(make, change, shown):
    a, b = make(), make()
    assert isinstance(a, Value) and not hasattr(a, "__dict__")
    assert a is not b and a == b and not a != b
    assert repr(a) == shown
    if isinstance(a, E1Page):  # its entries are a dict, so it hashes as a dataclass did: not at all
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    (field, value), = change.items()
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    changed = a.replace(**change)
    assert getattr(changed, field) == value and changed != a and a == b
    assert all(getattr(changed, f) == getattr(a, f) for f in type(a).__slots__ if f != field)
    assert a.replace() == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_values_keep_their_defaults_and_refuse_bad_fields():
    assert AbelianGroup() == AbelianGroup(0, ()) == AbelianGroup(torsion=())
    assert Ring("Z") == Ring("Z", None) == Ring(label="Z", p=None)
    assert AbelianGroup(1) != (1, ()) and Params(4, 1, 2) != BraidHomologyKey(4, "sign")
    for args, kwargs in [((), {}), ((1, 2, 3), {}), (("Z",), {"label": "Q"}), (("Z",), {"prime": 2})]:
        with pytest.raises(TypeError, match="Ring takes each of the fields label, p once"):
            Ring(*args, **kwargs)
    with pytest.raises(TypeError, match="Single needs two or more fields"):
        type("Single", (Value,), {"__slots__": ("only",)})


@pytest.mark.parametrize("build, message", [
    (lambda: AbelianGroup(0, (4, 2)), "divisibility order"),
    (lambda: AbelianGroup(-1), "nonnegative"),
    (lambda: Params(1, 1, 1), r"\(m, n\) = \(1, 1\) is excluded"),
    (lambda: BraidHomologyKey(0, "sign"), "at least 1"),
    (lambda: SmithForm((2, 3), 2), "divisibility chain"),
    (lambda: PoincareSeries((1, 2), 2), "one coefficient per degree"),
    (lambda: Params(2, 1, 2).replace(d=0), "must all be positive"),
])
def test_value_post_init_still_validates(build, message):
    with pytest.raises(ValueError, match=message):
        build()

