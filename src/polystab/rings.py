"""Coefficient rings for exact homology: the integers, the rationals, and prime fields."""

from __future__ import annotations

from operator import attrgetter

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest strong pseudoprime to all of the bases above (Sorenson-Webster 2015):
# below it, Miller-Rabin with those bases decides primality exactly.
MILLER_RABIN_BOUND = 3317044064679887385961981

# The coefficient systems.  The cache keys its files by k alone; the names live here so that spaces and
# cache can name the sign system without loading the engine.
TRIVIAL, SIGN = "trivial", "sign"
DEFAULT_K_MAX = 10  # the default bound on a request's summands, checked by spaces and the CLI; the engine has none


class CellModelError(RuntimeError):  # here so the CLI can catch it without loading the engine
    """The cell model failed its boundary-squared self-check or an integral table its local certificate."""


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes up to 41, then Miller-Rabin
    with those 13 bases.  Raises ValueError past :data:`MILLER_RABIN_BOUND`
    for a number with no small factor, where the test would not be exact."""
    if n < 4:
        return n > 1
    for q in _SMALL_PRIMES:
        if q * q > n:
            return True
        if n % q == 0:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"primality of {n} is only decided below {MILLER_RABIN_BOUND}"
        )
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Value:
    """Base of the package's immutable records: the fields are the ``__slots__`` (two
    or more), with defaults in ``_defaults``.  Instances run ``__post_init__``, compare,
    hash and print by value, refuse assignment and pickle; :meth:`replace` copies one
    with fields changed."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        if len(cls.__slots__) < 2:  # attrgetter returns a bare value for one name
            raise TypeError(f"{cls.__name__} needs two or more fields in __slots__")
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):  # fill in keywords and defaults
            named = dict(zip(fields, args))
            given = {**self._defaults, **named, **kwargs}
            if len(args) > len(fields) or not named.keys().isdisjoint(kwargs) or given.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes each of the fields {', '.join(fields)} once")
            args = [given[field] for field in fields]
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self.__slots__, self._values(self))), **changes})

    def __eq__(self, other):
        return self._values(self) == self._values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # the default unpickling would assign the slots
        return type(self), self._values(self)


class Ring(Value):
    """One of Z, Q, or F_p, identified by its label ("Z", "Q", "F<p>")."""

    __slots__ = ("label", "p")
    _defaults = {"p": None}

    @property
    def is_field(self) -> bool:
        return self.label != "Z"

    def __str__(self) -> str:
        return self.label


Z = Ring("Z")
Q = Ring("Q")


def GF(p: int) -> Ring:
    """The prime field with p elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Ring(f"F{p}", p)


def parse_ring(text: str) -> Ring:
    """Parse a ring label: "z", "q", "f2", "f3", ... (case-insensitive)."""
    t = text.strip().lower()
    if t == "z":
        return Z
    if t == "q":
        return Q
    if t.startswith("f") and t[1:].isdigit():
        return GF(int(t[1:]))
    raise ValueError(f"unknown ring {text!r} (expected z, q, or f<prime>)")
