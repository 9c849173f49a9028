"""Seeded op generators, the finite input menus behind them, and the output checks.

Every workload is a fixed list of slots; a slot fixes the cost-defining
parameters (ring, top summand k, grid size) and the seed only picks among
variants of equal cost (which command, which d/m/n, which tuple batch) and the
order of the slots.  So each seed sees different inputs while a pass costs the
same, and the menus are finite: ``reference.json`` holds the recorded output of
every variant any seed can produce.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Per-op caps in seconds, roughly 5-15x the heaviest op of the workload at the
# baseline commit; an op killed at its cap counts as failed.
CAPS = {"z_tables": 5.0, "field_tables": 30.0, "oracles": 20.0, "z_hang_probe": 5.0}

# Passes a run makes at least; the tail percentile is fixed from this count.
MIN_PASSES = {"z_tables": 5, "field_tables": 3, "oracles": 4, "z_hang_probe": 1}

UCT_RINGS = ("f2", "f3", "f5", "f7", "q")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` after the program name, optional stdin text."""

    key: str
    argv: tuple[str, ...]
    kind: str
    warm: bool = False  # re-run against the cache directory the cold run filled
    stdin: str | None = None
    tuples: int = 0  # number of jet tuples on stdin


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts) + ("--json",)


def _key(argv, stdin_name: str | None = None) -> str:
    key = " ".join(argv)
    return f"{key} <{stdin_name}" if stdin_name else key


# ---------------------------------------------------------------- menus


def table_variants(k: int, extra: tuple = ()) -> list[tuple[str, ...]]:
    """betti / hol-betti / e1 requests whose top summand is exactly k.

    All of them compute configuration homology for summands 1..k, so they cost
    the same; only the shifts and the output differ.
    """
    out = []
    for m, n in ((2, 1), (3, 1), (1, 2), (2, 2), (1, 3)):
        for d in sorted({k * n, k * n + n - 1}):
            out.append(_argv("betti", "--d", d, "--m", m, "--n", n, *extra))
    for n in (2, 3, 4):
        out.append(_argv("hol-betti", "--d", k, "--n", n, *extra))
    for m, n in ((2, 1), (1, 2), (1, 3)):
        out.append(_argv("e1", "--flavor", "poly", "--d", k * n, "--m", m, "--n", n, *extra))
    for n in (2, 3):
        out.append(_argv("e1", "--flavor", "hol", "--d", k, "--n", n, *extra))
    return out


def field_extra(ring: str, k: int) -> tuple:
    return ("--ring", ring, "--k-max", k)


def series_argv(ring: str, n: int, through: int, k_max: int) -> tuple[str, ...]:
    return _argv("stable-series", "--n", n, "--through", through, "--ring", ring, "--k-max", k_max)


# z_tables: top summand k per slot; most at 9 (the default bound is 10, see the
# z_hang_probe workload for the one request there).  The cold median and the
# p90 of all ops fall inside the k = 9 group; the median of all ops among the
# warm re-runs and the k = 6 cold op, which cost about the same.
Z_SLOTS = (6, 7, 8, 9, 9, 9, 9, 9, 9, 9)
Z_PROBE_SLOTS = (10,)

# field_tables: one heavy slot (F2 at k=15), five mid-weight, ten light.  A slot
# is ("table", ring, k) or ("series", ring, n, through, k_max).  Slots repeat
# where the median op (Q k=11, ranks 7-10 of 16 by cost) and the p79 tail
# (F2 k=13, ranks 12-14) fall, so those statistics sit inside a group of
# equal-cost ops rather than on a step between two costs.
FIELD_SLOTS = (
    ("table", "f2", 15),
    ("series", "f2", 2, 15, 15),
    ("table", "f2", 13),
    ("table", "f2", 13),
    ("table", "f2", 13),
    ("table", "f3", 12),
    ("table", "q", 11),
    ("table", "q", 11),
    ("table", "q", 11),
    ("table", "q", 11),
    ("table", "f7", 11),
    ("table", "f5", 11),
    ("table", "f3", 11),
    ("series", "f2", 2, 12, 12),
    ("series", "q", 2, 12, 12),
    ("series", "f2", 3, 30, 11),
)

# oracles: (d, m, p) per count slot; the seed picks n, which does not change the
# enumeration cost.  p^(dm) runs from 1024 to 59049.
COUNT_SLOTS = (
    (10, 1, 2),
    (7, 1, 3),
    (8, 1, 3),
    (4, 1, 11),
    (2, 2, 7),
    (2, 4, 3),
    (2, 3, 5),
    (3, 2, 5),
    (5, 2, 3),
)
JET_SLOTS = (2, 3)  # the --n of each jet batch
JET_VARIANTS = 8
JET_BATCH = 300


def count_ns(d: int, m: int) -> list[int]:
    return [n for n in range(1, d + 1) if (m, n) != (1, 1)]


def count_argv(d: int, m: int, n: int, p: int) -> tuple[str, ...]:
    return _argv("count", "--d", d, "--m", m, "--n", n, "--p", p, "--mode", "both")


STABILITY_MENU = ((6, 2, 2), (9, 1, 2), (12, 3, 1), (7, 2, 3), (20, 1, 2), (15, 4, 2), (5, 1, 5), (8, 3, 3))


def stability_argv(variant: int) -> tuple[str, ...]:
    d, m, n = STABILITY_MENU[variant]
    return _argv("stability-dim", "--d", d, "--m", m, "--n", n)


# ---------------------------------------------------------------- jet batches


def _root_poly(roots) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs


def jet_batch(n: int, variant: int) -> list[dict]:
    """Tuples with one planted common root of known multiplicity.

    Entry i has the root a with multiplicity e_i >= c (one entry exactly c) and
    its other roots at a + s*(i + 1 + m*t)*u, which differ between entries
    (the offset is i + 1 mod m) and within one.  So the common root of
    highest multiplicity is a, with multiplicity c, and the tuple is a member
    exactly when c < n.  The shape of tuple j (m, d, c and which roots are
    halves) depends on j alone and the variant only moves the roots, so every
    variant costs the same.
    """
    rng = random.Random(f"jet:{n}:{variant}")
    batch = []
    for j in range(JET_BATCH):
        m = 1 + j % 3
        d = 1 + (j // 3) % 6
        c = (j // 18) % (min(d, n + 1) + 1)
        a = Fraction(rng.randint(-6, 6), 2 if j % 7 == 0 else 1)
        unit = Fraction(1, 2 if j % 4 == 0 else 1)
        low = rng.randrange(m)
        entries = []
        for i in range(m):
            e = c if i == low else rng.randint(c, d)
            offsets = rng.sample([(s, t) for s in (1, -1) for t in range(d)], d - e)
            roots = [a] * e + [a + s * (i + 1 + m * t) * unit for s, t in offsets]
            entries.append(_root_poly(roots))
        batch.append({"entries": entries, "member": c < n})
    return batch


def jet_stdin(batch: list[dict]) -> str:
    return "".join(";".join(",".join(str(c) for c in f) for f in t["entries"]) + "\n" for t in batch)


def _derivative(f: list[Fraction], order: int) -> list[Fraction]:
    for _ in range(order):
        f = [i * c for i, c in enumerate(f)][1:]
    return f


def expected_jet(entries, n: int) -> list[list[str]]:
    out = []
    for f in entries:
        out.append([str(c) for c in f])
        for order in range(1, n):
            df = _derivative(f, order)
            out.append([str(c + (df[i] if i < len(df) else 0)) for i, c in enumerate(f)])
    return out


def jet_op(n: int, variant: int) -> Op:
    argv = _argv("jet", "--n", n)
    return Op(_key(argv, f"batch-n{n}-v{variant}"), argv, "jet", stdin=jet_stdin(jet_batch(n, variant)), tuples=JET_BATCH)


# ---------------------------------------------------------------- generators


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload in ("z_tables", "z_hang_probe"):
        for k in Z_SLOTS if workload == "z_tables" else Z_PROBE_SLOTS:
            argv = rng.choice(table_variants(k))
            ops.append(Op(_key(argv), argv, f"z k{k}", warm=True))
    elif workload == "field_tables":
        for slot in FIELD_SLOTS:
            if slot[0] == "table":
                _, ring, k = slot
                argv = rng.choice(table_variants(k, field_extra(ring, k)))
                ops.append(Op(_key(argv), argv, f"{ring} k{k} table"))
            else:
                _, ring, n, through, k_max = slot
                argv = series_argv(ring, n, through, k_max)
                ops.append(Op(_key(argv), argv, f"{ring} series n{n} t{through}"))
    elif workload == "oracles":
        for d, m, p in COUNT_SLOTS:
            argv = count_argv(d, m, rng.choice(count_ns(d, m)), p)
            ops.append(Op(_key(argv), argv, f"count m{'1' if m == 1 else '2+'} p^dm={p ** (d * m)}"))
        for n in JET_SLOTS:
            ops.append(jet_op(n, rng.randrange(JET_VARIANTS)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def setup_ops(seed: int):
    """An endless seeded stream of no-compute ``stability-dim`` calls."""
    rng = random.Random(f"setup:{seed}")
    while True:
        argv = stability_argv(rng.randrange(len(STABILITY_MENU)))
        yield Op(_key(argv), argv, "setup")


def menu() -> list[Op]:
    """Every op any seed can generate, for recording reference outputs."""
    ops = [Op(_key(a), a, "setup") for a in map(stability_argv, range(len(STABILITY_MENU)))]
    for k in sorted(set(Z_SLOTS)):
        ops += [Op(_key(a), a, f"z k{k}", warm=True) for a in table_variants(k)]
    for slot in dict.fromkeys(FIELD_SLOTS):
        if slot[0] == "table":
            _, ring, k = slot
            ops += [Op(_key(a), a, f"{ring} k{k} table") for a in table_variants(k, field_extra(ring, k))]
        else:
            a = series_argv(*slot[1:])
            ops.append(Op(_key(a), a, "series"))
    for d, m, p in COUNT_SLOTS:
        ops += [Op(_key(a), a, "count") for a in (count_argv(d, m, n, p) for n in count_ns(d, m))]
    ops += [jet_op(n, v) for n in JET_SLOTS for v in range(JET_VARIANTS)]
    return ops


def uct_menu() -> list[tuple[str, ...]]:
    """The integral requests whose field tables are stored for the UCT check."""
    return [a for k in sorted(set(Z_SLOTS + Z_PROBE_SLOTS)) for a in table_variants(k)]


# ---------------------------------------------------------------- checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def field_dims(doc: dict) -> dict[str, int]:
    """Degree (or "k,s" cell) -> dimension of a field-coefficient document."""
    result = doc["result"]
    if "homology" in result:
        return {deg: g[0] for deg, g in result["homology"].items()}
    return {f"{c['k']},{c['s']}": c["group"][0] for c in result["entries"]}


def uct_dims(doc: dict, ring: str) -> dict[str, int]:
    """Field dimensions predicted from an integral document by universal coefficients.

    A table is one column of degrees; an E1 page has one column per k, and the
    Tor term of a cell comes from the cell below it in the same column.
    """
    result = doc["result"]
    if "homology" in result:
        groups = {(None, int(deg)): g for deg, g in result["homology"].items()}
    else:
        groups = {(c["k"], c["s"]): c["group"] for c in result["entries"]}
    p = None if ring == "q" else int(ring[1:])

    def tors(col, s) -> int:
        g = groups.get((col, s))
        return 0 if g is None or p is None else sum(1 for t in g[1] if t % p == 0)

    dims = {}
    for col, s in set(groups) | {(col, s + 1) for col, s in groups}:
        g = groups.get((col, s))
        dim = (g[0] if g else 0) + tors(col, s) + tors(col, s - 1)
        if dim:
            dims[str(s) if col is None else f"{col},{s}"] = dim
    return dims


def series_closed_form(ring: str, n: int, through: int) -> list[int]:
    """Poincare series of the double loop space of S^(2n-1), with N = n - 1.

    F2: polynomial on degrees 2N*2^j - 1 (for n = 2: part sizes 2^j - 1).
    Odd p: exterior on 2N*p^j - 1 (j >= 0) times polynomial on 2N*p^j - 2 (j >= 1).
    Q: exterior on one class of degree 2N - 1.
    """
    big_n = n - 1
    coeffs = [1] + [0] * through

    def times_poly(s):
        for j in range(s, through + 1):
            coeffs[j] += coeffs[j - s]

    def times_ext(s):
        for j in range(through, s - 1, -1):
            coeffs[j] += coeffs[j - s]

    if ring == "q":
        times_ext(2 * big_n - 1)
        return coeffs
    p = int(ring[1:])
    j = 0
    while 2 * big_n * p**j - 2 <= through:
        if p == 2:
            times_poly(2 * big_n * 2**j - 1)
        else:
            times_ext(2 * big_n * p**j - 1)
            if j >= 1:
                times_poly(2 * big_n * p**j - 2)
        j += 1
    return coeffs


def check_output(op: Op, stdout: str, reference: dict) -> str | None:
    """None when the output is right; otherwise why it is not."""
    want = reference["outputs"].get(op.key)
    if want is None and op.key not in reference["uct"]:
        return "no recorded reference output for this request"
    # An integral request recorded only by its field tables (the k = 10 probe)
    # gets the universal-coefficient check alone.
    if want is not None and digest(stdout) != want:
        return "stdout differs from the recorded reference"
    try:
        return _check_doc(op, json.loads(stdout), reference)
    except (ValueError, LookupError, TypeError) as exc:
        return f"malformed output: {exc!r}"


def _check_doc(op: Op, doc: dict, reference: dict) -> str | None:
    command = op.argv[0]
    if command == "stability-dim":
        d, m, n = (int(op.argv[i]) for i in (2, 4, 6))
        if doc["result"]["dimension"] != (2 * m * n - 3) * (d // n + 1) - 1:
            return "stability dimension differs from (2mn-3)(floor(d/n)+1)-1"
    elif command == "count":
        if doc["result"].get("equal") is not True:
            return "brute-force count differs from the closed form"
    elif command == "stable-series":
        n, through, ring = int(op.argv[2]), int(op.argv[4]), op.argv[6]
        if doc["result"]["coefficients"] != series_closed_form(ring, n, through):
            return "series differs from the closed-form Poincare series"
    elif command == "jet":
        return _check_jet(op, doc)
    elif "--ring" not in op.argv:
        return check_uct(op.key, doc, reference)
    return None


def check_uct(key: str, doc: dict, reference: dict) -> str | None:
    tables = reference["uct"].get(key)
    if tables is None:
        return "no recorded field tables for the universal-coefficient check"
    for ring in UCT_RINGS:
        if uct_dims(doc, ring) != tables[ring]:
            return f"integral table is not UCT-consistent with the stored {ring} table"
    return None


def _check_jet(op: Op, doc: dict) -> str | None:
    n = int(op.argv[2])
    variant = int(op.key.rsplit("-v", 1)[1])
    batch = jet_batch(n, variant)
    results = doc["result"]["tuples"]
    if len(results) != len(batch):
        return f"jet reported {len(results)} tuples for {len(batch)} sent"
    for i, (got, planted) in enumerate(zip(results, batch)):
        if got["tuple"] != [[str(c) for c in f] for f in planted["entries"]]:
            return f"tuple {i} echoed wrongly"
        if got["jet"] != expected_jet(planted["entries"], n):
            return f"tuple {i}: jet differs from f + f^(j)"
        if not (got["poly_member"] is got["jet_hol_member"] is planted["member"] and got["agree"] is True):
            return f"tuple {i}: membership differs from the planted root"
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
