"""Command-line surface: exact homology tables, point counts, jets, verification.

JSON mode emits exactly one canonical document on standard output (dictionary
keys ordered, numeric-looking keys numerically), so identical inputs produce
identical bytes.  Exit status: 0 success, 1 validation error, 2 verification
failure (a failed verification suite, a point-count mismatch, or a failed
cell-model self-check or integral certificate).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import log10
from pathlib import Path

from . import __version__, braid, spaces
from .cache import HomologyCache, default_cache_dir
from .rings import is_prime, parse_ring  # ffield, jets, poly and verify load in the commands that run them

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for verification failures.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ordered(obj):
    if isinstance(obj, dict):
        def key(k):
            text = str(k)
            stripped = text.lstrip("-")
            return (0, int(text)) if stripped.isdigit() else (1, text)

        return {str(k): _ordered(obj[k]) for k in sorted(obj, key=key)}
    if isinstance(obj, (list, tuple)):
        return [_ordered(v) for v in obj]
    return obj


def canonical_json(payload: dict) -> str:
    return json.dumps(_ordered(payload), separators=(",", ":"), ensure_ascii=True)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload) + "\n")
    else:
        for line in lines:
            print(line)


def _report(command: str, parameters: dict, result: dict, exactness, notes=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "result": result,
        "exactness_bound": exactness,
        "notes": list(notes),
    }


def _resolve_cache(args) -> HomologyCache:
    directory = getattr(args, "cache_dir", None)
    path = Path(directory) if directory else default_cache_dir()
    return HomologyCache(path)


def _table_lines(header: str, table: spaces.HomologyTable) -> list[str]:
    lines = [header]
    groups = table.groups
    if groups.is_zero:
        lines.append("  trivial")
    for deg in groups.degrees():
        lines.append(f"  H_{deg} = {groups.group(deg)}")
    lines.append("  exact: complete")
    for note in table.notes:
        lines.append(f"  note: {note}")
    return lines


def _cmd_table(args) -> int:
    cache = _resolve_cache(args)
    ring = parse_ring(args.ring)
    if args.command == "betti":
        table = spaces.poly_homology(args.d, args.m, args.n, ring, k_max=args.k_max, cache=cache)
        params = {"d": args.d, "m": args.m, "n": args.n}
        header = f"tuple-space homology d={args.d} m={args.m} n={args.n}"
    else:
        table = spaces.hol_homology(args.d, args.n, ring, k_max=args.k_max, cache=cache)
        params = {"d": args.d, "n": args.n}
        header = f"rational-map-space homology d={args.d} target-n={args.n}"
    payload = _report(
        args.command,
        {**params, "ring": ring.label},
        {"homology": table.groups.to_payload()},
        "complete",
        table.notes + ("assembled from the stable summand splitting",),
    )
    _emit(args, payload, _table_lines(f"{header} over {ring}", table))
    return 0


def _cmd_e1(args) -> int:
    cache = _resolve_cache(args)
    ring = parse_ring(args.ring)
    if args.flavor == "poly":
        if args.m is None:
            raise ValueError("--flavor poly needs --m")
        page = spaces.e1_page_poly(args.d, args.m, args.n, ring, k_max=args.k_max, cache=cache)
        params = {"flavor": "poly", "d": args.d, "m": args.m, "n": args.n, "ring": ring.label}
    else:
        if args.m is not None:
            raise ValueError("--flavor hol takes no --m")
        page = spaces.e1_page_hol(args.d, args.n, ring, k_max=args.k_max, cache=cache)
        params = {"flavor": "hol", "d": args.d, "n": args.n, "ring": ring.label}
    entries = [
        {"k": k, "s": s, "group": [page.entry(k, s).free_rank, list(page.entry(k, s).torsion)]}
        for k, s in page.nonzero_cells()
    ]
    payload = _report(
        "e1",
        params,
        {"entries": entries, "columns": page.k_top, "twist": page.twist},
        "complete",
        ("first page of the discriminant filtration",),
    )
    lines = [f"first page ({args.flavor}), columns 0..{page.k_top}, twist {page.twist}"]
    for cell in entries:
        lines.append(f"  E1[{cell['k']},{cell['s']}] = {page.entry(cell['k'], cell['s'])}")
    _emit(args, payload, lines)
    return 0


def _cmd_stable_series(args) -> int:
    cache = _resolve_cache(args)
    ring = parse_ring(args.ring)
    series = spaces.omega_series(args.n, ring, args.through, k_max=args.k_max, cache=cache)
    params = {"n": args.n, "ring": ring.label, "through": args.through}
    payload = _report(
        "stable-series",
        params,
        {"coefficients": list(series.coefficients)},
        series.truncation,
        (f"double loop space of S^{2 * args.n - 1}",),
    )
    lines = [
        f"series of the double loop space of S^{2 * args.n - 1} over {ring}",
        "  " + " ".join(str(c) for c in series.coefficients),
        f"  exact through degree {series.truncation}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_stability_dim(args) -> int:
    value = spaces.stability_dimension(args.d, args.m, args.n)
    params = {"d": args.d, "m": args.m, "n": args.n}
    payload = _report("stability-dim", params, {"dimension": value}, "complete")
    _emit(args, payload, [str(value)])
    return 0


def _cmd_count(args) -> int:
    from . import ffield
    d, m, n, p = args.d, args.m, args.n, args.p
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bound = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if min(d, m, n) >= 1 and (m, n) != (1, 1):
        # unless m = n = 1 (count 0), the count is at least p^(dm)/2: it is computed only near the bound
        size = d * m * log10(p)
        if size >= bound + 1 or (size >= bound - 1 and ffield.closed_form_count(d, m, n, p) >= 10**bound):
            raise ValueError(f"the count has about {int(size) + 1} digits, over the output bound of {bound} digits")
    params = {"d": d, "m": m, "n": n, "p": p, "mode": args.mode}
    result: dict = {}
    lines = []
    if args.mode in ("brute", "both"):
        budget = {} if args.budget is None else {"budget": args.budget}
        result["brute"] = ffield.count_points(args.d, args.m, args.n, args.p, **budget)
        lines.append(f"brute {result['brute']}")
    if args.mode in ("formula", "both"):
        result["formula"] = ffield.closed_form_count(args.d, args.m, args.n, args.p)
        lines.append(f"formula {result['formula']}")
    if args.mode == "both":
        result["equal"] = result["brute"] == result["formula"]
        lines.append("equal" if result["equal"] else "DIFFER")
    payload = _report(
        "count",
        params,
        result,
        "complete",
        ("exhaustive enumeration" if args.mode != "formula" else "closed form",),
    )
    _emit(args, payload, lines)
    if args.mode == "both" and not result["equal"]:
        return 2
    return 0


def _parse_rational(text: str) -> Fraction:
    import fractions  # a plain import of a loaded module is ~10x cheaper than a from-import
    text = text.strip()
    # Fraction expands a decimal exponent exactly: bound it as str() bounds digits
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)$", text)
    bound = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if exponent and abs(float(exponent[1])) >= bound:
        raise ValueError(f"decimal exponent of {text!r} exceeds the bound: its magnitude must be below {bound}")
    try:
        return fractions.Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None


def parse_tuple_line(line: str, n: int) -> jets.QTuple:
    """One tuple per line; polynomials split by ';', coefficients (constant
    term first) split by ',', each an exact rational like '-3' or '1/2'."""
    from . import jets
    from .poly import Poly
    blocks = [b for b in line.strip().split(";") if b.strip()]
    if not blocks:
        raise ValueError("empty tuple line")
    polys = []
    for block in blocks:
        coeffs = [_parse_rational(c) for c in block.split(",")]
        polys.append(Poly(0, coeffs))
    degrees = {f.degree for f in polys}
    if len(degrees) != 1:
        raise ValueError(f"entries must share one degree, got {sorted(degrees)}")
    d = degrees.pop()
    for f in polys:
        if not f.is_monic:
            raise ValueError("entries must be monic")
    return jets.QTuple(tuple(polys), d, len(polys), n)


def _format_qpoly(f: Poly) -> list[str]:
    return [str(c) for c in f.coeffs]


def _cmd_jet(args) -> int:
    from . import jets
    if args.input:
        text = Path(args.input).read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()
    results = []
    lines = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        t = parse_tuple_line(raw, args.n)
        report = jets.jet_equivalence_check(t)
        results.append(
            {
                "tuple": [_format_qpoly(f) for f in t.entries],
                "jet": [_format_qpoly(f) for f in report.jet],
                "poly_member": report.poly_member,
                "jet_hol_member": report.jet_hol_member,
                "agree": report.agree,
            }
        )
        lines.append(
            f"poly_member={str(report.poly_member).lower()} "
            f"jet_hol_member={str(report.jet_hol_member).lower()} "
            f"agree={str(report.agree).lower()}"
        )
    payload = _report(
        "jet",
        {"n": args.n, "tuples": len(results)},
        {"tuples": results},
        "complete",
        ("membership via exact gcd over Q",),
    )
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    cache = _resolve_cache(args)
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [verify.run_suite(name, cache) for name in names]
    ok = all(r.passed for r in reports)
    payload = _report(
        "verify", {"suite": args.suite}, {"passed": ok, "suites": [r.to_payload() for r in reports]}, "complete"
    )
    lines = []
    for r in reports:
        lines.extend(r.lines())
    lines.append(f"{'PASS' if ok else 'FAIL'} verify:{args.suite}")
    _emit(args, payload, lines)
    return 0 if ok else 2


def _cmd_cache(args) -> int:
    cache = _resolve_cache(args)
    if args.action == "stats":
        result = cache.stats()
        lines = [f"{k}: {v}" for k, v in result.items()]
    else:
        removed = cache.clear()
        result = {"directory": str(cache.directory), "removed": removed}
        lines = [f"removed {removed} entries from {cache.directory}"]
    payload = _report("cache", {"action": args.action}, result, "complete")
    _emit(args, payload, lines)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polystab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"polystab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_max=True, ring=True):
        p.add_argument("--json", action="store_true", help="emit one canonical JSON document")
        p.add_argument("--cache-dir", help="homology cache directory (else POLYSTAB_CACHE, else platform default)")
        if k_max:
            p.add_argument("--k-max", type=int, default=braid.DEFAULT_K_MAX, help="largest supported summand index")
        if ring:
            p.add_argument("--ring", default="z", help="coefficients: z, q, or f<prime>")

    p = sub.add_parser("betti", help="homology of the polynomial-tuple space")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("hol-betti", help="homology of the based rational-map space")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="target projective space has n-1 complex dimensions")
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("e1", help="first page of the discriminant spectral sequence")
    p.add_argument("--flavor", choices=["poly", "hol"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, help="poly flavor only")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_e1)

    p = sub.add_parser("stable-series", help="series of the limiting double loop space")
    p.add_argument("--n", type=int, required=True, help="sphere parameter: the space is the double loops of S^(2n-1)")
    p.add_argument("--through", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_stable_series)

    p = sub.add_parser("stability-dim", help="stability dimension (2mn-3)(floor(d/n)+1)-1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, k_max=False, ring=False)
    p.set_defaults(func=_cmd_stability_dim)

    p = sub.add_parser("count", help="point counts over a prime field")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mode", choices=["brute", "formula", "both"], default="both")
    p.add_argument("--budget", type=int, help="most monic first entries (p^d of them) to sieve (default 10^5)")
    common(p, k_max=False, ring=False)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("jet", help="jet map and membership for exact rational tuples")
    p.add_argument("--n", type=int, required=True, help="multiplicity bound")
    p.add_argument("--input", help="file of tuples, one per line (default: stdin)")
    common(p, k_max=False, ring=False)
    p.set_defaults(func=_cmd_jet)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", default="all", help="a suite name, or all; an unknown name lists the suites")
    common(p, k_max=False, ring=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cache", help="cache administration")
    p.add_argument("action", choices=["stats", "clear"])
    common(p, k_max=False, ring=False)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, braid.CellModelError) as exc:
        message = str(exc)
        print(f"polystab: error: {message}", file=sys.stderr)
        if getattr(args, "json", False):
            doc = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "error": {"message": message},
            }
            sys.stdout.write(canonical_json(doc) + "\n")
        return 2 if isinstance(exc, braid.CellModelError) else 1


if __name__ == "__main__":
    sys.exit(main())
