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

from . import __version__
from .rings import DEFAULT_K_MAX, CellModelError, is_prime, parse_ring  # each command loads the layers it runs

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for verification failures.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


_CONTAINERS = (dict, list, tuple)  # the only values _ordered recurses into


def _ordered(obj):
    if isinstance(obj, dict):
        def key(k):
            text = str(k)
            stripped = text.lstrip("-")
            return (0, int(text)) if stripped.isdigit() else (1, text)

        items = ((str(k), obj[k]) for k in sorted(obj, key=key))
        return {k: _ordered(v) if isinstance(v, _CONTAINERS) else v for k, v in items}
    return [_ordered(v) if isinstance(v, _CONTAINERS) else v for v in obj]


def canonical_json(payload: dict) -> str:
    return json.dumps(_ordered(payload), separators=(",", ":"), ensure_ascii=True)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_json(payload) + "\n")
    else:
        for line in lines:
            print(line)


def _report(args, parameters: dict, result: dict, exactness, notes=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "result": result,
        "exactness_bound": exactness,
        "notes": list(notes),
    }


def _resolve_cache(args, ring=None) -> HomologyCache | None:
    if ring is not None and ring.is_field:  # field tables are never cached
        return None
    from .cache import HomologyCache, default_cache_dir
    return HomologyCache(Path(args.cache_dir) if args.cache_dir else default_cache_dir())


def _group_text(group, ring) -> str:
    """A group as text; over a field it is a vector space (no torsion), printed F2^2, Q and so on."""
    return str(group).replace("Z", ring.label) if ring.is_field else str(group)


def _table_lines(header: str, table: spaces.HomologyTable) -> list[str]:
    lines = [header]
    groups = table.groups
    if groups.is_zero:
        lines.append("  trivial")
    for deg in groups.degrees():
        lines.append(f"  H_{deg} = {_group_text(groups.group(deg), table.ring)}")
    lines.append("  exact: complete")
    for note in table.notes:
        lines.append(f"  note: {note}")
    return lines


def _cmd_table(args, spaces, ring) -> tuple:
    cache = _resolve_cache(args, ring)
    if args.command == "betti":
        table = spaces.poly_homology(args.d, args.m, args.n, ring, k_max=args.k_max, cache=cache)
        params = {"d": args.d, "m": args.m, "n": args.n}
        header = f"tuple-space homology d={args.d} m={args.m} n={args.n}"
    else:
        table = spaces.hol_homology(args.d, args.n, ring, k_max=args.k_max, cache=cache)
        params = {"d": args.d, "n": args.n}
        header = f"rational-map-space homology d={args.d} target-n={args.n}"
    notes = table.notes + ("assembled from the stable summand splitting",)
    payload = _report(args, {**params, "ring": ring.label}, {"homology": table.groups.to_payload()}, "complete", notes)
    return payload, _table_lines(f"{header} over {ring}", table)


def _cmd_e1(args, spaces, ring) -> tuple:
    cache = _resolve_cache(args, ring)
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
    cells = [(k, s, page.entry(k, s)) for k, s in page.nonzero_cells()]
    entries = [{"k": k, "s": s, "group": [group.free_rank, list(group.torsion)]} for k, s, group in cells]
    result = {"entries": entries, "columns": page.k_top, "twist": page.twist}
    payload = _report(args, params, result, "complete", ("first page of the discriminant filtration",))
    lines = [f"first page ({args.flavor}), columns 0..{page.k_top}, twist {page.twist}"]
    lines += [f"  E1[{k},{s}] = {_group_text(group, ring)}" for k, s, group in cells]
    return payload, lines


def _cmd_stable_series(args, spaces, ring) -> tuple:
    series = spaces.omega_series(args.n, ring, args.through, k_max=args.k_max)
    params = {"n": args.n, "ring": ring.label, "through": args.through}
    result = {"coefficients": list(series.coefficients)}
    payload = _report(args, params, result, series.truncation, (f"double loop space of S^{2 * args.n - 1}",))
    lines = [
        f"series of the double loop space of S^{2 * args.n - 1} over {ring}",
        "  " + " ".join(str(c) for c in series.coefficients),
        f"  exact through degree {series.truncation}",
    ]
    return payload, lines


def _cmd_stability_dim(args) -> tuple:
    from . import spaces
    value = spaces.stability_dimension(args.d, args.m, args.n)
    params = {"d": args.d, "m": args.m, "n": args.n}
    return _report(args, params, {"dimension": value}, "complete"), [str(value)]


def _cmd_count(args) -> tuple:
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
    notes = ("exhaustive enumeration" if args.mode != "formula" else "closed form",)
    return _report(args, params, result, "complete", notes), lines, 0 if result.get("equal", True) else 2


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


def _parse_coefficient(text: str):
    """An int, or a Fraction for 'a/b' with b > 0, read without Fraction's regex; all else goes to _parse_rational."""
    import fractions
    if plain := re.fullmatch(r"([-+]?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?", text.strip()):
        num, den = plain.groups()
        return int(num) if den is None else fractions.Fraction(int(num), int(den))
    return _parse_rational(text)


def parse_tuple_line(line: str, n: int) -> jets.QTuple:
    """One tuple per line; polynomials split by ';', coefficients (constant
    term first) split by ',', each an exact rational like '-3' or '1/2'."""
    from . import jets
    from .poly import _poly
    blocks = [b for b in line.strip().split(";") if b.strip()]
    if not blocks:
        raise ValueError("empty tuple line")
    polys = []
    for block in blocks:
        polys.append(_poly(0, [_parse_coefficient(c) for c in block.split(",")]))
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


def _cmd_jet(args) -> tuple:
    from . import jets
    if args.n < 1:  # refused before any input, so an empty batch cannot echo it
        raise ValueError("n must be positive")
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
    params = {"n": args.n, "tuples": len(results)}
    return _report(args, params, {"tuples": results}, "complete", ("membership via exact gcd over Q",)), lines


def _cmd_verify(args) -> tuple:
    from . import verify
    cache = _resolve_cache(args)
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [verify.run_suite(name, cache) for name in names]
    ok = all(r.passed for r in reports)
    result = {"passed": ok, "suites": [r.to_payload() for r in reports]}
    payload = _report(args, {"suite": args.suite}, result, "complete")
    lines = []
    for r in reports:
        lines.extend(r.lines())
    lines.append(f"{'PASS' if ok else 'FAIL'} verify:{args.suite}")
    return payload, lines, 0 if ok else 2


def _cmd_cache(args) -> tuple:
    cache = _resolve_cache(args)
    if args.action == "stats":
        result = cache.stats()
        lines = [f"{k}: {v}" for k, v in result.items()]
    else:
        removed = cache.clear()
        result = {"directory": str(cache.directory), "removed": removed}
        lines = [f"removed {removed} entries from {cache.directory}"]
    return _report(args, {"action": args.action}, result, "complete"), lines


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_D, _M, _N = (_arg(f"--{name}", type=int, required=True) for name in "dmn")
_COMMON = (
    _arg("--json", action="store_true", help="emit one canonical JSON document"),
    _arg("--cache-dir", help="homology cache directory (else POLYSTAB_CACHE, else platform default)"),
)
_TABLE = (  # a table command's arguments; main parses its ring and hands the handler (spaces, ring)
    _arg("--k-max", type=int, default=DEFAULT_K_MAX, help="largest supported summand index"),
    _arg("--ring", default="z", help="coefficients: z, q, or f<prime>"),
)

# name -> (help, handler, is a table command, own arguments); a handler returns (payload, lines[, status])
_COMMANDS = {
    "betti": ("homology of the polynomial-tuple space", _cmd_table, True, (_D, _M, _N)),
    "hol-betti": ("homology of the based rational-map space", _cmd_table, True, (
        _D, _arg("--n", type=int, required=True, help="target projective space has n-1 complex dimensions"))),
    "e1": ("first page of the discriminant spectral sequence", _cmd_e1, True, (
        _arg("--flavor", choices=["poly", "hol"], required=True),
        _D, _arg("--m", type=int, help="poly flavor only"), _N)),
    "stable-series": ("series of the limiting double loop space", _cmd_stable_series, True, (
        _arg("--n", type=int, required=True, help="sphere parameter: the space is the double loops of S^(2n-1)"),
        _arg("--through", type=int, required=True))),
    "stability-dim": ("stability dimension (2mn-3)(floor(d/n)+1)-1", _cmd_stability_dim, False, (_D, _M, _N)),
    "count": ("point counts over a prime field", _cmd_count, False, (
        _D, _M, _N, _arg("--p", type=int, required=True),
        _arg("--mode", choices=["brute", "formula", "both"], default="both"),
        _arg("--budget", type=int, help="most monic first entries (p^d of them) to sieve (default 10^5)"))),
    "jet": ("jet map and membership for exact rational tuples", _cmd_jet, False, (
        _arg("--n", type=int, required=True, help="multiplicity bound"),
        _arg("--input", help="file of tuples, one per line (default: stdin)"))),
    "verify": ("run a verification suite", _cmd_verify, False, (
        _arg("suite", nargs="?", default="all", help="a suite name, or all; an unknown name lists the suites"),)),
    "cache": ("cache administration", _cmd_cache, False, (_arg("action", choices=["stats", "clear"]),)),
}
COMMANDS = tuple(_COMMANDS)


def build_parser(argv=()) -> _Parser:
    """The parser; when ``argv`` starts with a command, it holds only that command's subparser."""
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _Parser(prog="polystab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"polystab {__version__}")
    # with one subparser, the usage line of an error past the command still names every command
    sub = parser.add_subparsers(dest="command", required=True, metavar=only and "{%s}" % ",".join(COMMANDS))
    for name, (help_text, _, table, arguments) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, kwargs in arguments + _COMMON + (_TABLE if table else ()):
                p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _, handler, table, _ = _COMMANDS[args.command]
    try:
        prelude = ()
        if table:
            from . import spaces
            prelude = (spaces, parse_ring(args.ring))
        payload, lines, *status = handler(args, *prelude)
        _emit(args, payload, lines)
    except (ValueError, OSError, CellModelError) as exc:
        message = str(exc)
        print(f"polystab: error: {message}", file=sys.stderr)
        if args.json:
            doc = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "error": {"message": message},
            }
            sys.stdout.write(canonical_json(doc) + "\n")
        return 2 if isinstance(exc, CellModelError) else 1
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
