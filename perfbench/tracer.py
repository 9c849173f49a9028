"""Run one polystab CLI op in this process, with spans around the package's layers.

    python3 tracer.py SPANS_FILE OP_ID -- ARGS...

runs ``polystab ARGS...`` the way the console script does, after replacing
the public functions of each module where they are bound: ``from .x import y``
copies ``y`` into the importing module, so each binding is wrapped.  Spans
(name, start, end, parent, bookkeeping ns, attributes) stay in memory and are
written with ``marshal`` when ``main`` returns and on SIGTERM, so an op killed
at its cap still reports where its time went.  Nothing in the package changes.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
import time

clock = time.perf_counter_ns
SPANS: list[list] = []  # [name, start_ns, end_ns, parent_index, bookkeeping_ns, attrs]
STACK: list[int] = []


def wrap(owner, attr: str, name: str, before=None, after=None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)`` return
    attribute dicts; the time they take is kept apart as bookkeeping, so it
    counts toward no layer.
    """
    fn = getattr(owner, attr)

    def traced(*args, **kwargs):
        span = [name, clock(), None, STACK[-1] if STACK else -1, 0, None]
        STACK.append(len(SPANS))
        SPANS.append(span)
        try:
            if before is not None:
                t = clock()
                span[5] = before(*args, **kwargs)
                span[4] += clock() - t
            result = fn(*args, **kwargs)
            if after is not None:
                t = clock()
                span[5] = {**(span[5] or {}), **after(result, *args, **kwargs)}
                span[4] += clock() - t
            return result
        finally:
            span[2] = clock()
            STACK.pop()

    setattr(owner, attr, traced)


def _rows(rows, *_args, **_kwargs) -> dict:
    entries = sum(map(len, rows))
    return {"entries": entries, "nnz": entries - sum(r.count(0) for r in rows)}


def _snf(matrix, *_args, **_kwargs) -> dict:
    attrs = _rows(matrix.entries)
    top = max((max(max(r), -min(r)) for r in matrix.entries if r), default=0)
    attrs["max_in_bits"] = top.bit_length()
    return attrs


def _config_key(k, system, ring=None, **kwargs) -> dict:
    return {"key": f"{k}/{system}/{ring if ring is not None else 'Z'}/{kwargs.get('through')}"}


def _cache_get(result, cache, key) -> dict:
    hit = result is not None
    return {"hit": hit, "bytes": cache.path_for(key).stat().st_size if hit else 0}


def _cache_put(_result, cache, key, _value) -> dict:
    return {"bytes": cache.path_for(key).stat().st_size}


def install() -> None:
    import polystab.braid as braid
    import polystab.cache as cache
    import polystab.cli as cli
    import polystab.complexes as complexes
    import polystab.ffield as ffield
    import polystab.jets as jets
    import polystab.linalg as linalg
    import polystab.spaces as spaces

    wrap(cli, "main", "cli.main")  # its self time is the time no other span covers
    wrap(cli, "build_parser", "cli.argparse")
    wrap(cli._Parser, "parse_args", "cli.argparse")
    wrap(cli, "canonical_json", "cli.emit")
    for fn in ("poly_homology", "hol_homology", "e1_page_poly", "e1_page_hol", "omega_series", "stability_dimension"):
        wrap(spaces, fn, f"spaces.{fn}")
    wrap(spaces, "dk_homology", "braid.dk_homology")
    for owner in (spaces, braid):
        wrap(owner, "config_homology", "braid.config_homology", before=_config_key)
    wrap(braid, "dual_fn_complex", "braid.dual_fn_complex")
    wrap(braid, "complex_homology", "complexes.complex_homology")
    wrap(complexes.ChainComplex, "check_boundary_condition", "complexes.check_boundary")
    wrap(complexes, "smith_normal_form", "linalg.snf", before=_snf)
    for owner in (braid, complexes):
        wrap(owner, "rank_int_rows", "linalg.rank_q", before=_rows)
        wrap(owner, "rank_mod_p_rows", "linalg.rank_modp", before=_rows)
    wrap(linalg, "rank_mod2_bitrows", "linalg.rank_mod2")
    wrap(cache.HomologyCache, "get", "cache.get", after=_cache_get)
    wrap(cache.HomologyCache, "put", "cache.put", after=_cache_put)
    wrap(ffield, "count_points", "ffield.count_points")
    wrap(ffield, "is_member", "ffield.is_member")
    wrap(ffield, "closed_form_count", "ffield.closed_form")
    wrap(jets, "jet_equivalence_check", "jets.check")
    wrap(jets, "jet_map", "jets.jet_map")


def dump(path: str, op_id: str, import_ns: int, killed: bool) -> None:
    now = clock()
    spans = [(s[0], s[1], s[2] if s[2] is not None else now, s[3], s[4], s[5]) for s in SPANS]
    with open(path, "wb") as handle:
        marshal.dump({"op": op_id, "import_ns": import_ns, "killed": killed, "spans": spans}, handle)


def main() -> int:
    path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE OP_ID -- ARGS...")
    t0 = clock()
    import polystab.cli

    import_ns = clock() - t0
    install()

    def on_term(signum, _frame):
        dump(path, op_id, import_ns, True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return polystab.cli.main(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        dump(path, op_id, import_ns, False)


if __name__ == "__main__":
    sys.exit(main())
