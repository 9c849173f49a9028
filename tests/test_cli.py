import importlib
import io
import json
import marshal
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polystab import braid, cli, complexes, ffield, jets, poly, verify
from polystab.abelian import GradedAbelianGroup
from polystab.rings import MILLER_RABIN_BOUND

ROOT = Path(__file__).resolve().parents[1]


def run_process(*argv, timeout=60, stdin=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT, input=stdin,
    )


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_json_worked_example(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "betti", "--d", "2", "--m", "2", "--n", "2", "--ring", "z", "--json",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["result"]["homology"] == {"0": [1, []], "5": [1, []]}
    assert doc["exactness_bound"] == "complete"


def test_json_output_is_byte_stable(tmp_path, capsys):
    args = ("betti", "--d", "4", "--m", "1", "--n", "2", "--json", "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_json_degree_keys_sorted_numerically(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "betti", "--d", "6", "--m", "2", "--n", "2", "--json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    degrees = [int(k) for k in doc["result"]["homology"]]
    assert degrees == sorted(degrees)
    assert max(degrees) > 9  # exercises the numeric (not lexicographic) ordering


def test_betti_table_mode(tmp_path, capsys):
    code, out, _ = run(
        capsys, "betti", "--d", "2", "--m", "2", "--n", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "H_0 = Z" in out and "H_5 = Z" in out


def test_hol_betti(tmp_path, capsys):
    code, out, _ = run(
        capsys, "hol-betti", "--d", "1", "--n", "3", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["homology"] == {"0": [1, []], "3": [1, []]}


def test_count_both_modes(capsys):
    code, out, _ = run(capsys, "count", "--d", "2", "--m", "1", "--n", "2", "--p", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"brute": 2, "equal": True, "formula": 2}


@pytest.mark.parametrize("mode", ["formula", "brute", "both"])
def test_count_refuses_a_non_prime_in_every_mode(capsys, mode):
    code, out, err = run(capsys, "count", "--d", "3", "--m", "2", "--n", "2", "--p", "4", "--mode", mode)
    assert (code, out, err) == (1, "", "polystab: error: 4 is not prime\n")


def test_count_meets_the_pd_target():
    # 3^12 tuples; the counter sieves the 3^6 first entries
    started = time.perf_counter()
    done = run_process(
        "-m", "polystab.cli", "count", "--d", "6", "--m", "2", "--n", "2", "--p", "3",
        "--mode", "both", "--json", timeout=20,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert '"equal":true' in done.stdout
    assert elapsed < 1, f"took {elapsed:.2f}s"


def test_count_sieves_sixteen_degrees_quickly():
    # 2^16 first entries, sieved rather than factored one by one
    started = time.perf_counter()
    done = run_process(
        "-m", "polystab.cli", "count", "--d", "16", "--m", "1", "--n", "2", "--p", "2",
        "--mode", "both", "--json", timeout=20,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert '"equal":true' in done.stdout
    assert elapsed < 2, f"took {elapsed:.2f}s"


def test_count_refuses_a_budget_below_one(capsys):
    code, out, err = run(capsys, "count", "--d", "3", "--m", "2", "--n", "2", "--p", "3", "--budget", "0")
    assert (code, out, err) == (1, "", "polystab: error: budget must be positive\n")


def test_count_help_names_the_default_budget(capsys):
    code, out, _ = run(capsys, "count", "--help")
    assert code == 0 and ffield.DEFAULT_ENUMERATION_BUDGET == 10**5
    assert "(default 10^5)" in " ".join(out.split())


def test_planted_sieve_fault_fails_count_and_verify(tmp_path, capsys, monkeypatch):
    # without the degree-2 irreducibles, (z^2 + 1)^2 and its kin count as members
    real = ffield._monic_irreducibles
    monkeypatch.setattr(ffield, "_monic_irreducibles",
                        lambda p, top: [[] if e == 2 else found for e, found in enumerate(real(p, top))])
    code, out, _ = run(capsys, "count", "--d", "4", "--m", "2", "--n", "2", "--p", "3", "--mode", "both")
    assert code == 2
    assert out.splitlines()[-1] == "DIFFER"
    code, out, _ = run(capsys, "verify", "counts", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "FAIL counts.d4_m1_n2_p2" in out and "FAIL verify:counts" in out


def test_stability_dim(capsys):
    code, out, _ = run(capsys, "stability-dim", "--d", "6", "--m", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "19"


def test_e1_poly(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "e1", "--flavor", "poly", "--d", "2", "--m", "1", "--n", "2", "--json",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["entries"] == [
        {"group": [1, []], "k": 0, "s": 0},
        {"group": [1, []], "k": 1, "s": 2},
    ]


def test_stable_series(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "stable-series", "--n", "2", "--through", "7", "--ring", "f2", "--json",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["coefficients"] == [1, 1, 1, 2, 2, 2, 3, 4]
    assert doc["exactness_bound"] == 7


def test_jet_subcommand(tmp_path, capsys):
    source = tmp_path / "tuples.txt"
    source.write_text("0,0,1\n-1,0,1\n0,1;1,1\n")
    code, out, _ = run(capsys, "jet", "--n", "2", "--input", str(source), "--json")
    assert code == 0
    doc = json.loads(out)
    tuples = doc["result"]["tuples"]
    assert [t["poly_member"] for t in tuples] == [False, True, True]
    assert all(t["agree"] for t in tuples)
    assert tuples[0]["jet"] == [["0", "0", "1"], ["0", "2", "1"]]


def test_jet_subcommand_builds_each_jet_once(tmp_path, capsys, monkeypatch):
    # the printed jet is the one the membership check built
    calls = []
    real = jets.jet_map
    monkeypatch.setattr(jets, "jet_map", lambda t, **kwargs: calls.append(t) or real(t, **kwargs))
    source = tmp_path / "tuples.txt"
    source.write_text("0,0,1\n-1,0,1\n0,1;1,1\n")
    code, out, _ = run(capsys, "jet", "--n", "2", "--input", str(source), "--json")
    assert code == 0
    tuples = json.loads(out)["result"]["tuples"]
    assert len(calls) == 3
    assert [t["jet"] for t in tuples] == [[cli._format_qpoly(f) for f in real(t)] for t in calls]


def test_jet_rational_coefficients(tmp_path, capsys):
    source = tmp_path / "tuples.txt"
    source.write_text("1/9,-2/3,1\n")  # (z - 1/3)^2
    code, out, _ = run(capsys, "jet", "--n", "2", "--input", str(source), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["tuples"][0]["poly_member"] is False


def test_jet_zero_denominator_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1/0,1\n"))
    code, out, err = run(capsys, "jet", "--n", "2", "--json")
    assert code == 1
    assert "'1/0'" in json.loads(out)["error"]["message"]
    assert "'1/0'" in err and "Traceback" not in err


PARSE_CASES = ["7", "-0", "+3", " 12 ", "1_000", "2/4", "3/-4", "1/0", "0/0", "\u0661\u0662", "1e3", "0.5", "", "abc",
               "9" * 5000]


@pytest.mark.parametrize("text", PARSE_CASES, ids=lambda text: repr(text) if len(text) < 10 else f"{len(text)}-digits")
def test_coefficient_parse_matches_fraction(capsys, monkeypatch, text):
    def outcome(parse):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    assert outcome(cli._parse_coefficient) == outcome(cli._parse_rational)
    # the jet command answers alike when every coefficient goes through Fraction(text)
    answers = []
    for parse in (cli._parse_coefficient, cli._parse_rational):
        monkeypatch.setattr(cli, "_parse_coefficient", parse)
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{text},1\n"))
        answers.append(run(capsys, "jet", "--n", "2", "--json"))
    assert answers[0] == answers[1]


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's request generator and output checks."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("n", [2, 3])
def test_benchmark_jet_batches_match_the_reference_without_euclid_over_q(capsys, monkeypatch, workloads, n):
    def euclid(*_args):
        raise AssertionError("Euclid over Q ran on the jet path")

    monkeypatch.setattr(poly, "poly_gcd", euclid)
    monkeypatch.setattr(poly.Poly, "__divmod__", euclid)
    reference = workloads.load_reference()
    for variant in range(workloads.JET_VARIANTS):
        op = workloads.jet_op(n, variant)
        monkeypatch.setattr(sys, "stdin", io.StringIO(op.stdin))
        code, out, err = run(capsys, *op.argv)
        assert code == 0, err
        assert workloads.check_output(op, out, reference) is None, op.key


def test_jet_decimal_exponent_bound():
    bound = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert cli._parse_rational("1e1000") == 10**1000
    assert cli._parse_rational(f"-5E-{bound - 1}") == Fraction(-5, 10 ** (bound - 1))
    for text in (f"1e{bound}", f"2.5E-{bound}", "1e999_999", "3e+" + "9" * 5000):
        with pytest.raises(ValueError, match=f"exceeds the bound: its magnitude must be below {bound}"):
            cli._parse_rational(text)


def test_jet_huge_exponent_exits_one_quickly():
    started = time.perf_counter()
    done = run_process("-m", "polystab.cli", "jet", "--n", "2", "--json", stdin="1e999999999,1\n", timeout=10)
    elapsed = time.perf_counter() - started
    assert done.returncode == 1
    assert "exceeds the bound" in json.loads(done.stdout)["error"]["message"]
    assert "Traceback" not in done.stderr
    assert elapsed < 2, f"took {elapsed:.2f}s"


def test_validation_error_exits_one(capsys):
    code, out, err = run(capsys, "betti", "--d", "2", "--m", "1", "--n", "1")
    assert code == 1
    assert "error" in err.lower()
    assert out == ""


def test_validation_error_json_object(capsys):
    code, out, err = run(capsys, "betti", "--d", "2", "--m", "1", "--n", "1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["message"]


def test_bad_usage_exits_one(capsys):
    code, _, err = run(capsys, "betti", "--d", "2", "--m", "2")
    assert code == 1
    assert "error" in err


def test_e1_hol_refuses_m(capsys):
    code, out, err = run(capsys, "e1", "--flavor", "hol", "--d", "2", "--n", "2", "--m", "3")
    assert code == 1
    assert "--flavor hol takes no --m" in err
    assert out == ""


def test_unknown_suite_exits_one(capsys):
    code, _, err = run(capsys, "verify", "not-a-suite")
    assert code == 1
    assert "unknown suite" in err


def test_verify_single_suite(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "d2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "PASS d2.fixture" in out
    assert "PASS verify:d2" in out


def test_verify_failure_exits_two(tmp_path, capsys, monkeypatch):
    def failing_suite(cache=None):
        yield "broken", False, "forced"

    monkeypatch.setitem(verify.SUITES, "stub", failing_suite)
    code, out, _ = run(capsys, "verify", "stub", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "FAIL stub.broken" in out


def test_failed_self_check_exits_two(tmp_path, capsys, monkeypatch):
    real = braid.shuffle_sum

    def broken(a, b, signed):
        # boundary squared of (1, 1, 1) vanishes only if (2, 1) and (1, 2) agree
        return real(a, b, signed) + (1 if (a, b) == (2, 1) else 0)

    monkeypatch.setattr(braid, "shuffle_sum", broken)
    code, out, err = run(
        capsys, "betti", "--d", "6", "--m", "1", "--n", "2", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["command"] == "betti"
    assert "self-check failed" in doc["error"]["message"]
    assert "Traceback" not in err


@pytest.fixture
def planted_shuffle_fault(monkeypatch):
    # doubling the signed shuffle sums with a + b >= 9 keeps d.d = 0 through
    # k = 10, but the F_2 matching pairs on the merge (8, 1), now even, so the
    # integral trivial table refuses k = 9 instead of giving a wrong table
    real = braid.shuffle_sum

    def planted(a, b, signed):
        return real(a, b, signed) * (2 if signed and a + b >= 9 else 1)

    monkeypatch.setattr(braid, "shuffle_sum", planted)


def test_planted_shuffle_fault_fails_verify_cells(tmp_path, capsys, planted_shuffle_fault):
    code, out, _ = run(capsys, "verify", "cells", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "PASS cells.closed_form_sign_k8" in out
    assert "FAIL cells.CellModelError" in out and "not a unit mod 2" in out


def test_refused_suite_keeps_the_checks_before_the_refusal(tmp_path, capsys, planted_shuffle_fault):
    code, out, _ = run(capsys, "verify", "splitting", "--cache-dir", str(tmp_path))
    assert code == 2
    checks = [" ".join(line.split()[:2]) for line in out.splitlines()]
    assert checks == (
        [f"PASS splitting.d{d}" for d in range(2, 9)]
        + ["FAIL splitting.CellModelError", "FAIL verify:splitting"]
    )


def test_verify_all_reports_every_suite_past_a_refusal(tmp_path, capsys, planted_shuffle_fault):
    code, out, err = run(capsys, "verify", "all", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "FAIL cells.CellModelError" in out
    assert "FAIL splitting.CellModelError" in out and "self-check failed" in out
    lines = out.splitlines()
    assert lines[-1] == "FAIL verify:all"
    assert {line.split()[1].split(".")[0] for line in lines[:-1]} == set(verify.SUITES)
    assert "Traceback" not in err


def test_verify_all_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "all", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "PASS verify:all" in out
    assert "FAIL" not in out


def test_verify_json_report(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "d2", "--json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["suites"][0]["suite"] == "d2"
    assert doc["result"]["suites"][0]["checks"][0]["passed"] is True


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = tmp_path / "store"
    code, _, _ = run(capsys, "betti", "--d", "4", "--m", "1", "--n", "2", "--cache-dir", str(cache_dir))
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir), "--json")
    doc = json.loads(out)
    assert doc["result"]["entries"] > 0
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(cache_dir), "--json")
    assert json.loads(out)["result"]["removed"] > 0
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(cache_dir), "--json")
    assert json.loads(out)["result"]["entries"] == 0


def _k3_sign_entry(homology) -> bytes:
    return json.dumps({"format": "polystab-braid-homology", "version": 1, "k": 3, "system": "sign",
                       "homology": homology}).encode()


@pytest.mark.parametrize("body", [
    _k3_sign_entry([]),
    # taken as an integer, 6.5 would pass every table check and print Z/6 where H_3 is Z/2
    _k3_sign_entry({"0": [0, [6.5]], "1": [0, [3]]}),
    b"\xff\xfe\x00garbage",  # not UTF-8
    b"[" * 100000,  # nested past the JSON parser's recursion limit
    _k3_sign_entry(None).replace(b"null", b"[" * 100000),
], ids=["not_an_object", "float_order", "not_utf8", "deep", "deep_table"])
def test_malformed_cache_entry_prints_the_cold_bytes(tmp_path, capsys, body):
    args = ("betti", "--d", "6", "--m", "1", "--n", "2", "--json", "--cache-dir")
    _, cold, _ = run(capsys, *args, str(tmp_path / "cold"))
    entry = tmp_path / "warm" / "braid_v1_k3_sign.json"
    entry.parent.mkdir()
    entry.write_bytes(body)
    with pytest.warns(UserWarning, match="corrupted"):
        code, out, _ = run(capsys, *args, str(entry.parent))
    assert (code, out) == (0, cold)


def test_canonical_json_ordering_helper():
    payload = {"10": 1, "2": 2, "b": 3, "a": {"5": 1, "11": 2}}
    assert cli.canonical_json(payload) == '{"2":2,"10":1,"a":{"5":1,"11":2},"b":3}'
    nested = {"x": ({"-1": None, "-2": [True, (1.5, "s")]}, [], ()), 3: {}}
    assert cli.canonical_json(nested) == '{"3":{},"x":[{"-2":[true,[1.5,"s"]],"-1":null},[],[]]}'


def test_large_prime_ring_answers_quickly(tmp_path):
    started = time.perf_counter()
    done = run_process(
        "-m", "polystab.cli", "betti", "--d", "2", "--m", "2", "--n", "2",
        "--ring", "f1000000000000000003", "--json", "--cache-dir", str(tmp_path), timeout=10,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["homology"] == {"0": [1, []], "5": [1, []]}
    assert elapsed < 2, f"took {elapsed:.2f}s"


def test_f3_table_through_k60_answers_quickly(tmp_path):
    # summands 1..60 over F_3: the content check settles every rank, so no flow walks the cells
    started = time.perf_counter()
    done = run_process(
        "-m", "polystab.cli", "betti", "--d", "60", "--m", "2", "--n", "1", "--k-max", "60",
        "--ring", "f3", "--json", "--cache-dir", str(tmp_path), timeout=30,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    want = [sum(column) for column in zip(*verify.loop_space_series(2, 3, 120)[:61])]
    got = json.loads(done.stdout)["result"]["homology"]
    assert {int(j): dims for j, dims in got.items()} == {j: [n, []] for j, n in enumerate(want) if n}
    assert elapsed < 5, f"took {elapsed:.2f}s"


def test_a_negative_summand_bound_exits_one_and_zero_admits_the_point(tmp_path, capsys):
    point = ("betti", "--d", "1", "--m", "2", "--n", "2", "--cache-dir", str(tmp_path))
    for argv in (point, ("stable-series", "--n", "2", "--through", "0", "--ring", "q")):
        code, out, err = run(capsys, *argv, "--k-max", "-1")
        assert (code, out) == (1, ""), argv
        assert "the summand bound k_max=-1 is negative" in err, argv
    code, out, _ = run(capsys, *point, "--k-max", "0")
    assert code == 0
    assert "  H_0 = Z\n  exact: complete\n" in out


def test_ring_past_primality_bound_exits_one(capsys):
    code, _, err = run(capsys, "betti", "--d", "2", "--m", "2", "--n", "2", "--ring", f"f{2**89 - 1}")
    assert code == 1
    assert str(MILLER_RABIN_BOUND) in err


def test_benchmark_tracer_binds_package_layers(tmp_path):
    cases = [
        (("betti", "--d", "4", "--m", "1", "--n", "2"), None, {"spaces.poly_homology", "braid.config_homology"}),
        (("count", "--d", "2", "--m", "2", "--n", "2", "--p", "3"), None,
         {"ffield.count_points", "ffield.closed_form"}),
        (("jet", "--n", "2"), "0,0,1\n", {"jets.check"}),
        (("e1", "--flavor", "poly", "--d", "6", "--m", "1", "--n", "2", "--ring", "f2"), None,
         {"spaces.e1_page_poly", "braid.config_homology"}),
        (("stable-series", "--n", "2", "--through", "8", "--ring", "q"), None,
         {"spaces.omega_series", "braid.dk_homology"}),
    ]
    for argv, stdin, spans in cases:
        spans_file = tmp_path / "spans"
        done = run_process(
            "perfbench/tracer.py", str(spans_file), "op", "--",
            *argv, "--json", "--cache-dir", str(tmp_path / "cache"), stdin=stdin,
        )
        assert done.returncode == 0, done.stderr
        names = {span[0] for span in marshal.loads(spans_file.read_bytes())["spans"]}
        assert spans <= names, argv


# Run one command in a fresh interpreter and report the modules it loaded beyond start-up.
LOADED_BY = """
import json, sys
before = set(sys.modules)
from polystab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize("argv, stdin, kind", [
    (("stability-dim", "--d", "4", "--m", "1", "--n", "2"), None, "spaces"),
    (("betti", "--d", "8", "--m", "1", "--n", "2"), None, "table"),
    (("betti", "--d", "8", "--m", "1", "--n", "2"), None, "warm"),
    (("e1", "--flavor", "hol", "--d", "6", "--n", "2", "--ring", "f2"), None, "table"),
    (("cache", "stats"), None, "cache"),
    (("count", "--d", "2", "--m", "2", "--n", "2", "--p", "3"), None, "ffield"),
    (("jet", "--n", "2"), "0,0,1\n-1,0,1\n", "jets"),
    (("stable-series", "--n", "2", "--through", "8", "--ring", "f2"), None, "table"),
    (("hol-betti", "--d", "4", "--n", "3"), None, "table"),
    (("verify", "all"), None, "verify"),
], ids=["stability-dim", "betti-z", "betti-z-warm", "e1-f2", "cache-stats", "count", "jet", "stable-series-f2",
        "hol-betti-z", "verify-all"])
def test_commands_load_only_the_layers_they_run(tmp_path, argv, stdin, kind):
    if kind == "warm":  # a first call fills the cache that the measured one reads
        assert run_process("-m", "polystab.cli", *argv, "--json", "--cache-dir", str(tmp_path)).returncode == 0
    done = run_process("-c", LOADED_BY, *argv, "--json", "--cache-dir", str(tmp_path), stdin=stdin)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    # no command, not even a verify suite, loads the dense oracle (complexes)
    assert not {"dataclasses", "inspect", "polystab.complexes"} & set(loaded)
    if kind == "verify":  # every suite runs
        assert "polystab.verify" in loaded
    if kind in ("table", "warm", "cache", "spaces"):
        assert not {"fractions", "polystab.verify", "polystab.jets"} & set(loaded)
    if kind == "cache":
        assert not {"polystab.braid", "polystab.spaces", "polystab.linalg"} & set(loaded)
    if "--ring" in argv:  # field tables are never cached, and only a Z table's certificate eliminates
        assert not {"polystab.cache", "polystab.linalg"} & set(loaded)
    if kind == "table" and "--ring" not in argv:  # a Z table computed afresh runs the engine and its certificate
        assert {"polystab.braid", "polystab.linalg"} <= set(loaded)
    package = {name for name in loaded if name.startswith("polystab.")}
    if kind == "warm":  # the request layer reads the cache: no engine (braid), and no certificate (linalg)
        assert package == {"polystab.cli", "polystab.rings", "polystab.spaces", "polystab.abelian", "polystab.cache"}
    if kind == "spaces":  # the closed form loads none of the homology engine
        assert package == {"polystab.cli", "polystab.rings", "polystab.spaces"}
    if kind in ("ffield", "jets"):  # the arithmetic oracles load none of the homology engine
        assert package == {"polystab.cli", "polystab.rings", "polystab.poly", f"polystab.{kind}"}
    if kind == "ffield":  # counting works over F_p only
        assert "fractions" not in loaded


# every way the top-level parser can answer without running a command
PARSER_SURFACE = [
    (), ("--help",), ("-h", "betti"), ("--version",), ("--version", "count"), ("bogus",), ("--json", "betti"),
    ("betti",), ("betti", "--d", "2", "--m", "2", "--n", "2", "--bogus"), ("e1", "--flavor", "x"),
    ("cache", "frob"), ("count", "--d", "1", "--m", "1", "--n", "1", "--p", "3", "extra"),
    *((command, "--help") for command in cli.COMMANDS),
]


@pytest.mark.parametrize("argv", PARSER_SURFACE, ids=lambda argv: " ".join(argv) or "no-command")
def test_the_one_subparser_build_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda _argv: full_parser())
    full = run(capsys, *argv)
    assert (code, out, err) == full
    assert code == (0 if {"-h", "--help", "--version"} & set(argv) else 1)
    if argv == ("bogus",):
        assert "invalid choice: 'bogus' (choose from " + ", ".join(map(repr, cli.COMMANDS)) + ")" in err


def test_a_command_builds_only_its_subparser():
    sub = next(action for action in cli.build_parser(["count"])._actions if action.dest == "command")
    assert list(sub.choices) == ["count"]


HELP = (("-h", "--help"), "help", None, False, "==SUPPRESS==", None, 0)
JSON = (("--json",), "json", None, False, False, None, 0)
CACHE_DIR = (("--cache-dir",), "cache_dir", None, False, None, None, None)
D, M, N = ((("--" + x,), x, int, True, None, None, None) for x in "dmn")
TABLE_ARGS = ((("--k-max",), "k_max", int, False, 10, None, None), (("--ring",), "ring", None, False, "z", None, None))

# each subparser's actions as (option strings, dest, type, required, default, choices, nargs), in order
PARSER_ACTIONS = {
    "betti": [HELP, D, M, N, JSON, CACHE_DIR, *TABLE_ARGS],
    "hol-betti": [HELP, D, (("--n",), "n", int, True, None, None, None), JSON, CACHE_DIR, *TABLE_ARGS],
    "e1": [HELP, (("--flavor",), "flavor", None, True, None, ["poly", "hol"], None), D,
           (("--m",), "m", int, False, None, None, None), N, JSON, CACHE_DIR, *TABLE_ARGS],
    "stable-series": [HELP, (("--n",), "n", int, True, None, None, None),
                      (("--through",), "through", int, True, None, None, None), JSON, CACHE_DIR, *TABLE_ARGS],
    "stability-dim": [HELP, D, M, N, JSON, CACHE_DIR],
    "count": [HELP, D, M, N, (("--p",), "p", int, True, None, None, None),
              (("--mode",), "mode", None, False, "both", ["brute", "formula", "both"], None),
              (("--budget",), "budget", int, False, None, None, None), JSON, CACHE_DIR],
    "jet": [HELP, (("--n",), "n", int, True, None, None, None), (("--input",), "input", None, False, None, None, None),
            JSON, CACHE_DIR],
    "verify": [HELP, ((), "suite", None, False, "all", None, "?"), JSON, CACHE_DIR],
    "cache": [HELP, ((), "action", None, True, None, ["stats", "clear"], None), JSON, CACHE_DIR],
}


@pytest.mark.parametrize("name", PARSER_ACTIONS)
def test_each_subparser_keeps_its_arguments(name):
    assert list(PARSER_ACTIONS) == list(cli.COMMANDS)
    sub = next(action for action in cli.build_parser([name])._actions if action.dest == "command")
    actions = [
        (tuple(a.option_strings), a.dest, a.type, a.required, a.default, a.choices, a.nargs)
        for a in sub.choices[name]._actions
    ]
    assert actions == PARSER_ACTIONS[name]


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_a_failed_write_exits_one_with_the_error(tmp_path, capsys, monkeypatch, extra):
    def disk_full(*_args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_emit", disk_full)
    code, out, err = run(capsys, "betti", "--d", "2", "--m", "2", "--n", "2", "--cache-dir", str(tmp_path), *extra)
    assert code == 1
    assert err == "polystab: error: disk full\n"
    if extra:
        assert json.loads(out) == {"schema_version": 1, "command": "betti", "error": {"message": "disk full"}}
    else:
        assert out == ""


# each export's home module, as the package imported them eagerly
EXPORT_HOMES = {
    "abelian": "AbelianGroup GradedAbelianGroup invariant_factors",
    "braid": "SIGN TRIVIAL CellModelError config_homology dk_homology shuffle_sum",
    "cache": "BraidHomologyKey HomologyCache default_cache_dir",
    "complexes": "",
    "ffield": "closed_form_count count_points",
    "jets": "JetEquivalenceReport QTuple jet_equivalence_check jet_map q_membership_hol q_membership_poly",
    "linalg": "",
    "poly": "Poly poly_gcd",
    "rings": "DEFAULT_K_MAX GF Q Ring Z parse_ring",
    "spaces": "E1Page HomologyTable Params PoincareSeries e1_page_hol e1_page_poly hol_homology "
              "omega_series poly_homology stability_dimension",
}


def test_package_exports_resolve_to_their_home_objects():
    import importlib

    import polystab

    homes = {name: module for module, names in EXPORT_HOMES.items() for name in names.split()}
    assert polystab.__all__ == sorted([*EXPORT_HOMES, *homes])
    for name in polystab.__all__:
        module = importlib.import_module(f"polystab.{homes.get(name, name)}")
        assert getattr(polystab, name) is (getattr(module, name) if name in homes else module), name
    star: dict = {}
    exec("from polystab import *", star)
    assert all(star[name] is getattr(polystab, name) for name in polystab.__all__)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        polystab.missing  # noqa: B018
    with pytest.raises(ImportError):
        exec("from polystab import missing", {})


def test_importing_the_package_loads_no_module_of_it():
    done = run_process("-c", "import sys, polystab; print(sorted(m for m in sys.modules if m.startswith('polystab.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("betti", "--d", "20", "--m", "1", "--n", "2"),
    ("hol-betti", "--d", "10", "--n", "2"),
])
def test_integral_k10_tables_finish_and_match_the_fields(tmp_path, argv):
    # both requests sit at the default k_max = 10, where dense Smith normal form hung;
    # over Q and each F_p they are the closed form summed over weights 0..10
    started = time.perf_counter()
    done = run_process("-m", "polystab.cli", *argv, "--json", "--cache-dir", str(tmp_path), timeout=20)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 2, f"took {elapsed:.2f}s"
    integral = GradedAbelianGroup.from_payload(json.loads(done.stdout)["result"]["homology"])
    top = integral.top_degree()
    for p in (0, 2, 3, 5, 7):
        want = [sum(column) for column in zip(*verify.loop_space_series(2, p, top + 1)[:11])]
        assert [integral.dim_mod(i, p) if p else integral.free_rank(i) for i in range(top + 2)] == want, p


def test_failed_local_certificate_exits_two(capsys, monkeypatch):
    # zero rows of D/p leave the F_p rank below the rank over Q
    real = braid._morse_rows
    monkeypatch.setattr(braid, "_morse_rows", lambda matching, neighbours, i: [
        [] for _ in real(matching, neighbours, i)])
    code, out, err = run(capsys, "betti", "--d", "8", "--m", "1", "--n", "2", "--json")
    assert code == 2
    assert "divisible by 2^2" in json.loads(out)["error"]["message"]
    assert "Traceback" not in err


def test_planted_p_squared_divisor_exits_two(capsys, monkeypatch):
    # p times the rows of D/p of degree 3, where C_6 has the 3-torsion H_2 = Z/6, as if D were 9 (D/p)
    real = braid._morse_rows
    monkeypatch.setattr(braid, "_morse_rows", lambda matching, neighbours, i: [
        [(j, 3 * v if i == 3 else v) for j, v in row] for row in real(matching, neighbours, i)])
    code, out, err = run(capsys, "betti", "--d", "12", "--m", "1", "--n", "2", "--json")
    assert code == 2
    assert "divisible by 3^2" in json.loads(out)["error"]["message"]
    assert "Traceback" not in err


def test_commands_skip_the_dense_oracle(tmp_path, capsys, monkeypatch):
    # integral tables come from ranks, and verify cells checks d.d = 0 on the sparse faces
    seen = set()
    for owner, name in ((complexes, "smith_normal_form"), (braid, "complex_homology"),
                        (complexes, "complex_homology"), (braid, "dual_fn_complex"),
                        (complexes, "dual_fn_complex"), (complexes.ChainComplex, "check_boundary_condition")):
        def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
            seen.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    commands = [
        ("betti", "--d", "8", "--m", "1", "--n", "2"),
        ("hol-betti", "--d", "4", "--n", "3"),
        ("e1", "--flavor", "poly", "--d", "8", "--m", "1", "--n", "2"),
        ("e1", "--flavor", "hol", "--d", "4", "--n", "2"),
        ("stable-series", "--n", "2", "--through", "8", "--ring", "f2"),
        *(("verify", suite) for suite in sorted(verify.SUITES)),
    ]
    for argv in commands:
        seen.clear()
        code, _, _ = run(capsys, *argv, "--json", "--cache-dir", str(tmp_path))
        assert code == 0, argv
        assert seen == set(), argv


def test_a_wrong_position_sign_fails_both_boundary_checks(capsys, monkeypatch):
    # every merge given the sign of position 0: d.d no longer vanishes once a cell has 3 parts
    real = braid._neighbours

    def planted(s):
        return (lambda c: [(c[:j] + (c[j] + c[j + 1],) + c[j + 2:], v)
                           for j in range(len(c) - 1) if (v := s[c[j]][c[j + 1]])]), real(s)[1]

    monkeypatch.setattr(braid, "_neighbours", planted)
    code, out, _ = run(capsys, "verify", "cells", "--json")
    assert code == 2
    checks = {c["name"]: c for c in json.loads(out)["result"]["suites"][0]["checks"]}
    assert len(checks) == 27
    for k in range(1, 10):
        notes = []
        for system in (braid.TRIVIAL, braid.SIGN):  # the dense oracle, on the same planted faces
            try:
                complexes.dual_fn_complex(k, system).check_boundary_condition()
            except ValueError as exc:
                notes.append(f"{system}: {exc}")
        check = checks[f"boundary_squared_k{k}"]
        assert (check["passed"], check["detail"]) == (not notes, "; ".join(notes) or "d.d = 0"), k
        assert check["passed"] == (k < 3), k


@pytest.mark.parametrize("argv", [
    ("--d", "2", "--m", "100000000", "--n", "2", "--p", "3"),
    ("--d", "100000000", "--m", "2", "--n", "2", "--p", "3", "--mode", "brute"),
    ("--d", "1000000", "--m", "2", "--n", "2", "--p", "3"),
])
def test_count_refuses_unprintable_answers_quickly(argv):
    bound = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    started = time.perf_counter()
    done = run_process("-m", "polystab.cli", "count", *argv, "--json", timeout=20)
    elapsed = time.perf_counter() - started
    assert done.returncode == 1
    message = json.loads(done.stdout)["error"]["message"]
    assert f"over the output bound of {bound} digits" in message
    assert "Traceback" not in done.stderr
    assert elapsed < 2, f"took {elapsed:.2f}s"


def test_count_at_the_digit_bound(capsys):
    # 3^9012 has 4300 digits and prints; 3^9013 has 4301 and is refused
    bound = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    d = int(bound / math.log10(3))
    while 3 ** (d + 1) < 10**bound:
        d += 1
    while 3**d >= 10**bound:
        d -= 1
    code, out, _ = run(capsys, "count", "--d", str(d), "--m", "1", "--n", "1000000", "--p", "3",
                       "--mode", "formula", "--json")
    assert code == 0
    assert json.loads(out)["result"]["formula"] == 3**d
    code, out, _ = run(capsys, "count", "--d", str(d + 1), "--m", "1", "--n", "1000000", "--p", "3",
                       "--mode", "formula", "--json")
    assert code == 1
    assert f"{bound} digits" in json.loads(out)["error"]["message"]


def test_count_with_m_and_n_one_is_zero_quickly(capsys):
    started = time.perf_counter()
    code, out, _ = run(capsys, "count", "--d", "100000000", "--m", "1", "--n", "1", "--p", "3",
                       "--mode", "formula", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"formula": 0}
    code, out, _ = run(capsys, "count", "--d", "100000000", "--m", "1", "--n", "1", "--p", "3", "--json")
    assert code == 1
    assert "3^100000000 first entries exceeds the budget" in json.loads(out)["error"]["message"]
    assert time.perf_counter() - started < 2
