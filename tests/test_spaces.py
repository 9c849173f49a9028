import os
import subprocess
import sys
from pathlib import Path

import pytest

from polystab import abelian, braid, spaces
from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.braid import SIGN, TRIVIAL, config_homology, dk_homology
from polystab.cache import HomologyCache
from polystab.rings import GF, Q, Z
from polystab.spaces import (
    MN2_NOTE,
    E1Page,
    Params,
    e1_page_hol,
    e1_page_poly,
    hol_homology,
    omega_series,
    poly_homology,
    stability_dimension,
)
from polystab.verify import loop_space_series

Z1 = AbelianGroup(1)
POINT = GradedAbelianGroup({0: Z1})


def sphere(top):
    return GradedAbelianGroup({0: Z1, top: Z1})


def test_params_validation():
    with pytest.raises(ValueError):
        Params(2, 1, 1)
    with pytest.raises(ValueError):
        Params(0, 2, 2)
    assert Params(6, 2, 3).top_summand == 2


def test_stability_dimension_examples():
    assert stability_dimension(6, 2, 2) == 19
    assert stability_dimension(2, 1, 2) == 1
    assert stability_dimension(3, 3, 1) == 11


def test_poly_homology_sphere_case():
    assert poly_homology(2, 2, 2, Z).groups == sphere(5)


def test_poly_homology_point_case():
    table = poly_homology(1, 2, 2, Z)
    assert table.groups == POINT


def test_poly_homology_squarefree_case_matches_direct():
    table = poly_homology(4, 1, 2, Z)
    want = GradedAbelianGroup({0: Z1, 1: Z1, 2: AbelianGroup(0, (2,))})
    assert table.groups == want
    assert table.groups == config_homology(4, TRIVIAL, Z)


def test_poly_depends_only_on_floor():
    for ring in (Z, GF(2)):
        assert poly_homology(4, 1, 2, ring).groups == poly_homology(5, 1, 2, ring).groups
        assert poly_homology(4, 2, 2, ring).groups == poly_homology(5, 2, 2, ring).groups


def test_poly_rejects_excluded_parameters():
    with pytest.raises(ValueError):
        poly_homology(3, 1, 1, Z)
    with pytest.raises(ValueError):
        poly_homology(50, 1, 2, Z)  # needs summands beyond the default bound


def test_mn2_note_flag():
    assert MN2_NOTE in poly_homology(4, 1, 2, Z).notes
    assert poly_homology(4, 1, 3, Z).notes == ()


def test_hol_homology_one_summand_is_a_sphere():
    for n_param in (2, 3, 4):
        assert hol_homology(1, n_param, Z).groups == sphere(2 * n_param - 3)


def test_hol_homology_degree_zero_is_point():
    assert hol_homology(0, 4, Z).groups == POINT


def test_hol_homology_two_summands_mod2():
    # oracle: the summand tables themselves (degree shift is zero for n = 2)
    want = GradedAbelianGroup({0: Z1}).direct_sum(
        dk_homology(1, GF(2)), dk_homology(2, GF(2))
    )
    got = hol_homology(2, 2, GF(2))
    assert got.groups == want
    # frozen oracle output: the second summand has mod-2 classes in degrees 2 and 3
    assert got.groups.dims(4) == [1, 1, 1, 1, 0]


def test_hol_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hol_homology(2, 1, Z)
    with pytest.raises(ValueError):
        hol_homology(-1, 3, Z)


def test_e1_poly_small_case():
    page = e1_page_poly(2, 1, 2, Z)
    assert page.entry(0, 0) == Z1
    assert page.entry(1, 2) == Z1
    assert page.nonzero_cells() == [(0, 0), (1, 2)]
    # total degree of the (1, 2) cell is 1: the table of a circle
    assert poly_homology(2, 1, 2, Z).groups == sphere(1)


def test_e1_support_matches_invariants():
    page = e1_page_poly(6, 2, 2, Z)
    for k, s in page.nonzero_cells():
        # column k holds H_i(C_k; sign) at s = twist*k + i, 0 <= i < k
        assert (k, s) == (0, 0) or 1 <= k <= page.k_top and 0 <= s - page.twist * k < k
    assert page.entry(4, 24).is_zero  # k beyond floor(d/n)
    assert page.entry(1, 5).is_zero  # below the twist line
    assert page.entry(0, 1).is_zero


def test_e1_antidiagonals_match_table():
    # over a field the antidiagonal s - k = j has the table's dimension in degree j
    for ring in (GF(2), GF(3), Q):
        page = e1_page_poly(6, 2, 2, ring)
        table = poly_homology(6, 2, 2, ring)
        top = table.groups.top_degree() or 0
        for j in range(top + 2):
            diagonal = [page.entry(k, s).free_rank for k, s in page.nonzero_cells() if s - k == j]
            assert sum(diagonal) == table.groups.free_rank(j)


def test_e1_hol_flavor():
    page = e1_page_hol(2, 2, Z)
    assert page.k_top == 2 and page.twist == 2
    assert page.entry(1, 2) == Z1
    assert page.entry(2, 4) == AbelianGroup(0, (2,))


def test_e1_bounds():
    with pytest.raises(ValueError):
        e1_page_poly(40, 1, 2, Z)
    with pytest.raises(ValueError):
        e1_page_hol(11, 2, Z)


def test_omega_series_rational():
    series = omega_series(2, Q, 7)
    assert list(series) == [1, 1, 0, 0, 0, 0, 0, 0]


def test_omega_series_mod2_low_degrees():
    series = omega_series(2, GF(2), 7)
    assert list(series) == [1, 1, 1, 2, 2, 2, 3, 4]


def test_omega_series_connectivity():
    series = omega_series(4, GF(2), 6)
    assert series[0] == 1
    assert all(series[j] == 0 for j in range(1, 5))  # degrees 1..2N-4
    assert series[5] == 1


def test_omega_series_guards():
    with pytest.raises(ValueError):
        omega_series(2, Z, 5)
    with pytest.raises(ValueError):
        omega_series(1, Q, 5)
    with pytest.raises(ValueError):
        omega_series(2, Q, 11)  # beyond the k_max=10 exactness bound
    assert omega_series(2, Q, 11, k_max=11) is not None


@pytest.mark.parametrize("ring, p", [(GF(2), 2), (GF(3), 3), (Q, 0)], ids=["F2", "F3", "Q"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_omega_series_is_the_rational_map_table_read_through_its_degree(N, ring, p):
    limit = [sum(column) for column in zip(*loop_space_series(N, p, 15))]
    for through in range(16):
        table = hol_homology(through // (2 * N - 3), N, ring, k_max=15)
        series = omega_series(N, ring, through, k_max=15)
        assert list(series) == table.dims(through) == limit[:through + 1], through


def test_omega_series_calls_no_summand_of_its_own(monkeypatch):
    calls, original = [], braid.dk_homology

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spaces, "dk_homology", spy)  # the name the tracer wraps
    monkeypatch.setattr(braid, "dk_homology", spy)
    assert list(omega_series(2, GF(2), 7)) == [1, 1, 1, 2, 2, 2, 3, 4]
    assert calls == []


def test_every_summand_request_shares_one_refusal():
    refused = (
        (lambda: hol_homology(11, 2, GF(2)), 11, 10),
        (lambda: e1_page_poly(22, 1, 2, Z), 11, 10),
        (lambda: omega_series(2, Q, 11), 11, 10),
        (lambda: omega_series(3, GF(2), 40, k_max=12), 13, 12),  # summand 13 starts in degree 39
    )
    for call, k, bound in refused:
        with pytest.raises(ValueError, match=f"^needs summands up to k={k}, beyond the configured bound {bound}$"):
            call()


def test_a_negative_summand_bound_is_refused_and_zero_admits_the_point():
    refused = (
        lambda: poly_homology(1, 2, 2, Z, k_max=-1),  # needs no summand, yet the bound is refused
        lambda: hol_homology(0, 2, GF(2), k_max=-1),
        lambda: e1_page_hol(0, 2, Z, k_max=-1),
        lambda: omega_series(2, Q, 0, k_max=-1),
    )
    for call in refused:
        with pytest.raises(ValueError, match="the summand bound k_max=-1 is negative"):
            call()
    assert poly_homology(1, 2, 2, Z, k_max=0).groups == POINT
    assert e1_page_hol(0, 2, Z, k_max=0).nonzero_cells() == [(0, 0)]
    assert omega_series(2, Q, 0, k_max=0) == (1,)


def _free_algebra_series(exterior_degrees, polynomial_degrees, through):
    coeffs = [0] * (through + 1)
    coeffs[0] = 1
    for d in polynomial_degrees:
        for j in range(d, through + 1):
            coeffs[j] += coeffs[j - d]
    for d in exterior_degrees:
        doubled = coeffs[:]
        for j in range(d, through + 1):
            doubled[j] += coeffs[j - d]
        coeffs = doubled
    return coeffs


def test_omega_series_mod3_matches_classical_answer():
    # double loops on S^3 mod 3: exterior on degrees 1 and 5, polynomial on 4
    got = omega_series(2, GF(3), 12, k_max=12)
    assert list(got) == _free_algebra_series([1, 5], [4], 12)


def test_omega_series_sphere5_mod2_matches_classical_answer():
    # double loops on S^5 mod 2: polynomial on degrees 3, 7, 15, ...
    got = omega_series(3, GF(2), 15)
    assert list(got) == _free_algebra_series([], [3, 7, 15], 15)


@pytest.mark.parametrize(
    "N, p, through, exterior, polynomial",
    [
        (2, 3, 12, [1, 5], [4]),  # double loops on S^3 mod 3
        (3, 2, 15, [], [3, 7, 15]),  # double loops on S^5 mod 2
        (2, 2, 15, [], [1, 3, 7, 15]),
        (3, 3, 36, [3, 11, 35], [10, 34]),  # S^5 mod 3: generators 4*3^j - 1, 4*3^j - 2
        (4, 5, 40, [5, 29], [28]),  # S^7 mod 5: generators 6*5^j - 1, 6*5^j - 2
        (2, 0, 12, [1], []),  # rationally one exterior class of degree 2N - 3
        (4, 0, 12, [5], []),
    ],
)
def test_loop_space_series_matches_generator_degrees(N, p, through, exterior, polynomial):
    rows = loop_space_series(N, p, through)
    assert [sum(column) for column in zip(*rows)] == _free_algebra_series(exterior, polynomial, through)


def test_loop_space_series_guards():
    with pytest.raises(ValueError):
        loop_space_series(1, 2, 5)
    with pytest.raises(ValueError):
        loop_space_series(2, 4, 5)


def test_poincare_series_indexing():
    series = omega_series(3, Q, 5)
    with pytest.raises(IndexError):
        series[6]
    assert series[3] == 1


def _limit(N, p, through):
    return [sum(column) for column in zip(*loop_space_series(N, p, through))]


def test_stable_range_example():
    # the mod-2 table equals the limit through D = 2 and parts from it exactly at degree 3
    assert stability_dimension(4, 1, 2) == 2
    table = poly_homology(4, 1, 2, GF(2)).dims(3)
    limit = _limit(2, 2, 3)
    assert table[:3] == limit[:3]
    assert table[3] != limit[3]


def test_stable_range_plateau_pair():
    # d = 2 and d = 3 share floor(d/2) = 1
    for ring in (Z, GF(3)):
        assert poly_homology(2, 2, 2, ring).groups == poly_homology(3, 2, 2, ring).groups


def test_stable_range_point_case():
    # d < n: the point's table, which is the rational limit through D = 4
    bound = stability_dimension(1, 2, 2)
    assert poly_homology(1, 2, 2, Q).dims(bound) == _limit(4, 0, bound) == [1, 0, 0, 0, 0]


def test_summand_degree_window():
    # each summand's table vanishes at and above twice its index
    for k in range(1, 8):
        h = dk_homology(k, Z)
        top = h.top_degree()
        assert top is not None and top < 2 * k
    # so the assembled table is bounded by 2(mn-1)*k_top - 1
    table = poly_homology(6, 2, 2, Z)
    assert table.groups.top_degree() <= 2 * (4 - 1) * 3 - 1


def test_assembly_normalizes_each_degree_once(tmp_path, monkeypatch):
    cache = HomologyCache(tmp_path)
    want = hol_homology(12, 2, Z, k_max=12, cache=cache)
    calls = []
    factors = abelian.invariant_factors
    monkeypatch.setattr(abelian, "invariant_factors", lambda orders: calls.append(1) or factors(orders))
    got = hol_homology(12, 2, Z, k_max=12, cache=HomologyCache(tmp_path))  # a warm table, read from disk
    assert got == want
    assert 0 < len(calls) <= len(got.groups.degrees())


def test_tables_are_connected():
    for args in ((3, 2, 2), (1, 2, 2), (6, 1, 2)):
        assert poly_homology(*args, Z).groups.group(0) == Z1


def test_spaces_loads_the_engine_on_first_use():
    # a fresh interpreter: the closed form runs without the engine, a page built directly still reads
    # its zero cells, and the engine's names resolve as module attributes
    code = (
        "import sys; from polystab import spaces; from polystab.rings import Z; "
        "print(spaces.stability_dimension(6, 2, 2), 'polystab.braid' in sys.modules, "
        "spaces.E1Page(Z, 0, 2, {}).entry(1, 1), spaces.dk_homology.__module__)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout.split() == ["19", "False", "0", "polystab.braid"], done.stderr
