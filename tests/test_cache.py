import json
import os
import tempfile
import warnings

import pytest

from polystab import braid
from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.cache import CACHE_FORMAT, CACHE_VERSION, HomologyCache, default_cache_dir
from polystab.spaces import e1_page_hol, hol_homology


@pytest.fixture
def cache(tmp_path):
    return HomologyCache(tmp_path / "store")


SAMPLE = GradedAbelianGroup({0: AbelianGroup(1), 3: AbelianGroup(1, (2, 6))})
KEY = 4  # entries are keyed by k alone: each holds the sign table of C_k
K5 = 5


def reader(cache):
    """A second instance on the same directory, as another process would open it."""
    return HomologyCache(cache.directory)


def test_roundtrip_is_exact(cache):
    cache.put(KEY, SAMPLE)
    assert cache.get(KEY) == SAMPLE
    assert reader(cache).get(KEY) == SAMPLE


def test_file_starts_with_format_version_and_key(cache):
    cache.put(KEY, SAMPLE)
    doc = json.loads(cache.path_for(KEY).read_text())
    head = list(doc)[:4]
    assert head == ["format", "version", "k", "system"]
    assert doc["version"] == CACHE_VERSION
    assert (doc["k"], doc["system"]) == (KEY, "sign")
    assert cache.path_for(KEY).name == "braid_v1_k4_sign.json"


def test_miss_on_empty(cache):
    assert cache.get(KEY) is None


def test_version_mismatch_is_a_miss(cache):
    cache.put(KEY, SAMPLE)
    path = cache.path_for(KEY)
    doc = json.loads(path.read_text())
    doc["version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(doc))
    assert reader(cache).get(KEY) is None


def test_corrupted_entry_warns_and_misses(cache):
    cache.put(KEY, SAMPLE)
    cache.path_for(KEY).write_text("{not json")
    with pytest.warns(UserWarning, match="corrupted"):
        assert reader(cache).get(KEY) is None


def test_an_entry_broken_after_its_put_is_not_served_by_the_writer(cache):
    # the instance that wrote the entry holds no copy of it: its next read checks the file
    cache.put(KEY, SAMPLE)
    cache.path_for(KEY).write_bytes(b"{not json")
    with pytest.warns(UserWarning, match="corrupted"):
        assert cache.get(KEY) is None


def test_key_mismatch_warns_and_misses(cache):
    cache.put(KEY, SAMPLE)
    path = cache.path_for(KEY)
    doc = json.loads(path.read_text())
    doc["k"] = 99
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning):
        assert reader(cache).get(KEY) is None


@pytest.mark.parametrize(
    ("key", "table", "reason"),
    [
        (KEY, GradedAbelianGroup({1: AbelianGroup(7), 40: AbelianGroup(7)}), "outside 0..3"),
        (KEY, GradedAbelianGroup({0: AbelianGroup(1), 2: AbelianGroup(0, (3,))}), "Euler characteristic 1"),
        # torsion has exponent p and no prime above k, so every order divides 2 * 3 * 5 at k = 5
        (K5, GradedAbelianGroup({0: AbelianGroup(1), 1: AbelianGroup(1, (4,))}), "order 4 is impossible for k=5"),
        (K5, GradedAbelianGroup({0: AbelianGroup(1), 1: AbelianGroup(1, (13,))}), "order 13 is impossible"),
    ],
    ids=["degree_out_of_range", "euler_characteristic", "torsion_order_4", "torsion_prime_above_k"],
)
def test_impossible_table_warns_and_misses(cache, key, table, reason):
    cache.put(key, table)
    with pytest.warns(UserWarning, match=f"corrupted.*{reason}"):
        assert reader(cache).get(key) is None


def _entry(homology):
    return {"format": CACHE_FORMAT, "version": CACHE_VERSION, "k": KEY, "system": "sign", "homology": homology}


DEEP = "[" * 100000  # nested past the JSON parser's recursion limit


# none may crash the reader, nor pass the table checks once its values are taken as integers
@pytest.mark.parametrize("body", [
    *(json.dumps(doc).encode() for doc in (
        [], None, "x",
        _entry([]),
        _entry({"0": [1, []], "1": [1, [6.5]]}),
        _entry({"0": [1, []], "1": [1, ["3"]]}),
        _entry({"0": [1, []], "1": [True, []]}),
        _entry({"0": [1.0, []], "1": [1, [2]]}),
    )),
    b"\xff\xfe\x00garbage",
    DEEP.encode(),
    json.dumps(_entry(None)).replace("null", DEEP).encode(),
], ids=["list", "null", "string", "table_list", "float_order", "string_order", "bool_rank", "float_rank",
        "not_utf8", "deep", "deep_table"])
def test_malformed_entry_warns_misses_and_is_recomputed(cache, body):
    cache.directory.mkdir(parents=True)
    cache.path_for(KEY).write_bytes(body)
    with pytest.warns(UserWarning, match="corrupted"):
        assert reader(cache).get(KEY) is None
    with pytest.warns(UserWarning, match="corrupted"):
        assert hol_homology(KEY, 2, cache=reader(cache)) == hol_homology(KEY, 2)
    assert reader(cache).get(KEY) == braid.config_homology(KEY, braid.SIGN)  # rewritten


def test_possible_torsion_is_served(cache):
    table = GradedAbelianGroup({0: AbelianGroup(1), 1: AbelianGroup(1, (2, 30))})
    cache.put(K5, table)
    assert reader(cache).get(K5) == table


def test_put_leaves_no_temporaries(cache):
    cache.put(KEY, SAMPLE)
    leftovers = [p for p in cache.directory.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_stats_and_clear(cache):
    assert cache.stats()["entries"] == 0
    cache.put(KEY, SAMPLE)
    cache.put(2, SAMPLE)
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    assert cache.get(KEY) is None  # the memory front is emptied too


def test_clear_removes_the_temp_files_of_killed_puts(cache):
    cache.put(KEY, SAMPLE)
    # a put killed between mkstemp and the rename leaves its temporary file behind
    fd, _ = tempfile.mkstemp(dir=cache.directory, prefix=cache.path_for(KEY).name, suffix=".tmp")
    os.close(fd)
    (cache.directory / "notes.tmp").write_text("not ours")
    assert cache.clear() == 1  # entries only
    assert [p.name for p in cache.directory.iterdir()] == ["notes.tmp"]


def test_config_homology_persists_and_reloads(cache):
    hol_homology(5, 2, cache=cache)
    key = 5
    assert reader(cache).get(key) == braid.config_homology(5, braid.SIGN)
    # a fresh instance must take the answer from disk, not recompute it
    sentinel = GradedAbelianGroup({1: AbelianGroup(7), 2: AbelianGroup(7, (5,))})
    cache.put(key, sentinel)
    page = e1_page_hol(5, 2, cache=reader(cache))  # column 5 holds H_i(C_5; sign) at s = 2 * 5 + i
    assert GradedAbelianGroup({s - 10: page.entry(k, s) for k, s in page.nonzero_cells() if k == 5}) == sentinel


def test_corrupt_cache_recomputes(cache):
    value = hol_homology(4, 2, cache=cache)
    path = cache.path_for(4)
    path.write_text("garbage")
    with pytest.warns(UserWarning):
        again = hol_homology(4, 2, cache=reader(cache))
    assert again == value
    assert reader(cache).get(4) == braid.config_homology(4, braid.SIGN)  # rewritten


# H_*(C_4; sign) byte for byte as the format has always written it: one JSON line with spaced separators
K4_ENTRY = (b'{"format": "polystab-braid-homology", "version": 1, "k": 4, "system": "sign", '
            b'"homology": {"0": [0, [2]], "1": [0, [3]], "2": [0, [2]]}}')


def test_an_entry_in_the_standing_format_is_served_without_a_warning(cache, tmp_path):
    cache.directory.mkdir(parents=True)
    (cache.directory / "braid_v1_k4_sign.json").write_bytes(K4_ENTRY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = cache.get(4)
    assert table == braid.config_homology(4, braid.SIGN)
    written = HomologyCache(tmp_path / "fresh")
    written.put(4, table)
    assert written.path_for(4).read_bytes() == K4_ENTRY


def test_an_entry_for_the_trivial_system_is_a_key_mismatch_and_recomputed(cache):
    cache.directory.mkdir(parents=True)
    cache.path_for(4).write_bytes(K4_ENTRY.replace(b'"sign"', b'"trivial"'))
    with pytest.warns(UserWarning, match="corrupted.*key mismatch"):
        assert reader(cache).get(4) is None
    with pytest.warns(UserWarning, match="corrupted.*key mismatch"):
        assert hol_homology(4, 2, cache=reader(cache)) == hol_homology(4, 2)
    assert cache.path_for(4).read_bytes() == K4_ENTRY  # rewritten


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("POLYSTAB_CACHE", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"
