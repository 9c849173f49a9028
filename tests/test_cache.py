import json
import os
import tempfile

import pytest

from polystab import braid
from polystab.abelian import AbelianGroup, GradedAbelianGroup
from polystab.cache import CACHE_FORMAT, CACHE_VERSION, BraidHomologyKey, HomologyCache, default_cache_dir
from polystab.spaces import e1_page_hol, hol_homology


@pytest.fixture
def cache(tmp_path):
    return HomologyCache(tmp_path / "store")


SAMPLE = GradedAbelianGroup({0: AbelianGroup(1), 3: AbelianGroup(1, (2, 6))})
KEY = BraidHomologyKey(4, "sign")
K5 = BraidHomologyKey(5, "trivial")


def reader(cache):
    """A second instance on the same directory, as another process would open it."""
    return HomologyCache(cache.directory)


def test_roundtrip_is_exact(cache):
    cache.put(KEY, SAMPLE)
    assert cache.get(KEY) is SAMPLE
    assert reader(cache).get(KEY) == SAMPLE


def test_file_starts_with_format_version_and_key(cache):
    cache.put(KEY, SAMPLE)
    doc = json.loads(cache.path_for(KEY).read_text())
    head = list(doc)[:4]
    assert head == ["format", "version", "k", "system"]
    assert doc["version"] == CACHE_VERSION
    assert (doc["k"], doc["system"]) == (KEY.k, KEY.system)


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
    return {"format": CACHE_FORMAT, "version": CACHE_VERSION, "k": KEY.k, "system": KEY.system, "homology": homology}


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
        assert hol_homology(KEY.k, 2, cache=reader(cache)) == hol_homology(KEY.k, 2)
    assert reader(cache).get(KEY) == braid.config_homology(KEY.k, KEY.system)  # rewritten


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
    cache.put(BraidHomologyKey(2, "trivial"), SAMPLE)
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


def test_key_validation():
    with pytest.raises(ValueError):
        BraidHomologyKey(0, "sign")
    with pytest.raises(ValueError):
        BraidHomologyKey(2, "weird")


def test_config_homology_persists_and_reloads(cache):
    hol_homology(5, 2, cache=cache)
    key = BraidHomologyKey(5, "sign")
    assert reader(cache).get(key) == braid.config_homology(5, braid.SIGN)
    # a fresh instance must take the answer from disk, not recompute it
    sentinel = GradedAbelianGroup({1: AbelianGroup(7), 2: AbelianGroup(7, (5,))})
    cache.put(key, sentinel)
    page = e1_page_hol(5, 2, cache=reader(cache))  # column 5 holds H_i(C_5; sign) at s = 2 * 5 + i
    assert GradedAbelianGroup({s - 10: page.entry(k, s) for k, s in page.nonzero_cells() if k == 5}) == sentinel


def test_corrupt_cache_recomputes(cache):
    value = hol_homology(4, 2, cache=cache)
    path = cache.path_for(BraidHomologyKey(4, "sign"))
    path.write_text("garbage")
    with pytest.warns(UserWarning):
        again = hol_homology(4, 2, cache=reader(cache))
    assert again == value
    assert reader(cache).get(BraidHomologyKey(4, "sign")) == braid.config_homology(4, braid.SIGN)  # rewritten


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("POLYSTAB_CACHE", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"
