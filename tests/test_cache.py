import json
from pathlib import Path

import pytest

from circleops import __version__
from circleops import cache as cachemod
from circleops.cache import (
    CacheCorruption,
    CacheError,
    cache_key,
    check,
    clear,
    entries,
    entry_path,
    fetch,
    load,
    source_digest,
    store,
)
from circleops.circled import enumerate_configs
from circleops.trees import LEAF


def test_cache_key_is_canonical():
    a = cache_key("enumerate", tree="|", k=2, r3=False)
    b = cache_key("enumerate", k=2, r3=False, tree="|")
    assert a == b == (
        '{"fields":{"k":2,"r3":false,"tree":"|"},'
        f'"kind":"enumerate","source":"{source_digest()}",'
        f'"version":"{__version__}"}}'
    )


def test_cache_key_changes_with_package_version(monkeypatch):
    before = cache_key("enumerate", tree="|", k=2)
    monkeypatch.setattr(cachemod, "__version__", __version__ + ".post1")
    after = cache_key("enumerate", tree="|", k=2)
    assert before != after
    assert entry_path("d", before) != entry_path("d", after)


def test_cache_key_changes_with_package_sources(monkeypatch):
    before = cache_key("enumerate", tree="|", k=2)
    monkeypatch.setattr(cachemod, "source_digest", lambda: "0" * 64)
    after = cache_key("enumerate", tree="|", k=2)
    assert before != after
    assert entry_path("d", before) != entry_path("d", after)


def test_source_digest_changes_with_any_module(tmp_path, monkeypatch):
    for path in Path(cachemod.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    real = source_digest()
    monkeypatch.setattr(cachemod, "__file__", str(tmp_path / "cache.py"))
    try:
        source_digest.cache_clear()
        assert source_digest() == real
        edited = tmp_path / "cattop.py"
        edited.write_text(edited.read_text() + "# edited\n")
        assert source_digest() == real  # read once per process
        source_digest.cache_clear()
        assert source_digest() != real
    finally:
        source_digest.cache_clear()


def test_store_leaves_no_temporary_file(tmp_path):
    for n in range(3):
        store(tmp_path, cache_key("configs", tree="|", k=n), str(n))
    store(tmp_path, cache_key("configs", tree="|", k=0), "again")
    assert len(entries(tmp_path)) == 3
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_store_removes_its_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cachemod.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        store(tmp_path, "k", "v")
    assert list(tmp_path.iterdir()) == []


def test_cache_key_separates_convention_flags():
    a = cache_key("kgraph", m=2, k=2)
    b = cache_key("kgraph", m=3, k=2)
    assert a != b
    assert entry_path("d", a) != entry_path("d", b)


def test_store_load_round_trip_is_byte_identical(tmp_path):
    payload = "\n".join(str(c) for c in enumerate_configs(LEAF, 2))
    assert payload.count("\n") == 3
    key = cache_key("configs", tree="|", k=2)
    path = store(tmp_path, key, payload)
    assert path.parent == tmp_path
    assert load(tmp_path, key) == payload
    entry = json.loads(path.read_text())
    assert entry["schema"] == 1 and entry["key"] == key


def test_load_misses_return_none(tmp_path):
    assert load(tmp_path, "nothing|here") is None


def test_fetch_computes_once_then_hits(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return "value"

    first = fetch(tmp_path, "k", compute)
    second = fetch(tmp_path, "k", compute)
    assert (first.payload, first.hit, first.warning) == ("value", False, None)
    assert (second.payload, second.hit, second.warning) == ("value", True, None)
    assert len(calls) == 1


def test_corrupted_payload_is_detected_and_recomputed(tmp_path):
    key = cache_key("configs", tree="|", k=1)
    store(tmp_path, key, "original")
    path = entry_path(tmp_path, key)
    entry = json.loads(path.read_text())
    entry["payload"] = "tampered"
    path.write_text(json.dumps(entry))

    with pytest.raises(CacheCorruption, match="hash mismatch"):
        load(tmp_path, key)
    result = fetch(tmp_path, key, lambda: "original")
    assert result.payload == "original" and not result.hit
    assert "hash mismatch" in result.warning and "recomputing" in result.warning
    # the bad entry was overwritten with a good one
    assert load(tmp_path, key) == "original"


def test_unparseable_entry_is_corruption(tmp_path):
    key = "k"
    store(tmp_path, key, "v")
    entry_path(tmp_path, key).write_text("not json at all")
    with pytest.raises(CacheCorruption, match="unreadable"):
        load(tmp_path, key)


def test_key_recorded_in_entry_must_match(tmp_path):
    store(tmp_path, "real|key", "v")
    a, b = entry_path(tmp_path, "real|key"), entry_path(tmp_path, "other|key")
    b.write_text(a.read_text())
    with pytest.raises(CacheCorruption, match="belongs to key"):
        load(tmp_path, "other|key")


def test_missing_directory_is_a_clear_error(tmp_path):
    missing = tmp_path / "absent"
    with pytest.raises(CacheError, match="does not exist"):
        store(missing, "k", "v")
    with pytest.raises(CacheError, match=str(missing)):
        load(missing, "k")


def test_check_and_clear(tmp_path):
    store(tmp_path, "a", "1")
    store(tmp_path, "b", "2")
    ok, problems = check(tmp_path)
    assert (ok, problems) == (2, [])

    path = entry_path(tmp_path, "a")
    entry = json.loads(path.read_text())
    entry["digest"] = "0" * 64
    path.write_text(json.dumps(entry))
    ok, problems = check(tmp_path)
    assert ok == 1 and len(problems) == 1 and "hash mismatch" in problems[0]

    assert clear(tmp_path) == 2
    assert entries(tmp_path) == ()
