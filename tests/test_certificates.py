import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from torusdom.certificates import (
    SCHEMA_VERSION,
    TOOL_VERSION,
    Certificate,
    ResultCache,
    default_cache_dir,
    load_certificate,
)
from torusdom.construct import best_upper_witness
from torusdom.errors import CertificateError
from torusdom.solve import solve_oracle
from torusdom.torus import TorusDims, VertexSet
from torusdom.validate import DominationKind

TOTAL = DominationKind.TOTAL
PAIRED = DominationKind.PAIRED


def _sample() -> Certificate:
    vs = VertexSet.from_vertices(
        TorusDims(4, 4), [(1, 1), (1, 2), (3, 3), (3, 4)]
    )
    return Certificate.from_vertex_set(vs, PAIRED, "block-tiling")


def _total_sample() -> Certificate:
    return Certificate.from_vertex_set(_sample().vertex_set(), TOTAL, "block-tiling")


def test_roundtrip_is_byte_exact():
    cert = _sample()
    text = cert.to_json()
    again = Certificate.from_json(text)
    assert again == cert
    assert again.to_json() == text
    assert text.endswith("}\n")
    assert text.count("\n") == 9


def test_vertices_serialize_on_one_line():
    text = _sample().to_json()
    line = next(l for l in text.splitlines() if '"vertices"' in l)
    assert line == '  "vertices": [[1, 1], [1, 2], [3, 3], [3, 4]],'


def test_digest_is_stable_and_content_bound():
    cert = _sample()
    assert cert.digest() == cert.digest()
    assert len(cert.digest()) == 64
    other = Certificate.from_vertex_set(cert.vertex_set(), PAIRED, "other-name")
    assert other.digest() != cert.digest()


def test_from_json_rejects_malformed_documents():
    cert = _sample()
    text = cert.to_json()
    cases = [
        "not json at all",
        "[1, 2, 3]",
        text.replace('"provenance"', '"origin"'),
        text.replace('"schema_version": 1', '"schema_version": 2'),
        text.replace('"kind": "paired"', '"kind": "quadruple"'),
        text.replace("[1, 1]", "[1, true]"),
        text.replace('"cardinality": 4', '"cardinality": "4"'),
        text.replace("[1, 1]", "[1.0, 1]"),
        text.replace("[1, 1]", "[1, 1, 1]"),
        text.replace("[1, 1]", "1"),
    ]
    for bad in cases:
        with pytest.raises(CertificateError):
            Certificate.from_json(bad)


def test_from_json_rejects_extra_keys():
    doc = json.loads(_sample().to_json())
    doc["note"] = "hello"
    with pytest.raises(CertificateError):
        Certificate.from_json(json.dumps(doc))


def test_from_json_rejects_noncanonical_layout():
    text = _sample().to_json()
    # Same content, different bytes.
    reflowed = json.dumps(json.loads(text), indent=2) + "\n"
    assert reflowed != text
    with pytest.raises(CertificateError, match="canonical"):
        Certificate.from_json(reflowed)
    with pytest.raises(CertificateError, match="canonical"):
        Certificate.from_json(text.rstrip("\n"))


def test_check_accepts_solver_output():
    res = solve_oracle(3, 4, TOTAL)
    cert = Certificate.from_vertex_set(res.certificate, TOTAL, "oracle")
    cert.check()


def test_check_rejects_unsorted_or_duplicate_vertices():
    with pytest.raises(CertificateError, match="slot order"):
        Certificate(3, 3, TOTAL, 3, ((1, 2), (1, 1), (1, 3)), "x").check()
    with pytest.raises(CertificateError, match="slot order"):
        Certificate(3, 3, TOTAL, 3, ((1, 1), (1, 1), (1, 2)), "x").check()


def test_check_rejects_wrong_cardinality():
    with pytest.raises(CertificateError, match="cardinality"):
        Certificate(3, 3, TOTAL, 4, ((1, 1), (1, 2), (1, 3)), "x").check()


def test_check_rejects_failed_domination():
    with pytest.raises(CertificateError, match="validation"):
        Certificate(4, 4, TOTAL, 2, ((1, 1), (1, 2)), "x").check()


def test_check_rejects_bad_coordinates():
    with pytest.raises(CertificateError):
        Certificate(2, 3, TOTAL, 1, ((1, 1),), "x").check()
    with pytest.raises(CertificateError, match=r"outside 4x4 grid"):
        Certificate(4, 4, TOTAL, 1, ((5, 1),), "x").check()
    with pytest.raises(CertificateError, match=r"^bad dimensions or vertices: vertex \(1, 0\) outside"):
        Certificate(4, 4, TOTAL, 2, ((1, 0), (1, 2)), "x").vertex_set()


def test_save_and_load(tmp_path):
    cert = _sample()
    path = tmp_path / "cert.json"
    cert.save(path)
    assert load_certificate(path) == cert


def test_load_missing_file(tmp_path):
    with pytest.raises(CertificateError, match="cannot read"):
        load_certificate(tmp_path / "absent.json")


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    cert = _total_sample()
    assert cache.get(4, 4, TOTAL, "auto") is None
    digest = cache.put(cert, "auto")
    assert digest == cert.digest()
    assert (tmp_path / f"{digest}.json").read_text() == cert.to_json()
    assert cache.get(4, 4, TOTAL, "auto") == (4, digest)
    # Distinct methods and kinds key separately.
    assert cache.get(4, 4, TOTAL, "dp") is None
    assert cache.get(4, 4, PAIRED, "auto") is None
    cache.put(_sample(), "auto")
    assert cache.get(4, 4, TOTAL, "auto") == (4, digest)


def test_a_certificate_that_two_entries_name_survives_replacing_one(tmp_path):
    cache = ResultCache(tmp_path)
    shared = cache.put(_sample(), "auto")
    cache.put(_sample(), "dp")
    oracle = Certificate.from_vertex_set(_sample().vertex_set(), PAIRED, "oracle")
    other = cache.put(oracle, "auto")
    assert (tmp_path / f"{shared}.json").exists()
    cache.put(oracle, "dp")
    assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted([f"{other}.json", "results.json"])


def test_cache_key_format():
    assert ResultCache.key(10, 3, PAIRED, "dp") == "10x3:paired:dp"


def test_cache_drops_entries_from_other_versions(tmp_path):
    cache = ResultCache(tmp_path)
    stale = {
        ResultCache.key(4, 4, TOTAL, "auto"): {
            "value": 4,
            "digest": "f" * 64,
            "version": "0.0.0",
        }
    }
    cache.path.parent.mkdir(parents=True, exist_ok=True)
    cache.path.write_text(json.dumps(stale))
    assert cache.get(4, 4, TOTAL, "auto") is None
    cache.put(_total_sample(), "auto")
    doc = json.loads(cache.path.read_text())
    entry = doc[ResultCache.key(4, 4, TOTAL, "auto")]
    assert entry["version"] == TOOL_VERSION
    assert entry["value"] == 4


def test_a_dropped_entry_of_another_version_takes_its_certificate_along(tmp_path):
    cache = ResultCache(tmp_path)
    key = ResultCache.key(4, 4, PAIRED, "auto")
    cache.path.write_text(json.dumps({key: {"value": 4, "digest": "a" * 64, "version": "0.0.9"}}))
    (tmp_path / f"{'a' * 64}.json").write_text("{}")
    live = cache.put(_sample(), "auto")
    assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted([f"{live}.json", "results.json"])


def test_cache_keeps_every_key_of_concurrent_writers(tmp_path):
    # two processes each store 40 keys of their own; without a lock across
    # the read-modify-write, one can replace the file with a copy read
    # before the other's store and drop that key
    script = (
        "import sys\n"
        "from torusdom.certificates import Certificate, ResultCache\n"
        "from torusdom.construct import best_upper_witness\n"
        "from torusdom.validate import DominationKind\n"
        "cache, m = ResultCache(sys.argv[1]), int(sys.argv[2])\n"
        "for n in range(3, 43):\n"
        "    vs = best_upper_witness(n, m, DominationKind.TOTAL).vertex_set\n"
        "    cache.put(Certificate.from_vertex_set(vs, DominationKind.TOTAL, 'x'), 'auto')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    writers = [
        subprocess.Popen([sys.executable, "-c", script, str(tmp_path), str(m)], env=env)
        for m in (3, 4)
    ]
    assert [w.wait(timeout=120) for w in writers] == [0, 0]
    cache = ResultCache(tmp_path)
    stored = json.loads(cache.path.read_text())
    assert len(stored) == 80
    for n in range(3, 43):
        for m in (3, 4):
            vs = best_upper_witness(n, m, TOTAL).vertex_set
            cert = Certificate.from_vertex_set(vs, TOTAL, "x")
            assert cache.get(n, m, TOTAL, "auto") == (cert.cardinality, cert.digest())
            assert cache.certificate(n, m, TOTAL, cert.cardinality, cert.digest(), ["x"]) == cert


def test_a_concurrent_writer_keeps_the_certificate_another_has_just_written(
    monkeypatch, tmp_path
):
    # an entry of another tool version names the certificate that writer A
    # is about to store; writer B, which drops that entry, runs as soon as
    # A has written the file, and must not remove it from under A's entry
    cache = ResultCache(tmp_path)
    mine = _total_sample()
    stale = {"value": 4, "digest": mine.digest(), "version": "0.0.9"}
    cache.path.write_text(json.dumps({ResultCache.key(4, 4, PAIRED, "dp"): stale}))
    module = importlib.import_module("torusdom.certificates")
    real_replace = module._replace
    writers = []

    def replace_then_race(path, text):
        real_replace(path, text)
        if path.name == f"{mine.digest()}.json" and not writers:
            writers.append(threading.Thread(target=ResultCache(tmp_path).put, args=(_sample(), "auto")))
            writers[0].start()
            writers[0].join(timeout=0.5)  # B waits here while A holds the lock

    monkeypatch.setattr(module, "_replace", replace_then_race)
    cache.put(mine, "auto")
    writers[0].join(timeout=60)
    assert not writers[0].is_alive()
    live = ResultCache._live(json.loads(cache.path.read_text()))
    assert sorted(live) == ["4x4:paired:auto", "4x4:total:auto"]
    assert all((tmp_path / f"{entry['digest']}.json").exists() for entry in live.values())
    assert cache.certificate(4, 4, TOTAL, 4, mine.digest(), ["block-tiling"]) == mine


@pytest.mark.parametrize(
    "stored",
    [
        b"{ not json",
        b"\xff\xfe",
        b"[" * 200_000 + b"]" * 200_000,
        # outside any entry, so a parser with no digit limit drops it too
        b'{"junk": 1' + b"0" * 5000 + b"}",
    ],
    ids=["not json", "not utf-8", "nested", "long integer"],
)
def test_cache_survives_corrupted_store(tmp_path, stored):
    cache = ResultCache(tmp_path)
    cache.path.parent.mkdir(parents=True, exist_ok=True)
    cache.path.write_bytes(stored)
    assert cache.get(3, 3, TOTAL, "auto") is None
    cert = Certificate.from_vertex_set(solve_oracle(3, 3, TOTAL).certificate, TOTAL, "oracle")
    digest = cache.put(cert, "auto")
    assert cache.get(3, 3, TOTAL, "auto") == (3, digest)


def test_default_cache_dir_honors_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "torusdom"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert default_cache_dir().name == "torusdom"


def test_schema_version_is_pinned():
    assert SCHEMA_VERSION == 1
    assert '"schema_version": 1' in _sample().to_json()
