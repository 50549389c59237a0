"""The ``cli analyze`` summary cache on the store core's JSON codec."""

import json
import sys
import threading

import pytest

from repro.analyze import (ANALYZE_SCHEMA, analyze_network,
                           load_cached_summary, store_summary,
                           summary_token)
from repro.lab.cache import JsonStore
from repro.lab.tasks import load_circuit

THREADS = 8
ROUNDS = 60


def test_threaded_same_key_writes_never_tear(tmp_path):
    network = load_circuit("tiny")
    doc = analyze_network(network)
    cache_dir = tmp_path / "analyze"
    errors, torn, misses = [], [], []
    start = threading.Barrier(THREADS)

    def worker(n):
        start.wait()
        for i in range(ROUNDS):
            try:
                store_summary(cache_dir, network, doc)
            except Exception as exc:      # noqa: BLE001 - tallied below
                errors.append(repr(exc))
                continue
            served = load_cached_summary(cache_dir, network)
            if served is None:
                misses.append((n, i))
            elif served != doc:
                torn.append((n, i))

    threads = [threading.Thread(target=worker, args=(n,))
               for n in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [], errors[:3]
    assert torn == [] and misses == []
    assert list(cache_dir.rglob("*.tmp")) == []
    assert load_cached_summary(cache_dir, network) == doc


def _bump_nodes(entry):
    entry["nodes"] += 1                   # digest no longer matches


def _stale_schema(entry):
    # A self-consistent entry written under an older summary format
    # (schema 1 carried "iterations" and "incremental" cost keys).
    entry["schema"] = ANALYZE_SCHEMA - 1
    for cost in entry["fixpoint"]:
        cost.update(iterations=cost["transfers"], incremental=False)
    entry["digest"] = JsonStore._digest(entry)


@pytest.mark.parametrize("damage", [_bump_nodes, _stale_schema],
                         ids=["corrupt", "stale-schema"])
def test_corrupt_summary_is_evicted(tmp_path, damage):
    network = load_circuit("tiny")
    doc = analyze_network(network)
    path = store_summary(tmp_path, network, doc)
    assert path.name == f"{summary_token(network)}.json"
    entry = json.loads(path.read_text())
    damage(entry)
    path.write_text(json.dumps(entry))
    assert load_cached_summary(tmp_path, network) is None
    assert not path.exists()
