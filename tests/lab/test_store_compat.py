"""Stores written in the established on-disk layout keep serving.

The layout is transcribed here independently of the store code: a
checkpoint is ``<key[:2]>/<key>.pkl`` plus a ``<key>.json`` sidecar
(provenance + ``artifact_digest``, sorted keys); a proof entry is one
``<key[:2]>/<key>.json`` document carrying ``schema`` and the
``digest`` of its own payload.  A store filled that way must be served
as is: every pass of a warm flow resumes, and every proof is a hit.
"""

import hashlib
import json
from pathlib import Path

from repro.ced import run_ced_flow
from repro.lab.tasks import load_circuit


def _layout_checkpoint(root: Path, key: str, blob: bytes,
                       meta: dict) -> tuple[bytes, bytes]:
    sidecar = dict(meta)
    sidecar["artifact_digest"] = hashlib.sha256(blob).hexdigest()
    sidecar_bytes = json.dumps(sidecar, sort_keys=True).encode()
    shard = root / key[:2]
    shard.mkdir(parents=True, exist_ok=True)
    (shard / f"{key}.pkl").write_bytes(blob)
    (shard / f"{key}.json").write_bytes(sidecar_bytes)
    return blob, sidecar_bytes


def _layout_proof(root: Path, key: str, entry: dict) -> bytes:
    doc = dict(entry)
    doc["schema"] = 2
    payload = {k: v for k, v in sorted(doc.items()) if k != "digest"}
    doc["digest"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    text = json.dumps(doc, sort_keys=True).encode()
    shard = root / key[:2]
    shard.mkdir(parents=True, exist_ok=True)
    (shard / f"{key}.json").write_bytes(text)
    return text


def test_store_in_established_layout_serves_cmb(tmp_path):
    network = load_circuit("cmb")
    fresh = {"checkpoint_dir": tmp_path / "ck", "proof_cache_dir":
             tmp_path / "proofs"}
    cold = run_ced_flow(network.copy(), **fresh)
    summary = cold.summary()

    # Rewrite every entry of the cold run in the established layout,
    # into new roots, and check the store wrote exactly those bytes.
    layout_ck, layout_proofs = tmp_path / "ck-layout", tmp_path / "pf"
    pickles = sorted(fresh["checkpoint_dir"].glob("??/*.pkl"))
    assert pickles
    for pkl in pickles:
        meta = json.loads(pkl.with_suffix(".json").read_text())
        del meta["artifact_digest"]
        written = _layout_checkpoint(layout_ck, pkl.stem,
                                     pkl.read_bytes(), meta)
        assert written == (pkl.read_bytes(),
                           pkl.with_suffix(".json").read_bytes())
    proofs = sorted(fresh["proof_cache_dir"].glob("??/*.json"))
    assert proofs
    for path in proofs:
        entry = json.loads(path.read_text())
        del entry["schema"], entry["digest"]
        assert _layout_proof(layout_proofs, path.stem, entry) \
            == path.read_bytes()

    warm = run_ced_flow(network.copy(), checkpoint_dir=layout_ck,
                        proof_cache_dir=layout_proofs)
    assert warm.summary() == summary
    assert {rec.status for rec in warm.trace.passes} == {"resumed"}

    proved = run_ced_flow(network.copy(), proof_cache_dir=layout_proofs)
    assert proved.summary() == summary
    served = proved.trace.cache_totals()["proofs"]
    assert served["hits"] > 0
    assert served["misses"] == 0
    assert served.get("evictions", 0) == 0
