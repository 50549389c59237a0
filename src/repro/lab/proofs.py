"""Cross-process content-addressed proof cache.

The per-PO implication condition (paper Sec 2.2) only depends on the
*cones* of the original and approximate output and the check direction.
This module derives a content address for that triple — the sha256 of a
levelized serialization of both cones — and persists proved verdicts as
small JSON entries under ``.lab_cache/proofs/``, so repeated sweeps,
warm serve-style workloads, and lint re-verification never re-prove a
cone.  Only *exact* verdicts (BDD or SAT engines) are ever stored or
served; statistical simulation verdicts stay out of the cache so a flow
produces bit-identical results with a cold or warm cache.

The entries sit on the repo's one store core
(:class:`repro.lab.cache.JsonStore`): every entry embeds a digest of
its own payload, so a corrupted entry (truncated write, bit rot, hand
editing) is detected on read, evicted, and transparently re-proved;
writes are atomic, and ``prune``/``prune_stale``/``stats`` come from
the core.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .cache import MISS, JsonStore

__all__ = ["ProofCache", "ConeFingerprinter", "implication_key",
           "pct_key", "error_key", "PROOF_SCHEMA",
           "CHECK_KIND_VERSIONS", "EXACT_ENGINES"]

#: Bump when the entry layout or the fingerprint recipe changes.
#: v2: keys carry the synthesis-engine name and a per-check-kind
#: version, so mixed-engine sweeps sharing one cache directory can
#: never serve a cube-selection verdict to a resub query (or vice
#: versa); v1 entries are stale-format and evicted on read or via
#: ``cache prune``.
PROOF_SCHEMA = 2

#: Version of each check kind's *meaning*.  Bumping one invalidates
#: that kind's keys only, instead of the whole cache via PROOF_SCHEMA.
CHECK_KIND_VERSIONS = {"implication": 1, "approx_pct": 1,
                       "error_metric": 1}

#: Engines whose verdicts are exact and therefore cacheable; only
#: their entries are served.  Entries from any other engine (``static``
#: ones written before the static-discharge rung left the synthesis
#: path) are ignored and re-proved once.
EXACT_ENGINES = ("bdd", "sat")


# ----------------------------------------------------------------------
# Cone fingerprints
# ----------------------------------------------------------------------
class ConeFingerprinter:
    """Memoizing serializer of per-signal cones.

    One per-network serialization (a line per node: name, fanins, SOP
    cover rows) is computed per ``(object, version)`` and reused for
    every root, so fingerprinting all POs of a network costs one table
    build plus one transitive-fanin walk per PO.
    """

    def __init__(self):
        self._memo: dict[int, tuple] = {}

    def _table(self, network) -> tuple[dict[str, str], dict[str, int]]:
        key = id(network)
        memo = self._memo.get(key)
        version = getattr(network, "version", None)
        if memo is not None and memo[0] is network and memo[1] == version:
            return memo[2], memo[3]
        order = network.topological_order()
        index = {name: i for i, name in enumerate(order)}
        lines = {}
        for name in order:
            node = network.nodes[name]
            lines[name] = (f"{name}<{','.join(node.fanins)}"
                          f"<{';'.join(node.cover.to_strings())}")
        self._memo[key] = (network, version, lines, index)
        return lines, index

    def cone(self, network, root: str) -> str:
        """Deterministic levelized serialization of one root's cone."""
        if root not in network.nodes:
            return f"pi:{root}"
        lines, index = self._table(network)
        cone = network.transitive_fanin([root])
        members = sorted((n for n in cone if n in lines),
                         key=index.__getitem__)
        pis = sorted(n for n in cone if n not in lines)
        return "|".join([f"root:{root}", "pis:" + ",".join(pis)]
                        + [lines[n] for n in members])


def _key(fp: ConeFingerprinter, original, approx, po: str,
         kind: str, engine: str, extra: list[str]) -> str:
    payload = "\n".join([
        f"proof-v{PROOF_SCHEMA}", f"kind={kind}",
        f"kind-v{CHECK_KIND_VERSIONS[kind]}", f"engine={engine}",
        *extra,
        "[original]", fp.cone(original, po),
        "[approx]", fp.cone(approx, po)])
    return hashlib.sha256(payload.encode()).hexdigest()


def implication_key(fp: ConeFingerprinter, original, approx,
                    po: str, direction: int,
                    engine: str = "cube") -> str:
    """Content address of one per-PO implication check.

    ``engine`` is the synthesis engine asking — its verdicts never
    collide with another engine's even on identical cones.
    """
    return _key(fp, original, approx, po, "implication", engine,
                [f"direction={int(direction)}"])


def pct_key(fp: ConeFingerprinter, original, approx,
            po: str, direction: int, engine: str = "cube") -> str:
    """Content address of one per-PO approximation percentage."""
    return _key(fp, original, approx, po, "approx_pct", engine,
                [f"direction={int(direction)}"])


def error_key(fp: ConeFingerprinter, original, approx, po: str,
              metric: str, engine: str = "resub") -> str:
    """Content address of one per-PO exact error-metric evaluation."""
    return _key(fp, original, approx, po, "error_metric", engine,
                [f"metric={metric}"])


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------
class ProofCache(JsonStore):
    """Proof verdicts addressed by cone fingerprint.

    A key scheme (:func:`implication_key`, :func:`pct_key`,
    :func:`error_key`) over the self-digested JSON codec of the store
    core: entries live in ``root/<key[:2]>/<key>.json``, carry
    :data:`PROOF_SCHEMA` and a digest of their own payload, and a
    corrupt or stale-schema entry is evicted on read and re-proved.
    """

    def __init__(self, root: "str | Path" = ".lab_cache/proofs"):
        super().__init__(root, schema=PROOF_SCHEMA)

    def get(self, key: str, default: "dict | None" = None
            ) -> "dict | None":
        """The cached entry, or ``default``; bad entries are evicted."""
        entry = self._read(key)
        return default if entry is MISS else entry

    def put(self, key: str, entry: dict) -> str:
        """Store an entry atomically; its schema and digest are filled
        in here.  Returns the digest."""
        return self._write(key, entry)
