"""Implication certificates: offline-checkable proof artifacts.

A certificate records one proved per-PO implication (paper Sec 2.2,
``G => F`` for 1-approximation, ``F => G`` for 0-approximation) in a
self-contained JSON document: the BLIF text of the original and
approximate PO cones over a shared primary-input list, the proof method
(BDD or SAT/UNSAT attestation) with its statistics, and a SHA-256
digest binding the whole document.  :func:`check_certificate` re-parses
the embedded cones and re-proves the implication from scratch — no
access to the run that produced the certificate is needed.
"""

from __future__ import annotations

import hashlib
import json
import re
import traceback
from pathlib import Path

from repro.approx.prover import PairSemantics, ProofResult
from repro.network import Network
from repro.network.blif import parse_blif, write_blif

CERT_SCHEMA_VERSION = 1
CERT_KIND = "implication-certificate"
ERROR_CERT_KIND = "error-bound-certificate"

_REQUIRED_KEYS = {
    "schema_version": int,
    "kind": str,
    "circuit": str,
    "po": str,
    "direction": int,
    "method": str,
    "status": str,
    "inputs": list,
    "original_blif": str,
    "approx_blif": str,
    "stats": dict,
    "digest": str,
}

_ERROR_REQUIRED_KEYS = {
    "schema_version": int,
    "kind": str,
    "circuit": str,
    "metric": str,
    "bound": (int, float),
    "value": (int, float),
    "method": str,
    "exact": bool,
    "exact_threshold": int,
    "outputs": list,
    "per_output": dict,
    "original_blif": str,
    "approx_blif": str,
    "digest": str,
}


def po_cone(network: Network, po: str, inputs: list[str],
            name: str) -> Network:
    """The single-output subnetwork feeding ``po``.

    ``inputs`` fixes the primary-input list (a superset of the cone's
    support) so that original and approximate cones share a PI space.
    """
    cone = network.transitive_fanin([po])
    sub = Network(name)
    for pi in inputs:
        sub.add_input(pi)
    for node_name in network.topological_order():
        if node_name in cone:
            node = network.nodes[node_name]
            sub.add_node(node_name, list(node.fanins), node.cover.copy())
    sub.add_output(po)
    return sub


def cone_inputs(original: Network, approx: Network,
                po: str) -> list[str]:
    """Shared PI list for the two cones, in original input order."""
    support = original.transitive_fanin([po]) \
        | approx.transitive_fanin([po])
    return [pi for pi in original.inputs if pi in support]


def build_certificate(original: Network, approx: Network, po: str,
                      direction: int, proof: ProofResult) -> dict:
    """Certificate document for one *proved* implication."""
    if proof.holds is not True:
        raise ValueError("certificates attest proved implications only")
    inputs = cone_inputs(original, approx, po)
    doc = {
        "schema_version": CERT_SCHEMA_VERSION,
        "kind": CERT_KIND,
        "circuit": original.name,
        "po": po,
        "direction": int(direction),
        "method": proof.method,
        "status": "proved",
        "inputs": inputs,
        "original_blif": write_blif(
            po_cone(original, po, inputs, f"{original.name}_orig")),
        "approx_blif": write_blif(
            po_cone(approx, po, inputs, f"{original.name}_apx")),
        "stats": {k: v for k, v in proof.stats.items()},
    }
    doc["digest"] = certificate_digest(doc)
    return doc


def certificate_digest(doc: dict) -> str:
    body = {k: v for k, v in doc.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def validate_certificate(doc: dict) -> list[str]:
    """Schema problems of a certificate document (empty list = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["certificate is not a JSON object"]
    for key, kind in _REQUIRED_KEYS.items():
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], kind):
            problems.append(f"key {key!r} is not {kind.__name__}")
    if problems:
        return problems
    if doc["schema_version"] != CERT_SCHEMA_VERSION:
        problems.append(f"unknown schema_version "
                        f"{doc['schema_version']!r}")
    if doc["kind"] != CERT_KIND:
        problems.append(f"unknown kind {doc['kind']!r}")
    if doc["direction"] not in (0, 1):
        problems.append(f"direction must be 0 or 1, got "
                        f"{doc['direction']!r}")
    # The prover writes "bdd" or "sat"; "static" certificates from its
    # retired static-discharge rung stay valid and re-check by BDD/SAT.
    if doc["method"] not in ("bdd", "sat", "static"):
        problems.append(f"unknown method {doc['method']!r}")
    if doc["status"] != "proved":
        problems.append(f"unknown status {doc['status']!r}")
    if doc["digest"] != certificate_digest(doc):
        problems.append("digest mismatch (document was modified)")
    return problems


def _crash_summary(what: str, err: Exception) -> str:
    """Diagnostic for a re-check failure.

    Keeps the exception type, message, and the tail of the traceback —
    a bare ``str(err)`` loses the type (often empty for KeyError and
    friends) and the crash site, making corrupted certificates
    undebuggable from the problem list alone.
    """
    tail = traceback.format_exc(limit=8)[-2000:]
    return f"{what}: {type(err).__name__}: {err}\n{tail}"


def check_certificate(doc: dict,
                      bdd_node_budget: int = 300_000,
                      sat_conflict_budget: int = 500_000,
                      strict: bool = False) -> list[str]:
    """Re-verify a certificate offline (empty list = it checks out).

    Validates the schema and digest, re-parses the embedded cones, and
    re-proves the implication from scratch.  An unexpected crash while
    parsing or re-proving is reported as a problem carrying the
    exception type, message, and traceback tail; ``strict=True``
    re-raises it instead (for callers that want the real traceback).
    """
    problems = validate_certificate(doc)
    if problems:
        return problems
    try:
        original = parse_blif(doc["original_blif"],
                              source="<certificate:original>")
        approx = parse_blif(doc["approx_blif"],
                            source="<certificate:approx>")
    except Exception as err:  # noqa: BLE001 - report, don't crash
        if strict:
            raise
        return [_crash_summary("embedded BLIF does not parse", err)]
    po = doc["po"]
    for label, net in (("original", original), ("approx", approx)):
        if net.inputs != doc["inputs"]:
            problems.append(f"{label} cone inputs differ from the "
                            f"certificate input list")
        if net.outputs != [po]:
            problems.append(f"{label} cone outputs are {net.outputs}, "
                            f"expected [{po!r}]")
    if problems:
        return problems
    try:
        prover = PairSemantics(original, approx,
                               bdd_node_budget=bdd_node_budget,
                               sat_conflict_budget=sat_conflict_budget)
        proof = prover.implication(po, doc["direction"])
        if proof.holds is False:
            proof = prover.witness(po, doc["direction"])
    except Exception as err:  # noqa: BLE001 - report, don't crash
        if strict:
            raise
        return problems + [_crash_summary("implication re-proof crashed",
                                          err)]
    if proof.holds is None:
        problems.append("implication undecided within recheck budget")
    elif proof.holds is False:
        problems.append(f"implication does NOT hold "
                        f"(witness: {proof.witness})")
    return problems


def build_error_certificate(original: Network, approx: Network,
                            evaluation, circuit: str | None = None
                            ) -> dict:
    """``error <= bound`` certificate for one whole-circuit evaluation.

    ``evaluation`` is a *sound and satisfied*
    :class:`~repro.approx.metrics.ErrorEvaluation` — exact exhaustive /
    BDD measurements or mathematically sound upper bounds; statistical
    (Monte-Carlo) evaluations cannot be attested.  The document embeds
    the complete original and approximate networks, so
    :func:`check_error_certificate` re-measures the metric from
    scratch, offline, with the same two-tier evaluator.
    """
    if not evaluation.sound:
        raise ValueError("error certificates attest sound (exact or "
                         "bounded) evaluations only")
    if not evaluation.within:
        raise ValueError("error certificates attest satisfied bounds "
                         "only")
    doc = {
        "schema_version": CERT_SCHEMA_VERSION,
        "kind": ERROR_CERT_KIND,
        "circuit": circuit if circuit is not None else original.name,
        "metric": evaluation.metric,
        "bound": float(evaluation.bound),
        "value": float(evaluation.value),
        "method": evaluation.method,
        "exact": bool(evaluation.exact),
        "exact_threshold": _eval_exact_threshold(evaluation),
        "outputs": list(original.outputs),
        "per_output": {po: float(r)
                       for po, r in evaluation.per_output.items()},
        "original_blif": write_blif(original),
        "approx_blif": write_blif(approx),
    }
    doc["digest"] = certificate_digest(doc)
    return doc


def _eval_exact_threshold(evaluation) -> int:
    # The tier split must be reproducible offline; record the threshold
    # that selected the tier (stored in work by the evaluator).
    return int(evaluation.work.get("exact_threshold", 12))


def validate_error_certificate(doc: dict) -> list[str]:
    """Schema problems of an error certificate (empty list = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["certificate is not a JSON object"]
    for key, kind in _ERROR_REQUIRED_KEYS.items():
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], kind):
            name = kind.__name__ if isinstance(kind, type) else "number"
            problems.append(f"key {key!r} is not {name}")
    if problems:
        return problems
    if doc["schema_version"] != CERT_SCHEMA_VERSION:
        problems.append(f"unknown schema_version "
                        f"{doc['schema_version']!r}")
    if doc["kind"] != ERROR_CERT_KIND:
        problems.append(f"unknown kind {doc['kind']!r}")
    if doc["metric"] not in ("er", "med", "wce"):
        problems.append(f"unknown metric {doc['metric']!r}")
    if doc["value"] > doc["bound"]:
        problems.append("claimed value exceeds the claimed bound")
    if doc["digest"] != certificate_digest(doc):
        problems.append("digest mismatch (document was modified)")
    return problems


def check_error_certificate(doc: dict,
                            bdd_node_budget: int = 300_000,
                            strict: bool = False) -> list[str]:
    """Re-verify an error certificate offline (empty = checks out).

    Re-parses the embedded networks and re-measures the metric with
    the two-tier evaluator.  The re-measurement must itself be sound
    (a fall to the statistical tier reports "undecided") and must meet
    the certified bound; exact re-measurements must also reproduce the
    certified value.
    """
    problems = validate_error_certificate(doc)
    if problems:
        return problems
    try:
        original = parse_blif(doc["original_blif"],
                              source="<certificate:original>")
        approx = parse_blif(doc["approx_blif"],
                            source="<certificate:approx>")
    except Exception as err:  # noqa: BLE001 - report, don't crash
        if strict:
            raise
        return [_crash_summary("embedded BLIF does not parse", err)]
    if list(original.outputs) != doc["outputs"]:
        problems.append("original outputs differ from the certified "
                        "output order")
    if list(approx.outputs) != doc["outputs"]:
        problems.append("approx outputs differ from the certified "
                        "output order")
    if problems:
        return problems
    try:
        from repro.approx.config import ErrorSpec
        from repro.approx.metrics import evaluate_error
        spec = ErrorSpec(metric=doc["metric"], bound=doc["bound"],
                         exact_threshold=doc["exact_threshold"])
        evaluation = evaluate_error(original, approx, spec,
                                    bdd_node_budget=bdd_node_budget)
    except Exception as err:  # noqa: BLE001 - report, don't crash
        if strict:
            raise
        return problems + [_crash_summary("error re-measurement crashed",
                                          err)]
    if not evaluation.sound:
        problems.append("error re-measurement fell to the statistical "
                        "tier within the recheck budget; undecided")
        return problems
    if not evaluation.within:
        problems.append(
            f"measured {doc['metric']} "
            f"{'value' if evaluation.exact else 'bound'} "
            f"{evaluation.value:g} exceeds the certified bound "
            f"{doc['bound']:g}")
    if evaluation.exact and doc["exact"] \
            and abs(evaluation.value - doc["value"]) > 1e-9:
        problems.append(f"re-measured exact value {evaluation.value:g} "
                        f"differs from certified {doc['value']:g}")
    return problems


def certificate_filename(doc: dict) -> str:
    if doc.get("kind") == ERROR_CERT_KIND:
        slug = re.sub(r"[^A-Za-z0-9_.-]", "_",
                      f"{doc['circuit']}__{doc['metric']}_bound")
        return f"{slug}.cert.json"
    slug = re.sub(r"[^A-Za-z0-9_.-]", "_",
                  f"{doc['circuit']}__{doc['po']}__d{doc['direction']}")
    return f"{slug}.cert.json"


def write_certificates(certificates: list[dict],
                       directory: str | Path) -> list[Path]:
    """Write certificates as JSON files; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in certificates:
        path = directory / certificate_filename(doc)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        paths.append(path)
    return paths
