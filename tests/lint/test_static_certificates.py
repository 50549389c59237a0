"""Round-trips of ``"static"``-method certificates.

The prover no longer has a static-discharge rung, but certificates it
once wrote with ``method: "static"`` must still validate and re-check
offline.  The fixture is such a certificate for AND-implies-OR, built
from the proof the static rung used to return.  Each required field is
corrupted in turn and must be rejected with a precise complaint, and a
re-signed lie must still fail the semantic recheck.
"""

import pytest

from repro.cubes import Cover
from repro.lint import (ProofResult, build_certificate,
                        certificate_digest, check_certificate,
                        validate_certificate)
from repro.lint.certificates import _REQUIRED_KEYS
from repro.network import Network


def _net(cover_rows, name="statcert"):
    net = Network(name)
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], Cover.from_strings(cover_rows))
    net.add_output("f")
    return net


@pytest.fixture
def static_cert():
    original, approx = _net(["1-", "-1"]), _net(["11"])
    proof = ProofResult(True, "static",
                        {"reason": "relation", "relation": "le"})
    return build_certificate(original, approx, "f", 1, proof)


def test_static_certificate_validates_and_rechecks(static_cert):
    assert static_cert["method"] == "static"
    assert static_cert["stats"].get("reason") == "relation"
    assert validate_certificate(static_cert) == []
    assert check_certificate(static_cert) == []


#: (corruption, substring the precise rejection must contain)
_CORRUPTIONS = {
    "schema_version": (99, "unknown schema_version"),
    "kind": ("certificate", "unknown kind"),
    "circuit": (7, "key 'circuit' is not str"),
    "po": (None, "key 'po' is not str"),
    "direction": (2, "direction must be 0 or 1"),
    "method": ("vibes", "unknown method"),
    "status": ("refuted", "unknown status"),
    "inputs": ("a,b", "key 'inputs' is not list"),
    "original_blif": (0, "key 'original_blif' is not str"),
    "approx_blif": ([], "key 'approx_blif' is not str"),
    "stats": ("none", "key 'stats' is not dict"),
    "digest": ("sha256:0000", "digest mismatch"),
}


def test_every_required_key_has_a_corruption_case():
    assert set(_CORRUPTIONS) == set(_REQUIRED_KEYS)


@pytest.mark.parametrize("key", sorted(_CORRUPTIONS))
def test_corrupting_each_field_is_precisely_rejected(static_cert, key):
    value, needle = _CORRUPTIONS[key]
    doc = dict(static_cert)
    doc[key] = value
    if key != "digest":
        # Re-sign so only the *semantic* validation can complain —
        # the digest must not be doing all the work.
        doc["digest"] = certificate_digest(doc)
    problems = validate_certificate(doc)
    assert problems, f"corrupt {key!r} accepted"
    assert any(needle in p for p in problems), (key, problems)


@pytest.mark.parametrize("key", sorted(_REQUIRED_KEYS))
def test_dropping_each_field_is_precisely_rejected(static_cert, key):
    doc = dict(static_cert)
    del doc[key]
    problems = validate_certificate(doc)
    assert any(f"missing key {key!r}" in p for p in problems), \
        (key, problems)


def test_unsigned_tamper_is_caught_by_digest(static_cert):
    doc = dict(static_cert)
    doc["po"] = "g"
    assert any("digest mismatch" in p
               for p in validate_certificate(doc))


def test_resigned_static_lie_fails_semantic_recheck(static_cert):
    # OR does not imply AND: flipping the direction and re-signing
    # passes the schema but the offline re-proof must refute it.
    doc = dict(static_cert)
    doc["direction"] = 0
    doc["digest"] = certificate_digest(doc)
    assert validate_certificate(doc) == []
    problems = check_certificate(doc)
    assert any("does NOT hold" in p for p in problems)
