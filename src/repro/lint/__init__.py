"""repro.lint: certificate-emitting static verifier and circuit linter.

Three rule layers over the approximation/CED flow:

1. **structural** (``net.*``) — graph and SOP well-formedness of any
   :class:`~repro.network.Network`;
2. **approximation semantics** (``pair.*``) — the Sec 2.1 type and
   cube-selection invariants over an original/approximate pair, plus
   the per-PO implication of Sec 2.2 re-proved by BDD or SAT;
3. **flow** (``flow.*``) — non-intrusiveness and checker/TRC-tree
   well-formedness of an assembled CED circuit (Sec 3).

Layer 1 is augmented by dataflow-backed rules
(:mod:`repro.lint.analyzerules`) that consume :mod:`repro.analyze`
fixpoint solutions: provably-constant nodes, SDC-dead cubes,
structurally duplicate cones, unobservable logic and stuck outputs.

Proved implications are emitted as self-contained, offline-checkable
certificates (:mod:`repro.lint.certificates`), and whole reports
export as SARIF 2.1.0 with stable fingerprints for CI baselines
(:mod:`repro.lint.sarif`).
"""

from repro.approx.prover import PairSemantics, ProofResult

from .certificates import (CERT_SCHEMA_VERSION, ERROR_CERT_KIND,
                           build_certificate, build_error_certificate,
                           certificate_digest, check_certificate,
                           check_error_certificate,
                           validate_certificate,
                           validate_error_certificate,
                           write_certificates)
from .diagnostics import Diagnostic, LintReport, Severity
from .engine import (LINT_LEVELS, FlowContext, LintError, NetworkContext,
                     PairContext, lint_approx_result, lint_assembly,
                     lint_flow, lint_network, lint_pair)
from .registry import LintRule, all_rules, get_rule, rule, rules_for
from .sarif import (FINGERPRINT_KEY, diagnostic_fingerprint,
                    finding_fingerprint, load_baseline, new_results,
                    to_sarif, validate_sarif, write_sarif)

__all__ = [
    "CERT_SCHEMA_VERSION",
    "ERROR_CERT_KIND",
    "Diagnostic",
    "FINGERPRINT_KEY",
    "FlowContext",
    "LINT_LEVELS",
    "LintError",
    "LintReport",
    "LintRule",
    "NetworkContext",
    "PairContext",
    "PairSemantics",
    "ProofResult",
    "Severity",
    "all_rules",
    "build_certificate",
    "build_error_certificate",
    "certificate_digest",
    "check_certificate",
    "check_error_certificate",
    "diagnostic_fingerprint",
    "finding_fingerprint",
    "get_rule",
    "load_baseline",
    "new_results",
    "lint_approx_result",
    "lint_assembly",
    "lint_flow",
    "lint_network",
    "lint_pair",
    "rule",
    "rules_for",
    "to_sarif",
    "validate_certificate",
    "validate_error_certificate",
    "validate_sarif",
    "write_certificates",
    "write_sarif",
]
