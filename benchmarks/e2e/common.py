"""Inputs, goldens and result checks shared by the benchmark's files.

Every flow the benchmark runs is ``run_ced_flow`` with what
``repro.cli ced --words 2`` passes: two 64-vector words for the
reliability and coverage campaigns and flow seed 2008.  The flow seed
is fixed on purpose: it picks the approximation direction of every
output, and with it how much work synthesis does (frg2 takes 2.5 s at
seed 2009 and 3.4 s at seed 2010), so letting the workload seed set it
would turn run-to-run spread into input-to-input spread.  For the same
reason the fresh serve circuits come from a committed pool in a fixed
order.  The workload seed orders the work: which circuit a cold round
starts with, the warm resubmission order, and where each block of
serve requests puts its fresh circuit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CIRCUIT_DIR = HERE / "circuits"
FRESH_DIR = CIRCUIT_DIR / "fresh"
GOLDEN_PATH = HERE / "golden" / "flow-seed-2008.json"

FLOW_SEED = 2008
WORDS = 2
FLOW_KW = {"reliability_words": WORDS, "coverage_words": WORDS,
           "seed": FLOW_SEED}

#: Check methods that prove every implication exactly; a flow checked
#: this way must never see an invalid golden vector in its campaign.
EXACT_METHODS = ("bdd", "sat", "static")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def circuit_path(name: str) -> Path:
    """A bundled suite circuit, or ``freshNN`` of the fresh pool."""
    if name.startswith("fresh"):
        return FRESH_DIR / f"{name}.blif"
    return CIRCUIT_DIR / f"{name}.blif"


def fresh_names() -> list[str]:
    return sorted(path.stem for path in FRESH_DIR.glob("*.blif"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["circuits"]


def record_of(doc: dict) -> dict:
    """The checked part of a ``CedFlowResult.to_dict()`` document."""
    return {"summary": doc["summary"],
            "check_method": doc["check_method"],
            "directions": doc["directions"],
            "coverage": doc["coverage"]}


def record_digest(record: dict) -> str:
    return sha256(json.dumps(record, sort_keys=True))


def check_record(name: str, blif_sha: str, record: dict,
                 golden: dict | None) -> str | None:
    """Why ``record`` is wrong, or None (``golden``: the circuit's entry)."""
    if record["check_method"] in EXACT_METHODS and \
            record["coverage"]["golden_invalid"] > 0:
        return (f"{name}: {record['coverage']['golden_invalid']} invalid "
                f"golden vectors on a {record['check_method']}-checked "
                f"flow")
    if golden is None:
        return f"{name}: no golden recorded"
    if golden["sha256"] != blif_sha:
        return f"{name}: BLIF sha256 differs from the golden's"
    if record["summary"] != golden["summary"]:
        return (f"{name}: summary {record['summary']} differs from the "
                f"golden {golden['summary']}")
    return None
