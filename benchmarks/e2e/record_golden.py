"""Record the goldens every benchmark flow is checked against.

Runs the BLIF text of each bundled circuit and each fresh-pool circuit
through ``run_ced_flow`` with the benchmark's flow parameters and
writes ``golden/flow-seed-2008.json``, keyed by circuit name with the
BLIF's sha256.  Re-record only when a change is meant to alter flow
results, and say so in that change::

    python benchmarks/e2e/record_golden.py
"""

from __future__ import annotations

import json

import common


def main() -> int:
    common.use_source_tree()
    from repro.ced import run_ced_flow
    from repro.network import parse_blif

    circuits = {}
    for path in sorted(common.CIRCUIT_DIR.glob("*.blif")) \
            + sorted(common.FRESH_DIR.glob("*.blif")):
        text = path.read_text()
        doc = run_ced_flow(parse_blif(text), **common.FLOW_KW).to_dict()
        circuits[path.stem] = {"sha256": common.sha256(text),
                               "summary": doc["summary"],
                               "check_method": doc["check_method"]}
        print(f"{path.stem:8s} {doc['check_method']:4s} "
              f"{doc['summary']}")
    common.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    common.GOLDEN_PATH.write_text(json.dumps(
        {"flow": common.FLOW_KW, "circuits": circuits}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {common.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
