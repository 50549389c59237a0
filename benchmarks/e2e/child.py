"""Fresh-interpreter helpers the workloads start as subprocesses.

``child.py flow BLIF`` runs one cold CED flow the way ``repro.cli ced``
does: import, parse the BLIF text, ``run_ced_flow`` with the default
context and no stores.  It prints one JSON line with the wall-clock
time the flow was ready to start (``ready_at``, so the parent can count
interpreter start, imports and parsing as set-up), the time of the
``run_ced_flow`` call alone, and the checked part of the result.

``child.py serve --trace-out FILE -- ARGS`` is ``repro.cli serve ARGS``
with the layer tracer installed; each worker's ``run_flow_request``
becomes a root span named by the job id.  Everything the tracer
recorded is written to FILE once the server has drained, so the
parent can keep the flows it measured and drop its set-up flows.

With ``--trace`` (flow) the span report rides in the JSON line, and
``--spans FILE`` also appends every span to FILE as NDJSON.
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import nullcontext
from pathlib import Path

import common
import tracing


def run_flow(args: argparse.Namespace) -> None:
    common.use_source_tree()
    from repro.ced import run_ced_flow
    from repro.network import parse_blif

    tracer = tracing.install() if args.trace else None
    network = parse_blif(Path(args.blif).read_text())
    ready_at = time.time()
    start = time.perf_counter()
    with tracer.root(args.flow_id) if tracer else nullcontext():
        flow = run_ced_flow(network, **common.FLOW_KW)
    flow_s = time.perf_counter() - start
    doc = {"ready_at": ready_at, "flow_s": flow_s,
           "record": common.record_of(flow.to_dict())}
    if tracer is not None:
        doc["trace"] = tracer.report()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(doc))


def run_serve(args: argparse.Namespace) -> int:
    common.use_source_tree()
    from repro import cli
    from repro.serve import pool

    tracer = tracing.install()
    handle = pool.run_flow_request

    def traced_request(req, state, emit):
        with tracer.root(req["job_id"]):
            return handle(req, state, emit)

    pool.run_flow_request = traced_request
    status = cli.main(["serve", *args.serve_args])
    Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_flow = sub.add_parser("flow")
    p_flow.add_argument("blif")
    p_flow.add_argument("--flow-id", default="flow")
    p_flow.add_argument("--trace", action="store_true")
    p_flow.add_argument("--spans", default=None)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--trace-out", required=True)
    p_serve.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "flow":
        run_flow(args)
        return 0
    if args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    return run_serve(args)


if __name__ == "__main__":
    raise SystemExit(main())
