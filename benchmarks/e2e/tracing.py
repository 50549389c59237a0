"""Layer spans recorded from outside the program.

The tracer patches the public entry point of every layer of the CED
flow (``repro.*``) with a thin timing wrapper.  Each call made while a
*root* span is open on the calling thread becomes a span ``(id, parent,
layer, name, start, end, flow)``; calls outside any root (set-up, the
serve front end parsing a submission) are passed straight through.

Patching rules:

* a method is patched on the class that defines it, so a subclass
  override (``NumpyBddManager.implies_many``) gets its own wrapper;
* a module-level function is patched at every ``repro.*`` binding
  that imported it by name (``repro.ced.flow`` binds
  ``analyze_reliability``, ``repro.sim`` re-exports ``get_simulator``);
* hot inner calls (``BddManager.ite``, the SAT propagation loop) are
  never wrapped: only layer boundaries are.

An entry point the program no longer has is reported in
``Tracer.missing`` instead of failing the run.  A layer's self time is
the sum over its spans of the span's duration minus the durations of
its direct child spans; a root span's self time is the ``other`` layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them.
LAYERS = ("analyze", "network.bdd", "bdd", "sat", "approx", "sim",
          "reliability", "synth", "ced", "flow", "lab.cache",
          "lab.proofs", "network.blif")

#: (layer, module, "Class.method" or "function") of every wrapped entry
#: point.  The approx engines and the BDD manager class are resolved at
#: install time (see ``_dynamic_entry_points``).
ENTRY_POINTS = (
    ("analyze", "repro.analyze.static_proof",
     "StaticDischarger.implication"),
    ("analyze", "repro.analyze.context", "NetworkAnalyses.__init__"),
    ("analyze", "repro.analyze.context", "NetworkAnalyses.refresh"),
    ("network.bdd", "repro.network.globalbdd", "GlobalBdds.add_network"),
    ("network.bdd", "repro.network.globalbdd",
     "GlobalBdds.update_network"),
    ("sat", "repro.sat.solver", "SatSolver.solve"),
    ("approx", "repro.approx.metrics", "approximation_percentages"),
    ("sim", "repro.sim.simulator", "get_simulator"),
    ("sim", "repro.sim.simulator", "BitSimulator.run"),
    ("sim", "repro.sim.simulator", "BitSimulator.run_stuck_batch"),
    ("sim", "repro.sim.simulator", "BitSimulator.run_forced_batch"),
    ("sim", "repro.sim.simulator", "signal_probabilities"),
    ("sim", "repro.sim.power", "switching_activity"),
    ("reliability", "repro.reliability.analysis", "analyze_reliability"),
    ("synth", "repro.synth.scripts", "SynthesisScript.run"),
    ("ced", "repro.ced.architecture", "build_ced"),
    ("ced", "repro.ced.coverage", "evaluate_ced"),
    ("flow", "repro.flow.passes", "PassManager.run"),
    ("flow", "repro.flow.passes", "pass_fingerprint"),
    ("flow", "repro.flow.passes", "flow_token"),
    ("lab.cache", "repro.lab.cache", "ArtifactStore.get"),
    ("lab.cache", "repro.lab.cache", "ArtifactStore.put"),
    ("lab.cache", "repro.lab.cache", "ArtifactStore.has"),
    ("lab.proofs", "repro.lab.proofs", "ProofCache.get"),
    ("lab.proofs", "repro.lab.proofs", "ProofCache.put"),
    ("network.blif", "repro.network.blif", "parse_blif"),
    ("network.blif", "repro.network.blif", "write_blif"),
)

#: BDD queries, wrapped where the live manager class resolves them.
BDD_QUERIES = ("implies", "implies_many", "probability_many",
               "sat_count_many")

#: Entry points the default flow (``repro.cli ced``, serve) never calls,
#: by qualified or method name: without a budget, ``check="auto"``
#: degrades BDD -> simulation and never reaches SAT; only the resub
#: engine inherits ``ApproxEngine.synthesize_with_floor`` and counts
#: models; only ``GlobalBdds.implies_many`` calls ``implies_many``, and
#: nothing calls that.
UNREACHED = frozenset({"SatSolver.solve",
                       "ApproxEngine.synthesize_with_floor",
                       "sat_count_many", "implies_many"})


def unreached(qualname: str) -> bool:
    return any(qualname == key or qualname.endswith("." + key)
               for key in UNREACHED)


class Tracer:
    """In-memory span recorder plus the per-flow counters behind extras."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: flow id -> counter name -> value.
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.missing: list[str] = []
        #: Qualified names of every wrapped entry point.
        self.wrapped: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def dump(self) -> dict:
        """Everything recorded, as JSON types (see :meth:`load`)."""
        return {"spans": self.spans, "counters": self.counters,
                "missing": self.missing, "wrapped": self.wrapped}

    @classmethod
    def load(cls, doc: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = [tuple(span) for span in doc["spans"]]
        for flow, counters in doc["counters"].items():
            tracer.counters[flow].update(counters)
        tracer.missing = list(doc["missing"])
        tracer.wrapped = list(doc["wrapped"])
        return tracer

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, flow: str):
        """A flow's root span; its self time is the ``other`` layer."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append((span_id, flow))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, None, "other", "root", start, end,
                               flow))

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """``fn`` timed as a ``layer`` span while a root is open.

        ``before(args, kwargs)`` runs first and its value reaches
        ``after(counters, args, kwargs, result, state)``, which updates
        the flow's counters once the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            parent, flow = stack[-1]
            span_id = next(tracer._ids)
            state = before(args, kwargs) if before is not None else None
            stack.append((span_id, flow))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, layer, name, start,
                                     end, flow))
            if after is not None:
                after(tracer.counters[flow], args, kwargs, result, state)
            return result

        return wrapper

    # -- results ---------------------------------------------------------
    def _selected(self, flows) -> list[tuple]:
        if flows is None:
            return self.spans
        return [span for span in self.spans if span[6] in flows]

    def report(self, flows=None) -> dict:
        """Span totals of ``flows`` (default all); see :func:`merge`.

        ``totals`` holds additive sums (calls, self seconds, counters)
        except ``network.bdd.peak_nodes``, a maximum.  ``max_gap`` is the
        largest relative gap, over flows, between the flow's wall time
        and the sum of its spans' self times (0 when spans nest).
        """
        spans = self._selected(flows)
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for flow, counters in self.counters.items():
            if flows is None or flow in flows:
                for key, value in counters.items():
                    _accumulate(totals, key, value)
        entry_points = {name: 0 for name in self.wrapped}
        flow_wall: dict[str, float] = defaultdict(float)
        flow_self: dict[str, float] = defaultdict(float)
        for span_id, parent, layer, name, start, end, flow in spans:
            own = (end - start) - child_time[span_id]
            totals[f"{layer}.self_s"] += own
            flow_self[flow] += own
            if parent is None:
                flow_wall[flow] += end - start
                continue
            totals[f"{layer}.calls"] += 1
            entry_points[name] += 1
            if name == "pass_fingerprint":
                totals["flow.fingerprint_s"] += own
        totals["trace.flow_wall_s"] = sum(flow_wall.values())
        totals["trace.spans"] = len(spans)
        gaps = [abs(flow_self[flow] - wall) / wall
                for flow, wall in flow_wall.items() if wall > 0]
        return {"totals": dict(totals), "entry_points": entry_points,
                "max_gap": max(gaps, default=0.0),
                "missing": list(self.missing)}

    def write_spans(self, path, flows=None) -> None:
        """Append the spans of ``flows`` (default all) as NDJSON."""
        with open(path, "a") as fh:
            for span_id, parent, layer, name, start, end, flow in \
                    self._selected(flows):
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "start": start, "end": end,
                    "flow": flow}) + "\n")


def _accumulate(totals: dict, key: str, value: float) -> None:
    totals[key] = max(totals[key], value) \
        if key == "network.bdd.peak_nodes" else totals[key] + value


def merge(a: dict | None, b: dict) -> dict:
    """Two span reports (e.g. from two processes) as one."""
    if a is None:
        return b
    totals = defaultdict(float, a["totals"])
    for key, value in b["totals"].items():
        _accumulate(totals, key, value)
    entry_points = dict(a["entry_points"])
    for name, calls in b["entry_points"].items():
        entry_points[name] = entry_points.get(name, 0) + calls
    return {"totals": dict(totals), "entry_points": entry_points,
            "max_gap": max(a["max_gap"], b["max_gap"]),
            "missing": sorted(set(a["missing"]) | set(b["missing"]))}


#: (name, unit, better) of every per-layer metric a span report gives.
LAYER_METRICS = tuple(
    [(f"{layer}.{kind}", unit, "lower")
     for layer in LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("analyze.discharge_ratio", "ratio", "higher"),
       ("analyze.discharge_attempts", "count", "lower"),
       ("network.bdd.peak_nodes", "count", "lower"),
       ("sat.undecided", "count", "lower"),
       ("flow.fingerprint_s", "s", "lower"),
       ("lab.cache.lookups", "count", "lower"),
       ("lab.cache.hit_ratio", "ratio", "higher"),
       ("lab.cache.read_bytes", "B", "lower"),
       ("lab.cache.write_bytes", "B", "lower"),
       ("lab.proofs.lookups", "count", "lower"),
       ("lab.proofs.hit_ratio", "ratio", "higher"),
       ("lab.proofs.evictions", "count", "lower"),
       ("other.self_s", "s", "lower"),
       ("trace.flow_wall_s", "s", "lower"),
       ("trace.spans", "count", "lower")])


def layer_metrics(report: dict | None) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value (0 where no span reached it)."""
    totals = defaultdict(float, report["totals"] if report else {})
    derived = {
        "analyze.discharge_ratio": _ratio(totals["analyze.discharged"],
                                          totals["analyze.attempts"]),
        "analyze.discharge_attempts": totals["analyze.attempts"],
        "lab.cache.hit_ratio": _ratio(totals["lab.cache.hits"],
                                      totals["lab.cache.lookups"]),
        "lab.proofs.hit_ratio": _ratio(totals["lab.proofs.hits"],
                                       totals["lab.proofs.lookups"]),
    }
    return {name: derived[name] if name in derived else totals[name]
            for name, _, _ in LAYER_METRICS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _discharge(c, args, kwargs, proof, _):
    c["analyze.attempts"] += 1
    if proof.holds is not None:
        c["analyze.discharged"] += 1


def _bdd_nodes(c, args, kwargs, result, _):
    nodes = args[0].manager.num_nodes
    if nodes > c["network.bdd.peak_nodes"]:
        c["network.bdd.peak_nodes"] = nodes


def _sat_result(c, args, kwargs, result, _):
    if result is None:
        c["sat.undecided"] += 1


def _store_lookup(c, args, kwargs, result, _):
    c["lab.cache.lookups"] += 1


def _store_get(c, args, kwargs, result, _):
    from repro.lab.cache import MISS
    default = args[2] if len(args) > 2 else kwargs.get("default", MISS)
    if result is not default:
        c["lab.cache.hits"] += 1
        c["lab.cache.read_bytes"] += _size(args[0], args[1])


def _store_put(c, args, kwargs, result, _):
    c["lab.cache.write_bytes"] += _size(args[0], args[1])


def _evictions(args, kwargs):
    return args[0].evictions


def _proofs_get(c, args, kwargs, result, evictions_before):
    c["lab.proofs.lookups"] += 1
    if result is not None:
        c["lab.proofs.hits"] += 1
    c["lab.proofs.evictions"] += args[0].evictions - evictions_before


#: ``name -> (before, after)`` of the entry points that feed extras.
HOOKS = {
    "StaticDischarger.implication": (None, _discharge),
    "GlobalBdds.add_network": (None, _bdd_nodes),
    "GlobalBdds.update_network": (None, _bdd_nodes),
    "SatSolver.solve": (None, _sat_result),
    "ArtifactStore.has": (None, _store_lookup),
    "ArtifactStore.get": (None, _store_get),
    "ArtifactStore.put": (None, _store_put),
    "ProofCache.get": (_evictions, _proofs_get),
}


def _size(store, key: str) -> int:
    """Bytes of a stored artifact (0 when it vanished)."""
    try:
        return store._paths(key)[0].stat().st_size
    except OSError:
        return 0


def _dynamic_entry_points() -> list[tuple[str, str, str]]:
    """Entry points that depend on what the program registers."""
    from repro.approx import engine as engine_mod
    from repro.bdd import make_manager
    points = []
    seen = set()
    for name in engine_mod.engine_names():
        for cls in type(engine_mod.get_engine(name)).__mro__:
            if "synthesize_with_floor" in vars(cls) and cls not in seen:
                seen.add(cls)
                points.append(("approx", cls.__module__,
                               f"{cls.__qualname__}.synthesize_with_floor"))
    live = type(make_manager(0))
    for method in BDD_QUERIES:
        # The class whose definition a call on the live manager runs.
        cls = next(c for c in live.__mro__ if method in vars(c))
        points.append(("bdd", cls.__module__,
                       f"{cls.__qualname__}.{method}"))
    return points


def _patch_function(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` wherever repro imported it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap every entry point; returns the tracer recording them."""
    tracer = Tracer()
    # The flow package imports every layer, so every by-name binding
    # exists before the rebinding scan.
    importlib.import_module("repro.ced")
    for layer, module_name, qualname in (list(ENTRY_POINTS)
                                         + _dynamic_entry_points()):
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"{module_name}:{qualname}")
            continue
        before, after = HOOKS.get(qualname, (None, None))
        wrapper = tracer.wrap(layer, qualname, original, before, after)
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _patch_function(original, wrapper)
        tracer.wrapped.append(qualname)
    return tracer
