"""The pass pipeline: ``Pass`` protocol, ``FlowContext``, ``PassManager``.

A flow is a list of named passes with declared artifact dependencies
(``requires``/``provides``) run over a shared :class:`FlowContext`.
The manager checks the declarations up front (a pass can only read
artifacts some earlier pass provides), times every pass, attributes
analysis-cache hit/miss counters to it, and — when given a checkpoint
store — persists each pass's declared checkpointable outputs under a
content-addressed key chain so a killed run resumes mid-pipeline.

The checkpoint key of pass *i* hashes the flow token (circuit content +
canonical parameters), the pass name, a fingerprint of the pass class's
source, and the key of pass *i-1* — a Merkle-style chain, so editing an
upstream pass (or its inputs) invalidates every downstream checkpoint.
Any object with ``get(key, default)`` (``default`` on a miss) and
``put(key, value, meta=...)`` works as a store; sweeps pass the lab's
content-addressed :class:`~repro.lab.cache.ArtifactStore`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time

from .analysis import AnalysisContext
from .trace import FlowTrace, PassRecord

#: Sentinel distinguishing "checkpoint miss" from a stored ``None``.
_MISS = object()

#: Bump to invalidate every flow checkpoint after a change the per-pass
#: source fingerprint cannot see (e.g. an algorithm edit underneath).
CHECKPOINT_SCHEMA = 1


class FlowError(RuntimeError):
    """Mis-declared pipeline (unknown requirement, duplicate provide)."""


class Pass:
    """One named stage of a flow pipeline.

    Subclasses set ``name``, declare the artifact names they read
    (``requires``) and write (``provides``), and implement
    :meth:`run`, returning a dict with exactly the provided artifacts.
    ``checkpoint`` lists the provided artifacts worth persisting; a
    pass is resumable only when it checkpoints everything it provides.
    Pass-specific counters go into ``record.stats`` via the record the
    manager hands to :meth:`run`.
    """

    name: str = "?"
    requires: tuple = ()
    provides: tuple = ()
    checkpoint: tuple = ()

    def run(self, ctx: "FlowContext", record: PassRecord) -> dict:
        raise NotImplementedError

    @property
    def resumable(self) -> bool:
        return bool(self.provides) and \
            set(self.checkpoint) == set(self.provides)


class FlowContext:
    """Shared state the passes of one flow run communicate through."""

    def __init__(self, network, params: dict | None = None,
                 analysis: AnalysisContext | None = None,
                 budget=None):
        self.network = network
        #: Immutable-by-convention run parameters (words, seed, ...).
        self.params = dict(params or {})
        self.analysis = analysis if analysis is not None \
            else AnalysisContext()
        #: Optional :class:`repro.guard.Budget` governing this run;
        #: passes that can degrade gracefully consult it.
        self.budget = budget
        #: Artifacts produced so far, by declared name.
        self.artifacts: dict[str, object] = {}
        self.trace = FlowTrace()

    def __getitem__(self, name: str):
        return self.artifacts[name]

    def __contains__(self, name: str) -> bool:
        return name in self.artifacts


def pass_fingerprint(pass_obj: Pass) -> str:
    """Digest of a pass implementation's identity and source.

    Computed once per pass class per process: a loaded class's code
    cannot change, so warm flows skip ``inspect.getsource`` (which
    dominated fully resumed runs) and always hash the code that runs,
    not a source file edited on disk since.
    """
    return _class_fingerprint(type(pass_obj))


@functools.lru_cache(maxsize=None)
def _class_fingerprint(cls: type) -> str:
    ident = f"{cls.__module__}.{cls.__qualname__}"
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError):
        source = ""
    payload = f"schema={CHECKPOINT_SCHEMA}\n{ident}\n{source}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class PassManager:
    """Runs a pass list over a context, tracing and checkpointing."""

    def __init__(self, passes, store=None, token: str | None = None,
                 on_record=None):
        self.passes = list(passes)
        #: Checkpoint store (``get``/``put``), or None.
        self.store = store if token is not None else None
        #: Content token of the flow's inputs; chains into every key.
        self.token = token
        #: Called with each completed :class:`PassRecord` right after it
        #: is added to the trace — the live-progress hook the serve
        #: layer streams from.  Observer only: exceptions propagate.
        self.on_record = on_record
        self._check_declarations()

    def _check_declarations(self) -> None:
        provided: set[str] = set()
        for pass_obj in self.passes:
            for req in pass_obj.requires:
                if req not in provided:
                    raise FlowError(
                        f"pass {pass_obj.name!r} requires {req!r}, "
                        "which no earlier pass provides")
            for out in pass_obj.provides:
                if out in provided:
                    raise FlowError(
                        f"pass {pass_obj.name!r} re-provides {out!r}")
                provided.add(out)

    def run(self, ctx: FlowContext) -> FlowTrace:
        self._active_analysis = ctx.analysis
        chain_key = ""
        for pass_obj in self.passes:
            if self.store is not None:      # keys only address a store
                chain_key = self._checkpoint_key(pass_obj, chain_key)
            record = PassRecord(name=pass_obj.name)
            before = ctx.analysis.snapshot()
            start = time.perf_counter()
            outputs = self._load_checkpoint(pass_obj, chain_key)
            if outputs is not _MISS:
                record.status = "resumed"
            else:
                outputs = pass_obj.run(ctx, record)
                missing = set(pass_obj.provides) - set(outputs)
                if missing:
                    raise FlowError(
                        f"pass {pass_obj.name!r} did not provide "
                        f"{sorted(missing)}")
                self._save_checkpoint(pass_obj, chain_key, outputs)
            record.wall_time_s = time.perf_counter() - start
            record.cache = AnalysisContext.delta(
                before, ctx.analysis.snapshot())
            nodes = ctx.analysis.bdd_nodes()
            if nodes is not None:
                record.stats.setdefault("bdd_nodes", nodes)
            ctx.artifacts.update(outputs)
            ctx.trace.add(record)
            if self.on_record is not None:
                self.on_record(record)
        return ctx.trace

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_key(self, pass_obj: Pass, prev_key: str) -> str:
        payload = "\n".join([
            "flow-pass",
            f"schema={CHECKPOINT_SCHEMA}",
            f"token={self.token or ''}",
            f"pass={pass_obj.name}",
            f"code={pass_fingerprint(pass_obj)}",
            f"prev={prev_key}",
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def _load_checkpoint(self, pass_obj: Pass, key: str):
        if self.store is None or not pass_obj.resumable:
            return _MISS
        outputs = self.store.get(key, _MISS)
        if not isinstance(outputs, dict) or \
                set(outputs) != set(pass_obj.provides):
            return _MISS
        # A resumed pass is a cache hit for the warm-run accounting:
        # the work was served from the store instead of recomputed.
        self._count_checkpoint("hits")
        return outputs

    def _save_checkpoint(self, pass_obj: Pass, key: str,
                         outputs: dict) -> None:
        if self.store is None or not pass_obj.resumable:
            return
        self._count_checkpoint("misses")
        self.store.put(key, dict(outputs),
                       meta={"pass": pass_obj.name,
                             "token": self.token or ""})

    def _count_checkpoint(self, bucket: str) -> None:
        analysis = getattr(self, "_active_analysis", None)
        if analysis is not None:
            analysis.stats["checkpoint"][bucket] += 1


def flow_token(content: str, params: dict) -> str:
    """Content token of a flow's inputs: circuit text + parameters."""
    import json
    canonical = json.dumps(params, sort_keys=True, default=str)
    payload = f"flow-token\n{canonical}\n{content}"
    return hashlib.sha256(payload.encode()).hexdigest()
