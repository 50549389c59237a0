"""Resource budgets and structured degradation reports.

A :class:`Budget` is the single carrier for every resource limit a flow
run is allowed to spend: a wall-clock deadline, a BDD node cap, a SAT
conflict cap, and a repair-iteration cap.  It is threaded through
:class:`~repro.flow.FlowContext` / :class:`~repro.flow.AnalysisContext`
and enforced *cooperatively* — the BDD manager, the SAT solver, the
two-level minimizer, and the repair loop each poll it at their natural
check points and degrade instead of hanging.

The companion :class:`BudgetReport` records what the degradation ladder
actually did (paper Sec 2.2: the implication check falls from global
BDDs to incremental SAT to exact per-node conformance selection): which
engine each rung used, why a rung was abandoned, what work was skipped,
and which chaos faults were injected.  The report rides along in
:class:`~repro.flow.FlowTrace` documents and ``CedFlowResult``s, so a
budget hit is a structured outcome rather than an exception.

This module imports only the standard library: every engine layer
(``repro.bdd``, ``repro.sat``, ``repro.cubes``, ``repro.approx``) may
depend on it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: Bump when the BudgetReport document layout changes incompatibly.
BUDGET_REPORT_SCHEMA = 1

#: Engines a ladder rung may name, in degradation order.  ``static``
#: is no longer emitted (the repro.analyze discharge rung left the
#: synthesis path) but stays valid so stored reports still validate.
LADDER_ENGINES = ("static", "bdd", "sat", "sim", "conformance")

#: Outcomes a ladder rung may record.  ``assisted`` (the former static
#: rung's summary of the queries it answered) is no longer emitted but
#: stays valid for stored reports; it never counts as degradation.
RUNG_OUTCOMES = ("selected", "assisted", "overflow", "exhausted",
                 "deadline")


class BudgetExceeded(RuntimeError):
    """A cooperative resource budget was violated.

    Carries the :class:`Budget` (when known) so callers can surface its
    :class:`BudgetReport` in the structured error they emit.
    """

    def __init__(self, message: str, budget: "Budget | None" = None):
        super().__init__(message)
        self.budget = budget

    def to_dict(self) -> dict:
        """Machine-readable error record (for CLI/JSON surfaces)."""
        doc = {"error": type(self).__name__, "message": str(self)}
        if self.budget is not None:
            doc["budget"] = self.budget.describe()
            doc["budget_report"] = self.budget.report.to_dict()
        return doc


class DeadlineExceeded(BudgetExceeded):
    """The budget's wall-clock deadline has passed."""


@dataclass
class BudgetReport:
    """What a governed run consumed, skipped, and fell back to."""

    #: Engine that produced the final answer (last ``selected`` rung).
    engine: str | None = None
    #: Ordered ladder events: ``{"engine", "outcome", ...detail}``.
    ladder: list = field(default_factory=list)
    #: Resources that ran out: ``{"resource", ...detail}``.
    exhausted: list = field(default_factory=list)
    #: Work skipped to stay inside the budget.
    skipped: list = field(default_factory=list)
    #: Chaos fault kinds injected into this run.
    chaos: list = field(default_factory=list)

    def rung(self, engine: str, outcome: str, **detail) -> dict:
        """Record one ladder step; ``selected`` rungs set the engine."""
        event = {"engine": engine, "outcome": outcome, **detail}
        self.ladder.append(event)
        if outcome == "selected":
            self.engine = engine
        return event

    def exhaust(self, resource: str, **detail) -> None:
        self.exhausted.append({"resource": resource, **detail})

    def skip(self, what: str, reason: str = "") -> None:
        self.skipped.append({"what": what, "reason": reason})

    @property
    def degraded(self) -> bool:
        """True when anything beyond the first-choice path happened."""
        return bool(self.exhausted or self.skipped
                    or any(e["outcome"] not in ("selected", "assisted")
                           for e in self.ladder))

    def to_dict(self) -> dict:
        return {
            "schema": BUDGET_REPORT_SCHEMA,
            "engine": self.engine,
            "degraded": self.degraded,
            "ladder": [dict(e) for e in self.ladder],
            "exhausted": [dict(e) for e in self.exhausted],
            "skipped": [dict(e) for e in self.skipped],
            "chaos": list(self.chaos),
        }


def validate_budget_report(doc) -> list[str]:
    """Schema problems of a BudgetReport document (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"budget report is {type(doc).__name__}, expected dict"]
    if doc.get("schema") != BUDGET_REPORT_SCHEMA:
        errors.append(f"budget report schema is {doc.get('schema')!r}, "
                      f"expected {BUDGET_REPORT_SCHEMA}")
    engine = doc.get("engine")
    if engine is not None and engine not in LADDER_ENGINES:
        errors.append(f"unknown engine {engine!r}")
    if not isinstance(doc.get("degraded"), bool):
        errors.append("degraded missing or non-boolean")
    for key in ("ladder", "exhausted", "skipped", "chaos"):
        if not isinstance(doc.get(key), list):
            errors.append(f"{key} missing or not a list")
    for i, event in enumerate(doc.get("ladder") or []):
        where = f"ladder[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where} is not a dict")
            continue
        if event.get("engine") not in LADDER_ENGINES:
            errors.append(f"{where}: unknown engine "
                          f"{event.get('engine')!r}")
        if event.get("outcome") not in RUNG_OUTCOMES:
            errors.append(f"{where}: unknown outcome "
                          f"{event.get('outcome')!r}")
    for i, event in enumerate(doc.get("exhausted") or []):
        if not isinstance(event, dict) or \
                not isinstance(event.get("resource"), str):
            errors.append(f"exhausted[{i}]: missing resource name")
    return errors


@dataclass
class Budget:
    """Cooperative resource limits for one flow run.

    Every field is optional; ``None`` means unlimited.  ``deadline_s``
    counts wall-clock seconds from :meth:`start` (idempotent; the flow
    entry point calls it, and deadline queries auto-start so a bare
    Budget still behaves sensibly).  The caps merge with per-call
    defaults via :meth:`bdd_cap` / :meth:`sat_cap` / :meth:`repair_cap`
    — the effective limit is the minimum of the two.
    """

    deadline_s: float | None = None
    bdd_node_cap: int | None = None
    sat_conflict_cap: int | None = None
    repair_round_cap: int | None = None
    report: BudgetReport = field(default_factory=BudgetReport)
    _started: float | None = field(default=None, repr=False)

    def start(self) -> "Budget":
        """Start the deadline clock (first call wins)."""
        if self._started is None:
            self._started = time.monotonic()
        return self

    @property
    def started(self) -> bool:
        return self._started is not None

    def elapsed_s(self) -> float:
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started

    def remaining_s(self) -> float | None:
        """Seconds left before the deadline, or None when unlimited."""
        if self.deadline_s is None:
            return None
        self.start()
        return self.deadline_s - self.elapsed_s()

    def deadline(self) -> float | None:
        """The deadline as an absolute ``time.monotonic()`` timestamp."""
        if self.deadline_s is None:
            return None
        self.start()
        return self._started + self.deadline_s

    @property
    def expired(self) -> bool:
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0.0

    def check_deadline(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when past the deadline."""
        if self.expired:
            suffix = f" ({where})" if where else ""
            raise DeadlineExceeded(
                f"deadline of {self.deadline_s:g}s exceeded after "
                f"{self.elapsed_s():.2f}s{suffix}", budget=self)

    # -- cap merging -----------------------------------------------------
    @staticmethod
    def _merge(cap: int | None, default: int | None) -> int | None:
        if cap is None:
            return default
        if default is None:
            return cap
        return min(cap, default)

    def bdd_cap(self, default: int | None = None) -> int | None:
        return self._merge(self.bdd_node_cap, default)

    def sat_cap(self, default: int | None = None) -> int | None:
        return self._merge(self.sat_conflict_cap, default)

    def repair_cap(self, default: int | None = None) -> int | None:
        return self._merge(self.repair_round_cap, default)

    def describe(self) -> dict:
        """The configured limits as a plain JSON-safe dict."""
        return {
            "deadline_s": self.deadline_s,
            "bdd_node_cap": self.bdd_node_cap,
            "sat_conflict_cap": self.sat_conflict_cap,
            "repair_round_cap": self.repair_round_cap,
        }
