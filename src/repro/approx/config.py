"""Configuration for approximate logic synthesis.

The thresholds here are the paper's fine-grained area-overhead vs.
CED-coverage trade-off knobs (abstract: "provides fine-grained
trade-offs between area-power overhead and CED coverage").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.sim import MAX_EXHAUSTIVE_INPUTS

#: Error metrics understood by :class:`ErrorSpec` (Mrazek,
#: arXiv:2205.03267 nomenclature): error rate, mean error distance,
#: worst-case error.
ERROR_METRICS = ("er", "med", "wce")


class ConfigError(ValueError):
    """Structured configuration error raised at construction time.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; carries a machine-readable payload the CLI
    and serve layers surface as exit 2 / HTTP 400 respectively.
    """

    def __init__(self, message: str, *, field_name: str | None = None,
                 value=None):
        super().__init__(message)
        self.message = message
        self.field = field_name
        self.value = value

    def to_dict(self) -> dict:
        doc = {"error": "config", "message": self.message}
        if self.field is not None:
            doc["field"] = self.field
        if self.value is not None:
            doc["value"] = repr(self.value)
        return doc


@dataclass(frozen=True)
class ErrorSpec:
    """Error budget for error-constrained engines (e.g. ``resub``).

    ``metric`` selects the quantity to bound:

    * ``er`` — error rate: probability (uniform inputs) that any
      primary output differs from the exact circuit; ``bound`` is a
      fraction in (0, 1].
    * ``med`` — mean error distance of the output word read as an
      unsigned integer (outputs ordered as ``network.outputs``, LSB
      first); ``bound`` is a non-negative absolute value.
    * ``wce`` — worst-case error of the same output word; ``bound`` is
      a non-negative absolute value.

    ``exact_threshold`` caps the input-count up to which metrics are
    evaluated exhaustively on the compiled simulator (2^n vectors; at
    most :data:`~repro.sim.MAX_EXHAUSTIVE_INPUTS`); beyond it the
    evaluator uses exact BDD sweeps where the metric permits and
    Monte-Carlo upper bounds otherwise.
    """

    metric: str = ""
    bound: float = -1.0
    exact_threshold: int = 12

    def __post_init__(self):
        if not self.metric:
            if self.bound >= 0:
                raise ConfigError(
                    "error bound given but metric unset "
                    "(pick one of er|med|wce)",
                    field_name="error.metric", value=self.bound)
            raise ConfigError("error spec requires a metric (er|med|wce)",
                              field_name="error.metric", value=self.metric)
        if self.metric not in ERROR_METRICS:
            raise ConfigError(
                f"unknown error metric {self.metric!r} "
                f"(expected one of {', '.join(ERROR_METRICS)})",
                field_name="error.metric", value=self.metric)
        if not isinstance(self.bound, (int, float)) \
                or isinstance(self.bound, bool):
            raise ConfigError("error bound must be a number",
                              field_name="error.bound", value=self.bound)
        if self.bound < 0:
            raise ConfigError("error bound must be non-negative",
                              field_name="error.bound", value=self.bound)
        if self.metric == "er" and self.bound > 1.0:
            raise ConfigError("er bound is a probability in [0, 1]",
                              field_name="error.bound", value=self.bound)
        if not isinstance(self.exact_threshold, int) \
                or isinstance(self.exact_threshold, bool) \
                or self.exact_threshold < 0:
            raise ConfigError("exact_threshold must be a non-negative int",
                              field_name="error.exact_threshold",
                              value=self.exact_threshold)
        if self.exact_threshold > MAX_EXHAUSTIVE_INPUTS:
            raise ConfigError(
                "exact_threshold is at most "
                f"{MAX_EXHAUSTIVE_INPUTS} (exhaustive simulation "
                f"of 2^{self.exact_threshold} vectors)",
                field_name="error.exact_threshold",
                value=self.exact_threshold)

    @classmethod
    def from_value(cls, value) -> "ErrorSpec | None":
        """Coerce ``None`` / dict / ErrorSpec into an ErrorSpec."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(value) - known)
            if unknown:
                raise ConfigError(
                    f"unknown error-spec field(s): {', '.join(unknown)}",
                    field_name="error", value=unknown)
            return cls(**value)
        raise ConfigError("error spec must be a mapping or ErrorSpec",
                          field_name="error", value=value)

    def to_dict(self) -> dict:
        return {"metric": self.metric, "bound": self.bound,
                "exact_threshold": self.exact_threshold}


@dataclass
class ApproxConfig:
    """Knobs of the synthesis algorithm (paper Sec 2.1-2.2)."""

    # -- type assignment (Sec 2.1.1) -----------------------------------
    #: A fanin whose total local observability falls below this fraction
    #: of the most observable fanin gets a DC request (rule i).
    dc_threshold: float = 0.25
    #: Guard on rule (i): a DC request additionally requires that the
    #: cubes reading the fanin carry at most this share of the node's
    #: phase-SOP probability mass.  Dropping a fanin whose cubes hold
    #: most of the function would wreck the approximation percentage
    #: even when its observability looks small relative to a dominant
    #: sibling.
    dc_mass_limit: float = 0.3
    #: Ratio of 0- to 1-observability (or vice versa) beyond which the
    #: dominant direction is requested (rule ii); otherwise EX (rule iii).
    disparity_ratio: float = 4.0
    #: When the observability ratio is inconclusive (rule iii), break
    #: the tie by which literal phase of the fanin carries more cube
    #: mass in the requesting node's phase SOP, instead of falling
    #: straight to EX.  The paper's rule (iii) always answers EX; on
    #: networks with balanced signal probabilities that freezes most of
    #: the circuit exact, so this tiebreak is on by default and
    #: disabled in the paper-literal ablation.
    phase_aware_requests: bool = True
    #: Cube-mass ratio needed for the phase-aware tiebreak to pick a
    #: direction rather than EX.
    phase_tiebreak: float = 3.0
    #: The paper applies the observability request rules uniformly,
    #: regardless of the requesting node's own type; EX nodes therefore
    #: also hand out 0/1/DC requests and rely on the repair loop.
    #: Setting this makes EX nodes conservatively request EX instead
    #: (guaranteed-correct stage 1, far less reduction) — an ablation.
    conservative_ex: bool = False

    # -- stage 1: SOP reduction (Sec 2.1.2 + Sec 2.2) --------------------
    #: Reduction strategy for type-0/1 nodes:
    #: "conformance" applies exact cube selection against the fanin
    #: types (Sec 2.1.2 — provably correct, no repair needed);
    #: "significance" freely drops low-mass cubes (Sec 2.2 stage 1 —
    #: richer, repaired afterwards); "both" (default) selects
    #: conforming cubes first and then drops insignificant ones.
    stage1: str = "both"
    #: Drop a cube when its probability mass, relative to the node's
    #: phase-function probability, is below this threshold.  Higher
    #: values give smaller approximate circuits and lower coverage.
    cube_drop_threshold: float = 0.02
    #: Replace DC-typed nodes by their most likely constant value.
    #: DC means neither minterm space is essential; collapsing the node
    #: lets the whole cone underneath it be swept away.
    collapse_dc: bool = True
    #: Apply stage-1 significance reduction to EX nodes too (the paper
    #: reduces every node; disabling avoids repair churn).
    reduce_ex_nodes: bool = True

    # -- correctness checking / repair (Sec 2.2) ------------------------
    #: "bdd" = exact implication checks on global BDDs; "sat" = exact
    #: checks with the CDCL solver (the paper's named alternative);
    #: "sim" = bit-parallel random simulation; "auto" = BDD with
    #: fallback to simulation when the node budget is exceeded.
    check: str = "auto"
    #: Node budget for the shared global-BDD manager in "auto"/"bdd".
    bdd_node_budget: int = 500_000
    #: Words (x64 vectors) for simulation-based checking.
    sim_check_words: int = 64
    #: Attempt ODC-based cube selection before exact selection in repair.
    odc_in_repair: bool = True
    #: Safety bound on check-repair rounds before restoring exact cones.
    max_repair_rounds: int = 64

    # -- engine selection (repro.approx.engine) --------------------------
    #: Registered synthesis engine.  "cube" is the paper's iterative
    #: cube-selection flow (the default, bit-identical to the seed
    #: behaviour); "resub" is the error-constrained resubstitution
    #: engine and requires ``error`` to be set.
    engine: str = "cube"
    #: Error budget for error-constrained engines; ``None`` for
    #: implication-exact engines.  Dicts are coerced to ErrorSpec so
    #: ``ApproxConfig(**json_config)`` round-trips.
    error: ErrorSpec | None = field(default=None)

    # -- shared ----------------------------------------------------------
    #: Words (x64 vectors) for signal-probability estimation.
    prob_words: int = 32
    #: Seed for every random choice in the synthesis flow.
    seed: int = 2008
    #: Opt-in static-verification guard (repro.lint) on the result:
    #: "off" skips it, "warn" attaches the lint report to the result,
    #: "strict" additionally raises LintError on error diagnostics.
    lint_level: str = "off"

    def __post_init__(self):
        if self.check not in ("bdd", "sat", "sim", "auto"):
            raise ValueError(f"unknown check method {self.check!r}")
        if self.lint_level not in ("off", "warn", "strict"):
            raise ValueError(f"unknown lint level {self.lint_level!r}")
        if self.stage1 not in ("conformance", "significance", "both"):
            raise ValueError(f"unknown stage1 strategy {self.stage1!r}")
        if not 0.0 <= self.cube_drop_threshold < 1.0:
            raise ValueError("cube_drop_threshold must be in [0, 1)")
        if self.disparity_ratio < 1.0:
            raise ValueError("disparity_ratio must be >= 1")
        self.error = ErrorSpec.from_value(self.error)
        from .engine import engine_names
        if self.engine not in engine_names():
            raise ConfigError(
                f"unknown engine {self.engine!r} "
                f"(registered: {', '.join(engine_names())})",
                field_name="engine", value=self.engine)
        if self.engine == "resub" and self.error is None:
            raise ConfigError(
                "engine 'resub' is error-constrained and requires an "
                "error spec (metric + bound)", field_name="error")
        if self.engine == "cube" and self.error is not None:
            raise ConfigError(
                "engine 'cube' is implication-exact and takes no error "
                "spec; use engine='resub' for error-constrained "
                "synthesis", field_name="error")

    @classmethod
    def from_dict(cls, values: dict) -> "ApproxConfig":
        """Strict constructor: unknown keys raise :class:`ConfigError`."""
        if not isinstance(values, dict):
            raise ConfigError("config must be a mapping", value=values)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(
                f"unknown config field(s): {', '.join(unknown)}",
                field_name=unknown[0], value=unknown)
        return cls(**values)
