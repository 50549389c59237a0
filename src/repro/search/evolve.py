"""Budget-governed, resumable (mu+lambda) evolutionary checker search.

The paper's flow synthesizes one approximate check-symbol generator
per circuit from reliability analysis.  This module treats that
checker as the seed of a population and searches its neighborhood for
strictly better trade-offs: every generation mutates the fittest
candidates (:mod:`repro.search.mutate`), evaluates the offspring as a
:mod:`repro.lab` job grid through the lab's one scheduling loop, in any
mode (``serial``, ``local``, ``workqueue``), with identical
results, and keeps the top ``population`` of parents +
children (elitism: the paper-flow baseline can only ever be improved
upon, never lost, so the search result is always at least as good as
the paper's checker).

Determinism and resumability come from the lab's own machinery: child
``i`` of generation ``g`` mutates with the derived seed
``derive_seed(seed, "g{g}/c{i}")``, candidate evaluations are
content-addressed in the artifact store (re-running a generation after
a SIGTERM hits cache), and the search state — population, history,
generation counter — is written atomically per generation to a JSON
file keyed by the config digest, so invoking the same search again
continues where it stopped.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.lab import (ArtifactStore, Job, JobGraph, LabRunner,
                       atomic_write, derive_seed)
from repro.network import parse_blif, write_blif

from .mutate import mutate_network
from .tasks import baseline_task, evaluate_candidate_task

__all__ = ["SearchConfig", "SearchResult", "Candidate", "run_search"]


@dataclass
class SearchConfig:
    """Knobs of one search; the digest keys its resumable state."""

    circuit: str = "tiny"
    table: int = 2
    words: int = 2
    seed: int = 2008
    generations: int = 4
    population: int = 4          # mu: survivors per generation
    offspring: int = 8           # lambda: mutants per generation
    moves_per_child: int = 1     # mutation moves per offspring
    #: Candidates above baseline area + slack gates are disqualified.
    area_slack: int = 0
    #: Wall-clock budget in seconds; the search stops after the first
    #: generation that exceeds it (state is saved, resume continues).
    budget_s: "float | None" = None
    backend: "str | None" = None
    workers: "int | str | None" = None
    state_dir: "str | Path" = ".search_state"
    cache_dir: "str | Path | None" = ".lab_cache"
    results_dir: "str | Path | None" = "results"

    def digest(self) -> str:
        """Identity of the search trajectory (resume key).

        Budget and execution knobs (backend, workers, directories) are
        excluded: they change how fast the search runs, never which
        candidates it visits.
        """
        payload = {k: v for k, v in asdict(self).items()
                   if k in ("circuit", "table", "words", "seed",
                            "generations", "population", "offspring",
                            "moves_per_child", "area_slack")}
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class Candidate:
    """One member of the population with its measured record."""

    blif: str
    origin: str                  # "baseline" or e.g. "g2/c5:cube_add@n3"
    area: int = 0
    coverage: float = 0.0
    false_alarms: int = 0
    golden_invalid: int = 0

    def record(self) -> dict[str, Any]:
        doc = asdict(self)
        doc.pop("blif")
        return doc


@dataclass
class SearchResult:
    """Outcome of :func:`run_search`."""

    config: SearchConfig
    best: Candidate
    baseline: Candidate
    generations_run: int
    wall_time_s: float
    history: list[dict[str, Any]] = field(default_factory=list)
    state_path: "Path | None" = None

    @property
    def improved(self) -> bool:
        return (self.best.coverage, -self.best.area) > \
            (self.baseline.coverage, -self.baseline.area)

    def summary(self) -> dict[str, Any]:
        return {
            "circuit": self.config.circuit,
            "generations_run": self.generations_run,
            "baseline": self.baseline.record(),
            "best": self.best.record(),
            "best_origin": self.best.origin,
            "improved": self.improved,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _fitness(candidate: Candidate, baseline_area: int, slack: int
             ) -> tuple:
    """Sort key, descending: qualified > coverage > smaller area.

    A candidate qualifies only if it raises no false alarms, respects
    the one-sided approximation contract (``golden_invalid == 0``),
    and fits the area budget.  Disqualified candidates still rank
    among themselves (by coverage) so a population of misfits keeps
    evolutionary pressure, but they can never displace a qualified
    one.
    """
    qualified = (candidate.false_alarms == 0
                 and candidate.golden_invalid == 0
                 and candidate.area <= baseline_area + slack)
    return (1 if qualified else 0, candidate.coverage, -candidate.area)


def _state_path(config: SearchConfig) -> Path:
    return Path(config.state_dir) / f"search-{config.digest()}.json"


def _save_state(path: Path, doc: dict[str, Any]) -> None:
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True)
                        + "\n").encode())


def _load_state(path: Path) -> "dict[str, Any] | None":
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _runner(config: SearchConfig, log) -> LabRunner:
    cache = ArtifactStore(config.cache_dir) \
        if config.cache_dir is not None else None
    return LabRunner(workers=config.workers, backend=config.backend,
                     cache=cache, results_dir=config.results_dir,
                     log=log)


def run_search(config: SearchConfig, *, log=None) -> SearchResult:
    """Run (or resume) the evolutionary search ``config`` describes."""
    start = time.perf_counter()
    state_path = _state_path(config)
    state = _load_state(state_path)

    def emit(message: str) -> None:
        if log is not None:
            log(message)

    # -- generation 0: the paper-flow baseline seeds the population ----
    if state is None:
        runner = _runner(config, log)
        run = runner.run(JobGraph([
            Job(name="baseline", fn=baseline_task,
                params={"circuit": config.circuit,
                        "table": config.table,
                        "words": config.words,
                        "seed": config.seed}),
        ], root_seed=config.seed), run_id=None)
        base = run.value("baseline")
        baseline = Candidate(blif=base["blif"], origin="baseline",
                             area=int(base["area"]),
                             coverage=float(base["coverage"]),
                             false_alarms=int(base["false_alarms"]),
                             golden_invalid=int(base["golden_invalid"]))
        state = {
            "digest": config.digest(),
            "generation": 0,
            "directions": base["directions"],
            "baseline": asdict(baseline),
            "population": [asdict(baseline)],
            "history": [{"generation": 0, "best": baseline.record(),
                         "origin": "baseline"}],
        }
        _save_state(state_path, state)
        emit(f"[search] baseline: coverage="
             f"{baseline.coverage:.2f}% area={baseline.area}")

    baseline = Candidate(**state["baseline"])
    directions = {po: int(d)
                  for po, d in state["directions"].items()}
    population = [Candidate(**doc) for doc in state["population"]]
    generation = int(state["generation"])
    history: list[dict[str, Any]] = list(state["history"])

    while generation < config.generations:
        if config.budget_s is not None \
                and time.perf_counter() - start >= config.budget_s:
            emit(f"[search] budget exhausted after generation "
                 f"{generation}; state saved for resume")
            break
        generation += 1
        # -- breed: child i mutates parent i mod mu, derived seed ------
        jobs: list[Job] = []
        origins: dict[str, str] = {}
        blifs: dict[str, str] = {}
        for index in range(config.offspring):
            parent = population[index % len(population)]
            child_seed = derive_seed(config.seed,
                                     f"g{generation}/c{index}")
            rng = random.Random(child_seed)
            mutant, moves = mutate_network(parse_blif(parent.blif),
                                           rng,
                                           config.moves_per_child)
            name = f"g{generation}-c{index}"
            blif = write_blif(mutant)
            blifs[name] = blif
            origins[name] = (f"g{generation}/c{index}:"
                             f"{'+'.join(moves) or 'noop'}")
            jobs.append(Job(
                name=name, fn=evaluate_candidate_task,
                params={"circuit": config.circuit, "blif": blif,
                        "directions": directions,
                        "table": config.table,
                        "words": config.words,
                        "seed": config.seed}))
        # -- evaluate: one lab grid per generation ---------------------
        runner = _runner(config, log)
        run = runner.run(JobGraph(jobs, root_seed=derive_seed(
            config.seed, f"g{generation}")),
            run_id=f"search-{config.digest()}-g{generation}")
        children: list[Candidate] = []
        for name, blif in blifs.items():
            result = run.results.get(name)
            if result is None or not result.ok:
                continue             # failed evaluation: not a member
            doc = result.value
            children.append(Candidate(
                blif=blif, origin=origins[name],
                area=int(doc["area"]),
                coverage=float(doc["coverage"]),
                false_alarms=int(doc["false_alarms"]),
                golden_invalid=int(doc["golden_invalid"])))
        # -- select: (mu + lambda) with elitism ------------------------
        pool = population + children
        pool.sort(key=lambda c: _fitness(c, baseline.area,
                                         config.area_slack),
                  reverse=True)
        population = pool[:config.population]
        best = population[0]
        history.append({"generation": generation,
                        "best": best.record(),
                        "origin": best.origin,
                        "evaluated": len(children)})
        emit(f"[search] generation {generation}: best "
             f"coverage={best.coverage:.2f}% area={best.area} "
             f"({best.origin})")
        state = {
            "digest": config.digest(),
            "generation": generation,
            "directions": directions,
            "baseline": asdict(baseline),
            "population": [asdict(c) for c in population],
            "history": history,
        }
        _save_state(state_path, state)

    return SearchResult(
        config=config, best=population[0], baseline=baseline,
        generations_run=generation,
        wall_time_s=time.perf_counter() - start,
        history=history, state_path=state_path)
