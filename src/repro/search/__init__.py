"""repro.search — evolutionary search over checker candidates.

Searches the neighborhood of the paper-flow approximate checker for
better coverage/area trade-offs, one :mod:`repro.lab` job grid per
generation (so it runs on any lab execution backend, with caching
and manifests for free).  Elitism seeds the population with the
paper's checker, so the search never returns anything worse than the
flow it starts from.
"""

from .evolve import (Candidate, SearchConfig,  # noqa: F401
                     SearchResult, run_search)
from .mutate import MUTATION_OPS, mutate_network  # noqa: F401
from .tasks import baseline_task, evaluate_candidate_task  # noqa: F401

__all__ = [
    "SearchConfig", "SearchResult", "Candidate", "run_search",
    "MUTATION_OPS", "mutate_network",
    "baseline_task", "evaluate_candidate_task",
]
