"""Reduced ordered BDDs: manager, ISOP extraction, node budgets.

:class:`BddManager` is the one engine: dict unique table and operation
cache over append-only node lists, with dedicated ``and_`` / ``or_`` /
``not_`` recursions for the operations global-BDD builds spend their
time in.  :func:`make_manager` is the constructor every caller resolves
the manager through.
"""

from .manager import BddManager, BddOverflowError
from .isop import cover_from_bdd, isop


def make_manager(num_vars: int = 0,
                 max_nodes: "int | None" = None) -> BddManager:
    """Construct a BDD manager over ``num_vars`` variables."""
    return BddManager(num_vars, max_nodes=max_nodes)


__all__ = ["BddManager", "BddOverflowError", "cover_from_bdd", "isop",
           "make_manager"]
