"""Nodes of the technology-independent multi-level network.

Each node carries a *local* Boolean function — an SOP cover whose variable
``i`` is the node's ``i``-th fanin (paper Sec 2.1: "the local Boolean
function of nodes in the network can be expressed as a sum-of-products
expression in terms of the local fanin nodes").  The *global* function of
a node (over primary inputs) is never stored; it is derived on demand by
:mod:`repro.network.globalbdd` or by simulation.
"""

from __future__ import annotations

from repro.cubes import Cover


class Node:
    """A named internal node with fanins and a local SOP cover."""

    __slots__ = ("name", "fanins", "cover")

    def __init__(self, name: str, fanins: list[str], cover: Cover):
        if cover.n != len(fanins):
            raise ValueError(
                f"node {name!r}: cover has {cover.n} variables but "
                f"{len(fanins)} fanins")
        if len(set(fanins)) != len(fanins):
            raise ValueError(f"node {name!r}: duplicate fanin")
        self.name = name
        self.fanins = list(fanins)
        self.cover = cover

    @classmethod
    def _trusted(cls, name: str, fanins: list[str],
                 cover: Cover) -> "Node":
        """A node from parts already validated (the BLIF parser, the
        checkpoint codec); ``fanins`` is adopted, not copied."""
        node = cls.__new__(cls)
        node.name = name
        node.fanins = fanins
        node.cover = cover
        return node

    @property
    def is_constant(self) -> bool:
        return not self.fanins

    def constant_value(self) -> bool | None:
        """The node's value when it is constant, else None.

        A node is constant when it has no fanins, or when its cover is
        syntactically the zero cover or a tautology cube.
        """
        if not self.fanins:
            return not self.cover.is_zero()
        if self.cover.is_zero():
            return False
        if any(c.num_literals == 0 for c in self.cover.cubes):
            return True
        return None

    def fanin_index(self, name: str) -> int:
        return self.fanins.index(name)

    def copy(self) -> "Node":
        return Node(self.name, list(self.fanins), self.cover.copy())

    def __repr__(self) -> str:
        return (f"Node({self.name!r}, fanins={self.fanins}, "
                f"cover={self.cover.to_strings()})")
