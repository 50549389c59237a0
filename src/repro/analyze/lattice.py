"""Abstract-domain lattices for the dataflow framework.

Every analysis in :mod:`repro.analyze` interprets circuit signals over
a join-semilattice: ``bottom`` is "no information yet" (unreached),
``top`` is "anything" (no useful fact), and :meth:`Lattice.join`
combines facts flowing together.  Soundness of every client analysis
reduces to its transfer functions being monotone over these orders, so
the lattices live here, small and separately testable.

The concrete domains:

* :class:`FlatLattice` — bottom < {each value} < top; used for
  constant propagation (values 0/1) and structural hashes.
* :class:`IntervalLattice` — sub-intervals of [0, 1] ordered by
  containment; used for signal-probability bounds.
* :class:`BitsetPairLattice` — pairs of bitmasks ordered pointwise by
  subset; used for polarity/unateness (may-depend-positively,
  may-depend-negatively masks over PI indices) and for observability
  masks over PO indices.
"""

from __future__ import annotations


class _Sentinel:
    """Singleton lattice extremes with a readable repr."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        return (_resolve_sentinel, (self._name,))


#: "Unreached / no information" — below every other element.
BOTTOM = _Sentinel("BOTTOM")
#: "Could be anything" — above every other element.
TOP = _Sentinel("TOP")


def _resolve_sentinel(name: str) -> _Sentinel:
    return TOP if name == "TOP" else BOTTOM


class Lattice:
    """A join-semilattice over opaque, equality-comparable values."""

    @property
    def bottom(self):
        raise NotImplementedError

    @property
    def top(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """Partial order: ``a`` carries at least the information of ``b``."""
        return self.join(a, b) == b


class FlatLattice(Lattice):
    """bottom < v < top for every distinct value ``v``.

    Joining two distinct proper values loses everything (top): the
    domain has no structure between single facts and no-fact.
    """

    @property
    def bottom(self):
        return BOTTOM

    @property
    def top(self):
        return TOP

    def join(self, a, b):
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        if a is TOP or b is TOP:
            return TOP
        return a if a == b else TOP

    def leq(self, a, b) -> bool:
        return a is BOTTOM or b is TOP or a == b


class IntervalLattice(Lattice):
    """Closed sub-intervals of [0, 1], ordered by containment.

    Values are ``(lo, hi)`` float pairs with ``lo <= hi``; ``BOTTOM``
    stands in for the empty interval.  Join is the convex hull.
    """

    @property
    def bottom(self):
        return BOTTOM

    @property
    def top(self):
        return (0.0, 1.0)

    def join(self, a, b):
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        return (min(a[0], b[0]), max(a[1], b[1]))

    def leq(self, a, b) -> bool:
        if a is BOTTOM:
            return True
        if b is BOTTOM:
            return False
        return b[0] <= a[0] and a[1] <= b[1]


class BitsetPairLattice(Lattice):
    """Pairs of integer bitsets ordered pointwise by subset.

    ``width`` bounds the universe (e.g. the PI count for unateness
    masks, the PO count for observability masks); ``top`` is the pair
    of full masks.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("bitset width must be non-negative")
        self.width = width
        self._full = (1 << width) - 1

    @property
    def bottom(self):
        return (0, 0)

    @property
    def top(self):
        return (self._full, self._full)

    def join(self, a, b):
        return (a[0] | b[0], a[1] | b[1])

    def leq(self, a, b) -> bool:
        return (a[0] | b[0]) == b[0] and (a[1] | b[1]) == b[1]
