"""Cubes in positional notation over a fixed variable count.

A cube is a conjunction of literals over variables ``x0 .. x(n-1)``.  Each
variable appears either as a positive literal (the cube requires the
variable to be 1), a negative literal (requires 0), or not at all (don't
care).  Cubes are the atoms of two-level sum-of-products (SOP) covers and
of the cube-selection algorithms in the paper (Sec 2.1.2).

The representation uses two integer bitmasks, ``ones`` and ``zeros``:
bit ``i`` of ``ones`` is set when the cube contains the positive literal
``xi``; bit ``i`` of ``zeros`` when it contains the negative literal
``!xi``.  The masks are disjoint.  Integers-as-bitsets keep every cube
operation a handful of machine-word operations for n <= 63 while still
supporting arbitrary variable counts.
"""

from __future__ import annotations

import functools
from typing import Iterator


class Cube:
    """An immutable product term over ``n`` variables."""

    __slots__ = ("n", "ones", "zeros")

    def __init__(self, n: int, ones: int = 0, zeros: int = 0):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        mask = (1 << n) - 1
        if ones & ~mask or zeros & ~mask:
            raise ValueError("literal mask references variables beyond n")
        if ones & zeros:
            raise ValueError("cube has contradictory literals (empty cube); "
                             "represent the empty function as an empty cover")
        _set_n(self, n)
        _set_ones(self, ones)
        _set_zeros(self, zeros)

    def __setattr__(self, name, value):
        raise AttributeError("Cube is immutable")

    def __reduce__(self):
        # Default pickling restores slots via __setattr__, which the
        # immutability guard blocks; rebuild through __init__ instead.
        return (Cube, (self.n, self.ones, self.zeros))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, n: int) -> "Cube":
        """The universal cube (no literals, covers all 2^n minterms)."""
        return cls(n)

    @classmethod
    def _trusted(cls, n: int, ones: int, zeros: int) -> "Cube":
        """A cube from masks already known to be valid (skips checks)."""
        cube = object.__new__(cls)
        _set_n(cube, n)
        _set_ones(cube, ones)
        _set_zeros(cube, zeros)
        return cube

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse positional notation, e.g. ``"1-0"`` = x0 & !x2."""
        if len(text) > _MEMO_WIDTH:
            return _parse_positional.__wrapped__(text)
        return _parse_positional(text)

    @classmethod
    def from_minterm(cls, n: int, minterm: int) -> "Cube":
        """The cube containing exactly one minterm (given as a bit vector)."""
        mask = (1 << n) - 1
        if minterm & ~mask:
            raise ValueError("minterm out of range")
        return cls(n, minterm, mask & ~minterm)

    def to_string(self) -> str:
        if self.n > _MEMO_WIDTH:
            return _positional.__wrapped__(self.n, self.ones, self.zeros)
        return _positional(self.n, self.ones, self.zeros)

    # ------------------------------------------------------------------
    # Literal access
    # ------------------------------------------------------------------
    def literal(self, var: int) -> str:
        """Return ``'1'``, ``'0'``, or ``'-'`` for variable ``var``."""
        bit = 1 << var
        if self.ones & bit:
            return "1"
        if self.zeros & bit:
            return "0"
        return "-"

    def has_literal(self, var: int) -> bool:
        return bool((self.ones | self.zeros) & (1 << var))

    @property
    def support(self) -> int:
        """Bitmask of variables that appear as literals."""
        return self.ones | self.zeros

    @property
    def num_literals(self) -> int:
        return (self.ones | self.zeros).bit_count()

    def minterm_count(self) -> int:
        """Number of minterms covered (2^(free variables))."""
        return 1 << (self.n - self.num_literals)

    # ------------------------------------------------------------------
    # Cube algebra
    # ------------------------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """True iff every minterm of ``other`` is in ``self``.

        Containment holds exactly when self's literals are a subset of
        other's literals.
        """
        return (self.ones & ~other.ones) == 0 and (self.zeros & ~other.zeros) == 0

    def intersects(self, other: "Cube") -> bool:
        """True iff the two cubes share at least one minterm."""
        return (self.ones & other.zeros) == 0 and (self.zeros & other.ones) == 0

    def intersection(self, other: "Cube") -> "Cube | None":
        """The cube of shared minterms, or None when disjoint."""
        if not self.intersects(other):
            return None
        return Cube(self.n, self.ones | other.ones, self.zeros | other.zeros)

    def distance(self, other: "Cube") -> int:
        """Number of variables on which the cubes conflict.

        Distance 0 means the cubes intersect; distance 1 cubes can be
        merged by the consensus operation.
        """
        return ((self.ones & other.zeros) | (self.zeros & other.ones)).bit_count()

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both cubes."""
        return Cube(self.n, self.ones & other.ones, self.zeros & other.zeros)

    def consensus(self, other: "Cube") -> "Cube | None":
        """The consensus cube when the cubes are at distance exactly 1."""
        conflict = (self.ones & other.zeros) | (self.zeros & other.ones)
        if conflict.bit_count() != 1:
            return None
        ones = (self.ones | other.ones) & ~conflict
        zeros = (self.zeros | other.zeros) & ~conflict
        return Cube(self.n, ones, zeros)

    def without_literal(self, var: int) -> "Cube":
        """Copy with the literal on ``var`` removed (cube expansion)."""
        bit = 1 << var
        return Cube(self.n, self.ones & ~bit, self.zeros & ~bit)

    def with_literal(self, var: int, value: int) -> "Cube":
        """Copy with variable ``var`` forced to ``value`` (0 or 1)."""
        bit = 1 << var
        if value:
            if self.zeros & bit:
                raise ValueError("contradictory literal")
            return Cube(self.n, self.ones | bit, self.zeros & ~bit)
        if self.ones & bit:
            raise ValueError("contradictory literal")
        return Cube(self.n, self.ones & ~bit, self.zeros | bit)

    def cofactor(self, var: int, value: int) -> "Cube | None":
        """Shannon cofactor with respect to ``var = value``.

        Returns None when the cube vanishes under the assignment.
        """
        bit = 1 << var
        if value:
            if self.zeros & bit:
                return None
            return Cube(self.n, self.ones & ~bit, self.zeros)
        if self.ones & bit:
            return None
        return Cube(self.n, self.ones, self.zeros & ~bit)

    def cofactor_cube(self, other: "Cube") -> "Cube | None":
        """Cofactor of this cube with respect to another cube.

        The result is this cube with all literals on ``other``'s support
        removed, or None when the cubes do not intersect.
        """
        if not self.intersects(other):
            return None
        keep = ~(other.ones | other.zeros)
        return Cube(self.n, self.ones & keep, self.zeros & keep)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: int) -> bool:
        """Evaluate on a complete assignment given as a bit vector."""
        return (self.ones & ~assignment) == 0 and (self.zeros & assignment) == 0

    def iter_minterms(self) -> Iterator[int]:
        """Yield every minterm (as a bit vector).  Exponential in free vars."""
        free = [i for i in range(self.n) if not self.has_literal(i)]
        base = self.ones
        for combo in range(1 << len(free)):
            value = base
            for j, var in enumerate(free):
                if combo >> j & 1:
                    value |= 1 << var
            yield value

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return (self.n, self.ones, self.zeros) == (other.n, other.ones, other.zeros)

    def __hash__(self) -> int:
        return hash((self.n, self.ones, self.zeros))

    def __repr__(self) -> str:
        return f"Cube({self.to_string()!r})"


# The slot descriptors' setters get past the immutability guard, and
# are faster than ``object.__setattr__``.
_set_n = Cube.n.__set__
_set_ones = Cube.ones.__set__
_set_zeros = Cube.zeros.__set__

_ONES = str.maketrans("10-", "100")
_ZEROS = str.maketrans("01-", "100")


# Netlists repeat a few hundred row patterns; both directions are
# memoized (cubes are immutable, so a parsed one can be shared).  Wider
# cubes bypass the memos, which keeps them a few hundred KB at most.
_MEMO_WIDTH = 64


@functools.lru_cache(maxsize=4096)
def _parse_positional(text: str) -> Cube:
    if text.strip("01-"):
        bad = next(ch for ch in text if ch not in "01-")
        raise ValueError(f"invalid cube character {bad!r}")
    if not text:
        return Cube._trusted(0, 0, 0)
    bits = text[::-1]
    return Cube._trusted(len(text), int(bits.translate(_ONES), 2),
                         int(bits.translate(_ZEROS), 2))


@functools.lru_cache(maxsize=4096)
def _positional(n: int, ones: int, zeros: int) -> str:
    chars = []
    for i in range(n):
        bit = 1 << i
        if ones & bit:
            chars.append("1")
        elif zeros & bit:
            chars.append("0")
        else:
            chars.append("-")
    return "".join(chars)
