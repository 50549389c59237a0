"""Sum-of-products covers and the classic two-level operations.

A :class:`Cover` is a set of :class:`~repro.cubes.cube.Cube` objects over a
shared variable count, interpreted as the disjunction (OR) of its cubes.
Covers are the local Boolean functions attached to nodes of the multi-level
network (paper Sec 2.1): every node SOP, in either phase, is a ``Cover``.

The recursive algorithms (tautology, complement, cofactor containment)
follow the unate-recursive paradigm of espresso; sizes encountered here are
node-local (a handful of fanins), so clarity is preferred over the full
suite of espresso speedups.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .cube import Cube


class Cover:
    """An SOP formula: the OR of a list of cubes over ``n`` variables."""

    __slots__ = ("n", "cubes")

    def __init__(self, n: int, cubes: Iterable[Cube] = ()):
        self.n = n
        self.cubes: list[Cube] = []
        for cube in cubes:
            if cube.n != n:
                raise ValueError("cube variable count mismatch")
            self.cubes.append(cube)

    @classmethod
    def _trusted(cls, n: int, cubes: list[Cube]) -> "Cover":
        """A cover adopting ``cubes``, already known to be over ``n``
        variables."""
        cover = cls.__new__(cls)
        cover.n = n
        cover.cubes = cubes
        return cover

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Cover":
        """The constant-0 function (empty cover)."""
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Cover":
        """The constant-1 function (single universal cube)."""
        return cls(n, [Cube.full(n)])

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        """Build from positional-notation rows, e.g. ``["1-0", "-11"]``."""
        if not rows:
            raise ValueError("cannot infer variable count from empty rows; "
                             "use Cover.zero(n)")
        n = len(rows[0])
        return cls(n, [Cube.from_string(row) for row in rows])

    @classmethod
    def literal(cls, n: int, var: int, value: int) -> "Cover":
        """The single-literal function ``xvar`` (value=1) or ``!xvar``."""
        return cls(n, [Cube.full(n).with_literal(var, value)])

    def copy(self) -> "Cover":
        return Cover(self.n, list(self.cubes))

    def to_strings(self) -> list[str]:
        return [cube.to_string() for cube in self.cubes]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __repr__(self) -> str:
        return f"Cover(n={self.n}, cubes={self.to_strings()})"

    def __eq__(self, other) -> bool:
        """Semantic (functional) equality."""
        if not isinstance(other, Cover):
            return NotImplemented
        return self.implies(other) and other.implies(self)

    def __hash__(self):
        raise TypeError("Cover equality is semantic; covers are unhashable")

    @property
    def support(self) -> int:
        """Bitmask of variables appearing in at least one cube."""
        mask = 0
        for cube in self.cubes:
            mask |= cube.support
        return mask

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)

    def is_zero(self) -> bool:
        return not self.cubes

    def evaluate(self, assignment: int) -> bool:
        return any(cube.evaluate(assignment) for cube in self.cubes)

    # ------------------------------------------------------------------
    # Cofactors
    # ------------------------------------------------------------------
    def cofactor(self, var: int, value: int) -> "Cover":
        cubes = []
        for cube in self.cubes:
            cf = cube.cofactor(var, value)
            if cf is not None:
                cubes.append(cf)
        return Cover(self.n, cubes)

    def cofactor_cube(self, cube: Cube) -> "Cover":
        cubes = []
        for own in self.cubes:
            cf = own.cofactor_cube(cube)
            if cf is not None:
                cubes.append(cf)
        return Cover(self.n, cubes)

    # ------------------------------------------------------------------
    # Tautology and containment (unate-recursive)
    # ------------------------------------------------------------------
    def is_tautology(self) -> bool:
        """True iff the cover evaluates to 1 on every assignment."""
        return _tautology(self.cubes, self.n)

    def covers_cube(self, cube: Cube) -> bool:
        """True iff every minterm of ``cube`` satisfies the cover.

        Classic cofactor test: F covers c iff F cofactored by c is a
        tautology.
        """
        return self.cofactor_cube(cube).is_tautology()

    def implies(self, other: "Cover") -> bool:
        """True iff self => other (each of self's cubes is covered)."""
        return all(other.covers_cube(cube) for cube in self.cubes)

    def covers_minterm(self, minterm: int) -> bool:
        return self.evaluate(minterm)

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------
    def union(self, other: "Cover") -> "Cover":
        if other.n != self.n:
            raise ValueError("variable count mismatch")
        return Cover(self.n, self.cubes + other.cubes)

    def intersection(self, other: "Cover") -> "Cover":
        if other.n != self.n:
            raise ValueError("variable count mismatch")
        cubes = []
        for a in self.cubes:
            for b in other.cubes:
                c = a.intersection(b)
                if c is not None:
                    cubes.append(c)
        return Cover(self.n, cubes).sccc()

    def complement(self) -> "Cover":
        """The complement of the cover, as a cover."""
        return Cover(self.n, _complement(self.cubes, self.n))

    def sharp(self, other: "Cover") -> "Cover":
        """Set difference: minterms in self but not in other."""
        return self.intersection(other.complement())

    # ------------------------------------------------------------------
    # Cleanup / canonicalization helpers
    # ------------------------------------------------------------------
    def sccc(self) -> "Cover":
        """Single-cube containment: drop cubes contained in another cube."""
        kept: list[Cube] = []
        # Larger cubes (fewer literals) first so contained cubes drop out.
        for cube in sorted(set(self.cubes), key=lambda c: c.num_literals):
            if not any(prev.contains(cube) for prev in kept):
                kept.append(cube)
        return Cover(self.n, kept)

    def irredundant(self) -> "Cover":
        """Drop cubes covered by the union of the remaining cubes."""
        cubes = list(self.sccc().cubes)
        changed = True
        while changed:
            changed = False
            for i, cube in enumerate(cubes):
                rest = Cover(self.n, cubes[:i] + cubes[i + 1:])
                if rest.covers_cube(cube):
                    del cubes[i]
                    changed = True
                    break
        return Cover(self.n, cubes)

    def disjoint(self) -> "Cover":
        """An equivalent cover whose cubes are pairwise disjoint."""
        result: list[Cube] = []
        for cube in self.cubes:
            pending = [cube]
            for placed in result:
                next_pending: list[Cube] = []
                for piece in pending:
                    if piece.intersects(placed):
                        next_pending.extend(_cube_sharp(piece, placed))
                    else:
                        next_pending.append(piece)
                pending = next_pending
                if not pending:
                    break
            result.extend(pending)
        return Cover(self.n, result)

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_minterms(self) -> int:
        """Exact number of satisfying assignments."""
        return sum(cube.minterm_count() for cube in self.disjoint().cubes)

    def probability(self, var_probs: Sequence[float] | None = None) -> float:
        """Probability the cover is 1 under independent input probabilities.

        ``var_probs[i]`` is P(xi = 1); defaults to 0.5 for every variable
        (the paper's equally-likely-inputs assumption).
        """
        if var_probs is None:
            return self.count_minterms() / (1 << self.n) if self.n else (
                1.0 if self.cubes else 0.0)
        total = 0.0
        for cube in self.disjoint().cubes:
            p = 1.0
            for i in range(self.n):
                bit = 1 << i
                if cube.ones & bit:
                    p *= var_probs[i]
                elif cube.zeros & bit:
                    p *= 1.0 - var_probs[i]
            total += p
        return total

    def iter_minterms(self) -> Iterator[int]:
        for cube in self.disjoint().cubes:
            yield from cube.iter_minterms()


# ----------------------------------------------------------------------
# Recursive workers
# ----------------------------------------------------------------------
def _tautology(cubes: list[Cube], n: int) -> bool:
    if any(cube.num_literals == 0 for cube in cubes):
        return True
    if not cubes:
        return False
    # Unate reduction: a variable appearing in only one polarity cannot
    # make the cover a tautology by itself; if the cover is unate, it is a
    # tautology iff it contains the universal cube (checked above).
    var = _most_binate_var(cubes)
    if var is None:
        return False
    pos = [cf for cf in (c.cofactor(var, 1) for c in cubes) if cf is not None]
    neg = [cf for cf in (c.cofactor(var, 0) for c in cubes) if cf is not None]
    return _tautology(pos, n) and _tautology(neg, n)


def _most_binate_var(cubes: list[Cube]) -> int | None:
    """Variable appearing in both polarities, maximizing min(#pos, #neg).

    Returns None when the cover is unate (no binate variable).
    """
    ones_count: dict[int, int] = {}
    zeros_count: dict[int, int] = {}
    support = 0
    for cube in cubes:
        support |= cube.support
        mask = cube.ones
        while mask:
            bit = mask & -mask
            ones_count[bit] = ones_count.get(bit, 0) + 1
            mask ^= bit
        mask = cube.zeros
        while mask:
            bit = mask & -mask
            zeros_count[bit] = zeros_count.get(bit, 0) + 1
            mask ^= bit
    best_bit = None
    best_score = -1
    mask = support
    while mask:
        bit = mask & -mask
        mask ^= bit
        p, q = ones_count.get(bit, 0), zeros_count.get(bit, 0)
        if p and q and min(p, q) > best_score:
            best_score = min(p, q)
            best_bit = bit
    return best_bit.bit_length() - 1 if best_bit is not None else None


def _complement(cubes: list[Cube], n: int) -> list[Cube]:
    if not cubes:
        return [Cube.full(n)]
    if any(cube.num_literals == 0 for cube in cubes):
        return []
    if len(cubes) == 1:
        return _complement_single(cubes[0])
    var = _most_binate_var(cubes)
    if var is None:
        # Unate cover: pick any support variable to keep recursing; the
        # split still terminates because literals disappear in cofactors.
        support = 0
        for cube in cubes:
            support |= cube.support
        var = (support & -support).bit_length() - 1
    pos = [cf for cf in (c.cofactor(var, 1) for c in cubes) if cf is not None]
    neg = [cf for cf in (c.cofactor(var, 0) for c in cubes) if cf is not None]
    result = []
    for piece in _complement(pos, n):
        result.append(piece.with_literal(var, 1))
    for piece in _complement(neg, n):
        result.append(piece.with_literal(var, 0))
    return _merge_complement_halves(result, var)


def _merge_complement_halves(cubes: list[Cube], var: int) -> list[Cube]:
    """Merge pairs differing only in the split literal (simple lifting)."""
    by_body: dict[tuple[int, int, str], list[Cube]] = {}
    bit = 1 << var
    merged: list[Cube] = []
    for cube in cubes:
        key = (cube.ones & ~bit, cube.zeros & ~bit, "")
        by_body.setdefault(key, []).append(cube)
    for group in by_body.values():
        polarities = {cube.literal(var) for cube in group}
        if "1" in polarities and "0" in polarities:
            merged.append(group[0].without_literal(var))
        else:
            merged.extend(group)
    return merged


def _complement_single(cube: Cube) -> list[Cube]:
    """DeMorgan on a single cube: one result cube per literal."""
    result = []
    for var in range(cube.n):
        lit = cube.literal(var)
        if lit == "1":
            result.append(Cube.full(cube.n).with_literal(var, 0))
        elif lit == "0":
            result.append(Cube.full(cube.n).with_literal(var, 1))
    return result


def _cube_sharp(a: Cube, b: Cube) -> list[Cube]:
    """Disjoint sharp: minterms of ``a`` not in ``b``, as disjoint cubes."""
    if not a.intersects(b):
        return [a]
    pieces = []
    current = a
    for var in range(a.n):
        b_lit = b.literal(var)
        if b_lit == "-":
            continue
        a_lit = current.literal(var)
        if a_lit != "-":
            continue  # a already agrees (they intersect) on this variable
        opposite = 0 if b_lit == "1" else 1
        pieces.append(current.with_literal(var, opposite))
        current = current.with_literal(var, 1 - opposite)
    # ``current`` is now contained in b: dropped.
    return pieces
