"""Lattice laws of the analyze package."""

import pytest

from repro.analyze.lattice import (BOTTOM, TOP, BitsetPairLattice,
                                   FlatLattice, IntervalLattice)

SAMPLES = {
    "flat": (FlatLattice(), [BOTTOM, 0, 1, "h", TOP]),
    "interval": (IntervalLattice(),
                 [BOTTOM, (0.0, 0.0), (0.25, 0.5), (0.5, 0.5),
                  (0.0, 1.0)]),
    "bitset": (BitsetPairLattice(3),
               [(0, 0), (1, 0), (0, 5), (3, 4), (7, 7)]),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_join_semilattice_laws(name):
    lattice, elems = SAMPLES[name]
    for a in elems:
        assert lattice.join(a, a) == a                    # idempotent
        assert lattice.join(lattice.bottom, a) == a       # unit
        assert lattice.join(lattice.top, a) == lattice.top
        for b in elems:
            ab = lattice.join(a, b)
            assert ab == lattice.join(b, a)               # commutative
            assert lattice.leq(a, ab) and lattice.leq(b, ab)
            for c in elems:
                assert lattice.join(ab, c) \
                    == lattice.join(a, lattice.join(b, c))  # associative


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_leq_agrees_with_join(name):
    lattice, elems = SAMPLES[name]
    for a in elems:
        for b in elems:
            assert lattice.leq(a, b) == (lattice.join(a, b) == b)


def test_flat_distinct_values_join_to_top():
    flat = FlatLattice()
    assert flat.join(0, 1) is TOP
    assert flat.join("a", "a") == "a"


def test_interval_join_is_convex_hull():
    iv = IntervalLattice()
    assert iv.join((0.1, 0.3), (0.5, 0.8)) == (0.1, 0.8)
    assert iv.leq((0.2, 0.3), (0.1, 0.5))
    assert not iv.leq((0.1, 0.5), (0.2, 0.3))


def test_bitset_width_validation():
    with pytest.raises(ValueError):
        BitsetPairLattice(-1)
    assert BitsetPairLattice(0).top == (0, 0)
