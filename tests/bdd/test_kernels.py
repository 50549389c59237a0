"""Oracle tests for the manager's dedicated AND / OR / NOT kernels.

``and_``, ``or_`` and ``not_`` compute ``ite(f, g, 0)``, ``ite(f, 1, g)``
and ``ite(f, 0, 1)`` with their own recursions.  The contract is that
this is invisible: a manager driven through the kernels and one driven
through the generic ``ite`` allocate the same node ids with the same
``(var, lo, hi)`` triples, overflow their node budget at the same
allocation and meet a guard deadline at the same allocation.  The
oracle is a subclass that routes the three operations back to ``ite``.
"""

import random

import pytest

from repro.bdd import BddManager, BddOverflowError, make_manager
from repro.guard import Budget, DeadlineExceeded

N_VARS = 6


class GenericIteManager(BddManager):
    """The manager before the kernels: every connective is an ``ite``."""

    def not_(self, f):
        return self.ite(f, 0, 1)

    def and_(self, f, g):
        return self.ite(f, g, 0)

    def or_(self, f, g):
        return self.ite(f, 1, g)


def _random_roots(mgr, rng, count=24, n_vars=N_VARS, rollbacks=True):
    """Grow a pool of functions with random operations.

    With ``rollbacks``, marks are taken and rolled back at random points
    (the roots born after the mark are dropped with it).  Every choice
    depends on the rng and the pool size only, so two managers fed the
    same seed run the same operation sequence.
    """
    roots = [0, 1] + [mgr.var(i) for i in range(n_vars)]
    marks = []
    for _ in range(count):
        if rollbacks and rng.random() < 0.15:
            marks.append((mgr.mark(), len(roots)))
        if rollbacks and marks and rng.random() < 0.1:
            # Marks taken after the chosen one die with the rollback.
            i = rng.randrange(len(marks))
            mark, kept = marks[i]
            del marks[i:]
            mgr.rollback(mark)
            del roots[kept:]
        op = rng.randrange(6)
        f = rng.choice(roots)
        g = rng.choice(roots)
        if op == 0:
            roots.append(mgr.and_(f, g))
        elif op == 1:
            roots.append(mgr.or_(f, g))
        elif op == 2:
            roots.append(mgr.xor_(f, g))
        elif op == 3:
            roots.append(mgr.not_(f))
        elif op == 4:
            roots.append(mgr.restrict(f, rng.randrange(n_vars),
                                      rng.randrange(2)))
        else:
            roots.append(mgr.ite(f, g, rng.choice(roots)))
    return roots


def _store(mgr):
    return mgr._var, mgr._lo, mgr._hi


def _truth_table(mgr, f, n_vars=N_VARS):
    return tuple(mgr.evaluate(f, a) for a in range(1 << n_vars))


@pytest.mark.parametrize("seed", [2008, 7, 99])
def test_kernels_match_generic_ite(seed):
    """Same operation sequence, same ids and node triples, id for id."""
    kernels = BddManager(8)
    generic = GenericIteManager(8)
    roots_k = _random_roots(kernels, random.Random(seed), count=300, n_vars=8)
    roots_g = _random_roots(generic, random.Random(seed), count=300, n_vars=8)
    assert roots_k == roots_g
    assert kernels.num_nodes == generic.num_nodes
    assert _store(kernels) == _store(generic)


@pytest.mark.parametrize("seed", [1, 42, 2008])
def test_kernels_match_truth_tables(seed):
    rng = random.Random(seed)
    mgr = BddManager(N_VARS)
    roots = _random_roots(mgr, rng, count=30, rollbacks=False)
    tables = {f: _truth_table(mgr, f) for f in roots}
    for _ in range(40):
        f, g = rng.choice(roots), rng.choice(roots)
        tf, tg = tables[f], tables[g]
        assert _truth_table(mgr, mgr.and_(f, g)) == \
            tuple(a and b for a, b in zip(tf, tg))
        assert _truth_table(mgr, mgr.or_(f, g)) == \
            tuple(a or b for a, b in zip(tf, tg))
        assert _truth_table(mgr, mgr.not_(f)) == tuple(not a for a in tf)
        assert mgr.implies(f, g) == \
            all(b or not a for a, b in zip(tf, tg))
        # Commuted operands hit the same canonical node.
        assert mgr.and_(f, g) == mgr.and_(g, f)
        assert mgr.or_(f, g) == mgr.or_(g, f)


@pytest.mark.parametrize("seed", [3, 2008])
def test_batched_queries_match_per_root(seed):
    """One shared memo answers exactly what per-root queries answer."""
    rng = random.Random(seed)
    mgr = BddManager(N_VARS)
    roots = _random_roots(mgr, random.Random(seed), rollbacks=False)
    probs = [rng.random() for _ in range(N_VARS)]
    for var_probs in (None, probs):
        many = mgr.probability_many(roots, var_probs)
        single = [mgr.probability(f, var_probs) for f in roots]
        assert [p.hex() for p in many] == [p.hex() for p in single]
    for num_vars in (None, N_VARS + 3):
        assert mgr.sat_count_many(roots, num_vars) == \
            [mgr.sat_count(f, num_vars) for f in roots]
    fs = [rng.choice(roots) for _ in range(30)]
    gs = [rng.choice(roots) for _ in range(30)]
    assert mgr.implies_many(fs, gs) == \
        [mgr.implies(f, g) for f, g in zip(fs, gs)]


def _grind(mgr):
    """A chain that outgrows a small budget: ``(result, error, nodes)``."""
    f = mgr.var(0)
    try:
        for i in range(1, mgr.num_vars):
            f = mgr.xor_(f, mgr.var(i))
            f = mgr.or_(f, mgr.and_(mgr.var(i - 1), mgr.not_(mgr.var(i))))
        return f, None, mgr.num_nodes
    except BddOverflowError as exc:
        return None, str(exc), mgr.num_nodes


@pytest.mark.parametrize("cap", [12, 20, 40, 64])
def test_overflow_point_matches_generic_ite(cap):
    kernels = BddManager(8, max_nodes=cap)
    generic = GenericIteManager(8, max_nodes=cap)
    outcome = _grind(kernels)
    assert outcome == _grind(generic)
    assert outcome[1] is not None  # every cap here is too small
    assert kernels.num_nodes <= cap
    assert _store(kernels) == _store(generic)


@pytest.mark.parametrize("seed", [5, 2008])
def test_random_overflow_point_matches_generic_ite(seed):
    def run(mgr):
        try:
            _random_roots(mgr, random.Random(seed), count=200, n_vars=8)
        except BddOverflowError:
            return mgr.num_nodes, _store(mgr)
        return None

    outcome = run(BddManager(8, max_nodes=80))
    assert outcome is not None
    assert outcome == run(GenericIteManager(8, max_nodes=80))


def test_guard_deadline_matches_generic_ite():
    """The 1024-allocation deadline poll fires at the same node."""
    def run(mgr):
        budget = Budget(deadline_s=0.0)
        budget.start()
        mgr.guard = budget
        acc = 0
        with pytest.raises(DeadlineExceeded):
            for i in range(mgr.num_vars):
                term = mgr.and_(mgr.var(i),
                                mgr.not_(mgr.var(mgr.num_vars - 1 - i)))
                acc = mgr.or_(mgr.xor_(acc, term), mgr.and_(acc, term))
        return mgr.num_nodes, mgr._allocs, _store(mgr)

    nodes, allocs, store = run(BddManager(16))
    assert allocs == 1024
    assert (nodes, allocs, store) == run(GenericIteManager(16))


def test_mark_rollback_replays_ids():
    """Rollback restores the store; replaying allocates the same ids."""
    mgr = BddManager(N_VARS)
    rng = random.Random(11)
    roots = _random_roots(mgr, rng, rollbacks=False)
    mark = mgr.mark()
    snapshot = tuple(list(a) for a in _store(mgr))
    fs = [rng.choice(roots) for _ in range(20)]
    gs = [rng.choice(roots) for _ in range(20)]
    first = [mgr.and_(mgr.xor_(f, g), mgr.not_(mgr.or_(f, g)))
             for f, g in zip(fs, gs)]
    mgr.rollback(mark)
    assert _store(mgr) == snapshot
    assert mgr.mark() == mark
    assert [mgr.and_(mgr.xor_(f, g), mgr.not_(mgr.or_(f, g)))
            for f, g in zip(fs, gs)] == first


def test_exists_and_structural_ops():
    mgr = BddManager(4)
    f = mgr.and_(mgr.xor_(mgr.var(0), mgr.var(1)), mgr.var(2))
    assert mgr.support(f) == {0, 1, 2}
    assert mgr.exists(f, [2]) == mgr.xor_(mgr.var(0), mgr.var(1))
    assert mgr.forall(f, [0]) == 0
    assert mgr.boolean_difference(f, 2) == mgr.xor_(mgr.var(0), mgr.var(1))


def test_restrict_and_compose_truth_tables():
    rng = random.Random(5)
    mgr = BddManager(N_VARS)
    roots = _random_roots(mgr, rng, rollbacks=False)
    for var in (0, 2, N_VARS - 1):
        bit = 1 << var
        for f in roots:
            table = _truth_table(mgr, f)
            for value in (0, 1):
                got = _truth_table(mgr, mgr.restrict(f, var, value))
                assert got == tuple(
                    table[a | bit if value else a & ~bit]
                    for a in range(1 << N_VARS))
            g = rng.choice(roots)
            composed = _truth_table(mgr, mgr.compose(f, var, g))
            g_table = _truth_table(mgr, g)
            assert composed == tuple(
                table[a | bit if g_table[a] else a & ~bit]
                for a in range(1 << N_VARS))


class CountingManager(BddManager):
    """Counts ``_mk`` calls; ``restrict_unmemoized`` is the old recursion."""

    mk_calls = 0

    def _mk(self, var, lo, hi):
        self.mk_calls += 1
        return super()._mk(var, lo, hi)

    def restrict_unmemoized(self, f, var, value):
        if f <= 1 or self._var[f] > var:
            return f
        if self._var[f] == var:
            return self._hi[f] if value else self._lo[f]
        lo = self.restrict_unmemoized(self._lo[f], var, value)
        hi = self.restrict_unmemoized(self._hi[f], var, value)
        return self._mk(self._var[f], lo, hi)


def _xor_ladder(mgr):
    """Parity of all inputs: 2n nodes, 2**n root-to-terminal paths."""
    f = 0
    for i in range(mgr.num_vars):
        f = mgr.xor_(f, mgr.var(i))
    return f


def test_restrict_is_linear_on_shared_dags():
    calls = {}
    for n in (8, 16, 32):
        mgr = CountingManager(n)
        f = _xor_ladder(mgr)
        before = mgr.mk_calls
        for value in (0, 1):
            mgr.restrict(f, n - 1, value)
        calls[n] = mgr.mk_calls - before
        # One rebuild per node above the restricted variable, per value.
        assert calls[n] <= 2 * mgr.size(f)
    # Linear: doubling n doubles the increment (the old recursion
    # made 2**n calls here).
    assert calls[32] - calls[16] <= 2 * (calls[16] - calls[8])


@pytest.mark.parametrize("var", [0, 5, 9])
def test_restrict_ids_match_unmemoized_reference(var):
    memo = CountingManager(10)
    plain = CountingManager(10)
    roots = []
    for mgr in (memo, plain):
        f = _xor_ladder(mgr)
        g = mgr.or_(f, mgr.and_(mgr.var(3), mgr.not_(mgr.var(7))))
        roots.append((f, g))
    assert roots[0] == roots[1]
    memo_results = [memo.restrict(h, var, value)
                    for h in (f, g) for value in (0, 1)]
    plain_results = [plain.restrict_unmemoized(h, var, value)
                     for h in (f, g) for value in (0, 1)]
    assert memo_results == plain_results
    assert _store(memo) == _store(plain)
    assert memo.mk_calls <= plain.mk_calls


def test_make_manager_is_a_plain_constructor():
    mgr = make_manager(3, max_nodes=50)
    assert type(mgr) is BddManager
    assert mgr.num_vars == 3
    assert mgr.max_nodes == 50
