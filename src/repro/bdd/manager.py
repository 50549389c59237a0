"""A reduced ordered binary decision diagram (ROBDD) package.

The manager owns all nodes; functions are plain integer node ids, so they
are hashable, comparable, and canonical (two ids are equal iff the
functions are equal under the manager's variable order).  This is the
engine behind the correctness checks of the iterative cube-selection
algorithm (paper Sec 2.2: "checking the implication condition for correct
approximation using BDDs") and behind exact approximation-percentage
accounting (minterm counting).

The implementation is a textbook ite-based ROBDD with a unique table and
an operation cache, plus an optional node budget so callers can fall back
to simulation-based checking when a global BDD blows up.  ``and_``,
``or_`` and ``not_`` -- nearly every operation a global-BDD build or an
implication check issues -- run dedicated recursions instead of the
generic ``ite``; they share its cache under the standard ite triples and
create the same nodes in the same order, so node ids do not depend on
which path built a function.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.cubes import Cover, Cube

_TERMINAL_VAR = 1 << 30  # ordered after every real variable


class BddOverflowError(RuntimeError):
    """Raised when the manager exceeds its configured node budget."""


class BddManager:
    """Owner of a shared ROBDD node store.

    Node ids 0 and 1 are the constant functions.  Variables are indexed
    ``0 .. num_vars-1`` and ordered by index.
    """

    def __init__(self, num_vars: int = 0, max_nodes: int | None = None):
        self.max_nodes = max_nodes
        #: Optional :class:`repro.guard.Budget` polled during node
        #: allocation, so a long build respects a wall-clock deadline
        #: cooperatively (checked every 1024 allocations).
        self.guard = None
        self._allocs = 0
        # Parallel arrays: variable index, low child (var=0), high child.
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._num_vars = 0
        self.zero = 0
        self.one = 1
        for _ in range(num_vars):
            self.add_var()

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    def add_var(self) -> int:
        """Declare a new variable (appended at the end of the order)."""
        self._num_vars += 1
        return self._num_vars - 1

    def var_of(self, f: int) -> int:
        return self._var[f]

    def lo_of(self, f: int) -> int:
        return self._lo[f]

    def hi_of(self, f: int) -> int:
        return self._hi[f]

    def is_terminal(self, f: int) -> bool:
        return f <= 1

    def mark(self) -> tuple[int, int, int, int]:
        """Opaque snapshot of the node store for :meth:`rollback`.

        Every structure in the manager is append-only (the node arrays
        grow, the unique table and operation cache only gain entries),
        so a mark is just the current lengths.
        """
        return (len(self._var), len(self._unique),
                len(self._ite_cache), self._num_vars)

    def rollback(self, mark: tuple[int, int, int, int]) -> None:
        """Restore the exact node-store state captured by ``mark``.

        Truncates the node arrays and pops the entries inserted since
        the mark (dicts preserve insertion order and are never deleted
        from, so ``popitem`` removes exactly the post-mark additions —
        including every unique-table and ite-cache entry that mentions
        a rolled-back node, since an entry can only reference nodes
        that existed when it was inserted).  Variables declared after
        the mark are forgotten the same way the nodes are.  Afterwards
        the manager is bit-identical to its state at :meth:`mark` time:
        subsequent operations allocate the same node ids and hit/miss
        the caches the same way a manager that never advanced past the
        mark would.
        """
        n_nodes, n_unique, n_ite, n_vars = mark
        if len(self._var) < n_nodes or self._num_vars < n_vars or \
                len(self._unique) < n_unique or \
                len(self._ite_cache) < n_ite:
            raise ValueError("mark does not describe a prior state "
                             "of this manager")
        self._num_vars = n_vars
        del self._var[n_nodes:]
        del self._lo[n_nodes:]
        del self._hi[n_nodes:]
        while len(self._unique) > n_unique:
            self._unique.popitem()
        while len(self._ite_cache) > n_ite:
            self._ite_cache.popitem()

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self.max_nodes is not None and len(self._var) >= self.max_nodes:
            raise BddOverflowError(
                f"BDD node budget of {self.max_nodes} exceeded")
        self._allocs += 1
        if self.guard is not None and not self._allocs & 1023:
            self.guard.check_deadline("bdd allocation")
        node = len(self._var)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = node
        return node

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def var(self, index: int) -> int:
        """The function ``x_index``."""
        if not 0 <= index < self._num_vars:
            raise ValueError(f"variable {index} not declared")
        return self._mk(index, 0, 1)

    def nvar(self, index: int) -> int:
        """The function ``!x_index``."""
        if not 0 <= index < self._num_vars:
            raise ValueError(f"variable {index} not declared")
        return self._mk(index, 1, 0)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | !f & h`` — the universal connective."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        result = self._mk(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, f: int, var: int) -> tuple[int, int]:
        if self._var[f] == var:
            return self._lo[f], self._hi[f]
        return f, f

    # The three kernels below compute exactly ``ite(f, 0, 1)``,
    # ``ite(f, g, 0)`` and ``ite(f, 1, g)`` and cache under those keys,
    # so ``mark()``/``rollback()`` need not know about them.  A kernel
    # only creates nodes of its result, lo before hi, as ``ite`` does:
    # node ids, the overflow point and deadline polling are unchanged.
    def not_(self, f: int) -> int:
        if f <= 1:
            return 1 - f
        key = (f, 0, 1)
        result = self._ite_cache.get(key)
        if result is not None:
            return result
        var = self._var[f]
        lo = self.not_(self._lo[f])
        hi = self.not_(self._hi[f])
        result = self._unique.get((var, lo, hi))
        if result is None:
            result = self._mk(var, lo, hi)
        self._ite_cache[key] = result
        return result

    def and_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == 0:
            return 0
        if f == 1 or f == g:
            return g
        key = (f, g, 0)
        result = self._ite_cache.get(key)
        if result is not None:
            return result
        var_f = self._var[f]
        var_g = self._var[g]
        if var_f <= var_g:
            top = var_f
            f0, f1 = self._lo[f], self._hi[f]
        else:
            top = var_g
            f0 = f1 = f
        if var_g == top:
            g0, g1 = self._lo[g], self._hi[g]
        else:
            g0 = g1 = g
        lo = self.and_(f0, g0)
        hi = self.and_(f1, g1)
        if lo == hi:
            result = lo
        else:
            result = self._unique.get((top, lo, hi))
            if result is None:
                result = self._mk(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def or_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == 0 or f == g:
            return g
        if f == 1:
            return 1
        key = (f, 1, g)
        result = self._ite_cache.get(key)
        if result is not None:
            return result
        var_f = self._var[f]
        var_g = self._var[g]
        if var_f <= var_g:
            top = var_f
            f0, f1 = self._lo[f], self._hi[f]
        else:
            top = var_g
            f0 = f1 = f
        if var_g == top:
            g0, g1 = self._lo[g], self._hi[g]
        else:
            g0 = g1 = g
        lo = self.or_(f0, g0)
        hi = self.or_(f1, g1)
        if lo == hi:
            result = lo
        else:
            result = self._unique.get((top, lo, hi))
            if result is None:
                result = self._mk(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def nand_(self, f: int, g: int) -> int:
        return self.not_(self.and_(f, g))

    def nor_(self, f: int, g: int) -> int:
        return self.not_(self.or_(f, g))

    def and_many(self, fs: Iterable[int]) -> int:
        result = 1
        for f in fs:
            result = self.and_(result, f)
        return result

    def or_many(self, fs: Iterable[int]) -> int:
        result = 0
        for f in fs:
            result = self.or_(result, f)
        return result

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def restrict(self, f: int, var: int, value: int) -> int:
        """Cofactor ``f`` with respect to ``var = value``.

        Memoized per call, so a shared sub-DAG is rebuilt once: linear
        in the size of ``f`` rather than in its number of paths.
        """
        var_of, lo_of, hi_of = self._var, self._lo, self._hi
        memo: dict[int, int] = {}

        def walk(node: int) -> int:
            top = var_of[node]
            if top > var:  # terminals too: their var orders last
                return node
            if top == var:
                return hi_of[node] if value else lo_of[node]
            result = memo.get(node)
            if result is None:
                result = self._mk(top, walk(lo_of[node]), walk(hi_of[node]))
                memo[node] = result
            return result

        return walk(f)

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        hi = self.restrict(f, var, 1)
        lo = self.restrict(f, var, 0)
        return self.ite(g, hi, lo)

    def exists(self, f: int, variables: Iterable[int]) -> int:
        result = f
        for var in variables:
            result = self.or_(self.restrict(result, var, 0),
                              self.restrict(result, var, 1))
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        result = f
        for var in variables:
            result = self.and_(self.restrict(result, var, 0),
                               self.restrict(result, var, 1))
        return result

    def boolean_difference(self, f: int, var: int) -> int:
        """d f / d var: assignments where ``var`` is observable in ``f``."""
        return self.xor_(self.restrict(f, var, 0), self.restrict(f, var, 1))

    def support(self, f: int) -> set[int]:
        """Set of variable indices ``f`` depends on."""
        seen: set[int] = set()
        result: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def implies(self, f: int, g: int) -> bool:
        """True iff f => g (i.e. f & !g is unsatisfiable)."""
        return self.and_(f, self.not_(g)) == 0

    def evaluate(self, f: int, assignment: int) -> bool:
        """Evaluate under a complete assignment given as a bit vector."""
        node = f
        while not self.is_terminal(node):
            if assignment >> self._var[node] & 1:
                node = self._hi[node]
            else:
                node = self._lo[node]
        return node == 1

    def sat_count(self, f: int, num_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        return self._sat_counter(num_vars)(f)

    def probability(self, f: int, var_probs: Sequence[float] | None = None) -> float:
        """P(f = 1) under independent input probabilities (default 0.5)."""
        return self._prober(var_probs)(f)

    def _sat_counter(self, num_vars: int | None):
        """Root -> model count, memoized across every root it is given.

        Counts stay python big ints: wide circuits (i10 has 257 inputs)
        overflow any fixed-width integer.
        """
        n = self._num_vars if num_vars is None else num_vars
        var_of, lo_of, hi_of = self._var, self._lo, self._hi
        cache: dict[int, int] = {0: 0, 1: 1}

        def count(node: int) -> int:
            # Count over variables strictly below var_of(node) in the order.
            total = cache.get(node)
            if total is None:
                var = var_of[node]
                lo, hi = lo_of[node], hi_of[node]
                total = (count(lo) << (min(var_of[lo], n) - var - 1)) + \
                        (count(hi) << (min(var_of[hi], n) - var - 1))
                cache[node] = total
            return total

        return lambda f: count(f) << min(var_of[f], n)

    def _prober(self, var_probs: Sequence[float] | None):
        """Root -> P(root = 1), memoized across every root it is given."""
        var_of, lo_of, hi_of = self._var, self._lo, self._hi
        cache: dict[int, float] = {0: 0.0, 1: 1.0}

        def prob(node: int) -> float:
            value = cache.get(node)
            if value is None:
                p = 0.5 if var_probs is None else var_probs[var_of[node]]
                value = (1.0 - p) * prob(lo_of[node]) + p * prob(hi_of[node])
                cache[node] = value
            return value

        return prob

    # -- batched queries -------------------------------------------------
    # One memo serves every root, so nodes shared between roots (the
    # outputs of one circuit share most of their cones) are visited once.
    # Each node's value is the same expression as in the one-root query,
    # so the results are bit-identical to it.
    def implies_many(self, fs: Sequence[int],
                     gs: Sequence[int]) -> list[bool]:
        """``[f => g]`` for many root pairs."""
        return [self.implies(f, g) for f, g in zip(fs, gs)]

    def probability_many(self, fs: Sequence[int],
                         var_probs: Sequence[float] | None = None
                         ) -> list[float]:
        """``P(f = 1)`` for many roots."""
        prob = self._prober(var_probs)
        return [prob(f) for f in fs]

    def sat_count_many(self, fs: Sequence[int],
                       num_vars: int | None = None) -> list[int]:
        """Exact model counts for many roots."""
        count = self._sat_counter(num_vars)
        return [count(f) for f in fs]

    def any_sat(self, f: int) -> int | None:
        """One satisfying assignment (bit vector), or None if f == 0."""
        if f == 0:
            return None
        assignment = 0
        node = f
        while not self.is_terminal(node):
            if self._hi[node] != 0:
                assignment |= 1 << self._var[node]
                node = self._hi[node]
            else:
                node = self._lo[node]
        return assignment

    def iter_sat(self, f: int, num_vars: int | None = None) -> Iterator[int]:
        """Yield all satisfying assignments.  Exponential; tests only."""
        n = self._num_vars if num_vars is None else num_vars
        for assignment in range(1 << n):
            if self.evaluate(f, assignment):
                yield assignment

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def from_cube(self, cube: Cube, var_map: Sequence[int] | None = None) -> int:
        """Build the BDD of a single cube.

        ``var_map[i]`` gives the BDD variable for cube variable ``i``;
        identity by default.
        """
        result = 1
        for i in range(cube.n):
            lit = cube.literal(i)
            if lit == "-":
                continue
            var = i if var_map is None else var_map[i]
            node = self.var(var) if lit == "1" else self.nvar(var)
            result = self.and_(result, node)
        return result

    def from_cover(self, cover: Cover,
                   var_map: Sequence[int] | None = None) -> int:
        """Build the BDD of an SOP cover."""
        return self.or_many(self.from_cube(cube, var_map)
                            for cube in cover.cubes)

    def to_dot(self, f: int, name: str = "bdd",
               var_names: Sequence[str] | None = None) -> str:
        """Graphviz dot text for the BDD rooted at ``f`` (debug aid).

        Dashed edges are low (0) branches, solid edges high (1).
        """
        lines = [f"digraph {name} {{",
                 '  node [shape=circle];',
                 '  t0 [shape=box, label="0"];',
                 '  t1 [shape=box, label="1"];']
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            var = self._var[node]
            label = var_names[var] if var_names is not None else f"x{var}"
            lines.append(f'  n{node} [label="{label}"];')
            for child, style in ((self._lo[node], "dashed"),
                                 (self._hi[node], "solid")):
                target = f"t{child}" if self.is_terminal(child) \
                    else f"n{child}"
                lines.append(f"  n{node} -> {target} [style={style}];")
                stack.append(child)
        if self.is_terminal(f):
            lines.append(f"  root [shape=none, label=\"\"];"
                         f" root -> t{f};")
        lines.append("}")
        return "\n".join(lines)

    def size(self, f: int) -> int:
        """Number of distinct nodes reachable from ``f`` (incl. terminals)."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if not self.is_terminal(node):
                stack.append(self._lo[node])
                stack.append(self._hi[node])
        return len(seen)
