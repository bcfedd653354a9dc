"""Exact Zarankiewicz numbers z_t(m, n) and z_t^(a)(n) at desk scale.

The bipartite search branches over left-vertex neighbourhood rows in
lexicographically non-increasing order (left vertices are interchangeable,
so this loses no graphs).  Columns are interchangeable too, so the columns
are kept lex non-increasing as well (double-lex; Flener, Frisch, Hnich,
Kiziltan, Miguel, Pearson and Walsh, "Breaking row and column symmetries in
matrix models", CP 2002).  A row's most significant bit is column n-1, so
rows are compared from column n-1 down; columns are compared from row 0
on, and column j+1 must be at least column j.  Both orders then read the
matrix in the same direction, so the lex-largest member of every orbit
under row and column permutations (rows read in turn, from column n-1)
satisfies both, and the edge count is invariant: no value is lost.

The search prunes with the remaining star budget: a K_{t,t}-free bipartite
graph satisfies sum_v C(d_v, t) <= (t-1) C(n, t), and for a fixed edge count
the left side minimizes that sum with degrees as equal as possible.  One
solver, ``search.max_edges_for_budget``, turns that bound into an edge
count, here as in the pair engine's K_2(t) caps; ``kst_upper`` (an
explicit, checkable form of the Kovari--Sos--Turan inequality, taken in
both orientations) is read from it too.  The bound depends on a candidate
row only through its popcount, so each node bounds whole popcount classes
at once and walks only the rows of the admissible ones.  K_{t,t}
feasibility is kept as, for every column t-subset, the number of chosen
rows containing it: a row fits iff it contains no saturated subset (one in
t-1 chosen rows), a single AND.  The per-(n, t) tables behind both
(t-subsets of each row, rows by popcount) are built once per process.

The walk keeps one entry per chosen row on an explicit stack, as the pair
engine keeps one per pair, not one Python frame: a key of 1,024 rows is
inside the size guard, and a recursion would pass the interpreter's
recursion limit on it.

z_t^(a) is exactly ex(n_1..n_a; K_2(t)), so there is one instance type,
``ExInstance``, and a z key is an instance with q = 2 (``ZarKey.of``).  One
record path, ``exact_record``, sends two parts with q = 2 to the row engine
above and every other instance to the shared cross-pair branch and bound,
each under its own size guard (``check_size``).  One search front,
``z_exact`` (``extremal.ex_exact`` is the same function), puts the result
cache in front of it.

Every exact record carries a witness that is re-verified (edge count plus
detector) before the record is trusted, including on cache load.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Optional, Sequence

from . import detectors, search
from .search import kst_upper   # re-exported: the bound on z_t(m, n)
from .detectors import (Budget, BudgetExhausted, as_budget, contains_uniform_pattern,
                        find_biclique)
from .graphs import PartitionedGraph, bits, check_vertex_count
from .constructions import cayley_bipartite, largest_sidon_set

PRODUCT_LIMIT = 4096   # row-engine guard: m*n, and the 2^n rows of the smaller side
PAIR_LIMIT = 64        # pair-engine guard: number of cross pairs
E1_SIZES = (2,)        # gap_checks: the n whose z_t^(3)(n) is tabulated


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class ExInstance:
    """Canonical instance of ex(n_1, ..., n_k; K_q(t)): part sizes sorted
    descending, q >= 2 and t >= 1.  q >= 2 because K_1(t) is any t
    vertices, so no host with t or more vertices avoids it.  The z keys are
    the instances with q = 2 (``ZarKey.of``).
    """

    part_sizes: tuple[int, ...]
    q: int
    t: int

    def __post_init__(self):
        sizes = self.part_sizes
        if not sizes or any(s < 1 for s in sizes):
            raise OracleError(f"need >= 1 positive part sizes, got {sizes}")
        if self.t < 1:
            raise OracleError("t must be >= 1")
        if tuple(sorted(sizes, reverse=True)) != sizes:
            raise OracleError("part sizes must be sorted descending (canonical)")
        if self.q < 2:
            raise OracleError("q must be >= 2")

    @classmethod
    def of(cls, sizes: Sequence[int], q: int, t: int) -> "ExInstance":
        return cls(tuple(sorted(sizes, reverse=True)), q, t)

    def find_copy(self, g: PartitionedGraph):
        """A K_q(t) in g, or None; a K_2(t) is a K_{t,t}."""
        if self.q == 2:
            return find_biclique(g, self.t)
        # looked up on its module, so a wrapper installed there sees the call
        return detectors.find_complete_multipartite(g, self.q, self.t)


class ZarKey:
    """The z keys: z_t^(a)(n_1, ..., n_a) = ex(n_1, ..., n_a; K_2(t)), so a
    z key is the ``ExInstance`` with q = 2 on two or more parts."""

    @staticmethod
    def of(sizes: Sequence[int], t: int) -> ExInstance:
        sizes = tuple(sorted(sizes, reverse=True))
        if len(sizes) < 2 or sizes[-1] < 1:
            raise OracleError(f"need >= 2 positive part sizes, got {sizes}")
        return ExInstance(sizes, 2, t)


@dataclass
class Record:
    """A z_t or ex value with its witness; the key finds copies of the
    forbidden pattern (``find_copy``)."""

    key: ExInstance
    value: int
    witness: PartitionedGraph
    status: str               # "exact" | "lower_bound_only"

    def check(self) -> None:
        """Raise unless the witness has the key's part sizes, ``value`` edges
        and no copy of the key's pattern, checked in that order: used for
        every record, on cache load too."""
        if self.witness.part_sizes != self.key.part_sizes:
            raise OracleError("witness part sizes do not match the key")
        if self.witness.edge_count() != self.value:
            raise OracleError("witness edge count does not match the value")
        if self.key.find_copy(self.witness) is not None:
            raise OracleError("witness contains the forbidden pattern")

    def upper_bound(self) -> int:
        """An upper bound on the key's exact value, the host's static cap
        (``search.static_cap``): what a record cut short by the budget
        reports beside its lower bound."""
        return search.static_cap(self.key.part_sizes, self.key.q, self.key.t)


# ---------------------------------------------------------------------------
# exact bipartite search


class _RowTables:
    """Read-only tables of the row engine for rows over n columns and a given t.

    Column t-subset i is the i-th of ``combinations(range(n), t)``.
    ``tsub[c]`` has bit i set when row c contains t-subset i, ``popcount[c]``
    is the row's degree, and ``by_popcount[p]`` lists the rows of popcount p
    in ascending order.
    """

    __slots__ = ("tsub", "popcount", "by_popcount")

    def __init__(self, n: int, t: int):
        full = (1 << n) - 1
        tsub = [0] * (full + 1)
        for i, cols in enumerate(combinations(range(n), t)):
            s = sum(1 << j for j in cols)
            sup = s
            while sup <= full:            # every superset of s, ascending
                tsub[sup] |= 1 << i
                sup = (sup + 1) | s
        self.tsub = tuple(tsub)
        self.popcount = tuple(c.bit_count() for c in range(full + 1))
        by_popcount: list[list[int]] = [[] for _ in range(n + 1)]
        for c in range(full + 1):
            by_popcount[self.popcount[c]].append(c)
        self.by_popcount = tuple(tuple(rows) for rows in by_popcount)


@functools.cache
def _row_tables(n: int, t: int) -> _RowTables:
    """The tables every row search over (n, t) in the process uses, built on
    the first call, so that small queries do not rebuild them."""
    return _RowTables(n, t)


class _TSubsetCounts:
    """How many chosen rows contain each column t-subset (t >= 2).

    The counts are kept as t-1 bit planes: bit i of ``planes[k]`` is set when
    at least k+1 chosen rows contain t-subset i.  ``planes[-1]`` is therefore
    the saturated mask, the subsets already in t-1 chosen rows.  A row fits
    iff it contains no saturated subset, which is the K_{t,t}-freeness
    condition: no t-1 chosen rows share t columns with it.
    """

    __slots__ = ("tsub", "planes")

    def __init__(self, tables: _RowTables, t: int):
        self.tsub = tables.tsub
        self.planes = [0] * (t - 1)

    def fits(self, c: int) -> bool:
        return not self.tsub[c] & self.planes[-1]

    def push(self, c: int) -> None:
        """Count row c, which must fit."""
        planes = self.planes
        s = self.tsub[c]
        for k in range(len(planes) - 1, 0, -1):
            planes[k] |= planes[k - 1] & s
        planes[0] |= s

    def pop(self, c: int) -> None:
        """Uncount row c, which must have been pushed."""
        planes = self.planes
        s = self.tsub[c]
        top = len(planes) - 1
        for k in range(top):
            planes[k] &= ~(s & ~planes[k + 1])   # counts that were exactly k+1
        planes[top] &= ~s


def _z_bipartite(m: int, n: int, t: int,
                 budget: Budget) -> tuple[int, PartitionedGraph, bool]:
    """Max edges of a K_{t,t}-free bipartite graph with m rows over n columns.

    Returns (value, witness, exact).  Assumes m >= n (canonical key order).

    Rows are chosen in non-increasing order, and the columns are kept lex
    non-increasing from column n-1 down to 0, compared from row 0 on
    (double-lex, CP 2002; the module docstring has the orientation
    argument).  Bit j of ``tied`` is set while columns j and j+1 agree on
    every chosen row; a row with bit j set and bit j+1 clear would put
    column j ahead of column j+1 and is skipped while the two are tied.

    The star-budget bound on a candidate row depends only on its popcount,
    so each node works out the admissible popcounts once (memoized on rows
    left, stars left and the gap to the incumbent) and walks only the rows
    of those popcounts, re-testing a candidate's bound only after the
    incumbent improved inside the loop.  Feasibility is one AND against the
    saturated column t-subsets (``_TSubsetCounts``); the per-(n, t) tables
    come from ``_row_tables``.
    """
    def witness(rows: Sequence[int]) -> PartitionedGraph:
        return PartitionedGraph([m, n], [(i, m + j) for i, row in enumerate(rows)
                                         for j in bits(row)])

    full = (1 << n) - 1
    if min(m, n) < t:
        return m * n, witness([full] * m), True
    if t == 1:   # K_{1,1} is a single edge
        return 0, witness([]), True
    tables = _row_tables(n, t)
    tsub, popcount, by_popcount = tables.tsub, tables.popcount, tables.by_popcount
    star_cap = (t - 1) * comb(n, t)
    cost_of = [comb(p, t) for p in range(n + 1)]

    # (rows_left, stars_left, best - cur) -> (admissible flag per popcount,
    # ascending rows of the admissible popcounts)
    classes: dict[tuple[int, int, int], tuple[list[bool], list[int]]] = {}

    def popcount_classes(rows_left: int, stars_left: int, gap: int):
        key = (rows_left, stars_left, gap)
        entry = classes.get(key)
        if entry is None:
            ok = [p + search.max_edges_for_budget(rows_left - 1, n, t,
                                                  stars_left - cost_of[p]) > gap
                  for p in range(n + 1)]
            rows = sorted(chain.from_iterable(
                by_popcount[p] for p in range(n + 1) if ok[p]))
            entry = classes[key] = (ok, rows)
        return entry

    # greedy incumbent: best rows first (popcount, then value, descending)
    greedy = _TSubsetCounts(tables, t)
    best_rows: list[int] = []
    for _ in range(m):
        c = next(c for p in range(n, -1, -1) for c in reversed(by_popcount[p])
                 if greedy.fits(c))               # row 0 always fits
        greedy.push(c)
        best_rows.append(c)
    best = sum(popcount[c] for c in best_rows)

    chosen: list[int] = []
    counts = _TSubsetCounts(tables, t)
    planes = counts.planes
    spend = budget.spend
    push, pop = counts.push, counts.pop
    # one entry per chosen row, not one Python frame (module docstring): the
    # parent node's candidate iterator, edge count, stars left, column ties,
    # admissible popcounts and the incumbent they were worked out for
    stack: list[tuple] = []
    cur, stars_left, tied, c = 0, star_cap, full >> 1, full
    try:
        while True:
            # enter the node of the rows in ``chosen``, the last of them c
            spend()
            rows_left = m - len(chosen)
            if rows_left:
                ok, rows = popcount_classes(rows_left, stars_left, best - cur)
                cands = reversed(rows[:bisect_right(rows, c)])
                seen_best = best
            else:
                if cur > best:
                    best, best_rows = cur, list(chosen)
                cands = ()
            # the next child: the node's next fitting candidate, or once
            # those are done its parent's, and so on up
            while True:
                for c in cands:
                    if best != seen_best:    # the incumbent moved: re-test the bound
                        seen_best = best
                        ok = popcount_classes(m - len(chosen), stars_left, best - cur)[0]
                    if ok[popcount[c]] and not (tsub[c] & planes[-1]
                                                or c & tied & ~(c >> 1)):
                        break
                else:
                    if not stack:
                        return best, witness(best_rows), True
                    pop(chosen.pop())
                    cands, cur, stars_left, tied, ok, seen_best = stack.pop()
                    continue
                break
            stack.append((cands, cur, stars_left, tied, ok, seen_best))
            push(c)
            chosen.append(c)
            pc = popcount[c]
            cur, stars_left = cur + pc, stars_left - cost_of[pc]
            tied &= ~(c ^ (c >> 1))
    except BudgetExhausted:
        return best, witness(best_rows), False


# ---------------------------------------------------------------------------
# one record path for z keys and ex instances


def _on_rows(key: ExInstance) -> bool:
    """Whether the key goes to the row engine: two parts and q = 2."""
    return len(key.part_sizes) == 2 and key.q == 2


def check_size(key: ExInstance) -> None:
    """Raise unless the key's engine takes it.  The row engine tabulates all
    2^n rows of the smaller side before it consults the budget, so it takes
    m*n and 2^n up to PRODUCT_LIMIT; the pair engine takes PAIR_LIMIT cross
    pairs."""
    sizes = key.part_sizes
    if _on_rows(key):
        if max(sizes[0] * sizes[1], 1 << sizes[1]) > PRODUCT_LIMIT:
            raise OracleError(f"instance {sizes}: m*n and 2^n must be at most "
                              f"{PRODUCT_LIMIT} (exact-mode size guard)")
    elif (npairs := sum(a * b for a, b in combinations(sizes, 2))) > PAIR_LIMIT:
        raise OracleError(
            f"instance has {npairs} cross pairs, over the exact-mode guard {PAIR_LIMIT}")


def exact_record(key: ExInstance,
                 budget: "int | Budget | None" = None) -> Record:
    """The checked record of a search on the key's engine (module docstring).

    Budget exhaustion degrades to a ``lower_bound_only`` record with the best
    graph found.
    """
    check_size(key)
    bud = as_budget(budget)
    if _on_rows(key):
        value, witness, exact = _z_bipartite(*key.part_sizes, key.t, bud)
    else:
        value, witness, exact = search.maximize_free(key.part_sizes, key.q, key.t,
                                                     budget=bud)
    rec = Record(key, value, witness, "exact" if exact else "lower_bound_only")
    rec.check()
    return rec


def z_exact(key: ExInstance, budget: "int | Budget | None" = None,
            cache=None) -> Record:
    """Exact z or ex for the key (``exact_record``): ``extremal.ex_exact`` is
    this function.  ``cache`` (a ResultCache) is consulted and, with exact
    records, filled when given."""
    if cache is not None:
        hit = cache.get_ex(key)
        if hit is not None:
            return hit
    rec = exact_record(key, budget)
    if cache is not None and rec.status == "exact":
        cache.put_ex(rec)
    return rec


# ---------------------------------------------------------------------------
# constructive lower bounds


def z_lower_construction(n: int, t: int, seed: int = 0,
                         budget: "int | Budget | None" = None) -> Record:
    """Detector-verified lower-bound graph for z_t(n, n), t in {2, 3}.

    t=2: Sidon--Cayley graph from the largest B2 set found in Z_n.
    t=3: seeded greedy edge insertion with K_{3,3} feasibility, plus a
         single improvement pass (local search); deterministic per seed.
    """
    check_vertex_count(2 * n)
    if t == 2:
        s = largest_sidon_set(n)
        g = cayley_bipartite(n, s)
    elif t == 3:
        g = _greedy_ktt_free(n, 3, seed, as_budget(budget))
    else:
        raise OracleError("z_lower_construction supports t in {2, 3}")
    rec = Record(ZarKey.of((n, n), t), g.edge_count(), g, "lower_bound_only")
    rec.check()
    return rec


def _greedy_ktt_free(n: int, t: int, seed: int, budget: Budget) -> PartitionedGraph:
    import random
    rng = random.Random(seed)
    pairs = [(i, n + j) for i in range(n) for j in range(n)]
    rng.shuffle(pairs)
    rows = [0] * (2 * n)

    def try_add(u: int, v: int) -> bool:
        if contains_uniform_pattern(rows, u, v, 2, t, budget):
            return False
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return True

    rejected = []
    for u, v in pairs:
        if not try_add(u, v):
            rejected.append((u, v))
    # one improvement pass: an earlier rejection may fit after later additions
    for u, v in rejected:
        try_add(u, v)
    return PartitionedGraph.from_rows([n, n], rows)


# ---------------------------------------------------------------------------
# the multipartite stacking combinator


def stack_e1_construction(a: int, n: int, t: int, base: Record,
                          pair: Optional[Record]) -> PartitionedGraph:
    """(a+1)-partite K_{t,t}-free graph with base.value + pair.value edges.

    Places the base witness (an extremal graph for z_t^(a)(n)) on the crossing
    set V_2' (floor(n/2) vertices of V_1 plus ceil(n/2) of V_2) together with
    V_3..V_{a+1}, and the pair witness for z_t(floor(n/2), floor(n/2)) on the
    remaining vertices of V_1, V_2.  ``pair`` may be None only when n = 1.
    """
    if a < 2 or n < 1:
        raise OracleError("need a >= 2 and n >= 1")
    base.check()
    if base.key != ZarKey.of((n,) * a, t):
        raise OracleError(f"base record must be for z_t^({a})({n})")
    half = n // 2
    if half >= 1:
        if pair is None:
            raise OracleError("pair record required for n >= 2")
        pair.check()
        if pair.key != ZarKey.of((half, half), t):
            raise OracleError(f"pair record must be for z_t({half},{half})")
    # host: a+1 parts of size n.  Base vertex v goes to where[v]: its part 0
    # to V_2' (the first floor(n/2) vertices of V_1 and the first ceil(n/2)
    # of V_2), its part i to V_{i+2}
    where = [*range(half), *range(n, 2 * n - half), *range(2 * n, (a + 1) * n)]
    edges = [(where[u], where[v]) for u, v in base.witness.edges()]
    if half >= 1:
        # the pair witness joins the rest of V_1 to the rest of V_2
        edges += [(half + u, 2 * n - 2 * half + v) for u, v in pair.witness.edges()]
    return PartitionedGraph([n] * (a + 1), edges)


# ---------------------------------------------------------------------------
# finite-range property checks


def gap_checks(t: int, max_size: int, budget: "int | Budget | None" = None,
               cache=None) -> dict:
    """Hard-assert (E3) on the exact grid; tabulate the (E1)/(E2) differences.

    (E3): z_t(m, n) - z_t(m-1, n) >= t - 1 for every consecutive pair.
    (E1)/(E2) are asymptotic statements and are reported, never asserted.
    The grid holds both orientations of every size pair up to ``max_size``,
    which must be at least 1 and within the size guard; both are checked
    before any search.  A search cut short by the budget, for a grid cell or
    an (E1) row, decides nothing and raises ``BudgetExhausted``, so every
    row the report tabulates is exact.
    """
    if max_size < 1:
        raise OracleError(f"need max_size >= 1, got {max_size}")
    check_size(ZarKey.of((max_size, max_size), t))   # the grid's largest key
    budget = as_budget(budget)      # one budget for every search, an int too

    def exact_value(sizes: tuple[int, ...]) -> int:
        rec = z_exact(ZarKey.of(sizes, t), budget=budget, cache=cache)
        if rec.status != "exact":
            raise BudgetExhausted(
                f"the search for z_{t}({','.join(map(str, sizes))}) was cut short")
        return rec.value

    grid: dict[tuple[int, int], int] = {}
    for n in range(1, max_size + 1):
        for m in range(n, max_size + 1):
            grid[(m, n)] = grid[(n, m)] = exact_value((m, n))
    # (E3) needs room to attach t-1 edges on the other side, so the hard
    # assertion covers n >= t-1; smaller columns are reported, not asserted
    e3_failures = []
    e3_excluded = []
    for n in range(1, max_size + 1):
        for m in range(2, max_size + 1):
            diff = grid[(m, n)] - grid[(m - 1, n)]
            if n < t - 1:
                e3_excluded.append({"m": m, "n": n, "difference": diff})
            elif diff < t - 1:
                e3_failures.append((m, n))
    e1_rows = []
    for n in E1_SIZES:
        tri = exact_value((n, n, n))
        bi = grid[(n, n)] if (n, n) in grid else exact_value((n, n))
        e1_rows.append({"n": n, "z_a2": bi, "z_a3": tri,
                        "difference": tri - bi, "exact": True})
    e2_rows = []
    for n in range(2, max_size + 1):
        for m in range(1, n):
            e2_rows.append({"n": n, "m": m,
                            "difference": grid[(n, n)] - grid[(m, n)]})
    return {
        "t": t,
        "grid": {f"{m},{n}": v for (m, n), v in sorted(grid.items()) if m >= n},
        "e3_asserted": not e3_failures,
        "e3_failures": e3_failures,
        "e3_excluded_small_columns": e3_excluded,
        "e1_tabulated": e1_rows,
        "e2_tabulated": e2_rows,
    }
