"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: plain itertools enumeration over all
class assignments / all edge subsets, no pruning beyond early adjacency
failure, and no shared code with the production detectors or searches.
"""

from __future__ import annotations

from itertools import combinations

from turan_workbench.graphs import PartitionedGraph


def naive_degree_into(g: PartitionedGraph, v: int, verts) -> int:
    """Neighbours of v among the vertex indices ``verts``."""
    return sum(g.has_edge(v, u) for u in verts)


def naive_co_degree_into(g: PartitionedGraph, v: int, verts) -> int:
    """Non-neighbours of v among the vertex indices ``verts`` (v itself
    counts when it is one of them)."""
    return sum(not g.has_edge(v, u) for u in verts)


def naive_contains_star(g: PartitionedGraph, t: int, within=None) -> bool:
    verts = list(range(g.num_vertices)) if within is None else sorted(within)
    vset = set(verts)
    for v in verts:
        for leaves in combinations([u for u in verts if u != v], t):
            if all(g.has_edge(v, u) for u in leaves):
                return True
    return False


def naive_contains_biclique(g: PartitionedGraph, s: int, t: int, within=None) -> bool:
    verts = list(range(g.num_vertices)) if within is None else sorted(within)
    for a in combinations(verts, s):
        rest = [u for u in verts if u not in a]
        for b in combinations(rest, t):
            if all(g.has_edge(u, v) for u in a for v in b):
                return True
    return False


def naive_contains_kqt(g: PartitionedGraph, q: int, t: int, verts=None) -> bool:
    """Whether some q disjoint t-subsets of ``verts`` (default: all
    vertices) have every cross-class pair an edge."""
    verts = list(range(g.num_vertices)) if verts is None else list(verts)

    def rec(classes: list[tuple[int, ...]], remaining: list[int], lastmin: int) -> bool:
        if len(classes) == q:
            return True
        for cl in combinations(remaining, t):
            if min(cl) < lastmin:     # classes are unordered; fix by min element
                continue
            if all(g.has_edge(u, v) for prev in classes for u in prev for v in cl):
                rest = [x for x in remaining if x not in cl]
                if rec(classes + [cl], rest, min(cl)):
                    return True
        return False

    return rec([], verts, -1)


def naive_contains_kqt_through(g: PartitionedGraph, q: int, t: int, seed) -> bool:
    """Whether some K_q(t) copy contains every vertex of ``seed``: some
    qt-subset of the vertices that holds the seed spans one."""
    seed = set(seed)
    rest = [v for v in range(g.num_vertices) if v not in seed]
    if len(seed) > q * t:
        return False
    return any(naive_contains_kqt(g, q, t, sorted(seed.union(extra)))
               for extra in combinations(rest, q * t - len(seed)))


def naive_lex_least_kqt(g: PartitionedGraph, q: int, t: int):
    """The first qt-subset of the vertices, in lex order, that spans a
    K_q(t), as a sorted tuple; None if the graph has no K_q(t)."""
    for sub in combinations(range(g.num_vertices), q * t):
        if naive_contains_kqt(g, q, t, sub):
            return sub
    return None


def naive_z(m: int, n: int, t: int) -> int:
    """Exhaustive max edges of a K_{t,t}-free bipartite graph, via all 2^(mn)
    edge sets (rows of column-bitmasks)."""
    best = 0
    row_sets = list(range(1 << n))
    rowsets_count = [c.bit_count() for c in row_sets]

    def ktt_free(rows: tuple[int, ...]) -> bool:
        for group in combinations(rows, t):
            common = (1 << n) - 1
            for r in group:
                common &= r
            if common.bit_count() >= t:
                return False
        return True

    def rec(i: int, rows: tuple[int, ...], edges: int) -> None:
        nonlocal best
        if i == m:
            if edges > best and ktt_free(rows):
                best = edges
            return
        for c in row_sets:
            rec(i + 1, rows + (c,), edges + rowsets_count[c])

    # flat enumeration is clearer and fast enough at mn <= 16
    for code in range(1 << (m * n)):
        rows = tuple((code >> (i * n)) & ((1 << n) - 1) for i in range(m))
        e = sum(r.bit_count() for r in rows)
        if e > best and ktt_free(rows):
            best = e
    return best


def naive_ex(part_sizes, q: int, t: int) -> int:
    """Exhaustive max edges of a K_q(t)-free multipartite graph (tiny hosts)."""
    host = PartitionedGraph(part_sizes)
    pairs = [(u, v) for u in range(host.num_vertices)
             for v in range(u + 1, host.num_vertices)
             if host.part_of[u] != host.part_of[v]]
    best = 0
    for code in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if (code >> i) & 1]
        if len(edges) <= best:
            continue
        g = PartitionedGraph(part_sizes, edges)
        if not naive_contains_kqt(g, q, t):
            best = len(edges)
    return best
