"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: plain itertools enumeration over all
class assignments / all edge subsets, no pruning beyond early adjacency
failure, and no shared code with the production detectors or searches.
"""

from __future__ import annotations

from itertools import combinations, product

from turan_workbench.constructions import regular_c4free_bipartite
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


def naive_kqt_holds_vertex(g: PartitionedGraph, q: int, t: int, x: int) -> bool:
    """Whether some K_q(t) copy holds the vertex x: x's class is x plus
    t - 1 other vertices, and the other q - 1 classes are disjoint t-subsets
    of the vertices adjacent to every vertex of that class."""
    others = [v for v in range(g.num_vertices) if v != x]
    for rest in combinations(others, t - 1):
        cl = (x,) + rest
        common = [v for v in others if v not in rest
                  and all(g.has_edge(u, v) for u in cl)]
        if naive_contains_kqt(g, q - 1, t, common):
            return True
    return False


def naive_contains_kqt_through(g: PartitionedGraph, q: int, t: int, seed) -> bool:
    """Whether some K_q(t) copy contains every vertex of ``seed``: some
    qt-subset of the vertices that holds the seed spans one."""
    seed = set(seed)
    rest = [v for v in range(g.num_vertices) if v not in seed]
    if len(seed) > q * t:
        return False
    return any(naive_contains_kqt(g, q, t, sorted(seed.union(extra)))
               for extra in combinations(rest, q * t - len(seed)))


def naive_lex_least_kqt(g: PartitionedGraph, q: int, t: int, order=None):
    """The first qt-subset of the vertices, in lex order over ``order``
    (default: ascending), that spans a K_q(t), as a sorted tuple; None if
    the graph has no K_q(t)."""
    for sub in combinations(range(g.num_vertices) if order is None else order, q * t):
        if naive_contains_kqt(g, q, t, sub):
            return tuple(sorted(sub))
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


def naive_is_sidon(s, n: int) -> bool:
    """All differences a - b mod n of distinct members of s are distinct."""
    diffs = [(a - b) % n for a in s for b in s if a != b]
    return len(diffs) == len(set(diffs))


def naive_sidon_set(n: int, size: int):
    """The lex-least B2 set of ``size`` residues mod n that contains 0, or
    None: every candidate in lexicographic order."""
    for rest in combinations(range(1, n), size - 1):
        if naive_is_sidon((0,) + rest, n):
            return (0,) + rest
    return None


def naive_largest_sidon_set(n: int):
    """The lex-least B2 set of maximum size in Z_n that contains 0."""
    best = (0,)
    while (found := naive_sidon_set(n, len(best) + 1)) is not None:
        best = found
    return best


# ---------------------------------------------------------------------------
# edge-list builds of the constructions (the builders assemble bit rows)


def naive_cross_class_edges(part_sizes, cls) -> list[tuple[int, int]]:
    """All pairs in different classes and different parts."""
    edges = []
    total = sum(part_sizes)
    part_of = []
    for i, s in enumerate(part_sizes):
        part_of.extend([i] * s)
    for u in range(total):
        cu, pu = cls[u], part_of[u]
        for v in range(u + 1, total):
            if cls[v] != cu and part_of[v] != pu:
                edges.append((u, v))
    return edges


def naive_template(spec) -> PartitionedGraph:
    sizes = [spec.n] * spec.k
    return PartitionedGraph(sizes, naive_cross_class_edges(sizes, spec.class_of_vertices()))


def _mapped(g: PartitionedGraph, left, right) -> list[tuple[int, int]]:
    """The edges of the bipartite ``g`` with its sides mapped onto the
    vertex lists ``left`` and ``right``."""
    m = g.part_sizes[0]
    return [(left[u], right[v - m]) for u, v in g.edges()]


def naive_basic_construction(p, class1: PartitionedGraph) -> PartitionedGraph:
    """The basic construction: classes V_i u V_{i+r}, B on class 1 and
    (t-1)-regular C4-free graphs on classes 2..k-r."""
    n, r, k, t = p.n, p.r, p.k, p.t
    cluster = [list(range(c * n, (c + 1) * n)) for c in range(k)]
    cls = [c if c < r else c - r for c in range(k) for _ in range(n)]
    edges = naive_cross_class_edges([n] * k, cls)
    edges += _mapped(class1, cluster[0], cluster[r])
    for i in range(1, k - r):
        edges += _mapped(regular_c4free_bipartite(n, t - 1), cluster[i], cluster[i + r])
    return PartitionedGraph([n] * k, edges)


def naive_improved_construction(p, class1: PartitionedGraph) -> PartitionedGraph:
    """The moved-vertex construction (b >= 2 and k < 2r), vertex by vertex."""
    n, r, k, t = p.n, p.r, p.k, p.t
    b, tp, bp = p.b, p.t_prime, p.b_prime
    first = [None] + [list(range((i - 1) * n, i * n)) for i in range(1, r + 1)]
    second = [None] + [list(range((r + i - 1) * n, (r + i) * n)) for i in range(1, b + 1)]
    cls = [0] * (k * n)
    for i in range(1, r + 1):
        for v in first[i]:
            cls[v] = i - 1
    for i in range(1, b + 1):
        for v in second[i]:
            cls[v] = i - 1
    for i in range(2, bp + 2):
        for v in first[i][:tp] + second[i][:tp]:
            cls[v] = i + b - 2
    edges = naive_cross_class_edges([n] * k, cls)
    edges += _mapped(class1, first[1], second[1])
    for i in range(2, b + 1):
        skip = tp if i <= bp + 1 else 0
        edges += _mapped(regular_c4free_bipartite(n - skip, t - 1),
                         first[i][skip:], second[i][skip:])
    for i in range(b + 1, b + bp + 1):
        s1, s2 = first[i - b + 1][:tp], second[i - b + 1][:tp]
        for m, c in enumerate(s1 + s2):
            edges += [(c, leaf) for leaf in first[i][m * (t - 1):(m + 1) * (t - 1)]]
        edges += [(u, v) for u in s1 for v in s2]
    return PartitionedGraph([n] * k, edges)


# ---------------------------------------------------------------------------
# closest template, one owner map at a time on bit rows


def naive_allowances(leftover, r):
    """Owner maps as maps cluster -> allowed classes, in the order of
    ``product(leftover, repeat=r)``: every class is owned by exactly one
    leftover cluster, every leftover cluster owns at least one class (a
    single empty map when there are none)."""
    if not leftover:
        yield {}
        return
    for owners in product(leftover, repeat=r):
        alloc = {q: tuple(c for c, o in enumerate(owners) if o == q) for q in leftover}
        if all(alloc.values()):
            yield alloc


def _naive_shape_costs(g: PartitionedGraph, groups, leftover, r):
    """A shape's class per vertex (whole clusters only), fixed and cross
    costs, and each free vertex's disagreements per class, by popcounts of
    the bit rows."""
    fixed_masks = [0] * r
    base = [0] * g.num_vertices
    for cls_idx, grp in enumerate(groups):
        for c in grp:
            fixed_masks[cls_idx] |= g.part_mask(c)
            for v in g.part_vertices(c):
                base[v] = cls_idx
    all_fixed = 0
    for m in fixed_masks:
        all_fixed |= m
    twice = 0
    for m in fixed_masks:
        trow = all_fixed & ~m
        for v in range(g.num_vertices):
            if m >> v & 1:
                twice += ((g.neighbors(v) & all_fixed) ^ trow).bit_count()
    cross = sum(g.part_sizes[q] * g.part_sizes[p]
                - sum((g.neighbors(v) & g.part_mask(p)).bit_count()
                      for v in g.part_vertices(q))
                for q, p in combinations(leftover, 2))
    against = {v: [(g.neighbors(v) & m).bit_count()
                   + (all_fixed & ~m & ~g.neighbors(v)).bit_count()
                   for m in fixed_masks]
               for q in leftover for v in g.part_vertices(q)}
    return base, twice // 2, cross, against


def naive_closest_template(g: PartitionedGraph, r: int):
    """``closest_template``'s (distance, class_of, spec), evaluating every
    (shape, owner map) pair from scratch: each free vertex takes the first
    of its allowed classes of least cost, and a strictly lower distance
    replaces the best.  The shapes come in ``stability._shapes`` order and
    the spec from ``stability._spec_from_assignment``, so that ties break
    the same way."""
    from turan_workbench.stability import _shapes, _spec_from_assignment
    k, n = len(g.part_sizes), g.part_sizes[0]
    best = None
    for leftover, groups in _shapes(k, r):
        base, fixed, cross, against = _naive_shape_costs(g, groups, leftover, r)
        for allowance in naive_allowances(list(leftover), r):
            class_of = list(base)
            free = 0
            for q, allowed in allowance.items():
                for v in g.part_vertices(q):
                    bestc = allowed[0]
                    for c in allowed[1:]:
                        if against[v][c] < against[v][bestc]:
                            bestc = c
                    class_of[v] = bestc
                    free += against[v][bestc]
            if best is None or fixed + cross + free < best[0]:
                best = (fixed + cross + free, class_of, leftover)
    dist, class_of, leftover = best
    return dist, tuple(class_of), _spec_from_assignment(r, k, n, leftover, class_of)
