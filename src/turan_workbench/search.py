"""Maximum-edge search for pattern-free multipartite graphs.

Branch and bound over the cross pairs of a k-partite host in canonical
order (part pair, then local indices), include-branch first so dense
incumbents are found early.  The include branch is feasible iff adding the
pair creates no forbidden copy; since the current graph is pattern-free,
any new copy must use the new edge between two classes, so feasibility is a
K_q(t) search anchored at that edge (``contains_uniform_pattern``).  The
probe runs on the search's own adjacency rows before the edge is added, and
pays only for its yes/no answer: popcount pretests on the common
neighbourhoods settle most probes before they spend a node.  A probe
spends its first node only after fixing u's and v's classes with (q-2)t
common neighbours left for the others, qt distinct vertices in all, so on
a host of fewer than qt vertices every probe answers no without a node.

Vertices of one host part are interchangeable, so the search skips every
graph that swapping two consecutive vertices of a part makes lex-larger
(lex-leader constraints, as in Codish, Miller, Prosser and Stuckey,
"Breaking symmetries in graph representation", IJCAI 2013).  For each
vertex x whose predecessor x-1 lies in the same part, ``tied[x]`` holds
while the rows of x-1 and x agree on every pair decided so far.  The
include branch of (u, v) is skipped when ``tied[u]`` holds and (u-1, v) is
absent, or ``tied[v]`` holds and (u, v-1) is absent; the exclude branch
ends a tie whose predecessor has the edge; both are restored on backtrack.
This is exactly the lex-leader constraint for the transposition (x-1 x) on
the pair vector, include (1) before exclude (0): the transposition only
swaps (x-1, w) with (x, w), in the canonical order (x-1, w) is always
decided before (x, w), and both rows meet their columns w in the same
increasing order, so the swapped vector is lex-smaller or equal iff row
x-1 >= row x over the columns in that order.

Two consecutive parts s, s+1 of one size are interchangeable too (canonical
sizes are sorted descending, so equal parts are next to each other), and
the search also keeps the lex-leader constraint X >= sigma_s(X) for the
swap sigma_s of those parts (Crawford, Ginsberg, Luks and Roy, KR 1996),
with one tie per swap, kept as a bit of an int.  The swap moves block
(h, s) to (h, s+1), block (s, j) to (s+1, j), and block (s, s+1) to its own
transpose; each pair it moves to an earlier pair meets that image, already
decided, when the walk reaches it (``_pair_order`` tabulates the images
once per part-size tuple).  While the swap is tied, excluding the pair when
its image is in ends the tie, and including it when its image is out is
skipped.  The skip is sound only when the two vectors' first difference
would be at that image, so only when no pair the walk decides later has an
earlier image ("strict"); a pair that is not strict ends the tie when it
differs from its image.  The later pairs' images come in the walk's own
order except in the transposed block, and there from parts of four
vertices on: on (4,4,4), two pairs are not strict.  The within-part ties
work the same way, with every pair strict.

Every constraint here is implied by X >= tau(X) in the one pair order, for
tau the swap it breaks, so the lex-max member of every orbit satisfies them
all at once, and every value is unchanged.  The include-first walk reaches
leaves in decreasing lex order and no bound cuts a branch before the first
optimum is found (below), so the witness is the lex-max optimum with or
without the constraints: witnesses do not move either.

For K_2(t) (the multipartite Zarankiewicz case) the tree is pruned by the
Kovari--Sos--Turan star count: a K_{t,t}-free graph has sum_v C(d_v, t)
<= (t-1) C(n, t) over any n columns, and for a fixed edge count the sum is
least with degrees as equal as possible.  ``max_edges_for_budget`` solves
that bound for the edge count, and every K_2(t) cap here and in the
bipartite row engine is read from it.  Per part-pair block the bipartite
restriction obeys the bound in both orientations (``kst_upper``).  The
pair order takes the blocks one after another, so at any index the blocks
before the current one are decided and those after it untouched: the
per-block headroom is the current block's room plus a precomputed suffix
sum of the later blocks' caps (``kst_upper`` for K_2(t), the block's pair
count otherwise; the bound never exceeds the pair count).

Every search also has a static cap on the whole host (``static_cap``).  For
q = 2 it is the least of the star count over all N vertices, sum_v C(d_v,
t) <= (t-1) C(N, t), and, for each part, the bound on its cut to the rest
plus the cap of the rest, taken recursively (``biclique_host_cap``).  For
t = 1 and 3 <= q <= N it is Turan's theorem (1941), by which a K_q-free
graph on N vertices has at most t_{q-1}(N) edges, taken with the
cross-pair count; otherwise it is the cross-pair count, which bounds
nothing.  On k parts of n with r dividing k, Turan's bound t_r(kn) equals
the value t_r(k) n^2, so the Turan identity is proven as soon as its first
optimum is found.  The search ends once the incumbent meets the cap.
Neither the cap nor the stop changes a witness: while the incumbent is
below the true value, which is at most the cap, ``min(cur + headroom, cap)
<= best`` holds only where ``cur + headroom <= best`` does, so no branch is
cut before the first optimum is found, and the witness is that first
optimum (later graphs replace it only when strictly larger).

The tree is walked with an explicit stack, one entry per level (the pair
index), not one Python frame per node.  Its depth is the pair count, 48 on
(4,4,4), 60 on six parts of 2, so a recursion would come close to the
interpreter's recursion limit on larger hosts.  It would also push and pop
a frame at every node, and the recursive walk spent as much as half its
time in the kernel, page-faulting, depending on how deep the caller's
stack was when it started (most likely CPython 3.11 freeing and mapping a
data-stack chunk each time the recursion swings across a chunk boundary).
The loop keeps a fixed stack depth whatever the caller.

``zarankiewicz.exact_record`` sends every z key and ex instance here except
those with two parts and q = 2, which go to the bipartite row engine
(z_t^{(a)} is exactly ex(n_1..n_a; K_2(t))).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import Sequence

from .constructions import turan_count
from .detectors import Budget, BudgetExhausted, as_budget, contains_uniform_pattern
from .graphs import PartitionedGraph


def min_star_cost(edges: int, rows: int, t: int) -> int:
    """Min of sum C(d_i, t) over ``rows`` nonnegative degrees summing to ``edges``."""
    if rows <= 0:
        return 0 if edges == 0 else 10**18
    d, s = divmod(edges, rows)
    return s * comb(d + 1, t) + (rows - s) * comb(d, t)


def max_edges_for_budget(rows: int, cols: int, t: int, star_budget: int) -> int:
    """Largest e <= rows*cols whose equal-degree star cost is within budget,
    -1 when the budget is negative.

    ``min_star_cost(e, rows, t)`` never decreases in e, and with e = d*rows
    + s (0 <= s < rows) it is rows*C(d, t) + s*C(d, t-1).  So the answer
    takes the largest d <= cols with rows*C(d, t) within budget, then as
    many rows of degree d+1 as the rest of the budget pays for; fewer than
    all of them, or d+1 would have fitted.
    """
    if star_budget < 0:
        return -1
    if rows * comb(cols, t) <= star_budget:
        return rows * cols
    lo, hi = 0, cols          # rows*C(lo, t) fits and rows*C(hi, t) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rows * comb(mid, t) <= star_budget:
            lo = mid
        else:
            hi = mid
    return lo * rows + (star_budget - rows * comb(lo, t)) // comb(lo, t - 1)


def kst_upper(m: int, n: int, t: int) -> int:
    """Explicit upper bound for z_t(m, n): the integer convexity form of the
    Kovari--Sos--Turan bound, taken in both orientations.  Returns m*n when
    no K_{t,t} fits."""
    if m < 1 or n < 1 or t < 1:
        raise ValueError("m, n, t must be >= 1")
    if m < t or n < t:
        return m * n
    return min(max_edges_for_budget(m, n, t, (t - 1) * comb(n, t)),
               max_edges_for_budget(n, m, t, (t - 1) * comb(m, t)))


def whole_graph_cap(num_vertices: int, t: int) -> int:
    """Max edges with sum_v C(d_v, t) <= (t-1) C(N, t): in any K_{t,t}-free
    graph every t-set has at most t-1 common neighbours, so the star count
    is capped regardless of the part structure.  The star cost grows with
    the degree sum, so this is half the largest degree sum within budget."""
    n = num_vertices
    return max_edges_for_budget(n, n - 1, t, (t - 1) * comb(n, t)) // 2


def biclique_host_cap(part_sizes: Sequence[int], t: int) -> int:
    """Recursive static cap on K_2(t)-free edge counts in a multipartite host."""
    return _biclique_cap(tuple(sorted(part_sizes, reverse=True)), t)


@cache
def _biclique_cap(sizes: tuple[int, ...], t: int) -> int:
    """``biclique_host_cap`` on descending sizes, memoised per process: the
    recursion meets the same sub-hosts many times, and so do the searches.

    The sum of the part-pair blocks' ``kst_upper`` bounds is no cap of its
    own: the convexity bound is subadditive in its column count, so a cut's
    bound is at most the sum of its blocks' bounds and the cut chain is
    never above the block sum (the tests check this on every host within
    the pair engine's guard, t = 1..10)."""
    if len(sizes) == 1:
        return 0
    if len(sizes) == 2:
        return kst_upper(sizes[0], sizes[1], t)
    total = sum(sizes)
    best = whole_graph_cap(total, t)
    for i in range(len(sizes)):
        cut = kst_upper(sizes[i], total - sizes[i], t)
        best = min(best, cut + _biclique_cap(sizes[:i] + sizes[i + 1:], t))
    return best


def static_cap(part_sizes: Sequence[int], q: int, t: int) -> int:
    """Upper bound on the edges of a K_q(t)-free graph in G(n_1, ..., n_k):
    ``biclique_host_cap`` for q = 2; for t = 1 and 3 <= q <= N, Turan's
    bound t_{q-1}(N) on K_q-free graphs with N vertices, or the cross-pair
    count when that is smaller; otherwise the cross-pair count."""
    if q == 2:
        return biclique_host_cap(part_sizes, t)
    n = sum(part_sizes)
    pairs = (n * n - sum(s * s for s in part_sizes)) // 2
    if t == 1 and q <= n:
        return min(pairs, turan_count(q - 1, n))
    return pairs


@cache
def _pair_order(sizes: tuple[int, ...]) -> tuple:
    """The pair walk's tables for one part-size tuple, memoised per process
    so that a small query does not rebuild them:

    * ``pairs``: (u, v, block) in the canonical order, block by block;
    * ``block_end``: the index after each block's last pair;
    * ``tied``: the within-part ties at the root (x - 1 lies in x's part);
    * ``swaps[p]``: for each swap of two consecutive equal parts that moves
      pair p to an earlier pair, (bit, that pair, strict), where bit is the
      swap's bit in the tie mask (4 << s) and strict says whether the pair
      may forbid its include while the swap is tied (module docstring);
    * ``swap_mask``: every swap's bit, the tie mask at the root."""
    host = PartitionedGraph(sizes)
    pairs: list[tuple[int, int, int]] = []
    block_end: list[int] = []
    for b, (i, j) in enumerate(combinations(range(len(sizes)), 2)):
        pairs += [(u, v, b) for u in host.part_vertices(i) for v in host.part_vertices(j)]
        block_end.append(len(pairs))
    index = {(u, v): p for p, (u, v, _) in enumerate(pairs)}
    swaps: list[list[tuple[int, int, bool]]] = [[] for _ in pairs]
    swap_mask = 0
    for s in range(len(sizes) - 1):
        if sizes[s] != sizes[s + 1]:
            continue
        bit = 4 << s
        swap_mask |= bit
        swapped = list(range(host.num_vertices))
        for x, y in zip(host.part_vertices(s), host.part_vertices(s + 1)):
            swapped[x], swapped[y] = y, x
        # the pairs the swap moves to an earlier pair, with that image, in
        # the order the walk decides them
        moved = [(p, image) for p, (u, v, _) in enumerate(pairs)
                 if (image := index[tuple(sorted((swapped[u], swapped[v])))]) < p]
        earliest = len(pairs)   # the least image of the pairs decided after p
        for p, image in reversed(moved):
            swaps[p].append((bit, image, image < earliest))
            earliest = min(earliest, image)
    tied = tuple(x > 0 and host.part_of[x - 1] == host.part_of[x]
                 for x in range(host.num_vertices))
    return (tuple(pairs), tuple(block_end), tied,
            tuple(tuple(entries) for entries in swaps), swap_mask)


def maximize_free(part_sizes: Sequence[int], q: int, t: int,
                  budget: "int | Budget | None" = None
                  ) -> tuple[int, PartitionedGraph, bool]:
    """Exact max edge count of a K_q(t)-free graph in G(n_1, ..., n_k).

    Returns (value, the best graph found, exact); ``exact`` is False when
    the budget ran out first (the value is then only a lower bound).
    """
    sizes = tuple(part_sizes)
    pairs, block_end, root_tied, swaps, swap_mask = _pair_order(sizes)
    rows = [0] * len(root_tied)
    bud = as_budget(budget)

    # each block's cap for the K_2(t) counting bounds
    block_cap = [kst_upper(m, n, t) if q == 2 else m * n for m, n in combinations(sizes, 2)]
    total = len(pairs)
    cap = static_cap(sizes, q, t)
    # later_room[b]: room in the (untouched) blocks after b
    later_room = [0] * len(block_cap)
    for b in range(len(block_cap) - 2, -1, -1):
        later_room[b] = later_room[b + 1] + block_cap[b + 1]

    best = -1
    best_rows = list(rows)
    exact = True
    used_block = [0] * len(block_cap)
    # tied[x]: x - 1 lies in x's part and their rows agree on every pair
    # decided so far; tied_swaps: the bits of the part swaps whose pairs
    # agree with their images so far (see the module docstring)
    tied = list(root_tied)
    tied_swaps = swap_mask
    wide = swap_mask.bit_length()

    # the tree is walked with one entry per level (the pair index) instead
    # of one Python frame per node (see the module docstring): included[i]
    # says whether the child being searched below level i is its include
    # child, ended[i] the ties that level's children end: bit 0 u's and
    # bit 1 v's, the swap bits those the exclude child ends, and the swap
    # bits shifted left by ``wide`` those the include child ends
    included = [False] * total
    ended = [0] * total
    idx = cur = 0
    try:
        while True:
            # enter the node (idx, cur)
            if best >= cap:     # the incumbent meets the cap: no branch can beat it
                break
            bud.spend()
            if cur > best:
                best = cur
                best_rows = list(rows)
            if idx < total:
                u, v, b = pairs[idx]
                headroom = (min(block_end[b] - idx, block_cap[b] - used_block[b])
                            + later_room[b])
                if min(cur + headroom, cap) > best:
                    # tie_u: u is tied and its predecessor has the edge
                    # (u - 1, v); a tied vertex may take the pair only then
                    # (likewise v with (u, v - 1))
                    tie_u = tied[u] and rows[u - 1] >> v & 1
                    tie_v = tied[v] and rows[v - 1] >> u & 1
                    end = (1 if tie_u else 0) | (2 if tie_v else 0)
                    free = (used_block[b] < block_cap[b] and (tie_u or not tied[u])
                            and (tie_v or not tied[v]))
                    if tied_swaps:
                        # a tied swap's image of the pair was decided earlier
                        for bit, image, strict in swaps[idx]:
                            if tied_swaps & bit:
                                if included[image]:
                                    end |= bit
                                elif strict:
                                    free = False
                                else:
                                    end |= bit << wide
                    ended[idx] = end
                    if free and not contains_uniform_pattern(rows, u, v, q, t, bud):
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                        used_block[b] += 1
                        tied_swaps &= ~(end >> wide)
                        included[idx] = True
                        idx += 1
                        cur += 1
                        continue
                    # excluding the pair ends a tie whose predecessor or
                    # image has the edge
                    if tie_u:
                        tied[u] = False
                    if tie_v:
                        tied[v] = False
                    tied_swaps &= ~end
                    included[idx] = False
                    idx += 1
                    continue
            # the node is done: return to the nearest level with a child left;
            # the levels passed on the way searched their exclude child, so
            # the node has one edge more than that level
            while idx > 0:
                idx -= 1
                u, v, b = pairs[idx]
                end = ended[idx]
                if included[idx]:
                    used_block[b] -= 1
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
                    if end & 1:
                        tied[u] = False
                    if end & 2:
                        tied[v] = False
                    tied_swaps = (tied_swaps | end >> wide) & ~end
                    included[idx] = False
                    cur -= 1
                    idx += 1
                    break
                if end & 1:
                    tied[u] = True
                if end & 2:
                    tied[v] = True
                tied_swaps |= end & swap_mask
            else:
                break
    except BudgetExhausted:
        exact = False

    return max(best, 0), PartitionedGraph.from_rows(sizes, best_rows), exact
