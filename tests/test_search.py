"""The cross-pair branch and bound with its symmetry breaking (swaps of two
vertices of one part, and of two consecutive parts of one size) keeps every
value of the unconstrained search, its witnesses are lex-leaders under each
of those swaps, and they are the witnesses of the search before it broke
part swaps."""

import hashlib
import sys
from itertools import combinations, combinations_with_replacement
from math import comb

from naive_oracles import naive_contains_kqt, naive_ex
from turan_workbench.constructions import turan_count
from turan_workbench.search import (_pair_order, biclique_host_cap, kst_upper,
                                   max_edges_for_budget, maximize_free, static_cap)
from turan_workbench.zarankiewicz import PAIR_LIMIT, ZarKey, z_exact

# part sizes -> {(q, t): ex(part sizes; K_q(t))}, as the search computed them
# before it broke any symmetry, on every host it solved within 300k nodes
# among: 2-4 parts of size <= 3, each multiset in descending and ascending
# order plus some mixed orders, 2 <= q <= min(parts, 4), t in {1, 2}, q t <= N.
SWEEP_VALUES = {
    (3, 3): {(2, 1): 0, (2, 2): 6},
    (3, 2): {(2, 1): 0, (2, 2): 4},
    (2, 3): {(2, 1): 0, (2, 2): 4},
    (3, 1): {(2, 1): 0, (2, 2): 3},
    (1, 3): {(2, 1): 0, (2, 2): 3},
    (2, 2): {(2, 1): 0, (2, 2): 3},
    (2, 1): {(2, 1): 0},
    (1, 2): {(2, 1): 0},
    (1, 1): {(2, 1): 0},
    (3, 3, 3): {(2, 1): 0, (3, 2): 24},
    (3, 3, 2): {(2, 1): 0, (2, 2): 11, (3, 1): 15, (3, 2): 19},
    (2, 3, 3): {(2, 1): 0, (2, 2): 11, (3, 1): 15, (3, 2): 19},
    (3, 3, 1): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 15},
    (1, 3, 3): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 15},
    (3, 2, 2): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 15},
    (2, 2, 3): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 15},
    (3, 2, 1): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 11},
    (1, 2, 3): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 11},
    (3, 1, 1): {(2, 1): 0, (2, 2): 5, (3, 1): 6},
    (1, 1, 3): {(2, 1): 0, (2, 2): 5, (3, 1): 6},
    (2, 2, 2): {(2, 1): 0, (2, 2): 7, (3, 1): 8, (3, 2): 11},
    (2, 2, 1): {(2, 1): 0, (2, 2): 6, (3, 1): 6},
    (1, 2, 2): {(2, 1): 0, (2, 2): 6, (3, 1): 6},
    (2, 1, 1): {(2, 1): 0, (2, 2): 4, (3, 1): 4},
    (1, 1, 2): {(2, 1): 0, (2, 2): 4, (3, 1): 4},
    (1, 1, 1): {(2, 1): 0, (3, 1): 2},
    (3, 3, 3, 3): {(2, 1): 0, (4, 2): 51},
    (3, 3, 3, 2): {(2, 1): 0, (4, 2): 43},
    (2, 3, 3, 3): {(2, 1): 0, (4, 2): 43},
    (3, 3, 3, 1): {(2, 1): 0, (4, 1): 33, (4, 2): 36},
    (1, 3, 3, 3): {(2, 1): 0, (4, 2): 36},
    (3, 3, 2, 2): {(2, 1): 0, (4, 1): 33, (4, 2): 36},
    (2, 2, 3, 3): {(2, 1): 0, (4, 2): 36},
    (3, 3, 2, 1): {(2, 1): 0, (3, 2): 25, (4, 1): 27, (4, 2): 29},
    (1, 2, 3, 3): {(2, 1): 0, (3, 2): 25, (4, 1): 27, (4, 2): 29},
    (3, 3, 1, 1): {(2, 1): 0, (3, 1): 16, (3, 2): 20, (4, 1): 21, (4, 2): 22},
    (1, 1, 3, 3): {(2, 1): 0, (3, 1): 16, (3, 2): 20, (4, 1): 21, (4, 2): 22},
    (3, 2, 2, 2): {(2, 1): 0, (3, 2): 26, (4, 1): 26, (4, 2): 29},
    (2, 2, 2, 3): {(2, 1): 0, (3, 2): 26, (4, 1): 26, (4, 2): 29},
    (3, 2, 2, 1): {(2, 1): 0, (3, 1): 16, (3, 2): 21, (4, 1): 21, (4, 2): 23},
    (1, 2, 2, 3): {(2, 1): 0, (3, 1): 16, (3, 2): 21, (4, 1): 21, (4, 2): 23},
    (3, 2, 1, 1): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 16, (4, 1): 16},
    (1, 1, 2, 3): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 16, (4, 1): 16},
    (3, 1, 1, 1): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 12, (4, 1): 11},
    (1, 1, 1, 3): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 12, (4, 1): 11},
    (2, 2, 2, 2): {(2, 1): 0, (3, 1): 16, (3, 2): 21, (4, 1): 20, (4, 2): 23},
    (2, 2, 2, 1): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 16, (4, 1): 16},
    (1, 2, 2, 2): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 16, (4, 1): 16},
    (2, 2, 1, 1): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 12, (4, 1): 12},
    (1, 1, 2, 2): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 12, (4, 1): 12},
    (2, 1, 1, 1): {(2, 1): 0, (2, 2): 6, (3, 1): 6, (4, 1): 8},
    (1, 1, 1, 2): {(2, 1): 0, (2, 2): 6, (3, 1): 6, (4, 1): 8},
    (1, 1, 1, 1): {(2, 1): 0, (2, 2): 4, (3, 1): 4, (4, 1): 5},
    (1, 2, 1): {(2, 1): 0, (2, 2): 4, (3, 1): 4},
    (2, 1, 2): {(2, 1): 0, (2, 2): 6, (3, 1): 6},
    (3, 1, 1, 2): {(2, 1): 0, (2, 2): 9, (3, 1): 12, (3, 2): 16, (4, 1): 16},
    (1, 3, 2): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 11},
    (2, 3, 1): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 11},
    (1, 2, 2, 1): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 12, (4, 1): 12},
    (2, 1, 3): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 11},
    (1, 2, 1, 2): {(2, 1): 0, (2, 2): 7, (3, 1): 9, (3, 2): 12, (4, 1): 12},
}


def _rows_lex_ordered(g, x):
    """Row x - 1 >= row x, comparing entries in increasing column order."""
    diff = g.neighbors(x - 1) ^ g.neighbors(x)
    return not diff or bool(g.neighbors(x - 1) & diff & -diff)


def _parts_lex_ordered(g, s):
    """The pair vector is at least its image under the swap of parts s and
    s + 1, comparing pairs in the search's order (part pair, then local
    indices)."""
    image = list(range(g.num_vertices))
    for x, y in zip(g.part_vertices(s), g.part_vertices(s + 1)):
        image[x], image[y] = y, x
    order = [(u, v) for i, j in combinations(range(len(g.part_sizes)), 2)
             for u in g.part_vertices(i) for v in g.part_vertices(j)]
    vector = [g.neighbors(u) >> v & 1 for u, v in order]
    return vector >= [g.neighbors(image[u]) >> image[v] & 1 for u, v in order]


def test_sweep_matches_the_unconstrained_search():
    assert sum(len(cases) for cases in SWEEP_VALUES.values()) == 215
    witnesses = []
    for sizes, cases in SWEEP_VALUES.items():
        small = sum(a * b for a, b in combinations(sizes, 2)) <= 12
        for (q, t), value in cases.items():
            got, g, exact = maximize_free(sizes, q, t)
            assert exact and got == g.edge_count() == value, (sizes, q, t)
            assert not naive_contains_kqt(g, q, t), (sizes, q, t)
            assert all(_rows_lex_ordered(g, x) for x in range(1, g.num_vertices)
                       if g.part_of[x - 1] == g.part_of[x]), (sizes, q, t)
            assert all(_parts_lex_ordered(g, s) for s in range(len(sizes) - 1)
                       if sizes[s] == sizes[s + 1]), (sizes, q, t)
            if small:
                assert naive_ex(sizes, q, t) == value, (sizes, q, t)
            witnesses.append((sizes, q, t, g.rows()))
    # the witnesses of the search with within-part ties alone
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == \
        "5924315ca25617634b3bc770f34e5d6d01d8511d6ea356f361f7384436473f4a"


def test_the_walk_constraints_keep_every_orbit_leader_on_two_parts_of_four():
    # (4,4) is the least host whose part swap has a pair that is not strict,
    # so the sweep never reaches that case.  Every one of its 2^16 graphs is
    # walked through the constraints as the search applies them from
    # _pair_order's tables; the lex-largest graph of each orbit under the
    # host's symmetries must pass.  A graph is an int whose bit P - 1 - p is
    # pair p, so a larger int is lex-larger in the pair order.
    pairs, _, root_tied, swaps, swap_mask = _pair_order((4, 4))
    P = len(pairs)
    assert any(not strict for entries in swaps for _, _, strict in entries)
    index = {(u, v): p for p, (u, v, _) in enumerate(pairs)}

    def kept(X):
        bits = [X >> (P - 1 - p) & 1 for p in range(P)]
        tied, tied_swaps = list(root_tied), swap_mask
        for p, (u, v, _) in enumerate(pairs):
            for x, pred in ((u, (u - 1, v)), (v, (u, v - 1))):
                if tied[x] and bits[p] != bits[index[pred]]:
                    if bits[p]:
                        return False
                    tied[x] = False
            for bit, image, strict in swaps[p]:
                if tied_swaps & bit and bits[p] != bits[image]:
                    if bits[p] and strict:
                        return False
                    tied_swaps &= ~bit
        return True

    # the host's symmetries: adjacent transpositions in a part, the part swap
    gens = []
    for image in ([1, 0, 2, 3, 4, 5, 6, 7], [0, 2, 1, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
                  [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 6, 5, 7], [0, 1, 2, 3, 4, 5, 7, 6],
                  [4, 5, 6, 7, 0, 1, 2, 3]):
        moved = [index[tuple(sorted((image[u], image[v])))] for u, v, _ in pairs]

        def permuted(X):
            return sum(1 << (P - 1 - moved[p]) for p in range(P) if X >> (P - 1 - p) & 1)

        # the permuted graph of X is low[X & 255] | high[X >> 8]
        gens.append(([permuted(byte) for byte in range(256)],
                     [permuted(byte << 8) for byte in range(256)]))
    seen = bytearray(1 << P)
    orbits = 0
    for start in range(1 << P):
        if seen[start]:
            continue
        orbits += 1
        orbit = [start]
        seen[start] = 1
        for X in orbit:
            for low, high in gens:
                Y = low[X & 255] | high[X >> 8]
                if not seen[Y]:
                    seen[Y] = 1
                    orbit.append(Y)
        assert kept(max(orbit)), max(orbit)
    assert orbits == 192


def test_tripartite_zarankiewicz_is_exact():
    # z_2^(3)(3): beyond a 3M-node budget without symmetry breaking
    rec = z_exact(ZarKey.of((3, 3, 3), 2))
    assert (rec.value, rec.status) == (13, "exact")
    rec.check()


def test_static_cap_bounds_every_value():
    # the cap is at least every sweep value, and at least the exhaustive
    # value on hosts of at most 9 cross pairs for q <= 4 and t <= 2
    for sizes, cases in SWEEP_VALUES.items():
        for (q, t), value in cases.items():
            assert static_cap(sizes, q, t) >= value, (sizes, q, t)
    for sizes in [(2, 1), (3, 2), (3, 3), (1, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1),
                  (1, 1, 1, 1), (2, 1, 1, 1)]:
        assert sum(a * b for a, b in combinations(sizes, 2)) <= 9
        for q in (2, 3, 4):
            for t in (1, 2):
                assert static_cap(sizes, q, t) >= naive_ex(sizes, q, t), (sizes, q, t)
    # on the Turan-identity hosts, k parts of n with r dividing k, Turan's
    # bound t_r(kn) is the value t_r(k) n^2 itself
    for n in range(1, 5):
        for k in range(2, 7):
            for r in (r for r in range(1, k + 1) if k % r == 0):
                assert static_cap((n,) * k, r + 1, 1) == turan_count(r, k) * n * n, (n, k, r)


def test_stack_depth_does_not_grow_with_the_pair_count():
    # (2,2,2,2,2,2) / K_4(2) has 60 cross pairs; a search with one frame per
    # pair index would need about 60 frames below the caller, this one needs
    # its own frame and those of one probe
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        value, g, exact = maximize_free((2, 2, 2, 2, 2, 2), 4, 2, budget=500)
    finally:
        sys.setrecursionlimit(limit)
    assert (value, exact) == (46, False)
    assert g.edge_count() == 46


def test_block_sum_is_never_below_the_host_cap():
    # biclique_host_cap takes no block-sum term: on every descending host of
    # three or more parts within the pair engine's guard the sum of the
    # blocks' KST bounds is at least the cap, so the term never cut
    shapes = []

    def extend(sizes):
        if len(sizes) >= 3:
            shapes.append(sizes)
        for s in range(sizes[-1], 0, -1):
            if sum(a * b for a, b in combinations(sizes + (s,), 2)) <= PAIR_LIMIT:
                extend(sizes + (s,))

    for first in range(1, PAIR_LIMIT + 1):
        extend((first,))
    assert len(shapes) == 383
    for sizes in shapes:
        for t in range(1, 11):
            blocks = sum(kst_upper(a, b, t) for a, b in combinations(sizes, 2))
            assert blocks >= biclique_host_cap(sizes, t), (sizes, t)


def test_max_edges_for_budget_against_the_star_cost_table():
    # the closed form is the last e of min_star_cost(e, rows, t), e = 0..
    # rows*cols (which never decreases in e) within the budget, on a grid
    # past the degree-sequence scan below
    from bisect import bisect_right
    from turan_workbench.search import min_star_cost
    for rows in range(0, 40, 3):
        for cols in range(0, 30, 4):
            for t in range(1, 8):
                table = [min_star_cost(e, rows, t) for e in range(rows * cols + 1)]
                for budget in sorted({-1, 0, *range(0, table[-1] + 3, max(1, table[-1] // 50)),
                                      *table}):
                    assert max_edges_for_budget(rows, cols, t, budget) == \
                        bisect_right(table, budget) - 1, (rows, cols, t, budget)


def test_max_edges_for_budget_against_a_scan_of_degree_sequences():
    # the most edges over ``rows`` degrees of at most ``cols`` whose star
    # cost sum C(d_i, t) is within the budget, -1 below budget 0
    for rows in range(7):
        for cols in range(7):
            degrees = list(combinations_with_replacement(range(cols + 1), rows))
            for t in range(1, 5):
                costs = [(sum(comb(d, t) for d in ds), sum(ds)) for ds in degrees]
                for budget in range(-1, max(c for c, _ in costs) + 2):
                    best = max((e for c, e in costs if c <= budget), default=-1)
                    assert max_edges_for_budget(rows, cols, t, budget) == best, \
                        (rows, cols, t, budget)
