"""The cross-pair branch and bound with within-part symmetry breaking keeps
every value of the unconstrained search, and its witnesses are lex-leaders."""

import sys
from itertools import combinations, combinations_with_replacement
from math import comb

from naive_oracles import naive_contains_kqt, naive_ex
from turan_workbench.constructions import turan_count
from turan_workbench.search import (biclique_host_cap, kst_upper, max_edges_for_budget,
                                   maximize_free, static_cap)
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


def test_sweep_matches_the_unconstrained_search():
    assert sum(len(cases) for cases in SWEEP_VALUES.values()) == 215
    for sizes, cases in SWEEP_VALUES.items():
        small = sum(a * b for a, b in combinations(sizes, 2)) <= 12
        for (q, t), value in cases.items():
            got, g, exact = maximize_free(sizes, q, t)
            assert exact and got == g.edge_count() == value, (sizes, q, t)
            assert not naive_contains_kqt(g, q, t), (sizes, q, t)
            assert all(_rows_lex_ordered(g, x) for x in range(1, g.num_vertices)
                       if g.part_of[x - 1] == g.part_of[x]), (sizes, q, t)
            if small:
                assert naive_ex(sizes, q, t) == value, (sizes, q, t)


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
