import hashlib
import time

import pytest

from naive_oracles import naive_z
from turan_workbench.detectors import find_biclique
from turan_workbench.zarankiewicz import (ExInstance, OracleError, ZarKey,
                                          gap_checks, kst_upper,
                                          stack_e1_construction, z_exact,
                                          z_lower_construction)


def test_zarkey_canonical():
    assert ZarKey.of((3, 5), 2).part_sizes == (5, 3)
    with pytest.raises(OracleError):
        ExInstance((3, 5), 2, 2)
    with pytest.raises(OracleError):
        ZarKey.of((3,), 2)


def test_kst_upper_trivial_regime():
    assert kst_upper(1, 5, 2) == 5
    assert kst_upper(5, 1, 2) == 5
    assert kst_upper(2, 7, 3) == 14


def test_kst_upper_dominates_exact():
    for t in (2, 3):
        top = 6 if t == 2 else 5
        for n in range(1, top + 1):
            for m in range(n, top + 1):
                rec = z_exact(ZarKey.of((m, n), t))
                assert rec.status == "exact"
                assert rec.value <= kst_upper(m, n, t)


def test_z_exact_against_naive_small():
    for t in (2, 3):
        for n in range(1, 5):
            for m in range(n, 5):
                expected = naive_z(m, n, t)
                rec = z_exact(ZarKey.of((m, n), t))
                assert rec.value == expected, (m, n, t)


def test_z_exact_known_examples():
    assert z_exact(ZarKey.of((1, 7), 2)).value == 7
    assert z_exact(ZarKey.of((2, 2), 2)).value == 3
    assert z_exact(ZarKey.of((3, 3), 2)).value == 6
    assert z_exact(ZarKey.of((4, 4), 2)).value == 9
    assert z_exact(ZarKey.of((3, 3), 3)).value == 8
    assert z_exact(ZarKey.of((6, 6), 2)).value == 16
    assert kst_upper(6, 6, 2) >= 16


def test_z_exact_t1_is_zero():
    # K_{1,1} is a single edge: only the empty graph is free of it
    for sizes in ((1, 1), (3, 2), (4, 4), (2, 2, 2)):
        rec = z_exact(ZarKey.of(sizes, 1))
        assert (rec.value, rec.status, rec.witness.edge_count()) == (0, "exact", 0)
    assert naive_z(3, 2, 1) == 0


def test_z_monotone_grid():
    vals = {}
    for n in range(1, 6):
        for m in range(1, 6):
            vals[(m, n)] = z_exact(ZarKey.of((m, n), 2)).value
    for (m, n), v in vals.items():
        if (m + 1, n) in vals:
            assert vals[(m + 1, n)] >= v
        if (m, n + 1) in vals:
            assert vals[(m, n + 1)] >= v


def test_multipartite_z():
    rec = z_exact(ZarKey.of((2, 2, 2), 2))
    assert rec.status == "exact"
    assert rec.witness.part_sizes == (2, 2, 2)
    assert find_biclique(rec.witness, 2) is None
    # stacking gives a lower bound for the 3-partite value
    base = z_exact(ZarKey.of((2, 2), 2))
    pair = z_exact(ZarKey.of((1, 1), 2))
    g = stack_e1_construction(2, 2, 2, base, pair)
    assert g.edge_count() == base.value + pair.value == 4
    assert find_biclique(g, 2) is None
    assert rec.value >= g.edge_count()


def test_stack_grid_freeness():
    # a = 2 bases exactly; a = 3 bases are themselves stacked lower-bound
    # records (valid detector-verified witnesses; status is irrelevant to the
    # combinator, which only needs freeness and the edge count)
    from turan_workbench.zarankiewicz import Record
    for n in (2, 3, 4):
        for t in (2, 3):
            pair = z_exact(ZarKey.of((n // 2, n // 2), t))
            base2 = z_exact(ZarKey.of((n, n), t))
            g3 = stack_e1_construction(2, n, t, base2, pair)
            assert g3.edge_count() == base2.value + pair.value
            assert find_biclique(g3, t) is None
            base3 = Record(ZarKey.of((n,) * 3, t), g3.edge_count(), g3,
                           "lower_bound_only")
            g4 = stack_e1_construction(3, n, t, base3, pair)
            assert g4.edge_count() == base3.value + pair.value
            assert find_biclique(g4, t) is None


def test_lower_construction_runs_the_detector_once(monkeypatch):
    # the record's own check is the only K_{t,t} search on the built graph
    from turan_workbench import zarankiewicz
    calls = []

    def counted(g, t, **kwargs):
        calls.append(t)
        return find_biclique(g, t, **kwargs)
    monkeypatch.setattr(zarankiewicz, "find_biclique", counted)
    rec = z_lower_construction(8, 2)
    assert calls == [2] and rec.status == "lower_bound_only"


def test_witnesses_are_validated():
    rec = z_exact(ZarKey.of((4, 4), 2))
    rec.check()
    rec.value += 1
    with pytest.raises(OracleError):
        rec.check()


def test_z_lower_construction_t2():
    rec = z_lower_construction(7, 2)
    assert rec.value == 21            # perfect difference set mod 7
    assert find_biclique(rec.witness, 2) is None
    rec4 = z_lower_construction(4, 2)
    assert rec4.value >= 8


def test_z_lower_construction_t3():
    rec = z_lower_construction(5, 3, seed=1)
    assert find_biclique(rec.witness, 3) is None
    exact = z_exact(ZarKey.of((5, 5), 3))
    assert rec.value <= exact.value
    # determinism per seed
    again = z_lower_construction(5, 3, seed=1)
    assert again.witness == rec.witness


@pytest.mark.parametrize("n, seed, digest", [
    (5, 1, "534489399b16adece24269c31028a7ce2f9750c711ec4722058254a9edcc0536"),
    (10, 0, "258afa149a24ce20ba2e01a5eb437498cdc66f96e751f8b73fa8d3106f182fe1"),
    (16, 0, "8c74925917d1fdb233168209e8ade83d26930086e5b0faf68beaa2dbf5c8f9c9"),
])
def test_z_lower_construction_t3_pinned_witness(n, seed, digest):
    # the greedy's K_{3,3} probe decides every insertion as the packing DFS
    # did, so the graph keeps the bytes it had under that probe
    rec = z_lower_construction(n, 3, seed)
    assert hashlib.sha256(rec.witness.canonical_json().encode()).hexdigest() == digest


def test_row_engine_spends_before_tabulating_every_row_count():
    # the star-cost bound of q rows is built when q is first reached, so a
    # budget of one node stops a long thin key at its greedy lower bound
    rec = z_exact(ZarKey.of((1024, 4), 2), budget=1)
    assert (rec.status, rec.value) == ("lower_bound_only", 1027)


def test_gap_checks_e3():
    for t in (2, 3):
        report = gap_checks(t, 4)
        assert report["e3_asserted"], report["e3_failures"]
        assert report["e1_tabulated"]
        for row in report["e1_tabulated"]:
            assert row["difference"] >= 0
    # m < t regime: z_3(2, n) = 2n and the step to m = 3 is >= t-1
    r3 = gap_checks(3, 4)
    grid = r3["grid"]
    assert grid["2,2"] == 4
    assert grid["3,2"] == 6


def test_exact_mode_guard():
    with pytest.raises(OracleError):
        z_exact(ZarKey.of((100, 100), 2))
    # (64, 64) passes the product guard, but the row engine is exponential in
    # the smaller side before it spends any budget: refuse it at once
    start = time.perf_counter()
    with pytest.raises(OracleError):
        z_exact(ZarKey.of((64, 64), 2), budget=1)
    with pytest.raises(OracleError):
        z_exact(ZarKey.of((40, 13), 2), budget=1)
    assert time.perf_counter() - start < 0.1
    # 2^12 rows are allowed
    assert z_exact(ZarKey.of((12, 12), 2), budget=1).status == "lower_bound_only"


def test_budget_exhaustion_degrades_to_lower_bound():
    rec = z_exact(ZarKey.of((6, 6), 2), budget=5)
    assert rec.status == "lower_bound_only"
    assert rec.value <= 16
    rec.check()                       # the degraded witness is still valid
    assert find_biclique(rec.witness, 2) is None


def test_ex_budget_exhaustion_degrades():
    from turan_workbench.extremal import ExInstance, ex_exact
    rec = ex_exact(ExInstance((2, 2, 2), 3, 1), budget=8)
    assert rec.status == "lower_bound_only"
    rec.check()


def test_z_exact_deterministic_witness():
    a = z_exact(ZarKey.of((5, 5), 2))
    b = z_exact(ZarKey.of((5, 5), 2))
    assert a.witness.canonical_json() == b.witness.canonical_json()


def test_bipartite_dual_route_agreement():
    # the row-based search and the cross-pair engine are independent exact
    # routes to the same bipartite values; the pair engine breaks no column
    # symmetry, so an unsound column constraint in the row engine shows here.
    # ex(m, n; K_2(t)) is z_t(m, n), so ex_exact gives the same exact record
    from turan_workbench.extremal import ExInstance, ex_exact
    from turan_workbench.search import maximize_free
    for t in (2, 3):
        for m in range(1, 7):
            for n in range(1, m + 1):
                row_value = z_exact(ZarKey.of((m, n), t)).value
                pair_value, _, exact = maximize_free((m, n), 2, t)
                assert exact and pair_value == row_value, (m, n, t)
                rec = ex_exact(ExInstance((m, n), 2, t))
                assert (rec.value, rec.status) == (row_value, "exact"), (m, n, t)
                rec.check()


def test_multipartite_z_against_naive():
    from naive_oracles import naive_ex
    assert z_exact(ZarKey.of((2, 2, 2), 2)).value == naive_ex((2, 2, 2), 2, 2) == 7
    assert z_exact(ZarKey.of((2, 2, 2), 3)).value == naive_ex((2, 2, 2), 2, 3)
    assert z_exact(ZarKey.of((2, 2, 1), 2)).value == naive_ex((2, 2, 1), 2, 2)


# (m, n, t) -> value, search nodes and, where given, the witness rows of the
# row engine.  The engine visits only matrices whose rows and columns are both
# lex non-increasing (double-lex), in one fixed order, so nodes and rows repeat
# exactly.  A change to the symmetry breaking, the bounds or the candidate
# order may move the node counts; it re-pins them, old and new, and must not
# move a value.
ROW_ENGINE_PINS = {
    (7, 7, 2): (21, 1887, [112, 76, 67, 42, 37, 25, 22]),
    (6, 6, 3): (26, 185, [62, 61, 51, 43, 23, 15]),
    (7, 6, 4): (36, 85, None),
    (7, 7, 5): (44, 36, None),
    (8, 7, 2): (22, 2194, None),
    (8, 6, 3): (32, 1853, None),
    (7, 7, 4): (42, 1197, [126, 125, 123, 119, 111, 95, 63]),
    (8, 8, 2): (24, 28149, [240, 140, 131, 74, 69, 41, 38, 24]),
    (7, 7, 3): (33, 6540, [126, 121, 103, 85, 75, 51, 31]),
}


@pytest.mark.parametrize("m,n,t", sorted(ROW_ENGINE_PINS))
def test_row_engine_pinned_outputs(m, n, t):
    from turan_workbench.detectors import Budget
    from turan_workbench.zarankiewicz import _z_bipartite
    value, nodes, rows = ROW_ENGINE_PINS[(m, n, t)]
    budget = Budget(None)
    got_value, g, exact = _z_bipartite(m, n, t, budget)
    assert (got_value, budget.used, exact) == (value, nodes, True)
    if rows is not None:
        assert [g.neighbors(i) >> m for i in range(m)] == rows


def test_row_engine_pinned_node_total_on_the_small_grid():
    # every key n <= m <= 7, t = 2..5: the same values as the naive oracle
    # where it reaches, and 11,182 nodes in all
    from turan_workbench.detectors import Budget
    from turan_workbench.zarankiewicz import _z_bipartite
    budget = Budget(None)
    keys = [(m, n, t) for n in range(1, 8) for m in range(n, 8) for t in range(2, 6)]
    for m, n, t in keys:
        value, g, exact = _z_bipartite(m, n, t, budget)
        assert exact and value == g.edge_count(), (m, n, t)
        if m <= 4:
            assert value == naive_z(m, n, t), (m, n, t)
    assert (len(keys), budget.used) == (112, 11182)


def test_z2_diagonal_matches_oeis_a001197():
    # n = 9 is exact only with the column symmetry breaking; the row-only
    # search had a lower bound of 25 after 5M nodes
    assert [z_exact(ZarKey.of((n, n), 2)).value for n in range(1, 10)] == \
        [1, 3, 6, 9, 12, 16, 21, 24, 29]


def test_tsubset_counts_against_brute_force():
    import random
    from itertools import combinations
    from turan_workbench.zarankiewicz import _row_tables, _TSubsetCounts

    def fits_brute(chosen, c, t):
        # some t rows among chosen + [c], c included, share >= t columns
        for group in combinations(chosen, t - 1):
            common = c
            for r in group:
                common &= r
            if common.bit_count() >= t:
                return False
        return True

    rng = random.Random(20240501)
    for n in range(2, 8):
        for t in (2, 3, 4):
            if t > n:
                continue
            tables = _row_tables(n, t)
            for _ in range(12):
                counts = _TSubsetCounts(tables, t)
                chosen = []
                for _ in range(rng.randrange(1, 15)):
                    c = rng.randrange(1 << n) | rng.randrange(1 << n)   # dense rows
                    assert counts.fits(c) == fits_brute(chosen, c, t), (n, t, chosen, c)
                    if not counts.fits(c):
                        continue
                    before = list(counts.planes)
                    counts.push(c)
                    after = list(counts.planes)
                    counts.pop(c)
                    assert counts.planes == before
                    counts.push(c)
                    assert counts.planes == after
                    chosen.append(c)
                    # plane k holds the subsets in more than k chosen rows
                    for i, cols in enumerate(combinations(range(n), t)):
                        s = sum(1 << j for j in cols)
                        held = sum(1 for r in chosen if r & s == s)
                        assert [p >> i & 1 for p in counts.planes] == \
                            [int(held > k) for k in range(t - 1)]
