import hashlib
import random
from math import comb, factorial

import pytest

from naive_oracles import (naive_contains_biclique, naive_contains_kqt,
                           naive_contains_kqt_through, naive_contains_star,
                           naive_kqt_holds_vertex, naive_lex_least_kqt)
from turan_workbench.constructions import (ConstructionError, ConstructionParams,
                                           basic_construction, improved_construction)
from turan_workbench.detectors import (Budget, BudgetExhausted, ForbiddenPattern,
                                       PackingContext, Witness,
                                       contains_uniform_pattern, find_biclique,
                                       find_complete_multipartite,
                                       verify_witness)
from turan_workbench.graphs import PartitionedGraph, bits
from turan_workbench.search import maximize_free
from turan_workbench.zarankiewicz import z_lower_construction


def complete_graph(n):
    return PartitionedGraph([1] * n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return PartitionedGraph([1] * n, edges)


def random_partite(rng, sizes, p):
    host = PartitionedGraph(sizes)
    return PartitionedGraph(sizes, [
        (u, v) for u in range(host.num_vertices) for v in range(u + 1, host.num_vertices)
        if host.part_of[u] != host.part_of[v] and rng.random() < p])


def max_valid_subset(g, mask, t):
    """Brute force: largest subset of mask whose non-adjacency components
    all have at most t vertices."""
    verts = [v for v in range(g.num_vertices) if (mask >> v) & 1]
    best = 0
    for sub in range(1 << len(verts)):
        chosen = [verts[i] for i in range(len(verts)) if (sub >> i) & 1]
        if len(chosen) <= best:
            continue
        seen = set()
        ok = True
        for s in chosen:
            if s in seen:
                continue
            comp, stack = {s}, [s]
            while stack:
                u = stack.pop()
                for w in chosen:
                    if w not in comp and w != u and not (g.neighbors(u) >> w) & 1:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            if len(comp) > t:
                ok = False
                break
        if ok:
            best = len(chosen)
    return best


def test_find_star_examples():
    star3 = PartitionedGraph([1, 3], [(0, 1), (0, 2), (0, 3)])
    w = find_biclique(star3, 3, s=1)
    assert w is not None and verify_witness(star3, ForbiddenPattern.star(3), w)
    # (t-1)-regular graph has no K_{1,t}
    c6 = PartitionedGraph([1] * 6, [(i, (i + 1) % 6) for i in range(6)])
    assert find_biclique(c6, 3, s=1) is None
    assert find_biclique(c6, 2, s=1) is not None


def test_find_biclique_examples():
    k22 = PartitionedGraph([2, 2], [(0, 2), (0, 3), (1, 2), (1, 3)])
    w = find_biclique(k22, 2)
    assert w is not None and verify_witness(k22, ForbiddenPattern.biclique(2, 2), w)
    c8 = PartitionedGraph([1] * 8, [(i, (i + 1) % 8) for i in range(8)])
    assert find_biclique(c8, 2) is None
    k33_minus = PartitionedGraph(
        [3, 3], [(u, v) for u in range(3) for v in range(3, 6) if (u, v) != (2, 5)])
    assert find_biclique(k33_minus, 3) is None
    assert find_biclique(k33_minus, 2) is not None


def test_find_kqt_examples():
    k6 = complete_graph(6)
    w = find_complete_multipartite(k6, 3, 2)
    assert w is not None and verify_witness(
        k6, ForbiddenPattern.complete_multipartite(3, 2), w)
    octa = PartitionedGraph([2, 2, 2],
                            [(u, v) for u in range(6) for v in range(u + 1, 6)
                             if u // 2 != v // 2])
    assert find_complete_multipartite(octa, 3, 2) is not None
    # an r-classed template has no K_{r+1}
    from turan_workbench.constructions import TemplateSpec, build_template
    t = build_template(TemplateSpec.standard(2, 3, 2))
    assert find_complete_multipartite(t, 3, 1) is None


def test_verify_witness_rejects_broken():
    k22 = PartitionedGraph([2, 2], [(0, 2), (0, 3), (1, 2), (1, 3)])
    pat = ForbiddenPattern.biclique(2, 2)
    good = find_biclique(k22, 2)
    assert verify_witness(k22, pat, good)
    # cross pair deleted from the host
    broken_host = PartitionedGraph([2, 2], [(0, 2), (0, 3), (1, 2)])
    assert not verify_witness(broken_host, pat, good)
    # overlapping classes
    assert not verify_witness(k22, pat, Witness(((0, 1), (1, 2))))
    # wrong sizes
    assert not verify_witness(k22, pat, Witness(((0,), (2, 3))))


def test_budget_exhaustion_is_loud():
    g = complete_graph(9)
    with pytest.raises(BudgetExhausted):
        find_complete_multipartite(g, 3, 3, budget=2)


def test_determinism_same_document_same_witness():
    rng = random.Random(5)
    g = random_graph(rng, 12, 0.6)
    doc = g.canonical_json()
    w1 = find_complete_multipartite(g, 3, 2)
    g2 = PartitionedGraph.from_document(__import__("json").loads(doc))
    w2 = find_complete_multipartite(g2, 3, 2)
    assert w1 == w2


def test_biclique_within_restriction():
    # K_{2,2} present overall but not within the restricted set
    g = PartitionedGraph([2, 2, 1],
                         [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (2, 4)])
    assert find_biclique(g, 2) is not None
    assert find_biclique(g, 2, within=[0, 1, 2, 4]) is None


def test_star_within_restriction():
    star3 = PartitionedGraph([1, 3], [(0, 1), (0, 2), (0, 3)])
    assert find_biclique(star3, 3, s=1, within=[0, 1, 2]) is None
    assert find_biclique(star3, 2, s=1, within=[0, 1, 2]) is not None


def test_kqt_witness_restricted_to_two_classes_is_biclique():
    # consistency: a K_q(t) witness restricted to two classes passes
    # verify_witness for biclique(t, t)
    k6 = complete_graph(6)
    w = find_complete_multipartite(k6, 3, 2)
    two = Witness(w.classes[:2])
    assert verify_witness(k6, ForbiddenPattern.biclique(2, 2), two)


def test_detectors_against_naive_random_panel():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        for t in (1, 2, 3):
            assert (find_biclique(g, t, s=1) is not None) == naive_contains_star(g, t)
            assert (find_biclique(g, t) is not None) == naive_contains_biclique(g, t, t)
        for q, t in ((2, 2), (3, 1), (3, 2), (4, 1)):
            if q * t > n:
                continue
            got = find_complete_multipartite(g, q, t)
            assert (got is not None) == naive_contains_kqt(g, q, t)
            if got is not None:
                assert verify_witness(
                    g, ForbiddenPattern.complete_multipartite(q, t), got)


def test_witness_is_lex_least_on_single_region_graphs():
    # with one connected complement the DFS takes vertices in ascending
    # order, so its witness is the lex-least qt-subset spanning a K_q(t); a
    # prune that cut a subtree holding a copy (an unsound degree filter or
    # bound) would skip that set
    rng = random.Random(61)
    checked = found = 0
    while checked < 160:
        if rng.random() < 0.5:
            g = random_graph(rng, rng.randint(4, 12), rng.choice([0.5, 0.65, 0.8]))
        else:
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
            while sum(sizes) > 12:
                sizes.pop()
            g = random_partite(rng, sizes, rng.choice([0.6, 0.75, 0.9]))
        q, t = rng.choice([(2, 2), (3, 1), (3, 2), (4, 1), (2, 3), (3, 3)])
        if q * t > g.num_vertices:
            continue
        if PackingContext(g, q, t).split:
            continue
        w = find_complete_multipartite(g, q, t)
        assert (tuple(sorted(w.vertices())) if w else None) == naive_lex_least_kqt(g, q, t)
        checked += 1
        found += w is not None
    assert found >= 60


def test_root_pool_keeps_every_copy_on_one_region_hosts():
    # on one-region hosts the DFS starts from the root pool, which drops
    # the vertices that fail the neighbourhood-core test; a dropped vertex
    # must lie in no copy, and the witness stays the lex-least copy.  Hosts
    # have at most 20 vertices, fewer where the naive lex-least search
    # (qt-subsets times their class partitions) would be slow.
    rng = random.Random(5)
    kinds = [(q, t) for q in (2, 3, 4) for t in (1, 2, 3)]
    hosts = found = 0
    dropped = dict.fromkeys(kinds, 0)
    while hosts < 100:
        q, t = rng.choice(kinds)
        n = rng.randint(q * t, 20)
        partitions = factorial(q * t) // (factorial(t) ** q * factorial(q))
        if comb(n, q * t) * partitions > 1_000_000:
            continue
        if rng.random() < 0.5:
            g = random_graph(rng, n, rng.choice([0.5, 0.65, 0.8]))
        else:
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(3, 7))]
            while sum(sizes) > n:
                sizes.pop()
            if q * t > sum(sizes):
                continue
            g = random_partite(rng, sizes, rng.choice([0.6, 0.75, 0.9]))
        ctx = PackingContext(g, q, t)
        if ctx.split:
            continue
        hosts += 1
        gone = g.universe_mask & ~ctx.root_pool()
        for x in bits(gone):
            assert not naive_kqt_holds_vertex(g, q, t, x), (g.rows(), q, t, x)
        dropped[q, t] += gone.bit_count()
        w = find_complete_multipartite(g, q, t)
        if w is None:
            assert not naive_contains_kqt(g, q, t)
        else:
            assert tuple(sorted(w.vertices())) == naive_lex_least_kqt(g, q, t)
            found += 1
    # q = 2 skips the test (the degree filter implies it)
    assert all(dropped[2, t] == 0 for t in (1, 2, 3))
    assert all(dropped[q, t] > 0 for q in (3, 4) for t in (1, 2, 3)), dropped
    assert found >= 50


def test_core_matches_brute_force():
    # _core(mask, k) is the k-core: the largest subset of the mask whose
    # induced graph has minimum degree k, here the union of every subset
    # with that minimum degree, found by trying them all.  _core(mask, k,
    # need) may stop early, but keeps at least need vertices exactly when
    # the core does, and is then the core.
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        ctx = PackingContext(g, 2, 1)
        mask = sum(1 << v for v in range(n) if rng.random() < 0.8)
        verts = list(bits(mask))
        for k in range(5):
            want = 0
            for sub in range(1 << len(verts)):
                members = [v for i, v in enumerate(verts) if sub >> i & 1]
                if all(sum(g.has_edge(u, v) for u in members) >= k for v in members):
                    want |= sum(1 << v for v in members)
            assert ctx._core(mask, k) == want, (g.rows(), mask, k)
            for need in range(len(verts) + 2):
                got = ctx._core(mask, k, need)
                assert (got.bit_count() >= need) == (want.bit_count() >= need), \
                    (g.rows(), mask, k, need)
                if got.bit_count() >= need:
                    assert got == want, (g.rows(), mask, k, need)


def test_witness_is_least_in_region_order_on_split_hosts():
    # on a host whose complement splits, the DFS takes the regions in their
    # order, each ascending, so its witness is the least qt-subset in that
    # vertex order spanning a K_q(t); a region bound that undercut a valid
    # set (an unsound supply) would skip that set
    rng = random.Random(67)
    checked = found = 0
    kinds = set()
    while checked < 150:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(3, 6))]
        while sum(sizes) > 12:
            sizes.pop()
        q, t = rng.choice([(2, 2), (3, 1), (3, 2), (4, 1), (2, 3), (3, 3)])
        g = random_partite(rng, sizes, rng.choice([0.75, 0.85, 0.92]))
        if q * t > g.num_vertices:
            continue
        ctx = PackingContext(g, q, t)
        if not ctx.split:
            continue
        w = find_complete_multipartite(g, q, t)
        order = [v for rg in ctx.regions for v in bits(rg)]
        assert (tuple(sorted(w.vertices())) if w else None) == \
            naive_lex_least_kqt(g, q, t, order)
        checked += 1
        found += w is not None
        kinds.add((q, t))
    assert found >= 100 and len(kinds) == 6


def test_partitioned_hosts_against_naive():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(2, 4)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        host = PartitionedGraph(sizes)
        edges = [(u, v) for u in range(host.num_vertices)
                 for v in range(u + 1, host.num_vertices)
                 if host.part_of[u] != host.part_of[v] and rng.random() < 0.6]
        g = PartitionedGraph(sizes, edges)
        for q, t in ((2, 2), (3, 1), (3, 2)):
            if q * t > g.num_vertices:
                continue
            assert (find_complete_multipartite(g, q, t) is not None) \
                == naive_contains_kqt(g, q, t)


def test_probe_matches_naive_through_the_new_edge():
    # on a K_q(t)-free graph grown by greedy insertion of all but four cross
    # pairs, the anchored probe of each held-out pair uv says whether the
    # graph plus uv has a copy through u and v
    rng = random.Random(61)
    positive = negative = pretested = hosts = 0
    while hosts < 80:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        while sum(sizes) > 11:
            sizes.pop()
        q, t = rng.choice([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
        if q * t > sum(sizes) or len(sizes) < 2:
            continue
        hosts += 1
        host = PartitionedGraph(sizes)
        n = host.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if host.part_of[u] != host.part_of[v]]
        rng.shuffle(pairs)
        probes, grown = pairs[:4], pairs[4:]
        rows = [0] * n
        for u, v in grown:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            if naive_contains_kqt(PartitionedGraph.from_rows(sizes, rows), q, t):
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
        for u, v in probes:
            budget = Budget(None)
            got = contains_uniform_pattern(rows, u, v, q, t, budget)
            plus = list(rows)
            plus[u] |= 1 << v
            plus[v] |= 1 << u
            g = PartitionedGraph.from_rows(sizes, plus)
            assert got == naive_contains_kqt_through(g, q, t, (u, v)), (sizes, q, t, u, v)
            positive += got
            negative += not got
            pretested += budget.used == 0
    assert min(positive, negative, pretested) >= 80


def _size_multisets(total, largest):
    """Every multiset of sizes in 1..largest summing to total, descending."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _size_multisets(total - first, first):
            yield (first,) + rest


def test_packing_lemma_for_uniform_classes_up_to_two():
    # with q classes of t <= 2 vertices, components of at most t vertices
    # that sum to qt always pack; with t = 3 packing can fail
    for q in range(1, 7):
        for t in (1, 2):
            ctx = PackingContext(PartitionedGraph([q * t]), q, t)
            for sizes in _size_multisets(q * t, t):
                bins = ctx._pack([(1 << i, sz) for i, sz in enumerate(sizes)])
                assert bins is not None, (q, t, sizes)
                assert sorted(sum(sizes[m.bit_length() - 1] for m in b) for b in bins) == [t] * q
    fails = set()
    for q in range(2, 5):
        ctx = PackingContext(PartitionedGraph([3 * q]), q, 3)
        fails.update((q, sizes) for sizes in _size_multisets(3 * q, 3)
                     if ctx._pack([(1 << i, sz) for i, sz in enumerate(sizes)]) is None)
    assert (2, (2, 2, 2)) in fails


# nodes with the within-part ties and the part swaps; the parametrized
# counts are those of the within-part ties alone, which the part swaps may
# only lower
PINNED_NODES = {
    ((2, 2, 2, 2), 3, 1): 138,
    ((2, 2, 2, 2), 4, 1): 738,
    ((3, 3, 3), 3, 2): 287,
    ((2, 2, 2), 2, 2): 76,
    ((3, 3, 3), 3, 1): 8_648,
    ((3, 3, 3), 2, 2): 11_813,
    ((3, 3, 3, 3), 3, 1): 1_661,
}


@pytest.mark.parametrize("sizes, q, t, value, within_part_nodes", [
    ((2, 2, 2, 2), 3, 1, 16, 154),
    ((2, 2, 2, 2), 4, 1, 20, 3_079),
    ((3, 3, 3), 3, 2, 24, 386),
    ((2, 2, 2), 2, 2, 7, 146),
    ((3, 3, 3), 3, 1, 18, 17_098),
    ((3, 3, 3), 2, 2, 13, 23_408),
    ((3, 3, 3, 3), 3, 1, 36, 1_853),
])
def test_maximize_free_pinned_values_and_nodes(sizes, q, t, value, within_part_nodes):
    # node counts are deterministic: any drift in the probe DFS, in the
    # branch and bound or in its symmetry breaking changes them
    budget = Budget(None)
    got, g, exact = maximize_free(sizes, q, t, budget=budget)
    assert (got, budget.used, exact) == (value, PINNED_NODES[sizes, q, t], True)
    assert budget.used <= within_part_nodes
    assert find_complete_multipartite(g, q, t) is None


def test_supply_is_sound_against_brute_force():
    # the supply (ladder and part cap) never undercuts the largest valid
    # subset of the mask, and never grows when a vertex leaves the mask (so
    # the DFS's region bound is never above the region's supply)
    rng = random.Random(31)
    for _ in range(60):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.3:
            sizes = [1] * rng.randint(3, 12)    # no nontrivial parts
        g = random_partite(rng, sizes, rng.choice([0.3, 0.5, 0.7]))
        # singleton parts: the part caps never bind
        singletons = PartitionedGraph.from_rows([1] * g.num_vertices, g.rows())
        mask = 0
        for v in range(g.num_vertices):
            if rng.random() < 0.85:
                mask |= 1 << v
        mask = mask or g.universe_mask
        while mask.bit_count() > 12:
            mask &= mask - 1
        for t in (1, 2, 3):
            for host in (g, singletons):
                ctx = PackingContext(host, 2, t)
                assert ctx._supply(mask) >= max_valid_subset(g, mask, t)
                assert all(ctx._supply(mask & ~(1 << v)) <= ctx._supply(mask)
                           for v in bits(mask))


def test_find_complete_multipartite_pinned_witnesses():
    # witnesses of a seeded k-partite panel, pinned from the DFS whose region
    # bound is the popcount ladder and part cap; the panel's total node count
    # is pinned too, so a lost or weakened prune on split hosts shows
    rng = random.Random(23)
    found = []
    nodes = 0
    for _ in range(120):
        sizes = [rng.randint(2, 7) for _ in range(rng.randint(3, 5))]
        q, t = rng.choice([(3, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
        g = random_partite(rng, sizes, rng.choice([0.4, 0.6, 0.8]))
        budget = Budget(None)
        w = find_complete_multipartite(g, q, t, budget=budget)
        if w is not None:
            assert verify_witness(g, ForbiddenPattern.complete_multipartite(q, t), w)
        found.append(w.classes if w else None)
        nodes += budget.used
    assert nodes == 1_238
    assert sum(w is None for w in found) == 31
    assert hashlib.sha256(repr(found).encode()).hexdigest()[:16] == "024507d724136bca"


def test_supply_context_without_budget_matches_budgeted():
    # the DFS spends on an unlimited budget when none is given; regions,
    # supplies and the search are the same
    rng = random.Random(47)
    split = 0
    for _ in range(150):
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(3, 5))]
        q, t = rng.choice([(3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
        g = random_partite(rng, sizes, rng.choice([0.5, 0.7, 0.85]))
        args = (g, q, t)
        bare = PackingContext(*args)
        budgeted = PackingContext(*args, budget=Budget(None))
        assert (bare.regions, bare.region_supply, bare.split) == \
            (budgeted.regions, budgeted.region_supply, budgeted.split)
        assert bare.run() == budgeted.run()
        split += bare.split
    assert split > 0


def random_share(rng, sizes, share):
    """A k-partite graph on exactly round(share * cross pairs) random edges."""
    host = PartitionedGraph(sizes)
    pairs = [(u, v) for u in range(host.num_vertices) for v in range(u + 1, host.num_vertices)
             if host.part_of[u] != host.part_of[v]]
    return PartitionedGraph(sizes, sorted(rng.sample(pairs, round(share * len(pairs)))))


def test_find_complete_multipartite_pinned_single_region_panel():
    # graphs shaped like the benchmark's random check-free panel, and random
    # k-partite hosts with t in {1, 2, 3}; 52 of the 84 have one connected
    # complement, so they run without supply bounds.  Witnesses are pinned
    # from the detector that still built supplies for them, and the verdicts
    # of the graphs on at most 24 vertices are checked against the naive
    # oracle.  The 24 benchmark-shaped graphs' total node count is pinned
    # too, so a lost or weakened prune (the degree filter, say) shows.
    rng = random.Random(53)
    panel = [(random_share(rng, (6, 6, 6, 6), 0.45), 3, 2) for _ in range(12)]
    panel += [(random_share(rng, (8, 8, 8, 8), 0.36), 3, 2) for _ in range(12)]
    for _ in range(60):
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(3, 5))]
        q, t = rng.choice([(3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
        panel.append((random_partite(rng, sizes, rng.choice([0.5, 0.7, 0.85])), q, t))
    found = []
    nodes = []
    for g, q, t in panel:
        budget = Budget(None)
        w = find_complete_multipartite(g, q, t, budget=budget)
        if w is not None:
            assert verify_witness(g, ForbiddenPattern.complete_multipartite(q, t), w)
        if g.num_vertices <= 24:
            assert (w is not None) == naive_contains_kqt(g, q, t)
        found.append(w.classes if w else None)
        nodes.append(budget.used)
    assert sum(nodes[:24]) == 249
    assert sum(w is None for w in found) == 15
    assert hashlib.sha256(repr(found).encode()).hexdigest()[:16] == "612bff57e0934c88"


def test_construction_node_counts_pinned():
    # blow-ups split into many complement regions, and their supplies decide
    # freeness at or near the root; these counts show the region path intact
    class1 = z_lower_construction(32, 2).witness
    nodes = {}
    for r in (2, 3, 4):
        for k in range(r + 1, 2 * r + 1):
            for name, build in (("basic", basic_construction),
                                ("improved", improved_construction)):
                g = build(ConstructionParams(32, r, k, 2), class1)
                budget = Budget(None)
                assert find_complete_multipartite(g, r + 1, 2, budget=budget) is None
                nodes[name, r, k] = budget.used
    # the other 15 are decided at the root
    assert {key: n for key, n in nodes.items() if n > 1} == {
        ("improved", 3, 5): 458, ("improved", 4, 6): 578, ("improved", 4, 7): 768}


def test_region_supplies_pinned():
    # the regions and supplies of the 18 n=32 constructions (two-part
    # regions and regions of three or more parts) and of 80 seeded dense
    # hosts whose complement splits (t in {1, 2, 3}), the split panel pinned
    # from the ladder of an exact two-part rung and the core ladder
    class1 = z_lower_construction(32, 2).witness
    constructions = []
    for r in (2, 3, 4):
        for k in range(r + 1, 2 * r + 1):
            for build in (basic_construction, improved_construction):
                ctx = PackingContext(build(ConstructionParams(32, r, k, 2), class1), r + 1, 2)
                constructions.append((ctx.regions, ctx.region_supply))
    rng = random.Random(71)
    split = []
    while len(split) < 80:
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(3, 6))]
        q, t = rng.choice([(2, 2), (3, 2), (4, 2), (3, 1), (3, 3)])
        ctx = PackingContext(random_partite(rng, sizes, rng.choice([0.75, 0.85, 0.92])), q, t)
        if ctx.split:
            split.append((ctx.regions, ctx.region_supply))
    assert hashlib.sha256(repr(constructions).encode()).hexdigest()[:16] == "a89e24f0fb31bdb6"
    assert hashlib.sha256(repr(split).encode()).hexdigest()[:16] == "e67b2dd4fc49ae06"


def test_supply_ladder_against_naive():
    # on seeded masks the supply equals the largest valid subset when the
    # mask meets exactly two host parts (the exact two-part rung), and is
    # at least that on every other mask (the core ladder), for t in {1, 2, 3}
    rng = random.Random(37)
    seen = {"two": 0, "more": 0}
    for _ in range(160):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        g = random_partite(rng, sizes, rng.choice([0.3, 0.5, 0.7, 0.9]))
        parts = [g.part_mask(i) for i in range(len(sizes))]
        if rng.random() < 0.5:
            mask = sum(rng.sample(parts, 2))
        else:
            mask = g.universe_mask
        mask &= sum(1 << v for v in range(g.num_vertices) if rng.random() < 0.85)
        while mask.bit_count() > 11:
            mask &= mask - 1
        met = sum(1 for pm in parts if pm & mask)
        for t in (1, 2, 3):
            if mask.bit_count() <= t:
                continue
            got = PackingContext(g, 2, t)._supply(mask)
            best = max_valid_subset(g, mask, t)
            if met == 2:
                assert got == best, (sizes, mask, t)
                seen["two"] += 1
            else:
                assert got >= best, (sizes, mask, t)
                seen["more"] += met > 2
    assert min(seen.values()) >= 100, seen
    # each s is tested on its own (s - t)-core: a Petersen graph (minimum
    # degree 3, no C4) beside a C4, whose vertices the 3-core drops, must
    # not undercut the C4's valid 4-set
    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    g = PartitionedGraph([1] * 14, petersen + [(10, 11), (11, 12), (12, 13), (10, 13)])
    assert max_valid_subset(g, g.universe_mask, 2) == 4
    assert PackingContext(g, 2, 2)._supply_uncached(g.universe_mask) >= 4


def test_t3_constructions_are_decided_at_the_root():
    # the 15 paper constructions with t = 3 at n = 32 that build (basic and
    # improved, r <= 4): the region supplies sum below qt, so each is
    # K_{r+1}(3)-free in one node
    class1 = z_lower_construction(32, 3).witness
    built = 0
    for r in (2, 3, 4):
        for k in range(r + 1, 2 * r + 1):
            for build in (basic_construction, improved_construction):
                try:
                    g = build(ConstructionParams(32, r, k, 3), class1)
                except ConstructionError:
                    continue    # the overlay needs n >= 8t^2 = 72
                ctx = PackingContext(g, r + 1, 3)
                assert ctx.split and sum(ctx.region_supply) < (r + 1) * 3
                budget = Budget(None)
                assert find_complete_multipartite(g, r + 1, 3, budget=budget) is None
                assert budget.used == 1
                built += 1
    assert built == 15


def test_pattern_larger_than_the_host_spends_nothing():
    # with qt above the vertex count no copy fits: the detector answers None
    # before it builds a context, so it spends no node
    rng = random.Random(29)
    hosts = 0
    while hosts < 300:
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(3, 5))]
        q, t = rng.randint(2, 5), rng.randint(1, 5)
        if q * t <= sum(sizes):
            continue
        hosts += 1
        g = random_partite(rng, sizes, rng.choice([0.5, 0.75, 0.9]))
        budget = Budget(None)
        assert find_complete_multipartite(g, q, t, budget=budget) is None
        assert budget.used == 0
