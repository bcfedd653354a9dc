import random
from fractions import Fraction

import pytest

from naive_oracles import naive_co_degree_into, naive_degree_into
from turan_workbench.graphs import GraphInvariantError, PartitionedGraph


def test_empty_and_complete_counts():
    assert PartitionedGraph.empty([2, 2]).edge_count() == 0
    assert PartitionedGraph.complete([2, 2]).edge_count() == 4


def test_intra_part_edge_rejected():
    with pytest.raises(GraphInvariantError):
        PartitionedGraph([2, 2], [(0, 1)])
    with pytest.raises(GraphInvariantError):
        PartitionedGraph([2, 2], [(0, 0)])
    with pytest.raises(GraphInvariantError):
        PartitionedGraph([2, 2], [(0, 9)])


def test_pair_count_conventions():
    g = PartitionedGraph([1, 1], [(0, 1)])
    assert g.pair_count([0], [1]) == 1
    assert g.pair_count([0, 1], [0, 1]) == 2   # ordered pairs, both directions
    full = PartitionedGraph.complete([2, 2])
    assert full.pair_count(full.part_mask(0), full.part_mask(1)) == 4


def test_pair_count_identity_random():
    rng = random.Random(0)
    for _ in range(25):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        host = PartitionedGraph(sizes)
        edges = [(u, v) for u in range(host.num_vertices)
                 for v in range(u + 1, host.num_vertices)
                 if host.part_of[u] != host.part_of[v] and rng.random() < 0.5]
        g = PartitionedGraph(sizes, edges)
        verts = list(range(g.num_vertices))
        x = [v for v in verts if rng.random() < 0.5]
        y = [v for v in verts if v not in x and rng.random() < 0.7]
        assert g.pair_count(x, y) == g.pair_count(y, x)
        assert g.pair_count(x, y) == sum(naive_degree_into(g, v, y) for v in x)
        assert g.pair_count(x, x) % 2 == 0


def test_degree_and_codegree():
    # the reference counts the tests above and below rely on
    g = PartitionedGraph([1, 3], [(0, 1), (0, 2), (0, 3)])
    assert naive_degree_into(g, 0, [1, 2, 3]) == 3
    assert naive_co_degree_into(g, 0, [1, 2, 3]) == 0
    assert naive_degree_into(g, 1, [2, 3]) == 0
    assert naive_co_degree_into(g, 1, [2, 3]) == 2


def test_codegree_on_template_vertex():
    # a whole-cluster vertex of a (2,3,n) template misses exactly its own
    # class, i.e. a*n + |W_i| vertices, plus itself
    from turan_workbench.constructions import TemplateSpec, build_template
    for w1 in (0, 1, 2):
        splits = [[(0, w1), (1, 2 - w1)]] if 0 < w1 < 2 else (
            [[(0, 2)]] if w1 == 2 else [[(1, 2)]])
        spec = TemplateSpec.standard(2, 3, 2, splits=splits)
        g = build_template(spec)
        v = 0                          # vertex 0 lies in Z_1
        assert naive_co_degree_into(g, v, range(g.num_vertices)) == 2 + w1


def test_density():
    g = PartitionedGraph.complete([2, 3])
    assert g.density(g.part_mask(0), g.part_mask(1)) == 1
    with pytest.raises(GraphInvariantError):
        g.density(0, g.part_mask(1))
    h = PartitionedGraph([2, 3], [(0, 2)])
    assert h.density(h.part_mask(0), h.part_mask(1)) == Fraction(1, 6)


def test_document_round_trip_byte_identical():
    g = PartitionedGraph([2, 2], [(0, 2), (1, 3), (0, 3)])
    doc = g.canonical_json()
    g2 = PartitionedGraph.from_document(__import__("json").loads(doc))
    assert g2.canonical_json() == doc
    assert g2 == g


def test_document_lists_edges_in_sorted_order():
    # to_document takes edges() as they come: ascending (u, v) pairs, the
    # order a sort of the edge list would give
    rng = random.Random(17)
    for _ in range(40):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        n = sum(sizes)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        host = PartitionedGraph(sizes)
        edges = [p for p in pairs if host.part_of[p[0]] != host.part_of[p[1]]
                 and rng.random() < 0.5]
        rng.shuffle(edges)
        doc = PartitionedGraph(sizes, edges).to_document()
        assert doc == {"parts": sizes, "edges": sorted([u, v] for u, v in edges)}


def test_document_malformed():
    with pytest.raises(GraphInvariantError):
        PartitionedGraph.from_document({"parts": [2, 2]})
    with pytest.raises(GraphInvariantError):
        PartitionedGraph.from_document({"parts": [2, 2], "edges": [[0, 1]]})
