import json
import random
from fractions import Fraction

import pytest

from naive_oracles import naive_co_degree_into, naive_degree_into
from turan_workbench.constructions import regular_c4free_bipartite
from turan_workbench.graphs import (_FEW_BITS, MAX_DOCUMENT_VERTICES, GraphInvariantError,
                                   PartitionedGraph, bits, canonical_json, set_bits)


def random_graph(rng: random.Random, sizes, p: float = 0.5) -> PartitionedGraph:
    host = PartitionedGraph(sizes)
    n = host.num_vertices
    return PartitionedGraph(sizes, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if host.part_of[u] != host.part_of[v]
                                    and rng.random() < p])


def test_empty_and_complete_counts():
    assert PartitionedGraph([2, 2]).edge_count() == 0
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


def test_document_rejects_non_integer_values():
    # values are type-checked, never converted: 2.5 is not 2 and true is not 1
    for doc in ({"parts": [2.5, 2], "edges": [[0.9, 2]]},
                {"parts": [2, 2], "edges": [[0.0, 2]]},
                {"parts": "22", "edges": [["1", "3"]]},
                {"parts": [2, 2], "edges": [["1", "3"]]},
                {"parts": [2, "2"], "edges": []},
                {"parts": [True, 2], "edges": []},
                {"parts": [2, 2], "edges": [[True, 3]]},
                {"parts": {"0": 2}, "edges": []},
                {"parts": [2, 2], "edges": [[0, 2, 3]]},
                {"parts": [2, 2], "edges": [[0]]},
                {"parts": [2, 2], "edges": [2]},
                {"parts": [2, 2], "edges": [None]},
                {"parts": [2, 2], "edges": ["02"]},
                {"parts": [2, 2], "edges": {"0": 2}}):
        with pytest.raises(GraphInvariantError):
            PartitionedGraph.from_document(doc)
    assert PartitionedGraph.from_document({"parts": [2, 2], "edges": [[3, 0]]}) \
        == PartitionedGraph([2, 2], [(0, 3)])


def test_document_size_guard():
    # a document's part sizes may sum to MAX_DOCUMENT_VERTICES, not past it
    top = MAX_DOCUMENT_VERTICES
    assert PartitionedGraph.from_document(
        {"parts": [top - 1, 1], "edges": [[0, top - 1]]}).edge_count() == 1
    for parts in ([top, 1], [1000000000, 1], [2] * (top // 2 + 1)):
        with pytest.raises(GraphInvariantError, match="at most"):
            PartitionedGraph.from_document({"parts": parts, "edges": []})


def test_constructor_raises_on_the_first_bad_edge_in_input_order():
    good = [(0, 2), (1, 4)]
    for bad, message in (((0, 5), "edge (0,5) out of range"),
                         ((5, 0), "edge (5,0) out of range"),
                         ((-1, 2), "edge (-1,2) out of range"),    # rows[-1] is a valid index
                         ((2, -1), "edge (2,-1) out of range"),
                         ((-5, 2), "edge (-5,2) out of range"),
                         ((3, 3), "loop at vertex 3"),
                         ((1, 0), "edge (1,0) joins two vertices of part 0"),
                         ((3, 4), "edge (3,4) joins two vertices of part 2")):
        for edges in (good + [bad], [bad] + good, iter(good + [bad])):
            with pytest.raises(GraphInvariantError) as exc:
                PartitionedGraph([2, 1, 2], edges)
            assert str(exc.value) == message
    # of two bad edges the first one is reported, whatever their kinds
    with pytest.raises(GraphInvariantError, match=r"^loop at vertex 2$"):
        PartitionedGraph([2, 1, 2], [(0, 2), (2, 2), (0, 9)])
    with pytest.raises(GraphInvariantError, match=r"^edge \(0,9\) out of range$"):
        PartitionedGraph([2, 1, 2], [(0, 2), (0, 9), (2, 2)])


def test_constructor_memory_is_linear_in_the_vertex_count():
    # a table of the N single-bit masks would take N^2/16 bytes (25 MB here)
    import tracemalloc
    tracemalloc.start()
    try:
        g = PartitionedGraph([20_000, 1], [(0, 20_000)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() == 1 and peak < 8_000_000


def test_from_rows_rejects_invalid_rows():
    g = PartitionedGraph([2, 1, 2], [(0, 2), (1, 4), (2, 3)])
    rows = g.rows()
    assert PartitionedGraph.from_rows([2, 1, 2], rows) == g
    inside = "row {} has a bit outside the universe or inside part {}"
    for v, row, message in ((0, rows[0] | 1 << 0, inside.format(0, 0)),    # a loop
                            (0, rows[0] | 1 << 1, inside.format(0, 0)),
                            (4, rows[4] | 1 << 3, inside.format(4, 2)),
                            (0, rows[0] | 1 << 5, inside.format(0, 0)),
                            (0, -1, inside.format(0, 0)),
                            (0, rows[0] | 1 << 3, "rows 0 and 3 are not symmetric"),
                            (3, rows[3] | 1 << 0, "rows are not symmetric")):
        bad = list(rows)
        bad[v] = row
        with pytest.raises(GraphInvariantError) as exc:
            PartitionedGraph.from_rows([2, 1, 2], bad)
        assert str(exc.value) == message
    for count in (4, 6):
        with pytest.raises(GraphInvariantError, match="expected 5 rows"):
            PartitionedGraph.from_rows([2, 1, 2], (rows + [0])[:count])


def test_from_rows_edges_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 7))]
        g = random_graph(rng, sizes, rng.random())
        h = PartitionedGraph.from_rows(sizes, g.rows())
        assert h == g and list(h.edges()) == list(g.edges())
        assert PartitionedGraph(sizes, list(h.edges())) == h
        assert h.edge_count() == len(list(h.edges()))


def _constructions_at_32():
    from turan_workbench import constructions as c
    from turan_workbench.zarankiewicz import z_lower_construction
    class1 = z_lower_construction(32, 2).witness
    for r in (2, 3, 4):
        for k in range(r + 1, 2 * r + 1):
            p = c.ConstructionParams(32, r, k, 2)
            yield c.basic_construction(p, class1)
            yield c.improved_construction(p, class1)


def test_canonical_json_equals_the_generic_writer():
    # the direct writer against json.dumps of the document, byte for byte
    rng = random.Random(11)
    graphs = [PartitionedGraph([1]), PartitionedGraph([3, 2]),
              PartitionedGraph([1, 1, 1], [(0, 2)]),       # vertex 1 isolated
              PartitionedGraph.complete([1, 1, 1, 1]),
              PartitionedGraph.complete([9, 1, 8])]
    for k in range(2, 8):
        for _ in range(6):
            graphs.append(random_graph(rng, [rng.randint(1, 12) for _ in range(k)],
                                       rng.random()))
    graphs.extend(_constructions_at_32())
    assert len(graphs) == 5 + 36 + 18
    for g in graphs:
        text = g.canonical_json()
        assert text == canonical_json(g.to_document())
        assert PartitionedGraph.from_document(json.loads(text)) == g


def test_set_bits_equals_the_bit_walk():
    # both branches (a walk on at most _FEW_BITS bits, the flag codec above)
    # on masks of up to 70,000 bits: every position comes out, in order
    rng = random.Random(3)
    masks = [0, 1, 1 << 69_999, (1 << 5_000) - 1, (1 << 70_000) - 1 - (1 << 40_000)]
    for width in (8, 31, 64, 65, 224, 4_096, 70_000):
        for count in (1, _FEW_BITS - 1, _FEW_BITS, _FEW_BITS + 1, 40, 700):
            if count <= width:
                masks.append(sum(1 << p for p in rng.sample(range(width), count)))
    assert {m.bit_count() <= _FEW_BITS for m in masks} == {True, False}
    for m in masks:
        expected = [p for p in range(m.bit_length()) if m >> p & 1] if m.bit_count() > 700 \
            else list(bits(m))
        assert set_bits(m) == expected


def test_canonical_json_equals_the_generic_writer_up_to_600_vertices():
    # dense rows (the flag codec) and sparse rows (the walk) on seeded graphs
    rng = random.Random(27)
    graphs = [regular_c4free_bipartite(300, 3)]
    for p in (0.004, 0.03, 0.5, 0.97):
        graphs.append(random_graph(rng, [rng.randint(100, 150) for _ in range(4)], p))
    assert max(g.num_vertices for g in graphs) == 600
    for g in graphs:
        text = g.canonical_json()
        assert text == canonical_json(g.to_document())
        assert PartitionedGraph.from_document(json.loads(text)) == g


def test_from_rows_rejects_an_asymmetric_pair_at_seeded_positions():
    # one bit added to, or dropped from, one row: the first row in vertex
    # order whose higher bit has no mirror is named, and a lone lower bit
    # is caught by the bit count
    rng = random.Random(8)
    for _ in range(40):
        sizes = [rng.randint(1, 40) for _ in range(rng.randint(2, 5))]
        g = random_graph(rng, sizes, rng.random())
        n = g.num_vertices
        if n < 2 or len(set(g.part_of)) < 2:
            continue
        while True:
            v, u = rng.randrange(n), rng.randrange(n)
            if g.part_of[v] != g.part_of[u]:
                break
        rows = g.rows()
        rows[v] ^= 1 << u
        if g.has_edge(v, u):       # dropped from row v: row u keeps bit v
            message = (f"rows {u} and {v} are not symmetric" if u < v
                       else "rows are not symmetric")
        else:                      # added to row v alone
            message = (f"rows {v} and {u} are not symmetric" if v < u
                       else "rows are not symmetric")
        with pytest.raises(GraphInvariantError) as exc:
            PartitionedGraph.from_rows(sizes, rows)
        assert str(exc.value) == message


def test_codec_memory_is_linear_in_the_vertex_count():
    # 20,001 vertices with 2,858 edges: a list of N ids is about 1.5 MB, a
    # table of N single-bit masks would take N^2/16 bytes (25 MB)
    import tracemalloc
    g = PartitionedGraph([20_000, 1], [(v, 20_000) for v in range(0, 20_000, 7)])
    rows = g.rows()
    for write in (g.canonical_json, lambda: PartitionedGraph.from_rows([20_000, 1], rows)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
