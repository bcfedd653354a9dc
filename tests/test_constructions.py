import pytest

from turan_workbench.constructions import (ConstructionError, ConstructionParams,
                                           Piece, TemplateSpec, basic_construction,
                                           basic_edge_count, build_template,
                                           cayley_bipartite,
                                           chromatic_trivial_value, g_value,
                                           improved_construction, largest_sidon_set,
                                           regular_c4free_bipartite, sidon_set,
                                           turan_count)
from turan_workbench.detectors import (ForbiddenPattern, find_biclique,
                                       find_complete_multipartite)
from turan_workbench.graphs import (MAX_DOCUMENT_VERTICES, GraphInvariantError,
                                   PartitionedGraph)
from turan_workbench.zarankiewicz import z_lower_construction
from naive_oracles import (naive_basic_construction, naive_improved_construction,
                           naive_is_sidon, naive_largest_sidon_set, naive_sidon_set,
                           naive_template)

# the (r, k) grid of the n = 32 constructions that the CLI panel certifies
CERTIFY_GRID = [(r, k) for r in (2, 3, 4) for k in range(r + 1, 2 * r + 1)]


def test_builders_reject_hosts_past_the_document_limit():
    # one vertex over the limit, or two for the builders on two n-sets; each
    # raises before it allocates the host (or checks the class-1 graph, or
    # searches for a Sidon set)
    top = MAX_DOCUMENT_VERTICES
    builds = [
        lambda: build_template(TemplateSpec.standard(1, 1, top + 1)),
        lambda: regular_c4free_bipartite(top // 2 + 1, 2),
        lambda: basic_construction(ConstructionParams(1, top // 2 + 1, top + 1, 2),
                                   PartitionedGraph([1, 1])),
        lambda: improved_construction(ConstructionParams(1, top // 2 + 1, top + 1, 2),
                                      PartitionedGraph([1, 1])),
        lambda: z_lower_construction(top // 2 + 1, 2),
    ]
    for build in builds:
        with pytest.raises(GraphInvariantError, match="at most 65536 vertices"):
            build()


def test_turan_count_small_values():
    assert turan_count(2, 3) == 2      # K_{1,2}
    assert turan_count(3, 4) == 5      # K_{2,1,1}
    assert turan_count(2, 4) == 4      # K_{2,2}
    assert turan_count(3, 5) == 8      # K_{2,2,1}
    assert turan_count(1, 4) == 0
    assert turan_count(4, 4) == 6
    with pytest.raises(ConstructionError):
        turan_count(3, 2)


def test_turan_count_equals_turan_graph():
    for k in range(1, 9):
        for r in range(1, k + 1):
            a, b = divmod(k, r)
            sizes = [a + 1] * b + [a] * (r - b)
            direct = (k * k - sum(s * s for s in sizes)) // 2
            assert turan_count(r, k) == direct


def test_g_value():
    # star and floor terms vanish at k = r+1, t = 2
    assert g_value(ConstructionParams(5, 2, 3, 2), 7) == 2 * 25 + 7
    # full formula with the true t_3(5) = 8
    n = 4
    assert g_value(ConstructionParams(n, 3, 5, 3), 11) == 8 * n * n + 11 + 2 * n + 1
    assert g_value(ConstructionParams(2, 2, 3, 2), 3) == 11
    # r, k, t and n are checked by ConstructionParams, z by g_value
    with pytest.raises(ConstructionError):
        ConstructionParams(2, 2, 5, 2)
    with pytest.raises(ConstructionError):
        g_value(ConstructionParams(2, 2, 3, 2), -1)


def test_chromatic_trivial_value():
    assert chromatic_trivial_value(2, ForbiddenPattern.complete_multipartite(3, 1)) == 1
    assert chromatic_trivial_value(3, ForbiddenPattern.complete_multipartite(3, 2)) is None
    assert chromatic_trivial_value(3, ForbiddenPattern.complete_multipartite(4, 2)) == 3


def test_template_edge_counts_and_splits():
    g = build_template(TemplateSpec.standard(2, 3, 2))
    assert g.edge_count() == 8
    split = TemplateSpec.standard(2, 3, 2, splits=[[(0, 1), (1, 1)]])
    g2 = build_template(split)
    assert g2.edge_count() == 8
    # the two split vertices share a cluster, so they are non-adjacent
    w0 = split.w_masks()[0]
    w1 = split.w_masks()[1]
    (v0,) = [v for v in range(6) if (w0 >> v) & 1]
    (v1,) = [v for v in range(6) if (w1 >> v) & 1]
    assert not g2.has_edge(v0, v1)
    assert build_template(TemplateSpec.standard(2, 4, 1)).edge_count() == 4


def test_template_spec_validation():
    # Definition 3.1 is checked when a spec is constructed: no invalid spec exists
    bad = [
        ((0, 1, -1), (Piece(0, 2, 1), Piece(0, 2, 1))),   # two pieces, one class
        ((0, 1, -1), (Piece(0, 2, 1),)),                  # sizes != n
        ((0, 0, -1), (Piece(0, 2, 2),)),                  # two whole clusters, one class
        ((0, 1, -1), (Piece(5, 2, 2),)),                  # piece class out of range
        ((0, 1, -1), (Piece(0, 1, 2),)),                  # piece of a whole cluster
        ((0, 1, 2), ()),                                  # whole-cluster class out of range
        ((0, 1), ()),                                     # one entry short
    ]
    for classes, pieces in bad:
        with pytest.raises(ConstructionError):
            TemplateSpec(2, 3, 2, classes, pieces)
        with pytest.raises(ConstructionError):
            TemplateSpec.from_document({"r": 2, "k": 3, "n": 2,
                                        "cluster_classes": list(classes),
                                        "pieces": [[p.cls, p.cluster, p.size]
                                                   for p in pieces]})
    for r, k, n in ((0, 3, 2), (2, 1, 2), (2, 3, 0)):
        with pytest.raises(ConstructionError):
            TemplateSpec.standard(r, k, n)
    with pytest.raises(ConstructionError):
        TemplateSpec.standard(2, 3, 2, splits=[[(0, 1), (0, 1)]])
    spec = TemplateSpec(2, 3, 2, (0, 1, -1), (Piece(0, 2, 1), Piece(1, 2, 1)))
    assert spec == TemplateSpec.standard(2, 3, 2, splits=[[(0, 1), (1, 1)]])
    assert TemplateSpec.from_document(spec.to_document()) == spec


def test_sidon_sets():
    assert sidon_set(8, 1) == (0,)
    s = sidon_set(32, 2)
    assert len(s) == 2
    s3 = sidon_set(72, 3)
    diffs = [(a - b) % 72 for a in s3 for b in s3 if a != b]
    assert len(diffs) == len(set(diffs))
    with pytest.raises(ConstructionError):
        sidon_set(10, 2)
    # {0,1,3} is a perfect difference set mod 7
    assert set(largest_sidon_set(7)) == {0, 1, 3}


def test_sidon_searches_equal_the_naive_oracle():
    # sidon_set is the lex-least B2 t-set containing 0, and largest_sidon_set
    # the lex-least of maximum size; a truncated search still returns a B2 set
    for t in range(1, 5):
        for n in range(max(1, 8 * t * t), 8 * t * t + 12):
            assert sidon_set(n, t) == naive_sidon_set(n, t), (n, t)
    for n in range(1, 25):
        assert largest_sidon_set(n) == naive_largest_sidon_set(n), n
    for n in range(30, 60, 3):
        for cap in (1, 7, 60):
            s = largest_sidon_set(n, node_cap=cap)
            assert s[0] == 0 and naive_is_sidon(s, n), (n, cap)


def test_regular_c4free_bipartite():
    m = regular_c4free_bipartite(4, 1)
    assert m.edge_count() == 4 and all(m.degree(v) == 1 for v in range(8))
    g = regular_c4free_bipartite(32, 2)
    assert all(g.degree(v) == 2 for v in range(64))
    assert find_biclique(g, 2) is None
    g3 = regular_c4free_bipartite(72, 3)
    assert g3.edge_count() == 216
    assert all(g3.degree(v) == 3 for v in range(144))
    assert find_biclique(g3, 2) is None


def test_cayley_two_regular_is_long_cycle():
    g = cayley_bipartite(32, (0, 1))
    assert all(g.degree(v) == 2 for v in range(64))
    # a single 64-cycle: connected 2-regular graph
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(64):
            if g.has_edge(v, u) and u not in seen:
                seen.add(u)
                frontier.append(u)
    assert len(seen) == 64


@pytest.fixture(scope="module")
def class1_32():
    return cayley_bipartite(32, largest_sidon_set(32))


def test_basic_construction_count_and_freeness(class1_32):
    p = ConstructionParams(32, 3, 5, 2)
    g = basic_construction(p, class1_32)
    assert g.edge_count() == basic_edge_count(p, class1_32.edge_count())
    assert find_complete_multipartite(g, 4, 2, budget=10**7) is None


def test_improved_range_gate():
    small = cayley_bipartite(32, largest_sidon_set(32))
    with pytest.raises(ConstructionError):
        improved_construction(ConstructionParams(32, 3, 5, 3), small)  # n < 8t^2


def test_basic_rejects_bad_class1():
    k22 = PartitionedGraph([32, 32], [(0, 32), (0, 33), (1, 32), (1, 33)])
    with pytest.raises(ConstructionError):
        basic_construction(ConstructionParams(32, 2, 3, 2), k22)
    with pytest.raises(ConstructionError):
        basic_construction(ConstructionParams(32, 2, 3, 2),
                           PartitionedGraph([16, 16]))


def test_improved_equals_basic_for_t2_and_degenerate(class1_32):
    for (r, k) in ((2, 3), (2, 4), (3, 4)):
        p = ConstructionParams(32, r, k, 2)
        assert g_value(p, class1_32.edge_count()) \
            == basic_edge_count(p, class1_32.edge_count())
        gi = improved_construction(p, class1_32)
        gb = basic_construction(p, class1_32)
        assert gi.edge_count() == gb.edge_count()


def test_improved_monotonicity(class1_32):
    # e(improved) - e(basic) = b' * floor((t-1)^2/4) >= 0
    for (r, k, t) in ((3, 5, 2), (3, 5, 3), (4, 6, 3), (4, 7, 3)):
        p = ConstructionParams(32, r, k, t)
        e = class1_32.edge_count()
        diff = g_value(p, e) - basic_edge_count(p, e)
        assert diff == p.b_prime * ((t - 1) ** 2 // 4)
        assert diff >= 0


def test_improved_construction_t3_layout():
    n = 72
    # C4-free, hence K_{3,3}-free; the truncated search is fine as a plug-in
    b = cayley_bipartite(n, largest_sidon_set(n, node_cap=20_000))
    p = ConstructionParams(n, 3, 5, 3)
    g = improved_construction(p, b)
    assert g.edge_count() == g_value(p, b.edge_count())
    assert g.edge_count() == 8 * n * n + b.edge_count() + 2 * 1 * n + 1
    # star rows: K_{1,t} only through star centers; class rows are K_{1,t}-free
    # detector cross-check on the row structure
    spec_rows = {
        "row2": [i for i in range(g.num_vertices)],
    }
    # overlays on rows 2..b are (t-1)-regular: no K_{1,3} inside those rows
    row2 = 0
    for v in list(range(n, 2 * n))[1:]:       # V_{2,1} minus the moved vertex
        row2 |= 1 << v
    for v in list(range(4 * n, 5 * n))[1:]:   # V_{2,2} minus the moved vertex
        row2 |= 1 << v
    assert find_biclique(g, 3, s=1, within=row2) is None


def test_improved_t2_freeness_spot(class1_32):
    p = ConstructionParams(32, 4, 7, 2)
    g = improved_construction(p, class1_32)
    assert g.edge_count() == g_value(p, class1_32.edge_count())
    assert find_complete_multipartite(g, 5, 2, budget=10**8) is None


def test_figure_layout_r5_k8_t3_edge_count():
    # the documented r=5, k=8, t=3 configuration at n = 72
    n = 72
    b = cayley_bipartite(n, largest_sidon_set(n, node_cap=20_000))
    p = ConstructionParams(n, 5, 8, 3)
    g = improved_construction(p, b)
    assert p.b == 3 and p.b_prime == 2 and p.t_prime == 1
    assert g.edge_count() == g_value(p, b.edge_count())
    assert g.edge_count() == (turan_count(5, 8) * n * n + b.edge_count()
                              + 2 * 2 * n + 2 * 1)


def test_star_row_witnesses_only_through_centers():
    # on a star row, K_{1,t} exists and its centre is a moved vertex; the
    # trimmed overlay rows are K_{1,t}-free
    n = 72
    b = cayley_bipartite(n, largest_sidon_set(n, node_cap=20_000))
    p = ConstructionParams(n, 3, 5, 3)
    g = improved_construction(p, b)
    # star row is row b+1 = 3: V_{3,1} (cluster 2) plus the moved vertices,
    # which are the first vertices of V_{2,1} (cluster 1) and V_{2,2} (cluster 4)
    centers = {1 * n, 4 * n}
    star_row = 0
    for v in range(2 * n, 3 * n):
        star_row |= 1 << v
    for v in centers:
        star_row |= 1 << v
    w = find_biclique(g, 3, s=1, within=star_row)
    assert w is not None
    assert w.classes[0][0] in centers


def test_template_edge_count_exhaustive_k6():
    from turan_workbench.stability import enumerate_templates
    for r in range(1, 6):
        for n in (1, 2, 3):
            for spec in enumerate_templates(r, 6, n):
                assert build_template(spec).edge_count() == turan_count(r, 6) * n * n


def test_builders_equal_the_edge_list_build(class1_32):
    # the row builders against the pair-by-pair edge lists they replaced
    for r, k in CERTIFY_GRID:
        p = ConstructionParams(32, r, k, 2)
        assert basic_construction(p, class1_32) == naive_basic_construction(p, class1_32)
        if p.b >= 2 and k < 2 * r:
            assert (improved_construction(p, class1_32)
                    == naive_improved_construction(p, class1_32))
        spec = TemplateSpec.standard(r, k, 32)
        assert build_template(spec) == naive_template(spec)


def test_builders_equal_the_edge_list_build_t3():
    c4free = regular_c4free_bipartite(32, 2)       # K_{3,3}-free
    for r, k in ((2, 3), (3, 5), (4, 7)):
        p = ConstructionParams(32, r, k, 3)
        assert basic_construction(p, c4free) == naive_basic_construction(p, c4free)
    n = 72
    b = cayley_bipartite(n, largest_sidon_set(n, node_cap=20_000))
    for r, k in ((3, 5), (4, 7), (5, 8)):
        p = ConstructionParams(n, r, k, 3)
        assert improved_construction(p, b) == naive_improved_construction(p, b)


def test_templates_with_splits_equal_the_edge_list_build():
    from turan_workbench.stability import enumerate_templates
    for r, k in CERTIFY_GRID:
        if k <= 6:
            for spec in enumerate_templates(r, k, 2):
                assert build_template(spec) == naive_template(spec)
