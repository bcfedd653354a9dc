"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here: edge counts are
exact integer equalities, search values are compared with zero tolerance,
and detector verdicts are hard none/witness outcomes within the stated
node budgets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from naive_oracles import (naive_contains_biclique, naive_contains_kqt,
                           naive_contains_star, naive_z)
from turan_workbench.constructions import (ConstructionParams,
                                           basic_construction,
                                           basic_edge_count, build_template,
                                           cayley_bipartite, g_value,
                                           improved_construction,
                                           largest_sidon_set, turan_count)
from turan_workbench.detectors import (find_biclique,
                                       find_complete_multipartite)
from turan_workbench.extremal import compare_with_g, verify_turan_identity
from turan_workbench.graphs import PartitionedGraph
from turan_workbench.stability import (AnalysisParams, classify_atypical,
                                       closest_template, enumerate_templates,
                                       high_degree_core, min_degree_audit)
from turan_workbench.zarankiewicz import (ZarKey, gap_checks, kst_upper,
                                          z_exact, z_lower_construction)

GRID_T2 = [(r, k) for r in (2, 3, 4) for k in range(r + 1, 2 * r + 1)]
GRID_T3 = [(r, k) for r in (2, 3) for k in range(r + 1, 2 * r + 1)]
DETECTOR_BUDGET = 10**8


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def class1_n32():
    return z_lower_construction(32, 2).witness


@pytest.fixture(scope="module")
def class1_n72():
    # C4-free Sidon-Cayley graph, hence K_{3,3}-free; plug-in for the t=3 grid
    return cayley_bipartite(72, largest_sidon_set(72, node_cap=20_000))


def test_criterion_01_construction_freeness_t2(class1_n32):
    n, t = 32, 2
    failures = []
    for (r, k) in GRID_T2:
        p = ConstructionParams(n, r, k, t)
        for name, builder in (("basic", basic_construction),
                              ("improved", improved_construction)):
            g = builder(p, class1_n32)
            w = find_complete_multipartite(g, r + 1, t, budget=DETECTOR_BUDGET)
            if w is not None:
                failures.append((name, r, k, w.classes))
    ok = not failures
    report(1, ok, f"K_(r+1)(2)-freeness of both constructions on "
                  f"{len(GRID_T2)} (r,k) cases at n=32; failures={failures}")
    assert ok


def test_criterion_02_construction_edge_counts(class1_n32, class1_n72):
    failures = []
    for (r, k) in GRID_T2:
        p = ConstructionParams(32, r, k, 2)
        e_b = basic_construction(p, class1_n32).edge_count()
        e_i = improved_construction(p, class1_n32).edge_count()
        if e_b != basic_edge_count(p, class1_n32.edge_count()):
            failures.append(("basic", 2, r, k, e_b))
        if e_i != g_value(p, class1_n32.edge_count()):
            failures.append(("improved", 2, r, k, e_i))
        if e_b != e_i:     # the paper's remark: both coincide at t = 2
            failures.append(("coincide", 2, r, k, (e_b, e_i)))
    for (r, k) in GRID_T3:
        p = ConstructionParams(72, r, k, 3)
        e_b = basic_construction(p, class1_n72).edge_count()
        e_i = improved_construction(p, class1_n72).edge_count()
        if e_b != basic_edge_count(p, class1_n72.edge_count()):
            failures.append(("basic", 3, r, k, e_b))
        if e_i != g_value(p, class1_n72.edge_count()):
            failures.append(("improved", 3, r, k, e_i))
    ok = not failures
    report(2, ok, f"closed-form edge counts, exact integer equality, on "
                  f"{len(GRID_T2)} t=2 and {len(GRID_T3)} t=3 cases; "
                  f"failures={failures}")
    assert ok


def test_criterion_03_oracle_against_naive_and_kst():
    t0 = time.time()
    mismatches = []
    # independent naive oracle first, then the branch and bound
    for t in (2, 3):
        for n in range(1, 5):
            for m in range(n, 5):
                expected = naive_z(m, n, t)
                got = z_exact(ZarKey.of((m, n), t))
                if got.status != "exact" or got.value != expected:
                    mismatches.append((m, n, t, expected, got.value))
    kst_violations = []
    for t, top in ((2, 6), (3, 5)):
        for n in range(1, top + 1):
            for m in range(n, top + 1):
                rec = z_exact(ZarKey.of((m, n), t))
                if rec.status != "exact" or rec.value > kst_upper(m, n, t):
                    kst_violations.append((m, n, t, rec.value))
    elapsed = time.time() - t0
    ok = not mismatches and not kst_violations and elapsed <= 1800
    report(3, ok, f"naive agreement (m,n<=4, t in 2,3) and kst dominance "
                  f"(<=6/<=5) in {elapsed:.1f}s; mismatches={mismatches}; "
                  f"kst_violations={kst_violations}")
    assert ok


def test_criterion_04_e3_hard_inequality():
    problems = []
    for t, top in ((2, 6), (3, 5)):
        rep = gap_checks(t, top)
        if not rep["e3_asserted"]:
            problems.append((t, rep["e3_failures"]))
    ok = not problems
    report(4, ok, "z_t(m,n) - z_t(m-1,n) >= t-1 across the exact grid "
                  f"(t=2 to 6, t=3 to 5, columns with n >= t-1); "
                  f"failures={problems}")
    assert ok


def test_criterion_05_turan_identity():
    cases = [(1, 3, 2), (2, 3, 2), (3, 3, 2), (1, 4, 2), (1, 4, 3),
             (1, 5, 3), (2, 4, 3)]
    failures = []
    for (n, k, r) in cases:
        t0 = time.time()
        rep = verify_turan_identity(n, k, r)
        elapsed = time.time() - t0
        if not rep["holds"] or elapsed > 600:
            failures.append((n, k, r, rep["search_value"], rep["formula_value"],
                             round(elapsed, 1)))
    ok = not failures
    report(5, ok, f"ex_k(n, K_(r+1)) = t_r(k) n^2 on {len(cases)} cases, "
                  f"zero tolerance; failures={failures}")
    assert ok


def test_criterion_06_g_comparison_never_asserts_equality():
    instances = [(1, 2, 3, 2), (2, 2, 3, 2), (2, 2, 4, 2), (3, 2, 3, 2)]
    failures = []
    for (n, r, k, t) in instances:
        rep = compare_with_g(n, r, k, t)
        if rep["construction"] is None:
            continue       # construction undefined at this n: nothing to check
        if rep["ex_status"] != "exact" or not rep.get("ex_ge_construction"):
            failures.append((n, r, k, t, rep["ex_value"], rep["construction"]))
        if "not asserted" not in rep["note"]:
            failures.append((n, r, k, t, "missing non-assertion note"))
    ok = not failures
    report(6, ok, "ex_exact >= achievable construction count on every "
                  f"defined instance of {len(instances)}; equality with g "
                  f"reported only; failures={failures}")
    assert ok


def test_criterion_07_stability_round_trip():
    configs = [(2, 3, 12), (2, 4, 10)]
    rhos = [Fraction(0), Fraction(1, 64), Fraction(1, 32)]
    failures = []
    certified = runs = 0
    for (r, k, n) in configs:
        params = AnalysisParams(r, 2)
        specs = list(enumerate_templates(r, k, n))
        for seed in range(100):
            rng = random.Random(seed)
            spec = specs[rng.randrange(len(specs))]
            g = build_template(spec)
            edges = set(g.edges())
            for rho in rhos:
                flips_wanted = int(rho * n * n)
                flips = set()
                while len(flips) < flips_wanted:
                    u = rng.randrange(k * n)
                    v = rng.randrange(k * n)
                    if u == v or u // n == v // n:
                        continue
                    flips.add((min(u, v), max(u, v)))
                g2 = PartitionedGraph([n] * k,
                                      sorted(edges.symmetric_difference(flips)))
                res = closest_template(g2, params)
                if res.distance > flips_wanted:
                    failures.append((r, k, n, seed, str(rho), res.distance))
                if rho == 0 and res.distance != 0:
                    failures.append((r, k, n, seed, "rho=0", res.distance))
                if not 0 <= res.lower_bound <= res.distance:
                    failures.append((r, k, n, seed, "bound", res.lower_bound))
                runs += 1
                certified += res.gap == 0
    ok = not failures
    report(7, ok, "planted-template recovery over 100 seeds x 2 configs x "
                  f"3 flip rates: distance <= planted flips, exact at rho=0; "
                  f"certified optimal (gap 0): {certified}/{runs}; "
                  f"failures={failures[:5]}")
    assert ok


def _seeded_k32_free_graph(seed: int):
    """Two 20-vertex classes, complete cross edges, sparse structure inside:
    a star forest in class 1 and a partial matching in class 2."""
    rng = random.Random(seed)
    n = 20
    edges = [(u, v) for u in range(n) for v in range(n, 2 * n)]
    pool = list(range(n))
    rng.shuffle(pool)
    pos = 0
    for _ in range(rng.randint(0, 3)):
        size = rng.randint(1, 6)
        if pos + size + 1 > n:
            break
        center = pool[pos]
        for leaf in pool[pos + 1:pos + 1 + size]:
            edges.append((min(center, leaf), max(center, leaf)))
        pos += size + 1
    pool2 = [v + n for v in range(n)]
    rng.shuffle(pool2)
    for i in range(0, 2 * rng.randint(0, 9), 2):
        a, b = pool2[i], pool2[i + 1]
        edges.append((min(a, b), max(a, b)))
    g = PartitionedGraph([1] * (2 * n), edges)
    masks = [(1 << n) - 1, ((1 << n) - 1) << n]
    return g, masks


def test_criterion_08_high_degree_core_bound():
    params = AnalysisParams(2, 2, epsilon=Fraction(1, 4),
                            gamma=Fraction(1, 1024))
    bound = 2 * (2 - 1) * Fraction(4) ** (2 * 2)
    assert params.c0 == bound == 512
    failures = []
    nonempty = 0
    for seed in range(200):
        g, masks = _seeded_k32_free_graph(seed)
        if find_complete_multipartite(g, 3, 2) is not None:
            failures.append((seed, "not K_3(2)-free"))
            continue
        rep = high_degree_core(g, masks, params)
        if not rep.hypothesis_met:
            failures.append((seed, "hypothesis unmet"))
            continue
        if rep.core.bit_count():
            nonempty += 1
        if not rep.bound_holds:
            failures.append((seed, rep.core.bit_count()))
    ok = not failures
    report(8, ok, f"|high_degree_core| <= 2(t-1) eps^-rt = 512 on 200 seeded "
                  f"detector-verified K_3(2)-free graphs (eps=1/4, "
                  f"{nonempty} non-empty cores); failures={failures[:5]}")
    assert ok


def test_criterion_09_template_exactness_grid():
    failures = []
    checked = 0
    for k in range(2, 6):
        for r in range(1, k):
            for n in range(1, 4):
                params = AnalysisParams(r, 2, epsilon=Fraction(1, 2))
                for spec in enumerate_templates(r, k, n):
                    checked += 1
                    g = build_template(spec)
                    if g.edge_count() != turan_count(r, k) * n * n:
                        failures.append((r, k, n, "edges", g.edge_count()))
                        continue
                    if min_degree_audit(g, spec, params):
                        failures.append((r, k, n, "audit"))
                        continue
                    dec = classify_atypical(g, spec, params)
                    trivial = (dec.w_doubleprime == 0 and dec.z_doubleprime == 0
                               and dec.ambiguous == 0
                               and all(dec.z_cross[i][i] == spec.z_masks()[i]
                                       for i in range(r))
                               and all(dec.w_prime[i] == spec.w_masks()[i]
                                       for i in range(r)))
                    if not trivial:
                        failures.append((r, k, n, "classify"))
    ok = not failures and checked > 0
    report(9, ok, f"e(T) = t_r(k) n^2, empty audit, trivial classification on "
                  f"{checked} templates (k<=5, r<k, n<=3); failures={failures[:5]}")
    assert ok


def _detectors_vs_naive(g) -> list:
    mism = []
    for t in (1, 2):
        if (find_biclique(g, t, s=1) is not None) != naive_contains_star(g, t):
            mism.append(("star", t))
    if (find_biclique(g, 2) is not None) != naive_contains_biclique(g, 2, 2):
        mism.append(("biclique", 2))
    for q, t in ((3, 1), (3, 2)):
        if q * t > g.num_vertices:
            continue
        if (find_complete_multipartite(g, q, t) is not None) \
                != naive_contains_kqt(g, q, t):
            mism.append(("kqt", q, t))
    return mism


def test_criterion_10_detector_oracle_equivalence():
    failures = []
    checked = 0
    # exhaustive over all labelled graphs on <= 6 vertices
    for nv in range(1, 7):
        pairs = list(combinations(range(nv), 2))
        for code in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (code >> i) & 1]
            g = PartitionedGraph([1] * nv, edges)
            mism = _detectors_vs_naive(g)
            checked += 1
            if mism:
                failures.append((nv, code, mism))
    # seeded random panels at 7..10 vertices (the 10-vertex universe is
    # 2^45 labelled graphs; exhaustive generation there is a spec defect)
    rng = random.Random(1_000_003)
    for nv in (7, 8, 9, 10):
        for _ in range(125):
            p = rng.choice([0.2, 0.35, 0.5, 0.7])
            edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                     if rng.random() < p]
            g = PartitionedGraph([1] * nv, edges)
            mism = _detectors_vs_naive(g)
            checked += 1
            if mism:
                failures.append((nv, "random", mism))
    # 500 random 16-vertex graphs
    rng = random.Random(424242)
    for _ in range(500):
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        edges = [(u, v) for u in range(16) for v in range(u + 1, 16)
                 if rng.random() < p]
        g = PartitionedGraph([1] * 16, edges)
        mism = _detectors_vs_naive(g)
        checked += 1
        if mism:
            failures.append((16, "random", mism))
    ok = not failures
    report(10, ok, f"all three detectors vs naive enumeration on {checked} "
                   f"graphs (exhaustive <=6, seeded 7-10, 500 x 16); "
                   f"failures={failures[:5]}")
    assert ok
