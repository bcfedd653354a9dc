import pytest

from naive_oracles import naive_ex
from turan_workbench import extremal
from turan_workbench.detectors import Budget, BudgetExhausted, find_complete_multipartite
from turan_workbench.extremal import (ExInstance, compare_with_g, ex_exact,
                                      verify_turan_identity)
from turan_workbench.zarankiewicz import OracleError, gap_checks


def test_ex_triangle_tiny():
    rec = ex_exact(ExInstance((1, 1, 1), 3, 1))
    assert rec.value == 2 and rec.status == "exact"
    rec = ex_exact(ExInstance((1, 1, 1, 1), 3, 1))
    assert rec.value == 4          # C4 is the triangle-free extremum on K_4


def test_ex_against_naive():
    for sizes, q, t in [((1, 1, 1), 3, 1), ((2, 2), 2, 2), ((1, 1, 1, 1), 3, 1),
                        ((2, 2, 2), 3, 2), ((2, 1, 1), 3, 1), ((2, 2, 1), 2, 2)]:
        rec = ex_exact(ExInstance(sizes, q, t))
        assert rec.value == naive_ex(sizes, q, t), (sizes, q, t)
        assert find_complete_multipartite(rec.witness, q, t) is None
        assert rec.witness.edge_count() == rec.value


def test_pattern_larger_than_host_gives_full_host():
    # K_3(2) needs 6 vertices; host has 3, so ex = all cross pairs
    rec = ex_exact(ExInstance((1, 1, 1), 3, 2))
    assert rec.value == 3


def test_chromatic_trivial_agreement():
    # q > k: the host itself is extremal
    rec = ex_exact(ExInstance((2, 2), 3, 1))
    assert rec.value == 4


def test_monotonicity_in_part_sizes():
    base = ex_exact(ExInstance((2, 2, 2), 3, 1)).value
    bigger = ex_exact(ExInstance((3, 2, 2), 3, 1)).value
    assert bigger >= base


def test_vertex_removal_degree_bound():
    # removing one vertex changes ex by at most (N - n_i)
    full = ex_exact(ExInstance((2, 2, 2), 3, 1))
    smaller = ex_exact(ExInstance((2, 2, 1), 3, 1))
    assert full.value - smaller.value <= 6 - 2


def test_verify_turan_identity_cases():
    for (n, k, r) in [(1, 3, 2), (2, 3, 2), (1, 4, 2), (1, 4, 3), (1, 5, 3)]:
        rep = verify_turan_identity(n, k, r)
        assert rep["holds"], rep


def test_compare_with_g_never_asserts_equality():
    rep = compare_with_g(2, 2, 3, 2)
    assert rep["ex_value"] == 11
    assert rep["g_value"] == 11
    assert rep["ex_ge_construction"] is True
    assert "not asserted" in rep["note"]


def test_compare_with_g_runs_one_z_search(monkeypatch):
    # the construction count and g share one z_t(n, n) record: without a
    # cache a second z_exact call would be a second full search
    calls = []
    real = extremal.z_exact

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(extremal, "z_exact", counted)
    rep = compare_with_g(2, 2, 3, 2)
    assert (len(calls), rep["construction"]["z_value"]) == (1, 3)


def test_compare_with_g_raises_on_a_closed_form_mismatch(monkeypatch):
    # a construction whose edge count disagrees with its closed form is a
    # defect, not a construction that is undefined at this n
    real = extremal.basic_edge_count
    monkeypatch.setattr(extremal, "basic_edge_count", lambda p, e: real(p, e) + 1)
    with pytest.raises(AssertionError, match="internal error: basic"):
        compare_with_g(2, 2, 3, 2)


def test_ex_exact_on_two_parts_runs_the_row_engine():
    # the row engine proves z_2(8,8) = 24 in 28,149 nodes; the cross-pair
    # engine reaches only a lower bound within this budget
    budget = Budget(30_000)
    rec = ex_exact(ExInstance.of((8, 8), 2, 2), budget=budget)
    assert (rec.value, rec.status, budget.used) == (24, "exact", 28_149)
    rec.check()


def test_compare_with_g_on_the_bipartite_case():
    # r = 1, k = 2: ex_2(8, K_2(2)) = z_2(8, 8) = g(8, 1, 2, 2); both searches
    # fit in the shared budget
    rep = compare_with_g(8, 1, 2, 2, budget=100_000)
    assert (rep["ex_value"], rep["ex_status"]) == (24, "exact")
    assert (rep["g_z_provenance"], rep["gap_to_g"]) == ("exact", 0)
    assert rep["ex_ge_construction"] is True


def test_an_int_budget_is_shared_like_a_budget_object():
    # every search of one compare_with_g or gap_checks call draws on the one
    # budget, an int as much as a Budget: 30,000 nodes prove ex_2(8, K_2(2))
    # = 24 (28,149 nodes) and leave z_2(8, 8) a lower bound; the gap report's
    # grid takes 19 nodes, so 150 do not leave its (E1) search the 146 it needs
    for budget in (30_000, Budget(30_000)):
        rep = compare_with_g(8, 1, 2, 2, budget=budget)
        assert (rep["ex_status"], rep["g_z_provenance"]) == ("exact", "lower_bound_only")
    for budget in (150, Budget(150)):
        with pytest.raises(BudgetExhausted, match=r"z_2\(2,2,2\)"):
            gap_checks(2, 4, budget=budget)


def test_ex_guard():
    with pytest.raises(OracleError):
        ex_exact(ExInstance((10, 10, 10), 3, 1))


def test_ex_instance_is_canonical():
    # like ZarKey: positive sizes sorted descending, q >= 1, t >= 1;
    # ExInstance.of sorts, so every order of one host is one instance
    assert ExInstance.of((2, 3, 3), 3, 1) == ExInstance((3, 3, 2), 3, 1)
    for sizes, q, t in [((2, 3, 3), 3, 1), ((3, 0, 1), 3, 1), ((), 2, 1),
                        ((2, 2), 0, 1), ((2, 2), 2, 0)]:
        with pytest.raises(OracleError):
            ExInstance(sizes, q, t)
