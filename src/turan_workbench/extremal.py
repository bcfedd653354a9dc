"""Exact ex(n_1, ..., n_k; K_q(t)) on tiny instances.

The instance type ``ExInstance`` and the search front ``ex_exact`` are
``zarankiewicz``'s: a z key is the instance with q = 2, and ``ex_exact`` is
``z_exact`` (``exact_record`` behind the result cache; the instance picks
the engine).  This module adds the two reference checks: the exact
multipartite Turan identity ex_k(n, K_{r+1}) = t_r(k) n^2, and the
comparison against the lower-bound formula g(n, r, k, t).  The latter never
asserts equality with g: that is a large-n theorem with an unspecified
threshold, so only the direction "exact >= achievable construction count"
is checked at desk scale.
"""

from __future__ import annotations

from typing import Optional

from .constructions import (ConstructionParams, ConstructionError,
                            basic_construction, basic_edge_count, g_value,
                            improved_construction, turan_count)
from .detectors import as_budget
from .detectors import find_complete_multipartite  # noqa: F401 - re-exported
from .zarankiewicz import ExInstance, Record, ZarKey, z_exact

# ex(n_1..n_k; K_q(t)) and z_t^(a) = ex(...; K_2(t)) are one search with one
# cache front: exact maximum edges of a K_q(t)-free graph in G(n_1, ..., n_k)
ex_exact = z_exact


def verify_turan_identity(n: int, k: int, r: int,
                          budget: "int | Budget | None" = None,
                          cache=None) -> dict:
    """Check ex_k(n, K_{r+1}) == t_r(k) n^2 by exact search; returns a report.

    A search cut short by the budget decides nothing: ``holds`` is then None
    and the report adds the host's static cap as ``upper_bound``.
    """
    inst = ExInstance((n,) * k, r + 1, 1)
    expected = turan_count(r, k) * n * n
    rec = ex_exact(inst, budget=budget, cache=cache)
    exact = rec.status == "exact"
    report = {
        "n": n, "k": k, "r": r,
        "search_value": rec.value,
        "formula_value": expected,
        "status": rec.status,
        "holds": rec.value == expected if exact else None,
        "witness": rec.witness.to_document(),
    }
    if not exact:
        report["upper_bound"] = rec.upper_bound()
    return report


def achievable_construction_count(params: ConstructionParams,
                                  z_rec: Record) -> Optional[dict]:
    """Best plugged construction value at this n, or None when undefined.

    Plugs the exact z_t(n, n) witness of ``z_rec`` as the class-1 graph and
    builds both constructions, verifying their edge counts against the
    closed forms.  A construction whose parameters are out of range is
    skipped; a count that disagrees with its closed form is a defect.
    """
    if z_rec.status != "exact":
        return None
    out = {}
    for name, builder, closed_form in (
            ("basic", basic_construction, basic_edge_count),
            ("improved", improved_construction, g_value)):
        try:
            g = builder(params, z_rec.witness)
        except ConstructionError:
            continue
        expected = closed_form(params, z_rec.value)
        if g.edge_count() != expected:
            raise AssertionError(f"internal error: {name} construction has "
                                 f"{g.edge_count()} edges, closed form {expected}")
        out[name] = expected
    if not out:
        return None
    out["best"] = max(out.values())
    out["z_value"] = z_rec.value
    return out


def compare_with_g(n: int, r: int, k: int, t: int,
                   budget: "int | Budget | None" = None, cache=None) -> dict:
    """Report ex_exact against g(n, r, k, t) and the achievable construction.

    Asserts only ex >= achievable construction count (when a construction is
    defined at this n); equality with g needs n >= n_0 and is NOT asserted.
    ``gap_to_g`` is None unless both the ex search and the z search are
    exact, and an ex search cut short by the budget adds the host's static
    cap as ``upper_bound``.
    """
    params = ConstructionParams(n, r, k, t)
    budget = as_budget(budget)      # one budget for both searches, an int too
    inst = ExInstance((n,) * k, r + 1, t)
    rec = ex_exact(inst, budget=budget, cache=cache)
    z_rec = z_exact(ZarKey.of((n, n), t), budget=budget, cache=cache)
    cons = achievable_construction_count(params, z_rec)
    g_val = g_value(params, z_rec.value)
    report = {
        "n": n, "r": r, "k": k, "t": t,
        "ex_value": rec.value,
        "ex_status": rec.status,
        "g_value": g_val,
        "g_z_provenance": z_rec.status,
        "gap_to_g": (rec.value - g_val
                     if rec.status == z_rec.status == "exact" else None),
        "construction": cons,
        "note": "equality with g is a large-n theorem and is not asserted",
    }
    if rec.status != "exact":
        report["upper_bound"] = rec.upper_bound()
    if cons is not None and rec.status == "exact":
        report["ex_ge_construction"] = rec.value >= cons["best"]
    return report
