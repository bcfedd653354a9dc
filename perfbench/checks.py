"""Output checks that do not rely on the program's own detectors.

Graphs are read from their JSON documents into bit rows here, and pattern
containment is decided by a plain exhaustive search, so a wrong verdict or
a wrong witness in the program cannot hide behind the same code.
"""

from __future__ import annotations

from itertools import combinations


def rows_of(doc: dict) -> tuple[list[int], list[int], int]:
    """(part sizes, adjacency bit rows, edge count) of a graph document."""
    parts = list(doc["parts"])
    part_of = [i for i, s in enumerate(parts) for _ in range(s)]
    rows = [0] * len(part_of)
    edges = 0
    for u, v in doc["edges"]:
        if not (0 <= u < v < len(rows)) or part_of[u] == part_of[v]:
            raise ValueError(f"bad edge ({u}, {v})")
        if rows[u] >> v & 1:
            raise ValueError(f"repeated edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        edges += 1
    return parts, rows, edges


def has_kqt(rows: list[int], q: int, t: int) -> bool:
    """Whether the graph contains K_q(t): q disjoint t-sets, all cross pairs edges.

    Classes are chosen in increasing order of their least vertex; each new
    class is drawn from the vertices adjacent to everything chosen so far.
    """
    n = len(rows)

    def rec(k: int, cand: int, prev_min: int) -> bool:
        if k == q:
            return True
        if cand.bit_count() < t * (q - k):
            return False
        verts = [v for v in range(prev_min + 1, n) if cand >> v & 1]
        for i, v in enumerate(verts):
            for others in combinations(verts[i + 1:], t - 1):
                common = cand & rows[v]
                for u in others:
                    common &= rows[u]
                if rec(k + 1, common, v):
                    return True
        return False

    return rec(0, (1 << n) - 1, -1)


def is_kqt_witness(rows: list[int], q: int, t: int, classes) -> bool:
    """q disjoint classes of t vertices with every cross-class pair an edge."""
    flat = [v for cl in classes for v in cl]
    if (len(classes) != q or any(len(cl) != t for cl in classes)
            or len(set(flat)) != len(flat)
            or any(not 0 <= v < len(rows) for v in flat)):
        return False
    return all(rows[u] >> v & 1
               for ca, cb in combinations(classes, 2) for u in ca for v in cb)


def turan_edges(r: int, k: int) -> int:
    """Edges of the balanced complete r-partite graph on k vertices."""
    sizes = [k // r + (1 if i < k % r else 0) for i in range(r)]
    return (k * k - sum(s * s for s in sizes)) // 2


def check_extremal(doc: dict, value: int, status: str, sizes, q: int, t: int,
                   expected: int) -> "str | None":
    """An exact search result: pinned value, and a witness that attains it
    inside the right host without containing K_q(t)."""
    if status != "exact":
        return f"status {status}"
    if value != expected:
        return f"value {value}, expected {expected}"
    parts, rows, edges = rows_of(doc)
    if tuple(parts) != tuple(sizes):
        return f"witness parts {parts}, expected {list(sizes)}"
    if edges != value:
        return f"witness has {edges} edges, value {value}"
    if has_kqt(rows, q, t):
        return f"witness contains K_{q}({t})"
    return None
