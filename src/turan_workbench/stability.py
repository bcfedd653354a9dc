"""Structural analysis of near-extremal hosts against the template family.

Implements the constructive side of the stability machinery: template
enumeration, closest-template edit distance (gamma-closeness), the stable
partition predicate, the two-case minimum-degree audit, atypical-vertex
classification with the refined partition, the high-degree core bound, and
the final structure report.

The template family is vertex-labelled (a leftover cluster may be divided
arbitrarily), so closest_template optimizes a per-vertex class assignment;
the returned TemplateSpec records the resulting piece sizes and the result
carries the full vertex->class map of the minimizer.  A class takes at most
one piece, so leftover vertices of different clusters never share a class
and the per-vertex costs are independent: the greedy assignment is optimal
per shape and no swap search is needed.  Every result also carries a lower
bound over the family and its gap to the distance; ``heuristic`` is set only
when that gap is positive, which the independence argument rules out.

Classification thresholds are epsilon*n comparisons done in exact rational
arithmetic.  A vertex satisfying several membership conditions at once is
flagged ambiguous rather than silently placed: the disjointness of the
classification is a consequence of extremality, not of the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .constructions import (ConstructionError, Piece, TemplateSpec,
                            cross_class_rows)
from .detectors import find_biclique
from .graphs import PartitionedGraph, bits, validate_class_partition

EXHAUSTIVE_K_LIMIT = 6     # enumerate_templates guard: number of clusters
TEMPLATE_PAIR_LIMIT = 10**6  # closest_template guard: (shape, owner map) pairs


@dataclass(frozen=True)
class AnalysisParams:
    """Constant hierarchy for the analyzer: 0 < gamma < epsilon < 1."""

    r: int
    t: int
    gamma: Fraction = Fraction(1, 1024)
    epsilon: Fraction = Fraction(1, 8)

    def __post_init__(self):
        if self.r < 1 or self.t < 1:
            raise ValueError(f"need r >= 1 and t >= 1, got r={self.r}, t={self.t}")
        g, e = Fraction(self.gamma), Fraction(self.epsilon)
        if not (0 < g < e < 1):
            raise ValueError(f"need 0 < gamma < epsilon < 1, got {g}, {e}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "epsilon", e)

    @property
    def c0(self) -> Fraction:
        """High-degree core bound 2(t-1) * epsilon^(-rt)."""
        return 2 * (self.t - 1) * self.epsilon ** (-self.r * self.t)


# ---------------------------------------------------------------------------
# template enumeration


def _group_partitions(items: list[int], size: int) -> Iterator[list[tuple[int, ...]]]:
    """Unordered partitions of items into groups of the given size."""
    if not items:
        yield []
        return
    head = items[0]
    for rest in combinations(items[1:], size - 1):
        group = (head,) + rest
        remaining = [x for x in items[1:] if x not in rest]
        for tail in _group_partitions(remaining, size):
            yield [group] + tail


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Each way to write ``total`` as ``parts`` positive sizes, in lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for s in range(1, total - parts + 2):
        for rest in _compositions(total - s, parts - 1):
            yield (s,) + rest


def enumerate_templates(r: int, k: int, n: int) -> Iterator[TemplateSpec]:
    """All template shapes up to class relabeling, piece sizes 1..n.

    Shapes = (which clusters are leftover) x (grouping of the rest into
    classes) x (piece-to-class layouts).
    """
    if k > EXHAUSTIVE_K_LIMIT:
        raise ConstructionError(
            f"exhaustive template enumeration is guarded at k <= {EXHAUSTIVE_K_LIMIT}")
    seen: set[tuple] = set()
    for leftover, groups in _shapes(k, r):
        assignment = [-1] * k
        for cls_idx, grp in enumerate(groups):
            for c in grp:
                assignment[c] = cls_idx
        for layout in _piece_layouts(list(leftover), r, n):
            pieces = tuple(sorted(layout))
            key = tuple(sorted(
                (groups[i], tuple(sorted((p.cluster, p.size)
                                         for p in pieces if p.cls == i)))
                for i in range(r)))
            if key in seen:
                continue
            seen.add(key)
            yield TemplateSpec(r, k, n, tuple(assignment), pieces)


def _shapes(k: int, r: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Each template shape: the b = k mod r leftover clusters, and the
    grouping of the others into r classes of k // r whole clusters, sorted."""
    a, b = divmod(k, r)
    for leftover in combinations(range(k), b):
        rest = [c for c in range(k) if c not in leftover]
        for groups in _group_partitions(rest, a):
            yield leftover, sorted(groups)


def _piece_layouts(leftover: list[int], r: int, n: int) -> Iterator[list[Piece]]:
    """Assign each leftover cluster a set of classes and a size composition."""
    def rec(idx: int, free_classes: tuple[int, ...]) -> Iterator[list[Piece]]:
        if idx == len(leftover):
            yield []
            return
        q = leftover[idx]
        for count in range(1, min(r, len(free_classes)) + 1):
            for chosen in combinations(free_classes, count):
                for comp in _compositions(n, count):
                    head = [Piece(c, q, s) for c, s in zip(chosen, comp)]
                    rest_free = tuple(c for c in free_classes if c not in chosen)
                    for tail in rec(idx + 1, rest_free):
                        yield head + tail
    return rec(0, tuple(range(r)))


# ---------------------------------------------------------------------------
# closest template


@dataclass
class ClosestTemplateResult:
    spec: TemplateSpec
    class_of: tuple[int, ...]      # vertex -> class map of the minimizer
    distance: int
    gamma_close: bool
    heuristic: bool                # gap > 0: not certified optimal
    lower_bound: int               # no template of the family is closer

    @property
    def gap(self) -> int:
        """distance - lower_bound; 0 certifies the minimizer optimal."""
        return self.distance - self.lower_bound


def _assignment_distance(g: PartitionedGraph, class_of: Sequence[int]) -> int:
    """|E(G) triangle E(T)| for the vertex-level template T of the
    assignment; the parts of ``g`` are its clusters, all of one size."""
    rows = cross_class_rows(g.part_sizes[0], class_of)
    return sum((g.neighbors(v) ^ row).bit_count() for v, row in enumerate(rows)) // 2


def closest_template(g: PartitionedGraph, params: AnalysisParams) -> ClosestTemplateResult:
    """Template of the family minimizing |E(G) triangle E(T)|, with a lower bound.

    Exhaustive over shapes and their owner maps (``_owner_maps``); per owner
    map each leftover vertex takes its allowed class of least disagreement
    against the whole clusters, and the owner map's distance is its bound
    term below.  The winner's distance is recomputed in full from its class
    map, as a check of that equality that raises if it fails.

    Every cost is a small-int sum over parts: the degrees of each vertex
    into each part and the edge counts between parts (``_PartCounts``) are
    counted once per call, and no shape pops a row.  Within a shape the
    cost of each (leftover cluster, allowed classes) pair is memoised, and
    the class map is built once, for the winner.  Shapes and owner maps are
    tried in order and only a strictly lower distance replaces the best, so
    the first minimum wins.

    ``lower_bound`` is the least, over the shapes and their owner maps, of
    the disagreements among whole-cluster vertices, plus the non-edges
    between leftover vertices of two different clusters, plus each leftover
    vertex's greedy cost (its least disagreement count against the whole
    clusters).  Pairs inside one leftover cluster are non-edges of G and of
    every template, and a class takes at most one piece, so two leftover
    vertices of different clusters are in different classes, hence adjacent,
    in every template of the shape.  A template in which some class takes
    no piece has an owner map whose allowed sets are supersets of its own
    (give each unowned class to any cluster), so that owner map's greedy
    costs are no higher: no template of the family is closer.
    ``gap`` = distance - lower_bound; gap 0 certifies the result optimal.

    The greedy attains that bound, so it is optimal per owner map.  Under
    the greedy map the pairs inside one leftover cluster cost nothing, the
    pairs between two leftover clusters cost exactly their non-edges (their
    ends are in different classes), and each leftover vertex's pairs with
    the whole clusters cost its greedy cost; so the distance equals the
    shape's bound term, which no class map of the owner map can beat.
    Hence a swap search could never move a vertex, the least bound term is
    both the distance and ``lower_bound``, the gap is 0 on every input, and
    ``heuristic`` (gap > 0) stays false.

    More than TEMPLATE_PAIR_LIMIT (shape, owner map) pairs (``_pair_count``)
    are refused before any shape is built.
    """
    r, k, n = params.r, len(g.part_sizes), g.part_sizes[0]
    if g.part_sizes != (n,) * k:
        raise ConstructionError(
            f"closest_template needs parts of one size, got {list(g.part_sizes)}")
    if _pair_count(k, r) > TEMPLATE_PAIR_LIMIT:
        raise ConstructionError(
            f"closest_template would try more than {TEMPLATE_PAIR_LIMIT} (shape, "
            f"owner map) pairs for k={k}, r={r}")
    counts = _PartCounts(g)
    owner_maps = _owner_maps(k % r, r)
    best = None                    # (distance, shape, owner map)
    for leftover, groups in _shapes(k, r):
        shape = _Shape(counts, groups, leftover, r)
        base = shape.fixed_cost + shape.cross_cost
        for owners in owner_maps:
            dist = base + sum(map(shape.free_cost, leftover, owners))
            if best is None or dist < best[0]:
                best = (dist, shape, owners)
    assert best is not None
    dist, shape, owners = best
    class_of = shape.class_of(owners)
    if dist != _assignment_distance(g, class_of):
        raise AssertionError(f"internal error: shape distance {dist} is not "
                             f"the assignment's distance")
    return ClosestTemplateResult(
        _spec_from_assignment(r, k, n, shape.leftover, class_of),
        tuple(class_of), dist,
        gamma_close=Fraction(dist) <= params.gamma * n * n,
        heuristic=False, lower_bound=dist)


def _pair_count(k: int, r: int) -> int:
    """How many (shape, owner map) pairs ``closest_template`` tries, counted
    without enumerating them: the C(k, b) leftover sets, times the
    groupings of the other k - b clusters into r classes of a = k // r,
    times the owner maps, the surjections of the r classes onto the b
    leftover clusters (one empty map when b = 0).

    As b < r, there are at least b! owner maps, so for b! over
    TEMPLATE_PAIR_LIMIT that lower bound is returned: the exact sum would
    take b big-number powers of r.
    """
    a, b = divmod(k, r)
    if (least := factorial(b)) > TEMPLATE_PAIR_LIMIT:
        return least
    groupings = factorial(k - b) // (factorial(a) ** r * factorial(r)) if a else 1
    owner_maps = (sum((-1) ** j * comb(b, j) * (b - j) ** r for j in range(b + 1))
                  if b else 1)
    return comb(k, b) * groupings * owner_maps


def _owner_maps(b: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """The owner maps of r classes onto b leftover clusters, each as the
    allowed classes (ascending) of the first, second, ... leftover cluster:
    every class is owned by exactly one leftover cluster and every leftover
    cluster owns at least one class.  They depend on b and r alone, and come
    in the order of ``product(range(b), repeat=r)``; a single empty map
    when b = 0."""
    if not b:
        return [()]
    maps = []
    for owners in product(range(b), repeat=r):
        allowed = tuple(tuple(c for c, o in enumerate(owners) if o == j)
                        for j in range(b))
        if all(allowed):
            maps.append(allowed)
    return maps


class _PartCounts:
    """The part-level counts of a host whose k parts all have n vertices:
    ``cols[q][p]``, the degrees into part p of part q's vertices (in
    vertex order), and ``between[q][p]``, the edges between parts q and p."""

    def __init__(self, g: PartitionedGraph):
        self.n = g.part_sizes[0]
        self.k = len(g.part_sizes)
        masks = [g.part_mask(p) for p in range(self.k)]
        self.cols = []
        for q in range(self.k):
            rows = [g.neighbors(v) for v in g.part_vertices(q)]
            self.cols.append([[(row & m).bit_count() for row in rows] for m in masks])
        self.between = [list(map(sum, cols)) for cols in self.cols]


class _Shape:
    """The whole-cluster side of a template shape (which clusters are
    leftover, how the rest group into classes), shared by its owner maps.

    Holds the disagreements among the whole ("fixed") clusters' vertices,
    the non-edges between leftover ("free") vertices of different clusters,
    and ``against[q][c]``: each free vertex of cluster q's disagreements
    with the fixed vertices when it is in class c, in vertex order.  A
    class's edges to a free vertex should go to every fixed vertex outside
    it and to none inside it, so with d(v, p) the degree of v into part p,
    the cost of class c is the sum over fixed parts outside c of n - d(v, p)
    plus the sum over parts in c of d(v, p).
    """

    def __init__(self, counts: _PartCounts, groups: Sequence[tuple[int, ...]],
                 leftover: Sequence[int], r: int):
        n, k, between = counts.n, counts.k, counts.between
        self.counts = counts
        self.groups = groups
        self.leftover = leftover
        fixed = [c for c in range(k) if c not in leftover]
        cls = {c: i for i, grp in enumerate(groups) for c in grp}
        self.fixed_cost = sum(between[p][q] if cls[p] == cls[q] else n * n - between[p][q]
                              for p, q in combinations(fixed, 2))
        self.cross_cost = sum(n * n - between[p][q] for p, q in combinations(leftover, 2))
        members = list(groups) + [()] * (r - len(groups))
        self.against = {}
        for q in leftover:
            cols = counts.cols[q]
            outside = [n * len(fixed) - s for s in _column_sums(cols, fixed, n)]
            self.against[q] = [
                [out + 2 * s - n * len(grp)
                 for out, s in zip(outside, _column_sums(cols, grp, n))]
                for grp in members]
        self._memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def free_cost(self, q: int, allowed: tuple[int, ...]) -> int:
        """The free part of the distance from leftover cluster q when its
        vertices may take the classes ``allowed``: each vertex's least cost
        over them."""
        key = (q, allowed)
        cost = self._memo.get(key)
        if cost is None:
            against = self.against[q]
            if len(allowed) == 1:
                cost = sum(against[allowed[0]])
            else:
                cost = sum(map(min, *(against[c] for c in allowed)))
            self._memo[key] = cost
        return cost

    def class_of(self, owners: Sequence[tuple[int, ...]]) -> list[int]:
        """The vertex -> class map of one owner map: each fixed cluster's
        class, and for each free vertex the first of its allowed classes of
        least cost."""
        n = self.counts.n
        class_of = [0] * (self.counts.k * n)
        for i, grp in enumerate(self.groups):
            for c in grp:
                class_of[c * n:(c + 1) * n] = [i] * n
        for q, allowed in zip(self.leftover, owners):
            against = self.against[q]
            for j in range(n):
                class_of[q * n + j] = min(allowed, key=lambda c: against[c][j])
        return class_of


def _column_sums(cols: Sequence[Sequence[int]], parts: Sequence[int], n: int) -> list[int]:
    """Per vertex, the sum of its degrees into ``parts`` (zeros for none)."""
    if not parts:
        return [0] * n
    return list(map(sum, zip(*(cols[p] for p in parts))))


def _spec_from_assignment(r: int, k: int, n: int, leftover: Sequence[int],
                          class_of: Sequence[int]) -> TemplateSpec:
    assignment = [-1 if c in leftover else class_of[c * n] for c in range(k)]
    pieces = []
    for q in leftover:
        counts: dict[int, int] = {}
        for v in range(q * n, (q + 1) * n):
            counts[class_of[v]] = counts.get(class_of[v], 0) + 1
        for cls_idx in sorted(counts):
            pieces.append(Piece(cls_idx, q, counts[cls_idx]))
    return TemplateSpec(r, k, n, tuple(assignment), tuple(sorted(pieces)))


# ---------------------------------------------------------------------------
# stable partitions


def stable_partition_check(class_masks: Sequence[int], g: PartitionedGraph) -> bool:
    """True iff every class holds equally many whole parts and <= 1 piece.

    A class's piece may itself be a full part (the family allows W_i = V_q),
    so a class with one extra whole part and no proper piece also counts:
    the check is whether some designation of at most one piece per class
    equalizes the integral counts.
    """
    validate_class_partition(g, class_masks)
    whole = []
    partial = []
    for cm in class_masks:
        w = 0
        p = 0
        for i in range(len(g.part_sizes)):
            x = (cm & g.part_mask(i)).bit_count()
            if x == g.part_sizes[i]:
                w += 1
            elif x > 0:
                p += 1
        if p > 1:
            return False
        whole.append(w)
        partial.append(p)
    m = min(whole)
    for w, p in zip(whole, partial):
        extra = w - m
        if extra > 1 or extra + p > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# minimum-degree audit


def min_degree_audit(g: PartitionedGraph, spec: TemplateSpec,
                     params: AnalysisParams) -> list[dict]:
    """Vertices violating the two-case degree lower bound, with margins.

    Z_i vertices need degree >= (k-a)n - |W_i| - 2t*gamma*n; piece vertices
    need >= (k-1-a)n - 2t*gamma*n.  On an exact template every Z_i vertex
    has degree exactly (k-a)n - |W_i| and every piece vertex (k-1-a)n.
    """
    k, n, r = spec.k, spec.n, spec.r
    a = k // r
    slack = 2 * params.t * params.gamma * n
    z_masks = spec.z_masks()
    w_masks = spec.w_masks()
    violations = []
    for i in range(r):
        for mask, case, need in (
                (z_masks[i], f"Z_{i + 1}", (k - a) * n - w_masks[i].bit_count()),
                (w_masks[i], "W", (k - 1 - a) * n)):
            required = Fraction(need) - slack
            for v in bits(mask):
                d = g.degree(v)
                if d < required:
                    violations.append({"vertex": v, "case": case,
                                       "degree": d, "required": required,
                                       "margin": Fraction(d) - required})
    return violations


# ---------------------------------------------------------------------------
# atypical-vertex classification


@dataclass
class AtypicalDecomposition:
    w_doubleprime: int
    w_prime: list[int]            # per class
    z_doubleprime: int            # union over classes
    z_cross: list[list[int]]      # [i][j] = Z_i^j (diagonal via d(v, U_i))
    u_tilde: list[int]            # refined partition classes
    ambiguous: int                # vertices satisfying several conditions


def classify_atypical(g: PartitionedGraph, spec: TemplateSpec,
                      params: AnalysisParams) -> AtypicalDecomposition:
    """Set-theoretic atypical-vertex classification at threshold epsilon*n.

    W'' collects piece vertices with >= eps*n neighbours in every Z_j; W'_i
    those with < eps*n into Z_i.  Z''_i needs >= eps*n into every other Z_j
    and into U_i; otherwise the vertex lands in the unique Z_i^j whose
    condition it satisfies (diagonal via d(v, U_i) < eps*n), or is flagged
    ambiguous when several conditions hold at once.
    """
    r, n = spec.r, spec.n
    eps_n = params.epsilon * n
    z_masks = spec.z_masks()
    w_masks = spec.w_masks()
    u_masks = spec.u_masks()
    w_all = 0
    for m in w_masks:
        w_all |= m
    w_pp = 0
    w_prime = [0] * r
    z_pp = 0
    z_cross = [[0] * r for _ in range(r)]
    ambiguous = 0
    for v in bits(w_all):
        degs = [(g.neighbors(v) & z_masks[j]).bit_count() for j in range(r)]
        small = [j for j in range(r) if degs[j] < eps_n]
        if not small:
            w_pp |= 1 << v
        elif len(small) == 1:
            w_prime[small[0]] |= 1 << v
        else:
            ambiguous |= 1 << v
    for i in range(r):
        for v in bits(z_masks[i]):
            row = g.neighbors(v)
            cross_small = [j for j in range(r) if j != i
                           and (row & z_masks[j]).bit_count() < eps_n]
            own_small = (row & u_masks[i]).bit_count() < eps_n
            if not cross_small and not own_small:
                z_pp |= 1 << v
                continue
            members = cross_small + ([i] if own_small else [])
            if len(members) == 1:
                z_cross[i][members[0]] |= 1 << v
            else:
                ambiguous |= 1 << v
    u_tilde = []
    for i in range(r):
        m = w_prime[i]
        for j in range(r):
            m |= z_cross[j][i]
        u_tilde.append(m)
    return AtypicalDecomposition(w_pp, w_prime, z_pp, z_cross, u_tilde, ambiguous)


# ---------------------------------------------------------------------------
# high-degree core (Proposition-style bound)


@dataclass
class CoreReport:
    core: int                     # the vertex set X
    hypothesis_met: bool
    bound: Fraction
    bound_holds: Optional[bool]   # None when the hypothesis is unmet


def high_degree_core(g: PartitionedGraph, class_masks: Sequence[int],
                     params: AnalysisParams) -> CoreReport:
    """X = vertices with d(v, U_i) >= eps |U_i| for every class; |X| is
    bounded by 2(t-1) eps^(-rt) when the density hypothesis holds and the
    host is K_{r+1}(t)-free (freeness is the caller's precondition to check).
    """
    validate_class_partition(g, class_masks)
    eps = params.epsilon
    gamma = params.gamma
    r = len(class_masks)
    core = 0
    for v in range(g.num_vertices):
        row = g.neighbors(v)
        if all((row & cm).bit_count() >= eps * cm.bit_count() for cm in class_masks):
            core |= 1 << v
    dens_ok = all(g.density(class_masks[i], class_masks[j]) >= 1 - gamma
                  for i in range(r) for j in range(i + 1, r))
    eps_ok = eps * eps > 3 * r * r * params.t * params.t * gamma
    met = dens_ok and eps_ok
    bound = params.c0
    return CoreReport(core, met, bound,
                      (Fraction(core.bit_count()) <= bound) if met else None)


# ---------------------------------------------------------------------------
# structure report


def structure_report(g: PartitionedGraph, spec: TemplateSpec, z_candidate: int,
                     params: AnalysisParams) -> dict:
    """Pairwise densities of G[U_i \\ Z, U_j \\ Z], K_{t,t} verdict on class 1,
    K_{1,t} verdicts on the others, and |Z| against C0, with t from ``params``.

    The density cells are raw values: "almost complete" has no explicit
    threshold in the target statement, so no pass/fail verdict is emitted.
    An empty class contains no pattern.
    """
    r, t = spec.r, params.t
    u_masks = [m & ~z_candidate for m in spec.u_masks()]
    densities = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if u_masks[i] and u_masks[j]:
                d = g.density(u_masks[i], u_masks[j])
                densities[i][j] = densities[j][i] = str(d)
    report: dict = {
        "classes": [m.bit_count() for m in u_masks],
        "z_size": z_candidate.bit_count(),
        "densities": densities,
    }
    w = find_biclique(g, t, within=u_masks[0])
    report["class1_ktt_free"] = w is None
    if w is not None:
        report["class1_ktt_witness"] = [list(c) for c in w.classes]
    report["other_classes_k1t_free"] = [
        find_biclique(g, t, s=1, within=u_masks[i]) is None for i in range(1, r)]
    report["c0"] = str(params.c0)
    report["z_within_c0"] = Fraction(z_candidate.bit_count()) <= params.c0
    return report
