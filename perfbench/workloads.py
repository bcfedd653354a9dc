"""The four workloads: seeded inputs, set-up files, queries and their checks.

A query is a label, a call and a check.  The call looks the program's
function up through its module when it runs, so a traced pass sees the
tracer's wrappers; the check runs on the call's output after the pass and
returns None or a reason for failure.  The seed decides the inputs: the
order of the fixed sweeps, the random graphs, the planted templates and the
cache stream.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import tables
from checks import check_extremal, has_kqt, is_kqt_witness, rows_of, turan_edges


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    """The query list of one workload, a hook run before every pass, and
    the cache files whose size the trace reports."""

    queries: list[Query]
    before_pass: Callable[[], object] = lambda: None
    cache_paths: tuple = ()


def run_cli(tw, argv: list[str]) -> tuple[int, str]:
    """``cli.cli_dispatch`` in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tw.cli.cli_dispatch(argv)
    return code, out.getvalue()


def cli_query(tw, cache: str, label: str, argv: list[str], check) -> Query:
    """A CLI query; ``--json`` and the run's own ``--cache`` are appended."""
    argv = argv + ["--json", "--cache", cache]
    return Query(label, lambda: run_cli(tw, argv), check)


def _z_expected(sizes, t) -> int:
    sizes = tuple(sorted(sizes, reverse=True))
    if len(sizes) == 2:
        return tables.Z_BIPARTITE[(sizes[0], sizes[1], t)]
    return tables.EX_VALUES[(sizes, 2, t)]


def _record_check(sizes, q, t, expected):
    def check(rec) -> Optional[str]:
        return check_extremal(rec.witness.to_document(), rec.value, rec.status,
                              sizes, q, t, expected)
    return check


def _turan_check(n, k, r):
    expected = turan_edges(r, k) * n * n

    def check(rep) -> Optional[str]:
        if not rep["holds"] or rep["formula_value"] != expected:
            return f"identity reported {rep['holds']}, formula {rep['formula_value']}"
        return check_extremal(rep["witness"], rep["search_value"], rep["status"],
                              (n,) * k, r + 1, 1, expected)
    return check


def _is_turan(sizes, t) -> bool:
    """Equal parts and t = 1: asked as a Turan identity, ex_k(n, K_q)."""
    return t == 1 and len(set(sizes)) == 1


# ---------------------------------------------------------------------------
# pair_search: cross-pair branch and bound through ex_exact,
# verify_turan_identity and multipartite z_exact, no cache


def pair_search(tw, seed: int, run_dir: Path) -> Workload:
    queries = []
    for sizes, q, t, value in tables.PAIR_INSTANCES:
        label = f"{'x'.join(map(str, sizes))} q={q} t={t}"
        if _is_turan(sizes, t):
            n, k, r = sizes[0], len(sizes), q - 1
            queries.append(Query(
                f"turan {label}",
                lambda n=n, k=k, r=r: tw.extremal.verify_turan_identity(n, k, r),
                _turan_check(n, k, r)))
        elif q == 2:
            key = tw.zarankiewicz.ZarKey.of(sizes, t)
            queries.append(Query(
                f"z {label}",
                lambda key=key: tw.zarankiewicz.z_exact(key, cache=None),
                _record_check(sizes, 2, t, value)))
        else:
            inst = tw.extremal.ExInstance(sizes, q, t)
            queries.append(Query(
                f"ex {label}",
                lambda inst=inst: tw.extremal.ex_exact(inst, cache=None),
                _record_check(sizes, q, t, value)))
    random.Random(seed).shuffle(queries)
    return Workload(queries)


# ---------------------------------------------------------------------------
# row_search: bipartite z_exact on the row engine, no cache


def _row_keys():
    for t, top, extra_rows in tables.ROW_GRIDS:
        for n in range(1, top + 1):
            for m in range(n, top + 1):
                yield (m, n, t)
        for m, n in extra_rows:
            yield (m, n, t)


def row_search(tw, seed: int, run_dir: Path) -> Workload:
    queries = []
    for m, n, t in list(_row_keys()) + list(tables.ROW_EXTRA):
        key = tw.zarankiewicz.ZarKey.of((m, n), t)
        queries.append(Query(
            f"z_{t}({m},{n})",
            lambda key=key: tw.zarankiewicz.z_exact(key, cache=None),
            _record_check((m, n), 2, t, tables.Z_BIPARTITE[(m, n, t)])))
    random.Random(seed).shuffle(queries)
    return Workload(queries)


# ---------------------------------------------------------------------------
# certify_analyze: the CLI certification panel on files written in set-up


def _random_partite(rng: random.Random, parts, frac: float) -> dict:
    """Graph document with exactly round(frac * cross pairs) random edges."""
    starts = [sum(parts[:i]) for i in range(len(parts))]
    pairs = [(u, v)
             for i in range(len(parts)) for j in range(i + 1, len(parts))
             for u in range(starts[i], starts[i] + parts[i])
             for v in range(starts[j], starts[j] + parts[j])]
    edges = sorted(rng.sample(pairs, round(frac * len(pairs))))
    return {"parts": list(parts), "edges": [list(e) for e in edges]}


def _planted_template(tw, rng: random.Random, r: int, k: int, n: int):
    """A template with seeded leftover splits, plus n*n//16 seeded flips."""
    a, b = divmod(k, r)
    classes = list(range(r))
    rng.shuffle(classes)
    # every leftover cluster gets at least one class, each class at most one cluster
    owners = list(range(b)) + [rng.randrange(b + 1) for _ in range(r - b)]
    splits = []
    for j in range(b):
        mine = [c for c, o in zip(classes, owners) if o == j]
        cuts = sorted(rng.sample(range(1, n), len(mine) - 1))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
        splits.append(list(zip(sorted(mine), sizes)))
    spec = tw.constructions.TemplateSpec.standard(r, k, n, splits)
    edges = set(tw.constructions.build_template(spec).edges())
    flips_wanted = n * n // 16
    flips = set()
    while len(flips) < flips_wanted:
        u, v = rng.randrange(k * n), rng.randrange(k * n)
        if u // n != v // n:
            flips.add((min(u, v), max(u, v)))
    g = tw.graphs.PartitionedGraph([n] * k, sorted(edges ^ flips))
    return g, flips_wanted


def certify_analyze(tw, seed: int, run_dir: Path) -> Workload:
    rng = random.Random(seed)
    cache = str(run_dir / "cache.jsonl")
    n = tables.CONSTRUCT_N
    class1 = tw.zarankiewicz.z_lower_construction(n, 2).witness
    class1_path = run_dir / "class1.json"
    tw.cli.save_graph(class1, class1_path)
    e_class1 = class1.edge_count()
    groups: list[list[Query]] = []

    cli = partial(cli_query, tw, cache)

    def free(res):
        code, text = res
        if code != 0 or json.loads(text)["verdict"] != "free":
            return f"exit {code}, output {text[:80]!r}, expected free"
        return None

    # constructions, each followed by its freeness certificate
    for r, k in tables.CONSTRUCT_GRID:
        expected = turan_edges(r, k) * n * n + e_class1 + (k - r - 1) * n
        for kind in ("basic", "improved"):
            out = str(run_dir / f"{kind}_{r}_{k}.json")

            def built(res, expected=expected, k=k):
                code, text = res
                doc = json.loads(text) if code == 0 else None
                if doc is None or doc["edges"] != expected or doc["parts"] != [n] * k:
                    return f"exit {code}, output {text[:80]!r}, expected {expected} edges"
                return None

            groups.append([
                cli(f"construct {kind} r={r} k={k}",
                    ["construct", kind, "--n", str(n), "--r", str(r), "--k", str(k),
                     "--t", "2", "--class1", str(class1_path), "--out", out], built),
                cli(f"check-free {kind} r={r} k={k}",
                    ["check-free", out, "--pattern", "kqt", "--q", str(r + 1), "--t", "2"],
                    free)])

    # seeded random k-partite graphs, free or not
    for i, (parts, frac, q, t) in enumerate(tables.RANDOM_GRAPHS):
        doc = _random_partite(rng, parts, frac)
        path = run_dir / f"random_{i}.json"
        path.write_text(json.dumps(doc))

        def verdict(res, doc=doc, q=q, t=t):
            code, text = res
            _, rows, _ = rows_of(doc)
            out = json.loads(text) if code in (0, 1) else {}
            if has_kqt(rows, q, t):
                g = tw.graphs.PartitionedGraph.from_document(doc)
                pattern = tw.detectors.ForbiddenPattern.complete_multipartite(q, t)
                w = tw.detectors.Witness(tuple(tuple(c) for c in out.get("classes", ())))
                if (code != 1 or out["verdict"] != "witness"
                        or not is_kqt_witness(rows, q, t, out["classes"])
                        or not tw.detectors.verify_witness(g, pattern, w)):
                    return f"exit {code}, output {text[:80]!r}, expected a witness"
            elif code != 0 or out.get("verdict") != "free":
                return f"exit {code}, output {text[:80]!r}, expected free"
            return None

        groups.append([cli(
            f"check-free random {i}",
            ["check-free", str(path), "--pattern", "kqt", "--q", str(q), "--t", str(t)],
            verdict)])

    # closest template: the improved construction, then planted templates
    r, k = tables.CT_IMPROVED
    g = tw.constructions.improved_construction(
        tw.constructions.ConstructionParams(n, r, k, 2), class1)
    ct_inputs = [(g, r, "==", tables.CT_IMPROVED_DISTANCE)]
    for (r, k, tn), copies in tables.CT_PLANTED:
        for _ in range(copies):
            g, flips = _planted_template(tw, rng, r, k, tn)
            ct_inputs.append((g, r, "<=", flips))
    for i, (g, r, rel, bound) in enumerate(ct_inputs):
        path = run_dir / f"ct_{i}.json"
        tw.cli.save_graph(g, path)

        def distance(res, rel=rel, bound=bound, k=len(g.part_sizes)):
            code, text = res
            out = json.loads(text) if code == 0 else {}
            d = out.get("distance")
            if d is None or out["spec"]["k"] != k or not (
                    d == bound if rel == "==" else 0 <= d <= bound):
                return f"exit {code}, output {text[:80]!r}, expected distance {rel} {bound}"
            return None

        groups.append([cli(
            f"closest-template {i} k={len(g.part_sizes)} n={g.part_sizes[0]}",
            ["analyze", "closest-template", str(path), "--r", str(r)], distance)])

    rng.shuffle(groups)
    return Workload([qu for grp in groups for qu in grp], cache_paths=(cache,))


# ---------------------------------------------------------------------------
# cache_replay: a seeded CLI stream against a seeded result cache


def cache_replay(tw, seed: int, run_dir: Path) -> Workload:
    rng = random.Random(seed)
    path = run_dir / "cache.jsonl"
    path.unlink(missing_ok=True)    # an earlier set-up of the same run wrote it
    store = tw.cache.ResultCache(path)
    for sizes, t in tables.CACHE_ZAR:
        key = tw.zarankiewicz.ZarKey.of(sizes, t)
        rec = tw.zarankiewicz.z_exact(key, cache=None)
        reason = _record_check(key.part_sizes, 2, t, _z_expected(sizes, t))(rec)
        if reason:
            raise RuntimeError(f"seed record z_{t}{sizes}: {reason}")
        store.put_zar(rec)
    for sizes, q, t in tables.CACHE_EX:
        rec = tw.extremal.ex_exact(tw.extremal.ExInstance(sizes, q, t), cache=None)
        reason = _record_check(sizes, q, t, tables.EX_VALUES[(sizes, q, t)])(rec)
        if reason:
            raise RuntimeError(f"seed record ex{sizes} q={q} t={t}: {reason}")
        store.put_ex(rec)
    seeded = path.read_bytes()
    cache = str(path)

    cli = partial(cli_query, tw, cache)

    def value_check(expected, code_ok=0):
        def check(res):
            code, text = res
            out = json.loads(text) if code == code_ok else {}
            if out.get("status") != "exact" or out.get("value") != expected:
                return f"exit {code}, output {text[:80]!r}, expected {expected}"
            return None
        return check

    def zar_query(sizes, t):
        return cli(f"zar exact {sizes} t={t}",
                   ["zar", "exact", "--sizes", ",".join(map(str, sizes)), "--t", str(t)],
                   value_check(_z_expected(sizes, t)))

    def ex_query(sizes, q, t):
        if _is_turan(sizes, t):
            n, k, r = sizes[0], len(sizes), q - 1
            expected = turan_edges(r, k) * n * n

            def holds(res):
                code, text = res
                out = json.loads(text) if code == 0 else {}
                if not out.get("holds") or out.get("search_value") != expected:
                    return f"exit {code}, output {text[:80]!r}, expected {expected}"
                return None
            return cli(f"ex turan n={n} k={k} r={r}",
                       ["ex", "turan", "--n", str(n), "--k", str(k), "--r", str(r)], holds)
        return cli(f"ex exact {sizes} q={q} t={t}",
                   ["ex", "exact", "--sizes", ",".join(map(str, sizes)),
                    "--q", str(q), "--t", str(t)],
                   value_check(tables.EX_VALUES[(sizes, q, t)]))

    def gaps_query(t, top):
        def check(res):
            code, text = res
            out = json.loads(text) if code == 0 else {}
            grid = {tuple(map(int, key.split(","))): v
                    for key, v in out.get("grid", {}).items()}
            want = {(m, n): tables.Z_BIPARTITE[(m, n, t)]
                    for n in range(1, top + 1) for m in range(n, top + 1)}
            if grid != want or not out.get("e3_asserted"):
                return f"exit {code}, grid {sorted(grid.items())[:4]}..., expected the table"
            return None
        return cli(f"zar gaps t={t} max={top}",
                   ["zar", "gaps", "--t", str(t), "--max", str(top)], check)

    hits = ([zar_query(sizes, t) for sizes, t in tables.CACHE_ZAR]
            + [ex_query(*inst) for inst in tables.CACHE_EX])
    misses = ([zar_query(sizes, t) for sizes, t in tables.CACHE_MISS_ZAR]
              + [ex_query(*inst) for inst in tables.CACHE_MISS_EX])
    stream = (hits * tables.CACHE_HIT_REPEATS
              + [gaps_query(t, top) for t, top in tables.CACHE_GAPS]
              + rng.sample(misses, tables.CACHE_MISSES))
    rng.shuffle(stream)
    return Workload(stream, before_pass=lambda: path.write_bytes(seeded),
                    cache_paths=(cache,))


WORKLOADS = {
    "pair_search": pair_search,
    "row_search": row_search,
    "certify_analyze": certify_analyze,
    "cache_replay": cache_replay,
}
