"""One workload in one process: set-up, measured passes, checks, metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR
    python3 perfbench/worker.py --workload NAME --seed N --setup-only --run-dir DIR

The set-up-only processes and the measuring process of one run share DIR,
so the later set-ups overwrite the input files the first one created.

A pass sends the workload's queries one at a time, each after the previous
one has returned (a closed loop with one client).  Passes repeat while
another one fits in ``--seconds``, and at least twice.  With ``--trace 0`` no pass
is wrapped, a calibration chunk runs before every query, and the passes give
the end-to-end metrics, in seconds at the reference host speed of
``calibration.py``.  With ``--trace 1``
untraced and traced passes alternate: the traced ones give the per-layer
metrics, and the two kinds together give the tracing overhead.
Outputs of the first pass are checked; every later pass must repeat them
exactly, and traced passes must repeat their counts exactly.  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import (END, KIND, NODES, OUTCOME, PARENT, START,  # noqa: E402
                     Tracer, self_times, write_spans)
from calibration import scale, timed_at_reference, timed_chunk  # noqa: E402
from estimators import harrell_davis  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
MIN_PASSES = 2


def import_program() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import turan_workbench
    from turan_workbench import (cache, cli, constructions, detectors, extremal,
                                 graphs, search, stability, zarankiewicz)
    if Path(turan_workbench.__file__).resolve().parent != (src / "turan_workbench").resolve():
        raise RuntimeError(f"imported {turan_workbench.__file__}, not the checkout's source")
    return SimpleNamespace(cache=cache, cli=cli, constructions=constructions,
                           detectors=detectors, extremal=extremal, graphs=graphs,
                           search=search, stability=stability,
                           zarankiewicz=zarankiewicz)


def pin_to_one_cpu() -> None:
    """Keep this process on one CPU: the CPUs of a shared host run at
    different speeds, and moving between them mid-query would change the
    speed without the calibration chunks seeing it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def set_up(name: str, seed: int, run_dir: Path):
    """Imports, input generation, file writing and cache seeding, timed.

    Returns the program, the workload, and the set-up time in raw seconds
    and in seconds at the reference speed.
    """
    def build():
        tw = import_program()
        run_dir.mkdir(parents=True, exist_ok=True)
        return tw, WORKLOADS[name](tw, seed, run_dir)

    (tw, workload), raw_s, ref_s = timed_at_reference(build)
    return tw, workload, raw_s, ref_s


def make_tracer(tw) -> Tracer:
    tr = Tracer(tw.detectors.Budget)
    found = lambda res: res is not None  # noqa: E731
    tr.target(tw.cli, "cli_dispatch", "cli.command")
    tr.target(tw.cli, "load_graph", "graphs.load")
    tr.target(tw.cli, "find_pattern", "detectors.find_pattern", budget=True)
    tr.target(tw.graphs.PartitionedGraph, "from_document", "graphs.load")
    tr.target(tw.extremal, "ex_exact", "extremal.ex_exact", budget=True)
    tr.target(tw.extremal, "verify_turan_identity", "extremal.turan")
    tr.target(tw.extremal, "find_complete_multipartite", "detectors.kqt", budget=True)
    tr.target(tw.zarankiewicz, "z_exact", "zarankiewicz.z_exact", budget=True)
    tr.target(tw.zarankiewicz, "gap_checks", "zarankiewicz.gaps")
    tr.target(tw.zarankiewicz, "find_biclique", "detectors.biclique", budget=True)
    tr.target(tw.search, "maximize_free", "search.maximize_free", budget=True)
    tr.target(tw.search, "contains_uniform_pattern", "detectors.probe", budget=True,
              outcome=bool)
    tr.target(tw.detectors, "find_complete_multipartite", "detectors.kqt", budget=True)
    tr.target(tw.detectors, "find_biclique", "detectors.biclique", budget=True)
    tr.target(tw.constructions, "basic_construction", "constructions.build")
    tr.target(tw.constructions, "improved_construction", "constructions.build")
    tr.target(tw.constructions, "find_biclique", "detectors.biclique", budget=True)
    tr.target(tw.stability, "closest_template", "stability.closest_template",
              outcome=lambda res: (res.distance, res.heuristic))
    for method in ("get_zar", "get_ex"):
        tr.target(tw.cache.ResultCache, method, "cache.get", outcome=found)
    for method in ("put_zar", "put_ex"):
        tr.target(tw.cache.ResultCache, method, "cache.put")
    return tr


LAYERS = ("search", "detectors", "zarankiewicz", "extremal", "constructions",
          "stability", "cache", "graphs", "cli", "bench")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list], file_bytes: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    self_s, self_nodes = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    count_keys = ("search.calls", "search.nodes", "detectors.probe_calls",
                  "detectors.probe_nodes", "detectors.probe_rejects",
                  "detectors.kqt_calls", "detectors.kqt_nodes",
                  "detectors.biclique_calls", "detectors.biclique_nodes",
                  "zarankiewicz.calls", "zarankiewicz.nodes", "extremal.calls",
                  "constructions.calls", "stability.calls", "stability.heuristic",
                  "stability.ct_distance_sum", "cache.gets", "cache.hits",
                  "cache.puts", "graphs.load_calls", "cli.commands")
    m.update({key: 0 for key in count_keys})
    m.update({key: 0.0 for key in ("detectors.probe_s", "detectors.kqt_s",
                                   "detectors.biclique_s", "cache.get_s",
                                   "cache.put_s", "graphs.load_s")})
    for i, sp in enumerate(spans):
        kind = sp[KIND]
        layer = kind.split(".")[0]
        dur = sp[END] - sp[START]
        m[f"{layer}.self_s"] += self_s[i]
        if layer in ("zarankiewicz", "extremal", "constructions", "stability"):
            m[f"{layer}.calls"] += 1
        if kind == "search.maximize_free":
            m["search.calls"] += 1
            m["search.nodes"] += self_nodes[i]
        elif kind == "zarankiewicz.z_exact":
            m["zarankiewicz.nodes"] += self_nodes[i]
        elif kind == "detectors.probe":
            m["detectors.probe_calls"] += 1
            m["detectors.probe_nodes"] += sp[NODES]
            m["detectors.probe_s"] += dur
            m["detectors.probe_rejects"] += sp[OUTCOME]
        elif kind in ("detectors.kqt", "detectors.biclique"):
            op = kind.split(".")[1]
            m[f"detectors.{op}_calls"] += 1
            m[f"detectors.{op}_nodes"] += sp[NODES]
            m[f"detectors.{op}_s"] += dur
        elif kind == "stability.closest_template":
            m["stability.ct_distance_sum"] += sp[OUTCOME][0]
            m["stability.heuristic"] += sp[OUTCOME][1]
        elif kind == "cache.get":
            m["cache.gets"] += 1
            m["cache.hits"] += sp[OUTCOME]
            m["cache.get_s"] += dur
        elif kind == "cache.put":
            m["cache.puts"] += 1
            m["cache.put_s"] += dur
        elif kind == "graphs.load" and not spans[sp[PARENT]][KIND].startswith("graphs."):
            m["graphs.load_calls"] += 1
            m["graphs.load_s"] += dur
        elif kind == "cli.command":
            m["cli.commands"] += 1
    m["detectors.probe_reject_ratio"] = ratio(m.pop("detectors.probe_rejects"),
                                              m["detectors.probe_calls"])
    m["stability.heuristic_frac"] = ratio(m.pop("stability.heuristic"),
                                          m["stability.calls"])
    m["cache.hit_ratio"] = ratio(m["cache.hits"], m["cache.gets"])
    m["cache.file_bytes"] = file_bytes
    m["trace.wall_s"] = spans[0][END] - spans[0][START]
    return m


# counts that must repeat exactly from one traced pass to the next
def deterministic(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.endswith(("calls", "nodes", "hits", "gets", "puts", "commands",
                           "ct_distance_sum", "file_bytes"))}


class Raised(str):
    """Output of a query that raised instead of returning."""


def run_pass(workload, tracer=None, calibrate=False):
    """One pass: (wall, query latencies, outputs, calibration chunk times).

    With ``calibrate`` a timed calibration chunk runs before every query;
    the wall leaves the chunks out.
    """
    workload.before_pass()
    gc.collect()
    outs, lats, chunks = [], [], []
    clock = time.perf_counter
    with tracer.installed() if tracer else nullcontext():
        t0 = clock()
        for q in workload.queries:
            if calibrate:
                chunks.append(timed_chunk())
            s = clock()
            try:
                out = q.call()
            except Exception as exc:  # noqa: BLE001 - a raising query is a failed query
                out = Raised(f"{type(exc).__name__}: {exc}")
            lats.append(clock() - s)
            outs.append(out)
        wall = clock() - t0 - sum(chunks)
    if tracer:
        wall = tracer.spans[0][END] - tracer.spans[0][START]
    return wall, lats, outs, chunks


def fingerprint(out):
    """A comparable form of a query's output."""
    if hasattr(out, "witness") and hasattr(out, "value"):
        return (out.value, out.status, out.witness.canonical_json())
    if isinstance(out, dict):
        return json.dumps(out, sort_keys=True)
    return out


def check_first(workload, outs) -> dict[int, str]:
    """Reasons the first pass's outputs fail, by query index."""
    bad = {}
    for i, (q, out) in enumerate(zip(workload.queries, outs)):
        if isinstance(out, Raised):
            reason = str(out)
        else:
            try:
                reason = q.check(out)
            except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails it
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            bad[i] = f"{q.label}: {reason}"
    return bad


def fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def file_bytes(workload) -> int:
    return sum(os.path.getsize(p) for p in workload.cache_paths if os.path.exists(p))


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    tw, workload, setup_raw_s, setup_s = set_up(name, seed, run_dir)
    gc.freeze()     # keep the harness's own set-up objects out of the passes' collections
    tracer = make_tracer(tw) if trace else None
    walls = {False: [], True: []}
    scales: list[float] = []        # raw seconds to reference seconds, per pass
    pass_lats: list[list[float]] = []   # per untraced pass, at reference speed
    layer_runs: list[dict] = []
    traced_spans: list[list] = []
    reference = None
    failed = attempted = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        # traced runs alternate untraced and traced passes, untraced first
        traced = trace and len(walls[False]) > len(walls[True])
        wall, lats, outs, chunks = run_pass(
            workload, tracer if traced else None, calibrate=not trace)
        walls[traced].append(wall)
        attempted += len(outs)
        prints = [fingerprint(o) for o in outs]
        if reference is None:
            bad = check_first(workload, outs)
            problems.extend(bad.values())
            first_bad = [i in bad for i in range(len(outs))]
            reference = prints
        failed += sum(fb or p != r for fb, p, r in zip(first_bad, prints, reference))
        if traced:
            layer_runs.append(layer_metrics(tracer.spans, file_bytes(workload)))
            traced_spans.append(tracer.spans)
        elif not trace:
            scales.append(scale(chunks))
            pass_lats.append([x * scales[-1] for x in lats])
        enough = (len(walls[False]) >= MIN_PASSES if not trace
                  else walls[False] and len(walls[True]) >= MIN_PASSES)
        # stop when a pass as long as this one would overrun the window
        if enough and time.perf_counter() + wall > deadline:
            break
    n_queries = len(workload.queries)
    result = {"attempted": attempted, "failed": failed}
    if trace:
        counts = [deterministic(m) for m in layer_runs]
        for i, c in enumerate(counts[1:], 2):
            if c != counts[0]:
                diff = {k: (counts[0][k], c[k]) for k in c if c[k] != counts[0][k]}
                problems.append(f"traced pass {i} counts differ from pass 1: {diff}")
        order = sorted(range(len(layer_runs)), key=lambda i: layer_runs[i]["trace.wall_s"])
        median = order[(len(order) - 1) // 2]
        metrics = dict(layer_runs[median])
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(self_sum - metrics["trace.wall_s"]) > 1e-6:
            problems.append(f"self times sum to {self_sum}, traced wall is "
                            f"{metrics['trace.wall_s']}")
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1)
        OUT_ROOT.mkdir(exist_ok=True)
        write_spans(traced_spans[median], OUT_ROOT / f"trace-{name}.jsonl")
        result["metrics"] = metrics
        result["summary"] = (f"{name}: {len(walls[False])} untraced and "
                             f"{len(walls[True])} traced passes of {n_queries} "
                             f"queries; pass walls {fmt(walls[False])} s untraced, "
                             f"{fmt(walls[True])} s traced")
    else:
        # each query's median over the passes, then quantiles over the queries
        per_query = [statistics.median(xs) for xs in zip(*pass_lats)]
        p50, p90 = (harrell_davis(per_query, p) for p in (0.5, 0.9))
        result["metrics"] = {
            "wall_s": statistics.median(w * f for w, f in zip(walls[False], scales)),
            "setup_s": setup_s,
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        beyond = sum(x > p90 for x in per_query)
        beyond_samples = sum(x > p90 for xs in pass_lats for x in xs)
        result["summary"] = (f"{name}: {len(walls[False])} passes of {n_queries} "
                             f"queries; raw pass walls {fmt(walls[False])} s; "
                             f"raw-to-reference scales {fmt(scales)}; raw set-up "
                             f"{setup_raw_s:.3f} s; {beyond} of {n_queries} query "
                             f"medians and {beyond_samples} of {n_queries * len(pass_lats)} "
                             f"latencies beyond p90")
    result["problems"] = problems
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--run-dir", type=Path, required=True,
                    help="directory for the workload's files; the caller removes it")
    args = ap.parse_args()
    pin_to_one_cpu()
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed, args.run_dir)[3]}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.run_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
