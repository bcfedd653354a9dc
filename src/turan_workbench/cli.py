"""Command-line front end and canonical file I/O.

Exit codes are uniform across subcommands: 0 = success / pattern-free,
1 = witness found or assertion failed, 2 = search budget exhausted,
3 = usage error.  Every artifact written with --out gets a manifest sidecar
(<out>.manifest.json) recording the command line, parameters, input/output
hashes, wall time, budget counters and seed; identical manifests reproduce
byte-identical outputs (all searches are deterministic, randomized
procedures take an explicit seed with a fixed default).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import constructions, extremal, stability, zarankiewicz
from .cache import ResultCache, witness_hash
from .constructions import ConstructionError, ConstructionParams, TemplateSpec
from .detectors import (Budget, BudgetExhausted, ForbiddenPattern, find_pattern)
from .graphs import GraphInvariantError, PartitionedGraph, bits, canonical_json

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # on the top-level parser: each command's own parser, by name
    commands: "dict[str, _Parser]"

    def error(self, message):   # usage errors exit with code 3
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# file formats


def load_graph(path: "str | Path") -> PartitionedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return PartitionedGraph.from_document(doc)


def save_graph(g: PartitionedGraph, path: "str | Path") -> str:
    """Write the graph's canonical JSON; return the SHA-256 of the bytes written."""
    data = g.canonical_json().encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: "str | Path") -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_path: "str | Path", out_sha256: str, command: Sequence[str],
                   params: dict, inputs: dict, wall_time: float,
                   budget: Optional[Budget], seed: Optional[int]) -> None:
    manifest = {
        "command": list(command),
        "parameters": params,
        "inputs": inputs,
        "outputs": {str(out_path): out_sha256},
        "wall_time_s": round(wall_time, 6),
        "budget": {"limit": budget.limit, "used": budget.used} if budget else None,
        "seed": seed,
    }
    Path(str(out_path) + ".manifest.json").write_text(
        canonical_json(manifest), encoding="utf-8")


def _emit(obj, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(canonical_json(obj))
    else:
        if isinstance(obj, (dict, list)):
            sys.stdout.write(json.dumps(obj, indent=2, default=str) + "\n")
        else:
            sys.stdout.write(f"{obj}\n")


def _emit_record(head: dict, rec: zarankiewicz.Record, as_json: bool) -> int:
    """Emit an exact search's answer and return its exit code; a record cut
    short by the budget adds the host's static cap as ``upper_bound``."""
    out = {**head, "value": rec.value, "status": rec.status,
           "witness_sha256": witness_hash(rec.witness)}
    if rec.status != "exact":
        out["upper_bound"] = rec.upper_bound()
    _emit(out, as_json)
    return EXIT_OK if rec.status == "exact" else EXIT_BUDGET


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _need(args, *names: str) -> None:
    """Reject a subcommand given without an option it needs (exit 3)."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required option(s): {' '.join(missing)}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_formulas(args, argv) -> int:
    if args.formula == "turan":
        _emit(constructions.turan_count(args.r, args.k), args.json)
    elif args.formula == "g":
        cp = ConstructionParams(args.n, args.r, args.k, args.t)
        _emit(constructions.g_value(cp, args.z), args.json)
    else:
        pat = ForbiddenPattern.complete_multipartite(args.q, args.t)
        val = constructions.chromatic_trivial_value(args.k, pat)
        _emit(val if val is not None else "none", args.json)
    return EXIT_OK


def _cmd_construct(args, argv) -> int:
    t0 = time.time()
    budget = Budget(args.budget)
    inputs = {}
    params: dict = {"kind": args.kind}
    if args.kind == "template":
        _need(args, "r", "k")
        splits = json.loads(args.splits) if args.splits else ()
        spec = TemplateSpec.standard(args.r, args.k, args.n, splits)
        g = constructions.build_template(spec)
        params.update(spec.to_document())
    elif args.kind == "c4free":
        g = constructions.regular_c4free_bipartite(args.n, args.t)
        params.update({"n": args.n, "t": args.t})
    elif args.kind in ("basic", "improved"):
        _need(args, "class1", "r", "k")
        class1 = load_graph(args.class1)
        inputs[args.class1] = _sha256_file(args.class1)
        cp = ConstructionParams(args.n, args.r, args.k, args.t)
        builder = (constructions.basic_construction if args.kind == "basic"
                   else constructions.improved_construction)
        g = builder(cp, class1)
        params.update({"n": args.n, "r": args.r, "k": args.k, "t": args.t,
                       "class1_sha256": witness_hash(class1),
                       "class1_edges": class1.edge_count()})
    else:   # stack
        _need(args, "a")
        cache = ResultCache(args.cache) if args.cache else None
        base = zarankiewicz.z_exact(
            zarankiewicz.ZarKey.of((args.n,) * args.a, args.t),
            budget=budget, cache=cache)
        half = args.n // 2
        pair = None
        if half >= 1:
            pair = zarankiewicz.z_exact(
                zarankiewicz.ZarKey.of((half, half), args.t),
                budget=budget, cache=cache)
        if any(rec.status != "exact" for rec in (base, pair) if rec is not None):
            # a stack of lower bounds is not the construction: write nothing
            raise BudgetExhausted("the base or pair search was cut short")
        g = zarankiewicz.stack_e1_construction(args.a, args.n, args.t, base, pair)
        params.update({"a": args.a, "n": args.n, "t": args.t,
                       "base_value": base.value,
                       "pair_value": pair.value if pair else 0})
    digest = save_graph(g, args.out)
    write_manifest(args.out, digest, argv, params, inputs, time.time() - t0, budget,
                   args.seed)
    _emit({"out": args.out, "edges": g.edge_count(),
           "parts": list(g.part_sizes)}, args.json)
    return EXIT_OK


def _cmd_check_free(args, argv) -> int:
    g = load_graph(args.graph)
    if args.pattern == "star":
        pat = ForbiddenPattern.star(args.t)
    elif args.pattern == "ktt":
        pat = ForbiddenPattern.biclique(args.t if args.s is None else args.s, args.t)
    else:
        _need(args, "q")
        pat = ForbiddenPattern.complete_multipartite(args.q, args.t)
    budget = Budget(args.budget)
    try:
        w = find_pattern(g, pat, budget=budget)
    except BudgetExhausted:
        _emit({"verdict": "budget-exceeded", "nodes": budget.used}, args.json)
        return EXIT_BUDGET
    if w is None:
        _emit({"verdict": "free", "nodes": budget.used}, args.json)
        return EXIT_OK
    _emit({"verdict": "witness", "classes": [list(c) for c in w.classes],
           "nodes": budget.used}, args.json)
    return EXIT_FOUND


def _cmd_zar(args, argv) -> int:
    cache = ResultCache(args.cache) if args.cache else ResultCache()
    budget = Budget(args.budget)
    if args.zcmd == "exact":
        _need(args, "sizes")
        rec = zarankiewicz.z_exact(zarankiewicz.ZarKey.of(_sizes(args.sizes), args.t),
                                   budget=budget, cache=cache)
        return _emit_record({"sizes": list(rec.key.part_sizes), "t": rec.key.t},
                            rec, args.json)
    if args.zcmd == "lower":
        _need(args, "n")
        rec = zarankiewicz.z_lower_construction(args.n, args.t, seed=args.seed or 0,
                                                budget=budget)
        _emit({"n": args.n, "t": args.t, "value": rec.value,
               "status": rec.status}, args.json)
        return EXIT_OK
    # gaps
    report = zarankiewicz.gap_checks(args.t, args.max, budget=budget, cache=cache)
    _emit(report, args.json)
    return EXIT_OK if report["e3_asserted"] else EXIT_FOUND


def _cmd_ex(args, argv) -> int:
    cache = ResultCache(args.cache) if args.cache else ResultCache()
    budget = Budget(args.budget)
    if args.excmd == "exact":
        _need(args, "sizes", "q")
        inst = extremal.ExInstance.of(_sizes(args.sizes), args.q, args.t)
        rec = extremal.ex_exact(inst, budget=budget, cache=cache)
        return _emit_record({"sizes": list(inst.part_sizes), "q": inst.q, "t": inst.t},
                            rec, args.json)
    if args.excmd == "turan":
        _need(args, "n", "k", "r")
        rep = extremal.verify_turan_identity(args.n, args.k, args.r,
                                             budget=budget, cache=cache)
        rep.pop("witness")
        _emit(rep, args.json)
        if rep["status"] != "exact":
            return EXIT_BUDGET
        return EXIT_OK if rep["holds"] else EXIT_FOUND
    _need(args, "n", "r", "k")
    rep = extremal.compare_with_g(args.n, args.r, args.k, args.t,
                                  budget=budget, cache=cache)
    _emit(rep, args.json)
    if rep["ex_status"] != "exact" or rep["g_z_provenance"] != "exact":
        return EXIT_BUDGET
    return EXIT_OK if rep.get("ex_ge_construction", True) else EXIT_FOUND


def _cmd_analyze(args, argv) -> int:
    g = load_graph(args.graph)
    given = {"gamma": args.gamma, "epsilon": args.epsilon}
    params = stability.AnalysisParams(
        args.r, args.t, **{name: Fraction(v) for name, v in given.items() if v})
    if args.verb == "closest-template":
        res = stability.closest_template(g, params)
        _emit({"distance": res.distance, "lower_bound": res.lower_bound,
               "gap": res.gap, "gamma_close": res.gamma_close,
               "heuristic": res.heuristic, "spec": res.spec.to_document()},
              args.json)
        return EXIT_OK
    _need(args, "spec")
    spec = TemplateSpec.from_document(json.loads(Path(args.spec).read_text()))
    if spec.r != args.r or g.part_sizes != (spec.n,) * spec.k:
        raise ConstructionError(
            f"spec is for r={spec.r} and {spec.k} parts of {spec.n}; got --r "
            f"{args.r} and parts {list(g.part_sizes)}")
    if args.verb == "classify":
        dec = stability.classify_atypical(g, spec, params)
        _emit({"w_doubleprime": list(bits(dec.w_doubleprime)),
               "w_prime": [list(bits(m)) for m in dec.w_prime],
               "z_doubleprime": list(bits(dec.z_doubleprime)),
               "z_cross": [[list(bits(m)) for m in row] for row in dec.z_cross],
               "u_tilde": [list(bits(m)) for m in dec.u_tilde],
               "ambiguous": list(bits(dec.ambiguous))}, args.json)
        return EXIT_OK
    if args.verb == "core":
        rep = stability.high_degree_core(g, spec.u_masks(), params)
        _emit({"core": list(bits(rep.core)), "hypothesis_met": rep.hypothesis_met,
               "bound": str(rep.bound), "bound_holds": rep.bound_holds}, args.json)
        return EXIT_OK if rep.bound_holds in (True, None) else EXIT_FOUND
    # structure
    z = g.mask([int(x) for x in args.z.split(",")]) if args.z else 0
    rep = stability.structure_report(g, spec, z, params)
    _emit(rep, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _budget_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_budget_arg, default=None,
                   help="node-expansion budget for searches")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.add_argument("--cache", default=None, help="result-cache path")


def build_parser() -> _Parser:
    top = _Parser(prog="turanwb", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)
    top.commands = sub.choices

    p = sub.add_parser("formulas")
    fsub = p.add_subparsers(dest="formula", required=True)
    f1 = fsub.add_parser("turan")
    f1.add_argument("--r", type=int, required=True)
    f1.add_argument("--k", type=int, required=True)
    f2 = fsub.add_parser("g")
    for name in ("n", "r", "k", "t", "z"):
        f2.add_argument(f"--{name}", type=int, required=True)
    f3 = fsub.add_parser("chromatic")
    f3.add_argument("--k", type=int, required=True)
    f3.add_argument("--q", type=int, required=True)
    f3.add_argument("--t", type=int, required=True)
    for q in (f1, f2, f3):
        _add_common(q)

    p = sub.add_parser("construct")
    p.add_argument("kind", choices=["template", "basic", "improved", "c4free", "stack"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--a", type=int, help="part count for stack")
    p.add_argument("--class1", help="path to the plugged class-1 graph")
    p.add_argument("--splits", help="template splits as JSON")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("check-free")
    p.add_argument("graph")
    p.add_argument("--pattern", choices=["star", "ktt", "kqt"], required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--s", type=int)
    _add_common(p)

    p = sub.add_parser("zar")
    p.add_argument("zcmd", choices=["exact", "lower", "gaps"])
    p.add_argument("--sizes", help="comma-separated part sizes")
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("ex")
    p.add_argument("excmd", choices=["exact", "turan", "compare"])
    p.add_argument("--sizes")
    p.add_argument("--q", type=int)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    _add_common(p)

    p = sub.add_parser("analyze")
    p.add_argument("verb", choices=["closest-template", "classify", "core", "structure"])
    p.add_argument("graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--spec", help="template spec JSON path")
    p.add_argument("--z", help="comma-separated exceptional vertices")
    p.add_argument("--epsilon")
    p.add_argument("--gamma")
    _add_common(p)

    return top


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every cli_dispatch call of the process uses, built on the
    first call; parsing keeps no state in it."""
    return build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The command line parsed as the top-level parser parses it.  A known
    command is parsed by its own parser, which is all the top-level parser
    would run on it; argv naming no known command, or leaving arguments
    over, goes through the top-level parser, so help, usage errors and
    their exit codes are the same either way."""
    top = _shared_parser()
    command = top.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.cmd = argv[0]
            return args
    return top.parse_args(argv)


def cli_dispatch(argv: Sequence[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.cmd == "formulas":
            return _cmd_formulas(args, argv)
        if args.cmd == "construct":
            return _cmd_construct(args, argv)
        if args.cmd == "check-free":
            return _cmd_check_free(args, argv)
        if args.cmd == "zar":
            return _cmd_zar(args, argv)
        if args.cmd == "ex":
            return _cmd_ex(args, argv)
        return _cmd_analyze(args, argv)
    except BudgetExhausted as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (ConstructionError, GraphInvariantError,
            zarankiewicz.OracleError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
