"""Command-line front end and canonical file I/O.

Exit codes are uniform across subcommands: 0 = success / pattern-free,
1 = witness found or assertion failed, 2 = search budget exhausted,
3 = usage error, a search nested past the recursion limit included.  Every
artifact written with --out gets a manifest sidecar (<out>.manifest.json)
recording the command line, parameters, input/output hashes, wall time and
the budget counters (null for a verb without --budget); identical
manifests reproduce byte-identical outputs, since every builder and search
is deterministic (the one randomized procedure, ``zar lower``'s greedy,
takes an explicit --seed and writes no file).
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
    # on a parser with verbs: the dest they set and each verb's parser, by name
    verbs: "Optional[tuple[str, dict[str, _Parser]]]" = None

    def add_verbs(self, dest: str):
        action = self.add_subparsers(dest=dest, required=True)
        self.verbs = dest, action.choices
        return action

    def error(self, message):   # usage errors exit with code 3
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
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
                   budget: Optional[Budget]) -> None:
    manifest = {
        "command": list(command),
        "parameters": params,
        "inputs": inputs,
        "outputs": {str(out_path): out_sha256},
        "wall_time_s": round(wall_time, 6),
        "budget": {"limit": budget.limit, "used": budget.used} if budget else None,
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


def _record_answer(head: dict, rec: zarankiewicz.Record) -> "tuple[dict, int]":
    """An exact search's answer and exit code; a record cut short by the
    budget adds the host's static cap as ``upper_bound``."""
    out = {**head, "value": rec.value, "status": rec.status,
           "witness_sha256": witness_hash(rec.witness)}
    if rec.status != "exact":
        out["upper_bound"] = rec.upper_bound()
    return out, EXIT_OK if rec.status == "exact" else EXIT_BUDGET


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# verbs: each takes the parsed namespace and argv and returns its answer,
# which cli_dispatch prints, and its exit code


def _formula_turan(args, argv):
    return constructions.turan_count(args.r, args.k), EXIT_OK


def _formula_g(args, argv):
    cp = ConstructionParams(args.n, args.r, args.k, args.t)
    return constructions.g_value(cp, args.z), EXIT_OK


def _formula_chromatic(args, argv):
    pat = ForbiddenPattern.complete_multipartite(args.q, args.t)
    val = constructions.chromatic_trivial_value(args.k, pat)
    return val if val is not None else "none", EXIT_OK


def _writes_graph(build):
    """A construct verb from ``build(args, budget)``, which returns the graph,
    its manifest parameters and the hashes of the files it read: the verb
    writes the graph to --out with its manifest.  ``budget`` is None for a
    verb without --budget."""
    def run(args, argv):
        t0 = time.time()
        budget = Budget(args.budget) if "budget" in args else None
        g, params, inputs = build(args, budget)
        digest = save_graph(g, args.out)
        write_manifest(args.out, digest, argv, {"kind": args.kind, **params}, inputs,
                       time.time() - t0, budget)
        return {"out": args.out, "edges": g.edge_count(),
                "parts": list(g.part_sizes)}, EXIT_OK
    return run


@_writes_graph
def _construct_template(args, budget):
    splits = json.loads(args.splits) if args.splits else ()
    spec = TemplateSpec.standard(args.r, args.k, args.n, splits)
    return constructions.build_template(spec), spec.to_document(), {}


@_writes_graph
def _construct_c4free(args, budget):
    g = constructions.regular_c4free_bipartite(args.n, args.t)
    return g, {"n": args.n, "t": args.t}, {}


def _blow_up(args, builder):
    class1 = load_graph(args.class1)
    inputs = {args.class1: _sha256_file(args.class1)}
    g = builder(ConstructionParams(args.n, args.r, args.k, args.t), class1)
    return g, {"n": args.n, "r": args.r, "k": args.k, "t": args.t,
               "class1_sha256": witness_hash(class1),
               "class1_edges": class1.edge_count()}, inputs


@_writes_graph
def _construct_basic(args, budget):
    return _blow_up(args, constructions.basic_construction)


@_writes_graph
def _construct_improved(args, budget):
    return _blow_up(args, constructions.improved_construction)


@_writes_graph
def _construct_stack(args, budget):
    cache = ResultCache(args.cache) if args.cache else None
    base = zarankiewicz.z_exact(zarankiewicz.ZarKey.of((args.n,) * args.a, args.t),
                                budget=budget, cache=cache)
    half = args.n // 2
    pair = None
    if half >= 1:
        pair = zarankiewicz.z_exact(zarankiewicz.ZarKey.of((half, half), args.t),
                                    budget=budget, cache=cache)
    if any(rec.status != "exact" for rec in (base, pair) if rec is not None):
        # a stack of lower bounds is not the construction: write nothing
        raise BudgetExhausted("the base or pair search was cut short")
    g = zarankiewicz.stack_e1_construction(args.a, args.n, args.t, base, pair)
    return g, {"a": args.a, "n": args.n, "t": args.t, "base_value": base.value,
               "pair_value": pair.value if pair else 0}, {}


def _cmd_check_free(args, argv):
    g = load_graph(args.graph)
    if args.pattern == "star":
        pat = ForbiddenPattern.star(args.t)
    elif args.pattern == "ktt":
        pat = ForbiddenPattern.biclique(args.t if args.s is None else args.s, args.t)
    elif args.q is None:
        raise ValueError("--pattern kqt needs --q")
    else:
        pat = ForbiddenPattern.complete_multipartite(args.q, args.t)
    budget = Budget(args.budget)
    try:
        w = find_pattern(g, pat, budget=budget)
    except BudgetExhausted:
        return {"verdict": "budget-exceeded", "nodes": budget.used}, EXIT_BUDGET
    if w is None:
        return {"verdict": "free", "nodes": budget.used}, EXIT_OK
    return {"verdict": "witness", "classes": [list(c) for c in w.classes],
            "nodes": budget.used}, EXIT_FOUND


def _zar_exact(args, argv):
    rec = zarankiewicz.z_exact(zarankiewicz.ZarKey.of(_sizes(args.sizes), args.t),
                               budget=Budget(args.budget),
                               cache=ResultCache(args.cache or None))
    return _record_answer({"sizes": list(rec.key.part_sizes), "t": rec.key.t}, rec)


def _zar_lower(args, argv):
    rec = zarankiewicz.z_lower_construction(args.n, args.t, seed=args.seed,
                                            budget=Budget(args.budget))
    return {"n": args.n, "t": args.t, "value": rec.value, "status": rec.status}, EXIT_OK


def _zar_gaps(args, argv):
    report = zarankiewicz.gap_checks(args.t, args.max, budget=Budget(args.budget),
                                     cache=ResultCache(args.cache or None))
    return report, EXIT_OK if report["e3_asserted"] else EXIT_FOUND


def _ex_exact(args, argv):
    inst = extremal.ExInstance.of(_sizes(args.sizes), args.q, args.t)
    rec = extremal.ex_exact(inst, budget=Budget(args.budget),
                            cache=ResultCache(args.cache or None))
    return _record_answer({"sizes": list(inst.part_sizes), "q": inst.q, "t": inst.t},
                          rec)


def _ex_turan(args, argv):
    rep = extremal.verify_turan_identity(args.n, args.k, args.r,
                                         budget=Budget(args.budget),
                                         cache=ResultCache(args.cache or None))
    rep.pop("witness")
    if rep["status"] != "exact":
        return rep, EXIT_BUDGET
    return rep, EXIT_OK if rep["holds"] else EXIT_FOUND


def _ex_compare(args, argv):
    rep = extremal.compare_with_g(args.n, args.r, args.k, args.t,
                                  budget=Budget(args.budget),
                                  cache=ResultCache(args.cache or None))
    if rep["ex_status"] != "exact" or rep["g_z_provenance"] != "exact":
        return rep, EXIT_BUDGET
    return rep, EXIT_OK if rep.get("ex_ge_construction", True) else EXIT_FOUND


def _analysis(args):
    """The graph and the analysis constants every analyze verb reads;
    closest-template and classify read no t and take --t's default, 2."""
    g = load_graph(args.graph)
    given = {"gamma": args.gamma, "epsilon": args.epsilon}
    return g, stability.AnalysisParams(
        args.r, args.t if "t" in args else 2,
        **{name: Fraction(v) for name, v in given.items() if v})


def _spec_analysis(args):
    """``_analysis`` with the --spec template, checked against --r and the graph."""
    g, params = _analysis(args)
    spec = TemplateSpec.from_document(json.loads(Path(args.spec).read_text()))
    if spec.r != args.r or g.part_sizes != (spec.n,) * spec.k:
        raise ConstructionError(
            f"spec is for r={spec.r} and {spec.k} parts of {spec.n}; got --r "
            f"{args.r} and parts {list(g.part_sizes)}")
    return g, spec, params


def _analyze_closest_template(args, argv):
    res = stability.closest_template(*_analysis(args))
    return {"distance": res.distance, "lower_bound": res.lower_bound,
            "gap": res.gap, "gamma_close": res.gamma_close,
            "heuristic": res.heuristic, "spec": res.spec.to_document()}, EXIT_OK


def _analyze_classify(args, argv):
    dec = stability.classify_atypical(*_spec_analysis(args))
    return {"w_doubleprime": list(bits(dec.w_doubleprime)),
            "w_prime": [list(bits(m)) for m in dec.w_prime],
            "z_doubleprime": list(bits(dec.z_doubleprime)),
            "z_cross": [[list(bits(m)) for m in row] for row in dec.z_cross],
            "u_tilde": [list(bits(m)) for m in dec.u_tilde],
            "ambiguous": list(bits(dec.ambiguous))}, EXIT_OK


def _analyze_core(args, argv):
    g, spec, params = _spec_analysis(args)
    rep = stability.high_degree_core(g, spec.u_masks(), params)
    return ({"core": list(bits(rep.core)), "hypothesis_met": rep.hypothesis_met,
             "bound": str(rep.bound), "bound_holds": rep.bound_holds},
            EXIT_OK if rep.bound_holds in (True, None) else EXIT_FOUND)


def _analyze_structure(args, argv):
    g, spec, params = _spec_analysis(args)
    z = g.mask([int(x) for x in args.z.split(",")]) if args.z else 0
    return stability.structure_report(g, spec, z, params), EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _budget_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return value


def _verb(verbs, name: str, run, *, budget: bool = False,
          seed: bool = False) -> _Parser:
    """A verb's parser, bound to ``run``: --budget and --seed only where the
    verb reads them, and --json and --cache on every verb."""
    p = verbs.add_parser(name)
    p.set_defaults(run=run)
    if budget:
        p.add_argument("--budget", type=_budget_arg, default=None,
                       help="node-expansion budget for searches")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.add_argument("--cache", default=None, help="result-cache path")
    return p


def _ints(p: _Parser, *names: str, **kwargs) -> None:
    for name in names:
        p.add_argument(f"--{name}", type=int, **kwargs)


def build_parser() -> _Parser:
    top = _Parser(prog="turanwb", description=__doc__)
    commands = top.add_verbs("cmd")

    formulas = commands.add_parser("formulas").add_verbs("formula")
    _ints(_verb(formulas, "turan", _formula_turan), "r", "k", required=True)
    _ints(_verb(formulas, "g", _formula_g), "n", "r", "k", "t", "z", required=True)
    _ints(_verb(formulas, "chromatic", _formula_chromatic), "k", "q", "t", required=True)

    construct = commands.add_parser("construct").add_verbs("kind")
    for kind, run in (("template", _construct_template), ("basic", _construct_basic),
                      ("improved", _construct_improved), ("c4free", _construct_c4free),
                      ("stack", _construct_stack)):
        p = _verb(construct, kind, run, budget=kind == "stack")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", required=True)
        if kind == "template":
            _ints(p, "r", "k", required=True)
            p.add_argument("--splits", help="template splits as JSON")
        else:
            p.add_argument("--t", type=int, default=2)
        if kind in ("basic", "improved"):
            _ints(p, "r", "k", required=True)
            p.add_argument("--class1", required=True,
                           help="path to the plugged class-1 graph")
        if kind == "stack":
            p.add_argument("--a", type=int, required=True, help="part count")

    p = _verb(commands, "check-free", _cmd_check_free, budget=True)
    p.add_argument("graph")
    p.add_argument("--pattern", choices=["star", "ktt", "kqt"], required=True)
    p.add_argument("--t", type=int, required=True)
    _ints(p, "q", "s")

    zar = commands.add_parser("zar").add_verbs("zcmd")
    p = _verb(zar, "exact", _zar_exact, budget=True)
    p.add_argument("--sizes", required=True, help="comma-separated part sizes")
    p.add_argument("--t", type=int, required=True)
    _ints(_verb(zar, "lower", _zar_lower, budget=True, seed=True), "n", "t", required=True)
    p = _verb(zar, "gaps", _zar_gaps, budget=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max", type=int, default=4)

    ex = commands.add_parser("ex").add_verbs("excmd")
    p = _verb(ex, "exact", _ex_exact, budget=True)
    p.add_argument("--sizes", required=True, help="comma-separated part sizes")
    _ints(p, "q", required=True)
    p.add_argument("--t", type=int, default=1)
    _ints(_verb(ex, "turan", _ex_turan, budget=True), "n", "k", "r", required=True)
    p = _verb(ex, "compare", _ex_compare, budget=True)
    _ints(p, "n", "r", "k", required=True)
    p.add_argument("--t", type=int, default=1)

    analyze = commands.add_parser("analyze").add_verbs("verb")
    for verb, run in (("closest-template", _analyze_closest_template),
                      ("classify", _analyze_classify), ("core", _analyze_core),
                      ("structure", _analyze_structure)):
        p = _verb(analyze, verb, run)
        p.add_argument("graph")
        p.add_argument("--r", type=int, required=True)
        if verb in ("core", "structure"):
            p.add_argument("--t", type=int, default=2)
        p.add_argument("--epsilon")
        p.add_argument("--gamma")
        if verb != "closest-template":
            p.add_argument("--spec", required=True, help="template spec JSON path")
        if verb == "structure":
            p.add_argument("--z", help="comma-separated exceptional vertices")

    return top


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every cli_dispatch call of the process uses, built on the
    first call; parsing keeps no state in it."""
    return build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The command line parsed as the top-level parser parses it.  The
    leading command and verb names lead to the parser of the verb they name,
    which is all the top-level parser would run on the rest of argv, and set
    their dests as it would; argv naming no known command or verb, or
    leaving arguments over, goes through the top-level parser, so help,
    usage errors and their exit codes are the same either way."""
    top = _shared_parser()
    parser, names = top, {}
    for name in argv:
        if parser.verbs is None:
            break
        dest, choices = parser.verbs
        parser = choices.get(name)
        if parser is None:
            return top.parse_args(argv)
        names[dest] = name
    if parser.verbs is None:
        args, extra = parser.parse_known_args(argv[len(names):])
        if not extra:
            vars(args).update(names)
            return args
    return top.parse_args(argv)


def cli_dispatch(argv: Sequence[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        answer, code = args.run(args, argv)
        _emit(answer, args.json)
    except BudgetExhausted as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (ConstructionError, GraphInvariantError, zarankiewicz.OracleError,
            OSError, ValueError, RecursionError) as exc:
        # a search nested past the interpreter's recursion limit, or a path
        # that cannot be read or written (a directory, say), answered
        # nothing: a usage error, not a witness
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return code


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
