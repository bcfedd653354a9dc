"""The north star's fixed CLI panel, each command in a fresh process.

    python3 panel/run.py [--out BENCH.json] [LABEL=CHECKOUT ...]

Each LABEL=CHECKOUT names the root of a checkout to run (default: this
one, labelled ``change``).  Every command runs three times per checkout,
in a process of its own with ``PYTHONPATH=<checkout>/src`` and a fresh
result cache, so no answer is a cache hit.  The runs are interleaved
(command by command, run by run, checkout by checkout), so a drift of the
host's speed falls on every checkout alike, and every other run takes the
checkouts in reverse order, so no checkout always runs first.

For each command and checkout the output records the median wall time of
the runs and what the command prints: its exit code and, from its JSON
answer, ``nodes`` and the value or verdict.  An answer that differs between
two runs of one checkout is an error.  The panel reads no counters: the
search commands print no node counts yet.

The cases: ``zar exact`` 9,9 and 4,4,4 at t = 2 and 7,7 at t = 3; ``ex
exact`` (3,3,3,2)/K_3(2) and (2,2,2,2,2,2)/K_4(2); the three Turan-identity
hosts of the frontier, at a 2M-node budget; ``construct`` and
``check-free`` of every t = 2 and t = 3 build at n = 32; and ``analyze
closest-template`` of the improved (4,7) build.  The class-1 graphs the
builds plug in are written once per checkout, untimed.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N = 32
RUNS = 3
# the answer fields a command prints that the panel keeps
ANSWER_KEYS = ("value", "status", "upper_bound", "holds", "search_value", "verdict",
               "nodes", "edges", "distance", "gap", "heuristic")
# the builds that exist at n = 32, every (r, k) with r < k <= 2r for r <= 4:
# at t = 3 an improved build that moves vertices (2 <= k - r < r) needs
# n >= 8t^2 = 72, so only its basic build is run
BUILDS = {t: [(kind, r, k) for r in (2, 3, 4) for k in range(r + 1, 2 * r + 1)
              for kind in ("basic", "improved")
              if kind == "basic" or t == 2 or not 2 <= k - r < r]
          for t in (2, 3)}
CLASS1 = ("import sys; from turan_workbench import cli, zarankiewicz; "
          "cli.save_graph(zarankiewicz.z_lower_construction(int(sys.argv[1]), "
          "int(sys.argv[2])).witness, sys.argv[3])")


def panel() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order; ``{dir}`` is the
    checkout's work directory."""
    cmds = [
        ("zar exact 9,9 t=2", ["zar", "exact", "--sizes", "9,9", "--t", "2"]),
        ("zar exact 4,4,4 t=2", ["zar", "exact", "--sizes", "4,4,4", "--t", "2"]),
        ("zar exact 7,7 t=3", ["zar", "exact", "--sizes", "7,7", "--t", "3"]),
        ("ex exact 3,3,3,2 K_3(2)", ["ex", "exact", "--sizes", "3,3,3,2", "--q", "3",
                                     "--t", "2"]),
        ("ex exact 2,2,2,2,2,2 K_4(2)", ["ex", "exact", "--sizes", "2,2,2,2,2,2",
                                         "--q", "4", "--t", "2"]),
    ]
    for n, k, r in ((4, 3, 2), (2, 5, 2), (2, 6, 3)):
        cmds.append((f"ex turan n={n} k={k} r={r}",
                     ["ex", "turan", "--n", str(n), "--k", str(k), "--r", str(r),
                      "--budget", "2000000"]))
    for t, builds in BUILDS.items():
        for kind, r, k in builds:
            out = f"{{dir}}/{kind}_{r}_{k}_t{t}.json"
            cmds.append((f"construct {kind} r={r} k={k} t={t}",
                         ["construct", kind, "--n", str(N), "--r", str(r), "--k", str(k),
                          "--t", str(t), "--class1", f"{{dir}}/class1_t{t}.json",
                          "--out", out]))
            cmds.append((f"check-free {kind} r={r} k={k} t={t}",
                         ["check-free", out, "--pattern", "kqt", "--q", str(r + 1),
                          "--t", str(t)]))
    cmds.append(("analyze closest-template improved r=4 k=7",
                 ["analyze", "closest-template", "{dir}/improved_4_7_t2.json", "--r", "4"]))
    return cmds


def run_one(checkout: Path, work: Path, argv: list[str]) -> tuple[float, dict]:
    """One cold run: its wall time, and its exit code and answer fields."""
    cache = work / "cache.jsonl"
    cache.unlink(missing_ok=True)
    argv = [a.replace("{dir}", str(work)) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "turan_workbench.cli", *argv,
                           "--json", "--cache", str(cache)],
                          cwd=work, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    answer: dict = {"exit": proc.returncode}
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        answer.update((key, doc[key]) for key in ANSWER_KEYS if key in doc)
    elif proc.stderr:
        answer["stderr"] = proc.stderr.strip().splitlines()[-1]
    return wall, answer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", metavar="LABEL=CHECKOUT")
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    args = ap.parse_args()
    checkouts = {}
    for item in args.checkouts or [f"change={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "src" / "turan_workbench").is_dir():
            ap.error(f"not LABEL=CHECKOUT with a src/turan_workbench: {item}")
        checkouts[label] = Path(path).resolve()
    scratch = Path(tempfile.mkdtemp(prefix="panel-"))
    try:
        works = {}
        for label, checkout in checkouts.items():
            works[label] = scratch / label
            works[label].mkdir()
            for t in BUILDS:
                subprocess.run([sys.executable, "-c", CLASS1, str(N), str(t),
                                str(works[label] / f"class1_t{t}.json")],
                               env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                               check=True)
        rows = []
        for name, argv in panel():
            walls = {label: [] for label in checkouts}
            answers = {label: [] for label in checkouts}
            for run in range(RUNS):
                order = list(checkouts.items())
                for label, checkout in order[::-1] if run % 2 else order:
                    wall, answer = run_one(checkout, works[label], argv)
                    walls[label].append(wall)
                    answers[label].append(answer)
            row = {"name": name, "argv": argv}
            for label in checkouts:
                if any(a != answers[label][0] for a in answers[label]):
                    raise SystemExit(f"{name}: {label} answered differently across runs: "
                                     f"{answers[label]}")
                row[label] = {"wall_s": round(statistics.median(walls[label]), 4),
                              **answers[label][0]}
            print(name, *(f"{label} {row[label]['wall_s']:.3f}s" for label in checkouts),
                  file=sys.stderr)
            rows.append(row)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {
        "panel": "north-star CLI panel, cold processes, no counters",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "runs": RUNS,
        "checkouts": list(checkouts),
        "total_wall_s": {label: round(sum(r[label]["wall_s"] for r in rows), 3)
                         for label in checkouts},
        "same_answers": all(
            {k: v for k, v in r[label].items() if k != "wall_s"}
            == {k: v for k, v in r[next(iter(checkouts))].items() if k != "wall_s"}
            for r in rows for label in checkouts),
        "commands": rows,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
