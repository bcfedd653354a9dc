"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a worker process of
its own (``worker.py``), so peak memory, import cost and any per-process
state belong to that workload alone.  Set-up is repeated in separate
set-up-only processes and ``setup_s`` is the median of all set-ups of the
run.  All processes of a run share one directory under ``.perfbench_run/``,
which is removed when the run ends.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what ran
and list every failed check.  The workloads are described in DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair_search", "row_search", "certify_analyze", "cache_replay")
SETUP_SAMPLES = 5          # set-up-only processes, besides the measuring one
CHILD_TIMEOUT_S = 150
RUN_ROOT = ROOT / ".perfbench_run"


def worker(args: list[str]) -> dict:
    """Run worker.py to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "turan_workbench" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'turan_workbench'}", file=sys.stderr)
        return 2
    run_dir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--run-dir", str(run_dir)]
    try:
        if args.trace:
            setup = []
        else:
            setup = [worker(common + ["--setup-only"])["setup_s"]
                     for _ in range(SETUP_SAMPLES)]
        res = worker(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = res["metrics"]
    if not args.trace:
        setup.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setup)
    print(res["summary"])
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} queries)")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    units = {"_s": "s", "_ms": "ms", "_mb": "MB", "_frac": "ratio", "_ratio": "ratio",
             "_bytes": "bytes"}
    out = {name: {"value": value,
                  "unit": next((u for suffix, u in units.items() if name.endswith(suffix)),
                               "count")}
           for name, value in metrics.items()}
    for name, m in out.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["problems"] and res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
