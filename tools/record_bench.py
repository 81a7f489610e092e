"""Record the end-to-end benchmark of every workload in one JSON file.

    python3 tools/record_bench.py --label NAME

Run from a clean checkout.  For each workload that ``BENCHMARK.json``
declares it runs ``python3 perfbench/run.py --workload W --seed 1
--seconds S --trace 0``, S being the declared ``run_seconds``, and writes
``BENCH_NAME.json`` at the repository root: per workload, the run's
metadata and result lines as printed (``json.dumps`` of each gives the
line back byte for byte), plus a machine block with the Python and numpy
versions, the processor count, the platform and the git commit.  It
refuses a tree with uncommitted changes to tracked files, so that the
commit names the code that was measured, and exits 1 unless every answer
of every run checked out.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if git("status", "--porcelain", "--untracked-files=no"):
        print("error: tracked files have uncommitted changes", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            check=True)
        meta, result = map(json.loads, proc.stdout.splitlines()[-2:])
        runs[workload] = {"meta": meta, "result": result}
        print(workload, json.dumps(result["metrics"]), flush=True)
    doc = {"machine": {"python": platform.python_version(),
                       "numpy": np.__version__, "nproc": os.cpu_count(),
                       "platform": platform.platform(),
                       "git_commit": git("rev-parse", "HEAD")},
           "runs": runs}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    correct = all(run["result"]["correct"] and run["result"]["failed"] == 0
                  for run in runs.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
