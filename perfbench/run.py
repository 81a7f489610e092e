"""End-to-end benchmark of targetflow answers.

    python3 perfbench/run.py --workload solve-er1e5 --seed 1 --seconds 15 --trace 0

Run from the repository root.  One client in a closed loop runs the
``targetflow`` command line as a child process, one answer at a time, for
``--seconds`` seconds, and checks every answer with the independent code in
``check.py``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
also replays each answer in-process with one span per public call (see
``worker.py``) and reports the per-layer metrics.  The last line of standard
output is the result object; the line before it holds the run's metadata.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"
# What the ``targetflow`` console script runs.
CLI = "import sys; from targetflow.cli import main; sys.exit(main())"

# Each run generates this many inputs from its seed and cycles its answers
# over them, so one run's median spans several random instances.
INSTANCES = 2
# Every child must end well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0
FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
TRIALS = 20
VERIFY_TF = "3"

# Span name -> self-time metric.  These, certify.gramian_s and
# certify.input_synthesis_s add up, with cli.overhead_s, to answer_s.
SELF_METRICS = {
    "graph.parse": "graph.parse_s",
    "cover.build_network": "cover.build_network_s",
    "cover.extract": "cover.extract_s",
    "cover.decompose": "cover.decompose_s",
    "cover.allocate": "cover.allocate_s",
    "flow.max_flow": "flow.max_flow_s",
    "matching.max_matching": "matching.max_matching_s",
    "certify.realize": "certify.realize_s",
    "certify.rank": "certify.rank_s",
    "certify.simulate": "certify.simulate_s",
    "experiments.sweep": "experiments.sweep_s",
}
COUNT_METRICS = {
    ("graph.parse", "edges"): "graph.edges",
    ("cover.build_network", "arcs"): "cover.network_arcs",
    ("flow.max_flow", "value"): "flow.value",
    ("matching.max_matching", "size"): "matching.size",
}
UNITS = dict(
    {name: "s" for name in SELF_METRICS.values()},
    **{name: "count" for name in COUNT_METRICS.values()},
    **{"graph.generate_s": "s", "cover.queries": "count",
       "flow.arcs_per_s": "1/s", "certify.gramian_s": "s",
       "certify.input_synthesis_s": "s", "certify.y_norm": "1",
       "cli.overhead_s": "s", "cli.import_s": "s", "cli.cpu_s": "s",
       "trace.overhead_s": "s"})


@dataclass(frozen=True)
class Workload:
    name: str
    gen: str
    n: int
    target_fraction: float | None  # None: the program picks its own targets
    commands: tuple[str, ...]  # one answer runs these CLI commands in order
    mu: float = 3.0
    gamma: float = 3.0


WORKLOADS = {w.name: w for w in (
    Workload("solve-er1e5", "er", 100_000, 0.1, ("solve",)),
    Workload("whole-sf1e5", "sf", 100_000, 1.0, ("matching", "solve")),
    Workload("sweep-er1e3", "er", 1000, None, ("sweep",)),
    Workload("verify-er80", "er", 80, 0.2, ("verify",)),
)}


def derive_seed(seed, workload, stream):
    """Independent 32-bit seed per (workload seed, stream)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv, work, deadline):
    """Run one child to completion; its own rusage gives CPU and peak RSS."""
    out_path, err_path = work / "child.out", work / "child.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work,
                                env=env)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall,
                       usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0,
                       out_path.read_bytes(), err_path.read_bytes())


@dataclass
class Instance:
    """One generated input: graph and target files, the seeds that made
    them, and the seed the CLI gets for its own randomness."""
    graph: Path
    targets: Path
    graph_seed: int
    target_seed: int
    program_seed: int
    info: dict | None = None  # sizes and timings reported by the set-up


class Run:
    def __init__(self, wl, seed, work, deadline):
        self.wl = wl
        self.work, self.deadline = work, deadline
        self.instances = [
            Instance(work / f"graph{k}.txt", work / f"targets{k}.txt",
                     *(derive_seed(seed, wl.name, f"{stream}/{k}")
                       for stream in ("graph", "targets", "program")))
            for k in range(INSTANCES)]
        self.failures = []

    def child(self, argv):
        return run_child(argv, self.work, self.deadline)

    def argv(self, command, inst):
        if command == "solve":
            return ["solve", str(inst.graph), str(inst.targets)]
        if command == "matching":
            return ["matching", str(inst.graph)]
        if command == "sweep":
            return ["sweep", "--graph", str(inst.graph),
                    "--fractions", ",".join(map(str, FRACTIONS)),
                    "--trials", str(TRIALS), "--seed", str(inst.program_seed)]
        return ["verify", str(inst.graph), str(inst.targets),
                "--tf", VERIFY_TF, "--seed", str(inst.program_seed)]

    def setup(self, k):
        """Generate instance k in a fresh interpreter; returns wall time."""
        inst = self.instances[k]
        spec = {"gen": self.wl.gen, "n": self.wl.n, "mu": self.wl.mu,
                "gamma": self.wl.gamma, "graph_seed": inst.graph_seed,
                "target_seed": inst.target_seed,
                "target_fraction": self.wl.target_fraction,
                "graph_path": str(inst.graph),
                "targets_path": str(inst.targets)}
        out = self.work / "setup.json"
        res = self.child([sys.executable, str(WORKER), "setup",
                          json.dumps(spec), str(out)])
        if res.code != 0:
            raise RuntimeError("input set-up failed: "
                               + res.stderr.decode(errors="replace")[-2000:])
        inst.info = json.loads(out.read_text())
        return res.wall_s

    def answer(self, index):
        """One answer: each CLI command of the workload as a child."""
        inst = self.instances[index % INSTANCES]
        runs = []
        for command in self.wl.commands:
            res = self.child([sys.executable, "-c", CLI,
                              *self.argv(command, inst)])
            runs.append(res)
            if res.code != 0:
                self.failures.append(
                    f"answer {index} {command}: exit {res.code}: "
                    + res.stderr.decode(errors="replace")[-500:])
                return runs, False
        return runs, True

    def traced(self, index, runs):
        """Spanned and plain in-process passes of one answer; both must
        print exactly what the CLI printed."""
        inst = self.instances[index % INSTANCES]
        passes = []
        for command, cli in zip(self.wl.commands, runs):
            pair = {}
            for mode in ("spanned", "plain"):
                out = self.work / f"{mode}.json"
                res = self.child([sys.executable, str(WORKER), mode,
                                  f"{index}/{command}", str(out), "--",
                                  *self.argv(command, inst)])
                if res.code != 0:
                    self.failures.append(
                        f"answer {index} {command}: {mode} pass exit "
                        f"{res.code}: "
                        + res.stderr.decode(errors="replace")[-500:])
                    return None
                pair[mode] = json.loads(out.read_text())
                if pair[mode]["output"].encode() != cli.stdout:
                    self.failures.append(f"answer {index} {command}: {mode} "
                                         f"pass differs from the CLI answer")
                    return None
            passes.append(pair)
        return passes


def check_answers(run, answers):
    """Check each distinct answer once: the program is deterministic, so
    byte-identical outputs for one instance share one verdict.  Returns
    the indices of failed answers."""
    wl = run.wl
    verdicts = {}
    failed = set()
    for index, runs in answers:
        k = index % INSTANCES
        key = (k,) + tuple(r.stdout for r in runs)
        if key not in verdicts:
            inst = run.instances[k]
            edges = check.read_edges(inst.graph)
            targets = (check.read_targets(inst.targets)
                       if wl.target_fraction is not None else None)
            text = [r.stdout.decode() for r in runs]
            if wl.commands == ("solve",):
                problems = check.check_solve(edges, targets, text[0])
            elif wl.commands == ("matching", "solve"):
                problems = (check.check_matching(text[0], text[1])
                            + check.check_solve(edges, targets, text[1]))
            elif wl.commands == ("sweep",):
                problems = check.check_sweep(text[0], FRACTIONS, TRIALS)
            else:
                problems = check.check_verify(edges, targets, text[0])
            verdicts[key] = problems
        if verdicts[key]:
            failed.add(index)
            run.failures.append(f"answer {index}: "
                                + "; ".join(verdicts[key][:3]))
    if wl.commands == ("sweep",) and \
            len(verdicts) > len({key[0] for key in verdicts}):
        run.failures.append("sweep CSV differs across answers of one input")
        failed.update(index for index, _ in answers)
    return failed


def layer_metrics(run, runs, passes):
    """Per-layer metrics of one answer from its spans."""
    m = dict.fromkeys(UNITS, 0.0)
    layer_sum = 0.0
    for pair in passes:
        spans = pair["spanned"]["spans"]
        covered = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        for s in spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            name = s["name"]
            if name == "certify.gramian":  # the probe, outside the answer
                m["certify.gramian_s"] += own
                continue
            if s["parent"] is None:  # the answer's root: CLI glue
                continue
            layer_sum += own
            if name == "certify.design_input":
                m["certify.input_synthesis_s"] += own
            else:
                m[SELF_METRICS[name]] += own
            if name == "cover.build_network":
                m["cover.queries"] += 1
            for key, value in s["counts"].items():
                m[COUNT_METRICS[name, key]] += value
        m["cli.import_s"] += pair["spanned"]["import_s"]
        m["trace.overhead_s"] += (pair["spanned"]["total_s"]
                                  - pair["plain"]["total_s"])
    m["certify.input_synthesis_s"] -= m["certify.gramian_s"]
    answer_s = sum(r.wall_s for r in runs)
    m["cli.overhead_s"] = answer_s - layer_sum
    m["cli.cpu_s"] = sum(r.cpu_s for r in runs)
    if m["flow.max_flow_s"] > 0:
        m["flow.arcs_per_s"] = m["cover.network_arcs"] / m["flow.max_flow_s"]
    if run.wl.commands == ("verify",):
        m["certify.y_norm"] = json.loads(runs[0].stdout)["y_norm"] or 0.0
    return m, answer_s, layer_sum


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it."""
    k = len(samples)
    if k <= 10:
        return None
    p = (100 * (k - 10)) // k
    rank = max(1, -(-p * k // 100))
    return {"percentile": p, "value": sorted(samples)[rank - 1]}


def network_arcs(wl, info):
    """Arcs of the node-split networks the program builds per answer:
    inject and collect per target, relay per other node, one per edge."""
    nodes, edges = info["nodes"], info["edges"]
    if wl.commands == ("sweep",):
        return sum(TRIALS * (nodes + max(1, round(f * nodes)) + edges)
                   for f in FRACTIONS)
    return nodes + info["targets"] + edges


def git_commit():
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def benchmark(wl, seed, seconds, trace, work):
    start = time.monotonic()
    run = Run(wl, seed, work, start + RUN_BUDGET_S)
    setup_walls = [run.setup(k) for k in range(INSTANCES)]

    answers, walls, layer_rows, accounting = [], [], [], []
    peak_rss = 0.0
    t_measure = time.monotonic()
    last_cost = 0.0
    # At least one answer per instance, then on until --seconds have passed.
    while (len(answers) < INSTANCES
           or time.monotonic() - t_measure < seconds) and \
            time.monotonic() + last_cost < run.deadline:
        t0 = time.monotonic()
        index = len(answers)
        runs, ok = run.answer(index)
        answers.append((index, runs))
        if ok:
            walls.append(sum(r.wall_s for r in runs))
            peak_rss = max(peak_rss, max(r.rss_mb for r in runs))
            if trace:
                passes = run.traced(index, runs)
                if passes is None:
                    ok = False
                else:
                    m, answer_s, layer_sum = layer_metrics(run, runs, passes)
                    layer_rows.append(m)
                    accounting.append({"answer_s": answer_s,
                                       "layer_sum_s": layer_sum})
        if not ok:
            break
        last_cost = time.monotonic() - t0

    failed = {index for index, runs in answers
              if len(runs) < len(wl.commands) or runs[-1].code != 0}
    failed |= check_answers(run, [(i, r) for i, r in answers
                                  if i not in failed])
    if trace and len(layer_rows) < len(answers):
        failed.add(answers[-1][0])

    infos = [inst.info for inst in run.instances]
    if trace:
        metrics = {name: {"value": statistics.median(row[name]
                                                     for row in layer_rows)
                          if layer_rows else 0.0, "unit": unit}
                   for name, unit in UNITS.items()}
        metrics["graph.generate_s"]["value"] = statistics.median(
            info["generate_s"] for info in infos)
    else:
        metrics = {
            "answer_s": {"value": statistics.median(walls) if walls else 0.0,
                         "unit": "s"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    meta = {
        "workload": wl.name, "seed": seed, "trace": trace,
        "python": sys.version.split()[0], "numpy": infos[0]["numpy"],
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "inputs": [{"graph_seed": inst.graph_seed,
                    "target_seed": (inst.target_seed
                                    if wl.target_fraction is not None
                                    else None),
                    "program_seed": inst.program_seed,
                    "nodes": info["nodes"], "edges": info["edges"],
                    "targets": info["targets"],
                    "network_arcs": network_arcs(wl, info)}
                   for inst, info in zip(run.instances, infos)],
        "samples": len(walls),
        "answer_s_tail": tail_percentile(walls),
        "error_rate": len(failed) / len(answers),
        "setup_s_each": setup_walls,
        "accounting": accounting,
        "failures": run.failures[:10],
    }
    result = {"correct": not failed, "attempted": len(answers),
              "failed": len(failed), "metrics": metrics}
    return meta, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "targetflow" / "cli.py").is_file():
        print(f"error: no targetflow sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        meta, result = benchmark(WORKLOADS[args.workload], args.seed,
                                 args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
