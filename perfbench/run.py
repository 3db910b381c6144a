"""End-to-end benchmark of the hirank CLI, with an optional per-layer trace.

    python3 perfbench/run.py --workload eval-allpairs --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55

Run from the root of a source checkout. Each workload's inputs are drawn
from `hirank.synthgen` under `--seed` into a work directory, then the
real CLI runs in fresh child processes until `--seconds` have passed:

- `--trace 0` reports the end-to-end metrics named in BENCHMARK.json: the
  median wall time, CPU time and peak RSS of one CLI child (CPU and RSS from
  `os.wait4` on that child), and `setup_s`, the median time of a fresh
  interpreter importing `hirank.cli`.
- `--trace 1` alternates untraced children with children running
  `tracer.py`, which times the package's layers from outside, and reports
  the per-layer metrics.

Every child's outputs are checked (see `workloads.py`); a child that exits
non-zero or writes a wrong output counts as a failed operation. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

MIN_RUNS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
KERNELS = ("metrics.h_ap", "metrics.ap_level", "metrics.asi", "metrics.ndcg", "metrics.recall_at_k")
# the layer each workload exists to stress: the traced run reports the share
# of traced wall time inside these spans as trace.dominant_share
DOMINANT = {
    "eval-allpairs": ("metrics.parse_scores", *KERNELS),
    "train-bigbatch": ("losses.combined_loss", "losses.hap_surrogate", "losses.clustering_loss"),
}


@dataclass
class Child:
    """One finished child: exit code, wall time, CPU time and peak RSS."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


class Launcher:
    """The small process (launcher.py) that spawns and reaps every child."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], log: Path) -> Child:
        self._proc.stdin.write(json.dumps({"args": args, "log": str(log)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        return Child(log=log, **json.loads(line))

    def stop(self) -> None:
        """End the launcher; it kills and reaps a running child first."""
        self._proc.terminate()
        self._proc.wait()

    def close(self) -> None:
        """Let the launcher exit at the end of its input; stop it if a child still runs."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.stop()
        self._proc.stdout.close()


class Runner:
    """Spawns children for one workload and counts them as operations."""

    def __init__(self, launcher: Launcher, work: Path):
        self.launcher = launcher
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, args: list[str]) -> Child:
        self.attempted += 1
        child = self.launcher.run(args, self.work / f"child{self.attempted}.log")
        if child.exit_code != 0:
            tail = child.log.read_text(errors="replace")[-400:]
            self.fail(f"{' '.join(args[:3])} exited {child.exit_code}: {tail}")
        return child

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAILED: {why}", file=sys.stderr)

    def cli(self, workload, run: int, trace: bool = False) -> Child:
        workload.before_run(run)
        if trace:
            args = [str(HERE / "tracer.py"), str(self.work / f"spans{run}.json"), str(run), "--"]
        else:
            args = ["-m", "hirank.cli"]
        child = self.spawn(args + workload.argv(run))
        if child.exit_code == 0:
            why = workload.failure(run)
            if why is not None:
                self.fail(f"{workload.name} run {run}: {why}")
        return child

    def import_child(self) -> Child:
        return self.spawn(["-c", "import hirank.cli"])


def scipy_import_s(log: Path) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime."""
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (indent, inside scipy) of open ancestors
    lines = [l for l in log.read_text().splitlines() if l.startswith("import time:") and "|" in l]
    for line in reversed(lines[1:]):  # reversed post-order is pre-order; skip the header
        _, cumulative, name = line.split("|")
        indent = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        in_scipy = name == "scipy" or name.startswith("scipy.")
        if in_scipy and not any(s for _, s in stack):
            total_us += int(cumulative)
        stack.append((indent, in_scipy or any(s for _, s in stack)))
    return total_us / 1e6


# --- span analysis ----------------------------------------------------------------

def _union(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(trace: dict, wall_s: float, dominant: tuple[str, ...]) -> dict[str, float]:
    """Per-layer numbers of one traced child."""
    spans = trace["spans"]
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    query_ms: dict[tuple, float] = {}
    steps_ms = []
    for s in spans:
        inner = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], [])]
        add(f"{s['name']}.self_s", (s["end"] - s["start"]) - _union(i for i in inner if i[1] > i[0]))
        add(f"{s['name']}.calls", 1)
        for what, count in s.get("counts", {}).items():
            add(f"{s['name']}.{what}", count)
        if s["name"] in KERNELS:
            key = (s["parent"], s.get("query"))
            query_ms[key] = query_ms.get(key, 0.0) + 1e3 * (s["end"] - s["start"])
        if s["name"] == "trainer.train_step":
            steps_ms.append(1e3 * (s["end"] - s["start"]))
    out["metrics.query_ms"] = list(query_ms.values())
    out["trainer.step_ms"] = steps_ms
    queries = out.get("trainer.train_step.queries", 0)
    out["trainer.skipped_query_share"] = out.get("trainer.train_step.skipped", 0) / queries if queries else 0.0
    out["trace.coverage"] = _union((s["start"], s["end"]) for s in spans) / wall_s
    out["trace.dominant_share"] = _union((s["start"], s["end"]) for s in spans if s["name"] in dominant) / wall_s
    return out


def per_layer_value(name: str, traced: list[dict], overhead_s: float, scipy_s: float) -> float:
    """One declared per-layer metric, as the median over the traced children."""
    if name == "trace.overhead_s":
        return overhead_s
    if name == "import.scipy_s":
        return scipy_s
    base, _, stat = name.rpartition(".")
    if stat in ("p50", "p99", "samples"):
        samples = [x for t in traced for x in t[base]]
        return float(len(samples)) if stat == "samples" else _percentile(samples, float(stat[1:]))
    return statistics.median(t.get(name, 0.0) for t in traced)


# --- one workload -------------------------------------------------------------

def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 spec: dict) -> dict:
    import workloads

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        load_before = _loadavg()
        workload = workloads.make(name, seed, work, tiny)
        inputs = workload.prepare()
        print(json.dumps({"workload": name, "seed": seed, "inputs": inputs}))
        runner = Runner(launcher, work)
        runner.import_child()  # warm the page cache and bytecode before timing
        baseline = workload.baseline_argv()
        if baseline and runner.spawn(["-m", "hirank.cli", *baseline]).exit_code == 0:
            why = workload.set_baseline()
            if why is not None:
                runner.fail(why)
        if trace:
            metrics = _traced(runner, workload, seconds, spec)
        else:
            metrics = _untraced(runner, workload, seconds, spec)
        print(json.dumps({"workload": name, "loadavg_1m": [load_before, _loadavg()]}))
        return {"correct": not runner.failures, "attempted": runner.attempted,
                "failed": len(runner.failures), "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()


def _untraced(runner: Runner, workload, seconds: float, spec: dict) -> dict:
    setups, runs = [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() + statistics.mean(setups) + statistics.mean(
            c.wall_s for c in runs) < deadline:
        setups.append(runner.import_child().wall_s)
        runs.append(runner.cli(workload, len(runs)))
    values = {
        "wall_s": statistics.median(c.wall_s for c in runs),
        "cpu_s": statistics.median(c.cpu_s for c in runs),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        "setup_s": statistics.median(setups),
    }
    print(json.dumps({"workload": workload.name, "wall_s": [c.wall_s for c in runs],
                      "cpu_s": [c.cpu_s for c in runs], "setup_s": setups}))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def _traced(runner: Runner, workload, seconds: float, spec: dict) -> dict:
    plain, traced, traced_wall, scipy = [], [], [], []
    deadline = time.perf_counter() + seconds
    run = 0
    while run == 0 or time.perf_counter() + statistics.mean(plain) + statistics.mean(traced_wall) < deadline:
        plain.append(runner.cli(workload, run).wall_s)
        child = runner.cli(workload, run + 1, trace=True)
        traced_wall.append(child.wall_s)
        spans = runner.work / f"spans{run + 1}.json"
        if spans.exists():  # a child that failed before the CLI ran wrote none
            trace = json.loads(spans.read_text())
            if trace["missing"] and not traced:
                print(json.dumps({"workload": workload.name, "missing_layers": trace["missing"]}))
            traced.append(layer_metrics(trace, child.wall_s, DOMINANT[workload.name]))
        scipy.append(scipy_import_s(runner.spawn(["-X", "importtime", "-c", "import hirank.cli"]).log))
        run += 2
    if not traced:
        raise RuntimeError(f"no traced run of {workload.name} produced spans")
    overhead = statistics.median(traced_wall) - statistics.median(plain)
    print(json.dumps({"workload": workload.name, "traced_runs": len(traced), "plain_runs": len(plain)}))
    return {
        m["name"]: {"value": per_layer_value(m["name"], traced, overhead, statistics.median(scipy)),
                    "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def _loadavg() -> float:
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }


def _git_rev() -> str | None:
    """HEAD of the checkout, read without git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "hirank" / "cli.py").is_file():
        print(f"perfbench: no hirank package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(known)} or all",
              file=sys.stderr)
        return 2

    launcher = Launcher()  # before this process grows: see launcher.py

    def on_sigterm(signum, frame):
        launcher.stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        sys.path.insert(0, str(SRC))
        print(json.dumps({"environment": environment()}))
        results = {n: run_workload(launcher, n, args.seed, args.seconds, bool(args.trace), args.tiny, spec)
                   for n in names}
    finally:
        launcher.close()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, res in results.items():
        for metric, v in res["metrics"].items():
            print(f"{n:16} {metric:34} {v['value']:.6g} {v['unit']}")
        print(f"{n:16} failed/attempted {res['failed']}/{res['attempted']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
