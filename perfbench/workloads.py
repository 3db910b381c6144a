"""The benchmark workloads: seeded inputs, CLI arguments and output checks.

Every input is drawn from `hirank.synthgen.generate` under the benchmark's
seed and written to a work directory before any timed run, so the CLI only
ever sees finished files. Each workload keeps one layer dominant:

- eval-allpairs: many moderate lists, untied scores, the eval thread pool;
  per-row parsing and per-query overhead dominate.
- train-bigbatch: 256-element batches; the smooth H-AP surrogate dominates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hirank.dataset import write_dataset
from hirank.synthgen import SynthSpec, generate
from hirank.taxonomy import format_taxonomy

import reference

# the tolerance of the oracle-agreement acceptance criteria
TOL = 1e-12
# eval-allpairs scores under relevance alpha:1 with the eval pool at two
# threads, one per core
ALPHA = 1.0
THREADS = 2
# train data use 4x synthgen's default noise: at the default, the untrained
# model already scores a holdout h_ap near 0.99, which leaves the check that
# training beats epochs 0 no room
NOISE = 1.0
M_PER_CLASS = 8


@dataclass(frozen=True)
class EvalShape:
    branching: tuple[int, ...]
    per_leaf: int
    queries: int  # 0 means every instance queries all the others


@dataclass(frozen=True)
class TrainShape:
    branching: tuple[int, ...]
    per_leaf: int
    dim: int
    batch_size: int
    epochs: int
    eval_every: int


# Full sizes are what the benchmark measures: one CLI run takes 3-4 s on two
# cores, so a 55 s run holds a dozen. Tiny sizes serve the self-test.
SHAPES = {
    "eval-allpairs": {
        "full": EvalShape((4, 4, 4), 10, 160),
        "tiny": EvalShape((2, 2), 3, 0),
    },
    "train-bigbatch": {
        "full": TrainShape((4, 4, 4), 20, 16, 256, 2, 2),
        "tiny": TrainShape((4, 4, 4), 10, 8, 64, 1, 1),
    },
}


class Workload:
    """Inputs of one workload under one seed, and the checks on its outputs."""

    def __init__(self, name: str, seed: int, work: Path, tiny: bool = False):
        self.name = name
        self.seed = seed
        self.work = work
        self.shape = SHAPES[name]["tiny" if tiny else "full"]
        self.first: bytes | None = None  # the deterministic output of the first run

    def out_dir(self, run: int) -> Path:
        return self.work / f"out{run}"

    def before_run(self, run: int) -> None:
        self.out_dir(run).mkdir(parents=True, exist_ok=True)

    def baseline_argv(self) -> list[str]:
        """CLI arguments of a reference run made once before the timed runs."""
        return []

    def failure(self, run: int) -> str | None:
        """Why run `run` produced wrong outputs, or None when they are right."""
        try:
            return self._check(self.out_dir(run))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"


class EvalWorkload(Workload):
    """`hirank eval` on a seeded score file, checked against `reference`."""

    def prepare(self) -> dict:
        s = self.shape
        ds = generate(
            SynthSpec(branching=s.branching, instances_per_leaf=s.per_leaf, dim=32,
                      holdout_fraction=0.0, seed=self.seed)
        )
        self.work.mkdir(parents=True, exist_ok=True)
        self.taxonomy = self.work / "taxonomy.tsv"
        self.scores = self.work / "scores.tsv"
        self.taxonomy.write_text(format_taxonomy(ds.taxonomy))

        n = len(ds.ids)
        rng = np.random.default_rng(self.seed)
        queries = np.sort(rng.choice(n, size=s.queries, replace=False)) if s.queries else np.arange(n)
        unit = ds.features / np.linalg.norm(ds.features, axis=1, keepdims=True)
        paths = [ds.taxonomy.path(i) for i in ds.ids]
        depth = ds.taxonomy.depth
        lines: list[str] = []
        rows: list[dict] = []
        tied = 0
        for q in queries:
            others = np.arange(n) != q
            cands = [ds.ids[j] for j in np.flatnonzero(others)]
            raw = unit[others] @ unit[q]
            texts = [repr(float(x)) for x in raw]
            lines.extend(f"{ds.ids[q]}\t{c}\t{t}" for c, t in zip(cands, texts))
            # the reference reads the scores back from their text, as the CLI does
            scores = np.array([float(t) for t in texts])
            _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
            tied += int((counts[inverse] > 1).sum())
            levels = np.array([reference.common_level(paths[q], paths[j]) for j in np.flatnonzero(others)])
            rel = reference.alpha_relevance(levels, depth, ALPHA)
            rows.append(reference.query_metrics(scores, levels, rel, depth))
        self.scores.write_text("\n".join(lines) + "\n")
        self.expected = reference.mean_metrics(rows)
        self.queries = len(queries)
        return {
            "instances": n,
            "queries": len(queries),
            "candidates_per_query": n - 1,
            "score_rows": len(lines),
            "tied_share": tied / len(lines),
            "depth": depth,
        }

    def argv(self, run: int) -> list[str]:
        return ["eval", "--taxonomy", str(self.taxonomy), "--scores", str(self.scores),
                "--relevance", f"alpha:{ALPHA}", "--ks", "1,4", "--threads", str(THREADS),
                "--out", str(self.out_dir(run) / "report.json")]

    def _check(self, out: Path) -> str | None:
        data = (out / "report.json").read_bytes()
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "report.json differs from the first run of the set"
        report = json.loads(data)
        if report["queries"] != self.queries or report["excluded"] != 0:
            return f"report covers {report['queries']} queries, {report['excluded']} excluded"
        for key, want in self.expected.items():
            if abs(report[key] - want) > TOL:
                return f"{key} = {report[key]!r}, reference {want!r}"
        # asi and recall@k break ties by id; the byte check above pins them to
        # the first run, and their range is checked here
        values = [report["asi"], *report["recall_at_k"].values()]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"asi or recall_at_k outside [0, 1]: {values}"
        return None


class TrainWorkload(Workload):
    """`hirank train` on a seeded dataset, checked for determinism and progress."""

    def prepare(self) -> dict:
        s = self.shape
        ds = generate(
            SynthSpec(branching=s.branching, instances_per_leaf=s.per_leaf, dim=32,
                      noise=NOISE, holdout_fraction=0.0, seed=self.seed)
        )
        ds = replace(ds, holdout_classes=balanced_holdout(ds, self.seed))
        self.data = self.work / "data"
        write_dataset(ds, self.data)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(self._config(s.epochs)))
        self.config0 = self.work / "config0.json"
        self.config0.write_text(json.dumps(self._config(0)))
        self.h_ap0 = None
        holdout = len(ds.holdout_ids)
        return {
            "instances": len(ds.ids),
            "train_instances": len(ds.ids) - holdout,
            "holdout_instances": holdout,
            "steps": s.epochs * math.ceil((len(ds.ids) - holdout) / s.batch_size),
            "depth": ds.taxonomy.depth,
        }

    def _config(self, epochs: int) -> dict:
        s = self.shape
        return {
            "model": {"kind": "linear", "dim": s.dim},
            "optimizer": {"kind": "adam"},
            "lr0": 0.01,
            "epochs": epochs,
            "batch_size": s.batch_size,
            "m_per_class": M_PER_CLASS,
            "seed": self.seed,
            "eval_every": s.eval_every,
            "objective": {"lambda": 0.1},
        }

    def baseline_argv(self) -> list[str]:
        """The same run at epochs 0: the untrained model's holdout report."""
        return ["train", "--data", str(self.data), "--config", str(self.config0),
                "--out", str(self.work / "epoch0"), "--quiet"]

    def set_baseline(self) -> str | None:
        try:
            self.h_ap0 = json.loads((self.work / "epoch0" / "report.json").read_text())["h_ap"]
        except (OSError, ValueError, KeyError) as exc:
            return f"epochs-0 baseline unreadable: {exc!r}"
        return None

    def argv(self, run: int) -> list[str]:
        return ["train", "--data", str(self.data), "--config", str(self.config),
                "--out", str(self.out_dir(run)), "--quiet"]

    def _check(self, out: Path) -> str | None:
        data = (out / "history.jsonl").read_bytes()
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "history.jsonl differs from the first run of the set"
        history = [json.loads(line) for line in data.decode().splitlines()]
        report = json.loads((out / "report.json").read_text())
        if not all(_finite(v) for v in [*history, report]):
            return "a history or report value is not finite"
        if self.h_ap0 is None or not report["h_ap"] > self.h_ap0:
            return f"final h_ap {report['h_ap']!r} does not beat the untrained {self.h_ap0!r}"
        return None


def balanced_holdout(ds, seed: int) -> frozenset[str]:
    """One seeded leaf class under each parent of the leaves.

    synthgen draws its holdout at random, so how many holdout instances share
    a coarse class with each other, and with it the cost of the holdout eval,
    would change with the seed; here it does not.
    """
    rng = np.random.default_rng(seed)
    leaves: dict[tuple[str, ...], set[str]] = {}
    for path in ds.taxonomy.entries.values():
        leaves.setdefault(path[:-1], set()).add(path[-1])
    return frozenset(str(rng.choice(sorted(group))) for _, group in sorted(leaves.items()))


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def make(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    cls = EvalWorkload if name.startswith("eval-") else TrainWorkload
    return cls(name, seed, work, tiny)
