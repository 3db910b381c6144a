"""Run `hirank.cli.main` in this process with timing wrappers on its layers.

    python perfbench/tracer.py SPANS_JSON RUN_ID -- <hirank arguments>

The wrappers are installed from outside: nothing in the package changes.
Each wrapped call becomes a span (name, start, end, parent, run id, query id
when the first argument is a ScoredRanking, and counts of the work done
where the layer has them). Spans stay in memory and are written to SPANS_JSON when the CLI
returns. A name the package no longer defines is listed as missing.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path


def _candidates(args, kwargs, result):
    return {"candidates": len(args[0])}


def _rows(args, kwargs, result):
    return {"rows": sum(len(ids) for ids, _ in result.values())}


def _partition_pairs(args, kwargs, result):
    return {"pairs": len(args[2])}


def _surrogate_pairs(args, kwargs, result):
    """Positives times candidates of one surrogate call."""
    import numpy as np

    relevance = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("relevance")
    if relevance is None:
        relevance = args[0].relevance
    relevance = np.asarray(relevance)
    return {"pairs": int(np.count_nonzero(relevance)) * len(relevance)}


def _batch(args, kwargs, result):
    return {"queries": len(args[2]), "skipped": int(result.skipped_queries)}


# (module, attribute, span name, work counts); "Class.method" patches the class
LAYERS = [
    ("hirank.cli", "main", "cli.main", None),
    ("hirank.taxonomy", "parse_taxonomy", "taxonomy.parse_taxonomy", None),
    ("hirank.taxonomy", "build_partition", "taxonomy.build_partition", _partition_pairs),
    ("hirank.taxonomy", "assign_relevance", "taxonomy.assign_relevance", None),
    ("hirank.dataset", "load_dataset", "dataset.load_dataset", None),
    ("hirank.dataset", "write_text_atomic", "dataset.write_text_atomic", None),
    ("hirank.metrics", "parse_scores", "metrics.parse_scores", _rows),
    ("hirank.metrics", "ScoredRanking.__init__", "metrics.ScoredRanking", None),
    ("hirank.metrics", "ScoredRanking.from_partition", "metrics.ScoredRanking", None),
    ("hirank.metrics", "evaluate_dataset", "metrics.evaluate_dataset", None),
    ("hirank.metrics", "h_ap", "metrics.h_ap", _candidates),
    ("hirank.metrics", "ap_level", "metrics.ap_level", _candidates),
    ("hirank.metrics", "asi", "metrics.asi", _candidates),
    ("hirank.metrics", "ndcg", "metrics.ndcg", _candidates),
    ("hirank.metrics", "recall_at_k", "metrics.recall_at_k", _candidates),
    ("hirank.losses", "combined_loss", "losses.combined_loss", None),
    ("hirank.losses", "hap_surrogate", "losses.hap_surrogate", _surrogate_pairs),
    ("hirank.losses", "clustering_loss", "losses.clustering_loss", None),
    ("hirank.trainer", "init_state", "trainer.init_state", None),
    ("hirank.trainer", "sample_batch", "trainer.sample_batch", None),
    ("hirank.trainer", "train_step", "trainer.train_step", _batch),
    ("hirank.trainer", "AdamState.update", "trainer.optimizer_update", None),
    ("hirank.trainer", "SgdState.update", "trainer.optimizer_update", None),
    ("hirank.trainer", "evaluate_state", "trainer.evaluate_state", None),
    ("hirank.trainer", "rankings_for_rows", "trainer.rankings_for_rows", None),
    ("hirank.trainer", "relevance_rows", "trainer.relevance_rows", None),
    ("hirank.trainer", "pairwise_levels", "trainer.pairwise_levels", None),
    ("hirank.trainer", "write_result", "trainer.write_result", None),
]


class Tracer:
    """Collects spans; a thread-local stack gives each span its parent.

    A span opened on a worker thread with an empty stack is parented to the
    span the main thread is inside, which is the one waiting on the pool.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._ranking_type = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "run": self.run_id}
                if args and isinstance(args[0], self._ranking_type):
                    span["query"] = getattr(args[0], "query_id", None)
                if count is not None and result is not None:
                    span["counts"] = count(args, kwargs, result)
                self.spans.append(span)

        return traced

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append({"id": next(self._ids), "name": name, "start": start,
                           "end": end, "parent": None, "run": self.run_id})

    def install(self) -> None:
        """Patch every layer in its defining module and wherever it was imported."""
        modules = [m for k, m in sys.modules.items() if k == "hirank" or k.startswith("hirank.")]
        metrics = sys.modules.get("hirank.metrics")
        self._ranking_type = getattr(metrics, "ScoredRanking", type(None))
        for module_name, attr, name, count in LAYERS:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if cls_name:
                if isinstance(original, classmethod):
                    setattr(owner, method, classmethod(self.wrap(name, original.__func__, count)))
                else:
                    setattr(owner, method, self.wrap(name, original, count))
                continue
            traced = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"run": self.run_id, "missing": self.missing, "spans": self.spans}))


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- <hirank arguments>")
    tracer = Tracer(int(run_id))
    start = time.perf_counter()
    import hirank.cli

    tracer.span("import", start, time.perf_counter())
    tracer.install()
    try:
        return hirank.cli.main(cli_args)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
