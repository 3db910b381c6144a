"""Command line front end.

Subcommands: synth (generate a dataset directory), eval (score file ->
metrics report), train (dataset + config -> history/checkpoint/report),
gradcheck (finite-difference verification of the analytic gradients).

Exit codes: 0 success, 1 usage or invalid configuration, 2 unreadable or
inconsistent data or an output that cannot be written, 3 failed numeric
check or diverged training.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataset as ds_io
from . import trainer as trainer_mod
from .errors import HirankError, NonFiniteLossError
from .gradcheck import CHECKS, DEFAULT_EPS, DEFAULT_TOL, run_checks
from .metrics import evaluate_columns, read_scores
from .synthgen import SynthSpec, generate
from .taxonomy import RelevanceProfile, assign_relevance, parse_taxonomy

USAGE_EXIT = 1
DATA_EXIT = 2
CHECK_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for data."""

    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def parse_relevance_flag(text: str) -> RelevanceProfile:
    """Accepts "alpha:A" or "weights:w1,..,wL"."""
    tag, _, rest = text.partition(":")
    if tag == "alpha" and rest:
        return RelevanceProfile.alpha(float(rest))
    if tag == "weights" and rest:
        return RelevanceProfile.weighted_ap(tuple(_float_list(rest)))
    raise ValueError(
        f"bad --relevance {text!r}: expected alpha:A or weights:w1,..,wL"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="hirank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--branching", default="4,4,4", help="children per level, e.g. 4,4,4")
    p.add_argument("--per-leaf", type=int, default=10, help="instances per leaf class")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout-fraction", type=float, default=0.25)
    p.add_argument("--spread", default=None, help="per-level center spread, e.g. 2,1,0.5")
    p.add_argument("--noise", type=float, default=None)

    p = sub.add_parser("eval", help="evaluate a scores file against a taxonomy")
    p.add_argument("--taxonomy", required=True, type=Path)
    p.add_argument("--scores", required=True, type=Path)
    p.add_argument(
        "--relevance",
        default="alpha:1.0",
        help="relevance profile, alpha:A or weights:w1,..,wL",
    )
    p.add_argument("--ks", default="1,4", help="recall cutoffs")
    p.add_argument("--threads", type=int, default=1, help="has no effect; must be >= 1")
    p.add_argument("--out", required=True, type=Path, help="report JSON destination")

    p = sub.add_parser("train", help="train embeddings on a dataset directory")
    p.add_argument("--data", required=True, type=Path)
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--what", choices=[*CHECKS, "all"], default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)

    return parser


def cmd_synth(args) -> int:
    try:
        spec = SynthSpec(
            branching=tuple(_int_list(args.branching)),
            instances_per_leaf=args.per_leaf,
            dim=args.dim,
            level_spread=tuple(_float_list(args.spread)) if args.spread else None,
            noise=args.noise,
            holdout_fraction=args.holdout_fraction,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"hirank synth: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        ds = generate(spec)
        ds_io.write_dataset(ds, args.out)
    except HirankError as exc:
        print(f"hirank synth: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"hirank synth: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_EXIT
    print(
        f"wrote {len(ds.ids)} instances over {spec.num_leaves} leaf classes "
        f"({len(ds.holdout_classes)} classes held out) to {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    try:
        profile = parse_relevance_flag(args.relevance)
        ks = _int_list(args.ks)
        if not ks or any(k < 1 for k in ks):
            raise ValueError("--ks needs positive integers")
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
    except ValueError as exc:
        print(f"hirank eval: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        taxonomy = ds_io.read_file(args.taxonomy, parse_taxonomy)
        profile.level_table([0] * (taxonomy.depth + 1), skip_empty=True)  # checks the weight count
        table = ds_io.read_file(args.scores, lambda text: read_scores(text, taxonomy))
        relevance, levels = assign_relevance(table.levels, table.query, profile, taxonomy.depth)
        # ties break by id, and taxonomy rows sort as the ids do
        columns = (table.candidate, table.score, relevance, levels)
        report = evaluate_columns(table.query_ids, table.query, columns, ks, taxonomy.depth)
    except (HirankError, ValueError) as exc:
        print(f"hirank eval: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"hirank eval: cannot read {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_EXIT
    try:
        ds_io.write_text_atomic(args.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    except OSError as exc:
        print(f"hirank eval: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_EXIT
    print(f"queries {report.queries} excluded {report.excluded}")
    for name, value in report.metric_items():
        print(f"{name} {value:.6f}")
    return 0


def cmd_train(args) -> int:
    try:
        ds = ds_io.load_dataset(args.data)
        raw = ds_io.read_file(args.config, json.loads)
    except HirankError as exc:
        print(f"hirank train: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"hirank train: cannot read {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_EXIT
    try:
        config = trainer_mod.config_from_dict(raw, depth=ds.taxonomy.depth, in_dim=ds.dim)
    except ValueError as exc:
        print(f"hirank train: bad config: {exc}", file=sys.stderr)
        return USAGE_EXIT
    log = (lambda line: None) if args.quiet else print
    try:
        result = trainer_mod.fit(ds, config, log=log)
    except NonFiniteLossError as exc:
        print(f"hirank train: {exc}", file=sys.stderr)
        return CHECK_EXIT
    except HirankError as exc:
        print(f"hirank train: {exc}", file=sys.stderr)
        return DATA_EXIT
    try:
        trainer_mod.write_result(result, args.out)
    except OSError as exc:
        print(f"hirank train: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_EXIT
    print(json.dumps(result.history[-1]))
    print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1 or args.eps <= 0 or args.tol <= 0:
        print("hirank gradcheck: trials, eps and tol must be positive", file=sys.stderr)
        return USAGE_EXIT
    names = None if args.what == "all" else [args.what]
    results = run_checks(names, trials=args.trials, eps=args.eps, tol=args.tol, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    for res in failed:
        replay = dict(res.worst_config)
        replay.update({"seed": args.seed, "eps": args.eps, "tol": args.tol})
        print(f"replay: {json.dumps(replay, sort_keys=True)}")
    return 0 if not failed else CHECK_EXIT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "eval": cmd_eval,
        "train": cmd_train,
        "gradcheck": cmd_gradcheck,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
