"""Command line front end.

Subcommands: synth (generate a dataset directory), eval (score file ->
metrics report), train (dataset + config -> history/checkpoint/report),
gradcheck (finite-difference verification of the analytic gradients).

Exit codes: 0 success, 1 usage or invalid configuration, 2 unreadable or
inconsistent data or an output that cannot be written, 3 failed numeric
check or diverged training. The handlers raise; `main` alone maps what they
raise to its code and prints it as one `hirank <command>: <message>` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import HirankError, NonFiniteLossError

if TYPE_CHECKING:
    from .taxonomy import RelevanceProfile

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


def _flag(name: str, text: str, parse: Callable[[str], object]):
    """`parse(text)`; a ValueError from it names the flag and its text."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"bad {name} {text!r}: {exc}") from None


def parse_relevance_flag(text: str) -> RelevanceProfile:
    """Accepts "alpha:A" or "weights:w1,..,wL"."""
    from .taxonomy import RelevanceProfile

    tag, _, rest = text.partition(":")
    if tag == "alpha" and rest:
        return RelevanceProfile.alpha(float(rest))
    if tag == "weights" and rest:
        return RelevanceProfile.weighted_ap(tuple(_float_list(rest)))
    raise ValueError("expected alpha:A or weights:w1,..,wL")


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

    # unset flags stay out of `args`, so `gradcheck.run_checks` supplies their defaults
    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--what", dest="names", metavar="WHAT", help="one check family, or all",
                   type=lambda what: None if what == "all" else [what])
    p.add_argument("--trials", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)

    return parser


def _write(path: Path, write: Callable[[], None]) -> None:
    """`write()`; an OSError from it becomes a data error naming `path`."""
    try:
        write()
    except OSError as exc:
        raise HirankError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_synth(args) -> int:
    from .dataset import write_dataset
    from .synthgen import SynthSpec, generate

    spec = SynthSpec(
        branching=tuple(_flag("--branching", args.branching, _int_list)),
        instances_per_leaf=args.per_leaf,
        dim=args.dim,
        level_spread=tuple(_flag("--spread", args.spread, _float_list)) if args.spread else None,
        noise=args.noise,
        holdout_fraction=args.holdout_fraction,
        seed=args.seed,
    )
    ds = generate(spec)
    _write(args.out, lambda: write_dataset(ds, args.out))
    print(
        f"wrote {len(ds.ids)} instances over {spec.num_leaves} leaf classes "
        f"({len(ds.holdout_classes)} classes held out) to {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    from .dataset import TextFile, located, read_file, write_text_atomic
    from .metrics import evaluate_columns, read_scores
    from .taxonomy import assign_relevance, parse_taxonomy

    profile = _flag("--relevance", args.relevance, parse_relevance_flag)
    ks = _flag("--ks", args.ks, _int_list)
    if not ks or min(ks) < 1:
        raise ValueError(f"bad --ks {args.ks!r}: expected positive integers")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    taxonomy = read_file(args.taxonomy, parse_taxonomy)
    profile.level_table([0] * (taxonomy.depth + 1), skip_empty=True)  # checks the weight count
    with located(args.scores):
        table = read_scores(TextFile(args.scores), taxonomy)
    relevance, levels = assign_relevance(table.levels, table.query, profile, taxonomy.depth)
    # ties break by id, and taxonomy rows sort as the ids do
    columns = (table.candidate, table.score, relevance, levels)
    report = evaluate_columns(table.query_ids, table.query, columns, ks, taxonomy.depth)
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    _write(args.out, lambda: write_text_atomic(args.out, text))
    print(f"queries {report.queries} excluded {report.excluded}")
    for name, value in report.metric_items():
        print(f"{name} {value:.6f}")
    return 0


def cmd_train(args) -> int:
    from .dataset import load_dataset, read_file
    from .trainer import config_from_dict, fit, write_result

    ds = load_dataset(args.data)
    raw = read_file(args.config, json.loads)
    try:
        config = config_from_dict(raw, depth=ds.taxonomy.depth)
    except ValueError as exc:
        raise ValueError(f"bad config: {exc}") from None
    log = (lambda line: None) if args.quiet else print
    result = fit(ds, config, log=log)
    _write(args.out, lambda: write_result(result, args.out))
    print(json.dumps(result.state.history[-1]))
    print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_checks

    results = run_checks(**{k: v for k, v in vars(args).items() if k != "command"})
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    for res in failed:
        print(res.replay_line())
    return 0 if not failed else CHECK_EXIT


def main(argv=None) -> int:
    """Run one command; what it raises becomes one stderr line and an exit code.

    NonFiniteLossError exits 3, any other HirankError 2, an OSError (an input
    that cannot be read) 2 and a ValueError (a bad flag or config value) 1, so
    a plain ValueError from a library bug exits 1 with its message.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "eval": cmd_eval,
        "train": cmd_train,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except NonFiniteLossError as exc:
        code, message = CHECK_EXIT, str(exc)
    except HirankError as exc:
        code, message = DATA_EXIT, str(exc)
    except ValueError as exc:
        code, message = USAGE_EXIT, str(exc)
    except OSError as exc:
        code, message = DATA_EXIT, f"cannot read {exc.filename}: {exc.strerror or exc}"
    print(f"hirank {args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
