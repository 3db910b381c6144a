"""Golden `hirank eval` and `evaluate_dataset` reports.

`eval_golden.json` holds, per case, what `hirank eval` printed, its exit
code and its report.json text, and the `evaluate_dataset` report with its
per-query rows as JSON text. They were recorded while `hirank eval` still
built one relevance partition per query; the columnar path must reproduce
them byte for byte.

The cases cross four score files over one synthetic depth-3 taxonomy with
three relevance profiles (alpha:1, alpha:3 and weights:0.2,0.3,0.5):

- tied: every query against every other instance, scores rounded to 0.1;
- ragged: the same pairs, unrounded, with about 30% of the rows dropped;
- interleaved: the tied rows shuffled, so that queries interleave;
- no_positive: the tied rows plus a query whose candidates share no root
  with it (excluded under alpha, an empty-level error under weights).

`python tests/test_eval_golden.py` prints the reports of the current code
as the JSON document that the file holds.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import alpha_relevance, oracle_ancestor_level, per_query, weighted_relevance
from hirank.cli import main
from hirank.metrics import ScoredRanking, evaluate_dataset
from hirank.synthgen import SynthSpec, generate

GOLDEN_PATH = Path(__file__).parent / "eval_golden.json"
PROFILES = {"alpha1": "alpha:1", "alpha3": "alpha:3", "weights": "weights:0.2,0.3,0.5"}
KS = (1, 4)


def score_files() -> tuple[str, dict[str, list[tuple[str, str, float]]]]:
    """The taxonomy text and each case's score rows."""
    ds = generate(SynthSpec(branching=(2, 2, 3), instances_per_leaf=3, dim=5, seed=7,
                            holdout_fraction=0.0))
    rng = np.random.default_rng(11)
    unit = ds.features / np.linalg.norm(ds.features, axis=1, keepdims=True)
    scores = unit @ unit.T + 0.3 * rng.standard_normal((len(ds.ids), len(ds.ids)))
    queries = range(0, len(ds.ids), 3)
    pairs = [(q, c) for q in queries for c in range(len(ds.ids)) if c != q]
    tied = [(ds.ids[q], ds.ids[c], round(float(scores[q, c]), 1)) for q, c in pairs]
    exact = [(ds.ids[q], ds.ids[c], float(scores[q, c])) for q, c in pairs]
    ragged = [row for row in exact if rng.uniform() >= 0.3]
    interleaved = [tied[i] for i in rng.permutation(len(tied))]
    # an instance of the first root against every instance of the other root
    root = ds.taxonomy.path(ds.ids[1])[0]
    others = [i for i in ds.ids if ds.taxonomy.path(i)[0] != root]
    no_positive = tied + [(ds.ids[1], c, round(float(rng.uniform()), 1)) for c in others]
    text = "".join(f"{i}\t{'/'.join(ds.taxonomy.path(i))}\n" for i in ds.ids)
    cases = {"tied": tied, "ragged": ragged, "interleaved": interleaved,
             "no_positive": no_positive}
    return text, cases


def cli_report(directory: Path, taxonomy: Path, rows, relevance: str) -> dict:
    scores = directory / "scores.tsv"
    scores.write_text("".join(f"{q}\t{c}\t{s!r}\n" for q, c, s in rows), encoding="utf-8")
    out = directory / "report.json"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", "--taxonomy", str(taxonomy), "--scores", str(scores),
                     "--relevance", relevance, "--ks", ",".join(map(str, KS)), "--out", str(out)])
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue().replace(str(directory), "<dir>"),
        "report": out.read_text(encoding="utf-8") if out.exists() else None,
    }


def library_report(paths: dict, rows, profile: str) -> str:
    """evaluate_dataset over rankings whose levels and relevance the test
    oracles give, queries in first-appearance order."""
    by_query: dict[str, list[tuple[str, float]]] = {}
    for q, c, s in rows:
        by_query.setdefault(q, []).append((c, s))
    depth = len(next(iter(paths.values())))
    rankings = []
    for q, pairs in by_query.items():
        levels = np.array([oracle_ancestor_level(paths[q], paths[c]) for c, _ in pairs])
        if profile == "weights":
            rel = weighted_relevance(levels, np.array([0.2, 0.3, 0.5]))
        else:
            rel = alpha_relevance(levels, depth, {"alpha1": 1.0, "alpha3": 3.0}[profile])
        rankings.append(ScoredRanking(q, tuple(c for c, _ in pairs),
                                      np.array([s for _, s in pairs]), rel, levels))
    report = evaluate_dataset(rankings, ks=KS, depth=depth)
    return json.dumps({"report": report.to_json_dict(), "per_query": per_query(report)})


def golden_reports() -> dict[str, dict]:
    text, cases = score_files()
    paths = {line.split("\t")[0]: tuple(line.split("\t")[1].split("/"))
             for line in text.splitlines()}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        taxonomy = directory / "taxonomy.tsv"
        taxonomy.write_text(text, encoding="utf-8")
        for case, rows in cases.items():
            for profile, relevance in PROFILES.items():
                out[f"{case}/{profile}"] = {
                    "cli": cli_report(directory, taxonomy, rows, relevance),
                    "library": library_report(paths, rows, profile),
                }
    return out


@pytest.fixture(scope="module")
def current():
    return golden_reports()


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(current):
    assert sorted(current) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_matches_golden(current, case):
    assert current[case]["cli"] == GOLDEN[case]["cli"]
    assert current[case]["library"] == GOLDEN[case]["library"]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(golden_reports(), indent=1, sort_keys=True) + "\n")
