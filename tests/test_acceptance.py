"""End-to-end acceptance checks, one test per numbered release criterion.

The suite covers anchored fixture values for the graded rank, bulk
agreement between the library and the independent oracles in conftest,
finite-difference gradient verification, directional training comparisons
on a seeded synthetic dataset, and byte-level determinism of the train
command. Each test appends a PASS/FAIL line to the summary section that
pytest prints at the end of the run, then asserts.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    h_ap_pr_oracle,
    make_ranking,
    oracle_binary_ap,
)
from hirank.cli import main
from hirank.gradcheck import run_checks
from hirank.losses import hap_surrogate
from hirank.metrics import ScoredRanking, ap_level, h_ap, h_rank
from hirank.synthgen import SynthSpec, generate
from hirank.taxonomy import RelevanceProfile
from hirank.trainer import HISTORY_FILE, TrainerConfig, fit


def record(num: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d}: {status} - {text}")


def test_criterion_01_rank_anchors():
    # One more-relevant and one less-relevant neighbour ranked above the
    # query. Both anchor values are rationals; the float evaluation order
    # rel(k) + min(...) reproduces 4/3 bit-exactly, while 1 + 2/3 sits one
    # ulp below the 5/3 literal, so that anchor is pinned to the sum.
    two_thirds_above = ScoredRanking(
        query_id="q",
        candidate_ids=("above", "k"),
        scores=np.array([2.0, 1.0]),
        relevance=np.array([2 / 3, 1.0]),
        levels=np.array([2, 3]),
    )
    one_third_above = ScoredRanking(
        query_id="q",
        candidate_ids=("above", "k"),
        scores=np.array([2.0, 1.0]),
        relevance=np.array([1 / 3, 1.0]),
        levels=np.array([1, 3]),
    )
    got_hi = h_rank(two_thirds_above, 1)
    got_lo = h_rank(one_third_above, 1)
    ok = (
        got_hi == 1 + 2 / 3
        and abs(got_hi - 5 / 3) <= math.ulp(5 / 3)
        and got_lo == 4 / 3
    )
    record(1, ok, "graded rank anchors 5/3 and 4/3, zero tolerance")
    assert got_hi == 1 + 2 / 3
    assert abs(got_hi - 5 / 3) <= math.ulp(5 / 3)
    assert got_lo == 4 / 3


def test_criterion_02_binary_consistency():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        r = make_ranking(rng, n, depth=1)
        diff = abs(h_ap(r) - oracle_binary_ap(r.scores, r.levels > 0))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    record(
        2,
        ok,
        f"h_ap matches binary AP on 1000 flat lists "
        f"(max err {worst:.2e}, {elapsed:.2f}s)",
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_03_pr_curve_equivalence():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        depth = int(rng.integers(2, 5))
        n = int(rng.integers(2, 41))
        if trial % 2 == 0:
            r = make_ranking(rng, n, depth, alpha=float(rng.uniform(0.5, 3.0)))
        else:
            weights = rng.uniform(0.05, 1.0, size=depth)
            r = make_ranking(rng, n, depth, weights=weights / weights.sum())
        worst = max(worst, abs(h_ap(r) - h_ap_pr_oracle(r)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    record(
        3,
        ok,
        f"h_ap matches the PR-curve oracle on 1000 graded lists "
        f"(max err {worst:.2e}, {elapsed:.2f}s)",
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_04_weighted_level_mix():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        depth = int(rng.integers(2, 4))
        n = int(rng.integers(depth + 1, 41))
        weights = rng.uniform(0.05, 1.0, size=depth)
        weights /= weights.sum()
        r = make_ranking(rng, n, depth, weights=weights, require_deepest=True)
        mix = sum(weights[l - 1] * ap_level(r, l) for l in range(1, depth + 1))
        worst = max(worst, abs(h_ap(r) - mix))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    record(
        4,
        ok,
        f"h_ap matches the weighted per-level AP mix on 500 lists "
        f"(max err {worst:.2e}, {elapsed:.2f}s)",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_05_sorted_normalization():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for trial in range(200):
        depth = int(rng.integers(1, 5))
        n = int(rng.integers(1, 41))
        if trial % 2 == 0:
            base = make_ranking(rng, n, depth, alpha=float(rng.uniform(0.5, 3.0)))
        else:
            weights = rng.uniform(0.05, 1.0, size=depth)
            base = make_ranking(rng, n, depth, weights=weights / weights.sum())
        order = np.argsort(-base.relevance, kind="stable")
        sorted_r = ScoredRanking(
            query_id="q",
            candidate_ids=base.candidate_ids,
            scores=np.arange(n, 0.0, -1.0),
            relevance=base.relevance[order],
            levels=base.levels[order],
        )
        worst = max(worst, abs(h_ap(sorted_r) - 1.0))
    ok = worst <= 1e-12
    record(
        5,
        ok,
        f"relevance-sorted rankings score 1.0 on 200 lists "
        f"(max dev {worst:.2e})",
    )
    assert worst <= 1e-12


def test_criterion_06_surrogate_upper_bound():
    rng = np.random.default_rng(1006)
    min_slack = float("inf")
    for _ in range(1000):
        depth = int(rng.integers(1, 5))
        n = int(rng.integers(2, 31))
        r = make_ranking(rng, n, depth, alpha=float(rng.uniform(0.5, 3.0)))
        slack = hap_surrogate(r.scores, r.relevance).value - (1.0 - h_ap(r))
        min_slack = min(min_slack, slack)
    ok = min_slack >= -1e-12
    record(
        6,
        ok,
        f"surrogate upper-bounds 1 - h_ap on 1000 lists "
        f"(min slack {min_slack:.2e})",
    )
    assert min_slack >= -1e-12


def test_criterion_07_gradient_checks():
    start = time.perf_counter()
    results = run_checks(
        ["surrogate", "clustering", "cosine"],
        trials=100,
        eps=1e-5,
        tol=1e-4,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    worst = max(res.max_rel_err for res in results)
    ok = all(res.passed for res in results) and elapsed < 30.0
    record(
        7,
        ok,
        f"finite differences confirm surrogate/clustering/cosine gradients, "
        f"100 trials each (max rel err {worst:.2e}, {elapsed:.2f}s)",
    )
    for res in results:
        assert res.passed, res.line()
    assert elapsed < 30.0


# Pinned directional experiment shared by criteria 8-10: one seeded
# synthetic taxonomy, four training runs differing only in relevance
# profile and the clustering weight. The margins below are directional
# effects of the objective, not statistical estimates, so the dataset
# seed, training seed and capacity are fixed; the 6-dim linear bottleneck
# is what forces the objectives to trade fine accuracy against coarse
# structure.
PINNED_EPOCHS = 12


@pytest.fixture(scope="module")
def training_runs():
    ds = generate(
        SynthSpec(branching=(4, 4, 4), instances_per_leaf=10, dim=32, seed=0)
    )

    def run(profile: RelevanceProfile, lam: float):
        config = TrainerConfig(
            model_kind="linear",
            dim=6,
            optimizer_kind="adam",
            lr0=0.01,
            epochs=PINNED_EPOCHS,
            batch_size=32,
            m_per_class=4,
            seed=0,
            lam=lam,
            profile=profile,
            eval_every=1000,
        )
        return fit(ds, config).report

    start = time.perf_counter()
    runs = {
        "hier": run(RelevanceProfile.alpha(1.0), 0.1),
        "fine": run(RelevanceProfile.fine_only(3), 0.0),
        "rank_only": run(RelevanceProfile.alpha(1.0), 0.0),
        "steep": run(RelevanceProfile.alpha(3.0), 0.1),
    }
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_08_hierarchy_beats_fine_only(training_runs):
    coarse_gap = training_runs["hier"].mean("ap_level_1") - training_runs["fine"].mean("ap_level_1")
    hap_gap = training_runs["hier"].mean("h_ap") - training_runs["fine"].mean("h_ap")
    elapsed = training_runs["elapsed"]
    ok = coarse_gap >= 0.05 and hap_gap >= 0.02 and elapsed < 600.0
    record(
        8,
        ok,
        f"hierarchy-aware training beats the fine-only baseline "
        f"(coarse AP {coarse_gap:+.3f}, h_ap {hap_gap:+.3f}, "
        f"4 runs in {elapsed:.0f}s)",
    )
    assert coarse_gap >= 0.05
    assert hap_gap >= 0.02
    assert elapsed < 600.0


def test_criterion_09_clustering_term_helps(training_runs):
    gap = training_runs["hier"].mean("h_ap") - training_runs["rank_only"].mean("h_ap")
    ok = gap >= 0.0
    record(9, ok, f"clustering weight 0.1 >= weight 0 on final h_ap ({gap:+.4f})")
    assert gap >= 0.0


def test_criterion_10_steeper_decay_helps_fine(training_runs):
    gap = training_runs["steep"].mean("ap_level_3") - training_runs["hier"].mean("ap_level_3")
    ok = gap >= 0.0
    record(10, ok, f"alpha 3 >= alpha 1 on fine-level holdout AP ({gap:+.4f})")
    assert gap >= 0.0


def test_criterion_11_train_determinism(tmp_path):
    data = tmp_path / "data"
    assert main([
        "synth", "--out", str(data), "--branching", "2,3",
        "--per-leaf", "6", "--dim", "5", "--seed", "1",
    ]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": {"kind": "linear", "dim": 4},
        "optimizer": {"kind": "adam"},
        "lr0": 0.01,
        "epochs": 3,
        "batch_size": 8,
        "m_per_class": 4,
        "seed": 7,
        "objective": {"lambda": 0.1},
    }))
    histories = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "train", "--data", str(data), "--config", str(config_path),
            "--out", str(out), "--quiet",
        ]) == 0
        histories.append((out / HISTORY_FILE).read_bytes())
    ok = histories[0] == histories[1] and len(histories[0]) > 0
    record(11, ok, "identical config and seed give byte-identical history files")
    assert histories[0] == histories[1]
    assert len(histories[0]) > 0
