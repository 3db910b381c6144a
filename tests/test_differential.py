"""Differential tests: every exact metric kernel against its plain-loop oracle.

Lists are drawn with heavy ties (at most three distinct scores), shuffled
ids so that tie-breaking by id matters, and the degenerate shapes: one
candidate, every score tied, every candidate positive.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    alpha_relevance,
    oracle_ap_level,
    oracle_asi,
    oracle_h_ap,
    oracle_list_order,
    oracle_ndcg,
    oracle_recall_at_k,
)
from hirank.metrics import (
    ScoredRanking,
    ap_level,
    asi,
    evaluate_dataset,
    h_ap,
    ndcg,
    recall_at_k,
)

DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SHAPES = ("ties", "single", "all_tied", "all_positive")


@st.composite
def rankings(draw, arbitrary_relevance: bool = False) -> ScoredRanking:
    shape = draw(st.sampled_from(SHAPES))
    depth = draw(st.integers(1, 3))
    n = 1 if shape == "single" else draw(st.integers(2, 30))
    low = 1 if shape == "all_positive" else 0
    levels = np.array(draw(st.lists(st.integers(low, depth), min_size=n, max_size=n)))
    if not np.any(levels > 0):
        levels[draw(st.integers(0, n - 1))] = draw(st.integers(1, depth))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3, unique=True))
    if shape == "all_tied":
        values = values[:1]
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    ids = tuple(f"c{i:02d}" for i in draw(st.permutations(range(n))))
    if arbitrary_relevance:
        rel = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
        rel[levels == 0] = 0.0
    else:
        rel = alpha_relevance(levels, depth, draw(st.sampled_from([0.5, 1.0, 3.0])))
    return ScoredRanking("q", ids, scores, rel, levels)


@DIFFERENTIAL
@given(rankings())
def test_every_kernel_matches_its_oracle(r):
    assert h_ap(r) == pytest.approx(oracle_h_ap(r.scores, r.relevance), abs=1e-12)
    assert ndcg(r) == pytest.approx(oracle_ndcg(r.scores, r.levels), abs=1e-12)
    assert asi(r) == pytest.approx(oracle_asi(r.scores, r.candidate_ids, r.levels), abs=1e-12)
    assert r.sorted_order() == oracle_list_order(r.scores, r.candidate_ids)
    for level in range(1, int(r.levels.max()) + 1):
        assert ap_level(r, level) == pytest.approx(
            oracle_ap_level(r.scores, r.levels, level), abs=1e-12
        )
        for k in range(1, len(r) + 2):
            assert recall_at_k(r, k, level) == oracle_recall_at_k(
                r.scores, r.candidate_ids, r.levels, k, level
            )


@DIFFERENTIAL
@given(rankings(arbitrary_relevance=True))
def test_h_ap_matches_oracle_on_arbitrary_relevance(r):
    assert h_ap(r) == pytest.approx(oracle_h_ap(r.scores, r.relevance), abs=1e-12)


@settings(DIFFERENTIAL, max_examples=50)
@given(st.lists(rankings(), min_size=1, max_size=4))
def test_dataset_rows_equal_standalone_kernels(batch):
    depth = max(int(r.levels.max()) for r in batch)
    queries = [ScoredRanking(f"q{i}", r.candidate_ids, r.scores, r.relevance, r.levels)
               for i, r in enumerate(batch)]
    report = evaluate_dataset(queries, ks=(1, 3), depth=depth)
    for r in queries:
        row = report.per_query[r.query_id]
        assert row["h_ap"] == h_ap(r)
        assert row["asi"] == asi(r)
        assert row["ndcg"] == ndcg(r)
