"""Plain implementations of the metric definitions in the README.

These share no code with hirank: the benchmark checks the CLI's reports
against them. Ranks use strict score inequality, as the README defines
`rank(k)`, so tied scores count for neither side.
"""

from __future__ import annotations

import math

import numpy as np

# positives are compared against the full list in blocks of this many rows,
# which bounds the (rows x candidates) temporaries on long lists
BLOCK = 256


def common_level(path_a, path_b) -> int:
    """Number of leading label components two paths share."""
    level = 0
    for a, b in zip(path_a, path_b):
        if a != b:
            break
        level += 1
    return level


def alpha_relevance(levels: np.ndarray, depth: int, alpha: float) -> np.ndarray:
    """Level l carries (l/L)**alpha, shared equally by its candidates."""
    rel = np.zeros(len(levels))
    for l in range(1, depth + 1):
        members = levels == l
        if members.any():
            rel[members] = (l / depth) ** alpha / members.sum()
    return rel


def _above_blocks(scores: np.ndarray, rows: np.ndarray):
    """Yield (row indices, [i, j] = scores[j] > scores[row i]) in blocks."""
    for lo in range(0, len(rows), BLOCK):
        block = rows[lo : lo + BLOCK]
        yield block, scores[None, :] > scores[block, None]


def h_ap(scores: np.ndarray, rel: np.ndarray) -> float:
    """Sum over positives of h_rank(k) / rank(k), over the total relevance."""
    pos = rel > 0
    total = 0.0
    for block, above in _above_blocks(scores, np.flatnonzero(pos)):
        rank = 1.0 + above.sum(axis=1)
        shared = np.minimum(rel[block, None], rel[None, :]) * (above & pos[None, :])
        total += ((rel[block] + shared.sum(axis=1)) / rank).sum()
    return total / rel[pos].sum()


def ap_level(scores: np.ndarray, levels: np.ndarray, level: int) -> float:
    """Binary average precision with levels >= `level` as the positives."""
    pos = levels >= level
    total = 0.0
    for _, above in _above_blocks(scores, np.flatnonzero(pos)):
        total += ((1.0 + (above & pos[None, :]).sum(axis=1)) / (1.0 + above.sum(axis=1))).sum()
    return total / pos.sum()


def ndcg(scores: np.ndarray, levels: np.ndarray) -> float:
    """DCG with gain 2**level - 1 at rank(k), over the ideal DCG."""
    dcg = 0.0
    for block, above in _above_blocks(scores, np.flatnonzero(levels > 0)):
        dcg += ((2.0 ** levels[block] - 1.0) / np.log2(2.0 + above.sum(axis=1))).sum()
    ideal_gains = 2.0 ** np.sort(levels)[::-1] - 1.0
    ideal = (ideal_gains / np.log2(1.0 + np.arange(1, len(levels) + 1))).sum()
    return dcg / ideal


def query_metrics(scores: np.ndarray, levels: np.ndarray, rel: np.ndarray, depth: int) -> dict:
    """The reference values of one query, keyed as in the CLI report."""
    row = {"h_ap": h_ap(scores, rel), "ndcg": ndcg(scores, levels)}
    for l in range(1, depth + 1):
        if (levels >= l).any():
            row[f"ap_level_{l}"] = ap_level(scores, levels, l)
    return row


def mean_metrics(rows: list[dict]) -> dict:
    """Mean of each key over the queries that define it."""
    keys = sorted({k for row in rows for k in row})
    return {k: math.fsum(row[k] for row in rows if k in row) / sum(k in row for row in rows) for k in keys}
