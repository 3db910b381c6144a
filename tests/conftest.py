"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately written as plain loops over the metric
definitions, sharing no code with the library beyond its input checks, so
that agreement between the two is evidence rather than tautology.
`sorted_order` is the one helper that reads the library: it gives the
library's list order, for the tests that hold it to `oracle_list_order`.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from hirank import metrics
from hirank.errors import IndexOutOfRangeError
from hirank.metrics import ScoredRanking, _require_positives

# one pass/fail line per acceptance criterion, printed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# --- random instance generators ---------------------------------------------------


def distinct_scores(rng: np.random.Generator, n: int) -> np.ndarray:
    """Scores with no ties, in random order."""
    while True:
        scores = rng.uniform(-1.0, 1.0, size=n)
        if len(np.unique(scores)) == n:
            return scores


def random_levels(
    rng: np.random.Generator, n: int, depth: int, require_deepest: bool = False
) -> np.ndarray:
    """Random levels in [0, depth] with at least one positive."""
    while True:
        levels = rng.integers(0, depth + 1, size=n)
        if require_deepest:
            if np.any(levels == depth):
                return levels
        elif np.any(levels > 0):
            return levels


def alpha_relevance(levels: np.ndarray, depth: int, alpha: float = 1.0) -> np.ndarray:
    """Reference alpha-profile relevance, computed independently."""
    rel = np.zeros(len(levels), dtype=np.float64)
    for l in range(1, depth + 1):
        members = levels == l
        count = int(members.sum())
        if count:
            rel[members] = (l / depth) ** alpha / count
    return rel


def weighted_relevance(levels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reference weighted-profile relevance, computed independently."""
    depth = len(weights)
    rel = np.zeros(len(levels), dtype=np.float64)
    for i, l in enumerate(levels):
        acc = 0.0
        for p in range(1, l + 1):
            acc += weights[p - 1] / int((levels >= p).sum())
        rel[i] = acc
    return rel


def oracle_ancestor_level(path_a, path_b) -> int:
    """Length of the longest common prefix of two label paths."""
    level = 0
    for a, b in zip(path_a, path_b):
        if a != b:
            break
        level += 1
    return level


def oracle_relevance_rows(levels: np.ndarray, profile, depth: int) -> np.ndarray:
    """In-batch relevance one query row at a time, skipping empty weighted levels."""
    b = levels.shape[0]
    rel = np.zeros((b, b))
    for q in range(b):
        others = [j for j in range(b) if j != q]
        counts = [sum(1 for j in others if levels[q, j] == l) for l in range(depth + 1)]
        per_level = [0.0] * (depth + 1)
        if profile.kind == "alpha":
            for l in range(1, depth + 1):
                if counts[l]:
                    per_level[l] = (l / depth) ** profile.alpha_value / counts[l]
        elif profile.kind == "weighted-ap":
            acc = 0.0
            for p in range(1, depth + 1):
                upper = sum(counts[p:])
                if upper:
                    acc += profile.weights[p - 1] / upper
                per_level[p] = acc
        else:
            for l in range(1, depth + 1):
                per_level[l] = profile.table.get(l, 0.0)
        for j in others:
            rel[q, j] = per_level[levels[q, j]]
    return rel


def make_ranking(
    rng: np.random.Generator,
    n: int,
    depth: int,
    alpha: float | None = 1.0,
    weights: np.ndarray | None = None,
    require_deepest: bool = False,
) -> ScoredRanking:
    levels = random_levels(rng, n, depth, require_deepest=require_deepest)
    if weights is not None:
        rel = weighted_relevance(levels, weights)
    else:
        rel = alpha_relevance(levels, depth, alpha if alpha is not None else 1.0)
    return ScoredRanking(
        query_id="q",
        candidate_ids=tuple(f"c{i}" for i in range(n)),
        scores=distinct_scores(rng, n),
        relevance=rel,
        levels=levels,
    )


# --- independent metric oracles -----------------------------------------------------


def oracle_binary_ap(scores: np.ndarray, positive: np.ndarray) -> float:
    """Textbook binary AP: mean precision at each positive's position."""
    order = np.argsort(-scores, kind="stable")
    hits = 0
    total = 0.0
    for position, idx in enumerate(order, start=1):
        if positive[idx]:
            hits += 1
            total += hits / position
    return total / positive.sum()


def oracle_h_ap(scores: np.ndarray, rel: np.ndarray) -> float:
    """Direct loop over the graded-AP definition, one pair at a time."""
    n = len(scores)
    total_rel = rel.sum()
    acc = 0.0
    for k in range(n):
        if rel[k] <= 0:
            continue
        hrank = rel[k]
        rank = 1.0
        for j in range(n):
            if j == k or scores[j] <= scores[k]:
                continue
            rank += 1.0
            if rel[j] > 0:
                hrank += min(rel[k], rel[j])
        acc += hrank / rank
    return acc / total_rel


def _strictly_above(scores, k: int) -> list[int]:
    return [j for j in range(len(scores)) if scores[j] > scores[k]]


def oracle_ap_level(scores: np.ndarray, levels: np.ndarray, level: int) -> float:
    """Binary AP with levels >= `level` positive, ranks by strict inequality."""
    total = 0.0
    count = 0
    for k in range(len(scores)):
        if levels[k] < level:
            continue
        above = _strictly_above(scores, k)
        rank = 1 + len(above)
        rank_positive = 1 + sum(1 for j in above if levels[j] >= level)
        total += rank_positive / rank
        count += 1
    return total / count


def oracle_ndcg(scores: np.ndarray, levels: np.ndarray) -> float:
    """DCG with gain 2**level - 1 at 1 + (candidates strictly above), over the ideal."""
    dcg = 0.0
    for k in range(len(scores)):
        if levels[k] > 0:
            rank = 1 + len(_strictly_above(scores, k))
            dcg += (2.0 ** int(levels[k]) - 1.0) / math.log2(1 + rank)
    ideal = 0.0
    for position, level in enumerate(sorted((int(l) for l in levels), reverse=True), start=1):
        ideal += (2.0 ** level - 1.0) / math.log2(1 + position)
    return dcg / ideal


def oracle_list_order(scores: np.ndarray, ids) -> list[int]:
    """Descending score, ties by ascending id."""
    return sorted(range(len(scores)), key=lambda i: (-float(scores[i]), ids[i]))


def sorted_order(r: ScoredRanking) -> list[int]:
    """The library's list order for r, to compare with oracle_list_order."""
    return metrics._rows_of(r).order[0].tolist()


def rank_of(r: ScoredRanking, k: int) -> float:
    """1 + the number of candidates scored strictly above k."""
    if not 0 <= k < len(r):
        raise IndexOutOfRangeError(k)
    return 1.0 + float((r.scores > r.scores[k]).sum())


def h_pr_at_k(r: ScoredRanking, k: int) -> tuple[float, float]:
    """Graded recall and precision at list position k (1-based).

    Recall@k is the relevance mass of the first k items over the total mass;
    precision@k compares each of the first k items against the k-th via
    min(rel(j), rel(k)), normalized by k*rel(k). At a negative k-th item the
    precision is reported as 0.
    """
    _require_positives(r)
    if not 1 <= k <= len(r):
        raise IndexOutOfRangeError(k)
    rel = r.relevance[oracle_list_order(r.scores, r.candidate_ids)]
    recall = float(rel[:k].sum() / rel.sum())
    if rel[k - 1] == 0:
        return recall, 0.0
    precision = float(np.minimum(rel[:k], rel[k - 1]).sum() / (k * rel[k - 1]))
    return recall, precision


def h_ap_pr_oracle(r: ScoredRanking) -> float:
    """Graded AP as the area under the graded precision-recall curve.

    Sums (recall@k - recall@(k-1)) * precision@k over list positions; only
    positive positions contribute a recall increment. Serves as an
    independent cross-check of h_ap.
    """
    _require_positives(r)
    rel = r.relevance[oracle_list_order(r.scores, r.candidate_ids)]
    total = rel.sum()
    area = 0.0
    for k in range(1, len(rel) + 1):
        if rel[k - 1] == 0:
            continue
        increment = rel[k - 1] / total
        precision = np.minimum(rel[:k], rel[k - 1]).sum() / (k * rel[k - 1])
        area += increment * precision
    return float(area)


def oracle_recall_at_k(scores: np.ndarray, ids, levels: np.ndarray, k: int, level: int) -> int:
    """1 if one of the first k list entries sits at `level` or deeper."""
    for i in oracle_list_order(scores, ids)[:k]:
        if levels[i] >= level:
            return 1
    return 0


def oracle_asi(scores: np.ndarray, ids, levels: np.ndarray) -> float:
    """Mean over n <= #positives of |top-n level multiset & ideal top-n| / n."""
    n_pos = sum(1 for l in levels if l > 0)
    pred = [int(levels[i]) for i in oracle_list_order(scores, ids)]
    ideal = sorted(pred, reverse=True)
    total = 0.0
    for n in range(1, n_pos + 1):
        common = Counter(pred[:n]) & Counter(ideal[:n])
        total += sum(common.values()) / n
    return total / n_pos


def per_query(report) -> dict[str, dict[str, float]]:
    """Each included query's defined metrics, keyed h_ap, asi, ndcg, each
    ap_level_l, then each recall_at_k: the form the eval golden file pins."""
    first = ["h_ap", "asi", "ndcg"]
    names = first + [name for name in report.columns if name not in first]
    return {
        q: {name: float(v) for name in names if not math.isnan(v := report.columns[name][i])}
        for i, q in enumerate(report.query_ids)
    }


# --- record reader oracle ---------------------------------------------------------


def oracle_records(text: str, width: int) -> tuple[list[tuple[int, list[str]]], int | None]:
    """Non-blank lines as (line number, fields) up to the first malformed one.

    A plain loop over the shared line rules: split on newlines, strip trailing
    carriage returns, skip blank lines, then a line needs `width` tab-separated
    fields, none empty. Returns the records before the first line that breaks
    that and its number, or every record and None.
    """
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != width or not all(fields):
            return out, lineno
        out.append((lineno, fields))
    return out, None


# --- independent loss oracles ---------------------------------------------------------


def _oracle_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def oracle_step_lower(t: float, params) -> float:
    """Slope gamma below 0, then nu*t + mu capped at 1."""
    if t < 0:
        return params.gamma * t
    return min(params.nu * t + params.mu, 1.0)


def oracle_step_upper(t: float, params) -> float:
    """Sigmoid below 0, sigmoid + 1/2 up to delta, then a slope-rho line."""
    if t < 0:
        return _oracle_sigmoid(t / params.tau)
    if t <= params.delta:
        return _oracle_sigmoid(t / params.tau) + 0.5
    return params.rho * (t - params.delta) + _oracle_sigmoid(params.delta / params.tau) + 0.5


def oracle_hap_surrogate(scores: np.ndarray, rel: np.ndarray, params) -> float:
    """The smooth bound on 1 - h_ap, one positive and one candidate at a time.

    For positive k, a more relevant candidate j adds rel_k * lower(s_j - s_k)
    to the numerator and a less relevant one adds upper(s_j - s_k) to the
    denominator; any other positive j != k adds the exact step [s_j > s_k],
    times rel_j in the numerator and once in the denominator.
    """
    n = len(scores)
    total_rel = sum(float(r) for r in rel)
    acc = 0.0
    for k in range(n):
        if rel[k] <= 0:
            continue
        numer = float(rel[k])
        denom = 1.0
        for j in range(n):
            if j == k:
                continue
            t = float(scores[j] - scores[k])
            step = 1.0 if t > 0 else 0.0
            if rel[j] > rel[k]:
                numer += rel[k] * oracle_step_lower(t, params)
            elif rel[j] < rel[k]:
                denom += oracle_step_upper(t, params)
            if rel[j] > 0 and rel[j] <= rel[k]:
                numer += rel[j] * step
            if rel[j] >= rel[k]:
                denom += step
        acc += numer / denom
    return 1.0 - acc / total_rel


def oracle_slope_lower(t: float, params) -> float:
    """Derivative of oracle_step_lower away from its kinks."""
    if t < 0:
        return params.gamma
    return params.nu if params.nu * t + params.mu < 1.0 else 0.0


def oracle_slope_upper(t: float, params) -> float:
    """Derivative of oracle_step_upper away from its kinks."""
    if t > params.delta:
        return params.rho
    sig = _oracle_sigmoid(t / params.tau)
    return sig * (1.0 - sig) / params.tau


def oracle_hap_surrogate_grad(scores: np.ndarray, rel: np.ndarray, params) -> np.ndarray:
    """d(oracle_hap_surrogate)/d(scores), one positive and one candidate at a time.

    Positive k's term is numer_k / denom_k. A more relevant candidate j moves
    numer_k by rel_k * lower'(s_j - s_k) per unit of s_j, a less relevant one
    moves denom_k by upper'(s_j - s_k); s_k itself gets the negated sums.
    The exact steps are flat away from ties and add nothing.
    """
    n = len(scores)
    total_rel = sum(float(r) for r in rel)
    grad = np.zeros(n)
    for k in range(n):
        if rel[k] <= 0:
            continue
        numer = float(rel[k])
        denom = 1.0
        d_numer = np.zeros(n)
        d_denom = np.zeros(n)
        for j in range(n):
            if j == k:
                continue
            t = float(scores[j] - scores[k])
            step = 1.0 if t > 0 else 0.0
            if rel[j] > rel[k]:
                numer += rel[k] * oracle_step_lower(t, params)
                d_numer[j] += rel[k] * oracle_slope_lower(t, params)
                d_numer[k] -= rel[k] * oracle_slope_lower(t, params)
            elif rel[j] < rel[k]:
                denom += oracle_step_upper(t, params)
                d_denom[j] += oracle_slope_upper(t, params)
                d_denom[k] -= oracle_slope_upper(t, params)
            if rel[j] > 0 and rel[j] <= rel[k]:
                numer += rel[j] * step
            if rel[j] >= rel[k]:
                denom += step
        for j in range(n):
            grad[j] -= (d_numer[j] * denom - numer * d_denom[j]) / (denom * denom * total_rel)
    return grad


def oracle_rank_loss(embeddings: np.ndarray, relevance: np.ndarray, params):
    """combined_loss at lam = 0 as a loop over queries: (value, d_embedding, skipped).

    Each query ranks the other rows by cosine score; a query without an
    in-batch positive is skipped and counted, the rest are averaged.
    """
    b = len(embeddings)
    norms = np.sqrt((embeddings * embeddings).sum(axis=1, keepdims=True))
    unit = embeddings / norms
    scores = unit @ unit.T
    d_scores = np.zeros((b, b))
    value = 0.0
    included = 0
    for q in range(b):
        others = [j for j in range(b) if j != q]
        rel = relevance[q, others]
        if rel.sum() <= 0:
            continue
        value += oracle_hap_surrogate(scores[q, others], rel, params)
        d_scores[q, others] += oracle_hap_surrogate_grad(scores[q, others], rel, params)
        included += 1
    if included:
        value /= included
        d_scores /= included
    d_unit = (d_scores + d_scores.T) @ unit
    d_embedding = (d_unit - (d_unit * unit).sum(axis=1, keepdims=True) * unit) / norms
    return value, d_embedding, b - included


def oracle_clustering(embeddings: np.ndarray, labels, vectors: np.ndarray, sigma: float):
    """Mean proxy softmax cross-entropy, one row at a time: (value, d_embedding, d_proxies)."""
    b = len(labels)
    value = 0.0
    d_embedding = np.zeros_like(embeddings)
    d_proxies = np.zeros_like(vectors)
    for i in range(b):
        v, y = embeddings[i], int(labels[i])
        logits = vectors @ v / sigma
        logits -= logits.max()
        exp = np.exp(logits)
        q = exp / exp.sum()
        value += float(np.log(exp.sum()) - logits[y])
        d_embedding[i] = (vectors.T @ q - vectors[y]) / sigma
        d_proxies += np.outer(q, v) / sigma
        d_proxies[y] -= v / sigma
    return value / b, d_embedding / b, d_proxies / b


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# --- shared hand-built fixture -------------------------------------------------------

FIXTURE_LEVELS = np.array([2, 3, 0, 1])  # in descending score order
FIXTURE_SCORES = np.array([4.0, 3.0, 2.0, 1.0])
FIXTURE_REL = np.array([2 / 3, 1.0, 0.0, 1 / 3])


@pytest.fixture
def fixture_875() -> ScoredRanking:
    """Depth-3, one candidate per level: h_ap lands on 21/24 = 0.875."""
    return ScoredRanking(
        query_id="q",
        candidate_ids=("c2", "c3", "c0", "c1"),
        scores=FIXTURE_SCORES,
        relevance=FIXTURE_REL,
        levels=FIXTURE_LEVELS,
    )
