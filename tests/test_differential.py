"""Differential tests: every exact metric kernel against its plain-loop oracle.

Lists are drawn with heavy ties (at most three distinct scores), shuffled
ids so that tie-breaking by id matters, and the degenerate shapes: one
candidate, every score tied, every candidate positive. `evaluate_dataset`
is checked per query against the same oracles on lists of mixed lengths in
one call, some without a positive and some with arbitrary relevance, in
chunks from one row up; the trainer's holdout report against
`evaluate_dataset` over the same lists built by hand.

The vectorized ancestor levels and relevance-profile tables are checked the
same way, for exact equality: levels on identical paths, depth 1 and paths
sharing no root, and `ancestor_levels` on scalar, flat and (b, 1) x (1, c)
row indices over labels repeated under different parents; profile tables
on batches with an empty level and on queries without a single in-batch
positive.

The training losses are checked against plain loops too: the H-AP surrogate
on tied lists with negatives, one candidate, all-equal and arbitrary
relevance; its score gradient, and the batched rank loss with its embedding
gradient against one query at a time, also on many distinct relevance
values, score gaps in the linear tail and the saturated sigmoid, queries
without a positive, and chunk sizes down to one positive per chunk, with
every floating-point warning raised as an error, and its order among tied
candidates bit for bit against every sort made stable; the surrogate again
with candidates at the edges of its smooth steps' ranges and 1 ulp either side;
the rank loss again on a batch of 64 over a depth-3 taxonomy; the batch
clustering loss against one softmax per row, for a batch of one, repeated
labels and a batch from a single class.

The line reader `records` and the four text parsers built on it are checked
against a plain line loop on generated texts with blank lines, CRLF and lone
trailing CR line ends, empty fields, a field too many or too few, repeated
ids and non-ASCII ids: the records accepted, the exception class and the
line it names must match. A file's line-aligned blocks (`dataset.TextFile`),
joined, must equal its text-mode read, or fail at the same byte, for random
bytes with CR, LF, multi-byte and invalid sequences at reads of 1-64 bytes.
The blocked scores reader is checked the same way
at blocks of 1 and 7 characters and its default, shorter and longer than a
line, on texts that also hold ids the taxonomy lacks, an id with a carriage
return inside, bad scores and scores that are not finite.
"""

import math
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    alpha_relevance,
    oracle_clustering,
    oracle_hap_surrogate,
    oracle_hap_surrogate_grad,
    oracle_rank_loss,
    oracle_ancestor_level,
    oracle_ap_level,
    oracle_asi,
    oracle_h_ap,
    oracle_list_order,
    oracle_ndcg,
    oracle_recall_at_k,
    oracle_records,
    oracle_relevance_rows,
    per_query,
    sorted_order,
    weighted_relevance,
)
from hirank import dataset, losses, metrics, taxonomy
from hirank.errors import (
    AllQueriesEmptyError,
    DuplicateInstanceError,
    EmptyInputError,
    EmptyLevelDivisionError,
    MalformedRecordError,
    TooFewLeavesError,
    UnknownInstanceError,
)
from hirank.losses import (
    ProxyBank,
    SmoothHeavisideParams,
    clustering_loss,
    combined_loss,
    cosine_matrix,
    hap_surrogate,
    heaviside_upper,
)
from hirank.metrics import (
    ScoredRanking,
    ap_level,
    asi,
    evaluate_dataset,
    h_ap,
    ndcg,
    read_scores,
    recall_at_k,
)
from hirank.taxonomy import (
    RelevanceProfile,
    ancestor_levels,
    assign_relevance,
    parse_taxonomy,
    path_codes,
    records,
)
from hirank.dataset import RetrievalDataset, parse_features, parse_split
from hirank.synthgen import SynthSpec, generate
from hirank.trainer import (
    TrainerConfig,
    evaluate_state,
    init_state,
    pairwise_relevance,
)

DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SHAPES = ("ties", "single", "all_tied", "all_positive")


@st.composite
def rankings(draw, arbitrary_relevance: bool = False, n: int | None = None) -> ScoredRanking:
    shape = draw(st.sampled_from(SHAPES))
    depth = draw(st.integers(1, 3))
    if n is None:
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
    assert sorted_order(r) == oracle_list_order(r.scores, r.candidate_ids)
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
        row = per_query(report)[r.query_id]
        assert row["h_ap"] == h_ap(r)
        assert row["asi"] == asi(r)
        assert row["ndcg"] == ndcg(r)


@st.composite
def ranking_sets(draw) -> list[ScoredRanking]:
    """1-8 lists of one or two lengths (down to one candidate), tied scores,
    some with arbitrary relevance and some without a positive."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    queries = []
    for i in range(draw(st.integers(1, 8))):
        r = draw(rankings(draw(st.booleans()), n=draw(st.sampled_from(lengths))))
        rel, levels = r.relevance, r.levels
        if draw(st.integers(0, 3)) == 0:
            rel, levels = np.zeros(len(r)), np.zeros(len(r), dtype=np.int64)
        queries.append(ScoredRanking(f"q{i}", r.candidate_ids, r.scores, rel, levels))
    return queries


@settings(DIFFERENTIAL, max_examples=150)
@given(ranking_sets(), st.sampled_from([None, 3]), st.sampled_from([1, 60, metrics._CHUNK]))
def test_dataset_rows_match_the_oracles(queries, depth, chunk):
    ks = (1, 2, 40)
    with mock.patch.object(metrics, "_CHUNK", chunk):
        if not any(np.any(r.levels > 0) for r in queries):
            with pytest.raises(AllQueriesEmptyError):
                evaluate_dataset(queries, ks=ks, depth=depth)
            return
        report = evaluate_dataset(queries, ks=ks, depth=depth)
    depth = depth or max(int(r.levels.max()) for r in queries)
    included = [r for r in queries if np.any(r.levels > 0)]
    assert (report.queries, report.excluded) == (len(included), len(queries) - len(included))
    assert list(per_query(report)) == [r.query_id for r in included]
    for r in included:
        s, ids, levels = r.scores, r.candidate_ids, r.levels
        expected = {
            "h_ap": oracle_h_ap(s, r.relevance),
            "asi": oracle_asi(s, ids, levels),
            "ndcg": oracle_ndcg(s, levels),
            **{f"ap_level_{l}": oracle_ap_level(s, levels, l)
               for l in range(1, depth + 1) if np.any(levels >= l)},
        }
        if np.any(levels >= depth):
            expected.update({f"recall_at_{k}": oracle_recall_at_k(s, ids, levels, k, depth)
                             for k in ks})
        row = per_query(report)[r.query_id]
        assert sorted(row) == sorted(expected)
        for key, value in expected.items():
            assert row[key] == pytest.approx(value, abs=1e-12), key
        assert sorted_order(r) == oracle_list_order(s, ids)
    rows = list(per_query(report).values())
    assert report.mean("h_ap") == pytest.approx(np.mean([row["h_ap"] for row in rows]), abs=1e-12)


@settings(DIFFERENTIAL, max_examples=150)
@given(ranking_sets(), st.sampled_from([None, 1, 3]), st.sampled_from([1, 60, metrics._CHUNK]))
def test_report_columns_are_nan_exactly_where_a_metric_is_undefined(queries, depth, chunk):
    included = [r for r in queries if np.any(r.levels > 0)]
    assume(included)
    with mock.patch.object(metrics, "_CHUNK", chunk):
        report = evaluate_dataset(queries, ks=(40, 1, 2, 1), depth=depth)
    depth = depth or max(int(r.levels.max()) for r in queries)
    assert list(report.columns) == [
        "h_ap", *(f"ap_level_{l}" for l in range(1, depth + 1)), "asi", "ndcg",
        "recall_at_1", "recall_at_2", "recall_at_40",
    ]
    assert report.query_ids == [r.query_id for r in included]
    assert report.excluded == len(queries) - len(included)
    deepest = np.array([int(r.levels.max()) for r in included])
    for name, column in report.columns.items():
        if name.startswith("ap_level_"):
            undefined = deepest < int(name.removeprefix("ap_level_"))
        elif name.startswith("recall_at_"):
            undefined = deepest < depth
        else:
            undefined = np.zeros(len(included), dtype=bool)
        assert np.array_equal(np.isnan(column), undefined), name
        defined = [float(v) for v in column if not math.isnan(v)]
        mean = report.mean(name)
        assert mean == float(np.mean(defined)) if defined else math.isnan(mean), name


def test_holdout_report_equals_evaluate_dataset_over_hand_built_lists():
    synth = generate(SynthSpec(branching=(2, 3), instances_per_leaf=6, seed=4, holdout_fraction=0.5))
    rng = np.random.default_rng(4)
    # ids out of order, and three distinct feature rows shared across
    # classes, so that tied scores break by id between levels
    order = rng.permutation(len(synth.ids))
    features = np.eye(3)[rng.integers(0, 3, size=len(order))]
    ids = tuple(synth.ids[i] for i in order)
    ds = RetrievalDataset(synth.taxonomy, ids, features, synth.holdout_classes)
    config = TrainerConfig(dim=4, batch_size=8, m_per_class=4, recall_ks=(1, 3))
    state = init_state(ds, config)
    rows, depth = state.eval_rows, ds.taxonomy.depth
    scores, _, _ = cosine_matrix(state.model.embed(rows))
    paths = [ds.taxonomy.path(ds.ids[r]) for r in rows]
    lists = []
    for q in range(len(rows)):
        others = [j for j in range(len(rows)) if j != q]
        levels = np.array([oracle_ancestor_level(paths[q], paths[j]) for j in others])
        lists.append(ScoredRanking(
            ds.ids[rows[q]], tuple(ds.ids[rows[j]] for j in others),
            scores[q, others], alpha_relevance(levels, depth), levels,
        ))
    expected = evaluate_dataset(lists, ks=config.recall_ks, depth=depth)
    report = evaluate_state(state, ds)
    assert report.to_json_dict() == expected.to_json_dict()
    assert per_query(report) == per_query(expected)


# --- ancestor levels ------------------------------------------------------------------


@st.composite
def label_paths(draw) -> tuple[int, list[tuple[str, ...]]]:
    """2-12 paths over a two-letter alphabet, so that prefixes collide often."""
    depth = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(("mixed", "identical", "no_shared_root")))
    path = st.lists(st.sampled_from("ab"), min_size=depth, max_size=depth).map(tuple)
    if shape == "identical":
        return depth, [draw(path)] * n
    paths = [draw(path) for _ in range(n)]
    if shape == "no_shared_root":
        paths = [(f"r{i}",) + p[1:] for i, p in enumerate(paths)]
    return depth, paths


@DIFFERENTIAL
@given(label_paths())
def test_vectorized_levels_match_the_oracle(case):
    depth, paths = case
    expect = np.array([[oracle_ancestor_level(a, b) for b in paths] for a in paths])
    rows = np.arange(len(paths))
    assert np.array_equal(ancestor_levels(path_codes(paths, depth), rows[:, None], rows), expect)
    # a valid tree: every node named by its full prefix, plus one unrelated leaf
    named = [tuple("".join(p[: l + 1]) for l in range(depth)) for p in paths]
    named.append(tuple("z" * (l + 1) for l in range(depth)))
    tax = parse_taxonomy("".join(f"i{i}\t{'/'.join(p)}\n" for i, p in enumerate(named)))
    # every path queries every other, the queries interleaved
    n = len(paths)
    pairs = [(q, c) for c in range(n) for q in range(n) if q != c]
    table = read_scores("".join(f"i{q}\ti{c}\t0\n" for q, c in pairs), tax)
    ids = list(tax.row_of)
    queries = [int(table.query_ids[q][1:]) for q in table.query]
    candidates = [int(ids[c][1:]) for c in table.candidate]
    assert np.array_equal(table.levels, expect[queries, candidates])


@st.composite
def level_lookups(draw):
    """A code table of 1-8 paths of depth 1-4, and two row indices of one shape:
    scalars, (n,) arrays, or (b, 1) against (1, c). Labels come from "ab" at
    every level, so a label repeats under different parents, and two paths can
    share a deeper label without sharing the levels above it."""
    depth = draw(st.integers(1, 4))
    path = st.lists(st.sampled_from("ab"), min_size=depth, max_size=depth).map(tuple)
    paths = draw(st.lists(path, min_size=1, max_size=8))
    row = st.integers(0, len(paths) - 1)
    shape = draw(st.sampled_from(("scalar", "flat", "grid")))
    if shape == "scalar":
        return paths, draw(row), draw(row)
    as_rows = partial(np.array, dtype=np.int64)
    rows = st.lists(row, min_size=0 if shape == "flat" else 1, max_size=10).map(as_rows)
    a = draw(rows)
    if shape == "flat":
        return paths, a, draw(st.lists(row, min_size=len(a), max_size=len(a)).map(as_rows))
    return paths, a[:, None], draw(rows)[None, :]


@DIFFERENTIAL
@given(level_lookups())
def test_ancestor_levels_match_the_oracle(case):
    paths, a, b = case
    levels = ancestor_levels(path_codes(paths, len(paths[0])), a, b)
    expect = np.vectorize(
        lambda i, j: oracle_ancestor_level(paths[i], paths[j]), otypes=[np.int64]
    )(a, b)
    assert levels.dtype == np.int64 and levels.shape == expect.shape
    assert np.array_equal(levels, expect)


# --- relevance profiles ---------------------------------------------------------------


@st.composite
def profiles(draw, depth: int) -> RelevanceProfile:
    kind = draw(st.sampled_from(("alpha", "weighted", "explicit")))
    if kind == "alpha":
        return RelevanceProfile.alpha(draw(st.sampled_from([0.5, 0.7, 1.0, 3.0])))
    if kind == "weighted":
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=depth, max_size=depth)))
        return RelevanceProfile.weighted_ap(tuple(w / w.sum()))
    # a table gives some level in 1..depth a positive relevance
    values = st.lists(st.sampled_from([0.0, 0.25, 0.7, 1.0]), min_size=depth, max_size=depth)
    return RelevanceProfile.explicit(dict(enumerate(draw(values.filter(any)), start=1)))


@st.composite
def level_batches(draw) -> tuple[int, np.ndarray, RelevanceProfile]:
    """A b x b in-batch level matrix, with a level left out or a query isolated."""
    depth = draw(st.integers(1, 3))
    b = draw(st.integers(2, 14))
    shape = draw(st.sampled_from(("mixed", "level_missing", "isolated_query")))
    allowed = list(range(depth + 1))
    if shape == "level_missing":
        allowed.remove(draw(st.integers(1, depth)))
    cells = st.lists(st.sampled_from(allowed), min_size=b * b, max_size=b * b)
    levels = np.array(draw(cells)).reshape(b, b)
    if shape == "isolated_query":
        levels[draw(st.integers(0, b - 1))] = 0
    return depth, levels, draw(profiles(depth))


def batch_relevance(levels: np.ndarray, profile: RelevanceProfile, depth: int) -> np.ndarray:
    """`pairwise_relevance`'s relevance over a drawn level matrix, which no
    code table need produce: the diagonal zeroed, one query per row."""
    levels = levels.copy()
    np.fill_diagonal(levels, 0)
    query = np.arange(len(levels))[:, None]
    return assign_relevance(levels, query, profile, depth, skip_empty=True)[0]


@DIFFERENTIAL
@given(level_batches())
def test_relevance_rows_match_the_per_query_loop(case):
    depth, levels, profile = case
    assert np.array_equal(
        batch_relevance(levels, profile, depth), oracle_relevance_rows(levels, profile, depth)
    )


@DIFFERENTIAL
@given(level_batches())
def test_profile_table_matches_the_relevance_oracles(case):
    depth, levels, profile = case
    rel = batch_relevance(levels, profile, depth)
    b = len(levels)
    for q in range(b):
        others = np.arange(b) != q
        lv = levels[q, others]
        if profile.kind == "alpha":
            assert np.array_equal(rel[q, others], alpha_relevance(lv, depth, profile.alpha_value))
        elif profile.kind == "weighted-ap":
            assert np.array_equal(rel[q, others], weighted_relevance(lv, profile.weights))
    # assign_relevance over every query that it can normalize, in one call
    query = np.repeat(np.arange(b), b - 1)
    lv = levels[~np.eye(b, dtype=bool)]
    empty = (profile.kind == "weighted-ap") & ~np.any(lv.reshape(b, b - 1) == depth, axis=1)
    if empty.any():
        with pytest.raises(EmptyLevelDivisionError):
            assign_relevance(lv, query, profile, depth)
    keep = ~empty[query]
    if keep.any():
        numbers = np.cumsum(~empty) - 1  # the kept queries renumbered from 0
        got, got_levels = assign_relevance(lv[keep], numbers[query[keep]], profile, depth)
        expected = rel[~np.eye(b, dtype=bool)][keep]
        assert np.array_equal(got, expected)
        assert np.array_equal(got_levels, np.where(expected > 0, lv[keep], 0))


# --- training losses ------------------------------------------------------------------

SURROGATE_SHAPES = ("levels", "single", "equal", "arbitrary")
HEAVISIDE = (
    SmoothHeavisideParams(),
    SmoothHeavisideParams(gamma=2.0, nu=5.0, mu=0.3, tau=0.1, rho=10.0, delta=0.3),
)


@st.composite
def surrogate_lists(draw) -> tuple[np.ndarray, np.ndarray, SmoothHeavisideParams]:
    """Scores with at most three distinct values and at least one positive."""
    shape = draw(st.sampled_from(SURROGATE_SHAPES))
    n = 1 if shape == "single" else draw(st.integers(2, 30))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3, unique=True))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    if shape == "equal":
        rel = np.full(n, draw(st.sampled_from([0.25, 1.0, 3.0])))
    elif shape == "arbitrary":
        rel = np.array(draw(st.lists(st.sampled_from([0.0, 0.01, 0.5, 7.0]) | st.floats(0.01, 10.0),
                                     min_size=n, max_size=n)))
    else:
        levels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        rel = alpha_relevance(levels, 3)
    if not np.any(rel > 0):
        rel[draw(st.integers(0, n - 1))] = 1.0
    return scores, rel, draw(st.sampled_from(HEAVISIDE))


@DIFFERENTIAL
@given(surrogate_lists())
def test_surrogate_matches_its_oracle(case):
    scores, rel, params = case
    value = hap_surrogate(scores, rel, params).value
    assert value == pytest.approx(oracle_hap_surrogate(scores, rel, params), abs=1e-12)


GRADIENT_SHAPES = ("ties", "single", "equal", "distinct", "wide")


@st.composite
def gradient_lists(draw) -> tuple[np.ndarray, np.ndarray, SmoothHeavisideParams]:
    """Tied scores, one candidate, all-equal relevance, many distinct relevance
    values, and scores spread over [-3, 3]: gaps past delta (the linear tail)
    and below -0.4 (a saturated sigmoid)."""
    shape = draw(st.sampled_from(GRADIENT_SHAPES))
    n = 1 if shape == "single" else draw(st.integers(2, 24))
    # subnormal scores would raise underflow below, which is not what that checks
    spread = 3.0 if shape == "wide" else 1.0
    score = st.floats(-spread, spread, allow_subnormal=False)
    if shape == "ties":
        values = draw(st.lists(score, min_size=1, max_size=3, unique=True))
        scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    else:
        scores = np.array(draw(st.lists(score, min_size=n, max_size=n)))
    if shape == "equal":
        rel = np.full(n, draw(st.sampled_from([0.25, 1.0, 3.0])))
    elif shape == "distinct":
        rel = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n, unique=True)))
        rel[: draw(st.integers(0, n - 1))] = 0.0
    else:
        levels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        rel = alpha_relevance(levels, 3)
    if not np.any(rel > 0):
        rel[draw(st.integers(0, n - 1))] = 1.0
    return scores, rel, draw(st.sampled_from(HEAVISIDE))


def steepest_share(rel: np.ndarray, params: SmoothHeavisideParams) -> float:
    """The largest score gradient one comparison can give: the steepest slope
    of either step times the largest share of the list's total relevance."""
    steepest = max(0.25 / params.tau, params.rho, params.gamma, params.nu)
    return steepest * rel.max() / rel.sum()


def assert_close_to_largest(actual: np.ndarray, expected: np.ndarray, floor: float) -> None:
    """Every entry within 1e-12 of the largest expected entry's magnitude.

    That magnitude counts as at least `floor`: a sigmoid within eps of 0 or
    1 keeps no relative digits, in the oracle's exp form or the library's
    tanh form, so a gradient made only of saturated slopes (1e-15 and less)
    is compared at the scale an unsaturated comparison would have.
    """
    assert actual.shape == expected.shape
    scale = max(np.abs(expected).max(initial=0.0), floor)
    assert np.abs(actual - expected).max(initial=0.0) <= 1e-12 * scale


# chunk sizes that split lists and rows across chunks, down to one positive each
CHUNK_SIZES = (1, 40, 300, losses._CHUNK)
CHUNKS = st.sampled_from(CHUNK_SIZES)


@DIFFERENTIAL
@given(gradient_lists(), CHUNKS)
def test_surrogate_gradient_matches_its_oracle(case, chunk):
    scores, rel, params = case
    with np.errstate(all="raise"), mock.patch.object(losses, "_CHUNK", chunk):
        out = hap_surrogate(scores, rel, params)
    assert out.value == pytest.approx(oracle_hap_surrogate(scores, rel, params), abs=1e-12)
    expected = oracle_hap_surrogate_grad(scores, rel, params)
    assert_close_to_largest(out.d_scores, expected, steepest_share(rel, params))


@pytest.mark.parametrize("chunk", [64, 256])
def test_surrogate_is_permutation_equivariant_among_tied_candidates(chunk):
    """Permuting a row's columns permutes its gradient exactly, also where
    candidates tie in relevance and score, with chunks small enough to put
    tied positives in different chunks; so tied candidates get bitwise equal
    gradients. Relevance values are multiples of 1/8, which makes each row's
    total exact in any order. The value sums the row's terms in column order,
    so a permutation moves it by rounding only."""
    rng = np.random.default_rng(5)
    params = SmoothHeavisideParams()
    for _ in range(60):
        scores = rng.choice(rng.normal(size=3) * 0.05, size=(8, 40))
        rel = rng.choice(np.append(rng.integers(1, 24, size=2) / 8, 0.0), size=(8, 40))
        rel[:, 0] = 1.0
        perm = rng.permuted(np.tile(np.arange(40), (8, 1)), axis=1)
        with mock.patch.object(losses, "_CHUNK", chunk):
            value, d_scores = losses._surrogate_rows(scores, rel, params)
            moved = [np.take_along_axis(a, perm, axis=1) for a in (scores, rel)]
            moved_value, moved_d_scores = losses._surrogate_rows(*moved, params)
        assert np.array_equal(moved_d_scores, np.take_along_axis(d_scores, perm, axis=1))
        assert moved_value == pytest.approx(value, abs=1e-14)
        tied = (scores[:, :, None] == scores[:, None, :]) & (rel[:, :, None] == rel[:, None, :])
        assert np.all((d_scores[:, :, None] == d_scores[:, None, :]) | ~tied)


@st.composite
def window_edge_lists(draw) -> tuple[np.ndarray, np.ndarray, SmoothHeavisideParams]:
    """A positive of relevance 1 and candidates whose scores sit at -40 tau,
    0, (1 - mu) / nu and delta from its score, and 1 ulp either side of each:
    the kernel's cut, the exact step and both kinks. Each candidate is less,
    equally or more relevant, or of relevance 0, so that every edge meets
    both smooth steps."""
    params = draw(st.sampled_from(HEAVISIDE))
    # no score near 0: a gap of 1 ulp there is subnormal and raises underflow
    s_k = draw(st.floats(0.01, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    edges = s_k + np.array([-40.0 * params.tau, 0.0, (1.0 - params.mu) / params.nu, params.delta])
    near = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
    picked = draw(st.lists(st.sampled_from(range(len(near))), min_size=1, max_size=16))
    scores = np.concatenate(([s_k], near[picked]))
    rel = np.array([1.0] + draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                         min_size=len(picked), max_size=len(picked))))
    order = draw(st.permutations(range(len(scores))))
    return scores[order], rel[order], params


@DIFFERENTIAL
@given(window_edge_lists())
def test_surrogate_at_the_window_edges_matches_its_oracle(case):
    scores, rel, params = case
    value = oracle_hap_surrogate(scores, rel, params)
    expected = oracle_hap_surrogate_grad(scores, rel, params)
    for chunk in CHUNK_SIZES:
        with np.errstate(all="raise"), mock.patch.object(losses, "_CHUNK", chunk):
            out = hap_surrogate(scores, rel, params)
        assert out.value == pytest.approx(value, abs=1e-12)
        assert_close_to_largest(out.d_scores, expected, steepest_share(rel, params))


@pytest.mark.parametrize("params", HEAVISIDE)
def test_upper_step_is_left_out_only_where_it_is_exactly_zero(params):
    """One positive, and candidates of relevance 0 from 42 tau to 30 tau
    below it: each candidate's gradient is the upper slope there over the
    squared denominator, to 1e-12 relative, and exactly 0 only where that
    slope is. The oracle cannot see this: a slope within eps of saturation
    (1e-15 and less) keeps no correct digits in its exp form."""
    s_k = 0.5
    scores = np.concatenate(([s_k], s_k + np.linspace(-42.0, -30.0, 60_001) * params.tau))
    rel = np.zeros(len(scores))
    rel[0] = 1.0
    with np.errstate(all="raise"):
        out = hap_surrogate(scores, rel, params)
    value, slope = heaviside_upper(scores[1:] - s_k, params)
    expected = slope / (1.0 + value.sum()) ** 2
    assert np.array_equal(out.d_scores[1:] == 0, expected == 0)
    np.testing.assert_allclose(out.d_scores[1:], expected, rtol=1e-12, atol=0)


@st.composite
def rank_batches(draw) -> tuple[np.ndarray, np.ndarray, SmoothHeavisideParams]:
    """Embedding batches whose queries include ties (repeated rows), all-equal
    and many distinct relevance values, and queries without a positive."""
    b = draw(st.integers(1, 10))
    dim = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    embeddings = rng.standard_normal((b, dim))
    repeats = draw(st.lists(st.integers(0, b - 1), max_size=b))
    if repeats:
        embeddings[repeats] = embeddings[repeats[0]]  # repeated rows tie their scores
    kind = draw(st.sampled_from(("levels", "equal", "distinct")))
    if kind == "levels":
        relevance = rng.integers(0, 4, (b, b)) / 3.0
    elif kind == "equal":
        relevance = np.ones((b, b))
    else:
        relevance = rng.uniform(0.01, 10.0, (b, b))
    relevance[draw(st.lists(st.integers(0, b - 1), max_size=b))] = 0.0
    return embeddings, relevance, draw(st.sampled_from(HEAVISIDE))


@DIFFERENTIAL
@given(rank_batches(), CHUNKS)
def test_batch_rank_loss_matches_the_per_query_loop(case, chunk):
    embeddings, relevance, params = case
    value, d_embedding, skipped = oracle_rank_loss(embeddings, relevance, params)
    labels = np.zeros(len(embeddings), dtype=np.int64)
    bank = ProxyBank(("c0",), np.ones((1, embeddings.shape[1])))
    with np.errstate(all="raise"), mock.patch.object(losses, "_CHUNK", chunk):
        out = combined_loss(embeddings, relevance, labels, bank, lam=0.0, params=params)
    assert out.skipped_queries == skipped
    assert out.value == pytest.approx(value, abs=1e-12)
    ranked = [q for q in range(len(relevance)) if np.delete(relevance[q], q).sum() > 0]
    floor = max((steepest_share(np.delete(relevance[q], q), params) for q in ranked), default=0.0)
    norms = np.linalg.norm(embeddings, axis=1)
    assert_close_to_largest(out.d_embedding, d_embedding, floor / norms.min())


@pytest.mark.parametrize("params", HEAVISIDE)
def test_rank_loss_on_a_large_batch_matches_the_per_query_loop(params):
    """b = 64 over a depth-3 taxonomy under alpha relevance: up to four
    relevance groups per row, many rows per chunk, and repeated rows whose
    scores tie."""
    synth = generate(SynthSpec(branching=(2, 2, 4), instances_per_leaf=4, dim=8,
                               noise=1.0, holdout_fraction=0.0, seed=6))
    rows = np.random.default_rng(6).permutation(len(synth.ids))[:64]
    embeddings = synth.features[rows]
    embeddings[[5, 22, 47]] = embeddings[30]
    depth = synth.taxonomy.depth
    codes = path_codes([synth.taxonomy.path(synth.ids[i]) for i in rows], depth)
    relevance = pairwise_relevance(codes, RelevanceProfile.alpha(1.0), depth)[0]
    value, d_embedding, skipped = oracle_rank_loss(embeddings, relevance, params)
    ranked = [q for q in range(64) if np.delete(relevance[q], q).sum() > 0]
    floor = max(steepest_share(np.delete(relevance[q], q), params) for q in ranked)
    norms = np.linalg.norm(embeddings, axis=1)
    labels = np.zeros(64, dtype=np.int64)
    bank = ProxyBank(("c0",), np.ones((1, embeddings.shape[1])))
    for chunk in (1, 300, losses._CHUNK):
        with np.errstate(all="raise"), mock.patch.object(losses, "_CHUNK", chunk):
            out = combined_loss(embeddings, relevance, labels, bank, lam=0.0, params=params)
        assert out.skipped_queries == skipped
        assert out.value == pytest.approx(value, abs=1e-12)
        assert_close_to_largest(out.d_embedding, d_embedding, floor / norms.min())


@st.composite
def clustering_batches(draw) -> tuple[np.ndarray, np.ndarray, ProxyBank]:
    shape = draw(st.sampled_from(("single", "repeated", "one_class")))
    n_classes = draw(st.integers(1, 6))
    dim = draw(st.integers(2, 8))
    b = 1 if shape == "single" else draw(st.integers(2, 12))
    if shape == "one_class":
        labels = np.full(b, draw(st.integers(0, n_classes - 1)))
    else:
        labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=b, max_size=b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = ProxyBank.random([f"c{i}" for i in range(n_classes)], dim, rng,
                            sigma=draw(st.sampled_from([0.05, 0.3, 1.0])))
    embeddings = rng.standard_normal((b, dim))
    if draw(st.booleans()):
        embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
    return embeddings, labels, bank


@DIFFERENTIAL
@given(clustering_batches())
def test_batch_clustering_matches_the_per_row_loop(case):
    embeddings, labels, bank = case
    value, d_embedding, d_proxies = oracle_clustering(embeddings, labels, bank.vectors, bank.sigma)
    out = clustering_loss(embeddings, labels, bank)
    assert out.d_embedding.shape == d_embedding.shape
    # Each output is a difference of terms of the logits' size, v . p / sigma,
    # so a saturated softmax leaves both forms a rounding error of that size:
    # the tolerance is 1e-12 relative to it.
    v_max, p_max, b = np.abs(embeddings).max(), np.abs(bank.vectors).max(), len(labels)
    assert abs(out.value - value) <= 1e-12 * v_max * p_max / bank.sigma
    assert np.abs(out.d_embedding - d_embedding).max() <= 1e-12 * p_max / (b * bank.sigma)
    assert np.abs(out.d_proxies - d_proxies).max() <= 1e-12 * v_max / (b * bank.sigma)
    if b == 1:
        row = clustering_loss(embeddings[0], int(labels[0]), bank)
        assert row.value == out.value
        assert np.array_equal(row.d_embedding, out.d_embedding[0])
        assert np.array_equal(row.d_proxies, out.d_proxies)


# --- the record reader and the text parsers -------------------------------------------

IDS = ["a", "b", "é", "漢"]
SCORE_TAXONOMY = parse_taxonomy("".join(f"{i}\t{i}\n" for i in ["q", "ß", *IDS, "c\rd"]))
# the scores fields for the blocked reader: a candidate id with a carriage return inside,
# and, per field, the values some faulty lines take instead: ids the taxonomy lacks (one with
# a carriage return inside), bad scores and scores that are not finite
SCORE_VALUES = [["q", "ß"], [*IDS, "c\rd"], ["1.5", "-2", "0"]]
SCORE_EXTRAS = [["zz", "a\rb"], ["zz", "a\rb"], ["x", "1.5.", "nan", "inf", "-inf", "1e999"]]
# per format: the parser, each field's valid values and the key that must not repeat;
# the values never break a parser's own rules, so only the line rules and repeats fail
RECORD_FORMATS = {
    "taxonomy": (parse_taxonomy, [IDS, ["r/x", "r/y", "s/z"]], lambda f: f[0]),
    "features": (parse_features, [IDS, ["1.5", "-2", "2.5e-1"]], lambda f: f[0]),
    "split": (parse_split, [["x", "y", "ü"]], lambda f: f[0]),
    "scores": (lambda text: read_scores(text, SCORE_TAXONOMY),
               [["q", "ß"], IDS, ["1.5", "-2", "0"]], lambda f: (f[0], f[1])),
}


@st.composite
def record_texts(draw, values: list[list[str]], extras: list[list[str]] | None = None) -> str:
    """Lines of tab-separated fields drawn from `values`, with the line faults mixed in;
    given `extras`, some faulty lines are records with one field drawn from it instead."""
    width = len(values)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("record", "record", "record", "blank", "fault")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", "\r"))))
            continue
        if kind == "fault" and extras and draw(st.booleans()):
            fields = [draw(st.sampled_from(v)) for v in values]
            at = draw(st.integers(0, width - 1))
            fields[at] = draw(st.sampled_from(extras[at]))
            lines.append("\t".join(fields))
            continue
        # a fault of 2 * width + 1 fields holds two records and a field between them
        counts = st.integers(max(1, width - 1), width + 1) | st.just(2 * width + 1)
        count = draw(counts) if kind == "fault" else width
        fields = [draw(st.sampled_from(values[min(i % (width + 1), width - 1)]))
                  for i in range(count)]
        if kind == "fault" and draw(st.booleans()):
            fields[draw(st.integers(0, count - 1))] = ""
        lines.append("\t".join(fields))
    text = "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)
    return text[: -1] if text and draw(st.booleans()) else text + draw(st.sampled_from(("", "\r")))


def expected_parse(kind: str, text: str):
    """What a parser returns for `text`, as (records, None), or raises, as (class, line)."""
    _, values, key = RECORD_FORMATS[kind]
    accepted, bad = oracle_records(text, len(values))
    if kind == "scores":
        # a bad score or an id the taxonomy lacks fails at its line, as a malformed line does
        for lineno, (query, candidate, score) in accepted:
            if not re.fullmatch(r"-?\d+(\.\d*)?(e\d+)?|nan|-?inf", score):
                return MalformedRecordError, lineno
            if not {query, candidate} <= SCORE_TAXONOMY.row_of.keys():
                return UnknownInstanceError, lineno
    seen, repeat, late = set(), None, DuplicateInstanceError
    for lineno, fields in accepted:
        # a score that is not finite counts with the repeats, on its line before them
        if kind == "scores" and bad is None and not math.isfinite(float(fields[2])):
            repeat, late = lineno, MalformedRecordError
            break
        if key(fields) in seen:
            repeat = lineno
            break
        seen.add(key(fields))
    # scores look for repeats once every line has parsed; the rest as they go
    if bad is not None and (kind == "scores" or repeat is None):
        return MalformedRecordError, bad
    if repeat is not None:
        return late, repeat
    return [fields for _, fields in accepted], None


@DIFFERENTIAL
@given(st.data(), st.sampled_from(sorted(RECORD_FORMATS)))
def test_records_match_the_oracle(data, kind):
    values = RECORD_FORMATS[kind][1]
    text = data.draw(record_texts(values))
    layout = "<TAB>".join(f"f{i}" for i in range(len(values)))
    accepted, bad = oracle_records(text, len(values))
    got = []
    reader = records(text, layout)
    if bad is None:
        got.extend(reader)
    else:
        with pytest.raises(MalformedRecordError, match=f"^line {bad}: expected '{layout}', got "):
            got.extend(reader)
    assert got == accepted


@DIFFERENTIAL
@given(st.data(), st.sampled_from(sorted(RECORD_FORMATS)))
def test_parsers_read_records_like_the_oracle(data, kind):
    parse, values, _ = RECORD_FORMATS[kind]
    text = data.draw(record_texts(values))
    expected, line = expected_parse(kind, text)
    if line is not None:
        with pytest.raises(expected, match=f"^line {line}: "):
            parse(text)
        return
    rows = expected
    if not rows and kind != "split":
        with pytest.raises(EmptyInputError):
            parse(text)
        return
    if kind == "taxonomy":
        if len({f[1] for f in rows}) < 2:
            with pytest.raises(TooFewLeavesError):
                parse(text)
            return
        assert list(parse(text).entries.items()) == [(i, tuple(p.split("/"))) for i, p in rows]
    elif kind == "features":
        ids, matrix = parse(text)
        assert ids == tuple(f[0] for f in rows)
        assert matrix.tolist() == [[float(f[1])] for f in rows]
    elif kind == "split":
        assert parse(text) == tuple(f[0] for f in rows)
    else:
        table = parse(text)
        ids = list(SCORE_TAXONOMY.row_of)
        queries = list(dict.fromkeys(q for q, _, _ in rows))
        grouped = sorted(rows, key=lambda f: queries.index(f[0]))  # stable: file order inside
        assert table.query_ids == queries
        assert [table.query_ids[q] for q in table.query] == [f[0] for f in grouped]
        assert [ids[c] for c in table.candidate] == [f[1] for f in grouped]
        assert table.score.tolist() == [float(f[2]) for f in grouped]


@DIFFERENTIAL
@given(st.data(), st.sampled_from(sorted(RECORD_FORMATS)), st.sampled_from([1, 7, taxonomy._BLOCK]))
def test_record_blocks_match_the_oracle(data, kind, block):
    values = RECORD_FORMATS[kind][1]
    text = data.draw(record_texts(values))
    accepted, bad = oracle_records(text, len(values))
    rows = []
    with mock.patch.object(taxonomy, "_BLOCK", block):
        blocks = taxonomy._record_blocks([text], len(values))
        if bad is None:
            rows.extend(row for columns in blocks for row in zip(*columns))
        else:
            # the block holding the malformed line fails, and only the lines before it come out
            with pytest.raises(MalformedRecordError):
                rows.extend(row for columns in blocks for row in zip(*columns))
            assert len(rows) <= len(accepted)
    assert [list(row) for row in rows] == [fields for _, fields in accepted][: len(rows)]
    assert bad is not None or len(rows) == len(accepted)


@pytest.mark.parametrize("block", [1, 7, taxonomy._BLOCK])
@pytest.mark.parametrize("kind, line", [
    ("scores", "q\ta\t1\tJUNK\tq\tb\t2"),
    ("taxonomy", "a\tr/x\tJUNK\tb\tr/y"),
    ("split", "x\tJUNK\ty"),
])
def test_record_blocks_reject_two_records_and_a_field_between_on_one_line(kind, line, block):
    width = len(RECORD_FORMATS[kind][1])
    text = f"{line}\n"
    assert oracle_records(text, width) == ([], 1)
    with mock.patch.object(taxonomy, "_BLOCK", block), pytest.raises(MalformedRecordError):
        list(taxonomy._record_blocks([text], width))


FILE_PIECES = [b"a", b"\t", b"\n", b"\r", b"\r\n", "é".encode(), "漢".encode(), b"\xff", b"\xe6\xbc", b"\x80"]


@DIFFERENTIAL
@given(st.lists(st.sampled_from(FILE_PIECES), max_size=40).map(b"".join), st.integers(1, 64))
def test_text_file_blocks_join_to_the_text_mode_read(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("text") / "t.tsv"
    path.write_bytes(data)
    try:
        expected = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        expected = f"{path}: not UTF-8 at byte {exc.start}"
    with mock.patch.object(dataset, "_BLOCK", block):
        try:
            blocks = list(dataset.TextFile(path))
        except MalformedRecordError as exc:
            assert str(exc) == expected
        else:
            assert "".join(blocks) == expected
            assert all(b.endswith("\n") for b in blocks[:-1])


def score_table_rows(table) -> list[list[str]]:
    """A ScoreTable's rows as the fields of their records, grouped as the table is."""
    ids = list(SCORE_TAXONOMY.row_of)
    return [[table.query_ids[q], ids[c], s] for q, c, s in
            zip(table.query.tolist(), table.candidate.tolist(), table.score.tolist())]


@DIFFERENTIAL
@given(st.data(), st.sampled_from([1, 7, taxonomy._BLOCK]))
def test_blocked_scores_reader_matches_the_oracle(data, block):
    text = data.draw(record_texts(SCORE_VALUES, SCORE_EXTRAS))
    expected, line = expected_parse("scores", text)
    with mock.patch.object(taxonomy, "_BLOCK", block):
        if expected is UnknownInstanceError:
            fields = dict(oracle_records(text, 3)[0])[line]
            unknown = next(i for i in fields[:2] if i not in SCORE_TAXONOMY.row_of)
            with pytest.raises(UnknownInstanceError, match=f"^unknown instance id {re.escape(repr(unknown))}$"):
                read_scores(text, SCORE_TAXONOMY)
        elif line is not None:
            with pytest.raises(expected, match=f"^line {line}: "):
                read_scores(text, SCORE_TAXONOMY)
        elif not expected:
            with pytest.raises(EmptyInputError):
                read_scores(text, SCORE_TAXONOMY)
        else:
            queries = list(dict.fromkeys(q for q, _, _ in expected))
            grouped = sorted(expected, key=lambda f: queries.index(f[0]))  # stable: file order inside
            table = read_scores(text, SCORE_TAXONOMY)
            assert table.query_ids == queries
            assert score_table_rows(table) == [[q, c, float(s)] for q, c, s in grouped]
