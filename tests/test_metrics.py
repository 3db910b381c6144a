import json
import math
import tracemalloc
from itertools import permutations
from unittest import mock

import numpy as np
import pytest

from conftest import (
    alpha_relevance,
    distinct_scores,
    h_ap_pr_oracle,
    h_pr_at_k,
    make_ranking,
    oracle_binary_ap,
    oracle_h_ap,
    rank_of,
    sorted_order,
)
from hirank.dataset import TextFile, read_text
from hirank.errors import (
    AllQueriesEmptyError,
    DuplicateInstanceError,
    EmptyInputError,
    IndexOutOfRangeError,
    MalformedRecordError,
    NegativeQueryError,
    NoPositivesError,
    UnknownInstanceError,
)
from hirank.metrics import (
    MetricsReport,
    ScoredRanking,
    ap_level,
    asi,
    evaluate_dataset,
    h_ap,
    h_rank,
    ndcg,
    read_scores,
    recall_at_k,
)
from hirank import taxonomy
from hirank.taxonomy import parse_taxonomy


def binary(scores, labels):
    labels = np.asarray(labels, dtype=np.int64)
    return ScoredRanking(
        query_id="q",
        candidate_ids=tuple(f"c{i}" for i in range(len(scores))),
        scores=np.asarray(scores, dtype=np.float64),
        relevance=labels.astype(np.float64),
        levels=labels,
    )


class TestScoredRanking:
    def test_validation(self):
        with pytest.raises(ValueError):
            binary([], [])
        with pytest.raises(ValueError):
            binary([1.0, float("nan")], [1, 0])
        with pytest.raises(ValueError):
            ScoredRanking("q", ("a",), np.array([1.0]), np.array([-0.5]), np.array([1]))
        with pytest.raises(ValueError):
            # relevance 0 on a positive level breaks the correspondence
            ScoredRanking("q", ("a",), np.array([1.0]), np.array([0.0]), np.array([1]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^relevance must be non-negative and finite$"):
                ScoredRanking("q", ("a", "b", "c"), [3.0, 2.0, 1.0], [1.0, bad, 0.0], [1, 1, 0])

    def test_an_array_of_another_shape_is_rejected(self):
        with pytest.raises(ValueError, match=r"^scores must have shape \(2,\), got \(1,\)$"):
            ScoredRanking("q", ("a", "b"), [1.0], [1.0, 0.0], [1, 0])

    @pytest.mark.parametrize("levels", [[1.5, 1, 0], [-1, 1, 0], [np.nan, 1, 0], [np.inf, 1, 0]])
    def test_levels_must_be_non_negative_integers(self, levels):
        with pytest.raises(ValueError, match="^levels must be non-negative integers$"):
            ScoredRanking("q", ("a", "b", "c"), [3.0, 2.0, 1.0], [1.0, 0.5, 0.0], levels)

    def test_integral_float_levels_are_valid(self):
        r = ScoredRanking("q", ("a", "b", "c"), [3.0, 2.0, 1.0], [1.0, 0.5, 0.0], [2.0, 1.0, 0.0])
        assert asi(r) == 1.0

    def test_sorted_order_breaks_ties_by_id(self):
        r = ScoredRanking(
            "q", ("b", "a", "c"),
            np.array([1.0, 1.0, 2.0]),
            np.array([1.0, 1.0, 1.0]),
            np.array([1, 1, 1]),
        )
        assert [r.candidate_ids[i] for i in sorted_order(r)] == ["c", "a", "b"]

    def test_sorted_order_breaks_ties_by_the_exact_id(self):
        # "a" sorts before "a\x00"; numpy string arrays drop the NUL and tie them
        r = ScoredRanking("q", ("a\x00", "a"), [1, 1], [1, 0], [1, 0])
        assert sorted_order(r) == [1, 0]


class TestRankOf:
    def test_top_and_bottom(self):
        r = binary([3.0, 2.0, 1.0], [1, 1, 1])
        assert rank_of(r, 0) == 1.0
        assert rank_of(r, 2) == 3.0

    def test_tie_counts_no_inversion(self):
        r = binary([3.0, 2.0, 2.0], [1, 1, 1])
        assert rank_of(r, 2) == 2.0
        assert rank_of(r, 1) == 2.0

    def test_restrict_to_positives(self):
        # the positives of [4, 3, 2, 1] with labels [0, 1, 0, 1], ranked alone
        r = binary([3.0, 1.0], [1, 1])
        assert rank_of(r, 1) == 2.0

    def test_out_of_range(self):
        r = binary([1.0], [1])
        with pytest.raises(IndexOutOfRangeError):
            rank_of(r, 1)


class TestHRank:
    def test_more_relevant_above(self, fixture_875):
        # rel-1 positive with one rel-2/3 candidate above it
        assert h_rank(fixture_875, 1) == 1.0 + 2.0 / 3.0

    def test_less_relevant_above(self):
        r = ScoredRanking(
            "q", ("a", "b"),
            np.array([2.0, 1.0]),
            np.array([1 / 3, 1.0]),
            np.array([1, 3]),
        )
        assert h_rank(r, 1) == 4.0 / 3.0

    def test_nothing_above(self, fixture_875):
        assert h_rank(fixture_875, 0) == 2.0 / 3.0

    def test_negative_rejected(self, fixture_875):
        with pytest.raises(NegativeQueryError):
            h_rank(fixture_875, 2)

    def test_out_of_range(self, fixture_875):
        with pytest.raises(IndexOutOfRangeError, match="^4$"):
            h_rank(fixture_875, 4)


class TestHAp:
    def test_fixture_value(self, fixture_875):
        assert h_ap(fixture_875) == pytest.approx(21 / 24, abs=1e-12)

    def test_binary_one_hot(self):
        assert h_ap(binary([3.0, 2.0, 1.0], [1, 0, 1])) == pytest.approx(5 / 6, abs=1e-12)

    def test_sorted_by_relevance_is_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            depth = int(rng.integers(1, 4))
            levels = rng.integers(0, depth + 1, size=n)
            if not (levels > 0).any():
                levels[0] = depth
            rel = alpha_relevance(levels, depth)
            order = np.argsort(-rel, kind="stable")
            r = ScoredRanking(
                "q", tuple(f"c{i}" for i in range(n)),
                np.linspace(1.0, 0.0, n), rel[order], levels[order],
            )
            assert h_ap(r) == pytest.approx(1.0, abs=1e-12)

    def test_binary_consistency_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, size=n)
            if not labels.any():
                labels[0] = 1
            scores = distinct_scores(rng, n)
            rel = labels / labels.sum()
            r = ScoredRanking(
                "q", tuple(f"c{i}" for i in range(n)), scores, rel, labels
            )
            assert h_ap(r) == pytest.approx(
                oracle_binary_ap(scores, labels.astype(bool)), abs=1e-12
            )

    def test_matches_direct_loop_oracle(self, rng):
        for _ in range(200):
            r = make_ranking(rng, int(rng.integers(2, 25)), int(rng.integers(1, 4)))
            assert h_ap(r) == pytest.approx(oracle_h_ap(r.scores, r.relevance), abs=1e-12)

    def test_score_shift_invariance(self, rng):
        r = make_ranking(rng, 15, 3)
        shifted = ScoredRanking(
            r.query_id, r.candidate_ids, r.scores + 17.5, r.relevance, r.levels
        )
        assert h_ap(shifted) == pytest.approx(h_ap(r), abs=1e-12)
        assert ndcg(shifted) == pytest.approx(ndcg(r), abs=1e-12)
        assert asi(shifted) == pytest.approx(asi(r), abs=1e-12)

    def test_permutation_invariance(self, rng):
        r = make_ranking(rng, 12, 3)
        perm = rng.permutation(12)
        permuted = ScoredRanking(
            r.query_id,
            tuple(r.candidate_ids[i] for i in perm),
            r.scores[perm], r.relevance[perm], r.levels[perm],
        )
        assert h_ap(permuted) == pytest.approx(h_ap(r), abs=1e-12)

    def test_severity_ordering(self, rng):
        # demoting a positive below a negative never increases h_ap
        for _ in range(50):
            r = make_ranking(rng, 10, 3)
            order = sorted_order(r)
            swap = None
            for a, b in zip(order, order[1:]):
                if r.levels[a] > 0 and r.levels[b] == 0:
                    swap = (a, b)
                    break
            if swap is None:
                continue
            scores = r.scores.copy()
            scores[swap[0]], scores[swap[1]] = scores[swap[1]], scores[swap[0]]
            worse = ScoredRanking(
                r.query_id, r.candidate_ids, scores, r.relevance, r.levels
            )
            assert h_ap(worse) <= h_ap(r) + 1e-12

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            h_ap(binary([1.0, 2.0], [0, 0]))


class TestApLevel:
    def test_fixture_values(self, fixture_875):
        # hand-evaluated: positions of level>=l candidates among all
        assert ap_level(fixture_875, 1) == pytest.approx((1 + 1 + 3 / 4) / 3, abs=1e-12)
        assert ap_level(fixture_875, 2) == pytest.approx(1.0, abs=1e-12)
        assert ap_level(fixture_875, 3) == pytest.approx(0.5, abs=1e-12)

    def test_both_positives_above_negative(self):
        r = ScoredRanking(
            "q", ("a", "b", "c"),
            np.array([3.0, 2.0, 1.0]),
            np.array([0.25, 1.0, 0.0]),
            np.array([1, 2, 0]),
        )
        assert ap_level(r, 1) == pytest.approx(1.0, abs=1e-12)

    def test_equals_binary_ap_oracle(self, rng):
        for _ in range(100):
            r = make_ranking(rng, int(rng.integers(3, 20)), 3)
            for level in (1, 2, 3):
                positive = r.levels >= level
                if not positive.any():
                    with pytest.raises(NoPositivesError):
                        ap_level(r, level)
                    continue
                assert ap_level(r, level) == pytest.approx(
                    oracle_binary_ap(r.scores, positive), abs=1e-12
                )

    def test_bad_level(self, fixture_875):
        with pytest.raises(ValueError):
            ap_level(fixture_875, 0)


class TestHPrAtK:
    def test_full_mass_recall(self, fixture_875):
        recall, _ = h_pr_at_k(fixture_875, len(fixture_875))
        assert recall == pytest.approx(1.0, abs=1e-12)

    def test_fixture_at_two(self, fixture_875):
        recall, precision = h_pr_at_k(fixture_875, 2)
        assert recall == pytest.approx(5 / 6, abs=1e-12)
        assert precision == pytest.approx(5 / 6, abs=1e-12)

    def test_binary_matches_classic(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 15))
            labels = rng.integers(0, 2, size=n)
            if not labels.any():
                labels[0] = 1
            scores = distinct_scores(rng, n)
            r = ScoredRanking(
                "q", tuple(f"c{i}" for i in range(n)),
                scores, labels.astype(float), labels,
            )
            order = np.argsort(-scores)
            for k in range(1, n + 1):
                recall, precision = h_pr_at_k(r, k)
                hits = labels[order][:k].sum()
                assert recall == pytest.approx(hits / labels.sum(), abs=1e-12)
                expect_p = hits / k if labels[order][k - 1] else 0.0
                assert precision == pytest.approx(expect_p, abs=1e-12)

    def test_negative_position_reports_zero_precision(self, fixture_875):
        _, precision = h_pr_at_k(fixture_875, 3)
        assert precision == 0.0

    def test_bounds(self, fixture_875):
        with pytest.raises(IndexOutOfRangeError):
            h_pr_at_k(fixture_875, 0)
        with pytest.raises(IndexOutOfRangeError):
            h_pr_at_k(fixture_875, 5)


class TestPrOracle:
    def test_fixture_agreement(self, fixture_875):
        assert h_ap_pr_oracle(fixture_875) == pytest.approx(h_ap(fixture_875), abs=1e-12)

    def test_perfect_is_one(self):
        r = binary([2.0, 1.0], [1, 1])
        assert h_ap_pr_oracle(r) == pytest.approx(1.0, abs=1e-12)

    def test_random_agreement(self, rng):
        for _ in range(200):
            r = make_ranking(rng, 10, int(rng.integers(1, 4)))
            assert h_ap_pr_oracle(r) == pytest.approx(h_ap(r), abs=1e-12)


class TestAsi:
    def test_ideal_order_is_one(self):
        r = ScoredRanking(
            "q", ("a", "b", "c"),
            np.array([3.0, 2.0, 1.0]),
            np.array([1.0, 0.5, 0.0]),
            np.array([2, 1, 0]),
        )
        assert asi(r) == 1.0

    def test_single_positive_first(self):
        assert asi(binary([2.0, 1.0], [1, 0])) == 1.0

    def test_single_positive_last(self):
        r = ScoredRanking(
            "q", ("a", "b"),
            np.array([2.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([0, 2]),
        )
        assert asi(r) == 0.0

    def test_multiset_ignores_tie_order(self):
        # two candidates share a level; order inside the tie must not matter
        r1 = ScoredRanking(
            "q", ("a", "b", "c"),
            np.array([3.0, 2.0, 1.0]),
            np.array([0.5, 0.5, 1.0]),
            np.array([1, 1, 2]),
        )
        r2 = ScoredRanking(
            "q", ("b", "a", "c"),
            np.array([3.0, 2.0, 1.0]),
            np.array([0.5, 0.5, 1.0]),
            np.array([1, 1, 2]),
        )
        assert asi(r1) == asi(r2)


class TestNdcg:
    def test_ideal_is_one(self):
        r = ScoredRanking(
            "q", ("a", "b", "c"),
            np.array([3.0, 2.0, 1.0]),
            np.array([1.0, 0.5, 0.0]),
            np.array([2, 1, 0]),
        )
        assert ndcg(r) == pytest.approx(1.0, abs=1e-12)

    def test_single_positive_level1_rank1(self):
        assert ndcg(binary([2.0, 1.0], [1, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_two_item_inversion(self):
        r = ScoredRanking(
            "q", ("a", "b"),
            np.array([2.0, 1.0]),
            np.array([0.5, 1.0]),
            np.array([1, 2]),
        )
        expected = (1.0 + 3.0 / math.log2(3)) / (3.0 + 1.0 / math.log2(3))
        assert expected == pytest.approx(0.7967075809905066, abs=1e-12)
        assert ndcg(r) == pytest.approx(expected, abs=1e-12)


class TestRecallAtK:
    def test_hit_at_one(self):
        assert recall_at_k(binary([2.0, 1.0], [1, 0]), 1, 1) == 1

    def test_all_below_k(self):
        r = binary([3.0, 2.0, 1.0], [0, 0, 1])
        assert recall_at_k(r, 2, 1) == 0

    def test_k_exceeding_list_clamps(self):
        r = binary([2.0, 1.0], [0, 1])
        assert recall_at_k(r, 10, 1) == 1

    @pytest.mark.parametrize("level", [0, -3])
    def test_level_below_one_is_rejected(self, level):
        # top-1 is a negative, which a level below 1 would count as a hit
        r = binary([2.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match=f"^level must be >= 1, got {level}$"):
            recall_at_k(r, 1, level)

    def test_no_candidate_at_the_level_is_rejected(self):
        r = binary([2.0, 1.0], [0, 1])
        with pytest.raises(NoPositivesError, match="^query 'q' has no candidate at level >= 2$"):
            recall_at_k(r, 1, 2)

    def test_k_below_one_is_rejected(self):
        with pytest.raises(IndexOutOfRangeError, match="^0$"):
            recall_at_k(binary([2.0, 1.0], [0, 1]), 0, 1)

    def test_tie_at_boundary_uses_id_order(self):
        r = ScoredRanking(
            "q", ("b", "a"),
            np.array([1.0, 1.0]),
            np.array([1.0, 0.0]),
            np.array([1, 0]),
        )
        # "a" (negative) precedes "b" at equal score, so top-1 misses
        assert recall_at_k(r, 1, 1) == 0


class TestEvaluateDataset:
    def test_mean_of_two(self):
        perfect = binary([2.0, 1.0], [1, 0])
        half = binary([2.0, 1.0], [0, 1])
        report = evaluate_dataset([perfect, half], ks=(1,), depth=1)
        assert report.mean("h_ap") == pytest.approx(0.75, abs=1e-12)
        assert report.queries == 2
        assert report.excluded == 0

    def test_excludes_positive_free_queries(self):
        good = binary([2.0, 1.0], [1, 0])
        empty = binary([2.0, 1.0], [0, 0])
        report = evaluate_dataset([good, empty], ks=(1,), depth=1)
        assert report.queries == 1
        assert report.excluded == 1
        assert report.mean("h_ap") == pytest.approx(1.0)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_rejected(self, depth):
        r = binary([2.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match=f"^depth must be >= 1, got {depth}$"):
            evaluate_dataset([r], ks=(1,), depth=depth)

    def test_all_empty_raises(self):
        with pytest.raises(AllQueriesEmptyError):
            evaluate_dataset([binary([1.0], [0])], ks=(1,), depth=1)

    def test_no_ranking_raises(self):
        with pytest.raises(AllQueriesEmptyError, match="^no query has a positive candidate$"):
            evaluate_dataset([])

    def test_a_cutoff_below_one_is_rejected(self):
        with pytest.raises(IndexOutOfRangeError, match="^0$"):
            evaluate_dataset([binary([2.0, 1.0], [1, 0])], ks=(0,))

    def test_mean_matches_recomputation(self, rng):
        rankings = [make_ranking(rng, 10, 2) for _ in range(50)]
        report = evaluate_dataset(rankings, ks=(1,), depth=2)
        direct = np.mean([oracle_h_ap(r.scores, r.relevance) for r in rankings])
        assert report.mean("h_ap") == pytest.approx(float(direct), abs=1e-12)

    def test_cutoff_order_does_not_change_the_report(self, fixture_875):
        sorted_ks = evaluate_dataset([fixture_875], ks=(1, 4), depth=3).to_json_dict()
        report = evaluate_dataset([fixture_875], ks=(4, 1), depth=3).to_json_dict()
        assert report == sorted_ks
        assert list(report["recall_at_k"]) == ["1", "4"]

    def test_mean_sums_the_defined_entries_alone(self, rng):
        # zeros summed in place of the nans (as np.nanmean does) would regroup
        # the pairwise sum and move the last bit of some means
        columns = {f"c{i}": np.where(rng.random(300) < 0.2, np.nan, rng.random(300))
                   for i in range(20)}
        columns["empty"] = np.full(300, np.nan)
        report = MetricsReport([f"q{i}" for i in range(300)], 0, columns)
        for name, column in columns.items():
            defined = [float(v) for v in column if not math.isnan(v)]
            mean = report.mean(name)
            assert mean == float(np.mean(defined)) if defined else math.isnan(mean), name

    def test_json_key_order(self, fixture_875):
        report = evaluate_dataset([fixture_875], ks=(1, 4), depth=3)
        keys = list(report.to_json_dict())
        assert keys == [
            "queries", "excluded", "h_ap",
            "ap_level_1", "ap_level_2", "ap_level_3",
            "asi", "ndcg", "recall_at_k",
        ]
        text = json.dumps(report.to_json_dict())
        assert text.index('"h_ap"') < text.index('"ap_level_1"') < text.index('"asi"')


SCORE_TAXONOMY = parse_taxonomy(
    "".join(f"{i}\t{i}\n" for i in ("q", "r", "a", "b", "c", "é", "ß", "漢", "ø"))
)


BLOCK_IDS = [f"i{k:03d}" for k in range(144)]
BLOCK_TAXONOMY = parse_taxonomy(
    "".join(f"{i}\tL{k % 3}/M{k % 12}/{i}\n" for k, i in enumerate(BLOCK_IDS))
)


ALL_PAIRS_IDS = [f"img{k:05d}" for k in range(320)]
ALL_PAIRS_TAXONOMY = parse_taxonomy(
    "".join(f"{i}\tL{k % 4}/M{k % 16}/N{k % 64}\n" for k, i in enumerate(ALL_PAIRS_IDS))
)


def block_lines() -> list[str]:
    """20,592 score lines over BLOCK_TAXONOMY, no pair repeated: over 8 blocks of the reader."""
    lines = [f"{q}\t{c}\t{math.sin(k)!r}" for k, (q, c) in enumerate(permutations(BLOCK_IDS, 2))]
    assert sum(map(len, lines)) > 8 * taxonomy._BLOCK
    return lines


def parse_scores(text):
    """read_scores over SCORE_TAXONOMY as {query: (candidate ids, scores)}."""
    table = read_scores(text, SCORE_TAXONOMY)
    ids = list(SCORE_TAXONOMY.row_of)
    out = {}
    for q, c, score in zip(table.query.tolist(), table.candidate.tolist(), table.score.tolist()):
        candidates, scores = out.setdefault(table.query_ids[q], ([], []))
        candidates.append(ids[c])
        scores.append(score)
    return out


class TestParseScores:
    def test_basic(self):
        table = read_scores("q\ta\t1.5\nr\ta\t0\nq\tb\t-2\n", SCORE_TAXONOMY)
        # rows grouped by query in order of first appearance, file order inside
        assert table.query_ids == ["q", "r"]
        # taxonomy rows follow the sorted ids: a, b, c, q, r, ...
        assert table.query.tolist() == [0, 0, 1]
        assert table.candidate.tolist() == [0, 1, 0]
        assert table.score.tolist() == [1.5, -2.0, 0.0]
        assert table.levels.tolist() == [0, 0, 0]

    def test_unknown_id_fails_before_a_later_bad_line(self):
        with pytest.raises(UnknownInstanceError, match="'zz'"):
            parse_scores("q\tzz\t1\nq\ta\tnot-a-number\nq\ta\n")

    def test_unknown_query_is_named_before_an_unknown_candidate_on_its_line(self):
        with pytest.raises(UnknownInstanceError, match="^unknown instance id 'zz'$"):
            parse_scores("q\ta\t1\nzz\tyy\t1\n")

    def test_bad_score_names_line(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse_scores("q\ta\t1.5\nq\tb\tnot-a-number\n")

    def test_duplicate_candidate_names_line(self):
        with pytest.raises(DuplicateInstanceError, match="line 2"):
            parse_scores("q\ta\t1\nq\ta\t2\n")

    def test_first_repeated_row_in_file_order(self):
        # query r's repeat (line 3) comes before query q's (line 4)
        with pytest.raises(DuplicateInstanceError, match="line 3: candidate 'b'"):
            parse_scores("q\ta\t1\nr\tb\t1\nr\tb\t2\nq\ta\t3\n")

    def test_malformed_line(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            parse_scores("q\ta\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_nonfinite_score_names_line(self, value):
        with pytest.raises(MalformedRecordError, match=f"line 3: score '{value}' is not finite"):
            parse_scores(f"q\ta\t1\nr\tb\t2\nq\tc\t{value}\n")

    def test_nonfinite_score_before_a_repeat_is_named_first(self):
        with pytest.raises(MalformedRecordError, match="line 2: score 'nan'"):
            parse_scores("q\ta\t1\nq\tb\tnan\nq\ta\t2\n")

    def test_overflowing_sum_of_finite_scores_parses(self):
        out = parse_scores("q\ta\t1e308\nq\tb\t1e308\n")
        assert out["q"] == (["a", "b"], [1e308, 1e308])

    def test_blank_lines_only_is_empty(self):
        with pytest.raises(EmptyInputError, match="no score rows"):
            parse_scores("\n\r\n\n")

    def test_round_trip_non_ascii(self):
        rows = [("é", "漢", 0.1), ("é", "ø", -1 / 3), ("ß", "漢", 2.0)]
        text = "".join(f"{q}\t{c}\t{s!r}\n" for q, c, s in rows)
        assert parse_scores(text) == {"é": (["漢", "ø"], [0.1, -1 / 3]), "ß": (["漢"], [2.0])}

    def test_two_records_and_a_field_between_on_one_line_are_malformed(self):
        with pytest.raises(MalformedRecordError, match="^line 2: "):
            parse_scores("q\tc\t1\nq\ta\t1\tJUNK\tq\tb\t2\n")

    def test_bad_score_on_the_last_line_of_many_blocks_names_its_line(self):
        lines = block_lines()
        lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\tx"
        lines[5:5] = ["", "\r"]  # blank lines count in the line numbers
        with pytest.raises(MalformedRecordError, match=f"^line {len(lines)}: bad score 'x'$"):
            read_scores("\n".join(lines) + "\n", BLOCK_TAXONOMY)

    def test_unknown_id_in_the_first_block_wins_over_a_malformed_line_in_a_later_one(self):
        lines = block_lines()
        lines[1] = "i000\tzz\t1"
        lines[-1] = "i000\ti001"
        with pytest.raises(UnknownInstanceError, match="^unknown instance id 'zz'$"):
            read_scores("\n".join(lines) + "\n", BLOCK_TAXONOMY)

    def test_crlf_and_lf_files_give_equal_tables(self):
        lines = block_lines()
        lf = read_scores("\n".join(lines) + "\n", BLOCK_TAXONOMY)
        crlf = read_scores("\r\n".join(lines) + "\r\n", BLOCK_TAXONOMY)
        assert lf.query_ids == crlf.query_ids == BLOCK_IDS
        for a, b in zip(lf[1:], crlf[1:]):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert lf.score.tolist() == [float(line.split("\t")[2]) for line in lines]

    def test_peak_memory_is_a_few_times_the_text_not_every_field_at_once(self):
        # tracemalloc's peak reads about 2.9x the text's characters here a block at a time,
        # and about 11x when the whole text is split at once
        text = "\n".join(block_lines()) + "\n"

        def peak() -> int:
            tracemalloc.start()
            try:
                read_scores(text, BLOCK_TAXONOMY)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < 7 * len(text)
        with mock.patch.object(taxonomy, "_BLOCK", len(text) + 1):
            assert peak() > 7 * len(text)

    def test_peak_memory_of_an_all_pairs_text_is_under_twice_its_characters(self):
        # 102,080 rows of about 38 characters, like `hirank eval`'s input. The four
        # columns take 32 bytes a row, and comparing one level column at a time
        # keeps the levels' temporaries near that (two gathered (rows, depth)
        # code arrays and their cumprod read 3.3x)
        lines = (f"{q}\t{c}\t{math.sin(k)!r}"
                 for k, (q, c) in enumerate(permutations(ALL_PAIRS_IDS, 2)))
        text = "\n".join(lines) + "\n"
        ALL_PAIRS_TAXONOMY.row_codes  # built once, outside the measurement
        tracemalloc.start()
        try:
            table = read_scores(text, ALL_PAIRS_TAXONOMY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.query) == 320 * 319
        assert peak <= 2 * len(text)

    def test_peak_memory_of_an_all_pairs_file_read_as_eval_does_is_under_twice_its_bytes(
        self, tmp_path
    ):
        # the file's blocks are read twice, to size the columns and to fill them, and the
        # whole text is never held: about 1.6x, against 2.6x when it is read at once
        path = tmp_path / "scores.tsv"
        path.write_text("".join(f"{q}\t{c}\t{math.sin(k)!r}\n"
                                for k, (q, c) in enumerate(permutations(ALL_PAIRS_IDS, 2))))
        ALL_PAIRS_TAXONOMY.row_codes  # built once, outside the measurement

        def peak(read) -> int:
            tracemalloc.start()
            try:
                assert len(read().query) == 320 * 319
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        size = path.stat().st_size
        assert peak(lambda: read_scores(TextFile(path), ALL_PAIRS_TAXONOMY)) < 2 * size
        assert peak(lambda: read_scores(read_text(path), ALL_PAIRS_TAXONOMY)) > 2 * size

    @pytest.mark.parametrize("last, error, message", [
        ("img00319\timg00318\tx\n", MalformedRecordError, "line 102080: bad score 'x'"),
        ("img00319\timg00318\t-1\nimg00000\timg00001\t2\n", DuplicateInstanceError,
         "line 102081: candidate 'img00001' repeated for query 'img00000'"),
    ])
    def test_an_error_on_the_last_line_of_an_all_pairs_file_peaks_under_four_times_its_bytes(
        self, tmp_path, last, error, message
    ):
        # the error is found again one block at a time, each pair seen kept as one int:
        # about 3.1x, against 9.8x when the whole text is split and its pairs kept as strings
        pairs = list(permutations(ALL_PAIRS_IDS, 2))
        path = tmp_path / "scores.tsv"
        path.write_text("".join(f"{q}\t{c}\t{math.sin(k)!r}\n"
                                for k, (q, c) in enumerate(pairs[:-1])) + last)
        ALL_PAIRS_TAXONOMY.row_codes  # built once, outside the measurement
        tracemalloc.start()
        try:
            with pytest.raises(error, match=f"^{message}$"):
                read_scores(TextFile(path), ALL_PAIRS_TAXONOMY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size
