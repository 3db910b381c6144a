import json
import math

import numpy as np
import pytest

from conftest import (
    alpha_relevance,
    distinct_scores,
    make_ranking,
    oracle_binary_ap,
    oracle_h_ap,
)
from hirank.errors import (
    AllQueriesEmptyError,
    DuplicateInstanceError,
    EmptyInputError,
    IndexOutOfRangeError,
    MalformedRecordError,
    NegativeQueryError,
    NoPositivesError,
)
from hirank.metrics import (
    ScoredRanking,
    ap_level,
    asi,
    evaluate_dataset,
    h_ap,
    h_ap_pr_oracle,
    h_pr_at_k,
    h_rank,
    ndcg,
    parse_scores,
    rank_of,
    recall_at_k,
)


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

    def test_sorted_order_breaks_ties_by_id(self):
        r = ScoredRanking(
            "q", ("b", "a", "c"),
            np.array([1.0, 1.0, 2.0]),
            np.array([1.0, 1.0, 1.0]),
            np.array([1, 1, 1]),
        )
        assert [r.candidate_ids[i] for i in r.sorted_order()] == ["c", "a", "b"]


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
            order = r.sorted_order()
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
        assert report.h_ap == pytest.approx(0.75, abs=1e-12)
        assert report.queries == 2
        assert report.excluded == 0

    def test_excludes_positive_free_queries(self):
        good = binary([2.0, 1.0], [1, 0])
        empty = binary([2.0, 1.0], [0, 0])
        report = evaluate_dataset([good, empty], ks=(1,), depth=1)
        assert report.queries == 1
        assert report.excluded == 1
        assert report.h_ap == pytest.approx(1.0)

    def test_all_empty_raises(self):
        with pytest.raises(AllQueriesEmptyError):
            evaluate_dataset([binary([1.0], [0])], ks=(1,), depth=1)

    def test_mean_matches_recomputation(self, rng):
        rankings = [make_ranking(rng, 10, 2) for _ in range(50)]
        report = evaluate_dataset(rankings, ks=(1,), depth=2)
        direct = np.mean([oracle_h_ap(r.scores, r.relevance) for r in rankings])
        assert report.h_ap == pytest.approx(float(direct), abs=1e-12)

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


class TestParseScores:
    def test_basic(self):
        out = parse_scores("q\ta\t1.5\nq\tb\t-2\nr\ta\t0\n")
        assert out["q"] == (["a", "b"], [1.5, -2.0])
        assert out["r"] == (["a"], [0.0])

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
