import re

import numpy as np
import pytest

from conftest import oracle_ancestor_level
from hirank.errors import (
    DuplicateInstanceError,
    EmptyInputError,
    EmptyLevelDivisionError,
    MalformedRecordError,
    NonTreeParentageError,
    ProfileDepthError,
    QueryInCandidatesError,
    RaggedDepthError,
    TooFewLeavesError,
    UnknownInstanceError,
)
from hirank.metrics import read_scores
from hirank.taxonomy import (
    RelevanceProfile,
    ancestor_levels,
    assign_relevance,
    format_taxonomy,
    parse_taxonomy,
    path_codes,
    string_ranks,
)

VEHICLES = (
    "lada2\tvehicles/cars/lada\n"
    "lada9\tvehicles/cars/lada\n"
    "prius4\tvehicles/cars/prius\n"
    "boat1\tvehicles/boats/sail\n"
    "oak1\tplants/trees/oak\n"
)


class TestParseTaxonomy:
    def test_basic_parse(self):
        tax = parse_taxonomy("a\tv/c/l1\nb\tv/c/l2\n")
        assert tax.depth == 3
        assert len(tax.entries) == 2
        assert tax.path("a") == ("v", "c", "l1")

    def test_ragged_depth_names_line(self):
        with pytest.raises(RaggedDepthError, match="line 2"):
            parse_taxonomy("a\tv/c\nb\tv\n")

    def test_duplicate_id_names_line(self):
        with pytest.raises(DuplicateInstanceError, match="line 2"):
            parse_taxonomy("a\tv/c\na\tv/d\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_taxonomy("\n\n")

    def test_malformed_record(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            parse_taxonomy("justoneford\n")

    def test_empty_path_component(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            parse_taxonomy("a\tv//l\nb\tv/c/l2\n")

    def test_non_tree_parentage(self):
        # "c" appears under two different parents
        with pytest.raises(NonTreeParentageError):
            parse_taxonomy("a\tu/c/l1\nb\tv/c/l2\n")

    def test_single_leaf_rejected(self):
        with pytest.raises(TooFewLeavesError):
            parse_taxonomy("a\tv/c/l\nb\tv/c/l\n")

    def test_path_of_an_unknown_id(self):
        tax = parse_taxonomy("a\tv/c/l1\nb\tv/c/l2\n")
        with pytest.raises(UnknownInstanceError, match="^unknown instance id 'zz'$"):
            tax.path("zz")

    def test_format_round_trip(self):
        tax = parse_taxonomy(VEHICLES)
        again = parse_taxonomy(format_taxonomy(tax))
        assert again.entries == dict(tax.entries)
        assert again.depth == tax.depth

    def test_format_round_trip_non_ascii(self):
        tax = parse_taxonomy("é1\tпути/ß/漢\nø2\tпути/ß/ü\n")
        assert tax.path("é1") == ("пути", "ß", "漢")
        assert parse_taxonomy(format_taxonomy(tax)).entries == dict(tax.entries)


def level_of(path_a, path_b) -> int:
    codes = path_codes([path_a, path_b], len(path_a))
    return int(ancestor_levels(codes, 0, 1))


class TestAncestorLevel:
    def test_common_prefix_lengths(self):
        assert level_of(("v", "c", "l"), ("v", "c", "l")) == 3
        assert level_of(("v", "c", "l"), ("v", "c", "p")) == 2
        assert level_of(("v", "c", "l"), ("v", "b", "s")) == 1
        assert level_of(("v", "c", "l"), ("p", "t", "o")) == 0

    def test_symmetry(self, rng):
        labels = ["x", "y", "z"]
        for _ in range(50):
            a = tuple(rng.choice(labels) for _ in range(4))
            b = tuple(rng.choice(labels) for _ in range(4))
            assert level_of(a, b) == level_of(b, a) == oracle_ancestor_level(a, b)


def scores_text(query, candidates):
    return "".join(f"{query}\t{c}\t0\n" for c in candidates)


class TestBuildPartition:
    """Candidate levels against their query, read from a scores file."""

    def test_levels_against_fixture(self):
        tax = parse_taxonomy(VEHICLES)
        table = read_scores(scores_text("lada2", ["lada9", "prius4", "boat1", "oak1"]), tax)
        assert table.levels.tolist() == [3, 2, 1, 0]

    def test_unknown_instance(self):
        tax = parse_taxonomy(VEHICLES)
        for text in (scores_text("lada2", ["ghost"]), scores_text("ghost", ["lada2"])):
            with pytest.raises(UnknownInstanceError, match="'ghost'"):
                read_scores(text, tax)

    def test_query_in_candidates(self):
        tax = parse_taxonomy(VEHICLES)
        text = scores_text("oak1", ["lada2"]) + scores_text("lada2", ["boat1", "lada2"])
        with pytest.raises(QueryInCandidatesError, match="'lada2'"):
            read_scores(text, tax)

    def test_partition_from_paths_matches(self):
        # the table's levels equal those of the instances' own codes
        tax = parse_taxonomy(VEHICLES)
        ids = ["lada9", "prius4", "boat1"]
        table = read_scores(scores_text("lada2", ids), tax)
        rows = [tax.row_of[i] for i in ids]
        expected = ancestor_levels(tax.row_codes, tax.row_of["lada2"], rows)
        assert table.levels.tolist() == expected.tolist()


def relevance(levels, profile, depth, query=None):
    """assign_relevance over `levels`, all of one query unless `query` says otherwise."""
    levels = np.asarray(levels)
    query = np.zeros(len(levels), dtype=np.int64) if query is None else np.asarray(query)
    return assign_relevance(levels, query, profile, depth)


class TestRelevanceProfiles:
    def test_an_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="^unknown profile kind 'nope'$"):
            RelevanceProfile("nope").level_table(np.array([1, 1]), skip_empty=False)

    def test_alpha_level_weights(self):
        # depth 3, alpha 1, one candidate per level: rel = l/3 directly
        rel, _ = relevance([3, 2, 1], RelevanceProfile.alpha(1.0), 3)
        assert np.allclose(rel, [1.0, 2 / 3, 1 / 3])

    def test_alpha_normalizes_by_level_count(self):
        rel, levels = relevance([2, 2, 1, 1, 0], RelevanceProfile.alpha(1.0), 2)
        # (l/L)^alpha split evenly across the candidates at that exact level
        assert np.allclose(rel, [0.5, 0.5, 0.25, 0.25, 0.0])
        assert levels.tolist() == [2, 2, 1, 1, 0]

    def test_alpha_single_deepest_gets_one(self):
        for alpha in (0.5, 1.0, 3.0):
            rel, _ = relevance([2], RelevanceProfile.alpha(alpha), 2)
            assert rel[0] == 1.0

    def test_weighted_example(self):
        # w=(0.4, 0.6) with 2 candidates at each level: level-1 rel 0.1, level-2 rel 0.4
        rel, _ = relevance([2, 2, 1, 1], RelevanceProfile.weighted_ap((0.4, 0.6)), 2)
        assert np.allclose(rel, [0.4, 0.4, 0.1, 0.1])

    def test_weighted_total_relevance_is_one(self, rng):
        for _ in range(100):
            depth = int(rng.integers(1, 4))
            n = int(rng.integers(2, 12))
            levels = rng.integers(0, depth + 1, size=n)
            if not np.any(levels == depth):
                levels[0] = depth
            w = rng.uniform(0.1, 1.0, size=depth)
            w /= w.sum()
            rel, _ = relevance(levels, RelevanceProfile.weighted_ap(tuple(w)), depth)
            assert abs(rel.sum() - 1.0) <= 1e-12

    def test_weighted_empty_upper_level_raises(self):
        # only a level-1 candidate; the second query alone would be fine
        with pytest.raises(EmptyLevelDivisionError, match="level >= 2 but weight 0.6"):
            relevance([1, 2], RelevanceProfile.weighted_ap((0.4, 0.6)), 2, query=[0, 1])

    def test_weighted_wrong_arity(self):
        with pytest.raises(ValueError):
            relevance([2], RelevanceProfile.weighted_ap((1.0,)), 2)

    def test_explicit_relevels_zeros(self):
        rel, levels = relevance([1, 2], RelevanceProfile.explicit({2: 1.0}), 2)
        # the level-1 candidate got relevance 0, so it is re-leveled to 0
        assert levels.tolist() == [0, 2]
        assert rel.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("table, message", [
        ({1: 0.5, 9: 1.0}, "profile table has level 9 for depth 3"),
        ({-1: 0.5, 3: 1.0}, "profile table has level -1 for depth 3"),
        ({}, "profile table gives no level in 1..3 a positive relevance"),
        ({1: 0.0, 3: 0.0}, "profile table gives no level in 1..3 a positive relevance"),
    ])
    def test_explicit_table_must_fit_the_depth(self, table, message):
        with pytest.raises(ProfileDepthError, match=f"^{re.escape(message)}$"):
            RelevanceProfile.explicit(table).level_table(np.zeros(4), skip_empty=True)

    def test_fine_only_is_explicit_last_level(self):
        profile = RelevanceProfile.fine_only(3)
        assert profile.kind == "explicit"
        assert profile.table[3] == 1.0
        assert profile.table[1] == 0.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RelevanceProfile.alpha(0.0)
        with pytest.raises(ValueError):
            RelevanceProfile.weighted_ap((0.4, 0.4))  # does not sum to 1
        with pytest.raises(ValueError):
            RelevanceProfile.weighted_ap(())
        with pytest.raises(ValueError):
            RelevanceProfile.explicit({0: 0.5})
        with pytest.raises(ValueError):
            RelevanceProfile.explicit({1: -0.5})

    @pytest.mark.parametrize(
        "value, weights_message",
        [(float("nan"), "weights must be non-empty and positive"),
         (float("inf"), "weights must sum to 1, got inf")],
    )
    def test_nonfinite_weights_and_table_values_rejected(self, value, weights_message):
        with pytest.raises(ValueError, match=f"^{weights_message}"):
            RelevanceProfile.weighted_ap((value, 0.5))
        with pytest.raises(ValueError, match="^table values must be non-negative and finite"):
            RelevanceProfile.explicit({1: value})

    def test_assignment_is_order_independent(self, rng):
        # two queries, each normalized on its own, in any row order
        levels = np.array([3, 1, 0, 2, 2, 0, 1, 3, 3, 1])
        query = np.array([0] * 7 + [1] * 3)
        profile = RelevanceProfile.alpha(2.0)
        rel, _ = relevance(levels, profile, 3, query)
        assert rel[7:].tolist() == relevance(levels[7:], profile, 3)[0].tolist()
        perm = rng.permutation(len(levels))
        rel2, _ = relevance(levels[perm], profile, 3, query[perm])
        assert rel2.tolist() == rel[perm].tolist()

    def test_broadcast_rows_match_flat_columns(self):
        # one query per row, as the trainer passes its batch; row 2 has no
        # candidate at level 2, so a weighted profile needs skip_empty there
        levels = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
        query = np.arange(3)[:, None]
        profile = RelevanceProfile.weighted_ap((0.4, 0.6))
        rel, relevelled = assign_relevance(levels, query, profile, 2, skip_empty=True)
        flat, _ = assign_relevance(
            levels.ravel(), np.repeat(np.arange(3), 3), profile, 2, skip_empty=True
        )
        assert rel.shape == relevelled.shape == (3, 3)
        assert rel.tolist() == flat.reshape(3, 3).tolist()
        assert rel[2].tolist() == [0.4, 0.0, 0.0]
        with pytest.raises(EmptyLevelDivisionError):
            assign_relevance(levels, query, profile, 2)


class TestStringRanks:
    def test_python_order_over_the_exact_strings(self):
        distinct, ranks = string_ranks(["b", "a\x00", "a", "b", "é"])
        assert distinct == ["a", "a\x00", "b", "é"]
        assert ranks.dtype == np.int64
        assert ranks.tolist() == [2, 1, 0, 2, 3]
