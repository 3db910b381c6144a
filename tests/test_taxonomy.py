import numpy as np
import pytest

from conftest import oracle_ancestor_level
from hirank.errors import (
    DuplicateInstanceError,
    EmptyInputError,
    EmptyLevelDivisionError,
    MalformedRecordError,
    NonTreeParentageError,
    QueryInCandidatesError,
    RaggedDepthError,
    TooFewLeavesError,
    UnknownInstanceError,
)
from hirank.taxonomy import (
    RelevanceProfile,
    ancestor_levels,
    assign_relevance,
    build_partition,
    format_taxonomy,
    leaf_only,
    parse_taxonomy,
    partition_from_paths,
    path_codes,
    validate_relevance,
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

    def test_level_sizes_count_distinct_prefixes(self):
        tax = parse_taxonomy(VEHICLES)
        assert tax.depth == 3
        # roots {vehicles, plants}; groups {cars, boats, trees}; 4 leaf classes
        assert tax.level_sizes == (2, 3, 4)

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

    def test_format_round_trip(self):
        tax = parse_taxonomy(VEHICLES)
        again = parse_taxonomy(format_taxonomy(tax))
        assert again.entries == dict(tax.entries)
        assert again.level_sizes == tax.level_sizes

    def test_format_round_trip_non_ascii(self):
        tax = parse_taxonomy("é1\tпути/ß/漢\nø2\tпути/ß/ü\n")
        assert tax.path("é1") == ("пути", "ß", "漢")
        assert parse_taxonomy(format_taxonomy(tax)).entries == dict(tax.entries)

    def test_leaf_only_view(self):
        tax = leaf_only(parse_taxonomy(VEHICLES))
        assert tax.depth == 1
        assert tax.path("lada2") == ("lada",)
        assert tax.level_sizes == (4,)


def level_of(path_a, path_b) -> int:
    codes = path_codes([path_a, path_b], len(path_a))
    return int(ancestor_levels(codes[0], codes[1]))


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


class TestBuildPartition:
    def test_levels_against_fixture(self):
        tax = parse_taxonomy(VEHICLES)
        part = build_partition(tax, "lada2", ["lada9", "prius4", "boat1", "oak1"])
        assert part.levels.tolist() == [3, 2, 1, 0]
        assert part.level_counts.tolist() == [1, 1, 1, 1]
        assert part.num_positives == 3

    def test_unknown_instance(self):
        tax = parse_taxonomy(VEHICLES)
        with pytest.raises(UnknownInstanceError):
            build_partition(tax, "lada2", ["ghost"])

    def test_query_in_candidates(self):
        tax = parse_taxonomy(VEHICLES)
        with pytest.raises(QueryInCandidatesError):
            build_partition(tax, "lada2", ["lada2"])

    def test_partition_from_paths_matches(self):
        tax = parse_taxonomy(VEHICLES)
        ids = ["lada9", "prius4", "boat1"]
        via_tax = build_partition(tax, "lada2", ids)
        direct = partition_from_paths(
            "lada2", tax.path("lada2"), ids, [tax.path(i) for i in ids], tax.depth
        )
        assert direct.levels.tolist() == via_tax.levels.tolist()


class TestRelevanceProfiles:
    def test_alpha_level_weights(self):
        # depth 3, alpha 1, one candidate per level: rel = l/3 directly
        part = partition_from_paths(
            "q", ("a", "b", "c"),
            ["x1", "x2", "x3"],
            [("a", "b", "c"), ("a", "b", "z"), ("a", "y", "z")],
            depth=3,
        )
        part = assign_relevance(part, RelevanceProfile.alpha(1.0))
        assert np.allclose(sorted(part.relevance), [1 / 3, 2 / 3, 1.0])

    def test_alpha_normalizes_by_level_count(self):
        levels = np.array([2, 2, 1, 1, 0])
        part = partition_from_paths(
            "q", ("a", "b"),
            ["c1", "c2", "c3", "c4", "c5"],
            [("a", "b"), ("a", "b"), ("a", "y"), ("a", "z"), ("w", "z")],
            depth=2,
        )
        assert part.levels.tolist() == levels.tolist()
        part = assign_relevance(part, RelevanceProfile.alpha(1.0))
        # (l/L)^alpha split evenly across the candidates at that exact level
        assert np.allclose(part.relevance, [0.5, 0.5, 0.25, 0.25, 0.0])

    def test_alpha_single_deepest_gets_one(self):
        for alpha in (0.5, 1.0, 3.0):
            part = partition_from_paths(
                "q", ("a", "b"), ["c"], [("a", "b")], depth=2
            )
            part = assign_relevance(part, RelevanceProfile.alpha(alpha))
            assert part.relevance[0] == 1.0

    def test_weighted_example(self):
        # w=(0.4, 0.6) with 2 candidates at each level: level-1 rel 0.1, level-2 rel 0.4
        part = partition_from_paths(
            "q", ("a", "b"),
            ["c1", "c2", "c3", "c4"],
            [("a", "b"), ("a", "b"), ("a", "x"), ("a", "y")],
            depth=2,
        )
        part = assign_relevance(part, RelevanceProfile.weighted_ap((0.4, 0.6)))
        assert np.allclose(sorted(part.relevance), [0.1, 0.1, 0.4, 0.4])

    def test_weighted_total_relevance_is_one(self, rng):
        for _ in range(100):
            depth = int(rng.integers(1, 4))
            n = int(rng.integers(2, 12))
            levels = rng.integers(0, depth + 1, size=n)
            if not np.any(levels == depth):
                levels[0] = depth
            w = rng.uniform(0.1, 1.0, size=depth)
            w /= w.sum()
            paths, qpath = _paths_for_levels(levels, depth)
            part = partition_from_paths(
                "q", qpath, [f"c{i}" for i in range(n)], paths, depth
            )
            part = assign_relevance(part, RelevanceProfile.weighted_ap(tuple(w)))
            assert abs(part.relevance.sum() - 1.0) <= 1e-12

    def test_weighted_empty_upper_level_raises(self):
        part = partition_from_paths(
            "q", ("a", "b"), ["c1"], [("a", "x")], depth=2
        )  # only a level-1 candidate
        with pytest.raises(EmptyLevelDivisionError):
            assign_relevance(part, RelevanceProfile.weighted_ap((0.4, 0.6)))

    def test_weighted_wrong_arity(self):
        part = partition_from_paths("q", ("a", "b"), ["c1"], [("a", "b")], depth=2)
        with pytest.raises(ValueError):
            assign_relevance(part, RelevanceProfile.weighted_ap((1.0,)))

    def test_explicit_relevels_zeros(self):
        part = partition_from_paths(
            "q", ("a", "b"),
            ["c1", "c2"],
            [("a", "x"), ("a", "b")],
            depth=2,
        )
        part = assign_relevance(part, RelevanceProfile.explicit({2: 1.0}))
        # the level-1 candidate got relevance 0, so it is re-leveled to 0
        assert part.levels.tolist() == [0, 2]
        assert part.relevance.tolist() == [0.0, 1.0]
        assert part.level_counts.tolist() == [1, 0, 1]

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

    def test_assignment_is_order_independent(self, rng):
        depth = 3
        levels = np.array([3, 1, 0, 2, 2, 0, 1])
        paths, qpath = _paths_for_levels(levels, depth)
        ids = [f"c{i}" for i in range(len(levels))]
        part = assign_relevance(
            partition_from_paths("q", qpath, ids, paths, depth),
            RelevanceProfile.alpha(2.0),
        )
        perm = rng.permutation(len(levels))
        part2 = assign_relevance(
            partition_from_paths(
                "q", qpath, [ids[i] for i in perm], [paths[i] for i in perm], depth
            ),
            RelevanceProfile.alpha(2.0),
        )
        by_id = dict(zip(part.candidate_ids, part.relevance))
        by_id2 = dict(zip(part2.candidate_ids, part2.relevance))
        assert by_id == by_id2


class TestValidateRelevance:
    def test_no_warning_when_monotone(self):
        # one level-2 candidate, two level-1: rels (1, 0.25) stay ordered
        part = partition_from_paths(
            "q", ("a", "b"),
            ["c1", "c2", "c3"],
            [("a", "b"), ("a", "x"), ("a", "y")],
            depth=2,
        )
        part = assign_relevance(part, RelevanceProfile.alpha(1.0))
        assert validate_relevance(part) == []

    def test_warning_when_normalization_inverts(self):
        # ten level-2 candidates vs one level-1: 0.1 < 0.5
        paths = [("a", "b")] * 10 + [("a", "x")]
        part = partition_from_paths(
            "q", ("a", "b"), [f"c{i}" for i in range(11)], paths, depth=2
        )
        part = assign_relevance(part, RelevanceProfile.alpha(1.0))
        warnings = validate_relevance(part)
        assert len(warnings) == 1
        w = warnings[0]
        assert (w.level_hi, w.level_lo) == (2, 1)
        assert w.min_rel_hi == pytest.approx(0.1)
        assert w.max_rel_lo == pytest.approx(0.5)

    def test_single_level_no_warning(self):
        part = partition_from_paths(
            "q", ("a", "b"), ["c1", "c2"], [("a", "b"), ("a", "b")], depth=2
        )
        part = assign_relevance(part, RelevanceProfile.alpha(1.0))
        assert validate_relevance(part) == []

    def test_requires_assigned_relevance(self):
        part = partition_from_paths("q", ("a",), ["c1"], [("a",)], depth=1)
        with pytest.raises(ValueError):
            validate_relevance(part)


def _paths_for_levels(levels, depth):
    """Construct candidate paths realizing the wanted common-prefix levels."""
    qpath = tuple(f"q{l}" for l in range(depth))
    paths = []
    for i, level in enumerate(levels):
        # shared prefix of length `level`, then diverge into a unique branch
        own = tuple(f"x{i}_{j}" for j in range(depth - level))
        paths.append(qpath[:level] + own)
    return paths, qpath
