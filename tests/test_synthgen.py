import itertools

import numpy as np
import pytest

from conftest import oracle_ancestor_level
from hirank.dataset import FEATURES_FILE, TAXONOMY_FILE, write_dataset
from hirank.errors import TooFewLeavesError
from hirank.synthgen import SynthSpec, generate


class TestSynthSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.depth == 3
        assert spec.num_leaves == 64
        assert spec.spreads() == (2.0, 1.0, 0.5)
        assert spec.instance_noise() == 0.25

    def test_spread_must_decrease(self):
        with pytest.raises(ValueError):
            SynthSpec(branching=(2, 2), level_spread=(1.0, 1.0))
        with pytest.raises(ValueError):
            SynthSpec(branching=(2, 2), level_spread=(0.5, 1.0))

    def test_spread_arity(self):
        with pytest.raises(ValueError):
            SynthSpec(branching=(2, 2), level_spread=(1.0,))

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            SynthSpec(branching=())
        with pytest.raises(ValueError):
            SynthSpec(branching=(2, 0))
        with pytest.raises(ValueError):
            SynthSpec(instances_per_leaf=0)
        with pytest.raises(ValueError):
            SynthSpec(holdout_fraction=1.0)

    def test_dim_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            SynthSpec(dim=0)


class TestGenerate:
    def test_shape_two_by_two(self):
        ds = generate(SynthSpec(branching=(2, 2), instances_per_leaf=5, dim=6))
        assert ds.taxonomy.depth == 2
        assert len({ds.taxonomy.leaf(i) for i in ds.ids}) == 4
        assert len(ds.ids) == 20
        assert ds.features.shape == (20, 6)
        assert np.all(np.isfinite(ds.features))

    def test_a_holdout_leaving_fewer_than_two_training_leaves_is_rejected(self):
        with pytest.raises(TooFewLeavesError, match="^cannot hold out 4 of 4 leaf classes$"):
            generate(SynthSpec(branching=(2, 2), holdout_fraction=0.9))

    def test_holdout_is_disjoint_leaf_classes(self):
        ds = generate(SynthSpec(branching=(3, 3), instances_per_leaf=4, dim=5))
        assert len(ds.holdout_classes) == round(0.25 * 9)
        train_leaves = {ds.taxonomy.leaf(i) for i in ds.ids if i not in ds.holdout_ids}
        assert not (train_leaves & ds.holdout_classes)
        # every held-out class keeps all of its instances together
        for label in ds.holdout_classes:
            members = [i for i in ds.ids if ds.taxonomy.leaf(i) == label]
            assert set(members) <= ds.holdout_ids

    def test_same_seed_identical_files(self, tmp_path):
        spec = SynthSpec(branching=(2, 3), instances_per_leaf=3, dim=4, seed=9)
        write_dataset(generate(spec), tmp_path / "a")
        write_dataset(generate(spec), tmp_path / "b")
        for name in (TAXONOMY_FILE, FEATURES_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_different_seed_differs(self):
        base = SynthSpec(branching=(2, 2), instances_per_leaf=3, dim=4, seed=0)
        other = SynthSpec(branching=(2, 2), instances_per_leaf=3, dim=4, seed=1)
        assert not np.array_equal(generate(base).features, generate(other).features)

    def test_coarse_centroids_beat_chance(self):
        spec = SynthSpec(
            branching=(4, 4), instances_per_leaf=10, dim=16, seed=3,
            holdout_fraction=0.0,
        )
        ds = generate(spec)
        roots = sorted({ds.taxonomy.path(i)[0] for i in ds.ids})
        centroids = np.stack([
            ds.features[[ds.taxonomy.path(i)[0] == r for i in ds.ids]].mean(axis=0)
            for r in roots
        ])
        dist = np.linalg.norm(ds.features[:, None, :] - centroids[None], axis=2)
        predicted = np.argmin(dist, axis=1)
        truth = np.array([roots.index(ds.taxonomy.path(i)[0]) for i in ds.ids])
        accuracy = float((predicted == truth).mean())
        assert accuracy > 1.0 / 4.0

    def test_distance_shrinks_with_shared_depth(self):
        spec = SynthSpec(
            branching=(3, 3, 3), instances_per_leaf=8, dim=24, seed=5,
            holdout_fraction=0.0,
        )
        ds = generate(spec)
        leaves = sorted({ds.taxonomy.leaf(i) for i in ds.ids})
        mean_of = {}
        path_of = {}
        for leaf in leaves:
            rows = [r for r, i in enumerate(ds.ids) if ds.taxonomy.leaf(i) == leaf]
            mean_of[leaf] = ds.features[rows].mean(axis=0)
            path_of[leaf] = ds.taxonomy.path(ds.ids[rows[0]])
        by_shared: dict[int, list[float]] = {0: [], 1: [], 2: []}
        for a, b in itertools.combinations(leaves, 2):
            shared = oracle_ancestor_level(path_of[a], path_of[b])
            by_shared[shared].append(float(np.linalg.norm(mean_of[a] - mean_of[b])))
        means = [np.mean(by_shared[s]) for s in (0, 1, 2)]
        assert means[0] > means[1] > means[2]

    def test_too_few_leaves(self):
        with pytest.raises(TooFewLeavesError):
            generate(SynthSpec(branching=(1,), instances_per_leaf=2))
        with pytest.raises(TooFewLeavesError):
            # a 2-leaf tree cannot give up a class and stay trainable
            generate(SynthSpec(branching=(2,), instances_per_leaf=2))

    def test_small_tree_ok_without_holdout(self):
        ds = generate(
            SynthSpec(branching=(2,), instances_per_leaf=2, holdout_fraction=0.0)
        )
        assert len(ds.ids) == 4
        assert ds.holdout_classes == frozenset()
