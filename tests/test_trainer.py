import json
import math

import numpy as np
import pytest

from conftest import weighted_relevance
from hirank.dataset import RetrievalDataset
from hirank.errors import InsufficientClassesError, NonFiniteLossError
from hirank.losses import LossGradients, SmoothHeavisideParams
from hirank.synthgen import SynthSpec, generate
from hirank.taxonomy import RelevanceProfile, parse_taxonomy
from hirank.trainer import (
    EMBEDDINGS_FILE,
    HISTORY_FILE,
    REPORT_FILE,
    STATE_FILE,
    LinearModel,
    TableModel,
    TrainerConfig,
    config_from_dict,
    fit,
    history_text,
    init_state,
    pairwise_levels,
    relevance_rows,
    sample_batch,
    train_step,
    write_result,
)


def toy_dataset(branching=(2, 3), per_leaf=6, dim=5, seed=1, holdout=0.25):
    return generate(
        SynthSpec(
            branching=branching,
            instances_per_leaf=per_leaf,
            dim=dim,
            seed=seed,
            holdout_fraction=holdout,
        )
    )


def toy_config(**over):
    base = dict(
        model_kind="linear",
        dim=4,
        optimizer_kind="sgd",
        lr0=0.05,
        epochs=2,
        batch_size=8,
        m_per_class=4,
        seed=0,
        lam=0.1,
    )
    base.update(over)
    return TrainerConfig(**base)


class TestTrainerConfig:
    def test_classes_per_batch(self):
        assert toy_config(batch_size=256, m_per_class=4).classes_per_batch == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_config(model_kind="resnet")
        with pytest.raises(ValueError):
            toy_config(optimizer_kind="lion")
        with pytest.raises(ValueError):
            toy_config(batch_size=10, m_per_class=4)  # not divisible
        with pytest.raises(ValueError):
            toy_config(batch_size=4, m_per_class=4)  # single class
        with pytest.raises(ValueError):
            toy_config(lam=1.5)
        with pytest.raises(ValueError):
            toy_config(epochs=-1)
        with pytest.raises(ValueError):
            toy_config(dim=1)
        with pytest.raises(ValueError):
            toy_config(lr0=0.0)
        with pytest.raises(ValueError):
            toy_config(momentum=1.0)
        with pytest.raises(ValueError):
            toy_config(recall_ks=(0,))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("beta1", 1.0, "optimizer.beta1 must lie in [0, 1), got 1.0"),
            ("beta2", 1.5, "optimizer.beta2 must lie in [0, 1), got 1.5"),
            ("eps", 0.0, "optimizer.eps must be positive and finite, got 0.0"),
            ("lr0", math.inf, "lr0 must be positive and finite, got inf"),
            ("sigma", math.nan, "objective.sigma must be positive and finite, got nan"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_rules_name_the_key(self, field, value, message):
        with pytest.raises(ValueError) as info:
            toy_config(**{field: value})
        assert str(info.value) == message


class TestConfigFromDict:
    def test_full_document(self):
        raw = {
            "model": {"kind": "table", "dim": 16},
            "optimizer": {"kind": "sgd", "momentum": 0.5},
            "lr0": 0.2,
            "epochs": 3,
            "batch_size": 12,
            "m_per_class": 3,
            "warmup_epochs": 1,
            "seed": 11,
            "objective": {
                "lambda": 0.4,
                "sigma": 0.1,
                "profile": {"kind": "alpha", "alpha": 2.0},
                "heaviside": {"gamma": 5.0},
            },
            "eval_every": 2,
            "recall_ks": [1, 8],
        }
        cfg = config_from_dict(raw, depth=3)
        assert cfg.model_kind == "table"
        assert cfg.dim == 16
        assert cfg.optimizer_kind == "sgd"
        assert cfg.momentum == 0.5
        assert cfg.lr0 == 0.2
        assert cfg.lam == 0.4
        assert cfg.sigma == 0.1
        assert cfg.profile.alpha_value == 2.0
        assert cfg.heaviside.gamma == 5.0
        assert cfg.recall_ks == (1, 8)

    def test_empty_config_is_the_dataclass_default(self):
        assert config_from_dict({}, depth=3, in_dim=7) == TrainerConfig(in_dim=7)
        assert config_from_dict({}, depth=3) == TrainerConfig()

    def test_defaults(self):
        cfg = config_from_dict({}, depth=2, in_dim=7)
        assert cfg.model_kind == "linear"
        assert cfg.in_dim == 7
        assert cfg.optimizer_kind == "adam"
        assert cfg.profile.kind == "alpha"

    def test_profile_kinds(self):
        weighted = config_from_dict(
            {"objective": {"profile": {"kind": "weighted", "weights": [0.4, 0.6]}}},
            depth=2,
        )
        assert weighted.profile.kind == "weighted-ap"
        fine = config_from_dict(
            {"objective": {"profile": {"kind": "fine_only"}}}, depth=3
        )
        assert fine.profile.kind == "explicit"
        assert fine.profile.table[3] == 1.0
        explicit = config_from_dict(
            {"objective": {"profile": {"kind": "explicit", "table": {"1": 0.5, "2": 1.0}}}},
            depth=2,
        )
        assert explicit.profile.table == {1: 0.5, 2: 1.0}

    def test_unknown_profile_kind(self):
        with pytest.raises(ValueError):
            config_from_dict({"objective": {"profile": {"kind": "mystery"}}}, depth=2)

    def test_in_dim_null_or_absent_is_the_feature_width(self):
        assert config_from_dict({"model": {"in_dim": None}}, depth=2, in_dim=7).in_dim == 7
        assert config_from_dict({"model": {"in_dim": 7}}, depth=2, in_dim=7).in_dim == 7

    def test_in_dim_must_match_the_feature_width(self):
        with pytest.raises(ValueError, match="model.in_dim must equal the feature width 7, got 9"):
            config_from_dict({"model": {"in_dim": 9}}, depth=2, in_dim=7)
        # a table model reads no features
        config_from_dict({"model": {"kind": "table", "in_dim": 9}}, depth=2, in_dim=7)

    def test_weight_count_is_checked_against_depth(self):
        profile = {"kind": "weighted", "weights": [0.5, 0.5]}
        with pytest.raises(ValueError, match="profile has 2 weights for depth 3"):
            config_from_dict({"epochs": 0, "objective": {"profile": profile}}, depth=3)

    def test_heaviside_keys_are_its_fields(self):
        cfg = config_from_dict({"objective": {"heaviside": {"tau": 0.02, "mu": 0.25}}}, depth=2)
        assert cfg.heaviside == SmoothHeavisideParams(tau=0.02, mu=0.25)
        with pytest.raises(ValueError, match="unknown key 'taux' in objective.heaviside"):
            config_from_dict({"objective": {"heaviside": {"taux": 0.02}}}, depth=2)


class TestPairwiseStructure:
    def test_path_codes_shape(self):
        ds = toy_dataset()
        codes = ds.taxonomy.codes(ds.ids)
        assert codes.shape == (len(ds.ids), ds.taxonomy.depth)

    def test_pairwise_levels_prefixes(self):
        codes = np.array([[0, 0], [0, 0], [0, 1], [1, 0]])
        levels = pairwise_levels(codes)
        assert levels[0, 1] == 2
        assert levels[0, 2] == 1
        assert levels[0, 3] == 0
        assert levels[3, 3] == 2  # self row, masked off downstream

    def test_relevance_rows_alpha(self):
        codes = np.array([[0, 0], [0, 0], [0, 1], [1, 0]])
        levels = pairwise_levels(codes)
        rel = relevance_rows(levels, RelevanceProfile.alpha(1.0), depth=2)
        # query 0 sees levels [2, 1, 0] in the other rows
        assert rel[0, 0] == 0.0
        assert rel[0, 1] == pytest.approx(1.0)
        assert rel[0, 2] == pytest.approx(0.5)
        assert rel[0, 3] == 0.0

    def test_relevance_rows_weighted_matches_oracle(self):
        codes = np.array([[0, 0], [0, 0], [0, 1], [1, 0]])
        levels = pairwise_levels(codes)
        rel = relevance_rows(levels, RelevanceProfile.weighted_ap((0.4, 0.6)), depth=2)
        expect = weighted_relevance(np.array([2, 1, 0]), (0.4, 0.6))
        assert np.allclose(rel[0, 1:], expect, atol=1e-15)

    def test_relevance_rows_weighted_isolated_query(self):
        # a query with no in-batch positives gets all-zero relevance
        codes = np.array([[0, 0], [0, 0], [1, 0]])
        levels = pairwise_levels(codes)
        rel = relevance_rows(levels, RelevanceProfile.weighted_ap((0.4, 0.6)), depth=2)
        assert np.all(rel[2] == 0.0)

    def test_relevance_rows_explicit(self):
        codes = np.array([[0], [0], [1]])
        levels = pairwise_levels(codes)
        rel = relevance_rows(levels, RelevanceProfile.explicit({1: 0.7}), depth=1)
        assert rel[0, 1] == 0.7
        assert rel[0, 2] == 0.0


class TestInitState:
    def test_insufficient_classes(self):
        ds = toy_dataset()  # 4 training classes after the holdout
        with pytest.raises(InsufficientClassesError):
            init_state(ds, toy_config(batch_size=24, m_per_class=4))

    def test_no_train_rows(self):
        tax = parse_taxonomy("a\tx\nb\ty\n")
        ds = RetrievalDataset(tax, ("a", "b"), np.eye(2), frozenset({"x", "y"}))
        with pytest.raises(InsufficientClassesError):
            init_state(ds, toy_config(batch_size=2, m_per_class=1))

    def test_in_dim_mismatch(self):
        ds = toy_dataset(dim=5)
        with pytest.raises(ValueError):
            init_state(ds, toy_config(in_dim=9))

    def test_eval_rows_fall_back_to_train(self):
        ds = toy_dataset(holdout=0.0)
        state = init_state(ds, toy_config())
        assert np.array_equal(state.eval_rows, state.train_rows)

    def test_proxies_unit_norm(self):
        state = init_state(toy_dataset(), toy_config())
        norms = np.linalg.norm(state.bank.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)


class TestSampleBatch:
    def test_shape_and_balance(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config())
        batch = sample_batch(state, ds)
        assert len(batch) == 8
        leaves = [ds.taxonomy.leaf(i) for i in batch]
        assert len(set(leaves)) == 2  # classes drawn without replacement
        for leaf in set(leaves):
            assert leaves.count(leaf) == 4

    def test_single_instance_per_class(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(batch_size=4, m_per_class=1))
        batch = sample_batch(state, ds)
        leaves = [ds.taxonomy.leaf(i) for i in batch]
        assert len(set(leaves)) == 4

    def test_no_duplicates_when_pool_suffices(self):
        ds = toy_dataset(per_leaf=6)
        state = init_state(ds, toy_config())
        for _ in range(10):
            batch = sample_batch(state, ds)
            assert len(set(batch)) == len(batch)

    def test_replacement_when_pool_small(self):
        ds = toy_dataset(per_leaf=2)
        state = init_state(ds, toy_config(batch_size=8, m_per_class=4))
        batch = sample_batch(state, ds)  # 4 draws from 2-instance pools
        assert len(batch) == 8

    def test_never_draws_holdout(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config())
        holdout = ds.holdout_ids
        for _ in range(30):
            assert not (set(sample_batch(state, ds)) & holdout)

    def test_same_seed_same_sequence(self):
        ds = toy_dataset()
        a = init_state(ds, toy_config(seed=5))
        b = init_state(ds, toy_config(seed=5))
        seq_a = [sample_batch(a, ds) for _ in range(5)]
        seq_b = [sample_batch(b, ds) for _ in range(5)]
        assert seq_a == seq_b


class TestTrainStep:
    def test_zero_lr_leaves_params_unchanged(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(lam=0.0))
        state.step = state.total_steps  # cosine schedule bottoms out at zero
        assert state.learning_rate() == 0.0
        before = state.model.params.copy()
        proxies_before = state.bank.vectors.copy()
        out = train_step(state, ds, sample_batch(state, ds))
        assert np.array_equal(state.model.params, before)
        assert np.array_equal(state.bank.vectors, proxies_before)
        assert out.value == out.rank_value  # pure surrogate at lambda zero

    def test_sgd_step_is_exactly_minus_lr_grad(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(lam=0.0, momentum=0.0))
        batch = sample_batch(state, ds)
        rows = np.array([ds.row_of[i] for i in batch])
        weights_before = state.model.params.copy()
        lr = state.learning_rate()
        out = train_step(state, ds, batch)
        expected = weights_before - lr * (ds.features[rows].T @ out.d_embedding)
        assert np.allclose(state.model.params, expected, atol=1e-15)

    def test_warmup_freezes_table_only(self):
        ds = toy_dataset()
        cfg = toy_config(model_kind="table", warmup_epochs=1, lam=0.1)
        state = init_state(ds, cfg)
        table_before = state.model.params.copy()
        proxies_before = state.bank.vectors.copy()
        assert state.in_warmup
        train_step(state, ds, sample_batch(state, ds))
        assert np.array_equal(state.model.params, table_before)
        assert not np.array_equal(state.bank.vectors, proxies_before)

    def test_warmup_keeps_linear_head_training(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(warmup_epochs=1))
        weights_before = state.model.params.copy()
        assert state.in_warmup
        train_step(state, ds, sample_batch(state, ds))
        assert not np.array_equal(state.model.params, weights_before)

    def test_proxies_stay_unit_norm(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(optimizer_kind="adam", lr0=0.1))
        for _ in range(5):
            train_step(state, ds, sample_batch(state, ds))
        norms = np.linalg.norm(state.bank.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_nonfinite_loss_aborts(self, monkeypatch):
        ds = toy_dataset()
        state = init_state(ds, toy_config())
        monkeypatch.setattr(
            "hirank.trainer.combined_loss",
            lambda *a, **k: LossGradients(value=float("nan")),
        )
        with pytest.raises(NonFiniteLossError):
            train_step(state, ds, sample_batch(state, ds))

    @pytest.mark.parametrize("gradient", ["d_embedding", "d_proxies"])
    def test_nonfinite_gradient_aborts(self, monkeypatch, gradient):
        ds = toy_dataset()
        state = init_state(ds, toy_config())
        batch = sample_batch(state, ds)
        grads = {
            "d_embedding": np.zeros((len(batch), state.config.dim)),
            "d_proxies": np.zeros_like(state.bank.vectors),
        }
        grads[gradient][0, 0] = float("nan")
        monkeypatch.setattr(
            "hirank.trainer.combined_loss", lambda *a, **k: LossGradients(value=0.5, **grads)
        )
        with pytest.raises(NonFiniteLossError, match=f"step {state.step}: the .* gradient"):
            train_step(state, ds, batch)

    def test_toy_table_loss_decreases_over_50_steps(self):
        ds = toy_dataset(branching=(3,), per_leaf=4, dim=6, holdout=0.0)
        cfg = toy_config(
            model_kind="table",
            dim=4,
            batch_size=6,
            m_per_class=2,
            epochs=25,  # 2 steps per epoch over 12 instances
            lr0=0.05,
            optimizer_kind="adam",
        )
        result = fit(ds, cfg)
        assert result.state.step == 50
        assert result.history[-1]["loss"] < result.history[0]["loss"]


class TestSchedule:
    def test_endpoints(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(lr0=0.3, epochs=4))
        assert state.learning_rate() == 0.3
        state.step = state.total_steps
        assert state.learning_rate() == 0.0
        state.step = state.total_steps // 2
        assert 0.0 < state.learning_rate() < 0.3

    def test_zero_epochs_guard(self):
        ds = toy_dataset()
        state = init_state(ds, toy_config(epochs=0, lr0=0.3))
        assert state.total_steps == 0
        assert state.learning_rate() == 0.3


class TestFit:
    def test_zero_epochs_single_eval(self):
        ds = toy_dataset()
        result = fit(ds, toy_config(epochs=0))
        assert len(result.history) == 1
        record = result.history[0]
        assert record["epoch"] == 0
        assert record["step"] == 0
        assert "loss" not in record
        assert "h_ap" in record and "lr" in record

    def test_history_records_losses(self):
        ds = toy_dataset()
        result = fit(ds, toy_config(epochs=2))
        assert len(result.history) == 2
        for record in result.history:
            for key in ("loss", "rank_loss", "cluster_loss", "skipped_queries"):
                assert key in record

    def test_eval_every(self):
        ds = toy_dataset()
        result = fit(ds, toy_config(epochs=5, eval_every=2))
        assert [r["epoch"] for r in result.history] == [2, 4, 5]

    def test_seed_determinism_bitwise(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=3, seed=21)
        hist_a = history_text(fit(ds, cfg).history)
        hist_b = history_text(fit(ds, cfg).history)
        assert hist_a == hist_b

    def test_different_seeds_differ(self):
        ds = toy_dataset()
        hist_a = history_text(fit(ds, toy_config(seed=1)).history)
        hist_b = history_text(fit(ds, toy_config(seed=2)).history)
        assert hist_a != hist_b

    def test_embeddings_cover_all_instances(self):
        ds = toy_dataset()
        result = fit(ds, toy_config(epochs=1))
        assert result.ids == ds.ids
        assert result.embeddings.shape == (len(ds.ids), 4)

    def test_log_callback_runs(self):
        ds = toy_dataset()
        lines: list[str] = []
        fit(ds, toy_config(epochs=1), log=lines.append)
        assert len(lines) == 1
        assert "h_ap" in lines[0]


class TestWriteResult:
    def test_files_and_contents(self, tmp_path):
        ds = toy_dataset()
        result = fit(ds, toy_config(epochs=1, seed=4))
        write_result(result, tmp_path)
        for name in (HISTORY_FILE, EMBEDDINGS_FILE, STATE_FILE, REPORT_FILE):
            assert (tmp_path / name).exists()
        assert (tmp_path / HISTORY_FILE).read_text() == history_text(result.history)
        sidecar = json.loads((tmp_path / STATE_FILE).read_text())
        assert sidecar["model"] == "linear"
        assert sidecar["seed"] == 4
        assert set(sidecar["proxies"]) == set(result.bank.class_ids)
        report = json.loads((tmp_path / REPORT_FILE).read_text())
        assert list(report)[:3] == ["queries", "excluded", "h_ap"]

    def test_history_lines_parse(self, tmp_path):
        ds = toy_dataset()
        write_result(fit(ds, toy_config(epochs=2)), tmp_path)
        lines = (tmp_path / HISTORY_FILE).read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)
