import math
import warnings

import numpy as np
import pytest

from conftest import make_ranking, oracle_binary_ap
from hirank.errors import (
    NonFiniteLossError,
    NoPositivesError,
    UnknownClassError,
    ZeroVectorError,
)
from hirank.gradcheck import numeric_gradient, run_checks
from hirank.losses import (
    LossGradients,
    ProxyBank,
    SmoothHeavisideParams,
    clustering_loss,
    combined_loss,
    cosine_matrix,
    hap_surrogate,
    heaviside_lower,
    heaviside_upper,
    unit_rows,
    unit_rows_backprop,
)
from hirank.metrics import h_ap
from hirank.synthgen import SynthSpec, generate
from hirank.trainer import TrainerConfig, init_state

DEFAULTS = SmoothHeavisideParams()


class TestSmoothHeavisideParams:
    def test_defaults(self):
        assert (DEFAULTS.gamma, DEFAULTS.nu, DEFAULTS.mu) == (10.0, 25.0, 0.5)
        assert (DEFAULTS.tau, DEFAULTS.rho, DEFAULTS.delta) == (0.01, 100.0, 0.05)

    def test_kinks(self):
        assert DEFAULTS.kinks() == (0.0, 0.02, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothHeavisideParams(gamma=-1.0)
        with pytest.raises(ValueError):
            SmoothHeavisideParams(mu=1.5)
        with pytest.raises(ValueError):
            SmoothHeavisideParams(tau=0.0)

    @pytest.mark.parametrize("name", ["gamma", "nu", "mu", "tau", "rho", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            SmoothHeavisideParams(**{name: value})


class TestHeavisideLower:
    def test_origin(self):
        value, slope = heaviside_lower(0.0)
        assert value == 0.5
        assert slope == 25.0

    def test_saturated(self):
        value, slope = heaviside_lower(1.0)
        assert value == 1.0
        assert slope == 0.0

    def test_negative_branch(self):
        value, slope = heaviside_lower(-0.1)
        assert value == pytest.approx(-1.0, abs=1e-15)
        assert slope == 10.0

    def test_ramp_slope(self):
        _, slope = heaviside_lower(0.01)
        assert slope == 25.0

    def test_vectorized(self):
        value, slope = heaviside_lower(np.array([-0.1, 0.0, 1.0]))
        assert value.shape == slope.shape == (3,)

    def test_stays_at_or_below_step(self):
        # the exact step this profile bounds counts ties as hits: H(0) = 1
        t = np.linspace(-2.0, 2.0, 4001)
        value, _ = heaviside_lower(t)
        step = (t >= 0).astype(float)
        assert np.all(value <= step + 1e-12)


# the logistic sigmoid at 5 = delta / tau, from the definition
SIGMOID_5 = 1.0 / (1.0 + math.exp(-5.0))


class TestHeavisideUpper:
    def test_far_negative_vanishes(self):
        value, _ = heaviside_upper(-1.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_origin_jump(self):
        value, _ = heaviside_upper(0.0)
        assert value == 1.0

    def test_at_margin(self):
        value, _ = heaviside_upper(0.05)
        assert value == pytest.approx(SIGMOID_5 + 0.5, abs=1e-12)
        assert value == pytest.approx(1.4933, abs=1e-4)

    def test_linear_tail(self):
        value, slope = heaviside_upper(0.1)
        assert value == pytest.approx(100.0 * 0.05 + SIGMOID_5 + 0.5, abs=1e-12)
        assert value == pytest.approx(6.4933, abs=1e-4)
        assert slope == 100.0

    def test_stays_at_or_above_step(self):
        # the exact step this profile bounds ignores ties: H(0) = 0
        t = np.linspace(-2.0, 2.0, 4001)
        value, _ = heaviside_upper(t)
        step = (t > 0).astype(float)
        assert np.all(value >= step - 1e-12)

    @pytest.mark.parametrize("t", [-1e5, -1e3, 1e3, 1e5])
    def test_extreme_differences_stay_finite(self, t):
        # raw scores are unbounded, so t / tau can reach 1e7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, slope = heaviside_upper(np.array([t]))
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(slope))
        if t < 0:
            assert value[0] == 0.0 and slope[0] == 0.0
        else:
            assert slope[0] == 100.0


class TestHapSurrogate:
    def test_singleton_positive(self):
        out = hap_surrogate(np.array([3.0]), np.array([1.0]))
        assert out.value == 0.0
        assert np.all(out.d_scores == 0.0)

    def test_bounds_fixture_loss(self, fixture_875):
        out = hap_surrogate(fixture_875.scores, fixture_875.relevance)
        assert out.value >= (1.0 - 0.875) - 1e-12

    def test_bounds_random_losses(self, rng):
        for _ in range(100):
            r = make_ranking(rng, int(rng.integers(2, 30)), int(rng.integers(1, 4)))
            out = hap_surrogate(r.scores, r.relevance)
            assert out.value >= (1.0 - h_ap(r)) - 1e-12

    def test_equal_relevance_has_no_gradient(self):
        out = hap_surrogate(
            np.array([3.0, 1.7, 0.4]), np.array([0.5, 0.5, 0.5])
        )
        # any order of an all-equal list is ideal, so the loss sits at zero
        assert out.value == 0.0
        assert np.all(out.d_scores == 0.0)

    def test_equal_group_in_mixed_list(self):
        # swapping scores inside an equal-relevance group relabels exact-step
        # terms without touching any smooth branch: the value cannot move
        rel = np.array([0.5, 0.5, 1.0])
        base = hap_surrogate(np.array([3.0, 2.0, 1.0]), rel).value
        swapped = hap_surrogate(np.array([2.0, 3.0, 1.0]), rel).value
        assert swapped == pytest.approx(base, abs=1e-12)

    def test_gradient_signs(self):
        # positive below a strictly less relevant candidate: pull it up,
        # push the intruder down
        out = hap_surrogate(np.array([2.0, 1.0]), np.array([0.2, 1.0]))
        assert out.d_scores[1] < 0
        assert out.d_scores[0] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_rejects_relevance_that_is_negative_or_not_finite(self, bad):
        with pytest.raises(ValueError, match="^relevance must be non-negative and finite$"):
            hap_surrogate(np.array([3.0, 2.0, 1.0]), np.array([1.0, bad, 0.0]))

    def test_rejects_a_nan_score(self):
        with pytest.raises(ValueError, match="^scores must be finite$"):
            hap_surrogate(np.array([3.0, np.nan, 1.0]), np.array([1.0, 0.5, 0.0]))

    def test_negative_above_positive_signs(self):
        out = hap_surrogate(np.array([2.0, 1.0]), np.array([0.0, 1.0]))
        assert out.d_scores[1] < 0
        assert out.d_scores[0] > 0

    def test_matches_finite_differences(self):
        result = run_checks(["surrogate"], trials=20, seed=7)[0]
        assert result.passed, result.line()

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            hap_surrogate(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hap_surrogate(np.array([1.0, 2.0]), np.array([1.0]))


class TestProxyBank:
    def test_random_is_unit_norm(self, rng):
        bank = ProxyBank.random(["a", "b", "c"], 16, rng)
        assert np.allclose(np.linalg.norm(bank.vectors, axis=1), 1.0, atol=1e-12)

    def test_index_lookup(self):
        # a training row's integer label indexes its leaf class's proxy
        ds = generate(SynthSpec(branching=(2, 3), instances_per_leaf=4, dim=5, seed=1))
        state = init_state(ds, TrainerConfig(batch_size=8, m_per_class=4))
        for row in state.train_rows:
            assert state.bank.class_ids[state.labels[row]] == ds.taxonomy.leaf(ds.ids[row])
        assert np.all(np.delete(state.labels, state.train_rows) == -1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ProxyBank(("a", "a"), np.eye(2))

    def test_more_vectors_than_class_ids_rejected(self):
        with pytest.raises(ValueError, match="^one vector per class id required$"):
            ProxyBank(("a",), np.eye(2))

    def test_zero_vector_rejected(self):
        bank = ProxyBank(("a", "b"), np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ZeroVectorError):
            bank.renormalize()

    def test_vector_of_nonfinite_norm_rejected(self):
        # the squares overflow, so the norm is inf and every row would become 0
        bank = ProxyBank(("a", "b"), np.array([[1.0, 0.0], [1e200, 1e200]]))
        with pytest.raises(NonFiniteLossError, match="proxy vector norm is not finite"):
            bank.renormalize()

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            ProxyBank(("a",), np.eye(1), sigma=0.0)


class TestClusteringLoss:
    def test_single_proxy_is_free(self):
        bank = ProxyBank(("only",), np.array([[1.0, 0.0]]))
        out = clustering_loss(np.array([1.0, 0.0]), 0, bank)
        assert out.value == 0.0
        assert np.allclose(out.d_embedding, 0.0, atol=1e-15)
        assert np.allclose(out.d_proxies, 0.0, atol=1e-15)

    def test_orthogonal_pair_value(self):
        bank = ProxyBank(("a", "b"), np.eye(2), sigma=0.05)
        out = clustering_loss(np.array([1.0, 0.0]), 0, bank)
        expected = float(np.log1p(np.exp(-20.0)))
        assert out.value == pytest.approx(expected, rel=1e-12)
        assert out.value == pytest.approx(2.06e-9, rel=1e-2)

    def test_overflow_safe(self):
        bank = ProxyBank(("a", "b"), np.eye(2), sigma=1e-4)
        out = clustering_loss(np.array([1.0, 0.0]), 0, bank)
        assert np.isfinite(out.value)
        assert np.all(np.isfinite(out.d_embedding))

    def test_rotation_invariance(self, rng):
        dim = 8
        bank = ProxyBank.random([f"c{i}" for i in range(5)], dim, rng)
        v, _ = unit_rows(rng.standard_normal((1, dim)))
        v = v[0]
        q_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rotated = ProxyBank(bank.class_ids, bank.vectors @ q_mat.T, bank.sigma)
        base = clustering_loss(v, 2, bank).value
        spun = clustering_loss(q_mat @ v, 2, rotated).value
        assert spun == pytest.approx(base, abs=1e-12)

    def test_bad_class_index(self, rng):
        bank = ProxyBank.random(["a", "b"], 4, rng)
        with pytest.raises(UnknownClassError):
            clustering_loss(np.zeros(4), 2, bank)

    def test_matches_finite_differences(self):
        result = run_checks(["clustering"], trials=20, seed=7)[0]
        assert result.passed, result.line()


class TestCosineScores:
    def test_identical_rows_score_one(self):
        scores, _, _ = cosine_matrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert scores[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_score_zero(self):
        scores, _, _ = cosine_matrix(np.array([[1.0, 0.0], [0.0, 3.0]]))
        assert scores[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("row", [[1e200, 1e200], [np.inf, 0.0], [np.nan, 1.0]],
                             ids=["overflow", "inf", "nan"])
    def test_row_of_nonfinite_norm_rejected(self, row):
        with pytest.raises(NonFiniteLossError, match="embedding norm is not finite"):
            unit_rows(np.array([[1.0, 0.0], row]))

    def test_grad_op_matches_finite_differences(self, rng):
        # row 1 queries the others; as in combined_loss, a gradient D on the
        # score matrix reaches the unit rows as (D + D^T) @ unit
        emb = rng.standard_normal((4, 3))
        weights = rng.standard_normal(3)
        others = np.arange(4) != 1

        def f(flat):
            scores, _, _ = cosine_matrix(flat.reshape(4, 3))
            return float(weights @ scores[1, others])

        _, unit, norms = cosine_matrix(emb)
        d_scores = np.zeros((4, 4))
        d_scores[1, others] = weights
        analytic = unit_rows_backprop(unit, norms, (d_scores + d_scores.T) @ unit)
        numeric = numeric_gradient(f, emb.ravel(), eps=1e-6).reshape(4, 3)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_family_check(self):
        result = run_checks(["cosine"], trials=20, seed=7)[0]
        assert result.passed, result.line()

    def test_backprop_is_tangent(self, rng):
        # gradient through row normalization has no radial component
        raw = rng.standard_normal((3, 5))
        unit, norms = unit_rows(raw)
        d_unit = rng.standard_normal((3, 5))
        back = unit_rows_backprop(unit, norms, d_unit)
        radial = (back * raw).sum(axis=1)
        assert np.allclose(radial, 0.0, atol=1e-12)


def batch_fixture(rng, b=6, dim=5, classes=3):
    emb = rng.standard_normal((b, dim))
    labels = [i % classes for i in range(b)]
    rel = np.array(
        [[1.0 if labels[i] == labels[j] else 0.0 for j in range(b)] for i in range(b)]
    )
    np.fill_diagonal(rel, 0.0)
    bank = ProxyBank.random([f"c{c}" for c in sorted(set(labels))], dim, rng)
    return emb, rel, labels, bank


class TestCombinedLoss:
    def test_rank_endpoint(self, rng):
        emb, rel, labels, bank = batch_fixture(rng)
        out = combined_loss(emb, rel, labels, bank, lam=0.0)
        scores, _, _ = cosine_matrix(emb)
        b = emb.shape[0]
        manual = []
        for q in range(b):
            mask = np.arange(b) != q
            manual.append(hap_surrogate(scores[q, mask], rel[q, mask]).value)
        assert out.value == pytest.approx(float(np.mean(manual)), abs=1e-15)
        assert out.value == out.rank_value
        assert np.all(out.d_proxies == 0.0)

    def test_cluster_endpoint(self, rng):
        emb, rel, labels, bank = batch_fixture(rng)
        out = combined_loss(emb, rel, labels, bank, lam=1.0)
        unit, _ = unit_rows(emb)
        manual = [
            clustering_loss(unit[i], labels[i], bank).value
            for i in range(emb.shape[0])
        ]
        assert out.value == pytest.approx(float(np.mean(manual)), abs=1e-15)
        assert out.value == out.cluster_value

    def test_value_is_linear_in_lambda(self, rng):
        emb, rel, labels, bank = batch_fixture(rng)
        lo = combined_loss(emb, rel, labels, bank, lam=0.0)
        hi = combined_loss(emb, rel, labels, bank, lam=1.0)
        mid = combined_loss(emb, rel, labels, bank, lam=0.3)
        assert mid.value == pytest.approx(0.7 * lo.value + 0.3 * hi.value, abs=1e-12)

    def test_skips_positive_free_queries(self, rng):
        emb, rel, labels, bank = batch_fixture(rng)
        rel[0, :] = 0.0
        out = combined_loss(emb, rel, labels, bank, lam=0.5)
        assert out.skipped_queries == 1

    def test_validation(self, rng):
        emb, rel, labels, bank = batch_fixture(rng)
        with pytest.raises(ValueError):
            combined_loss(emb, rel, labels, bank, lam=1.5)
        with pytest.raises(ValueError):
            combined_loss(emb, rel[:3, :3], labels, bank)
        with pytest.raises(ValueError):
            combined_loss(emb, rel, labels[:-1], bank)
        for bad in (np.nan, np.inf):
            off_diagonal = rel.copy()
            off_diagonal[0, 1] = bad
            with pytest.raises(ValueError, match="^relevance must be non-negative and finite$"):
                combined_loss(emb, off_diagonal, labels, bank)
        # the diagonal is ignored, whatever it holds
        on_diagonal = rel.copy()
        on_diagonal[0, 0] = np.nan
        ignored = combined_loss(emb, on_diagonal, labels, bank)
        assert ignored.value == combined_loss(emb, rel, labels, bank).value

    def test_matches_finite_differences(self):
        result = run_checks(["combined"], trials=8, seed=7)[0]
        assert result.passed, result.line()

    def test_heaviside_family_check(self):
        result = run_checks(["heaviside"], trials=30, seed=7)[0]
        assert result.passed, result.line()

    def test_gradients_shapes(self, rng):
        emb, rel, labels, bank = batch_fixture(rng)
        out = combined_loss(emb, rel, labels, bank, lam=0.2)
        assert isinstance(out, LossGradients)
        assert out.d_embedding.shape == emb.shape
        assert out.d_proxies.shape == bank.vectors.shape
        assert np.isfinite(out.value)
