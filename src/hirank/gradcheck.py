"""Finite-difference verification of the analytic gradients.

Central differences with a configurable eps, compared component-wise by
relative error |a - n| / max(|a|, |n|, 1e-6). Score configurations are
resampled until every pairwise difference clears the piecewise branch
points of the smoothed steps (and the exact steps' jump at zero) by a
safety margin, since no finite difference is meaningful across a kink.

Each check family keeps the inputs of its worst trial so a failure can be
dumped and replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .losses import (
    ProxyBank,
    SmoothHeavisideParams,
    clustering_loss,
    combined_loss,
    hap_surrogate,
    heaviside_lower,
    heaviside_upper,
    unit_rows,
    unit_rows_backprop,
)

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one family of finite-difference trials."""

    name: str
    trials: int
    max_rel_err: float
    tol: float
    worst_config: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: {self.trials} trials, "
            f"max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) {status}"
        )


class _Worst:
    """Tracks the largest error seen and the inputs that produced it."""

    def __init__(self):
        self.err = 0.0
        self.config: dict = {}

    def offer(self, err: float, config: dict) -> None:
        if err >= self.err:
            self.err = err
            self.config = config


def numeric_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array."""
    grad = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        bumped = x.copy()
        bumped.flat[i] += eps
        hi = f(bumped)
        bumped.flat[i] -= 2 * eps
        lo = f(bumped)
        grad.flat[i] = (hi - lo) / (2 * eps)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst component-wise relative error between two gradients.

    The denominator floors at 1e-6 of the largest entry (at least 1e-6
    absolute): central differences carry roundoff noise of roughly
    |f|*macheps/eps on every component regardless of its size, so entries
    many orders below the dominant one sit under the method's resolution
    and only their absolute agreement is meaningful.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.size == 0:
        return 0.0
    mag_a, mag_n = np.abs(a), np.abs(n)
    scale = max(1.0, float(mag_a.max()), float(mag_n.max()))
    denom = np.maximum(np.maximum(mag_a, mag_n), 1e-6 * scale)
    return float((np.abs(a - n) / denom).max())


def _clears_kinks(diffs: np.ndarray, params: SmoothHeavisideParams, margin: float) -> bool:
    for kink in params.kinks():
        if np.any(np.abs(np.abs(diffs) - kink) < margin):
            return False
    return True


def _safe_scores(
    rng: np.random.Generator, n: int, params: SmoothHeavisideParams, margin: float
) -> np.ndarray:
    while True:
        scores = rng.uniform(-1.0, 1.0, size=n)
        diffs = scores[None, :] - scores[:, None]
        if _clears_kinks(diffs[~np.eye(n, dtype=bool)], params, margin):
            return scores


def _random_relevance(rng: np.random.Generator, n: int) -> np.ndarray:
    values = np.array([0.0, 0.2, 0.5, 1.0])
    rel = values[rng.integers(0, len(values), size=n)]
    if not rel.any():
        rel[rng.integers(0, n)] = 1.0
    return rel


def check_heaviside(
    trials: int, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckResult:
    """Both smoothed steps: reported slope vs central differences, per branch."""
    rng = np.random.default_rng(seed)
    params = SmoothHeavisideParams()
    margin = 10 * eps
    ramp_end = (1.0 - params.mu) / params.nu
    # (side, low, high) per smooth branch, shrunk away from the kinks
    branches = [
        ("lower", -1.0, -margin),
        ("lower", margin, ramp_end - margin),
        ("lower", ramp_end + margin, 1.0),
        ("upper", -1.0, -margin),
        ("upper", margin, params.delta - margin),
        ("upper", params.delta + margin, 1.0),
    ]
    funcs = {"lower": heaviside_lower, "upper": heaviside_upper}
    worst = _Worst()
    for trial in range(trials):
        for side, low, high in branches:
            t = np.array([rng.uniform(low, high)])
            step = funcs[side]
            analytic = step(t, params)[1]
            hi = step(t + eps, params)[0]
            lo = step(t - eps, params)[0]
            numeric = (hi - lo) / (2 * eps)
            worst.offer(
                max_rel_err(analytic, numeric),
                {"check": "heaviside", "trial": trial, "side": side, "t": float(t[0])},
            )
    return CheckResult("heaviside", trials, worst.err, tol, worst.config)


def check_surrogate(
    trials: int, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckResult:
    """Ranking surrogate: analytic d_scores vs central differences."""
    rng = np.random.default_rng(seed)
    params = SmoothHeavisideParams()
    margin = 10 * eps
    worst = _Worst()
    for trial in range(trials):
        n = int(rng.integers(5, 13))
        rel = _random_relevance(rng, n)
        scores = _safe_scores(rng, n, params, margin)
        analytic = hap_surrogate(scores, rel, params).d_scores
        numeric = numeric_gradient(
            lambda s: hap_surrogate(s, rel, params).value, scores, eps
        )
        worst.offer(
            max_rel_err(analytic, numeric),
            {
                "check": "surrogate",
                "trial": trial,
                "scores": scores.tolist(),
                "relevance": rel.tolist(),
            },
        )
    return CheckResult("surrogate", trials, worst.err, tol, worst.config)


def check_clustering(
    trials: int, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckResult:
    """Clustering loss: gradients w.r.t. the embedding and every proxy."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for trial in range(trials):
        n_classes = int(rng.integers(3, 9))
        dim = int(rng.integers(4, 17))
        class_ids = tuple(f"c{i}" for i in range(n_classes))
        bank = ProxyBank.random(class_ids, dim, rng)
        target = int(rng.integers(0, n_classes))
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        config = {
            "check": "clustering",
            "trial": trial,
            "target": target,
            "embedding": v.tolist(),
            "proxies": bank.vectors.tolist(),
        }

        out = clustering_loss(v, target, bank)
        numeric_v = numeric_gradient(
            lambda x: clustering_loss(x, target, bank).value, v, eps
        )
        worst.offer(max_rel_err(out.d_embedding, numeric_v), config)

        def loss_of_proxies(flat: np.ndarray) -> float:
            trial_bank = ProxyBank(class_ids, flat.reshape(bank.vectors.shape), bank.sigma)
            return clustering_loss(v, target, trial_bank).value

        numeric_p = numeric_gradient(loss_of_proxies, bank.vectors.ravel(), eps)
        worst.offer(max_rel_err(out.d_proxies.ravel(), numeric_p), config)
    return CheckResult("clustering", trials, worst.err, tol, worst.config)


def check_cosine(
    trials: int, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckResult:
    """Cosine head: backprop through row normalization and the score matrix."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for trial in range(trials):
        b = int(rng.integers(3, 7))
        dim = int(rng.integers(3, 10))
        x = rng.standard_normal((b, dim))
        x *= rng.uniform(0.7, 1.5, size=(b, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        weight = rng.standard_normal((b, b))

        def scalar(flat: np.ndarray) -> float:
            unit, _ = unit_rows(flat.reshape(b, dim))
            return float((weight * (unit @ unit.T)).sum())

        unit, norms = unit_rows(x)
        d_unit = (weight + weight.T) @ unit
        analytic = unit_rows_backprop(unit, norms, d_unit)
        numeric = numeric_gradient(scalar, x.ravel(), eps)
        worst.offer(
            max_rel_err(analytic.ravel(), numeric),
            {
                "check": "cosine",
                "trial": trial,
                "embeddings": x.tolist(),
                "weight": weight.tolist(),
            },
        )
    return CheckResult("cosine", trials, worst.err, tol, worst.config)


def check_combined(
    trials: int, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckResult:
    """Full batch objective: gradients w.r.t. raw embeddings and proxies."""
    rng = np.random.default_rng(seed)
    params = SmoothHeavisideParams()
    # perturbing raw embeddings moves every cosine score, so demand extra
    # clearance around the kinks compared to the direct score checks
    margin = 20 * eps
    worst = _Worst()
    for trial in range(trials):
        b = int(rng.integers(4, 8))
        dim = int(rng.integers(4, 9))
        n_classes = 3
        class_ids = tuple(f"c{i}" for i in range(n_classes))
        labels = [int(rng.integers(0, n_classes)) for _ in range(b)]
        rel = np.zeros((b, b))
        for q in range(b):
            for j in range(b):
                if j != q and labels[j] == labels[q]:
                    rel[q, j] = 1.0
        off = ~np.eye(b, dtype=bool)
        while True:
            x = rng.standard_normal((b, dim))
            x *= rng.uniform(0.7, 1.5, size=(b, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
            scores = unit_rows(x)[0] @ unit_rows(x)[0].T
            per_query = [scores[q, off[q]] for q in range(b)]
            diffs = np.concatenate(
                [(s[None, :] - s[:, None])[~np.eye(b - 1, dtype=bool)] for s in per_query]
            )
            if _clears_kinks(diffs, params, margin):
                break
        bank = ProxyBank.random(class_ids, dim, rng)
        lam = 0.3
        config = {
            "check": "combined",
            "trial": trial,
            "labels": labels,
            "lambda": lam,
            "embeddings": x.tolist(),
            "proxies": bank.vectors.tolist(),
        }

        out = combined_loss(x, rel, labels, bank, lam, params)
        numeric_x = numeric_gradient(
            lambda flat: combined_loss(
                flat.reshape(b, dim), rel, labels, bank, lam, params
            ).value,
            x.ravel(),
            eps,
        )
        worst.offer(max_rel_err(out.d_embedding.ravel(), numeric_x), config)

        def loss_of_proxies(flat: np.ndarray) -> float:
            trial_bank = ProxyBank(class_ids, flat.reshape(bank.vectors.shape), bank.sigma)
            return combined_loss(x, rel, labels, trial_bank, lam, params).value

        numeric_p = numeric_gradient(loss_of_proxies, bank.vectors.ravel(), eps)
        worst.offer(max_rel_err(out.d_proxies.ravel(), numeric_p), config)
    return CheckResult("combined", trials, worst.err, tol, worst.config)


CHECKS: dict[str, Callable[..., CheckResult]] = {
    "heaviside": check_heaviside,
    "surrogate": check_surrogate,
    "clustering": check_clustering,
    "cosine": check_cosine,
    "combined": check_combined,
}


def run_checks(
    names: list[str] | None = None,
    trials: int = 100,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[CheckResult]:
    picked = names or list(CHECKS)
    return [CHECKS[name](trials, eps, tol, seed) for name in picked]
