"""Finite-difference verification of the analytic gradients.

Central differences with a configurable eps, compared component-wise by
relative error |a - n| / max(|a|, |n|, 1e-6). Score configurations are
resampled until every pairwise difference clears the piecewise branch
points of the smoothed steps (and the exact steps' jump at zero) by a
safety margin, since no finite difference is meaningful across a kink.

Each check family is a generator `(rng, trials, eps)` that yields, for
every gradient it tests, the analytic gradient, its central-difference
estimate and the inputs that replay the trial. `run_checks` is the one
driver: it seeds each family, scores every yield by `max_rel_err`, and
keeps the inputs of the worst one so a failure can be dumped and
replayed exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
# combined_trials keeps every score gap 20 eps away from each kink; from this
# eps on, the margins around the two nearest kinks meet and no draw clears them
MAX_EPS = float(np.diff(sorted(SmoothHeavisideParams().kinks())).min()) / (2 * 20)

# (analytic gradient, numeric gradient, replay inputs) of one tested gradient
Trial = tuple[np.ndarray, np.ndarray, dict]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one family of finite-difference trials."""

    name: str
    trials: int
    max_rel_err: float
    tol: float
    eps: float
    seed: int
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

    def replay_line(self) -> str:
        """The worst trial's inputs with the seed, eps and tol that replay it."""
        replay = {**self.worst_config, "seed": self.seed, "eps": self.eps, "tol": self.tol}
        return f"replay: {json.dumps(replay, sort_keys=True)}"


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


def _clears_kinks(rows: np.ndarray, params: SmoothHeavisideParams, margin: float) -> bool:
    """True when no two scores of any row of the (m, n) `rows` differ by a kink +- margin."""
    n = rows.shape[1]
    gaps = np.abs((rows[:, None, :] - rows[:, :, None])[:, ~np.eye(n, dtype=bool)])
    return not any(np.any(np.abs(gaps - kink) < margin) for kink in params.kinks())


def _embedding_rows(rng: np.random.Generator, b: int, dim: int) -> np.ndarray:
    """`b` random rows of width `dim` with norms drawn from [0.7, 1.5)."""
    x = rng.standard_normal((b, dim))
    x *= rng.uniform(0.7, 1.5, size=(b, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _proxy_gradient(
    loss_of_bank: Callable[[ProxyBank], float], bank: ProxyBank, eps: float
) -> np.ndarray:
    """Central differences of `loss_of_bank` w.r.t. every proxy entry, flat."""

    def loss_of_proxies(flat: np.ndarray) -> float:
        trial_bank = ProxyBank(bank.class_ids, flat.reshape(bank.vectors.shape), bank.sigma)
        return loss_of_bank(trial_bank)

    return numeric_gradient(loss_of_proxies, bank.vectors.ravel(), eps)


def heaviside_trials(rng: np.random.Generator, trials: int, eps: float) -> Iterator[Trial]:
    """Both smoothed steps: reported slope vs central differences, per branch."""
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
    for trial in range(trials):
        for side, low, high in branches:
            t = np.array([rng.uniform(low, high)])
            step = funcs[side]
            # (f(t + eps) - f(t - eps)): numeric_gradient's t + eps - 2 eps rounds differently
            numeric = (step(t + eps, params)[0] - step(t - eps, params)[0]) / (2 * eps)
            yield step(t, params)[1], numeric, {"trial": trial, "side": side, "t": float(t[0])}


def surrogate_trials(rng: np.random.Generator, trials: int, eps: float) -> Iterator[Trial]:
    """Ranking surrogate: analytic d_scores vs central differences."""
    params = SmoothHeavisideParams()
    margin = 10 * eps
    values = np.array([0.0, 0.2, 0.5, 1.0])
    for trial in range(trials):
        n = int(rng.integers(5, 13))
        rel = values[rng.integers(0, len(values), size=n)]
        if not rel.any():
            rel[rng.integers(0, n)] = 1.0
        while True:
            scores = rng.uniform(-1.0, 1.0, size=n)
            if _clears_kinks(scores[None, :], params, margin):
                break
        numeric = numeric_gradient(lambda s: hap_surrogate(s, rel, params).value, scores, eps)
        yield (
            hap_surrogate(scores, rel, params).d_scores,
            numeric,
            {"trial": trial, "scores": scores.tolist(), "relevance": rel.tolist()},
        )


def clustering_trials(rng: np.random.Generator, trials: int, eps: float) -> Iterator[Trial]:
    """Clustering loss: gradients w.r.t. the embedding and every proxy."""
    for trial in range(trials):
        n_classes = int(rng.integers(3, 9))
        dim = int(rng.integers(4, 17))
        bank = ProxyBank.random(tuple(f"c{i}" for i in range(n_classes)), dim, rng)
        target = int(rng.integers(0, n_classes))
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        config = {
            "trial": trial,
            "target": target,
            "embedding": v.tolist(),
            "proxies": bank.vectors.tolist(),
        }

        out = clustering_loss(v, target, bank)
        numeric_v = numeric_gradient(lambda x: clustering_loss(x, target, bank).value, v, eps)
        yield out.d_embedding, numeric_v, config
        numeric_p = _proxy_gradient(lambda pb: clustering_loss(v, target, pb).value, bank, eps)
        yield out.d_proxies.ravel(), numeric_p, config


def cosine_trials(rng: np.random.Generator, trials: int, eps: float) -> Iterator[Trial]:
    """Cosine head: backprop through row normalization and the score matrix."""
    for trial in range(trials):
        b = int(rng.integers(3, 7))
        dim = int(rng.integers(3, 10))
        x = _embedding_rows(rng, b, dim)
        weight = rng.standard_normal((b, b))

        def scalar(flat: np.ndarray) -> float:
            unit, _ = unit_rows(flat.reshape(b, dim))
            return float((weight * (unit @ unit.T)).sum())

        unit, norms = unit_rows(x)
        analytic = unit_rows_backprop(unit, norms, (weight + weight.T) @ unit)
        yield (
            analytic.ravel(),
            numeric_gradient(scalar, x.ravel(), eps),
            {"trial": trial, "embeddings": x.tolist(), "weight": weight.tolist()},
        )


def combined_trials(rng: np.random.Generator, trials: int, eps: float) -> Iterator[Trial]:
    """Full batch objective: gradients w.r.t. raw embeddings and proxies."""
    params = SmoothHeavisideParams()
    # perturbing raw embeddings moves every cosine score, so demand extra
    # clearance around the kinks compared to the direct score checks
    margin = 20 * eps
    lam = 0.3
    for trial in range(trials):
        b = int(rng.integers(4, 8))
        dim = int(rng.integers(4, 9))
        n_classes = 3
        labels = [int(rng.integers(0, n_classes)) for _ in range(b)]
        off = ~np.eye(b, dtype=bool)
        label_array = np.asarray(labels)
        rel = ((label_array[:, None] == label_array) & off).astype(np.float64)
        while True:
            x = _embedding_rows(rng, b, dim)
            unit = unit_rows(x)[0]
            if _clears_kinks((unit @ unit.T)[off].reshape(b, b - 1), params, margin):
                break
        bank = ProxyBank.random(tuple(f"c{i}" for i in range(n_classes)), dim, rng)
        config = {
            "trial": trial,
            "labels": labels,
            "lambda": lam,
            "embeddings": x.tolist(),
            "proxies": bank.vectors.tolist(),
        }

        out = combined_loss(x, rel, labels, bank, lam, params)
        numeric_x = numeric_gradient(
            lambda flat: combined_loss(flat.reshape(b, dim), rel, labels, bank, lam, params).value,
            x.ravel(),
            eps,
        )
        yield out.d_embedding.ravel(), numeric_x, config
        numeric_p = _proxy_gradient(
            lambda pb: combined_loss(x, rel, labels, pb, lam, params).value, bank, eps
        )
        yield out.d_proxies.ravel(), numeric_p, config


CHECKS: dict[str, Callable[[np.random.Generator, int, float], Iterator[Trial]]] = {
    "heaviside": heaviside_trials,
    "surrogate": surrogate_trials,
    "clustering": clustering_trials,
    "cosine": cosine_trials,
    "combined": combined_trials,
}


def run_checks(
    names: list[str] | None = None,
    trials: int = 100,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[CheckResult]:
    """Run each named family (all by default) from a generator seeded with `seed`.

    A family's result carries its largest `max_rel_err` and the replay inputs
    of the last yield that reached it. A bad argument raises a ValueError
    that names it.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < eps < MAX_EPS:
        raise ValueError(f"eps must lie in (0, {MAX_EPS:g}), got {eps!r}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for name in names or ():
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}, expected one of {', '.join(CHECKS)}")
    results = []
    for name in names or list(CHECKS):
        worst_err, worst_config = 0.0, {}
        for analytic, numeric, config in CHECKS[name](np.random.default_rng(seed), trials, eps):
            err = max_rel_err(analytic, numeric)
            if err >= worst_err:
                worst_err, worst_config = err, {"check": name, **config}
        results.append(CheckResult(name, trials, worst_err, tol, eps, seed, worst_config))
    return results
