"""Synthetic hierarchical retrieval data.

Class centers form a tree-structured Gaussian walk: each child center is its
parent's center plus level-scaled isotropic noise, so classes sharing a
deeper ancestor sit closer in feature space. Instances are drawn around leaf
centers. A seeded fraction of the leaf classes becomes the open-set holdout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import RetrievalDataset
from .errors import TooFewLeavesError
from .taxonomy import parse_taxonomy


@dataclass(frozen=True)
class SynthSpec:
    """Shape and randomness of one synthetic dataset."""

    branching: tuple[int, ...] = (4, 4, 4)
    instances_per_leaf: int = 10
    dim: int = 32
    level_spread: tuple[float, ...] | None = None
    noise: float | None = None
    holdout_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "branching", tuple(int(b) for b in self.branching))
        if not self.branching or any(b < 1 for b in self.branching):
            raise ValueError("branching must be a non-empty tuple of positive ints")
        if self.instances_per_leaf < 1:
            raise ValueError("instances_per_leaf must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in [0, 1)")
        if self.level_spread is not None:
            spread = tuple(float(s) for s in self.level_spread)
            if len(spread) != len(self.branching) or not all(0 < s < math.inf for s in spread):
                raise ValueError("level_spread needs one positive finite value per level")
            if any(a <= b for a, b in zip(spread, spread[1:])):
                raise ValueError("level_spread must strictly decrease with depth")
            object.__setattr__(self, "level_spread", spread)
        if self.noise is not None and not 0 < self.noise < math.inf:
            raise ValueError("noise must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def depth(self) -> int:
        return len(self.branching)

    @property
    def num_leaves(self) -> int:
        return math.prod(self.branching)

    def spreads(self) -> tuple[float, ...]:
        if self.level_spread is not None:
            return self.level_spread
        # halve the spread per level so siblings cluster under their parent
        return tuple(2.0 * 0.5**l for l in range(self.depth))

    def instance_noise(self) -> float:
        return self.noise if self.noise is not None else 0.5 * self.spreads()[-1]


def generate(spec: SynthSpec) -> RetrievalDataset:
    """Draw one dataset; identical specs produce identical datasets."""
    if spec.num_leaves < 2:
        raise TooFewLeavesError("need at least 2 leaf classes")
    rng = np.random.default_rng(spec.seed)
    spreads = spec.spreads()

    # (path tuple, center) per node, expanded level by level in creation order
    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [
        ((), np.zeros(spec.dim))
    ]
    for level, fanout in enumerate(spec.branching):
        grown: list[tuple[tuple[str, ...], np.ndarray]] = []
        for path, center in frontier:
            for i in range(fanout):
                name = f"{path[-1]}-{i}" if path else f"n{i}"
                child = center + spreads[level] * rng.standard_normal(spec.dim)
                grown.append((path + (name,), child))
        frontier = grown

    ids: list[str] = []
    rows: list[np.ndarray] = []
    lines: list[str] = []
    for path, center in frontier:
        for i in range(spec.instances_per_leaf):
            instance_id = f"{path[-1]}#{i}"
            ids.append(instance_id)
            rows.append(center + spec.instance_noise() * rng.standard_normal(spec.dim))
            lines.append(f"{instance_id}\t{'/'.join(path)}")

    holdout: frozenset[str] = frozenset()
    if spec.holdout_fraction > 0:
        if spec.num_leaves < 4:
            raise TooFewLeavesError(
                f"{spec.num_leaves} leaf classes cannot support an open-set split"
            )
        n_hold = max(1, int(round(spec.holdout_fraction * spec.num_leaves)))
        if n_hold > spec.num_leaves - 2:
            raise TooFewLeavesError(
                f"cannot hold out {n_hold} of {spec.num_leaves} leaf classes"
            )
        picked = sorted(rng.choice(spec.num_leaves, size=n_hold, replace=False))
        holdout = frozenset(frontier[i][0][-1] for i in picked)

    taxonomy = parse_taxonomy("\n".join(lines) + "\n")
    return RetrievalDataset(taxonomy, tuple(ids), np.asarray(rows), holdout)
