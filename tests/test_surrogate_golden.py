"""Golden outputs of the surrogate kernel, `losses._surrogate_rows`.

`surrogate_golden.json` holds, per case and chunk size, the SHA-256 of
`values.tobytes()` and of `d_scores.tobytes()`, so that a change of the
kernel that moves any bit of a value or a gradient fails here. The inputs
are drawn without a matmul, so that no BLAS build can change them:

- tied: scores rounded to 2 decimals, four relevance values;
- signed_zeros: scores drawn from -0.0, 0.0 and multiples of 40 tau, the
  distance at which the kernel cuts the upper step's window;
- diagonal: a -inf score at relevance 0 in each row, as `combined_loss`
  puts on its diagonal;
- distinct: every relevance in a row distinct.

Each case runs at `_CHUNK` 1, 40, 300 and the default, which split rows
into blocks and positives into chunks in different places.

`python tests/test_surrogate_golden.py` prints the digests of the current
code as the JSON document that the file holds.
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hirank import losses
from hirank.losses import SmoothHeavisideParams

GOLDEN_PATH = Path(__file__).parent / "surrogate_golden.json"
PARAMS = SmoothHeavisideParams()
CHUNKS = {"1": 1, "40": 40, "300": 300, "default": losses._CHUNK}


def cases() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each case's (m, n) scores and relevance; every row has a positive."""
    rng = np.random.default_rng(25)
    m, n = 6, 48
    levels = rng.integers(0, 4, (m, n)) / 3.0
    levels[:, 0] = 1.0
    tied = np.round(rng.uniform(-0.3, 0.3, (m, n)), 2)
    width = 40.0 * PARAMS.tau
    zeros = rng.choice(np.array([-0.0, 0.0, -2.0 * width, -width, width, 2.0 * width]), (m, n))
    diagonal = rng.uniform(-1.0, 1.0, (m, n))
    np.fill_diagonal(diagonal, -np.inf)
    diagonal_levels = levels.copy()
    np.fill_diagonal(diagonal_levels, 0.0)
    diagonal_levels[:, -1] = 1.0
    distinct = rng.permuted(np.tile(np.arange(n) / n, (m, 1)), axis=1)
    return {
        "tied": (tied, levels),
        "signed_zeros": (zeros, levels),
        "diagonal": (diagonal, diagonal_levels),
        "distinct": (rng.uniform(-1.0, 1.0, (m, n)), distinct),
    }


def kernel(scores: np.ndarray, relevance: np.ndarray, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(all="raise"), mock.patch.object(losses, "_CHUNK", chunk):
        return losses._surrogate_rows(scores, relevance, PARAMS)


def digests() -> dict[str, dict[str, str]]:
    out = {}
    for case, (scores, relevance) in cases().items():
        for name, chunk in CHUNKS.items():
            values, d_scores = kernel(scores, relevance, chunk)
            out[f"{case}/{name}"] = {
                "values": hashlib.sha256(values.tobytes()).hexdigest(),
                "d_scores": hashlib.sha256(d_scores.tobytes()).hexdigest(),
            }
    return out


@pytest.fixture(scope="module")
def current():
    return digests()


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(current):
    assert sorted(current) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_kernel_matches_golden(current, case):
    assert current[case] == GOLDEN[case]


@pytest.mark.parametrize("case", ["tied", "signed_zeros"])
@pytest.mark.parametrize("chunk", sorted(CHUNKS.values()))
def test_sign_of_a_zero_score_changes_no_bit(case, chunk):
    scores, relevance = cases()[case]
    flipped = np.where(scores == 0.0, -scores, scores)
    assert np.any(np.signbit(flipped) != np.signbit(scores))
    values, d_scores = kernel(scores, relevance, chunk)
    flipped_values, flipped_d_scores = kernel(flipped, relevance, chunk)
    assert values.tobytes() == flipped_values.tobytes()
    assert d_scores.tobytes() == flipped_d_scores.tobytes()


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
