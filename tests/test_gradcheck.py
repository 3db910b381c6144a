import json
import math
from pathlib import Path

import numpy as np
import pytest

from hirank import gradcheck
from hirank.gradcheck import CHECKS, run_checks

# run_checks(trials=5, seed=3) as the per-family check_* functions reported it
# before the families became generators under one driver
GOLDEN = json.loads((Path(__file__).parent / "gradcheck_golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def five_trials():
    return {res.name: res for res in run_checks(trials=5, seed=3)}


@pytest.mark.parametrize("name", list(CHECKS))
def test_worst_trial_matches_golden(five_trials, name):
    res = five_trials[name]
    assert json.loads(json.dumps(res.worst_config)) == GOLDEN[name]["worst_config"]
    assert math.isclose(res.max_rel_err, GOLDEN[name]["max_rel_err"], rel_tol=1e-9, abs_tol=0.0)


def test_golden_covers_every_family():
    assert sorted(GOLDEN) == sorted(CHECKS)


def test_driver_keeps_last_trial_reaching_the_maximum(monkeypatch):
    def family(rng, trials, eps):
        exact = np.array([1.0])
        for trial, numeric in enumerate([1.5, 1.2, 1.5, 1.0][:trials]):
            yield exact, np.array([numeric]), {"trial": trial}

    monkeypatch.setitem(CHECKS, "fake", family)
    (res,) = run_checks(["fake"], trials=4, tol=0.25)
    assert res.max_rel_err == pytest.approx(1 / 3)
    assert res.worst_config == {"check": "fake", "trial": 2}
    assert not res.passed


def test_driver_reseeds_every_family(monkeypatch):
    def family(rng, trials, eps):
        yield np.array([1.0]), np.array([1.0]), {"draw": float(rng.uniform())}

    monkeypatch.setitem(CHECKS, "fake", family)
    first, second = run_checks(["fake", "fake"], seed=5)
    assert first.worst_config == second.worst_config


def test_an_unknown_family_is_a_value_error_naming_it(monkeypatch):
    def family(rng, trials, eps):
        raise AssertionError("no family runs before the names are checked")

    monkeypatch.setitem(CHECKS, "fake", family)
    with pytest.raises(ValueError) as error:
        run_checks(["fake", "nope"])
    assert str(error.value) == (
        "unknown check 'nope', expected one of "
        "heaviside, surrogate, clustering, cosine, combined, fake"
    )


def test_the_error_between_two_empty_gradients_is_zero():
    assert gradcheck.max_rel_err(np.array([]), np.array([])) == 0.0


def test_clears_kinks_rejects_a_gap_at_a_kink():
    params = gradcheck.SmoothHeavisideParams()
    rows = np.array([[0.0, 0.5, -0.5], [0.0, 0.3, 0.9]])
    assert gradcheck._clears_kinks(rows, params, 1e-4)
    rows[1, 1] = params.delta
    assert not gradcheck._clears_kinks(rows, params, 1e-4)
