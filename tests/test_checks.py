"""The stacked verify suites against their per-trial references."""

import numpy as np
import pytest

from oracles import SUITES_BY_TRIAL
from snwitness import Dims, ParameterError, checks, random_hermitian


def plain(value):
    """Seeds and call arguments with numpy integers as Python ints."""
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    return int(value) if isinstance(value, np.integer) else value


class LoggedGenerator:
    """A generator that records every call made on it and its result."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, plain(args), plain(tuple(sorted(kwargs.items())))))
            self._log.append(np.asarray(out).tobytes())
            return out

        return call


def draws(monkeypatch, run):
    """Per seed, the calls made on ``np.random.default_rng(seed)`` by ``run()``."""
    log = {}
    real = np.random.default_rng

    def default_rng(seed):
        return LoggedGenerator(real(seed), log.setdefault(plain(seed), []))

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", default_rng)
        run()
    return log


@pytest.mark.parametrize("suite", sorted(SUITES_BY_TRIAL))
def test_suites_draw_the_inputs_of_the_per_trial_reference(monkeypatch, suite):
    # 19 trials: two whole blocks and a partial one
    trials, seed, d = 2 * checks.BLOCK + 3, 17, 3
    reference = draws(monkeypatch, lambda: SUITES_BY_TRIAL[suite](trials, seed, d))
    stacked = draws(monkeypatch, lambda: checks.SUITES[suite](trials, seed, d=d))
    assert reference and stacked == reference


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("suite", sorted(SUITES_BY_TRIAL))
def test_suites_match_the_per_trial_reference(suite, d):
    trials, seed = 2 * checks.BLOCK + 5, 23
    reference = SUITES_BY_TRIAL[suite](trials, seed, d)
    report = checks.SUITES[suite](trials, seed, d=d)
    assert report["pass"] and report["suite"] == suite
    assert report["trials"] == len(report["perTrial"]) == len(reference)
    assert report["maxError"] == max(report["perTrial"])
    assert np.abs(np.subtract(report["perTrial"], reference)).max() < 1e-12


def test_grid_oracle_needs_a_two_dimensional_a_factor():
    with pytest.raises(ParameterError, match="two-dimensional A factor"):
        checks.grid_product_min(random_hermitian(Dims(3, 2), seed=3))
