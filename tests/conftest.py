import concurrent.futures
import math

import numpy as np
import pytest

from asyncofdm import link
from asyncofdm.link import OfdmConfig
from asyncofdm.sinr import NetworkParams, NetworkSnapshot

# Reference parameter set used throughout: 23 dBm over 10 MHz, -174 dBm/Hz
# noise PSD, 9 dB noise figure (noise floor -95 dBm, so E/N0 = 118 dB).
BUDGET = dict(tx_power_dbm=23.0, bandwidth_hz=1.0e7,
              noise_psd_dbm_hz=-174.0, noise_figure_db=9.0)


def budget_params(density, alpha, threshold_db):
    return NetworkParams.from_budget(density, alpha, threshold_db, **BUDGET)


@pytest.fixture(scope="session")
def cfg():
    return OfdmConfig.centered(1024, 72, -300, 299)


@pytest.fixture(scope="session")
def small_cfg():
    return OfdmConfig.centered(64, 8, -24, 23)


def frozen_snapshot(params, timing, spec, trial_index):
    """The bitwise reference for one Monte Carlo trial: a fresh
    `default_rng([master_seed, trial_index])`, then the Poisson count, distances,
    fades and (unless the model is a delta) timing uniforms, in that order."""
    rng = np.random.default_rng([spec.master_seed, trial_index])
    radius = spec.radius(params.density)
    count = rng.poisson(params.density * math.pi * radius ** 2)
    distances = radius * np.sqrt(rng.random(count))
    fades = rng.exponential(1.0, count)
    u = np.zeros(count) if timing.is_delta else rng.random(count)
    return NetworkSnapshot(distances, fades, timing.quantile(u), params.noise_over_e, params.alpha)


@pytest.fixture
def pools_started(monkeypatch):
    """max_workers of each pool started, whose jobs run in this process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


@pytest.fixture
def pool_sizes(pools_started, monkeypatch):
    """max_workers of each pool started where 4 CPUs are usable."""
    monkeypatch.setattr(link, "_cpus", lambda: 4)
    return pools_started


@pytest.fixture
def real_pools(monkeypatch):
    """max_workers of each real pool started."""
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started
