import math

import numpy as np
import pytest

from asyncofdm import analytics, timing as tm
from asyncofdm.analytics import (
    decodable_intervals,
    lambda_tilde,
    lambda_tilde_closed_form_alpha4,
    laplace_interference,
    mean_decodable,
    mean_decodable_interference_limited,
    mean_decodable_upper_bound,
    mean_decodable_with_hypotheses,
    nearest_decoding_prob,
    optimize_threshold,
    rho,
    system_throughput,
    upsilon_upper_distribution,
)
from asyncofdm.sinr import NetworkParams, hypothesis_set
from tests.conftest import budget_params


def _w(cfg):
    return cfg.domain_half_width


# -------------------------------------------------------------------- rho

def test_rho_alpha4_closed_form():
    # closed form sqrt(x) * arctan(sqrt(x)) at alpha = 4
    for x in (0.1, 0.5, 1.0, 3.0, 10.0):
        assert rho(x, 4.0) == pytest.approx(math.sqrt(x) * math.atan(math.sqrt(x)),
                                            rel=1e-10)
    assert rho(1.0, 4.0) == pytest.approx(math.pi / 4, rel=1e-12)


def test_rho_monotone_and_limits():
    xs = np.logspace(-3, 2, 30)
    vals = rho(xs, 3.5)
    assert np.all(np.diff(vals) > 0)
    assert rho(1e-8, 3.0) < 1e-4
    with pytest.raises(ValueError):
        rho(1.0, 2.0)
    with pytest.raises(ValueError):
        rho(-1.0, 3.0)


# ------------------------------------------------------------ decodable region

def test_decodable_intervals_geometry(cfg):
    t = 1.0
    (lo, hi), = decodable_intervals(cfg, t)
    s = math.sqrt(0.5)
    assert lo == pytest.approx(-cfg.n * (1.0 - s))
    assert hi == pytest.approx(cfg.n + cfg.n_cp - cfg.n * s)
    # hypotheses shift and merge the region
    merged = decodable_intervals(cfg, t, hypotheses=(0.0, 10.0))
    assert len(merged) == 1
    assert merged[0][1] == pytest.approx(hi + 10.0)


# ------------------------------------------------------------ mean decodable

def test_mean_synchronized_interference_limited_alpha4(cfg):
    params = NetworkParams(1e-4, 4.0, math.inf, 1.0)
    timing = tm.delta(0.0, _w(cfg))
    assert mean_decodable(params, timing, cfg) == pytest.approx(2.0 / math.pi, rel=1e-8)


def test_mean_linear_in_density_at_low_density(cfg):
    timing = tm.delta(0.0, _w(cfg))
    # densities far below the noise-limited scale ~ sinc(2/a) / (pi SNR^{2/a})
    a = mean_decodable(budget_params(1e-10, 3.8, -4.0), timing, cfg)
    b = mean_decodable(budget_params(5e-11, 3.8, -4.0), timing, cfg)
    assert a / b == pytest.approx(2.0, rel=0.02)


def test_mean_nonincreasing_in_threshold(cfg):
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    vals = [mean_decodable(budget_params(1 / 20 ** 2, 3.8, t), timing, cfg)
            for t in (-12.0, -8.0, -4.0, 0.0, 4.0)]
    assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))


def test_mean_invariant_to_mass_inside_cp(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -4.0)
    sync = mean_decodable(params, tm.delta(0.0, _w(cfg)), cfg)
    inside = mean_decodable(params, tm.uniform(5.0, 60.0, _w(cfg)), cfg)
    assert inside == pytest.approx(sync, rel=1e-6)
    assert mean_decodable(params, tm.delta(30.0, _w(cfg)), cfg) == pytest.approx(sync, rel=1e-9)


def test_quadrature_tolerance_self_consistency(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -4.0)
    timing = tm.truncated_gaussian(0.4 * 1024, _w(cfg))
    loose = mean_decodable(params, timing, cfg, rtol=1e-5)
    tight = mean_decodable(params, timing, cfg, rtol=1e-8)
    assert loose == pytest.approx(tight, rel=1e-5)


# -------------------------------------------------------------- bound (IL)

def test_upper_bound_values():
    assert mean_decodable_upper_bound(4.0, 0.5) == pytest.approx(
        (2.0 / math.pi) / math.sqrt(0.5), rel=1e-12)
    assert mean_decodable_upper_bound(3.8, 10.0 ** -0.9) == pytest.approx(1.79, abs=0.01)
    assert mean_decodable_upper_bound(3.8, 10.0 ** -0.9) < 2.0
    with pytest.raises(ValueError):
        mean_decodable_upper_bound(2.0, 1.0)
    with pytest.raises(ValueError):
        mean_decodable_upper_bound(4.0, 0.0)


def test_bound_attained_when_synchronized(cfg):
    for alpha, t_db in ((3.0, -6.0), (3.8, -12.0), (4.0, 0.0)):
        params = budget_params(1e-4, alpha, t_db)
        il = mean_decodable_interference_limited(params, tm.delta(0.0, _w(cfg)), cfg)
        assert il == pytest.approx(mean_decodable_upper_bound(alpha, params.threshold),
                                   rel=1e-6)


def test_bound_dominates_asynchronous(cfg):
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    for alpha in (3.0, 3.8, 4.5):
        params = budget_params(1e-4, alpha, -6.0)
        il = mean_decodable_interference_limited(params, timing, cfg)
        assert il <= mean_decodable_upper_bound(alpha, params.threshold) + 1e-9


# ------------------------------------------------------------------- nearest

def test_nearest_synchronized_alpha4(cfg):
    params = NetworkParams(1e-4, 4.0, math.inf, 1.0)
    p = nearest_decoding_prob(params, tm.delta(0.0, _w(cfg)), cfg)
    assert p == pytest.approx(1.0 / (1.0 + math.pi / 4), abs=1e-8)


def test_nearest_bounded_by_synchronized(cfg):
    timing = tm.truncated_gaussian(0.4 * 1024, _w(cfg))
    for t_db in (-6.0, 0.0):
        params = NetworkParams(1e-4, 3.8, math.inf, 10.0 ** (t_db / 10.0))
        p = nearest_decoding_prob(params, timing, cfg)
        assert 0.0 <= p <= 1.0 / (1.0 + rho(params.threshold, 3.8)) + 1e-9


def test_nearest_linear_in_density_at_low_density(cfg):
    timing = tm.delta(0.0, _w(cfg))
    a = nearest_decoding_prob(budget_params(1e-10, 3.8, -12.0), timing, cfg)
    b = nearest_decoding_prob(budget_params(5e-11, 3.8, -12.0), timing, cfg)
    assert a / b == pytest.approx(2.0, rel=0.05)


# --------------------------------------------------------------- lambda tilde

def test_lambda_tilde_synchronized_alpha4_closed_form(cfg):
    params = budget_params(1e-5, 4.0, -6.0)
    timing = tm.delta(0.0, _w(cfg))
    expect = (math.pi ** 1.5 * params.density / 2.0
              * math.sqrt(params.snr / params.threshold))
    assert lambda_tilde(params, timing, cfg) == pytest.approx(expect, rel=1e-8)
    assert lambda_tilde_closed_form_alpha4(params, timing, cfg) == pytest.approx(expect)


def test_lambda_tilde_linear_in_density(cfg):
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    a = lambda_tilde(budget_params(2e-6, 4.0, -12.0), timing, cfg)
    b = lambda_tilde(budget_params(1e-6, 4.0, -12.0), timing, cfg)
    assert a / b == pytest.approx(2.0, rel=1e-6)


def test_lambda_tilde_requires_finite_snr(cfg):
    params = NetworkParams(1e-4, 4.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        lambda_tilde(params, tm.delta(0.0, _w(cfg)), cfg)


# ------------------------------------------------------- dominating distribution

def test_distribution_support_and_mass(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    dist = upsilon_upper_distribution(params, tm.truncated_gaussian(0.2 * 1024, _w(cfg)), cfg)
    assert dist.support_max == 16  # floor((1 + T)/T) at T = 10^-1.2
    assert abs(dist.pmf.sum() - 1.0) < 1e-12
    assert np.all(dist.pmf >= 0.0)
    ccdf = dist.ccdf()
    assert ccdf[0] == 1.0
    assert np.all(np.diff(ccdf) <= 1e-15)


def test_distribution_bernoulli_case(cfg):
    params = budget_params(1 / 800 ** 2, 3.8, 10.0 * math.log10(2.0))  # T = 2
    timing = tm.delta(0.0, _w(cfg))
    dist = upsilon_upper_distribution(params, timing, cfg)
    assert dist.support_max == 1
    lam = lambda_tilde(params, timing, cfg)
    assert dist.pmf[1] == pytest.approx(lam / (1.0 + lam), rel=1e-10)
    assert dist.mean() == pytest.approx(dist.pmf[1])


# ------------------------------------------------------------------ throughput

def test_throughput_vanishes_at_small_threshold(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -12.0)
    timing = tm.delta(0.0, _w(cfg))
    small = system_throughput(params, timing, cfg, threshold=1e-6)
    smaller = system_throughput(params, timing, cfg, threshold=1e-8)
    assert 0.0 < smaller < small < 1e-2


def test_optimize_threshold_grid_contract(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -12.0)
    timing = tm.delta(0.0, _w(cfg))
    grid = [-4.0, 0.0, 4.0, 8.0]
    best_db, best_val, values = optimize_threshold(params, timing, cfg, grid)
    assert len(values) == len(grid)
    assert best_val == max(values)
    assert best_db in grid
    with pytest.raises(ValueError):
        optimize_threshold(params, timing, cfg, [])
    with pytest.raises(ValueError):
        optimize_threshold(params, timing, cfg, [0.0, 0.0])


# ------------------------------------------------------------------ hypotheses

def test_hypotheses_identity_and_monotonicity(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    base = mean_decodable(params, timing, cfg)
    same = mean_decodable_with_hypotheses(params, timing, cfg, (0.0,))
    assert same == pytest.approx(base, rel=1e-9)
    vals = [mean_decodable_with_hypotheses(params, timing, cfg,
                                           hypothesis_set(k, k, 150.0))
            for k in (0, 1, 2)]
    assert vals[0] <= vals[1] <= vals[2]
    with pytest.raises(ValueError):
        mean_decodable_with_hypotheses(params, timing, cfg, ())
    for bad in ((0.0, math.nan), (0.0, math.inf)):  # g of a NaN shift is NaN, not 0
        with pytest.raises(ValueError, match="finite"):
            mean_decodable_with_hypotheses(params, timing, cfg, bad)


# ------------------------------------------------------------ Laplace transform

def test_laplace_transform_basics():
    assert laplace_interference(0.0, 1e-4, 3.8) == 1.0
    s = np.linspace(0.0, 10.0, 20)
    vals = [laplace_interference(x, 1e-3, 3.8) for x in s]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)
    with pytest.raises(ValueError):
        laplace_interference(-1.0, 1e-3, 3.8)
    with pytest.raises(ValueError):
        laplace_interference(1.0, 1e-3, 2.0)
