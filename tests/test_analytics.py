import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from asyncofdm import analytics, timing as tm
from asyncofdm.analytics import (
    lambda_tilde,
    lambda_tilde_closed_form_alpha4,
    laplace_interference,
    mean_decodable,
    mean_decodable_upper_bound,
    mean_decodable_with_hypotheses,
    nearest_decoding_prob,
    optimize_threshold,
    rho,
    upsilon_upper_distribution,
)
from asyncofdm.link import OfdmConfig
from asyncofdm.quadrature import QuadratureError, integrate, integrate_halfline
from asyncofdm.sinr import (NetworkParams, cp_weight_clipped, db_to_linear, hypothesis_set,
                            hypothesis_weight)
from tests.conftest import budget_params


def _w(cfg):
    return cfg.domain_half_width


# Reference implementations: the nested quadratures that the timing-expectation
# primitive, the closed-form rho and the radial factorizations replace.

def _reference_rho(x, alpha, rtol=1e-10):
    """Gauss-Legendre part up to a matching point plus an alternating tail series."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    p = alpha / 2.0
    a = x_arr ** (-2.0 / alpha)
    b = np.maximum(2.0, 2.0 * a)
    tail = np.zeros_like(a)
    for k in range(200):
        term = (-1.0) ** k * b ** (1.0 - (k + 1) * p) / ((k + 1) * p - 1.0)
        tail += term
        if float(np.max(np.abs(term))) < 1e-16:
            break

    def f(t):
        v = a[None, :] + t[:, None] * (b - a)[None, :]
        return (b - a)[None, :] / (1.0 + v ** p)

    finite, _ = integrate(f, 0.0, 1.0, rtol=rtol)
    out = x_arr ** (2.0 / alpha) * (finite + tail)
    return out if np.ndim(x) else float(out[0])


def _reference_radial(h, params, rtol, nearest=False):
    """integral_0^inf exp(-h q v^{alpha/2} - b(h) v) dv per component, adaptively."""
    h = np.asarray(h, dtype=float)
    out = np.zeros_like(h)
    finite = np.isfinite(h)
    if not np.any(finite):
        return out
    hf = h[finite]
    alpha, q = params.alpha, params.noise_over_e
    if nearest:
        b = np.pi * params.density * (1.0 + _reference_rho(hf, alpha))
    else:
        b = np.pi * params.density * hf ** (2.0 / alpha) / np.sinc(2.0 / alpha)
    if q == 0.0:
        out[finite] = 1.0 / b
        return out
    p = alpha / 2.0
    a = q * hf / b ** p

    def f(w):
        return np.exp(-a[None, :] * w[:, None] ** p - w[:, None])

    val, _ = integrate_halfline(f, rtol=rtol)
    out[finite] = np.atleast_1d(val) / b
    return out


def _reference_expect(params, timing, config, rtol=analytics.DEFAULT_RTOL,
                      hypotheses=(0.0,), nearest=False):
    """pi*lam * E_D[ I(decodable) radial(h(D, T)) ], one adaptive integral per interval."""
    threshold = params.threshold
    c = threshold / (1.0 + threshold)
    if timing.is_delta:
        g0 = float(hypothesis_weight(config, hypotheses, timing.offset))
        if g0 <= c:
            return 0.0
        h0 = threshold / ((1.0 + threshold) * g0 - threshold)
        return float(np.pi * params.density
                     * _reference_radial(np.array([h0]), params, rtol, nearest)[0])
    edges = (-config.domain_half_width, -config.n, 0.0, config.n_cp, config.domain_half_width)
    brks = sorted({t + e for t in hypotheses for e in edges})
    total = 0.0
    for lo, hi in _intervals(config, threshold, hypotheses):
        def f(tau):
            g = np.zeros_like(tau)
            for t in hypotheses:
                g = np.maximum(g, cp_weight_clipped(config, tau - t))
            with np.errstate(divide="ignore", over="ignore"):
                h = np.where(g > c, threshold / ((1.0 + threshold) * g - threshold), np.inf)
            return (np.pi * params.density * timing.density(tau)
                    * _reference_radial(h, params, rtol, nearest))

        val, _ = integrate(f, lo, hi, rtol=rtol, breakpoints=[p for p in brks if lo < p < hi])
        total += float(val)
    return total


def _reference_lambda_tilde(params, timing, config, rtol=analytics.DEFAULT_RTOL):
    """pi*lam * int_0^inf E_D[...] dv with a fixed 48-node rule for the expectation."""
    threshold, q, p = params.threshold, params.noise_over_e, params.alpha / 2.0
    c = threshold / (1.0 + threshold)
    if timing.is_delta:
        g0 = float(cp_weight_clipped(config, timing.offset))
        if g0 <= c:
            return 0.0
        val, _ = integrate_halfline(lambda v: np.exp(-threshold * q * v ** p / g0), rtol=rtol,
                                    breakpoints=((g0 / (threshold * q)) ** (1.0 / p),))
        return float(np.pi * params.density * val)
    nodes, weights = np.polynomial.legendre.leggauss(48)
    edges = (-config.domain_half_width, -config.n, 0.0, config.n_cp, config.domain_half_width)
    taus, tws = [], []
    for lo, hi in _intervals(config, threshold, (0.0,)):
        pts = [lo] + [b for b in edges if lo < b < hi] + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            taus.append(0.5 * (b - a) * nodes + 0.5 * (b + a))
            tws.append(0.5 * (b - a) * weights)
    taus, tws = np.concatenate(taus), np.concatenate(tws)
    g = cp_weight_clipped(config, taus)
    mask = g > c
    coef = tws[mask] * timing.density(taus[mask])
    ginv = threshold * q / g[mask]

    def f(v):
        return np.exp(-np.outer(v ** p, ginv)) @ coef

    val, _ = integrate_halfline(f, rtol=rtol, breakpoints=((1.0 / np.min(ginv)) ** (1.0 / p),))
    return float(np.pi * params.density * val)


def _merge(intervals):
    intervals = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _intervals(config, threshold, hypotheses):
    """The decodable offsets at one threshold, one interval per shift, merged and clipped."""
    s = math.sqrt(threshold / (1.0 + threshold))
    lo = -config.n * (1.0 - s)
    hi = config.n + config.n_cp - config.n * s
    w = config.domain_half_width
    return _merge((max(t + lo, -w), min(t + hi, w)) for t in hypotheses)


def _breakpoints(config, timing, hypotheses):
    """Kinks of g under every hypothesis shift, and the timing model's own breakpoints."""
    edges = (-config.domain_half_width, -config.n, 0.0, config.n_cp, config.domain_half_width)
    return sorted({t + e for t in hypotheses for e in edges} | set(timing.breakpoints))


def _tau_piece_expect(params, timing, config, F, thresholds, hypotheses):
    """E_D[ 1{g(D) > T/(1+T)} F(g(D), T) ] at each T of `thresholds`, integrated over the
    offset itself: each T's decodable intervals split at every kink of g and every model
    breakpoint, one smoothstep-mapped piece each.  The primitive's form before it moved
    to the spill variable, frozen as the reference for one model."""
    grid = np.asarray(thresholds, dtype=float)
    c = grid / (1.0 + grid)
    if timing.is_delta:
        g0 = hypothesis_weight(config, hypotheses, timing.offset)
        out, ok = np.zeros(len(grid)), g0 > c
        out[ok] = F(np.full(np.count_nonzero(ok), g0), grid[ok])
        return out
    brks = _breakpoints(config, timing, hypotheses)
    columns = []
    for t in grid.tolist():
        pts = [[lo] + [b for b in brks if lo < b < hi] + [hi]
               for lo, hi in _intervals(config, t, hypotheses)]
        columns.append([piece for p in pts for piece in zip(p[:-1], p[1:])])
    n = max(1, max(map(len, columns)))
    lo, hi = np.array([p + [(p[-1][1] if p else 0.0,) * 2] * (n - len(p))
                       for p in columns]).T  # each (n, m); pads sit at the last hi
    width = hi - lo
    top = np.nextafter(hi, -np.inf)  # keeps a rounded tau off hi, maybe the domain's open end

    def f(s):
        k = np.minimum(s.astype(int), n - 1)
        r = (s - k)[:, None]
        tau = np.minimum(lo[k] + width[k] * r * r * (3.0 - 2.0 * r), top[k])
        g = hypothesis_weight(config, hypotheses, tau)
        ok = (g > c) & (width[k] > 0)
        at_ok = np.zeros(g.shape)
        at_ok[ok] = F(g[ok], np.broadcast_to(grid, g.shape)[ok])
        return 6.0 * r * (1.0 - r) * width[k] * timing.density(tau) * at_ok

    val, _ = integrate(f, 0.0, float(n), rtol=analytics.DEFAULT_RTOL, breakpoints=range(1, n))
    return val


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


@pytest.mark.parametrize("model", [tm.uniform(-2000.0, 2000.0, 2000.0), tm.delta(0.0, 2000.0),
                                   tm.truncated_gaussian(100.0, 500.0)])
def test_timing_model_for_another_domain_rejected(cfg, model):
    # a model's density is normalised over the domain it was built for, not the config's
    params = NetworkParams(1 / 400 ** 2, 3.8, math.inf, db_to_linear(-12.0))
    message = f"built for half-width {model.half_width}, but the offset domain has half-width 1096"
    for call in (mean_decodable, nearest_decoding_prob):
        with pytest.raises(ValueError, match=message):
            call(params, model, cfg)


# hand-built models the constructors would refuse: refused where built, so no engine sees one
@pytest.mark.parametrize("build, message", [
    (lambda: tm.TimingModel("uniform", 1096, lo=5.0, hi=1.0), r"\[5.0, 1.0\) must be non-empty"),
    (lambda: tm.TimingModel("uniform", 1096, lo=0.0, hi=1e-100), "narrower than MIN_UNIFORM_WIDTH"),
    (lambda: tm.TimingModel("truncated_gaussian", 1096, sigma=-3.0), "sigma must be positive"),
    (lambda: tm.TimingModel("gaussian", 1096, sigma=200.0), "unknown timing model kind 'gaussian'"),
], ids=["reversed-uniform", "sub-floor-uniform", "negative-sigma", "unknown-kind"])
def test_hand_built_models_are_refused_where_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _kind_branching_cuts(config, timing, hypotheses, top):
    """Reference: where the spill's density may jump below `top`, with each kind's
    breakpoints written out from its parameters.  The plateaus [t, t + N_cp] merge by
    sorting; every arm that reaches the domain adds its reach, if finite, and each
    breakpoint and domain end it meets within its reach."""
    w = config.domain_half_width
    t = np.unique(hypotheses)
    gap = t[1:] > t[:-1] + config.n_cp
    a, b = t[np.r_[True, gap]], t[np.r_[gap, True]] + config.n_cp
    half = 0.5 * (a[1:] - b[:-1])
    jumps = [-w, w]
    if timing.kind == "uniform":
        jumps += [timing.lo, timing.hi]
    elif timing.kind == "truncated_gaussian":
        jumps += [j for j in (-8.0 * timing.sigma, 8.0 * timing.sigma) if -w < j < w]
    cuts = set()
    for anchor, side, reach in zip(np.r_[a, b], np.repeat([-1.0, 1.0], len(a)),
                                   np.r_[np.inf, half, half, np.inf]):
        span = min(reach, top)
        if max(anchor, anchor + side * span) <= -w or min(anchor, anchor + side * span) >= w:
            continue  # the arm never reaches the domain
        cuts |= {reach} if reach < top else set()
        cuts |= {side * (j - anchor) for j in jumps if 0 < side * (j - anchor) < span}
    return sorted(cuts)


@pytest.mark.parametrize("hypotheses", [(0.0,), hypothesis_set(1, 1, 150.0),
                                        hypothesis_set(2, 3, 36.0)])
def test_spill_pieces_are_the_reaches_and_the_mapped_breakpoints(cfg, hypotheses, monkeypatch):
    w = _w(cfg)
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    grid = [db_to_linear(t) for t in (-15.0, -3.0, 10.0)]
    top = cfg.n * (1.0 - math.sqrt(grid[0] / (1.0 + grid[0])))  # the largest decodable spill
    pieces = []

    def counting(f, a, b, **kwargs):
        pieces.append(b)
        return integrate(f, a, b, **kwargs)

    monkeypatch.setattr(analytics, "integrate", counting)
    split = 0
    for timing in (tm.delta(-600.0, w), tm.delta(0.0, w), tm.uniform(-1000.0, 1000.0, w),
                   tm.uniform(0.0, 72.0, w), tm.truncated_gaussian(0.05, w),
                   tm.truncated_gaussian(0.2 * cfg.n, w), tm.truncated_gaussian(5.0 * cfg.n, w)):
        pieces.clear()
        analytics._expect_over_timing(params, [timing], cfg, lambda g, t: np.sqrt(g), grid,
                                      hypotheses)
        cuts = [] if timing.is_delta else _kind_branching_cuts(cfg, timing, hypotheses, top)
        assert pieces == ([] if timing.is_delta else [len(cuts) + 1.0]), timing
        split += len(cuts)
    assert split > 0


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


def test_quadrature_tolerance_self_consistency(cfg, monkeypatch):
    params = budget_params(1 / 20 ** 2, 3.8, -4.0)
    timing = tm.truncated_gaussian(0.4 * 1024, _w(cfg))
    monkeypatch.setattr(analytics, "DEFAULT_RTOL", 1e-5)
    loose = mean_decodable(params, timing, cfg)
    monkeypatch.setattr(analytics, "DEFAULT_RTOL", 1e-8)
    tight = mean_decodable(params, timing, cfg)
    assert loose == pytest.approx(tight, rel=1e-5)


def test_tolerance_read_at_call_time(cfg, monkeypatch):
    params = budget_params(1 / 400 ** 2, 4.0, -6.0)
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    calls = {
        "mean_decodable": lambda: mean_decodable(params, timing, cfg),
        "mean_decodable_with_hypotheses": lambda: mean_decodable_with_hypotheses(
            params, timing, cfg, hypothesis_set(1, 1, 72.0)),
        "nearest_decoding_prob": lambda: nearest_decoding_prob(params, timing, cfg),
        "lambda_tilde": lambda: lambda_tilde(params, timing, cfg),
        "lambda_tilde_closed_form_alpha4": lambda: lambda_tilde_closed_form_alpha4(
            params, timing, cfg),
        "upsilon_upper_distribution": lambda: upsilon_upper_distribution(params, timing, cfg),
        "optimize_threshold": lambda: optimize_threshold(params, timing, cfg, [-6.0, 0.0]),
    }
    seen = []

    def recording(f, a, b, rtol, **kwargs):
        seen.append(rtol)
        return integrate(f, a, b, rtol=rtol, **kwargs)

    monkeypatch.setattr(analytics, "DEFAULT_RTOL", 3e-7)
    monkeypatch.setattr(analytics, "integrate", recording)
    for name, call in calls.items():
        seen.clear()
        call()
        assert seen and set(seen) == {3e-7}, (name, seen)


def test_count_bound_with_no_decodable_offset_is_a_point_mass_at_zero(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    late = tm.delta(-1090.0, _w(cfg))  # g = (6/1024)^2, far below T/(1+T)
    assert lambda_tilde(params, late, cfg) == 0.0
    dist = upsilon_upper_distribution(params, late, cfg)
    assert dist.support_max == 16
    assert dist.pmf[0] == 1.0 and not dist.pmf[1:].any()
    assert dist.ccdf().tolist() == [1.0] + [0.0] * 16


def test_alpha4_closed_form_rejects_other_alpha(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -6.0)
    with pytest.raises(ValueError, match="alpha = 4 only"):
        lambda_tilde_closed_form_alpha4(params, tm.delta(0.0, _w(cfg)), cfg)


# -------------------------------------------------------------- bound (IL)

def test_upper_bound_values():
    assert mean_decodable_upper_bound(4.0, 0.5) == pytest.approx(
        (2.0 / math.pi) / math.sqrt(0.5), rel=1e-12)
    assert mean_decodable_upper_bound(3.8, 10.0 ** -0.9) == pytest.approx(1.79, abs=0.01)
    assert mean_decodable_upper_bound(3.8, 10.0 ** -0.9) < 2.0
    with pytest.raises(ValueError):
        mean_decodable_upper_bound(2.0, 1.0)
    for t in (0.0, -2.0):
        with pytest.raises(ValueError, match="threshold must be finite and positive"):
            mean_decodable_upper_bound(4.0, t)


@pytest.mark.parametrize("alpha, threshold",
                         [(math.nan, 0.1), (3.8, math.nan), (math.inf, 0.1), (3.8, math.inf)])
def test_upper_bound_rejects_non_finite_inputs(alpha, threshold):
    with pytest.raises(ValueError, match="finite"):
        mean_decodable_upper_bound(alpha, threshold)


def test_bound_attained_when_synchronized(cfg):
    for alpha, t_db in ((3.0, -6.0), (3.8, -12.0), (4.0, 0.0)):
        params = NetworkParams(1e-4, alpha, math.inf, db_to_linear(t_db))
        il = mean_decodable(params, tm.delta(0.0, _w(cfg)), cfg)
        assert il == pytest.approx(mean_decodable_upper_bound(alpha, params.threshold),
                                   rel=1e-6)


def test_bound_dominates_asynchronous(cfg):
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    for alpha in (3.0, 3.8, 4.5):
        params = NetworkParams(1e-4, alpha, math.inf, db_to_linear(-6.0))
        il = mean_decodable(params, timing, cfg)
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


@pytest.mark.parametrize("sigma_over_n", [0.0, 0.2])
def test_nearest_in_a_sparse_field_is_the_mean(cfg, sigma_over_n):
    # with the nearest transmitter far off, it is the only one that can decode; pi*lam*I(a)
    # would underflow to 0 before dividing by b = pi*lam*(1+rho), so the pi*lam cancel first
    timing = (tm.truncated_gaussian(sigma_over_n * 1024, _w(cfg)) if sigma_over_n
              else tm.delta(0.0, _w(cfg)))
    params = budget_params(1e-200, 2.05, -12.0)
    p = nearest_decoding_prob(params, timing, cfg)
    assert p > 0.0
    assert p == pytest.approx(mean_decodable(params, timing, cfg), rel=1e-12)


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


def test_every_statistic_reads_0_where_t_over_1_plus_t_rounds_to_1(cfg):
    # from T ~ 2^53 (about 159.5 dB) T/(1+T) rounds to 1, which no weight g <= 1 exceeds:
    # nothing decodes there, and F(1, T) is not evaluated there
    grid = [db_to_linear(150.0), 2.0 ** 53, db_to_linear(160.0), db_to_linear(170.0)]
    assert [t / (1.0 + t) == 1.0 for t in grid] == [False, True, True, True]
    params = budget_params(1.0 / 400.0 ** 2, 3.8, -12.0)
    models = [tm.delta(0.0, _w(cfg)), tm.delta(80.0, _w(cfg)),
              tm.truncated_gaussian(0.2 * 1024, _w(cfg)), tm.uniform(-100.0, 300.0, _w(cfg))]
    for m in models:
        assert [lambda_tilde(dataclasses.replace(params, threshold=t), m, cfg)
                for t in grid[1:]] == [0.0] * 3
    for each in (analytics.mean_decodable_each, analytics.nearest_decoding_prob_each):
        for m, values in zip(models, each(params, models, cfg, thresholds=grid)):
            assert values[1:].tolist() == [0.0] * 3, (each, m)
            # 150 dB decodes on the plateau: its value is the one a grid without 160 dB gives
            want = each(params, [m], cfg, thresholds=grid[:1])[0][0]
            assert values[0] == pytest.approx(want, rel=1e-6)
            assert (values[0] > 0.0) == (m is not models[1])  # the delta at 80 is off the plateau


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
    assert dist.counts @ dist.pmf == pytest.approx(dist.pmf[1])


def _frozen_list_pmf(params, timing, cfg):
    """The bound's pmf as it was first written, with log n! through Python lists."""
    lam = lambda_tilde(params, timing, cfg)
    counts = np.arange(math.floor((1.0 + params.threshold) / params.threshold) + 1)
    logp = counts * math.log(lam) - np.array([math.lgamma(n + 1) for n in counts.tolist()])
    logp -= logp.max()
    pmf = np.exp(logp)
    return pmf / pmf.sum()


@pytest.mark.parametrize("t_db", [-12.0, -40.0])
def test_distribution_keeps_the_list_built_bits(cfg, t_db):
    params = budget_params(1 / 400 ** 2, 3.8, t_db)
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    got = upsilon_upper_distribution(params, timing, cfg).pmf
    assert got.tolist() == _frozen_list_pmf(params, timing, cfg).tolist()


def test_distribution_memory_is_a_few_arrays_of_its_support(cfg):
    # at -60 dB the support runs to n = 1,000,001: log n! through two Python lists of that
    # length peaked at 88 MB, where a few float arrays of it take 8 MB each
    params = budget_params(1 / 400 ** 2, 3.8, -60.0)
    timing = tm.truncated_gaussian(0.2 * 1024, _w(cfg))
    tracemalloc.start()
    try:
        dist = upsilon_upper_distribution(params, timing, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.support_max == 1_000_001
    assert peak < 40e6, peak


# ------------------------------------------------------------------ throughput

def test_throughput_vanishes_at_small_threshold(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -12.0)
    timing = tm.delta(0.0, _w(cfg))
    _, _, (smaller, small) = optimize_threshold(params, timing, cfg, [-80.0, -60.0])
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
    for grid in ([0.0, 0.0], [0.0, 4.0, 2.0], [4.0, 0.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            optimize_threshold(params, timing, cfg, grid)
    with pytest.raises(ValueError, match="finite"):
        optimize_threshold(params, timing, cfg, [0.0, math.nan])


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
    # a shift of 2w or more moves every offset off the domain, so it can never raise g
    for far in ((5000.0,), (0.0, 2.0 * _w(cfg)), (-2.0 * _w(cfg),)):
        with pytest.raises(ValueError, match="can never raise g"):
            mean_decodable_with_hypotheses(params, timing, cfg, far)
    nearly = (0.0, np.nextafter(2.0 * _w(cfg), 0.0))  # in range, and out of reach
    assert (mean_decodable_with_hypotheses(params, timing, cfg, nearly)
            == mean_decodable_with_hypotheses(params, timing, cfg, (0.0,)))
    with pytest.raises(ValueError, match="non-empty"):
        mean_decodable_with_hypotheses(params, timing, cfg, ())
    for bad in ((0.0, math.nan), (0.0, math.inf)):  # g of a NaN shift is NaN, not 0
        with pytest.raises(ValueError, match="finite"):
            mean_decodable_with_hypotheses(params, timing, cfg, bad)


def test_all_delta_calls_build_no_plateaus(cfg, monkeypatch):
    # a delta's weight comes from the bracket map, so the plateaus and their arms are
    # built only for a model with a density: an all-delta call never merges them
    params, w = budget_params(1 / 400 ** 2, 3.8, -12.0), _w(cfg)
    hypotheses, deltas = hypothesis_set(3, 2, 90.0), [tm.delta(0.0, w), tm.delta(-600.0, w)]
    want = analytics.mean_decodable_each(params, deltas, cfg, hypotheses)

    def refuse(intervals):
        raise AssertionError("plateaus merged for an all-delta call")

    monkeypatch.setattr(analytics, "_merge", refuse)
    assert analytics.mean_decodable_each(params, deltas, cfg, hypotheses) == want
    nearest_decoding_prob(params, deltas[1], cfg)  # one hypothesis, a threshold grid: no merge
    mean_decodable(params, deltas[0], cfg, thresholds=[0.1, 1.0])
    with pytest.raises(AssertionError, match="plateaus merged"):  # a density needs them
        mean_decodable_with_hypotheses(params, tm.truncated_gaussian(0.2 * 1024, w), cfg,
                                       hypotheses)


# ------------------------------------------------------------ threshold grids

GRID_STATISTICS = {
    "mean": lambda p, t, c, h, **kw: mean_decodable(p, t, c, **kw),
    "nearest": lambda p, t, c, h, **kw: nearest_decoding_prob(p, t, c, **kw),
    "hypotheses": lambda p, t, c, h, **kw: mean_decodable_with_hypotheses(p, t, c, h, **kw),
}
GRID_HYPOTHESES = ((0.0,), hypothesis_set(1, 1, 72.0), hypothesis_set(2, 0, 150.0))
GRID_TIMINGS = ("delta 0", "delta -600", "uniform") + tuple(
    f"gauss {r}N" for r in (0.02, 0.05, 0.2, 0.4))


def _grid_timing(cfg, name):
    w = _w(cfg)
    if name.startswith("delta"):  # g(-600) = 0.17: decodable below -6.9 dB only
        return tm.delta(float(name.split()[1]), w)
    if name == "uniform":
        return tm.uniform(-cfg.n, cfg.n_cp, w)
    return tm.truncated_gaussian(float(name.split()[1][:-1]) * cfg.n, w)


@given(alpha=st.floats(2.2, 5.0), snr_db=st.one_of(st.none(), st.floats(30.0, 120.0)),
       timing=st.sampled_from(GRID_TIMINGS), hypotheses=st.sampled_from(GRID_HYPOTHESES),
       statistic=st.sampled_from(sorted(GRID_STATISTICS)),
       grid_db=st.lists(st.floats(-15.0, 20.0), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_threshold_grid_matches_scalar_calls(alpha, snr_db, timing, hypotheses, statistic,
                                             grid_db):
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    fn, timing = GRID_STATISTICS[statistic], _grid_timing(cfg, timing)
    grid_db = grid_db + grid_db[::-2]  # unsorted, with repeats
    points = [_params(alpha, t_db, snr_db) for t_db in grid_db]
    scalar = np.array([fn(p, timing, cfg, hypotheses) for p in points])
    # params.threshold is not read when thresholds are given
    vector = fn(points[-1], timing, cfg, hypotheses, thresholds=[p.threshold for p in points])
    np.testing.assert_allclose(vector, scalar, rtol=analytics.DEFAULT_RTOL, atol=0.0)
    one = fn(points[-1], timing, cfg, hypotheses, thresholds=[points[0].threshold])
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == scalar[0]  # bit for bit: the scalar call is the one-column grid


# The model axis: delta, uniform, narrow Gaussians (each with breakpoints of its own) and
# wide ones (none in the domain, so they share one integral).
AXIS_TIMINGS = GRID_TIMINGS + ("uniform wide", "gauss 0.1N", "gauss 1.0N")


def _axis_timing(cfg, name):
    if name == "uniform wide":
        return tm.uniform(-1000.0, 1000.0, _w(cfg))
    return _grid_timing(cfg, name)


def _axis_statistic(name, params, cfg, hypotheses, grid):
    """The statistic as a function of a model list; "engine" is the bare primitive."""
    if name == "mean":
        return lambda models: analytics.mean_decodable_each(params, models, cfg, thresholds=grid,
                                                            hypotheses=hypotheses)
    if name == "nearest":
        return lambda models: analytics.nearest_decoding_prob_each(params, models, cfg,
                                                                   thresholds=grid)
    return lambda models: analytics._expect_over_timing(
        params, models, cfg, lambda g, t: np.sqrt(g) * np.log1p(1.0 / t), grid, hypotheses)


@given(alpha=st.floats(2.2, 5.0), snr_db=st.one_of(st.none(), st.floats(30.0, 120.0)),
       names=st.lists(st.sampled_from(AXIS_TIMINGS), min_size=1, max_size=5),
       hypotheses=st.sampled_from(GRID_HYPOTHESES),
       statistic=st.sampled_from(["mean", "nearest", "engine"]),
       grid_db=st.lists(st.floats(-15.0, 20.0), min_size=1, max_size=51))
@example(alpha=3.8, snr_db=118.0, names=["gauss 0.4N", "delta 0", "gauss 0.05N", "gauss 0.2N",
                                        "uniform", "gauss 0.4N", "gauss 1.0N"],
         hypotheses=GRID_HYPOTHESES[0], statistic="nearest",
         grid_db=[-15.0 + 0.5 * i for i in range(51)])
@example(alpha=2.5, snr_db=None, names=["gauss 0.2N", "gauss 0.1N", "uniform wide", "delta -600",
                                        "gauss 0.1N", "gauss 1.0N"],
         hypotheses=GRID_HYPOTHESES[1], statistic="mean", grid_db=[20.0, -15.0, 3.0, 3.0])
@settings(max_examples=25, deadline=None)
def test_model_axis_matches_one_model_calls_bit_for_bit(alpha, snr_db, names, hypotheses,
                                                        statistic, grid_db):
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    models = [_axis_timing(cfg, name) for name in names]
    grid = [db_to_linear(t_db) for t_db in grid_db]
    each = _axis_statistic(statistic, _params(alpha, -12.0, snr_db), cfg, hypotheses, grid)
    values = each(models)
    assert isinstance(values, list) and len(values) == len(models)
    for model, value in zip(models, values):
        alone = each([model])[0]
        assert value.shape == (len(grid),) and value.tobytes() == alone.tobytes(), model


def test_model_axis_is_checked_before_any_work(cfg, monkeypatch):
    w = _w(cfg)
    good = [tm.delta(0.0, w), tm.truncated_gaussian(0.2 * cfg.n, w), tm.uniform(-cfg.n, 72, w)]
    params = NetworkParams(1 / 400 ** 2, 3.8, math.inf, db_to_linear(-12.0))

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the entry checks")

    for name in ("integrate", "hypothesis_weight"):
        monkeypatch.setattr(analytics, name, no_work)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="timings must be a non-empty sequence"):
            analytics._expect_over_timing(params, empty, cfg, no_work)
    wrong = tm.truncated_gaussian(100.0, 500.0)
    message = "built for half-width 500.0, but the offset domain has half-width 1096"
    for i in range(len(good) + 1):
        with pytest.raises(ValueError, match=message):
            analytics._expect_over_timing(params, good[:i] + [wrong] + good[i:], cfg, no_work)
    for each in (analytics.mean_decodable_each, analytics.nearest_decoding_prob_each):
        with pytest.raises(ValueError, match="timings must be a non-empty sequence"):
            each(params, [], cfg)
        with pytest.raises(ValueError, match=message):
            each(params, good + [wrong], cfg)


@pytest.mark.parametrize("bad,match", (
    ([], "non-empty"), ([[0.1, 0.2]], "1-D"), ([0.1, math.nan], r"thresholds\[1\] = nan"),
    ([math.inf], r"thresholds\[0\] = inf"), ([0.1, 0.2, -math.inf], r"\[2\] = -inf"),
    ([0.1, 0.0], r"\[1\] = 0.0"), ([-1.0, 0.1], r"\[0\] = -1.0")))
def test_threshold_grid_rejected_where_it_enters(cfg, bad, match):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    for name in ("gauss 0.2N", "delta 0"):
        for fn in GRID_STATISTICS.values():
            with pytest.raises(ValueError, match=match):
                fn(params, _grid_timing(cfg, name), cfg, (0.0,), thresholds=bad)


# ------------------------------------------- against the reference implementations

REF_RTOL = 10 * analytics.DEFAULT_RTOL
T_DB = (-15.0, -6.0, 0.0, 5.0, 10.0, 20.0)


def _models(cfg):
    w = _w(cfg)
    # the uniform's jumps sit on kinks of g, where every reference breaks its panels
    return {"gauss 0.05N": tm.truncated_gaussian(0.05 * cfg.n, w),
            "gauss 0.2N": tm.truncated_gaussian(0.2 * cfg.n, w),
            "gauss 0.4N": tm.truncated_gaussian(0.4 * cfg.n, w),
            "uniform": tm.uniform(-cfg.n, cfg.n_cp, w),
            "delta 0": tm.delta(0.0, w),
            "delta N_cp": tm.delta(cfg.n_cp, w),
            "delta -N": tm.delta(-cfg.n, w)}


def _params(alpha, t_db, snr_db):
    """Reference density; snr_db None is interference-limited, "budget" the 118 dB budget."""
    if snr_db == "budget":
        return budget_params(1 / 400 ** 2, alpha, t_db)
    snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    return NetworkParams(1 / 400 ** 2, alpha, snr, 10.0 ** (t_db / 10.0))


def test_rho_matches_reference():
    xs = np.logspace(-4, 4, 41)
    for alpha in (2.05, 2.2, 3.0, 3.8, 4.0, 6.0):
        np.testing.assert_allclose(rho(xs, alpha), _reference_rho(xs, alpha), rtol=1e-12)
    assert isinstance(rho(2.0, 3.0), float)
    with pytest.raises(ValueError):
        rho(math.nan, 3.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_rho_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        rho(1.0, alpha)


@pytest.mark.parametrize("x", [math.inf, [0.5, math.inf], [2.0, -math.inf]])
def test_rho_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="finite"):
        rho(x, 3.8)


@pytest.mark.parametrize("alpha", (2.2, 3.0, 3.8, 4.0, 6.0))
def test_counts_match_reference_over_alpha_and_threshold(cfg, alpha):
    models = _models(cfg)
    for t_db in T_DB:
        for snr_db in (None, "budget"):
            params = _params(alpha, t_db, snr_db)
            for name in ("gauss 0.2N", "delta 0"):
                timing = models[name]
                assert mean_decodable(params, timing, cfg) == pytest.approx(
                    _reference_expect(params, timing, cfg), rel=REF_RTOL), (t_db, snr_db, name)
                assert nearest_decoding_prob(params, timing, cfg) == pytest.approx(
                    _reference_expect(params, timing, cfg, nearest=True),
                    rel=REF_RTOL), (t_db, snr_db, name)


@pytest.mark.parametrize("name", ("gauss 0.05N", "gauss 0.4N", "uniform", "delta 0",
                                  "delta N_cp", "delta -N"))
def test_counts_match_reference_over_timing_models(cfg, name):
    timing = _models(cfg)[name]
    for t_db in T_DB:
        params = _params(3.8, t_db, "budget")
        ref_mean = _reference_expect(params, timing, cfg)
        assert mean_decodable(params, timing, cfg) == pytest.approx(ref_mean, rel=REF_RTOL)
        assert nearest_decoding_prob(params, timing, cfg) == pytest.approx(
            _reference_expect(params, timing, cfg, nearest=True), rel=REF_RTOL)
        for hyps in (hypothesis_set(1, 1, 150.0), hypothesis_set(2, 0, 72.0)):
            assert mean_decodable_with_hypotheses(params, timing, cfg, hyps) == pytest.approx(
                _reference_expect(params, timing, cfg, hypotheses=hyps), rel=REF_RTOL)


def test_uniform_density_jumps_meet_rtol(cfg):
    # jumps inside a piece would leave about 1.5e-6 relative error at rtol 1e-6
    timing = tm.uniform(-500.0, 300.0, _w(cfg))
    for t_db in (-15.0, 0.0):
        params = _params(3.8, t_db, "budget")
        assert mean_decodable(params, timing, cfg) == pytest.approx(
            _reference_expect(params, timing, cfg, rtol=1e-9), rel=analytics.DEFAULT_RTOL)
        assert nearest_decoding_prob(params, timing, cfg) == pytest.approx(
            _reference_expect(params, timing, cfg, rtol=1e-9, nearest=True),
            rel=analytics.DEFAULT_RTOL)


# The reference's half-line integral stalls at 118 dB for alpha <= 3 (the
# library's lambda_tilde raised there too); those are checked at 40 dB.
@pytest.mark.parametrize("alpha,snr_db", ((2.2, 40.0), (3.0, 40.0), (3.8, "budget"),
                                          (4.0, "budget"), (6.0, "budget")))
def test_lambda_tilde_matches_reference(cfg, alpha, snr_db):
    for t_db in T_DB:
        params = _params(alpha, t_db, snr_db)
        for name, timing in _models(cfg).items():
            if name == "delta -N":  # g(-N) = 0: never decodable
                assert lambda_tilde(params, timing, cfg) == 0.0
                continue
            assert lambda_tilde(params, timing, cfg) == pytest.approx(
                _reference_lambda_tilde(params, timing, cfg), rel=REF_RTOL), (t_db, name)


def test_low_snr_falls_back_to_adaptive_radial_integral(cfg, monkeypatch):
    calls = []

    def counted(f, **kwargs):
        calls.append(1)
        return integrate_halfline(f, **kwargs)

    monkeypatch.setattr(analytics, "integrate_halfline", counted)
    for t_db in (-6.0, 5.0):
        params = _params(3.8, t_db, 30.0)
        for name in ("gauss 0.2N", "delta 0"):
            timing = _models(cfg)[name]
            calls.clear()
            assert nearest_decoding_prob(params, timing, cfg) == pytest.approx(
                _reference_expect(params, timing, cfg, nearest=True), rel=REF_RTOL)
            assert calls, "Gauss-Laguerre pair should not meet rtol at 30 dB"
            calls.clear()
            assert mean_decodable(params, timing, cfg) == pytest.approx(
                _reference_expect(params, timing, cfg), rel=REF_RTOL)
            assert calls


def test_quadrature_error_estimates_are_checked(cfg, monkeypatch):
    params = _params(3.8, 0.0, "budget")
    timing = _models(cfg)["gauss 0.2N"]

    def inflated(integrator):
        def run(*args, **kwargs):
            val, err = integrator(*args, **kwargs)
            return val, err + 2.0 * kwargs["rtol"] * np.abs(val)
        return run

    with monkeypatch.context() as m:
        m.setattr(analytics, "integrate", inflated(integrate))
        with pytest.raises(QuadratureError, match="timing expectation"):
            mean_decodable(params, timing, cfg)
    with monkeypatch.context() as m:
        m.setattr(analytics, "integrate_halfline", inflated(integrate_halfline))
        with pytest.raises(QuadratureError, match="radial integral"):
            nearest_decoding_prob(_params(3.8, 0.0, 30.0), timing, cfg)
    # a value of exactly zero with a zero error estimate passes
    assert mean_decodable(params, tm.uniform(-1096.0, -1080.0, _w(cfg)), cfg) == 0.0


def test_checked_rejects_a_nan_value_or_error_estimate():
    with pytest.raises(QuadratureError, match="x: error estimate nan"):
        analytics._checked(np.array([np.nan, 1.0]), np.zeros(2), "x")
    with pytest.raises(QuadratureError, match="x: error estimate nan"):
        analytics._checked(np.ones(2), np.array([np.nan, 0.0]), "x")
    ok = np.array([0.0, 2.0])
    assert analytics._checked(ok, np.array([0.0, 1e-6]), "x") is ok


def _quad_radial(a, p):
    """I(a) by scipy.integrate.quad, in pieces that hold e^-w's decay and the turn of
    e^{-a w^p} near w = a^{-1/p}."""
    from scipy.integrate import quad

    def f(w):
        return math.exp(-w - a * w ** p)

    pts = sorted({0.0, 1.0, 10.0, 50.0, min(a ** (-1.0 / p), 50.0) if a > 0 else 50.0})
    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(pts, pts[1:] + [math.inf]))


def _radial_tiers(monkeypatch, a, p):
    """I(a), the error estimate each component is checked with, and how many
    components reached integrate_halfline."""
    seen = {"adaptive": 0}

    def checked(val, err, what):
        seen["err"] = np.array(err)
        return real_checked(val, err, what)

    def halfline(f, **kwargs):
        val, err = integrate_halfline(f, **kwargs)
        seen["adaptive"] += len(val)
        return val, err

    real_checked = analytics._checked
    monkeypatch.setattr(analytics, "_checked", checked)
    monkeypatch.setattr(analytics, "integrate_halfline", halfline)
    return analytics._exp_power_integral(a, p), seen["err"], seen["adaptive"]


def _series_tier(a, val, err, p):
    """The components the series took: their error is its remainder bound
    a^6 Gamma(1 + 6p)/6!, within 1e-12.  From p = 28.5 Gamma(1 + 6p) overflows."""
    if p >= 28.5:
        return np.zeros(a.shape, dtype=bool)
    bound = math.gamma(1.0 + 6.0 * p) / math.factorial(6) * np.minimum(a, 1.0) ** 6  # a < 1 there
    return (err == bound) & (err <= 1e-12 * val)


@pytest.mark.parametrize("p", [1.001, 1.1, 1.5, 1.9, 2.5, 5.0, 10.0, 28.0, 28.5, 50.0])
def test_radial_integral_within_its_stated_error(monkeypatch, p):
    a = np.geomspace(1e-9, 1e-2, 15)
    val, err, _ = _radial_tiers(monkeypatch, a, p)
    ref = np.array([_quad_radial(x, p) for x in a])
    series = _series_tier(a, val, err, p)
    # within the series' remainder bound, up to quad's own tolerance
    assert np.all(np.abs(val - ref)[series] <= (err + 1e-13 * ref)[series])
    assert np.all(np.abs(val - ref) <= analytics.DEFAULT_RTOL * ref)
    # the bound is within 1e-12 only for small a and p; from p = 28.5 (alpha = 57) the
    # series is skipped, and the Laguerre pair's overflowing a w^p raises no warning
    assert series.any() == (p <= 5.0)


def test_every_radial_tier_is_reached(monkeypatch):
    # series: a = 0 and 1e-5; Gauss-Laguerre: 0.05; adaptive: 1, 1e4, and 1e300, where
    # both Laguerre rules underflow
    a = np.array([0.0, 1e-5, 0.05, 1.0, 1e4, 1e300])
    val, err, adaptive = _radial_tiers(monkeypatch, a, 1.9)
    assert _series_tier(a, val, err, 1.9).tolist() == [True, True] + [False] * 4
    assert adaptive == 3
    assert val[:5] == pytest.approx([_quad_radial(x, 1.9) for x in a[:5]],
                                    rel=analytics.DEFAULT_RTOL)
    assert 0.0 < val[5] < 1e-150
    # with the series skipped, the Laguerre pair takes the small a
    val, err, adaptive = _radial_tiers(monkeypatch, a, 30.0)
    assert adaptive == 5 and val[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("alpha, parent", [(57.0, 5.4426007747804646e-05),
                                           (100.0, 3.5097886443776096e-05)])
def test_nearest_probability_at_large_alpha(cfg, alpha, parent):
    # Gamma(1 + 3 alpha) overflows from alpha ~ 57: the series is skipped there without
    # an OverflowError, and a w^p overflowing in the Laguerre rules raises no
    # RuntimeWarning.  The values are those of the Laguerre-first implementation.
    params = budget_params(1 / 400 ** 2, alpha, -12.0)
    timing = tm.truncated_gaussian(0.2 * cfg.n, _w(cfg))
    assert nearest_decoding_prob(params, timing, cfg) == pytest.approx(parent, rel=1e-8)


def test_widest_gaussian_is_the_uniform_limit(cfg):
    widest = tm.truncated_gaussian(tm.MAX_SIGMA_OVER_HALF_WIDTH * _w(cfg), _w(cfg))
    flat = tm.uniform(-_w(cfg), _w(cfg), _w(cfg))
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    assert mean_decodable(params, widest, cfg) == pytest.approx(
        mean_decodable(params, flat, cfg), rel=analytics.DEFAULT_RTOL)


@given(st.floats(2.01, 2.3), st.floats(-15.0, 20.0))
@settings(max_examples=25, deadline=None)
def test_alpha_near_two(alpha, t_db):
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    params = _params(alpha, t_db, None)
    assert rho(params.threshold, alpha) == pytest.approx(
        _reference_rho(params.threshold, alpha), rel=1e-10)
    bound = mean_decodable_upper_bound(alpha, params.threshold)
    sync = tm.delta(0.0, _w(cfg))
    assert mean_decodable(params, sync, cfg) == pytest.approx(bound, rel=1e-9)
    assert nearest_decoding_prob(params, sync, cfg) == pytest.approx(
        1.0 / (1.0 + rho(params.threshold, alpha)), rel=1e-9)
    value = mean_decodable(params, tm.truncated_gaussian(0.2 * cfg.n, _w(cfg)), cfg)
    assert 0.0 < value <= bound


@given(st.floats(2.5, 6.0), st.floats(10.0, 40.0))
@settings(max_examples=25, deadline=None)
def test_high_threshold(alpha, t_db):
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    params = budget_params(1 / 400 ** 2, alpha, t_db)
    timing = tm.truncated_gaussian(0.2 * cfg.n, _w(cfg))
    dist = upsilon_upper_distribution(params, timing, cfg)
    assert dist.support_max == 1  # floor((1 + T)/T) = 1 for T > 1
    lam = lambda_tilde(params, timing, cfg)
    assert dist.pmf[1] == pytest.approx(lam / (1.0 + lam), rel=1e-10)
    assert 0.0 <= mean_decodable(params, timing, cfg) <= mean_decodable_upper_bound(
        alpha, params.threshold)
    assert 0.0 <= nearest_decoding_prob(params, timing, cfg) <= 1.0 / (
        1.0 + rho(params.threshold, alpha))
    sync = tm.delta(0.0, _w(cfg))
    assert nearest_decoding_prob(params, sync, cfg) == pytest.approx(
        _reference_expect(params, sync, cfg, nearest=True), rel=REF_RTOL)


@given(st.floats(1e-3, 0.1), st.floats(-15.0, 0.0))
@settings(max_examples=25, deadline=None)
def test_narrow_gaussian_converges_to_delta(sigma, t_db):
    # Half the mass lies left of g's kink at 0, where g falls by 2/N per sample,
    # so the gap below delta(0) is first order in sigma (in samples): about
    # 8.2e-4 sigma relative for the mean count and 6.0e-4 sigma for nearest at
    # 0 dB, less at lower T.  Without its +-8 sigma breakpoints the quadrature
    # misses that mass between its nodes.
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    params = budget_params(1 / 400 ** 2, 3.8, t_db)
    narrow, point = tm.truncated_gaussian(sigma, _w(cfg)), tm.delta(0.0, _w(cfg))
    for fn in (mean_decodable, nearest_decoding_prob):
        gap = 1.0 - fn(params, narrow, cfg) / fn(params, point, cfg)
        assert -REF_RTOL <= gap <= 1e-3 * sigma + REF_RTOL, fn.__name__


# --------------------------------------- the spill form against the tau-piece form

W = 1096.0  # the offset domain's half-width at N = 1024, N_cp = 72


def _wide_enough(ends):
    """A pair of ends `tm.uniform` accepts: no closer than its width floor."""
    return abs(ends[0] - ends[1]) >= tm.MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * W


SPILL_MODELS = st.one_of(
    st.floats(-W, W, exclude_max=True).map(lambda x: tm.delta(x, W)),
    st.lists(st.floats(0.0, 72.0), min_size=2, max_size=2, unique=True).filter(_wide_enough)
    .map(lambda x: tm.uniform(min(x), max(x), W)),  # inside the CP
    st.tuples(st.booleans(), st.floats(0.5, 600.0)).map(  # at an end of the domain
        lambda x: tm.uniform(W - x[1], W, W) if x[0] else tm.uniform(-W, -W + x[1], W)),
    st.lists(st.floats(-W, W), min_size=2, max_size=2, unique=True).filter(_wide_enough)
    .map(lambda x: tm.uniform(min(x), max(x), W)),
    st.floats(math.log(0.5), math.log(512.0)).map(lambda x: tm.truncated_gaussian(math.exp(x), W)))
SPILL_HYPOTHESES = st.one_of(
    st.just((0.0,)),
    st.builds(hypothesis_set, st.integers(0, 10), st.integers(0, 10), st.floats(0.5, 72.0)),
    st.builds(hypothesis_set, st.integers(0, 3), st.integers(0, 3), st.floats(73.0, 500.0)),
    st.lists(st.floats(-1160.0, -940.0) | st.floats(940.0, 1160.0), min_size=1, max_size=4),
    st.lists(st.floats(-100.0, 100.0) | st.floats(2300.0, 1e4), min_size=1, max_size=4))


def _integrand_of(call):
    """The F that `call` hands to `_expect_over_timing`."""
    with mock.patch.object(analytics, "_expect_over_timing",
                           wraps=analytics._expect_over_timing) as spy:
        call()
    return spy.call_args.args[3]


@given(model=SPILL_MODELS, hypotheses=SPILL_HYPOTHESES,
       statistic=st.sampled_from(["mean", "nearest", "lambda_tilde"]),
       alpha=st.floats(2.5, 5.0), interference_limited=st.booleans(),
       grid_db=st.lists(st.floats(-15.0, 20.0), min_size=1, max_size=51))
@example(model=tm.truncated_gaussian(0.1 * 1024, W), hypotheses=[-1050.0, 1050.0],
         statistic="mean", alpha=3.8, interference_limited=True,
         grid_db=[-20.0 + 0.5 * i for i in range(91)])
@example(model=tm.uniform(-1024.0, 72.0, W), hypotheses=[0.0, 1090.0, -1100.0],
         statistic="nearest", alpha=3.8, interference_limited=False, grid_db=[-15.0, 20.0])
@example(model=tm.truncated_gaussian(0.5, W), hypotheses=[5000.0], statistic="lambda_tilde",
         alpha=3.8, interference_limited=False, grid_db=[0.0])
@example(model=tm.uniform(0.0, tm.MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * W, W), hypotheses=[1.0],
         statistic="mean", alpha=3.0, interference_limited=True, grid_db=[0.0])  # the floor
@example(model=tm.truncated_gaussian(math.exp(1.84375), W), hypotheses=[-990.0],
         statistic="mean", alpha=3.0, interference_limited=False, grid_db=[-9.0])  # ~5.6e-309
@settings(max_examples=60, deadline=None)
def test_spill_form_matches_the_tau_piece_form(model, hypotheses, statistic, alpha,
                                               interference_limited, grid_db):
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    hypotheses = tuple(hypotheses)
    params = _params(alpha, -12.0, None if interference_limited and statistic != "lambda_tilde"
                     else "budget")
    point = tm.delta(0.0, W)
    F = _integrand_of({
        "mean": lambda: analytics.mean_decodable_each(params, [point], cfg),
        "nearest": lambda: analytics.nearest_decoding_prob_each(params, [point], cfg),
        "lambda_tilde": lambda: lambda_tilde(params, point, cfg)}[statistic])
    grid = [db_to_linear(t) for t in grid_db]
    spill = analytics._expect_over_timing(params, [model], cfg, F, grid, hypotheses)[0]
    want = _tau_piece_expect(params, model, cfg, F, grid, hypotheses)
    # relative to max(|want|, 1e-300), the scale integrate and _checked hold errors to: below
    # it both forms stop at their first round, as accurate as that floor and no more
    assert np.all(np.abs(spill - want) <= REF_RTOL * np.maximum(np.abs(want), 1e-300)), \
        (spill, want)


def _at_the_floor(lo):
    """The narrowest uniform from lo that `tm.uniform` admits."""
    floor = tm.MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * W
    hi = lo + floor
    while hi - lo < floor:
        hi = np.nextafter(hi, np.inf)
    return tm.uniform(lo, hi, W)


def test_a_uniform_at_the_width_floor_keeps_its_mass(cfg):
    # narrower uniforms lost their mass: at 0 dB, alpha = 3 and hypotheses (1,), uniform(0, w)
    # read 0.4124 at w = 1e-12 but 0.0 at 1e-100, 1e-200 and 1.55e-255, both breakpoints
    # rounding to one spill cut.  Those widths are refused; the floor keeps the mass
    params = _params(3.0, 0.0, None)
    for width in (1e-100, 1e-200, 1.55e-255):
        with pytest.raises(ValueError, match="MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH.*delta"):
            tm.uniform(0.0, width, W)
    value = mean_decodable_with_hypotheses(params, _at_the_floor(0.0), cfg, [1.0])
    assert value == pytest.approx(0.41241, abs=1e-5)
    assert value == pytest.approx(
        mean_decodable_with_hypotheses(params, tm.delta(0.0, W), cfg, [1.0]), rel=1e-6)
    # models and single hypotheses across the domain, at three thresholds
    F = _integrand_of(lambda: analytics.mean_decodable_each(params, [tm.delta(0.0, W)], cfg))
    grid = [db_to_linear(t) for t in (-12.0, 0.0, 10.0)]
    for lo in (-W, -1024.0, -398.5, -1e-7, 36.0, 700.25, W - 1e-5):
        model = _at_the_floor(lo)
        for t in (-2150.0, -1100.0, -300.0, 0.0, 1.0, 700.0, 1500.0):
            spill = analytics._expect_over_timing(params, [model], cfg, F, grid, (t,))[0]
            np.testing.assert_allclose(
                spill, _tau_piece_expect(params, model, cfg, F, grid, (t,)), rtol=REF_RTOL,
                atol=0.0, err_msg=f"lo={lo}, t={t}")


def test_mass_inside_the_cp_is_the_plateau_atom(cfg):
    # all the mass sits on the plateau, where g = 1: the bound, with no integral to scale
    params = NetworkParams(1 / 400 ** 2, 3.8, math.inf, db_to_linear(-4.0))
    inside = tm.uniform(5.0, 60.0, _w(cfg))
    assert mean_decodable(params, inside, cfg) == pytest.approx(
        mean_decodable_upper_bound(3.8, params.threshold), rel=1e-12)
    grid = [db_to_linear(t) for t in (-15.0, 0.0, 20.0)]
    np.testing.assert_allclose(
        mean_decodable(params, inside, cfg, thresholds=grid),
        [mean_decodable_upper_bound(3.8, t) for t in grid], rtol=1e-12)
    # half a 0.5-sample Gaussian's mass is on the plateau, the rest within 4 samples of it
    narrow, point = tm.truncated_gaussian(0.5, _w(cfg)), tm.delta(0.0, _w(cfg))
    for fn in (mean_decodable, nearest_decoding_prob):
        assert 0.0 < fn(params, narrow, cfg) <= fn(params, point, cfg)


def _abscissae(cfg, hypotheses, grid, monkeypatch):
    """How many weights F sees in one call of the primitive, and how many offsets the
    timing density does."""
    seen, offsets, density = [], [], tm.TimingModel.density

    def F(g, t):
        seen.append(g.size)
        return np.sqrt(g)

    def counted(self, x):
        offsets.append(np.size(x))
        return density(self, x)

    with monkeypatch.context() as m:
        m.setattr(tm.TimingModel, "density", counted)
        analytics._expect_over_timing(budget_params(1 / 400 ** 2, 3.8, -12.0),
                                      [tm.truncated_gaussian(0.2 * cfg.n, _w(cfg))], cfg, F,
                                      grid, hypotheses)
    return sum(seen), sum(offsets)


def test_a_merged_hypothesis_set_costs_one_plateau(cfg, monkeypatch):
    # every set below merges into one plateau; below -5 dB the widest one's arms would reach
    # the domain's ends within the decodable spill, and split it
    grid = [db_to_linear(t) for t in np.arange(-5.0, 10.5, 0.5)]
    counts = [_abscissae(cfg, hypothesis_set(*shape), grid, monkeypatch)
              for shape in ((1, 1, 72.0), (100, 100, 2.0), (1000, 1000, 0.5))]
    assert counts[0] == counts[1] == counts[2] == _abscissae(cfg, (0.0,), grid, monkeypatch)


def test_a_gapped_hypothesis_set_costs_by_its_arms(cfg, monkeypatch):
    grid = [db_to_linear(t) for t in np.arange(-15.0, 10.5, 0.5)]
    gapped = hypothesis_set(2, 2, 300.0)  # five plateaus: ten arms
    far = gapped + tuple(5000.0 + 0.5 * k for k in range(2000))  # out of reach of the domain
    weights, offsets = _abscissae(cfg, gapped, grid, monkeypatch)
    assert _abscissae(cfg, far, grid, monkeypatch) == (weights, offsets)
    # at most a reach and the domain's two ends cut each arm; 48 abscissae a piece, and F at 1
    assert weights <= 48 * len(grid) * (1 + 3 * 10) + len(grid)
    # the density at each of the ten arms' offsets, per abscissa and column, and no more
    assert offsets % (10 * 48 * len(grid)) == 0 and offsets <= 10 * 48 * len(grid) * 31


def _frozen_delta_value(config, timing, F, grid, hypotheses):
    """A delta model's value as the primitive computed it before F(1, T) was shared: F at the
    model's weight on the thresholds where that weight decodes, 0 elsewhere."""
    grid = np.asarray(grid, dtype=float)
    g0 = hypothesis_weight(config, hypotheses, timing.offset)
    out, ok = np.zeros(len(grid)), g0 > grid / (1.0 + grid)
    out[ok] = F(np.full(np.count_nonzero(ok), g0), grid[ok])
    return out


@given(offset=st.sampled_from([0.0, 36.0, 72.0, -1.0, 73.0]),  # 0, N_cp/2, N_cp, -1, N_cp + 1
       hypotheses=st.sampled_from([(0.0,), hypothesis_set(1, 1, 72.0)]),
       statistic=st.sampled_from(["mean", "nearest", "lambda_tilde"]),
       alpha=st.floats(2.5, 5.0), interference_limited=st.booleans(),
       grid_db=st.lists(st.floats(-15.0, 20.0), min_size=1, max_size=51),
       place=st.sampled_from(["alone", "first", "middle", "last"]))
@settings(max_examples=60, deadline=None)
def test_delta_models_keep_their_bits(offset, hypotheses, statistic, alpha, interference_limited,
                                      grid_db, place):
    # on a plateau (g = 1) a delta's value is the shared F(1, T), which must be the bits of
    # the delta's own evaluation, alone or beside Gaussian models
    cfg = OfdmConfig.centered(1024, 72, -300, 299)
    params = _params(alpha, -12.0, None if interference_limited and statistic != "lambda_tilde"
                     else "budget")
    point = tm.delta(offset, W)
    gauss = [tm.truncated_gaussian(0.2 * 1024, W), tm.truncated_gaussian(0.4 * 1024, W)]
    models = {"alone": [point], "first": [point, *gauss], "middle": [gauss[0], point, gauss[1]],
              "last": [*gauss, point]}[place]
    at = models.index(point)
    public = {
        "mean": lambda g: analytics.mean_decodable_each(params, models, cfg, hypotheses,
                                                        thresholds=g),
        "nearest": lambda g: analytics.nearest_decoding_prob_each(params, models, cfg,
                                                                  thresholds=g),
        "lambda_tilde": lambda g: [lambda_tilde(dataclasses.replace(params, threshold=g[0]), m,
                                                cfg) for m in models]}[statistic]
    F = _integrand_of(lambda: public([params.threshold]))
    grid = [db_to_linear(t) for t in grid_db]
    want = _frozen_delta_value(cfg, point, F, grid, hypotheses)
    got = analytics._expect_over_timing(params, models, cfg, F, grid, hypotheses)[at]
    assert got.tobytes() == want.tobytes()
    if statistic == "lambda_tilde" and hypotheses == (0.0,):  # one threshold a call
        assert public(grid[:1])[at] == want[0]
    elif statistic == "mean" or hypotheses == (0.0,):  # the nearest takes no hypotheses
        assert public(grid)[at].tobytes() == want.tobytes()


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


@pytest.mark.parametrize("s, density, alpha", [
    (1.0, -1.0, 3.8), (1.0, math.nan, 3.8), (1.0, math.inf, 3.8),
    (math.nan, 1e-3, 3.8), (1.0, 1e-3, math.nan), (1.0, 1e-3, math.inf)])
def test_laplace_transform_rejects_out_of_domain_inputs(s, density, alpha):
    with pytest.raises(ValueError, match="nonnegative|finite"):
        laplace_interference(s, density, alpha)
