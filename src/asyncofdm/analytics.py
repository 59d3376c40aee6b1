"""Closed-form and quadrature evaluation of the network-level statistics.

Everything here works on the abstraction of sinr.py: the mean number of
decodable transmitters, its interference-limited form and upper bound, the
truncated-Poisson dominating distribution of the decodable count, the
nearest-transmitter decoding probability, system throughput, and the Laplace
transform of Poisson-field interference used as a simulation cross-check.

The radial integrals over [0, inf) are mapped to [0, 1) and integrated
adaptively; the timing integrals are split exactly at the roots of
g(tau) = T/(1+T) and at the branch edges of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import OfdmConfig
from .quadrature import integrate, integrate_halfline, sinc
from .sinr import NetworkParams, _check_hypotheses, cp_weight_clipped, hypothesis_weight
from .timing import TimingModel

__all__ = [
    "CountDistribution",
    "decodable_intervals",
    "mean_decodable",
    "mean_decodable_interference_limited",
    "mean_decodable_upper_bound",
    "mean_decodable_with_hypotheses",
    "lambda_tilde",
    "lambda_tilde_closed_form_alpha4",
    "upsilon_upper_distribution",
    "rho",
    "nearest_decoding_prob",
    "system_throughput",
    "optimize_threshold",
    "laplace_interference",
]

DEFAULT_RTOL = 1e-6


def _merge(intervals):
    intervals = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def decodable_intervals(config: OfdmConfig, threshold: float, hypotheses=None):
    """Offsets where decoding is possible: {tau : g(tau) > T/(1+T)}, as intervals.

    With hypotheses the region is the union of the per-hypothesis shifts,
    clipped to the offset domain.
    """
    c = threshold / (1.0 + threshold)
    s = math.sqrt(c)
    lo = -config.n * (1.0 - s)
    hi = config.n + config.n_cp - config.n * s
    w = config.domain_half_width
    shifts = (0.0,) if hypotheses is None else tuple(hypotheses)
    return _merge((max(t + lo, -w), min(t + hi, w)) for t in shifts)


def _weight_breakpoints(config: OfdmConfig, hypotheses):
    shifts = (0.0,) if hypotheses is None else tuple(hypotheses)
    edges = (-config.domain_half_width, -config.n, 0.0, config.n_cp, config.domain_half_width)
    return sorted({t + e for t in shifts for e in edges})


def _weight_fn(config: OfdmConfig, hypotheses):
    if hypotheses is None:
        return lambda x: cp_weight_clipped(config, x)
    return lambda x: hypothesis_weight(config, hypotheses, x)


def rho(x, alpha: float, rtol: float = 1e-10):
    """rho(x, alpha) = x^{2/alpha} * integral_{x^{-2/alpha}}^inf dv / (1 + v^{alpha/2}).

    Finite Gauss-Legendre part up to a matching point plus an alternating tail
    series in v^{-alpha/2}; vectorized in x.
    """
    if alpha <= 2:
        raise ValueError("alpha must exceed 2 (integral diverges otherwise)")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ValueError("x must be positive")
    p = alpha / 2.0
    a = x_arr ** (-2.0 / alpha)
    b = np.maximum(2.0, 2.0 * a)

    # tail: int_B^inf dv/(1+v^p) = sum_k (-1)^k B^{1-(k+1)p} / ((k+1)p - 1)
    tail = np.zeros_like(a)
    term_scale = 1.0
    for k in range(200):
        term = (-1.0) ** k * b ** (1.0 - (k + 1) * p) / ((k + 1) * p - 1.0)
        tail += term
        term_scale = float(np.max(np.abs(term)))
        if term_scale < 1e-16:
            break

    def f(t):  # t in [0,1] maps to v in [a, b] per component
        v = a[None, :] + t[:, None] * (b - a)[None, :]
        return (b - a)[None, :] / (1.0 + v ** p)

    finite, _ = integrate(f, 0.0, 1.0, rtol=rtol)
    out = x_arr ** (2.0 / alpha) * (finite + tail)
    return out if np.ndim(x) else float(out[0])


def _radial_integral(h: np.ndarray, params: NetworkParams, rtol: float,
                     nearest: bool = False) -> np.ndarray:
    """integral_0^inf exp(-h q v^{alpha/2} - b(h) v) dv per component of h.

    b(h) is the interference exponent: pi*lam*h^{2/alpha}/sinc(2/alpha) for the
    decodable-count integrand, pi*lam*(1 + rho(h, alpha)) for the
    nearest-transmitter one.  Components with h = inf contribute 0.
    """
    h = np.asarray(h, dtype=float)
    out = np.zeros_like(h)
    finite = np.isfinite(h)
    if not np.any(finite):
        return out
    hf = h[finite]
    alpha, q = params.alpha, params.noise_over_e
    if nearest:
        b = np.pi * params.density * (1.0 + rho(hf, alpha))
    else:
        b = np.pi * params.density * hf ** (2.0 / alpha) / sinc(2.0 / alpha)
    if q == 0.0:
        out[finite] = 1.0 / b
        return out
    # rescale w = b v so every component decays like exp(-w)
    p = alpha / 2.0
    a = q * hf / b ** p

    def f(w):
        return np.exp(-a[None, :] * w[:, None] ** p - w[:, None])

    val, _ = integrate_halfline(f, rtol=rtol)
    out[finite] = np.atleast_1d(val) / b
    return out


def _expect_over_timing(config: OfdmConfig, params: NetworkParams, timing: TimingModel,
                        rtol: float, hypotheses=None, nearest: bool = False) -> float:
    """pi*lam * E_D[ I(decodable) * radial_integral(h(D,T)) ], shared by Props 1 and 2."""
    threshold = params.threshold
    c = threshold / (1.0 + threshold)
    gfun = _weight_fn(config, hypotheses)
    intervals = decodable_intervals(config, threshold, hypotheses)

    if timing.is_delta:
        g0 = float(gfun(timing.offset))
        if g0 <= c:
            return 0.0
        h0 = threshold / ((1.0 + threshold) * g0 - threshold)
        return float(np.pi * params.density
                     * _radial_integral(np.array([h0]), params, rtol, nearest)[0])

    brks = _weight_breakpoints(config, hypotheses)
    total = 0.0
    for lo, hi in intervals:
        def f(tau):
            g = gfun(tau)
            with np.errstate(divide="ignore", over="ignore"):
                h = np.where(g > c, threshold / ((1.0 + threshold) * g - threshold), np.inf)
            return (np.pi * params.density * timing.density(tau)
                    * _radial_integral(h, params, rtol, nearest))

        val, _ = integrate(f, lo, hi, rtol=rtol, breakpoints=[p for p in brks if lo < p < hi])
        total += float(val)
    return total


def mean_decodable(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                   rtol: float = DEFAULT_RTOL) -> float:
    """Mean number of transmitters whose SINR clears the detection threshold."""
    return _expect_over_timing(config, params, timing, rtol)


def mean_decodable_with_hypotheses(params: NetworkParams, timing: TimingModel,
                                   config: OfdmConfig, hypotheses,
                                   rtol: float = DEFAULT_RTOL) -> float:
    """Mean decodable count when the receiver tries several timing hypotheses."""
    return _expect_over_timing(config, params, timing, rtol,
                               hypotheses=_check_hypotheses(hypotheses))


def mean_decodable_interference_limited(params: NetworkParams, timing: TimingModel,
                                        config: OfdmConfig,
                                        rtol: float = DEFAULT_RTOL) -> float:
    """Mean decodable count with noise sent to zero; independent of density."""
    return _expect_over_timing(config, params.interference_limited(), timing, rtol)


def mean_decodable_upper_bound(alpha: float, threshold: float) -> float:
    """sinc(2/alpha)/T^{2/alpha}; attained when all timing mass sits inside the CP."""
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return float(sinc(2.0 / alpha) / threshold ** (2.0 / alpha))


def nearest_decoding_prob(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                          rtol: float = DEFAULT_RTOL) -> float:
    """Probability that the packet from the nearest transmitter is decodable."""
    return _expect_over_timing(config, params, timing, rtol, nearest=True)


def lambda_tilde(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                 rtol: float = DEFAULT_RTOL) -> float:
    """Intensity of the noise-only-decodable point process dominating the count.

    pi*lam * int_0^inf E_D[ I(decodable) exp(-T v^{alpha/2} / (g(D) SNR)) ] dv.
    Diverges in the interference-limited limit, so finite SNR is required.
    """
    if params.noise_over_e == 0.0:
        raise ValueError("the dominating intensity requires finite snr")
    threshold, q, p = params.threshold, params.noise_over_e, params.alpha / 2.0
    c = threshold / (1.0 + threshold)
    intervals = decodable_intervals(config, threshold)

    if timing.is_delta:
        g0 = float(cp_weight_clipped(config, timing.offset))
        if g0 <= c:
            return 0.0

        def f(v):
            return np.exp(-threshold * q * v ** p / g0)

        val, _ = integrate_halfline(f, rtol=rtol, breakpoints=((g0 / (threshold * q)) ** (1.0 / p),))
        return float(np.pi * params.density * val)

    # fixed composite Gauss-Legendre for the (smooth) timing expectation at each v
    nodes, weights = np.polynomial.legendre.leggauss(48)
    brks = _weight_breakpoints(config, None)
    panels = []
    for lo, hi in intervals:
        pts = [lo] + [b for b in brks if lo < b < hi] + [hi]
        panels.extend(zip(pts[:-1], pts[1:]))
    taus, tws = [], []
    for lo, hi in panels:
        taus.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
        tws.append(0.5 * (hi - lo) * weights)
    taus = np.concatenate(taus)
    tws = np.concatenate(tws)
    g = cp_weight_clipped(config, taus)
    mask = g > c
    coef = tws[mask] * timing.density(taus[mask])
    ginv = threshold * q / g[mask]

    def f(v):
        return np.exp(-np.outer(v ** p, ginv)) @ coef

    val, _ = integrate_halfline(f, rtol=rtol, breakpoints=((1.0 / np.min(ginv)) ** (1.0 / p),))
    return float(np.pi * params.density * val)


def lambda_tilde_closed_form_alpha4(params: NetworkParams, timing: TimingModel,
                                    config: OfdmConfig, rtol: float = DEFAULT_RTOL) -> float:
    """Closed form for alpha = 4: (pi^{3/2} lam / 2) sqrt(SNR/T) E_D[I(decodable) sqrt(g(D))]."""
    if params.alpha != 4.0:
        raise ValueError("closed form holds for alpha = 4 only")
    threshold = params.threshold
    c = threshold / (1.0 + threshold)
    prefactor = np.pi ** 1.5 * params.density / 2.0 * math.sqrt(params.snr / threshold)
    if timing.is_delta:
        g0 = float(cp_weight_clipped(config, timing.offset))
        return prefactor * math.sqrt(g0) if g0 > c else 0.0
    total = 0.0
    brks = _weight_breakpoints(config, None)
    for lo, hi in decodable_intervals(config, threshold):
        def f(tau):
            g = cp_weight_clipped(config, tau)
            return np.where(g > c, np.sqrt(g), 0.0) * timing.density(tau)

        val, _ = integrate(f, lo, hi, rtol=rtol, breakpoints=[p for p in brks if lo < p < hi])
        total += float(val)
    return prefactor * total


@dataclass
class CountDistribution:
    """Truncated-Poisson pmf on 0..floor((1+T)/T) dominating the decodable count."""

    counts: np.ndarray
    pmf: np.ndarray

    @property
    def support_max(self) -> int:
        return int(self.counts[-1])

    def ccdf(self) -> np.ndarray:
        """P(count >= n) for each n in `counts`."""
        out = np.cumsum(self.pmf[::-1])[::-1]
        out[0] = 1.0  # exact by construction; cumsum rounds
        return out

    def mean(self) -> float:
        return float(self.counts @ self.pmf)


def upsilon_upper_distribution(params: NetworkParams, timing: TimingModel,
                               config: OfdmConfig, rtol: float = DEFAULT_RTOL) -> CountDistribution:
    """Poisson(lambda_tilde) truncated at floor((1+T)/T), renormalized."""
    n_max = math.floor((1.0 + params.threshold) / params.threshold)
    lam = lambda_tilde(params, timing, config, rtol)
    counts = np.arange(n_max + 1)
    if lam == 0.0:
        pmf = np.zeros(n_max + 1)
        pmf[0] = 1.0
    else:
        logp = counts * math.log(lam) - np.array([math.lgamma(n + 1) for n in counts])
        logp -= np.max(logp)
        pmf = np.exp(logp)
        pmf /= pmf.sum()
    return CountDistribution(counts, pmf)


def system_throughput(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                      threshold: float | None = None, rtol: float = DEFAULT_RTOL) -> float:
    """Mean sum rate ln(1+T) * E[decodable count]; natural log (argmax is base-free)."""
    p = params if threshold is None else params.with_threshold(threshold)
    return math.log1p(p.threshold) * mean_decodable(p, timing, config, rtol)


def optimize_threshold(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                       grid_db, rtol: float = DEFAULT_RTOL):
    """Grid argmax of system throughput over thresholds in dB; ties go to the lower T.

    Returns (best_db, best_throughput, throughput_per_grid_point).
    """
    grid_db = list(grid_db)
    if not grid_db:
        raise ValueError("threshold grid must be non-empty")
    if any(b <= a for a, b in zip(grid_db, grid_db[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    values = [system_throughput(params.with_threshold_db(t), timing, config, rtol=rtol)
              for t in grid_db]
    best = int(np.argmax(values))  # first max = lowest T on ties
    return grid_db[best], values[best], values


def laplace_interference(s: float, density: float, alpha: float) -> float:
    """E[exp(-s I)] for Rayleigh-faded interference from a Poisson field."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    return float(np.exp(-density * np.pi * s ** (2.0 / alpha) / sinc(2.0 / alpha)))
