"""Closed-form and quadrature evaluation of the network-level statistics.

Everything here works on the abstraction of sinr.py: the mean number of
decodable transmitters, its interference-limited form and upper bound, the
truncated-Poisson dominating distribution of the decodable count, the
nearest-transmitter decoding probability, system throughput, and the Laplace
transform of Poisson-field interference used as a simulation cross-check.

Each statistic is an expectation over the timing offset D of a function of
g(D) on the decodable set g(D) > T/(1+T), computed by `_expect_over_timing`
for a whole grid of T at once: the decodable intervals are split exactly at the
roots of g(tau) = T/(1+T) and at the branch edges of g, and each piece is
integrated through a smoothstep map that flattens the integrand at both ends.
The radial integrals reduce to I(a) = integral_0^inf exp(-w - a w^{alpha/2}) dw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from .link import OfdmConfig
from .quadrature import QuadratureError, integrate, integrate_halfline, sinc
from .sinr import NetworkParams, _check_hypotheses, hypothesis_weight
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


def decodable_intervals(config: OfdmConfig, threshold: float, hypotheses=(0.0,)):
    """Offsets where decoding is possible: {tau : g(tau) > T/(1+T)}, as intervals.

    With hypotheses the region is the union of the per-hypothesis shifts,
    clipped to the offset domain.
    """
    c = threshold / (1.0 + threshold)
    s = math.sqrt(c)
    lo = -config.n * (1.0 - s)
    hi = config.n + config.n_cp - config.n * s
    w = config.domain_half_width
    return _merge((max(t + lo, -w), min(t + hi, w)) for t in hypotheses)


def _breakpoints(config: OfdmConfig, timing: TimingModel, hypotheses):
    """Kinks of g under every hypothesis shift, and where the timing density jumps
    (uniform) or holds its mass (truncated Gaussian: beyond 8 sigma it is below
    e^-32 of its peak, so a narrow one is not missed between quadrature nodes)."""
    edges = (-config.domain_half_width, -config.n, 0.0, config.n_cp, config.domain_half_width)
    brks = {t + e for t in hypotheses for e in edges}
    if timing.kind == "uniform":
        brks |= {timing.lo, timing.hi}
    elif timing.kind == "truncated_gaussian":
        brks |= {timing.mean - 8.0 * timing.sigma, timing.mean + 8.0 * timing.sigma}
    return sorted(brks)


def _checked(value, err, rtol: float, what: str):
    """value, once the summed error estimate err is within rtol * max(|value|, 1e-300)."""
    worst = float(np.max(err / np.maximum(np.abs(value), 1e-300), initial=0.0))
    if worst > rtol:
        raise QuadratureError(f"{what}: error estimate {worst:.3e} of |value| exceeds "
                              f"rtol = {rtol:g}")
    return value


_laguerre = functools.lru_cache(maxsize=None)(np.polynomial.laguerre.laggauss)
_CHUNK = 256  # components per Laguerre evaluation: memory stays flat in the grid length


def _exp_power_integral(a, p: float, rtol: float) -> np.ndarray:
    """I(a) = integral_0^inf exp(-w - a w^p) dw for each component of a >= 0.

    A 32/64-node Gauss-Laguerre pair; components where the two disagree by more
    than rtol fall back to adaptive quadrature.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    (x32, w32), (x64, w64) = _laguerre(32), _laguerre(64)
    coarse, val = np.empty_like(a), np.empty_like(a)
    for i in range(0, len(a), _CHUNK):
        coarse[i:i + _CHUNK] = np.exp(-np.outer(a[i:i + _CHUNK], x32 ** p)) @ w32
        val[i:i + _CHUNK] = np.exp(-np.outer(a[i:i + _CHUNK], x64 ** p)) @ w64
    err = np.abs(val - coarse)
    slow = ~(err < rtol * val)  # also where both rules underflow to 0 (large a)
    if np.any(slow):
        a_slow = a[slow]
        step = np.minimum(1.0, a_slow ** (-1.0 / p))  # w = step * u decays on u ~ 1

        def f(u):
            w = np.outer(u, step)
            return step * np.exp(-a_slow * w ** p - w)

        val[slow], err[slow] = integrate_halfline(f, rtol=rtol)
    return _checked(val, err, rtol, "radial integral")


def _expect_over_timing(config: OfdmConfig, timing: TimingModel, thresholds: np.ndarray, F,
                        rtol: float, hypotheses=(0.0,)) -> np.ndarray:
    """E_D[ 1{g(D) > T/(1+T)} F(g(D), T) ] for each T in `thresholds`, g the best
    weight over the hypotheses.

    F maps arrays of weights and of their thresholds, every weight above
    T/(1+T), to an array of values.  The decodable intervals are split at the
    breakpoints into pieces [lo, hi], and piece k is integrated over s in
    [k, k+1] through the smoothstep tau = lo + (hi - lo) r^2 (3 - 2r), r = s - k.
    Its Jacobian 6 r (1 - r)(hi - lo) vanishes at both ends, which smooths out
    the (tau - edge)^{2/alpha} behaviour where g meets T/(1+T).  Each T is one
    column of one stacked integral, padded by zero-width pieces at its last hi.
    """
    c = thresholds / (1.0 + thresholds)
    if timing.is_delta:
        g0 = hypothesis_weight(config, hypotheses, timing.offset)
        out, ok = np.zeros(len(thresholds)), g0 > c
        out[ok] = F(np.full(np.count_nonzero(ok), g0), thresholds[ok])
        return out

    brks = _breakpoints(config, timing, hypotheses)
    columns = []
    for t in thresholds:
        pts = [[lo] + [b for b in brks if lo < b < hi] + [hi]
               for lo, hi in decodable_intervals(config, t, hypotheses)]
        columns.append([piece for p in pts for piece in zip(p[:-1], p[1:])])
    n = max(1, max(map(len, columns)))
    lo, hi = np.array([p + [(p[-1][1] if p else 0.0,) * 2] * (n - len(p))
                       for p in columns]).T  # each (n, m); pads sit at the last hi
    width = hi - lo
    top = np.nextafter(hi, -np.inf)  # keeps a rounded tau off hi, maybe the domain's open end

    def f(s):  # integrate's panels never straddle the integer breakpoints
        k = np.minimum(s.astype(int), n - 1)
        r = (s - k)[:, None]
        tau = np.minimum(lo[k] + width[k] * r * r * (3.0 - 2.0 * r), top[k])
        g = hypothesis_weight(config, hypotheses, tau)
        out = 6.0 * r * (1.0 - r) * width[k] * timing.density(tau)
        ok = (g > c) & (width[k] > 0)
        out[ok] *= F(g[ok], np.broadcast_to(thresholds, g.shape)[ok])
        out[~ok] = 0.0
        return out

    val, err = integrate(f, 0.0, float(n), rtol=rtol, breakpoints=range(1, n))
    return _checked(val, err, rtol, "timing expectation")


def _expect(params: NetworkParams, timing: TimingModel, config: OfdmConfig, F, rtol: float,
            thresholds=None, hypotheses=(0.0,)):
    """`_expect_over_timing` at params.threshold as a float, or as an array at each
    of `thresholds`, a non-empty 1-D sequence of finite positive values."""
    t = np.asarray([params.threshold] if thresholds is None else thresholds, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"thresholds must be a non-empty 1-D sequence, got shape {t.shape}")
    bad = np.flatnonzero(~(np.isfinite(t) & (t > 0)))
    if bad.size:
        raise ValueError(f"thresholds[{bad[0]}] = {t[bad[0]]} is not finite and positive")
    out = _expect_over_timing(config, timing, t, F, rtol, hypotheses)
    return out if thresholds is not None else float(out[0])


def _mean_count(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                rtol: float, hypotheses=(0.0,), thresholds=None):
    """pi*lam * E_D[ integral_0^inf exp(-h q v^{alpha/2} - b(h) v) dv ] (Prop. 1).

    With b(h) = pi*lam*h^{2/alpha}/sinc(2/alpha) and w = b(h) v the radial
    integral is I(a0)/b(h), where a0 = q (sinc(2/alpha)/(pi*lam))^{alpha/2} does
    not depend on h: one I per call.
    """
    alpha = params.alpha
    sc = float(sinc(2.0 / alpha))
    a0 = params.noise_over_e * (sc / (np.pi * params.density)) ** (alpha / 2.0)
    scale = sc * float(_exp_power_integral(a0, alpha / 2.0, rtol)[0])

    def F(g, t):  # pi*lam * I(a0)/b(h) with 1/h = ((1+T) g - T)/T
        return scale * (((1.0 + t) * g - t) / t) ** (2.0 / alpha)

    return _expect(params, timing, config, F, rtol, thresholds, hypotheses)


def mean_decodable(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                   rtol: float = DEFAULT_RTOL, *, thresholds=None):
    """Mean number of transmitters whose SINR clears the detection threshold; given
    linear `thresholds`, an array of the mean at each, and params.threshold is not read."""
    return _mean_count(params, timing, config, rtol, thresholds=thresholds)


def mean_decodable_with_hypotheses(params: NetworkParams, timing: TimingModel,
                                   config: OfdmConfig, hypotheses,
                                   rtol: float = DEFAULT_RTOL, *, thresholds=None):
    """Mean decodable count when the receiver tries several timing hypotheses;
    `thresholds` works as in `mean_decodable`."""
    return _mean_count(params, timing, config, rtol, _check_hypotheses(hypotheses), thresholds)


def mean_decodable_interference_limited(params: NetworkParams, timing: TimingModel,
                                        config: OfdmConfig,
                                        rtol: float = DEFAULT_RTOL) -> float:
    """Mean decodable count with noise sent to zero; independent of density."""
    return _mean_count(params.interference_limited(), timing, config, rtol)


def mean_decodable_upper_bound(alpha: float, threshold: float) -> float:
    """sinc(2/alpha)/T^{2/alpha}; attained when all timing mass sits inside the CP."""
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return float(sinc(2.0 / alpha) / threshold ** (2.0 / alpha))


def rho(x, alpha: float):
    """rho(x, alpha) = x^{2/alpha} * integral_{x^{-2/alpha}}^inf dv / (1 + v^{alpha/2}).

    Closed form x 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -x) / (alpha/2 - 1); vectorized in x.
    """
    if alpha <= 2:
        raise ValueError("alpha must exceed 2 (integral diverges otherwise)")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr > 0):
        raise ValueError("x must be positive")
    d = 2.0 / alpha
    out = x_arr * hyp2f1(1.0, 1.0 - d, 2.0 - d, -x_arr) / (alpha / 2.0 - 1.0)
    return out if out.ndim else float(out)


def nearest_decoding_prob(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                          rtol: float = DEFAULT_RTOL, *, thresholds=None):
    """Probability that the packet from the nearest transmitter is decodable (Prop. 2).

    pi*lam * E_D[ integral_0^inf exp(-h q v^{alpha/2} - b(h) v) dv ] with
    b(h) = pi*lam*(1 + rho(h, alpha)); with w = b(h) v the radial integral is
    I(q h / b(h)^{alpha/2}) / b(h).  `thresholds` works as in `mean_decodable`.
    """
    alpha, q = params.alpha, params.noise_over_e

    def F(g, t):
        h = t / ((1.0 + t) * g - t)
        b = np.pi * params.density * (1.0 + rho(h, alpha))
        return np.pi * params.density * _exp_power_integral(q * h / b ** (alpha / 2.0),
                                                            alpha / 2.0, rtol) / b

    return _expect(params, timing, config, F, rtol, thresholds)


def lambda_tilde(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                 rtol: float = DEFAULT_RTOL) -> float:
    """Intensity of the noise-only-decodable point process dominating the count.

    pi*lam * int_0^inf E_D[ I(decodable) exp(-T v^{alpha/2} / (g(D) SNR)) ] dv
    = pi*lam * Gamma(1 + 2/alpha) * E_D[ I(decodable) (g(D) SNR / T)^{2/alpha} ].
    Diverges in the interference-limited limit, so finite SNR is required.
    """
    if params.noise_over_e == 0.0:
        raise ValueError("the dominating intensity requires finite snr")
    d = 2.0 / params.alpha
    scale = np.pi * params.density * math.gamma(1.0 + d)

    def F(g, t):
        return scale * (g * params.snr / t) ** d

    return _expect(params, timing, config, F, rtol)


def lambda_tilde_closed_form_alpha4(params: NetworkParams, timing: TimingModel,
                                    config: OfdmConfig, rtol: float = DEFAULT_RTOL) -> float:
    """The alpha = 4 case: (pi^{3/2} lam / 2) sqrt(SNR/T) E_D[I(decodable) sqrt(g(D))]."""
    if params.alpha != 4.0:
        raise ValueError("closed form holds for alpha = 4 only")
    prefactor = np.pi ** 1.5 * params.density / 2.0 * math.sqrt(params.snr / params.threshold)
    return prefactor * _expect(params, timing, config, lambda g, t: np.sqrt(g), rtol)


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
    thresholds = [params.with_threshold_db(t).threshold for t in grid_db]
    means = mean_decodable(params, timing, config, rtol, thresholds=thresholds)
    values = [math.log1p(t) * float(m) for t, m in zip(thresholds, means)]
    best = int(np.argmax(values))  # first max = lowest T on ties
    return grid_db[best], values[best], values


def laplace_interference(s: float, density: float, alpha: float) -> float:
    """E[exp(-s I)] for Rayleigh-faded interference from a Poisson field."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    return float(np.exp(-density * np.pi * s ** (2.0 / alpha) / sinc(2.0 / alpha)))
