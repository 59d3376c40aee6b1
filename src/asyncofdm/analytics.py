"""Closed-form and quadrature evaluation of the network-level statistics.

Everything here works on the abstraction of sinr.py: the mean number of
decodable transmitters, its interference-limited form and upper bound, the
truncated-Poisson dominating distribution of the decodable count, the
nearest-transmitter decoding probability, system throughput, and the Laplace
transform of Poisson-field interference used as a simulation cross-check.

Each statistic is an expectation over the timing offset D of a function of
g(D) on the decodable set g(D) > T/(1+T), computed by `_expect_over_timing`
for a whole grid of T at once: F(1) times the mass on the cyclic-prefix plateau,
plus an integral over the spill (D's distance to it) in pieces, each through a
smoothstep map that flattens the integrand at both ends.
The radial integrals reduce to I(a) = integral_0^inf exp(-w - a w^{alpha/2}) dw.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .link import OfdmConfig
from .quadrature import QuadratureError, integrate, integrate_halfline
from .sinr import (NetworkParams, _check_alpha, _check_finite_positive, _check_hypotheses,
                   db_to_linear, hypothesis_weight)
from .timing import TimingModel, _check_domain

__all__ = [
    "CountDistribution",
    "mean_decodable",
    "mean_decodable_each",
    "mean_decodable_upper_bound",
    "mean_decodable_with_hypotheses",
    "lambda_tilde",
    "lambda_tilde_closed_form_alpha4",
    "upsilon_upper_distribution",
    "rho",
    "nearest_decoding_prob",
    "nearest_decoding_prob_each",
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


def _checked(value, err, what: str):
    """value, once the summed error estimate err is within DEFAULT_RTOL * max(|value|, 1e-300)."""
    worst = float((err / np.maximum(np.abs(value), 1e-300)).max(initial=0.0))
    if not worst <= DEFAULT_RTOL:  # NaN fails too
        raise QuadratureError(f"{what}: error estimate {worst:.3e} of |value| exceeds "
                              f"rtol = {DEFAULT_RTOL:g}")
    return value


_laguerre = functools.lru_cache(maxsize=None)(np.polynomial.laguerre.laggauss)
_CHUNK = 256  # components per Laguerre or adaptive evaluation: memory stays flat in their number


def _exp_power_integral(a, p: float) -> np.ndarray:
    """I(a) = integral_0^inf exp(-w - a w^p) dw for each component of a >= 0.

    Each tier takes the components the one before leaves, with its error estimate:
    - the series sum_{k<6} (-a)^k Gamma(1 + kp)/k!, where its bound a^6 Gamma(1 + 6p)/6!
      (e^-x's Taylor remainder alternates for x >= 0) is within 1e-12 of the value;
      skipped where Gamma(1 + 6p) overflows, from alpha ~ 57;
    - a 32/64-node Gauss-Laguerre pair, where the two agree within DEFAULT_RTOL;
    - adaptive quadrature, also where both rules underflow to 0 (large a).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    val, err, left = np.zeros_like(a), np.zeros_like(a), np.arange(len(a))
    if math.lgamma(1.0 + 6.0 * p) < 700.0:  # Gamma(1 + 6p) is finite
        c = [math.gamma(1.0 + k * p) / math.factorial(k) for k in range(7)]
        x = np.minimum(a, c[6] ** (-1.0 / 6.0))  # then c_k x^k <= 1 for each k: no overflow
        val, err = np.polyval(c[5::-1], -x), c[6] * x ** 6
        left = np.flatnonzero(~(err <= 1e-12 * val))
    (x32, w32), (x64, w64) = _laguerre(32), _laguerre(64)
    for j in (left[i:i + _CHUNK] for i in range(0, len(left), _CHUNK)):
        with np.errstate(over="ignore"):  # a w^p = inf is right: exp(-inf) = 0
            coarse = np.exp(-np.outer(a[j], x32 ** p)) @ w32
            val[j] = np.exp(-np.outer(a[j], x64 ** p)) @ w64
        err[j] = np.abs(val[j] - coarse)
    left = left[~(err[left] < DEFAULT_RTOL * val[left])]
    for j in (left[i:i + _CHUNK] for i in range(0, len(left), _CHUNK)):
        a_j, step = a[j], np.minimum(1.0, a[j] ** (-1.0 / p))  # w = step * u decays on u ~ 1

        def f(u):
            w = np.outer(u, step)
            with np.errstate(over="ignore"):  # as in the Laguerre tier
                return step * np.exp(-a_j * w ** p - w)

        val[j], err[j] = integrate_halfline(f, rtol=DEFAULT_RTOL)
    return _checked(val, err, "radial integral")


def _expect_over_timing(params: NetworkParams, timings, config: OfdmConfig, F,
                        thresholds=None, hypotheses=(0.0,)):
    """E_D[ 1{g(D) > T/(1+T)} F(g(D), T) ], g the best weight over the hypotheses, for each
    model of `timings`: a list of floats at T = params.threshold, or of arrays at each T of
    `thresholds`, a non-empty 1-D sequence of finite positive values.

    F maps arrays of weights and of their thresholds, every weight above T/(1+T), to an
    array of values.  g = ((N - e)/N)^2 depends on D only through its spill e, the distance
    to the merged plateaus [t, t + N_cp], and decodes while e < E = N(1 - sqrt(T/(1+T))):
    the value is F(1, T) times the plateaus' `TimingModel.mass` plus the integral of F over
    e in [0, E] against the spill's density, the model's density on the arms D = a - e and
    D = b + e of each plateau [a, b] (each reaching half the gap to the next).  [0, E] is
    split at that density's breakpoints (finite reaches; model breakpoints and domain ends
    through each arm), and piece k, [lo, hi], is integrated over s in [k, k+1] through
    e = lo + (hi - lo) r^2 (3 - 2r), r = s - k, whose Jacobian 6 r (1 - r)(hi - lo) vanishes
    at both ends to smooth the (E - e)^{2/alpha} edge.  Each T is one column of one stacked
    integral, padded by zero-width pieces at its E.  Non-delta models with one set of
    breakpoints share one integral, a block each, bit for bit the model's own call's.
    """
    if len(timings) == 0:
        raise ValueError("timings must be a non-empty sequence of timing models")
    _check_domain(timings, config)
    grid = np.asarray([params.threshold] if thresholds is None else thresholds, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"thresholds must be a non-empty 1-D sequence, got shape {grid.shape}")
    if not ((grid > 0) & (grid < np.inf)).all():  # NaN fails too
        bad = next(i for i, t in enumerate(grid.tolist()) if not 0 < t < math.inf)
        raise ValueError(f"thresholds[{bad}] = {grid[bad]} is not finite and positive")
    c, w, n = grid / (1.0 + grid), config.domain_half_width, config.n
    spill = n * (1.0 - np.sqrt(c))
    e_max = float(spill.max())
    if not all(timing.is_delta for timing in timings):  # a delta reads no plateau or arm
        plateaus = _merge((t, t + config.n_cp) for t in hypotheses)
        half = [0.5 * (a - b) for (_, b), (a, _) in zip(plateaus, plateaus[1:])]
        arms = list(zip([a for a, _ in plateaus], [-1.0] * len(plateaus), [math.inf] + half))
        arms += zip([b for _, b in plateaus], [1.0] * len(plateaus), half + [math.inf])
        arms = [(x, s, r) for x, s, r in arms if -w - min(r, e_max) < s * x < w]  # in reach
        anchor, sign, reach = np.array(arms).reshape(-1, 3).T[:, :, None, None]
    at_one, fits = np.zeros(len(grid)), c < 1.0  # c rounds to 1 from T ~ 2^53: nothing decodes
    at_one[fits] = F(np.ones(fits.sum()), grid[fits])
    values, groups = {}, {}
    for i, timing in enumerate(timings):
        if timing.is_delta:  # on a plateau (g0 = 1), ok is `fits`: the shared F(1, T)
            g0 = hypothesis_weight(config, hypotheses, timing.offset)
            values[i], ok = np.zeros(len(grid)), g0 > c
            values[i][ok] = at_one[ok] if g0 == 1.0 else F(np.full(ok.sum(), g0), grid[ok])
        else:  # out-of-domain breakpoints split no piece
            jumps = [x for x in timing.breakpoints if -w < x < w] + [-w, w]
            cuts = {r for _, _, r in arms if r < e_max}  # finite reaches; each jump on each arm
            cuts.update(e for x, side, r in arms for j in jumps
                        if 0 < (e := side * (j - x)) < min(r, e_max))
            groups.setdefault(tuple(sorted(cuts)), []).append(i)
    for cuts, members in groups.items():
        pts = np.minimum(np.array((0.0,) + cuts + (np.inf,))[:, None], spill)
        lo, width = pts[:-1], pts[1:] - pts[:-1]  # each (pieces, m); pads sit at E

        def f(s):  # integrate's panels never straddle the integer breakpoints
            k = np.minimum(s.astype(int), len(lo) - 1)
            r, wk = (s - k)[:, None], width[k]
            e = lo[k] + wk * r * r * (3.0 - 2.0 * r)
            g = ((n - e) / n) ** 2
            ok = (g > c) & (wk > 0)
            at_ok = np.zeros(g.shape)  # F where decodable, else 0: jac * density is finite, >= 0
            at_ok[ok] = F(g[ok], grid[ok.nonzero()[1]])
            jac = 6.0 * r * (1.0 - r) * wk
            # each arm's D while it is the nearest; past its reach, off the domain: density 0
            offsets = np.where(e < reach, anchor + sign * e, np.inf)
            out = np.empty((len(members),) + g.shape)  # each block C-contiguous, as if alone
            for block, i in zip(out, members):
                np.multiply(jac * timings[i].density(offsets).sum(axis=0), at_ok, out=block)
            return out.swapaxes(0, 1)

        val, err = integrate(f, 0.0, float(len(lo)), rtol=DEFAULT_RTOL,
                             breakpoints=range(1, len(lo)), blocks=True)
        for i, v, dv in zip(members, val, err):
            mass = sum(timings[i].mass(a, b) for a, b in plateaus if b > -w and a < w)
            values[i] = _checked(v + mass * at_one, dv, "timing expectation")
    return [v if thresholds is not None else float(v[0]) for _, v in sorted(values.items())]


def mean_decodable_each(params: NetworkParams, timings, config: OfdmConfig, hypotheses=(0.0,),
                        *, thresholds=None):
    """Mean number of transmitters whose SINR clears the detection threshold, a list over
    the timing models `timings`, each bit for bit its model's own; given linear
    `thresholds`, an array of the mean at each, and params.threshold is not read.

    pi*lam * E_D[ integral_0^inf exp(-h q v^{alpha/2} - b(h) v) dv ] (Prop. 1), g the best
    weight over `hypotheses`.  With b(h) = pi*lam*h^{2/alpha}/sinc(2/alpha) and w = b(h) v the
    radial integral is I(a0)/b(h), a0 = q (sinc(2/alpha)/(pi*lam))^{alpha/2}: one I per call.
    """
    hypotheses, alpha = _check_hypotheses(hypotheses), params.alpha
    if (far := max(map(abs, hypotheses))) >= 2 * config.domain_half_width:
        raise ValueError(f"timing hypothesis at |t| = {far:g} >= 2 * {config.domain_half_width}: "
                         "it shifts every offset off the domain and can never raise g")
    sc = float(np.sinc(2.0 / alpha))
    try:
        a0 = params.noise_over_e * (sc / (np.pi * params.density)) ** (alpha / 2.0)
    except OverflowError:  # a float power raises rather than returning inf
        raise ValueError(f"alpha = {alpha:g} is too large: (sinc(2/alpha)/(pi density))^(alpha/2) "
                         f"overflows at density {params.density:g}") from None
    scale = sc * float(_exp_power_integral(a0, alpha / 2.0)[0])

    def F(g, t):  # pi*lam * I(a0)/b(h) with 1/h = ((1+T) g - T)/T
        return scale * (((1.0 + t) * g - t) / t) ** (2.0 / alpha)

    return _expect_over_timing(params, timings, config, F, thresholds, hypotheses)


def mean_decodable(params: NetworkParams, timing: TimingModel, config: OfdmConfig, *,
                   thresholds=None):
    """`mean_decodable_each` of the one model `timing`."""
    return mean_decodable_each(params, [timing], config, thresholds=thresholds)[0]


def mean_decodable_with_hypotheses(params: NetworkParams, timing: TimingModel,
                                   config: OfdmConfig, hypotheses, *, thresholds=None):
    """`mean_decodable` when the receiver tries each of several timing `hypotheses`."""
    return mean_decodable_each(params, [timing], config, hypotheses, thresholds=thresholds)[0]


def mean_decodable_upper_bound(alpha: float, threshold: float) -> float:
    """sinc(2/alpha)/T^{2/alpha}; attained when all timing mass sits inside the CP."""
    _check_alpha(alpha)
    _check_finite_positive("threshold", threshold)
    return float(np.sinc(2.0 / alpha) / threshold ** (2.0 / alpha))


def _hyp2f1_11(c: float, w: np.ndarray) -> np.ndarray:
    """2F1(1, 1; c; w) = sum_n n!/(c)_n w^n for c > 1 and 0 < w <= 1/2, by in-place Horner;
    terms fall at least as w^n, so the largest w sets how many reach 2^-55: at most 56."""
    n = min(56, math.ceil(55 * math.log(2.0) / -math.log(w.max(initial=1e-300))))
    coef = list(itertools.accumulate(range(n), lambda a, k: a * (k + 1) / (c + k), initial=1.0))
    out = np.full(w.shape, coef.pop())
    for a in reversed(coef):
        out *= w
        out += a
    return out


def rho(x, alpha: float):
    """rho(x, alpha) = x^{2/alpha} * integral_{x^{-2/alpha}}^inf dv / (1 + v^{alpha/2}).

    Closed form x 2F1(1, b; b+1; -x) / (alpha/2 - 1) with b = 1 - 2/alpha; vectorized in
    x.  The 2F1 is (1+x)^-1 2F1(1, 1; b+1; x/(1+x)) below x = 1 (Pfaff), and from x = 1
    on b pi/sin(pi b) x^-b + b/(b-1) (1+x)^-1 2F1(1, 1; 2-b; 1/(1+x)) (Abramowitz &
    Stegun 15.3.7).  The branch goes by x: at alpha = 4 both series have c = 3/2.
    """
    _check_alpha(alpha)
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0) & (x_arr < np.inf)):
        raise ValueError("x must be positive and finite")
    b = 1.0 - 2.0 / alpha
    f, low = np.empty(x_arr.shape), x_arr < 1.0
    xs = x_arr[low]
    f[low] = _hyp2f1_11(1.0 + b, xs / (1.0 + xs)) / (1.0 + xs)
    xs = x_arr[~low]
    f[~low] = (b * math.pi / math.sin(math.pi * b) * xs ** -b
               + b / (b - 1.0) * _hyp2f1_11(2.0 - b, 1.0 / (1.0 + xs)) / (1.0 + xs))
    out = x_arr * f / (alpha / 2.0 - 1.0)
    return out if out.ndim else float(out)


def nearest_decoding_prob_each(params: NetworkParams, timings, config: OfdmConfig, *,
                               thresholds=None):
    """Probability that the packet from the nearest transmitter is decodable (Prop. 2),
    as a list over the timing models `timings`, each entry bit for bit its model's own.

    pi*lam * E_D[ integral_0^inf exp(-h q v^{alpha/2} - b(h) v) dv ] with
    b(h) = pi*lam*k(h), k(h) = 1 + rho(h, alpha); with w = b(h) v the two pi*lam cancel:
    E_D[ I(q h / (pi*lam*k(h))^{alpha/2}) / k(h) ].  `thresholds` works as in `mean_decodable`.
    """
    alpha, q = params.alpha, params.noise_over_e

    def F(g, t):
        h = t / ((1.0 + t) * g - t)
        k = 1.0 + rho(h, alpha)
        return _exp_power_integral(q * h / (np.pi * params.density * k) ** (alpha / 2.0),
                                   alpha / 2.0) / k

    return _expect_over_timing(params, timings, config, F, thresholds)


def nearest_decoding_prob(params: NetworkParams, timing: TimingModel, config: OfdmConfig, *,
                          thresholds=None):
    """`nearest_decoding_prob_each` of the one model `timing`."""
    return nearest_decoding_prob_each(params, [timing], config, thresholds=thresholds)[0]


def lambda_tilde(params: NetworkParams, timing: TimingModel, config: OfdmConfig) -> float:
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

    return _expect_over_timing(params, [timing], config, F)[0]


def lambda_tilde_closed_form_alpha4(params: NetworkParams, timing: TimingModel,
                                    config: OfdmConfig) -> float:
    """The alpha = 4 case: (pi^{3/2} lam / 2) sqrt(SNR/T) E_D[I(decodable) sqrt(g(D))]."""
    if params.alpha != 4.0:
        raise ValueError("closed form holds for alpha = 4 only")
    prefactor = np.pi ** 1.5 * params.density / 2.0 * math.sqrt(params.snr / params.threshold)
    return prefactor * _expect_over_timing(params, [timing], config, lambda g, t: np.sqrt(g))[0]


@dataclass
class CountDistribution:
    """A pmf of the decodable count on 0..support_max: the bound, or a histogram of trials."""

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


def upsilon_upper_distribution(params: NetworkParams, timing: TimingModel,
                               config: OfdmConfig) -> CountDistribution:
    """Poisson(lambda_tilde) truncated at floor((1+T)/T), renormalized."""
    n_max = math.floor((1.0 + params.threshold) / params.threshold)
    lam = lambda_tilde(params, timing, config)
    counts = np.arange(n_max + 1)
    if lam == 0.0:
        pmf = np.zeros(n_max + 1)
        pmf[0] = 1.0
    else:
        logp = counts * math.log(lam) - np.fromiter(map(math.lgamma, range(1, n_max + 2)), float,
                                                    n_max + 1)
        logp -= logp.max()
        pmf = np.exp(logp)
        pmf /= pmf.sum()
    return CountDistribution(counts, pmf)


def optimize_threshold(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                       grid_db):
    """Grid argmax of system throughput, the mean sum rate ln(1+T) * E[decodable count]
    (natural log: the argmax is base-free), over thresholds in dB; ties go to the lower T.

    Returns (best_db, best_throughput, throughput_per_grid_point).
    """
    grid_db = list(grid_db)
    if not grid_db:
        raise ValueError("threshold grid must be non-empty")
    if any(b <= a for a, b in zip(grid_db, grid_db[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    thresholds = [db_to_linear(t) for t in grid_db]
    return _best_threshold(grid_db, mean_decodable(params, timing, config, thresholds=thresholds))


def _best_threshold(grid_db, means):
    """`optimize_threshold`'s result from the mean count at each point of its grid."""
    values = [math.log1p(db_to_linear(t)) * float(m) for t, m in zip(grid_db, means)]
    best = int(np.argmax(values))  # first max = lowest T on ties
    return grid_db[best], values[best], values


def laplace_interference(s: float, density: float, alpha: float) -> float:
    """E[exp(-s I)] for Rayleigh-faded interference from a Poisson field."""
    if not s >= 0:  # NaN fails too
        raise ValueError(f"s must be nonnegative, got {s}")
    _check_finite_positive("density", density)
    _check_alpha(alpha)
    return float(np.exp(-density * np.pi * s ** (2.0 / alpha) / np.sinc(2.0 / alpha)))
