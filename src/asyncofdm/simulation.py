"""Seeded Monte Carlo simulation of Poisson transmitter fields.

The receiver sits at the center of a disk of radius R holding `SimSpec.expected_points`
expected points by default.  Interference from beyond R is dropped; its mean decays
only like R^(2-alpha), which biases counts upward for alpha near 2 (open as ROADMAP
item 1).
Each trial draws from its own RNG substream seeded by (master_seed, trial_index),
so results do not depend on the workers, and every timing model sees the same fields.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .analytics import CountDistribution
from .link import OfdmConfig, _fmt, _integer, _trial_generators, _write_csv
from .sinr import NetworkParams, NetworkSnapshot, _check_positive, _sinr, snapshot_sinr_all
from .timing import TimingModel, _check_domain

__all__ = [
    "SimSpec",
    "Estimate",
    "TrialResults",
    "sample_snapshot",
    "count_decodable",
    "run_trials",
    "run_trials_each",
    "estimate_mean_decodable",
    "estimate_distribution",
    "estimate_nearest_prob",
]


@dataclass(frozen=True)
class SimSpec:
    """Trial count, observation window and master seed for one simulation run."""

    trials: int
    master_seed: int
    expected_points: int = 2000
    window_radius: float | None = None

    def __post_init__(self):
        for name in ("trials", "master_seed", "expected_points"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.window_radius is None and self.expected_points < 100:
            raise ValueError("expected_points < 100 makes window edge effects significant")
        if self.window_radius is not None and not 0 < self.window_radius < math.inf:
            raise ValueError(f"window_radius must be finite and positive, not {self.window_radius}")

    def radius(self, density: float) -> float:
        if self.window_radius is not None:
            return self.window_radius
        return math.sqrt(self.expected_points / (math.pi * density))


@dataclass(frozen=True)
class Estimate:
    mean: float
    ci_half_width: float  # 95%, normal approximation
    trials: int


def _disk(params: NetworkParams, spec: SimSpec) -> tuple[float, float]:
    """Radius of the observation disk and its mean number of transmitters."""
    radius = spec.radius(params.density)
    return radius, params.density * math.pi * radius ** 2


def _draw(rng: np.random.Generator, radius: float, mean: float):
    """Distances and fades of one trial, its generator's first draws (timing uniforms come
    next): in place, the bits of radius * np.sqrt(rng.random(...)) and rng.exponential(1.0, ...)."""
    d = rng.random(rng.poisson(mean))
    np.sqrt(d, out=d)
    d *= radius
    return d, rng.standard_exponential(len(d))


def sample_snapshot(params: NetworkParams, timing: TimingModel, spec: SimSpec,
                    trial_index: int) -> NetworkSnapshot:
    """One PPP realization on the observation disk, deterministic per (seed, trial)."""
    t = _integer("trial_index", trial_index)
    if t < 0:
        raise ValueError(f"trial_index must be >= 0, got {t}")
    rng = np.random.default_rng([spec.master_seed, t])
    distances, fades = _draw(rng, *_disk(params, spec))
    offsets = timing.sample(rng, len(distances))
    return NetworkSnapshot(distances, fades, offsets, params.noise_over_e, params.alpha)


def count_decodable(snapshot: NetworkSnapshot, threshold: float, config: OfdmConfig) -> int:
    """Number of transmitters whose SINR clears the threshold."""
    return int(np.count_nonzero(snapshot_sinr_all(snapshot, config) >= threshold))


def _candidates(params: NetworkParams, timing: TimingModel, rng: np.random.Generator,
                disk: tuple[float, float], cut: float):
    """Powers and timing uniforms of a trial's candidates (p >= cut * (total + N0/E),
    and the nearest), its total power, and the nearest's place among them.  The uniforms, the
    trial's last draws, stop at its last candidate: random(k) is random(n)'s first k doubles."""
    distances, fades = _draw(rng, *disk)
    if not len(distances):
        return distances, fades, 0.0, -1
    i = distances.argmin()
    _check_positive(distances.item(i), np.minimum.reduce(fades))  # the least stand for all
    p = np.multiply(fades, np.power(distances, -params.alpha, out=distances), out=fades)
    total = np.add.reduce(p)  # the bits of p.sum()
    keep = p >= cut * (total + params.noise_over_e)
    keep[i] = True
    idx = keep.nonzero()[0]
    return p[idx], timing.uniforms(rng, idx[-1] + 1)[idx], total, idx.searchsorted(i)


def _blocks(trials):
    """Trials grouped into scoring blocks: within both limits, or a lone trial past the first."""
    block, held = [], 0
    for trial in trials:
        if block and (held + len(trial[0]) > _BLOCK_CANDIDATES or len(block) == _BLOCK_TRIALS):
            yield block
            block, held = [], 0
        block.append(trial)
        held += len(trial[0])
    if block:
        yield block


# Scoring limits: candidates bound the memory at low T, trials the per-trial arrays at high T.
_BLOCK_CANDIDATES, _BLOCK_TRIALS = 1 << 16, 1024


def _trial_chunk(args):
    """Per block of trials in [start, stop), per timing model: counts, nearest SINRs
    and kept SINRs.  Only candidates are scored: as g <= 1, SINR >= T needs p >= T/(1+T)
    (total + N0/E); the nearest always is.  Draws and screen run once, with a non-delta
    model if any: all of those draw the same uniforms, and a delta ignores them."""
    params, timings, config, spec, start, stop = args
    cut = (1.0 - 1e-9) * params.threshold / (1.0 + params.threshold)  # 1e-9: rounding slack
    draw_with = next((m for m in timings if not m.is_delta), timings[0])
    rngs, disk, out = _trial_generators(spec.master_seed, start, stop), _disk(params, spec), []
    for trials in _blocks(_candidates(params, draw_with, rng, disk, cut) for rng in rngs):
        p, u, total, nearest = zip(*trials)
        sizes = np.fromiter(map(len, p), np.int64, len(p))
        p, u, total = np.concatenate(p), np.concatenate(u), np.repeat(total, sizes)
        trial = np.repeat(np.arange(len(sizes)), sizes)
        near_at = np.where(sizes > 0, np.cumsum(sizes) - sizes + nearest, -1)
        block = []
        for timing in timings:
            s = _sinr(config, timing.quantile(u), p, total, params.noise_over_e)
            ok = s >= params.threshold
            block.append((np.bincount(trial[ok], minlength=len(sizes)),
                          np.append(s, math.nan)[near_at], s[ok]))
        out.append(block)
    return out


@dataclass
class TrialResults:
    """Per-trial decodable counts and nearest-transmitter SINRs, in trial order."""

    counts: np.ndarray
    nearest_sinr: np.ndarray
    threshold: float
    sinr: np.ndarray  # the SINRs that clear threshold, trial t contributing counts[t]

    @property
    def trials(self) -> int:
        return len(self.counts)

    def at(self, threshold: float) -> "TrialResults":
        """The results these trials give at a threshold at or above their own."""
        if not threshold >= self.threshold:
            raise ValueError(f"threshold {threshold} is below the simulated {self.threshold}")
        keep = self.sinr >= threshold
        trial = np.repeat(np.arange(self.trials), self.counts)
        counts = np.bincount(trial[keep], minlength=self.trials)
        return TrialResults(counts, self.nearest_sinr, threshold, self.sinr[keep])

    def to_csv(self, path) -> None:
        _write_csv(path, ["trial", "count", "nearest_sinr_db"],
                   ([t, c, "" if math.isnan(s) else _fmt(10 * math.log10(s) if s else -math.inf)]
                    for t, (c, s) in enumerate(zip(self.counts.tolist(),
                                                   self.nearest_sinr.tolist()))))


def run_trials(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
               spec: SimSpec, workers: int = 1) -> TrialResults:
    """Run all trials, optionally across processes; output independent of workers."""
    return run_trials_each(params, [timing], config, spec, workers)[0]


def run_trials_each(params: NetworkParams, timings: list[TimingModel], config: OfdmConfig,
                    spec: SimSpec, workers: int = 1) -> list[TrialResults]:
    """One `TrialResults` per timing model from one draw-and-screen pass, each the same
    bits as a pass with that model alone; output independent of workers."""
    if not (timings and workers >= 1):
        raise ValueError(f"need a timing model and workers >= 1, got {len(timings)} and {workers}")
    _check_domain(timings, config)
    bounds = np.linspace(0, spec.trials, min(workers, spec.trials) + 1, dtype=int)
    jobs = [(params, timings, config, spec, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])]
    if len(jobs) == 1:
        chunks = [_trial_chunk(jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for it
        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            chunks = list(pool.map(_trial_chunk, jobs))
    blocks = [block for chunk in chunks for block in chunk]  # trial order
    return [TrialResults(counts, near, params.threshold, sinr)
            for counts, near, sinr in (map(np.concatenate, zip(*model))
                                       for model in zip(*blocks))]


def _mean_ci(x: np.ndarray) -> Estimate:
    n = len(x)
    mean = float(np.mean(x))
    half = 0.0 if n < 2 else 1.96 * float(np.std(x, ddof=1)) / math.sqrt(n)
    return Estimate(mean, half, n)


def estimate_mean_decodable(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                            spec: SimSpec, workers: int = 1,
                            results: TrialResults | None = None) -> Estimate:
    """Mean decodable count at params.threshold, of `results` if given, else of a fresh run."""
    if results is None:
        results = run_trials(params, timing, config, spec, workers)
    return _mean_ci(results.at(params.threshold).counts.astype(float))


def _wilson(successes: np.ndarray, n: int):
    z = 1.96  # 95%
    p = successes / n
    denom = 1.0 + z * z / n
    return z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom


@dataclass
class EmpiricalDistribution:
    """Histogram of the decodable count with Wilson intervals per bin."""

    counts: np.ndarray  # n values 0..max observed
    pmf: np.ndarray
    ci_half_width: np.ndarray
    trials: int

    ccdf = CountDistribution.ccdf

    def ccdf_stderr(self) -> np.ndarray:
        tail = self.ccdf()
        return np.sqrt(np.clip(tail * (1.0 - tail), 0.0, None) / self.trials)


def estimate_distribution(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                          spec: SimSpec, workers: int = 1) -> EmpiricalDistribution:
    results = run_trials(params, timing, config, spec, workers)
    n_max = int(results.counts.max(initial=0))
    values = np.arange(n_max + 1)
    hist = np.bincount(results.counts, minlength=n_max + 1).astype(float)
    return EmpiricalDistribution(values, hist / results.trials, _wilson(hist, results.trials),
                                 results.trials)


def estimate_nearest_prob(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                          spec: SimSpec, workers: int = 1,
                          results: TrialResults | None = None) -> Estimate:
    """Fraction of trials where the nearest transmitter decodes at params.threshold, of
    `results` if given, else of a fresh run; empty trials fail."""
    if results is None:
        results = run_trials(params, timing, config, spec, workers)
    ok = results.at(params.threshold).nearest_sinr >= params.threshold  # NaN compares False
    return _mean_ci(ok.astype(float))
