"""Seeded Monte Carlo simulation of Poisson transmitter fields.

The receiver sits at the center of a disk of radius R holding `SimSpec.expected_points`
expected points by default.  Interference from beyond R is dropped; its mean decays
only like R^(2-alpha), which biases counts upward for alpha near 2 (open as ROADMAP
item 1).
Each trial draws from its own RNG substream seeded by (master_seed, trial_index),
so results do not depend on the workers, and every timing model sees the same fields.
With `workers=None` (the CLI's default) a run takes one process per started 1,024-trial
seeding chunk where a pool forks, up to the CPUs this process may use; this process runs
the first chunk itself.  The library's default is one process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .analytics import CountDistribution
from .link import OfdmConfig, _fmt, _integer, _write_csv
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


# trials per seeding pass in _trial_generators (amortises its ~50 array calls), and the
# fewest trials that by default get a process of their own in run_trials_each
_SEED_CHUNK = 1024


def _hashmix(v: np.ndarray, k: int, rows: int, c: int = 0x43b0d7e5, mult: int = 0x931e8875):
    """numpy SeedSequence's hashmix as its calls k ... k + rows - 1, one per row of v."""
    h = [c * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(k, k + rows + 1)]
    h = np.array(h, np.uint32)[:, None]
    v = (v ^ h[:-1]) * h[1:]
    return v ^ v >> 16


def _trial_generators(seed: int, lo: int, hi: int):
    """Yield, for t = lo ... hi-1, one reused Generator re-seated to the exact state of
    `default_rng([seed, t])`, so with no buffered 32-bit half-word: SeedSequence as uint32
    arrays per chunk, PCG64 seeding in Python ints.  Finish a trial's draws before the next."""
    rng = np.random.Generator(np.random.PCG64())
    pcg = {"state": 0, "inc": 0}  # one state dict, re-filled per trial
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": pcg}
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    while lo < hi:
        t_words = -(-max(lo.bit_length(), 1) // 32)  # 32-bit words; constant over a chunk
        stop = min(lo + _SEED_CHUNK, hi, 1 << 32 * t_words)
        t = np.arange(lo, stop, dtype=object) >> np.arange(0, 32 * t_words, 32)[:, None]
        entropy = np.zeros((max(len(seed_words) + t_words, 4), stop - lo), np.uint32)
        entropy[:len(seed_words)] = np.array(seed_words)[:, None]
        entropy[len(seed_words):len(seed_words) + t_words] = t & 0xFFFFFFFF
        pool, k = _hashmix(entropy[:4], 0, 4), 4
        for s in range(len(entropy)):  # each pool word into the others, then extra words
            dst = [d for d in range(4) if d != s]
            h = _hashmix(pool[s] if s < 4 else entropy[s], k, len(dst))
            r = np.uint32(0xca01f9dd) * pool[dst] - np.uint32(0x4973f715) * h
            pool[dst], k = r ^ r >> 16, k + len(dst)
        w = _hashmix(pool[[0, 1, 2, 3] * 2], 0, 8, 0x8b51f9dd, 0x58f38ded)  # generate_state
        for row in np.ascontiguousarray(w.T, "<u4").view("<u8"):  # no chunk-long list of ints
            s0, s1, i0, i1 = row.tolist()
            pcg["inc"] = inc = (i0 << 65 | i1 << 1 | 1) & (1 << 128) - 1
            mixed = (inc + (s0 << 64 | s1)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc
            pcg["state"] = mixed & (1 << 128) - 1
            rng.bit_generator.state = state
            yield rng
        lo = stop


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

    def mean_count(self, threshold: float) -> Estimate:
        """Mean decodable count at a threshold at or above this pass's own."""
        return _mean_ci(self.at(threshold).counts.astype(float))

    def nearest_prob(self, threshold: float) -> Estimate:
        """Fraction of trials whose nearest transmitter decodes at a threshold at or above
        this pass's own; empty trials fail."""
        ok = self.at(threshold).nearest_sinr >= threshold  # NaN compares False
        return _mean_ci(ok.astype(float))

    def to_csv(self, path) -> None:
        _write_csv(path, ["trial", "count", "nearest_sinr_db"],
                   ([t, c, "" if math.isnan(s) else _fmt(10 * math.log10(s) if s else -math.inf)]
                    for t, (c, s) in enumerate(zip(self.counts.tolist(),
                                                   self.nearest_sinr.tolist()))))


def run_trials(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
               spec: SimSpec, workers: int | None = 1) -> TrialResults:
    """Run all trials, optionally across processes; output independent of workers."""
    return run_trials_each(params, [timing], config, spec, workers)[0]


def _cpus() -> int:
    """CPUs this process may run on (its affinity), or those installed where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forks() -> bool:
    """Whether a pool started here forks; a spawn or forkserver worker imports numpy and
    this package afresh, so two processes lose to one up to at least 5,000 trials."""
    import multiprocessing  # read without fixing the start method
    return (multiprocessing.get_start_method(allow_none=True)
            or multiprocessing.get_all_start_methods()[0]) == "fork"


def run_trials_each(params: NetworkParams, timings: list[TimingModel], config: OfdmConfig,
                    spec: SimSpec, workers: int | None = 1) -> list[TrialResults]:
    """One `TrialResults` per timing model from one draw-and-screen pass, each the same
    bits as a pass with that model alone; output independent of workers.  The trials split
    into one contiguous chunk per process: `workers`, or for `workers=None` one per started
    `_SEED_CHUNK` trials where a pool forks (else one), at most the usable CPUs and the
    trials.  This process runs the first chunk, and a pool the rest."""
    if not timings or workers is not None and workers < 1:
        raise ValueError(f"need a timing model and workers >= 1, got {len(timings)} and {workers}")
    _check_domain(timings, config)
    if workers is None:
        workers = -(-spec.trials // _SEED_CHUNK) if _forks() else 1
    bounds = np.linspace(0, spec.trials, min(workers, _cpus(), spec.trials) + 1, dtype=int)
    jobs = [(params, timings, config, spec, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])]
    if len(jobs) == 1:
        chunks = [_trial_chunk(jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for it
        with ProcessPoolExecutor(max_workers=len(jobs) - 1) as pool:
            rest = pool.map(_trial_chunk, jobs[1:])  # submitted before this process's share
            chunks = [_trial_chunk(jobs[0]), *rest]
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
                            spec: SimSpec, workers: int | None = 1) -> Estimate:
    """Mean decodable count at params.threshold over a fresh run."""
    return run_trials(params, timing, config, spec, workers).mean_count(params.threshold)


def _wilson(successes: np.ndarray, n: int):
    z = 1.96  # 95%
    p = successes / n
    denom = 1.0 + z * z / n
    return z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom


@dataclass
class EmpiricalDistribution(CountDistribution):
    """Histogram of the decodable count, on 0..max observed, with Wilson intervals per bin."""

    ci_half_width: np.ndarray
    trials: int

    def ccdf_stderr(self) -> np.ndarray:
        tail = self.ccdf()
        return np.sqrt(np.clip(tail * (1.0 - tail), 0.0, None) / self.trials)


def estimate_distribution(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                          spec: SimSpec, workers: int | None = 1) -> EmpiricalDistribution:
    results = run_trials(params, timing, config, spec, workers)
    hist = np.bincount(results.counts).astype(float)
    return EmpiricalDistribution(np.arange(len(hist)), hist / results.trials,
                                 _wilson(hist, results.trials), results.trials)


def estimate_nearest_prob(params: NetworkParams, timing: TimingModel, config: OfdmConfig,
                          spec: SimSpec, workers: int | None = 1) -> Estimate:
    """Fraction of trials of a fresh run whose nearest transmitter decodes at
    params.threshold; empty trials fail."""
    return run_trials(params, timing, config, spec, workers).nearest_prob(params.threshold)
