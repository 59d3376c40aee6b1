"""First-order system-level SINR model for timing-misaligned OFDM links.

The link-level analysis collapses into a single weight g(d): the fraction of
useful signal energy retained at misalignment d.  The total received power from
every transmitter is approximated as its full power, so the SINR of transmitter
i on a network snapshot is

    g(d_i) p_i / ((1 - g(d_i)) p_i + sum_{j != i} p_j + N0/E),   p_i = r_i^-alpha f_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .link import OfdmConfig, _integer

__all__ = [
    "NetworkParams",
    "NetworkSnapshot",
    "cp_weight",
    "cp_weight_clipped",
    "snapshot_sinr_all",
    "hypothesis_set",
    "hypothesis_weight",
]

MAX_HYPOTHESES = 1_000_000  # most shifts in a set; 200,001 take the analytics 0.13-0.27 s


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _check_alpha(alpha: float) -> None:
    """The pathloss exponent is finite and above 2, where Poisson-field interference converges."""
    if not 2 < alpha < math.inf:  # NaN fails too
        raise ValueError(f"alpha must be finite and exceed 2 for the interference to converge, "
                         f"got {alpha}")


def _check_finite_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class NetworkParams:
    """Transmitter density, pathloss, power budget and detection threshold.

    `snr` is E/N0 with distances in meters and unit-gain pathloss at 1 m;
    math.inf selects the interference-limited regime.  `threshold` is linear.
    """

    density: float
    alpha: float
    snr: float
    threshold: float

    def __post_init__(self):
        _check_finite_positive("density", self.density)
        _check_alpha(self.alpha)
        if not self.snr > 0:  # also rejects NaN; inf is the interference-limited regime
            raise ValueError(f"snr must be positive, got {self.snr}")
        _check_finite_positive("threshold", self.threshold)

    @classmethod
    def from_budget(cls, density: float, alpha: float, threshold_db: float,
                    tx_power_dbm: float, bandwidth_hz: float,
                    noise_psd_dbm_hz: float, noise_figure_db: float) -> "NetworkParams":
        noise_dbm = noise_psd_dbm_hz + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
        return cls(density, alpha, db_to_linear(tx_power_dbm - noise_dbm),
                   db_to_linear(threshold_db))

    @property
    def noise_over_e(self) -> float:
        return 0.0 if math.isinf(self.snr) else 1.0 / self.snr

    def with_threshold_db(self, threshold_db: float) -> "NetworkParams":
        return replace(self, threshold=db_to_linear(threshold_db))


def _check_offsets(config: OfdmConfig, d) -> np.ndarray:
    """d as a float array, after checking it lies in [-(n+n_cp), n+n_cp); NaN fails."""
    d = np.asarray(d, dtype=float)
    w = config.domain_half_width
    if not np.all((d >= -w) & (d < w)):
        raise ValueError(f"timing offset outside [-{w}, {w}) or NaN")
    return d


def cp_weight(config: OfdmConfig, d):
    """Retained useful-energy fraction g(d) on [-(n+n_cp), n+n_cp); real d allowed."""
    out = cp_weight_clipped(config, _check_offsets(config, d))
    return out if out.ndim else float(out)


def cp_weight_clipped(config: OfdmConfig, d):
    """g(d) extended by zero outside its domain (used for shifted hypotheses).

    ±inf maps to 0; NaN gives NaN, so callers check their offsets first.
    """
    d = np.asarray(d, dtype=float)
    n, ncp = config.n, config.n_cp
    r = np.maximum(np.minimum(np.minimum(n + d, n), (n + ncp) - d), 0.0) / n
    return r * r  # ** 2 on a 0-d array calls libm pow, a last bit off the array path's square


def _check_positive(least_distance: float, least_fade: float) -> None:
    if not (least_distance > 0 and least_fade > 0):  # NaN fails too
        raise ValueError("distances and fades must be positive")


def _sinr(config: OfdmConfig, offsets, p, total, noise_over_e):
    """SINR of power p at its timing offset when all powers, p included, sum to `total`."""
    g = cp_weight(config, offsets)
    with np.errstate(divide="ignore"):  # a lone noise-free power inside the CP: +inf is right
        return g * p / ((1.0 - g) * p + (total - p) + noise_over_e)


@dataclass
class NetworkSnapshot:
    """One realization of the transmitter field seen by the receiver at the origin."""

    distances: np.ndarray
    fades: np.ndarray
    offsets: np.ndarray
    noise_over_e: float
    alpha: float

    def __post_init__(self):
        self.distances = np.asarray(self.distances, dtype=float)
        self.fades = np.asarray(self.fades, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float)
        if not (len(self.distances) == len(self.fades) == len(self.offsets)):
            raise ValueError("per-transmitter arrays must have equal length")
        _check_positive(self.distances.min(initial=np.inf), self.fades.min(initial=np.inf))
        if self.noise_over_e < 0:
            raise ValueError("noise_over_e must be nonnegative")

    def __len__(self) -> int:
        return len(self.distances)

    def received_powers(self) -> np.ndarray:
        return self.fades * self.distances ** (-self.alpha)


def snapshot_sinr_all(snapshot: NetworkSnapshot, config: OfdmConfig) -> np.ndarray:
    """SINR of every transmitter in the snapshot."""
    p = snapshot.received_powers()
    return _sinr(config, snapshot.offsets, p, p.sum(), snapshot.noise_over_e)


def hypothesis_set(n1: int, n2: int, delta: float) -> tuple[float, ...]:
    """Receiver timing hypotheses -n1*delta, ..., 0, ..., n2*delta, at most MAX_HYPOTHESES."""
    n1, n2 = _integer("n1", n1), _integer("n2", n2)
    if n1 < 0 or n2 < 0 or not 0 < delta < math.inf:
        raise ValueError("need n1, n2 >= 0 and finite delta > 0")
    if n1 + n2 + 1 > MAX_HYPOTHESES:  # checked before the tuple is built
        raise ValueError(f"{n1 + n2 + 1} hypotheses exceed MAX_HYPOTHESES = {MAX_HYPOTHESES}")
    return tuple(k * delta for k in range(-n1, n2 + 1))


def _check_hypotheses(hypotheses) -> tuple[float, ...]:
    """The timing hypotheses as a sorted non-empty tuple of finite offsets."""
    hypotheses = tuple(hypotheses)
    if not hypotheses:
        raise ValueError("hypothesis set must be non-empty")
    if not all(map(math.isfinite, hypotheses)):
        raise ValueError(f"timing hypotheses must be finite, got {hypotheses}")
    return tuple(sorted(hypotheses))


def hypothesis_weight(config: OfdmConfig, hypotheses, x):
    """Best retained-energy fraction over the timing hypotheses, max_t g(x - t): g(x - t) rises
    in t to its plateau, then falls (rounded too), so the last shift <= x or the next wins."""
    shifts, x_arr = np.array(_check_hypotheses(hypotheses), float), _check_offsets(config, x)
    i = np.searchsorted(shifts, x_arr, side="right")  # take clips -1 and len to real shifts
    g = [cp_weight_clipped(config, x_arr - shifts.take(j, mode="clip")) for j in (i - 1, i)]
    return np.maximum(*g) if x_arr.ndim else float(np.maximum(*g))
