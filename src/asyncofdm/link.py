"""Link-level OFDM: sample generation, misaligned receive windows, per-subcarrier powers.

Sample period is normalized to 1, channel gain and symbol energy to 1 unless set
otherwise.  Timing offsets here are integer samples; the receive window for an
offset d splits into four regimes depending on which neighbouring symbols leak
into the FFT window:

  1. d in [-(N+Ncp), -N): window drawn entirely from symbol m+1 (no useful power);
  2. d in [-N, 0):        splice of symbols m and m+1;
  3. d in [0, Ncp):       pure cyclic shift of symbol m (no self-interference);
  4. d in [Ncp, N+Ncp):   splice of symbols m-1 and m.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OfdmConfig",
    "SymbolStream",
    "PowerProfile",
    "qpsk_stream",
    "gaussian_stream",
    "modulate_symbol",
    "receive_window",
    "demodulate_window",
    "used_outputs",
    "closed_form_outputs",
    "analytic_power_profile",
    "empirical_power_profile",
]

# trials per accumulation group in empirical_power_profile.  A group is reduced
# over one F-ordered (group, K) output array, by numpy's pairwise sums down its
# columns, and one C-ordered symbol array: this size and those layouts fix the
# summation order, and with it the output bits.
_TRIAL_BLOCK = 64
# trials per transform batch within a group; keeps the FFT work in cache
_FFT_BATCH = 8


def _integer(name: str, value) -> int:
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if as_int != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return as_int


@dataclass(frozen=True)
class OfdmConfig:
    """FFT size, cyclic-prefix length and the set of occupied subcarriers."""

    n: int
    n_cp: int
    used: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "n_cp", _integer("n_cp", self.n_cp))
        object.__setattr__(self, "used",
                           tuple(sorted(_integer("subcarrier", k) for k in self.used)))
        if self.n <= 0 or self.n_cp <= 0:
            raise ValueError("n and n_cp must be positive")
        if self.n_cp >= self.n:
            raise ValueError("cyclic prefix must be shorter than the FFT size")
        if len(self.used) == 0:
            raise ValueError("at least one subcarrier must be used")
        if len(set(self.used)) != len(self.used):
            raise ValueError("duplicate subcarrier indices")
        for k in self.used:
            if not -self.n // 2 <= k < self.n // 2:
                raise ValueError(f"subcarrier {k} outside [-{self.n // 2}, {self.n // 2})")

    @classmethod
    def centered(cls, n: int, n_cp: int, lo: int, hi: int) -> "OfdmConfig":
        """Config with the contiguous subcarrier range lo..hi inclusive."""
        return cls(n, n_cp, tuple(range(lo, hi + 1)))

    @property
    def domain_half_width(self) -> int:
        """Half-width of the admissible timing-offset domain."""
        return self.n + self.n_cp

    def check_offset(self, d) -> None:
        w = self.domain_half_width
        if not -w <= d < w:
            raise ValueError(f"timing offset {d} outside [-{w}, {w})")

    def used_array(self) -> np.ndarray:
        return np.asarray(self.used, dtype=int)


@dataclass
class SymbolStream:
    """Data symbols per (subcarrier, OFDM symbol); zero on unused subcarriers."""

    used: tuple[int, ...]
    symbols: dict[int, np.ndarray] = field(default_factory=dict)
    energy_per_sample: float = 1.0

    def get(self, m: int) -> np.ndarray:
        if m not in self.symbols:
            raise ValueError(f"no data for OFDM symbol {m}")
        return self.symbols[m]

    def spectrum(self, n: int, m: int) -> np.ndarray:
        """Length-n frequency grid with used entries placed at index k mod n."""
        grid = np.zeros(n, dtype=complex)
        grid[np.asarray(self.used, dtype=int) % n] = self.get(m)
        return grid


_QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


def _qpsk_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    return _QPSK[rng.integers(0, 4, size=shape)]


def _gaussian_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    z = rng.standard_normal((*shape[:-1], 2, shape[-1]))
    return (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)


def _stream(draw, config: OfdmConfig, symbol_indices, rng: np.random.Generator,
            energy_per_sample: float) -> SymbolStream:
    # one draw of shape (symbols, subcarriers) consumes the generator exactly
    # as one draw per symbol, in order, would
    indices = list(symbol_indices)
    syms = draw(rng, (len(indices), len(config.used)))
    return SymbolStream(config.used, dict(zip(indices, syms)), energy_per_sample)


def qpsk_stream(config: OfdmConfig, symbol_indices, rng: np.random.Generator,
                energy_per_sample: float = 1.0) -> SymbolStream:
    """Unit-modulus QPSK symbols, i.i.d. per (subcarrier, symbol)."""
    return _stream(_qpsk_symbols, config, symbol_indices, rng, energy_per_sample)


def gaussian_stream(config: OfdmConfig, symbol_indices, rng: np.random.Generator,
                    energy_per_sample: float = 1.0) -> SymbolStream:
    """Circularly-symmetric complex Gaussian symbols with unit variance."""
    return _stream(_gaussian_symbols, config, symbol_indices, rng, energy_per_sample)


def modulate_symbol(config: OfdmConfig, stream: SymbolStream, m: int) -> np.ndarray:
    """Time samples of OFDM symbol m, indices -n_cp .. n-1 (array index 0 is -n_cp)."""
    # sample[t] = (sqrt(E)/N) sum_k S[k] e^{j 2 pi k t / N}  ==  sqrt(E) * ifft
    body = np.fft.ifft(stream.spectrum(config.n, m))
    return np.sqrt(stream.energy_per_sample) * np.concatenate([body[-config.n_cp:], body])


def _sample_offset(config: OfdmConfig, d) -> int:
    if d != int(d):
        raise ValueError(f"timing offset {d} is not an integer number of samples")
    d = int(d)
    config.check_offset(d)
    return d


def _window_pieces(config: OfdmConfig, d: int) -> list[tuple[int, slice]]:
    """The receive window at offset d as (symbol offset from m, slice) pieces.

    Each slice indexes that symbol's samples as returned by modulate_symbol;
    the pieces concatenated in order are the n samples entering the FFT.
    """
    n, ncp = config.n, config.n_cp
    if d < -n:  # regime 1: entirely next symbol
        pieces = [(1, -d - n, n)]
    elif d < 0:  # regime 2: current + next
        pieces = [(0, ncp - d, n + d), (1, 0, -d)]
    elif d < ncp:  # regime 3: cyclic shift of current symbol
        pieces = [(0, ncp - d, n)]
    else:  # regime 4: previous + current
        pieces = [(-1, n + 2 * ncp - d, d - ncp), (0, 0, n + ncp - d)]
    return [(s, slice(start, start + size)) for s, start, size in pieces if size > 0]


def receive_window(config: OfdmConfig, stream: SymbolStream, d: int, m: int) -> np.ndarray:
    """The n samples entering the FFT when the window is offset by d samples."""
    d = _sample_offset(config, d)
    return np.concatenate([modulate_symbol(config, stream, m + s)[piece]
                           for s, piece in _window_pieces(config, d)])


def demodulate_window(window: np.ndarray) -> np.ndarray:
    """Y[l] = sum_t window[t] e^{-j 2 pi l t / N}; index l mod N."""
    window = np.asarray(window)
    if window.ndim != 1:
        raise ValueError("window must be one-dimensional")
    return np.fft.fft(window)


def used_outputs(config: OfdmConfig, outputs: np.ndarray) -> np.ndarray:
    """Demodulator outputs restricted to the used subcarriers, in config order."""
    if len(outputs) != config.n:
        raise ValueError(f"expected {config.n} demodulator outputs, got {len(outputs)}")
    return outputs[config.used_array() % config.n]


def closed_form_outputs(config: OfdmConfig, stream: SymbolStream, d: int, m: int) -> np.ndarray:
    """Per-subcarrier outputs from the explicit closed forms, regimes 1-2 only.

    Returns the full length-n array (index l mod n), for comparison against
    demodulate_window(receive_window(...)).
    """
    d = _sample_offset(config, d)
    n, ncp = config.n, config.n_cp
    if d >= 0:
        raise ValueError("closed forms implemented for offsets in [-(n+n_cp), 0) only")
    root_e = np.sqrt(stream.energy_per_sample)
    used = config.used_array()

    if d < -n:  # regime 1: phase-rotated copy of symbol m+1
        out = np.zeros(n, dtype=complex)
        phase = np.exp(1j * 2 * np.pi * used * (-d - ncp) / n)
        out[used % n] = root_e * phase * stream.get(m + 1)
        return out

    # regime 2
    s_cur = stream.get(m)
    s_nxt = stream.get(m + 1)
    rot_cur = s_cur * np.exp(-1j * 2 * np.pi * used * d / n)
    rot_nxt = s_nxt * np.exp(1j * 2 * np.pi * used * (-d - ncp) / n)

    # inter-carrier terms: out[l] += (root_e/n) sum_{used k != l} f((k - l) mod n) v[k]
    # with the geometric-sum kernel f(j) = (1 - e^{j 2 pi j (n+d)/n}) / (1 - e^{j 2 pi j/n})
    # and f(0) = 0.  This is a length-n circular correlation of v with f, whose
    # DFT form is n * ifft(fft(v) * ifft(f)).  j (n+d) is reduced mod n first
    # so the phase stays exact.
    j = np.arange(1, n)
    kernel = np.zeros(n, dtype=complex)
    kernel[1:] = ((1.0 - np.exp(1j * 2 * np.pi * (j * (n + d) % n) / n))
                  / (1.0 - np.exp(1j * 2 * np.pi * j / n)))
    v = np.zeros(n, dtype=complex)
    v[used % n] = rot_cur - rot_nxt
    out = root_e * np.fft.ifft(np.fft.fft(v) * np.fft.ifft(kernel))
    out[used % n] += root_e * ((n + d) / n * rot_cur - d / n * rot_nxt)
    return out


@dataclass
class PowerProfile:
    """Useful/total received power per used subcarrier at one timing offset."""

    offset: int
    subcarriers: np.ndarray
    useful: np.ndarray
    total: np.ndarray
    stderr_total: np.ndarray | None = None

    def to_csv(self, path) -> None:
        stderr = self.stderr_total
        if stderr is None:
            stderr = np.zeros_like(self.total)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subcarrier", "useful", "total", "stderr_total"])
            for k, u, t, s in zip(self.subcarriers, self.useful, self.total, stderr):
                w.writerow([int(k), f"{u:.10g}", f"{t:.10g}", f"{s:.10g}"])

    def sir_db(self, subcarrier: int) -> float:
        """Useful-to-self-interference ratio on one subcarrier, in dB."""
        hits = np.flatnonzero(self.subcarriers == subcarrier)
        if hits.size == 0:
            raise ValueError(f"subcarrier {subcarrier} is not in the profile")
        i = int(hits[0])
        interference = self.total[i] - self.useful[i]
        if interference <= 0:  # inside the CP: none, or a rounding residue below 0
            return np.inf
        if self.useful[i] <= 0:  # the window holds none of symbol m
            return -np.inf
        return 10.0 * np.log10(self.useful[i] / interference)


def _ici_sum(config: OfdmConfig, width: float) -> np.ndarray:
    """sum over used k != l of sin^2(pi*width*(k-l)/n) / sin^2(pi*(k-l)/n), per used l."""
    used = config.used_array()
    offset = used - used[0]
    span = offset[-1] + 1
    # the terms depend only on j = k - l, |j| < span <= n, and are even in j
    j = np.arange(1 - span, span)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.sin(np.pi * width * j / config.n) ** 2 / np.sin(np.pi * j / config.n) ** 2
    terms[span - 1] = 0.0  # j = 0
    occupied = np.zeros(span)
    occupied[offset] = 1.0
    return np.convolve(occupied, terms, mode="valid")[offset]


def analytic_power_profile(config: OfdmConfig, d: int) -> PowerProfile:
    """Expected per-subcarrier powers at offset d, unit channel gain and energy."""
    d = _sample_offset(config, d)
    n, ncp = config.n, config.n_cp
    used = config.used_array()
    k = len(used)

    if d < -n:  # regime 1
        useful = np.zeros(k)
        total = np.ones(k)
    elif d < 0:  # regime 2
        useful = np.full(k, ((n + d) / n) ** 2)
        total = ((n + d) ** 2 + d ** 2) / n ** 2 + 2.0 / n ** 2 * _ici_sum(config, n + d)
    elif d < ncp:  # regime 3
        useful = np.ones(k)
        total = np.ones(k)
    else:  # regime 4
        useful = np.full(k, ((n + ncp - d) / n) ** 2)
        total = ((n - d + ncp) ** 2 + (d - ncp) ** 2) / n ** 2 + 2.0 / n ** 2 * _ici_sum(config, d - ncp)
    return PowerProfile(d, used, useful, total)


def empirical_power_profile(config: OfdmConfig, d: int, trials: int, seed: int,
                            alphabet: str = "qpsk") -> PowerProfile:
    """Monte Carlo per-subcarrier powers averaged over random symbol streams.

    The useful power is estimated from the correlation of the output with the
    desired symbol, |mean Y[l] conj(S[l;m])|^2, which is independent of the
    analytic per-regime decomposition.  Deterministic per (seed, trial).
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if alphabet not in ("qpsk", "gaussian"):
        raise ValueError(f"unknown alphabet {alphabet!r}")
    d = _sample_offset(config, d)
    n, k = config.n, len(config.used)
    pieces = _window_pieces(config, d)
    read = [1 + s for s, _ in pieces]  # rows of the drawn symbols m-1, m, m+1
    rows = max(read) + 1  # draws stop at the last row read, which is row 1 (m) or later
    used_mod = config.used_array() % n
    # window sample j is entry gather[j] of a trial's flattened (pieces, n) IFFT output
    gather = np.concatenate([i * n + (np.arange(p.start, p.stop) - config.n_cp) % n
                             for i, (_, p) in enumerate(pieces)])
    cuts = [0, *(np.flatnonzero(np.diff(used_mod) != 1) + 1).tolist(), k]
    runs = [(a, b, used_mod[a]) for a, b in zip(cuts, cuts[1:])]  # contiguous runs of used_mod
    if alphabet == "qpsk":
        draw, symbols = (lambda rng, shape: rng.integers(0, 4, size=shape)), _QPSK.take
    else:
        draw, symbols = _gaussian_symbols, np.asarray
    grid = np.zeros((_FFT_BATCH, len(pieces), n), dtype=complex)
    total_sum = np.zeros(k)
    total_sq = np.zeros(k)
    cross = np.zeros(k, dtype=complex)
    for first in range(0, trials, _TRIAL_BLOCK):
        group = range(first, min(first + _TRIAL_BLOCK, trials))
        y = np.empty((len(group), k), dtype=complex, order="F")  # see _TRIAL_BLOCK
        current = np.empty((len(group), k), dtype=complex)  # see _TRIAL_BLOCK
        for lo in range(0, len(group), _FFT_BATCH):
            batch = group[lo:lo + _FFT_BATCH]
            raw = np.stack([draw(np.random.default_rng([seed, t]), (rows, k)) for t in batch])
            for i, r in enumerate(read):
                for a, b, at in runs:
                    grid[:len(batch), i, at:at + b - a] = symbols(raw[:, r, a:b])
            body = np.fft.ifft(grid[:len(batch)], axis=-1).reshape(len(batch), -1)
            y[lo:lo + len(batch)] = np.fft.fft(body[:, gather], axis=-1)[:, used_mod]
            current[lo:lo + len(batch)] = symbols(raw[:, 1])
        p = np.abs(y) ** 2
        total_sum += p.sum(axis=0)
        total_sq += (p ** 2).sum(axis=0)
        cross += (y * np.conj(current)).sum(axis=0)
    total = total_sum / trials
    var = np.maximum(total_sq / trials - total ** 2, 0.0)
    stderr = np.sqrt(var / trials)
    useful = np.abs(cross / trials) ** 2
    return PowerProfile(d, config.used_array(), useful, total, stderr)
