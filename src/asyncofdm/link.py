"""Link-level OFDM: sample generation, misaligned receive windows, per-subcarrier powers.

Sample period, channel gain and symbol energy are normalized to 1.  Timing
offsets here are integer samples; the receive window for an offset d splits into
four regimes depending on which neighbouring symbols leak into the FFT window:

  1. d in [-(N+Ncp), -N): window drawn entirely from symbol m+1 (no useful power);
  2. d in [-N, 0):        splice of symbols m and m+1;
  3. d in [0, Ncp):       pure cyclic shift of symbol m (no self-interference);
  4. d in [Ncp, N+Ncp):   splice of symbols m-1 and m.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads these on first use, an import that a signal handler
import numpy.random  # can re-enter and recurse in; the engines load them with the package

__all__ = [
    "OfdmConfig",
    "SymbolStream",
    "PowerProfile",
    "qpsk_stream",
    "gaussian_stream",
    "modulate_symbol",
    "receive_window",
    "demodulate_window",
    "closed_form_outputs",
    "analytic_power_profile",
    "empirical_power_profile",
]

# trials per accumulation group in empirical_power_profile.  A group's powers are summed
# down its (group, K) columns in numpy's pairwise order (`_pairwise_sum`), its cross
# products row by row from one `y * np.conj(current)`, which numpy may evaluate in place in
# the conj temporary, operands swapped: this size and those orders fix the output bits.
_TRIAL_BLOCK = 64
# trials per transform batch within a group; keeps the FFT work in cache
_FFT_BATCH = 8
# trials per seeding pass in _trial_generators; amortises its ~50 array calls
_SEED_CHUNK = 1024


def _integer(name: str, value) -> int:
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if as_int != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return as_int


def _fmt(x: float) -> str:  # the number format of every CSV the package writes
    return f"{x:.10g}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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
class OfdmConfig:
    """FFT size, cyclic-prefix length and the set of occupied subcarriers."""

    n: int
    n_cp: int
    used: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "n_cp", _integer("n_cp", self.n_cp))
        used = self.used
        if not (ranged := type(used) is range and used.step == 1):  # else sorted ints, each once
            used = tuple(used)
            if set(map(type, used)) - {int}:  # bools, numpy and float integers: one at a time
                used = (_integer("subcarrier", k) for k in used)
        used = tuple(used if ranged else sorted(used))
        object.__setattr__(self, "used", used)
        if self.n <= 0 or self.n_cp <= 0:
            raise ValueError("n and n_cp must be positive")
        if self.n_cp >= self.n:
            raise ValueError("cyclic prefix must be shorter than the FFT size")
        if len(used) == 0:
            raise ValueError("at least one subcarrier must be used")
        if not ranged and len(set(used)) != len(used):
            raise ValueError("duplicate subcarrier indices")
        if not -self.n // 2 <= used[0] <= used[-1] < self.n // 2:  # sorted: check the ends
            k = next(k for k in used if not -self.n // 2 <= k < self.n // 2)
            raise ValueError(f"subcarrier {k} outside [{-self.n // 2}, {self.n // 2})")

    @classmethod
    def centered(cls, n: int, n_cp: int, lo: int, hi: int) -> "OfdmConfig":
        """Config with the contiguous subcarrier range lo..hi inclusive."""
        return cls(n, n_cp, range(_integer("lo", lo), _integer("hi", hi) + 1))

    @property
    def domain_half_width(self) -> int:
        """Half-width of the admissible timing-offset domain."""
        return self.n + self.n_cp

    def used_array(self) -> np.ndarray:
        return np.asarray(self.used, dtype=int)


class SymbolStream(dict):
    """Data symbols keyed by OFDM symbol m, one per subcarrier of the `OfdmConfig.used`
    set they are read through; zero on unused subcarriers."""

    def __missing__(self, m):
        raise ValueError(f"no data for OFDM symbol {m}")


def _symbols(config: OfdmConfig, stream: SymbolStream, m: int) -> np.ndarray:
    """Symbol m of the stream, checked to hold one symbol per subcarrier of config.used."""
    if len(stream[m]) != len(config.used):
        raise ValueError(f"OFDM symbol {m} does not hold one symbol per used subcarrier")
    return stream[m]


_QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


def _qpsk_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    return _QPSK[rng.integers(0, 4, size=shape)]


def _qpsk_indices(words: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """`integers(0, 4, size=shape)` of a generator with no buffered half-word, per row of its
    raw PCG64 `words`: the top two bits of each 32-bit half, low half first."""
    halves = words.view("<u4")[..., :shape[0] * shape[1]]  # words are "<u8"
    return (halves >> 30).reshape(*words.shape[:-1], *shape)


def _gaussian_pairs(z: np.ndarray, out=None) -> np.ndarray:
    """Unit-variance complex symbols from the normal pairs z[..., 0, :] and z[..., 1, :]."""
    return np.divide(z[..., 0, :] + 1j * z[..., 1, :], np.sqrt(2.0), out=out)


def _gaussian_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    return _gaussian_pairs(rng.standard_normal((*shape[:-1], 2, shape[-1])))


# per alphabet, for empirical_power_profile: the shape and dtype of one trial's raw draw of
# a (rows, k) symbol block, that draw into one row of a batch buffer, the batch's draws
# indexed by symbol row, and the map of one such row onto symbols
_ALPHABETS = {
    "qpsk": (lambda rows, k: (-(-rows * k // 2),), "<u8",
             lambda rng, out: np.copyto(out, rng.bit_generator.random_raw(len(out))),
             _qpsk_indices, lambda idx, out: np.take(_QPSK, idx, out=out, mode="clip")),
    "gaussian": (lambda rows, k: (rows, 2, k), float,
                 lambda rng, out: rng.standard_normal(out=out), lambda z, shape: z, _gaussian_pairs),
}


def _stream(draw, config: OfdmConfig, symbol_indices, rng: np.random.Generator) -> SymbolStream:
    # one draw of shape (symbols, subcarriers) consumes the generator exactly
    # as one draw per symbol, in order, would
    indices = list(symbol_indices)
    syms = draw(rng, (len(indices), len(config.used)))
    return SymbolStream(zip(indices, syms))


def qpsk_stream(config: OfdmConfig, symbol_indices, rng: np.random.Generator) -> SymbolStream:
    """Unit-modulus QPSK symbols, i.i.d. per (subcarrier, symbol), by `integers`: any rng state."""
    return _stream(_qpsk_symbols, config, symbol_indices, rng)


def gaussian_stream(config: OfdmConfig, symbol_indices, rng: np.random.Generator) -> SymbolStream:
    """Circularly-symmetric complex Gaussian symbols with unit variance."""
    return _stream(_gaussian_symbols, config, symbol_indices, rng)


def modulate_symbol(config: OfdmConfig, stream: SymbolStream, m: int) -> np.ndarray:
    """Time samples of OFDM symbol m, indices -n_cp .. n-1 (array index 0 is -n_cp)."""
    # sample[t] = (1/N) sum_k S[k] e^{j 2 pi k t / N}  ==  ifft, S[k] at index k mod N
    grid = np.zeros(config.n, dtype=complex)
    grid[config.used_array() % config.n] = _symbols(config, stream, m)
    body = np.fft.ifft(grid)
    return np.concatenate([body[-config.n_cp:], body])


def _sample_offset(config: OfdmConfig, d) -> int:
    """d as an integer number of samples in [-(n+n_cp), n+n_cp)."""
    d, w = _integer("timing offset", d), config.domain_half_width
    if not -w <= d < w:
        raise ValueError(f"timing offset {d} outside [-{w}, {w})")
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


def closed_form_outputs(config: OfdmConfig, stream: SymbolStream, d: int, m: int) -> np.ndarray:
    """Per-subcarrier outputs from the explicit closed forms, regimes 1-2 only.

    Returns the full length-n array (index l mod n), for comparison against
    demodulate_window(receive_window(...)).
    """
    d = _sample_offset(config, d)
    n, ncp = config.n, config.n_cp
    if d >= 0:
        raise ValueError("closed forms implemented for offsets in [-(n+n_cp), 0) only")
    used = config.used_array()

    if d < -n:  # regime 1: phase-rotated copy of symbol m+1
        out = np.zeros(n, dtype=complex)
        phase = np.exp(1j * 2 * np.pi * used * (-d - ncp) / n)
        out[used % n] = phase * _symbols(config, stream, m + 1)
        return out

    # regime 2
    s_cur = _symbols(config, stream, m)
    s_nxt = _symbols(config, stream, m + 1)
    rot_cur = s_cur * np.exp(-1j * 2 * np.pi * used * d / n)
    rot_nxt = s_nxt * np.exp(1j * 2 * np.pi * used * (-d - ncp) / n)

    # inter-carrier terms: out[l] += (1/n) sum_{used k != l} f((k - l) mod n) v[k]
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
    out = np.fft.ifft(np.fft.fft(v) * np.fft.ifft(kernel))
    out[used % n] += (n + d) / n * rot_cur - d / n * rot_nxt
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
        _write_csv(path, ["subcarrier", "useful", "total", "stderr_total"],
                   ([k, _fmt(u), _fmt(t), _fmt(s)] for k, u, t, s in zip(*(
                       c.tolist() for c in (self.subcarriers, self.useful, self.total, stderr)))))

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
    """Expected per-subcarrier powers at offset d, unit channel gain and energy: one
    formula in the spill e, the window samples from a neighbouring symbol (n, -d, 0 and
    d - n_cp in regimes 1-4).  ICI(e) = ICI(n - e), so regime 2 needs no ICI(n + d)."""
    d = _sample_offset(config, d)
    n, used = config.n, config.used_array()
    e = min(max(-d, d - config.n_cp, 0), n)
    useful = np.full(len(used), ((n - e) / n) ** 2)
    total = ((n - e) ** 2 + e ** 2) / n ** 2 + 2.0 / n ** 2 * _ici_sum(config, e)
    return PowerProfile(d, used, useful, total)


def _runs(index: np.ndarray) -> list[tuple[int, int, int]]:
    """(a, b, index[a]) for each maximal run index[a:b] of consecutive integers."""
    cuts = [0, *(np.flatnonzero(np.diff(index) != 1) + 1).tolist(), len(index)]
    return [(a, b, int(index[a])) for a, b in zip(cuts, cuts[1:])]


def _pairwise_sum(p: np.ndarray) -> np.ndarray:
    """p.sum(axis=0) in numpy's order down a contiguous column of at most 128 entries:
    eight interleaved accumulators, a fixed tree over them, then the tail in turn."""
    head = len(p) // 8 * 8
    r = p[:8].copy()
    for i in range(8, head, 8):
        r += p[i:i + 8]
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])) if head else r[0]
    for row in p[head or 1:]:
        out += row
    return out


def empirical_power_profile(config: OfdmConfig, d: int, trials: int, seed: int,
                            alphabet: str = "qpsk") -> PowerProfile:
    """Monte Carlo per-subcarrier powers averaged over random symbol streams.

    The useful power is estimated from the correlation of the output with the desired
    symbol, |mean Y[l] conj(S[l;m])|^2, which is independent of the analytic per-regime
    decomposition.  Deterministic per (seed, trial).  Each trial's freshly seated generator
    draws only its raw words or normals; a batch maps the rows it reads onto symbols.
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if alphabet not in _ALPHABETS:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    d = _sample_offset(config, d)
    n, k = config.n, len(config.used)
    pieces = _window_pieces(config, d)
    read = [1 + s for s, _ in pieces]  # rows of the drawn symbols m-1, m, m+1
    rows = max(read) + 1  # draws stop at the last row read, which is row 1 (m) or later
    used_runs = _runs(config.used_array() % n)
    # window sample j is entry gather[j] of a trial's flattened (pieces, n) IFFT output
    gather_runs = _runs(np.concatenate([i * n + (np.arange(p.start, p.stop) - config.n_cp) % n
                                        for i, (_, p) in enumerate(pieces)]))
    other = [r for r in read if r != 1]  # the one row besides m a regime may read
    shape, dtype, draw, by_row, symbols = _ALPHABETS[alphabet]
    raw = np.empty((_FFT_BATCH, *shape(rows, k)), dtype)
    sym, window = np.empty((_FFT_BATCH, k), complex), np.empty((_FFT_BATCH, n), complex)
    grid = np.zeros((_FFT_BATCH, len(pieces), n), dtype=complex)
    y, current = np.empty((2, _TRIAL_BLOCK, k), dtype=complex)  # outputs, symbols of m
    total_sum, total_sq, cross = np.zeros(k), np.zeros(k), np.zeros(k, dtype=complex)
    rngs = _trial_generators(seed, 0, trials)
    for first in range(0, trials, _TRIAL_BLOCK):
        g = min(_TRIAL_BLOCK, trials - first)
        for lo in range(0, g, _FFT_BATCH):
            b = min(_FFT_BATCH, g - lo)
            for out in raw[:b]:
                draw(next(rngs), out)
            drawn = by_row(raw[:b], (rows, k))
            symbols(drawn[:, 1], current[lo:lo + b])
            for r in other:
                symbols(drawn[:, r], sym[:b])
            for i, r in enumerate(read):
                source = current[lo:lo + b] if r == 1 else sym[:b]
                for a, e, at in used_runs:
                    grid[:b, i, at:at + e - a] = source[:, a:e]
            body = np.fft.ifft(grid[:b], axis=-1).reshape(b, -1)
            for a, e, at in gather_runs:
                window[:b, a:e] = body[:, at:at + e - a]
            spectrum = np.fft.fft(window[:b], axis=-1)
            for a, e, at in used_runs:
                y[lo:lo + b, a:e] = spectrum[:, at:at + e - a]
        p = np.abs(y[:g]) ** 2
        total_sum += _pairwise_sum(p)
        total_sq += _pairwise_sum(p ** 2)
        cross += (y[:g] * np.conj(current[:g])).sum(axis=0)  # see _TRIAL_BLOCK
    total = total_sum / trials
    stderr = np.sqrt(np.maximum(total_sq / trials - total ** 2, 0.0) / trials)
    useful = np.abs(cross / trials) ** 2
    return PowerProfile(d, config.used_array(), useful, total, stderr)
