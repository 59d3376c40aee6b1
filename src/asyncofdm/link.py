"""Link-level OFDM: sample generation, misaligned receive windows, per-subcarrier powers.

Sample period, channel gain and symbol energy are normalized to 1; timing offsets are
integer samples.  The receive window at offset d splits into four regimes by the symbols it
reads; the Monte Carlo engine transforms only the samples from a second one, its spill:

  1. d in [-(N+Ncp), -N): window drawn entirely from symbol m+1 (no useful power);
  2. d in [-N, 0):        splice of symbols m and m+1;
  3. d in [0, Ncp):       pure cyclic shift of symbol m (no self-interference);
  4. d in [Ncp, N+Ncp):   splice of symbols m-1 and m.
"""

from __future__ import annotations

import csv
import functools
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

# trials per accumulation group in empirical_power_profile, and per generator: group j
# draws from default_rng([seed, j]).  A group's powers and cross products are summed row
# by row from real products, whose rounding no SIMD dispatch changes, each batch's rows
# folded into the group's sums as made: this size and that order fix the output bits.
_TRIAL_BLOCK = 64
# trials per transform batch within a group; keeps the FFT work in cache.  A batch takes
# the group's next draws in one call, so the bits do not depend on it.
_FFT_BATCH = 8


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
            used = sorted(_integer("subcarrier", k) for k in used)
        if self.n <= 0 or self.n_cp <= 0:
            raise ValueError("n and n_cp must be positive")
        if self.n > np.iinfo(np.int64).max:  # past it, every used_array() % n overflows
            raise ValueError(f"n = {self.n} exceeds the largest 64-bit index")
        if self.n_cp >= self.n:
            raise ValueError("cyclic prefix must be shorter than the FFT size")
        if not used:
            raise ValueError("at least one subcarrier must be used")
        if not ranged and len(set(used)) != len(used):
            raise ValueError("duplicate subcarrier indices")
        if not -self.n // 2 <= used[0] <= used[-1] < self.n // 2:  # sorted: check the ends
            k = next(k for k in used if not -self.n // 2 <= k < self.n // 2)
            raise ValueError(f"subcarrier {k} outside [{-self.n // 2}, {self.n // 2})")
        object.__setattr__(self, "used", tuple(used))  # copied once checked, so within the band
        object.__setattr__(self, "_used_array", np.asarray(self.used, dtype=int))
        self._used_array.flags.writeable = False

    @classmethod
    def centered(cls, n: int, n_cp: int, lo: int, hi: int) -> "OfdmConfig":
        """Config with the contiguous subcarrier range lo..hi inclusive."""
        return cls(n, n_cp, range(_integer("lo", lo), _integer("hi", hi) + 1))

    @property
    def domain_half_width(self) -> int:
        """Half-width of the admissible timing-offset domain."""
        return self.n + self.n_cp

    def used_array(self) -> np.ndarray:
        """`used` as one read-only int array, built once per config."""
        return self._used_array

    def __reduce__(self):  # rebuilt from the fields, so the copy's array is read-only too
        return type(self), (self.n, self.n_cp, self.used)


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


def _qpsk_indices(words: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """QPSK indices of `shape` per row of raw PCG64 `words`: the top two bits of each 32-bit
    half, low half first, as `integers(0, 4)` reads them on a generator with no buffered
    half-word."""
    halves = words.view("<u4")[..., :shape[0] * shape[1]]  # words are "<u8"
    return (halves >> 30).reshape(*words.shape[:-1], *shape)


def _gaussian_pairs(z: np.ndarray, out=None) -> np.ndarray:
    """Unit-variance complex symbols from the normal pairs z[..., 0, :] and z[..., 1, :]."""
    return np.divide(z[..., 0, :] + 1j * z[..., 1, :], np.sqrt(2.0), out=out)


# per alphabet, for empirical_power_profile: a group generator's next b trials' draws of
# (rows, k) symbol blocks, indexed [trial, row], and the map of one such row onto symbols
_ALPHABETS = {
    "qpsk": (lambda rng, b, rows, k: _qpsk_indices(rng.bit_generator.random_raw(
                 b * -(-rows * k // 2)).reshape(b, -1).astype("<u8", copy=False), (rows, k)),
             lambda idx, out: np.take(_QPSK, idx, out=out, mode="clip")),
    "gaussian": (lambda rng, b, rows, k: rng.standard_normal((b, rows, 2, k)), _gaussian_pairs),
}


def _stream(draw, config: OfdmConfig, symbol_indices) -> SymbolStream:
    # one draw of shape (symbols, subcarriers) consumes the generator exactly
    # as one draw per symbol, in order, would
    indices = list(symbol_indices)
    return SymbolStream(zip(indices, draw(len(indices), len(config.used))))


def qpsk_stream(config: OfdmConfig, symbol_indices, rng: np.random.Generator) -> SymbolStream:
    """Unit-modulus QPSK symbols, i.i.d. per (subcarrier, symbol), by `integers`: any rng state."""
    return _stream(lambda m, k: _QPSK[rng.integers(0, 4, size=(m, k))], config, symbol_indices)


def gaussian_stream(config: OfdmConfig, symbol_indices, rng: np.random.Generator) -> SymbolStream:
    """Circularly-symmetric complex Gaussian symbols with unit variance."""
    return _stream(lambda m, k: _gaussian_pairs(rng.standard_normal((m, 2, k))), config,
                   symbol_indices)


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


@functools.lru_cache(maxsize=None)
def _roots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{2 pi i m/n} for m = 0 .. n-1, and 1 - e^{2 pi i j/n} for j = 1 .. n-1; read-only."""
    roots = np.exp(1j * 2 * np.pi * np.arange(n) / n)
    denom = 1.0 - roots[1:]
    roots.flags.writeable = denom.flags.writeable = False
    return roots, denom


def closed_form_outputs(config: OfdmConfig, stream: SymbolStream, d: int, m: int) -> np.ndarray:
    """Per-subcarrier outputs from the explicit closed forms, regimes 1-2 only.

    Returns the full length-n array (index l mod n), for comparison against
    demodulate_window(receive_window(...)).
    """
    d = _sample_offset(config, d)
    n, ncp = config.n, config.n_cp
    if d >= 0:
        raise ValueError("closed forms implemented for offsets in [-(n+n_cp), 0) only")
    used, (roots, denom) = config.used_array(), _roots(n)

    if d < -n:  # regime 1: phase-rotated copy of symbol m+1
        out = np.zeros(n, dtype=complex)
        out[used % n] = roots[used * (-d - ncp) % n] * _symbols(config, stream, m + 1)
        return out

    # regime 2
    rot_cur = _symbols(config, stream, m) * roots[-used * d % n]
    rot_nxt = _symbols(config, stream, m + 1) * roots[used * (-d - ncp) % n]

    # inter-carrier terms: out[l] += (1/n) sum_{used k != l} f((k - l) mod n) v[k] with the
    # geometric-sum kernel f(j) = (1 - e^{j 2 pi j (n+d)/n}) / (1 - e^{j 2 pi j/n}), f(0) = 0:
    # a length-n circular correlation of v with f, n * ifft(fft(v) * ifft(f)).  Each phase
    # is a root of unity read at its exponent reduced mod n, so it stays exact.
    kernel = np.zeros(n, dtype=complex)
    kernel[1:] = (1.0 - roots[np.arange(1, n) * (n + d) % n]) / denom
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
    stderr_total: np.ndarray  # zeros for an exact profile

    def to_csv(self, path) -> None:
        _write_csv(path, ["subcarrier", "useful", "total", "stderr_total"],
                   ([k, _fmt(u), _fmt(t), _fmt(s)] for k, u, t, s in zip(*(c.tolist() for c in (
                       self.subcarriers, self.useful, self.total, self.stderr_total)))))

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
    return PowerProfile(d, used, useful, total, np.zeros(len(used)))


def _rotate(w, z, out):
    """out = w z by real multiplies and adds, which SIMD dispatch cannot round anew."""
    out.real, out.imag = w.real * z.real - w.imag * z.imag, w.real * z.imag + w.imag * z.real
    return out


def _runs(index: np.ndarray) -> list[tuple[int, int, int]]:
    """(a, b, index[a]) for each maximal run index[a:b] of consecutive integers."""
    cuts = [0, *(np.flatnonzero(np.diff(index) != 1) + 1).tolist(), len(index)]
    return [(a, b, int(index[a])) for a, b in zip(cuts, cuts[1:])]


def empirical_power_profile(config: OfdmConfig, d: int, trials: int, seed: int,
                            alphabet: str = "qpsk") -> PowerProfile:
    """Monte Carlo per-subcarrier powers averaged over random symbol streams.

    The useful power is |mean Y[l] conj(S[l;m])|^2, the output's correlation with the desired
    symbol, independent of the analytic per-regime decomposition.  Outputs are taken in the
    circular frame of the base symbol b (m if the window reads it):
    Y' = S_b + FFT(1_spill IFFT(psi S_o - S_b)), 1_spill marking the window samples from the
    other symbol o, psi[l] = e^{2 pi i l Delta / n} the phase ramp of the shift Delta between
    their frames.  Y' is Y times a unit phase per subcarrier that no trial changes, unseen by
    |Y|^2 and |E[Y conj(S)]|^2; a one-symbol window takes no transform.  Deterministic per
    (seed, 64-trial group): group j draws from `default_rng([seed, j])`, trial after trial,
    so the first M trials of a run are those of an M-trial run.
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if alphabet not in _ALPHABETS:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    d = _sample_offset(config, d)
    pieces = _window_pieces(config, d)  # in symbol order; rows drawn: m-1 if read, m, m+1 if read
    n, k, at, frames, cur = config.n, len(config.used), 0, [], -min(pieces[0][0], 0)
    for s, p in pieces:  # row of m + s, its window samples, its shift:
        frames.append((cur + s, np.arange(at, at + p.stop - p.start), at - p.start + config.n_cp))
        at += p.stop - p.start  # window sample t is sample t - shift of the symbol's body
    (base, _, shift), *spilled = sorted(frames, key=lambda f: f[0] != cur)  # m first if read
    rows = frames[-1][0] + 1  # m's row is drawn even when the window misses m
    (draw, symbols), used_runs = _ALPHABETS[alphabet], _runs(config.used_array() % n)
    y, current = np.empty((2, _FFT_BATCH, k), complex)
    for other, t, other_shift in spilled:  # psi from the root table: a complex exp, no SIMD
        psi = _roots(n)[0][config.used_array() * (shift - other_shift) % n]
        spill_runs, lookup = _runs((t - shift) % n), 4 * np.arange(k)  # spill in base frame
        table = _rotate(psi[:, None], _QPSK, np.empty((k, 4), complex)).ravel()  # psi[l] QPSK[j]
        grid, masked = np.zeros((2, _FFT_BATCH, n), complex)  # masked: 0 off the spill
    # per statistic (power, its square, y conj(S_m)'s real and imaginary part) the group's sum,
    # and a batch's terms behind a copy of it in row 0.  When Y' is S_m, the cross product's
    # real part is the power bit for bit and its imaginary part ci cr - cr ci is +0.0.
    stats = 2 if base == cur and not spilled else 4
    terms, v = np.empty((stats, 1 + _FFT_BATCH, k)), np.empty((_FFT_BATCH, k))
    totals, sums = np.zeros((2, stats, k))
    for first in range(0, trials, _TRIAL_BLOCK):
        g, sums[:] = min(_TRIAL_BLOCK, trials - first), 0.0
        rng = np.random.default_rng([seed, first // _TRIAL_BLOCK])
        for lo in range(0, g, _FFT_BATCH):
            b = min(_FFT_BATCH, g - lo)
            drawn = draw(rng, b, rows, k)
            sm, out = symbols(drawn[:, cur], current[:b]), y[:b]  # S_m, Y'
            if not spilled:  # Y' = S_b, which is S_m itself when the window reads m
                out = sm if base == cur else symbols(drawn[:, base], out)
            else:
                so = (np.take(table, drawn[:, other] + lookup, out=out, mode="clip")  # psi S_o
                      if alphabet == "qpsk" else _rotate(psi, symbols(drawn[:, other], out), out))
                for a, e, at in used_runs:
                    np.subtract(so[:, a:e], sm[:, a:e], out=grid[:b, at:at + e - a])
                body = np.fft.ifft(grid[:b], axis=-1)
                for a, e, at in spill_runs:
                    masked[:b, at:at + e - a] = body[:, at:at + e - a]
                spectrum = np.fft.fft(masked[:b], axis=-1)
                for a, e, at in used_runs:
                    np.add(sm[:, a:e], spectrum[:, at:at + e - a], out=out[:, a:e])
            (yr, yi, cr, ci), u = (out.real, out.imag, sm.real, sm.imag), v[:b]
            terms[:, 0] = sums  # the real products, into the rows in the plain forms' order
            p, sq, *cross = terms[:, 1:b + 1]
            np.add(np.multiply(yr, yr, out=p), np.multiply(yi, yi, out=u), out=p)
            np.multiply(p, p, out=sq)
            if cross:  # y conj(S_m)
                re, im = cross
                np.add(np.multiply(yr, cr, out=re), np.multiply(yi, ci, out=u), out=re)
                np.subtract(np.multiply(yi, cr, out=im), np.multiply(yr, ci, out=u), out=im)
            np.add.reduce(terms[:, :b + 1], axis=1, out=sums)  # row by row, k the inner loop
        totals += sums
    total_sum, total_sq, cross_re, cross_im = totals if stats == 4 else (*totals, totals[0], 0.0)
    total = total_sum / trials
    stderr = np.sqrt(np.maximum(total_sq / trials - total ** 2, 0.0) / trials)
    useful = (cross_re / trials) ** 2 + (cross_im / trials) ** 2
    return PowerProfile(d, config.used_array(), useful, total, stderr)
