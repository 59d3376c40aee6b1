import contextlib
import hashlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from asyncofdm.cli import main
from asyncofdm.link import (
    OfdmConfig,
    SymbolStream,
    analytic_power_profile,
    closed_form_outputs,
    demodulate_window,
    empirical_power_profile,
    gaussian_stream,
    modulate_symbol,
    qpsk_stream,
    receive_window,
)
from asyncofdm import link
from asyncofdm.link import _integer, _ici_sum, _window_pieces
from asyncofdm.sinr import cp_weight


def _stream(cfg, seed, indices=(-1, 0, 1), kind="qpsk"):
    gen = qpsk_stream if kind == "qpsk" else gaussian_stream
    return gen(cfg, indices, np.random.default_rng(seed))


# Reference implementations: the direct forms that the library's circular
# correlation, difference-table convolution and trial batching replace.

def _reference_stream(config, symbol_indices, rng, alphabet="qpsk"):
    k = len(config.used)
    syms = {}
    for m in symbol_indices:
        if alphabet == "qpsk":
            syms[m] = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size=k)))
        else:
            syms[m] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    return SymbolStream(syms)


def _reference_receive_window(config, stream, d, m):
    """Regime by regime, with explicit time-sample indices."""
    n, ncp = config.n, config.n_cp

    def tap(mm, t):
        return modulate_symbol(config, stream, mm)[t + ncp]  # index 0 is sample -ncp

    t = np.arange(n)
    if d < -n:
        return tap(m + 1, t - d - n - ncp)
    if d < 0:
        split = n + d
        return np.concatenate([tap(m, t[:split] - d), tap(m + 1, t[split:] - split - ncp)])
    if d < ncp:
        return tap(m, t - d)
    split = d - ncp
    return np.concatenate([tap(m - 1, t[:split] + n + ncp - d), tap(m, t[split:] - d)])


def _reference_closed_form(config, stream, d, m):
    """Regime-2 closed form with the dense (n, used) geometric-sum kernel."""
    n, ncp = config.n, config.n_cp
    used = config.used_array()
    ell = np.arange(n)
    rot_cur = stream.get(m) * np.exp(-1j * 2 * np.pi * used * d / n)
    rot_nxt = stream.get(m + 1) * np.exp(1j * 2 * np.pi * used * (-d - ncp) / n)
    out = np.zeros(n, dtype=complex)
    out[used % n] = (n + d) / n * rot_cur - d / n * rot_nxt
    j = used[None, :] - ell[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = ((1.0 - np.exp(1j * 2 * np.pi * j * (n + d) / n))
                  / (1.0 - np.exp(1j * 2 * np.pi * j / n)))
    kernel = np.where(j % n == 0, 0.0, kernel)
    return out + 1.0 / n * kernel @ (rot_cur - rot_nxt)


def _reference_analytic_profile(config, d):
    """Expected (useful, total) per used subcarrier, one branch per regime."""
    n, ncp = config.n, config.n_cp
    k = len(config.used)
    if d < -n:  # regime 1
        return np.zeros(k), np.ones(k)
    if d < 0:  # regime 2
        useful = np.full(k, ((n + d) / n) ** 2)
        return useful, ((n + d) ** 2 + d ** 2) / n ** 2 + 2.0 / n ** 2 * _ici_sum(config, n + d)
    if d < ncp:  # regime 3
        return np.ones(k), np.ones(k)
    useful = np.full(k, ((n + ncp - d) / n) ** 2)  # regime 4
    total = ((n - d + ncp) ** 2 + (d - ncp) ** 2) / n ** 2
    return useful, total + 2.0 / n ** 2 * _ici_sum(config, d - ncp)


def _reference_ici_sum(config, width):
    """The same sum from the full (used, used) matrix of sine ratios."""
    used = config.used_array()
    j = used[None, :] - used[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.sin(np.pi * width * j / config.n) ** 2 / np.sin(np.pi * j / config.n) ** 2
    np.fill_diagonal(terms, 0.0)
    return terms.sum(axis=1)


def _reference_empirical(config, d, trials, seed, alphabet):
    """One stream, window and DFT per trial, the streams of each 64-trial group drawn in
    turn from one `default_rng([seed, group])`; returns useful, total, stderr."""
    indices = (-1, 0, 1) if d < 0 else (-1, 0)  # draws stop at the last symbol read
    used_mod = config.used_array() % config.n
    k = len(config.used)
    total_sum, total_sq, cross = np.zeros(k), np.zeros(k), np.zeros(k, dtype=complex)
    for t in range(trials):
        if t % 64 == 0:
            rng = np.random.default_rng([seed, t // 64])
        stream = _reference_stream(config, indices, rng, alphabet)
        if alphabet == "qpsk" and len(indices) * k % 2:
            rng.integers(0, 4)  # a trial's raw words end on a whole 64-bit word
        y = np.fft.fft(_reference_receive_window(config, stream, d, 0))[used_mod]
        p = np.abs(y) ** 2
        total_sum += p
        total_sq += p ** 2
        cross += y * np.conj(stream.get(0))
    total = total_sum / trials
    stderr = np.sqrt(np.maximum(total_sq / trials - total ** 2, 0.0) / trials)
    return np.abs(cross / trials) ** 2, total, stderr


def _group_symbols(config, d, seed, group, alphabet):
    """The symbols m-1, m (and m+1 when d < 0, the last symbol the window reads) of all 64
    trials of one group, drawn trial after trial from `default_rng([seed, group])`: per
    trial the top two bits of each 32-bit half of whole raw words, low half first, for
    QPSK; normal pairs for the Gaussian alphabet."""
    rows, k = 3 if d < 0 else 2, len(config.used)
    rng = np.random.default_rng([seed, group])
    if alphabet == "qpsk":
        words = rng.bit_generator.random_raw(64 * -(-rows * k // 2)).reshape(64, -1)
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(64, -1)
        index = (halves[:, :rows * k] >> 30).reshape(64, rows, k)
        return np.exp(1j * (np.pi / 4 + np.pi / 2 * index))
    z = rng.standard_normal((64, rows, 2, k))
    return (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)


def _row_sum(a):
    """a's rows added in turn: the order of np.add.reduce(axis=0) on a C-ordered array,
    which `.sum(axis=0)` leaves for pairwise sums down a contiguous column."""
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def _frozen_empirical(config, d, trials, seed, alphabet):
    """One-block empirical_power_profile in the base symbol's circular frame: each 64-trial
    group is drawn, transformed and reduced at once, a short last group taking the first
    trials of a full one.  Each regime's base row, other row, frame shift and spill are
    written out here, not read from `_window_pieces`.  Returns useful, total, stderr; the
    library's bits must match."""
    n, ncp, k = config.n, config.n_cp, len(config.used)
    used = config.used_array()
    used_mod, tau = used % n, np.arange(n)
    if d <= -n:  # regime 1, and its edge d = -n: all of m+1, a cyclic shift of it
        base, other = 2, None
    elif d < 0:  # regime 2: m+1 from window sample n + d on, base-frame samples 0 .. -d-1
        base, other, delta, spill = 1, 2, -ncp, tau < -d
    elif d <= ncp:  # regime 3, and its edge d = n_cp: a cyclic shift of m
        base, other = 1, None
    else:  # regime 4: m-1 in window samples 0 .. d-ncp-1, base-frame samples t - d mod n
        base, other, delta, spill = 1, 0, ncp, np.isin(tau, (np.arange(d - ncp) - d) % n)
    if other is not None:
        psi = np.exp(1j * (2 * np.pi * (used * delta % n) / n))
    total_sum, total_sq, cross_re, cross_im = np.zeros((4, k))
    for first in range(0, trials, 64):
        g = min(64, trials - first)
        syms = _group_symbols(config, d, seed, first // 64, alphabet)[:g]
        y = syms[:, base]
        if other is not None:  # psi S_o in real arithmetic
            so, rotated = syms[:, other], np.empty((g, k), dtype=complex)
            rotated.real = psi.real * so.real - psi.imag * so.imag
            rotated.imag = psi.real * so.imag + psi.imag * so.real
            grid = np.zeros((g, n), dtype=complex)
            grid[:, used_mod] = rotated - y
            masked = np.where(spill, np.fft.ifft(grid, axis=-1), 0.0)
            y = y + np.fft.fft(masked, axis=-1)[:, used_mod]
        yr, yi, cr, ci = y.real, y.imag, syms[:, 1].real, syms[:, 1].imag
        p = yr * yr + yi * yi  # real arithmetic
        total_sum += _row_sum(p)
        total_sq += _row_sum(p * p)
        cross_re += _row_sum(yr * cr + yi * ci)
        cross_im += _row_sum(yi * cr - yr * ci)
    total = total_sum / trials
    var = np.maximum(total_sq / trials - total * total, 0.0)
    return (cross_re / trials) ** 2 + (cross_im / trials) ** 2, total, np.sqrt(var / trials)


def _rel_to_max(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


# ---------------------------------------------------------------- config type

def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(64, 64, (0,))  # prefix not shorter than symbol
    with pytest.raises(ValueError):
        OfdmConfig(64, 8, ())
    with pytest.raises(ValueError):
        OfdmConfig(64, 8, (0, 0))
    with pytest.raises(ValueError):
        OfdmConfig(64, 8, (32,))  # outside [-32, 32)
    for n in (0, -64):
        with pytest.raises(ValueError, match="n and n_cp must be positive"):
            OfdmConfig(n, 8, (0,))
    c = OfdmConfig(64, 8, (3, -1, 0))
    assert c.used == (-1, 0, 3)  # sorted
    assert c.domain_half_width == 72
    for bad in ((64.5, 8, (0,)), (64, 8.5, (0,)), (64, 8, (0.5,)), (math.nan, 8, (0,)),
                (64, math.inf, (0,)), (64, 8, (math.nan,)), ("64", 8, (0,))):
        with pytest.raises(ValueError, match="must be an integer"):
            OfdmConfig(*bad)
    c = OfdmConfig(64.0, np.int64(8), (np.int64(3), 1.0))
    assert (c.n, c.n_cp, c.used) == (64, 8, (1, 3))
    assert all(type(x) is int for x in (c.n, c.n_cp, *c.used))


def _elementwise_used(n, used):
    """OfdmConfig's subcarrier check one element at a time, as it was before the all-int
    fast path: the sorted tuple, or the ValueError it raised."""
    used = tuple(sorted(_integer("subcarrier", k) for k in used))
    if len(used) == 0:
        raise ValueError("at least one subcarrier must be used")
    if len(set(used)) != len(used):
        raise ValueError("duplicate subcarrier indices")
    for k in used:
        if not -n // 2 <= k < n // 2:
            raise ValueError(f"subcarrier {k} outside [{-n // 2}, {n // 2})")
    return used


def _outcome(build):
    try:
        used = build()
    except ValueError as exc:
        return "error", str(exc)
    return used, tuple(map(type, used))


_INDEX = st.integers(-40, 40)
_SUBCARRIER = st.one_of(_INDEX, st.integers(), st.booleans(), _INDEX.map(np.int64),
                        _INDEX.map(float), st.floats(-40.0, 40.0),
                        st.sampled_from([math.nan, math.inf, -math.inf]), _INDEX.map(str))


@given(st.sampled_from([63, 64]), st.one_of(st.lists(_INDEX, max_size=10),
                                            st.lists(_INDEX, unique=True, max_size=10),
                                            st.lists(_SUBCARRIER, max_size=10)))
@example(64, [0, 35, 33])  # two past the top end: the lower one is named
@example(64, [-40, 0, -33])
@example(63, [-32, 31])  # odd n: the check admits -32, and the message names it
@example(64, [True, 0])  # a bool goes in as the int it equals
@settings(max_examples=300, deadline=None)
def test_subcarrier_check_matches_the_elementwise_one(n, used):
    # ints alone take the fast path; anything else goes one element at a time
    assert (_outcome(lambda: OfdmConfig(n, 8, used).used)
            == _outcome(lambda: _elementwise_used(n, used)))


@given(st.sampled_from([63, 64]), _INDEX, _INDEX, st.sampled_from([1, 2, -1, -3]))
@example(64, -300, 300, 1)  # outside the band
@example(64, 5, 5, 1)  # empty
@settings(max_examples=100, deadline=None)
def test_a_range_of_subcarriers_meets_the_elementwise_check(n, lo, hi, step):
    # a unit-step range skips the per-element checks it cannot fail, with the same outcome
    used = range(lo, hi, step)
    got = _outcome(lambda: OfdmConfig(n, 8, used).used)
    assert got == _outcome(lambda: _elementwise_used(n, used))
    if got[0] != "error":
        assert OfdmConfig(n, 8, used) == OfdmConfig(n, 8, tuple(used))


def test_odd_n_subcarrier_message_names_the_bound_it_checks():
    # -n // 2 is -32 at n = 63: the lower bound is -32, not -(n // 2) = -31
    with pytest.raises(ValueError, match=r"^subcarrier -33 outside \[-32, 31\)$"):
        OfdmConfig(63, 8, (-33,))
    assert OfdmConfig(63, 8, (-32,)).used == (-32,)


# ------------------------------------------------------------------ modulator

def test_dc_tone_gives_constant_samples(small_cfg):
    syms = {0: np.zeros(len(small_cfg.used), dtype=complex)}
    syms[0][small_cfg.used.index(0)] = 1.0
    stream = SymbolStream(syms)
    samples = modulate_symbol(small_cfg, stream, 0)
    assert np.allclose(samples, 1.0 / small_cfg.n)


def test_all_zero_symbols(small_cfg):
    syms = {0: np.zeros(len(small_cfg.used), dtype=complex)}
    stream = SymbolStream(syms)
    assert np.allclose(modulate_symbol(small_cfg, stream, 0), 0.0)


def test_cyclic_prefix_identity(cfg):
    samples = modulate_symbol(cfg, _stream(cfg, 1), 0)
    assert len(samples) == cfg.n + cfg.n_cp
    assert np.allclose(samples[:cfg.n_cp], samples[-cfg.n_cp:])


def test_stream_for_another_subcarrier_set_rejected():
    drawn, other = OfdmConfig.centered(64, 8, -20, 19), OfdmConfig.centered(64, 8, -5, 4)
    stream = qpsk_stream(drawn, (-1, 0, 1), np.random.default_rng(1))
    for read in (receive_window, closed_form_outputs):
        with pytest.raises(ValueError, match="per used subcarrier"):
            read(other, stream, -6, 0)


def test_missing_symbol_rejected(cfg):
    stream = _stream(cfg, 1, indices=(0,))
    with pytest.raises(ValueError):
        modulate_symbol(cfg, stream, 5)


# -------------------------------------------------------------- receive window

def test_window_aligned_equals_symbol_body(cfg):
    stream = _stream(cfg, 2)
    window = receive_window(cfg, stream, 0, 0)
    assert np.array_equal(window, modulate_symbol(cfg, stream, 0)[cfg.n_cp:])


def test_window_at_cp_edge_uses_current_symbol_only(cfg):
    d = cfg.n_cp - 1
    stream = _stream(cfg, 3)
    window = receive_window(cfg, stream, d, 0)
    arr = modulate_symbol(cfg, stream, 0)
    assert np.array_equal(window, arr[cfg.n_cp - d:cfg.n_cp - d + cfg.n])


def test_window_fully_early_is_next_symbol(cfg):
    d = -(cfg.n + cfg.n_cp)
    stream = _stream(cfg, 4)
    window = receive_window(cfg, stream, d, 0)
    assert np.array_equal(window, modulate_symbol(cfg, stream, 1)[cfg.n_cp:])


def test_window_matches_reference_at_every_offset(small_cfg):
    stream = _stream(small_cfg, 4)
    w = small_cfg.domain_half_width
    for d in range(-w, w):
        assert np.array_equal(receive_window(small_cfg, stream, d, 0),
                              _reference_receive_window(small_cfg, stream, d, 0))


def test_window_offset_domain_checked(cfg):
    stream = _stream(cfg, 5)
    for d in (-(cfg.n + cfg.n_cp) - 1, cfg.n + cfg.n_cp):
        with pytest.raises(ValueError):
            receive_window(cfg, stream, d, 0)


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_non_finite_offset_rejected(cfg, d):
    with pytest.raises(ValueError, match="timing offset"):
        analytic_power_profile(cfg, d)


# --------------------------------------------------------------- demodulation

def test_demodulate_constant_window():
    y = demodulate_window(np.ones(64))
    assert abs(y[0] - 64.0) < 1e-12
    assert np.max(np.abs(y[1:])) < 1e-10


def test_demodulate_rejects_bad_shape():
    with pytest.raises(ValueError):
        demodulate_window(np.ones((8, 8)))


def test_aligned_window_recovers_symbols(cfg):
    stream = _stream(cfg, 6)
    y = demodulate_window(receive_window(cfg, stream, 0, 0))[cfg.used_array() % cfg.n]
    expect = stream.get(0)
    assert np.max(np.abs(y - expect)) / np.max(np.abs(expect)) < 1e-9


def test_cp_covered_offsets_preserve_magnitudes(cfg):
    stream = _stream(cfg, 7)
    for d in (1, 30, cfg.n_cp - 1):
        y = demodulate_window(receive_window(cfg, stream, d, 0))[cfg.used_array() % cfg.n]
        assert np.allclose(np.abs(y), 1.0, atol=1e-9)


# ------------------------------------------------------ closed-form equivalence

@pytest.mark.parametrize("d", [-1096, -1050, -1025, -1024, -700, -300, -6, -1])
def test_closed_form_matches_dft(cfg, d):
    stream = _stream(cfg, 8, kind="gaussian")
    direct = demodulate_window(receive_window(cfg, stream, d, 0))
    closed = closed_form_outputs(cfg, stream, d, 0)
    used = cfg.used_array() % cfg.n
    scale = np.max(np.abs(direct[used]))
    assert np.max(np.abs(direct[used] - closed[used])) / scale < 1e-11


@pytest.mark.parametrize("d", [-1024, -1023, -700, -300, -6, -1])
def test_closed_form_matches_dense_kernel(cfg, d):
    stream = _stream(cfg, 8, kind="gaussian")
    closed = closed_form_outputs(cfg, stream, d, 0)
    assert _rel_to_max(closed, _reference_closed_form(cfg, stream, d, 0)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_form_matches_dft_property(data):
    n = data.draw(st.integers(4, 96), label="n")
    n_cp = data.draw(st.integers(1, n - 1), label="n_cp")
    used = data.draw(st.sets(st.integers(-(n // 2), n // 2 - 1), min_size=1), label="used")
    config = OfdmConfig(n, n_cp, tuple(used))
    d = data.draw(st.integers(-(n + n_cp), -1), label="d")
    stream = _stream(config, data.draw(st.integers(0, 2 ** 32), label="seed"), kind="gaussian")
    used = config.used_array() % config.n
    direct = demodulate_window(receive_window(config, stream, d, 0))[used]
    closed = closed_form_outputs(config, stream, d, 0)[used]
    assert _rel_to_max(closed, direct) <= 1e-11


def test_closed_form_restricted_to_early_offsets(cfg):
    stream = _stream(cfg, 8)
    with pytest.raises(ValueError):
        closed_form_outputs(cfg, stream, 0, 0)


# ------------------------------------------------------------- power profiles

def test_analytic_profile_inside_cp(cfg):
    prof = analytic_power_profile(cfg, 50)
    assert np.all(prof.useful == 1.0)
    assert np.all(prof.total == 1.0)


def test_analytic_profile_useful_equals_weight(cfg):
    for d in (-1096, -1040, -700, -300, -6, 0, 50, 71, 72, 78, 200, 1000):
        prof = analytic_power_profile(cfg, d)
        assert np.allclose(prof.useful, cp_weight(cfg, d), atol=1e-15)
        assert np.all(prof.useful <= prof.total + 1e-12)


def test_analytic_profile_boundary_continuity(cfg):
    # regime seams: d=-(n+1) vs -n, and the CP edges d=0, d=n_cp
    for d in (-(cfg.n + 1), -cfg.n, 0, cfg.n_cp):
        prof = analytic_power_profile(cfg, d)
        assert np.allclose(prof.total, 1.0, atol=1e-12)


@pytest.mark.parametrize("config, offsets", [
    (OfdmConfig.centered(64, 8, -24, 23), range(-72, 72)),
    (OfdmConfig.centered(1024, 72, -300, 299),  # each regime boundary and its neighbours
     [b + i for b in (-1096, -1024, 0, 72, 1096) for i in (-1, 0, 1) if -1096 <= b + i < 1096]),
])
def test_analytic_profile_matches_four_regime_reference(config, offsets):
    for d in offsets:
        prof = analytic_power_profile(config, d)
        useful, total = _reference_analytic_profile(config, d)
        assert np.array_equal(prof.useful, useful), d
        assert np.max(np.abs(prof.total - total) / total) <= 1e-15, d


def test_analytic_central_useful_small_offset(cfg):
    prof = analytic_power_profile(cfg, -6)
    i = int(np.nonzero(prof.subcarriers == 0)[0][0])
    assert prof.useful[i] == pytest.approx((1018 / 1024) ** 2, abs=1e-15)


def test_sir_db_unknown_subcarrier(cfg):
    with pytest.raises(ValueError, match="subcarrier 400"):
        analytic_power_profile(cfg, 78).sir_db(400)


def test_sir_db_infinite_on_empirical_cp_offset(cfg):
    # inside the CP each QPSK output is its symbol: no interference, not even a rounding residue
    prof = empirical_power_profile(cfg, 10, 50, 1)
    assert np.array_equal(prof.total, prof.useful)
    assert np.all(prof.stderr_total == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(prof.sir_db(int(k)) == math.inf for k in prof.subcarriers)


def test_sir_db_infinite_on_a_residue_below_zero():
    # a total an ulp below its useful power is a rounding residue, not negative interference
    useful = np.array([1.0, 0.25])
    total = np.nextafter(useful, 0.0)
    prof = link.PowerProfile(10, np.array([-1, 1]), useful, total, np.zeros(2))
    assert np.all(prof.total - prof.useful < 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prof.sir_db(-1) == prof.sir_db(1) == math.inf


def test_sir_db_infinite_on_analytic_cp_offset(cfg):
    prof = analytic_power_profile(cfg, 10)
    assert np.all(prof.total == prof.useful)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prof.sir_db(0) == math.inf


def test_sir_db_minus_infinite_without_useful_power(cfg):
    prof = analytic_power_profile(cfg, -1096)  # the window lies wholly in symbol m+1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prof.sir_db(0) == -math.inf


def test_late_window_sir_limited(cfg):
    prof = analytic_power_profile(cfg, cfg.n_cp + 6)
    i = int(np.nonzero(prof.subcarriers == 0)[0][0])
    assert prof.useful[i] / (prof.total[i] - prof.useful[i]) < 100.0  # < 20 dB


@pytest.mark.parametrize("config", [
    OfdmConfig.centered(1024, 72, -300, 299),
    OfdmConfig.centered(64, 8, -24, 23),
    OfdmConfig(64, 8, (-20, -3, 0, 1, 7, 19)),
])
def test_ici_sum_matches_pairwise_matrix(config):
    for width in (1, 5, config.n // 3, config.n - 1, 17.5):
        ref = _reference_ici_sum(config, width)
        assert np.max(np.abs(_ici_sum(config, width) - ref) / ref) <= 1e-12


@pytest.mark.parametrize("alphabet", ["qpsk", "gaussian"])
def test_streams_unchanged(cfg, small_cfg, alphabet):
    gen = qpsk_stream if alphabet == "qpsk" else gaussian_stream
    for config in (cfg, small_cfg):
        for seed in range(3):
            new = gen(config, (-1, 0, 1), np.random.default_rng(seed))
            ref = _reference_stream(config, (-1, 0, 1), np.random.default_rng(seed), alphabet)
            for m in (-1, 0, 1):
                assert np.array_equal(new.get(m), ref.get(m))


@pytest.mark.parametrize("alphabet", ["qpsk", "gaussian"])
@pytest.mark.parametrize("d", [-1090, -300, 40, 200])  # regimes 1, 2, 3, 4
@pytest.mark.parametrize("trials", [1, 130])
def test_empirical_profile_matches_per_trial_loop(cfg, alphabet, d, trials):
    _assert_matches_per_trial_loop(cfg, d, trials, alphabet)


@pytest.mark.parametrize("alphabet", ["qpsk", "gaussian"])
@pytest.mark.parametrize("d", [-70, -30, 40])
def test_empirical_profile_with_odd_symbol_blocks_matches_per_trial_loop(alphabet, d):
    # 5 subcarriers: an early trial's 15 QPSK indices end half-way through a raw word
    _assert_matches_per_trial_loop(OfdmConfig(64, 8, (-20, -3, 0, 1, 7)), d, 130, alphabet)


def _assert_matches_per_trial_loop(cfg, d, trials, alphabet):
    prof = empirical_power_profile(cfg, d, trials=trials, seed=3, alphabet=alphabet)
    useful, total, stderr = _reference_empirical(cfg, d, trials, 3, alphabet)
    # relative to each array's max: regime-1 useful power is noise around 0
    assert _rel_to_max(prof.useful, useful) <= 1e-12
    assert _rel_to_max(prof.total, total) <= 1e-12
    # the variance is a difference of terms of size total^2, and QPSK without
    # interference makes it exactly 0 up to that cancellation, so compare it on
    # the scale of those terms rather than its own
    var_diff = trials * np.abs(prof.stderr_total ** 2 - stderr ** 2)
    assert np.max(var_diff) <= 1e-12 * np.max(total) ** 2


@pytest.mark.parametrize("config", [
    OfdmConfig.centered(1024, 72, -300, 299),
    OfdmConfig(64, 8, (-20, -3, 0, 1, 7, 19)),
], ids=["1024-band", "64-sparse"])
@pytest.mark.parametrize("alphabet", ["qpsk", "gaussian"])
def test_empirical_profile_matches_per_trial_loop_at_every_regime_boundary(config, alphabet):
    # each regime edge and its neighbours, where a piece of the window empties or appears
    n, ncp, w = config.n, config.n_cp, config.domain_half_width
    for d in sorted({b + i for b in (-w, -n, 0, ncp, w) for i in (-1, 0, 1) if -w <= b + i < w}):
        _assert_matches_per_trial_loop(config, d, 70, alphabet)


@st.composite
def _link_cases(draw):
    n = draw(st.integers(4, 96), label="n")
    n_cp = draw(st.integers(1, n - 1), label="n_cp")
    used = draw(st.sets(st.integers(-(n // 2), n // 2 - 1), min_size=1), label="used")
    d = draw(st.integers(-(n + n_cp), n + n_cp - 1), label="d")
    return OfdmConfig(n, n_cp, tuple(used)), d


@settings(max_examples=60, deadline=None)
@given(_link_cases(), st.integers(1, 140), st.sampled_from(["qpsk", "gaussian"]))
def test_empirical_profile_matches_per_trial_loop_property(case, trials, alphabet):
    config, d = case
    _assert_matches_per_trial_loop(config, d, trials, alphabet)


def test_empirical_profile_aligned(cfg):
    prof = empirical_power_profile(cfg, 0, trials=1000, seed=11)
    assert np.allclose(prof.total, 1.0, atol=1e-12)  # QPSK, no interference
    assert np.allclose(prof.useful, 1.0, atol=1e-9)


@pytest.mark.parametrize("alphabet", ["qpsk", "gaussian"])
def test_empirical_profile_matches_analytic(cfg, alphabet):
    ana = analytic_power_profile(cfg, -6)
    emp = empirical_power_profile(cfg, -6, trials=2000, seed=11, alphabet=alphabet)
    stderr = np.maximum(emp.stderr_total, 1e-6)
    assert np.all(np.abs(emp.total - ana.total) <= 5.0 * stderr)
    # the useful-power estimator is noisier for the Gaussian alphabet, whose
    # symbol magnitudes fluctuate
    tol = 0.05 if alphabet == "qpsk" else 0.2
    assert np.all(np.abs(emp.useful - ana.useful) <= tol)


def test_empirical_profile_deterministic(cfg):
    a = empirical_power_profile(cfg, -6, trials=50, seed=9)
    b = empirical_power_profile(cfg, -6, trials=50, seed=9)
    assert np.array_equal(a.total, b.total)
    assert np.array_equal(a.useful, b.useful)


def test_empirical_profile_validation(cfg):
    with pytest.raises(ValueError):
        empirical_power_profile(cfg, -6, trials=0, seed=1)
    with pytest.raises(ValueError):
        empirical_power_profile(cfg, -6, trials=10, seed=1, alphabet="psk8")


@pytest.mark.parametrize("kwargs, message", [
    (dict(trials=2.5, seed=1), "trials must be an integer"),
    (dict(trials=math.nan, seed=1), "trials must be an integer"),
    (dict(trials="10", seed=1), "trials must be an integer"),
    (dict(trials=10, seed=1.5), "seed must be an integer"),
    (dict(trials=10, seed=math.inf), "seed must be an integer"),
    (dict(trials=10, seed=-1), "seed must be >= 0, got -1"),
])
def test_empirical_profile_inputs_checked_at_entry(small_cfg, kwargs, message):
    with pytest.raises(ValueError, match=message):
        empirical_power_profile(small_cfg, -6, **kwargs)


def test_empirical_profile_accepts_integral_numbers(small_cfg):
    ref = empirical_power_profile(small_cfg, -6, trials=10, seed=4)
    for trials, seed in ((10.0, 4.0), (np.int64(10), np.int32(4))):
        prof = empirical_power_profile(small_cfg, -6, trials=trials, seed=seed)
        assert np.array_equal(prof.total, ref.total)
        assert np.array_equal(prof.useful, ref.useful)


@pytest.mark.parametrize("config", [
    OfdmConfig.centered(1024, 72, -300, 299),
    OfdmConfig(64, 8, (-20, -3, 0, 1, 7, 19)),
], ids=["1024-band", "64-sparse"])
@pytest.mark.parametrize("alphabet", ["qpsk", "gaussian"])
def test_empirical_profile_bitwise_equals_frozen_reference(config, alphabet):
    # every regime boundary, and trial counts on both sides of the 8-trial
    # transform batch and of the 64-trial accumulation group
    n, ncp = config.n, config.n_cp
    for d in (-(n + ncp), -n - 1, -n, -1, 0, ncp - 1, ncp, n + ncp - 1):
        for trials in (1, 7, 8, 9, 64, 65, 130):
            prof = empirical_power_profile(config, d, trials, seed=5, alphabet=alphabet)
            useful, total, stderr = _frozen_empirical(config, d, trials, 5, alphabet)
            assert np.array_equal(prof.useful, useful), (d, trials)
            assert np.array_equal(prof.total, total), (d, trials)
            assert np.array_equal(prof.stderr_total, stderr), (d, trials)


def test_empirical_profile_over_many_groups_equals_frozen_reference():
    # 17 groups, each from its own generator, the last one short; a seed past 2**64
    config = OfdmConfig(64, 8, (-20, -3, 0, 1, 7, 19))
    for d, alphabet in ((-30, "qpsk"), (70, "gaussian")):
        trials = 16 * 64 + 3
        prof = empirical_power_profile(config, d, trials, seed=2 ** 64 + 7, alphabet=alphabet)
        useful, total, stderr = _frozen_empirical(config, d, trials, 2 ** 64 + 7, alphabet)
        assert np.array_equal(prof.useful, useful)
        assert np.array_equal(prof.total, total)
        assert np.array_equal(prof.stderr_total, stderr)


@pytest.mark.parametrize("d, alphabet", [(-30, "qpsk"), (-70, "qpsk"), (70, "gaussian")])
def test_empirical_profile_bits_do_not_depend_on_the_transform_batch(monkeypatch, d, alphabet):
    # a batch takes its group's next draws in one call, so any batch size gives the
    # frozen reference's bits; 5 subcarriers make an early QPSK trial's block odd
    config = OfdmConfig(64, 8, (-20, -3, 0, 1, 7))
    for trials in range(1, 130):
        want = _frozen_empirical(config, d, trials, 11, alphabet)
        for batch in (1, 3, 8):
            monkeypatch.setattr(link, "_FFT_BATCH", batch)
            prof = empirical_power_profile(config, d, trials, seed=11, alphabet=alphabet)
            got = prof.useful, prof.total, prof.stderr_total
            assert all(map(np.array_equal, got, want)), (trials, batch)


def test_empirical_profile_memory_bounded_by_batch_and_group(cfg):
    # the working set is the 8-trial batch and the 64-trial group, not the trial count
    peaks = []
    for trials in (64, 2000):
        tracemalloc.start()
        try:
            empirical_power_profile(cfg, -300, trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# sha256 of the link-profile CSVs (--trials 130 --seed 3) and of the bytes of
# one Gaussian-alphabet profile's useful, total and stderr arrays, recorded when
# the link engine took one generator per 64-trial group, real arithmetic, and its
# outputs in the base symbol's circular frame (offset 50 and the Gaussian digest
# changed then; the other CSVs kept their bytes).  They are the same with numpy's
# SIMD dispatch held to the x86-64-v2 baseline
# (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR") as with AVX2
# or AVX-512.
LINK_PROFILE_DIGESTS = {
    -300: "1df3538da8a6011469b0dd3512b6b1e7303d66284bc5c5b79f7cc325f21d7641",
    -6: "ada59de748a71a693ac58198acbdce3ea3f9ee4c3f4d2cb71b9ffb84cf617086",
    50: "3c54d64072f9faf930f4a5fa9cbe8bac10701ae8daff025d48ff3c433d47dd45",
    78: "5ef03ba756a6cd12e84275baf3efaf7b9ca88ccff5f4782194856f1c58b19662",
    200: "49755b17df71a5b064e7f0ee9b47e44cf24ee584a6fb57096f3756738997f096",
}
GAUSSIAN_PROFILE_DIGEST = "80d33cb18b0409293072f04982dde0552049271d462124b47826098ae1dc300d"


@pytest.mark.parametrize("offset", sorted(LINK_PROFILE_DIGESTS))
def test_link_profile_csv_matches_recorded_digest(tmp_path, offset):
    out = tmp_path / "profile.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["link-profile", "--offset", str(offset), "--trials", "130",
                     "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LINK_PROFILE_DIGESTS[offset]


def test_gaussian_profile_matches_recorded_digest(cfg):
    prof = empirical_power_profile(cfg, 200, trials=130, seed=5, alphabet="gaussian")
    digest = hashlib.sha256()
    for values in (prof.useful, prof.total, prof.stderr_total):
        digest.update(np.ascontiguousarray(values).tobytes())
    assert digest.hexdigest() == GAUSSIAN_PROFILE_DIGEST


def test_profile_csv_roundtrip(cfg, tmp_path):
    prof = empirical_power_profile(cfg, -6, trials=20, seed=2)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "subcarrier,useful,total,stderr_total"
    assert len(lines) == len(cfg.used) + 1
    first = lines[1].split(",")
    assert int(first[0]) == cfg.used[0]
    assert float(first[2]) == pytest.approx(prof.total[0], rel=1e-9)
