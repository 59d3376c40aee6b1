import math

import numpy as np
import pytest

from asyncofdm.link import OfdmConfig
from asyncofdm.sinr import (
    MAX_HYPOTHESES,
    NetworkParams,
    NetworkSnapshot,
    cp_weight,
    cp_weight_clipped,
    db_to_linear,
    hypothesis_set,
    hypothesis_weight,
    snapshot_sinr_all,
)
from tests.conftest import budget_params


# ------------------------------------------------------------------ parameters

def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(0.0, 4.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        NetworkParams(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        NetworkParams(1.0, 4.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        NetworkParams(1.0, 4.0, 1.0, 0.0)


def test_params_reject_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 4.0, 1.0, 1.0), (1.0, bad, 1.0, 1.0), (1.0, 4.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                NetworkParams(*args)
    with pytest.raises(ValueError):
        NetworkParams(1e-4, 3.8, math.nan, 1.0)
    assert math.isinf(NetworkParams(1e-4, 3.8, math.inf, 1.0).snr)


def test_power_budget_snr():
    # 23 dBm minus (-174 + 70 + 9) dBm noise floor = 118 dB
    p = budget_params(1 / 400 ** 2, 3.8, -12.0)
    assert 10.0 * math.log10(p.snr) == pytest.approx(118.0, abs=1e-9)
    assert p.threshold == pytest.approx(db_to_linear(-12.0))


def test_interference_limited_variant():
    p = budget_params(1e-4, 3.8, -6.0)
    il = NetworkParams(p.density, p.alpha, math.inf, p.threshold)
    assert math.isinf(il.snr) and il.noise_over_e == 0.0
    assert p.noise_over_e == pytest.approx(1.0 / p.snr)


def test_threshold_helpers():
    p = NetworkParams(1e-4, 4.0, 100.0, 1.0)
    assert p.with_threshold_db(3.0).threshold == pytest.approx(db_to_linear(3.0))


# ---------------------------------------------------------------- weight g(d)

def test_weight_cp_covered(cfg):
    assert cp_weight(cfg, 0.0) == 1.0
    assert cp_weight(cfg, 71.9) == 1.0
    x = np.linspace(0.0, cfg.n_cp - 1e-9, 50)
    assert np.all(cp_weight(cfg, x) == 1.0)


def test_weight_direct_values(cfg):
    assert cp_weight(cfg, -512.0) == pytest.approx(0.25, abs=1e-15)
    assert cp_weight(cfg, 200.0) == pytest.approx(0.765625, abs=1e-15)
    assert cp_weight(cfg, -1050.0) == 0.0


def test_weight_domain_and_range(cfg):
    with pytest.raises(ValueError):
        cp_weight(cfg, cfg.n + cfg.n_cp)
    with pytest.raises(ValueError):
        cp_weight(cfg, -(cfg.n + cfg.n_cp) - 1e-9)
    x = np.linspace(-(cfg.n + cfg.n_cp), cfg.n + cfg.n_cp - 1e-6, 1001)
    g = cp_weight(cfg, x)
    assert np.all((g >= 0.0) & (g <= 1.0))
    # continuity: small steps produce small changes
    assert np.max(np.abs(np.diff(g))) < 0.01
    # clipped variant extends by zero
    assert cp_weight_clipped(cfg, np.array([-5000.0, 5000.0])).tolist() == [0.0, 0.0]


def test_weight_zero_on_fully_early_range(cfg):
    x = np.linspace(-(cfg.n + cfg.n_cp), -cfg.n - 1e-9, 50)
    assert np.all(cp_weight(cfg, x) == 0.0)


def _cp_weight_clipped_where(config, d):
    """The piecewise np.where form of g(d) that the branch-free one replaced."""
    d = np.asarray(d, dtype=float)
    n, ncp = config.n, config.n_cp
    out = np.zeros_like(d)
    rising = (d >= -n) & (d < 0)
    out = np.where(rising, ((n + d) / n) ** 2, out)
    out = np.where((d >= 0) & (d < ncp), 1.0, out)
    falling = (d >= ncp) & (d < n + ncp)
    out = np.where(falling, ((n + ncp - d) / n) ** 2, out)
    return out


@pytest.mark.parametrize("n, n_cp", [(1024, 72), (64, 8), (16, 1), (100, 7)])
def test_weight_clipped_bitwise_equal_to_piecewise_form(n, n_cp):
    from asyncofdm.link import OfdmConfig
    c = OfdmConfig.centered(n, n_cp, -(n // 4), n // 4 - 1)
    w = c.domain_half_width
    edges = np.array([-w, -n, 0.0, -0.0, n_cp, n + n_cp, w, -3 * w, 3 * w])
    special = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                              [np.inf, -np.inf, 5e-324, -5e-324]])
    dense = np.linspace(-3 * w, 3 * w, 200_001)
    rand = np.random.default_rng(n).uniform(-3 * w, 3 * w, 50_000)
    for d in (special, dense, rand, np.arange(-3 * w, 3 * w + 1, dtype=float)):
        got, want = cp_weight_clipped(c, d), _cp_weight_clipped_where(c, d)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for x in special:
        assert float(cp_weight_clipped(c, x)) == float(_cp_weight_clipped_where(c, x))
    assert cp_weight_clipped(c, np.array([np.inf, -np.inf])).tolist() == [0.0, 0.0]


def test_weight_rejects_nan(cfg):
    for bad in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="NaN"):
            cp_weight(cfg, bad)
        with pytest.raises(ValueError, match="NaN"):
            hypothesis_weight(cfg, (0.0, 72.0), bad)
        with pytest.raises(ValueError, match="finite"):
            hypothesis_weight(cfg, (0.0, math.nan), 10.0)


# -------------------------------------------------------------- snapshot SINR

def test_single_transmitter_noise_only(cfg):
    snap = NetworkSnapshot([10.0], [2.0], [0.0], noise_over_e=1e-4, alpha=4.0)
    expect = 2.0 * 10.0 ** -4.0 / 1e-4
    assert snapshot_sinr_all(snap, cfg)[0] == pytest.approx(expect)


def test_two_equal_transmitters_symmetric(cfg):
    snap = NetworkSnapshot([5.0, 5.0], [1.0, 1.0], [0.0, 0.0], 0.0, 3.8)
    sinr = snapshot_sinr_all(snap, cfg)
    assert np.allclose(sinr, 1.0)


def test_fully_misaligned_transmitter_zero(cfg):
    snap = NetworkSnapshot([5.0, 7.0], [1.0, 1.0], [-1050.0, 0.0], 0.0, 3.8)
    assert snapshot_sinr_all(snap, cfg)[0] == 0.0


@pytest.mark.parametrize("offset", [0.0, 50.0])
def test_lone_noise_free_transmitter_inside_the_cp_scores_inf(cfg, offset):
    # g = 1, no interference and no noise: a zero denominator, and +inf without a warning
    snap = NetworkSnapshot([10.0], [1.0], [offset], 0.0, 4.0)
    assert snapshot_sinr_all(snap, cfg).tolist() == [math.inf]


def test_scale_invariance_without_noise(cfg):
    rng = np.random.default_rng(0)
    r, f = rng.uniform(1, 100, 20), rng.exponential(1.0, 20)
    d = rng.uniform(-500, 500, 20)
    a = snapshot_sinr_all(NetworkSnapshot(r, f, d, 0.0, 3.8), cfg)
    b = snapshot_sinr_all(NetworkSnapshot(r, 7.0 * f, d, 0.0, 3.8), cfg)
    assert np.allclose(a, b, rtol=1e-12)


def test_cp_covered_offsets_match_synchronized(cfg):
    rng = np.random.default_rng(1)
    r, f = rng.uniform(1, 100, 15), rng.exponential(1.0, 15)
    d = rng.uniform(0.0, cfg.n_cp - 1e-9, 15)
    a = snapshot_sinr_all(NetworkSnapshot(r, f, d, 1e-6, 3.8), cfg)
    b = snapshot_sinr_all(NetworkSnapshot(r, f, np.zeros(15), 1e-6, 3.8), cfg)
    assert np.allclose(a, b, rtol=1e-12)


def test_snapshot_validation(cfg):
    with pytest.raises(ValueError):
        NetworkSnapshot([1.0], [1.0, 2.0], [0.0], 0.0, 4.0)
    with pytest.raises(ValueError):
        NetworkSnapshot([-1.0], [1.0], [0.0], 0.0, 4.0)
    with pytest.raises(ValueError):  # NaN is not positive
        NetworkSnapshot([1.0, math.nan], [math.nan, 1.0], [0.0, 0.0], 0.0, 4.0)
    with pytest.raises(ValueError, match="noise_over_e must be nonnegative"):
        NetworkSnapshot([1.0], [1.0], [0.0], -1e-9, 4.0)


# ------------------------------------------------------------------ hypotheses

def test_hypothesis_set_layout():
    assert hypothesis_set(1, 1, 72.0) == (-72.0, 0.0, 72.0)
    assert hypothesis_set(0, 0, 10.0) == (0.0,)
    with pytest.raises(ValueError):
        hypothesis_set(-1, 0, 10.0)
    with pytest.raises(ValueError):
        hypothesis_set(1, 1, 0.0)
    for bad in (math.nan, math.inf):  # 0 * inf would be a NaN hypothesis
        with pytest.raises(ValueError, match="finite"):
            hypothesis_set(1, 1, bad)


def test_hypothesis_sets_are_capped():
    # n1 + n2 + 1 shifts, at most MAX_HYPOTHESES of them
    assert len(hypothesis_set(MAX_HYPOTHESES - 1, 0, 1e-3)) == MAX_HYPOTHESES
    for n1, n2 in ((MAX_HYPOTHESES, 0), (0, MAX_HYPOTHESES), (MAX_HYPOTHESES // 2,) * 2):
        with pytest.raises(ValueError, match="exceed MAX_HYPOTHESES"):
            hypothesis_set(n1, n2, 1e-3)


def test_hypothesis_weight_reductions(cfg):
    x = np.linspace(-1000.0, 1000.0, 201)
    assert np.allclose(hypothesis_weight(cfg, (0.0,), x), cp_weight(cfg, x))
    # a hypothesis exactly at the offset restores full weight
    assert hypothesis_weight(cfg, (0.0, 150.0), 150.0) == 1.0
    # adding hypotheses never hurts
    base = hypothesis_weight(cfg, (0.0,), x)
    more = hypothesis_weight(cfg, (-150.0, 0.0, 150.0), x)
    assert np.all(more >= base)


def _per_shift_loop(config, hypotheses, x):
    """Reference: `hypothesis_weight` as one pass over the offsets per shift, from zero."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in hypotheses:
        out = np.maximum(out, cp_weight_clipped(config, x - t))
    return out


def test_hypothesis_weight_matches_the_per_shift_loop_on_a_large_set(cfg):
    shifts = hypothesis_set(1000, 1000, 0.5)[::-1]  # sorted by the call, not by the caller
    x = np.concatenate([np.linspace(-1096.0, 1095.0, 2001), np.arange(-1096.0, 1096.0)])
    assert hypothesis_weight(cfg, shifts, x).tobytes() == _per_shift_loop(cfg, shifts, x).tobytes()


def test_hypothesis_weight_validation(cfg):
    with pytest.raises(ValueError):
        hypothesis_weight(cfg, (), 0.0)
    with pytest.raises(ValueError):
        hypothesis_weight(cfg, (0.0,), 5000.0)


try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    @given(st.floats(-1096.0, 1095.999))
    @settings(max_examples=100, deadline=None)
    def test_weight_matches_branch_formulas(d):
        from asyncofdm.link import OfdmConfig
        c = OfdmConfig.centered(1024, 72, -300, 299)
        g = cp_weight(c, d)
        if d < -1024:
            expect = 0.0
        elif d < 0:
            expect = ((1024 + d) / 1024) ** 2
        elif d < 72:
            expect = 1.0
        else:
            expect = ((1024 + 72 - d) / 1024) ** 2
        assert g == pytest.approx(expect, abs=1e-12)
        assert 0.0 <= g <= 1.0

    @st.composite
    def _shifts_and_offsets(draw):
        """A config, shifts out to 3 half-widths w (unsorted, some integers, some repeated) and
        offsets in the domain: any, integers, and each shift's plateau and domain edges with
        their neighbouring floats."""
        n = draw(st.integers(2, 2048))
        config = OfdmConfig(n, draw(st.integers(1, n - 1)), (0,))
        w = config.domain_half_width
        shifts = draw(st.lists(st.floats(-3.0 * w, 3.0 * w) | st.integers(-3 * w, 3 * w),
                               min_size=1, max_size=30))
        shifts += draw(st.lists(st.sampled_from(shifts), max_size=5))
        offsets = draw(st.lists(st.floats(-w, w, exclude_max=True) | st.integers(-w, w - 1),
                                max_size=50))
        x = np.array(offsets + [t + e for t in shifts for e in (-n, 0, config.n_cp, w)], float)
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
        return config, shifts, x[(x >= -w) & (x < w)]

    @given(_shifts_and_offsets())
    @example((OfdmConfig(1024, 72, (0,)), [150.0, -150.0, 0.0, 0.0, 72.0, 3000.0],
              np.array([-1096.0, -1024.0, -150.0, -78.0, 0.0, 72.0, 144.0, 222.0, 1095.0])))
    @example((OfdmConfig(252, 1, (0,)), [-2.9686636159630098], np.array([0.99])))  # ** 2 on 0-d
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_weight_matches_the_per_shift_loop_bit_for_bit(case):
        config, shifts, x = case
        want = _per_shift_loop(config, shifts, x)
        assert hypothesis_weight(config, shifts, x).tobytes() == want.tobytes()
        for xs, g in zip(x[:5].tolist(), want.tolist()):  # a scalar offset gives a float
            assert hypothesis_weight(config, shifts, xs).hex() == g.hex()
except ImportError:  # pragma: no cover - property tests are optional extras
    pass
