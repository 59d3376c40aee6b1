import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from asyncofdm import _special
from asyncofdm.link import OfdmConfig
from asyncofdm.quadrature import integrate
from asyncofdm.timing import (MAX_SIGMA_OVER_HALF_WIDTH, MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH,
                             TimingModel, delta, truncated_gaussian, uniform)

W = 1096.0  # offset domain half-width for N=1024, N_cp=72


def _cdf(m, x):
    """Reference CDF of a timing model on [-half_width, half_width), from scipy's ndtr."""
    x = np.asarray(x, dtype=float)
    if m.kind == "delta":
        out = np.where(x >= m.offset, 1.0, 0.0)
    elif m.kind == "uniform":
        out = np.clip((x - m.lo) / (m.hi - m.lo), 0.0, 1.0)
    else:
        a = ndtr(-m.half_width / m.sigma)
        z = ndtr(m.half_width / m.sigma) - a
        out = np.clip((ndtr(x / m.sigma) - a) / z, 0.0, 1.0)
    out = np.where(x < -m.half_width, 0.0, out)
    out = np.where(x >= m.half_width, 1.0, out)
    return out if out.ndim else float(out)


def test_delta_cdf_and_sample():
    m = delta(5.0, W)
    assert m.is_delta
    assert _cdf(m, 4.999) == 0.0
    assert _cdf(m, 5.0) == 1.0
    assert _cdf(m, -2000.0) == 0.0 and _cdf(m, 2000.0) == 1.0
    rng = np.random.default_rng(0)
    assert np.all(m.sample(rng, 10) == 5.0)
    with pytest.raises(ValueError):
        m.density(0.0)


def test_delta_offset_domain():
    with pytest.raises(ValueError):
        delta(W, W)
    delta(-W, W)  # left edge is inside


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_truncated_gaussian_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        truncated_gaussian(bad, W)


def test_truncated_gaussian_symmetry():
    m = truncated_gaussian(0.2 * 1024, W)
    assert abs(_cdf(m, 0.0) - 0.5) < 1e-12
    x = np.linspace(-W, W - 1, 64)
    assert np.allclose(m.density(x), m.density(-x))


def test_truncated_gaussian_density_integrates_to_one():
    for sigma in (0.2 * 1024, 0.4 * 1024, 2000.0):
        m = truncated_gaussian(sigma, W)
        val, _ = integrate(m.density, -W, W, rtol=1e-11)
        assert abs(val - 1.0) < 1e-9


def test_truncated_gaussian_cdf_monotone_with_edges():
    m = truncated_gaussian(0.4 * 1024, W)
    x = np.linspace(-W - 50, W + 50, 501)
    c = _cdf(m, x)
    assert np.all(np.diff(c) >= 0)
    assert c[0] == 0.0 and c[-1] == 1.0


def test_truncated_gaussian_sampling_ks():
    m = truncated_gaussian(0.2 * 1024, W)
    rng = np.random.default_rng(42)
    x = np.sort(m.sample(rng, 100_000))
    assert np.all((x >= -W) & (x < W))
    emp = np.arange(1, len(x) + 1) / len(x)
    ks = np.max(np.abs(emp - _cdf(m, x)))
    assert ks < 0.01


def test_uniform_model():
    m = uniform(0.0, 72.0, W)
    assert abs(_cdf(m, 36.0) - 0.5) < 1e-12
    assert m.density(10.0) == pytest.approx(1.0 / 72.0)
    assert m.density(-1.0) == 0.0
    rng = np.random.default_rng(3)
    x = m.sample(rng, 10_000)
    assert np.all((x >= 0.0) & (x < 72.0))
    assert abs(np.mean(x) - 36.0) < 1.0


def test_invalid_models_rejected():
    with pytest.raises(ValueError):
        truncated_gaussian(0.0, W)
    with pytest.raises(ValueError):
        truncated_gaussian(-1.0, W)
    with pytest.raises(ValueError):
        uniform(10.0, 10.0, W)
    with pytest.raises(ValueError):
        uniform(-2 * W, 0.0, W)
    with pytest.raises(ValueError, match="finite density"):  # 1/(hi - lo) overflows
        uniform(0.0, 5e-324, W)


def test_uniform_refuses_widths_below_its_floor():
    floor = MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * W
    for lo in (0.0, -W, 36.0, W - 2 * floor):  # the floor itself is admitted, anywhere
        hi = lo + floor
        while hi - lo < floor:
            hi = np.nextafter(hi, np.inf)
        assert uniform(lo, hi, W).density(lo) == 1.0 / (hi - lo)
    for lo, hi in ((0.0, 1e-100), (0.0, 1.55e-255), (0.0, np.nextafter(floor, 0.0)),
                   (W - 1e-12, W), (-W, np.nextafter(-W, 0.0))):
        with pytest.raises(ValueError, match=r"narrower than MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH = "
                           rf"1e-09 half-widths \(1\.096e-06\).*as delta\({lo}, {W}\)$"):
            uniform(lo, hi, W)


@pytest.mark.parametrize("half_width", [0.0, -5.0, np.nan, np.inf])
def test_constructors_reject_a_bad_half_width(half_width):
    for build in (lambda: delta(0.0, half_width), lambda: uniform(-1.0, 1.0, half_width),
                  lambda: truncated_gaussian(10.0, half_width)):
        with pytest.raises(ValueError, match="half_width must be finite and positive"):
            build()


def test_constructors_refuse_a_half_width_past_2_to_the_64():
    # n + n_cp < 2^64 for every OfdmConfig; wider, a uniform's x - lo can overflow in `mass`
    w = np.nextafter(2.0 ** 64, np.inf)
    for build in (lambda: delta(0.0, w), lambda: uniform(-w, w, w),
                  lambda: truncated_gaussian(w, w), lambda: uniform(-1e308, 0.0, 1e308)):
        with pytest.raises(ValueError, match=r"^half_width \S+ exceeds 2\^64"):
            build()


def test_the_widest_config_admits_every_kind():
    cfg = OfdmConfig(2**63 - 1, 2**63 - 2, (0,))
    w = cfg.domain_half_width
    assert w == 2**64 - 3
    for m in (delta(0.0, w), truncated_gaussian(float(w), w), uniform(-w, w, w)):
        assert m.half_width == w


def test_mass_at_a_half_width_of_2_to_the_64_does_not_overflow():
    w = 2.0 ** 64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uniform(-w, w, w).mass(-w, w) == 1.0
        assert truncated_gaussian(w, w).mass(-w, w) == 1.0


_BUILD = {"delta": lambda f: delta(f.get("offset", 0.0), f["half_width"]),
          "truncated_gaussian": lambda f: truncated_gaussian(f["sigma"], f["half_width"]),
          "uniform": lambda f: uniform(f["lo"], f["hi"], f["half_width"])}
_VALID = {"delta": delta(0.0, W), "truncated_gaussian": truncated_gaussian(204.8, W),
          "uniform": uniform(-1.0, 1.0, W)}


# a constructor's refusal holds for the same fields given by hand or through `replace`
@pytest.mark.parametrize("kind, fields", [
    ("delta", dict(half_width=W, offset=W)),
    ("delta", dict(half_width=np.nan)),
    ("truncated_gaussian", dict(half_width=W, sigma=-3.0)),
    ("truncated_gaussian", dict(half_width=W, sigma=0.0)),
    ("truncated_gaussian", dict(half_width=W, sigma=np.inf)),
    ("truncated_gaussian", dict(half_width=W, sigma=2e6 * W)),
    ("truncated_gaussian", dict(half_width=-5.0, sigma=10.0)),
    ("uniform", dict(half_width=W, lo=5.0, hi=1.0)),
    ("uniform", dict(half_width=W, lo=-2 * W, hi=0.0)),
    ("uniform", dict(half_width=W, lo=0.0, hi=1e-100)),
    ("uniform", dict(half_width=0.0, lo=-1.0, hi=1.0)),
    ("uniform", dict(half_width=1e308, lo=-1e308, hi=0.0)),
], ids=["delta-outside", "delta-nan-width", "negative-sigma", "zero-sigma", "infinite-sigma",
        "sigma-beyond-bound", "gaussian-negative-width", "reversed-uniform", "uniform-outside",
        "sub-floor-uniform", "uniform-zero-width", "uniform-past-2^64"])
def test_a_model_its_constructor_refuses_is_refused_by_hand_and_by_replace(kind, fields):
    with pytest.raises(ValueError) as by_constructor:
        _BUILD[kind](fields)
    for build in (lambda: TimingModel(kind, **fields),
                  lambda: dataclasses.replace(_VALID[kind], **fields)):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == str(by_constructor.value)


def test_truncated_gaussian_rejects_sigma_beyond_bound():
    widest = MAX_SIGMA_OVER_HALF_WIDTH * W
    m = truncated_gaussian(widest, W)  # the bound itself is accepted, and stays accurate
    assert m.density(0.0) == pytest.approx(1.0 / (2.0 * W), rel=1e-9)  # the uniform limit
    x = m.sample(np.random.default_rng(1), 10_000)
    assert np.all((x >= -W) & (x < W)) and abs(np.mean(x)) < 0.05 * W
    # at 1e15 N the inside mass cancels to 4%, and from 1e17 N to 0
    for sigma in (np.nextafter(widest, np.inf), 1e15 * 1024, 1e17 * 1024):
        with pytest.raises(ValueError, match=r"limit is uniform\(-1096.0, 1096.0, 1096.0\)"):
            truncated_gaussian(sigma, W)


def test_breakpoints_per_kind():
    assert delta(5.0, W).breakpoints == ()
    assert uniform(-10.0, 72.0, W).breakpoints == (-10.0, 72.0)
    assert truncated_gaussian(0.5, W).breakpoints == (-4.0, 4.0)  # +-8 sigma


def test_sampling_deterministic_per_seed():
    m = truncated_gaussian(100.0, W)
    a = m.sample(np.random.default_rng(7), 100)
    b = m.sample(np.random.default_rng(7), 100)
    assert np.array_equal(a, b)


CDF_MODELS = [truncated_gaussian(s, W) for s in (0.5, 0.05 * 1024, 0.2 * 1024, 0.5 * 1024, 2000.0)]
CDF_MODELS += [uniform(-1024.0, 72.0, W), uniform(5.0, 60.0, W), uniform(-W, W, W),
               uniform(W - 40.0, W, W)]


def _cdf_by_mass(m, x):
    """P(D <= x) as the model's own `mass(-W, x)`, elementwise over a sequence x."""
    return np.array([m.mass(-W, v) for v in np.atleast_1d(x).tolist()])


@pytest.mark.parametrize("m", CDF_MODELS, ids=lambda m: f"{m.kind}-{m.sigma}-{m.lo}-{m.hi}")
def test_cdf_is_the_integral_of_the_density(m):
    xs = [-1000.0, -300.0, -3.0, -0.5, 0.0, 3.0, 72.0, 500.0, W - 20.0]
    for x in xs:
        if m.mass(-W, x) < 1e-9:  # a far tail, too small to scale integrate's rtol: scipy's below
            continue
        val, _ = integrate(m.density, -W, x, rtol=1e-13,
                           breakpoints=[b for b in m.breakpoints if -W < b < x])
        assert abs(m.mass(-W, x) - val) <= 1e-12, x
    np.testing.assert_allclose(_cdf_by_mass(m, xs), _cdf(m, xs), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", CDF_MODELS, ids=lambda m: f"{m.kind}-{m.sigma}-{m.lo}-{m.hi}")
def test_cdf_edges_monotone_and_inverse_of_quantile(m):
    assert m.mass(-W, -W) == 0.0 and m.mass(-W, W) == 1.0
    assert m.mass(-W, -5000.0) == 0.0 and m.mass(-W, 5000.0) == 1.0
    c = _cdf_by_mass(m, np.linspace(-W - 50.0, W + 50.0, 4001))
    assert np.all(np.diff(c) >= 0.0)
    u = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(_cdf_by_mass(m, m.quantile(u)) - u)) <= 1e-12


def test_delta_mass_raises():
    # the engines take a delta's plateau weight from its offset, never from `mass`
    with pytest.raises(ValueError, match="point mass"):
        delta(5.0, W).mass(-W, W)


def test_mass_holds_a_gaussian_tail_on_either_side():
    # the mirror image keeps P(D > x) where 1 - cdf(x) would cancel to 0
    m = truncated_gaussian(0.1 * 1024, W)
    a = ndtr(-W / m.sigma)
    z = ndtr(W / m.sigma) - a
    for lo, hi in ((1050.0, W), (978.0, 1050.0), (-1050.0, -978.0), (0.0, 72.0), (-500.0, 572.0)):
        want = (ndtr(min(hi, W) / m.sigma) - ndtr(lo / m.sigma)) / z
        if lo > 0:
            want = (ndtr(-lo / m.sigma) - ndtr(-min(hi, W) / m.sigma)) / z
        assert m.mass(lo, hi) == pytest.approx(want, rel=1e-12), (lo, hi)
        assert m.mass(-hi, -lo) == pytest.approx(m.mass(lo, hi), rel=1e-12)
    assert 0.0 < m.mass(1050.0, W) < 1e-24
    flat = uniform(-W, 0.0, W)
    assert flat.mass(-W, -W / 2) == pytest.approx(0.5, rel=1e-15) and flat.mass(10.0, 20.0) == 0.0


def _frozen_mass(m, lo, hi):
    """`TimingModel.mass` as it was, a difference of two values of the model's former `cdf`."""
    def cdf(x):
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), -m.half_width), m.half_width)
        if m.kind == "uniform":
            with np.errstate(over="ignore"):
                return np.minimum(np.maximum((x - m.lo) / (m.hi - m.lo), 0.0), 1.0)
        a, z = m._gauss_mass
        u = (x / m.sigma).ravel().tolist()
        return np.array([(_special.ndtr(v) - a) / z for v in u]).reshape(x.shape)

    mirror = m.kind == "truncated_gaussian" and lo + hi > 0.0
    below, upto = cdf([-hi, -lo] if mirror else [lo, hi])
    return float(upto - below)


@pytest.mark.parametrize("m", CDF_MODELS, ids=lambda m: f"{m.kind}-{m.sigma}-{m.lo}-{m.hi}")
def test_mass_matches_its_frozen_copy_bit_for_bit(m):
    ends = [-5000.0, -W, -1050.0, -72.0, -0.0, 0.0, 1e-300, 36.0, 72.0, 1050.0, W, 5000.0]
    for lo in ends:
        for hi in ends:
            assert m.mass(lo, hi).hex() == _frozen_mass(m, lo, hi).hex(), (lo, hi)


try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    _ENDS = st.floats(-3.0 * W, 3.0 * W)  # beyond the domain on both sides

    def _uniform(lo, width):
        hi = min(lo + width, W)
        assume(hi - lo >= MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * W)  # lo + width may round below
        return uniform(lo, hi, W)

    # widths down to the narrowest a model may have, near 0 and anywhere in the domain
    _UNIFORMS = st.builds(_uniform, st.floats(-W, W) | st.floats(-1e-290, 1e-290),
                          st.floats(MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * W, 2.0 * W))

    @given(st.floats(0.5, 2000.0).map(lambda s: truncated_gaussian(s, W)) | _UNIFORMS,
           _ENDS, _ENDS)
    @settings(max_examples=300, deadline=None)
    def test_mass_matches_its_frozen_copy_property(m, a, b):
        lo, hi = min(a, b), max(a, b)
        for ends in ((lo, hi), (-hi, -lo)):  # and the mirror image
            assert m.mass(*ends).hex() == _frozen_mass(m, *ends).hex(), ends
except ImportError:  # pragma: no cover - property tests are optional extras
    pass
