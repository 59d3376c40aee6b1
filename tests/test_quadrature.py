import time

import numpy as np
import pytest

from asyncofdm import quadrature
from asyncofdm.quadrature import QuadratureError, integrate, integrate_halfline, sinc


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(1.0)) < 1e-15
    assert np.isclose(sinc(0.5), 2.0 / np.pi)


def test_polynomial_exact():
    val, err = integrate(lambda x: 3.0 * x ** 2, 0.0, 1.0)
    assert abs(val - 1.0) < 1e-13
    assert err < 1e-12


def test_vector_valued_integrand():
    def f(x):
        return np.stack([x, x ** 2, np.cos(x)], axis=1)

    val, _ = integrate(f, 0.0, 2.0)
    assert np.allclose(val, [2.0, 8.0 / 3.0, np.sin(2.0)], rtol=1e-10)


def test_breakpoint_handles_kink():
    # |x - 0.3| is not smooth; a breakpoint restores fast convergence
    val, _ = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, breakpoints=(0.3,))
    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    assert abs(val - exact) < 1e-12


def test_tolerance_scaling():
    f = lambda x: np.exp(-x) * np.sin(10 * x)
    loose, _ = integrate(f, 0.0, 5.0, rtol=1e-6)
    tight, err = integrate(f, 0.0, 5.0, rtol=1e-12)
    assert abs(loose - tight) < 1e-6 * abs(tight) + 1e-12
    assert err <= 1e-10


def test_halfline_exponential():
    val, _ = integrate_halfline(lambda v: np.exp(-v))
    assert abs(val - 1.0) < 1e-9


def test_halfline_gamma_moment():
    val, _ = integrate_halfline(lambda v: v * np.exp(-v))
    assert abs(val - 1.0) < 1e-9


def test_halfline_vector():
    def f(v):
        return np.stack([np.exp(-v), np.exp(-2.0 * v)], axis=1)

    val, _ = integrate_halfline(f)
    assert np.allclose(val, [1.0, 0.5], rtol=1e-9)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, 1.0)


def test_nan_integrand_stops_at_panel_cap():
    # NaN never meets the tolerance; without the cap bisection would visit
    # 2**28 panels
    calls = []

    def f(x):
        calls.append(1)
        return np.full_like(x, np.nan)

    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate(f, 0.0, 1.0)
    assert time.perf_counter() - start < 10.0
    assert len(calls) == 1 + 2 * quadrature.MAX_PANELS  # rough pass, then 2 rules per panel


def test_panel_cap_leaves_hard_integrands_alone():
    # a jump bisected to max_depth takes about 2 * 28 panels, far below the cap
    val, _ = integrate(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, rtol=1e-12)
    assert abs(val - 2.0 / 3.0) < 1e-6


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
           st.floats(-2.0, 0.0), st.floats(0.5, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_polynomials_integrate_exactly(coeffs, a, span):
        b = a + span
        poly = np.polynomial.Polynomial(coeffs)
        val, _ = integrate(poly, a, b)
        exact = poly.integ()(b) - poly.integ()(a)
        assert abs(val - exact) <= 1e-10 * max(1.0, abs(exact))
except ImportError:  # pragma: no cover - property tests are optional extras
    pass
