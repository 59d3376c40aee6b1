import math
import time

import numpy as np
import pytest

from asyncofdm import quadrature
from asyncofdm.quadrature import QuadratureError, integrate, integrate_halfline


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


def test_nan_integrand_raises_after_one_call():
    # bisection cannot mend a non-finite estimate, so the first round that has one raises
    f, nodes = _counting(lambda x: np.full_like(x, np.nan))
    with pytest.raises(QuadratureError, match=r"on \[0.0, 1.0\]: the integrand is not finite"):
        integrate(f, 0.0, 1.0)
    assert nodes == [48]


def test_integrand_turning_nan_in_a_later_round_raises_then():
    # finite at the first round's nodes, NaN at some of the second round's
    first = 0.5 * quadrature._X + 0.5

    def g(x):
        return np.where(np.isin(x, first), np.sin(40.0 * x), np.nan)

    f, nodes = _counting(g)
    with pytest.raises(QuadratureError, match="not finite"):
        integrate(f, 0.0, 1.0)
    assert nodes == [48, 96]


def test_nowhere_smooth_integrand_stops_at_panel_cap():
    # finite, but its 16- and 32-point estimates disagree on any panel wider than its
    # 1e-7 period (squared, so that the rules' symmetric node pairs do not cancel to the
    # mean); without the cap bisection would visit 2**28 panels
    f, nodes = _counting(lambda x: np.modf(x * 1e7)[0] ** 2)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate(f, 0.0, 1.0)
    assert time.perf_counter() - start < 10.0
    # 48 abscissae per panel; rounds double, so the cap stops the round that would
    # pass MAX_PANELS, after more than half of it
    assert sum(nodes) % 48 == 0
    assert 48 * quadrature.MAX_PANELS // 2 < sum(nodes) <= 48 * quadrature.MAX_PANELS
    assert max(nodes) <= 48 * quadrature.SLICE


def test_no_integrand_call_exceeds_the_slice():
    # 300 breakpoint panels, then bisection of the panels around the kinks
    kinks = np.linspace(0.0, 1.0, 301)[1:-1]
    f, nodes = _counting(lambda x: np.abs(np.sin(300.0 * np.pi * x)) ** 1.5)
    val, _ = integrate(f, 0.0, 1.0, rtol=1e-8, breakpoints=kinks)
    exact = math.gamma(1.25) / (math.sqrt(math.pi) * math.gamma(1.75))  # mean of |sin|^1.5
    assert val == pytest.approx(exact, rel=1e-7)
    assert max(nodes) == 48 * quadrature.SLICE  # the first round is sliced
    assert len(nodes) > 300 // quadrature.SLICE + 1  # and bisection rounds follow


def test_singularity_between_breakpoints_stalls_at_max_depth():
    # the panel around x = 0.3 is bisected MAX_DEPTH times without meeting rtol
    with pytest.raises(QuadratureError, match="stalled at max depth"):
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0)


def test_panel_cap_leaves_hard_integrands_alone():
    # a jump bisected to MAX_DEPTH takes about 2 * 28 panels, far below the cap
    val, _ = integrate(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, rtol=1e-12)
    assert abs(val - 2.0 / 3.0) < 1e-6


def _panel(f, lo, hi, order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (hi - lo) * (w @ np.asarray(f(0.5 * (hi - lo) * x + 0.5 * (hi + lo))))


def _integrate_with_rough_pass_repeated(f, a, b, rtol=1e-9, breakpoints=(), max_depth=28):
    """Frozen copy of `integrate` as it was when bisection went depth-first, one rule
    per call of f, and each breakpoint panel's 16-point rule ran twice: once in the
    rough pass and again when the panel was popped."""
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    panels = [(lo, hi, 0) for lo, hi in zip(pts[:-1], pts[1:])]
    rough = sum(_panel(f, lo, hi, 16) for lo, hi, _ in panels)
    scale = np.maximum(np.abs(rough), 1e-300)
    total = np.zeros_like(np.asarray(rough, dtype=float))
    err = np.zeros_like(total)
    while panels:
        lo, hi, depth = panels.pop()
        coarse = _panel(f, lo, hi, 16)
        fine = _panel(f, lo, hi, 32)
        local_err = np.abs(fine - coarse)
        if depth >= max_depth or np.all(local_err <= rtol * scale * (hi - lo) / (b - a)):
            total = total + fine
            err = err + local_err
        else:
            mid = 0.5 * (lo + hi)
            panels.append((lo, mid, depth + 1))
            panels.append((mid, hi, depth + 1))
    return total, err


def _counting(f):
    nodes = []

    def counted(x):
        nodes.append(len(x))
        return f(x)

    return counted, nodes


@pytest.mark.parametrize("f, a, b, breakpoints", [
    (lambda x: np.exp(-x) * np.sin(10 * x), 0.0, 5.0, ()),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, (0.3,)),
    (lambda x: np.sqrt(x), 0.0, 2.0, (0.5, 1.0, 1.5)),
    (lambda x: np.stack([np.exp(-x), np.cos(3 * x)], axis=1), -1.0, 2.0, (0.0, 1.0)),
])
def test_rough_pass_is_reused_as_first_coarse_rule(f, a, b, breakpoints):
    new_f, new_nodes = _counting(f)
    old_f, old_nodes = _counting(f)
    val, err = integrate(new_f, a, b, breakpoints=breakpoints)
    ref_val, ref_err = _integrate_with_rough_pass_repeated(old_f, a, b, breakpoints=breakpoints)
    # the same panels, summed in another order
    np.testing.assert_allclose(val, ref_val, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(err, ref_err, rtol=0.0, atol=1e-14 * np.max(np.abs(ref_val)))
    # one 16-point rule fewer on each breakpoint panel, and the rough pass first:
    # one call over both rules of every breakpoint panel
    panels = 1 + len(breakpoints)
    assert sum(new_nodes) == sum(old_nodes) - 16 * panels
    assert new_nodes[0] == 48 * panels


def _frozen_rules(f, lo, hi, blocks):
    """`quadrature._rules` before its panel half-widths were shared by both rules."""
    t = 0.5 * (hi - lo)[:, None] * quadrature._X + 0.5 * (hi + lo)[:, None]
    w = 0.5 * (hi - lo)[:, None] * quadrature._W
    y = np.asarray(f(t.ravel()))
    ys = (yb.reshape(t.shape + yb.shape[1:]) for yb in (y.swapaxes(0, 1) if blocks else [y]))
    return [(np.einsum("pj,pj...->p...", w[:, :16], yb[:, :16]),
             np.einsum("pj,pj...->p...", w[:, 16:], yb[:, 16:])) for yb in ys]


def _frozen_integrate(f, a, b, rtol=1e-9, breakpoints=(), blocks=False):
    """Frozen copy of `integrate` before its per-round work left the per-block loop: every
    round concatenated its slices, one or many, and each block recomputed its tolerance from
    `np.reshape(scale[j], -1)` and the panel widths."""
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    lo, hi = pts[:-1], pts[1:]
    stalled, evaluated, depth = False, 0, 0
    while True:
        if evaluated + len(lo) > quadrature.MAX_PANELS:
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge within "
                                  f"{quadrature.MAX_PANELS} panels")
        evaluated += len(lo)
        rules = [tuple(map(np.concatenate, zip(*block))) for block in zip(*(_frozen_rules(
            f, lo[i:i + quadrature.SLICE], hi[i:i + quadrature.SLICE], blocks)
            for i in range(0, len(lo), quadrature.SLICE)))]
        if depth == 0:
            scale = [np.maximum(np.abs(coarse.sum(axis=0)), 1e-300) for coarse, _ in rules]
            total, err = [0.0] * len(rules), [0.0] * len(rules)
            live = np.ones((len(lo), len(rules)), dtype=bool)
        for j, (coarse, fine) in enumerate(rules):
            on, local_err = live[:, j], np.abs(fine - coarse)
            tol = rtol * np.reshape(scale[j], -1) * (hi - lo)[:, None] / (b - a)
            ok = on & np.all(local_err.reshape(len(lo), -1) <= tol, axis=1)
            left = on ^ ok
            if left.any() and not np.isfinite(local_err[on]).all():
                raise QuadratureError(f"quadrature on [{a}, {b}]: the integrand is not finite")
            if depth == quadrature.MAX_DEPTH:
                stalled, ok, left = stalled or left.any(), on, np.zeros_like(left)
            total[j] = total[j] + fine[ok].sum(axis=0)
            err[j] = err[j] + local_err[ok].sum(axis=0)
            live[:, j] = left
        if not live.any():
            break
        split = live.any(axis=1)
        mid, live, depth = 0.5 * (lo + hi)[split], np.concatenate([live[split]] * 2), depth + 1
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    if stalled and any(np.any(e > 100.0 * rtol * s) for e, s in zip(err, scale)):
        raise QuadratureError(f"quadrature on [{a}, {b}] stalled at max depth; worst error "
                              f"estimate {max(float(np.max(e)) for e in err):.3e}")
    return (np.array(total), np.array(err)) if blocks else (total[0], err[0])


def _outcome(integrator, f, *args, **kwargs):
    """What one integration did, as bytes: every abscissa f saw, then the value and error
    estimate, or the error raised."""
    seen = []

    def recorded(x):
        seen.append(x.tobytes())
        return f(x)

    try:
        val, err = integrator(recorded, *args, **kwargs)
        result = (np.asarray(val).tobytes(), np.asarray(err).tobytes(), np.shape(val))
    except (QuadratureError, ValueError) as exc:
        result = (type(exc), str(exc))
    return seen, result


def _blocks_of(count, m):
    """An integrand of `count` blocks of m components, block j oscillating at its own rate,
    so that the blocks accept their panels in different rounds."""
    def f(x):
        out = np.empty((count, len(x), m))  # each block C-contiguous, as the primitive builds
        for j, block in enumerate(out):
            rates = (3.0 + 7.0 * j) * (1.0 + np.arange(m))
            block[:] = np.exp(-x)[:, None] * np.sin(np.outer(x, rates))
        return out.swapaxes(0, 1)
    return f


@pytest.mark.parametrize("f, a, b, kwargs", [
    (lambda x: np.exp(-x) * np.sin(10 * x), 0.0, 5.0, {}),  # scalar, several rounds
    (lambda x: np.exp(-x) * np.sin(10 * x), 0.0, 5.0, {"rtol": 1e-13}),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, {"breakpoints": (0.3,)}),
    (lambda x: np.sqrt(x), 0.0, 2.0, {"breakpoints": (0.5, 1.0, 1.5)}),
    (lambda x: np.stack([np.exp(-x), np.cos(30 * x), x ** 7], axis=1), -1.0, 2.0,
     {"breakpoints": (0.0, 1.0)}),  # stacked
    (lambda x: np.abs(np.sin(300.0 * np.pi * x)) ** 1.5, 0.0, 1.0,
     {"rtol": 1e-8, "breakpoints": np.linspace(0.0, 1.0, 301)[1:-1]}),  # sliced rounds
    (lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, {"rtol": 1e-12}),  # to MAX_DEPTH
    (lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, {}),  # stalls at MAX_DEPTH
    (lambda x: np.modf(x * 1e7)[0] ** 2, 0.0, 1.0, {}),  # the MAX_PANELS error
    (lambda x: np.full_like(x, np.nan), 0.0, 1.0, {}),  # not finite in the first round
    (lambda x: np.where(np.isin(x, 0.5 * quadrature._X + 0.5), np.sin(40.0 * x), np.nan),
     0.0, 1.0, {}),  # not finite in the second
    (lambda x: x, 1.0, 1.0, {}),  # an empty interval
    *[(_blocks_of(count, m), 0.0, 3.0, {"blocks": True, "rtol": 1e-10, "breakpoints": (1.0,)})
      for count in (1, 2, 3, 4) for m in (1, 5)],
    (_blocks_of(3, 2), 0.0, 3.0, {"blocks": True, "breakpoints": np.linspace(0, 3, 100)[1:-1]}),
])
def test_integrate_matches_its_frozen_copy_bit_for_bit(f, a, b, kwargs):
    # the same abscissae in the same calls, and the same value and error estimate, or error
    assert _outcome(integrate, f, a, b, **kwargs) == _outcome(_frozen_integrate, f, a, b, **kwargs)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(count=st.integers(1, 4), m=st.integers(1, 6), rate=st.floats(0.5, 60.0),
           rtol=st.sampled_from([1e-6, 1e-9, 1e-12]), cuts=st.integers(0, 80),
           blocks=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_integrate_matches_its_frozen_copy_property(count, m, rate, rtol, cuts, blocks):
        def f(x):
            out = np.empty((count, len(x), m))
            for j, block in enumerate(out):
                rates = rate * (j + 1) * np.arange(1, m + 1)
                block[:] = np.cos(np.outer(x, rates)) * np.exp(-x)[:, None]
            return out.swapaxes(0, 1) if blocks else out[0]
        kwargs = {"rtol": rtol, "breakpoints": np.linspace(0.0, 2.0, cuts + 2)[1:-1],
                  "blocks": blocks}
        assert (_outcome(integrate, f, 0.0, 2.0, **kwargs)
                == _outcome(_frozen_integrate, f, 0.0, 2.0, **kwargs))

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
