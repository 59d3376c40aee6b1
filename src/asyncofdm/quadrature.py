"""Adaptive Gauss-Legendre quadrature for smooth, possibly vector-valued integrands.

All the network-level integrals in this package are smooth and positive between
known breakpoints, with exponential or power-law decay at infinity.  A panel-based
Gauss-Legendre scheme with bisection on the coarse/fine difference is accurate and,
unlike scipy.integrate.quad, evaluates vector-valued integrands (one component per
outer quadrature node) in a single call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["QuadratureError", "integrate", "integrate_halfline"]


class QuadratureError(RuntimeError):
    """Raised when panel bisection cannot reach the requested tolerance."""


_nodes = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _panel(f, lo: float, hi: float, order: int):
    x, w = _nodes(order)
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    y = np.asarray(f(t))
    return 0.5 * (hi - lo) * (w @ y)


# Deepest panel bisection, and most panels one call may evaluate.  Bisection alone is
# bounded only by 2**MAX_DEPTH panels, which a NaN-valued or non-convergent integrand reaches.
MAX_DEPTH = 28
MAX_PANELS = 10_000


def integrate(f, a, b, rtol=1e-9, breakpoints=()):
    """Integrate f over [a, b]; returns (value, error_estimate).

    f maps an array of abscissae, shape (k,), to values of shape (k,) for scalar
    integrands or (k, m) for m stacked integrands sharing the same panels.
    Panels are split at `breakpoints` first and then bisected wherever the
    16- and 32-point estimates disagree, for at most MAX_PANELS panels.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    # (lo, hi, depth, 16-point estimate); the rough pass sets the tolerance scale
    panels = [(lo, hi, 0, _panel(f, lo, hi, 16)) for lo, hi in zip(pts[:-1], pts[1:])]
    rough = sum(panel[3] for panel in panels)
    scale = np.maximum(np.abs(rough), 1e-300)

    total = np.zeros_like(np.asarray(rough, dtype=float))
    err = np.zeros_like(total)
    stalled = False
    evaluated = 0
    while panels:
        if evaluated == MAX_PANELS:
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge within "
                                  f"{MAX_PANELS} panels")
        evaluated += 1
        lo, hi, depth, coarse = panels.pop()
        coarse = _panel(f, lo, hi, 16) if coarse is None else coarse
        fine = _panel(f, lo, hi, 32)
        local_err = np.abs(fine - coarse)
        tol = rtol * scale * (hi - lo) / (b - a)
        if depth >= MAX_DEPTH or np.all(local_err <= tol):
            if depth >= MAX_DEPTH and np.any(local_err > tol):
                stalled = True
            total = total + fine
            err = err + local_err
        else:
            mid = 0.5 * (lo + hi)
            panels.append((lo, mid, depth + 1, None))
            panels.append((mid, hi, depth + 1, None))
    if stalled and np.any(err > 100.0 * rtol * scale):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] stalled at max depth; "
            f"worst error estimate {float(np.max(err)):.3e}"
        )
    return total, err


def integrate_halfline(f, rtol=1e-9, breakpoints=()):
    """Integrate f over [0, inf) via the map v = u/(1-u); returns (value, error).

    f must decay fast enough that f(v)*v^2 -> 0; the exponential tails handled
    here all qualify.  `breakpoints` are locations on the v axis.
    """
    bps = tuple(p / (1.0 + p) for p in breakpoints if p > 0)

    def g(u):
        v = u / (1.0 - u)
        jac = 1.0 / (1.0 - u) ** 2
        y = np.asarray(f(v))
        if y.ndim == 2:
            return y * jac[:, None]
        return y * jac

    return integrate(g, 0.0, 1.0, rtol=rtol, breakpoints=(0.5, 0.9, 0.99) + bps)
