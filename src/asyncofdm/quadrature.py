"""Adaptive Gauss-Legendre quadrature for smooth, possibly vector-valued integrands.

All the network-level integrals in this package are smooth and positive between
known breakpoints, with exponential or power-law decay at infinity.  A panel-based
Gauss-Legendre scheme with bisection on the coarse/fine difference is accurate and,
unlike scipy.integrate.quad, evaluates vector-valued integrands (one component per
outer quadrature node) in a single call.  Bisection goes breadth-first, so one call
of the integrand covers both rules on every panel of a round, up to SLICE panels.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["QuadratureError", "integrate", "integrate_halfline"]


class QuadratureError(RuntimeError):
    """Raised when panel bisection cannot reach the requested tolerance."""


_nodes = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)
# A panel's 16-point nodes and weights, then its 32-point ones: 48 abscissae per panel.
_X, _W = map(np.concatenate, zip(_nodes(16), _nodes(32)))


def _rules(f, lo, hi):
    """16- and 32-point estimates on each panel [lo[i], hi[i]], shape (panels,) plus
    the integrand's value shape, from one call of f on all their nodes."""
    t = 0.5 * (hi - lo)[:, None] * _X + 0.5 * (hi + lo)[:, None]
    w = 0.5 * (hi - lo)[:, None] * _W
    y = np.asarray(f(t.ravel()))
    y = y.reshape(t.shape + y.shape[1:])
    return (np.einsum("pj,pj...->p...", w[:, :16], y[:, :16]),
            np.einsum("pj,pj...->p...", w[:, 16:], y[:, 16:]))


# Deepest panel bisection, and most panels one call may evaluate.  Bisection alone is
# bounded only by 2**MAX_DEPTH panels, which a non-convergent integrand reaches.
MAX_DEPTH = 28
MAX_PANELS = 10_000
SLICE = 64  # most panels per call of f: at most 48 * SLICE abscissae, however hard f is


def integrate(f, a, b, rtol=1e-9, breakpoints=()):
    """Integrate f over [a, b]; returns (value, error_estimate).

    f maps an array of abscissae, shape (k,), to values of shape (k,) for scalar
    integrands or (k, m) for m stacked integrands sharing the same panels.
    Panels are split at `breakpoints` first and then bisected wherever the
    16- and 32-point estimates disagree, for at most MAX_PANELS panels; a non-finite
    estimate, which no bisection mends, raises at once.  Each round of
    the breadth-first bisection calls f once per SLICE panels.  A panel is accepted
    once every component's difference is within rtol * scale * (hi - lo) / (b - a),
    scale = |summed 16-point estimates of the breakpoint panels|, in any order.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    lo, hi = pts[:-1], pts[1:]
    total = err = 0.0
    stalled, evaluated, depth = False, 0, 0
    while len(lo):
        if evaluated + len(lo) > MAX_PANELS:
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge within "
                                  f"{MAX_PANELS} panels")
        evaluated += len(lo)
        coarse, fine = map(np.concatenate, zip(*(
            _rules(f, lo[i:i + SLICE], hi[i:i + SLICE]) for i in range(0, len(lo), SLICE))))
        if depth == 0:  # the rough pass sets the tolerance scale
            scale = np.maximum(np.abs(coarse.sum(axis=0)), 1e-300)
        local_err = np.abs(fine - coarse)
        tol = rtol * np.reshape(scale, -1) * (hi - lo)[:, None] / (b - a)
        ok = np.all(local_err.reshape(len(lo), -1) <= tol, axis=1)
        if not ok.all() and not np.isfinite(local_err).all():  # never accepted: stop now
            raise QuadratureError(f"quadrature on [{a}, {b}]: the integrand is not finite")
        if depth == MAX_DEPTH:
            stalled, ok = not ok.all(), np.ones_like(ok)
        total = total + fine[ok].sum(axis=0)
        err = err + local_err[ok].sum(axis=0)
        mid = 0.5 * (lo + hi)[~ok]
        lo, hi, depth = np.concatenate([lo[~ok], mid]), np.concatenate([mid, hi[~ok]]), depth + 1
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
