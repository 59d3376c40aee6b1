"""Adaptive Gauss-Legendre quadrature for smooth, possibly vector-valued integrands.

All the network-level integrals in this package are smooth and positive between
known breakpoints, with exponential or power-law decay at infinity.  A panel-based
Gauss-Legendre scheme with bisection on the coarse/fine difference is accurate and,
unlike scipy.integrate.quad, evaluates vector-valued integrands (one component per
outer quadrature node) in a single call.  Bisection goes breadth-first, so one call
of the integrand covers both rules on every panel of a round, up to SLICE panels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuadratureError", "integrate", "integrate_halfline"]


class QuadratureError(RuntimeError):
    """Raised when panel bisection cannot reach the requested tolerance."""


# A panel's 16-point nodes and weights, then its 32-point ones: 48 abscissae per panel.
_X, _W = map(np.concatenate, zip(*map(np.polynomial.legendre.leggauss, (16, 32))))


def _rules(f, lo, hi, blocks):
    """16- and 32-point estimates on each panel [lo[i], hi[i]], a pair per block, from one call."""
    half = 0.5 * (hi - lo)[:, None]
    t, w = half * _X + 0.5 * (hi + lo)[:, None], half * _W
    y = np.asarray(f(t.ravel()))
    ys = (yb.reshape(t.shape + yb.shape[1:]) for yb in (y.swapaxes(0, 1) if blocks else [y]))
    return [(np.einsum("pj,pj...->p...", w[:, :16], yb[:, :16]),
             np.einsum("pj,pj...->p...", w[:, 16:], yb[:, 16:])) for yb in ys]


# Deepest panel bisection, and most panels one call may evaluate.  Bisection alone is
# bounded only by 2**MAX_DEPTH panels, which a non-convergent integrand reaches.
MAX_DEPTH = 28
MAX_PANELS = 10_000
SLICE = 64  # most panels per call of f: at most 48 * SLICE abscissae, however hard f is


def integrate(f, a, b, rtol=1e-9, breakpoints=(), blocks=False):
    """Integrate f over [a, b]; returns (value, error_estimate).

    f maps an array of abscissae, shape (k,), to values of shape (k,) for scalar
    integrands or (k, m) for m stacked integrands sharing the same panels.
    Panels are split at `breakpoints` first and then bisected wherever the
    16- and 32-point estimates disagree, for at most MAX_PANELS panels; a non-finite
    estimate, which no bisection mends, raises at once.  Each round of
    the breadth-first bisection calls f once per SLICE panels.  A panel is accepted
    once every component's difference is within rtol * scale * (hi - lo) / (b - a),
    scale = |summed 16-point estimates of the breakpoint panels|, in any order.

    With `blocks`, f's values are (k, B, ...): B blocks that share f's calls, not panels, each
    integrated bit for bit as if alone when f(x)[:, j] is C-contiguous, under a leading B axis.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    pts = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    lo, hi = pts[:-1], pts[1:]
    stalled, evaluated, depth, span = False, 0, 0, b - a
    while True:
        if evaluated + len(lo) > MAX_PANELS:
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge within "
                                  f"{MAX_PANELS} panels")
        evaluated += len(lo)
        rules = [block[0] if len(block) == 1 else tuple(map(np.concatenate, zip(*block)))
                 for block in zip(*(_rules(f, lo[i:i + SLICE], hi[i:i + SLICE], blocks)
                                    for i in range(0, len(lo), SLICE)))]
        if depth == 0:  # the rough pass sets each block's tolerance scale; all panels open
            scale = [np.maximum(np.abs(coarse.sum(axis=0)), 1e-300) for coarse, _ in rules]
            total, err = [0.0] * len(rules), [0.0] * len(rules)
            live = np.ones((len(lo), len(rules)), dtype=bool)
        width = (hi - lo)[:, None]
        for j, (coarse, fine) in enumerate(rules):  # live[p, j]: block j still bisects panel p
            on, local_err = live[:, j], np.abs(fine - coarse)
            tol = rtol * scale[j].reshape(-1) * width / span
            ok = on & (local_err.reshape(len(lo), -1) <= tol).all(axis=1)
            left = on ^ ok
            if left.any() and not np.isfinite(local_err[on]).all():  # never accepted: stop now
                raise QuadratureError(f"quadrature on [{a}, {b}]: the integrand is not finite")
            if depth == MAX_DEPTH:
                stalled, ok, left = stalled or left.any(), on, np.zeros_like(left)
            total[j] = total[j] + fine[ok].sum(axis=0)
            err[j] = err[j] + local_err[ok].sum(axis=0)
            live[:, j] = left
        if not live.any():  # every block has accepted every panel
            break
        split = live.any(axis=1)
        mid, live, depth = 0.5 * (lo + hi)[split], np.concatenate([live[split]] * 2), depth + 1
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    if stalled and any(np.any(e > 100.0 * rtol * s) for e, s in zip(err, scale)):
        raise QuadratureError(f"quadrature on [{a}, {b}] stalled at max depth; worst error "
                              f"estimate {max(float(np.max(e)) for e in err):.3e}")
    return (np.array(total), np.array(err)) if blocks else (total[0], err[0])


def integrate_halfline(f, rtol=1e-9, breakpoints=()):
    """Integrate f over [0, inf) via the map v = u/(1-u); returns (value, error).

    f must decay fast enough that f(v)*v^2 -> 0; the exponential tails handled
    here all qualify.  `breakpoints` are locations on the v axis.
    """
    bps = tuple(p / (1.0 + p) for p in breakpoints if p > 0)

    def g(u):
        jac = 1.0 / (1.0 - u) ** 2
        y = np.asarray(f(u / (1.0 - u)))
        return y * jac.reshape(jac.shape + (1,) * (y.ndim - 1))

    return integrate(g, 0.0, 1.0, rtol=rtol, breakpoints=(0.5, 0.9, 0.99) + bps)
