"""Distributions of the receiver/transmitter timing misalignment.

All models live on the fixed domain [-half_width, half_width), where half_width
is the OFDM symbol length including the cyclic prefix (in samples); both engines
reject a model built for another domain.  The zero-mean truncated Gaussian
renormalizes the mass inside the domain; sampling is by inverse CDF so the number
of random draws per sample is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._special import ndtr, ndtri
from .sinr import _check_finite_positive

__all__ = ["TimingModel", "delta", "truncated_gaussian", "uniform"]


@dataclass(frozen=True)
class TimingModel:
    kind: str  # "delta" | "truncated_gaussian" | "uniform"
    half_width: float
    offset: float = 0.0
    sigma: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Where the density jumps (uniform) or holds its mass (truncated Gaussian: beyond
        8 sigma it is below e^-32 of its peak, so quadrature split here does not miss a
        narrow one between its nodes); none for delta."""
        if self.kind == "uniform":
            return self.lo, self.hi
        if self.kind == "truncated_gaussian":
            return -8.0 * self.sigma, 8.0 * self.sigma
        return ()

    @functools.cached_property
    def _gauss_mass(self) -> tuple[float, float]:
        a = ndtr(-self.half_width / self.sigma)
        b = ndtr(self.half_width / self.sigma)
        return a, b - a

    def density(self, x):
        """Density of the continuous kinds; raises for delta."""
        if self.kind == "delta":
            raise ValueError("a point mass has no density")
        x = np.asarray(x, dtype=float)
        inside = (x >= -self.half_width) & (x < self.half_width)
        if self.kind == "uniform":
            out = np.where((x >= self.lo) & (x < self.hi), 1.0 / (self.hi - self.lo), 0.0)
        else:
            _, z = self._gauss_mass
            u = x / self.sigma
            out = np.exp(-0.5 * u * u) / (self.sigma * np.sqrt(2.0 * np.pi) * z)
        out = np.where(inside, out, 0.0)
        return out if out.ndim else float(out)

    def mass(self, lo: float, hi: float) -> float:
        """P(lo < D <= hi), the ends clipped to the domain; a Gaussian's is read left of 0,
        where its far tail does not cancel.  Raises for delta, as `density` does."""
        if self.kind == "delta":
            raise ValueError("mass is for the continuous kinds, not a point mass")
        mirror = self.kind == "truncated_gaussian" and lo + hi > 0.0
        ends = np.array([-hi, -lo] if mirror else [lo, hi], dtype=float)
        x = np.minimum(np.maximum(ends, -self.half_width), self.half_width)
        if self.kind == "uniform":
            with np.errstate(over="ignore"):  # widths near 1e-305 or below: inf, clipped to 1
                below, upto = np.minimum(np.maximum((x - self.lo) / (self.hi - self.lo), 0.0), 1.0)
        else:
            a, z = self._gauss_mass
            below, upto = ((ndtr(v) - a) / z for v in (x / self.sigma).tolist())
        return float(upto - below)

    def quantile(self, u):
        """Inverse CDF, elementwise: the offsets that `sample` maps uniforms u to."""
        u = np.asarray(u, dtype=float)
        if self.kind == "delta":
            return np.full(u.shape, self.offset)
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u
        a, z = self._gauss_mass
        return self.sigma * ndtri(a + u * z)

    def uniforms(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The `size` uniforms `sample` inverts; a delta draws nothing from rng."""
        return np.zeros(size) if self.kind == "delta" else rng.random(size)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantile(self.uniforms(rng, size))


def _check_domain(timings, config) -> None:
    """A model's mass is spread over the domain it was built for: each must be config's."""
    for timing in timings:
        if timing.half_width != config.domain_half_width:
            raise ValueError(f"timing model built for half-width {timing.half_width}, but the "
                             f"offset domain has half-width {config.domain_half_width}")


def delta(offset: float, half_width: float) -> TimingModel:
    _check_finite_positive("half_width", half_width)
    if not -half_width <= offset < half_width:
        raise ValueError(f"offset {offset} outside [-{half_width}, {half_width})")
    return TimingModel("delta", half_width, offset=offset)


# Widest sigma in half-widths w: ndtr(w/sigma) - ndtr(-w/sigma) cancels to about 1e-16 sigma/w.
MAX_SIGMA_OVER_HALF_WIDTH = 1e6


def truncated_gaussian(sigma: float, half_width: float) -> TimingModel:
    _check_finite_positive("half_width", half_width)
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if sigma > MAX_SIGMA_OVER_HALF_WIDTH * half_width:
        raise ValueError(f"sigma {sigma:g} exceeds {MAX_SIGMA_OVER_HALF_WIDTH:g} half-widths; the "
                         f"limit is uniform(-{half_width}, {half_width}, {half_width})")
    return TimingModel("truncated_gaussian", half_width, sigma=sigma)


# Narrowest uniform, in half-widths w.  The timing expectation cuts a model's interval at
# spill values below n < w, each rounded by at most 2^-53 n, so a model this narrow keeps its
# mass to 2.2e-7 (measured: 5e-9 at most, models and hypotheses across the domain); at 1e-12
# half-widths it lost 1.6e-4, and by a width of 1e-100 all of it.
MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH = 1e-9


def uniform(lo: float, hi: float, half_width: float) -> TimingModel:
    _check_finite_positive("half_width", half_width)
    if not -half_width <= lo < hi <= half_width:
        raise ValueError(f"[{lo}, {hi}) must be non-empty and lie inside "
                         f"[-{half_width}, {half_width})")
    if not hi - lo >= (floor := MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH * half_width):
        raise ValueError(f"[{lo}, {hi}) is narrower than MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH = "
                         f"{MIN_UNIFORM_WIDTH_OVER_HALF_WIDTH:g} half-widths ({floor:g}); the "
                         "analytics lose a finite density that narrow, so model the point mass "
                         f"as delta({lo}, {half_width})")
    return TimingModel("uniform", half_width, lo=lo, hi=hi)
