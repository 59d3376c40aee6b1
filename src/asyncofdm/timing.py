"""Distributions of the receiver/transmitter timing misalignment.

All models live on the fixed domain [-half_width, half_width), where half_width
is the OFDM symbol length including the cyclic prefix (in samples).  The
truncated Gaussian renormalizes the mass inside the domain; sampling is by
inverse CDF so the number of random draws per sample is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._special import ndtr, ndtri

__all__ = ["TimingModel", "delta", "truncated_gaussian", "uniform"]


@dataclass(frozen=True)
class TimingModel:
    kind: str  # "delta" | "truncated_gaussian" | "uniform"
    half_width: float
    offset: float = 0.0
    mean: float = 0.0
    sigma: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"

    @functools.cached_property
    def _gauss_mass(self) -> tuple[float, float]:
        a = ndtr((-self.half_width - self.mean) / self.sigma)
        b = ndtr((self.half_width - self.mean) / self.sigma)
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
            u = (x - self.mean) / self.sigma
            out = np.exp(-0.5 * u * u) / (self.sigma * np.sqrt(2.0 * np.pi) * z)
        out = np.where(inside, out, 0.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse CDF, elementwise: the offsets that `sample` maps uniforms u to."""
        u = np.asarray(u, dtype=float)
        if self.kind == "delta":
            return np.full(u.shape, self.offset)
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u
        a, z = self._gauss_mass
        return self.mean + self.sigma * ndtri(a + u * z)

    def uniforms(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The `size` uniforms `sample` inverts; a delta draws nothing from rng."""
        return np.zeros(size) if self.kind == "delta" else rng.random(size)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantile(self.uniforms(rng, size))


def delta(offset: float, half_width: float) -> TimingModel:
    if not -half_width <= offset < half_width:
        raise ValueError(f"offset {offset} outside [-{half_width}, {half_width})")
    return TimingModel("delta", half_width, offset=offset)


# Widest sigma in half-widths w: ndtr(w/sigma) - ndtr(-w/sigma) cancels to about 1e-16 sigma/w.
MAX_SIGMA_OVER_HALF_WIDTH = 1e6


def truncated_gaussian(sigma: float, half_width: float, mean: float = 0.0) -> TimingModel:
    if not (np.isfinite(sigma) and np.isfinite(mean)):
        raise ValueError(f"sigma and mean must be finite, got sigma={sigma}, mean={mean}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if sigma > MAX_SIGMA_OVER_HALF_WIDTH * half_width:
        raise ValueError(f"sigma {sigma:g} exceeds {MAX_SIGMA_OVER_HALF_WIDTH:g} half-widths; the "
                         f"limit is uniform(-{half_width}, {half_width}, {half_width})")
    if not -half_width <= mean < half_width:
        raise ValueError(f"mean {mean} outside [-{half_width}, {half_width})")
    return TimingModel("truncated_gaussian", half_width, mean=mean, sigma=sigma)


def uniform(lo: float, hi: float, half_width: float) -> TimingModel:
    if not (-half_width <= lo < hi <= half_width):
        raise ValueError(f"[{lo}, {hi}) must lie inside [-{half_width}, {half_width})")
    return TimingModel("uniform", half_width, lo=lo, hi=hi)
