"""ECDFs with their distribution-free Dvoretzky-Kiefer-Wolfowitz bands."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["dkw_halfwidth", "Ecdf", "ecdf"]


def dkw_halfwidth(n: int) -> float:
    """Half-width of the 95% DKW confidence band for an ECDF of n samples.

    halfwidth = sqrt(ln(2 / alpha) / (2 n)) with alpha = 0.05
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return math.sqrt(math.log(2.0 / 0.05) / (2.0 * n))


@dataclass(frozen=True)
class Ecdf:
    """Empirical CDF with its 95% DKW band."""

    x: np.ndarray          # sorted sample values
    f: np.ndarray          # ECDF heights at x, i/n
    band_halfwidth: float  # 95% DKW halfwidth

    def lower(self) -> np.ndarray:
        return np.clip(self.f - self.band_halfwidth, 0.0, 1.0)

    def upper(self) -> np.ndarray:
        return np.clip(self.f + self.band_halfwidth, 0.0, 1.0)


def ecdf(samples) -> Ecdf:
    """Build the ECDF of ``samples`` with its 95% DKW band."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    f = np.arange(1, x.size + 1, dtype=float) / x.size
    return Ecdf(x=x, f=f, band_halfwidth=dkw_halfwidth(x.size))
