"""Small-sample statistics helpers: Wilson intervals, DKW bands, ECDFs.

The Wilson interval is used for binomial proportions that may be exactly
zero (empty-pool observations); the Dvoretzky-Kiefer-Wolfowitz band gives
distribution-free confidence envelopes around empirical CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["wilson_interval", "dkw_halfwidth", "Ecdf", "ecdf"]

# z for a two-sided 95% interval; fixed rather than recomputed so that
# emitted tables are bit-stable across platforms.
_Z95 = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion.

    Remains informative at the extremes: with zero successes the upper
    bound is z^2 / (n + z^2), z = 1.96, rather than collapsing to [0, 0].
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    n = float(trials)
    p = successes / n
    z = _Z95
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


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
