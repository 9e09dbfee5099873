"""Quantum-randomness arithmetic and synthetic QBER traces.

Implements the information-theoretic bookkeeping of a QKD-backed entropy
source under a binary-symmetric-channel error model:

- binary entropy,
- the stack's one extractor loss model: the leftover-hash key length of a
  raw block after privacy amplification, and from it the secure capacity
  of each 1 ms interval, which every entropy rate in the stack reads,
- miss-detection probability of the chi-square eavesdropping test,
- a seeded 1 kHz QBER trace generator (truncated Gaussian noise plus
  Gaussian bumps, clipped to a realistic error-rate range).

All functions are pure; trace generation is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

__all__ = [
    "QberTrace",
    "binary_entropy",
    "extractable_length",
    "secure_capacity_bps",
    "chi_square_miss_probability",
    "generate_qber_trace",
]

QBER_CLIP_LO = 0.001
QBER_CLIP_HI = 0.08
DEFAULT_EPSILON = 2.0 ** -64
SAMPLE_RATE_HZ = 1000.0
# half-width, in pulse widths, of the window on which a QBER bump is added
_PULSE_REACH = 39.0


@dataclass(frozen=True)
class QberTrace:
    """A 1 kHz quantum-bit-error-rate time series.

    Samples are fractions clipped to [q_lo, q_hi]. ``generate_qber_trace``
    regenerates a bit-identical sequence from the same seed and parameters.
    """

    samples: np.ndarray
    q_lo: float = QBER_CLIP_LO
    q_hi: float = QBER_CLIP_HI

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise ValueError("trace must contain at least one sample")
        # written so that a NaN sample fails: every comparison with NaN is False
        if not (samples.min() >= self.q_lo - 1e-15 and samples.max() <= self.q_hi + 1e-15):
            raise ValueError("samples violate the clipping bounds")

    def __len__(self) -> int:
        return len(self.samples)


def binary_entropy(q: float) -> float:
    """Binary entropy h2(q) = -q log2 q - (1-q) log2 (1-q).

    Uses the convention 0 log2 0 = 0, so h2(0) = h2(1) = 0 and h2(0.5) = 1.

    Raises ValueError outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def extractable_length(n: int, q: float, epsilon: float = DEFAULT_EPSILON) -> int:
    """Secure key length after leftover-hash privacy amplification.

    l = floor( n (1 - h2(q)) - 2 log2(1/epsilon) - 128 ), clamped at 0.
    A zero return means "refuse to issue" for that raw block. The scalar
    oracle of ``extractable_length_vec``.
    """
    raw = n * (1.0 - binary_entropy(q)) - 2.0 * math.log2(1.0 / epsilon) - 128.0
    return max(0, math.floor(raw))


def binary_entropy_vec(q: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy with the 0 log 0 = 0 convention.

    Raises ValueError unless every q lies in [0, 1]; a NaN does not.
    """
    q = np.asarray(q, dtype=float)
    if not ((q >= 0) & (q <= 1)).all():
        raise ValueError("q must lie in [0, 1]")
    out = np.zeros_like(q)
    interior = (q > 0) & (q < 1)
    qi = q[interior]
    out[interior] = -qi * np.log2(qi) - (1.0 - qi) * np.log2(1.0 - qi)
    return out


def extractable_length_vec(n: int, q: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Vectorized secure key length; elementwise equal to extractable_length."""
    raw = n * (1.0 - binary_entropy_vec(q)) - 2.0 * math.log2(1.0 / epsilon) - 128.0
    return np.maximum(0.0, np.floor(raw))


def secure_capacity_bps(r_max_bps: float, q: np.ndarray) -> np.ndarray:
    """Secure bits/s of each 1 ms interval at QBER ``q``.

    The interval's raw budget is n = floor(R_max / 1000) bits; its
    extractable length, scaled back to bits/s, is the capacity.
    """
    return extractable_length_vec(int(r_max_bps // SAMPLE_RATE_HZ), q) * SAMPLE_RATE_HZ


def chi_square_miss_probability(q0: float, delta_q: float, n: int) -> float:
    """Miss probability of the two-sided chi-square eavesdropping test.

    Returns Q_chi2( (delta_q)^2 n / q0 ) where Q_chi2 is the complementary
    CDF of a chi-square statistic with one degree of freedom (a single
    scalar error-count statistic). That is the regularized upper incomplete
    gamma function Q(1/2, x/2), and Gamma(1/2, z^2) = sqrt(pi) erfc(z)
    (DLMF §8.4) gives the closed form erfc(sqrt(x/2)).
    """
    if q0 <= 0.0:
        raise ValueError("q0 must be positive")
    if delta_q < 0.0:
        raise ValueError("delta_q must be non-negative")
    if n < 1:
        raise ValueError("n must be a positive integer")
    statistic = delta_q * delta_q * n / q0
    return math.erfc(math.sqrt(statistic / 2.0))


def generate_qber_trace(
    duration_s: float,
    seed: int,
    pulse_count: int = 12,
    noise_sigma: float = 0.004,
    base_q: float = 0.01,
    amp_range: tuple[float, float] = (0.01, 0.05),
    width_range: tuple[float, float] = (50.0, 500.0),
) -> QberTrace:
    """Synthesize a 1 kHz QBER trace.

    The trace is the base level plus truncated Gaussian noise (clamped at
    +-3 sigma) plus ``pulse_count`` Gaussian-shaped bumps whose centers are
    uniform over the trace, widths (Gaussian sigma, in samples) uniform
    over ``width_range`` and amplitudes uniform over ``amp_range``.
    ``pulse_count`` is interpreted per 60 s and scaled with duration.
    Samples are finally clipped to [QBER_CLIP_LO, QBER_CLIP_HI].

    Each bump is added only on its support window, the samples within
    ``_PULSE_REACH`` widths of its center, clipped to the trace. This is
    exact, the same bits as adding it over the whole trace: beyond the
    window the exponent is below -0.5 * 39**2 = -760.5, where ``np.exp``
    is exactly 0.0 (it is 0.0 below about -745.13, |z| > 38.61), and
    adding ``amp * 0.0`` leaves a sample unchanged. The cost is therefore
    O(n + sum of pulse widths) rather than O(n x pulses).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    rng = substream(seed, "trace")
    q = np.full(n, base_q, dtype=float)
    if noise_sigma > 0:
        noise = rng.normal(0.0, noise_sigma, size=n)
        np.clip(noise, -3.0 * noise_sigma, 3.0 * noise_sigma, out=noise)
        q += noise
    n_pulses = int(round(pulse_count * duration_s / 60.0))
    for _ in range(n_pulses):
        center = rng.uniform(0.0, n)
        width = rng.uniform(*width_range)
        amp = rng.uniform(*amp_range)
        reach = _PULSE_REACH * abs(width)
        lo = math.ceil(max(0.0, center - reach))
        hi = math.floor(min(n - 1.0, center + reach)) + 1
        t = np.arange(lo, hi, dtype=float)
        q[lo:hi] += amp * np.exp(-0.5 * ((t - center) / width) ** 2)
    np.clip(q, QBER_CLIP_LO, QBER_CLIP_HI, out=q)
    return QberTrace(samples=q)
