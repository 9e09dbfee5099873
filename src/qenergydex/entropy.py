"""Quantum-randomness arithmetic and synthetic QBER traces.

Implements the information-theoretic bookkeeping of a QKD-backed entropy
source under a binary-symmetric-channel error model:

- binary entropy and the smooth min-entropy lower bound,
- leftover-hash extractable key length after privacy amplification,
- miss-detection probability of the chi-square eavesdropping test,
- composition of smoothing error and miss probability into a statistical
  distance bound,
- a seeded 1 kHz QBER trace generator (truncated Gaussian noise plus
  Gaussian bumps, clipped to a realistic error-rate range).

All functions are pure; trace generation is deterministic per seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import substream

__all__ = [
    "QberTrace",
    "EntropyParams",
    "binary_entropy",
    "min_entropy_lower_bound",
    "extractable_length",
    "chi_square_miss_probability",
    "statistical_distance_bound",
    "generate_qber_trace",
]

QBER_CLIP_LO = 0.001
QBER_CLIP_HI = 0.08
DEFAULT_EPSILON = 2.0 ** -64
SAMPLE_RATE_HZ = 1000.0


@dataclass(frozen=True)
class QberTrace:
    """A 1 kHz quantum-bit-error-rate time series.

    Samples are fractions clipped to [q_lo, q_hi]. Regenerating with the
    same seed and parameters yields a bit-identical sequence.
    """

    samples: np.ndarray
    seed: int
    sample_rate_hz: float = SAMPLE_RATE_HZ
    q_lo: float = QBER_CLIP_LO
    q_hi: float = QBER_CLIP_HI

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.size == 0:
            raise ValueError("trace must contain at least one sample")
        if samples.min() < self.q_lo - 1e-15 or samples.max() > self.q_hi + 1e-15:
            raise ValueError("samples violate the clipping bounds")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def variance(self) -> float:
        return float(self.samples.var())

    def to_csv(self, path: str | Path) -> None:
        """Write the trace as CSV with header ``t_ms,qber``, one row per ms."""
        with open(path, "w", newline="") as fh:
            fh.write("t_ms,qber\n")
            for t, q in enumerate(self.samples):
                fh.write(f"{t},{float(q)!r}\n")

    @classmethod
    def from_csv(cls, path: str | Path, seed: int = 0) -> "QberTrace":
        rows = Path(path).read_text().strip().splitlines()
        if rows[0] != "t_ms,qber":
            raise ValueError(f"unexpected CSV header: {rows[0]!r}")
        samples = np.array([float(r.split(",")[1]) for r in rows[1:]])
        return cls(samples=samples, seed=seed)

    def to_binary(self, path: str | Path) -> None:
        """Write samples as little-endian float64, for large runs."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<%dd" % len(self.samples), *self.samples))

    @classmethod
    def from_binary(cls, path: str | Path, seed: int = 0) -> "QberTrace":
        raw = Path(path).read_bytes()
        samples = np.frombuffer(raw, dtype="<f8")
        return cls(samples=np.array(samples), seed=seed)


@dataclass(frozen=True)
class EntropyParams:
    """Raw-block parameters for the extraction bounds.

    n : raw bit count of the measured block
    q : quantum bit error rate, in (0, 0.5)
    epsilon : smoothing parameter of the min-entropy bound
    """

    n: int
    q: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        # q == 0 admitted as the noiseless limit
        if not 0.0 <= self.q < 0.5:
            raise ValueError("q must lie in [0, 0.5)")
        # epsilon == 1 is admitted as the degenerate no-smoothing limit
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")


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


def min_entropy_lower_bound(p: EntropyParams) -> float:
    """Smooth min-entropy lower bound n (1 - h2(q)) - log2(1/epsilon), in bits.

    May be negative; callers treat a negative bound as "no extractable
    guarantee" for that block.
    """
    return p.n * (1.0 - binary_entropy(p.q)) - math.log2(1.0 / p.epsilon)


def extractable_length(p: EntropyParams) -> int:
    """Secure key length after leftover-hash privacy amplification.

    l = floor( n (1 - h2(q)) - 2 log2(1/epsilon) - 128 ), clamped at 0.
    A zero return means "refuse to issue" for that raw block.
    """
    raw = p.n * (1.0 - binary_entropy(p.q)) - 2.0 * math.log2(1.0 / p.epsilon) - 128.0
    return max(0, math.floor(raw))


def binary_entropy_vec(q: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy with the 0 log 0 = 0 convention."""
    q = np.asarray(q, dtype=float)
    if (q < 0).any() or (q > 1).any():
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


def statistical_distance_bound(epsilon_smooth: float, p_miss: float) -> float:
    """Statistical distance of the issued keys from ideal uniform output.

    The smoothing error and the eavesdropping miss probability compose
    additively; the sum is capped at 1 since it bounds a probability.
    """
    for v in (epsilon_smooth, p_miss):
        if not 0.0 <= v <= 1.0:
            raise ValueError("inputs must lie in [0, 1]")
    return min(1.0, epsilon_smooth + p_miss)


def generate_qber_trace(
    duration_s: float,
    seed: int,
    pulse_count: int = 12,
    noise_sigma: float = 0.004,
    base_q: float = 0.01,
    amp_range: tuple[float, float] = (0.01, 0.05),
    width_range: tuple[float, float] = (50.0, 500.0),
    q_lo: float = QBER_CLIP_LO,
    q_hi: float = QBER_CLIP_HI,
) -> QberTrace:
    """Synthesize a 1 kHz QBER trace.

    The trace is the base level plus truncated Gaussian noise (clamped at
    +-3 sigma) plus ``pulse_count`` Gaussian-shaped bumps whose centers are
    uniform over the trace, widths (Gaussian sigma, in samples) uniform
    over ``width_range`` and amplitudes uniform over ``amp_range``.
    ``pulse_count`` is interpreted per 60 s and scaled with duration.
    Samples are finally clipped to [q_lo, q_hi].
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    rng = substream(seed, "trace")
    t = np.arange(n, dtype=float)
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
        q += amp * np.exp(-0.5 * ((t - center) / width) ** 2)
    np.clip(q, q_lo, q_hi, out=q)
    return QberTrace(samples=q, seed=seed, q_lo=q_lo, q_hi=q_hi)
