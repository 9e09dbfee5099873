"""Seeded random-number substreams.

Every stochastic component draws from a named substream derived from one
root seed, so that any module can be re-run in isolation and reproduce the
exact byte stream it saw inside a larger experiment.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream_seed", "substream", "draw_bytes"]


def substream_seed(root_seed: int, *labels: str | int) -> int:
    """Derive a 64-bit child seed from a root seed and a label path.

    The derivation hashes the root seed together with the label path, so
    distinct paths give statistically independent streams and the mapping
    is stable across runs, platforms, and process boundaries.
    """
    h = hashlib.sha256()
    h.update(int(root_seed).to_bytes(16, "little", signed=True))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def substream(root_seed: int, *labels: str | int) -> np.random.Generator:
    """Return a generator for the named substream of ``root_seed``."""
    return np.random.default_rng(substream_seed(root_seed, *labels))


def draw_bytes(rng: np.random.Generator, n: int) -> bytes:
    """``n`` random bytes from whole 64-bit words of ``rng``'s bit generator.

    ``Generator.bytes(n)`` draws ceil(n/4) 32-bit words, and PCG64 serves
    them as the low, then the high half of each 64-bit word, keeping an
    unused high half buffered for the next 32-bit draw. This draw equals
    ``rng.bytes(n)``, and leaves the bit generator in the same state, when
    ceil(n/4) is even and no half-word is buffered on entry. None is when
    every earlier draw from ``rng`` took whole 64-bit words, as
    ``draw_bytes`` and float draws do; ``integers`` over a range below
    2**32 takes 32-bit words, as ``Generator.bytes`` does. A length whose
    ``Generator.bytes`` takes an odd number of 32-bit words (ceil(n/4) odd,
    or n < 1, which takes one) raises ValueError: that draw buffers its
    last high half, so the two streams would part from there on.
    """
    if n < 1 or (n + 3) // 4 % 2:
        raise ValueError(f"Generator.bytes({n}) takes an odd number of 32-bit words")
    return rng.bit_generator.random_raw((n + 7) // 8).astype("<u8").tobytes()[:n]
