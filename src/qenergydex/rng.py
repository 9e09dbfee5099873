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
    """The first ``n`` bytes of ceil(n/8) whole 64-bit words of ``rng``'s bit generator.

    Each word is laid out little-endian, low half first, as
    ``Generator.bytes`` serves its 32-bit words. So when every earlier draw
    took whole words, the bytes are those of ``rng.bytes(n)``, and when
    ceil(n/4) is even the generator state after the draw is too.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return rng.bit_generator.random_raw((n + 7) // 8).astype("<u8").tobytes()[:n]
