"""Deterministic simulation stack for quantum-entropy provisioning,
symmetric authenticated handshakes, VRF-based probabilistic-finality
consensus, and Stackelberg-constrained market clearing.

Every stochastic component draws from named substreams of one root seed;
reruns with the same configuration are bit-identical.
"""

__version__ = "0.1.0"
