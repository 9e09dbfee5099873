"""Deterministic simulation stack for quantum-entropy provisioning,
symmetric authenticated handshakes, VRF-based probabilistic-finality
consensus, and Stackelberg-constrained market clearing.

Every stochastic component draws from named substreams of one root seed;
reruns with the same configuration are bit-identical.
"""

from .entropy import (
    QberTrace,
    binary_entropy,
    chi_square_miss_probability,
    extractable_length,
    generate_qber_trace,
    secure_capacity_bps,
)
from .keypool import (
    BirthDeathParams,
    StationaryDistribution,
    exact_min_capacity,
    min_capacity,
    simulate_pool,
    stationary_distribution,
    stationary_oracle,
)
from .netsim import LinkModel, Network, UnknownNode
from .porlite import (
    ChainTrace,
    ConsensusParams,
    ValidatorNode,
    chain_growth_bound,
    cp_violation_bound,
    election_seed,
    elect_leader,
    finality_depth,
    fork_tail_bound,
    simulate_chain,
)
from .market import (
    GridModel,
    MarketOutcome,
    PROSUMER,
    security_coupled_clearing,
    solve_base,
    solve_social,
    solve_stackelberg,
)
from .qkms import (
    AuditReport,
    InsufficientEntropy,
    KeyPoolState,
    KeyRecord,
    KmsReplica,
    RateAdaptState,
    rate_adapt_step,
    run_rate_controller,
    step_bucket,
)
from .qsah import (
    BaselineHandshakeModel,
    ClientSession,
    ServerEndpoint,
    derive_session_key,
    latency_benchmark,
)
from .stats import dkw_halfwidth, ecdf, wilson_interval

__version__ = "0.1.0"
