"""Probabilistic-finality consensus: VRF leader election, weighted voting,
and the concentration-bound analytics that certify it.

Each height draws an election seed by hashing the previous block header
with a 128-bit salt rented from the key service; every validator evaluates
a keyed hash VRF on the seed and leads when its normalized output falls
below the threshold h_q. Multiple leaders race and the lowest output wins;
no leader means an empty slot. A block confirms when at least 2/3 of the
total validator weight has signed it.

Per-height outcomes are abstracted as +1 (honest block confirmed), 0
(empty slot), or -1 (unresolved adversarial fork). A fork survives only
while adversarial heights continue uninterrupted; the first honest
quorum confirmation settles the race. The closed-form bounds:

    fork survives t confirmations:   exp(-2 t (1 - 2 alpha)^2)
    common-prefix violation, depth k: exp(-2 k (1 - 2 alpha)^2)
    chain growth shortfall by factor (1 - eps):
        exp(-lambda t), lambda = eps^2 (1 - alpha)(1 - beta) / 2

with alpha the Byzantine weight fraction and beta the empty-slot rate.

Two simulation modes are provided: a fast analytic mode that draws the
outcome sequence directly as Bernoulli-type noise (used for the large
Monte Carlo ensembles), and a network mode that runs real elections,
gossip, and weighted voting through the event-driven network model,
including Byzantine strategies (vote withholding, equivocation, private
fork release).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .netsim import SLOT_MS, LinkModel, Network
from .qkms import InsufficientEntropy, KmsReplica
from .rng import substream

__all__ = [
    "UnknownValidator",
    "ValidatorNode",
    "ConsensusParams",
    "ChainTrace",
    "ChainMetrics",
    "VrfRegistry",
    "election_seed",
    "elect_leader",
    "adjust_threshold",
    "confirm_threshold_met",
    "finality_depth",
    "fork_tail_bound",
    "cp_violation_bound",
    "chain_growth_bound",
    "fork_persistence_tail",
    "cp_violation_fraction",
    "growth_violation_fraction",
    "finality_depths",
    "simulate_chain",
    "DEFAULT_BLOCK_INTERVAL_MS",
]

DEFAULT_BLOCK_INTERVAL_MS = 65.0
CONFIRM_WEIGHT = 2.0 / 3.0


class UnknownValidator(KeyError):
    """VRF operation with an unregistered key handle or node."""


@dataclass(frozen=True)
class ValidatorNode:
    node_id: str
    vrf_secret: bytes
    weight: float
    byzantine: bool = False

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if len(self.vrf_secret) != 32:
            raise ValueError("vrf secret must be 32 bytes")


@dataclass(frozen=True)
class ConsensusParams:
    """Protocol parameters; alpha must stay below the 1/3 safety precondition."""

    alpha: float = 0.25
    beta: float = 0.10
    epsilon_growth: float = 0.20
    target_block_rate: float = 0.90
    security_bits: int = 40
    block_interval_ms: float = DEFAULT_BLOCK_INTERVAL_MS

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0 / 3.0:
            raise ValueError("alpha must lie in [0, 1/3)")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if not 0.0 < self.epsilon_growth < 1.0:
            raise ValueError("epsilon_growth must lie in (0, 1)")
        if not 0.0 < self.target_block_rate <= 1.0:
            raise ValueError("target_block_rate must lie in (0, 1]")


# ---------------------------------------------------------------------------
# VRF (simulation grade)
# ---------------------------------------------------------------------------


class VrfRegistry:
    """Key-handle registry standing in for public VRF verification.

    Outputs are keyed hashes of (secret, seed); verification recomputes
    them through the registry, which plays the role of the public key
    directory. A verifiable VRF can be substituted behind the same
    interface.
    """

    def __init__(self):
        self._secrets: dict[str, bytes] = {}

    def register(self, secret: bytes) -> str:
        handle = hashlib.sha256(b"vrf/handle" + secret).hexdigest()[:32]
        self._secrets[handle] = secret
        return handle

    @staticmethod
    def evaluate(secret: bytes, seed: bytes) -> tuple[bytes, bytes]:
        """Deterministic per (secret, seed): returns (output, proof)."""
        output = hashlib.sha256(b"vrf/out" + secret + seed).digest()
        proof = hashlib.sha256(b"vrf/proof" + secret + seed).digest()
        return output, proof

    def verify(self, handle: str, seed: bytes, output: bytes, proof: bytes) -> bool:
        secret = self._secrets.get(handle)
        if secret is None:
            raise UnknownValidator(handle)
        expect_out, expect_proof = self.evaluate(secret, seed)
        return expect_out == output and expect_proof == proof


def vrf_unit(output: bytes) -> float:
    """Normalize a 256-bit VRF output to [0, 1)."""
    return int.from_bytes(output[:8], "big") / 2.0 ** 64


def election_seed(prev_header_hash: bytes, kms_salt: bytes) -> bytes:
    """Height seed: hash of previous header concatenated with the rented salt."""
    if len(prev_header_hash) != 32:
        raise ValueError("previous header hash must be 32 bytes")
    if len(kms_salt) != 16:
        raise ValueError("salt must be 128 bits")
    return hashlib.sha256(prev_header_hash + kms_salt).digest()


def elect_leader(
    nodes: list[ValidatorNode], seed: bytes, h_q: float
) -> list[tuple[ValidatorNode, float]]:
    """All nodes whose normalized VRF output falls below h_q, lowest first.

    An empty list is an empty slot; ties among multiple leaders resolve by
    lowest output (the head of the returned list).
    """
    if not 0.0 <= h_q <= 1.0:
        raise ValueError("h_q must lie in [0, 1]")
    leaders = []
    for node in nodes:
        y = vrf_unit(VrfRegistry.evaluate(node.vrf_secret, seed)[0])
        if y < h_q:
            leaders.append((node, y))
    leaders.sort(key=lambda pair: pair[1])
    return leaders


def adjust_threshold(
    h_q: float,
    observed_rate: float,
    target_rate: float,
    h_min: float = 1e-6,
    h_max: float = 1.0,
    rate_floor: float = 1e-6,
) -> float:
    """Multiplicative threshold controller toward the target block rate."""
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target_rate must lie in (0, 1)")
    if not 0.0 <= observed_rate <= 1.0:
        raise ValueError("observed_rate must lie in [0, 1]")
    return float(np.clip(h_q * target_rate / max(observed_rate, rate_floor), h_min, h_max))


def confirm_threshold_met(vote_weight: float) -> bool:
    """A block confirms exactly when signed weight reaches 2/3."""
    return vote_weight >= CONFIRM_WEIGHT


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def finality_depth(alpha: float, security_bits: int = 40) -> int:
    """Confirmation depth making the fork-survival bound clear 2^-security_bits.

    ceil( security_bits ln 2 / (2 (1 - 2 alpha)^2) )
    """
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    if security_bits < 1:
        raise ValueError("security_bits must be positive")
    return math.ceil(security_bits * math.log(2.0) / (2.0 * (1.0 - 2.0 * alpha) ** 2))


def fork_tail_bound(alpha: float, t: float) -> float:
    """Azuma tail: probability a fork survives t confirmations."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    if t < 0:
        raise ValueError("t must be non-negative")
    return math.exp(-2.0 * t * (1.0 - 2.0 * alpha) ** 2)


def cp_violation_bound(alpha: float, k: float) -> float:
    """Common-prefix violation bound at depth k (same Azuma form)."""
    return fork_tail_bound(alpha, k)


def chain_growth_bound(alpha: float, beta: float, epsilon: float, t: float) -> float:
    """Chernoff bound on growth shortfall below (1-eps)(1-alpha)(1-beta) t."""
    if not 0.0 <= alpha < 1.0 or not 0.0 <= beta < 1.0:
        raise ValueError("alpha and beta must lie in [0, 1)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    lam = epsilon * epsilon * (1.0 - alpha) * (1.0 - beta) / 2.0
    return math.exp(-lam * t)


# ---------------------------------------------------------------------------
# outcome-sequence analytics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainTrace:
    """Per-height outcomes (+1 confirm, 0 empty, -1 unresolved fork)."""

    outcomes: np.ndarray
    block_interval_ms: float = DEFAULT_BLOCK_INTERVAL_MS
    intervals_ms: np.ndarray | None = None   # measured, network mode only

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.int8)
        object.__setattr__(self, "outcomes", outcomes)
        if not np.isin(outcomes, (-1, 0, 1)).all():
            raise ValueError("outcomes must be -1, 0, or +1")

    def __len__(self) -> int:
        return len(self.outcomes)


def _forward_streaks(outcomes: np.ndarray) -> np.ndarray:
    """Length of the unresolved-fork streak starting at each height.

    The streak at h runs up to the next height that is not a fork, so it
    is that height's index minus h (the trace length when none follows).
    """
    n = len(outcomes)
    idx = np.arange(n, dtype=np.int64)
    next_settled = np.where(outcomes != -1, idx, n)
    next_settled = np.minimum.accumulate(next_settled[::-1])[::-1]
    return next_settled - idx


def fork_persistence_tail(outcomes: np.ndarray, max_depth: int) -> np.ndarray:
    """Per-depth frequency of forks persisting unresolved for t heights.

    Under quorum confirmation a fork stays alive only while adversarial
    heights continue back to back: the first honest confirmation (or empty
    slot falling back to the canonical branch) settles the race. The
    frequency at depth t is the fraction of heights that open an
    uninterrupted adversarial streak of length at least t.
    """
    streaks = _forward_streaks(np.asarray(outcomes))
    total = len(streaks)
    counts = np.bincount(np.minimum(streaks, max_depth), minlength=max_depth + 1)
    # tail: number of positions with streak >= t
    tail = np.cumsum(counts[::-1])[::-1]
    return tail[1 : max_depth + 1] / float(total)


def cp_violation_fraction(outcomes: np.ndarray, max_depth: int) -> np.ndarray:
    """Fraction of heights at which the depth-k prefix is still contested.

    The block k confirmations deep stays contestable only while an
    adversarial streak has outlasted those k confirmations, i.e. a streak
    of length at least k + 1 is running.
    """
    streaks = _forward_streaks(np.asarray(outcomes))
    total = len(streaks)
    counts = np.bincount(np.minimum(streaks, max_depth + 1), minlength=max_depth + 2)
    tail = np.cumsum(counts[::-1])[::-1]
    return tail[2 : max_depth + 2] / float(total)


def growth_violation_fraction(
    outcomes: np.ndarray,
    epsilon: float,
    alpha: float,
    beta: float,
    max_depth: int,
) -> np.ndarray:
    """Fraction of length-t windows growing slower than (1-eps)(1-alpha)(1-beta) t."""
    confirmed = np.concatenate(([0], np.cumsum(outcomes == 1, dtype=np.int64)))
    rate = (1.0 - epsilon) * (1.0 - alpha) * (1.0 - beta)
    out = np.zeros(max_depth)
    for t in range(1, max_depth + 1):
        if t > len(outcomes):
            break
        grown = confirmed[t:] - confirmed[:-t]
        # the counts are integers, so compare against the integer threshold
        out[t - 1] = np.count_nonzero(grown <= math.floor(rate * t + 1e-12)) / len(grown)
    return out


def finality_depths(outcomes: np.ndarray, max_depth: int = 200) -> np.ndarray:
    """Observed finality depth per confirmed block.

    A block confirmed at height h is final once the net outcome sum of the
    heights after it reaches +1 (the honest chain has built a full block of
    lead on top of it); the depth is the number of heights that takes.
    Blocks confirmed at the last ``max_depth`` heights, too close to the
    end of the trace to resolve, are skipped, as are blocks whose depth
    would exceed ``max_depth``.

    With s the running outcome sum (s[0] = 0), the block at h is final at
    the first j > h + 1 with s[j] >= s[h + 1] + 1. Each height moves s by
    -1, 0 or +1, so that is a first passage: the first j > h + 1 at level
    exactly s[h + 1] + 1. All of them come from one ``searchsorted`` over
    the heights keyed by (level, index).
    """
    outcomes = np.asarray(outcomes)
    s = np.concatenate(([0], np.cumsum(outcomes, dtype=np.int64)))
    width = len(s)
    level = s - s.min()
    # one key per index, level * width + index: sorted, they run level by
    # level and, within a level, in index order
    keys = np.sort(level * width + np.arange(width))
    blocks = np.flatnonzero(outcomes[: max(len(outcomes) - max_depth, 0)] == 1)
    target = level[blocks + 1] + 1
    pos = np.searchsorted(keys, target * width + blocks + 2)
    hit = keys[np.minimum(pos, width - 1)]
    reached = (pos < width) & (hit // width == target)
    depths = hit % width - blocks - 1
    return depths[reached & (depths <= max_depth)]


@dataclass(frozen=True)
class ChainMetrics:
    """Empirical frequencies paired with their closed-form bounds per depth."""

    depths: np.ndarray
    fork_tail_empirical: np.ndarray
    fork_tail_bounds: np.ndarray
    cp_empirical: np.ndarray
    cp_bounds: np.ndarray
    growth_empirical: np.ndarray
    growth_bounds: np.ndarray
    finality_histogram: np.ndarray   # counts indexed by depth-1

    def dominated(self) -> bool:
        """True when every empirical frequency sits at or below its bound."""
        return bool(
            (self.fork_tail_empirical <= self.fork_tail_bounds).all()
            and (self.cp_empirical <= self.cp_bounds).all()
            and (self.growth_empirical <= self.growth_bounds).all()
        )


def chain_metrics(
    trace: ChainTrace,
    params: ConsensusParams,
    max_depth: int = 80,
    finality_hist: bool = True,
) -> ChainMetrics:
    depths = np.arange(1, max_depth + 1)
    fork_emp = fork_persistence_tail(trace.outcomes, max_depth)
    cp_emp = cp_violation_fraction(trace.outcomes, max_depth)
    growth_emp = growth_violation_fraction(
        trace.outcomes, params.epsilon_growth, params.alpha, params.beta, max_depth
    )
    fork_b = np.array([fork_tail_bound(params.alpha, t) for t in depths])
    cp_b = np.array([cp_violation_bound(params.alpha, k) for k in depths])
    growth_b = np.array(
        [chain_growth_bound(params.alpha, params.beta, params.epsilon_growth, t) for t in depths]
    )
    hist = np.zeros(max_depth, dtype=np.int64)
    if finality_hist:
        observed = finality_depths(trace.outcomes, max_depth)
        if observed.size:
            binned = np.bincount(observed, minlength=max_depth + 1)[1 : max_depth + 1]
            hist[: len(binned)] = binned
    return ChainMetrics(
        depths=depths,
        fork_tail_empirical=fork_emp,
        fork_tail_bounds=fork_b,
        cp_empirical=cp_emp,
        cp_bounds=cp_b,
        growth_empirical=growth_emp,
        growth_bounds=growth_b,
        finality_histogram=hist,
    )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def make_validators(
    n: int, alpha: float, seed: int, byz_count: int | None = None
) -> list[ValidatorNode]:
    """Equal-weight validator set with a Byzantine fraction close to alpha."""
    rng = substream(seed, "vrf", "keys")
    if byz_count is None:
        byz_count = int(round(alpha * n))
    nodes = []
    for i in range(n):
        nodes.append(
            ValidatorNode(
                node_id=f"v{i}",
                vrf_secret=rng.bytes(32),
                weight=1.0 / n,
                byzantine=i < byz_count,
            )
        )
    return nodes


def _simulate_bernoulli(params: ConsensusParams, horizon: int, seed: int) -> ChainTrace:
    # adversarial disruption abstracted as Bernoulli(alpha) noise on the
    # non-empty slots
    rng = substream(seed, "porlite", "bernoulli")
    p_confirm = (1.0 - params.beta) * (1.0 - params.alpha)
    p_fork = (1.0 - params.beta) * params.alpha
    p_empty = params.beta
    outcomes = rng.choice(
        np.array([1, -1, 0], dtype=np.int8),
        size=horizon,
        p=[p_confirm, p_fork, p_empty],
    )
    return ChainTrace(outcomes=outcomes, block_interval_ms=params.block_interval_ms)


def _simulate_network(
    params: ConsensusParams,
    horizon: int,
    nodes: list[ValidatorNode],
    link: LinkModel,
    seed: int,
    kms: KmsReplica | None = None,
    byz_strategy: str = "equivocate",
    kms_link: LinkModel | None = None,
) -> ChainTrace:
    """Per-height election, gossip, and weighted voting over the event loop.

    Byzantine strategies: ``withhold`` (elected Byzantine leaders stay
    silent and Byzantine validators never vote), ``equivocate`` (a
    Byzantine leader sends conflicting blocks to two halves of the
    network), ``private_fork`` (a Byzantine leader releases its block only
    just inside the jitter bound). Any strategy still withholds votes.
    """
    if byz_strategy not in ("withhold", "equivocate", "private_fork"):
        raise ValueError(f"unknown strategy {byz_strategy!r}")
    total_weight = sum(n.weight for n in nodes)
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError("validator weights must be normalized")
    net = Network(seed=seed, default_link=link)
    kms_link = kms_link or LinkModel(d0_ms=5.0, jitter_max_ms=5.0)
    for node in nodes:
        net.register_node(node.node_id)
    net.register_node("kms")
    net.set_link(nodes[0].node_id, "kms", kms_link)

    salt_rng = substream(seed, "porlite", "salt")
    h_q = _threshold_for_rate(params.target_block_rate, len(nodes))
    prev_hash = hashlib.sha256(b"genesis").digest()
    outcomes = np.zeros(horizon, dtype=np.int8)
    intervals = np.zeros(horizon)
    observed_rate_window: list[int] = []

    t = 0.0
    for height in range(horizon):
        t_height = t
        # election salt: rented from the key service when one is attached
        if kms is not None:
            try:
                record = kms.rent(128, int(t))
                salt = record.key_bits[:16]
            except InsufficientEntropy:
                outcomes[height] = 0
                t = _next_slot(t)
                intervals[height] = t - t_height
                observed_rate_window.append(0)
                h_q = _maybe_adjust(h_q, observed_rate_window, params, len(nodes))
                continue
            rtt = net.sample_rtt(nodes[0].node_id, "kms")
            t += rtt + 2 * net.processing_ms
        else:
            salt = salt_rng.bytes(16)

        seed_bytes = election_seed(prev_hash, salt)
        leaders = elect_leader(nodes, seed_bytes, h_q)
        produced = bool(leaders)
        if byz_strategy == "withhold":
            leaders = [(n, y) for (n, y) in leaders if not n.byzantine]
        if not leaders:
            outcomes[height] = 0
            t = _next_slot(t)
            intervals[height] = t - t_height
            observed_rate_window.append(1 if produced else 0)
            h_q = _maybe_adjust(h_q, observed_rate_window, params, len(nodes))
            continue

        leader, _y = leaders[0]
        proposal_delay = _broadcast_time(net, leader.node_id, nodes)
        if leader.byzantine and byz_strategy == "private_fork":
            proposal_delay += link.jitter_max_ms  # released at the jitter bound

        if leader.byzantine and byz_strategy == "equivocate":
            # conflicting blocks split the honest vote; neither side reaches 2/3
            outcomes[height] = -1
            t = _next_slot(t)
        else:
            # honest validators vote; Byzantine weight is withheld
            vote_weight = sum(n.weight for n in nodes if not n.byzantine)
            vote_delay = _broadcast_time(net, leader.node_id, nodes)
            commit_delay = _broadcast_time(net, leader.node_id, nodes)
            done = t + proposal_delay + vote_delay + commit_delay
            if confirm_threshold_met(vote_weight) and done <= t_height + 4 * SLOT_MS:
                outcomes[height] = 1
                t = done
                prev_hash = hashlib.sha256(prev_hash + seed_bytes).digest()
            else:
                outcomes[height] = -1
                t = _next_slot(t)
        intervals[height] = t - t_height
        observed_rate_window.append(1)   # a leader existed: block produced
        h_q = _maybe_adjust(h_q, observed_rate_window, params, len(nodes))

    return ChainTrace(
        outcomes=outcomes,
        block_interval_ms=float(np.mean(intervals)),
        intervals_ms=intervals,
    )


def _broadcast_time(net: Network, src: str, nodes: list[ValidatorNode]) -> float:
    """Time for a one-way broadcast leg to cover the validator set.

    Modeled as the slowest one-way delivery plus the processing constant
    (full N x N gossip is not materialized per height for speed, but draws
    come from the same link model as the message fabric).
    """
    link = net.default_link
    worst = 0.0
    for _ in range(min(len(nodes), 16)):
        one_way = link.d0_ms / 2.0 + net._rng.uniform(0.0, link.jitter_max_ms / 2.0)
        worst = max(worst, one_way)
    return worst + net.processing_ms


def _next_slot(t: float) -> float:
    return (math.floor(t / SLOT_MS) + 1) * SLOT_MS


def _threshold_for_rate(target_rate: float, n_nodes: int) -> float:
    """h_q such that P(at least one leader) matches the target block rate."""
    return 1.0 - (1.0 - target_rate) ** (1.0 / n_nodes)


def _maybe_adjust(
    h_q: float, window: list[int], params: ConsensusParams, n_nodes: int
) -> float:
    if len(window) % 100:
        return h_q
    observed = sum(window[-100:]) / 100.0
    h_max = min(1.0, 4.0 * _threshold_for_rate(params.target_block_rate, n_nodes))
    return adjust_threshold(h_q, observed, params.target_block_rate, h_max=h_max)


def simulate_chain(
    params: ConsensusParams,
    horizon_heights: int,
    nodes: list[ValidatorNode] | None = None,
    link: LinkModel | None = None,
    seed: int = 0,
    mode: str = "bernoulli",
    kms: KmsReplica | None = None,
    byz_strategy: str = "equivocate",
    max_depth: int = 80,
) -> tuple[ChainTrace, ChainMetrics]:
    """Simulate ``horizon_heights`` block heights and compute the metrics.

    ``bernoulli`` draws the outcome sequence directly from the noise
    abstraction; ``network`` runs elections, gossip, and voting through
    the event-driven fabric.
    """
    if horizon_heights < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "bernoulli":
        trace = _simulate_bernoulli(params, horizon_heights, seed)
    elif mode == "network":
        if nodes is None:
            nodes = make_validators(20, params.alpha, seed)
        trace = _simulate_network(
            params,
            horizon_heights,
            nodes,
            link or LinkModel(),
            seed,
            kms=kms,
            byz_strategy=byz_strategy,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    metrics = chain_metrics(trace, params, max_depth=max_depth)
    return trace, metrics
