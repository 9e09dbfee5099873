"""Probabilistic-finality consensus: VRF leader election, weighted voting,
and the concentration-bound analytics that certify it.

Each height draws an election seed by hashing the previous block header
with a 128-bit salt rented from the key service; every validator evaluates
its VRF on the seed and leads when its normalized output falls below the
threshold h_q. Multiple leaders race and the lowest output wins; no leader
means an empty slot. A block confirms when at least 2/3 of the total
validator weight has signed it.

The VRF is simulation grade: ``vrf_output`` is a keyed hash of (secret,
seed) and produces no proof. No message carries an output to other
validators, so nothing verifies one; proof checking belongs with a network
mode that sends messages.

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
Monte Carlo ensembles), and a network mode that runs real VRF elections,
with the KMS round trip and the gossip legs drawn from the link model.
Network mode has one salt source: every salt is rented from the
``KmsReplica`` it is given, and a height whose rental fails is an empty
slot. Its one Byzantine behaviour is equivocation (a Byzantine leader's
height is a fork, and Byzantine validators withhold their votes). Network
mode sends no messages: it samples the delays a message exchange would
take.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .netsim import DEFAULT_PROCESSING_MS, LinkModel
from .qkms import InsufficientEntropy, KmsReplica
from .rng import draw_bytes, substream

__all__ = [
    "ValidatorNode",
    "ConsensusParams",
    "ChainTrace",
    "ChainMetrics",
    "vrf_output",
    "election_seed",
    "elect_leader",
    "adjust_threshold",
    "confirm_threshold_met",
    "finality_depth",
    "fork_tail_bound",
    "chain_growth_bound",
    "fork_persistence_tail",
    "cp_violation_fraction",
    "growth_violation_fraction",
    "finality_depths",
    "simulate_chain",
    "DEFAULT_BLOCK_INTERVAL_MS",
]

DEFAULT_BLOCK_INTERVAL_MS = 65.0
SLOT_MS = 100   # consensus slot
CONFIRM_WEIGHT = 2.0 / 3.0
KMS_LINK = LinkModel(d0_ms=5.0, jitter_max_ms=5.0)   # validator to key service


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
        if type(self.security_bits) is not int or self.security_bits < 1:
            raise ValueError("security_bits must be an integer >= 1")
        # bool is an int subclass; NaN fails the comparison
        interval = self.block_interval_ms
        if (isinstance(interval, bool) or not isinstance(interval, (int, float))
                or not 0 < interval < math.inf):
            raise ValueError("block_interval_ms must be a finite number > 0")


# ---------------------------------------------------------------------------
# VRF (simulation grade)
# ---------------------------------------------------------------------------


def vrf_output(secret: bytes, seed: bytes) -> bytes:
    """The keyed hash standing in for a VRF output: sha256("vrf/out" || secret || seed)."""
    return hashlib.sha256(b"vrf/out" + secret + seed).digest()


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
        y = vrf_unit(vrf_output(node.vrf_secret, seed))
        if y < h_q:
            leaders.append((node, y))
    leaders.sort(key=lambda pair: pair[1])
    return leaders


def adjust_threshold(
    h_q: float, observed_rate: float, target_rate: float, h_max: float = 1.0
) -> float:
    """Multiplicative threshold controller toward the target block rate.

    The result is clipped to [1e-6, h_max]; an observed rate below 1e-6
    counts as 1e-6.
    """
    if not 0.0 < target_rate <= 1.0:
        raise ValueError("target_rate must lie in (0, 1]")
    if not 0.0 <= observed_rate <= 1.0:
        raise ValueError("observed_rate must lie in [0, 1]")
    return float(np.clip(h_q * target_rate / max(observed_rate, 1e-6), 1e-6, h_max))


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

    def __post_init__(self):
        raw = np.asarray(self.outcomes)
        outcomes = raw.astype(np.int8, copy=False)
        # check the values themselves: the int8 cast alone would turn 255
        # into -1 and 0.5 into 0
        if outcomes.size and not (
            (outcomes == raw).all() and -1 <= outcomes.min() and outcomes.max() <= 1
        ):
            raise ValueError("outcomes must be -1, 0, or +1")
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


def fork_persistence_tail(outcomes: np.ndarray, max_depth: int) -> np.ndarray:
    """Per-depth frequency of forks persisting unresolved for t heights.

    Under quorum confirmation a fork stays alive only while adversarial
    heights continue back to back: the first honest confirmation (or empty
    slot falling back to the canonical branch) settles the race. The
    frequency at depth t is the fraction of heights that open an
    uninterrupted adversarial streak of length at least t.

    It is counted from the maximal runs of forks. A run of L forks opens
    streaks L, L - 1, ..., 1, so L - t + 1 of its heights open a streak of
    at least t (none when L < t). With N(t) the number of runs with L >= t
    and W(t) the sum of their lengths, W(t) - (t - 1) N(t) heights do;
    both are suffix sums over one histogram of the run lengths.
    """
    n = len(outcomes)
    fork = np.zeros(n + 2, dtype=bool)
    np.equal(outcomes, -1, out=fork[1:-1])
    # a run starts and ends where the padded fork mask flips
    edges = np.flatnonzero(fork[1:] != fork[:-1])
    runs = np.bincount(edges[1::2] - edges[::2], minlength=max_depth + 1)
    length = np.arange(len(runs))
    n_runs = np.cumsum(runs[::-1])[::-1]
    covered = np.cumsum((runs * length)[::-1])[::-1]
    count = covered[1 : max_depth + 1] - length[:max_depth] * n_runs[1 : max_depth + 1]
    return count / float(n)


def cp_violation_fraction(outcomes: np.ndarray, max_depth: int) -> np.ndarray:
    """Fraction of heights at which the depth-k prefix is still contested.

    The block k confirmations deep stays contestable only while an
    adversarial streak has outlasted those k confirmations, i.e. a streak
    of length at least k + 1 is running: the fork tail shifted by one.
    """
    # chain_metrics slices its one tail instead; this stays as the named
    # common-prefix series, which perfbench/layers.py traces and a test checks
    return fork_persistence_tail(outcomes, max_depth + 1)[1:]


def growth_violation_fraction(
    outcomes: np.ndarray,
    epsilon: float,
    alpha: float,
    beta: float,
    max_depth: int,
) -> np.ndarray:
    """Fraction of length-t windows growing slower than (1-eps)(1-alpha)(1-beta) t.

    Window counts grow in place with t, in the narrowest type holding ``max_depth``.
    """
    n = len(outcomes)
    x = (outcomes == 1).astype(np.min_scalar_type(max_depth))
    grown = np.zeros(n, dtype=x.dtype)
    below = np.empty(n, dtype=bool)
    rate = (1.0 - epsilon) * (1.0 - alpha) * (1.0 - beta)
    out = np.zeros(max_depth)
    for t in range(1, min(max_depth, n) + 1):
        m = n - t + 1
        grown[:m] += x[t - 1 :]
        # the counts are integers, so compare against the integer threshold
        np.less_equal(grown[:m], math.floor(rate * t + 1e-12), out=below[:m])
        out[t - 1] = np.count_nonzero(below[:m]) / m
    return out


def finality_depths(outcomes: np.ndarray, max_depth: int = 200) -> np.ndarray:
    """Observed finality depth per confirmed block.

    A block confirmed at height h is final once the net outcome sum of the
    heights after it reaches +1 (the honest chain has built a full block of
    lead on top of it); the depth is the number of heights that takes.
    Blocks confirmed at the last ``max_depth`` heights, too close to the
    end of the trace to resolve, are skipped, as are blocks whose depth
    would exceed ``max_depth``.

    A block whose next height confirms has depth 1. The others advance
    together one height per round: the block at h is final at the least d
    with outcomes[h + 1] + ... + outcomes[h + d] >= 1, its lead. Each round
    adds one height to every open block's lead, retires the blocks whose
    lead reached 1 and gathers the rest, so a round costs only the blocks
    still open, and at most ``max_depth - 1`` rounds run.
    """
    outcomes = np.asarray(outcomes, dtype=np.int8)
    if max_depth < 1:
        return np.zeros(0, dtype=np.int64)
    m = max(len(outcomes) - max_depth, 0)
    block = outcomes[:m] == 1
    sealed = block & (outcomes[1 : m + 1] == 1)
    # depth per height, 0 until a block there resolves
    depth = sealed.astype(np.min_scalar_type(max_depth))
    # in round d an open block h reads height h + d; its lead lies in [-d, 1]
    at = np.flatnonzero(block ^ sealed) + 1
    lead = outcomes.take(at).astype(np.min_scalar_type(-max_depth))
    for d in range(2, max_depth + 1):
        if not len(at):
            break
        at += 1
        lead += outcomes.take(at)
        depth[at.take(np.flatnonzero(lead > 0)) - d] = d
        # compact by gathering: cheaper than a boolean mask per array
        open_ = np.flatnonzero(lead <= 0)
        at = at.take(open_)
        lead = lead.take(open_)
    return depth.take(np.flatnonzero(depth)).astype(np.int64)


@dataclass(frozen=True)
class ChainMetrics:
    """Empirical frequencies paired with their closed-form bounds per depth.

    The fork tail is held once, at depths 1 ... max_depth + 1: its ``[:-1]``
    is the fork-survival series and its ``[1:]`` the common-prefix series
    (see cp_violation_fraction), and both pair with the one bound array.
    """

    depths: np.ndarray
    fork_tail_empirical: np.ndarray
    fork_tail_bounds: np.ndarray
    growth_empirical: np.ndarray
    growth_bounds: np.ndarray
    finality_histogram: np.ndarray   # counts indexed by depth-1

    def dominated(self) -> bool:
        """True when every empirical frequency sits at or below its bound."""
        tail, bound = self.fork_tail_empirical, self.fork_tail_bounds
        return bool(
            (tail[:-1] <= bound).all()
            and (tail[1:] <= bound).all()
            and (self.growth_empirical <= self.growth_bounds).all()
        )


def chain_metrics(trace: ChainTrace, params: ConsensusParams, max_depth: int = 80) -> ChainMetrics:
    depths = np.arange(1, max_depth + 1)
    tail = fork_persistence_tail(trace.outcomes, max_depth + 1)
    growth_emp = growth_violation_fraction(
        trace.outcomes, params.epsilon_growth, params.alpha, params.beta, max_depth
    )
    fork_b = np.array([fork_tail_bound(params.alpha, t) for t in depths])
    growth_b = np.array(
        [chain_growth_bound(params.alpha, params.beta, params.epsilon_growth, t) for t in depths]
    )
    # finality depths lie in [1, max_depth]
    hist = np.bincount(finality_depths(trace.outcomes, max_depth), minlength=max_depth + 1)[1:]
    return ChainMetrics(
        depths=depths,
        fork_tail_empirical=tail,
        fork_tail_bounds=fork_b,
        growth_empirical=growth_emp,
        growth_bounds=growth_b,
        finality_histogram=hist,
    )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def byzantine_count(n: int, alpha: float) -> int:
    """round(alpha n) of n equal-weight validators, below a third of them.

    Raises ValueError where that count holds 1/3 of the weight or more: the
    honest weight then never reaches the 2/3 quorum.
    """
    k = int(round(alpha * n))
    if 3 * k >= n:
        raise ValueError(f"alpha {alpha} makes {k} of {n} validators Byzantine,"
                         " at least 1/3 of the weight")
    return k


def make_validators(n: int, alpha: float, seed: int) -> list[ValidatorNode]:
    """Equal-weight validator set with ``byzantine_count(n, alpha)`` Byzantine."""
    byz_count = byzantine_count(n, alpha)
    rng = substream(seed, "vrf", "keys")
    nodes = []
    for i in range(n):
        nodes.append(
            ValidatorNode(
                node_id=f"v{i}",
                vrf_secret=draw_bytes(rng, 32),
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
    # the draw of rng.choice([1, -1, 0], horizon, p=...): the same CDF and
    # uniforms, and the same index as its searchsorted(u, side="right"),
    # which is 0 below cdf[0], 1 below cdf[1] and 2 above; the outcome is
    # 2 [u < cdf[0]] - [u < cdf[1]], since cdf[0] <= cdf[1]
    # (test_bernoulli_draw_matches_choice checks it byte for byte)
    cdf = np.array([p_confirm, p_fork, p_empty]).cumsum()
    cdf /= cdf[-1]
    u = rng.random(horizon)
    outcomes = np.less(u, cdf[0]).view(np.int8)
    outcomes += outcomes
    outcomes -= np.less(u, cdf[1]).view(np.int8)
    return ChainTrace(outcomes=outcomes, block_interval_ms=params.block_interval_ms)


def _simulate_network(
    params: ConsensusParams,
    horizon: int,
    nodes: list[ValidatorNode],
    link: LinkModel,
    seed: int,
    kms: KmsReplica,
) -> ChainTrace:
    """Per-height VRF election, salt rental, and weighted voting.

    Each height elects its leaders with the real VRF on a seed salted
    from ``kms``; a height whose rental fails is an empty slot. No message
    is sent: the KMS round trip over ``KMS_LINK`` and the three broadcast
    legs (proposal, vote, commit) over ``link`` are drawn from the link
    model, and the honest weight is the vote. A block confirms when that
    weight reaches 2/3 and the legs end within four slots; otherwise the
    height is a fork and time moves to the next slot.

    Byzantine validators equivocate: a Byzantine leader sends conflicting
    blocks to two halves of the network, so its height is a fork, and no
    Byzantine validator votes.
    """
    total_weight = sum(n.weight for n in nodes)
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError("validator weights must be normalized")
    delay_rng = substream(seed, "net")
    gossip_fanout = min(len(nodes), 16)

    def broadcast_time() -> float:
        # slowest of the sampled one-way deliveries, plus processing
        return float(link.one_way(delay_rng, gossip_fanout).max()) + DEFAULT_PROCESSING_MS

    h_q = _threshold_for_rate(params.target_block_rate, len(nodes))
    h_max = min(1.0, 4.0 * h_q)
    # honest validators vote; Byzantine weight is withheld
    quorum = confirm_threshold_met(sum(n.weight for n in nodes if not n.byzantine))
    prev_hash = hashlib.sha256(b"genesis").digest()
    outcomes = np.zeros(horizon, dtype=np.int8)
    intervals = np.zeros(horizon)
    produced = 0   # heights with a leader in the current 100-height window

    t = 0.0
    for height in range(horizon):
        t_height = t
        try:
            salt = kms.rent(128, int(t)).key_bits[:16]
        except InsufficientEntropy:
            salt = None   # no salt, no election: an empty slot
        if salt is not None:
            t += KMS_LINK.rtt(delay_rng) + 2 * DEFAULT_PROCESSING_MS
            seed_bytes = election_seed(prev_hash, salt)
            leaders = elect_leader(nodes, seed_bytes, h_q)
            produced += bool(leaders)
            if leaders:
                leader = leaders[0][0]
                proposal_delay = broadcast_time()   # drawn for every leader
                # conflicting equivocated blocks split the honest vote, so
                # neither side reaches 2/3: the height stays a fork
                outcomes[height] = -1
                if not leader.byzantine:
                    done = t + proposal_delay + broadcast_time() + broadcast_time()  # vote, commit
                    if quorum and done <= t_height + 4 * SLOT_MS:
                        outcomes[height] = 1
                        t = done
                        prev_hash = hashlib.sha256(prev_hash + seed_bytes).digest()

        if outcomes[height] != 1:
            t = _next_slot(t)
        intervals[height] = t - t_height
        if (height + 1) % 100 == 0:
            h_q = adjust_threshold(h_q, produced / 100.0, params.target_block_rate, h_max=h_max)
            produced = 0

    return ChainTrace(outcomes=outcomes, block_interval_ms=float(np.mean(intervals)))


def _next_slot(t: float) -> float:
    return (math.floor(t / SLOT_MS) + 1) * SLOT_MS


def _threshold_for_rate(target_rate: float, n_nodes: int) -> float:
    """h_q such that P(at least one leader) matches the target block rate."""
    return 1.0 - (1.0 - target_rate) ** (1.0 / n_nodes)


def simulate_chain(
    params: ConsensusParams,
    horizon_heights: int,
    nodes: list[ValidatorNode] | None = None,
    link: LinkModel | None = None,
    seed: int = 0,
    mode: str = "bernoulli",
    kms: KmsReplica | None = None,
    max_depth: int = 80,
) -> tuple[ChainTrace, ChainMetrics]:
    """Simulate ``horizon_heights`` block heights and compute the metrics.

    ``bernoulli`` draws the outcome sequence directly from the noise
    abstraction and reads only ``seed``. ``network`` runs real VRF
    elections among ``nodes``, with link delays sampled from ``link`` and
    Byzantine leaders equivocating, and sends no messages (see
    ``_simulate_network``); its one salt source is ``kms``, from which
    every height rents its election salt. Network mode raises ValueError
    when ``nodes``, ``link`` or ``kms`` is missing.
    """
    if horizon_heights < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "bernoulli":
        trace = _simulate_bernoulli(params, horizon_heights, seed)
    elif mode == "network":
        if nodes is None or link is None or kms is None:
            raise ValueError("network mode needs the validators, the link and the key service")
        trace = _simulate_network(params, horizon_heights, nodes, link, seed, kms)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    metrics = chain_metrics(trace, params, max_depth=max_depth)
    return trace, metrics
