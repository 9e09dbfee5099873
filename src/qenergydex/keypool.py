"""Birth-death Markov chain analytics for the key pool.

The pool holds up to M units; replenishment is a Poisson birth process at
rate mu (no births at capacity) and consumption a Poisson death process at
rate lambda*k (no deaths when empty). The load factor is rho = lambda*k/mu.

For rho < 1 replenishment outpaces consumption and the stationary mass
concentrates near the full state:

    pi_s = rho^(M-s) (1 - rho) / (1 - rho^(M+1)),  s = 0..M

so the empty-pool probability pi_0 = rho^M (1 - rho) / (1 - rho^(M+1))
decays geometrically in M. The widely quoted geometric form pi_s
proportional to rho^s (mass at the EMPTY state for rho < 1) contradicts
the local balance recursion pi_s * lambda*k = pi_(s-1) * mu that defines
this chain.

The Monte Carlo check ``simulate_pool`` runs the chain uniformized at the
constant rate mu + lambda*k (Jensen 1953), several chains on one draw of
uniforms, and counts the events that start in each state; clamp maps
compose into clamp maps, so each chunk of events is one scan in numpy. The
empty share has an exact noise law (``empty_share_law``; Kemeny & Snell,
*Finite Markov Chains*, 1960, ch. 4) and a batch-means interval (Asmussen &
Glynn, *Stochastic Simulation*, 2007, ch. IV). A run with no empty visit,
such as rho = 0.9 at M = 200 where pi_0 is about 7e-11, has the interval
[0, 0]; its check rests on the law.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .rng import substream

__all__ = [
    "BirthDeathParams",
    "StationaryDistribution",
    "stationary_distribution",
    "stationary_oracle",
    "min_capacity",
    "exact_min_capacity",
    "empty_share_law",
    "simulate_pool",
    "PoolSimResult",
]


@dataclass(frozen=True)
class BirthDeathParams:
    """Chain rates: mu births/s, lambda arrivals/s consuming k units each."""

    mu: float
    lam: float
    k: float
    capacity: int

    def __post_init__(self):
        # NaN fails the comparison
        if not all(0 < r < math.inf for r in (self.mu, self.lam, self.k)):
            raise ValueError("all rates must be finite and positive")
        M = self.capacity
        if isinstance(M, bool) or not (isinstance(M, Integral) and M >= 1):
            raise ValueError(f"capacity must be an integer >= 1, got {self.capacity!r}")

    @property
    def rho(self) -> float:
        """Load factor: consumption-to-replenishment ratio."""
        return self.lam * self.k / self.mu

    @classmethod
    def from_rho(cls, rho: float, capacity: int, mu: float = 1.0) -> "BirthDeathParams":
        """Convenience constructor fixing mu and deriving the death rate."""
        if not rho > 0:
            raise ValueError("rho must be positive")
        return cls(mu=mu, lam=rho * mu, k=1.0, capacity=capacity)


@dataclass(frozen=True)
class StationaryDistribution:
    """Probabilities pi_s for s = 0..M; sums to 1."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if not pi.min() >= 0:
            raise ValueError("probabilities must be non-negative")
        if not abs(pi.sum() - 1.0) <= 1e-9:
            raise ValueError("distribution must sum to 1")

    @property
    def empty_probability(self) -> float:
        return float(self.pi[0])

    def __len__(self) -> int:
        return len(self.pi)


def stationary_distribution(p: BirthDeathParams) -> StationaryDistribution:
    """Closed-form stationary distribution of the finite pool chain.

    pi_s is proportional to rho^(M-s), so for rho < 1 the mass sits near
    the full state. rho == 1 uses the uniform limit 1/(M+1).
    """
    M = p.capacity
    rho = p.rho
    s = np.arange(M + 1, dtype=float)
    if abs(rho - 1.0) < 1e-14:
        pi = np.full(M + 1, 1.0 / (M + 1))
        return StationaryDistribution(pi=pi)
    # work in logs: rho^M underflows for large M at small rho
    logw = (M - s) * math.log(rho)
    logw -= logw.max()
    w = np.exp(logw)
    pi = w / w.sum()
    return StationaryDistribution(pi=pi)


def stationary_oracle(p: BirthDeathParams) -> StationaryDistribution:
    """Stationary distribution from the balance equations directly.

    Runs the tridiagonal forward recursion pi_s * (lambda k) = pi_(s-1) * mu
    in log space and normalizes numerically (log-sum-exp); makes no use of
    the closed-form normalizer.
    """
    M = p.capacity
    if M > 10 ** 5:
        raise ValueError("oracle capped at capacity 1e5")
    step = math.log(p.mu) - math.log(p.lam * p.k)
    logpi = np.arange(M + 1, dtype=float) * step
    logpi -= logpi.max()
    w = np.exp(logpi)
    return StationaryDistribution(pi=w / w.sum())


def min_capacity(rho: float, target_pi0: float) -> int:
    """Capacity lower bound ceil( ln(1/target) / ln(1/rho) - 1 ).

    Valid for rho < 1 only; at or above 1 the pool has no finite capacity
    meeting an empty-pool target (the chain drains almost surely).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not 0.0 < target_pi0 < 1.0:
        raise ValueError("target_pi0 must lie in (0, 1)")
    return math.ceil(math.log(1.0 / target_pi0) / math.log(1.0 / rho) - 1.0)


def _log_pi0(rho: float, M: int) -> float:
    # log pi_0 = M log rho + log(1-rho) - log(1 - rho^(M+1)), stable for rho<1
    return (
        M * math.log(rho)
        + math.log(1.0 - rho)
        - math.log1p(-math.exp((M + 1) * math.log(rho)))
    )


def exact_min_capacity(rho: float, target_pi0: float) -> int:
    """Smallest M with closed-form pi_0(M) <= target, found by bisection."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if not 0.0 < target_pi0 < 1.0:
        raise ValueError("target_pi0 must lie in (0, 1)")
    log_target = math.log(target_pi0)
    lo, hi = 1, 2
    while _log_pi0(rho, hi) > log_target:
        hi *= 2
        if hi > 10 ** 9:
            raise ValueError("target unreachable at this rho")
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_pi0(rho, mid) <= log_target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def empty_share_law(p: BirthDeathParams, n: int) -> tuple[float, float, float]:
    """(pi_0, bias, sigma/sqrt(n)): to first order, the mean pi_0 + bias and
    the SD of the empty share of n events from the full state.

    With b = lambda*k / (mu + lambda*k) and pi(>=j) the stationary tail, the
    mean first passage from i to 0 has pi_0 m_i0 = sum_{j<=i} rho^j pi(>=j) / b.
    With S = sum_i pi_i pi_0 m_i0 the fundamental matrix has Z_00 = pi_0 + S
    and Z_M0 = Z_00 - pi_0 m_M0 (Kemeny & Snell 1960, ch. 4), so sigma^2 =
    2 pi_0 S - pi_0 (1 - pi_0) and the bias is (S - pi_0 m_M0) / n, summed from
    terms of one sign. rho^j pi(>=j) is formed from logs, as rho^j overflows
    above rho = 1 and pi(>=j) underflows. O(M).
    """
    M = p.capacity
    b = p.lam * p.k / (p.mu + p.lam * p.k)
    pi = stationary_distribution(p).pi
    log_rho = math.log(p.rho)
    # the log of the sum over s >= j of the weights rho^(M-s), j = 0..M
    tail = np.logaddexp.accumulate(np.arange(M + 1) * log_rho)[::-1]
    x = np.exp(np.arange(1, M + 1) * log_rho + tail[1:] - tail[0]) / b   # rho^j pi(>=j) / b
    S = float(pi[1:] @ np.cumsum(x))
    bias = -float(pi[:-1] @ np.cumsum(x[::-1])[::-1]) / n
    return float(pi[0]), bias, math.sqrt(pi[0] * (2.0 * S - 1.0 + pi[0]) / n)


@dataclass(frozen=True)
class PoolSimResult:
    """Monte Carlo outcome of one chain: visit shares and empty-state stats."""

    empty_fraction: float       # visits[0]
    visits: np.ndarray          # share of events spent in each state, sums to 1
    batch_empties: np.ndarray   # events that start empty in each of the _BATCHES batches
    batch_ci: tuple[float, float]   # batch-means 95% t interval around empty_fraction


# events per chunk: direction uniforms are drawn, scanned and tallied this many at a time
_BLOCK = 65_536
_BATCHES = 20       # equal event batches of the batch-means interval
_T95 = 2.093024     # Student's t at 0.975 for _BATCHES - 1 = 19 degrees of freedom
# longest row of steps in _clamped_walk (rows are at most the capacity)
_SCAN_COLS = 256


def _clamped_walk(x0: int, steps: np.ndarray, M: int) -> np.ndarray:
    """Path of x -> min(M, max(0, x + a)) over ±1 ``steps``, from ``x0``.

    Returns n + 1 states: ``x0`` and the state after each step. Clamp maps
    compose into clamp maps, f(x) = min(f(M), max(f(0), x + A)) with A the sum
    of the steps. In rows of L = min(_SCAN_COLS, M) steps the walks from 0 and
    from M cannot reach the far barrier (that takes M + 1 steps), so with S_j
    the row's prefix sums they have Lindley's one-barrier forms (Lindley 1952)
    lo_j = S_j - min(0, min_{k<=j} S_k), hi_j = M + S_j - max(0, max_{k<=j} S_k).
    A scalar pass composes the row maps into each row's start x; the state
    after j steps is min(hi_j, max(lo_j, x + S_j)), and as x is in [0, M] the
    0 terms cannot change it, so they are left out. The pass takes n / L
    iterations: a run at M = 1 takes about fifteen times as long as at M = 200.
    """
    n = len(steps)
    L = min(_SCAN_COLS, M)
    rows = -(-n // L)
    s = np.zeros((rows, L), dtype=np.int32)
    s.reshape(-1)[:n] = steps   # padding steps of 0 are identity maps
    np.cumsum(s, axis=1, dtype=np.int32, out=s)
    lo = s - np.minimum.accumulate(s, axis=1)
    hi = (s + M) - np.maximum.accumulate(s, axis=1)
    starts = []
    x = x0
    for A, lo_end, hi_end in zip(s[:, -1].tolist(), lo[:, -1].tolist(), hi[:, -1].tolist()):
        starts.append(x)
        x = min(hi_end, max(lo_end, x + A))
    s += np.asarray(starts, dtype=np.int32)[:, None]
    np.maximum(s, lo, out=s)
    np.minimum(s, hi, out=s)
    return np.concatenate(([x0], s.reshape(-1)[:n]))


def simulate_pool(
    chains: Sequence[BirthDeathParams],
    seed: int = 0,
    max_events: int = 1_000_000,
) -> list[PoolSimResult]:
    """Continuous-time simulation of pool chains, uniformized, on one draw.

    Each chain runs at the constant rate mu + lambda*k: each event steps +1
    with probability mu / (mu + lambda*k), else -1, clamped to [0, M]. A
    step that the clamp cancels (a birth at capacity, a death when empty)
    is a self-loop; it counts towards ``max_events`` like any other event,
    and it leaves the stationary distribution unchanged (Jensen 1953).
    ``visits[s]`` is the share of the events that start in state s: given
    the path, the mean time-weighted occupancy, as the holding times are
    i.i.d. Exp(mu + lambda*k) (conditional Monte Carlo, Asmussen & Glynn
    2007, ch. V).

    One draw drives every chain (common random numbers): event i of each
    chain reads the same direction uniform, so each chain's result equals
    that of a call for it alone, whatever the other chains. Returns one
    result per chain, in order.

    Each walk starts full, at state M. Events run in chunks of ``_BLOCK``:
    a chunk's direction uniforms are drawn once, and then each chain in
    turn steps through the chunk (the ±1 steps as int8, the states from a
    row scan of the clamp maps, ``_clamped_walk``) and tallies its visits
    with ``bincount``, carrying its state to the next chunk. So memory is
    O(block) whatever ``max_events``, with one chain's path held at a time.

    Batch k of the n events starts at event k n // _BATCHES, so n must be at
    least ``_BATCHES``; each chunk's ``bincount`` is split at the batch edges
    in it. ``batch_ci`` is the empty share plus or minus ``_T95`` standard
    errors of the batches' empty shares, within [0, 1] (batch means, Asmussen
    & Glynn 2007, ch. IV): [0, 0] if no event starts empty.
    """
    if max_events < _BATCHES:
        raise ValueError(f"max_events must be >= {_BATCHES}, one event per batch")
    rng = substream(seed, "keypool")
    up = [p.mu / (p.mu + p.lam * p.k) for p in chains]
    states = [p.capacity for p in chains]
    counts = [np.zeros(p.capacity + 1, dtype=np.int64) for p in chains]
    empties = [np.zeros(_BATCHES, dtype=np.int64) for _ in chains]
    edges = np.arange(_BATCHES + 1) * max_events // _BATCHES

    for events in range(0, max_events, _BLOCK):
        n = min(_BLOCK, max_events - events)
        u_dir = rng.random(n)
        # the batches that meet the chunk, each as (batch, start, stop) in it
        cuts = np.clip(edges - events, 0, n).tolist()
        pieces = [(k, lo, hi) for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi]
        for c, p in enumerate(chains):
            path = _clamped_walk(states[c], (u_dir < up[c]).view(np.int8) * 2 - 1, p.capacity)
            for k, lo, hi in pieces:
                seen = np.bincount(path[lo:hi], minlength=len(counts[c]))
                counts[c] += seen
                empties[c][k] += seen[0]
            states[c] = int(path[n])

    results = []
    for visited, batched in zip(counts, empties):
        visits = visited / max_events
        share = float(visits[0])
        half = _T95 * float(np.std(batched / np.diff(edges), ddof=1)) / math.sqrt(_BATCHES)
        results.append(PoolSimResult(share, visits, batched, (max(0.0, share - half), min(1.0, share + half))))
    return results
