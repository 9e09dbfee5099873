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
constant rate mu + lambda*k (Jensen 1953): each event steps the pool by +1
or -1, clamped to [0, M]. A clamped step (a birth at capacity, a death when
empty) is a self-loop. Self-loops count as events, and they leave the
stationary distribution unchanged. The holding times are i.i.d. and
independent of the path, so the share of events spent in a state is the
conditional mean, given the path, of the time-weighted occupancy
(conditional Monte Carlo); no holding time is drawn. Clamp maps compose
into clamp maps, so each chunk of events is computed by a scan in numpy
rather than one event at a time. The run splits into equal-event-count
epochs for the Wilson interval, and memory stays O(block) whatever the
event count. One call runs several chains (say, one per load factor) on
one draw of uniforms, as common random numbers: each chain's result is
the one it would get alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .rng import substream
from .stats import wilson_interval

__all__ = [
    "BirthDeathParams",
    "StationaryDistribution",
    "stationary_distribution",
    "stationary_oracle",
    "min_capacity",
    "exact_min_capacity",
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


@dataclass(frozen=True)
class PoolSimResult:
    """Monte Carlo outcome: occupancy and empty-state stats. The share of
    visits is, given the path, the conditional mean of the time-weighted
    occupancy: the uniformized chain's holding times are i.i.d. and
    independent of the path."""

    empty_fraction: float       # visits[0]
    visits: np.ndarray          # share of events spent in each state, sums to 1
    wilson_ci: tuple[float, float]


# events per chunk: direction uniforms are drawn, scanned and tallied this many at a time
_BLOCK = 65_536
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
    n_epochs: int = 10_000,
) -> list[PoolSimResult]:
    """Continuous-time simulation of pool chains, uniformized, on one draw.

    Each chain runs at the constant rate mu + lambda*k: each event steps +1
    with probability mu / (mu + lambda*k), else -1, clamped to [0, M]. A
    step that the clamp cancels (a birth at capacity, a death when empty)
    is a self-loop; it counts towards ``max_events`` like any other event,
    and it leaves the stationary distribution unchanged (Jensen 1953).
    ``visits[s]`` is the share of the events that start in state s. The
    holding times are i.i.d. Exp(mu + lambda*k) and independent of the
    path, so this share is the conditional mean, given the path, of the
    time-weighted occupancy (conditional Monte Carlo, Asmussen & Glynn
    2007, ch. V); no holding time is drawn.

    One draw drives every chain (common random numbers): event i of each
    chain reads the same direction uniform, so each chain's result equals
    that of a call for it alone, whatever the other chains. Returns one
    result per chain, in order.

    Each walk starts full, at state M. Events run in chunks of ``_BLOCK``:
    a chunk's direction uniforms are drawn once, and then each chain in
    turn steps through the chunk (the ±1 steps as int8, the states from a
    row scan of the clamp maps, ``_clamped_walk``) and tallies its visits
    with one ``bincount``, carrying its state to the next chunk. So memory
    is O(block) whatever ``max_events``, with one chain's path held at a
    time. The Wilson 95% interval is computed over per-epoch empty
    indicators: the run splits into ``n_epochs`` equal-event-count epochs
    and each contributes the state observed at its boundary.
    """
    if max_events < 1:
        raise ValueError("max_events must be >= 1")
    rng = substream(seed, "keypool")
    up = [p.mu / (p.mu + p.lam * p.k) for p in chains]
    states = [p.capacity for p in chains]
    counts = [np.zeros(p.capacity + 1, dtype=np.int64) for p in chains]
    empties = [0] * len(chains)
    epoch_stride = max(1, max_events // max(1, n_epochs))

    for events in range(0, max_events, _BLOCK):
        n = min(_BLOCK, max_events - events)
        u_dir = rng.random(n)
        # step i of the chunk is event events + i + 1 of the run; an epoch
        # ends at each event number that is a multiple of the stride
        first = (-(events + 1)) % epoch_stride
        for c, p in enumerate(chains):
            path = _clamped_walk(states[c], (u_dir < up[c]).view(np.int8) * 2 - 1, p.capacity)
            counts[c] += np.bincount(path[:n], minlength=len(counts[c]))
            empties[c] += int(np.count_nonzero(path[first + 1 :: epoch_stride] == 0))
            states[c] = int(path[n])

    # the stride is at most max_events, so the run sees at least one epoch
    epoch_count = max_events // epoch_stride
    results = []
    for visited, k in zip(counts, empties):
        visits = visited / max_events
        results.append(PoolSimResult(float(visits[0]), visits, wilson_interval(k, epoch_count)))
    return results
