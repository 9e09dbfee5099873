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
this chain; it is kept available behind ``as_printed=True`` purely for
comparison.

The Monte Carlo check ``simulate_pool`` runs the chain uniformized at the
constant rate mu + lambda*k (Jensen 1953): holding times are i.i.d.
exponential, and each event steps the pool by +1 or -1, clamped to
[0, M]. A clamped step (a birth at capacity, a death when empty) is a
self-loop. Self-loops count as events, and they leave the stationary
distribution unchanged. Every step is a clamp map, and clamp maps compose
into clamp maps, so each chunk of events is computed by a scan in numpy
rather than one event at a time. The run splits into equal-event-count
epochs for the Wilson interval, and memory stays O(block) whatever the
event count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.mu <= 0 or self.lam <= 0 or self.k <= 0:
            raise ValueError("all rates must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    @property
    def rho(self) -> float:
        """Load factor: consumption-to-replenishment ratio."""
        return self.lam * self.k / self.mu

    @classmethod
    def from_rho(cls, rho: float, capacity: int, mu: float = 1.0) -> "BirthDeathParams":
        """Convenience constructor fixing mu and deriving the death rate."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        return cls(mu=mu, lam=rho * mu, k=1.0, capacity=capacity)


@dataclass(frozen=True)
class StationaryDistribution:
    """Probabilities pi_s for s = 0..M; sums to 1."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("distribution must sum to 1")

    @property
    def empty_probability(self) -> float:
        return float(self.pi[0])

    def __len__(self) -> int:
        return len(self.pi)


def stationary_distribution(
    p: BirthDeathParams, as_printed: bool = False
) -> StationaryDistribution:
    """Closed-form stationary distribution of the finite pool chain.

    Default orientation puts mass near the full state for rho < 1
    (pi_s proportional to rho^(M-s)); ``as_printed=True`` selects the
    mirrored geometric variant pi_s proportional to rho^s. rho == 1 uses
    the uniform limit 1/(M+1).
    """
    M = p.capacity
    rho = p.rho
    s = np.arange(M + 1, dtype=float)
    if abs(rho - 1.0) < 1e-14:
        pi = np.full(M + 1, 1.0 / (M + 1))
        return StationaryDistribution(pi=pi)
    exponent = s if as_printed else (M - s)
    # work in logs: rho^M underflows for large M at small rho
    logw = exponent * math.log(rho)
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
    """Monte Carlo outcome: time-weighted occupancy and empty-state stats."""

    empty_fraction: float
    visits: np.ndarray          # time-weighted occupancy per state, sums to 1
    wilson_ci: tuple[float, float]
    events: int
    horizon_s: float


# events per chunk: uniforms are drawn, scanned and tallied this many at a time
_BLOCK = 65_536
# steps per row of the blocked scan in _clamped_walk
_SCAN_COLS = 128


def _clamped_walk(x0: int, steps: np.ndarray, M: int) -> np.ndarray:
    """Path of x -> min(M, max(0, x + a)) over ``steps``, from ``x0``.

    Returns n + 1 states: ``x0`` and the state after each step. A
    composition of such clamp maps is again a clamp map on [0, M],
    f(x) = min(f(M), max(f(0), x + A)) with A the sum of the steps, so it
    is fixed by where it sends 0 and M. The steps are laid out in rows of
    ``_SCAN_COLS``; one sweep over the columns walks every row from 0 and
    from M at once, a short scalar pass composes the row maps to find each
    row's start, and the state after j steps of a row that starts at x is
    min(hi_j, max(lo_j, x + A_j)) with lo_j, hi_j the two walks after j
    steps.
    """
    n = len(steps)
    rows = -(-n // _SCAN_COLS)
    a = np.zeros(rows * _SCAN_COLS, dtype=np.int64)
    a[:n] = steps   # padding steps of 0 are identity maps
    a = a.reshape(rows, _SCAN_COLS).T.copy()   # a[j, r]: step j of row r
    ends = np.empty((_SCAN_COLS, 2, rows), dtype=np.int64)
    prev = np.zeros((2, rows), dtype=np.int64)
    prev[1] = M
    for j in range(_SCAN_COLS):
        cur = ends[j]
        np.add(prev, a[j], out=cur)
        np.minimum(cur, M, out=cur)
        np.maximum(cur, 0, out=cur)
        prev = cur
    np.cumsum(a, axis=0, out=a)
    starts = []
    x = x0
    for A, lo, hi in zip(a[-1].tolist(), prev[0].tolist(), prev[1].tolist()):
        starts.append(x)
        x = min(hi, max(lo, x + A))
    a += np.asarray(starts, dtype=np.int64)
    np.maximum(a, ends[:, 0], out=a)
    np.minimum(a, ends[:, 1], out=a)
    path = np.empty(n + 1, dtype=np.int64)
    path[0] = x0
    path[1:] = a.T.reshape(-1)[:n]
    return path


def simulate_pool(
    p: BirthDeathParams,
    horizon_s: float | None = None,
    seed: int = 0,
    max_events: int = 1_000_000,
    n_epochs: int = 10_000,
    initial_state: int | None = None,
) -> PoolSimResult:
    """Continuous-time simulation of the pool chain, uniformized.

    The chain runs at the constant rate mu + lambda*k: each event takes an
    exponential holding time at that rate and steps +1 with probability
    mu / (mu + lambda*k), else -1, clamped to [0, M]. A step that the
    clamp cancels (a birth at capacity, a death when empty) is a
    self-loop; it counts in ``events`` like any other event, and it leaves
    the stationary distribution unchanged (Jensen 1953).

    Events are processed in chunks of ``_BLOCK``, carrying the state and
    the clock from one chunk to the next, so memory is O(block) whatever
    ``max_events``. Within a chunk the states come from a blocked scan of
    the clamp maps (``_clamped_walk``) and the time-weighted occupancy from
    one weighted ``bincount``. ``empty_fraction`` is the time-weighted
    occupancy of state 0. The Wilson 95% interval is computed over
    per-epoch empty indicators: the run splits into ``n_epochs``
    equal-event-count epochs and each contributes the state observed at
    its boundary.

    Stops after ``max_events`` events or ``horizon_s`` simulated seconds,
    whichever comes first (horizon may be None for event-limited runs).
    The event that would cross the horizon is not counted; its state is
    credited the time left up to the horizon.
    """
    if horizon_s is not None and horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    rng = substream(seed, "keypool")
    M = p.capacity
    rate = p.mu + p.lam * p.k
    p_up = p.mu / rate
    state = M if initial_state is None else int(initial_state)
    if not 0 <= state <= M:
        raise ValueError("initial_state out of range")

    occupancy = np.zeros(M + 1)
    t = 0.0
    events = 0
    epoch_stride = max(1, max_events // max(1, n_epochs))
    epoch_empties = 0
    epoch_count = 0

    limit_t = math.inf if horizon_s is None else horizon_s
    while events < max_events and t < limit_t:
        # exponential holding times by inversion
        u_hold = rng.random(_BLOCK)
        u_dir = rng.random(_BLOCK)
        n = min(_BLOCK, max_events - events)
        dt = -np.log1p(-u_hold[:n]) / rate
        path = _clamped_walk(state, np.where(u_dir[:n] < p_up, 1, -1), M)
        # clock after each event, summed in event order as a scalar loop would
        t_after = dt.copy()
        t_after[0] += t
        np.cumsum(t_after, out=t_after)
        # the events before the first one that ends past the horizon
        used = int(np.searchsorted(t_after, limit_t, side="right"))
        occupancy += np.bincount(path[:used], weights=dt[:used], minlength=M + 1)
        # step i of the chunk is event events + i + 1 of the run; an epoch
        # ends at each event number that is a multiple of the stride
        first = (-(events + 1)) % epoch_stride
        marks = path[first + 1 : used + 1 : epoch_stride]
        epoch_count += len(marks)
        epoch_empties += int(np.count_nonzero(marks == 0))
        events += used
        state = int(path[used])
        if used < n:
            occupancy[state] += limit_t - (t_after[used - 1] if used else t)
            t = limit_t
            break
        t = float(t_after[-1])

    total = occupancy.sum()
    if total <= 0:
        raise RuntimeError("simulation accumulated no time")
    visits = occupancy / total

    if epoch_count == 0:
        epoch_count = 1
        epoch_empties = 1 if state == 0 else 0
    ci = wilson_interval(epoch_empties, epoch_count)

    return PoolSimResult(
        empty_fraction=float(visits[0]),
        visits=visits,
        wilson_ci=ci,
        events=events,
        horizon_s=t,
    )
