"""Cloud key-management service: token-bucket pool, rent/retire/audit,
and the adaptive output-rate controller.

The pool is a token bucket: balance B accrues at the generation rate and
is spent by Rent(n) calls, clamped to [0, capacity]. ``full-stack`` sets
the rate to its trace's mean secure capacity (``secure_capacity_bps``),
the series the rate controller meters against. Rentals fail without side
effects when n exceeds the balance. An issued key is active until it is
retired, which happens at most once. Every rental, failed rental and
retirement is one ``KmsEvent`` in the replica's log; ``KmsReplica.tally``
counts the bits rented, the rentals and the failed rentals in it, over the
whole log or a window, for ``audit`` and the ``full-stack`` report.

A key identifier's top byte is the replica index, so two replicas with
different indices never issue the same identifier; two with the same
index and root seed draw the same identifiers and key bits.

The rate controller runs two emission strategies (arms) in one pass,
against one series of per-millisecond secure capacity given by the
leftover-hash length of the interval's raw bits:

- fixed: requests a constant rate regardless of channel state;
- rate-adaptive: follows the stochastic-approximation update
  R <- max(0.1 R_max, (1 - gamma_t q_t) R) with gamma_t = gamma_0 / t from
  R = R_max, and bounds each request by the capacity computed from the
  same QBER measurement, modelling a service that refuses to emit bits it
  cannot back with extractable entropy.

Requests above capacity count as cap-exceed time and the excess is
dropped: the adaptive request never exceeds capacity, so it is also the
arm's output, while the fixed arm pays for every channel excursion. A
further arm (a causal controller, or the same-interval clamp kept as its
oracle) is one more ``ArmResult`` on the same capacity series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .entropy import QberTrace, chi_square_miss_probability, secure_capacity_bps
from .rng import draw_bytes, substream

__all__ = [
    "KeyPoolState",
    "KeyRecord",
    "RateAdaptState",
    "AuditReport",
    "KmsEvent",
    "InsufficientEntropy",
    "UnknownKey",
    "AlreadyRetired",
    "step_bucket",
    "rate_adapt_step",
    "run_rate_controller",
    "RateControllerResult",
    "ArmResult",
    "KmsReplica",
]

RATE_FLOOR_FRACTION = 0.1


class InsufficientEntropy(RuntimeError):
    """Rental request larger than the current pool balance."""


class UnknownKey(KeyError):
    """Operation on a key identifier this service never issued."""


class AlreadyRetired(RuntimeError):
    """Retire called twice for the same key."""


@dataclass(frozen=True)
class KeyPoolState:
    """Token-bucket snapshot: balance, capacity, generation rate, clock."""

    balance_bits: int
    capacity_bits: int
    gen_rate_bps: float
    clock_ms: int = 0

    def __post_init__(self):
        if self.capacity_bits <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= self.balance_bits <= self.capacity_bits:
            raise ValueError("balance must lie in [0, capacity]")
        if not 0 <= self.gen_rate_bps < math.inf:
            raise ValueError("generation rate must be finite and non-negative")


def step_bucket(s: KeyPoolState, delta_ms: int) -> KeyPoolState:
    """Advance the bucket by ``delta_ms``: B' = min(M, B + floor(R_gen * delta)).

    Only accrual happens here; ``KmsReplica.rent`` spends bits, and only
    bits the balance holds.
    """
    if delta_ms <= 0:
        raise ValueError("delta_ms must be positive")
    replenished = math.floor(s.gen_rate_bps * delta_ms / 1000.0)
    balance = min(s.capacity_bits, s.balance_bits + replenished)
    return replace(s, balance_bits=balance, clock_ms=s.clock_ms + delta_ms)


@dataclass
class KeyRecord:
    """An issued key: identifier, bits, and lifecycle state."""

    key_id: str                 # 32 hex chars (128 bits)
    key_bits: bytes
    state: str = "active"       # active | retired


@dataclass(frozen=True)
class RateAdaptState:
    """Controller state: current rate, ceiling, initial gain, step counter."""

    r_t_bps: float
    r_max_bps: float
    gamma0: float = 0.5
    t: int = 1

    def __post_init__(self):
        if not 0.0 < self.gamma0 < 1.0:
            raise ValueError("gamma0 must lie in (0, 1)")
        if self.t < 1:
            raise ValueError("step counter starts at 1")
        lo = RATE_FLOOR_FRACTION * self.r_max_bps
        if not lo - 1e-9 <= self.r_t_bps <= self.r_max_bps + 1e-9:
            raise ValueError("rate must lie in [0.1 R_max, R_max]")


def rate_adapt_step(st: RateAdaptState, q_t: float) -> RateAdaptState:
    """One stochastic-approximation update with decaying gain gamma_0 / t."""
    if not 0.0 <= q_t < 1.0:
        raise ValueError("q_t must lie in [0, 1)")
    gamma_t = st.gamma0 / st.t
    r_next = max(RATE_FLOOR_FRACTION * st.r_max_bps, (1.0 - gamma_t * q_t) * st.r_t_bps)
    return replace(st, r_t_bps=r_next, t=st.t + 1)


# ---------------------------------------------------------------------------
# rate controller
# ---------------------------------------------------------------------------


class ArmResult(NamedTuple):
    """One emission strategy's output series and what the capacity cut."""

    output_bps: np.ndarray       # min(request, capacity) per interval
    cap_exceed_fraction: float   # share of intervals requesting above capacity
    total_dropped_bits: float    # bits requested above capacity, summed in time order


@dataclass(frozen=True)
class RateControllerResult:
    """Both arms over one trace, against one capacity series."""

    t_ms: np.ndarray
    capacity_bps: np.ndarray     # secure capacity of the interval
    state_bps: np.ndarray        # adaptive controller state
    fixed_target_bps: float
    adaptive: ArmResult          # request = output = min(state, capacity)
    fixed: ArmResult


def _excess(request, capacity: np.ndarray) -> tuple[float, float]:
    """Cap-exceed share and dropped bits (summed left to right) of ``request``."""
    dropped = np.subtract(request, capacity)
    np.maximum(0.0, dropped, out=dropped)
    dropped *= 1.0 / 1000.0
    return float(np.mean(request > capacity)), float(np.cumsum(dropped, out=dropped)[-1])


def run_rate_controller(
    trace: QberTrace, r_max_bps: float, gamma0: float, fixed_target_bps: float
) -> RateControllerResult:
    """Drive the adaptive and the fixed arm over a QBER trace at 1 ms resolution.

    Both arms meter against ``secure_capacity_bps``, computed once. The
    controller state starts at R_max and steps once per interval, on that
    interval's QBER: every factor a_k = 1 - (gamma_0 / k) q_k lies in (0, 1],
    because gamma_0 < 1 and q_k < 1, so the running product R_max a_1 ... a_k
    never rises, the floor, once reached, is never left, and the clamped
    state is max(0.1 R_max, product). The product is folded left
    (``np.multiply.accumulate``) in the order of ``rate_adapt_step``, so
    every state is the same double the scalar loop gives. A sample outside
    [0, 1) or a gain outside (0, 1) raises ``ValueError`` as
    ``rate_adapt_step`` and ``RateAdaptState`` do.
    """
    samples = trace.samples
    n_iv = len(samples)
    if n_iv == 0:
        raise ValueError("trace must be non-empty")
    if not 0.0 < gamma0 < 1.0:
        raise ValueError("gamma0 must lie in (0, 1)")
    if not ((samples >= 0.0) & (samples < 1.0)).all():
        raise ValueError("q_t must lie in [0, 1)")

    capacity = secure_capacity_bps(r_max_bps, samples)

    factors = np.concatenate(([r_max_bps], 1.0 - gamma0 / np.arange(1, n_iv + 1) * samples))
    np.multiply.accumulate(factors, out=factors)
    state = np.maximum(RATE_FLOOR_FRACTION * r_max_bps, factors[1:], out=factors[1:])
    # preemptive reduction: never request beyond the secure capacity
    # implied by the current measurement
    adaptive = np.minimum(state, capacity)

    return RateControllerResult(
        t_ms=np.arange(n_iv),
        capacity_bps=capacity,
        state_bps=state,
        fixed_target_bps=fixed_target_bps,
        adaptive=ArmResult(adaptive, *_excess(adaptive, capacity)),
        fixed=ArmResult(np.minimum(fixed_target_bps, capacity),
                        *_excess(fixed_target_bps, capacity)),
    )


# ---------------------------------------------------------------------------
# replicated service
# ---------------------------------------------------------------------------


class KmsEvent(NamedTuple):
    """One entry of a replica's event log."""

    t_ms: int
    event: str          # rent, rent_fail or retire
    replica: int
    key_id: str         # "-" for a failed rental
    bits: int
    balance: int        # pool balance after the event


@dataclass(frozen=True)
class AuditReport:
    """Consumption statistics and anomaly flags for a session window."""

    session_id: str
    window_ms: tuple[int, int]
    bits_consumed: int
    rent_count: int
    failure_count: int
    anomaly_flags: tuple[str, ...]


class KmsReplica:
    """Single-writer key-service replica backed by one token bucket."""

    def __init__(
        self,
        replica_id: int,
        pool: KeyPoolState,
        seed: int = 0,
        baseline_qber: float = 0.01,
    ):
        if not 0 <= replica_id < 256:
            raise ValueError("replica_id must fit one byte")
        self.replica_id = replica_id
        self.pool = pool
        self.baseline_qber = baseline_qber
        self._rng = substream(seed, "kms", replica_id)
        self.keys: dict[str, KeyRecord] = {}
        self.events: list[KmsEvent] = []
        self._qber_samples: list[tuple[int, float]] = []   # (t_ms, qber)

    # -- key lifecycle -------------------------------------------------------

    def _new_key_id(self) -> str:
        # 128-bit id, replica index in the top byte: replicas cannot collide
        return (bytes([self.replica_id]) + draw_bytes(self._rng, 15)).hex()

    def advance_clock(self, now_ms: int) -> None:
        """Accrue generation up to ``now_ms`` (no-op if clock already there)."""
        delta = now_ms - self.pool.clock_ms
        if delta > 0:
            self.pool = step_bucket(self.pool, delta)

    def rent(self, n_bits: int, now_ms: int) -> KeyRecord:
        """Issue ``n_bits`` of key material or raise InsufficientEntropy."""
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        self.advance_clock(now_ms)
        if n_bits > self.pool.balance_bits:
            self.events.append(KmsEvent(now_ms, "rent_fail", self.replica_id, "-", n_bits,
                                        self.pool.balance_bits))
            raise InsufficientEntropy(
                f"requested {n_bits} bits, balance {self.pool.balance_bits}"
            )
        self.pool = replace(self.pool, balance_bits=self.pool.balance_bits - n_bits)
        key_id = self._new_key_id()
        # key material comes in whole 64-bit words: the same bytes as
        # Generator.bytes, which at lengths taking an odd number of 32-bit
        # words would also buffer a half-word for the next key id
        n_bytes = (n_bits + 7) // 8
        record = KeyRecord(
            key_id=key_id,
            key_bits=draw_bytes(self._rng, (n_bytes + 7) // 8 * 8)[:n_bytes],
        )
        self.keys[key_id] = record
        self.events.append(KmsEvent(now_ms, "rent", self.replica_id, key_id, n_bits,
                                    self.pool.balance_bits))
        return record

    def retire(self, key_id: str, now_ms: int = 0) -> None:
        record = self.keys.get(key_id)
        if record is None:
            raise UnknownKey(key_id)
        if record.state != "active":
            raise AlreadyRetired(key_id)
        record.state = "retired"
        self.events.append(KmsEvent(now_ms, "retire", self.replica_id, key_id, 0,
                                    self.pool.balance_bits))

    # -- monitoring ----------------------------------------------------------

    def record_qber(self, q: float, now_ms: int) -> None:
        """Record one QBER sample at ``now_ms``; it must lie in [0, 1)."""
        if not 0.0 <= q < 1.0:
            raise ValueError("q_t must lie in [0, 1)")
        self._qber_samples.append((now_ms, q))

    def tally(self, window_ms: tuple[int, int] | None = None) -> tuple[int, int, int]:
        """(bits rented, rentals, failed rentals) over the whole log, or over
        the events inside ``window_ms``, both of its bounds inclusive."""
        bits = rents = failures = 0
        for ev in self.events:
            if window_ms is not None and not window_ms[0] <= ev.t_ms <= window_ms[1]:
                continue
            if ev.event == "rent":
                rents += 1
                bits += ev.bits
            elif ev.event == "rent_fail":
                failures += 1
        return bits, rents, failures

    def audit(self, session_id: str, window_ms: tuple[int, int],
              sample_bits: int = 10 ** 6) -> AuditReport:
        """Summarize consumption inside the window and raise anomaly flags.

        The counts are ``tally(window_ms)``. ``empty_pool`` flags any failed
        rental in the window; ``qber_alarm`` fires when the mean of the QBER
        samples recorded in the window deviates from the baseline by enough
        that the chi-square test would miss it with probability below 1e-6.
        Both bounds of the window are inclusive.
        """
        lo, hi = window_ms
        bits, rents, failures = self.tally(window_ms)
        flags = []
        if failures:
            flags.append("empty_pool")
        qber = [q for t_ms, q in self._qber_samples if lo <= t_ms <= hi]
        if qber:
            delta = abs(float(np.mean(qber)) - self.baseline_qber)
            if chi_square_miss_probability(self.baseline_qber, delta, sample_bits) < 1e-6:
                flags.append("qber_alarm")
        return AuditReport(
            session_id=session_id,
            window_ms=window_ms,
            bits_consumed=bits,
            rent_count=rents,
            failure_count=failures,
            anomaly_flags=tuple(flags),
        )
