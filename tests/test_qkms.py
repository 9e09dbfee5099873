import math
import tracemalloc

import numpy as np
import pytest

from qenergydex.entropy import DEFAULT_EPSILON, QberTrace, extractable_length_vec, generate_qber_trace
from qenergydex.qkms import (
    AlreadyRetired,
    InsufficientEntropy,
    KeyPoolState,
    KmsEvent,
    KmsReplica,
    RateAdaptState,
    UnknownKey,
    rate_adapt_step,
    run_rate_controller,
)
from qenergydex.rng import substream


def make_pool(balance=10**6, capacity=10**6, rate=0.0):
    return KeyPoolState(balance_bits=balance, capacity_bits=capacity, gen_rate_bps=rate)


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


def test_step_bucket_inside_bounds():
    # 200 bits accrue over the 1 ms before the rent, which spends 300
    kms = KmsReplica(0, KeyPoolState(balance_bits=1000, capacity_bits=1200,
                                     gen_rate_bps=200_000.0), seed=1)
    kms.rent(300, now_ms=1)
    assert kms.pool.balance_bits == 900  # 1000 + 200 - 300
    assert kms.pool.clock_ms == 1


def test_step_bucket_capacity_clamp():
    s = KeyPoolState(balance_bits=1150, capacity_bits=1200, gen_rate_bps=500_000.0)
    s.accrue(1)
    assert (s.balance_bits, s.clock_ms) == (1200, 1)
    # a time at or before the clock changes nothing
    s.balance_bits = 0
    for now in (1, 0):
        s.accrue(now)
        assert (s.balance_bits, s.clock_ms) == (0, 1)


def test_step_bucket_exact_depletion():
    kms = KmsReplica(0, KeyPoolState(balance_bits=100, capacity_bits=1200, gen_rate_bps=0.0), seed=1)
    kms.rent(100, now_ms=1)
    assert kms.pool.balance_bits == 0


def test_step_bucket_over_consumption_clamps_at_zero():
    # a rent above the balance is refused without side effects, so an
    # emptied pool stays at zero
    kms = KmsReplica(0, KeyPoolState(balance_bits=100, capacity_bits=1200, gen_rate_bps=0.0), seed=1)
    kms.rent(100, now_ms=1)
    with pytest.raises(InsufficientEntropy):
        kms.rent(1, now_ms=1)
    assert (kms.pool.balance_bits, kms.pool.clock_ms) == (0, 1)
    assert len(kms.keys) == 1
    # the refused rent drew nothing: the next key is a fresh replica's second
    kms.pool = fresh_pool = KeyPoolState(balance_bits=512, capacity_bits=1200, gen_rate_bps=0.0)
    fresh = KmsReplica(0, fresh_pool, seed=1)
    fresh.rent(100, now_ms=1)
    assert kms.rent(256, now_ms=3).key_bits == fresh.rent(256, now_ms=3).key_bits


def test_bucket_never_leaves_bounds_random_walk():
    # rents of random size at random clock steps, against the bucket law
    # B' = min(M, B + floor(R_gen * delta)) and a rent above B refused
    rng = np.random.default_rng(8)
    rate = 123_456.0
    kms = KmsReplica(0, KeyPoolState(balance_bits=500, capacity_bits=1000, gen_rate_bps=rate), seed=8)
    balance = 500
    now = 0
    for _ in range(20_000):
        delta = int(rng.integers(0, 5))
        n_bits = int(rng.integers(1, 400))
        now += delta
        balance = min(1000, balance + int(rate * delta / 1000.0))
        if n_bits <= balance:
            kms.rent(n_bits, now)
            balance -= n_bits
        else:
            with pytest.raises(InsufficientEntropy):
                kms.rent(n_bits, now)
        assert kms.pool.balance_bits == balance
        assert 0 <= balance <= 1000


def test_replicas_never_change_the_pool_they_were_given():
    # each replica copies its pool: two replicas built from one rent and
    # accrue independently, and the caller's object keeps its values
    pool = KeyPoolState(balance_bits=500, capacity_bits=1000, gen_rate_bps=100_000.0)
    a, b = KmsReplica(0, pool, seed=1), KmsReplica(1, pool, seed=1)
    a.rent(400, now_ms=1)                 # 500 + 100 - 400
    b.rent(50, now_ms=3)                  # 500 + 300 - 50
    with pytest.raises(InsufficientEntropy):
        a.rent(300, now_ms=1)
    assert (a.pool.balance_bits, a.pool.clock_ms) == (200, 1)
    assert (b.pool.balance_bits, b.pool.clock_ms) == (750, 3)
    assert pool == KeyPoolState(balance_bits=500, capacity_bits=1000, gen_rate_bps=100_000.0)


def test_pool_state_validation():
    with pytest.raises(ValueError):
        KeyPoolState(balance_bits=-1, capacity_bits=100, gen_rate_bps=0.0)
    with pytest.raises(ValueError):
        KeyPoolState(balance_bits=200, capacity_bits=100, gen_rate_bps=0.0)
    for rate in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="generation rate"):
            KeyPoolState(balance_bits=0, capacity_bits=100, gen_rate_bps=rate)


# ---------------------------------------------------------------------------
# rent / retire
# ---------------------------------------------------------------------------


def test_rent_success_decrements_balance():
    kms = KmsReplica(0, make_pool(500, 1200), seed=1)
    record = kms.rent(256, now_ms=0)
    assert kms.pool.balance_bits == 244
    assert len(record.key_bits) == 32


def test_rent_failure_leaves_state_unchanged():
    kms = KmsReplica(0, make_pool(100, 1200), seed=1)
    with pytest.raises(InsufficientEntropy):
        kms.rent(256, now_ms=0)
    assert kms.pool.balance_bits == 100
    assert kms.keys == {}


def test_rent_key_bits_match_generator_bytes():
    # key material is drawn in whole 64-bit words; its bytes are the ones
    # Generator.bytes gives at every length
    for n_bits in range(1, 600, 7):
        record = KmsReplica(0, make_pool(), seed=3).rent(n_bits, 0)
        rng = substream(3, "kms", 0)
        assert record.key_id == (b"\x00" + rng.bytes(15)).hex()
        assert record.key_bits == rng.bytes((n_bits + 7) // 8)


def test_rents_across_replicas_have_distinct_ids():
    # two replicas on one seed draw the same stream, but each id carries its
    # replica's index in the top byte: interleaved rents of mixed sizes
    # never collide
    replicas = [KmsReplica(0, make_pool(), seed=1), KmsReplica(1, make_pool(), seed=1)]
    rng = substream(9, "test", "interleave")
    ids = set()
    for step in range(600):
        replica = replicas[int(rng.integers(2))]
        key_id = replica.rent(int(rng.integers(64, 512)), now_ms=step).key_id
        assert int(key_id[:2], 16) == replica.replica_id
        ids.add(key_id)
    assert len(ids) == 600


def test_retire_lifecycle():
    kms = KmsReplica(0, make_pool(), seed=2)
    record = kms.rent(256, 0)
    kms.retire(record.key_id)
    assert record.state == "retired"
    with pytest.raises(AlreadyRetired):
        kms.retire(record.key_id)
    with pytest.raises(UnknownKey):
        kms.retire("ff" * 16)


def test_generation_accrues_with_clock():
    kms = KmsReplica(0, KeyPoolState(balance_bits=0, capacity_bits=10**6, gen_rate_bps=1000.0), seed=3)
    with pytest.raises(InsufficientEntropy):
        kms.rent(256, now_ms=0)
    record = kms.rent(256, now_ms=1000)      # 1000 bits accrued
    assert record is not None
    assert kms.pool.balance_bits == 744


def test_event_log_schema():
    kms = KmsReplica(0, make_pool(300, 1200), seed=4)
    kms.rent(128, 0)
    with pytest.raises(InsufficientEntropy):
        kms.rent(512, 1)
    assert KmsEvent._fields == ("t_ms", "event", "replica", "key_id", "bits", "balance")
    assert [type(ev) for ev in kms.events] == [KmsEvent, KmsEvent]
    assert [ev.event for ev in kms.events] == ["rent", "rent_fail"]
    rent, fail = kms.events
    assert (rent.t_ms, rent.replica, rent.bits, rent.balance) == (0, 0, 128, 172)
    assert (fail.t_ms, fail.key_id, fail.bits, fail.balance) == (1, "-", 512, 172)
    assert rent.key_id == next(iter(kms.keys))


# ---------------------------------------------------------------------------
# rate adaptation
# ---------------------------------------------------------------------------


def test_rate_adapt_zero_qber_is_identity():
    st = RateAdaptState(r_t_bps=5e6, r_max_bps=5e6, gamma0=0.5)
    for _ in range(100):
        st = rate_adapt_step(st, 0.0)
    assert st.r_t_bps == 5e6
    assert st.t == 101


def test_rate_adapt_hand_value():
    st = RateAdaptState(r_t_bps=5e6, r_max_bps=5e6, gamma0=0.5, t=1)
    out = rate_adapt_step(st, 0.04)
    assert out.r_t_bps == pytest.approx(4.9e6)   # (1 - 0.5*0.04) * 5e6


def test_rate_adapt_floor_clamp():
    st = RateAdaptState(r_t_bps=0.5e6 + 1.0, r_max_bps=5e6, gamma0=0.9, t=1)
    out = rate_adapt_step(st, 0.9)
    assert out.r_t_bps == 0.5e6


def test_rate_adapt_state_validation():
    with pytest.raises(ValueError):
        RateAdaptState(r_t_bps=0.4e6, r_max_bps=5e6)    # below the floor
    with pytest.raises(ValueError):
        RateAdaptState(r_t_bps=6e6, r_max_bps=5e6)
    with pytest.raises(ValueError):
        RateAdaptState(r_t_bps=5e6, r_max_bps=5e6, gamma0=1.5)


def test_rate_floor_holds_across_random_traces():
    for seed in range(1000):
        trace = generate_qber_trace(1.0, seed=seed, pulse_count=3)
        res = run_rate_controller(trace, 5e6, 0.5, 4e6)
        assert (res.state_bps >= 0.1 * 5e6 - 1e-9).all()


def test_error_contraction_in_expectation():
    # ensemble mean |R_t - R_final| shrinks monotonically after burn-in
    rng = substream(17, "qkms", "contraction")
    horizon, members = 400, 64
    gaps = np.zeros((members, horizon))
    for m in range(members):
        st = RateAdaptState(r_t_bps=5e6, r_max_bps=5e6)
        traj = np.empty(horizon)
        for t in range(horizon):
            st = rate_adapt_step(st, float(rng.uniform(0.005, 0.03)))
            traj[t] = st.r_t_bps
        gaps[m] = np.abs(traj - traj[-1])
    mean_gap = gaps.mean(axis=0)
    burn = 10
    assert (np.diff(mean_gap[burn:]) <= 1e-9).all()


# ---------------------------------------------------------------------------
# rate controller
# ---------------------------------------------------------------------------


def test_controller_no_drops_below_capacity():
    trace = generate_qber_trace(2.0, seed=3, pulse_count=0, noise_sigma=0.0, base_q=0.01)
    res = run_rate_controller(trace, 5e6, 0.5, 2e6)
    assert res.fixed.total_dropped_bits == 0.0
    assert res.fixed.cap_exceed_fraction == 0.0


def test_controller_strategy_separation_on_paper_style_trace():
    trace = generate_qber_trace(60.0, seed=1)
    res = run_rate_controller(trace, 5e6, 0.5, 5e6)
    adaptive, fixed_at_max = res.adaptive, res.fixed
    assert fixed_at_max.cap_exceed_fraction >= 1e3 * adaptive.cap_exceed_fraction
    assert adaptive.total_dropped_bits <= 1e4
    assert fixed_at_max.total_dropped_bits >= 1e6


def test_controller_adaptive_never_exceeds_fixed_over_ensemble():
    for seed in range(100):
        res = run_rate_controller(generate_qber_trace(3.0, seed=seed), 5e6, 0.5, 4e6)
        assert res.adaptive.cap_exceed_fraction <= res.fixed.cap_exceed_fraction


def test_controller_output_never_above_capacity():
    trace = generate_qber_trace(10.0, seed=21)
    res = run_rate_controller(trace, 5e6, 0.5, 4e6)
    for arm in (res.adaptive, res.fixed):
        assert (arm.output_bps <= res.capacity_bps + 1e-9).all()


def test_controller_capacity_matches_scalar_op():
    from qenergydex.entropy import extractable_length

    trace = generate_qber_trace(0.2, seed=22)
    res = run_rate_controller(trace, 5e6, 0.5, 4e6)
    n_raw = int(5e6 // 1000)
    for i, q in enumerate(trace.samples):
        expected = extractable_length(n_raw, float(q)) * 1000.0
        assert res.capacity_bps[i] == expected


def _capacity(trace, r_max):
    return extractable_length_vec(int(r_max // 1000), trace.samples, DEFAULT_EPSILON) * 1000.0


def _controller_loop(trace, r_max, gamma0):
    """The adaptive controller as a scalar fold of ``rate_adapt_step``."""
    samples = trace.samples
    n = len(samples)
    capacity = _capacity(trace, r_max)
    state = np.empty(n)
    target = np.empty(n)
    st = RateAdaptState(r_t_bps=r_max, r_max_bps=r_max, gamma0=gamma0)
    for i in range(n):
        st = rate_adapt_step(st, float(samples[i]))
        state[i] = st.r_t_bps
        target[i] = min(st.r_t_bps, capacity[i])
    dropped = np.cumsum(np.maximum(0.0, target - capacity) * (1.0 / 1000.0))
    return state, target, np.minimum(target, capacity), dropped


def _fixed_loop(trace, r_max, target):
    """The fixed arm one interval at a time: output, cap-exceed share, dropped bits."""
    capacity = _capacity(trace, r_max)
    output = np.empty(len(capacity))
    exceed, dropped = 0, 0.0
    for i, c in enumerate(capacity.tolist()):
        output[i] = min(target, c)
        exceed += target > c
        dropped += max(0.0, target - c) * (1.0 / 1000.0)
    return output, exceed / len(capacity), dropped


def _assert_matches_loop(trace, r_max, gamma0, fixed_target):
    res = run_rate_controller(trace, r_max, gamma0, fixed_target)
    state, target, output, dropped = _controller_loop(trace, r_max, gamma0)
    assert res.state_bps.tobytes() == state.tobytes()
    # the adaptive request never exceeds capacity, so it is the output
    assert res.adaptive.output_bps.tobytes() == target.tobytes() == output.tobytes()
    assert res.adaptive.total_dropped_bits == dropped[-1] == 0.0
    assert res.adaptive.cap_exceed_fraction == 0.0
    fixed_output, fixed_exceed, fixed_dropped = _fixed_loop(trace, r_max, fixed_target)
    assert res.fixed.output_bps.tobytes() == fixed_output.tobytes()
    assert res.fixed.cap_exceed_fraction == fixed_exceed
    assert res.fixed.total_dropped_bits == fixed_dropped
    assert res.fixed_target_bps == fixed_target
    return res


def test_controller_closed_form_matches_loop():
    for seed in range(4):
        trace = generate_qber_trace(5.0, seed=seed)
        for gamma0, fixed_target in ((0.5, 4e6), (0.8, 5e6)):
            res = _assert_matches_loop(trace, 5e6, gamma0, fixed_target)
            assert res.t_ms.tolist() == list(range(len(trace)))
    # at R_max the fixed arm exceeds capacity whenever the channel is noisy
    assert res.fixed.total_dropped_bits > 0.0


def test_controller_floor_is_absorbing_and_matches_loop():
    # gamma0 = 0.9 at q = 0.5 drives the rate onto the floor within 300
    # steps, and neither q = 0.9 nor a clean channel afterwards moves it
    samples = np.concatenate([np.full(300, 0.5), np.full(2000, 0.9), np.full(500, 0.001)])
    trace = QberTrace(samples, q_hi=0.95)
    res = _assert_matches_loop(trace, 5e6, 0.9, 4e6)
    assert res.state_bps[299] == 0.5e6
    assert (res.state_bps[299:] == 0.5e6).all()
    assert (res.state_bps >= 0.5e6).all()


def test_controller_rejects_window_mean_outside_unit_interval():
    at_one = QberTrace(np.full(20, 1.0), q_hi=1.0)
    with pytest.raises(ValueError, match="q_t must lie"):
        run_rate_controller(at_one, 5e6, 0.5, 4e6)
    negative = QberTrace(np.full(20, -0.01), q_lo=-1.0)
    with pytest.raises(ValueError):
        run_rate_controller(negative, 5e6, 0.5, 4e6)
    for gamma0 in (0.0, 1.0):
        with pytest.raises(ValueError, match="gamma0 must lie"):
            run_rate_controller(QberTrace(np.full(20, 0.01)), 5e6, gamma0, 4e6)


def test_controller_memory_is_a_few_trace_length_arrays():
    # one pass holds the capacity, the state, two outputs and t_ms, plus one
    # scratch array; the former two-call comparison peaked at 13 arrays
    trace = generate_qber_trace(600.0, seed=1)
    array_bytes = trace.samples.nbytes
    assert len(trace) == 600_000
    tracemalloc.start()
    try:
        run_rate_controller(trace, 5e6, 0.5, 4e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * array_bytes


# ---------------------------------------------------------------------------
# audit and generation model
# ---------------------------------------------------------------------------


def test_audit_counts_and_empty_pool_flag():
    kms = KmsReplica(0, make_pool(300, 1200), seed=6)
    kms.rent(128, 10)
    kms.rent(128, 20)
    with pytest.raises(InsufficientEntropy):
        kms.rent(512, 30)
    report = kms.audit("sid-1", (0, 100))
    assert report.rent_count == 2
    assert report.bits_consumed == 256
    assert report.failure_count == 1
    assert "empty_pool" in report.anomaly_flags


def test_tally_matches_a_scalar_replay_of_the_log():
    # rents, failed rents and retires at t = 0, 5, ..., 95, with several
    # events at some times: the whole log and windows that start and end
    # exactly on events, both bounds inclusive
    kms = KmsReplica(0, make_pool(2000, 2000, rate=4000.0), seed=3)
    rng = substream(3, "test", "tally")
    for t in range(0, 100, 5):
        for _ in range(int(rng.integers(1, 4))):
            try:
                key = kms.rent(int(rng.integers(1, 600)), t)
            except InsufficientEntropy:
                continue
            if rng.random() < 0.3:
                kms.retire(key.key_id, t)
    assert {ev.event for ev in kms.events} == {"rent", "rent_fail", "retire"}

    def replay(lo, hi):
        inside = [ev for ev in kms.events if lo <= ev.t_ms <= hi]
        rented = [ev.bits for ev in inside if ev.event == "rent"]
        return sum(rented), len(rented), sum(ev.event == "rent_fail" for ev in inside)

    assert kms.tally() == replay(-math.inf, math.inf)
    for window in ((0, 95), (5, 5), (10, 45), (45, 50), (96, 200), (20, 19)):
        assert kms.tally(window) == replay(*window), window
        report = kms.audit("sid", window)
        assert (report.bits_consumed, report.rent_count, report.failure_count) == replay(*window)


def test_audit_qber_alarm():
    kms = KmsReplica(0, make_pool(), seed=6, baseline_qber=0.01)
    for t in range(50):
        kms.record_qber(0.013, t)   # deviation 0.003 over a 1e6-bit window
    report = kms.audit("sid-2", (0, 100))
    assert "qber_alarm" in report.anomaly_flags
    quiet = KmsReplica(0, make_pool(), seed=6, baseline_qber=0.01)
    quiet.record_qber(0.0100001, 0)
    assert "qber_alarm" not in quiet.audit("sid-3", (0, 100)).anomaly_flags


def test_audit_qber_alarm_reads_only_its_window():
    # ten samples at 0.05, then ten at the baseline 0.01: only the first
    # window alarms, and later samples outside it do not clear its alarm
    kms = KmsReplica(0, make_pool(), seed=6, baseline_qber=0.01)
    for t in range(10):
        kms.record_qber(0.05, t)
    for t in range(20, 30):
        kms.record_qber(0.01, t)

    def alarms(window):
        return "qber_alarm" in kms.audit("sid", window).anomaly_flags

    assert alarms((0, 10))
    assert not alarms((20, 30))
    assert not alarms((10, 19))   # no sample: nothing to test
    for t in range(30, 1030):
        kms.record_qber(0.01, t)
    assert alarms((0, 10))
    assert not alarms((20, 1029))
    # both bounds are inclusive: one 0.05 sample at t = 9 tips the window
    assert alarms((9, 20))
    assert not alarms((10, 20))


def test_audit_qber_window_includes_samples_on_either_bound():
    # the only alarming samples sit at t = 10, among baseline samples at
    # every other time: a window alarms exactly when it includes t = 10
    kms = KmsReplica(0, make_pool(), seed=6, baseline_qber=0.01)
    for t in range(21):
        for _ in range(3):
            kms.record_qber(0.05 if t == 10 else 0.01, t)

    def alarms(window):
        return "qber_alarm" in kms.audit("sid", window).anomaly_flags

    assert alarms((5, 10))        # at the upper bound
    assert alarms((10, 15))       # at the lower bound
    assert alarms((10, 10))
    assert not alarms((5, 9))
    assert not alarms((11, 15))


def test_record_qber_refuses_a_sample_outside_the_unit_interval():
    # one NaN in a window would make the audited mean NaN and silence its alarm
    kms = KmsReplica(0, make_pool(), seed=6, baseline_qber=0.01)
    for t in range(50):
        kms.record_qber(0.05, t)
    for bad in (math.nan, -0.01, 1.0, math.inf):
        with pytest.raises(ValueError, match="q_t must lie"):
            kms.record_qber(bad, 10)
    assert "qber_alarm" in kms.audit("sid", (0, 100)).anomaly_flags
