import math

import numpy as np
import pytest

from qenergydex.keypool import (
    BirthDeathParams,
    StationaryDistribution,
    exact_min_capacity,
    min_capacity,
    simulate_pool,
    stationary_distribution,
    stationary_oracle,
)
from qenergydex.keypool import _BLOCK, _SCAN_COLS, _clamped_walk
from qenergydex.rng import substream
from qenergydex.stats import wilson_interval

# published empty-pool probabilities at capacity 200
TABLE_PI0 = {0.99: 1.545e-3, 0.999: 4.494e-3, 0.9999: 4.926e-3}


def rel_err(a, b):
    return abs(a - b) / abs(b)


def test_table_values_at_capacity_200():
    for rho, expected in TABLE_PI0.items():
        p = BirthDeathParams.from_rho(rho, 200)
        assert rel_err(stationary_distribution(p).empty_probability, expected) < 5e-4
    p = BirthDeathParams.from_rho(0.9, 200)
    assert rel_err(stationary_distribution(p).empty_probability, 7.06e-11) < 1e-2


def test_two_state_chain_hand_solution():
    # balance at M=1: pi_0 * mu = pi_1 * lam k  ->  (rho/(1+rho), 1/(1+rho))
    for rho in (0.25, 0.5, 2.0):
        p = BirthDeathParams.from_rho(rho, 1)
        pi = stationary_distribution(p).pi
        assert pi[0] == pytest.approx(rho / (1 + rho), rel=1e-12)
        assert pi[1] == pytest.approx(1 / (1 + rho), rel=1e-12)


def test_uniform_limit_at_rho_one():
    p = BirthDeathParams(mu=5.0, lam=5.0, k=1.0, capacity=10)
    pi = stationary_distribution(p).pi
    assert np.allclose(pi, 1.0 / 11.0, atol=1e-12)
    assert np.allclose(stationary_oracle(p).pi, 1.0 / 11.0, atol=1e-12)


def test_as_printed_variant_is_mirrored():
    p = BirthDeathParams.from_rho(0.5, 5)
    default = stationary_distribution(p).pi
    printed = stationary_distribution(p, as_printed=True).pi
    assert np.allclose(default, printed[::-1], atol=1e-15)
    # default orientation: stable pool concentrates near full
    assert default[-1] > default[0]
    assert printed[0] > printed[-1]


def test_closed_form_matches_oracle_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        rho = float(rng.uniform(0.01, 0.9999))
        M = int(rng.integers(1, 2001))
        p = BirthDeathParams.from_rho(rho, M)
        closed = stationary_distribution(p).pi
        oracle = stationary_oracle(p).pi
        mask = np.maximum(closed, oracle) > 1e-250
        rel = np.abs(closed[mask] - oracle[mask]) / np.maximum(closed[mask], oracle[mask])
        assert rel.max() < 1e-10


def test_oracle_capacity_cap():
    with pytest.raises(ValueError):
        stationary_oracle(BirthDeathParams.from_rho(0.5, 10**5 + 1))


def test_pi0_monotone_in_capacity_and_rho():
    for rho in (0.3, 0.7, 0.95):
        vals = [
            stationary_distribution(BirthDeathParams.from_rho(rho, M)).empty_probability
            for M in (5, 10, 20, 50, 100)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    for M in (10, 100):
        vals = [
            stationary_distribution(BirthDeathParams.from_rho(rho, M)).empty_probability
            for rho in (0.2, 0.4, 0.6, 0.8, 0.95)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_distribution_validation():
    with pytest.raises(ValueError):
        StationaryDistribution(pi=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        StationaryDistribution(pi=np.array([1.5, -0.5]))


def test_min_capacity_bound_values():
    # ceil( ln(1/target) / ln(1/rho) - 1 )
    assert min_capacity(0.9, 1e-9) == 196
    assert min_capacity(0.5, 1e-9) == 29
    assert min_capacity(0.99, 1e-9) == math.ceil(math.log(1e9) / math.log(1 / 0.99) - 1)


def test_min_capacity_domain():
    with pytest.raises(ValueError):
        min_capacity(1.0, 1e-9)
    with pytest.raises(ValueError):
        min_capacity(1.5, 1e-9)
    with pytest.raises(ValueError):
        min_capacity(0.9, 0.0)


def test_exact_min_capacity_by_bisection():
    # smallest M with pi_0(M) <= target, cross-checked by direct search
    assert exact_min_capacity(0.5, 1e-9) == 29
    M = exact_min_capacity(0.9, 1e-9)
    assert M == 175
    assert stationary_distribution(BirthDeathParams.from_rho(0.9, M)).empty_probability <= 1e-9
    assert (
        stationary_distribution(BirthDeathParams.from_rho(0.9, M - 1)).empty_probability > 1e-9
    )


def test_capacity_bound_is_conservative_above_half_load():
    # the closed-form bound over-provisions relative to the exact requirement
    # for rho >= 0.5 (they coincide at 0.5)
    for rho in np.linspace(0.5, 0.99, 15):
        bound = min_capacity(float(rho), 1e-9)
        exact = exact_min_capacity(float(rho), 1e-9)
        assert exact <= bound


def test_simulation_near_certain_fullness():
    p = BirthDeathParams.from_rho(0.01, 50)
    res = simulate_pool(p, seed=1, max_events=10**6, n_epochs=1000)
    assert res.empty_fraction == 0.0
    assert res.events == 10**6


def test_simulation_wilson_covers_theory_at_low_rho():
    # stable pool: zero empties observed, Wilson upper bound dominates the
    # tiny theoretical probability
    p = BirthDeathParams.from_rho(0.9, 200)
    theo = stationary_distribution(p).empty_probability
    res = simulate_pool(p, seed=2, max_events=500_000, n_epochs=50_000)
    assert res.empty_fraction == 0.0
    assert res.wilson_ci[1] >= theo


def test_simulation_histogram_converges_to_closed_form():
    p = BirthDeathParams.from_rho(0.5, 20)
    res = simulate_pool(p, seed=3, max_events=10**7, n_epochs=10_000)
    tv = 0.5 * float(np.abs(res.visits - stationary_distribution(p).pi).sum())
    assert tv <= 0.01


def test_simulation_horizon_limit():
    p = BirthDeathParams(mu=100.0, lam=50.0, k=1.0, capacity=10)
    res = simulate_pool(p, horizon_s=2.0, seed=4, max_events=10**9)
    assert res.horizon_s == pytest.approx(2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        BirthDeathParams(mu=0.0, lam=1.0, k=1.0, capacity=5)
    with pytest.raises(ValueError):
        BirthDeathParams(mu=1.0, lam=1.0, k=1.0, capacity=0)
    with pytest.raises(ValueError):
        BirthDeathParams.from_rho(-0.5, 10)


# ---------------------------------------------------------------------------
# the scan kernel vs a scalar loop of the same uniformized chain
# ---------------------------------------------------------------------------


def loop_clamped_walk(x0, steps, M):
    path = [x0]
    for a in steps:
        path.append(min(M, max(0, path[-1] + int(a))))
    return np.asarray(path, dtype=np.int64)


def loop_uniformized_pool(p, horizon_s=None, seed=0, max_events=1_000_000,
                          n_epochs=10_000, initial_state=None):
    """One event at a time, on the same draws as simulate_pool."""
    rng = substream(seed, "keypool")
    M = p.capacity
    rate = p.mu + p.lam * p.k
    state = M if initial_state is None else initial_state
    occupancy = np.zeros(M + 1)
    t = 0.0
    events = 0
    stride = max(1, max_events // max(1, n_epochs))
    marks = []
    limit_t = math.inf if horizon_s is None else horizon_s
    idx = _BLOCK
    while events < max_events and t < limit_t:
        if idx == _BLOCK:
            u_hold = rng.random(_BLOCK)
            u_dir = rng.random(_BLOCK)
            idx = 0
        dt = -math.log1p(-u_hold[idx]) / rate
        step = 1 if u_dir[idx] < p.mu / rate else -1
        idx += 1
        if t + dt > limit_t:
            occupancy[state] += limit_t - t
            t = limit_t
            break
        occupancy[state] += dt
        t += dt
        state = min(M, max(0, state + step))
        events += 1
        if events % stride == 0:
            marks.append(state)
    if not marks:
        marks = [state]
    ci = wilson_interval(sum(1 for x in marks if x == 0), len(marks))
    return occupancy / occupancy.sum(), ci, events, t


def assert_matches_loop(p, **kw):
    fast = simulate_pool(p, **kw)
    visits, ci, events, t = loop_uniformized_pool(p, **kw)
    assert fast.events == events
    assert fast.horizon_s == pytest.approx(t, rel=1e-12)
    assert fast.wilson_ci == ci   # same epoch-boundary states
    assert np.allclose(fast.visits, visits, rtol=1e-11, atol=1e-14)
    assert fast.empty_fraction == fast.visits[0]
    return fast


def test_clamped_walk_matches_loop():
    rng = np.random.default_rng(21)
    lengths = (1, 2, _SCAN_COLS - 1, _SCAN_COLS, _SCAN_COLS + 1, 1000, 5 * _SCAN_COLS + 3)
    for M in range(1, 13):
        for n in lengths:
            steps = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1, -1)
            x0 = int(rng.integers(0, M + 1))
            fast = _clamped_walk(x0, steps, M)
            assert np.array_equal(fast, loop_clamped_walk(x0, steps, M)), (M, n)


def test_simulation_matches_uniformized_loop_small_capacity():
    rng = np.random.default_rng(22)
    for M in range(1, 13):
        rho = float(rng.choice([0.3, 0.9, 1.0, 1.5, 4.0]))
        p = BirthDeathParams.from_rho(rho, M, mu=10.0)
        init = int(rng.integers(0, M + 1))
        assert_matches_loop(p, seed=M, max_events=3_001, n_epochs=97, initial_state=init)


def test_simulation_matches_loop_across_chunks():
    # three chunks; the epoch stride (20_153) does not divide the chunk
    p = BirthDeathParams.from_rho(0.95, 7, mu=10.0)
    res = assert_matches_loop(p, seed=5, max_events=2 * _BLOCK + 10_000, n_epochs=7)
    assert res.events == 2 * _BLOCK + 10_000


def test_simulation_matches_loop_at_a_horizon_inside_a_chunk():
    # about 150 events/s, so the 800 s horizon stops the second chunk
    p = BirthDeathParams(mu=100.0, lam=50.0, k=1.0, capacity=4)
    res = assert_matches_loop(p, horizon_s=800.0, seed=6, max_events=10**9, n_epochs=50)
    assert _BLOCK < res.events < 2 * _BLOCK
    assert res.horizon_s == 800.0
    # a horizon inside the first holding time credits it all to the start
    res = assert_matches_loop(p, horizon_s=1e-9, seed=6, initial_state=2)
    assert res.events == 0 and res.visits[2] == 1.0


def test_simulation_counts_self_loops():
    # events arrive at the uniformized rate mu + lam*k = 200/s in every
    # state; the pool itself moves at only 100/s at capacity 1, so the
    # clamped self-loops are half of the 20_000 expected events
    p = BirthDeathParams(mu=100.0, lam=100.0, k=1.0, capacity=1)
    res = simulate_pool(p, horizon_s=100.0, seed=7, max_events=10**9)
    assert 19_000 < res.events < 21_000
