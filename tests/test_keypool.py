import math

import numpy as np
import pytest

from qenergydex import keypool
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
    for pi in ([np.nan, 1.0], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError):
            StationaryDistribution(pi=np.array(pi))


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
    (res,) = simulate_pool([p], seed=1, max_events=10**6, n_epochs=1000)
    assert res.empty_fraction == 0.0


def test_simulation_wilson_covers_theory_at_low_rho():
    # stable pool: zero empties observed, Wilson upper bound dominates the
    # tiny theoretical probability
    p = BirthDeathParams.from_rho(0.9, 200)
    theo = stationary_distribution(p).empty_probability
    (res,) = simulate_pool([p], seed=2, max_events=500_000, n_epochs=50_000)
    assert res.empty_fraction == 0.0
    assert res.wilson_ci[1] >= theo


def test_simulation_histogram_converges_to_closed_form():
    p = BirthDeathParams.from_rho(0.5, 20)
    (res,) = simulate_pool([p], seed=3, max_events=10**7, n_epochs=10_000)
    tv = 0.5 * float(np.abs(res.visits - stationary_distribution(p).pi).sum())
    assert tv <= 0.01


def test_params_validation():
    with pytest.raises(ValueError):
        BirthDeathParams(mu=0.0, lam=1.0, k=1.0, capacity=5)
    with pytest.raises(ValueError):
        BirthDeathParams(mu=1.0, lam=1.0, k=1.0, capacity=0)
    with pytest.raises(ValueError):
        BirthDeathParams.from_rho(-0.5, 10)
    nan = float("nan")
    for mu, lam, k in ((nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan)):
        with pytest.raises(ValueError, match="rates"):
            BirthDeathParams(mu=mu, lam=lam, k=k, capacity=5)
    with pytest.raises(ValueError, match="rho"):
        BirthDeathParams.from_rho(nan, 10)
    p = BirthDeathParams(mu=100.0, lam=50.0, k=1.0, capacity=10)
    for bad in (0, -1):
        with pytest.raises(ValueError):
            simulate_pool([p], max_events=bad)


# ---------------------------------------------------------------------------
# the scan kernel vs a scalar loop of the same uniformized chain
# ---------------------------------------------------------------------------


def loop_clamped_walk(x0, steps, M):
    path = [x0]
    for a in steps:
        path.append(min(M, max(0, path[-1] + int(a))))
    return np.asarray(path, dtype=np.int64)


def loop_uniformized_pool(p, seed=0, max_events=1_000_000, n_epochs=10_000):
    """One event at a time, on the same direction uniforms as simulate_pool,
    drawn a whole block at a time; visits are counted, no time is drawn."""
    rng = substream(seed, "keypool")
    M = p.capacity
    up = p.mu / (p.mu + p.lam * p.k)
    state = M
    visits = np.zeros(M + 1, dtype=np.int64)
    stride = max(1, max_events // max(1, n_epochs))
    marks = []
    for event in range(max_events):
        if event % _BLOCK == 0:
            u_dir = rng.random(_BLOCK)
        step = 1 if u_dir[event % _BLOCK] < up else -1
        visits[state] += 1
        state = min(M, max(0, state + step))
        if (event + 1) % stride == 0:
            marks.append(state)
    ci = wilson_interval(sum(1 for x in marks if x == 0), len(marks))
    return visits / max_events, ci


def assert_matches_loop(p, **kw):
    (fast,) = simulate_pool([p], **kw)
    visits, ci = loop_uniformized_pool(p, **kw)
    assert fast.wilson_ci == ci   # same epoch-boundary states
    assert fast.visits.tobytes() == visits.tobytes()
    assert fast.empty_fraction == fast.visits[0]


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
        assert_matches_loop(p, seed=M, max_events=3_001, n_epochs=97)


def test_simulation_matches_loop_across_chunks():
    # three chunks; the epoch stride (20_153) does not divide the chunk
    p = BirthDeathParams.from_rho(0.95, 7, mu=10.0)
    assert_matches_loop(p, seed=5, max_events=2 * _BLOCK + 10_000, n_epochs=7)


def test_clamped_walk_one_barrier_rows_match_loop():
    # rows of min(_SCAN_COLS, M) steps, starting on either barrier, with
    # drifts that push the walk into one barrier or the other; each length
    # ends mid-row wherever a row holds more than one step
    rng = np.random.default_rng(23)
    for M in (1, 2, _SCAN_COLS - 1, _SCAN_COLS, _SCAN_COLS + 1, 200):
        L = min(_SCAN_COLS, M)
        for p_up in (0.05, 0.5, 0.95):
            for n in (1, L + 1, 7 * L - 1, 3001):
                steps = (rng.random(n) < p_up).view(np.int8) * 2 - 1
                for x0 in (0, M):
                    fast = _clamped_walk(x0, steps, M)
                    assert np.array_equal(fast, loop_clamped_walk(x0, steps, M)), (M, p_up, n, x0)


# ---------------------------------------------------------------------------
# several chains on one draw
# ---------------------------------------------------------------------------


def test_chains_on_one_draw_equal_their_own_runs():
    # capacities within one scan row, at the paper's 200, and a repeated rho,
    # in one call and again in reverse order: each chain's result is the
    # bytes of its call alone
    chains = [BirthDeathParams.from_rho(rho, M, mu=10.0)
              for rho, M in ((0.9, 1), (0.99, 200), (1.5, 12), (0.9, 200), (0.9, 1))]
    kw = dict(seed=4, max_events=_BLOCK + 4_001, n_epochs=33)
    alone = {p: simulate_pool([p], **kw)[0] for p in chains}
    for order in (chains, chains[::-1]):
        together = simulate_pool(order, **kw)
        assert len(together) == len(order)
        for p, res in zip(order, together):
            assert res.visits.tobytes() == alone[p].visits.tobytes()
            assert res.wilson_ci == alone[p].wilson_ci
            assert res.empty_fraction == alone[p].empty_fraction


def test_each_chain_of_one_call_matches_the_loop_across_chunks():
    # three chunks, each chain its own state and occupancy across them
    chains = [BirthDeathParams.from_rho(rho, M, mu=10.0) for rho, M in ((0.95, 7), (1.5, 3), (0.5, 12))]
    kw = dict(seed=5, max_events=2 * _BLOCK + 10_000, n_epochs=7)
    for p, fast in zip(chains, simulate_pool(chains, **kw)):
        visits, ci = loop_uniformized_pool(p, **kw)
        assert fast.wilson_ci == ci
        assert fast.visits.tobytes() == visits.tobytes()
        assert fast.empty_fraction == fast.visits[0]


class CountingDraws:
    """A generator that records the length of each ``random`` draw and has
    no other method, so any other draw raises AttributeError."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def random(self, n):
        self._draws.append(n)
        return self._rng.random(n)


def test_one_direction_draw_per_chunk(monkeypatch):
    # two chains, three chunks, the last one short: one uniform per event,
    # shared by the chains, and no holding-time draw
    draws = []
    monkeypatch.setattr(keypool, "substream", lambda *a: CountingDraws(substream(*a), draws))
    chains = [BirthDeathParams.from_rho(rho, 7, mu=10.0) for rho in (0.9, 1.5)]
    simulate_pool(chains, seed=6, max_events=2 * _BLOCK + 10_000, n_epochs=7)
    assert draws == [_BLOCK, _BLOCK, 10_000]


@pytest.mark.parametrize("capacity", [2.5, True, False, 0, -3, 1.0, "3", float("nan")])
def test_params_refuse_a_capacity_that_is_not_an_integer_at_least_one(capacity):
    with pytest.raises(ValueError, match="capacity must be an integer >= 1"):
        BirthDeathParams(mu=1.0, lam=0.5, k=1.0, capacity=capacity)
    with pytest.raises(ValueError, match="capacity must be an integer >= 1"):
        BirthDeathParams.from_rho(0.5, capacity)


def test_params_accept_numpy_integer_capacities():
    for capacity in (np.int64(3), np.int32(3), 3):
        p = BirthDeathParams.from_rho(0.5, capacity)
        assert len(stationary_distribution(p)) == 4
