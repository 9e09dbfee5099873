import hashlib
import math

import numpy as np
import pytest
from scipy.stats import kstest

from qenergydex.netsim import LinkModel
from qenergydex.porlite import (
    ChainTrace,
    ConsensusParams,
    ValidatorNode,
    adjust_threshold,
    chain_growth_bound,
    chain_metrics,
    confirm_threshold_met,
    cp_violation_fraction,
    elect_leader,
    election_seed,
    finality_depth,
    finality_depths,
    fork_persistence_tail,
    fork_tail_bound,
    growth_violation_fraction,
    make_validators,
    simulate_chain,
    vrf_output,
    vrf_unit,
)
from qenergydex.porlite import _simulate_bernoulli
from qenergydex.qkms import KeyPoolState, KmsReplica
from qenergydex.rng import substream

# ---------------------------------------------------------------------------
# VRF
# ---------------------------------------------------------------------------


def test_vrf_output_deterministic():
    secret = bytes(range(32))
    out = vrf_output(secret, b"seed-a")
    assert out == vrf_output(secret, b"seed-a")
    assert out != vrf_output(secret, b"seed-b")
    assert out != vrf_output(bytes(32), b"seed-a")
    # sha256(b"vrf/out" + secret + seed), pinned: a change here moves every election
    assert out.hex() == "eb5cf87bce76e212a450a2748d0ad7aed87db3d8d9c3d3d57e6609c8f984f65a"


def test_vrf_outputs_uniform():
    secret = bytes(range(32))
    ys = np.array([vrf_unit(vrf_output(secret, i.to_bytes(8, "big"))) for i in range(10**5)])
    assert kstest(ys, "uniform").pvalue > 0.01


# ---------------------------------------------------------------------------
# election
# ---------------------------------------------------------------------------


def test_election_seed_shape_and_sensitivity():
    prev = b"\x01" * 32
    salt = b"\x02" * 16
    s1 = election_seed(prev, salt)
    assert len(s1) == 32
    assert s1 == election_seed(prev, salt)
    assert s1 != election_seed(prev, b"\x03" * 16)
    with pytest.raises(ValueError):
        election_seed(b"\x01" * 31, salt)
    with pytest.raises(ValueError):
        election_seed(prev, b"\x02" * 15)


def test_elect_leader_extremes():
    nodes = make_validators(10, 0.0, seed=1)
    seed = election_seed(b"\x00" * 32, b"\x00" * 16)
    assert len(elect_leader(nodes, seed, 1.0)) == 10
    assert elect_leader(nodes, seed, 0.0) == []


def test_elect_leader_sorted_by_output():
    nodes = make_validators(30, 0.0, seed=2)
    seed = election_seed(b"\x05" * 32, b"\x06" * 16)
    leaders = elect_leader(nodes, seed, 0.5)
    ys = [y for _, y in leaders]
    assert ys == sorted(ys)


def test_elect_leader_binomial_rate():
    nodes = make_validators(100, 0.0, seed=3)
    h_q = 0.02
    counts = []
    prev = b"\x00" * 32
    for height in range(10**4):
        seed = election_seed(prev, height.to_bytes(16, "big"))
        counts.append(len(elect_leader(nodes, seed, h_q)))
    mean = float(np.mean(counts))
    sigma_mean = math.sqrt(100 * h_q * (1 - h_q)) / math.sqrt(10**4)
    assert abs(mean - 2.0) <= 3 * sigma_mean


def test_adjust_threshold_controller():
    assert adjust_threshold(0.1, 0.9, 0.9) == pytest.approx(0.1)
    assert adjust_threshold(0.1, 0.9, 0.45) == pytest.approx(0.05)
    assert adjust_threshold(0.5, 0.0, 0.9, h_max=1.0) == 1.0
    with pytest.raises(ValueError):
        adjust_threshold(0.1, 0.5, 1.5)


def test_threshold_converges_to_target_rate():
    # closed loop against the real election over ten thousand heights
    nodes = make_validators(30, 0.0, seed=4)
    target = 0.9
    h_q = 0.9   # start far above the per-node operating point
    produced = []
    prev = b"\x07" * 32
    for height in range(10**4):
        seed = election_seed(prev, height.to_bytes(16, "big"))
        leaders = elect_leader(nodes, seed, h_q)
        produced.append(1 if leaders else 0)
        if leaders:
            prev = leaders[0][0].vrf_secret[:16] + prev[16:]
        if (height + 1) % 100 == 0:
            observed = float(np.mean(produced[-100:]))
            h_q = adjust_threshold(h_q, observed, target)
    longrun = float(np.mean(produced[2000:]))
    assert abs(longrun - target) <= 0.1 * target


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_finality_depth_values():
    assert finality_depth(0.25, 40) == 56
    assert finality_depth(0.0, 40) == 14
    assert 3.5 <= 56 * 0.065 <= 3.7
    with pytest.raises(ValueError):
        finality_depth(0.5, 40)


def test_fork_tail_bound_values():
    assert fork_tail_bound(0.25, 56) == pytest.approx(math.exp(-28.0))
    assert fork_tail_bound(0.25, 56) <= 2.0**-40
    assert fork_tail_bound(0.25, 0) == 1.0


def test_chain_growth_bound_value():
    v = chain_growth_bound(0.25, 0.10, 0.20, 100)
    assert v == pytest.approx(math.exp(-1.35), rel=1e-12)
    assert v == pytest.approx(0.2592, abs=1e-4)


def test_confirm_threshold_boundary():
    two_thirds = 2.0 / 3.0
    assert confirm_threshold_met(two_thirds)
    assert confirm_threshold_met(0.75)
    assert not confirm_threshold_met(np.nextafter(two_thirds, 0.0))


# ---------------------------------------------------------------------------
# outcome analytics vs brute force
# ---------------------------------------------------------------------------


def brute_fork_tail(outcomes, max_depth):
    n = len(outcomes)
    out = np.zeros(max_depth)
    for t in range(1, max_depth + 1):
        count = 0
        for h in range(n):
            if h + t <= n and all(outcomes[h + j] == -1 for j in range(t)):
                count += 1
        out[t - 1] = count / n
    return out


def test_fork_tail_matches_brute_force():
    rng = np.random.default_rng(5)
    outcomes = rng.choice([1, -1, 0], size=300, p=[0.5, 0.3, 0.2]).astype(np.int8)
    fast = fork_persistence_tail(outcomes, 8)
    slow = brute_fork_tail(outcomes, 8)
    assert np.allclose(fast, slow)


def test_cp_violation_is_shifted_tail():
    rng = np.random.default_rng(6)
    outcomes = rng.choice([1, -1, 0], size=500, p=[0.6, 0.25, 0.15]).astype(np.int8)
    fork = fork_persistence_tail(outcomes, 11)
    cp = cp_violation_fraction(outcomes, 10)
    assert np.array_equal(cp, fork[1:])


def test_growth_violation_matches_brute_force():
    rng = np.random.default_rng(7)
    outcomes = rng.choice([1, -1, 0], size=400, p=[0.6, 0.25, 0.15]).astype(np.int8)
    eps, alpha, beta = 0.2, 0.25, 0.1
    fast = growth_violation_fraction(outcomes, eps, alpha, beta, 6)
    rate = (1 - eps) * (1 - alpha) * (1 - beta)
    for t in range(1, 7):
        wins = [
            int(np.sum(outcomes[h : h + t] == 1)) <= rate * t + 1e-12
            for h in range(len(outcomes) - t + 1)
        ]
        assert fast[t - 1] == pytest.approx(np.mean(wins))


def test_finality_depths_simple_sequence():
    outcomes = np.array([1, 1, -1, 1, 1, 0, 1, 1], dtype=np.int8)
    depths = finality_depths(outcomes, max_depth=4)
    # block 0 sealed by block 1 immediately; block 1 must survive the fork
    # at height 2 and recover (depth 3); block 3 sealed immediately
    assert list(depths) == [1, 3, 1]


def test_chain_trace_validation():
    with pytest.raises(ValueError):
        ChainTrace(outcomes=np.array([2, 0, 1]))
    with pytest.raises(ValueError):
        ChainTrace(outcomes=np.array([255, 1, 257, 0]))   # -1, 1, 1, 0 after an int8 cast
    with pytest.raises(ValueError):
        ChainTrace(outcomes=np.array([0.5, 1.0]))   # 0, 1 after an int8 cast


@pytest.mark.parametrize(
    "outcomes",
    [np.array([1, -1, 0], dtype=np.int8), [1, -1, 0], np.array([1.0, -1.0]), np.zeros(0)],
)
def test_chain_trace_accepts_whole_outcomes(outcomes):
    trace = ChainTrace(outcomes=outcomes)
    assert trace.outcomes.dtype == np.int8
    assert np.array_equal(trace.outcomes, np.asarray(outcomes))


# ---------------------------------------------------------------------------
# simulation modes
# ---------------------------------------------------------------------------


def trace_digest(trace):
    """Pins a network-mode run: its outcomes and its measured mean interval."""
    return hashlib.sha256(trace.outcomes.tobytes() + repr(trace.block_interval_ms).encode()).hexdigest()


def funded_kms(seed):
    """A key service whose pool never runs dry over these runs."""
    return KmsReplica(0, KeyPoolState(balance_bits=10**9, capacity_bits=10**9, gen_rate_bps=10**6), seed=seed)


def test_bernoulli_mode_mix_and_domination():
    params = ConsensusParams()
    trace, metrics = simulate_chain(params, 100_000, seed=0, mode="bernoulli")
    frac_confirm = float((trace.outcomes == 1).mean())
    frac_fork = float((trace.outcomes == -1).mean())
    frac_empty = float((trace.outcomes == 0).mean())
    assert abs(frac_confirm - 0.675) < 0.01
    assert abs(frac_fork - 0.225) < 0.01
    assert abs(frac_empty - 0.10) < 0.01
    assert metrics.dominated()


def test_bernoulli_zero_adversary():
    params = ConsensusParams(alpha=0.0, beta=0.10)
    trace, metrics = simulate_chain(params, 20_000, seed=1, mode="bernoulli")
    assert (trace.outcomes != -1).all()
    assert metrics.finality_histogram[0] > 0.85 * metrics.finality_histogram.sum()


def test_network_mode_zero_adversary_safety():
    params = ConsensusParams(alpha=0.0)
    nodes = make_validators(20, 0.0, seed=2)
    trace, metrics = simulate_chain(
        params, 800, nodes=nodes, link=LinkModel(), seed=2, mode="network", kms=funded_kms(2)
    )
    assert (trace.outcomes != -1).all()
    assert metrics.dominated()


def test_network_mode_block_interval_calibration():
    params = ConsensusParams()
    pool = KeyPoolState(balance_bits=10**9, capacity_bits=10**9, gen_rate_bps=10**6)
    kms = KmsReplica(0, pool, seed=3)
    nodes = make_validators(20, 0.25, seed=3)
    trace, _ = simulate_chain(params, 1500, nodes=nodes, link=LinkModel(), seed=3, mode="network", kms=kms)
    assert 0.9 * 65.0 <= trace.block_interval_ms <= 1.1 * 65.0


def test_network_mode_entropy_starvation_stalls_elections():
    params = ConsensusParams()
    nodes = make_validators(10, 0.25, seed=4)
    rich = KmsReplica(0, KeyPoolState(balance_bits=10**9, capacity_bits=10**9, gen_rate_bps=10**6), seed=4)
    poor = KmsReplica(
        0, KeyPoolState(balance_bits=256, capacity_bits=1024, gen_rate_bps=50.0), seed=4
    )
    link = LinkModel()
    trace_rich, _ = simulate_chain(params, 400, nodes=nodes, link=link, seed=4, mode="network", kms=rich)
    trace_poor, _ = simulate_chain(params, 400, nodes=nodes, link=link, seed=4, mode="network", kms=poor)
    empty_rich = float((trace_rich.outcomes == 0).mean())
    empty_poor = float((trace_poor.outcomes == 0).mean())
    assert empty_poor > empty_rich + 0.5
    assert trace_digest(trace_poor) == "042a210f1c6e00c427c0a1cdecd415a9d60ed079a0bf9ef2272c4a77df75b414"


def test_network_mode_full_target_rate_keeps_every_slot_led():
    # at target rate 1 the threshold controller's operating point is
    # h_q = h_max = 1, where every validator leads every height
    params = ConsensusParams(target_block_rate=1.0)
    nodes = make_validators(20, 0.25, seed=7)
    trace, _ = simulate_chain(
        params, 150, nodes=nodes, link=LinkModel(), seed=7, mode="network", kms=funded_kms(7)
    )
    assert (trace.outcomes != 0).all()


def test_network_mode_equivocation():
    # every Byzantine-led height is a fork; the digest is sha256 of the
    # outcomes and mean interval (see trace_digest), with every salt rented
    # from the key service
    params = ConsensusParams()
    nodes = make_validators(15, 0.25, seed=5)
    trace, metrics = simulate_chain(
        params, 500, nodes=nodes, link=LinkModel(), seed=5, mode="network", kms=funded_kms(5)
    )
    assert len(trace) == 500
    assert (trace.outcomes == -1).any()
    assert metrics.dominated()
    assert trace_digest(trace) == "5fa78b3fcac340b585b1357eb6077be41859ba35bdeb1af6e29a0ec4b0b6a1a6"


def test_network_mode_needs_validators_link_and_key_service():
    # the key service is network mode's one salt source: no seeded fallback
    params = ConsensusParams()
    given = dict(nodes=make_validators(10, 0.25, seed=8), link=LinkModel(), kms=funded_kms(8))
    for missing in given:
        kwargs = {k: v for k, v in given.items() if k != missing}
        with pytest.raises(ValueError, match="network mode needs"):
            simulate_chain(params, 10, seed=8, mode="network", **kwargs)
    trace, _ = simulate_chain(params, 10, seed=8, mode="network", **given)
    assert len(trace) == 10


def test_make_validators_keeps_byzantine_weight_below_a_third():
    # a count below n/3 is round(alpha n), as it always was; a count at or
    # above it is refused, since the honest weight would never reach the
    # 2/3 quorum (20 validators at alpha 0.33 would make 7 Byzantine)
    alphas = [k / 60 for k in range(20)] + [0.25, 0.3, 0.33, math.nextafter(1 / 3, 0)]
    refused = set()
    for n in range(1, 101):
        for alpha in alphas:
            k = int(round(alpha * n))
            try:
                nodes = make_validators(n, alpha, seed=n)
            except ValueError as exc:
                assert "at least 1/3 of the weight" in str(exc)
                assert 3 * k >= n
                refused.add((n, alpha))
                continue
            assert 3 * k < n
            assert [node.byzantine for node in nodes] == [i < k for i in range(n)]
            assert all(node.weight == 1.0 / n for node in nodes)
    assert (20, 0.33) in refused
    assert (20, 0.3) not in refused


def test_simulate_chain_validation():
    with pytest.raises(ValueError):
        simulate_chain(ConsensusParams(), 0)
    with pytest.raises(ValueError):
        simulate_chain(ConsensusParams(), 10, mode="bogus")
    with pytest.raises(ValueError):
        ConsensusParams(alpha=0.34)
    for bits in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="security_bits"):
            ConsensusParams(security_bits=bits)


def test_metrics_shapes_and_bounds_pairing():
    params = ConsensusParams()
    trace, metrics = simulate_chain(params, 5000, seed=6, mode="bernoulli", max_depth=30)
    assert len(metrics.depths) == 30
    assert metrics.fork_tail_bounds[0] == pytest.approx(fork_tail_bound(0.25, 1))
    assert metrics.fork_tail_bounds[-1] == pytest.approx(fork_tail_bound(0.25, 30))
    # one tail at depths 1 ... 31 holds both series against the one bound array
    assert len(metrics.fork_tail_empirical) == 31
    assert np.array_equal(metrics.fork_tail_empirical[:-1], fork_persistence_tail(trace.outcomes, 30))
    assert np.array_equal(metrics.fork_tail_empirical[1:], cp_violation_fraction(trace.outcomes, 30))
    assert metrics.growth_bounds[9] == pytest.approx(chain_growth_bound(0.25, 0.10, 0.20, 10))
    # tails are monotone non-increasing
    assert (np.diff(metrics.fork_tail_empirical) <= 1e-12).all()


# ---------------------------------------------------------------------------
# vectorized kernels vs the scalar loops they replaced
# ---------------------------------------------------------------------------


def loop_forward_streaks(outcomes):
    streak = np.zeros(len(outcomes) + 1, dtype=np.int64)
    for h in range(len(outcomes) - 1, -1, -1):
        streak[h] = streak[h + 1] + 1 if outcomes[h] == -1 else 0
    return streak[:-1]


def streak_fork_tail(outcomes, max_depth):
    """The fork tail as a histogram of every height's streak, capped at max_depth."""
    streaks = loop_forward_streaks(outcomes)
    counts = np.bincount(np.minimum(streaks, max_depth), minlength=max_depth + 1)
    tail = np.cumsum(counts[::-1])[::-1]
    return tail[1 : max_depth + 1] / float(len(streaks))


def sort_finality_depths(outcomes, max_depth):
    """finality_depths by one sort of every height's (level, index) key."""
    blocks = np.flatnonzero(outcomes[: max(len(outcomes) - max_depth, 0)] == 1)
    depths = np.ones(len(blocks), dtype=np.int64)
    later = np.flatnonzero(outcomes[blocks + 1] != 1)
    h = blocks[later]
    s = np.concatenate(([0], np.cumsum(outcomes, dtype=np.int64)))
    width = len(s)
    level = s - s.min()
    keys = np.sort(level * width + np.arange(width))
    target = level[h + 1] + 1
    pos = np.searchsorted(keys, target * width + h + 2)
    hit = keys[np.minimum(pos, width - 1)]
    reached = (pos < width) & (hit // width == target)
    d = hit % width - h - 1
    depths[later] = np.where(reached & (d <= max_depth), d, 0)
    return depths[depths > 0]


def loop_finality_depths(outcomes, max_depth):
    s = np.concatenate(([0], np.cumsum(outcomes, dtype=np.int64)))
    total = len(outcomes)
    depths = []
    for h in range(total - max_depth):
        if outcomes[h] != 1:
            continue
        base = s[h + 1]
        for d in range(1, max_depth + 1):
            if s[h + d + 1] - base >= 1:
                depths.append(d)
                break
    return np.asarray(depths, dtype=np.int64)


def loop_growth_violation(outcomes, epsilon, alpha, beta, max_depth):
    confirmed = np.concatenate(([0], np.cumsum(outcomes == 1, dtype=np.int64)))
    rate = (1.0 - epsilon) * (1.0 - alpha) * (1.0 - beta)
    out = np.zeros(max_depth)
    for t in range(1, max_depth + 1):
        if t > len(outcomes):
            break
        grown = confirmed[t:] - confirmed[:-t]
        out[t - 1] = np.mean(grown <= rate * t + 1e-12)
    return out


def oracle_sequences():
    rng = np.random.default_rng(11)
    mixes = ([0.675, 0.225, 0.10], [0.4, 0.5, 0.1], [0.2, 0.3, 0.5], [0.9, 0.05, 0.05])
    for mix in mixes:
        for n in (1, 2, 5, 40, 81, 300, 2000):
            yield rng.choice(np.array([1, -1, 0], dtype=np.int8), size=n, p=mix)
    for n in (0, 1, 7, 80, 81, 200):
        for value in (-1, 0, 1):
            yield np.full(n, value, dtype=np.int8)


def test_fork_tail_matches_loop_streaks():
    with np.errstate(invalid="ignore"):   # the empty trace's tail is 0 / 0
        for outcomes in oracle_sequences():
            for max_depth in (1, 2, 5, 81):
                fast = fork_persistence_tail(outcomes, max_depth)
                slow = streak_fork_tail(outcomes, max_depth)
                assert fast.tobytes() == slow.tobytes(), (len(outcomes), max_depth)


# (alpha, beta): the paper mix, no forks (the CDF repeats an entry), no
# empty slots, neither, and a mostly empty chain
BERNOULLI_MIXES = ((0.25, 0.10), (0.0, 0.10), (0.3, 0.0), (0.0, 0.0), (0.1, 0.5))


@pytest.mark.parametrize("alpha,beta", BERNOULLI_MIXES)
def test_bernoulli_draw_matches_choice(alpha, beta):
    params = ConsensusParams(alpha=alpha, beta=beta)
    p = [(1.0 - beta) * (1.0 - alpha), (1.0 - beta) * alpha, beta]
    for seed in range(50):
        for horizon in (1, 2, 7, 1000):
            expected = substream(seed, "porlite", "bernoulli").choice(
                np.array([1, -1, 0], dtype=np.int8), size=horizon, p=p
            )
            trace = _simulate_bernoulli(params, horizon, seed)
            assert trace.outcomes.dtype == np.int8
            assert trace.outcomes.tobytes() == expected.tobytes(), (seed, horizon)


def test_finality_depths_match_sort_on_paper_traces():
    for seed in range(3):
        outcomes = _simulate_bernoulli(ConsensusParams(), 100_000, seed).outcomes
        for max_depth in (80, 200):
            fast = finality_depths(outcomes, max_depth)
            assert fast.tobytes() == sort_finality_depths(outcomes, max_depth).tobytes()


def test_finality_depths_match_loop():
    rng = np.random.default_rng(12)
    for outcomes in oracle_sequences():
        for max_depth in (1, 2, 3, int(rng.integers(4, 80)), 80):
            fast = finality_depths(outcomes, max_depth)
            slow = loop_finality_depths(outcomes, max_depth)
            assert fast.dtype == np.int64
            assert np.array_equal(fast, slow), (len(outcomes), max_depth)


def test_growth_violation_identical_to_float_threshold():
    # at eps = 0.9 the rate rounds to just below 0.1, so 10 * rate falls
    # short of 1 and only the 1e-12 slack admits a window of one confirmation
    for outcomes in oracle_sequences():
        for eps, alpha, beta in ((0.2, 0.25, 0.1), (0.9, 0.0, 0.0), (0.01, 0.3, 0.6)):
            fast = growth_violation_fraction(outcomes, eps, alpha, beta, 80)
            slow = loop_growth_violation(outcomes, eps, alpha, beta, 80)
            assert fast.tobytes() == slow.tobytes()


def test_growth_violation_identical_across_count_dtypes():
    # the window counts are uint8 up to max_depth 255 and uint16 above; an
    # all-confirm trace fills them to max_depth, and traces shorter than
    # max_depth (down to empty) leave the deeper entries at zero
    rng = np.random.default_rng(13)
    traces = [np.ones(600, dtype=np.int8), np.zeros(0, dtype=np.int8)]
    for n in (1, 100, 254, 255, 256, 299, 301, 1000):
        traces.append(rng.choice(np.array([1, -1, 0], dtype=np.int8), size=n, p=[0.675, 0.225, 0.10]))
    for outcomes in traces:
        for max_depth in (255, 256, 300):
            for eps, alpha, beta in ((0.2, 0.25, 0.1), (0.9, 0.0, 0.0)):
                fast = growth_violation_fraction(outcomes, eps, alpha, beta, max_depth)
                slow = loop_growth_violation(outcomes, eps, alpha, beta, max_depth)
                assert fast.tobytes() == slow.tobytes(), (len(outcomes), max_depth)


def test_finality_depths_below_depth_one_is_empty():
    for outcomes in oracle_sequences():
        for max_depth in (0, -1):
            fast = finality_depths(outcomes, max_depth)
            assert fast.dtype == np.int64
            assert len(fast) == 0
