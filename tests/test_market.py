import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from qenergydex.market import (
    GridModel,
    MarketOutcome,
    NoConvergence,
    Prosumer,
    aggregate_response,
    clear_all_scenarios,
    follower_response,
    instance_from_json,
    instance_to_json,
    leader_cost,
    random_instance,
    security_coupled_clearing,
    solve_base,
    solve_social,
    solve_stackelberg,
    synthetic_grid_instance,
    welfare,
)
from qenergydex import market
from qenergydex.market import _leader_qp, _nnls


def toy_two_prosumer_one_line():
    prosumers = [
        Prosumer(0, 1.0, 10.0, 100.0, 0),
        Prosumer(1, 1.0, 6.0, 100.0, 0),
    ]
    grid = GridModel(
        ptdf=np.array([[1.0, 1.0]]),
        line_limits=np.array([12.0]),
        leader_q_diag=np.array([2.0]),   # leader cost u^2
        leader_c=np.array([0.0]),
    )
    return grid, prosumers


def line_violation(grid, prosumers, u):
    """Worst line overload at prices u, recomputed from the capped
    responses, relative to 1 + |limit|."""
    flows = grid.ptdf @ aggregate_response(prosumers, u, grid.ptdf)
    limits = grid.line_limits
    return float((np.maximum(0.0, flows - limits) / (1.0 + np.abs(limits))).max())


def toy_three_node():
    prosumers = [
        Prosumer(0, 1.0, 8.0, 20.0, 0),
        Prosumer(1, 2.0, 5.0, 20.0, 1),
        Prosumer(2, 0.5, 12.0, 20.0, 2),
    ]
    grid = GridModel(
        ptdf=np.array([[1.0, 0.5, 0.8]]),
        line_limits=np.array([9.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    return grid, prosumers


# ---------------------------------------------------------------------------
# follower responses
# ---------------------------------------------------------------------------


def test_follower_response_interior():
    p = Prosumer(0, 2.0, 10.0, 100.0, 0)
    assert follower_response(p, np.array([4.0]), np.array([1.0])) == 12.0


def test_follower_response_indifference_and_clip():
    p = Prosumer(0, 2.0, 10.0, 5.0, 0)
    assert follower_response(p, np.array([10.0]), np.array([1.0])) == 0.0
    assert follower_response(p, np.array([0.0]), np.array([1.0])) == 5.0


def test_follower_response_rejects_negative_price():
    p = Prosumer(0, 1.0, 10.0, 5.0, 0)
    with pytest.raises(ValueError):
        follower_response(p, np.array([-1.0]), np.array([1.0]))


def test_follower_monotone_in_price():
    p = Prosumer(0, 1.5, 9.0, 50.0, 0)
    h_col = np.array([0.7])
    vals = [follower_response(p, np.array([u]), h_col) for u in np.linspace(0, 20, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_aggregate_matches_matrix_form_without_caps():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, b = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        prosumers = [
            Prosumer(i, float(rng.uniform(0.5, 2.0)), float(rng.uniform(1, 10)), 1e9, 0)
            for i in range(n)
        ]
        h = rng.normal(size=(b, n))
        u = rng.uniform(0, 2, size=b)
        loop = aggregate_response(prosumers, u, h)
        alpha = np.array([p.alpha for p in prosumers])
        pi = np.array([p.pi for p in prosumers])
        matrix = alpha * (pi - h.T @ u)
        assert np.abs(loop - matrix).max() < 1e-12


def test_aggregate_clipped_loop_is_authoritative():
    prosumers = [Prosumer(0, 2.0, 10.0, 5.0, 0)]
    out = aggregate_response(prosumers, np.array([0.0]), np.array([[1.0]]))
    assert out[0] == 5.0


# ---------------------------------------------------------------------------
# leader solvers vs grid-search oracles
# ---------------------------------------------------------------------------


def test_stackelberg_toy_vs_grid_search():
    grid, prosumers = toy_two_prosumer_one_line()
    outcome = solve_stackelberg(grid, prosumers, tol=1e-6)

    # dense scan of the scalar leader variable
    us = np.arange(0.0, 10.0, 1e-4)
    alpha = np.array([1.0, 1.0])
    pi = np.array([10.0, 6.0])
    ps = np.clip(alpha[None, :] * (pi[None, :] - us[:, None]), -100, 100)
    flows = ps.sum(axis=1)
    feasible = flows <= 12.0 + 1e-9
    costs = np.where(feasible, us**2, np.inf)
    u_star = us[np.argmin(costs)]
    w_star = welfare(prosumers, ps[np.argmin(costs)])

    assert abs(outcome.u[0] - u_star) <= 1e-3
    assert abs(outcome.welfare - w_star) / abs(w_star) <= 1e-4
    assert outcome.kkt_residual <= 1e-6
    # single binding line: price concentrates on it, slack is complementary
    slack = 12.0 - float((grid.ptdf @ outcome.p)[0])
    assert outcome.u[0] * slack <= 1e-5


def test_social_three_node_vs_multiplier_scan():
    grid, prosumers = toy_three_node()
    outcome = solve_social(grid, prosumers, tol=1e-8)

    # the one-line social optimum is exactly parametrized by the line
    # multiplier; a dense scan of it is an exhaustive search of the
    # one-dimensional KKT manifold
    alpha = np.array([1.0, 2.0, 0.5])
    pi = np.array([8.0, 5.0, 12.0])
    pmax = np.array([20.0, 20.0, 20.0])
    row = grid.ptdf[0]
    best_w = -np.inf
    for v in np.arange(0.0, 30.0, 1e-5):
        p = np.clip(alpha * (pi - v * row), -pmax, pmax)
        if float(row @ p) <= 9.0 + 1e-9:
            best_w = welfare(prosumers, p)
            break
    assert abs(outcome.welfare - best_w) / abs(best_w) <= 1e-4
    assert float((grid.ptdf @ outcome.p)[0]) <= 9.0 + 1e-6


def test_social_no_line_limits_interior_optimum():
    prosumers = [Prosumer(0, 2.0, 4.0, 100.0, 0), Prosumer(1, 1.0, 3.0, 100.0, 0)]
    grid = GridModel(
        ptdf=np.array([[0.3, 0.4]]),
        line_limits=np.array([1e9]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    outcome = solve_social(grid, prosumers)
    assert np.allclose(outcome.p, [8.0, 3.0], atol=1e-8)
    assert np.allclose(outcome.u, 0.0)


def test_stackelberg_unconstrained_zero_prices():
    prosumers = [Prosumer(0, 1.0, 5.0, 50.0, 0)]
    grid = GridModel(
        ptdf=np.array([[1.0]]),
        line_limits=np.array([100.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    outcome = solve_stackelberg(grid, prosumers)
    assert np.allclose(outcome.u, 0.0, atol=1e-9)
    assert outcome.p[0] == pytest.approx(5.0)


def test_stackelberg_permutation_invariance():
    grid, prosumers = random_instance(10, 3, seed=21)
    out1 = solve_stackelberg(grid, prosumers)
    perm = [7, 2, 9, 0, 5, 1, 8, 3, 6, 4]
    grid_p = GridModel(
        ptdf=grid.ptdf[:, perm],
        line_limits=grid.line_limits,
        leader_q_diag=grid.leader_q_diag,
        leader_c=grid.leader_c,
    )
    out2 = solve_stackelberg(grid_p, [prosumers[i] for i in perm])
    assert np.abs(out1.u - out2.u).max() <= 1e-5


def test_stackelberg_uniqueness_probe():
    grid, prosumers = toy_two_prosumer_one_line()
    rng = np.random.default_rng(5)
    solutions = []
    for _ in range(10):
        u0 = rng.uniform(0.0, 5.0, size=1)
        solutions.append(solve_stackelberg(grid, prosumers, u0=u0).u[0])
    assert max(solutions) - min(solutions) <= 1e-5


def test_stackelberg_cs_on_single_line_instances():
    # with one line the leader concentrates price exactly on the binding
    # constraint: u * slack vanishes (multi-line quadratic costs spread
    # prices across coupled lines, so the per-line product is only
    # meaningful in the decoupled case)
    rng = np.random.default_rng(31)
    for k in range(20):
        grid, prosumers = random_instance(8, 1, seed=100 + k)
        outcome = solve_stackelberg(grid, prosumers)
        slack = grid.line_limits - grid.ptdf @ outcome.p
        cs = float(np.abs(outcome.u * slack).max())
        assert cs <= 1e-4 * (1.0 + float(np.abs(grid.line_limits).max()))


def test_stack_certified_on_instance_without_reachability_lift():
    # the raw generator recipe without the reachability lift. Limits are
    # positive, so injections p = 0 are a Slater point of SOCIAL's problem:
    # its dual price is attained and relieves every line. Some leader price
    # is always feasible, and STACK must find one no dearer than SOCIAL's
    from qenergydex.rng import substream

    rng = substream(0, "market", "instance")
    prosumers = [
        Prosumer(
            id=i,
            alpha=float(rng.lognormal(0.0, 0.4)),
            pi=float(np.clip(rng.normal(10.0, 2.0), 0.5, None)),
            p_max=float(rng.lognormal(1.6, 0.5)),
            bus=int(rng.integers(0, 6)),
        )
        for i in range(12)
    ]
    alpha = np.array([p.alpha for p in prosumers])
    pi = np.array([p.pi for p in prosumers])
    pmax = np.array([p.p_max for p in prosumers])
    h = rng.normal(0.0, 1.0, size=(4, 12))
    h *= rng.random(size=h.shape) < 0.6
    h /= np.maximum(np.linalg.norm(h, axis=1), 1e-9)[:, None]
    flows0 = np.abs(h @ np.clip(alpha * pi, -pmax, pmax))
    floor = max(float(flows0.max()), 1.0) * 0.05
    limits = np.maximum(flows0 * rng.uniform(0.75, 1.6, size=4), floor)
    grid = GridModel(
        ptdf=h, line_limits=limits, leader_q_diag=np.ones(4), leader_c=np.zeros(4)
    )
    stack = solve_stackelberg(grid, prosumers)
    social = solve_social(grid, prosumers)
    assert line_violation(grid, prosumers, stack.u) <= 1e-6
    assert stack.feasible
    # SOCIAL's price costs the leader 35.31 here
    assert leader_cost(grid, stack.u) <= leader_cost(grid, social.u)


# ---------------------------------------------------------------------------
# BASE / WBASE
# ---------------------------------------------------------------------------


def test_base_equals_unconstrained_when_feasible():
    prosumers = [Prosumer(0, 1.0, 3.0, 50.0, 0), Prosumer(1, 1.0, 2.0, 50.0, 0)]
    grid = GridModel(
        ptdf=np.array([[0.1, 0.1]]),
        line_limits=np.array([100.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    base = solve_base(grid, prosumers)
    wbase = solve_base(grid, prosumers, weighted=True)
    assert np.allclose(base.p, [3.0, 2.0])
    assert np.allclose(base.p, wbase.p)


def test_base_scaling_makes_worst_line_exactly_binding():
    prosumers = [Prosumer(0, 1.0, 10.0, 100.0, 0), Prosumer(1, 1.0, 10.0, 100.0, 0)]
    grid = GridModel(
        ptdf=np.array([[1.0, 1.0]]),
        line_limits=np.array([12.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    base = solve_base(grid, prosumers)
    # scaling factor is limit / flow = 12/20
    assert np.allclose(base.p, [6.0, 6.0])
    assert (grid.ptdf @ base.p)[0] == pytest.approx(12.0)
    assert base.feasible


def test_wbase_beats_base_on_heterogeneous_alpha():
    strict = 0
    for seed in range(40):
        grid, prosumers = random_instance(10, 2, seed=400 + seed, congestion=0.55)
        base = solve_base(grid, prosumers)
        wbase = solve_base(grid, prosumers, weighted=True)
        assert wbase.welfare >= base.welfare - 1e-9
        assert wbase.feasible
        if wbase.welfare > base.welfare + 1e-9:
            strict += 1
    assert strict > 0   # the weighted relief genuinely wins somewhere


# ---------------------------------------------------------------------------
# dominance and scenario sweep
# ---------------------------------------------------------------------------


def test_welfare_dominance_chain_random_instances():
    instances = [random_instance(12, 4, seed=seed) for seed in range(60)]
    # two larger instances with local leader optima dearer than SOCIAL's
    # price (leader costs 26.77 vs 25.47 and 103.77 vs 24.06)
    instances += [random_instance(20, 5, seed=seed) for seed in (26, 40)]
    for grid, prosumers in instances:
        outs = clear_all_scenarios(grid, prosumers)
        w = {k: o.welfare for k, o in outs.items()}
        slack = 1e-6 * (1.0 + abs(w["SOCIAL"]))
        assert w["SOCIAL"] >= w["STACK"] - slack
        assert w["SOCIAL"] >= w["WBASE"] - slack
        assert w["WBASE"] >= w["BASE"] - 1e-9
        assert w["WBASE"] >= 0.0
        assert line_violation(grid, prosumers, outs["STACK"].u) <= 1e-6
        social_cost = leader_cost(grid, outs["SOCIAL"].u)
        assert leader_cost(grid, outs["STACK"].u) <= social_cost * (1 + 1e-9) + 1e-9


# ---------------------------------------------------------------------------
# NNLS and the leader QP
# ---------------------------------------------------------------------------


def nnls_problems():
    """Seeded NNLS problems: tall and wide random ones, duplicated columns
    (rank-deficient), zero columns, b = 0, and b inside the cone of the
    columns (a zero residual). The second seed has wide problems whose
    last passive set is ill-conditioned (cond 5e3): without the Gram
    solve's correction step their residual is rounding times 1e4."""
    problems = []
    for i in range(200):
        if i % 100 == 0:
            rng = np.random.default_rng((2024, 10_003)[i // 100])
        m, n = (int(v) for v in rng.integers(2, 30, size=2))
        a = rng.normal(size=(m, n)) * np.exp(rng.uniform(-2.0, 2.0, size=n))
        b = rng.normal(size=m)
        kind = i % 5
        if kind == 1 and n > 1:
            src = rng.integers(0, n, size=max(1, n // 3))
            a[:, rng.integers(0, n, size=src.size)] = a[:, src]
        elif kind == 2:
            a[:, rng.random(n) < 0.3] = 0.0
        elif kind == 3:
            b = np.zeros(m)
        elif kind == 4:
            b = a @ (rng.uniform(0.5, 2.0, size=n) * (rng.random(n) < 0.5))
        problems.append((a, b))
    return problems


def assert_nnls_solution(a, b, z):
    """Residual norm equal to scipy's and the NNLS KKT conditions."""
    # both residuals evaluated alike (scipy's own rnorm is less accurate)
    rnorm = float(np.linalg.norm(a @ scipy_nnls(a, b)[0] - b))
    res = float(np.linalg.norm(a @ z - b))
    b_norm = float(np.linalg.norm(b))
    if rnorm > 1e-9 * b_norm:
        # plus the rounding of evaluating either residual from terms of size |b|
        assert abs(res - rnorm) <= 1e-12 * rnorm + 1e-14 * b_norm
    else:
        # b lies in the cone of the columns: both residuals are rounding
        assert res <= 1e-12 * max(b_norm, 1.0)
    tol = 1e-11 * float(np.linalg.norm(a, axis=0).max()) * max(b_norm, 1.0)
    w = a.T @ (b - a @ z)
    assert (z >= 0).all()
    assert (w[z == 0] <= tol).all()
    assert (np.abs(w[z > 0]) <= tol).all()


def cold(a):
    return np.zeros(a.shape[1], dtype=bool)


def test_nnls_matches_scipy_and_kkt():
    for a, b in nnls_problems():
        assert_nnls_solution(a, b, _nnls(a, b, cold(a)))


def test_nnls_warm_start_from_any_passive_set():
    rng = np.random.default_rng(7)
    for a, b in nnls_problems():
        n = a.shape[1]
        z_scipy, _ = scipy_nnls(a, b)
        for passive in (
            np.zeros(n, dtype=bool),
            np.ones(n, dtype=bool),
            rng.random(n) < 0.5,
            z_scipy > 0,
        ):
            before = passive.copy()
            assert_nnls_solution(a, b, _nnls(a, b, passive))
            assert np.array_equal(passive, before)      # the caller's mask is not touched


def test_nnls_terminates_on_nearly_dependent_columns():
    # a third of the columns repeat others up to 1e-7: the independence
    # test and the exact zero of the column that blocks a step keep the
    # method from cycling to its cap. The Gram solves lose accuracy here,
    # so the residual is held to scipy's within 1e-6 |b| only.
    for seed in (4, 7):
        rng = np.random.default_rng(seed)
        for trial in range(40):
            m, n = int(rng.integers(3, 40)), int(rng.integers(3, 80))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            a[:, : n // 3] = a[:, n - n // 3:] + 1e-7 * rng.normal(size=(m, n // 3))
            if trial % 2:
                b = a @ (np.abs(rng.normal(size=n)) * (rng.random(n) < 0.3))
            z = _nnls(a, b, cold(a))
            assert (z >= 0).all()
            ref = np.linalg.norm(a @ scipy_nnls(a, b)[0] - b)
            assert np.linalg.norm(a @ z - b) <= ref + 1e-6 * np.linalg.norm(b)


def test_nnls_simple_cases():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z = _nnls(a, np.array([2.0, 1.0, 1.0]), cold(a))
    assert z == pytest.approx([1.5, 1.0], abs=1e-15)
    assert np.array_equal(_nnls(a, np.array([-1.0, -1.0, -1.0]), cold(a)), [0.0, 0.0])
    assert np.array_equal(_nnls(a, np.zeros(3), np.ones(2, dtype=bool)), [0.0, 0.0])
    assert np.array_equal(_nnls(np.zeros((3, 2)), np.ones(3), cold(a)), [0.0, 0.0])


def test_nnls_iteration_cap_raises(monkeypatch):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(40, 10))
    b = a @ rng.uniform(1.0, 2.0, size=10)      # every column is needed
    z = _nnls(a, b, cold(a))                      # within the cap of 3n solves
    assert (z > 0).all()
    # from a cold start each of the 10 positive weights costs one solve
    monkeypatch.setattr(market, "_NNLS_SOLVES_PER_COLUMN", 0.9)
    with pytest.raises(NoConvergence):
        _nnls(a, b, cold(a))
    monkeypatch.setattr(market, "_NNLS_SOLVES_PER_COLUMN", 1)
    assert np.allclose(_nnls(a, b, cold(a)), z, rtol=0, atol=1e-12)


def test_leader_qp_point_is_feasible_and_start_independent():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n_lines, n_free = int(rng.integers(1, 8)), int(rng.integers(1, 15))
        h = rng.normal(size=(n_lines, n_free)) * (rng.random((n_lines, n_free)) < 0.6)
        m = (h * rng.lognormal(0.0, 0.4, size=n_free)) @ h.T
        u0 = np.abs(rng.normal(size=n_lines)) * (rng.random(n_lines) < 0.7)
        b = m @ u0 - np.abs(rng.normal(size=n_lines))         # u0 is feasible
        q = rng.uniform(0.5, 2.0, size=n_lines)
        c = rng.normal(size=n_lines) * (trial % 2)
        points = []
        for passive in (np.zeros(2 * n_lines, dtype=bool), np.ones(2 * n_lines, dtype=bool)):
            u, active = _leader_qp(m, b, q, c, passive)
            tol = 1e-9 * (1.0 + np.abs(b))
            assert (u >= 0).all()
            assert (m @ u >= b - tol).all()
            # no dearer than the feasible point it was given
            cost = 0.5 * q @ (u * u) + c @ u
            assert cost <= 0.5 * q @ (u0 * u0) + c @ u0 + 1e-9
            assert active.shape == (2 * n_lines,)
            # a row with a positive multiplier holds with equality, and rows
            # of lines no free follower loads are never active
            assert np.allclose((m @ u)[active[:n_lines]], b[active[:n_lines]], rtol=1e-9, atol=1e-9)
            assert (u[active[n_lines:]] <= 1e-12).all()
            assert not active[:n_lines][np.linalg.norm(m, axis=1) == 0].any()
            points.append(u)
        u_warm, _ = _leader_qp(m, b, q, c, active)
        points.append(u_warm)
        for other in points[1:]:
            assert np.allclose(other, points[0], rtol=1e-10, atol=1e-10)


def test_stackelberg_warm_start_state_is_per_call():
    # the descent's NNLS warm start lives inside one call, so repeated
    # solves in one process give the same bytes
    grid, prosumers = random_instance(20, 5, seed=26)
    first = solve_stackelberg(grid, prosumers)
    second = solve_stackelberg(grid, prosumers)
    assert first.u.tobytes() == second.u.tobytes()
    assert first.iterations == second.iterations


# ---------------------------------------------------------------------------
# security-coupled participation
# ---------------------------------------------------------------------------


def test_security_filter_admits_all_with_slack_budget():
    grid, prosumers = random_instance(15, 3, seed=7)
    latencies = np.full(15, 10.0)
    keep, outcomes = security_coupled_clearing(
        grid, prosumers, 1e12, 1e9, latencies, 256.0
    )
    assert len(keep) == 15
    unfiltered = clear_all_scenarios(grid, prosumers)
    for s in outcomes:
        assert outcomes[s].welfare == pytest.approx(unfiltered[s].welfare, rel=1e-9)


def test_security_filter_zero_budget_empty_market():
    grid, prosumers = random_instance(8, 2, seed=8)
    keep, outcomes = security_coupled_clearing(
        grid, prosumers, 0.0, 1e9, np.full(8, 1.0), 256.0
    )
    assert len(keep) == 0
    assert all(outcomes[s].welfare == 0.0 for s in outcomes)


def test_security_filter_latency_and_budget_interaction():
    grid, prosumers = random_instance(6, 2, seed=9)
    latencies = np.array([10.0, 500.0, 10.0, 10.0, 500.0, 10.0])
    keep, _ = security_coupled_clearing(
        grid, prosumers, 3 * 256.0, 100.0, latencies, 256.0
    )
    # nodes 1 and 4 miss the deadline; budget then admits 0, 2, 3 in order
    assert list(keep) == [0, 2, 3]


def test_security_filter_scale_invariance_in_valuations():
    grid, prosumers = random_instance(10, 2, seed=10)
    latencies = np.linspace(5, 200, 10)
    keep1, _ = security_coupled_clearing(grid, prosumers, 6 * 256.0, 120.0, latencies, 256.0)
    scaled = [
        Prosumer(p.id, p.alpha, p.pi * 37.0, p.p_max, p.bus) for p in prosumers
    ]
    keep2, _ = security_coupled_clearing(grid, scaled, 6 * 256.0, 120.0, latencies, 256.0)
    assert list(keep1) == list(keep2)


# ---------------------------------------------------------------------------
# instances and serialization
# ---------------------------------------------------------------------------


def test_instance_json_roundtrip():
    grid, prosumers = random_instance(5, 2, seed=11)
    text = instance_to_json(grid, prosumers)
    grid2, prosumers2 = instance_from_json(text)
    assert np.allclose(grid.ptdf, grid2.ptdf)
    assert np.allclose(grid.line_limits, grid2.line_limits)
    assert np.allclose(grid.leader_q_diag, grid2.leader_q_diag)
    assert [p.alpha for p in prosumers] == [p.alpha for p in prosumers2]
    assert [p.bus for p in prosumers] == [p.bus for p in prosumers2]


def test_synthetic_grid_shape():
    grid, prosumers = synthetic_grid_instance(300, n_buses=50, n_lines=40, seed=12)
    assert grid.ptdf.shape == (40, 300)
    assert len(prosumers) == 300
    assert all(0 <= p.bus < 50 for p in prosumers)
    assert (grid.line_limits > 0).all()


def test_grid_model_validation():
    with pytest.raises(ValueError):
        GridModel(
            ptdf=np.array([[1.0]]),
            line_limits=np.array([-1.0]),
            leader_q_diag=np.array([1.0]),
            leader_c=np.array([0.0]),
        )
    with pytest.raises(ValueError):
        GridModel(
            ptdf=np.array([[1.0]]),
            line_limits=np.array([1.0]),
            leader_q_diag=np.array([0.0]),
            leader_c=np.array([0.0]),
        )
    with pytest.raises(ValueError):
        Prosumer(0, -1.0, 5.0, 10.0, 0)
