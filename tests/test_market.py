import hashlib

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from qenergydex.market import (
    PROSUMER,
    SCENARIOS,
    GridModel,
    MarketOutcome,
    NoConvergence,
    aggregate_response,
    clear_all_scenarios,
    follower_response,
    grid_response,
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


def records(*rows):
    """Followers from (alpha, pi, p_max, bus) rows."""
    return np.array(list(rows), dtype=PROSUMER)


def toy_two_prosumer_one_line():
    prosumers = records((1.0, 10.0, 100.0, 0), (1.0, 6.0, 100.0, 0))
    grid = GridModel(
        bus_ptdf=np.array([[1.0, 1.0]]),
        bus=np.arange(2),
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
    prosumers = records((1.0, 8.0, 20.0, 0), (2.0, 5.0, 20.0, 1), (0.5, 12.0, 20.0, 2))
    grid = GridModel(
        bus_ptdf=np.array([[1.0, 0.5, 0.8]]),
        bus=np.arange(3),
        line_limits=np.array([9.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    return grid, prosumers


# ---------------------------------------------------------------------------
# follower responses
# ---------------------------------------------------------------------------


def test_follower_response_interior():
    p = records((2.0, 10.0, 100.0, 0))[0]
    assert follower_response(p, np.array([4.0]), np.array([1.0])) == 12.0


def test_follower_response_indifference_and_clip():
    p = records((2.0, 10.0, 5.0, 0))[0]
    assert follower_response(p, np.array([10.0]), np.array([1.0])) == 0.0
    assert follower_response(p, np.array([0.0]), np.array([1.0])) == 5.0


def test_follower_response_rejects_negative_price():
    p = records((1.0, 10.0, 5.0, 0))[0]
    with pytest.raises(ValueError):
        follower_response(p, np.array([-1.0]), np.array([1.0]))


def test_follower_monotone_in_price():
    p = records((1.5, 9.0, 50.0, 0))[0]
    h_col = np.array([0.7])
    vals = [follower_response(p, np.array([u]), h_col) for u in np.linspace(0, 20, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_aggregate_matches_matrix_form_without_caps():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, b = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        prosumers = records(*[(rng.uniform(0.5, 2.0), rng.uniform(1, 10), 1e9, 0) for i in range(n)])
        h = rng.normal(size=(b, n))
        u = rng.uniform(0, 2, size=b)
        loop = aggregate_response(prosumers, u, h)
        matrix = prosumers["alpha"] * (prosumers["pi"] - h.T @ u)
        assert np.abs(loop - matrix).max() < 1e-12


def test_aggregate_clipped_loop_is_authoritative():
    prosumers = records((2.0, 10.0, 5.0, 0))
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
    prosumers = records((2.0, 4.0, 100.0, 0), (1.0, 3.0, 100.0, 0))
    grid = GridModel(
        bus_ptdf=np.array([[0.3, 0.4]]),
        bus=np.arange(2),
        line_limits=np.array([1e9]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    outcome = solve_social(grid, prosumers)
    assert np.allclose(outcome.p, [8.0, 3.0], atol=1e-8)
    assert np.allclose(outcome.u, 0.0)


def test_stackelberg_unconstrained_zero_prices():
    prosumers = records((1.0, 5.0, 50.0, 0))
    grid = GridModel(
        bus_ptdf=np.array([[1.0]]),
        bus=np.arange(1),
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
    out2 = solve_stackelberg(grid.restrict(perm), [prosumers[i] for i in perm])
    assert np.abs(out1.u - out2.u).max() <= 1e-5


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


def test_stack_stops_where_a_line_reaches_its_limit_past_a_cap_kink():
    # From the probe start u = 10^1.2 follower 2 sits at its -p_max cap,
    # and the QP of that piece, u = 11 - 2 delta, overloads the line by
    # 2 delta / (1 + limit) = 1.05e-8 once the follower leaves its cap. The
    # walk toward it must stop where the line reaches its limit, at the
    # optimum u = 11 - delta, not take that overload for rounding
    delta = 1e-7
    prosumers = records((1.0, 30.0, 100.0, 0), (1.0, 10.0, 1.0, 1))
    grid = GridModel(bus_ptdf=np.array([[1.0, 1.0]]), bus=np.arange(2),
                     line_limits=np.array([18.0 + 2 * delta]),
                     leader_q_diag=np.ones(1), leader_c=np.zeros(1))
    stack = solve_stackelberg(grid, prosumers, tol=1e-12)
    assert stack.feasible and stack.kkt_residual <= 1e-12
    assert stack.u[0] == pytest.approx(11.0 - delta, rel=0, abs=1e-12)


def test_stack_certified_on_instance_without_reachability_lift():
    # the raw generator recipe without the reachability lift. Limits are
    # positive, so injections p = 0 are a Slater point of SOCIAL's problem:
    # its dual price is attained and relieves every line. Some leader price
    # is always feasible, and STACK must find one no dearer than SOCIAL's
    from qenergydex.rng import substream

    rng = substream(0, "market", "instance")
    prosumers = records(*[
        (rng.lognormal(0.0, 0.4), np.clip(rng.normal(10.0, 2.0), 0.5, None),
         rng.lognormal(1.6, 0.5), rng.integers(0, 6))
        for i in range(12)
    ])
    alpha, pi, pmax = prosumers["alpha"], prosumers["pi"], prosumers["p_max"]
    h = rng.normal(0.0, 1.0, size=(4, 12))
    h *= rng.random(size=h.shape) < 0.6
    h /= np.maximum(np.linalg.norm(h, axis=1), 1e-9)[:, None]
    flows0 = np.abs(h @ np.clip(alpha * pi, -pmax, pmax))
    floor = max(float(flows0.max()), 1.0) * 0.05
    limits = np.maximum(flows0 * rng.uniform(0.75, 1.6, size=4), floor)
    grid = GridModel(bus_ptdf=h, bus=np.arange(12), line_limits=limits,
                     leader_q_diag=np.ones(4), leader_c=np.zeros(4))
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
    prosumers = records((1.0, 3.0, 50.0, 0), (1.0, 2.0, 50.0, 0))
    grid = GridModel(
        bus_ptdf=np.array([[0.1, 0.1]]),
        bus=np.arange(2),
        line_limits=np.array([100.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    base, wbase = solve_base(grid, prosumers)
    assert np.allclose(base.p, [3.0, 2.0])
    assert np.allclose(base.p, wbase.p)


def test_base_scaling_makes_worst_line_exactly_binding():
    prosumers = records((1.0, 10.0, 100.0, 0), (1.0, 10.0, 100.0, 0))
    grid = GridModel(
        bus_ptdf=np.array([[1.0, 1.0]]),
        bus=np.arange(2),
        line_limits=np.array([12.0]),
        leader_q_diag=np.array([1.0]),
        leader_c=np.array([0.0]),
    )
    base, _wbase = solve_base(grid, prosumers)
    # scaling factor is limit / flow = 12/20
    assert np.allclose(base.p, [6.0, 6.0])
    assert (grid.ptdf @ base.p)[0] == pytest.approx(12.0)
    assert base.feasible


def test_wbase_beats_base_on_heterogeneous_alpha():
    strict = 0
    for seed in range(40):
        grid, prosumers = random_instance(10, 2, seed=400 + seed, congestion=0.55)
        base, wbase = solve_base(grid, prosumers)
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


def stacked_nnls_matrix(m, b, q, c):
    """The NNLS matrix of `_leader_qp` as the stacked [m; I] construction
    formed it, its kept rows, and the rounding scale of its last row: the
    magnitudes of the terms of b + [m; I] (c / q), summed, over the row
    norms."""
    rq = np.sqrt(q)
    g = np.vstack((m, np.eye(len(q))))
    e = g / rq
    f = np.concatenate((b, np.zeros(len(q)))) + g @ (c / q)
    norms = np.linalg.norm(e, axis=1)
    rows = norms > 1e-12 * norms.max()
    a = np.vstack(((e[rows] / norms[rows, None]).T, f[rows] / norms[rows]))
    scale = np.concatenate((np.abs(b), np.zeros(len(q)))) + np.abs(g) @ np.abs(c / q)
    return a, rows, scale[rows] / norms[rows]


def test_leader_qp_matrix_equals_the_stacked_construction(monkeypatch):
    # the block-built matrix against the stacked one, in bytes and in
    # memory order, with q != 1 and with rows of m dropped
    seen = []
    real = market._nnls

    def capture(a, b, passive):
        seen.append(a)
        return real(a, b, passive)

    monkeypatch.setattr(market, "_nnls", capture)
    rng = np.random.default_rng(17)
    dropped = 0
    for trial in range(200):
        n_lines, n_free = int(rng.integers(1, 41)), int(rng.integers(1, 60))
        h = rng.normal(size=(n_lines, n_free)) * (rng.random((n_lines, n_free)) < 0.6)
        h[rng.random(n_lines) < 0.25] = 0.0                   # lines no free follower loads
        m = (h * rng.lognormal(0.0, 0.4, size=n_free)) @ h.T
        b = m @ np.abs(rng.normal(size=n_lines)) - np.abs(rng.normal(size=n_lines))
        q = rng.uniform(0.5, 2.0, size=n_lines)
        c = rng.normal(size=n_lines) if trial % 2 else np.zeros(n_lines)
        _leader_qp(m, b, q, c, np.zeros(2 * n_lines, dtype=bool))
        a = seen.pop()
        ref, rows, scale = stacked_nnls_matrix(m, b, q, c)
        dropped += not rows.all()
        assert a.shape == ref.shape and a.flags.f_contiguous
        # with one line the stack's first block is one row, and numpy stacked
        # it in C order
        assert a.strides == ref.strides or n_lines == 1
        if trial % 2 == 0:
            assert a.tobytes() == ref.tobytes()
        else:
            # b + m (c / q) and the stacked product may round apart
            assert a[:-1].tobytes() == ref[:-1].tobytes()
            assert (np.abs(a[-1] - ref[-1]) <= 1e-15 * scale).all()
    assert dropped > 0


def test_stackelberg_warm_start_state_is_per_call():
    # the descent's NNLS warm start lives inside one call, so repeated
    # solves in one process give the same bytes
    grid, prosumers = random_instance(20, 5, seed=26)
    first = solve_stackelberg(grid, prosumers)
    second = solve_stackelberg(grid, prosumers)
    assert first.u.tobytes() == second.u.tobytes()
    assert first.iterations == second.iterations


@pytest.mark.parametrize("instance", ["paper", "random"])
def test_warm_started_nnls_pinned_to_the_cold_start_at_every_leader_qp(monkeypatch, instance):
    # _nnls returns the least squares on its final passive set, so the warm
    # starts of solve_stackelberg change its work, never one byte of z
    real = market._nnls
    warm_starts = []

    def warm_and_cold(a, b, passive):
        z = real(a, b, passive)
        assert z.tobytes() == real(a, b, np.zeros_like(passive)).tobytes()
        warm_starts.append(passive.any())
        return z

    monkeypatch.setattr(market, "_nnls", warm_and_cold)
    if instance == "paper":
        instances = [paper_instance()]
    else:
        instances = [random_instance(*shape, seed=seed)
                     for shape in ((12, 4), (20, 5), (8, 1), (10, 3)) for seed in range(10)]
    for grid, prosumers in instances:
        solve_stackelberg(grid, prosumers)
    assert any(warm_starts)


def test_stackelberg_threads_one_warm_start_through_every_qp(monkeypatch):
    # the first QP starts from SOCIAL's price pattern and every later one,
    # across both starts, from the mask of the QP before it
    real = market._leader_qp
    masks = []

    def recorded(m, b, q, c, passive):
        u, active = real(m, b, q, c, passive)
        masks.append((passive.copy(), active.copy()))
        return u, active

    monkeypatch.setattr(market, "_leader_qp", recorded)
    grid, prosumers = random_instance(20, 5, seed=26)
    social = solve_social(grid, prosumers)
    stack = solve_stackelberg(grid, prosumers, social=social)
    assert len(masks) == stack.iterations > 2
    assert np.array_equal(masks[0][0], np.concatenate((social.u > 0, social.u <= 0)))
    for (_, active), (passive, _) in zip(masks, masks[1:]):
        assert np.array_equal(passive, active)


def _outcome_bytes(o):
    return (o.u.tobytes(), o.p.tobytes(), o.welfare, o.scenario, o.feasible, o.iterations,
            o.kkt_residual)


def test_stackelberg_start_from_given_social_is_byte_equal():
    for shape in ((12, 4), (20, 5), (8, 1), (10, 3)):
        for seed in range(10):
            grid, prosumers = random_instance(*shape, seed=seed)
            given = solve_stackelberg(grid, prosumers, social=solve_social(grid, prosumers))
            assert _outcome_bytes(given) == _outcome_bytes(solve_stackelberg(grid, prosumers))


def test_clear_all_scenarios_solves_social_once(monkeypatch):
    calls = []
    real = market.solve_social

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(market, "solve_social", counted)
    grid, prosumers = random_instance(20, 5, seed=3)
    outcomes = clear_all_scenarios(grid, prosumers)
    assert len(calls) == 1
    assert _outcome_bytes(outcomes["STACK"]) == _outcome_bytes(solve_stackelberg(grid, prosumers))


def test_outcome_arrays_are_read_only():
    grid, prosumers = random_instance(12, 4, seed=3)
    for o in clear_all_scenarios(grid, prosumers).values():
        for arr in (o.u, o.p):
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr += 1.0
    # the read-only arrays are views: the caller's own stay writeable
    u = np.zeros(3)
    MarketOutcome(u=u, p=u, welfare=0.0, scenario="SOCIAL", feasible=True)
    u[0] = 1.0


# ---------------------------------------------------------------------------
# security-coupled participation
# ---------------------------------------------------------------------------


def test_security_filter_admits_all_with_slack_budget():
    # every node admitted: the same clear as on the whole grid, byte for
    # byte (the restricted grid holds the same map and shares the bus PTDF)
    for n, seed in ((15, 7), (10, 4)):
        grid, prosumers = random_instance(n, 3, seed=seed)
        keep, outcomes = security_coupled_clearing(
            grid, prosumers, 1e12, 1e9, np.full(n, 10.0), 256.0
        )
        assert len(keep) == n
        unfiltered = clear_all_scenarios(grid, prosumers)
        assert all(_outcome_bytes(outcomes[s]) == _outcome_bytes(unfiltered[s])
                   for s in SCENARIOS)


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


def test_security_filter_needs_one_latency_per_prosumer():
    # any other length is refused, not wrapped round onto the prosumers
    grid, prosumers = random_instance(6, 2, seed=9)
    for latencies in (np.full(3, 10.0), np.full(7, 10.0), np.zeros(0)):
        with pytest.raises(ValueError, match="one latency per prosumer"):
            security_coupled_clearing(grid, prosumers, 1e12, 100.0, latencies, 256.0)


def loop_admission(latencies, deadline, budget, cost_per_node):
    """The scalar admission loop, in index order: an on-time node is
    admitted when the k nodes admitted with it cost k * cost_per_node
    within the budget. That is one rounded product, not the running sum
    the loop once kept, which at fractional costs can overshoot a budget of
    cost * n and drop the last node.
    """
    admitted = []
    for i in range(len(latencies)):
        lat = latencies[i]
        if lat <= deadline and (len(admitted) + 1) * cost_per_node <= budget:
            admitted.append(i)
    return np.array(admitted, dtype=int)


def admission_cases():
    """(latencies, deadline, budget, cost): latencies at the deadline and
    NaN, a zero cost, costs whose running sum rounds away from k * cost,
    and budgets that admit everyone, no one, or cut the on-time nodes
    partway, at and just under that running sum among them."""
    rng = np.random.default_rng(13)
    for n in (1, 2, 7, 40):
        for _ in range(30):
            deadline = float(rng.choice([0.0, 100.0, 105.0, rng.uniform(0.0, 200.0)]))
            latencies = rng.uniform(0.0, 200.0, n)
            latencies[rng.random(n) < 0.2] = deadline
            latencies[rng.random(n) < 0.1] = np.nan
            cost = float(rng.choice([0.0, 0.1, 1.0 / 3.0, 256.0]))
            k = int(rng.integers(0, n + 1))
            running = 0.0
            for _ in range(k):
                running += cost
            for budget in (0.0, cost, cost * k, cost * n, running, np.nextafter(running, 0.0),
                           float(rng.uniform(0.0, cost * n + 1.0)), np.inf):
                yield latencies, deadline, budget, cost


def test_security_filter_admits_as_the_loop_did(monkeypatch):
    # admission only: the clear is stubbed out
    monkeypatch.setattr(market, "clear_all_scenarios", lambda grid, prosumers, tol: {})
    instances = {}
    for latencies, deadline, budget, cost in admission_cases():
        n = len(latencies)
        if n not in instances:
            instances[n] = random_instance(n, 2, seed=n)
        grid, prosumers = instances[n]
        keep, _ = security_coupled_clearing(grid, prosumers, budget, deadline, latencies, cost)
        expected = loop_admission(latencies, deadline, budget, cost)
        assert keep.dtype == np.int64
        assert keep.tobytes() == expected.tobytes(), (n, deadline, budget, cost)


@pytest.mark.parametrize("n, cost, n_lines", [
    (3000, 100.7, 2),   # the market case study's prosumer count at a fractional key cost
    (20, 0.1, 5),
])
def test_security_filter_slack_budget_admits_every_node_at_fractional_costs(n, cost, n_lines):
    # cmd_market's budget cost * n fits every on-time node; a running sum
    # of the costs ends above it here and used to drop the last node
    assert np.cumsum(np.full(n, cost))[-1] > cost * n
    grid, prosumers = random_instance(n, n_lines, seed=1)
    keep, _ = security_coupled_clearing(grid, prosumers, cost * n, 1.0, np.zeros(n), cost)
    assert keep.tobytes() == np.arange(n).tobytes()


def test_security_filter_refuses_a_negative_cost():
    grid, prosumers = random_instance(6, 2, seed=9)
    for cost in (-1.0, np.nan):
        with pytest.raises(ValueError, match="cost"):
            security_coupled_clearing(grid, prosumers, 1e12, 100.0, np.full(6, 10.0), cost)


@pytest.mark.parametrize("field, bad", [
    ("alpha", np.inf), ("pi", np.inf), ("pi", -np.inf), ("pi", np.nan), ("p_max", np.inf),
])
def test_every_entry_point_refuses_a_non_finite_follower(field, bad):
    # with one pi = inf, solve_base reported BASE and WBASE at welfare inf as
    # feasible; with one pi = NaN, clear_all_scenarios ran until NoConvergence
    grid, prosumers = random_instance(12, 4, seed=1)
    prosumers = prosumers.copy()
    prosumers[field][5] = bad
    u = np.zeros(grid.n_lines)
    entry_points = (
        lambda pr: aggregate_response(pr, u, grid.ptdf),
        lambda pr: grid_response(grid, pr, u),
        lambda pr: welfare(pr, np.zeros(12)),
        lambda pr: solve_social(grid, pr),
        lambda pr: solve_stackelberg(grid, pr),
        lambda pr: solve_base(grid, pr),
        lambda pr: clear_all_scenarios(grid, pr),
        lambda pr: security_coupled_clearing(grid, pr, np.inf, 1e9, np.zeros(12), 1.0),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            call(prosumers)


@pytest.mark.parametrize("budget, deadline", [(np.nan, 100.0), (1e12, np.nan), (np.nan, np.nan)])
def test_security_filter_refuses_a_nan_budget_or_deadline(budget, deadline):
    # both used to admit no node and return a "feasible" clear at welfare 0
    grid, prosumers = random_instance(12, 4, seed=1)
    with pytest.raises(ValueError, match="budget and the handshake deadline must not be NaN"):
        security_coupled_clearing(grid, prosumers, budget, deadline, np.full(12, 10.0), 1.0)


def test_security_clears_are_memoized_by_admitted_set(monkeypatch):
    calls = []
    real = market.clear_all_scenarios

    def counted(grid, prosumers, tol):
        calls.append(len(prosumers))
        return real(grid, prosumers, tol)

    monkeypatch.setattr(market, "clear_all_scenarios", counted)
    grid, prosumers = random_instance(10, 3, seed=4)
    fast = np.full(10, 10.0)
    slow = fast.copy()
    slow[3] = 500.0
    clears = {}

    def clear(latencies, memo):
        return security_coupled_clearing(grid, prosumers, 1e12, 100.0, latencies, 256.0,
                                         clears=memo)

    keep_a, a = clear(fast, clears)
    keep_b, b = clear(2 * fast, clears)       # other latencies, the same admitted set
    keep_c, c = clear(slow, clears)
    assert calls == [10, 9]
    assert list(keep_a) == list(keep_b) and 3 not in keep_c
    assert set(clears) == {keep_a.tobytes(), keep_c.tobytes()}
    assert all(b[s] is a[s] for s in SCENARIOS)
    # without a dict, every call clears, to the same bytes
    _, fresh = clear(fast, None)
    clear(fast, None)
    assert calls == [10, 9, 10, 10]
    assert all(_outcome_bytes(a[s]) == _outcome_bytes(fresh[s]) for s in SCENARIOS)


def test_security_filter_scale_invariance_in_valuations():
    grid, prosumers = random_instance(10, 2, seed=10)
    latencies = np.linspace(5, 200, 10)
    keep1, _ = security_coupled_clearing(grid, prosumers, 6 * 256.0, 120.0, latencies, 256.0)
    scaled = prosumers.copy()
    scaled["pi"] *= 37.0
    keep2, _ = security_coupled_clearing(grid, scaled, 6 * 256.0, 120.0, latencies, 256.0)
    assert list(keep1) == list(keep2)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


# SHA-256 of an instance's alpha, pi, p_max (<f8) and bus (<i8) values, field
# after field: a change to the draw order changes every output byte
DRAW_DIGESTS = {
    ("random", 1): "61f81d8a9b7a4a267c8c66163141956950de4894580539a57e0338f0b63e3251",
    ("random", 2): "7a42655d951262eebb7439dd0a68f5594256a3d2fba70ad32bfb611b6f70c026",
    ("random", 3): "c0a4abcf6c35832eb1b82405699b17c3ac2baeb91d251162447e2cadda0f0d1a",
    ("grid", 7): "ed0a157d79f98777735e9bef15f0916793dae24dc488561b3e707b34b3b0fb6d",
}


@pytest.mark.parametrize("kind, seed", list(DRAW_DIGESTS))
def test_instance_draws_are_pinned(kind, seed):
    if kind == "random":
        _, prosumers = random_instance(40, 8, seed=seed)
    else:
        _, prosumers = synthetic_grid_instance(n_prosumers=300, n_buses=30, n_lines=24, seed=seed)
    digest = hashlib.sha256()
    for field, dtype in (("alpha", "<f8"), ("pi", "<f8"), ("p_max", "<f8"), ("bus", "<i8")):
        digest.update(prosumers[field].astype(dtype).tobytes())
    assert digest.hexdigest() == DRAW_DIGESTS[kind, seed]


def test_aggregate_response_takes_a_list_of_records():
    # the call form of perfbench's clear certificate: a list of single
    # records gives the same bytes as the array subset
    grid, prosumers = synthetic_grid_instance(n_prosumers=300, n_buses=30, n_lines=24, seed=3)
    keep = np.arange(0, len(prosumers), 3)
    h = grid.ptdf[:, keep]
    u = np.random.default_rng(5).uniform(0.0, 5.0, grid.n_lines)
    listed = aggregate_response([prosumers[i] for i in keep], u, h)
    assert listed.tobytes() == aggregate_response(prosumers[keep], u, h).tobytes()


def test_synthetic_grid_shape():
    grid, prosumers = synthetic_grid_instance(300, n_buses=50, n_lines=40, seed=12)
    assert grid.bus_ptdf.shape == (40, 50)
    assert np.array_equal(grid.bus, prosumers["bus"])
    assert grid.ptdf.shape == (40, 300)
    assert prosumers.dtype == PROSUMER and len(prosumers) == 300
    assert ((0 <= prosumers["bus"]) & (prosumers["bus"] < 50)).all()
    assert (grid.line_limits > 0).all()


def test_grid_model_validation():
    with pytest.raises(ValueError):
        GridModel(
            bus_ptdf=np.array([[1.0]]),
            bus=np.arange(1),
            line_limits=np.array([-1.0]),
            leader_q_diag=np.array([1.0]),
            leader_c=np.array([0.0]),
        )
    with pytest.raises(ValueError):
        GridModel(
            bus_ptdf=np.array([[1.0]]),
            bus=np.arange(1),
            line_limits=np.array([1.0]),
            leader_q_diag=np.array([0.0]),
            leader_c=np.array([0.0]),
        )
    # every entry point refuses a follower with alpha or p_max <= 0 or NaN,
    # the second of two; security_coupled_clearing before it admits no one
    grid = GridModel(bus_ptdf=np.array([[1.0, 1.0]]), bus=np.arange(2),
                     line_limits=np.array([1.0]), leader_q_diag=np.array([1.0]),
                     leader_c=np.array([0.0]))
    entry_points = (
        lambda pr: aggregate_response(pr, np.zeros(1), grid.ptdf),
        lambda pr: welfare(pr, np.zeros(2)),
        lambda pr: solve_social(grid, pr),
        lambda pr: solve_stackelberg(grid, pr),
        lambda pr: solve_base(grid, pr),
        lambda pr: clear_all_scenarios(grid, pr),
        lambda pr: security_coupled_clearing(grid, pr, 0.0, 1e9, np.ones(2), 256.0),
    )
    for field, bad in (("alpha", (0.0, 5.0, 10.0, 0)), ("alpha", (-1.0, 5.0, 10.0, 0)),
                       ("alpha", (np.nan, 5.0, 10.0, 0)), ("p_max", (1.0, 5.0, 0.0, 0)),
                       ("p_max", (1.0, 5.0, -1.0, 0)), ("p_max", (1.0, 5.0, np.nan, 0))):
        for call in entry_points:
            with pytest.raises(ValueError, match=f"{field} must be positive"):
                call(records((1.0, 5.0, 10.0, 0), bad))


@pytest.mark.parametrize("field, bad, message", [
    ("line_limits", [1.0, np.nan], "line limits"),
    ("line_limits", [1.0, np.inf], "line limits"),
    ("line_limits", [-np.inf, 1.0], "line limits"),
    ("leader_q_diag", [np.nan, 1.0], "strictly convex"),
    ("bus_ptdf", [[1.0, np.nan], [0.0, 1.0]], "bus_ptdf"),
    ("leader_q_diag", [1.0, np.inf], "strictly convex"),
    ("leader_c", [0.0, np.nan], "leader_c"),
])
def test_grid_model_refuses_nan_and_infinite_entries(field, bad, message):
    good = {"bus_ptdf": [[1.0, 0.5], [0.0, 1.0]], "line_limits": [1.0, 1.0],
            "leader_q_diag": [1.0, 1.0], "leader_c": [0.0, 0.0]}
    with pytest.raises(ValueError, match=message):
        GridModel(bus=np.arange(2), **{**good, field: np.array(bad)})


def test_overload_hand_values_on_two_lines():
    # limits 2 and 4: the relative overload of a line is (flow - limit) / (1 + limit)
    grid = GridModel(bus_ptdf=np.eye(2), bus=np.arange(2), line_limits=[2.0, 4.0],
                     leader_q_diag=[1.0, 1.0], leader_c=[0.0, 0.0])
    assert grid.overload(np.array([2.0, 4.0])) == 0.0       # at the limits
    assert grid.overload(np.array([-9.0, 1.0])) == 0.0      # under them
    assert grid.overload(np.array([3.5, 4.0])) == 0.5       # 1.5 / 3
    assert grid.overload(np.array([2.3, 6.5])) == 0.5       # max(0.3 / 3, 2.5 / 5)
    assert grid.overload(np.array([2.6, 4.5])) == pytest.approx(0.2)


@pytest.mark.parametrize("field", ["line_limits", "leader_q_diag", "leader_c"])
@pytest.mark.parametrize("bad", [[1.0], [1.0, 1.0, 1.0], 1.0, [[1.0, 1.0]]])
def test_grid_model_needs_one_entry_per_line(field, bad):
    # two lines: a vector of another length, a scalar or a matrix is refused
    # here rather than failing later inside a solver
    good = {"line_limits": [1.0, 1.0], "leader_q_diag": [1.0, 1.0], "leader_c": [0.0, 0.0]}
    ptdf = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match=field):
        GridModel(bus_ptdf=ptdf, bus=np.arange(2), **{**good, field: np.array(bad)})


@pytest.mark.parametrize("bus", [
    np.array([0.0, 1.0]),            # floats, even integral ones
    np.array([True, False]),
    np.array([[0, 1]]),              # not 1-D
    np.int64(0),
    np.array([0, 2]),                # past the last of the 2 buses
    np.array([-1, 0]),
    [0, 1.5],
])
def test_grid_model_refuses_a_bad_bus_map(bus):
    with pytest.raises(ValueError, match="bus"):
        GridModel(bus_ptdf=np.array([[1.0, 0.5]]), bus=bus, line_limits=[1.0],
                  leader_q_diag=[1.0], leader_c=[0.0])


# ---------------------------------------------------------------------------
# bus space against prosumer space
# ---------------------------------------------------------------------------


def paper_instance():
    """The seed-1 instance of the market case study (3000 prosumers, 118
    buses, 186 lines), drawn as `cmd_market` draws it."""
    from qenergydex.rng import substream

    return synthetic_grid_instance(seed=substream(1, "market", "dataset", 0).integers(2 ** 63))


def assert_within(bus_form, oracle, scale):
    """Entrywise agreement to 1e-12 relative to the sum of the terms'
    magnitudes, which bounds a sum's rounding in any order."""
    assert bus_form.shape == oracle.shape
    assert (np.abs(bus_form - oracle) <= 1e-12 * scale).all()


@pytest.mark.parametrize("instance", ["random 1", "random 2", "random 3", "random 4", "paper"])
def test_bus_space_matches_prosumer_space(instance):
    # the solvers' bus-space products against the prosumer-space formulas
    # over H = bus_ptdf[:, bus] that they replaced
    if instance == "paper":
        grid, prosumers = paper_instance()
        assert grid.bus_ptdf.shape == (186, 118)
    else:
        grid, prosumers = random_instance(20, 5, seed=int(instance.split()[1]))
        assert np.array_equal(grid.bus, np.arange(20))
    h = grid.ptdf
    alpha, pi, pmax = prosumers["alpha"], prosumers["pi"], prosumers["p_max"]
    rng = np.random.default_rng(8)
    for kappa in (0.01, 0.3, 3.0):
        u = kappa * rng.uniform(0.0, 2.0, grid.n_lines) * (rng.random(grid.n_lines) < 0.7)
        prices = h.T @ u
        assert_within(grid.prices(u), prices, np.abs(h).T @ u)
        p = aggregate_response(prosumers, u, h)
        assert_within(grid_response(grid, prosumers, u), p, alpha * (np.abs(h).T @ u))
        assert_within(grid.flows(p), h @ p, np.abs(h) @ np.abs(p))
        raw = alpha * (pi - prices)
        # the descent's M over the free followers F, which is also the
        # Newton M, and M at fractional weights
        free = np.abs(raw) < pmax
        h_free = h[:, free]
        assert_within(grid.sensitivity(np.where(free, alpha, 0.0)),
                      (h_free * alpha[free]) @ h_free.T,
                      (np.abs(h_free) * alpha[free]) @ np.abs(h_free).T)
        w = rng.random(alpha.size) * alpha
        assert_within(grid.sensitivity(w), (h * w) @ h.T, (np.abs(h) * w) @ np.abs(h).T)
    keep = np.arange(0, len(prosumers), 3)
    sub = grid.restrict(keep)
    assert np.shares_memory(sub.bus_ptdf, grid.bus_ptdf)
    assert sub.ptdf.tobytes() == h[:, keep].tobytes()
