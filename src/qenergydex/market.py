"""Stackelberg-constrained bilateral market clearing.

Followers (prosumers) hold quadratic costs C_i(p) = p^2 / (2 alpha_i) and
respond to bus prices with the capped affine rule

    p_i(u) = clip( alpha_i (pi_i - (H^T u)_i), -p_max_i, +p_max_i ).

The leader picks line shadow prices u >= 0 minimizing its strictly convex
cost 0.5 u^T Q u + c^T u subject to the followers' induced line flows
H p(u) staying inside the thermal limits. The social-welfare benchmark is
solved through its Lagrangian dual with projected Newton steps (the dual
gradient is the line slack, with the capped response as the inner argmax).
The leader problem is nonconvex, but on each cap pattern (which followers
sit at +-p_max) the flows are affine in u and it is a convex QP; the
leader solver descends over cap patterns, one exact QP per step, checking
each step against the true capped response. Each QP is solved through its
NNLS dual by an in-house Lawson-Hanson active-set method (`_nnls`, numpy
only), warm-started from the constraints active at the previous QP of the
same descent. The NNLS residual is unique, so each QP point is unique up
to rounding however the NNLS is started. SOCIAL's dual price is always a
feasible leader price and is one of its start points, so STACK never
costs the leader more than SOCIAL's price does.

Scenario set:

  SOCIAL  welfare maximum subject to caps and line limits,
  STACK   leader-follower equilibrium as above,
  BASE    congestion-blind response, uniformly rescaled onto the worst
          violated line,
  WBASE   congestion-blind response with welfare-aware curtailment
          (relief direction proportional to alpha_i H_bi, the least
          welfare-loss direction in the 1/alpha metric), falling back to
          uniform rescaling when targeted relief is insufficient; of the
          two feasible candidates the better one is kept, so WBASE never
          does worse than BASE.

Security coupling: a node participates when its sampled handshake latency
meets the deadline and the cumulative key cost fits the entropy budget
(admission in node-id order); clearing then runs on the admitted subset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import substream

__all__ = [
    "Prosumer",
    "GridModel",
    "MarketOutcome",
    "NoConvergence",
    "follower_response",
    "aggregate_response",
    "welfare",
    "leader_cost",
    "solve_social",
    "solve_stackelberg",
    "solve_base",
    "security_coupled_clearing",
    "random_instance",
    "synthetic_grid_instance",
    "instance_to_json",
    "instance_from_json",
    "SCENARIOS",
]

SCENARIOS = ("SOCIAL", "STACK", "BASE", "WBASE")
DEFAULT_TOL = 1e-6
_NEWTON_STEPS = 400             # projected Newton steps of solve_social
_QP_STEPS_PER_START = 100_000   # bounds solve_stackelberg's descent from each start
_NNLS_SOLVES_PER_COLUMN = 3     # _nnls gives up after 3n least-squares solves, as scipy's nnls


class NoConvergence(RuntimeError):
    """Iteration cap reached before the tolerance was met."""


@dataclass(frozen=True)
class Prosumer:
    id: int
    alpha: float
    pi: float
    p_max: float
    bus: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")


@dataclass(frozen=True)
class GridModel:
    """PTDF matrix (lines x prosumers), limits, and leader cost coefficients."""

    ptdf: np.ndarray
    line_limits: np.ndarray
    leader_q_diag: np.ndarray
    leader_c: np.ndarray

    def __post_init__(self):
        ptdf = np.atleast_2d(np.asarray(self.ptdf, dtype=float))
        limits = np.asarray(self.line_limits, dtype=float)
        q = np.asarray(self.leader_q_diag, dtype=float)
        c = np.asarray(self.leader_c, dtype=float)
        if q.ndim == 0:
            q = np.full(ptdf.shape[0], float(q))
        if c.ndim == 0:
            c = np.full(ptdf.shape[0], float(c))
        object.__setattr__(self, "ptdf", ptdf)
        object.__setattr__(self, "line_limits", limits)
        object.__setattr__(self, "leader_q_diag", q)
        object.__setattr__(self, "leader_c", c)
        if limits.shape != (ptdf.shape[0],):
            raise ValueError("line_limits must have one entry per line")
        if (limits <= 0).any():
            raise ValueError("line limits must be positive")
        if (q <= 0).any():
            raise ValueError("leader cost must be strictly convex (q > 0)")

    @property
    def n_lines(self) -> int:
        return self.ptdf.shape[0]

    def restrict(self, keep: np.ndarray) -> "GridModel":
        """Grid restricted to a subset of prosumer columns."""
        return GridModel(
            ptdf=self.ptdf[:, keep],
            line_limits=self.line_limits,
            leader_q_diag=self.leader_q_diag,
            leader_c=self.leader_c,
        )


@dataclass(frozen=True)
class MarketOutcome:
    u: np.ndarray
    p: np.ndarray
    welfare: float
    scenario: str
    feasible: bool
    iterations: int = 0
    kkt_residual: float = 0.0


def _vectors(prosumers: list[Prosumer]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    alpha = np.array([pr.alpha for pr in prosumers])
    pi = np.array([pr.pi for pr in prosumers])
    pmax = np.array([pr.p_max for pr in prosumers])
    return alpha, pi, pmax


def _response(alpha, pi, pmax, h, u):
    """Capped responses clip(alpha (pi - H^T u), +-p_max) of stacked followers."""
    return np.clip(alpha * (pi - h.T @ u), -pmax, pmax)


def follower_response(prosumer: Prosumer, u: np.ndarray, h_column: np.ndarray) -> float:
    """Capped best response p_i = clip(alpha_i (pi_i - u . H_col), +-p_max)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if (u < 0).any():
        raise ValueError("prices must be non-negative")
    raw = prosumer.alpha * (prosumer.pi - float(np.dot(u, np.atleast_1d(h_column))))
    return float(np.clip(raw, -prosumer.p_max, prosumer.p_max))


def aggregate_response(
    prosumers: list[Prosumer], u: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Stacked follower responses; equals diag(alpha)(pi - H^T u) when no cap binds."""
    alpha, pi, pmax = _vectors(prosumers)
    return _response(alpha, pi, pmax, np.atleast_2d(np.asarray(h, dtype=float)), np.atleast_1d(u))


def welfare(prosumers: list[Prosumer], p: np.ndarray) -> float:
    """Social welfare sum(pi_i p_i - p_i^2 / (2 alpha_i))."""
    alpha, pi, _ = _vectors(prosumers)
    p = np.asarray(p, dtype=float)
    return float(np.sum(pi * p - p * p / (2.0 * alpha)))


def leader_cost(grid: GridModel, u: np.ndarray) -> float:
    """The leader's cost 0.5 u^T Q u + c^T u of a price vector."""
    u = np.asarray(u, dtype=float)
    return 0.5 * float(grid.leader_q_diag @ (u * u)) + float(grid.leader_c @ u)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _kkt_residual_social(u, flows, limits) -> float:
    scale = 1.0 + np.abs(limits)
    viol = np.maximum(0.0, flows - limits) / scale
    slack = np.maximum(0.0, limits - flows)
    cs = (u * slack) / (scale * (1.0 + np.abs(u)))
    return float(max(viol.max(initial=0.0), cs.max(initial=0.0)))


def solve_social(
    grid: GridModel,
    prosumers: list[Prosumer],
    tol: float = DEFAULT_TOL,
) -> MarketOutcome:
    """Welfare maximum under caps and line limits, via the projected dual.

    The dual function g(u) = max_p [W(p) - u.(Hp - limits)] has the capped
    response as inner argmax and gradient limits - H p(u); it is minimized
    over u >= 0 from u = 0 with at most ``_NEWTON_STEPS`` projected Newton
    steps (the dual Hessian is the line-flow sensitivity of the active
    prosumers) guarded by Armijo backtracking on the dual value.

    Each Newton direction is a descent direction. On the free lines it is
    d = -S^-1 g with S = M + ridge I, where M = H diag(act alpha) H^T is
    positive semidefinite (act >= 0, alpha > 0) and ridge > 0, so S is
    symmetric positive definite: the solve cannot fail, and the slope
    g.d = -g^T S^-1 g is negative unless g = 0 on the free lines, when d
    is 0. Capping |d| scales it by a positive factor and keeps that sign.
    """
    alpha, pi, pmax = _vectors(prosumers)
    h = grid.ptdf
    limits = grid.line_limits

    def g_val(u):
        p = _response(alpha, pi, pmax, h, u)
        return welfare(prosumers, p) - float(u @ (h @ p - limits)), p

    u = np.zeros(grid.n_lines)
    g_u, p = g_val(u)
    iterations = 0
    residual = math.inf
    for iterations in range(1, _NEWTON_STEPS + 1):
        raw = alpha * (pi - h.T @ u)
        p = np.clip(raw, -pmax, pmax)
        flows = h @ p
        residual = _kkt_residual_social(u, flows, limits)
        if residual <= tol:
            break
        grad = limits - flows
        act = _smoothed_activity(raw, pmax)
        m = (h * (act * alpha)) @ h.T
        ridge = 1e-10 * (1.0 + float(np.trace(m)) / len(limits))
        free = (u > 0) | (grad < 0)
        d = np.zeros_like(u)
        idx = np.nonzero(free)[0]
        if idx.size == 0:
            break
        # symmetric positive definite (see the docstring), so the solve
        # succeeds and d is a descent direction
        sub = m[np.ix_(idx, idx)] + ridge * np.eye(idx.size)
        d[idx] = np.linalg.solve(sub, -grad[idx])
        cap = 1e3 * (1.0 + float(np.abs(u).max()))
        dmax = float(np.abs(d).max(initial=0.0))
        if dmax > cap:
            d *= cap / dmax
        slope = float(grad @ d)
        t_step = 1.0
        accepted = False
        for _bt in range(60):
            u_try = np.maximum(0.0, u + t_step * d)
            g_try, _ = g_val(u_try)
            if g_try <= g_u + 1e-4 * t_step * slope + 1e-15:
                accepted = True
                break
            t_step *= 0.5
        if not accepted:
            break
        u, g_u = u_try, g_try
    p = _response(alpha, pi, pmax, h, u)
    flows = h @ p
    residual = _kkt_residual_social(u, flows, limits)
    if residual > tol:
        raise NoConvergence(f"social solver residual {residual:.2e} after {iterations} iterations")
    return MarketOutcome(
        u=u,
        p=p,
        welfare=welfare(prosumers, p),
        scenario="SOCIAL",
        feasible=bool((flows <= limits + 1e-6 * (1 + np.abs(limits))).all()),
        iterations=iterations,
        kkt_residual=residual,
    )


def _smoothed_activity(raw, pmax):
    # 1 inside the cap, 0 outside, linear ramp of width delta near the kink
    delta = 1e-8 * (1.0 + pmax)
    return np.clip((pmax - np.abs(raw)) / delta + 0.5, 0.0, 1.0)


_RAY_KAPPAS = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 36)))


def _uniform_price_ray(h, alpha, pi, pmax):
    """Yield (u, line flows) at each probe price u = kappa * 1 of the uniform-price ray."""
    for kappa in _RAY_KAPPAS:
        u = np.full(h.shape[0], kappa)
        yield u, h @ _response(alpha, pi, pmax, h, u)


def _nnls(a, b, passive):
    """argmin |a z - b| over z >= 0, by Lawson & Hanson's active-set method.

    Lawson & Hanson, Solving Least Squares Problems (1974), ch. 23: the
    column with the largest positive gradient w = a^T (b - a z) joins the
    passive set P, unless the least squares on P then gives it a
    nonpositive weight (their independence test); a step back into z >= 0
    drops the columns that reach zero. Each least squares on P is solved
    from the Gram submatrix a_P^T a_P (Bro & De Jong, J. Chemometrics 11,
    1997) and corrected once from its residual (Bjorck, Numerical Methods
    for Least Squares Problems, 1996, 2.2.4). The residual then agrees
    with a QR solve's to rounding on well-conditioned passive sets, such as
    the leader QPs' (cond(a_P) near 20); on nearly dependent columns
    (cond(a_P) of 1e5 and more) it can end above scipy's.

    `passive` (a column mask) warm-starts the method: the least squares on
    that set, re-solved with its nonpositive entries dropped until the rest
    are positive, is a feasible start; the empty set is a cold start. A set
    whose Gram submatrix is not clearly positive definite is replaced by
    the empty set. Raises NoConvergence after 3n least-squares solves, the
    cap of scipy.optimize.nnls.
    """
    n = a.shape[1]
    max_iter = _NNLS_SOLVES_PER_COLUMN * n
    # gradients below this are rounding (Bro & De Jong's tolerance, scaled by |b|)
    tol = 10 * np.finfo(float).eps * max(a.shape) * np.linalg.norm(a, axis=0).max()
    tol *= np.linalg.norm(b)
    solves = 0

    def lstsq(p):
        nonlocal solves
        solves += 1
        if solves > max_iter:
            raise NoConvergence(f"NNLS not solved in {max_iter} iterations")
        s = np.zeros(n)
        ap = a[:, p]
        gram = ap.T @ ap
        s[p] = np.linalg.solve(gram, ap.T @ b)
        s[p] += np.linalg.solve(gram, ap.T @ (b - ap @ s[p]))
        return s

    p = np.zeros(n, dtype=bool)
    if passive.any():
        # a squared Cholesky pivot is the squared distance of its column
        # from the span of the columns before it
        gram = a[:, passive].T @ a[:, passive]
        try:
            if (np.diag(np.linalg.cholesky(gram)) ** 2 > 1e-8 * np.diag(gram)).all():
                p = passive.copy()
        except np.linalg.LinAlgError:
            pass
    x = np.zeros(n)
    while p.any():
        s = lstsq(p)
        if (s[p] > 0).all():
            x = s
            break
        p &= s > 0
    w = a.T @ (b - a @ x)
    while True:
        w[p] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x
        p[j] = True
        s = lstsq(p)
        if s[j] <= 0:                        # the independence test
            p[j], w[j] = False, -np.inf
            continue
        while (s[p] <= 0).any():             # step back to z >= 0, drop the zeros
            neg = np.flatnonzero(p & (s <= 0))
            ratio = x[neg] / (x[neg] - s[neg])
            k = np.argmin(ratio)
            x += ratio[k] * (s - x)
            x[neg[k]] = 0.0
            p &= x > 0
            x[~p] = 0.0
            s = lstsq(p)
        x = s
        w = a.T @ (b - a @ x)


def _leader_qp(m, b, q, c, passive):
    """min 0.5 u^T diag(q) u + c^T u  s.t.  m u >= b, u >= 0 (must be feasible).

    With w = sqrt(q) u + c / sqrt(q) the objective is |w|^2 / 2 plus a
    constant and the constraints stay linear, E w >= f. That least-distance
    problem is solved through its NNLS dual (Lawson & Hanson, Solving Least
    Squares Problems, 1974, ch. 23): minimize |[E^T; f^T] z - e_last| over
    z >= 0 with `_nnls`; with residual r, w = -r[:-1] / r[-1]. The NNLS
    residual is unique, so the QP point is unique up to rounding, whatever
    the dual z and however the NNLS is started.

    `passive` marks the rows of [m; I] whose multipliers z were positive in
    an earlier QP; it warm-starts the NNLS. Returns the point and the same
    mask for this QP.
    """
    rq = np.sqrt(q)
    g = np.vstack((m, np.eye(len(q))))
    e = g / rq
    f = np.concatenate((b, np.zeros(len(q)))) + g @ (c / q)
    # rows of lines no free follower loads read 0 >= f, which the caller's
    # feasible point already satisfies; drop them and normalize the rest
    norms = np.linalg.norm(e, axis=1)
    rows = norms > 1e-12 * norms.max()
    a = np.vstack(((e[rows] / norms[rows, None]).T, f[rows] / norms[rows]))
    rhs = np.zeros(len(q) + 1)
    rhs[-1] = 1.0
    z = _nnls(a, rhs, passive[rows])
    r = a @ z - rhs
    w = -r[:-1] / r[-1]
    active = np.zeros_like(rows)
    active[rows] = z > 0
    return np.maximum(0.0, (w - c / rq) / rq), active


def solve_stackelberg(
    grid: GridModel,
    prosumers: list[Prosumer],
    tol: float = DEFAULT_TOL,
    u0: np.ndarray | None = None,
) -> MarketOutcome:
    """Leader problem min C_grid(u) s.t. H p(u) <= limits, u >= 0.

    A descent over cap patterns. With the pattern of capped followers
    fixed, flows are f0 - M u with M = H_F diag(alpha_F) H_F^T over the
    free followers F, and the leader problem on that piece is the convex
    QP min C_grid(u) s.t. M u >= f0 - limits, u >= 0 (solved exactly by
    `_leader_qp`; lines already overloaded at the current price may not
    get worse; each QP's NNLS starts from the constraints active at the
    previous QP of the same start). Each step solves the QP of the current
    piece, then walks the segment toward its solution under the true
    capped response and stops at the first line overload (flows are
    piecewise linear along the segment, so the crossing is located over
    the cap breakpoints and solved exactly). The cost is convex along the
    segment and no larger at its end, so it never increases; the next
    piece is the one the segment was in when it stopped. Steps repeat
    until the cost stops decreasing, at most `_QP_STEPS_PER_START` QP
    solves per start.

    Starts: SOCIAL's dual price (always feasible, p(u) is then the social
    optimum), the cheapest feasible point of the uniform-price ray, and
    `u0` when given and feasible; the cheapest result is kept. The problem
    is nonconvex across patterns, so this certifies feasibility and the
    SOCIAL-price bound, not global optimality.

    `iterations` counts QP solves over all starts. `kkt_residual` is the
    primal part of the KKT residual: the worst line overload of the
    returned prices, recomputed from the capped response, relative to
    1 + |limit|. `feasible` is that residual <= tol. Raises NoConvergence
    when `solve_social` does.
    """
    alpha, pi, pmax = _vectors(prosumers)
    h = grid.ptdf
    limits = grid.line_limits
    q = grid.leader_q_diag
    c = grid.leader_c
    scale = 1.0 + np.abs(limits)

    def rel_viol(flows):
        return float((np.maximum(0.0, flows - limits) / scale).max(initial=0.0))

    def first_overload(raw, draw, bound):
        """(t, piece): how far along raw + t draw, t in [0, 1], flows stay
        under bound, and the responses of the piece where they stop."""
        def flows_at(t):
            return h @ np.clip(raw + t * draw, -pmax, pmax)

        def over(flows):
            return bool((flows > bound + 1e-12 * scale).any())

        f_hi = flows_at(1.0)
        if not over(f_hi):
            return 1.0, raw + draw
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.concatenate(((pmax - raw) / draw, (-pmax - raw) / draw))
        ts = np.concatenate(([0.0], np.unique(kinks[(kinks > 0.0) & (kinks < 1.0)]), [1.0]))
        lo, hi = 0, len(ts) - 1
        f_lo = flows_at(0.0)
        while hi - lo > 1:                   # keep: flows at ts[lo] fit, at ts[hi] not
            mid = (lo + hi) // 2
            f_mid = flows_at(ts[mid])
            if over(f_mid):
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
        rise = f_hi - f_lo                   # flows are affine between adjacent kinks
        up = rise > 0
        frac = min(1.0, max(0.0, float(np.min((bound[up] - f_lo[up]) / rise[up], initial=1.0))))
        return ts[lo] + frac * (ts[hi] - ts[lo]), raw + 0.5 * (ts[lo] + ts[hi]) * draw

    def descend(u):
        cost = leader_cost(grid, u)
        raw = alpha * (pi - h.T @ u)
        piece = raw
        passive = np.zeros(2 * len(q), dtype=bool)   # NNLS warm start, rows of [M; I]
        iters = 0
        while iters < _QP_STEPS_PER_START:
            iters += 1
            free = np.abs(piece) < pmax
            f0 = h @ np.where(free, alpha * pi, np.clip(piece, -pmax, pmax))
            h_free = h[:, free]
            m = (h_free * alpha[free]) @ h_free.T
            u_qp, passive = _leader_qp(m, np.minimum(f0 - limits, m @ u), q, c, passive)
            if leader_cost(grid, u_qp) >= cost - 1e-12 * (1.0 + abs(cost)):
                break
            draw = -alpha * (h.T @ (u_qp - u))
            flows = h @ np.clip(raw, -pmax, pmax)
            t, piece = first_overload(raw, draw, np.maximum(limits, flows))
            u_next = u + t * (u_qp - u)
            cost_next = leader_cost(grid, u_next)
            if cost_next >= cost - 1e-12 * (1.0 + abs(cost)):
                break
            u, cost = u_next, cost_next
            raw = alpha * (pi - h.T @ u)
        return u, cost, iters

    starts = [solve_social(grid, prosumers, tol).u]
    ray = [u for u, flows in _uniform_price_ray(h, alpha, pi, pmax) if rel_viol(flows) <= tol]
    if ray:
        starts.append(min(ray, key=lambda u: leader_cost(grid, u)))
    if u0 is not None:
        u0 = np.maximum(0.0, np.asarray(u0, dtype=float))
        if rel_viol(h @ _response(alpha, pi, pmax, h, u0)) <= tol:
            starts.append(u0)
    best_cost, u, total_iters = math.inf, starts[0], 0
    for start in starts:
        u_k, cost_k, used = descend(start)
        total_iters += used
        if cost_k < best_cost:
            best_cost, u = cost_k, u_k
    p = _response(alpha, pi, pmax, h, u)
    residual = rel_viol(h @ p)
    return MarketOutcome(
        u=u,
        p=p,
        welfare=welfare(prosumers, p),
        scenario="STACK",
        feasible=residual <= tol,
        iterations=total_iters,
        kkt_residual=residual,
    )


def solve_base(
    grid: GridModel, prosumers: list[Prosumer], weighted: bool = False
) -> MarketOutcome:
    """Congestion-blind clearing with after-the-fact feasibility repair.

    BASE rescales every injection by the single factor that makes the worst
    violated line exactly binding. WBASE first curtails along the least
    welfare-loss direction for the worst line (proportional to
    alpha_i H_bi), re-clips, falls back to uniform rescaling if violations
    remain, and keeps whichever feasible candidate yields higher welfare.
    """
    alpha, pi, pmax = _vectors(prosumers)
    h = grid.ptdf
    limits = grid.line_limits
    p0 = np.clip(alpha * pi, -pmax, pmax)
    flows0 = h @ p0
    violated = flows0 > limits

    def _scale(p):
        flows = h @ p
        over = flows > limits
        if not over.any():
            return p
        theta = float(np.min(limits[over] / flows[over]))
        return theta * p

    if not violated.any():
        p_final = p0
    elif not weighted:
        p_final = _scale(p0)
    else:
        worst = int(np.argmax(flows0 - limits))
        row = h[worst]
        need = flows0[worst] - limits[worst]
        # denom > 0: the worst line is violated, so row @ p0 = flows0[worst]
        # > limits[worst] > 0 and row has a nonzero entry; every alpha > 0
        denom = float(np.sum(alpha * row * row))
        relief = need * (alpha * row) / denom
        p_candidate = np.clip(p0 - relief, -pmax, pmax)
        p_candidate = _scale(p_candidate)   # no-op if targeted relief sufficed
        p_uniform = _scale(p0)
        if welfare(prosumers, p_candidate) < welfare(prosumers, p_uniform):
            p_candidate = p_uniform
        p_final = p_candidate

    return MarketOutcome(
        u=np.zeros(grid.n_lines),
        p=p_final,
        welfare=welfare(prosumers, p_final),
        scenario="WBASE" if weighted else "BASE",
        feasible=bool((h @ p_final <= limits * (1 + 1e-12) + 1e-9).all()),
        iterations=0,
        kkt_residual=0.0,
    )


def clear_all_scenarios(
    grid: GridModel, prosumers: list[Prosumer], tol: float = DEFAULT_TOL
) -> dict[str, MarketOutcome]:
    return {
        "SOCIAL": solve_social(grid, prosumers, tol),
        "STACK": solve_stackelberg(grid, prosumers, tol),
        "BASE": solve_base(grid, prosumers, weighted=False),
        "WBASE": solve_base(grid, prosumers, weighted=True),
    }


# ---------------------------------------------------------------------------
# security-coupled participation
# ---------------------------------------------------------------------------


def security_coupled_clearing(
    grid: GridModel,
    prosumers: list[Prosumer],
    key_budget_bits: float,
    handshake_deadline_ms: float,
    qsah_latencies: np.ndarray,
    per_node_key_cost_bits: float,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, dict[str, MarketOutcome]]:
    """Filter participants by security constraints, then clear all scenarios.

    Node i (in node-id order) is admitted when its sampled handshake
    latency meets the deadline and the cumulative key cost of admitted
    nodes stays inside the entropy budget. The filter depends only on
    latency and key cost, never on the market data.
    """
    latencies = np.asarray(qsah_latencies, dtype=float)
    if latencies.size == 0:
        raise ValueError("need at least one latency sample")
    admitted = []
    cost = 0.0
    order = sorted(range(len(prosumers)), key=lambda i: prosumers[i].id)
    for i in order:
        lat = latencies[i % len(latencies)]
        if lat <= handshake_deadline_ms and cost + per_node_key_cost_bits <= key_budget_bits:
            admitted.append(i)
            cost += per_node_key_cost_bits
    keep = np.array(sorted(admitted), dtype=int)
    if keep.size == 0:
        u, p = np.zeros(grid.n_lines), np.zeros(0)
        return keep, {
            s: MarketOutcome(u=u, p=p, welfare=0.0, scenario=s, feasible=True) for s in SCENARIOS
        }
    sub = [prosumers[i] for i in keep]
    outcomes = clear_all_scenarios(grid.restrict(keep), sub, tol)
    return keep, outcomes


# ---------------------------------------------------------------------------
# instance generation and serialization
# ---------------------------------------------------------------------------


def random_instance(
    n_prosumers: int,
    n_lines: int,
    seed: int,
    congestion: float = 0.75,
) -> tuple[GridModel, list[Prosumer]]:
    """Small random instance with a controllable share of binding lines."""
    rng = substream(seed, "market", "instance")
    prosumers = [
        Prosumer(
            id=i,
            alpha=float(rng.lognormal(0.0, 0.4)),
            pi=float(np.clip(rng.normal(10.0, 2.0), 0.5, None)),
            p_max=float(rng.lognormal(1.6, 0.5)),
            bus=int(rng.integers(0, max(2, n_prosumers // 2))),
        )
        for i in range(n_prosumers)
    ]
    alpha, pi, pmax = _vectors(prosumers)
    h = rng.normal(0.0, 1.0, size=(n_lines, n_prosumers))
    h *= rng.random(size=h.shape) < 0.6              # sparsify
    norms = np.maximum(np.linalg.norm(h, axis=1), 1e-9)
    h /= norms[:, None]
    flows0 = np.abs(h @ np.clip(alpha * pi, -pmax, pmax))
    floor = max(float(flows0.max()), 1.0) * 0.05
    limits = np.maximum(flows0 * rng.uniform(congestion, 1.6, size=n_lines), floor)
    limits = _ensure_price_reachable(limits, h, alpha, pi, pmax)
    grid = GridModel(
        ptdf=h,
        line_limits=limits,
        leader_q_diag=np.ones(n_lines),
        leader_c=np.zeros(n_lines),
    )
    return grid, prosumers


def _ensure_price_reachable(limits, h, alpha, pi, pmax) -> np.ndarray:
    """Raise limits just enough that some uniform price vector is feasible.

    The leader steers injections only through prices, so the reachable flow
    set may not contain every point that is feasible in injection space;
    probing a uniform-price ray and lifting the limits onto its best point
    guarantees the leader problem has a feasible point.
    """
    best = np.full(limits.shape, np.inf)
    for _u, flows in _uniform_price_ray(h, alpha, pi, pmax):
        worst = np.maximum(flows - limits, 0.0).max()
        if worst < np.maximum(best - limits, 0.0).max():
            best = flows
    return np.maximum(limits, best * (1.0 + 1e-9) + 1e-12)


def synthetic_grid_instance(
    n_prosumers: int = 3000,
    n_buses: int = 118,
    n_lines: int = 186,
    seed: int = 0,
    congestion: float = 0.85,
) -> tuple[GridModel, list[Prosumer]]:
    """Transmission-scale synthetic instance: prosumers mapped to buses.

    The PTDF over buses is sparse zero-mean with unit row normalization;
    prosumer columns are the PTDF entries of their bus. Valuations are
    normal, capacities lognormal. Limits are calibrated from the
    congestion-blind flows so that a moderate share of lines binds.
    """
    rng = substream(seed, "market", "grid118")
    prosumers = [
        Prosumer(
            id=i,
            alpha=float(rng.lognormal(0.0, 0.3)),
            pi=float(np.clip(rng.normal(10.0, 2.0), 0.5, None)),
            p_max=float(rng.lognormal(1.5, 0.5)),
            bus=int(rng.integers(0, n_buses)),
        )
        for i in range(n_prosumers)
    ]
    bus_ptdf = rng.normal(0.0, 1.0, size=(n_lines, n_buses))
    bus_ptdf *= rng.random(size=bus_ptdf.shape) < 0.25
    norms = np.maximum(np.linalg.norm(bus_ptdf, axis=1), 1e-9)
    bus_ptdf /= norms[:, None]
    buses = np.array([pr.bus for pr in prosumers])
    h = bus_ptdf[:, buses]
    alpha, pi, pmax = _vectors(prosumers)
    flows0 = np.abs(h @ np.clip(alpha * pi, -pmax, pmax))
    floor = max(float(flows0.max()), 1.0) * 0.02
    limits = np.maximum(flows0 * rng.uniform(congestion, 1.8, size=n_lines), floor)
    limits = _ensure_price_reachable(limits, h, alpha, pi, pmax)
    grid = GridModel(
        ptdf=h,
        line_limits=limits,
        leader_q_diag=np.ones(n_lines),
        leader_c=np.zeros(n_lines),
    )
    return grid, prosumers


def instance_to_json(grid: GridModel, prosumers: list[Prosumer]) -> str:
    doc = {
        "prosumers": [
            {"alpha": pr.alpha, "pi": pr.pi, "p_max": pr.p_max, "bus": pr.bus}
            for pr in prosumers
        ],
        "ptdf": [list(map(float, row)) for row in grid.ptdf],
        "line_limits": [float(v) for v in grid.line_limits],
        "leader_cost": {
            "q_diag": [float(v) for v in grid.leader_q_diag],
            "c": [float(v) for v in grid.leader_c],
        },
    }
    return json.dumps(doc, sort_keys=True)


def instance_from_json(text: str | Path) -> tuple[GridModel, list[Prosumer]]:
    if isinstance(text, Path):
        text = text.read_text()
    doc = json.loads(text)
    prosumers = [
        Prosumer(id=i, alpha=d["alpha"], pi=d["pi"], p_max=d["p_max"], bus=d["bus"])
        for i, d in enumerate(doc["prosumers"])
    ]
    grid = GridModel(
        ptdf=np.array(doc["ptdf"], dtype=float),
        line_limits=np.array(doc["line_limits"], dtype=float),
        leader_q_diag=np.array(doc["leader_cost"]["q_diag"], dtype=float),
        leader_c=np.array(doc["leader_cost"]["c"], dtype=float),
    )
    return grid, prosumers
